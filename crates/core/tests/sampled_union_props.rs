//! `sampled_union_graph` builds GraphSAGE's sampled neighbourhood union in
//! linear passes (sorted sample rows, a transpose by scatter, a per-vertex
//! merge). It must equal the `EdgeList` build it replaced: every sampled
//! pair pushed, sorted, deduplicated and rebuilt into a CSR.

use proptest::prelude::*;

use gnnie_core::engine::sampled_union_graph;
use gnnie_gnn::layers::sample_neighbors;
use gnnie_graph::{CsrGraph, EdgeList, VertexId};

/// The reference build, kept here as the oracle.
fn union_reference(g: &CsrGraph, k: usize, seed: u64) -> CsrGraph {
    let mut edges = EdgeList::new(g.num_vertices());
    for u in 0..g.num_vertices() {
        for v in sample_neighbors(g, u, k, seed) {
            edges.push(u as VertexId, v);
        }
    }
    CsrGraph::from_edge_list(edges)
}

/// Strategy: random edges (possibly none) over `n` vertices, isolated
/// vertices past them, and up to three hubs (vertex `h` joined to every
/// multiple of `h + 2`) whose degree runs past the sample sizes.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (1usize..80, 0usize..8, 0usize..4).prop_flat_map(|(n, isolated, hubs)| {
        prop::collection::vec((0..n as VertexId, 0..n as VertexId), 0..250).prop_map(
            move |mut pairs| {
                for h in 0..hubs.min(n) as VertexId {
                    pairs.extend(
                        (0..n as VertexId).filter(|v| v % (h + 2) == 0).map(|v| (h, v)),
                    );
                }
                CsrGraph::from_edges(n + isolated, pairs)
            },
        )
    })
}

proptest! {
    #[test]
    fn sampled_union_matches_the_edge_list_reference(g in arb_graph(), seed in 0u64..10_000) {
        // k of 1, 5 and 25, and above the maximum degree (every
        // neighbour kept, so the union is the graph itself).
        let above = g.max_degree() + 1;
        for k in [1, 5, 25, above] {
            let fast = sampled_union_graph(&g, k, seed);
            prop_assert_eq!(&fast, &union_reference(&g, k, seed), "k = {}", k);
        }
        prop_assert_eq!(sampled_union_graph(&g, above, seed), g);
    }
}

#[test]
fn sampled_union_of_an_empty_graph_is_empty() {
    for n in [0, 5] {
        let g = CsrGraph::from_edges(n, []);
        for k in [1, 25] {
            assert_eq!(sampled_union_graph(&g, k, 3), union_reference(&g, k, 3));
            assert_eq!(sampled_union_graph(&g, k, 3).num_edges(), 0);
        }
    }
}

#[test]
fn sampled_union_of_a_star_keeps_every_leaf_edge() {
    // A hub of degree 60 samples 5 leaves, but every leaf samples the hub
    // back: the union is the whole star.
    let star = CsrGraph::from_edges(61, (1..61).map(|v| (0, v)));
    for seed in [1, 2, 3] {
        let union = sampled_union_graph(&star, 5, seed);
        assert_eq!(union, union_reference(&star, 5, seed));
        assert_eq!(union, star);
    }
}
