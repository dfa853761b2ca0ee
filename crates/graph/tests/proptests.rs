//! Property-based tests for the graph substrate.

use gnnie_graph::generate;
use gnnie_graph::partition::{count_induced_edges, induced_edges};
use gnnie_graph::reorder::{degree_bins, Permutation};
use gnnie_graph::traversal::connected_components;
use gnnie_graph::{CsrGraph, EdgeList, SimPool, SimThreads, VertexId};
use proptest::prelude::*;

/// Strategy: a random edge list over 2..40 vertices.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2usize..40).prop_flat_map(|n| {
        prop::collection::vec((0..n as VertexId, 0..n as VertexId), 0..120)
            .prop_map(move |pairs| CsrGraph::from_edges(n, pairs))
    })
}

proptest! {
    #[test]
    fn handshake_lemma(g in arb_graph()) {
        let sum: usize = (0..g.num_vertices()).map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, 2 * g.num_edges());
    }

    #[test]
    fn edges_iterator_matches_edge_count(g in arb_graph()) {
        prop_assert_eq!(g.edges().count(), g.num_edges());
    }

    #[test]
    fn adjacency_is_symmetric(g in arb_graph()) {
        for (u, v) in g.edges() {
            prop_assert!(g.has_edge(u as usize, v as usize));
            prop_assert!(g.has_edge(v as usize, u as usize));
        }
    }

    #[test]
    fn no_self_loops(g in arb_graph()) {
        for v in 0..g.num_vertices() {
            prop_assert!(!g.has_edge(v, v));
        }
    }

    #[test]
    fn descending_degree_is_bijection_with_sorted_degrees(g in arb_graph()) {
        let p = Permutation::descending_degree(&g);
        // Bijection.
        let mut seen = vec![false; g.num_vertices()];
        for i in 0..p.len() {
            let old = p.old_of(i) as usize;
            prop_assert!(!seen[old]);
            seen[old] = true;
            prop_assert_eq!(p.new_of(old) as usize, i);
        }
        // Degrees nonincreasing in the new order.
        let r = p.apply(&g);
        for v in 1..r.num_vertices() {
            prop_assert!(r.degree(v - 1) >= r.degree(v));
        }
        prop_assert_eq!(r.num_edges(), g.num_edges());
    }

    #[test]
    fn relabel_preserves_components(g in arb_graph()) {
        let p = Permutation::descending_degree(&g);
        let r = p.apply(&g);
        let (_, c1) = connected_components(&g);
        let (_, c2) = connected_components(&r);
        prop_assert_eq!(c1, c2);
    }

    #[test]
    fn induced_count_matches_iteration(g in arb_graph(), mask_seed in 0u64..256) {
        let in_set: Vec<bool> = (0..g.num_vertices())
            .map(|v| (mask_seed >> (v % 64)) & 1 == 1)
            .collect();
        prop_assert_eq!(
            count_induced_edges(&g, &in_set),
            induced_edges(&g, &in_set).count()
        );
    }

    #[test]
    fn degree_bins_are_monotone_in_degree(g in arb_graph(), bins in 1usize..8) {
        let b = degree_bins(&g, bins);
        for u in 0..g.num_vertices() {
            for v in 0..g.num_vertices() {
                if g.degree(u) > g.degree(v) {
                    prop_assert!(b[u] <= b[v],
                        "deg({u})={} bin {} vs deg({v})={} bin {}",
                        g.degree(u), b[u], g.degree(v), b[v]);
                }
            }
        }
    }

    #[test]
    fn edge_list_dedup_idempotent(n in 2usize..20, pairs in prop::collection::vec((0u32..20, 0u32..20), 0..60)) {
        let mut el = EdgeList::new(20.max(n));
        el.extend(pairs);
        el.dedup();
        let once = el.clone();
        el.dedup();
        prop_assert_eq!(el, once);
    }

    #[test]
    fn erdos_renyi_deterministic(n in 2usize..50, m in 0usize..100, seed in 0u64..50) {
        let a = generate::erdos_renyi(n, m, seed);
        let b = generate::erdos_renyi(n, m, seed);
        prop_assert_eq!(a, b);
    }
}

proptest! {
    /// BFS distances obey the edge relaxation property: adjacent vertices
    /// differ by at most one level, and every reachable non-source vertex
    /// has a neighbor exactly one level closer.
    #[test]
    fn bfs_distances_are_consistent(g in arb_graph()) {
        use gnnie_graph::traversal::bfs_distances;
        let d = bfs_distances(&g, 0);
        prop_assert_eq!(d[0], Some(0));
        for (u, v) in g.edges() {
            match (d[u as usize], d[v as usize]) {
                (Some(a), Some(b)) => {
                    prop_assert!(a.abs_diff(b) <= 1, "edge ({u},{v}): {a} vs {b}");
                }
                // One endpoint reachable, the other not, is impossible.
                (Some(_), None) | (None, Some(_)) => prop_assert!(false, "({u},{v})"),
                (None, None) => {}
            }
        }
        for v in 1..g.num_vertices() {
            if let Some(dv) = d[v] {
                prop_assert!(
                    g.neighbors(v).iter().any(|&u| d[u as usize] == Some(dv - 1)),
                    "vertex {v} at level {dv} needs a parent"
                );
            }
        }
    }

    /// BFS reachability from any source agrees with component labels.
    #[test]
    fn bfs_reach_equals_component(g in arb_graph(), src in 0usize..40) {
        use gnnie_graph::traversal::bfs_distances;
        let src = src % g.num_vertices();
        let d = bfs_distances(&g, src);
        let (comp, _) = connected_components(&g);
        for v in 0..g.num_vertices() {
            prop_assert_eq!(d[v].is_some(), comp[v] == comp[src], "vertex {}", v);
        }
    }

    /// The induced-subgraph helpers agree with a brute-force filter, and
    /// counting matches enumeration.
    #[test]
    fn induced_edges_match_bruteforce(
        g in arb_graph(),
        mask_bits in prop::collection::vec(any::<bool>(), 40),
    ) {
        let mask: Vec<bool> = (0..g.num_vertices()).map(|v| mask_bits[v]).collect();
        let fast: Vec<_> = induced_edges(&g, &mask).collect();
        let brute: Vec<_> = g
            .edges()
            .filter(|&(u, v)| mask[u as usize] && mask[v as usize])
            .collect();
        prop_assert_eq!(&fast, &brute);
        prop_assert_eq!(count_induced_edges(&g, &mask), brute.len());
    }

    /// Every generator honors its vertex count, never exceeds the
    /// requested edge budget, and produces a simple symmetric graph, at
    /// every pool width.
    #[test]
    fn generators_honor_their_contracts(
        n in 10usize..80,
        m in 10usize..200,
        seed in 0u64..500,
        width in 1usize..=4,
    ) {
        let pool = SimPool::new(SimThreads::Fixed(width));
        for g in [
            generate::erdos_renyi_on(n, m, seed, &pool),
            generate::powerlaw_chung_lu_on(n, m, 2.0, seed, &pool),
            generate::mixed_powerlaw_on(n, m, 2.2, 0.4, seed, &pool),
        ] {
            prop_assert_eq!(g.num_vertices(), n);
            prop_assert!(g.num_edges() <= m, "{} > {m}", g.num_edges());
            for v in 0..n {
                prop_assert!(!g.has_edge(v, v), "self loop at {v}");
            }
        }
    }

    /// Relabeling by any permutation preserves the degree multiset and
    /// the edge count.
    #[test]
    fn relabel_preserves_structure(g in arb_graph(), seed in 0u64..100) {
        let n = g.num_vertices();
        // A deterministic pseudo-random permutation from the seed.
        let mut order: Vec<VertexId> = (0..n as VertexId).collect();
        for i in (1..n).rev() {
            let j = ((seed.wrapping_mul(i as u64 + 1).wrapping_mul(2654435761)) >> 16)
                as usize % (i + 1);
            order.swap(i, j);
        }
        let h = g.relabel(&order);
        prop_assert_eq!(h.num_edges(), g.num_edges());
        let mut dg: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
        let mut dh: Vec<usize> = (0..n).map(|v| h.degree(v)).collect();
        dg.sort_unstable();
        dh.sort_unstable();
        prop_assert_eq!(dg, dh);
    }

    /// The top-fraction edge-coverage statistic is monotone in the
    /// fraction and hits 1.0 at 100%.
    #[test]
    fn edge_coverage_is_monotone(g in arb_graph()) {
        if g.num_edges() == 0 {
            return Ok(());
        }
        let mut last = 0.0f64;
        for f in [0.1, 0.25, 0.5, 1.0] {
            let c = g.edge_coverage_of_top_vertices(f);
            prop_assert!(c >= last - 1e-12, "coverage must grow: {c} < {last} at {f}");
            prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
            last = c;
        }
        prop_assert!((g.edge_coverage_of_top_vertices(1.0) - 1.0).abs() < 1e-9);
    }
}

/// Strategy: a graph with isolated vertices past the last edge endpoint
/// and up to three hubs (vertex `h` joined to every multiple of `h + 2`),
/// over random edges, possibly none.
fn arb_graph_with_hubs() -> impl Strategy<Value = CsrGraph> {
    (1usize..50, 0usize..8, 0usize..4).prop_flat_map(|(n, isolated, hubs)| {
        prop::collection::vec((0..n as VertexId, 0..n as VertexId), 0..150).prop_map(
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

/// A pseudo-random permutation of `0..n` from `seed`.
fn permutation(n: usize, seed: u64) -> Vec<VertexId> {
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    for i in (1..n).rev() {
        let j = ((seed.wrapping_mul(i as u64 + 1).wrapping_mul(2654435761)) >> 16) as usize
            % (i + 1);
        order.swap(i, j);
    }
    order
}

/// The reference relabel: every edge mapped through the inverse
/// permutation into an `EdgeList`, then sorted and rebuilt.
fn relabel_reference(g: &CsrGraph, order: &[VertexId]) -> CsrGraph {
    let mut inverse = vec![0; order.len()];
    for (new_id, &old_id) in order.iter().enumerate() {
        inverse[old_id as usize] = new_id as VertexId;
    }
    let mut el = EdgeList::new(g.num_vertices());
    for (u, v) in g.edges() {
        el.push(inverse[u as usize], inverse[v as usize]);
    }
    CsrGraph::from_edge_list(el)
}

/// Every structural invariant, by the validating constructor: monotone
/// offsets, strictly increasing lists, symmetry, no self-loops.
fn is_valid_csr(g: &CsrGraph) -> bool {
    CsrGraph::from_raw_parts(g.offsets().to_vec(), g.neighbors_flat().to_vec(), g.num_edges())
        .is_ok()
}

proptest! {
    /// `from_edge_list` fills each list by one scatter over the sorted
    /// pairs, with no per-list sort: the lists must still come out
    /// strictly increasing.
    #[test]
    fn from_edge_list_lists_come_out_sorted(g in arb_graph_with_hubs()) {
        prop_assert!(is_valid_csr(&g));
    }

    /// The scatter relabel equals the `EdgeList` rebuild, and the
    /// descending-degree relabel too.
    #[test]
    fn relabel_matches_the_edge_list_reference(g in arb_graph_with_hubs(), seed in 0u64..1_000) {
        let order = permutation(g.num_vertices(), seed);
        let h = g.relabel(&order);
        prop_assert!(is_valid_csr(&h));
        prop_assert_eq!(&h, &relabel_reference(&g, &order));
        let by_degree = Permutation::descending_degree(&g);
        prop_assert_eq!(by_degree.apply(&g), relabel_reference(&g, by_degree.order()));
    }
}

#[test]
fn relabel_of_an_empty_graph_is_empty() {
    let g = CsrGraph::from_edges(0, []);
    assert_eq!(g.relabel(&[]), relabel_reference(&g, &[]));
    assert_eq!(g.relabel(&[]).num_vertices(), 0);
}
