//! Cross-crate property tests on the reproduction's core invariants.

use proptest::prelude::*;

use gnnie::core::config::AcceleratorConfig;
use gnnie::core::cpe::CpeArray;
use gnnie::core::weighting::{schedule, BlockProfile, WeightingMode};
use gnnie::graph::partition::{count_induced_edges, induced_degree};
use gnnie::graph::reorder::Permutation;
use gnnie::graph::{CsrGraph, EdgeList, GraphPartition, PartitionerKind};
use gnnie::mem::cache::PaperAlphaGamma;
use gnnie::mem::{CacheConfig, CacheSim, HbmModel, SimPool};
use gnnie::tensor::{CsrMatrix, SparseVec};

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    // 5–80 vertices, random edge pairs (dedup'd by the CSR builder).
    (5usize..80, proptest::collection::vec((0u32..80, 0u32..80), 1..300)).prop_map(
        |(n, pairs)| {
            let mut edges = EdgeList::new(n);
            for (a, b) in pairs {
                let (a, b) = (a % n as u32, b % n as u32);
                if a != b {
                    edges.push(a, b);
                }
            }
            edges.dedup();
            CsrGraph::from_edge_list(edges)
        },
    )
}

fn arb_features() -> impl Strategy<Value = CsrMatrix> {
    (1usize..30, 8usize..120).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            proptest::collection::vec((0usize..cols, -4.0f32..4.0), 0..cols / 2),
            rows..=rows,
        )
        .prop_map(move |rowspec| {
            let rows: Vec<SparseVec> = rowspec
                .into_iter()
                .map(|entries| {
                    let mut dense = vec![0.0f32; cols];
                    for (i, v) in entries {
                        if v != 0.0 {
                            dense[i] = v;
                        }
                    }
                    SparseVec::from_dense(&dense)
                })
                .collect();
            CsrMatrix::from_sparse_rows(cols, &rows)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The degree-aware cache processes every undirected edge exactly
    /// once, for any graph and any (valid) capacity/γ.
    #[test]
    fn cache_processes_each_edge_exactly_once(
        g in arb_graph(),
        capacity in 2usize..40,
        gamma in 0u32..12,
    ) {
        let ordered = Permutation::descending_degree(&g).apply(&g);
        let mut cfg = CacheConfig::with_capacity(capacity, 64);
        cfg.gamma = gamma;
        let mut dram = HbmModel::hbm2_256gbps(1.3e9);
        let mut seen = vec![0u32; ordered.num_edges().max(1)];
        let index = gnnie::mem::cache::build_edge_index(&ordered);
        let offsets = ordered.offsets().to_vec();
        let pool = SimPool::serial();
        let sim = CacheSim::new(&ordered, &index, cfg, &pool);
        let result = sim.run_with(&mut PaperAlphaGamma::new(), &mut dram, |u, v| {
            // Identify the undirected edge id via the index.
            let pos = ordered
                .neighbors(u as usize)
                .iter()
                .position(|&x| x == v)
                .expect("edge endpoints are neighbors");
            seen[index[offsets[u as usize] + pos] as usize] += 1;
        });
        prop_assert!(result.completed);
        prop_assert_eq!(result.edges_processed, ordered.num_edges() as u64);
        if ordered.num_edges() > 0 {
            prop_assert!(seen.iter().all(|&c| c == 1), "each edge exactly once: {:?}", seen);
        }
        // The policy's headline guarantee: zero random DRAM traffic.
        prop_assert_eq!(result.counters.random_bytes(), 0);
    }

    /// Every scheduling mode conserves the nonzero workload: nothing
    /// lost, nothing duplicated, regardless of feature shape.
    #[test]
    fn weighting_schedules_conserve_workload(features in arb_features()) {
        let cfg = AcceleratorConfig::paper(gnnie::Dataset::Cora);
        let arr = CpeArray::new(&cfg);
        let profile = BlockProfile::from_sparse(&features, arr.rows());
        for mode in [WeightingMode::Baseline, WeightingMode::Fm, WeightingMode::FmLr] {
            let s = schedule(&profile, &arr, mode);
            let scheduled: u64 =
                s.rows.iter().flat_map(|r| r.iter().map(|&z| z as u64)).sum();
            prop_assert_eq!(scheduled, profile.total_nnz());
        }
    }

    /// FM never has a worse makespan than the pinned baseline.
    #[test]
    fn fm_never_worse_than_baseline(features in arb_features()) {
        let cfg = AcceleratorConfig::paper(gnnie::Dataset::Cora);
        let arr = CpeArray::new(&cfg);
        let profile = BlockProfile::from_sparse(&features, arr.rows());
        let base = schedule(&profile, &arr, WeightingMode::Baseline).per_row_cycles(&arr);
        let fm = schedule(&profile, &arr, WeightingMode::Fm).per_row_cycles(&arr);
        prop_assert!(
            fm.iter().max() <= base.iter().max(),
            "FM makespan {:?} vs baseline {:?}", fm, base
        );
    }

    /// Degree reordering is a bijection: applying it to vertex properties
    /// and inverting recovers the original.
    #[test]
    fn degree_permutation_roundtrips(g in arb_graph()) {
        let perm = Permutation::descending_degree(&g);
        let n = g.num_vertices();
        let props: Vec<u32> = (0..n as u32).collect();
        let permuted = perm.permute_props(&props);
        // permuted[new] = props[old]; invert.
        let mut recovered = vec![0u32; n];
        for (new_id, &val) in permuted.iter().enumerate() {
            recovered[val as usize] = perm.new_of(val as usize);
            prop_assert_eq!(perm.old_of(new_id), val);
        }
        // Degrees must be nonincreasing in new-id order.
        let g2 = perm.apply(&g);
        let degs: Vec<usize> = (0..n).map(|v| g2.degree(v)).collect();
        prop_assert!(degs.windows(2).all(|w| w[0] >= w[1]), "degrees {:?}", degs);
    }

    /// Both partitioners produce a true vertex partition with exact edge
    /// conservation: every vertex lands in exactly one part, each part's
    /// CSR is the induced subgraph over its members, and induced edges
    /// plus distinct cut edges account for the whole graph (boundary
    /// edges counted once).
    #[test]
    fn partitioners_hold_their_invariants(
        g in arb_graph(),
        k in 1usize..10,
        kind_idx in 0usize..2,
    ) {
        let kind = PartitionerKind::ALL[kind_idx];
        let part = GraphPartition::build(&g, k, kind);
        prop_assert_eq!(part.num_parts(), k);
        prop_assert_eq!(part.assignment().len(), g.num_vertices());

        // Every vertex in exactly one partition, and the per-part member
        // lists agree with the assignment vector.
        let members: usize = part.parts().iter().map(|p| p.vertices.len()).sum();
        prop_assert_eq!(members, g.num_vertices());
        let mut induced = 0u64;
        let mut directed_cut = 0u64;
        for (p, view) in part.parts().iter().enumerate() {
            let mut in_set = vec![false; g.num_vertices()];
            for &gv in &view.vertices {
                prop_assert_eq!(part.assignment()[gv as usize] as usize, p);
                in_set[gv as usize] = true;
            }
            // The part's CSR is exactly the induced subgraph, vertex by
            // vertex (local degree == induced degree of the global id).
            prop_assert_eq!(view.graph.num_vertices(), view.vertices.len());
            prop_assert_eq!(view.graph.num_edges(), count_induced_edges(&g, &in_set));
            for (lu, &gu) in view.vertices.iter().enumerate() {
                prop_assert_eq!(
                    view.graph.degree(lu),
                    induced_degree(&g, &in_set, gu as usize),
                    "part {} vertex {}", p, gu
                );
            }
            // Boundary members are exactly the vertices with an external
            // neighbor, i.e. induced degree < global degree.
            for (lu, &gu) in view.vertices.iter().enumerate() {
                let external =
                    induced_degree(&g, &in_set, gu as usize) < g.degree(gu as usize);
                prop_assert_eq!(view.boundary.contains(&(lu as u32)), external);
            }
            induced += view.graph.num_edges() as u64;
            directed_cut += view.cut_edges;
        }

        // Edge conservation: each edge is either inside exactly one part
        // or cut (counted once globally, once from each side per part).
        prop_assert_eq!(induced + part.cut_edges(), g.num_edges() as u64);
        prop_assert_eq!(directed_cut, 2 * part.cut_edges());
    }

    /// RLC round-trips arbitrary sparse vectors through the codec the
    /// input layer streams through.
    #[test]
    fn rlc_roundtrip(features in arb_features()) {
        for r in 0..features.rows() {
            let row = features.row(r);
            let encoded = gnnie::tensor::rlc::encode(&row);
            let decoded = gnnie::tensor::rlc::decode(&encoded).expect("round trip");
            prop_assert_eq!(row, decoded);
        }
    }
}
