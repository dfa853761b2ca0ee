//! Second cross-crate property-test suite: functional equivalence of the
//! hardware datapath against the golden models on *arbitrary* graphs, and
//! conservation/monotonicity laws of the cycle, energy, and interconnect
//! models.

use proptest::prelude::*;

use gnnie::core::config::AcceleratorConfig;
use gnnie::core::cpe::CpeArray;
use gnnie::core::engine::Engine;
use gnnie::core::mpe::psum_stall_cycles;
use gnnie::core::noc::{awb_rebalance_traffic, lr_traffic, AwbRebalanceParams, Topology};
use gnnie::core::verify::{verify_layers, ExpMode};
use gnnie::core::weighting::{schedule, BlockProfile, WeightingMode};
use gnnie::gnn::model::{GnnModel, ModelConfig};
use gnnie::gnn::params::ModelParams;
use gnnie::graph::{CsrGraph, EdgeList, GraphDataset};
use gnnie::mem::{Component, SimPool};
use gnnie::tensor::quant::QuantizedMatrix;
use gnnie::tensor::rlc::{self, RlcDecoder};
use gnnie::tensor::{DenseMatrix, SparseVec};
use gnnie::Dataset;

fn arb_graph(max_v: usize, max_e: usize) -> impl Strategy<Value = CsrGraph> {
    (
        4usize..max_v,
        proptest::collection::vec((0u32..max_v as u32, 0u32..max_v as u32), 1..max_e),
    )
        .prop_map(|(n, pairs)| {
            let mut edges = EdgeList::new(n);
            for (a, b) in pairs {
                let (a, b) = (a % n as u32, b % n as u32);
                if a != b {
                    edges.push(a, b);
                }
            }
            edges.dedup();
            CsrGraph::from_edge_list(edges)
        })
}

fn arb_dense(max_rows: usize, max_cols: usize) -> impl Strategy<Value = DenseMatrix> {
    (1usize..max_rows, 1usize..max_cols, any::<u64>()).prop_map(move |(r, c, seed)| {
        DenseMatrix::from_fn(r, c, move |i, j| {
            // Deterministic pseudo-random values in [-2, 2].
            let x = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(((i * max_cols + j) as u64).wrapping_mul(1442695040888963407));
            ((x >> 33) % 4001) as f32 / 1000.0 - 2.0
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The hardware-order GCN datapath (block scheduling + cache-driven
    /// edge order) computes the same numbers as the golden model on any
    /// graph shape, not just the curated generators.
    #[test]
    fn gcn_datapath_matches_golden_on_arbitrary_graphs(
        g in arb_graph(60, 240),
        seed in 0u64..1000,
    ) {
        let params = ModelParams::init(ModelConfig::custom(GnnModel::Gcn, &[12, 8, 4]), seed);
        let h0 = DenseMatrix::from_fn(g.num_vertices(), 12, |r, c| {
            (((r * 31 + c * 7 + seed as usize) % 11) as f32 - 5.0) * 0.13
        });
        let outcome = verify_layers(&params.layers, &g, &h0, 8, 3, &ExpMode::Exact, &SimPool::serial());
        prop_assert!(
            outcome.passed(1e-3),
            "per-layer errors {:?}", outcome.per_layer_rel_err
        );
    }

    /// Same for GAT: the linear-complexity attention reordering (§V-A)
    /// must be numerically identical to the naïve per-edge formula the
    /// golden layer evaluates.
    #[test]
    fn gat_datapath_matches_golden_on_arbitrary_graphs(
        g in arb_graph(40, 160),
        seed in 0u64..1000,
    ) {
        let params = ModelParams::init(ModelConfig::custom(GnnModel::Gat, &[10, 6]), seed);
        let h0 = DenseMatrix::from_fn(g.num_vertices(), 10, |r, c| {
            (((r * 13 + c * 17 + seed as usize) % 9) as f32 - 4.0) * 0.17
        });
        let outcome = verify_layers(&params.layers, &g, &h0, 8, 3, &ExpMode::Exact, &SimPool::serial());
        prop_assert!(
            outcome.passed(2e-3),
            "per-layer errors {:?}", outcome.per_layer_rel_err
        );
    }

    /// The engine's reported total energy is exactly the sum of its
    /// per-component breakdown — nothing is charged outside a component.
    #[test]
    fn engine_energy_is_component_sum(
        scale in 0.05f64..0.25,
        model_idx in 0usize..4,
    ) {
        let ds = GraphDataset::generate(Dataset::Cora, scale, 7);
        let model = [GnnModel::Gcn, GnnModel::Gat, GnnModel::GraphSage, GnnModel::GinConv]
            [model_idx];
        let cfg = AcceleratorConfig::paper(Dataset::Cora);
        let report = Engine::new(cfg).run(&ModelConfig::paper(model, &ds.spec), &ds);
        let component_sum: f64 =
            Component::ALL.iter().map(|&c| report.energy.pj_of(c)).sum();
        let total = report.energy.total_pj();
        prop_assert!(
            (component_sum - total).abs() <= 1e-9 * total.max(1.0),
            "components {component_sum} != total {total}"
        );
        prop_assert!(report.energy.on_chip_pj() >= 0.0);
    }

    /// Psum stalls are monotone: more slots never stall more, and a
    /// perfectly balanced row vector never stalls.
    #[test]
    fn psum_stalls_monotone_in_slots(
        cycles in proptest::collection::vec(0u64..10_000, 1..24),
        vertices in 1u64..5_000,
    ) {
        let mut last = u64::MAX;
        for slots in [1u64, 4, 16, 64, 256, 1024] {
            let s = psum_stall_cycles(&cycles, vertices, slots);
            prop_assert!(s <= last, "slots {slots}: {s} > {last}");
            last = s;
        }
        let balanced = vec![cycles[0]; cycles.len()];
        prop_assert_eq!(psum_stall_cycles(&balanced, vertices, 1), 0);
    }

    /// The AWB rebalance model conserves total load and never finishes
    /// more imbalanced than it started.
    #[test]
    fn awb_rebalance_conserves_load(
        loads in proptest::collection::vec(0u64..100_000, 2..64),
    ) {
        let before_total: u64 = loads.iter().sum();
        let before_max = loads.iter().copied().max().unwrap_or(0);
        let (ledger, after) = awb_rebalance_traffic(&loads, AwbRebalanceParams::default());
        prop_assert_eq!(after.iter().sum::<u64>(), before_total, "work conserved");
        prop_assert!(after.iter().copied().max().unwrap_or(0) <= before_max);
        // Traffic only flows when rounds happen.
        if ledger.rounds == 0 {
            prop_assert_eq!(ledger.words, 0);
        }
    }

    /// LR's recorded moves are self-consistent: totals match, no
    /// self-moves, and the makespan never exceeds plain FM's.
    #[test]
    fn lr_moves_are_consistent(
        rowspec in proptest::collection::vec(
            proptest::collection::vec((0usize..96, -3.0f32..3.0), 0..48),
            4..24,
        ),
    ) {
        let rows: Vec<SparseVec> = rowspec
            .into_iter()
            .map(|entries| {
                let mut dense = vec![0.0f32; 96];
                for (i, v) in entries {
                    if v != 0.0 {
                        dense[i] = v;
                    }
                }
                SparseVec::from_dense(&dense)
            })
            .collect();
        let features = gnnie::tensor::CsrMatrix::from_sparse_rows(96, &rows);
        let cfg = AcceleratorConfig::paper(Dataset::Cora);
        let arr = CpeArray::new(&cfg);
        let profile = BlockProfile::from_sparse(&features, arr.rows());
        let fm = schedule(&profile, &arr, WeightingMode::Fm);
        let lr = schedule(&profile, &arr, WeightingMode::FmLr);
        prop_assert_eq!(
            lr.lr_moves.iter().map(|m| m.blocks).sum::<u64>(),
            lr.lr_moved_blocks
        );
        for mv in &lr.lr_moves {
            prop_assert_ne!(mv.from_row, mv.to_row, "no self moves");
            prop_assert!(mv.blocks > 0, "empty moves must not be recorded");
        }
        let fm_makespan = fm.per_row_cycles(&arr).into_iter().max().unwrap_or(0);
        let lr_makespan = lr.per_row_cycles(&arr).into_iter().max().unwrap_or(0);
        prop_assert!(lr_makespan <= fm_makespan);
        // The ledger built from the schedule prices every move.
        let ledger = lr_traffic(&lr, profile.k());
        prop_assert_eq!(ledger.words, lr.lr_moved_blocks * profile.k() as u64);
    }

    /// The streaming RLC decoder yields exactly the nonzeros of the
    /// vector, in index order, and the stream honors the run-length
    /// format bound.
    #[test]
    fn rlc_streaming_decoder_yields_nonzeros_in_order(
        entries in proptest::collection::vec((0usize..200, -8.0f32..8.0), 0..64),
        len in 200usize..256,
    ) {
        let mut dense = vec![0.0f32; len];
        for (i, v) in entries {
            if v != 0.0 {
                dense[i] = v;
            }
        }
        let v = SparseVec::from_dense(&dense);
        let stream = rlc::encode(&v);
        // Format bound: one pair per nonzero plus max-run continuation
        // pairs for long zero gaps.
        let max_pairs = v.nnz() + len / (rlc::MAX_RUN as usize) + 1;
        prop_assert!(stream.encoded_bits() <= max_pairs * rlc::PAIR_BITS);
        let mut decoder = RlcDecoder::new(&stream);
        let mut got = Vec::new();
        while let Some((idx, val)) = decoder.next_nonzero() {
            got.push((idx, val));
        }
        let expected: Vec<(usize, f32)> =
            dense.iter().enumerate().filter(|(_, &x)| x != 0.0).map(|(i, &x)| (i, x)).collect();
        // RLC stores f16-rounded magnitudes; compare indices exactly and
        // values loosely.
        prop_assert_eq!(got.len(), expected.len());
        for ((gi, gv), (ei, ev)) in got.iter().zip(&expected) {
            prop_assert_eq!(gi, ei);
            prop_assert!((gv - ev).abs() <= 0.01 * ev.abs().max(1.0));
        }
    }

    /// Symmetric 8-bit quantization keeps every element within half a
    /// quantization step of the original.
    #[test]
    fn quantization_error_is_within_half_step(m in arb_dense(20, 40)) {
        let q = QuantizedMatrix::quantize(&m);
        prop_assert_eq!(q.shape(), m.shape());
        let bound = q.scale() * 0.5 + f32::EPSILON;
        prop_assert!(
            q.max_error(&m) <= bound,
            "error {} exceeds half-step {}", q.max_error(&m), bound
        );
    }

    /// Topology hop metrics: identity, diameter bound, and the triangle
    /// inequality (for the distance-based fabrics).
    #[test]
    fn topology_hops_are_a_sane_metric(
        a in 0usize..64,
        b in 0usize..64,
        c in 0usize..64,
        nodes in 2usize..65,
    ) {
        let (a, b, c) = (a % nodes, b % nodes, c % nodes);
        for topo in [
            Topology::Bus { nodes },
            Topology::Ring { nodes },
            Topology::Mesh2d { rows: 8, cols: 8 },
            Topology::Multistage { ports: nodes },
        ] {
            let n = topo.nodes();
            let (a, b, c) = (a % n, b % n, c % n);
            prop_assert_eq!(topo.hops(a, a), 0);
            prop_assert!(topo.hops(a, b) <= topo.diameter());
            prop_assert!(
                topo.hops(a, c) <= topo.hops(a, b) + topo.hops(b, c),
                "triangle inequality on {topo:?}: {} > {} + {}",
                topo.hops(a, c), topo.hops(a, b), topo.hops(b, c)
            );
        }
    }

    /// A dense BlockProfile is the same as profiling an all-nonzero
    /// sparse matrix of the same shape.
    #[test]
    fn dense_profile_equals_allnonzero_sparse_profile(
        vertices in 1usize..20,
        f_in in 1usize..200,
    ) {
        let dense_rows: Vec<SparseVec> =
            (0..vertices).map(|_| SparseVec::from_dense(&vec![1.0f32; f_in])).collect();
        let m = gnnie::tensor::CsrMatrix::from_sparse_rows(f_in, &dense_rows);
        let a = BlockProfile::dense(vertices, f_in, 16);
        let b = BlockProfile::from_sparse(&m, 16);
        prop_assert_eq!(a, b);
    }
}
