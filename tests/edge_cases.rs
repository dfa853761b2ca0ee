//! Failure injection and pathological-shape integration tests: the
//! simulator must stay correct (not merely not-crash) on the degenerate
//! graphs and starved configurations the paper's datasets never produce —
//! star hubs beyond any power law, chains with no reuse, caches too small
//! to hold one neighborhood, all-zero feature matrices.

use gnnie::core::config::AcceleratorConfig;
use gnnie::core::engine::Engine;
use gnnie::core::verify::{verify_layers, ExpMode};
use gnnie::gnn::model::{GnnModel, ModelConfig};
use gnnie::gnn::params::ModelParams;
use gnnie::graph::reorder::Permutation;
use gnnie::graph::{CsrGraph, DatasetSpec, GraphDataset};
use gnnie::mem::cache::{build_edge_index, PaperAlphaGamma};
use gnnie::mem::{CacheConfig, CacheSim, CacheSimResult, HbmModel, SimPool};
use gnnie::tensor::{CsrMatrix, DenseMatrix, SparseVec};
use gnnie::Dataset;

/// The paper's α/γ cache walk over a degree-ordered graph.
fn paper_walk(g: &CsrGraph, cfg: CacheConfig, dram: &mut HbmModel) -> CacheSimResult {
    let ids = build_edge_index(g);
    CacheSim::new(g, &ids, cfg, &SimPool::serial()).run(&mut PaperAlphaGamma::new(), dram)
}

/// Wraps a custom graph + features into an engine-consumable dataset.
fn custom_dataset(graph: CsrGraph, feature_len: usize, density_period: usize) -> GraphDataset {
    let n = graph.num_vertices();
    let rows: Vec<SparseVec> = (0..n)
        .map(|v| {
            let mut dense = vec![0.0f32; feature_len];
            if density_period > 0 {
                for c in (v % density_period..feature_len).step_by(density_period) {
                    dense[c] = 1.0 + (c % 5) as f32 * 0.2;
                }
            }
            SparseVec::from_dense(&dense)
        })
        .collect();
    let features = CsrMatrix::from_sparse_rows(feature_len, &rows);
    let spec = DatasetSpec {
        dataset: Dataset::Cora, // statistics label only; sizes below are real
        vertices: n,
        edges: graph.num_edges(),
        feature_len,
        labels: 4,
        feature_sparsity: 0.9,
        degree_gamma: 2.0,
        uniform_frac: 0.0,
    };
    GraphDataset { spec, graph, features }
}

fn star(n: usize) -> CsrGraph {
    CsrGraph::from_edges(n, (1..n as u32).map(|v| (0u32, v)))
}

fn path(n: usize) -> CsrGraph {
    CsrGraph::from_edges(n, (0..n as u32 - 1).map(|v| (v, v + 1)))
}

fn complete(n: usize) -> CsrGraph {
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            edges.push((u, v));
        }
    }
    CsrGraph::from_edges(n, edges)
}

#[test]
fn star_graph_runs_every_model() {
    // A 500-leaf star is a harder power law than any Table II dataset:
    // one vertex owns 100% of the edges.
    let ds = custom_dataset(star(501), 64, 3);
    for model in [GnnModel::Gcn, GnnModel::Gat, GnnModel::GraphSage, GnnModel::GinConv] {
        let mc = ModelConfig::custom(model, &[64, 16, 4]);
        let r = Engine::new(AcceleratorConfig::paper(Dataset::Cora)).run(&mc, &ds);
        assert!(r.total_cycles > 0, "{model}");
        assert_eq!(r.dram.random_bytes(), 0, "{model}: sequential-DRAM guarantee");
    }
}

#[test]
fn star_cache_processes_hub_edges_exactly_once() {
    let g = Permutation::descending_degree(&star(300)).apply(&star(300));
    // Capacity far below the hub's neighborhood size.
    let mut cfg = CacheConfig::with_capacity(32, 64);
    cfg.gamma = 5;
    let mut dram = HbmModel::hbm2_256gbps(1.3e9);
    let r = paper_walk(&g, cfg, &mut dram);
    assert!(r.completed, "tiny cache must still finish the star");
    assert_eq!(r.edges_processed, g.num_edges() as u64);
    assert_eq!(r.counters.random_bytes(), 0);
    assert!(r.rounds >= 2, "the hub's neighborhood cannot fit in one pass");
}

#[test]
fn path_graph_has_no_reuse_but_still_sequential() {
    let g = Permutation::descending_degree(&path(400)).apply(&path(400));
    let cfg = CacheConfig::with_capacity(16, 64);
    let mut dram = HbmModel::hbm2_256gbps(1.3e9);
    let r = paper_walk(&g, cfg, &mut dram);
    assert!(r.completed);
    assert_eq!(r.edges_processed, g.num_edges() as u64);
    assert_eq!(r.counters.random_bytes(), 0);
}

#[test]
fn complete_graph_defeats_gamma_but_dynamic_raise_rescues() {
    // K_24 with capacity 8: every cached vertex always has unprocessed
    // edges to uncached ones, so no vertex drops below γ quickly —
    // the dynamic γ raise (paper §VI's deadlock note) must kick in.
    let g = complete(24);
    let mut cfg = CacheConfig::with_capacity(8, 64);
    cfg.gamma = 1;
    let mut dram = HbmModel::hbm2_256gbps(1.3e9);
    let r = paper_walk(&g, cfg, &mut dram);
    assert!(r.completed, "dynamic gamma must resolve the deadlock");
    assert_eq!(r.edges_processed, g.num_edges() as u64);
    assert!(
        r.gamma_raises > 0 || r.final_gamma > 1 || r.recovery_rounds > 0,
        "K24 at capacity 8 cannot finish without escalation: {r:?}"
    );
}

#[test]
fn all_zero_features_cost_no_weighting_compute() {
    let ds = custom_dataset(path(64), 32, 0); // density_period 0 = all zeros
    let mc = ModelConfig::custom(GnnModel::Gcn, &[32, 8]);
    let r = Engine::new(AcceleratorConfig::paper(Dataset::Cora)).run(&mc, &ds);
    // Layer 0 weighting is all zero-skipped; layer-1 features are dense
    // psums so only layer 0 is free.
    assert_eq!(r.layers[0].weighting.macs_issued, 0);
    assert_eq!(r.layers[0].weighting.zero_blocks_skipped, 64 * 16);
    assert!(r.total_cycles > 0, "aggregation and writeback still run");
}

#[test]
fn two_vertex_graph_verifies_functionally() {
    let g = CsrGraph::from_edges(2, [(0u32, 1u32)]);
    for model in [GnnModel::Gcn, GnnModel::Gat, GnnModel::GinConv] {
        let params = ModelParams::init(ModelConfig::custom(model, &[6, 4]), 3);
        let h0 = DenseMatrix::from_fn(2, 6, |r, c| (r as f32 - 0.5) * 0.3 + c as f32 * 0.1);
        let outcome =
            verify_layers(&params.layers, &g, &h0, 4, 2, &ExpMode::Exact, &SimPool::serial());
        assert!(outcome.passed(1e-4), "{model}: {:?}", outcome.per_layer_rel_err);
    }
}

#[test]
fn isolated_vertices_attend_only_to_themselves() {
    // 10 vertices, one edge: the GAT softmax over {i} must still be
    // well-defined (single-element softmax = 1) for the 8 isolated ones.
    let g = CsrGraph::from_edges(10, [(0u32, 1u32)]);
    let params = ModelParams::init(ModelConfig::custom(GnnModel::Gat, &[5, 3]), 9);
    let h0 = DenseMatrix::from_fn(10, 5, |r, c| ((r * 3 + c) % 7) as f32 * 0.1 - 0.3);
    let outcome =
        verify_layers(&params.layers, &g, &h0, 4, 3, &ExpMode::Exact, &SimPool::serial());
    assert!(outcome.passed(1e-4), "{:?}", outcome.per_layer_rel_err);
}

#[test]
fn engine_handles_near_empty_graph() {
    let ds = custom_dataset(CsrGraph::from_edges(8, [(0u32, 1u32)]), 16, 2);
    for model in [GnnModel::Gcn, GnnModel::Gat] {
        let mc = ModelConfig::custom(model, &[16, 4]);
        let r = Engine::new(AcceleratorConfig::paper(Dataset::Cora)).run(&mc, &ds);
        assert!(r.total_cycles > 0);
        assert!(r.energy.total_pj() > 0.0);
    }
}

#[test]
fn star_beats_id_order_by_more_than_uniform_graphs() {
    // The degree-aware policy's advantage must *grow* with skew: compare
    // its DRAM traffic against the id-order baseline on a star vs a path.
    use gnnie::mem::cache::simulate_id_order_baseline;
    let traffic_ratio = |raw: &CsrGraph| -> f64 {
        let g = Permutation::descending_degree(raw).apply(raw);
        let cfg = CacheConfig::with_capacity(24, 64);
        let mut dram = HbmModel::hbm2_256gbps(1.3e9);
        let ours = paper_walk(&g, cfg, &mut dram);
        let mut dram2 = HbmModel::hbm2_256gbps(1.3e9);
        let (_, _, counters) = simulate_id_order_baseline(raw, 24, 64, &mut dram2);
        assert!(ours.completed);
        counters.total_bytes() as f64 / ours.counters.total_bytes().max(1) as f64
    };
    let star_ratio = traffic_ratio(&star(240));
    let path_ratio = traffic_ratio(&path(240));
    assert!(
        star_ratio >= path_ratio,
        "skew must favor degree-aware caching: star {star_ratio:.2} vs path {path_ratio:.2}"
    );
}

#[test]
fn multihead_star_gat_is_stable() {
    // Heads multiply attention work on the hub without disturbing the
    // sequential-DRAM guarantee.
    let ds = custom_dataset(star(201), 48, 4);
    let mut mc = ModelConfig::custom(GnnModel::Gat, &[48, 8]);
    mc.gat_heads = 4;
    let r = Engine::new(AcceleratorConfig::paper(Dataset::Cora)).run(&mc, &ds);
    let one_head = {
        let mc1 = ModelConfig::custom(GnnModel::Gat, &[48, 8]);
        Engine::new(AcceleratorConfig::paper(Dataset::Cora)).run(&mc1, &ds)
    };
    assert_eq!(r.dram.random_bytes(), 0);
    let exp: u64 = r.layers.iter().map(|l| l.aggregation.exp_evals).sum();
    let exp1: u64 = one_head.layers.iter().map(|l| l.aggregation.exp_evals).sum();
    assert_eq!(exp, 4 * exp1);
}
