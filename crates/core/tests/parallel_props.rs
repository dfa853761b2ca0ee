//! Property suite for the parallel-simulation contract: `Engine::run_with`
//! reports must be **byte-identical** across `RunOptions::sim_threads ∈ {1, 2, 4, 8}`
//! for arbitrary dataset/model/cache-policy combinations.
//!
//! The sharded loops (the per-vertex Weighting profile, the FM counting
//! sort, the cache walk's vertex scans) all partition vertices into
//! contiguous ranges and merge per-shard results in shard order, so the
//! thread count must be unobservable in every reported quantity — cycle
//! counts, DRAM byte counters, energy, per-round α histograms, the lot.
//! Byte-identity is asserted on the report's full `Debug` rendering.

use proptest::prelude::*;

use gnnie_core::config::AcceleratorConfig;
use gnnie_core::engine::{Engine, RunOptions};
use gnnie_core::{SimPool, SimThreads};
use gnnie_gnn::model::{GnnModel, ModelConfig};
use gnnie_graph::{Dataset, GraphDataset};
use gnnie_mem::{CachePolicyKind, SplitMode, TierSpec};

/// Small scales keep each case fast (CI runs every property at
/// `PROPTEST_CASES=32`); the shim's `proptest!` takes plain-identifier
/// arguments, so combinations are drawn as indices into const tables.
const DATASETS: [(Dataset, f64); 3] =
    [(Dataset::Cora, 0.06), (Dataset::Citeseer, 0.06), (Dataset::Pubmed, 0.015)];

/// The model shapes whose Aggregation walks a session plans together:
/// K-head GAT (K walks of one shape per layer), DiffPool (the embedding
/// and pooling walks, one shape when the cluster count equals the hidden
/// width) and GraphSAGE (one sampled graph per layer).
fn shape(index: usize, ds: &GraphDataset) -> ModelConfig {
    match index {
        0..=2 => ModelConfig::gat_multihead(&ds.spec, index + 2),
        3 => ModelConfig::paper(GnnModel::DiffPool, &ds.spec),
        4 => {
            let mut mc = ModelConfig::paper(GnnModel::DiffPool, &ds.spec);
            mc.diffpool_clusters = Some(mc.hidden);
            mc
        }
        5 => ModelConfig::paper(GnnModel::GraphSage, &ds.spec),
        _ => ModelConfig::paper(GnnModel::Gcn, &ds.spec),
    }
}

/// The accelerator variants: one chip, two chips, and a tiered feature
/// store.
fn variant(index: usize, dataset: Dataset) -> AcceleratorConfig {
    let mut cfg = AcceleratorConfig::paper(dataset);
    match index {
        1 => cfg.chips = 2,
        2 => {
            cfg.tiers =
                Some(TierSpec::Split { total_bytes: 64 * 1024, mode: SplitMode::Workload })
        }
        _ => {}
    }
    cfg
}

/// Steps one session phase by phase at pool width `threads`: every
/// `run_weighting` and `run_aggregation` return value, then the finished
/// report's `Debug` rendering.
fn stepped(
    engine: &Engine,
    mc: &ModelConfig,
    ds: &GraphDataset,
    threads: usize,
) -> (Vec<u64>, String) {
    let opts =
        RunOptions { sim_threads: Some(SimThreads::Fixed(threads)), ..RunOptions::default() };
    let mut session = engine.begin_with(mc, ds, opts);
    let mut phases = Vec::new();
    if mc.model == GnnModel::DiffPool {
        session.run_diffpool();
    } else {
        while !session.is_complete() {
            phases.push(session.run_weighting());
            phases.push(session.run_aggregation());
        }
    }
    (phases, format!("{:?}", session.finish()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engine_reports_are_byte_identical_across_sim_threads(
        dataset_index in 0usize..3,
        model_index in 0usize..5,
        policy_index in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let (dataset, scale) = DATASETS[dataset_index];
        let model = GnnModel::ALL[model_index];
        let policy = CachePolicyKind::ALL[policy_index];
        let ds = GraphDataset::generate(dataset, scale, seed);
        let mc = ModelConfig::paper(model, &ds.spec);
        let mut cfg = AcceleratorConfig::paper(dataset);
        cfg.cache_policy = policy;
        let engine = Engine::new(cfg);
        let at = |threads: usize| {
            let opts =
                RunOptions { sim_threads: Some(SimThreads::Fixed(threads)), ..RunOptions::default() };
            format!("{:?}", engine.run_with(&mc, &ds, opts))
        };
        let serial = at(1);
        for threads in [2usize, 4, 8] {
            let sharded = at(threads);
            prop_assert_eq!(
                &sharded,
                &serial,
                "{} / {:?} / {} diverged at {} threads (seed {})",
                model,
                dataset,
                policy,
                threads,
                seed
            );
        }
    }

    #[test]
    fn run_options_override_is_equally_deterministic(
        dataset_index in 0usize..3,
        seed in 0u64..1_000,
    ) {
        // The per-run width must not move a byte, with resident weights
        // (the serving path) and on a pool shared across sessions (the
        // daemon's `begin_pooled`) alike.
        let (dataset, scale) = DATASETS[dataset_index];
        let ds = GraphDataset::generate(dataset, scale, seed);
        let mc = ModelConfig::paper(GnnModel::Gcn, &ds.spec);
        let engine = Engine::new(AcceleratorConfig::paper(dataset));
        let mut renderings = Vec::new();
        for threads in [1usize, 4] {
            let opts =
                RunOptions { weights_resident: true, sim_threads: Some(SimThreads::Fixed(threads)) };
            let mut session = engine.begin_with(&mc, &ds, opts.clone());
            session.run_to_completion();
            renderings.push(format!("{:?}", session.finish()));
            let pool = SimPool::new(SimThreads::Fixed(threads));
            for _ in 0..2 {
                let mut shared = engine.begin_pooled(&mc, &ds, opts.clone(), &pool);
                shared.run_to_completion();
                renderings.push(format!("{:?}", shared.finish()));
            }
        }
        for rendering in &renderings[1..] {
            prop_assert_eq!(&renderings[0], rendering);
        }
    }

    #[test]
    fn every_phase_is_identical_across_widths(
        dataset_index in 0usize..3,
        shape_index in 0usize..7,
        variant_index in 0usize..3,
        seed in 0u64..1_000,
    ) {
        // Multi-head GAT, DiffPool and GraphSAGE on one chip, two chips
        // and a tiered store: each phase's cycles and the whole report
        // must not depend on how the session's walks are dispatched.
        let (dataset, scale) = DATASETS[dataset_index];
        let ds = GraphDataset::generate(dataset, scale, seed);
        let mc = shape(shape_index, &ds);
        let engine = Engine::new(variant(variant_index, dataset));
        let serial = stepped(&engine, &mc, &ds, 1);
        for threads in [2usize, 4] {
            prop_assert_eq!(
                &stepped(&engine, &mc, &ds, threads),
                &serial,
                "{} x{} / {:?} / variant {} diverged at {} threads (seed {})",
                mc.model,
                mc.gat_heads,
                dataset,
                variant_index,
                threads,
                seed
            );
        }
    }
}
