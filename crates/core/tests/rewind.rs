//! `RunSession::finish_and_rewind`: a session rewound under new options
//! must report exactly what a fresh session begun under those options
//! does, byte for byte through the report's `Debug` rendering.
//!
//! The rewound run reuses the session's relabeled graph and every
//! Aggregation walk the first run simulated (GraphSAGE's per-layer
//! sampled walks included), so this pins that a walk's report is a pure
//! function of the graph, the configuration and the shape, and that the
//! rewind restores every per-run counter.

use gnnie_core::config::AcceleratorConfig;
use gnnie_core::engine::{Engine, RunOptions};
use gnnie_core::{SimPool, SimThreads};
use gnnie_gnn::model::{GnnModel, ModelConfig};
use gnnie_graph::{Dataset, GraphDataset};

/// The five paper models plus three-head GAT.
fn models(ds: &GraphDataset) -> Vec<ModelConfig> {
    let mut models: Vec<ModelConfig> =
        GnnModel::ALL.iter().map(|&m| ModelConfig::paper(m, &ds.spec)).collect();
    models.push(ModelConfig::gat_multihead(&ds.spec, 3));
    models
}

fn opts(resident: bool) -> RunOptions {
    RunOptions { weights_resident: resident, ..RunOptions::default() }
}

/// One fresh session under `opts(resident)` on `pool`, run to completion.
fn fresh(
    engine: &Engine,
    mc: &ModelConfig,
    ds: &GraphDataset,
    pool: &SimPool,
    resident: bool,
) -> String {
    let mut session = engine.begin_pooled(mc, ds, opts(resident), pool);
    session.run_to_completion();
    format!("{:?}", session.finish())
}

#[test]
fn a_rewound_session_reports_exactly_what_a_fresh_one_does() {
    for (dataset, scale) in [(Dataset::Cora, 0.5), (Dataset::Pubmed, 0.1)] {
        let ds = GraphDataset::generate(dataset, scale, 42);
        for chips in [1usize, 2] {
            let mut cfg = AcceleratorConfig::paper(dataset);
            cfg.chips = chips;
            let engine = Engine::new(cfg);
            for mc in models(&ds) {
                let serial = SimPool::new(SimThreads::Fixed(1));
                let expected =
                    [false, true].map(|resident| fresh(&engine, &mc, &ds, &serial, resident));
                for width in [1usize, 2, 4] {
                    let pool = SimPool::new(SimThreads::Fixed(width));
                    // Cold → resident, then resident → cold.
                    for first in [false, true] {
                        let what = format!(
                            "{} (heads {}) on {dataset:?}, {chips} chip(s), width {width}, \
                             resident {first} then {}",
                            mc.model, mc.gat_heads, !first
                        );
                        let mut session = engine.begin_pooled(&mc, &ds, opts(first), &pool);
                        session.run_to_completion();
                        let before = session.finish_and_rewind(opts(!first));
                        assert_eq!(format!("{before:?}"), expected[first as usize], "{what}");
                        assert!(!session.is_complete(), "{what}: the rewind reset the phases");
                        session.run_to_completion();
                        let after = format!("{:?}", session.finish());
                        assert_eq!(after, expected[!first as usize], "{what}");
                    }
                }
            }
        }
    }
}

#[test]
fn a_session_rewinds_more_than_once() {
    let ds = GraphDataset::generate(Dataset::Cora, 0.2, 7);
    let engine = Engine::new(AcceleratorConfig::paper(Dataset::Cora));
    let pool = SimPool::new(SimThreads::Fixed(2));
    for mc in models(&ds) {
        let expected = [false, true].map(|resident| fresh(&engine, &mc, &ds, &pool, resident));
        let runs = [false, true, true, false, false];
        let mut session = engine.begin_pooled(&mc, &ds, opts(runs[0]), &pool);
        for (i, &resident) in runs.iter().enumerate() {
            session.run_to_completion();
            let next = runs.get(i + 1).copied().unwrap_or(false);
            let report = session.finish_and_rewind(opts(next));
            assert_eq!(
                format!("{report:?}"),
                expected[resident as usize],
                "{} run {i}",
                mc.model
            );
        }
    }
}

#[test]
#[should_panic(expected = "phases still outstanding at finish_and_rewind")]
fn finish_and_rewind_before_completion_panics_by_name() {
    let ds = GraphDataset::generate(Dataset::Cora, 0.05, 1);
    let mc = ModelConfig::paper(GnnModel::Gcn, &ds.spec);
    let engine = Engine::new(AcceleratorConfig::paper(Dataset::Cora));
    let mut session = engine.begin_pooled(&mc, &ds, opts(false), &SimPool::serial());
    session.run_weighting();
    let _ = session.finish_and_rewind(opts(true));
}
