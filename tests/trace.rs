//! Trace determinism, property-tested like every other report path.
//!
//! Observability is *derived* from finished reports (never woven into
//! the sharded simulation loops), so the exported Chrome trace JSON and
//! the metrics-registry dump must be byte-identical at any
//! `--sim-threads` setting. Every trace must also pass the gnnie-bench
//! well-formedness validator CI runs before uploading trace artifacts.

use proptest::prelude::*;

use gnnie::core::config::AcceleratorConfig;
use gnnie::core::engine::{Engine, RunOptions};
use gnnie::gnn::model::ModelConfig;
use gnnie::graph::{Dataset, GraphDataset};
use gnnie::mem::{SimThreads, SplitMode, TierSpec};
use gnnie::obs::{chrome_trace_json, flame_summary, Metrics, Obs, Trace};
use gnnie::serve::{
    ArrivalProcess, Daemon, DaemonConfig, InferenceRequest, LoadGen, OnlineConfig, SimClock,
    SlaMix,
};
use gnnie::GnnModel;
use gnnie_bench::trace::validate_chrome_trace;

/// One observed engine run: returns the Chrome trace JSON, the flame
/// summary, and the metrics dump.
fn observed_run(
    model: GnnModel,
    seed: u64,
    chips: usize,
    threads: usize,
) -> (String, String, String) {
    let ds = GraphDataset::generate(Dataset::Cora, 0.05, seed);
    let mut config = AcceleratorConfig::paper(Dataset::Cora);
    config.chips = chips;
    config.tiers = Some(TierSpec::Split { total_bytes: 1 << 20, mode: SplitMode::Workload });
    let obs = Obs { trace: Trace::recording(), metrics: Metrics::recording() };
    let report = Engine::new(config).run_with(
        &ModelConfig::paper(model, &ds.spec),
        &ds,
        RunOptions { sim_threads: Some(SimThreads::Fixed(threads)), ..RunOptions::default() },
    );
    assert!(report.total_cycles > 0);
    report.record_obs(&obs);
    let events = obs.trace.events();
    (chrome_trace_json(&events), flame_summary(&events), obs.metrics.snapshot().render())
}

/// One observed online-serving run on a daemon of `workers` request
/// workers sharing a pool of `threads`.
fn observed_serve(seed: u64, workers: usize, threads: usize) -> (String, String) {
    let queue: Vec<_> = (0u64..6)
        .map(|i| InferenceRequest::new(i, GnnModel::Gcn, Dataset::Cora, 0.05, seed + i))
        .collect();
    let clock = SimClock::paper(Dataset::Cora);
    let arrivals = LoadGen {
        process: ArrivalProcess::Poisson { rate_rps: 20_000.0 },
        sla: SlaMix::Mixed,
        seed,
    }
    .generate(&queue, &clock);
    let obs = Obs { trace: Trace::recording(), metrics: Metrics::recording() };
    let daemon = Daemon::new(DaemonConfig {
        workers,
        sim_threads: SimThreads::Fixed(threads),
        chips: 1,
    });
    let report =
        daemon.serve_online(&arrivals, &OnlineConfig { max_batch: 4, admission_control: true });
    daemon.shutdown();
    report.record_obs(&obs);
    (chrome_trace_json(&obs.trace.events()), obs.metrics.snapshot().render())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed/config ⇒ byte-identical trace, flame summary, and
    /// metrics at 1 vs 4 simulation threads, across models and chip
    /// counts (single-chip and scale-out both covered).
    #[test]
    fn run_trace_is_byte_identical_across_sim_threads(
        seed in 1u64..500,
        chips in 1usize..5,
        model_idx in 0usize..3,
    ) {
        let model = [GnnModel::Gcn, GnnModel::Gat, GnnModel::GraphSage][model_idx];
        let one = observed_run(model, seed, chips, 1);
        let four = observed_run(model, seed, chips, 4);
        prop_assert_eq!(&one, &four, "sim-threads must not leak into observability");
        let summary = validate_chrome_trace(&one.0)
            .map_err(|e| TestCaseError::fail(format!("invalid trace: {e}")))?;
        prop_assert!(summary.spans > 0, "an engine run always emits phase spans");
        prop_assert!(summary.span_cycles > 0);
        // Scale-out runs put every chip on its own labeled track:
        // engine + chips + tiers processes, with a track per chip.
        prop_assert!(summary.tracks > chips);
    }

    /// Online serving: the batch-lifecycle trace and per-class
    /// queue-wait/latency histograms are equally thread-invariant.
    #[test]
    fn serve_trace_is_byte_identical_across_sim_threads(seed in 1u64..200) {
        let one = observed_serve(seed, 1, 1);
        let wide = observed_serve(seed, 3, 2);
        prop_assert_eq!(&one, &wide);
        let summary = validate_chrome_trace(&one.0)
            .map_err(|e| TestCaseError::fail(format!("invalid trace: {e}")))?;
        prop_assert!(summary.spans > 0, "served requests emit wait/service spans");
        prop_assert!(summary.instants > 0, "every request enqueues");
        prop_assert!(one.1.contains("serve.queue_wait_us."), "registry has queue waits");
    }
}

/// Observability is recorded from the finished report and leaves it as
/// a bare `Engine::run` produced it.
#[test]
fn observed_report_equals_unobserved_report() {
    let ds = GraphDataset::generate(Dataset::Pubmed, 0.02, 9);
    let mut config = AcceleratorConfig::paper(Dataset::Pubmed);
    config.chips = 2;
    let model = ModelConfig::paper(GnnModel::Gat, &ds.spec);
    let engine = Engine::new(config);
    let bare = engine.run(&model, &ds);
    let obs = Obs { trace: Trace::recording(), metrics: Metrics::recording() };
    let observed = engine.run(&model, &ds);
    observed.record_obs(&obs);
    assert_eq!(format!("{bare:?}"), format!("{observed:?}"));
    assert!(!obs.trace.events().is_empty());
}
