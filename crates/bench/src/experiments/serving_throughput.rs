//! Serving-throughput sweep — batched + pipelined serving vs the serial
//! `Engine::run` loop, over batch size × scheduler policy.
//!
//! The serving subsystem (`gnnie-serve`) claims two wins over running
//! requests one at a time: model-homogeneous batches stream layer
//! weights once per batch instead of once per request, and consecutive
//! batches pipeline — batch *i+1* occupies the Weighting resource while
//! batch *i* aggregates. This sweep records both as numbers, on two
//! mixes:
//!
//! * **same-model** — 16 GCN/Cora requests (distinct seeds): the pure
//!   amortization case every batch size benefits from;
//! * **interleaved** — GCN/GAT alternating over Cora and Citeseer: the
//!   adversarial arrival order where FIFO degenerates to singleton
//!   batches (weight loads amortize nowhere) while model-affinity
//!   regroups and keeps the savings.
//!
//! Expected shape: batched + pipelined serving beats the serial loop on
//! total cycles everywhere (the pipeline never loses by construction);
//! weight-load savings grow with batch size; and the FIFO-vs-affinity
//! gap opens only on the interleaved mix.

use std::collections::HashMap;

use gnnie_gnn::model::GnnModel;
use gnnie_graph::Dataset;
use gnnie_serve::{
    schedule_batched, BatchScheduler, Daemon, DaemonConfig, InferenceRequest, RequestCost,
    SchedulerPolicy, ServeReport, SimClock,
};

use crate::json::Json;
use crate::table::fmt_count;
use crate::{Ctx, ExperimentResult, Metric, Table};

/// Serving sweeps cap the synthesis scale: request mixes multiply the
/// per-run cost, and the batching/pipelining trends are scale-stable.
const MAX_SERVE_SCALE: f64 = 0.25;

/// One sweep configuration's outcome.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Mix label ("same-model" / "interleaved").
    pub mix: &'static str,
    /// Scheduler policy.
    pub policy: SchedulerPolicy,
    /// Batch-size cap.
    pub max_batch: usize,
    /// The full serving record.
    pub report: ServeReport,
}

fn serve_scale(ctx: &Ctx, dataset: Dataset) -> f64 {
    ctx.scale_for(dataset).min(MAX_SERVE_SCALE)
}

/// The 16-request same-model mix (GCN on Cora, distinct seeds).
pub fn same_model_mix(ctx: &Ctx, n: usize) -> Vec<InferenceRequest> {
    (0..n)
        .map(|i| {
            InferenceRequest::new(
                i as u64,
                GnnModel::Gcn,
                Dataset::Cora,
                serve_scale(ctx, Dataset::Cora),
                ctx.seed() ^ (i as u64),
            )
        })
        .collect()
}

/// The adversarial interleaved mix: model alternates every request,
/// dataset every other, so FIFO never sees two compatible neighbors.
pub fn interleaved_mix(ctx: &Ctx, n: usize) -> Vec<InferenceRequest> {
    let models = [GnnModel::Gcn, GnnModel::Gat];
    let datasets = [Dataset::Cora, Dataset::Citeseer];
    (0..n)
        .map(|i| {
            let dataset = datasets[(i / models.len()) % datasets.len()];
            InferenceRequest::new(
                i as u64,
                models[i % models.len()],
                dataset,
                serve_scale(ctx, dataset),
                ctx.seed() ^ (i as u64),
            )
        })
        .collect()
}

/// Simulates every request of `queue` cold and resident once, on a
/// serving daemon; every configuration of a mix plans over these costs.
pub fn profile(queue: &[InferenceRequest]) -> HashMap<u64, RequestCost> {
    let daemon = Daemon::new(DaemonConfig { workers: 4, ..DaemonConfig::default() });
    let costs = daemon.profile_costs(queue);
    daemon.shutdown();
    costs
}

/// Plans one configuration over the mix's profiled `costs`.
pub fn run_config(
    queue: &[InferenceRequest],
    costs: &HashMap<u64, RequestCost>,
    policy: SchedulerPolicy,
    max_batch: usize,
) -> ServeReport {
    let clock = SimClock::paper(queue.first().map_or(Dataset::Cora, |r| r.dataset));
    schedule_batched(queue, &BatchScheduler::new(policy, max_batch), costs, &clock)
}

/// The full sweep: batch sizes × policies on both mixes.
pub fn sweep(ctx: &Ctx) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    let same = same_model_mix(ctx, 16);
    let inter = interleaved_mix(ctx, 16);
    for &(mix, queue) in &[("same-model", &same), ("interleaved", &inter)] {
        let costs = profile(queue);
        for policy in SchedulerPolicy::ALL {
            for max_batch in [1usize, 2, 4, 8] {
                let report = run_config(queue, &costs, policy, max_batch);
                rows.push(SweepRow { mix, policy, max_batch, report });
            }
        }
    }
    rows
}

/// Regenerates the serving-throughput table.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    render(&sweep(ctx))
}

/// The gated headline, from the *worst* row so no mix can regress
/// unnoticed. Simulated cycles, deterministic run to run.
///
/// # Errors
///
/// An empty sweep.
pub fn headline(rows: &[SweepRow]) -> Result<Vec<Metric>, String> {
    if rows.is_empty() {
        return Err("serving: empty sweep".into());
    }
    let min = |f: fn(&ServeReport) -> f64| {
        rows.iter().map(|row| f(&row.report)).fold(f64::INFINITY, f64::min)
    };
    Ok(vec![
        Metric::deterministic("min_speedup_vs_serial", min(ServeReport::speedup_vs_serial)),
        Metric::deterministic(
            "min_throughput_inferences_per_s",
            min(ServeReport::throughput_inferences_per_s),
        ),
    ])
}

fn json_rows(rows: &[SweepRow]) -> Vec<Json> {
    rows.iter()
        .map(|row| {
            let r = &row.report;
            crate::json_obj! {
                "mix": row.mix, "policy": row.policy.to_string(), "max_batch": row.max_batch,
                "batches": r.batches.len(), "requests": r.requests.len(),
                "pipelined_total_cycles": r.pipelined_total_cycles,
                "batched_serial_cycles": r.batched_serial_cycles,
                "serial_total_cycles": r.serial_total_cycles,
                "speedup_vs_serial": r.speedup_vs_serial(),
                "weight_load_cycles_saved": r.weight_load_cycles_saved,
                "p50_latency_us": r.p50_latency_s() * 1e6,
                "p95_latency_us": r.p95_latency_s() * 1e6,
                "throughput_inferences_per_s": r.throughput_inferences_per_s(),
            }
        })
        .collect()
}

/// Renders an already-computed sweep: the table, its rows, and the
/// headline.
pub fn render(rows: &[SweepRow]) -> ExperimentResult {
    let mut t = Table::new(&[
        "mix",
        "policy",
        "batch",
        "batches",
        "pipelined cyc",
        "serial cyc",
        "speedup",
        "wload saved",
        "p50 us",
        "p95 us",
        "inf/s",
    ]);
    for row in rows {
        let r = &row.report;
        t.row(vec![
            row.mix.to_string(),
            row.policy.to_string(),
            row.max_batch.to_string(),
            r.batches.len().to_string(),
            fmt_count(r.pipelined_total_cycles),
            fmt_count(r.serial_total_cycles),
            format!("{:.2}x", r.speedup_vs_serial()),
            fmt_count(r.weight_load_cycles_saved),
            format!("{:.1}", r.p50_latency_s() * 1e6),
            format!("{:.1}", r.p95_latency_s() * 1e6),
            format!("{:.0}", r.throughput_inferences_per_s()),
        ]);
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.push(
        "batched + pipelined serving never loses to the serial Engine::run loop; \
         weight-load savings grow with batch size, and the FIFO-vs-affinity gap \
         opens only on the interleaved arrival order (DGI/DCI-style cross-request \
         scheduling)"
            .to_string(),
    );
    ExperimentResult::new(
        "Serving",
        "Batched + pipelined serving throughput (gnnie-serve)",
        lines,
    )
    .gated(json_rows(rows), headline(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_pipelined_beats_serial_on_the_same_model_mix() {
        // The PR's acceptance criterion: a ≥ 8-request same-model mix,
        // batched + pipelined vs serial Engine::run loops, with the
        // weight-load savings reported explicitly.
        let ctx = Ctx::with_scale(0.1);
        let queue = same_model_mix(&ctx, 8);
        let report = run_config(&queue, &profile(&queue), SchedulerPolicy::ModelAffinity, 8);
        assert_eq!(report.batches.len(), 1);
        assert!(
            report.pipelined_total_cycles < report.serial_total_cycles,
            "batched+pipelined {} must beat serial {}",
            report.pipelined_total_cycles,
            report.serial_total_cycles
        );
        assert!(report.weight_load_cycles_saved > 0, "7 followers skip weight loads");
    }

    #[test]
    fn affinity_beats_fifo_only_on_the_interleaved_mix() {
        let ctx = Ctx::with_scale(0.1);
        let inter = interleaved_mix(&ctx, 8);
        let costs = profile(&inter);
        let fifo = run_config(&inter, &costs, SchedulerPolicy::Fifo, 4);
        let aff = run_config(&inter, &costs, SchedulerPolicy::ModelAffinity, 4);
        // FIFO sees no two compatible neighbors: nothing amortizes.
        assert_eq!(fifo.weight_load_cycles_saved, 0);
        assert!(aff.weight_load_cycles_saved > 0);
        assert!(aff.pipelined_total_cycles < fifo.pipelined_total_cycles);
        // The headline takes the worst row: here FIFO's, on both metrics.
        let (fifo_speedup, fifo_rate) =
            (fifo.speedup_vs_serial(), fifo.throughput_inferences_per_s());
        let rows = [(SchedulerPolicy::ModelAffinity, aff), (SchedulerPolicy::Fifo, fifo)].map(
            |(policy, report)| SweepRow { mix: "interleaved", policy, max_batch: 4, report },
        );
        assert_eq!(
            headline(&rows).unwrap(),
            vec![
                Metric::deterministic("min_speedup_vs_serial", fifo_speedup),
                Metric::deterministic("min_throughput_inferences_per_s", fifo_rate),
            ]
        );
        assert!(headline(&[]).is_err(), "an empty sweep cannot be gated");
        // On the same-model mix the policies coincide.
        let same = same_model_mix(&ctx, 8);
        let costs = profile(&same);
        let f = run_config(&same, &costs, SchedulerPolicy::Fifo, 4);
        let a = run_config(&same, &costs, SchedulerPolicy::ModelAffinity, 4);
        assert_eq!(f.pipelined_total_cycles, a.pipelined_total_cycles);
    }
}
