//! The static batch planner: plans a queue known at t = 0 into
//! model-homogeneous batches and pipelines their phases on the two engine
//! resources, over pre-simulated request costs.
//!
//! For each batch the *leader* (first request) streams the layer weights
//! from DRAM and is charged its cold profile; every follower is charged
//! its resident profile (the run with
//! [`RunOptions::weights_resident`](gnnie_core::engine::RunOptions)), so
//! the weight loads are paid once per batch. The serial baseline
//! (`Engine::run` in a loop) is every request's cold profile back to
//! back. [`schedule_batched`] never simulates: like
//! [`schedule_online`](crate::schedule_online), it is exact integer
//! arithmetic over the [`Daemon`](crate::Daemon)'s cost oracle, so the
//! report is bit-identical however the costs were simulated.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use gnnie_core::report::InferenceReport;
use gnnie_gnn::model::GnnModel;
use gnnie_graph::Dataset;

use crate::clock::SimClock;
use crate::online::RequestCost;
use crate::pipeline::{pipeline, BatchProfile, PhasePair};
use crate::request::InferenceRequest;
use crate::scheduler::{BatchScheduler, SchedulerPolicy};

pub use gnnie_obs::percentile_nearest_rank;

/// A batch-profile view of one engine report: preprocessing before the
/// first Weighting pass, per-layer phase pairs, coarsening + writeback
/// after the last Aggregation, and the weight-load cycles the run paid.
pub fn report_profile(report: &InferenceReport) -> BatchProfile {
    BatchProfile {
        pre_cycles: report.preprocessing_cycles,
        layers: report
            .layers
            .iter()
            .map(|layer| PhasePair {
                weighting: layer.weighting.total_cycles,
                aggregation: layer.aggregation.total_cycles,
            })
            .collect(),
        post_cycles: report.coarsening_cycles + report.writeback_cycles,
        weight_load_cycles: report.weight_load_cycles,
    }
}

/// One request's recorded outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestOutcome {
    /// The request served.
    pub request: InferenceRequest,
    /// Index of the batch it rode in.
    pub batch: usize,
    /// Whether it reused the leader's resident weights.
    pub weights_resident: bool,
    /// The request's own cycles inside the batch (weight loads already
    /// amortized).
    pub batched_cycles: u64,
    /// Its cycles as an independent `Engine::run` (the serial baseline).
    pub serial_cycles: u64,
    /// Simulated completion latency: its batch's pipeline completion
    /// cycle over the accelerator clock.
    pub latency_s: f64,
}

/// One batch's aggregate record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReport {
    /// Position in the pipeline.
    pub index: usize,
    /// The shared model.
    pub model: GnnModel,
    /// The shared dataset family.
    pub dataset: Dataset,
    /// The shared synthesis scale.
    pub scale: f64,
    /// Requests in the batch.
    pub size: usize,
    /// Weighting-resource cycles across all layers and requests.
    pub weighting_cycles: u64,
    /// Aggregation-resource cycles across all layers and requests.
    pub aggregation_cycles: u64,
    /// Preprocessing cycles (serialized before the first Weighting).
    pub pre_cycles: u64,
    /// Coarsening + writeback cycles (after the last Aggregation).
    pub post_cycles: u64,
    /// Pipeline cycle at which the batch completed.
    pub completion_cycle: u64,
    /// Weight-load cycles the followers did not pay.
    pub weight_load_cycles_saved: u64,
}

/// The full serving record: per-request and per-batch outcomes plus the
/// aggregate throughput/latency numbers the CLI and bench print.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Scheduler policy used.
    pub policy: SchedulerPolicy,
    /// Batch-size cap used.
    pub max_batch: usize,
    /// Per-request outcomes, in batch/pipeline order.
    pub requests: Vec<RequestOutcome>,
    /// Per-batch aggregates, in pipeline order.
    pub batches: Vec<BatchReport>,
    /// Makespan of the batched + pipelined schedule.
    pub pipelined_total_cycles: u64,
    /// The batched runs back to back (batching win without pipelining).
    pub batched_serial_cycles: u64,
    /// The serial baseline: every request as an independent
    /// `Engine::run`, summed.
    pub serial_total_cycles: u64,
    /// Weight-load cycles the batching removed versus the baseline.
    pub weight_load_cycles_saved: u64,
    /// Accelerator clock the cycle counts are reported in.
    pub clock_hz: f64,
}

impl ServeReport {
    /// Served inferences per simulated second (0.0 on an empty run).
    pub fn throughput_inferences_per_s(&self) -> f64 {
        let seconds = self.pipelined_total_cycles as f64 / self.clock_hz;
        if !seconds.is_finite() || seconds <= 0.0 {
            return 0.0;
        }
        self.requests.len() as f64 / seconds
    }

    /// End-to-end speedup of batched + pipelined serving over the serial
    /// `Engine::run` loop (1.0 on an empty run).
    pub fn speedup_vs_serial(&self) -> f64 {
        if self.pipelined_total_cycles == 0 {
            return 1.0;
        }
        self.serial_total_cycles as f64 / self.pipelined_total_cycles as f64
    }

    /// p50 simulated request latency in seconds.
    pub fn p50_latency_s(&self) -> f64 {
        self.latency_percentile(0.50)
    }

    /// p95 simulated request latency in seconds.
    pub fn p95_latency_s(&self) -> f64 {
        self.latency_percentile(0.95)
    }

    /// p99 simulated request latency in seconds.
    pub fn p99_latency_s(&self) -> f64 {
        self.latency_percentile(0.99)
    }

    /// Nearest-rank latency percentile over all requests (`q` in [0, 1];
    /// 0.0 on an empty run).
    pub fn latency_percentile(&self, q: f64) -> f64 {
        let latencies: Vec<f64> = self.requests.iter().map(|r| r.latency_s).collect();
        percentile_nearest_rank(&latencies, q)
    }
}

/// Plans `queue` with `scheduler` and pipelines the batches over the
/// pre-simulated `costs` (keyed by request id, as
/// [`Daemon::profile_costs`](crate::Daemon::profile_costs) returns them):
/// the static sibling of [`schedule_online`](crate::schedule_online).
/// Reports aggregate throughput, latency percentiles on `clock`, and the
/// weight-load cycles batching saved versus the serial loop.
///
/// # Panics
///
/// Panics if a queued request has no cost entry.
pub fn schedule_batched(
    queue: &[InferenceRequest],
    scheduler: &BatchScheduler,
    costs: &HashMap<u64, RequestCost>,
    clock: &SimClock,
) -> ServeReport {
    let plan = scheduler.plan(queue);
    let cost_of = |request: &InferenceRequest| -> &RequestCost {
        costs
            .get(&request.id)
            .unwrap_or_else(|| panic!("no cost profiled for request {}", request.id))
    };
    // What a request is charged inside its batch: the leader pays its
    // weight loads, followers ride resident.
    let charged = |pos: usize, request: &InferenceRequest| -> &BatchProfile {
        let cost = cost_of(request);
        if pos == 0 {
            &cost.cold
        } else {
            &cost.resident
        }
    };

    // Per-batch resource profiles for the pipeline.
    let profiles: Vec<BatchProfile> = plan
        .batches
        .iter()
        .map(|batch| {
            let mut profile = BatchProfile::default();
            for (pos, request) in batch.requests.iter().enumerate() {
                profile.merge(charged(pos, request));
            }
            profile
        })
        .collect();
    let schedule = pipeline(&profiles);

    let mut requests = Vec::new();
    let mut batches = Vec::new();
    let mut serial_total_cycles = 0u64;
    let mut weight_load_cycles_saved = 0u64;
    for (b, batch) in plan.batches.iter().enumerate() {
        let completion_cycle = schedule.batch_completion[b];
        let mut saved = 0u64;
        for (pos, &request) in batch.requests.iter().enumerate() {
            let cold = &cost_of(&request).cold;
            serial_total_cycles += cold.serial_cycles();
            if pos > 0 {
                saved += cold.weight_load_cycles;
            }
            requests.push(RequestOutcome {
                request,
                batch: b,
                weights_resident: pos > 0,
                batched_cycles: charged(pos, &request).serial_cycles(),
                serial_cycles: cold.serial_cycles(),
                latency_s: clock.to_seconds(completion_cycle),
            });
        }
        weight_load_cycles_saved += saved;
        let lead = batch.requests[0];
        batches.push(BatchReport {
            index: b,
            model: lead.model,
            dataset: lead.dataset,
            scale: lead.scale,
            size: batch.len(),
            weighting_cycles: profiles[b].layers.iter().map(|l| l.weighting).sum(),
            aggregation_cycles: profiles[b].layers.iter().map(|l| l.aggregation).sum(),
            pre_cycles: profiles[b].pre_cycles,
            post_cycles: profiles[b].post_cycles,
            completion_cycle,
            weight_load_cycles_saved: saved,
        });
    }

    ServeReport {
        policy: scheduler.policy,
        max_batch: scheduler.max_batch,
        requests,
        batches,
        pipelined_total_cycles: schedule.total_cycles,
        batched_serial_cycles: schedule.serial_cycles,
        serial_total_cycles,
        weight_load_cycles_saved,
        clock_hz: clock.clock_hz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnie_core::config::AcceleratorConfig;
    use gnnie_core::engine::Engine;
    use gnnie_core::SimThreads;

    use crate::daemon::{Daemon, DaemonConfig};

    fn mix(n: u64, model: GnnModel) -> Vec<InferenceRequest> {
        (0..n).map(|i| InferenceRequest::new(i, model, Dataset::Cora, 0.08, 100 + i)).collect()
    }

    /// Profiles `queue` on a daemon and plans it under model affinity.
    fn serve(queue: &[InferenceRequest], max_batch: usize) -> ServeReport {
        let daemon = Daemon::new(DaemonConfig {
            workers: 4,
            sim_threads: SimThreads::Fixed(1),
            chips: 1,
        });
        let costs = daemon.profile_costs(queue);
        let scheduler = BatchScheduler::new(SchedulerPolicy::ModelAffinity, max_batch);
        schedule_batched(queue, &scheduler, &costs, &SimClock::paper(Dataset::Cora))
    }

    #[test]
    fn batched_pipelined_serving_beats_the_serial_loop() {
        // The acceptance mix: ≥ 8 same-model requests.
        let report = serve(&mix(8, GnnModel::Gcn), 8);
        assert_eq!(report.requests.len(), 8);
        assert_eq!(report.batches.len(), 1);
        assert!(report.weight_load_cycles_saved > 0, "7 followers skip weight loads");
        assert!(
            report.pipelined_total_cycles < report.serial_total_cycles,
            "batched+pipelined ({}) must beat serial ({})",
            report.pipelined_total_cycles,
            report.serial_total_cycles
        );
        // The batching win alone (no overlap credit) already beats serial.
        assert!(report.batched_serial_cycles < report.serial_total_cycles);
        assert!(report.speedup_vs_serial() > 1.0);
        assert!(report.throughput_inferences_per_s() > 0.0);
        assert!(report.p95_latency_s() >= report.p50_latency_s());
    }

    #[test]
    fn multi_batch_mix_pipelines_across_batches() {
        let mut queue = mix(4, GnnModel::Gcn);
        queue.extend(
            (10..14).map(|i| InferenceRequest::new(i, GnnModel::Gat, Dataset::Cora, 0.08, i)),
        );
        let report = serve(&queue, 4);
        assert_eq!(report.batches.len(), 2);
        assert!(
            report.pipelined_total_cycles < report.batched_serial_cycles,
            "batch 1's Weighting must overlap batch 0's Aggregation: {} vs {}",
            report.pipelined_total_cycles,
            report.batched_serial_cycles
        );
        assert!(report.pipelined_total_cycles < report.serial_total_cycles);
        // Leaders pay weight loads, followers don't.
        for outcome in &report.requests {
            assert_eq!(outcome.weights_resident, outcome.request.id % 10 != 0);
            assert!(outcome.batched_cycles <= outcome.serial_cycles);
        }
    }

    #[test]
    fn empty_queue_serves_cleanly() {
        let report = serve(&[], 8);
        assert_eq!(report.pipelined_total_cycles, 0);
        assert_eq!(report.serial_total_cycles, 0);
        assert_eq!(report.throughput_inferences_per_s(), 0.0);
        assert_eq!(report.p50_latency_s(), 0.0);
        assert_eq!(report.speedup_vs_serial(), 1.0);
    }

    #[test]
    fn percentiles_use_nearest_rank_on_hand_computed_sets() {
        // n = 20, values 1..=20: ⌈0.5·20⌉ = 10, ⌈0.95·20⌉ = 19,
        // ⌈0.99·20⌉ = 20.
        let twenty: Vec<f64> = (1..=20).map(|v| v as f64).collect();
        assert_eq!(percentile_nearest_rank(&twenty, 0.50), 10.0);
        assert_eq!(percentile_nearest_rank(&twenty, 0.95), 19.0);
        assert_eq!(percentile_nearest_rank(&twenty, 0.99), 20.0);
        // n = 4: p50 is the 2nd value; n = 5: the 3rd (⌈2.5⌉).
        assert_eq!(percentile_nearest_rank(&[1.0, 2.0, 3.0, 4.0], 0.50), 2.0);
        assert_eq!(percentile_nearest_rank(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.50), 3.0);
        // Order must not matter, and the extremes clamp to min/max.
        assert_eq!(percentile_nearest_rank(&[4.0, 1.0, 3.0, 2.0], 0.50), 2.0);
        assert_eq!(percentile_nearest_rank(&twenty, 0.0), 1.0);
        assert_eq!(percentile_nearest_rank(&twenty, 1.0), 20.0);
        assert_eq!(percentile_nearest_rank(&[], 0.5), 0.0);
        // Singleton: every percentile is the value itself.
        assert_eq!(percentile_nearest_rank(&[7.5], 0.99), 7.5);
        // 0.28 × 25 is 7.000000000000001 in f64; the rank is still 7.
        let twenty_five: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(percentile_nearest_rank(&twenty_five, 0.28), 7.0);
    }

    #[test]
    fn report_percentiles_are_ordered() {
        let mk = |latency_s: f64, id: u64| RequestOutcome {
            request: InferenceRequest::new(id, GnnModel::Gcn, Dataset::Cora, 0.08, id),
            batch: 0,
            weights_resident: false,
            batched_cycles: 1,
            serial_cycles: 1,
            latency_s,
        };
        let report = ServeReport {
            policy: SchedulerPolicy::Fifo,
            max_batch: 8,
            requests: (1..=20).map(|i| mk(i as f64, i)).collect(),
            batches: Vec::new(),
            pipelined_total_cycles: 1,
            batched_serial_cycles: 1,
            serial_total_cycles: 1,
            weight_load_cycles_saved: 0,
            clock_hz: 1.0e9,
        };
        assert_eq!(report.p50_latency_s(), 10.0);
        assert_eq!(report.p95_latency_s(), 19.0);
        assert_eq!(report.p99_latency_s(), 20.0);
    }

    #[test]
    fn single_request_matches_engine_run() {
        let queue = mix(1, GnnModel::Gcn);
        let report = serve(&queue, 8);
        let ds = queue[0].synthesize();
        let model = queue[0].model_config();
        let serial = Engine::new(AcceleratorConfig::paper(Dataset::Cora)).run(&model, &ds);
        assert_eq!(report.pipelined_total_cycles, serial.total_cycles);
        assert_eq!(report.serial_total_cycles, serial.total_cycles);
        assert_eq!(report.weight_load_cycles_saved, 0, "a lone leader saves nothing");
    }
}
