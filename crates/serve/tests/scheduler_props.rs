//! Property tests for the batch scheduler and the phase pipeline:
//!
//! * planning never drops or duplicates a request, every batch is
//!   model-homogeneous, nonempty, and within the size cap;
//! * FIFO preserves global arrival order; model affinity preserves
//!   arrival order within each weight-compatibility group;
//! * the two-resource pipeline makespan never loses to back-to-back
//!   execution, on arbitrary phase profiles and on real engine runs
//!   (pipelined total cycles ≤ serial total cycles).

use proptest::prelude::*;

use gnnie_core::SimThreads;
use gnnie_serve::{
    pipeline, schedule_batched, BatchProfile, BatchScheduler, Daemon, DaemonConfig, Dataset,
    GnnModel, InferenceRequest, PhasePair, SchedulerPolicy, SimClock,
};

const DATASETS: [Dataset; 3] = [Dataset::Cora, Dataset::Citeseer, Dataset::Pubmed];

/// Queues of up to 32 requests over 5 models × 3 datasets × 2 scales;
/// ids are assigned by arrival position, so they are unique.
fn arb_queue() -> impl Strategy<Value = Vec<InferenceRequest>> {
    proptest::collection::vec((0usize..5, 0usize..3, 0usize..2, 0u64..1000), 0..32).prop_map(
        |raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (m, d, s, seed))| {
                    InferenceRequest::new(
                        i as u64,
                        GnnModel::ALL[m],
                        DATASETS[d],
                        if s == 0 { 0.05 } else { 0.1 },
                        seed,
                    )
                })
                .collect()
        },
    )
}

/// Arbitrary batch phase profiles (cycle counts only; no engine).
fn arb_profiles() -> impl Strategy<Value = Vec<BatchProfile>> {
    proptest::collection::vec(
        (
            0u64..5_000,
            proptest::collection::vec((0u64..100_000, 0u64..100_000), 0..6),
            0u64..5_000,
        ),
        0..12,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(pre, layers, post)| BatchProfile {
                pre_cycles: pre,
                layers: layers
                    .into_iter()
                    .map(|(w, a)| PhasePair { weighting: w, aggregation: a })
                    .collect(),
                post_cycles: post,
                ..BatchProfile::default()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No request is dropped or duplicated, and batches respect the
    /// homogeneity and size invariants — for both policies.
    #[test]
    fn plan_partitions_the_queue_into_homogeneous_batches(
        queue in arb_queue(),
        max_batch in 1usize..9,
        policy_idx in 0usize..2,
    ) {
        let policy = SchedulerPolicy::ALL[policy_idx];
        let plan = BatchScheduler::new(policy, max_batch).plan(&queue);

        // Exactly the input ids, each once.
        let mut ids = plan.request_ids();
        ids.sort_unstable();
        let expected: Vec<u64> = (0..queue.len() as u64).collect();
        prop_assert_eq!(ids, expected, "{} dropped or duplicated a request", policy);

        for batch in &plan.batches {
            prop_assert!(!batch.is_empty(), "{} emitted an empty batch", policy);
            prop_assert!(batch.len() <= max_batch, "{} overfilled a batch", policy);
            let key = batch.key();
            prop_assert!(
                batch.requests.iter().all(|r| r.model_key() == key),
                "{} emitted a mixed-model batch", policy
            );
        }
    }

    /// FIFO never reorders the queue at all.
    #[test]
    fn fifo_preserves_global_arrival_order(
        queue in arb_queue(),
        max_batch in 1usize..9,
    ) {
        let plan = BatchScheduler::new(SchedulerPolicy::Fifo, max_batch).plan(&queue);
        let expected: Vec<u64> = (0..queue.len() as u64).collect();
        prop_assert_eq!(plan.request_ids(), expected);
    }

    /// Model affinity may regroup, but within one weight-compatibility
    /// group arrival order survives.
    #[test]
    fn affinity_preserves_order_within_each_group(
        queue in arb_queue(),
        max_batch in 1usize..9,
    ) {
        let plan = BatchScheduler::new(SchedulerPolicy::ModelAffinity, max_batch).plan(&queue);
        for &req in &queue {
            let key = req.model_key();
            let planned: Vec<u64> = plan
                .batches
                .iter()
                .filter(|b| b.key() == key)
                .flat_map(|b| b.requests.iter().map(|r| r.id))
                .collect();
            let arrived: Vec<u64> =
                queue.iter().filter(|r| r.model_key() == key).map(|r| r.id).collect();
            prop_assert_eq!(planned, arrived);
        }
    }

    /// The pipeline makespan never loses to back-to-back batches, equals
    /// the last completion, and completions are nondecreasing.
    #[test]
    fn pipeline_makespan_never_exceeds_serial(profiles in arb_profiles()) {
        let s = pipeline(&profiles);
        prop_assert!(s.total_cycles <= s.serial_cycles);
        prop_assert_eq!(s.batch_completion.len(), profiles.len());
        prop_assert_eq!(s.total_cycles, s.batch_completion.last().copied().unwrap_or(0));
        prop_assert!(s.batch_completion.windows(2).all(|w| w[0] <= w[1]));
        // Each resource's total work lower-bounds the makespan.
        let w_work: u64 = profiles
            .iter()
            .map(|p| p.pre_cycles + p.layers.iter().map(|l| l.weighting).sum::<u64>())
            .sum();
        let a_work: u64 = profiles
            .iter()
            .map(|p| p.post_cycles + p.layers.iter().map(|l| l.aggregation).sum::<u64>())
            .sum();
        if profiles.iter().all(|p| !p.layers.is_empty()) {
            prop_assert!(s.total_cycles >= w_work.max(a_work));
        }
    }
}

proptest! {
    // Real engine runs are costly; a handful of cases suffices to sweep
    // model mixes (PROPTEST_CASES still overrides globally).
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// End to end on the engine: batched + pipelined serving never loses
    /// to the serial `Engine::run` loop, and homogeneous follower
    /// requests record weight-load savings.
    #[test]
    fn served_cycles_never_exceed_serial_cycles(
        raw in proptest::collection::vec((0usize..5, 0usize..2, 0u64..100), 1..5),
        policy_idx in 0usize..2,
        max_batch in 1usize..5,
    ) {
        let queue: Vec<InferenceRequest> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (m, d, seed))| {
                InferenceRequest::new(i as u64, GnnModel::ALL[m], DATASETS[d], 0.05, seed)
            })
            .collect();
        let daemon =
            Daemon::new(DaemonConfig { workers: 4, sim_threads: SimThreads::Fixed(1), chips: 1 });
        let costs = daemon.profile_costs(&queue);
        daemon.shutdown();
        let scheduler = BatchScheduler::new(SchedulerPolicy::ALL[policy_idx], max_batch);
        let clock = SimClock::paper(queue[0].dataset);
        let report = schedule_batched(&queue, &scheduler, &costs, &clock);
        prop_assert_eq!(report.requests.len(), queue.len());
        prop_assert!(report.pipelined_total_cycles <= report.batched_serial_cycles);
        prop_assert!(report.batched_serial_cycles <= report.serial_total_cycles);
        let followers = report.requests.iter().filter(|r| r.weights_resident).count();
        if followers > 0 {
            prop_assert!(report.weight_load_cycles_saved > 0);
        } else {
            prop_assert_eq!(report.weight_load_cycles_saved, 0);
        }
        for outcome in &report.requests {
            prop_assert!(outcome.batched_cycles <= outcome.serial_cycles);
            prop_assert!(outcome.latency_s.is_finite() && outcome.latency_s > 0.0);
        }
    }
}
