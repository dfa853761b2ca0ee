//! Property tests for the online continuous-batching scheduler, plus the
//! end-to-end determinism acceptance tests:
//!
//! * over generated arrival traces and synthetic cost oracles: no
//!   request is dropped or duplicated (served + rejected partition the
//!   trace), batches stay model-homogeneous and within the size cap,
//!   every admission rejection is reported with the predicted miss,
//!   batch-class and economy-tier requests are never rejected, and a
//!   request with strictly more slack never preempts one with less
//!   inside its model group;
//! * on the real engine: the same seed + arrival config produces a
//!   bit-identical `OnlineReport` at any daemon worker count and pool
//!   width, `Daemon::serve_online` equals scheduling the daemon's
//!   profiled costs by hand, and on a static (all-at-t=0) trace the
//!   online schedule never loses to the static batch planner on the same
//!   mix.

use std::collections::HashMap;

use proptest::prelude::*;

use gnnie_core::SimThreads;
use gnnie_serve::{
    schedule_batched, schedule_online, ArrivalProcess, BatchProfile, BatchScheduler, Daemon,
    DaemonConfig, Dataset, GnnModel, InferenceRequest, LoadGen, OnlineConfig, OnlineReport,
    OnlineRequest, PhasePair, QualityTier, RequestCost, SchedulerPolicy, SimClock, SlaClass,
    SlaMix,
};

const DATASETS: [Dataset; 2] = [Dataset::Cora, Dataset::Citeseer];

/// Dispatch priority as the scheduler sees it: earliest deadline first
/// (deadline-free last), ties by arrival then id.
fn urgency(outcome: &gnnie_serve::OnlineOutcome) -> (u64, u64, u64) {
    (outcome.deadline.unwrap_or(u64::MAX), outcome.request.arrival, outcome.request.id())
}

/// Traces of up to 24 requests over 3 models × 2 datasets with arrivals
/// in [0, 50k) cycles and all SLA/tier combinations; ids are positional,
/// hence unique.
fn arb_trace() -> impl Strategy<Value = Vec<OnlineRequest>> {
    proptest::collection::vec(
        (0usize..3, 0usize..2, 0u64..50_000, 0usize..3, any::<bool>()),
        0..24,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (m, d, arrival, sla, economy))| {
                OnlineRequest::new(
                    InferenceRequest::new(i as u64, GnnModel::ALL[m], DATASETS[d], 0.05, 7),
                    arrival,
                    SlaClass::ALL[sla],
                    if economy { QualityTier::Economy } else { QualityTier::Full },
                )
            })
            .collect()
    })
}

/// Synthetic one/two-layer cost oracles: cold Weighting includes a
/// weight load the resident variant skips.
fn arb_costs(n: usize) -> impl Strategy<Value = Vec<RequestCost>> {
    proptest::collection::vec((1u64..60, 60u64..300, 1u64..100, 1usize..3), n..=n.max(1))
        .prop_map(|raw| {
            raw.into_iter()
                .map(|(w_res, w_cold, agg, layers)| {
                    let profile = |w: u64| BatchProfile {
                        pre_cycles: 3,
                        layers: vec![PhasePair { weighting: w, aggregation: agg }; layers],
                        post_cycles: 2,
                        ..BatchProfile::default()
                    };
                    RequestCost::new(profile(w_cold), profile(w_res))
                })
                .collect()
        })
}

fn oracle(trace: &[OnlineRequest], costs: &[RequestCost]) -> HashMap<u64, RequestCost> {
    trace.iter().zip(costs).map(|(r, c)| (r.id(), c.clone())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Served and rejected requests exactly partition the trace, batches
    /// respect homogeneity + size caps, rejections carry their predicted
    /// miss, and the never-rejected classes are honored.
    #[test]
    fn schedule_partitions_the_trace_and_reports_rejections(
        trace in arb_trace().prop_flat_map(|t| {
            let n = t.len();
            (Just(t), arb_costs(n))
        }),
        max_batch in 1usize..6,
        admission in any::<bool>(),
    ) {
        let (trace, costs) = trace;
        let cfg = OnlineConfig { max_batch, admission_control: admission };
        let clock = SimClock::new(1.0e9);
        let report = schedule_online(&trace, &oracle(&trace, &costs), &cfg, &clock);

        // Exactly the trace ids, each served or rejected once.
        let mut seen: Vec<u64> = report
            .served_ids()
            .into_iter()
            .chain(report.rejected.iter().map(|r| r.request.id()))
            .collect();
        seen.sort_unstable();
        let expected: Vec<u64> = (0..trace.len() as u64).collect();
        prop_assert_eq!(seen, expected, "a request was dropped or duplicated");

        // Batch invariants.
        prop_assert_eq!(
            report.batches.iter().map(|b| b.size).sum::<usize>(),
            report.outcomes.len()
        );
        for batch in &report.batches {
            prop_assert!(batch.size >= 1 && batch.size <= max_batch);
            prop_assert!(batch.completion >= batch.dispatch);
            let members: Vec<_> =
                report.outcomes.iter().filter(|o| o.batch == batch.index).collect();
            prop_assert_eq!(members.len(), batch.size);
            prop_assert!(
                members.iter().all(|o| o.request.model_key() == batch.key),
                "batch {} mixed models", batch.index
            );
            prop_assert!(
                members.iter().all(|o| o.request.arrival <= batch.dispatch),
                "batch {} dispatched a request before it arrived", batch.index
            );
        }

        // Rejections: only under admission control, only deadline-carrying
        // full-tier requests, and always with the predicted miss recorded.
        if !admission {
            prop_assert!(report.rejected.is_empty());
        }
        for r in &report.rejected {
            prop_assert_ne!(r.request.sla, SlaClass::Batch, "batch class is never rejected");
            prop_assert_eq!(r.request.tier, QualityTier::Full, "economy degrades, not rejects");
            prop_assert!(r.predicted_completion > r.deadline);
        }
        // Degraded requests are exactly served economy-tier predicted
        // misses; they run deadline-free.
        for o in report.outcomes.iter().filter(|o| o.degraded) {
            prop_assert_eq!(o.request.tier, QualityTier::Economy);
            prop_assert!(o.deadline.is_none());
        }
    }

    /// Inside one model group, strictly more slack never preempts less:
    /// a batch fills in urgency order, and a same-key request left
    /// pending at a dispatch only waits because the batch was full of
    /// requests at least as urgent.
    #[test]
    fn more_slack_never_preempts_less(
        trace in arb_trace().prop_flat_map(|t| {
            let n = t.len();
            (Just(t), arb_costs(n))
        }),
        max_batch in 1usize..6,
    ) {
        let (trace, costs) = trace;
        let cfg = OnlineConfig { max_batch, admission_control: true };
        let clock = SimClock::new(1.0e9);
        let report = schedule_online(&trace, &oracle(&trace, &costs), &cfg, &clock);

        // Fill order within each batch is urgency order.
        for batch in &report.batches {
            let members: Vec<_> =
                report.outcomes.iter().filter(|o| o.batch == batch.index).collect();
            prop_assert!(
                members.windows(2).all(|w| urgency(w[0]) <= urgency(w[1])),
                "batch {} filled out of urgency order", batch.index
            );
        }

        // Across batches: if a later-dispatched same-key request had
        // already arrived when an earlier batch was cut, that batch must
        // have been full of at-least-as-urgent requests.
        for late in &report.outcomes {
            for early_batch in &report.batches {
                if early_batch.index >= late.batch
                    || early_batch.key != late.request.model_key()
                    || late.request.arrival > early_batch.dispatch
                {
                    continue;
                }
                prop_assert_eq!(
                    early_batch.size, cfg.max_batch,
                    "request {} was passed over by underfull batch {}",
                    late.request.id(), early_batch.index
                );
                let early_members: Vec<_> = report
                    .outcomes
                    .iter()
                    .filter(|o| o.batch == early_batch.index)
                    .collect();
                prop_assert!(
                    early_members.iter().all(|e| urgency(e) <= urgency(late)),
                    "batch {} preferred a more-slack request over request {}",
                    early_batch.index, late.request.id()
                );
            }
        }
    }

    /// The same trace + oracle replays to the same report — the schedule
    /// is a pure function with no hidden host state.
    #[test]
    fn replays_are_reproducible(
        trace in arb_trace().prop_flat_map(|t| {
            let n = t.len();
            (Just(t), arb_costs(n))
        }),
        max_batch in 1usize..6,
    ) {
        let (trace, costs) = trace;
        let cfg = OnlineConfig { max_batch, admission_control: true };
        let clock = SimClock::new(1.0e9);
        let oracle = oracle(&trace, &costs);
        let a = schedule_online(&trace, &oracle, &cfg, &clock);
        let b = schedule_online(&trace, &oracle, &cfg, &clock);
        prop_assert_eq!(a, b);
    }
}

/// The acceptance mix: 8 requests over two models at a tiny scale.
fn engine_queue() -> Vec<InferenceRequest> {
    (0..8)
        .map(|i| {
            let model = if i % 2 == 0 { GnnModel::Gcn } else { GnnModel::Gat };
            InferenceRequest::new(i, model, Dataset::Cora, 0.05, 100 + i)
        })
        .collect()
}

fn poisson_trace(seed: u64) -> Vec<OnlineRequest> {
    let clock = SimClock::paper(Dataset::Cora);
    LoadGen {
        process: ArrivalProcess::Poisson { rate_rps: 50_000.0 },
        sla: SlaMix::Mixed,
        seed,
    }
    .generate(&engine_queue(), &clock)
}

fn daemon(workers: usize, threads: usize) -> Daemon {
    Daemon::new(DaemonConfig { workers, sim_threads: SimThreads::Fixed(threads), chips: 1 })
}

/// Acceptance: same seed + arrival config ⇒ bit-identical serving report
/// at any daemon worker count and pool width.
#[test]
fn online_reports_are_bit_identical_across_sim_threads() {
    let trace = poisson_trace(0xA11);
    let cfg = OnlineConfig { max_batch: 4, admission_control: true };
    let reports: Vec<OnlineReport> = [(1usize, 1usize), (3, 2), (4, 4)]
        .iter()
        .map(|&(workers, threads)| {
            let daemon = daemon(workers, threads);
            let report = daemon.serve_online(&trace, &cfg);
            daemon.shutdown();
            report
        })
        .collect();
    assert!(!reports[0].outcomes.is_empty());
    assert_eq!(reports[0], reports[1], "(1 worker, 1 thread) vs (3, 2) diverged");
    assert_eq!(reports[0], reports[2], "(1 worker, 1 thread) vs (4, 4) diverged");
}

/// `Daemon::serve_online` is exactly the online scheduler over the
/// daemon's profiled costs, whichever daemon profiled them.
#[test]
fn serve_online_equals_scheduling_the_profiled_costs() {
    let trace = poisson_trace(0xBEE);
    let cfg = OnlineConfig { max_batch: 4, admission_control: true };
    let narrow = daemon(1, 1);
    let requests: Vec<InferenceRequest> = trace.iter().map(|r| r.request).collect();
    let costs = narrow.profile_costs(&requests);
    narrow.shutdown();
    let by_hand = schedule_online(&trace, &costs, &cfg, &SimClock::paper(Dataset::Cora));
    let wide = daemon(3, 2);
    let served = wide.serve_online(&trace, &cfg);
    wide.shutdown();
    assert_eq!(by_hand, served);
}

/// Acceptance: on a static (all-at-t=0) trace of the same mix, the
/// daemon's online schedule never loses to the static batch planner —
/// same batches, plus weight residency carried across consecutive
/// same-model batches.
#[test]
fn daemon_static_trace_never_loses_to_the_static_planner() {
    // Same-model mix: the online batches coincide with the affinity
    // plan's, isolating the carried-residency win.
    let queue: Vec<InferenceRequest> = (0..8)
        .map(|i| InferenceRequest::new(i, GnnModel::Gcn, Dataset::Cora, 0.05, 100 + i))
        .collect();
    let clock = SimClock::paper(Dataset::Cora);
    let trace = LoadGen {
        process: ArrivalProcess::Static,
        sla: SlaMix::Uniform(SlaClass::Batch),
        seed: 0,
    }
    .generate(&queue, &clock);

    let daemon = daemon(4, 1);
    let costs = daemon.profile_costs(&queue);
    let scheduler = BatchScheduler::new(SchedulerPolicy::ModelAffinity, 2);
    let static_report = schedule_batched(&queue, &scheduler, &costs, &clock);
    let online =
        daemon.serve_online(&trace, &OnlineConfig { max_batch: 2, admission_control: true });
    assert_eq!(
        daemon.profile_cache_stats().misses,
        queue.len() as u64,
        "the online replay reuses the static planner's profiles"
    );
    daemon.shutdown();

    assert_eq!(online.outcomes.len(), static_report.requests.len());
    assert!(
        online.makespan_cycles <= static_report.pipelined_total_cycles,
        "online ({}) must not lose to the static planner ({})",
        online.makespan_cycles,
        static_report.pipelined_total_cycles
    );
    // Four same-model batches: every batch after the first reuses the
    // weights its predecessor left resident — cycles the static planner
    // pays.
    assert!(
        online.makespan_cycles < static_report.pipelined_total_cycles,
        "carried residency must beat the always-cold static leaders"
    );
}
