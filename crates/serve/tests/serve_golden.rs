//! Golden digests of whole serving reports: the full `Debug` rendering
//! of every static-planner `ServeReport` and online `OnlineReport`,
//! hashed with FNV-1a and pinned per configuration.
//!
//! How the serving layer obtains its request costs (which pool runs the
//! engine, how profiles are memoized) may change freely, but the reports
//! must not move by a single byte. The static planner is swept over
//! {same-model, interleaved} × {fifo, affinity} × max batch {1, 2, 4, 8};
//! the online scheduler replays static, Poisson and bursty traces.
//!
//! When a change is *meant* to move simulated numbers, the failure
//! message prints the regenerated table to paste below.

use gnnie_core::SimThreads;
use gnnie_serve::{
    schedule_batched, ArrivalProcess, BatchScheduler, Daemon, DaemonConfig, Dataset, GnnModel,
    InferenceRequest, LoadGen, OnlineConfig, SchedulerPolicy, SimClock, SlaMix,
};

const SCALE: f64 = 0.05;
const MAX_BATCHES: [usize; 4] = [1, 2, 4, 8];

/// `(mix, policy, max batch, ServeReport digest)`.
#[rustfmt::skip]
const STATIC_GOLDEN: &[(&str, &str, usize, u64)] = &[
    ("same-model", "fifo", 1, 0x9207b7aa325666a3),
    ("same-model", "fifo", 2, 0x48b8b17839dd6122),
    ("same-model", "fifo", 4, 0x9e0e97924fa9e061),
    ("same-model", "fifo", 8, 0x25ddb2d4a6654a4b),
    ("same-model", "affinity", 1, 0xa63acaa6ecdd19f2),
    ("same-model", "affinity", 2, 0xcd82aa760002b051),
    ("same-model", "affinity", 4, 0xddbca4cf6134a65c),
    ("same-model", "affinity", 8, 0x3f76bbf5c1c84c3a),
    ("interleaved", "fifo", 1, 0x195ae7fcf4716f04),
    ("interleaved", "fifo", 2, 0x6de18f6c5898d92d),
    ("interleaved", "fifo", 4, 0x6c8f3593991d27f3),
    ("interleaved", "fifo", 8, 0xb727e61e8151e9f7),
    ("interleaved", "affinity", 1, 0xacc2780c5084317a),
    ("interleaved", "affinity", 2, 0x64c8027be2c3596f),
    ("interleaved", "affinity", 4, 0x9dbb8e93f6ea63b1),
    ("interleaved", "affinity", 8, 0x0f320ec7b67d93e5),
];

/// `(arrival process, OnlineReport digest)`.
#[rustfmt::skip]
const ONLINE_GOLDEN: &[(&str, u64)] = &[
    ("static", 0x7cd70eac7046ac28),
    ("poisson", 0xf729bf66b11f01d7),
    ("bursty", 0x6a990ee9b62113a1),
];

/// FNV-1a, 64-bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Eight GCN requests on Cora, distinct seeds.
fn same_model() -> Vec<InferenceRequest> {
    (0..8)
        .map(|i| InferenceRequest::new(i, GnnModel::Gcn, Dataset::Cora, SCALE, 40 + i))
        .collect()
}

/// GCN/GAT alternating every request, Cora/Citeseer every other: FIFO
/// never sees two compatible neighbors.
fn interleaved() -> Vec<InferenceRequest> {
    (0..8)
        .map(|i| {
            let model = [GnnModel::Gcn, GnnModel::Gat][i as usize % 2];
            let dataset = [Dataset::Cora, Dataset::Citeseer][(i as usize / 2) % 2];
            InferenceRequest::new(i, model, dataset, SCALE, 60 + i)
        })
        .collect()
}

fn daemon() -> Daemon {
    Daemon::new(DaemonConfig { workers: 2, sim_threads: SimThreads::Fixed(1), chips: 1 })
}

/// Compares `actual` against `golden` and prints the regenerated table
/// on any mismatch.
fn check<K: PartialEq + std::fmt::Debug>(what: &str, golden: &[(K, u64)], actual: &[(K, u64)]) {
    let moved: Vec<String> = actual
        .iter()
        .filter(|(key, got)| !golden.iter().any(|(k, want)| k == key && want == got))
        .map(|(key, _)| format!("{key:?}"))
        .collect();
    let table: String =
        actual.iter().map(|(key, d)| format!("    ({key:?}, 0x{d:016x}),\n")).collect();
    assert!(
        moved.is_empty() && actual.len() == golden.len(),
        "{what} moved:\n  {}\nregenerated table:\n{table}",
        moved.join("\n  ")
    );
}

#[test]
fn static_planner_reports_match_the_golden_digests() {
    let daemon = daemon();
    let clock = SimClock::paper(Dataset::Cora);
    let mut actual = Vec::new();
    for (mix, queue) in [("same-model", same_model()), ("interleaved", interleaved())] {
        let costs = daemon.profile_costs(&queue);
        for policy in SchedulerPolicy::ALL {
            for max_batch in MAX_BATCHES {
                let scheduler = BatchScheduler::new(policy, max_batch);
                let report = schedule_batched(&queue, &scheduler, &costs, &clock);
                actual.push((
                    (mix, policy.name(), max_batch),
                    fnv64(format!("{report:?}").as_bytes()),
                ));
            }
        }
    }
    let golden: Vec<_> = STATIC_GOLDEN
        .iter()
        .map(|&(mix, policy, batch, d)| ((mix, policy, batch), d))
        .collect();
    check("static-planner reports", &golden, &actual);
}

#[test]
fn online_reports_match_the_golden_digests() {
    let daemon = daemon();
    let queue = interleaved();
    let clock = SimClock::paper(Dataset::Cora);
    let cfg = OnlineConfig { max_batch: 4, admission_control: true };
    let processes = [
        ArrivalProcess::Static,
        ArrivalProcess::Poisson { rate_rps: 40_000.0 },
        ArrivalProcess::Bursty { rate_rps: 40_000.0, burst: 3 },
    ];
    let actual: Vec<_> = processes
        .iter()
        .map(|&process| {
            let trace =
                LoadGen { process, sla: SlaMix::Mixed, seed: 7 }.generate(&queue, &clock);
            let report = daemon.serve_online(&trace, &cfg);
            (process.name(), fnv64(format!("{report:?}").as_bytes()))
        })
        .collect();
    check("online reports", ONLINE_GOLDEN, &actual);
}
