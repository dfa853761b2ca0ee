//! The simulated-serving readout every workload reports: a seeded
//! open-loop Poisson trace with `SlaMix::Mixed` replayed through
//! `schedule_online` over pre-simulated request costs.
//!
//! Arrivals are precomputed on the simulated clock before the replay, so
//! the generator is never late. Latency percentiles cover the requests
//! that arrive with a deadline (interactive and standard classes); the
//! batch class is deadline-free and the scheduler deliberately holds it
//! back to fill batches, so its waits measure the arrival gap, not the
//! server. A request admission control refuses counts as missing the
//! latency limit.

use std::collections::HashMap;

use gnnie_serve::{
    percentile_nearest_rank, schedule_online, ArrivalProcess, Dataset, InferenceRequest,
    LoadGen, OnlineConfig, OnlineReport, RequestCost, SimClock, SlaClass, SlaMix,
};

/// The p99 latency limit, in multiples of the slowest request's isolated
/// cold service time: twice the standard class's 16× deadline slack, so
/// every request served within its own deadline meets it.
const LIMIT_SERVICE_MULTIPLE: f64 = 32.0;

/// The nominal rate as a share of the service capacity (one over the mean
/// isolated cold service time): loaded, but below saturation.
const NOMINAL_LOAD: f64 = 0.45;

/// What one replay study found.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Highest Poisson rate with zero refusals and p99 within the limit.
    pub sustained_rps: f64,
    /// The p99 limit, simulated µs.
    pub p99_limit_us: f64,
    /// The nominal rate, requests per simulated second.
    pub nominal_rps: f64,
    /// The replay at the nominal rate.
    pub nominal: OnlineReport,
    /// p50 latency at the nominal rate (simulated µs; refusals count as
    /// infinitely late).
    pub p50_us: f64,
    /// p99 latency at the nominal rate, as above.
    pub p99_us: f64,
    /// `schedule_online` calls the study made.
    pub replays: usize,
}

/// The arrival stream's own seed, kept apart from the payload seeds.
const ARRIVAL_SEED_SALT: u64 = 0xa77_1fa1;

/// Bisection stops once the bracket is this tight (relative).
const RATE_TOLERANCE: f64 = 1e-3;

/// Replays `queue` at the nominal rate and searches the sustained rate.
///
/// # Errors
///
/// When no rate between a millionth and a million times the nominal one
/// brackets the limit.
pub fn study(
    queue: &[InferenceRequest],
    costs: &HashMap<u64, RequestCost>,
    seed: u64,
) -> Result<ServeOutcome, String> {
    let clock = SimClock::paper(Dataset::Cora);
    let service_s = |r: &InferenceRequest| clock.to_seconds(costs[&r.id].cold_cycles());
    let slowest_s = queue.iter().map(service_s).fold(0.0, f64::max);
    let mean_s = queue.iter().map(service_s).sum::<f64>() / queue.len() as f64;
    let p99_limit_us = LIMIT_SERVICE_MULTIPLE * slowest_s * 1e6;
    let nominal_rps = NOMINAL_LOAD / mean_s;
    // Admission control stays off: with it on, requests held back to
    // fill batches count toward every later arrival's predicted backlog,
    // and on a many-model trace that refuses requests at any rate.
    let cfg = OnlineConfig { admission_control: false, ..OnlineConfig::default() };
    let mut replays = 0usize;
    let mut replay = |rate: f64| -> OnlineReport {
        replays += 1;
        let gen = LoadGen {
            process: ArrivalProcess::Poisson { rate_rps: rate },
            sla: SlaMix::Mixed,
            seed: seed ^ ARRIVAL_SEED_SALT,
        };
        schedule_online(&gen.generate(queue, &clock), costs, &cfg, &clock)
    };
    let meets = |r: &OnlineReport| r.rejected.is_empty() && tail_us(r, 0.99) <= p99_limit_us;

    let nominal = replay(nominal_rps);
    // Bracket the boundary by doubling (or halving) from the nominal
    // rate, then bisect geometrically.
    let (mut lo, mut hi) = if meets(&nominal) {
        let mut hi = nominal_rps * 2.0;
        while meets(&replay(hi)) {
            hi *= 2.0;
            if hi > nominal_rps * 1e6 {
                return Err(format!("the limit still holds at {hi:.3e} req/s"));
            }
        }
        (hi / 2.0, hi)
    } else {
        let mut lo = nominal_rps / 2.0;
        while !meets(&replay(lo)) {
            lo /= 2.0;
            if lo < nominal_rps * 1e-6 {
                return Err(format!("no rate meets the {p99_limit_us:.1} µs p99 limit"));
            }
        }
        (lo, lo * 2.0)
    };
    while hi / lo > 1.0 + RATE_TOLERANCE {
        let mid = (lo * hi).sqrt();
        if meets(&replay(mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(ServeOutcome {
        sustained_rps: lo,
        p99_limit_us,
        nominal_rps,
        p50_us: tail_us(&nominal, 0.50),
        p99_us: tail_us(&nominal, 0.99),
        nominal,
        replays,
    })
}

/// Nearest-rank latency percentile over the offered requests that carry
/// a deadline, in simulated µs; a refused request is infinitely late.
pub fn tail_us(report: &OnlineReport, q: f64) -> f64 {
    let mut lat: Vec<f64> = report
        .outcomes
        .iter()
        .filter(|o| o.request.sla != SlaClass::Batch)
        .map(|o| o.latency_s * 1e6)
        .collect();
    lat.extend(report.rejected.iter().map(|_| f64::INFINITY));
    percentile_nearest_rank(&lat, q)
}

/// One line summarizing a nominal-rate replay, for the digest.
pub fn digest_line(s: &ServeOutcome) -> String {
    let r = &s.nominal;
    format!(
        "serve sustained_rps={:.6e} p50_us={:.6e} p99_us={:.6e} served={} rejected={} \
         batches={} makespan={}",
        s.sustained_rps,
        s.p50_us,
        s.p99_us,
        r.outcomes.len(),
        r.rejected.len(),
        r.batches.len(),
        r.makespan_cycles
    )
}
