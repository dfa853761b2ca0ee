//! Online-serving sweep — sustained request rate under a p99 latency
//! bound, plus the daemon-vs-static cycle comparison.
//!
//! The online layer (`gnnie-serve::online`) replays a simulated-clock
//! arrival trace through the continuous-batching scheduler. Two headline
//! questions make it a perf trajectory worth gating:
//!
//! * **sustained req/s at a p99 bound** — sweep Poisson arrival rates as
//!   multiples of the service rate (1 / mean resident service time) and
//!   record the highest rate the server absorbs with zero admission
//!   rejections and p99 latency under the bound. Open-loop arrivals mean
//!   overload shows up as queueing latency, not silently slower clients.
//! * **daemon vs static planner** — the same queue served as a static
//!   t = 0 trace by the online scheduler (weight residency carried
//!   across consecutive same-model batches) against the static batch
//!   planner's pipelined makespan. The ratio must stay ≥ 1: the online
//!   path never pays more simulated cycles than the batch planner on
//!   the mix the planner was built for.
//!
//! Every number here is simulated cycles — deterministic run to run —
//! so the committed baselines are tight, unlike the wall-clock benches.

use gnnie_graph::Dataset;
use gnnie_serve::{
    schedule_batched, schedule_online, ArrivalProcess, BatchScheduler, LoadGen, OnlineConfig,
    OnlineReport, SchedulerPolicy, SimClock, SlaClass, SlaMix,
};

use crate::experiments::serving_throughput::{profile, same_model_mix};
use crate::json::Json;
use crate::{Ctx, ExperimentResult, Metric, Table};

/// Arrival rates swept, as multiples of the service rate.
pub const RATE_FACTORS: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

/// The p99 bound, as a multiple of the mean resident service time. It
/// sits above the Standard class's 16x deadline slack on purpose: the
/// scheduler trades latency *within* the deadline for batch fill, so an
/// unsaturated server runs p99 near the slack; only a real backlog (or
/// the cold starts of a saturated mix) pushes past this bound.
pub const P99_BOUND_FACTOR: f64 = 24.0;

/// Requests in each replayed trace. Only [`PROFILED`] distinct requests
/// are ever simulated — the trace reuses their measured costs modulo
/// `PROFILED`, and the schedule itself is exact integer arithmetic, so a
/// long trace costs nothing extra. Long enough that overload builds a
/// genuine backlog and trips admission control.
pub const TRACE_LEN: usize = 96;

/// Distinct requests profiled (cold + resident simulation each).
pub const PROFILED: usize = 16;

/// One swept arrival rate.
#[derive(Debug, Clone)]
pub struct RateRow {
    /// Rate as a multiple of the service rate.
    pub factor: f64,
    /// Absolute Poisson arrival rate (requests/s).
    pub rate_rps: f64,
    /// The serving record at this rate.
    pub report: OnlineReport,
    /// Zero rejections and p99 under the bound.
    pub sustained: bool,
}

/// The whole experiment's outcome.
#[derive(Debug, Clone)]
pub struct OnlineServingResult {
    /// The rate sweep, ascending.
    pub rows: Vec<RateRow>,
    /// 1 / mean resident service time (requests/s).
    pub service_rate_rps: f64,
    /// The p99 latency bound (seconds).
    pub p99_bound_s: f64,
    /// Highest swept rate that stayed sustained (0 if none).
    pub sustained_rps_at_p99: f64,
    /// Static planner pipelined cycles / online static-trace makespan.
    /// ≥ 1 means the online path never loses to the batch planner.
    pub daemon_vs_static_cycle_ratio: f64,
    /// The static batch planner's pipelined makespan (cycles).
    pub static_pipelined_cycles: u64,
    /// The online scheduler's makespan on the same queue at t = 0.
    pub online_makespan_cycles: u64,
}

/// Runs the sweep: profiles [`PROFILED`] distinct requests' cold and
/// resident costs once, then replays the (cheap, integer-exact)
/// schedule of a [`TRACE_LEN`]-request trace at each rate.
pub fn sweep(ctx: &Ctx) -> OnlineServingResult {
    let profiled = same_model_mix(ctx, PROFILED);
    let clock = SimClock::paper(Dataset::Cora);
    let profiled_costs = profile(&profiled);

    // The long trace clones the profiled requests modulo PROFILED; the
    // cost oracle maps each clone to its original's measurement.
    let queue: Vec<_> = (0..TRACE_LEN)
        .map(|i| {
            let base = profiled[i % PROFILED];
            gnnie_serve::InferenceRequest::new(
                i as u64,
                base.model,
                base.dataset,
                base.scale,
                base.seed,
            )
        })
        .collect();
    let costs: std::collections::HashMap<_, _> = queue
        .iter()
        .map(|r| (r.id, profiled_costs[&profiled[r.id as usize % PROFILED].id].clone()))
        .collect();

    let mean_service_s = profiled
        .iter()
        .map(|r| clock.to_seconds(profiled_costs[&r.id].resident_cycles()))
        .sum::<f64>()
        / profiled.len() as f64;
    let service_rate_rps = 1.0 / mean_service_s;
    let p99_bound_s = P99_BOUND_FACTOR * mean_service_s;

    let cfg = OnlineConfig { max_batch: 8, admission_control: true };
    let mut rows = Vec::new();
    let mut sustained_rps_at_p99 = 0.0f64;
    for factor in RATE_FACTORS {
        let rate_rps = factor * service_rate_rps;
        let gen = LoadGen {
            process: ArrivalProcess::Poisson { rate_rps },
            sla: SlaMix::Uniform(SlaClass::Standard),
            seed: ctx.seed(),
        };
        let trace = gen.generate(&queue, &clock);
        let report = schedule_online(&trace, &costs, &cfg, &clock);
        let sustained = report.rejected.is_empty() && report.p99_latency_s() <= p99_bound_s;
        if sustained {
            sustained_rps_at_p99 = sustained_rps_at_p99.max(rate_rps);
        }
        rows.push(RateRow { factor, rate_rps, report, sustained });
    }

    // Daemon-vs-static: the batch planner's home turf (same-model queue,
    // everything at t = 0, no deadlines). The online scheduler carries
    // weight residency across consecutive batches, so its makespan must
    // not exceed the planner's pipelined total. Both sides plan the
    // profiled 16-request queue over the costs already simulated.
    let static_report = schedule_batched(
        &profiled,
        &BatchScheduler::new(SchedulerPolicy::ModelAffinity, 8),
        &profiled_costs,
        &clock,
    );
    let static_trace = LoadGen {
        process: ArrivalProcess::Static,
        sla: SlaMix::Uniform(SlaClass::Batch),
        seed: ctx.seed(),
    }
    .generate(&profiled, &clock);
    let online = schedule_online(&static_trace, &profiled_costs, &cfg, &clock);

    OnlineServingResult {
        rows,
        service_rate_rps,
        p99_bound_s,
        sustained_rps_at_p99,
        daemon_vs_static_cycle_ratio: static_report.pipelined_total_cycles as f64
            / online.makespan_cycles as f64,
        static_pipelined_cycles: static_report.pipelined_total_cycles,
        online_makespan_cycles: online.makespan_cycles,
    }
}

/// Regenerates the online-serving table.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    render(&sweep(ctx))
}

/// The gated headline: the sustained rate under the p99 bound and the
/// static-planner/online cycle ratio. Simulated, deterministic.
///
/// # Errors
///
/// An empty rate sweep.
pub fn headline(result: &OnlineServingResult) -> Result<Vec<Metric>, String> {
    if result.rows.is_empty() {
        return Err("online: empty sweep".into());
    }
    Ok(vec![
        Metric::deterministic("sustained_rps_at_p99", result.sustained_rps_at_p99),
        Metric::deterministic(
            "daemon_vs_static_cycle_ratio",
            result.daemon_vs_static_cycle_ratio,
        ),
    ])
}

/// The artifact rows: one `rate` row per swept rate and the `summary`
/// row.
fn json_rows(result: &OnlineServingResult) -> Vec<Json> {
    let rates = result.rows.iter().map(|row| {
        let r = &row.report;
        crate::json_obj! {
            "table": "rate", "rate_factor": row.factor, "rate_rps": row.rate_rps,
            "served": r.outcomes.len(), "rejected": r.rejected.len(),
            "batches": r.batches.len(), "p50_latency_us": r.p50_latency_s() * 1e6,
            "p95_latency_us": r.p95_latency_s() * 1e6,
            "p99_latency_us": r.p99_latency_s() * 1e6,
            "deadline_hit_rate": r.deadline_hit_rate(), "throughput_rps": r.throughput_rps(),
            "sustained": row.sustained,
        }
    });
    let summary = crate::json_obj! {
        "table": "summary", "service_rate_rps": result.service_rate_rps,
        "p99_bound_us": result.p99_bound_s * 1e6,
        "sustained_rps_at_p99": result.sustained_rps_at_p99,
        "static_pipelined_cycles": result.static_pipelined_cycles,
        "online_makespan_cycles": result.online_makespan_cycles,
        "daemon_vs_static_cycle_ratio": result.daemon_vs_static_cycle_ratio,
    };
    rates.chain([summary]).collect()
}

/// Renders an already-computed sweep: the table, its rows, and the
/// headline.
pub fn render(result: &OnlineServingResult) -> ExperimentResult {
    let mut t = Table::new(&[
        "rate x",
        "req/s",
        "served",
        "rejected",
        "p50 us",
        "p95 us",
        "p99 us",
        "hit %",
        "out req/s",
        "sustained",
    ]);
    for row in &result.rows {
        let r = &row.report;
        t.row(vec![
            format!("{:.2}", row.factor),
            format!("{:.0}", row.rate_rps),
            r.outcomes.len().to_string(),
            r.rejected.len().to_string(),
            format!("{:.1}", r.p50_latency_s() * 1e6),
            format!("{:.1}", r.p95_latency_s() * 1e6),
            format!("{:.1}", r.p99_latency_s() * 1e6),
            format!("{:.0}", r.deadline_hit_rate() * 100.0),
            format!("{:.0}", r.throughput_rps()),
            if row.sustained { "yes" } else { "no" }.to_string(),
        ]);
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.push(format!(
        "sustained {:.0} req/s at p99 <= {:.1} us ({}x mean resident service); \
         static-trace online makespan {} cycles vs batch planner {} \
         ({:.3}x, >= 1 means the online path never loses)",
        result.sustained_rps_at_p99,
        result.p99_bound_s * 1e6,
        P99_BOUND_FACTOR,
        result.online_makespan_cycles,
        result.static_pipelined_cycles,
        result.daemon_vs_static_cycle_ratio,
    ));
    ExperimentResult::new(
        "Online",
        "Online serving: sustained rate at a p99 bound (gnnie-serve)",
        lines,
    )
    .gated(json_rows(result), headline(result))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sustained_rate_is_positive_and_overload_degrades() {
        let ctx = Ctx::with_scale(0.1);
        let result = sweep(&ctx);
        assert_eq!(result.rows.len(), RATE_FACTORS.len());
        // At a quarter of the service rate the server keeps up.
        assert!(result.rows[0].sustained, "0.25x the service rate must be sustained");
        assert!(result.sustained_rps_at_p99 > 0.0);
        // At 4x the service rate the backlog outgrows the Standard
        // deadline slack and admission control starts rejecting.
        let overload = result.rows.last().unwrap();
        assert!(
            !overload.sustained && !overload.report.rejected.is_empty(),
            "4x the service rate must overload the server \
             (rejected {}, p99 {:.1} us vs bound {:.1} us)",
            overload.report.rejected.len(),
            overload.report.p99_latency_s() * 1e6,
            result.p99_bound_s * 1e6
        );
        // Every request is accounted for at every rate.
        for row in &result.rows {
            assert_eq!(row.report.outcomes.len() + row.report.rejected.len(), TRACE_LEN);
        }
    }

    #[test]
    fn online_static_trace_never_loses_to_the_batch_planner() {
        // The PR's acceptance criterion: on the planner's own mix the
        // pipelined daemon path is at least as fast in simulated cycles.
        let ctx = Ctx::with_scale(0.1);
        let result = sweep(&ctx);
        assert!(
            result.daemon_vs_static_cycle_ratio >= 1.0,
            "online makespan {} must not exceed the static planner's {}",
            result.online_makespan_cycles,
            result.static_pipelined_cycles
        );
        let ratio = result.daemon_vs_static_cycle_ratio;
        assert_eq!(
            headline(&result).unwrap(),
            vec![
                Metric::deterministic("sustained_rps_at_p99", result.sustained_rps_at_p99),
                Metric::deterministic("daemon_vs_static_cycle_ratio", ratio),
            ]
        );
        let empty = OnlineServingResult { rows: Vec::new(), ..result };
        assert!(headline(&empty).is_err(), "an empty sweep cannot be gated");
    }
}
