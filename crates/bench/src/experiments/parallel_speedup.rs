//! Parallel-simulation sweep — `Engine::run` wall clock at 1/2/4/8
//! worker threads vs the serial path, equality-checked per row.
//!
//! The engine's hot loops (the per-vertex Weighting profile and the
//! cache walk's vertex scans) shard across a `SimPool`; this sweep runs
//! every Table II dataset (GCN, paper configuration, `GNNIE_SCALE`-sized)
//! once serially and once per thread count, records the best-of-repeats
//! wall clock, and asserts the **bit-identity contract**: the
//! `InferenceReport` at any thread count must render byte-identically to
//! the serial one. CI uploads the result as
//! `BENCH_parallel_speedup.json` and the `bench_check` gate compares its
//! headline metrics (the identity flag is deterministic and gated
//! tightly; the wall-clock speedup has a conservative baseline — on a
//! one-core host forced threads can only add overhead, and that is still
//! a correct, gated data point).

use std::time::Instant;

use gnnie_core::config::AcceleratorConfig;
use gnnie_core::engine::Engine;
use gnnie_core::SimThreads;
use gnnie_gnn::model::GnnModel;
use gnnie_graph::Dataset;

use crate::{Ctx, ExperimentResult, Metric, Table};

/// Worker-thread counts swept against the serial path.
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Wall-clock repetitions per measurement (the minimum is reported).
const REPS: usize = 2;

/// One (dataset, threads) measurement.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Table II dataset.
    pub dataset: Dataset,
    /// Forced worker count (`SimThreads::Fixed`).
    pub threads: usize,
    /// `Engine::run` wall clock at `threads` workers, ms (best of
    /// repeats).
    pub run_ms: f64,
    /// The serial reference wall clock, ms (best of repeats).
    pub serial_ms: f64,
    /// `serial_ms / run_ms`.
    pub speedup: f64,
    /// Whether the report renders byte-identically to the serial one.
    pub identical: bool,
    /// Simulated total cycles (identical across rows of a dataset when
    /// `identical` holds).
    pub total_cycles: u64,
}

fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = Some(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (out.expect("reps >= 1"), best)
}

/// Runs the sweep over every Table II dataset at the context's scale.
pub fn sweep(ctx: &Ctx) -> Vec<SpeedupRow> {
    let mut rows = Vec::new();
    for dataset in Dataset::ALL {
        let ds = ctx.dataset(dataset);
        let mc = ctx.model_config(GnnModel::Gcn, dataset);
        let mut cfg = AcceleratorConfig::paper(dataset);
        cfg.sim_threads = SimThreads::Fixed(1);
        let serial_engine = Engine::new(cfg.clone());
        let (serial_report, serial_ms) = best_ms(REPS, || serial_engine.run(&mc, &ds));
        let serial_rendering = format!("{serial_report:?}");
        for threads in THREAD_SWEEP {
            cfg.sim_threads = SimThreads::Fixed(threads);
            let engine = Engine::new(cfg.clone());
            let (report, run_ms) = best_ms(REPS, || engine.run(&mc, &ds));
            rows.push(SpeedupRow {
                dataset,
                threads,
                run_ms,
                serial_ms,
                speedup: serial_ms / run_ms.max(1e-9),
                identical: format!("{report:?}") == serial_rendering,
                total_cycles: report.total_cycles,
            });
        }
    }
    rows
}

/// Regenerates the parallel-speedup table.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    render(&sweep(ctx))
}

/// The gated headline: the deterministic bit-identity flag and the best
/// wall-clock speedup. The maximum skips the `threads = 1` rows, which
/// rerun the serial path (~1x), so a parallel regression cannot hide
/// behind them.
///
/// # Errors
///
/// A sweep without multi-thread rows.
pub fn headline(rows: &[SpeedupRow]) -> Result<Vec<Metric>, String> {
    let max_speedup = rows
        .iter()
        .filter(|r| r.threads > 1)
        .map(|r| r.speedup)
        .reduce(f64::max)
        .ok_or("parallel: no multi-thread rows to gate")?;
    Ok(vec![
        Metric::flag("bit_identical", rows.iter().all(|r| r.identical)),
        Metric::wall_clock("max_speedup_vs_serial", max_speedup),
    ])
}

/// Renders an already-computed sweep: the table, its rows, and the
/// headline. A row that diverged from the serial report fails the run.
pub fn render(rows: &[SpeedupRow]) -> ExperimentResult {
    let mut t = Table::new(&[
        "dataset",
        "threads",
        "run ms",
        "serial ms",
        "speedup",
        "bit-identical",
        "total cycles",
    ]);
    for r in rows {
        t.row(vec![
            r.dataset.abbrev().to_string(),
            r.threads.to_string(),
            format!("{:.2}", r.run_ms),
            format!("{:.2}", r.serial_ms),
            format!("{:.2}x", r.speedup),
            if r.identical { "yes".into() } else { "NO".into() },
            r.total_cycles.to_string(),
        ]);
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.push(
        "the sharded loops (per-vertex Weighting profile, cache-walk vertex scans) \
         partition vertices into contiguous ranges and merge per-shard results in \
         shard order, so every report is byte-identical to the serial path; the \
         speedup column is host wall clock (expect <= 1x on a single-core box, \
         where forced workers only add scope/spawn overhead)"
            .to_string(),
    );
    let json_rows = rows
        .iter()
        .map(|r| {
            crate::json_obj! {
                "dataset": r.dataset.abbrev(), "threads": r.threads, "run_ms": r.run_ms,
                "serial_ms": r.serial_ms, "speedup_vs_serial": r.speedup,
                "identical": r.identical, "total_cycles": r.total_cycles,
            }
        })
        .collect();
    let mut result = ExperimentResult::new(
        "Parallel",
        "Parallel simulation speedup (sim-threads sweep)",
        lines,
    )
    .gated(json_rows, headline(rows));
    if rows.iter().any(|r| !r.identical) {
        result.failed_check =
            Some("a sharded run diverged from the serial report (see table)".into());
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_rows_are_bit_identical_and_complete() {
        let ctx = Ctx::with_scale(0.02);
        let mut rows = sweep(&ctx);
        assert_eq!(rows.len(), Dataset::ALL.len() * THREAD_SWEEP.len());
        for r in &rows {
            assert!(r.identical, "{:?} @ {} threads diverged", r.dataset, r.threads);
            assert!(r.run_ms > 0.0 && r.serial_ms > 0.0);
            assert!(r.speedup.is_finite());
            assert!(r.total_cycles > 0);
        }
        // Cycles are a simulated quantity: constant across thread counts.
        for chunk in rows.chunks(THREAD_SWEEP.len()) {
            assert!(chunk.iter().all(|r| r.total_cycles == chunk[0].total_cycles));
        }
        assert!(render(&rows).failed_check.is_none());
        // The threads = 1 rows rerun the serial path and must not feed the
        // wall-clock maximum; a divergent row clears the flag and fails
        // the run, so no artifact is written.
        rows.iter_mut().filter(|r| r.threads == 1).for_each(|r| r.speedup = f64::MAX);
        rows[1].identical = false;
        let m = headline(&rows).unwrap();
        assert_eq!(m[0], Metric::flag("bit_identical", false));
        assert!(m[1].value < f64::MAX && m[1].kind == crate::MetricKind::WallClock, "{m:?}");
        assert!(render(&rows).failed_check.is_some());
        rows.retain(|r| r.threads == 1);
        assert!(headline(&rows).is_err(), "a sweep of trivial rows cannot be gated");
    }
}
