//! The repository benchmark. See README.md for the workloads, metrics
//! and how to run it.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--tiny] [--write-reference]
//! ```
//!
//! Human-readable progress goes to stderr; the last line of stdout is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod host;
mod serving;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use host::{median, Host, PassKind};
use workloads::{Ctx, Sizes, Tally};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut tiny, mut write_reference) = (false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--tiny" => tiny = true,
            "--write-reference" => write_reference = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {:?})", workloads::NAMES));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        tiny,
        write_reference,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

/// One metric value with its unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn run(args: &Args) -> Result<String, String> {
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let work_dir = bench_dir.join("work");
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = Host::new(args.trace);
    let cx = Ctx {
        host: &host,
        seed: args.seed,
        sizes: if args.tiny { Sizes::TINY } else { Sizes::FULL },
        threads,
        work_dir: work_dir.clone(),
    };
    let mut workload = workloads::by_name(&args.workload).expect("name validated");
    let mut tally = Tally::default();
    eprintln!(
        "{}: seed {}, {} host threads, {} run, simulated caches start empty (cold start)",
        args.workload,
        args.seed,
        threads,
        if args.tiny { "tiny" } else { "full" }
    );

    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (done, secs) = host.pass(PassKind::Setup, || workload.setup(&cx));
        done?;
        setup_s.push(secs);
    }

    // Timed loop: stop before an iteration would overrun the budget. In a
    // traced run every other iteration records spans, so the untraced
    // ones measure the tracing overhead.
    let budget = args.seconds as f64;
    let min_iterations = if args.trace { 2 } else { 1 };
    let (mut walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut first_digest: Option<Vec<String>> = None;
    let mut elapsed = 0.0;
    loop {
        let record = args.trace && walls.len() % 2 == 1;
        host.set_recording(!args.trace || record);
        let (digest, wall) =
            host.pass(PassKind::Iteration, || workload.iterate(&cx, &mut tally));
        let digest = digest?;
        elapsed += wall;
        if record {
            traced_walls.push(wall)
        } else {
            walls.push(wall)
        }
        match &first_digest {
            None => first_digest = Some(digest),
            Some(first) => tally.check(*first == digest, || {
                format!(
                    "{}: iteration {} did not reproduce the first",
                    args.workload,
                    walls.len() + traced_walls.len()
                )
            }),
        }
        let done = walls.len() + traced_walls.len();
        if done >= min_iterations && elapsed + wall > budget {
            break;
        }
    }
    host.set_recording(true);
    let (summary, _) = host.pass(PassKind::Check, || workload.check(&cx, &mut tally));
    let summary = summary?;
    let mut digest = first_digest.expect("at least one iteration");
    digest.extend(summary.digest.iter().cloned());
    check_reference(bench_dir, args, &digest, &mut tally)?;
    for p in &tally.problems {
        eprintln!("FAILED {p}");
    }

    let wall_s = median(&walls);
    let edges = summary.edges_per_iteration as f64;
    let edges_per_s = median(&walls.iter().map(|w| edges / w).collect::<Vec<_>>());
    let s = &summary.serve;
    eprintln!(
        "{}: setup {:.3} s (median of {:.3?}), iterations {:.3?} s, wall {:.3} s, {:.3e} edges/s",
        args.workload,
        median(&setup_s),
        setup_s,
        walls,
        wall_s,
        edges_per_s
    );
    eprintln!(
        "{}: open-loop Poisson, {} requests, arrivals precomputed on the simulated clock \
         (generator lateness 0); p99 limit {:.1} us, sustained {:.1} req/s; at the nominal \
         {:.1} req/s p50 {:.1} us, p99 {:.1} us ({} replays)",
        args.workload,
        s.nominal.outcomes.len() + s.nominal.rejected.len(),
        s.p99_limit_us,
        s.sustained_rps,
        s.nominal_rps,
        s.p50_us,
        s.p99_us,
        s.replays
    );

    let metrics: Metrics = if args.trace {
        let mut m = layer_metrics(&summary, &host);
        m.push(("obs.trace_overhead_s", median(&traced_walls) - wall_s, "s"));
        let path = work_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        std::fs::write(&path, gnnie_obs::chrome_trace_json(&host.events()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("{}: host trace written to {}", args.workload, path.display());
        m
    } else {
        let reports = &summary.reports;
        vec![
            ("setup_s", median(&setup_s), "s"),
            ("wall_s", wall_s, "s"),
            ("edges_per_s", edges_per_s, "edges/s"),
            ("peak_rss_mb", host::peak_rss_mb()?, "MiB"),
            ("sim_cycles", reports.iter().map(|r| r.total_cycles as f64).sum(), "cycles"),
            (
                "sim_energy_uj",
                reports.iter().map(|r| r.energy.total_pj()).sum::<f64>() * 1e-6,
                "uJ",
            ),
            ("serve_sustained_rps", s.sustained_rps, "req/sim_s"),
            ("serve_p50_us", s.p50_us, "sim_us"),
            ("serve_p99_us", s.p99_us, "sim_us"),
        ]
    };
    Ok(result_line(tally.failed == 0, tally.attempted, tally.failed, &metrics))
}

/// The traced run's per-layer metrics: host self time per layer and the
/// simulated counts of the summary's reports and serving replay.
fn layer_metrics(summary: &workloads::Summary, host: &Host) -> Metrics {
    let self_s = host.self_times();
    for (name, secs) in &self_s {
        eprintln!("  self {name:<24} {secs:>10.6} s");
    }
    let t = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let reports = &summary.reports;
    let sum = |f: &dyn Fn(&gnnie_core::InferenceReport) -> u64| -> f64 {
        reports.iter().map(|r| f(r) as f64).sum()
    };
    let layers = |f: &dyn Fn(&gnnie_core::report::LayerReport) -> u64| -> f64 {
        reports.iter().flat_map(|r| &r.layers).map(|l| f(l) as f64).sum()
    };
    let cache = |f: &dyn Fn(&gnnie_mem::CacheSimResult) -> u64| -> f64 {
        reports
            .iter()
            .flat_map(|r| &r.layers)
            .filter_map(|l| l.aggregation.cache.as_ref())
            .map(|c| f(c) as f64)
            .sum()
    };
    let refetches = cache(&|c| c.refetches);
    let fetched = cache(&|c| c.fetched_vertices);
    let online = &summary.serve.nominal;
    let clock_us = 1e6 / online.clock_hz;
    let waits: Vec<f64> = online
        .outcomes
        .iter()
        .map(|o| o.dispatch.saturating_sub(o.request.arrival) as f64 * clock_us)
        .collect();
    let served = online.outcomes.len().max(1) as f64;
    vec![
        ("graph.generate_s", t("graph.generate"), "s"),
        ("ingest.resolve_s", t("ingest.resolve"), "s"),
        ("core.begin_s", t("core.begin"), "s"),
        ("core.weighting_s", t("core.weighting"), "s"),
        ("core.aggregation_s", t("core.aggregation"), "s"),
        ("core.diffpool_s", t("core.diffpool"), "s"),
        ("core.finish_s", t("core.finish"), "s"),
        ("serve.profile_s", t("serve.profile"), "s"),
        ("serve.schedule_s", t("serve.schedule"), "s"),
        ("host.unattributed_s", t("bench.iteration"), "s"),
        ("core.preprocessing_cycles", sum(&|r| r.preprocessing_cycles), "cycles"),
        ("core.weighting_cycles", sum(&|r| r.weighting_cycles()), "cycles"),
        ("core.aggregation_cycles", sum(&|r| r.aggregation_cycles()), "cycles"),
        ("core.writeback_cycles", sum(&|r| r.writeback_cycles), "cycles"),
        (
            "core.weighting.mpe_stall_cycles",
            layers(&|l| l.weighting.mpe_stall_cycles),
            "cycles",
        ),
        (
            "core.weighting.lr_overhead_cycles",
            layers(&|l| l.weighting.lr_overhead_cycles),
            "cycles",
        ),
        ("core.weighting.macs_issued", layers(&|l| l.weighting.macs_issued), "count"),
        (
            "core.weighting.zero_blocks_skipped",
            layers(&|l| l.weighting.zero_blocks_skipped),
            "count",
        ),
        ("core.aggregation.stall_cycles", layers(&|l| l.aggregation.stall_cycles), "cycles"),
        ("core.aggregation.dram_cycles", layers(&|l| l.aggregation.dram_cycles), "cycles"),
        ("core.aggregation.edge_updates", layers(&|l| l.aggregation.edge_updates), "count"),
        ("mem.cache.evictions", cache(&|c| c.evictions), "count"),
        ("mem.cache.refetches", refetches, "count"),
        ("mem.cache.refetch_ratio", refetches / fetched.max(1.0), "ratio"),
        ("mem.cache.rounds", cache(&|c| u64::from(c.rounds)), "count"),
        ("mem.cache.partial_spills", cache(&|c| c.partial_spills), "count"),
        ("mem.dram.seq_bytes", sum(&|r| r.dram.seq_read_bytes + r.dram.seq_write_bytes), "B"),
        ("mem.dram.rand_bytes", sum(&|r| r.dram.random_bytes()), "B"),
        ("serve.profile_cache.hit_ratio", summary.profile_hit_ratio, "ratio"),
        ("serve.distinct_profiles", summary.distinct_profiles as f64, "count"),
        ("serve.batches", online.batches.len() as f64, "count"),
        (
            "serve.mean_batch_size",
            online.outcomes.len() as f64 / online.batches.len().max(1) as f64,
            "count",
        ),
        (
            "serve.resident_share",
            online.outcomes.iter().filter(|o| o.weights_resident).count() as f64 / served,
            "ratio",
        ),
        (
            "serve.queue_wait_p99_us",
            gnnie_serve::percentile_nearest_rank(&waits, 0.99),
            "sim_us",
        ),
        ("serve.rejected", online.rejected.len() as f64, "count"),
        (
            "serve.degraded",
            online.outcomes.iter().filter(|o| o.degraded).count() as f64,
            "count",
        ),
    ]
}

/// Compares (or, with `--write-reference`, stores) the run's digest
/// against `reference/<workload>/<seed>.txt`. Seeds without a stored
/// reference are checked for self-consistency only.
fn check_reference(
    bench_dir: &Path,
    args: &Args,
    digest: &[String],
    tally: &mut Tally,
) -> Result<(), String> {
    if args.tiny {
        return Ok(());
    }
    let dir: PathBuf = bench_dir.join("reference").join(&args.workload);
    let path = dir.join(format!("{}.txt", args.seed));
    let text = digest.join("\n") + "\n";
    if args.write_reference {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("{}: reference written to {}", args.workload, path.display());
        return Ok(());
    }
    let Ok(want) = std::fs::read_to_string(&path) else {
        eprintln!(
            "{}: no stored reference for seed {}; self-consistency checks only",
            args.workload, args.seed
        );
        return Ok(());
    };
    let want: Vec<&str> = want.lines().collect();
    for i in 0..want.len().max(digest.len()) {
        let (w, g) = (want.get(i).copied(), digest.get(i).map(String::as_str));
        tally.check(w == g, || {
            format!(
                "{} reference line {}: want `{}`, got `{}`",
                args.workload,
                i + 1,
                w.unwrap_or("-"),
                g.unwrap_or("-")
            )
        });
    }
    Ok(())
}

/// The JSON result line.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { format!("{value}") } else { "null".into() };
        let sep = if i == 0 { "" } else { ", " };
        write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            .expect("string write");
    }
    out.push_str("}}");
    out
}
