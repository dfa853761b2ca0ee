//! `bench_check` — the CI perf-regression gate over the `BENCH_*.json`
//! trajectory (see `gnnie_bench::gate`).
//!
//! ```text
//! bench_check [--baseline-dir bench/baselines] [--tolerance 0.10]
//!             [--write-baselines] <BENCH_artifact.json>...
//! ```
//!
//! For each artifact: read its headline metrics, compare them against
//! the checked-in baseline, and print the per-metric delta table. Any
//! metric more than the tolerance below its baseline fails the run
//! (exit 1). `--write-baselines` instead rewrites the baseline
//! files from the fresh artifacts — the README's workflow for
//! intentional trajectory changes.

use gnnie_bench::gate;
use gnnie_bench::json::Json;

fn main() {
    let mut baseline_dir = String::from("bench/baselines");
    let mut tolerance = gate::DEFAULT_TOLERANCE;
    let mut write_baselines = false;
    let mut artifacts: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline-dir" => match args.next() {
                Some(dir) => baseline_dir = dir,
                None => usage_exit("--baseline-dir needs a value"),
            },
            "--tolerance" => match args.next().and_then(|t| t.parse::<f64>().ok()) {
                Some(t) if t > 0.0 && t < 1.0 => tolerance = t,
                _ => usage_exit("--tolerance needs a fraction in (0, 1)"),
            },
            "--write-baselines" => write_baselines = true,
            other if other.starts_with("--") => usage_exit(&format!("unknown flag `{other}`")),
            other => artifacts.push(other.to_string()),
        }
    }
    if artifacts.is_empty() {
        usage_exit("at least one BENCH_*.json artifact is required");
    }

    // On a one-core runner the multi-thread/multi-shard wall-clock
    // speedups are physically unreachable (forced workers only add
    // overhead), so wall-clock rows become informational there; the
    // deterministic simulated-cycle metrics still gate.
    let single_core = std::thread::available_parallelism().map_or(true, |n| n.get() == 1);

    let mut failed = false;
    for artifact in &artifacts {
        match check_one(artifact, &baseline_dir, tolerance, write_baselines, single_core) {
            Ok(regressed) => failed |= regressed,
            Err(e) => {
                eprintln!("error: {artifact}: {e}");
                failed = true;
            }
        }
        println!();
    }
    if failed {
        eprintln!(
            "bench gate FAILED: a headline metric regressed more than {:.0}% \
             (rerun the benches and, if the change is intentional, refresh \
             bench/baselines with --write-baselines)",
            tolerance * 100.0
        );
        std::process::exit(1);
    }
    println!("bench gate OK: every headline metric within {:.0}%", tolerance * 100.0);
}

/// Gates one artifact; returns whether it regressed.
fn check_one(
    artifact: &str,
    baseline_dir: &str,
    tolerance: f64,
    write_baselines: bool,
    single_core: bool,
) -> Result<bool, String> {
    let text = std::fs::read_to_string(artifact).map_err(|e| format!("read: {e}"))?;
    let baseline_path = format!("{baseline_dir}/{}", gate::baseline_file_for(artifact)?);
    let json = Json::parse(&text).map_err(|e| format!("parse: {e}"))?;
    let current = gate::read_headline(&json)?;

    if write_baselines {
        let prev = std::fs::read_to_string(&baseline_path)
            .ok()
            .and_then(|text| gate::parse_baseline(&text).ok())
            .unwrap_or_default();
        let to_write = gate::refreshed_baseline(&prev, &current);
        for (m, (_, kept)) in current.iter().zip(&to_write) {
            if kept.to_bits() != m.value.to_bits() {
                println!(
                    "  {}: keeping frozen wall-clock baseline {kept:.4} \
                     (measured {:.4}; change it by editing {baseline_path})",
                    m.name, m.value
                );
            }
        }
        std::fs::write(&baseline_path, gate::render_baseline(artifact, &to_write))
            .map_err(|e| format!("write {baseline_path}: {e}"))?;
        // Say what the refresh actually changed (old -> new, added,
        // removed, unchanged) instead of rewriting silently.
        println!("{artifact}: wrote {baseline_path}");
        for line in gate::render_refresh_summary(&prev, &to_write) {
            println!("{line}");
        }
        return Ok(false);
    }

    let baseline_text = std::fs::read_to_string(&baseline_path).map_err(|e| {
        format!("read baseline {baseline_path}: {e} (commit one with --write-baselines)")
    })?;
    let baseline =
        gate::parse_baseline(&baseline_text).map_err(|e| format!("{baseline_path}: {e}"))?;
    let mut deltas = gate::compare(&baseline, &current, tolerance);
    if single_core {
        for name in gate::demote_wall_clock_regressions(&mut deltas) {
            println!(
                "  {name}: single-core runner — wall-clock row reported \
                 informationally, not gated"
            );
        }
    }
    for line in gate::render_deltas(artifact, &deltas, tolerance) {
        println!("{line}");
    }
    Ok(deltas.iter().any(|d| d.regressed))
}

fn usage_exit(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: bench_check [--baseline-dir DIR] [--tolerance F] \
         [--write-baselines] <BENCH_artifact.json>..."
    );
    std::process::exit(2);
}
