//! End-to-end tests for the `bench_check` CI gate binary on synthetic
//! `BENCH_*.json` fixtures in the `gnnie-bench --json` artifact shape:
//! pass, regression with a delta table, missing metrics, unknown
//! artifacts, and the `--write-baselines` freeze rules for wall-clock
//! metrics.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use gnnie_bench::{gate, BenchReport, Metric};

const BIN: &str = env!("CARGO_BIN_EXE_bench_check");

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gnnie-bench-check-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

/// Runs `bench_check` with a baseline dir and artifact paths.
fn run_check(baseline_dir: &Path, extra: &[&str], artifacts: &[&PathBuf]) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.arg("--baseline-dir").arg(baseline_dir);
    cmd.args(extra);
    for a in artifacts {
        cmd.arg(a);
    }
    cmd.output().expect("spawn bench_check")
}

/// Writes `BENCH_<experiment>.json` the way `gnnie-bench --json` does.
fn artifact(dir: &Path, experiment: &str, headline: Vec<Metric>) -> PathBuf {
    let path = dir.join(format!("BENCH_{experiment}.json"));
    let text = BenchReport { rows: Vec::new(), headline }.to_json(experiment).render().unwrap();
    std::fs::write(&path, text).expect("write artifact");
    path
}

/// A serving artifact whose worst row has the given speedup/throughput.
fn serving_artifact(dir: &Path, speedup: f64, throughput: f64) -> PathBuf {
    artifact(
        dir,
        "serving_throughput",
        vec![
            Metric::deterministic("min_speedup_vs_serial", speedup),
            Metric::deterministic("min_throughput_inferences_per_s", throughput),
        ],
    )
}

/// A parallel-speedup artifact (mixes a deterministic flag with the
/// wall-clock `max_speedup_vs_serial`).
fn parallel_artifact(dir: &Path, identical: bool, speedup: f64) -> PathBuf {
    artifact(
        dir,
        "parallel_speedup",
        vec![
            Metric::flag("bit_identical", identical),
            Metric::wall_clock("max_speedup_vs_serial", speedup),
        ],
    )
}

fn write_baseline(dir: &Path, file: &str, metrics: &[(&str, f64)]) {
    let metrics: Vec<_> = metrics.iter().map(|&(n, v)| (n.to_string(), v)).collect();
    std::fs::write(dir.join(file), gate::render_baseline("x", &metrics))
        .expect("write baseline");
}

fn read_baseline_metric(dir: &Path, file: &str, name: &str) -> f64 {
    let text = std::fs::read_to_string(dir.join(file)).expect("read baseline back");
    let metrics = gate::parse_baseline(&text).expect("parse baseline back");
    metrics.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("`{name}` in:\n{text}")).1
}

#[test]
fn matching_artifact_passes_the_gate() {
    let dir = tmpdir("pass");
    let artifact = serving_artifact(&dir, 1.5, 100.0);
    write_baseline(
        &dir,
        "serving_throughput.json",
        &[("min_speedup_vs_serial", 1.5), ("min_throughput_inferences_per_s", 100.0)],
    );
    let out = run_check(&dir, &[], &[&artifact]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bench gate OK"), "{stdout}");
    assert!(!stdout.contains("REGRESSED"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_drop_beyond_tolerance_fails_with_a_delta_table() {
    let dir = tmpdir("regress");
    // Baseline says 2.0; the artifact's worst row measures 1.5 — a 25%
    // drop, well past the 10% default tolerance.
    let artifact = serving_artifact(&dir, 1.5, 100.0);
    write_baseline(
        &dir,
        "serving_throughput.json",
        &[("min_speedup_vs_serial", 2.0), ("min_throughput_inferences_per_s", 100.0)],
    );
    let out = run_check(&dir, &[], &[&artifact]);
    assert_eq!(out.status.code(), Some(1), "regression must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("min_speedup_vs_serial"), "{stdout}");
    assert!(stdout.contains("REGRESSED"), "delta table row expected:\n{stdout}");
    assert!(stdout.contains("(-25.0%)"), "relative change expected:\n{stdout}");
    assert!(stdout.contains("ok"), "the healthy metric still renders:\n{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bench gate FAILED"), "{stderr}");
    // A 9% drop stays within the default tolerance…
    write_baseline(
        &dir,
        "serving_throughput.json",
        &[("min_speedup_vs_serial", 1.64), ("min_throughput_inferences_per_s", 100.0)],
    );
    let out = run_check(&dir, &[], &[&artifact]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    // …but fails a tightened gate.
    let out = run_check(&dir, &["--tolerance", "0.05"], &[&artifact]);
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_metric_missing_from_the_artifact_fails() {
    let dir = tmpdir("missing");
    let artifact = serving_artifact(&dir, 1.5, 100.0);
    // The baseline gates a metric the artifact no longer carries.
    write_baseline(
        &dir,
        "serving_throughput.json",
        &[("min_speedup_vs_serial", 1.5), ("vanished_metric", 3.0)],
    );
    let out = run_check(&dir, &[], &[&artifact]);
    assert_eq!(out.status.code(), Some(1), "a vanished metric is a regression");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("vanished_metric"), "{stdout}");
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_artifacts_and_empty_invocations_fail_loudly() {
    let dir = tmpdir("unknown");
    // Any experiment's artifact is gated, but only against a committed
    // baseline: none exists for this one.
    let bogus = artifact(&dir, "made_up", vec![Metric::deterministic("m", 1.0)]);
    let out = run_check(&dir, &[], &[&bogus]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("made_up.json") && stderr.contains("--write-baselines"),
        "{stderr}"
    );
    // A file not named BENCH_<experiment>.json is rejected by name.
    let misnamed = dir.join("artifact.json");
    std::fs::copy(serving_artifact(&dir, 1.5, 100.0), &misnamed).unwrap();
    let out = run_check(&dir, &[], &[&misnamed]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not a BENCH_<experiment>.json artifact"), "{stderr}");
    // An ungated experiment's artifact (empty headline) fails loudly too.
    let ungated = artifact(&dir, "table3_configs", Vec::new());
    let out = run_check(&dir, &[], &[&ungated]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not gated"));
    let out = Command::new(BIN).output().expect("spawn bench_check");
    assert_eq!(out.status.code(), Some(2), "no artifacts is a usage error");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn write_baselines_creates_the_file_and_then_passes() {
    let dir = tmpdir("write");
    let artifact = serving_artifact(&dir, 1.5, 100.0);
    let out = run_check(&dir, &["--write-baselines"], &[&artifact]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        read_baseline_metric(&dir, "serving_throughput.json", "min_speedup_vs_serial"),
        1.5
    );
    // The freshly written baseline gates its own artifact cleanly.
    let out = run_check(&dir, &[], &[&artifact]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn write_baselines_freezes_wall_clock_metrics_in_both_directions() {
    let dir = tmpdir("freeze");
    write_baseline(
        &dir,
        "parallel_speedup.json",
        &[("bit_identical", 1.0), ("max_speedup_vs_serial", 2.0)],
    );
    // A faster box must not raise the committed wall-clock baseline…
    let fast = parallel_artifact(&dir, true, 3.0);
    let out = run_check(&dir, &["--write-baselines"], &[&fast]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        read_baseline_metric(&dir, "parallel_speedup.json", "max_speedup_vs_serial"),
        2.0
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("frozen"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    // …and a slower box must not erode it either.
    let slow = parallel_artifact(&dir, true, 1.2);
    let out = run_check(&dir, &["--write-baselines"], &[&slow]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        read_baseline_metric(&dir, "parallel_speedup.json", "max_speedup_vs_serial"),
        2.0
    );
    // Deterministic metrics refresh verbatim alongside the frozen one.
    let broken = parallel_artifact(&dir, false, 1.2);
    let out = run_check(&dir, &["--write-baselines"], &[&broken]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(read_baseline_metric(&dir, "parallel_speedup.json", "bit_identical"), 0.0);
    assert_eq!(
        read_baseline_metric(&dir, "parallel_speedup.json", "max_speedup_vs_serial"),
        2.0
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn online_serving_artifact_is_gated_end_to_end() {
    let dir = tmpdir("online");
    let online = |sustained: f64| {
        artifact(
            &dir,
            "online_serving",
            vec![
                Metric::deterministic("sustained_rps_at_p99", sustained),
                Metric::deterministic("daemon_vs_static_cycle_ratio", 1.05),
            ],
        )
    };
    let out = run_check(&dir, &["--write-baselines"], &[&online(1000.0)]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = run_check(&dir, &[], &[&online(1000.0)]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    // Losing 20% of the sustained rate trips the gate.
    let out = run_check(&dir, &[], &[&online(800.0)]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("sustained_rps_at_p99"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    std::fs::remove_dir_all(&dir).ok();
}
