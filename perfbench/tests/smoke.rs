//! Smoke test of the benchmark at tiny sizes: every end-to-end metric
//! `BENCHMARK.json` names appears for every workload, every per-layer
//! metric appears in the traced run, the traced run's Chrome trace
//! validates, and the deterministic metrics repeat exactly across two
//! invocations.

use std::process::Command;

use gnnie_bench::json::Json;
use gnnie_bench::trace::validate_chrome_trace;

const SEED: u64 = 3;

/// Metrics that are simulated, hence identical across invocations.
const DETERMINISTIC: [&str; 5] =
    ["sim_cycles", "sim_energy_uj", "serve_sustained_rps", "serve_p50_us", "serve_p99_us"];

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(manifest: &Json, key: &str) -> Vec<String> {
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name").and_then(Json::as_str).expect("every entry has a name").to_string()
        })
        .collect()
}

/// Runs one tiny invocation and returns its parsed result line.
fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &SEED.to_string(), "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .output()
        .expect("benchmark runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload}: exit {:?}\n{stderr}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("result line is JSON");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}\n{stderr}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0), "{workload}\n{stderr}");
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
    result
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric `{name}` missing or not a number"))
}

fn metric_names(result: &Json) -> Vec<String> {
    match result.get("metrics") {
        Some(Json::Obj(entries)) => entries.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("metrics is not an object"),
    }
}

#[test]
fn every_workload_reports_every_metric_and_repeats_its_simulated_ones() {
    let manifest = manifest();
    let end_to_end = names(&manifest, "end_to_end");
    let per_layer = names(&manifest, "per_layer");
    let workloads = names(&manifest, "workloads");
    assert_eq!(workloads, ["synth-reddit", "ppi-file-zoo", "serve-mixed"]);
    for workload in &workloads {
        let first = run(workload, false);
        assert_eq!(metric_names(&first), end_to_end, "{workload}");
        for name in &end_to_end {
            assert!(metric(&first, name) > 0.0, "{workload}: {name} must never be 0");
        }
        let second = run(workload, false);
        for name in DETERMINISTIC {
            assert_eq!(
                metric(&first, name).to_bits(),
                metric(&second, name).to_bits(),
                "{workload}: {name} must repeat exactly"
            );
        }

        let traced = run(workload, true);
        assert_eq!(metric_names(&traced), per_layer, "{workload}");
        let trace_path =
            format!("{}/work/trace-{workload}-{SEED}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&trace_path).expect("traced run writes its trace");
        let summary = validate_chrome_trace(&text).expect("trace_check accepts the trace");
        assert!(summary.spans > 0 && summary.processes == 1, "{workload}: {summary:?}");
    }
}
