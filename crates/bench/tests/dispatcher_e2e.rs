//! End-to-end tests for the `gnnie-bench` dispatcher: name validation,
//! the `--json` artifact of an ungated experiment, and `GNNIE_SCALE`
//! validation.

use std::process::{Command, Output};

use gnnie_bench::json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_gnnie-bench");

fn run(args: &[&str], scale: &str) -> Output {
    Command::new(BIN).args(args).env("GNNIE_SCALE", scale).output().expect("spawn gnnie-bench")
}

#[test]
fn unknown_experiment_exits_2_and_lists_the_valid_names() {
    let out = run(&["fig99_made_up"], "0.05");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for name in ["fig99_made_up", "all", "table3_configs", "serving_throughput", "calibrate"] {
        assert!(stderr.contains(name), "`{name}` missing from:\n{stderr}");
    }
    assert_eq!(run(&[], "0.05").status.code(), Some(2), "no experiment is a usage error");
    let out = run(&["all", "--json", "x.json"], "0.05");
    assert_eq!(out.status.code(), Some(2), "`all` writes no single artifact");
}

#[test]
fn json_flag_writes_a_parseable_report_with_an_empty_headline_when_ungated() {
    let path =
        std::env::temp_dir().join(format!("gnnie-bench-dispatch-{}.json", std::process::id()));
    let out = run(&["table3_configs", "--json", path.to_str().unwrap()], "0.05");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("==== Table III"));
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("table3_configs"));
    assert_eq!(doc.get("rows").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
    assert_eq!(doc.get("headline").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
}

#[test]
fn invalid_gnnie_scale_exits_2_naming_the_variable_and_range() {
    for bad in ["0", "abc", "5", "-0.5", "1.0001", "NaN", "inf", ""] {
        let out = run(&["table2_datasets"], bad);
        assert_eq!(out.status.code(), Some(2), "GNNIE_SCALE={bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("GNNIE_SCALE") && stderr.contains("(0, 1]"), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing runs at an invalid scale");
    }
}
