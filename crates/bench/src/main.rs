//! `gnnie-bench <experiment>|all [--json PATH]` — runs one experiment,
//! named by its module under `gnnie_bench::experiments`, or the whole
//! suite. `--json PATH` also writes the experiment's report as a
//! `BENCH_*.json` artifact for `bench_check`. A failed correctness check
//! prints the table, writes no artifact and exits 1; usage errors and an
//! invalid `GNNIE_SCALE` exit 2.

use std::process::exit;

use gnnie_bench::{experiment, Ctx, ExperimentResult, CALIBRATE, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, json_path) = match args.as_slice() {
        [name] => (name.as_str(), None),
        [name, flag, path] if flag == "--json" && name != "all" => (name.as_str(), Some(path)),
        _ => usage_exit("expected one experiment, or `all` without --json"),
    };
    let runner = match name {
        "all" => None,
        name => Some(experiment(name).unwrap_or_else(|| {
            usage_exit(&format!("unknown experiment `{name}`"));
        })),
    };
    let ctx = Ctx::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(2);
    });

    let Some(runner) = runner else {
        let t0 = std::time::Instant::now();
        let mut failed = false;
        for (_, runner) in EXPERIMENTS {
            failed |= !show(&runner(&ctx));
        }
        eprintln!("[all completed in {:.1} s]", t0.elapsed().as_secs_f64());
        exit(i32::from(failed));
    };
    let result = runner(&ctx);
    if !show(&result) {
        exit(1);
    }
    if let Some(path) = json_path {
        let text = result.report.to_json(name).render().unwrap_or_else(|e| {
            eprintln!("error: {name}: {e}");
            exit(1);
        });
        std::fs::write(path, text).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            exit(1);
        });
        eprintln!("[{name}: wrote {path}]");
    }
}

/// Prints the result; reports a failed check and returns `false` on one.
fn show(result: &ExperimentResult) -> bool {
    result.print();
    if let Some(check) = &result.failed_check {
        eprintln!("error: {check}");
    }
    result.failed_check.is_none()
}

fn usage_exit(msg: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().chain([&CALIBRATE]).map(|(n, _)| *n).collect();
    eprintln!(
        "error: {msg}\nusage: gnnie-bench <experiment>|all [--json PATH]\nexperiments: all, {}",
        names.join(", ")
    );
    exit(2);
}
