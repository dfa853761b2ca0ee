//! End-to-end tests of the `gnnie` binary: cache-policy selection, the
//! SIGPIPE-safe stdout path (`gnnie ... | head` must end quietly), and
//! the ingestion round trip (`ingest` + `run --graph`).

use std::path::PathBuf;
use std::process::Command;

use gnnie::graph::{Dataset, GraphDataset};
use gnnie::ingest::{export_edge_list, EdgeListFormat, RecordedSpec};

const BIN: &str = env!("CARGO_BIN_EXE_gnnie");

fn run_args(args: &[&str]) -> std::process::Output {
    Command::new(BIN).args(args).output().expect("spawn gnnie")
}

/// A fresh temp dir for one test (std-only; no tempfile crate).
fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gnnie-cli-test").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn run_accepts_every_cache_policy() {
    for policy in ["paper", "lru", "lfu", "belady"] {
        let out = run_args(&[
            "run",
            "--model",
            "gcn",
            "--dataset",
            "cora",
            "--scale",
            "0.05",
            "--cache-policy",
            policy,
        ]);
        assert!(
            out.status.success(),
            "--cache-policy {policy}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(policy), "policy `{policy}` echoed in the report:\n{stdout}");
        assert!(stdout.contains("evictions"), "cache line present:\n{stdout}");
    }
}

#[test]
fn run_rejects_unknown_cache_policy() {
    let out = run_args(&[
        "run",
        "--model",
        "gcn",
        "--dataset",
        "cora",
        "--scale",
        "0.05",
        "--cache-policy",
        "arc",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cache policy"), "helpful error expected, got:\n{stderr}");
}

#[test]
fn sim_threads_keeps_reports_byte_identical_and_rejects_zero() {
    let base = ["run", "--model", "gcn", "--dataset", "cora", "--scale", "0.05"];
    let with = |t: &str| {
        let mut args: Vec<&str> = base.to_vec();
        args.extend(["--sim-threads", t]);
        run_args(&args)
    };
    let serial = with("1");
    assert!(serial.status.success(), "{}", String::from_utf8_lossy(&serial.stderr));
    for threads in ["2", "4", "auto"] {
        let sharded = with(threads);
        assert!(
            sharded.status.success(),
            "--sim-threads {threads}: {}",
            String::from_utf8_lossy(&sharded.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&serial.stdout),
            String::from_utf8_lossy(&sharded.stdout),
            "--sim-threads {threads} must not change the report"
        );
    }
    let zero = with("0");
    assert!(!zero.status.success(), "--sim-threads 0 must be rejected");
    let stderr = String::from_utf8_lossy(&zero.stderr);
    assert!(stderr.contains("sim-threads") && stderr.contains("at least 1"), "{stderr}");

    // serve takes the same knob.
    let serve =
        run_args(&["serve", "--requests", "2", "--scale", "0.05", "--sim-threads", "2"]);
    assert!(serve.status.success(), "{}", String::from_utf8_lossy(&serve.stderr));
}

#[test]
fn chips_one_is_byte_identical_to_the_flagless_run() {
    // `--chips 1` must take the untouched single-chip path: same report,
    // byte for byte, as a run that never mentions the flag — and no
    // scaleout line in either.
    let base = ["run", "--model", "gcn", "--dataset", "cora", "--scale", "0.05"];
    let flagless = run_args(&base);
    assert!(flagless.status.success(), "{}", String::from_utf8_lossy(&flagless.stderr));
    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--chips", "1"]);
    let single = run_args(&args);
    assert!(single.status.success(), "{}", String::from_utf8_lossy(&single.stderr));
    assert_eq!(
        String::from_utf8_lossy(&flagless.stdout),
        String::from_utf8_lossy(&single.stdout),
        "--chips 1 must not change the report"
    );
    assert!(!String::from_utf8_lossy(&single.stdout).contains("scaleout"));
}

#[test]
fn multi_chip_runs_report_inter_chip_traffic() {
    for partitioner in ["range", "edgecut"] {
        let out = run_args(&[
            "run",
            "--model",
            "gcn",
            "--dataset",
            "cora",
            "--scale",
            "0.05",
            "--chips",
            "4",
            "--partitioner",
            partitioner,
        ]);
        assert!(
            out.status.success(),
            "--partitioner {partitioner}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("scaleout"), "scaleout line expected:\n{stdout}");
        assert!(stdout.contains("4 chips"), "{stdout}");
        assert!(stdout.contains(partitioner), "partitioner echoed:\n{stdout}");
        assert!(stdout.contains("inter-chip bytes"), "{stdout}");
    }
}

#[test]
fn chips_and_partitioner_flags_are_validated_by_name() {
    // Same named-flag error path as `--sim-threads 0`: the offending
    // flag and the valid alternatives both appear in the message.
    let cases: &[(&str, &str, &[&str])] = &[
        ("--chips", "0", &["--chips", "positive integer", "`0`"]),
        ("--chips", "many", &["--chips", "positive integer", "`many`"]),
        ("--partitioner", "metis", &["--partitioner", "metis", "range|edgecut"]),
        // Cora at scale 0.05 has 135 vertices: more chips than that is an error.
        ("--chips", "4000", &["--chips 4000", "135 vertices"]),
    ];
    for (flag, value, needles) in cases {
        let out = run_args(&[
            "run",
            "--model",
            "gcn",
            "--dataset",
            "cora",
            "--scale",
            "0.05",
            flag,
            value,
        ]);
        assert!(!out.status.success(), "{flag} {value} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for needle in *needles {
            assert!(stderr.contains(needle), "{flag} {value}: `{needle}` missing:\n{stderr}");
        }
    }
}

#[test]
fn verify_rejects_fewer_than_two_vertices_by_name() {
    for vertices in ["0", "1"] {
        let out = run_args(&["verify", "--model", "gcn", "--vertices", vertices]);
        assert_eq!(out.status.code(), Some(1), "--vertices {vertices} must exit 1, not panic");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--vertices") && stderr.contains("at least 2"),
            "--vertices {vertices}:\n{stderr}"
        );
    }
    let ok = run_args(&["verify", "--model", "gcn", "--vertices", "2"]);
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));
}

#[test]
fn env_sim_threads_matches_the_flag_byte_for_byte() {
    // The CI thread matrix exercises exactly this path: GNNIE_SIM_THREADS
    // must behave like --sim-threads and keep reports byte-identical.
    let args = ["run", "--model", "gcn", "--dataset", "cora", "--scale", "0.05"];
    let via_env = Command::new(BIN)
        .args(args)
        .env("GNNIE_SIM_THREADS", "4")
        .output()
        .expect("spawn gnnie");
    assert!(via_env.status.success(), "{}", String::from_utf8_lossy(&via_env.stderr));
    let mut flag_args: Vec<&str> = args.to_vec();
    flag_args.extend(["--sim-threads", "1"]);
    let via_flag = run_args(&flag_args);
    assert!(via_flag.status.success());
    assert_eq!(
        String::from_utf8_lossy(&via_env.stdout),
        String::from_utf8_lossy(&via_flag.stdout),
        "env-sharded run must match the serial report byte for byte"
    );
}

#[test]
fn ingest_warns_when_a_weight_column_is_dropped() {
    let dir = tmpdir("weight-warning");
    let edges = dir.join("weighted.edges");
    std::fs::write(&edges, "0 1\n1 2 0.5\n2 0 1.5\n").unwrap();
    let out = run_args(&["ingest", edges.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("warning") && stderr.contains("weight"),
        "dropped weights must be warned about:\n{stderr}"
    );
    assert!(stderr.contains("line 2"), "first affected line named:\n{stderr}");
    // Unweighted input stays warning-free.
    let clean = dir.join("clean.edges");
    std::fs::write(&clean, "0 1\n1 2\n").unwrap();
    let out = run_args(&["ingest", clean.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stderr).contains("warning"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn piped_output_is_sigpipe_safe() {
    // `head -n 1` closes the read end after one line. gnnie restores the
    // default SIGPIPE disposition at startup, so any writes past that
    // point end the process quietly — never a Rust broken-pipe panic.
    // The pipeline's exit status is `head`'s, which must be 0.
    let out = Command::new("sh")
        .arg("-c")
        .arg(format!(
            "\"{BIN}\" run --model gcn --dataset cora --scale 0.05 --cache-policy lru \
             | head -n 1"
        ))
        .output()
        .expect("spawn sh pipeline");
    assert!(out.status.success(), "pipeline failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("GCN"), "first report line expected, got:\n{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "broken pipe must not panic:\n{stderr}");
}

#[test]
fn datasets_listing_survives_early_closed_pipe() {
    let out = Command::new("sh")
        .arg("-c")
        .arg(format!("\"{BIN}\" datasets | head -n 2"))
        .output()
        .expect("spawn sh pipeline");
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));
}

#[test]
fn serve_reports_batched_throughput_and_weight_savings() {
    let out = run_args(&[
        "serve",
        "--requests",
        "6",
        "--models",
        "gcn",
        "--datasets",
        "cora",
        "--scale",
        "0.05",
        "--batch",
        "4",
        "--policy",
        "affinity",
        "--workers",
        "2",
    ]);
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("serving 6 requests"), "{stdout}");
    assert!(stdout.contains("throughput"), "{stdout}");
    assert!(stdout.contains("p50") && stdout.contains("p95"), "{stdout}");
    assert!(stdout.contains("load cycles saved"), "{stdout}");
    assert!(stdout.contains("speedup"), "{stdout}");
}

#[test]
fn serve_rejects_bad_policy_with_a_helpful_error() {
    let out = run_args(&["serve", "--requests", "2", "--policy", "lifo", "--scale", "0.05"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("lifo") && stderr.contains("fifo"), "{stderr}");
}

#[test]
fn serve_daemon_under_poisson_load_exits_cleanly() {
    let out = run_args(&[
        "serve",
        "--daemon",
        "--arrival",
        "poisson",
        "--rate",
        "50000",
        "--requests",
        "6",
        "--scale",
        "0.05",
        "--sla",
        "mixed",
        "--workers",
        "2",
        "--sim-threads",
        "2",
    ]);
    assert!(
        out.status.success(),
        "daemon serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[daemon: 2 request workers"), "{stderr}");
    assert!(stderr.contains("drained and joined"), "clean shutdown line expected:\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("online serving 6 requests"), "{stdout}");
    assert!(stdout.contains("arrival poisson"), "{stdout}");
    assert!(
        stdout.contains("p50") && stdout.contains("p95") && stdout.contains("p99"),
        "{stdout}"
    );
    assert!(stdout.contains("deadlines"), "{stdout}");
}

#[test]
fn serve_online_flags_are_validated() {
    // --rate and --burst only make sense for a generated arrival process,
    // --sla only for the online path, and the arrival token is checked.
    let cases: &[(&[&str], &str)] = &[
        (&["serve", "--rate", "100"], "--rate requires"),
        (&["serve", "--burst", "4"], "--burst requires"),
        (&["serve", "--arrival", "poisson", "--burst", "4"], "--burst requires"),
        (&["serve", "--sla", "batch"], "--sla requires"),
        (&["serve", "--arrival", "sometimes"], "unknown arrival process"),
        (&["serve", "--arrival", "poisson", "--rate", "-3"], "--rate must be"),
        (&["serve", "--arrival", "bursty", "--burst", "0"], "--burst must be"),
        (&["serve", "--arrival", "poisson", "--sla", "whenever"], "unknown SLA mix"),
    ];
    for (args, needle) in cases {
        let out = run_args(args);
        assert!(!out.status.success(), "{args:?} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: expected `{needle}` in:\n{stderr}");
    }
}

#[test]
fn serve_daemon_sim_threads_flag_beats_the_env() {
    let out = Command::new(BIN)
        .args(["serve", "--daemon", "--requests", "2", "--scale", "0.05", "--sim-threads", "2"])
        .env("GNNIE_SIM_THREADS", "4")
        .output()
        .expect("spawn gnnie");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("sim-threads 2"),
        "--sim-threads must win over GNNIE_SIM_THREADS:\n{stderr}"
    );
}

#[test]
fn serve_online_reports_are_byte_identical_across_backends() {
    // Same seed + arrival config ⇒ the same serving report at any daemon
    // worker count and pool width, with or without `--daemon`.
    let base = [
        "serve",
        "--arrival",
        "bursty",
        "--rate",
        "40000",
        "--burst",
        "2",
        "--requests",
        "6",
        "--scale",
        "0.05",
        "--seed",
        "7",
    ];
    let with = |extra: &[&str]| {
        let mut args: Vec<&str> = base.to_vec();
        args.extend_from_slice(extra);
        run_args(&args)
    };
    let reference = with(&["--workers", "1", "--sim-threads", "1"]);
    assert!(reference.status.success(), "{}", String::from_utf8_lossy(&reference.stderr));
    for extra in [
        &["--workers", "3", "--sim-threads", "2"][..],
        &["--daemon", "--workers", "3", "--sim-threads", "2"][..],
    ] {
        let other = with(extra);
        assert!(other.status.success(), "{}", String::from_utf8_lossy(&other.stderr));
        assert_eq!(
            String::from_utf8_lossy(&reference.stdout),
            String::from_utf8_lossy(&other.stdout),
            "{extra:?} must not change the online serving report"
        );
    }
}

#[test]
fn unknown_flag_is_named_in_the_error() {
    // `--modle` (typo) used to be silently ignored; it must now fail and
    // name both the offending flag and the valid alternatives.
    let out = run_args(&["run", "--modle", "gcn", "--dataset", "cora"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--modle"), "offending flag named:\n{stderr}");
    assert!(stderr.contains("--model"), "valid flags listed:\n{stderr}");
}

#[test]
fn unknown_command_lists_every_subcommand() {
    let out = run_args(&["frobnicate"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    for cmd in ["run", "serve", "compare", "verify", "comm", "datasets", "help"] {
        assert!(stderr.contains(cmd), "`{cmd}` missing from:\n{stderr}");
    }
}

#[test]
fn datasets_listing_shows_provenance() {
    let out = run_args(&["datasets"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("source"), "source column present:\n{stdout}");
    assert!(stdout.contains("snap"), "snapshot-version column present:\n{stdout}");
    // No GNNIE_DATA_DIR in the test environment: everything synthesizes.
    for abbrev in ["CR", "CS", "PB", "PPI", "RD"] {
        assert!(stdout.contains(abbrev), "{abbrev} listed:\n{stdout}");
    }
    assert!(stdout.contains("synthetic"), "synthetic provenance shown:\n{stdout}");
}

#[test]
fn partitioner_without_chips_is_rejected_not_ignored() {
    // `--partitioner` only runs when the graph is split; silently
    // accepting it on a single-chip run hid typos like a forgotten
    // `--chips`. Both the bare form and an explicit `--chips 1` fail.
    for chips in [None, Some("1")] {
        let mut args = vec!["run", "--model", "gcn", "--dataset", "cora", "--scale", "0.05"];
        if let Some(n) = chips {
            args.extend(["--chips", n]);
        }
        args.extend(["--partitioner", "edgecut"]);
        let out = run_args(&args);
        assert!(!out.status.success(), "chips={chips:?} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--partitioner") && stderr.contains("--chips"),
            "error names both flags:\n{stderr}"
        );
    }
    // With chips > 1 the same spelling is accepted.
    let out = run_args(&[
        "run",
        "--model",
        "gcn",
        "--dataset",
        "cora",
        "--scale",
        "0.05",
        "--chips",
        "2",
        "--partitioner",
        "edgecut",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn untiered_runs_never_mention_tiers_and_tiered_runs_report_hit_rates() {
    let base = ["run", "--model", "gcn", "--dataset", "cora", "--scale", "0.05"];
    let flat = run_args(&base);
    assert!(flat.status.success(), "{}", String::from_utf8_lossy(&flat.stderr));
    let flat_stdout = String::from_utf8_lossy(&flat.stdout).into_owned();
    assert!(
        !flat_stdout.contains("tiers"),
        "flat report must not mention tiers:\n{flat_stdout}"
    );
    // Deterministic: the flat path is byte-stable across invocations.
    let again = run_args(&base);
    assert_eq!(flat_stdout, String::from_utf8_lossy(&again.stdout));

    for spec in ["auto:256KB", "even:256KB", "onchip:32KB,dram:192KB,ssd:1GB"] {
        let mut args: Vec<&str> = base.to_vec();
        args.extend(["--tiers", spec]);
        let out = run_args(&args);
        assert!(
            out.status.success(),
            "--tiers {spec}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("tiers"), "--tiers {spec} reports the stack:\n{stdout}");
        assert!(stdout.contains("onchip"), "--tiers {spec} names the top tier:\n{stdout}");
        assert!(stdout.contains("% hit"), "--tiers {spec} shows hit rates:\n{stdout}");
    }
}

#[test]
fn tiers_flag_is_validated_by_name() {
    let cases: &[(&str, &[&str])] = &[
        ("onchip:64KB", &["--tiers", "dram"]),
        ("l2:64KB,dram:1MB", &["--tiers", "l2"]),
        ("auto:0", &["--tiers", "positive"]),
        ("onchip:fast,dram:1MB", &["--tiers", "fast"]),
    ];
    for (spec, needles) in cases {
        let out = run_args(&[
            "run",
            "--model",
            "gcn",
            "--dataset",
            "cora",
            "--scale",
            "0.05",
            "--tiers",
            spec,
        ]);
        assert!(!out.status.success(), "--tiers {spec} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for needle in *needles {
            assert!(stderr.contains(needle), "--tiers {spec}: `{needle}` missing:\n{stderr}");
        }
    }
}

/// The round-trip acceptance criterion: a Table II dataset exported to an
/// edge list and run via `--graph` produces a byte-identical report to
/// `--dataset`, both directly and through a `gnnie ingest` snapshot.
#[test]
fn run_graph_reproduces_run_dataset_byte_for_byte() {
    let dir = tmpdir("roundtrip");
    let (scale, seed) = (0.05, 42u64);
    let ds = GraphDataset::generate(Dataset::Cora, scale, seed);
    let edges = dir.join("cora-export.edges");
    export_edge_list(
        &edges,
        &ds.graph,
        EdgeListFormat::Whitespace,
        Some(&RecordedSpec { spec: ds.spec, seed }),
    )
    .unwrap();

    let baseline = run_args(&[
        "run",
        "--model",
        "gcn",
        "--dataset",
        "cora",
        "--scale",
        "0.05",
        "--seed",
        "42",
    ]);
    assert!(
        baseline.status.success(),
        "baseline run: {}",
        String::from_utf8_lossy(&baseline.stderr)
    );
    let from_file = run_args(&["run", "--model", "gcn", "--graph", edges.to_str().unwrap()]);
    assert!(
        from_file.status.success(),
        "file run: {}",
        String::from_utf8_lossy(&from_file.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&baseline.stdout),
        String::from_utf8_lossy(&from_file.stdout),
        "file-backed report must be byte-identical to the synthesized one"
    );

    // Ingest to a snapshot and run from that, too.
    let snap = dir.join("cora-export.gnniecsr");
    let ingest = run_args(&["ingest", edges.to_str().unwrap(), "--sim-threads", "3"]);
    assert!(ingest.status.success(), "ingest: {}", String::from_utf8_lossy(&ingest.stderr));
    let istdout = String::from_utf8_lossy(&ingest.stdout);
    assert!(istdout.contains("self-loops dropped"), "{istdout}");
    assert!(istdout.contains("snapshot"), "{istdout}");
    assert!(snap.is_file(), "default --out is <input>.gnniecsr");
    let from_snap = run_args(&["run", "--model", "gcn", "--graph", snap.to_str().unwrap()]);
    assert!(
        from_snap.status.success(),
        "snapshot run: {}",
        String::from_utf8_lossy(&from_snap.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&baseline.stdout),
        String::from_utf8_lossy(&from_snap.stdout),
        "snapshot-backed report must be byte-identical as well"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_is_write_once_unless_forced() {
    let dir = tmpdir("write-once");
    let edges = dir.join("tiny.edges");
    std::fs::write(&edges, "0 1\n1 2\n2 0\n").unwrap();
    let first = run_args(&["ingest", edges.to_str().unwrap()]);
    assert!(first.status.success(), "{}", String::from_utf8_lossy(&first.stderr));
    let second = run_args(&["ingest", edges.to_str().unwrap()]);
    assert!(!second.status.success(), "second ingest must refuse to overwrite");
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(stderr.contains("write-once"), "{stderr}");
    let forced = run_args(&["ingest", edges.to_str().unwrap(), "--force"]);
    assert!(forced.status.success(), "{}", String::from_utf8_lossy(&forced.stderr));
    std::fs::remove_dir_all(&dir).ok();
}

/// `--chunk-mb` routes the build through the out-of-core chunked
/// path; the frozen snapshot must come out byte-identical to the
/// in-memory build's, and garbage values are usage errors.
#[test]
fn ingest_chunk_mb_writes_an_identical_snapshot() {
    let dir = tmpdir("chunked-ingest");
    let ds = GraphDataset::generate(Dataset::Citeseer, 0.05, 5);
    let edges = dir.join("cs.edges");
    export_edge_list(&edges, &ds.graph, EdgeListFormat::Whitespace, None).unwrap();

    let inmem = dir.join("inmem.gnniecsr");
    let out = run_args(&["ingest", edges.to_str().unwrap(), "--out", inmem.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let chunked = dir.join("chunked.gnniecsr");
    let out = run_args(&[
        "ingest",
        edges.to_str().unwrap(),
        "--out",
        chunked.to_str().unwrap(),
        "--chunk-mb",
        "1",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("out-of-core"), "chunked build announces itself:\n{stdout}");
    assert_eq!(
        std::fs::read(&inmem).unwrap(),
        std::fs::read(&chunked).unwrap(),
        "chunked and in-memory snapshots must be byte-identical"
    );

    let bad = run_args(&["ingest", edges.to_str().unwrap(), "--chunk-mb", "zero"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("chunk-mb"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_reports_parse_errors_with_line_numbers() {
    let dir = tmpdir("parse-error");
    let edges = dir.join("bad.edges");
    std::fs::write(&edges, "0 1\n1 banana\n").unwrap();
    let out = run_args(&["ingest", edges.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(":2:") && stderr.contains("banana"), "{stderr}");
    // Malformed graph content (id beyond the declared count) is typed too.
    let edges2 = dir.join("oob.edges");
    std::fs::write(&edges2, "# gnnie vertices 2\n0 1\n1 7\n").unwrap();
    let out = run_args(&["ingest", edges2.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(":3:") && stderr.contains("declared vertex count"), "{stderr}");
    // A missing positional path is a usage error.
    let out = run_args(&["ingest", "--out", "x.gnniecsr"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("<path>"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A vertex-less graph file (empty, or comments only) is rejected by
/// naming `--graph` and the path, not the `--chips` default the user
/// never passed.
#[test]
fn run_rejects_a_vertexless_graph_by_naming_graph() {
    let dir = tmpdir("vertexless");
    for (name, content) in [("empty.edges", ""), ("header.edges", "# no edges here\n")] {
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        let out = run_args(&["run", "--model", "gcn", "--graph", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{name} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--graph") && stderr.contains(name), "{name}: {stderr}");
        assert!(!stderr.contains("--chips"), "{name}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// With GNNIE_DATA_DIR set, `run --dataset` must serve the file-backed
/// graph (what `gnnie datasets` advertises) — and for an exported Table
/// II dataset the report stays byte-identical to the synthesized run.
#[test]
fn data_dir_backs_run_dataset_and_datasets_listing() {
    let dir = tmpdir("data-dir");
    let (scale, seed) = (0.05, 42u64);
    let ds = GraphDataset::generate(Dataset::Cora, scale, seed);
    export_edge_list(
        &dir.join("cora.edges"),
        &ds.graph,
        EdgeListFormat::Whitespace,
        Some(&RecordedSpec { spec: ds.spec, seed }),
    )
    .unwrap();

    let synthetic = run_args(&[
        "run",
        "--model",
        "gcn",
        "--dataset",
        "cora",
        "--scale",
        "0.05",
        "--seed",
        "42",
    ]);
    assert!(synthetic.status.success());
    let backed = Command::new(BIN)
        .args(["run", "--model", "gcn", "--dataset", "cora", "--seed", "42"])
        .env("GNNIE_DATA_DIR", &dir)
        .output()
        .expect("spawn gnnie");
    assert!(backed.status.success(), "{}", String::from_utf8_lossy(&backed.stderr));
    let stderr = String::from_utf8_lossy(&backed.stderr);
    assert!(stderr.contains("cora.edges"), "provenance on stderr:\n{stderr}");
    assert_eq!(
        String::from_utf8_lossy(&synthetic.stdout),
        String::from_utf8_lossy(&backed.stdout),
        "file-backed --dataset run must match the synthesized report byte for byte"
    );

    let listing = Command::new(BIN)
        .arg("datasets")
        .env("GNNIE_DATA_DIR", &dir)
        .output()
        .expect("spawn gnnie");
    let stdout = String::from_utf8_lossy(&listing.stdout);
    assert!(stdout.contains("cora.edges"), "listing shows the file:\n{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Foreign graphs (no recorded spec) are titled by their file, not by a
/// dataset they are not.
#[test]
fn foreign_graph_reports_are_labeled_honestly() {
    let dir = tmpdir("foreign-label");
    let path = dir.join("web.edges");
    std::fs::write(&path, "0 1\n1 2\n2 3\n3 0\n").unwrap();
    let out = run_args(&["run", "--model", "gcn", "--graph", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("web.edges"), "titled by file:\n{stdout}");
    assert!(!stdout.contains("on Cora"), "must not claim to be Cora:\n{stdout}");
    assert!(stdout.contains("feature profile"), "profile named:\n{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--trace` output is byte-identical across `--sim-threads` settings
/// (spans are derived from the deterministic report, never from the
/// sharded loops), and the observability flags leave the normal report
/// untouched — it is a strict prefix of the flagged run's stdout.
#[test]
fn trace_files_are_byte_identical_across_sim_threads() {
    let dir = tmpdir("trace-determinism");
    // One shared output path, so the printed `trace ... -> path` line is
    // identical too; the bytes are read back between runs.
    let trace_at = |threads: &str| {
        let path = dir.join("t.json");
        let out = run_args(&[
            "run",
            "--model",
            "gat",
            "--dataset",
            "cora",
            "--scale",
            "0.05",
            "--chips",
            "4",
            "--tiers",
            "auto:1MB",
            "--sim-threads",
            threads,
            "--trace",
            path.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        (std::fs::read(&path).unwrap(), out.stdout)
    };
    let (trace_1, stdout_1) = trace_at("1");
    let (trace_4, stdout_4) = trace_at("4");
    assert_eq!(trace_1, trace_4, "trace JSON must not depend on --sim-threads");
    assert_eq!(stdout_1, stdout_4);
    let json = String::from_utf8(trace_1).unwrap();
    assert!(json.starts_with("{\"traceEvents\":["), "Chrome trace shape:\n{json}");
    for track in ["chip0", "chip3", "onchip", "dram", "phases"] {
        assert!(json.contains(track), "track `{track}` labeled in:\n{json}");
    }

    // The flagged run's report is the flagless report plus gated lines.
    let bare = run_args(&[
        "run",
        "--model",
        "gat",
        "--dataset",
        "cora",
        "--scale",
        "0.05",
        "--chips",
        "4",
        "--tiers",
        "auto:1MB",
        "--sim-threads",
        "1",
    ]);
    assert!(bare.status.success());
    let bare_stdout = String::from_utf8(bare.stdout).unwrap();
    let flagged = String::from_utf8(stdout_1).unwrap();
    assert!(
        flagged.starts_with(&bare_stdout),
        "observability must only append to the report:\n--- flagless:\n{bare_stdout}\n--- flagged:\n{flagged}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--trace`/`--metrics` error paths: unwritable paths are named, and on
/// `serve` the flags require an online path, mirroring `--sla`.
#[test]
fn observability_flag_errors_name_the_problem() {
    let out = run_args(&[
        "run",
        "--model",
        "gcn",
        "--dataset",
        "cora",
        "--scale",
        "0.05",
        "--trace",
        "/no/such/dir/out.json",
    ]);
    assert!(!out.status.success(), "unwritable --trace path must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--trace") && stderr.contains("/no/such/dir/out.json"),
        "error names the flag and the path:\n{stderr}"
    );

    let cases: &[(&[&str], &str)] = &[
        (&["serve", "--trace", "t.json"], "--trace requires"),
        (&["serve", "--metrics"], "--metrics requires"),
        (&["run", "--model", "gcn", "--dataset", "cora", "--trace"], "needs a value"),
    ];
    for (args, needle) in cases {
        let out = run_args(args);
        assert!(!out.status.success(), "{args:?} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: expected `{needle}` in:\n{stderr}");
    }
}

/// The daemon drain report breaks queue wait out per SLA class next to
/// service latency (on stderr, so stdout stays byte-identical to the
/// flagless path), and `--metrics` dumps the registry.
#[test]
fn daemon_drain_report_includes_per_class_queue_wait() {
    let out = run_args(&[
        "serve",
        "--daemon",
        "--arrival",
        "poisson",
        "--rate",
        "50000",
        "--requests",
        "6",
        "--scale",
        "0.05",
        "--sla",
        "mixed",
        "--seed",
        "7",
        "--metrics",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("queue-wait") && stderr.contains("service"),
        "drain report shows queue wait next to service latency:\n{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("metrics:"), "{stdout}");
    assert!(stdout.contains("serve.queue_wait_us."), "{stdout}");
    assert!(stdout.contains("serve.daemon.profile_cache.entries"), "{stdout}");
}
