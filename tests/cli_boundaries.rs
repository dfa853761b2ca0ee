//! Table-driven boundary tests of every `gnnie` subcommand: 0, 1 and huge
//! flag values, `--chips` above the vertex count, and empty, header-only,
//! malformed and self-contradicting input files. Each case must exit 0, or exit 1 with an
//! error naming the offending flag or file. None may panic (exit 101).

use std::path::{Path, PathBuf};
use std::process::Command;

use gnnie::graph::{Dataset, DatasetSpec, GraphDataset};
use gnnie::ingest::snapshot::encode_snapshot;

const BIN: &str = env!("CARGO_BIN_EXE_gnnie");

/// `u64::MAX`: parses, but is far beyond any sensible count.
const HUGE: &str = "18446744073709551615";
/// Does not fit a `u64` at all.
const OVERFLOW: &str = "99999999999999999999999";

/// What a case must do.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// Exit 0.
    Ok,
    /// Exit 1 with this flag or file name in the error.
    Rejects(&'static str),
}
use Expect::{Ok, Rejects};

/// The input files the cases name, written into a fresh directory the
/// binary runs in.
fn fixtures(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gnnie-cli-boundaries").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let files: [(&str, &[u8]); 10] = [
        ("empty.txt", b""),
        ("header.txt", b"# gnnie edgelist v1\n"),
        ("header5.txt", b"# gnnie edgelist v1\n# gnnie vertices 5\n"),
        ("columns.csv", b"src,dst\n"),
        ("huge_vertices.txt", b"# gnnie edgelist v1\n# gnnie vertices 18446744073709551615\n"),
        ("tiny.txt", b"0 1\n1 2\n"),
        ("magic.gcsr", b"GCSRBIN1"),
        ("magic.gnniecsr", b"GNNIECSR\x03\x00\x00\x00"),
        // Headers of the retired single-stream layouts.
        ("v1.gnniecsr", b"GNNIECSR\x01\x00\x00\x00"),
        ("v2.gnniecsr", b"GNNIECSR\x02\x00\x00\x00"),
    ];
    for (file, bytes) in files {
        std::fs::write(dir.join(file), bytes).unwrap();
    }
    // Checksum-valid snapshots of Cora at 0.05 (135 vertices, 1,433
    // feature columns) whose SPEC states another shape.
    let cora = GraphDataset::generate(Dataset::Cora, 0.05, 42);
    let specs = [
        ("spec_vertices.gnniecsr", DatasetSpec { vertices: 7, ..cora.spec }),
        ("spec_features.gnniecsr", DatasetSpec { feature_len: 5, ..cora.spec }),
    ];
    for (file, spec) in specs {
        let edited = GraphDataset::from_parts(spec, cora.graph.clone(), cora.features.clone());
        std::fs::write(dir.join(file), encode_snapshot(&edited)).unwrap();
    }
    // The committed ring snapshot with its neighbour ids (GNBR) edited:
    // the first set to 0x7fffffff, or the first two swapped so vertex 0's
    // list runs backward. Array checksums go unread on the mmap load path,
    // so only the structural check stands between these ids and a panic.
    let ring =
        concat!(env!("CARGO_MANIFEST_DIR"), "/crates/ingest/tests/fixtures/ring.gnniecsr");
    let bytes = std::fs::read(ring).unwrap();
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let gnbr = (0..count)
        .map(|i| 16 + 32 * i)
        .find(|&entry| &bytes[entry..entry + 4] == b"GNBR")
        .map(|entry| u64::from_le_bytes(bytes[entry + 8..entry + 16].try_into().unwrap()))
        .expect("a GNBR section") as usize;
    let mut bad = bytes.clone();
    bad[gnbr..gnbr + 4].copy_from_slice(&0x7fff_ffffu32.to_le_bytes());
    std::fs::write(dir.join("bad_gnbr.gnniecsr"), bad).unwrap();
    let mut unsorted = bytes.clone();
    unsorted[gnbr..gnbr + 8]
        .copy_from_slice(&[&bytes[gnbr + 4..gnbr + 8], &bytes[gnbr..gnbr + 4]].concat());
    std::fs::write(dir.join("unsorted_gnbr.gnniecsr"), unsorted).unwrap();
    // `gnnie spec` headers with one value at or past its bound.
    for (file, key, value) in SPEC_FILES {
        let mut spec: Vec<(&str, &str)> = vec![
            ("dataset", "cr"),
            ("vertices", "3"),
            ("edges", "2"),
            ("feature_len", "1433"),
            ("labels", "7"),
            ("feature_sparsity", "0.9873"),
            ("degree_gamma", "2.2"),
            ("uniform_frac", "0"),
            ("seed", "42"),
        ];
        spec.iter_mut().find(|(k, _)| *k == key).expect("a spec key").1 = value;
        let spec: Vec<String> = spec.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let text = format!("# gnnie spec {}\n0 1\n1 2\n", spec.join(" "));
        std::fs::write(dir.join(file), text).unwrap();
    }
    dir
}

/// `(file, spec key, value)` for the `gnnie spec` bound cases.
const SPEC_FILES: [(&str, &str, &str); 8] = [
    ("feat_max.txt", "feature_len", "1048576"),
    ("feat_over.txt", "feature_len", "1048577"),
    ("feat_u32.txt", "feature_len", "4294967296"),
    ("feat_huge.txt", "feature_len", "10000000000"),
    ("sparsity_nan.txt", "feature_sparsity", "NaN"),
    ("sparsity_neg.txt", "feature_sparsity", "-3"),
    ("uniform_over.txt", "uniform_frac", "1.5"),
    ("gamma_inf.txt", "degree_gamma", "inf"),
];

/// Runs every case in `dir` and checks its exit status and error.
fn check(dir: &Path, cases: &[(&[&str], Expect)]) {
    for &(args, expect) in cases {
        let out = Command::new(BIN).args(args).current_dir(dir).output().expect("spawn gnnie");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
        match expect {
            Ok => assert!(out.status.success(), "{args:?} failed ({}):\n{stderr}", out.status),
            Rejects(name) => {
                assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1:\n{stderr}");
                let error = stderr.lines().find(|l| l.starts_with("error:")).unwrap_or("");
                assert!(
                    error.contains(name),
                    "{args:?}: the error must name `{name}`:\n{stderr}"
                );
            }
        }
    }
}

/// `base` followed by `extra`.
fn with(base: &[&'static str], extra: &[&'static str]) -> &'static [&'static str] {
    Vec::leak([base, extra].concat())
}

#[test]
fn run_boundaries() {
    let dir = fixtures("run");
    // Cora at 0.05 has 135 vertices.
    let cora = ["run", "--model", "gcn", "--dataset", "cora", "--scale", "0.05"];
    let gat = ["run", "--model", "gat", "--dataset", "cora", "--scale", "0.05"];
    let file = |path: &'static str| with(&["run", "--model", "gcn", "--graph"], &[path]);
    let cases: Vec<(&[&str], Expect)> = vec![
        (&["run", "--model", "gcn", "--dataset", "cora", "--scale", "0"], Rejects("--scale")),
        (&["run", "--model", "gcn", "--dataset", "cora", "--scale", "1e-300"], Ok),
        (
            &["run", "--model", "gcn", "--dataset", "cora", "--scale", "1e308"],
            Rejects("--scale"),
        ),
        (&["run", "--model", "gcn", "--dataset", "reddit", "--scale", "1e-300"], Ok),
        (with(&cora, &["--seed", "0"]), Ok),
        (with(&cora, &["--seed", HUGE]), Ok),
        (with(&cora, &["--seed", OVERFLOW]), Rejects("--seed")),
        (with(&cora, &["--chips", "0"]), Rejects("--chips")),
        (with(&cora, &["--chips", "1"]), Ok),
        (with(&cora, &["--chips", "135"]), Ok),
        (with(&cora, &["--chips", "136"]), Rejects("--chips")),
        (with(&cora, &["--chips", HUGE]), Rejects("--chips")),
        (with(&cora, &["--chips", OVERFLOW]), Rejects("--chips")),
        (with(&cora, &["--chips", "2", "--partitioner", "edgecut"]), Ok),
        (with(&gat, &["--heads", "0"]), Rejects("--heads")),
        (with(&gat, &["--heads", "1"]), Ok),
        // MAX_HEADS = 64: one above it is refused by name, as is u64::MAX.
        (with(&gat, &["--heads", "64"]), Ok),
        (with(&gat, &["--heads", "65"]), Rejects("--heads")),
        (with(&gat, &["--heads", HUGE]), Rejects("--heads")),
        (with(&gat, &["--heads", OVERFLOW]), Rejects("--heads")),
        (with(&cora, &["--sim-threads", "0"]), Rejects("--sim-threads")),
        (with(&cora, &["--sim-threads", "1"]), Ok),
        (with(&cora, &["--sim-threads", HUGE]), Ok),
        (with(&cora, &["--tiers", "auto:0"]), Rejects("--tiers")),
        (with(&cora, &["--tiers", "auto:1"]), Ok),
        (with(&cora, &["--tiers", "onchip:0,dram:0"]), Ok),
        (with(&cora, &["--tiers", "onchip:1,dram:1,ssd:1"]), Ok),
        (
            with(&cora, &["--tiers", "onchip:18446744073709551615,dram:18446744073709551615"]),
            Ok,
        ),
        (with(&cora, &["--tiers", "onchip:17179869184GB,dram:1GB"]), Rejects("--tiers")),
        (file("empty.txt"), Rejects("empty.txt")),
        (file("header.txt"), Rejects("header.txt")),
        (file("header5.txt"), Ok),
        (with(file("header5.txt"), &["--chips", "5"]), Ok),
        (with(file("header5.txt"), &["--chips", "6"]), Rejects("--chips")),
        (file("columns.csv"), Rejects("columns.csv")),
        (file("huge_vertices.txt"), Rejects("huge_vertices.txt")),
        (file("magic.gcsr"), Rejects("magic.gcsr")),
        (file("magic.gnniecsr"), Rejects("magic.gnniecsr")),
        (file("v1.gnniecsr"), Rejects("gnnie ingest --force")),
        (file("v2.gnniecsr"), Rejects("v2.gnniecsr")),
        (file("spec_vertices.gnniecsr"), Rejects("spec_vertices.gnniecsr")),
        (file("spec_features.gnniecsr"), Rejects("spec_features.gnniecsr")),
        (file("bad_gnbr.gnniecsr"), Rejects("bad_gnbr.gnniecsr")),
        (file("unsorted_gnbr.gnniecsr"), Rejects("unsorted_gnbr.gnniecsr")),
        (file("missing.txt"), Rejects("missing.txt")),
        (file("feat_u32.txt"), Rejects("feature_len")),
        (file("feat_huge.txt"), Rejects("feature_len")),
        (file("sparsity_nan.txt"), Rejects("feature_sparsity")),
        (file("sparsity_neg.txt"), Rejects("feature_sparsity")),
        (file("uniform_over.txt"), Rejects("uniform_frac")),
        (file("gamma_inf.txt"), Rejects("degree_gamma")),
    ];
    check(&dir, &cases);
}

#[test]
fn ingest_boundaries() {
    let dir = fixtures("ingest");
    let tiny = |out: &'static str| ["ingest", "tiny.txt", "--out", out];
    let cases: Vec<(&[&str], Expect)> = vec![
        (&["ingest"], Rejects("<path>")),
        (&["ingest", "empty.txt", "--out", "empty.gnniecsr"], Ok),
        (&["ingest", "header.txt", "--out", "header.gnniecsr"], Ok),
        (&["ingest", "header5.txt", "--out", "header5.gnniecsr"], Ok),
        (&["ingest", "empty.txt", "--out", "empty1.gnniecsr", "--chunk-mb", "1"], Ok),
        (&["ingest", "header.txt", "--out", "header1.gnniecsr", "--chunk-mb", "1"], Ok),
        (&["ingest", "columns.csv"], Rejects("columns.csv")),
        (&["ingest", "huge_vertices.txt"], Rejects("huge_vertices.txt")),
        (&["ingest", "huge_vertices.txt", "--chunk-mb", "1"], Rejects("huge_vertices.txt")),
        (&["ingest", "magic.gcsr"], Rejects("magic.gcsr")),
        (&["ingest", "magic.gnniecsr"], Rejects("magic.gnniecsr")),
        (&["ingest", "v1.gnniecsr", "--out", "v1-again.gnniecsr"], Rejects("version 1")),
        (
            &["ingest", "v2.gnniecsr", "--out", "v2-again.gnniecsr"],
            Rejects("gnnie ingest --force"),
        ),
        (&["ingest", "missing.txt"], Rejects("missing.txt")),
        (&["ingest", "feat_max.txt", "--out", "feat_max.gnniecsr"], Ok),
        (&["ingest", "feat_over.txt"], Rejects("feature_len")),
        (&["ingest", "feat_u32.txt", "--chunk-mb", "1"], Rejects("feature_len")),
        (&["ingest", "sparsity_nan.txt"], Rejects("feature_sparsity")),
        (&["ingest", "uniform_over.txt", "--chunk-mb", "1"], Rejects("uniform_frac")),
        (&["ingest", "gamma_inf.txt"], Rejects("degree_gamma")),
        (with(&tiny("s0.gnniecsr"), &["--sim-threads", "0"]), Rejects("--sim-threads")),
        (with(&tiny("s1.gnniecsr"), &["--sim-threads", "1"]), Ok),
        (with(&tiny("sh.gnniecsr"), &["--sim-threads", HUGE]), Ok),
        (with(&tiny("so.gnniecsr"), &["--sim-threads", OVERFLOW]), Rejects("--sim-threads")),
        (with(&tiny("sx.gnniecsr"), &["--shards", "4"]), Rejects("--shards")),
        (with(&tiny("c0.gnniecsr"), &["--chunk-mb", "0"]), Rejects("--chunk-mb")),
        (with(&tiny("c1.gnniecsr"), &["--chunk-mb", "1"]), Ok),
        (with(&tiny("cm.gnniecsr"), &["--chunk-mb", "17592186044415"]), Ok),
        (with(&tiny("cx.gnniecsr"), &["--chunk-mb", "17592186044416"]), Rejects("--chunk-mb")),
        (with(&tiny("ch.gnniecsr"), &["--chunk-mb", HUGE]), Rejects("--chunk-mb")),
        // The out-of-core build is serial: a pool size for it is refused by name.
        (
            with(&tiny("cs.gnniecsr"), &["--chunk-mb", "1", "--sim-threads", "2"]),
            Rejects("--sim-threads"),
        ),
        (with(&tiny("z0.gnniecsr"), &["--seed", "0"]), Ok),
        (with(&tiny("zh.gnniecsr"), &["--seed", HUGE]), Ok),
        (with(&tiny("zh.gnniecsr"), &["--seed", HUGE]), Rejects("zh.gnniecsr")),
        (with(&tiny("zh.gnniecsr"), &["--force"]), Ok),
        // A snapshot ingested from an empty file has no vertices to run.
        (&["run", "--model", "gcn", "--graph", "empty.gnniecsr"], Rejects("empty.gnniecsr")),
        (&["run", "--model", "gcn", "--graph", "header5.gnniecsr"], Ok),
    ];
    check(&dir, &cases);
}

#[test]
fn serve_boundaries() {
    let dir = fixtures("serve");
    let two = ["serve", "--scale", "0.05", "--requests", "2"];
    let poisson = ["serve", "--scale", "0.05", "--requests", "2", "--arrival", "poisson"];
    let bursty = ["serve", "--scale", "0.05", "--requests", "2", "--arrival", "bursty"];
    let daemon = ["serve", "--scale", "0.05", "--requests", "2", "--daemon"];
    let cases: Vec<(&[&str], Expect)> = vec![
        (&["serve", "--scale", "0.05", "--requests", "0"], Rejects("--requests")),
        (&["serve", "--scale", "0.05", "--requests", "1"], Ok),
        (&["serve", "--scale", "0.05", "--requests", HUGE], Rejects("--requests")),
        (&["serve", "--scale", "0.05", "--requests", OVERFLOW], Rejects("--requests")),
        (&["serve", "--scale", "0", "--requests", "2"], Rejects("--scale")),
        (&["serve", "--scale", "1e308", "--requests", "2"], Rejects("--scale")),
        (with(&two, &["--batch", "0"]), Rejects("--batch")),
        (with(&two, &["--batch", "1"]), Ok),
        (with(&two, &["--batch", HUGE]), Ok),
        (with(&two, &["--workers", "0"]), Rejects("--workers")),
        (with(&two, &["--workers", "1"]), Ok),
        (with(&two, &["--workers", HUGE]), Rejects("--workers")),
        (with(&daemon, &["--workers", "1"]), Ok),
        (with(&daemon, &["--workers", HUGE]), Rejects("--workers")),
        (with(&daemon, &["--sim-threads", "0"]), Rejects("--sim-threads")),
        (with(&daemon, &["--sim-threads", HUGE]), Ok),
        (with(&two, &["--seed", "0"]), Ok),
        (with(&two, &["--seed", HUGE]), Ok),
        (with(&daemon, &["--seed", HUGE]), Ok),
        (with(&two, &["--seed", OVERFLOW]), Rejects("--seed")),
        (with(&two, &["--datasets", ","]), Rejects("--datasets")),
        (with(&two, &["--models", ""]), Rejects("--models")),
        (with(&poisson, &["--rate", "0"]), Rejects("--rate")),
        (with(&poisson, &["--rate", "1e-300"]), Rejects("--rate")),
        (with(&poisson, &["--rate", "0.01"]), Ok),
        (with(&poisson, &["--rate", "1"]), Ok),
        (with(&poisson, &["--rate", "1e300"]), Ok),
        (with(&bursty, &["--burst", "0"]), Rejects("--burst")),
        (with(&bursty, &["--burst", "1"]), Ok),
        (with(&bursty, &["--burst", "1000000"]), Ok),
        (with(&bursty, &["--burst", "1000000", "--rate", "0.01"]), Ok),
        (with(&bursty, &["--burst", HUGE]), Rejects("--burst")),
    ];
    check(&dir, &cases);
}

#[test]
fn compare_boundaries() {
    let dir = fixtures("compare");
    let cases: Vec<(&[&str], Expect)> = vec![
        (&["compare"], Rejects("--dataset")),
        (&["compare", "--dataset", "cora", "--scale", "0"], Rejects("--scale")),
        (&["compare", "--dataset", "cora", "--scale", "1e308"], Rejects("--scale")),
        (&["compare", "--dataset", "cora", "--scale", "1e-300"], Ok),
        (&["compare", "--dataset", "cora", "--scale", "0.01"], Ok),
        (&["compare", "--dataset", "reddit", "--scale", "1e-300"], Ok),
        (&["compare", "--dataset", "cora", "--scale", "0.01", "--seed", HUGE], Ok),
        (
            &["compare", "--dataset", "cora", "--scale", "0.01", "--seed", "-1"],
            Rejects("--seed"),
        ),
    ];
    check(&dir, &cases);
}

#[test]
fn verify_boundaries() {
    let dir = fixtures("verify");
    let gcn = ["verify", "--model", "gcn"];
    let cases: Vec<(&[&str], Expect)> = vec![
        (with(&gcn, &["--vertices", "0"]), Rejects("--vertices")),
        (with(&gcn, &["--vertices", "1"]), Rejects("--vertices")),
        (with(&gcn, &["--vertices", "2"]), Ok),
        (with(&gcn, &["--vertices", "100001"]), Rejects("--vertices")),
        (with(&gcn, &["--vertices", HUGE]), Rejects("--vertices")),
        (with(&gcn, &["--vertices", OVERFLOW]), Rejects("--vertices")),
        (with(&gcn, &["--vertices", "2", "--edges", "0"]), Ok),
        (with(&gcn, &["--vertices", "2", "--edges", "1"]), Ok),
        (with(&gcn, &["--vertices", "2", "--edges", "10000000"]), Ok),
        (with(&gcn, &["--edges", "0"]), Ok),
        (with(&gcn, &["--edges", "10000001"]), Rejects("--edges")),
        (with(&gcn, &["--edges", HUGE]), Rejects("--edges")),
        (with(&gcn, &["--seed", "0"]), Ok),
        (with(&gcn, &["--seed", HUGE]), Ok),
        (&["verify", "--model", "gat", "--vertices", "50", "--edges", "10000000"], Ok),
    ];
    check(&dir, &cases);
}
