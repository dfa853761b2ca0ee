//! Ingest-throughput sweep — file format × shard count, parallel CSR
//! build vs the serial `CsrGraph` path, plus the snapshot-cache payoff.
//!
//! Ingest is the throughput-critical path for real graphs (DGI/Ginex):
//! this sweep measures, on a power-law graph sized by `GNNIE_SCALE`,
//!
//! * **parse cost per text dialect** — whitespace/CSV/TSV streaming
//!   parse of the same edge set;
//! * **parallel build speedup** — `build_csr_parallel` at 1/2/4/8
//!   shards against `build_csr_serial` (the sort-based `CsrGraph`
//!   path), with bit-for-bit equality checked on every row;
//! * **cache payoff** — reading back the binary CSR file and the
//!   `.gnniecsr` snapshot vs re-parsing + rebuilding from text.
//!
//! Timings are the best of several repetitions (minimum is the right
//! statistic for cold-cache-free throughput claims on shared CI boxes).

use std::path::PathBuf;
use std::time::Instant;

use gnnie_graph::features::{generate_features, FeatureProfile};
use gnnie_graph::{generate, Dataset, GraphDataset, VertexId};
use gnnie_ingest::build::{build_csr_parallel, build_csr_serial};
use gnnie_ingest::chunked::build_csr_chunked;
use gnnie_ingest::export::{export_edge_list, write_binary_csr};
use gnnie_ingest::parse::{parse_edge_list, read_binary_csr, scan_edge_list};
use gnnie_ingest::snapshot::{open_snapshot, read_snapshot, write_snapshot};
use gnnie_ingest::EdgeListFormat;

use crate::json::Json;
use crate::{Ctx, ExperimentResult, Metric, Table};

/// Full-scale workload: ~40 k vertices / 400 k edges (GNNIE_SCALE
/// shrinks both linearly; CI runs at 0.1).
const BASE_VERTICES: usize = 40_000;
const BASE_EDGES: usize = 400_000;

/// Shard counts swept for the parallel builder.
pub const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One (format, shard-count) measurement.
#[derive(Debug, Clone)]
pub struct IngestRow {
    /// Text dialect parsed.
    pub format: EdgeListFormat,
    /// Shard count of the parallel build.
    pub shards: usize,
    /// Streaming parse time, ms (best of repeats).
    pub parse_ms: f64,
    /// Parallel build time, ms (best of repeats).
    pub build_ms: f64,
    /// Serial `CsrGraph` build time, ms (best of repeats).
    pub serial_build_ms: f64,
    /// `serial_build_ms / build_ms`.
    pub speedup: f64,
    /// Bit-for-bit equality of parallel and serial results.
    pub matches_serial: bool,
    /// Vertices in the benchmark graph.
    pub vertices: usize,
    /// Input pair count (one line per undirected edge).
    pub input_edges: usize,
}

/// One cached-format read measurement.
#[derive(Debug, Clone)]
pub struct CacheRow {
    /// `"binary csr"` or `"gnniecsr snapshot"`.
    pub kind: &'static str,
    /// Read-back time, ms (best of repeats).
    pub read_ms: f64,
    /// The text path it replaces: best parse + best 1-shard build, ms.
    pub text_path_ms: f64,
}

/// The out-of-core measurement: a large synthetic edge list built with
/// the chunked external builder (small spill chunks, never holding the
/// COO in memory), checked bit-for-bit against the in-memory build,
/// then frozen to a v3 snapshot whose (mmap-eligible) load is timed
/// against re-parsing the text.
#[derive(Debug, Clone)]
pub struct OutOfCoreRow {
    /// Vertices in the synthetic graph.
    pub vertices: usize,
    /// Input pair count (one line per undirected edge).
    pub input_edges: usize,
    /// Spill-chunk budget handed to the chunked builder, bytes.
    pub chunk_bytes: u64,
    /// Chunked external build (metadata pass + two streamed passes), ms.
    pub chunked_build_ms: f64,
    /// In-memory parse + parallel build, ms.
    pub inmem_build_ms: f64,
    /// Bit-for-bit equality of chunked and in-memory results.
    pub bit_identical: bool,
    /// `.gnniecsr` v3 snapshot load time, ms (best of repeats).
    pub snapshot_load_ms: f64,
    /// Re-parse + rebuild time the snapshot replaces, ms.
    pub reparse_ms: f64,
    /// `reparse_ms / snapshot_load_ms`.
    pub load_speedup_vs_reparse: f64,
    /// Whether the snapshot load was zero-copy (mmap).
    pub mmap: bool,
}

/// The sweep outcome: per-(format, shards) rows plus cache rows.
#[derive(Debug, Clone)]
pub struct IngestSweep {
    /// format × shard measurements.
    pub rows: Vec<IngestRow>,
    /// Cached-format read-back measurements.
    pub cache: Vec<CacheRow>,
    /// The out-of-core chunked-build + snapshot-load measurement.
    pub outofcore: OutOfCoreRow,
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

/// Runs the full sweep, staging files in a private temp directory.
pub fn sweep(ctx: &Ctx) -> IngestSweep {
    let scale = ctx.scale_for(Dataset::Pubmed).clamp(0.001, 1.0);
    let vertices = ((BASE_VERTICES as f64 * scale) as usize).max(64);
    let edges = ((BASE_EDGES as f64 * scale) as usize).max(256);
    let graph = generate::powerlaw_chung_lu(vertices, edges, 2.0, ctx.seed());
    let features =
        generate_features(vertices, 64, FeatureProfile::Unimodal { mean: 8.0 }, ctx.seed());
    let mut spec = Dataset::Pubmed.spec();
    spec.vertices = graph.num_vertices();
    spec.edges = graph.num_edges();
    spec.feature_len = 64;
    let ds = GraphDataset::from_parts(spec, graph, features);

    let dir = stage_dir();
    std::fs::create_dir_all(&dir).expect("create bench temp dir");

    let mut rows = Vec::new();
    let mut text_path_ms = f64::INFINITY;
    let n = ds.graph.num_vertices();
    let mut canonical_pairs: Option<Vec<(VertexId, VertexId)>> = None;
    for format in EdgeListFormat::ALL {
        let path = dir.join(format!("bench.{}", format.extension()));
        export_edge_list(&path, &ds.graph, format, None).expect("export");
        let (parsed, parse_ms) = best_ms(3, || parse_edge_list(&path, format).expect("parse"));
        let pairs = parsed.pairs;
        let (serial, serial_build_ms) =
            best_ms(3, || build_csr_serial(n, &pairs).expect("serial build").0);
        assert_eq!(serial, ds.graph, "parse must reproduce the exported graph");
        for shards in SHARD_SWEEP {
            let (parallel, build_ms) =
                best_ms(3, || build_csr_parallel(n, &pairs, shards).expect("parallel build").0);
            rows.push(IngestRow {
                format,
                shards,
                parse_ms,
                build_ms,
                serial_build_ms,
                speedup: serial_build_ms / build_ms.max(1e-9),
                matches_serial: parallel == serial,
                vertices: n,
                input_edges: pairs.len(),
            });
            // Matches the CacheRow doc: best parse + best *1-shard* build.
            if shards == 1 {
                text_path_ms = text_path_ms.min(parse_ms + build_ms);
            }
        }
        if canonical_pairs.is_none() {
            canonical_pairs = Some(pairs);
        }
        std::fs::remove_file(&path).ok();
    }

    // Cached formats: read-back vs the best text parse+build path.
    let mut cache = Vec::new();
    let bcsr = dir.join("bench.bcsr");
    write_binary_csr(&bcsr, &ds.graph).expect("write bcsr");
    let (bin_graph, bin_ms) = best_ms(3, || read_binary_csr(&bcsr).expect("read bcsr"));
    assert_eq!(bin_graph, ds.graph);
    cache.push(CacheRow { kind: "binary csr", read_ms: bin_ms, text_path_ms });
    let snap = dir.join("bench.gnniecsr");
    write_snapshot(&snap, &ds, true).expect("write snapshot");
    let (reloaded, snap_ms) = best_ms(3, || read_snapshot(&snap).expect("read snapshot"));
    assert_eq!(reloaded.graph, ds.graph);
    assert_eq!(reloaded.features, ds.features);
    cache.push(CacheRow { kind: "gnniecsr snapshot", read_ms: snap_ms, text_path_ms });

    std::fs::remove_dir_all(&dir).ok();
    IngestSweep { rows, cache, outofcore: outofcore(ctx) }
}

/// Full-scale out-of-core workload: >10M input edges (GNNIE_SCALE
/// shrinks it linearly; `GNNIE_OUTOFCORE_EDGES` overrides it outright).
const BASE_OUTOFCORE_EDGES: usize = 10_500_000;

/// Runs the out-of-core measurement: chunked external build vs the
/// in-memory path on the same text file, then v3 snapshot load vs
/// re-parse.
pub fn outofcore(ctx: &Ctx) -> OutOfCoreRow {
    let edges = std::env::var("GNNIE_OUTOFCORE_EDGES")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or_else(|| {
            let scale = ctx.scale_for(Dataset::Pubmed).clamp(0.001, 1.0);
            ((BASE_OUTOFCORE_EDGES as f64 * scale) as usize).max(30_000)
        });
    let vertices = (edges / 10).max(1_024);
    // ~24 spill buckets at any size: the scatter stream is
    // 2 directions x 8 bytes per input pair.
    let chunk_bytes = (edges as u64 * 16 / 24).max(4_096);
    let graph = generate::powerlaw_chung_lu(vertices, edges, 2.0, ctx.seed());

    let dir =
        std::env::temp_dir().join(format!("gnnie-outofcore-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let path = dir.join("outofcore.edges");
    let format = EdgeListFormat::Whitespace;
    export_edge_list(&path, &graph, format, None).expect("export");

    // Large inputs get one repetition (the interesting regime is tens
    // of millions of edges, where repeats would dominate bench time).
    let reps = if edges > 2_000_000 { 1 } else { 2 };

    // The chunked path never materializes the COO: a metadata pass to
    // learn |V|, then the degree-count and scatter passes re-stream the
    // text through spill chunks of `chunk_bytes`.
    let (chunked, chunked_build_ms) = best_ms(reps, || {
        let meta = scan_edge_list(&path, format, |_, _| {}).expect("scan");
        build_csr_chunked(meta.num_vertices(), chunk_bytes, None, |sink| {
            scan_edge_list(&path, format, sink).map(|_| ())
        })
        .expect("chunked build")
        .0
    });

    let (inmem, inmem_build_ms) = best_ms(reps, || {
        let parsed = parse_edge_list(&path, format).expect("parse");
        build_csr_parallel(parsed.num_vertices(), &parsed.pairs, 4).expect("parallel build").0
    });
    let bit_identical = chunked == inmem && chunked == graph;

    // Freeze a v3 snapshot (graph + features + partition tables) and
    // time loading it back — zero-copy via mmap where supported —
    // against the text path it replaces.
    let features = generate_features(vertices, 32, FeatureProfile::Unimodal { mean: 4.0 }, 7);
    let mut spec = Dataset::Pubmed.spec();
    spec.vertices = graph.num_vertices();
    spec.edges = graph.num_edges();
    spec.feature_len = 32;
    let ds = GraphDataset::from_parts(spec, graph, features);
    let snap = dir.join("outofcore.gnniecsr");
    write_snapshot(&snap, &ds, true).expect("write snapshot");
    let (load, snapshot_load_ms) = best_ms(3, || open_snapshot(&snap).expect("open snapshot"));
    assert_eq!(load.dataset.graph, ds.graph, "snapshot must reproduce the graph");
    let mmap = load.mmap;

    let (_, reparse_ms) = best_ms(reps, || {
        let parsed = parse_edge_list(&path, format).expect("parse");
        build_csr_parallel(parsed.num_vertices(), &parsed.pairs, 4).expect("parallel build").0
    });

    std::fs::remove_dir_all(&dir).ok();
    OutOfCoreRow {
        vertices,
        input_edges: edges,
        chunk_bytes,
        chunked_build_ms,
        inmem_build_ms,
        bit_identical,
        snapshot_load_ms,
        reparse_ms,
        load_speedup_vs_reparse: reparse_ms / snapshot_load_ms.max(1e-9),
        mmap,
    }
}

fn stage_dir() -> PathBuf {
    std::env::temp_dir().join(format!("gnnie-ingest-bench-{}", std::process::id()))
}

/// Regenerates the ingest-throughput table.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    render(&sweep(ctx))
}

/// The gated headline: deterministic bit-identity flags and wall-clock
/// speedups. The build maximum skips the `shards = 1` rows, which
/// measure the serial path against itself (~1x), so a broken
/// multi-shard path cannot hide behind them.
///
/// # Errors
///
/// A sweep without multi-shard rows.
pub fn headline(sweep: &IngestSweep) -> Result<Vec<Metric>, String> {
    let max_speedup = sweep
        .rows
        .iter()
        .filter(|r| r.shards > 1)
        .map(|r| r.speedup)
        .reduce(f64::max)
        .ok_or("ingest: no multi-shard rows to gate")?;
    let oc = &sweep.outofcore;
    Ok(vec![
        Metric::flag("bit_identical", sweep.rows.iter().all(|r| r.matches_serial)),
        Metric::wall_clock("max_build_speedup_vs_serial", max_speedup),
        Metric::flag("outofcore_bit_identical", oc.bit_identical),
        Metric::wall_clock("outofcore_load_speedup_vs_reparse", oc.load_speedup_vs_reparse),
    ])
}

/// The artifact rows: one `build` row per (format, shards), one `cache`
/// row per cached format, and the `outofcore` row.
fn json_rows(sweep: &IngestSweep) -> Vec<Json> {
    let build = sweep.rows.iter().map(|r| {
        crate::json_obj! {
            "table": "build", "format": r.format.to_string(), "shards": r.shards,
            "parse_ms": r.parse_ms, "build_ms": r.build_ms,
            "serial_build_ms": r.serial_build_ms, "speedup_vs_serial": r.speedup,
            "matches_serial": r.matches_serial, "vertices": r.vertices,
            "input_edges": r.input_edges,
        }
    });
    let cache = sweep.cache.iter().map(|c| {
        crate::json_obj! {
            "table": "cache", "kind": c.kind, "read_ms": c.read_ms,
            "text_path_ms": c.text_path_ms,
        }
    });
    let oc = &sweep.outofcore;
    let outofcore = crate::json_obj! {
        "table": "outofcore", "vertices": oc.vertices, "input_edges": oc.input_edges,
        "chunk_bytes": oc.chunk_bytes, "chunked_build_ms": oc.chunked_build_ms,
        "inmem_build_ms": oc.inmem_build_ms, "bit_identical": oc.bit_identical,
        "snapshot_load_ms": oc.snapshot_load_ms, "reparse_ms": oc.reparse_ms,
        "load_speedup_vs_reparse": oc.load_speedup_vs_reparse, "mmap": oc.mmap,
    };
    build.chain(cache).chain([outofcore]).collect()
}

/// Renders an already-computed sweep: the table, its rows, and the
/// headline.
pub fn render(sweep: &IngestSweep) -> ExperimentResult {
    let mut t = Table::new(&[
        "format",
        "shards",
        "parse ms",
        "build ms",
        "serial ms",
        "speedup",
        "bit-identical",
        "|V|",
        "lines",
    ]);
    for r in &sweep.rows {
        t.row(vec![
            r.format.to_string(),
            r.shards.to_string(),
            format!("{:.2}", r.parse_ms),
            format!("{:.2}", r.build_ms),
            format!("{:.2}", r.serial_build_ms),
            format!("{:.2}x", r.speedup),
            if r.matches_serial { "yes".into() } else { "NO".into() },
            r.vertices.to_string(),
            r.input_edges.to_string(),
        ]);
    }
    let mut lines = t.render();
    lines.push(String::new());
    for c in &sweep.cache {
        lines.push(format!(
            "{:18} read-back {:>8.2} ms vs {:>8.2} ms best text parse+build ({:.1}x)",
            c.kind,
            c.read_ms,
            c.text_path_ms,
            c.text_path_ms / c.read_ms.max(1e-9)
        ));
    }
    lines.push(String::new());
    let oc = &sweep.outofcore;
    lines.push(format!(
        "out-of-core: {} edges / {} vertices, chunked build ({:.1} MB spill chunks) \
         {:.1} ms vs {:.1} ms in-memory, bit-identical: {}",
        oc.input_edges,
        oc.vertices,
        oc.chunk_bytes as f64 / (1 << 20) as f64,
        oc.chunked_build_ms,
        oc.inmem_build_ms,
        if oc.bit_identical { "yes" } else { "NO" },
    ));
    lines.push(format!(
        "             snapshot-v3 load {:>8.2} ms{} vs {:>8.2} ms re-parse+build ({:.1}x)",
        oc.snapshot_load_ms,
        if oc.mmap { " (mmap)" } else { "" },
        oc.reparse_ms,
        oc.load_speedup_vs_reparse,
    ));
    lines.push(String::new());
    lines.push(
        "the sharded counting-sort builder replaces the serial sort-based path \
         (O(E) passes vs O(E log E)); every row is checked bit-for-bit against \
         the serial result, and the .gnniecsr snapshot amortizes parsing to one \
         checksummed read"
            .to_string(),
    );
    ExperimentResult::new("Ingest", "Real-graph ingestion throughput (gnnie-ingest)", lines)
        .gated(json_rows(sweep), headline(sweep))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_rows_are_bit_identical_and_complete() {
        let ctx = Ctx::with_scale(0.02);
        let mut s = sweep(&ctx);
        assert_eq!(s.rows.len(), EdgeListFormat::ALL.len() * SHARD_SWEEP.len());
        for r in &s.rows {
            assert!(r.matches_serial, "{} @ {} shards diverged", r.format, r.shards);
            assert!(r.parse_ms >= 0.0 && r.build_ms >= 0.0);
            assert!(r.speedup.is_finite());
        }
        assert_eq!(s.cache.len(), 2);
        for c in &s.cache {
            assert!(c.read_ms > 0.0, "{} read not timed", c.kind);
        }
        // The headline's build maximum skips the shards = 1 rows (~1x by
        // construction): a broken multi-shard path cannot hide behind them.
        s.rows.iter_mut().filter(|r| r.shards == 1).for_each(|r| r.speedup = f64::MAX);
        let m = headline(&s).unwrap();
        assert_eq!(m[0], Metric::flag("bit_identical", true));
        assert!(m[1].value < f64::MAX && m[1].kind == crate::MetricKind::WallClock, "{m:?}");
        let oc_speedup = s.outofcore.load_speedup_vs_reparse;
        assert_eq!(m[3], Metric::wall_clock("outofcore_load_speedup_vs_reparse", oc_speedup));
        s.rows.retain(|r| r.shards == 1);
        assert!(headline(&s).is_err(), "a sweep of trivial rows cannot be gated");
    }

    #[test]
    fn outofcore_row_is_bit_identical_at_tiny_chunks() {
        // A small graph with a deliberately tiny spill budget so the
        // chunked builder exercises many buckets even under `cargo
        // test`; CI's release-mode bench run covers the >10M-edge
        // regime via GNNIE_SCALE.
        std::env::set_var("GNNIE_OUTOFCORE_EDGES", "30000");
        let r = outofcore(&Ctx::with_scale(0.01));
        std::env::remove_var("GNNIE_OUTOFCORE_EDGES");
        assert_eq!(r.input_edges, 30_000);
        assert!(r.bit_identical, "chunked build diverged from the in-memory path");
        assert!(r.chunk_bytes >= 4_096);
        assert!(r.snapshot_load_ms > 0.0 && r.reparse_ms > 0.0);
        assert!(r.load_speedup_vs_reparse.is_finite());
        assert_eq!(r.mmap, gnnie_ingest::mmap_supported());
    }
}
