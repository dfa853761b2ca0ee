//! Out-of-core COO→CSR construction via external passes.
//!
//! [`build_csr_chunked`] builds the same CSR a [`crate::build_csr_parallel`]
//! call would — **bit for bit** — without ever materializing the full edge
//! list in memory. The input is a re-streamable edge source (a closure that
//! replays the `(u, v)` pairs on demand, e.g. by re-parsing a file), and
//! the peak memory is bounded by the chunk budget plus the `O(n)` degree
//! and offset arrays and the final CSR itself:
//!
//! 1. **Degree-count pass** — stream the edges once, validating vertex ids
//!    (first offending edge reported exactly like the in-memory builder),
//!    dropping-and-counting self-loops, and counting each vertex's
//!    *provisional* degree (duplicates still included).
//! 2. **Bucketing** — split the vertex range into contiguous buckets whose
//!    provisional adjacency entries fit the chunk budget.
//! 3. **Scatter pass** — stream the edges again, spilling each directed
//!    `(owner, neighbor)` record to its owner's bucket file in a temporary
//!    spill directory (8 bytes per record, buffered writes).
//! 4. **Per-bucket build** — load one bucket at a time, scatter its records
//!    into place, sort + dedup each adjacency list with the in-memory
//!    builder's own sort/dedup pass, and append the compacted lists to the
//!    final CSR arrays.
//!
//! Sorted-deduplicated per-vertex adjacency is a canonical form, so the
//! result cannot depend on bucket size or spill order — that is what makes
//! the bit-identity guarantee hold for *any* chunk budget (property-tested
//! in `tests/chunked_props.rs`).

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use gnnie_graph::{CsrBuildStats, CsrGraph, GraphBuildError, VertexId};

use crate::build::sort_dedup_compact;
use crate::error::IngestError;

/// Spill files never exceed this many buckets: with a tiny chunk budget on
/// a huge graph the budget is enlarged instead, keeping the open-file count
/// and per-record bucket lookup bounded.
pub const MAX_SPILL_BUCKETS: usize = 256;

/// Floor for the chunk budget, in adjacency entries (8 bytes each): below
/// this the bookkeeping dominates and bucket counts explode.
const MIN_CHUNK_ENTRIES: u64 = 64;

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A self-deleting spill directory.
struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    fn create(root: Option<&Path>) -> Result<Self, IngestError> {
        let root = root.map(Path::to_path_buf).unwrap_or_else(std::env::temp_dir);
        let path = root.join(format!(
            "gnnie-chunked-{}-{}",
            std::process::id(),
            SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).map_err(|e| IngestError::io(&path, e))?;
        Ok(SpillDir { path })
    }

    fn bucket_path(&self, i: usize) -> PathBuf {
        self.path.join(format!("bucket-{i:04}.spill"))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
    }
}

/// Builds a CSR graph over `n` vertices from a re-streamable edge source,
/// spilling intermediate directed records to disk so peak memory stays
/// near `chunk_bytes` (plus the `O(n)` arrays and the final CSR).
///
/// `stream` is called exactly twice; each call must replay the same edges,
/// in the same order, into the provided sink (for a file source: re-open
/// and re-parse). `spill_dir` overrides the spill location (defaults to
/// the system temp directory); the spill subdirectory is always removed
/// before returning.
///
/// The resulting graph and [`CsrBuildStats`] are bit-identical to
/// [`crate::build_csr_parallel`] / [`gnnie_graph::CsrGraph::try_from_pairs`]
/// over the same pairs, for any `chunk_bytes`.
///
/// # Errors
///
/// [`GraphBuildError::VertexOutOfRange`] (as [`IngestError::Graph`]) for
/// the first edge with an endpoint `>= n`, exactly like the in-memory
/// builders; [`IngestError::Io`] on spill I/O failure; and
/// [`IngestError::Format`] if the two streaming passes disagree (the
/// source changed between passes).
///
/// # Example
///
/// ```
/// use gnnie_graph::SimPool;
/// use gnnie_ingest::{build_csr_chunked, build_csr_parallel};
///
/// let pairs = vec![(0u32, 1u32), (1, 2), (2, 0), (1, 2), (3, 3)];
/// let (chunked, stats) = build_csr_chunked(4, 64, None, |sink| {
///     for &(u, v) in &pairs {
///         sink(u, v);
///     }
///     Ok(())
/// })
/// .unwrap();
/// let (in_memory, expect) = build_csr_parallel(4, &pairs, &SimPool::serial()).unwrap();
/// assert_eq!(chunked, in_memory);
/// assert_eq!(stats, expect);
/// ```
pub fn build_csr_chunked<F>(
    n: usize,
    chunk_bytes: u64,
    spill_dir: Option<&Path>,
    mut stream: F,
) -> Result<(CsrGraph, CsrBuildStats), IngestError>
where
    F: FnMut(&mut dyn FnMut(VertexId, VertexId)) -> Result<(), IngestError>,
{
    // Pass 1: provisional degrees (duplicates included), self-loop and
    // input counts, and id validation with serial-identical error reporting.
    let mut deg = vec![0u64; n];
    let mut input_edges = 0usize;
    let mut self_loops = 0usize;
    let mut first_bad: Option<GraphBuildError> = None;
    stream(&mut |u: VertexId, v: VertexId| {
        let edge_index = input_edges;
        input_edges += 1;
        if first_bad.is_some() {
            return;
        }
        for id in [u, v] {
            if id as usize >= n {
                first_bad = Some(GraphBuildError::VertexOutOfRange {
                    edge_index,
                    vertex: id,
                    num_vertices: n,
                });
                return;
            }
        }
        if u == v {
            self_loops += 1;
        } else {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
    })?;
    if let Some(err) = first_bad {
        return Err(err.into());
    }
    let provisional_total: u64 = deg.iter().sum();

    // Bucketing: contiguous vertex ranges whose provisional entries fit the
    // chunk budget, with the budget enlarged if needed to respect
    // MAX_SPILL_BUCKETS.
    let mut budget = (chunk_bytes / 8).max(MIN_CHUNK_ENTRIES);
    if provisional_total / budget >= MAX_SPILL_BUCKETS as u64 {
        budget = provisional_total.div_ceil(MAX_SPILL_BUCKETS as u64);
    }
    let mut starts = vec![0usize];
    let mut acc = 0u64;
    for (v, &d) in deg.iter().enumerate() {
        if v > *starts.last().expect("nonempty") && acc + d > budget {
            starts.push(v);
            acc = 0;
        }
        acc += d;
    }
    let buckets = starts.len();
    let bucket_of = |v: usize| starts.partition_point(|&s| s <= v) - 1;

    // Pass 2: spill each directed (owner, neighbor) record to the owner's
    // bucket file.
    let spill = SpillDir::create(spill_dir)?;
    let mut writers: Vec<BufWriter<File>> = Vec::with_capacity(buckets);
    for i in 0..buckets {
        let p = spill.bucket_path(i);
        writers.push(BufWriter::new(File::create(&p).map_err(|e| IngestError::io(&p, e))?));
    }
    let mut replayed = 0usize;
    let mut io_err: Option<std::io::Error> = None;
    let mut drifted = false;
    stream(&mut |u: VertexId, v: VertexId| {
        replayed += 1;
        if io_err.is_some() || drifted {
            return;
        }
        if u as usize >= n || v as usize >= n {
            drifted = true;
            return;
        }
        if u == v {
            return;
        }
        let mut rec = [0u8; 8];
        for (owner, neighbor) in [(u, v), (v, u)] {
            rec[..4].copy_from_slice(&owner.to_le_bytes());
            rec[4..].copy_from_slice(&neighbor.to_le_bytes());
            if let Err(e) = writers[bucket_of(owner as usize)].write_all(&rec) {
                io_err = Some(e);
                return;
            }
        }
    })?;
    if let Some(e) = io_err {
        return Err(IngestError::io(&spill.path, e));
    }
    if drifted || replayed != input_edges {
        return Err(IngestError::Format(
            "edge source changed between the degree-count and scatter passes".into(),
        ));
    }
    for w in &mut writers {
        w.flush().map_err(|e| IngestError::io(&spill.path, e))?;
    }
    drop(writers);

    // Pass 3: per bucket, scatter → sort → dedup → append.
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut neighbors: Vec<VertexId> = Vec::new();
    let mut record_buf = Vec::new();
    for (i, &lo) in starts.iter().enumerate() {
        let hi = starts.get(i + 1).copied().unwrap_or(n);
        let entries: u64 = deg[lo..hi].iter().sum();
        let p = spill.bucket_path(i);
        record_buf.clear();
        File::open(&p)
            .and_then(|mut f| f.read_to_end(&mut record_buf))
            .map_err(|e| IngestError::io(&p, e))?;
        if record_buf.len() != entries as usize * 8 {
            return Err(IngestError::Format(format!(
                "spill bucket {i} holds {} bytes, expected {} — corrupted spill?",
                record_buf.len(),
                entries * 8
            )));
        }
        // Local scatter offsets within this bucket.
        let mut local = Vec::with_capacity(hi - lo + 1);
        local.push(0usize);
        for &d in &deg[lo..hi] {
            local.push(local.last().expect("nonempty") + d as usize);
        }
        let mut cursor = local.clone();
        let mut scatter = vec![0 as VertexId; entries as usize];
        for rec in record_buf.chunks_exact(8) {
            let owner = u32::from_le_bytes(rec[..4].try_into().expect("4 bytes")) as usize;
            let neighbor = u32::from_le_bytes(rec[4..].try_into().expect("4 bytes"));
            debug_assert!((lo..hi).contains(&owner));
            let slot = &mut cursor[owner - lo];
            if *slot >= local[owner - lo + 1] {
                return Err(IngestError::Format(format!(
                    "spill bucket {i}: vertex {owner} received more records than \
                     counted — corrupted spill?"
                )));
            }
            scatter[*slot] = neighbor;
            *slot += 1;
        }
        let mut kept = 0usize;
        for d in sort_dedup_compact(&mut scatter, &local) {
            kept += d;
            offsets.push(neighbors.len() + kept);
        }
        neighbors.extend_from_slice(&scatter[..kept]);
    }
    drop(spill);

    let final_total = neighbors.len();
    let edges = final_total / 2;
    let stats = CsrBuildStats {
        input_edges,
        self_loops,
        duplicates: (provisional_total as usize - final_total) / 2,
        edges,
    };
    Ok((CsrGraph::from_raw_parts_trusted(offsets, neighbors, edges), stats))
}

#[cfg(test)]
mod tests {
    use gnnie_graph::{SimPool, SimThreads};

    use super::*;
    use crate::build::build_csr_parallel;

    /// Deterministic pseudo-random pairs (same LCG as the build tests).
    fn scrambled_pairs(n: usize, count: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as VertexId
        };
        (0..count).map(|_| (next() % n as VertexId, next() % n as VertexId)).collect()
    }

    fn vec_stream(
        pairs: &[(VertexId, VertexId)],
    ) -> impl FnMut(&mut dyn FnMut(VertexId, VertexId)) -> Result<(), IngestError> + '_ {
        move |sink| {
            for &(u, v) in pairs {
                sink(u, v);
            }
            Ok(())
        }
    }

    #[test]
    fn matches_the_in_memory_builder_at_many_chunk_sizes() {
        let n = 500;
        let pairs = scrambled_pairs(n, 4000, 0xC0FFEE);
        let pool = SimPool::new(SimThreads::Fixed(4));
        let (expect_g, expect_s) = build_csr_parallel(n, &pairs, &pool).unwrap();
        for chunk_bytes in [1, 512, 4096, 1 << 20, u64::MAX / 16] {
            let (g, s) = build_csr_chunked(n, chunk_bytes, None, vec_stream(&pairs)).unwrap();
            assert_eq!(g, expect_g, "chunk_bytes={chunk_bytes}");
            assert_eq!(s, expect_s, "chunk_bytes={chunk_bytes}");
            assert_eq!(g.offsets(), expect_g.offsets(), "chunk_bytes={chunk_bytes}");
            assert_eq!(
                g.neighbors_flat(),
                expect_g.neighbors_flat(),
                "chunk_bytes={chunk_bytes}"
            );
        }
    }

    #[test]
    fn reports_the_first_bad_edge_like_the_serial_builder() {
        let pairs: Vec<(VertexId, VertexId)> = vec![(0, 1), (1, 2), (9, 1), (8, 0)];
        let serial = CsrGraph::try_from_pairs(3, pairs.iter().copied()).unwrap_err();
        let err = build_csr_chunked(3, 1024, None, vec_stream(&pairs)).unwrap_err();
        match err {
            IngestError::Graph(g) => assert_eq!(g, serial),
            other => panic!("expected a graph error, got {other}"),
        }
    }

    #[test]
    fn counts_self_loops_and_duplicates() {
        let pairs: Vec<(VertexId, VertexId)> =
            vec![(0, 1), (1, 0), (2, 2), (1, 2), (2, 1), (2, 2)];
        let (g, stats) = build_csr_chunked(3, 64, None, vec_stream(&pairs)).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(stats.input_edges, 6);
        assert_eq!(stats.self_loops, 2);
        assert_eq!(stats.duplicates, 2);
    }

    #[test]
    fn empty_and_edgeless_graphs_build() {
        let (g, stats) = build_csr_chunked(0, 64, None, |_sink| Ok(())).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(stats, CsrBuildStats::default());
        let (g, _) = build_csr_chunked(5, 64, None, |_sink| Ok(())).unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn spill_directory_is_cleaned_up() {
        let root = std::env::temp_dir()
            .join(format!("gnnie-chunked-test-root-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let pairs = scrambled_pairs(50, 200, 7);
        build_csr_chunked(50, 128, Some(&root), vec_stream(&pairs)).unwrap();
        let leftovers = std::fs::read_dir(&root).unwrap().count();
        assert_eq!(leftovers, 0, "spill subdirectory not removed");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_drifting_source_is_rejected() {
        let mut call = 0;
        let err = build_csr_chunked(4, 64, None, |sink| {
            call += 1;
            let count = if call == 1 { 3 } else { 2 };
            for i in 0..count {
                sink(i, (i + 1) % 4);
            }
            Ok(())
        })
        .unwrap_err();
        assert!(err.to_string().contains("changed between"), "{err}");
    }
}
