//! Shard-parallel COO → CSR construction.
//!
//! The serial path ([`CsrGraph::from_edge_list`]) sorts the whole edge
//! list (`O(E log E)`) before building adjacency. Ingest is
//! throughput-critical for large graphs (DGI and Ginex both report load
//! time as a first-order cost), so this module builds the same CSR with
//! a counting-sort-style pipeline over `S` shards of the input, using
//! only `std::thread::scope` — no dependencies:
//!
//! 1. **per-shard degree counting** — each shard validates its slice of
//!    the edge array, drops and counts self-loops, and accumulates a
//!    local degree histogram;
//! 2. **prefix-sum merge** — local histograms are summed and prefix-
//!    summed into provisional offsets, and every `(shard, vertex)` pair
//!    gets a reserved, disjoint slot range;
//! 3. **parallel scatter** — each shard writes both directions of its
//!    edges into its reserved slots (no atomics, no locks);
//! 4. **parallel per-vertex sort + dedup** — vertex ranges (balanced by
//!    entry count) are sorted, deduplicated, and compacted in place.
//!
//! The result is **bit-for-bit identical** to the serial path for any
//! shard count — per-vertex sorted unique adjacency is canonical, so the
//! scatter order cannot leak through. The property suite checks this for
//! arbitrary inputs and shard counts; `gnnie-bench ingest_throughput`
//! records the measured speedup.

use gnnie_graph::{CsrBuildStats, CsrGraph, GraphBuildError, VertexId};

/// Hard cap on the shard count (beyond this, per-shard degree arrays
/// dominate and the scatter gains nothing).
pub const MAX_SHARDS: usize = 64;

/// The shard count to use by default: the machine's available
/// parallelism, clamped to [`MAX_SHARDS`].
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).clamp(1, MAX_SHARDS)
}

/// Raw-pointer handle for the disjoint-slot scatter phase.
///
/// Each `(shard, vertex)` pair owns a reserved, non-overlapping range of
/// the neighbor array (computed in the prefix-sum merge), so concurrent
/// writes never alias.
struct ScatterSlots(*mut VertexId);
// SAFETY: every write goes through a cursor that starts at a
// per-(shard, vertex) reservation; reservations partition the array, so
// two threads never write the same index.
unsafe impl Sync for ScatterSlots {}

/// Shard-parallel checked build over `n` vertices.
///
/// Produces exactly the graph and stats of the serial
/// [`CsrGraph::try_from_pairs`] — same
/// offsets, same neighbor array, same edge count, same self-loop and
/// duplicate accounting — for every `shards >= 1` (clamped to
/// [`MAX_SHARDS`]).
///
/// # Errors
///
/// Returns [`GraphBuildError::VertexOutOfRange`] for the first edge (in
/// input order) with an endpoint `>= n`, like the serial path.
pub fn build_csr_parallel(
    n: usize,
    pairs: &[(VertexId, VertexId)],
    shards: usize,
) -> Result<(CsrGraph, CsrBuildStats), GraphBuildError> {
    let shards = shards.clamp(1, MAX_SHARDS).min(pairs.len().max(1));
    let chunk = pairs.len().div_ceil(shards);
    let chunks: Vec<&[(VertexId, VertexId)]> =
        pairs.chunks(chunk.max(1)).take(shards).collect();
    let shards = chunks.len();
    // Shards partition the *data* (deterministically — the result is
    // identical either way); threads are spawned only when the machine
    // can actually run them concurrently, so a single-core host never
    // pays scope/spawn overhead for zero parallelism.
    let threaded =
        shards > 1 && std::thread::available_parallelism().map_or(1, |p| p.get()) > 1;

    // Phase 1: per-shard validation, self-loop counting, degree counting.
    type ShardCount = Result<(Vec<usize>, usize), (usize, VertexId)>;
    let count_shard = |chunk: &[(VertexId, VertexId)]| -> ShardCount {
        let mut deg = vec![0usize; n];
        let mut self_loops = 0usize;
        for (i, &(u, v)) in chunk.iter().enumerate() {
            if u as usize >= n {
                return Err((i, u));
            }
            if v as usize >= n {
                return Err((i, v));
            }
            if u == v {
                self_loops += 1;
            } else {
                deg[u as usize] += 1;
                deg[v as usize] += 1;
            }
        }
        Ok((deg, self_loops))
    };
    let shard_results: Vec<ShardCount> = if threaded {
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                chunks.iter().map(|chunk| scope.spawn(move || count_shard(chunk))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("degree-count shard panicked"))
                .collect()
        })
    } else {
        chunks.iter().map(|chunk| count_shard(chunk)).collect()
    };
    let mut local_degrees: Vec<Vec<usize>> = Vec::with_capacity(shards);
    let mut self_loops = 0usize;
    for (s, res) in shard_results.into_iter().enumerate() {
        match res {
            Ok((deg, loops)) => {
                local_degrees.push(deg);
                self_loops += loops;
            }
            Err((local_index, vertex)) => {
                // Shards cover contiguous input ranges in order, and each
                // shard reports its *first* bad edge, so the earliest
                // shard's report is the globally first — matching serial.
                let edge_index =
                    chunks[..s].iter().map(|c| c.len()).sum::<usize>() + local_index;
                return Err(GraphBuildError::VertexOutOfRange {
                    edge_index,
                    vertex,
                    num_vertices: n,
                });
            }
        }
    }

    // Phase 2: prefix-sum merge. `starts[s][v]` is shard s's write cursor
    // for vertex v; cursors partition each vertex's slot range by shard.
    let mut offsets = vec![0usize; n + 1];
    for v in 0..n {
        let total: usize = local_degrees.iter().map(|d| d[v]).sum();
        offsets[v + 1] = offsets[v] + total;
    }
    let total_entries = offsets[n];
    let mut starts: Vec<Vec<usize>> = Vec::with_capacity(shards);
    {
        let mut cursor = offsets[..n].to_vec();
        for deg in &local_degrees {
            let mine = cursor.clone();
            for v in 0..n {
                cursor[v] += deg[v];
            }
            starts.push(mine);
        }
    }
    drop(local_degrees);

    // Phase 3: parallel scatter into reserved slots.
    let mut neighbors = vec![0 as VertexId; total_entries];
    {
        let slots = ScatterSlots(neighbors.as_mut_ptr());
        let slots = &slots;
        let scatter_shard = |chunk: &[(VertexId, VertexId)], mut cursor: Vec<usize>| {
            for &(u, v) in chunk.iter() {
                if u == v {
                    continue;
                }
                // SAFETY: `cursor[u]` walks this shard's reserved range
                // for vertex u (disjoint across shards and vertices by
                // the phase-2 partition); same for v.
                unsafe {
                    *slots.0.add(cursor[u as usize]) = v;
                    cursor[u as usize] += 1;
                    *slots.0.add(cursor[v as usize]) = u;
                    cursor[v as usize] += 1;
                }
            }
        };
        if threaded {
            std::thread::scope(|scope| {
                for (chunk, cursor) in chunks.iter().zip(starts) {
                    scope.spawn(move || scatter_shard(chunk, cursor));
                }
            });
        } else {
            for (chunk, cursor) in chunks.iter().zip(starts) {
                scatter_shard(chunk, cursor);
            }
        }
    }

    // Phase 4: parallel per-vertex sort + dedup, compacted within each
    // thread's slab of contiguous vertices (balanced by entry count).
    let ranges = balanced_vertex_ranges(&offsets, shards);
    let mut slabs: Vec<&mut [VertexId]> = Vec::with_capacity(ranges.len());
    {
        let mut rest = neighbors.as_mut_slice();
        for &(lo, hi) in &ranges {
            let len = offsets[hi] - offsets[lo];
            let (slab, tail) = rest.split_at_mut(len);
            slabs.push(slab);
            rest = tail;
        }
    }
    let sort_range = |lo: usize, hi: usize, slab: &mut [VertexId]| {
        let base = offsets[lo];
        let mut new_deg = Vec::with_capacity(hi - lo);
        let mut w = 0usize;
        for v in lo..hi {
            let (start, end) = (offsets[v] - base, offsets[v + 1] - base);
            slab[start..end].sort_unstable();
            let mut kept = 0usize;
            for i in start..end {
                let x = slab[i];
                // Write index never passes the read index, so in-place
                // compaction is safe.
                if kept == 0 || slab[w + kept - 1] != x {
                    slab[w + kept] = x;
                    kept += 1;
                }
            }
            new_deg.push(kept);
            w += kept;
        }
        (new_deg, w)
    };
    let per_range: Vec<(Vec<usize>, usize)> = if threaded {
        std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .iter()
                .zip(slabs)
                .map(|(&(lo, hi), slab)| scope.spawn(move || sort_range(lo, hi, slab)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("sort-dedup shard panicked")).collect()
        })
    } else {
        ranges.iter().zip(slabs).map(|(&(lo, hi), slab)| sort_range(lo, hi, slab)).collect()
    };

    // Stitch: final offsets from compacted degrees, slab prefixes moved
    // left into their final contiguous positions.
    let mut final_offsets = Vec::with_capacity(n + 1);
    final_offsets.push(0usize);
    for (deg, _) in &per_range {
        for &d in deg {
            final_offsets.push(final_offsets.last().expect("nonempty") + d);
        }
    }
    debug_assert_eq!(final_offsets.len(), n + 1);
    let mut write = 0usize;
    for (&(lo, _), (_, kept)) in ranges.iter().zip(&per_range) {
        let read = offsets[lo];
        neighbors.copy_within(read..read + kept, write);
        write += kept;
    }
    neighbors.truncate(write);
    debug_assert_eq!(write, *final_offsets.last().expect("nonempty"));

    let duplicates = (total_entries - write) / 2;
    let num_edges = write / 2;
    // Invariants hold by construction (ids validated in phase 1, lists
    // sorted and deduplicated in phase 4); debug builds re-verify.
    let graph = CsrGraph::from_raw_parts_trusted(final_offsets, neighbors, num_edges);
    Ok((
        graph,
        CsrBuildStats { input_edges: pairs.len(), self_loops, duplicates, edges: num_edges },
    ))
}

/// Splits `0..n` into at most `want` contiguous vertex ranges with
/// roughly equal neighbor-entry counts (so dense hubs don't serialize
/// the sort phase onto one thread).
fn balanced_vertex_ranges(offsets: &[usize], want: usize) -> Vec<(usize, usize)> {
    let n = offsets.len() - 1;
    if n == 0 {
        return vec![(0, 0)];
    }
    let want = want.max(1);
    let total = offsets[n];
    let per = total.div_ceil(want).max(1);
    let mut ranges = Vec::with_capacity(want);
    let mut lo = 0usize;
    while lo < n {
        // Never exceed `want` ranges: the tail merges into the last one.
        if ranges.len() + 1 == want {
            ranges.push((lo, n));
            break;
        }
        let mut hi = lo;
        let target = offsets[lo] + per;
        while hi < n && (offsets[hi + 1] < target || hi == lo) {
            hi += 1;
        }
        ranges.push((lo, hi));
        lo = hi;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrambled_pairs(n: VertexId, count: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
        // Deterministic LCG mix with duplicates and self-loops.
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as VertexId
        };
        (0..count).map(|_| (next() % n, next() % n)).collect()
    }

    #[test]
    fn parallel_matches_serial_for_all_shard_counts() {
        let pairs = scrambled_pairs(97, 1500, 0xC0FFEE);
        let (serial, serial_stats) =
            CsrGraph::try_from_pairs(97, pairs.iter().copied()).unwrap();
        for shards in [1, 2, 3, 4, 7, 8, 16, 64] {
            let (par, stats) = build_csr_parallel(97, &pairs, shards).unwrap();
            assert_eq!(par, serial, "shards={shards}");
            assert_eq!(stats, serial_stats, "shards={shards}");
        }
    }

    #[test]
    fn out_of_range_reports_the_first_bad_edge() {
        let mut pairs = scrambled_pairs(10, 200, 7);
        pairs[150] = (3, 10);
        pairs[170] = (11, 0);
        for shards in [1, 3, 8] {
            let err = build_csr_parallel(10, &pairs, shards).unwrap_err();
            assert_eq!(
                err,
                GraphBuildError::VertexOutOfRange {
                    edge_index: 150,
                    vertex: 10,
                    num_vertices: 10
                },
                "shards={shards}"
            );
        }
        assert_eq!(CsrGraph::try_from_pairs(10, pairs.iter().copied()).unwrap_err(), {
            GraphBuildError::VertexOutOfRange { edge_index: 150, vertex: 10, num_vertices: 10 }
        });
    }

    #[test]
    fn degenerate_inputs() {
        // Empty input, zero vertices.
        let (g, stats) = build_csr_parallel(0, &[], 4).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(stats, CsrBuildStats::default());
        // Isolated vertices only.
        let (g, _) = build_csr_parallel(5, &[], 4).unwrap();
        assert_eq!((g.num_vertices(), g.num_edges()), (5, 0));
        // All self-loops.
        let (g, stats) = build_csr_parallel(3, &[(0, 0), (1, 1), (2, 2)], 2).unwrap();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(stats.self_loops, 3);
        // One edge, many shards (shards clamp to input length).
        let (g, _) = build_csr_parallel(2, &[(0, 1)], 16).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn duplicate_accounting_matches_serial() {
        let pairs = vec![(0, 1), (1, 0), (0, 1), (2, 3), (3, 2), (1, 1)];
        let (g, stats) = build_csr_parallel(4, &pairs, 3).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(stats.input_edges, 6);
        assert_eq!(stats.self_loops, 1);
        assert_eq!(stats.duplicates, 3);
        let (_, serial_stats) = CsrGraph::try_from_pairs(4, pairs.iter().copied()).unwrap();
        assert_eq!(stats, serial_stats);
    }

    #[test]
    fn balanced_ranges_cover_and_balance() {
        // A hub-heavy offset profile.
        let offsets = vec![0, 100, 101, 102, 103, 200];
        let ranges = balanced_vertex_ranges(&offsets, 3);
        assert_eq!(ranges.first().unwrap().0, 0);
        assert_eq!(ranges.last().unwrap().1, 5);
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "contiguous");
        }
        // No range is empty.
        assert!(ranges.iter().all(|&(lo, hi)| lo < hi));
    }
}
