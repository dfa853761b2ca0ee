//! Pool-parallel COO → CSR construction.
//!
//! The serial path ([`CsrGraph::from_edge_list`]) sorts the whole edge
//! list (`O(E log E)`) before building adjacency. Ingest is
//! throughput-critical for large graphs (DGI and Ginex both report load
//! time as a first-order cost), so this module builds the same CSR with
//! a counting-sort-style pipeline on the workspace's one [`SimPool`]:
//!
//! 1. **per-shard degree counting** — each contiguous shard of the edge
//!    array is validated, its self-loops dropped and counted, and its
//!    local degree histogram accumulated ([`SimPool::map_ranges`]);
//! 2. **prefix-sum merge** — local histograms are summed and prefix-
//!    summed into provisional offsets, and every `(shard, vertex)` pair
//!    gets a reserved, disjoint slot range;
//! 3. **parallel scatter** — each shard writes both directions of its
//!    edges into its reserved slots (no atomics, no locks);
//! 4. **parallel per-vertex sort + dedup** — vertex ranges (balanced by
//!    entry count) are sorted, deduplicated, and compacted in place by
//!    `sort_dedup_compact`, the one sort/dedup the out-of-core builder
//!    shares.
//!
//! The result is **bit-for-bit identical** to the serial path at any
//! pool width — per-vertex sorted unique adjacency is canonical, so the
//! scatter order cannot leak through. The property suite checks this for
//! arbitrary inputs and widths; `gnnie-bench ingest_throughput` records
//! the measured speedup.

use std::ops::Range;
use std::sync::Mutex;

use gnnie_graph::{CsrBuildStats, CsrGraph, GraphBuildError, SimPool, VertexId};

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

/// Pool-parallel checked build over `n` vertices.
///
/// Produces exactly the graph and stats of the serial
/// [`CsrGraph::try_from_pairs`] — same offsets, same neighbor array, same
/// edge count, same self-loop and duplicate accounting — at every pool
/// width.
///
/// # Errors
///
/// Returns [`GraphBuildError::VertexOutOfRange`] for the first edge (in
/// input order) with an endpoint `>= n`, like the serial path.
pub fn build_csr_parallel(
    n: usize,
    pairs: &[(VertexId, VertexId)],
    pool: &SimPool,
) -> Result<(CsrGraph, CsrBuildStats), GraphBuildError> {
    // Phase 1: per-shard validation, self-loop counting, degree counting.
    // Each shard reports its *first* bad edge; shards cover contiguous
    // input ranges in order, so the earliest report is the globally
    // first — matching serial.
    let counted = pool.map_ranges(pairs.len(), |range: Range<usize>| {
        let mut deg = vec![0usize; n];
        let mut self_loops = 0usize;
        for (i, &(u, v)) in pairs[range.clone()].iter().enumerate() {
            if let Some(vertex) = [u, v].into_iter().find(|&x| x as usize >= n) {
                return Err(GraphBuildError::VertexOutOfRange {
                    edge_index: range.start + i,
                    vertex,
                    num_vertices: n,
                });
            }
            if u == v {
                self_loops += 1;
            } else {
                deg[u as usize] += 1;
                deg[v as usize] += 1;
            }
        }
        Ok((range, deg, self_loops))
    });
    let counted = counted.into_iter().collect::<Result<Vec<_>, _>>()?;
    let self_loops = counted.iter().map(|(_, _, loops)| loops).sum();

    // Phase 2: prefix-sum merge. Each shard's cursor starts at its
    // reserved slot for every vertex; cursors partition each vertex's
    // slot range by shard.
    let mut offsets = vec![0usize; n + 1];
    for v in 0..n {
        let total: usize = counted.iter().map(|(_, d, _)| d[v]).sum();
        offsets[v + 1] = offsets[v] + total;
    }
    let total_entries = offsets[n];
    let mut cursor = offsets[..n].to_vec();
    let shards: Vec<(Range<usize>, Vec<usize>)> = counted
        .into_iter()
        .map(|(range, deg, _)| {
            let mine = cursor.clone();
            cursor.iter_mut().zip(&deg).for_each(|(c, d)| *c += d);
            (range, mine)
        })
        .collect();

    // Phase 3: parallel scatter into reserved slots.
    let mut neighbors = vec![0 as VertexId; total_entries];
    let slots = &ScatterSlots(neighbors.as_mut_ptr());
    pool.map_items(&shards, |(range, start)| {
        let mut cursor = start.clone();
        for &(u, v) in &pairs[range.clone()] {
            if u == v {
                continue;
            }
            // SAFETY: `cursor[u]` walks this shard's reserved range for
            // vertex u (disjoint across shards and vertices by the
            // phase-2 partition); same for v.
            unsafe {
                *slots.0.add(cursor[u as usize]) = v;
                cursor[u as usize] += 1;
                *slots.0.add(cursor[v as usize]) = u;
                cursor[v as usize] += 1;
            }
        }
    });

    // Phase 4: parallel per-vertex sort + dedup, compacted within each
    // slab of contiguous vertices (balanced by entry count).
    let ranges = balanced_vertex_ranges(&offsets, pool.width());
    let mut slabs = Vec::with_capacity(ranges.len());
    let mut rest = neighbors.as_mut_slice();
    for &(lo, hi) in &ranges {
        let (slab, tail) = rest.split_at_mut(offsets[hi] - offsets[lo]);
        slabs.push(((lo, hi), Mutex::new(slab)));
        rest = tail;
    }
    let degrees = pool.map_items(&slabs, |((lo, hi), slab)| {
        sort_dedup_compact(&mut slab.lock().expect("slab lock poisoned"), &offsets[*lo..=*hi])
    });
    drop(slabs);

    // Stitch: final offsets from compacted degrees, slab prefixes moved
    // left into their final contiguous positions.
    let mut final_offsets = Vec::with_capacity(n + 1);
    final_offsets.push(0usize);
    let mut write = 0usize;
    for (&(lo, _), deg) in ranges.iter().zip(&degrees) {
        let kept: usize = deg.iter().sum();
        neighbors.copy_within(offsets[lo]..offsets[lo] + kept, write);
        for &d in deg {
            final_offsets.push(final_offsets.last().expect("nonempty") + d);
        }
        write += kept;
    }
    debug_assert_eq!(final_offsets.len(), n + 1);
    neighbors.truncate(write);

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

/// Sorts and deduplicates every adjacency list of `slab`, delimited by
/// `bounds` (`bounds.len() - 1` lists; list `i` spans
/// `bounds[i] - bounds[0] .. bounds[i + 1] - bounds[0]`), and compacts
/// the kept entries to the front of `slab` in list order. Returns each
/// list's kept degree. Both CSR builders run this: the in-memory one per
/// vertex slab, the out-of-core one per spill bucket.
pub(crate) fn sort_dedup_compact(slab: &mut [VertexId], bounds: &[usize]) -> Vec<usize> {
    let base = bounds[0];
    let mut write = 0usize;
    bounds
        .windows(2)
        .map(|w| {
            let list = w[0] - base..w[1] - base;
            slab[list.clone()].sort_unstable();
            let start = write;
            for i in list {
                let x = slab[i];
                // The write index never passes the read index, so
                // in-place compaction is safe.
                if write == start || slab[write - 1] != x {
                    slab[write] = x;
                    write += 1;
                }
            }
            write - start
        })
        .collect()
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
    use gnnie_graph::SimThreads;

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

    /// Pools of widths 1–4: width 1 runs inline, the rest on workers.
    fn pools() -> impl Iterator<Item = SimPool> {
        (1..=4).map(|w| SimPool::new(SimThreads::Fixed(w)))
    }

    #[test]
    fn parallel_matches_serial_at_every_pool_width() {
        // 1,500 pairs: wide pools really dispatch the degree count
        // (at least MIN_ITEMS_PER_WORKER pairs per worker).
        let pairs = scrambled_pairs(97, 1500, 0xC0FFEE);
        let (serial, serial_stats) =
            CsrGraph::try_from_pairs(97, pairs.iter().copied()).unwrap();
        for pool in pools() {
            let (par, stats) = build_csr_parallel(97, &pairs, &pool).unwrap();
            assert_eq!(par, serial, "width {}", pool.width());
            assert_eq!(stats, serial_stats, "width {}", pool.width());
        }
    }

    #[test]
    fn out_of_range_reports_the_first_bad_edge() {
        let mut pairs = scrambled_pairs(10, 2000, 7);
        pairs[1500] = (3, 10);
        pairs[1700] = (11, 0);
        for pool in pools() {
            let err = build_csr_parallel(10, &pairs, &pool).unwrap_err();
            assert_eq!(
                err,
                GraphBuildError::VertexOutOfRange {
                    edge_index: 1500,
                    vertex: 10,
                    num_vertices: 10
                },
                "width {}",
                pool.width()
            );
        }
        assert_eq!(CsrGraph::try_from_pairs(10, pairs.iter().copied()).unwrap_err(), {
            GraphBuildError::VertexOutOfRange { edge_index: 1500, vertex: 10, num_vertices: 10 }
        });
    }

    #[test]
    fn degenerate_inputs() {
        for pool in pools() {
            // Empty input, zero vertices.
            let (g, stats) = build_csr_parallel(0, &[], &pool).unwrap();
            assert_eq!(g.num_vertices(), 0);
            assert_eq!(stats, CsrBuildStats::default());
            // Isolated vertices only.
            let (g, _) = build_csr_parallel(5, &[], &pool).unwrap();
            assert_eq!((g.num_vertices(), g.num_edges()), (5, 0));
            // All self-loops.
            let (g, stats) = build_csr_parallel(3, &[(0, 0), (1, 1), (2, 2)], &pool).unwrap();
            assert_eq!(g.num_edges(), 0);
            assert_eq!(stats.self_loops, 3);
            // One edge, more workers than pairs.
            let (g, _) = build_csr_parallel(2, &[(0, 1)], &pool).unwrap();
            assert_eq!(g.num_edges(), 1);
        }
    }

    #[test]
    fn duplicate_accounting_matches_serial() {
        let pairs = vec![(0, 1), (1, 0), (0, 1), (2, 3), (3, 2), (1, 1)];
        let (_, serial_stats) = CsrGraph::try_from_pairs(4, pairs.iter().copied()).unwrap();
        for pool in pools() {
            let (g, stats) = build_csr_parallel(4, &pairs, &pool).unwrap();
            assert_eq!(g.num_edges(), 2);
            assert_eq!(stats.input_edges, 6);
            assert_eq!(stats.self_loops, 1);
            assert_eq!(stats.duplicates, 3);
            assert_eq!(stats, serial_stats);
        }
    }

    #[test]
    fn sort_dedup_compact_packs_lists_in_order() {
        // Two lists at an offset base of 10: [3, 1, 3] and [2, 2].
        let mut slab = vec![3, 1, 3, 2, 2];
        assert_eq!(sort_dedup_compact(&mut slab, &[10, 13, 15]), vec![2, 1]);
        assert_eq!(&slab[..3], &[1, 3, 2]);
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
