//! The degree-aware vertex cache of paper §VI, restructured around a
//! pluggable replacement policy.
//!
//! GNNIE's Aggregation processes a *dynamic subgraph*: the vertices
//! resident in the input buffer plus the edges between them. The parts
//! every policy shares live in the policy-agnostic [`CacheSim`]:
//!
//! * vertices are stored in DRAM contiguously in **descending degree
//!   order** (preprocessing, `gnnie_graph::reorder`), so every fetch is
//!   part of a sequential sweep;
//! * each vertex `v` tracks `α_v`, its number of **unprocessed edges**
//!   (initially its degree, decremented per processed edge);
//! * when the stream pointer wraps, a **Round** completes; fully-processed
//!   cache blocks are skipped on later Rounds;
//! * zero-progress Rounds trigger a liveness recovery pass, so the walk
//!   terminates under *any* policy.
//!
//! The *replacement decision* — which resident vertices leave, and in
//! what order — is a [`CachePolicy`]. The paper's α/γ policy
//! ([`PaperAlphaGamma`], with dynamic γ deadlock resolution exactly as
//! §VI prescribes) is one implementation next to the [`Lru`], [`Lfu`],
//! and offline [`BeladyOracle`] comparators, selected by
//! [`CachePolicyKind`]. Because dictionary-order eviction of nearly-done
//! vertices keeps every writeback and reload in stream order, the paper's
//! policy guarantees that **random accesses never reach DRAM** — the
//! other policies generally scatter theirs, which is precisely what the
//! cache-policy ablation in `gnnie-bench` quantifies. The identity-order
//! baseline ([`simulate_id_order_baseline`]) shows what happens with no
//! cache policy at all: per-neighbor random fetches.

pub mod policy;
pub mod sim;

pub use policy::{
    BeladyOracle, CachePolicy, CachePolicyKind, DegreePinned, Lfu, Lru, PaperAlphaGamma,
    PolicyCtx, WorkloadSplit,
};
pub use sim::CacheSim;

use serde::{Deserialize, Serialize};

use gnnie_graph::CsrGraph;
use gnnie_tensor::stats::Histogram;

use crate::dram::{DramCounters, HbmModel};

/// Configuration for the cache simulation (shared by every policy).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Number of vertices the input buffer holds (derived from its byte
    /// capacity by the engine).
    pub capacity_vertices: usize,
    /// `r`: maximum vertices replaced per iteration.
    pub evict_per_iteration: usize,
    /// `γ`: eviction threshold on the unprocessed-edge count (used by
    /// [`PaperAlphaGamma`]; other policies ignore it).
    pub gamma: u32,
    /// Vertices per DRAM cache block; a block is skipped on refetch when
    /// all of its vertices are fully processed (paper §VI).
    pub vertices_per_block: usize,
    /// Bytes of per-vertex payload fetched with the vertex (weighted
    /// feature vector and, for GATs, `{e_i1, e_i2}`).
    pub feature_bytes_per_vertex: u64,
    /// Bytes of partial-sum state spilled when a vertex is evicted with
    /// unfinished accumulation.
    pub psum_bytes_per_vertex: u64,
    /// Record α histograms for at most this many Rounds (Fig. 10).
    pub max_alpha_hist_rounds: usize,
}

impl CacheConfig {
    /// A reasonable default for a buffer of `capacity_vertices` vertices:
    /// `r = capacity/16` clamped to at least 1 (tiny buffers must still
    /// evict), `γ = 5` (the paper's static choice), 4-vertex blocks
    /// (4-way set associativity).
    pub fn with_capacity(capacity_vertices: usize, feature_bytes_per_vertex: u64) -> Self {
        Self {
            capacity_vertices,
            evict_per_iteration: (capacity_vertices / 16).max(1),
            gamma: 5,
            vertices_per_block: 4,
            feature_bytes_per_vertex,
            psum_bytes_per_vertex: feature_bytes_per_vertex,
            max_alpha_hist_rounds: 8,
        }
    }

    fn validate(&self) {
        assert!(
            self.capacity_vertices >= 2,
            "cache must hold at least two vertices to process an edge"
        );
        assert!(self.evict_per_iteration > 0, "replacement count must be positive");
        assert!(self.vertices_per_block > 0, "block size must be positive");
    }
}

/// Per-iteration edge workload, consumed by the aggregation timing model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IterationStats {
    /// Edges processed this iteration.
    pub edges: u64,
    /// Vertices fetched this iteration.
    pub arrivals: u32,
    /// Largest per-vertex edge count within the iteration (the adder-chain
    /// length a no-load-balancing design serialises on).
    pub max_vertex_edges: u32,
}

/// Outcome of a cache simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheSimResult {
    /// Name of the policy that drove the walk (see [`CachePolicy::name`]).
    pub policy: String,
    /// `true` if every edge was processed within the iteration budget.
    pub completed: bool,
    /// Total fetch/evict iterations.
    pub iterations: u64,
    /// Completed Rounds (full passes of the DRAM stream).
    pub rounds: u32,
    /// Edges processed (equals `graph.num_edges()` when `completed`).
    pub edges_processed: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Evictions that had to spill partial sums to DRAM.
    pub partial_spills: u64,
    /// Vertex fetches beyond the initial fill (re-fetches of evicted
    /// vertices in later Rounds).
    pub refetches: u64,
    /// Total vertex fetches, including the initial fill.
    pub fetched_vertices: u64,
    /// DRAM blocks skipped because all their vertices were done.
    pub skipped_blocks: u64,
    /// DRAM channel cycles consumed by cache traffic.
    pub dram_cycles: u64,
    /// γ at the end (greater than the configured γ if deadlock forced
    /// dynamic raises; the configured γ for policies without one).
    pub final_gamma: u32,
    /// Number of policy deadlock adaptations (dynamic γ raises for the
    /// paper policy).
    pub gamma_raises: u32,
    /// Liveness recovery rounds taken after zero-progress rounds (pin the
    /// earliest unprocessed vertices, stream the rest past them).
    pub recovery_rounds: u32,
    /// α histograms over all still-unfinished vertices (α > 0) at the end
    /// of each Round. Per-vertex α only ever decreases and finished
    /// vertices leave the population, so the maximum recorded α is
    /// non-increasing from Round to Round (Fig. 10's flattening).
    pub alpha_histograms: Vec<Histogram>,
    /// Per-iteration workloads, for the compute-side timing model.
    pub iteration_stats: Vec<IterationStats>,
    /// DRAM byte/transaction counters attributable to the cache.
    pub counters: DramCounters,
    /// Per-tier accounting when the walk ran against a
    /// [`MemoryHierarchy`](crate::tier::MemoryHierarchy); empty on the
    /// flat single-channel path.
    pub tiers: Vec<crate::tier::TierStats>,
}

impl CacheSimResult {
    /// Records the walk's accounting into the registry under
    /// `mem.cache.*`, plus each tier's under `mem.tier.<name>.*`. Called
    /// once per layer walk; counters accumulate into whole-run totals.
    pub fn record_metrics(&self, metrics: &gnnie_obs::Metrics) {
        if !metrics.enabled() {
            return;
        }
        metrics.counter_add("mem.cache.iterations", self.iterations);
        metrics.counter_add("mem.cache.edges_processed", self.edges_processed);
        metrics.counter_add("mem.cache.evictions", self.evictions);
        metrics.counter_add("mem.cache.partial_spills", self.partial_spills);
        metrics.counter_add("mem.cache.refetches", self.refetches);
        metrics.counter_add("mem.cache.fetched_vertices", self.fetched_vertices);
        metrics.counter_add("mem.cache.skipped_blocks", self.skipped_blocks);
        metrics.counter_add("mem.cache.dram_cycles", self.dram_cycles);
        metrics.counter_add("mem.cache.gamma_raises", self.gamma_raises as u64);
        metrics.counter_add("mem.cache.recovery_rounds", self.recovery_rounds as u64);
        metrics.gauge_set("mem.cache.final_gamma", self.final_gamma as f64);
        for tier in &self.tiers {
            tier.record_metrics(metrics);
        }
    }
}

/// Builds the undirected edge-id map: entry `p` of the flat CSR neighbor
/// array gets the id of its undirected edge, so each edge has one id shared
/// by both directions. Ids are dense in `0..num_edges`, handed out in
/// storage order of the forward entries (`u < v`).
///
/// One linear pass: adjacency lists are sorted, so the reverse entries
/// of `v` (those `u < v`) form a prefix of its list and arrive in
/// ascending `u` — exactly the order a single cursor per vertex visits
/// them.
pub fn build_edge_index(g: &CsrGraph) -> Vec<u32> {
    let offsets = g.offsets();
    let mut ids = vec![u32::MAX; g.neighbors_flat().len()];
    // Next unfilled reverse slot of each vertex.
    let mut fill: Vec<usize> = offsets[..g.num_vertices()].to_vec();
    let mut next = 0u32;
    for u in 0..g.num_vertices() {
        for (i, &v) in g.neighbors(u).iter().enumerate() {
            if (u as u32) < v {
                let v = v as usize;
                ids[offsets[u] + i] = next;
                ids[fill[v]] = next;
                fill[v] += 1;
                next += 1;
            }
        }
    }
    debug_assert_eq!(next as usize, g.num_edges());
    ids
}

/// The no-caching baseline: vertices processed in **id order** with no
/// degree reordering and no replacement policy. Neighbors outside the
/// currently buffered chunk are fetched from DRAM *randomly*, which is
/// exactly the behaviour GNNIE's policy eliminates (used for Fig. 18's
/// `CP` ablation).
///
/// Returns `(iteration stats, dram cycles, counters)`.
pub fn simulate_id_order_baseline(
    g: &CsrGraph,
    capacity_vertices: usize,
    feature_bytes_per_vertex: u64,
    dram: &mut HbmModel,
) -> (Vec<IterationStats>, u64, DramCounters) {
    assert!(capacity_vertices > 0, "buffer capacity must be positive");
    let n = g.num_vertices();
    let before = *dram.counters();
    let mut dram_cycles = 0u64;
    let mut stats = Vec::new();
    let mut chunk_start = 0usize;
    while chunk_start < n {
        let chunk_end = (chunk_start + capacity_vertices).min(n);
        let mut edges = 0u64;
        let mut max_vertex_edges = 0u32;
        // Sequential fill of the chunk.
        for v in chunk_start..chunk_end {
            let bytes = feature_bytes_per_vertex + 4 * g.degree(v) as u64;
            dram_cycles += dram.read_seq(bytes);
        }
        // Pull aggregation for each chunk vertex; out-of-chunk neighbors are
        // random DRAM fetches.
        for v in chunk_start..chunk_end {
            let mut vertex_edges = 0u32;
            for &u in g.neighbors(v) {
                let u = u as usize;
                if !(chunk_start..chunk_end).contains(&u) {
                    dram_cycles += dram.read_random(feature_bytes_per_vertex);
                }
                // Each edge is aggregated from v's side once here; the
                // symmetric side costs again in u's chunk, matching a
                // pull-based engine without cross-chunk reuse.
                vertex_edges += 1;
                edges += 1;
            }
            max_vertex_edges = max_vertex_edges.max(vertex_edges);
        }
        stats.push(IterationStats {
            edges,
            arrivals: (chunk_end - chunk_start) as u32,
            max_vertex_edges,
        });
        chunk_start = chunk_end;
    }
    let mut delta = *dram.counters();
    delta.seq_read_bytes -= before.seq_read_bytes;
    delta.seq_write_bytes -= before.seq_write_bytes;
    delta.rand_read_bytes -= before.rand_read_bytes;
    delta.rand_write_bytes -= before.rand_write_bytes;
    delta.rand_transactions -= before.rand_transactions;
    (stats, dram_cycles, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimPool;
    use gnnie_graph::generate;
    use gnnie_graph::reorder::Permutation;

    fn reordered(g: &CsrGraph) -> CsrGraph {
        Permutation::descending_degree(g).apply(g)
    }

    fn run_on(g: &CsrGraph, cfg: CacheConfig) -> CacheSimResult {
        let mut dram = HbmModel::hbm2_256gbps(1.3e9);
        let ids = build_edge_index(g);
        CacheSim::new(g, &ids, cfg, &SimPool::serial())
            .run(&mut PaperAlphaGamma::new(), &mut dram)
    }

    #[test]
    fn edge_index_is_dense_and_symmetric() {
        let g = CsrGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]);
        let ids = build_edge_index(&g);
        let offsets = g.offsets();
        // Each id in 0..E appears exactly twice.
        let mut counts = vec![0u32; g.num_edges()];
        for &id in &ids {
            counts[id as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 2));
        // Symmetry: id(u->v) == id(v->u).
        for u in 0..g.num_vertices() {
            for (i, &v) in g.neighbors(u).iter().enumerate() {
                let fwd = ids[offsets[u] + i];
                let j = g.neighbors(v as usize).binary_search(&(u as u32)).unwrap();
                let bwd = ids[offsets[v as usize] + j];
                assert_eq!(fwd, bwd);
            }
        }
    }

    /// The original builder: ids in storage order of the forward
    /// entries, each reverse entry found by binary search.
    fn edge_index_by_binary_search(g: &CsrGraph) -> Vec<u32> {
        let offsets = g.offsets();
        let mut ids = vec![u32::MAX; g.neighbors_flat().len()];
        let mut next = 0u32;
        for u in 0..g.num_vertices() {
            for (i, &v) in g.neighbors(u).iter().enumerate() {
                let pos = offsets[u] + i;
                if (u as u32) < v {
                    ids[pos] = next;
                    next += 1;
                } else {
                    let j = g.neighbors(v as usize).binary_search(&(u as u32)).unwrap();
                    ids[pos] = ids[offsets[v as usize] + j];
                }
            }
        }
        ids
    }

    #[test]
    fn edge_index_matches_the_binary_search_reference() {
        for seed in [3u64, 11, 29] {
            let g = reordered(&generate::powerlaw_chung_lu(300, 1500, 2.0, seed));
            assert_eq!(build_edge_index(&g), edge_index_by_binary_search(&g), "seed {seed}");
        }
        let er = generate::erdos_renyi(200, 900, 5);
        assert_eq!(build_edge_index(&er), edge_index_by_binary_search(&er));
        // Isolated vertices and an empty graph.
        let sparse = CsrGraph::from_edges(9, [(0, 8), (2, 8), (2, 3)]);
        assert_eq!(build_edge_index(&sparse), edge_index_by_binary_search(&sparse));
        let empty = CsrGraph::from_edges(4, std::iter::empty());
        assert!(build_edge_index(&empty).is_empty());
    }

    #[test]
    fn processes_every_edge_exactly_once_small_graph() {
        let g = reordered(&generate::erdos_renyi(60, 150, 3));
        let cfg = CacheConfig::with_capacity(16, 64);
        let r = run_on(&g, cfg);
        assert!(r.completed, "did not finish: {r:?}");
        assert_eq!(r.edges_processed, g.num_edges() as u64);
        let from_iters: u64 = r.iteration_stats.iter().map(|s| s.edges).sum();
        assert_eq!(from_iters, g.num_edges() as u64);
    }

    #[test]
    fn processes_every_edge_on_powerlaw_graph() {
        let g = reordered(&generate::powerlaw_chung_lu(500, 2500, 2.0, 11));
        let cfg = CacheConfig::with_capacity(64, 128);
        let r = run_on(&g, cfg);
        assert!(r.completed);
        assert_eq!(r.edges_processed, g.num_edges() as u64);
    }

    #[test]
    fn whole_graph_in_cache_needs_one_round() {
        let g = reordered(&generate::erdos_renyi(30, 60, 5));
        let cfg = CacheConfig::with_capacity(30, 64);
        let r = run_on(&g, cfg);
        assert!(r.completed);
        assert_eq!(r.refetches, 0);
        assert_eq!(r.evictions, 0);
        assert_eq!(r.fetched_vertices, 30);
    }

    #[test]
    fn tight_cache_forces_refetches() {
        let g = reordered(&generate::powerlaw_chung_lu(300, 1800, 2.0, 7));
        let small = run_on(&g, CacheConfig::with_capacity(20, 64));
        let large = run_on(&g, CacheConfig::with_capacity(200, 64));
        assert!(small.completed && large.completed);
        assert!(small.refetches > large.refetches);
        assert!(
            small.counters.total_bytes() > large.counters.total_bytes(),
            "smaller cache must move more DRAM bytes"
        );
    }

    #[test]
    fn all_dram_traffic_is_sequential() {
        let g = reordered(&generate::powerlaw_chung_lu(400, 2000, 2.1, 13));
        let r = run_on(&g, CacheConfig::with_capacity(48, 96));
        assert!(r.completed);
        assert_eq!(r.counters.random_bytes(), 0, "policy guarantees sequential DRAM access");
        assert_eq!(r.counters.rand_transactions, 0);
    }

    #[test]
    fn id_order_baseline_issues_random_traffic() {
        let g = generate::powerlaw_chung_lu(400, 2000, 2.1, 13);
        let mut dram = HbmModel::hbm2_256gbps(1.3e9);
        let (stats, _, counters) = simulate_id_order_baseline(&g, 48, 96, &mut dram);
        let edges: u64 = stats.iter().map(|s| s.edges).sum();
        assert_eq!(edges, 2 * g.num_edges() as u64, "pull aggregation visits each edge twice");
        assert!(counters.random_bytes() > 0, "baseline must touch DRAM randomly");
    }

    #[test]
    fn degree_aware_beats_id_order_on_powerlaw_dram_traffic() {
        let raw = generate::powerlaw_chung_lu(1000, 8000, 2.0, 21);
        let g = reordered(&raw);
        let cache = run_on(&g, CacheConfig::with_capacity(100, 128));
        let mut dram = HbmModel::hbm2_256gbps(1.3e9);
        let (_, baseline_cycles, _) = simulate_id_order_baseline(&raw, 100, 128, &mut dram);
        assert!(cache.completed);
        assert!(
            cache.dram_cycles < baseline_cycles,
            "cache {} vs baseline {}",
            cache.dram_cycles,
            baseline_cycles
        );
    }

    #[test]
    fn alpha_histograms_flatten_over_rounds() {
        // Needs multiple rounds: small cache on a power-law graph.
        let g = reordered(&generate::powerlaw_chung_lu(600, 4000, 1.9, 17));
        let r = run_on(&g, CacheConfig::with_capacity(64, 64));
        assert!(r.completed);
        if r.alpha_histograms.len() >= 2 {
            let first = &r.alpha_histograms[0];
            let last = &r.alpha_histograms[r.alpha_histograms.len() - 1];
            let max_first = first.last_nonempty_bin().unwrap_or(0);
            let max_last = last.last_nonempty_bin().unwrap_or(0);
            assert!(
                max_last <= max_first,
                "max α should not grow across rounds ({max_first} -> {max_last})"
            );
        }
    }

    #[test]
    fn low_gamma_avoids_evictions_high_gamma_forces_them() {
        let g = reordered(&generate::powerlaw_chung_lu(300, 1500, 2.0, 9));
        let mut lo_cfg = CacheConfig::with_capacity(40, 64);
        lo_cfg.gamma = 1;
        let mut hi_cfg = lo_cfg;
        hi_cfg.gamma = 50;
        let lo = run_on(&g, lo_cfg);
        let hi = run_on(&g, hi_cfg);
        assert!(lo.completed && hi.completed);
        assert!(
            hi.refetches >= lo.refetches,
            "higher γ evicts more aggressively: {} vs {}",
            hi.refetches,
            lo.refetches
        );
    }

    #[test]
    fn deadlock_is_resolved_by_dynamic_gamma() {
        // γ = 0 means nothing is ever evictable: guaranteed deadlock once
        // the cache fills, which the dynamic raise must resolve.
        let g = reordered(&generate::erdos_renyi(100, 400, 19));
        let mut cfg = CacheConfig::with_capacity(10, 64);
        cfg.gamma = 0;
        let r = run_on(&g, cfg);
        assert!(r.completed, "dynamic γ must rescue the deadlock");
        assert!(r.gamma_raises > 0);
        assert!(r.final_gamma > 0);
    }

    #[test]
    fn path_graph_completes_with_tiny_cache() {
        let raw = CsrGraph::from_edges(50, (0..49u32).map(|i| (i, i + 1)));
        let g = reordered(&raw);
        let r = run_on(&g, CacheConfig::with_capacity(4, 16));
        assert!(r.completed);
        assert_eq!(r.edges_processed, 49);
    }

    #[test]
    fn empty_graph_terminates_immediately() {
        let g = CsrGraph::from_edges(10, std::iter::empty());
        let r = run_on(&g, CacheConfig::with_capacity(4, 16));
        assert!(r.completed);
        assert_eq!(r.edges_processed, 0);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn tiny_capacity_still_evicts_and_completes() {
        // Regression: capacity < 16 must clamp `r` to 1, not 0 — an
        // `evict_per_iteration` of 0 would make eviction a no-op and fail
        // `validate`, so the walk could never replace anything.
        for capacity in 2..16 {
            let cfg = CacheConfig::with_capacity(capacity, 32);
            assert!(cfg.evict_per_iteration >= 1, "capacity {capacity} left r = 0");
        }
        let g = reordered(&generate::powerlaw_chung_lu(120, 500, 2.0, 29));
        for kind in CachePolicyKind::ALL {
            let mut dram = HbmModel::hbm2_256gbps(1.3e9);
            let mut policy = kind.instantiate();
            let ids = build_edge_index(&g);
            let r =
                CacheSim::new(&g, &ids, CacheConfig::with_capacity(3, 32), &SimPool::serial())
                    .run(policy.as_mut(), &mut dram);
            assert!(r.completed, "{kind}: 3-vertex cache must still finish");
            assert!(r.evictions > 0, "{kind}: a tiny cache must evict");
        }
    }
}
