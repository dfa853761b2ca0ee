//! The policy-agnostic cache simulation loop.
//!
//! [`CacheSim`] owns every mechanism the policies share, so all of them
//! are measured under identical traffic accounting:
//!
//! * the **sequential DRAM stream walk** (vertices fetched in storage
//!   order, Rounds when the pointer wraps, done-block skipping);
//! * **psum spill accounting** — an evicted, partially-aggregated vertex
//!   writes its α word and partial sum back and reloads the partial sum
//!   when refetched;
//! * the **sequential-vs-random byte split**: a victim batch emitted in
//!   ascending id (= DRAM address) order streams its writebacks and later
//!   reloads sequentially, while an out-of-order batch scatters them —
//!   each such writeback and its reload are charged as random
//!   transactions. The paper's dictionary-order eviction is exactly what
//!   keeps this split all-sequential (§VI); recency/frequency batch
//!   orders generally do not. The classification is deliberately
//!   **per-batch**: a batch of one is trivially in order, so the split is
//!   only informative when `evict_per_iteration > 1` (true of every
//!   engine-derived configuration; the lazy Belady oracle's single-victim
//!   writebacks are likewise charged as stream continuations). A stricter
//!   cross-batch rule would misclassify the paper policy's legitimate
//!   dictionary-order batches, which interleave in id across iterations.
//! * **α histograms** per Round (Fig. 10) and per-iteration workload
//!   stats for the compute-side timing model;
//! * the **liveness recovery rounds** (§VI dynamic scheme): a
//!   zero-progress Round flushes the cache, pins the earliest unprocessed
//!   vertices, and streams everyone else past them, guaranteeing progress
//!   under *any* policy.

use gnnie_graph::CsrGraph;
use gnnie_tensor::stats::Histogram;

use crate::dram::HbmModel;
use crate::tier::{MemoryHierarchy, VertexMemory};
use crate::SimPool;

use super::policy::{CachePolicy, PolicyCtx};
use super::{CacheConfig, CacheSimResult, IterationStats};

/// Locality class of a vertex's spilled partial sum, set at eviction time
/// and consumed (as the reload's traffic class) at refetch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Spill {
    /// Nothing spilled.
    None,
    /// Spilled as part of an address-ordered batch: reload streams.
    Seq,
    /// Spilled out of order: reload pays a random transaction.
    Rand,
}

/// Charges one vertex's eviction writeback (α word, plus the psum spill
/// when partially aggregated) and records the reload class.
#[allow(clippy::too_many_arguments)]
fn writeback<M: VertexMemory>(
    v: usize,
    ordered: bool,
    g: &CsrGraph,
    cfg: &CacheConfig,
    alpha: &[u32],
    in_cache: &mut [bool],
    spill: &mut [Spill],
    result: &mut CacheSimResult,
    mem: &mut M,
) {
    in_cache[v] = false;
    result.evictions += 1;
    if alpha[v] == 0 {
        // Fully aggregated: the final result leaves through the output
        // buffer (charged by the engine) and the alpha word is retired.
        return;
    }
    // Unfinished: write back alpha and, if aggregation started, spill the
    // partial sum. Numerator/denominator live adjacently (§VI), so an
    // address-ordered batch streams; an out-of-order batch scatters.
    let partial = alpha[v] < g.degree(v) as u32;
    let id = v as u32;
    if ordered {
        result.dram_cycles += mem.write_seq(id, 4);
        if partial {
            result.dram_cycles += mem.write_seq(id, cfg.psum_bytes_per_vertex);
        }
    } else {
        result.dram_cycles += mem.write_random(id, 4);
        if partial {
            result.dram_cycles += mem.write_random(id, cfg.psum_bytes_per_vertex);
        }
    }
    if partial {
        result.partial_spills += 1;
        spill[v] = if ordered { Spill::Seq } else { Spill::Rand };
    }
}

/// The shared cache walk, parameterized by a [`CachePolicy`].
///
/// Construct over a graph and its undirected edge index
/// ([`build_edge_index`](super::build_edge_index)), then [`run`](CacheSim::run) any number of
/// policies over it; each run is independent and starts from a cold
/// cache. The simulator only borrows the index, so several walks over
/// one graph share a single copy: the engine builds it once per session
/// and runs that session's distinct walks side by side on its
/// [`SimPool`].
///
/// One walk is a serial state machine. Its per-vertex scans (α
/// initialization, the per-Round α histograms) shard across the pool it
/// is given.
#[derive(Debug)]
pub struct CacheSim<'a> {
    graph: &'a CsrGraph,
    config: CacheConfig,
    edge_ids: &'a [u32],
    /// The caller's worker pool for the sharded per-vertex scans.
    pool: &'a SimPool,
}

impl<'a> CacheSim<'a> {
    /// Creates a simulator for `graph`, which **must already be relabeled
    /// into descending-degree order** (vertex id = DRAM stream position).
    /// `edge_ids` must be `build_edge_index(graph)`. The sharded scans
    /// dispatch through `pool`; results are bit-identical at any width.
    /// A walk that itself runs as a task on a pool's workers must be
    /// handed [`SimPool::serial`], not that pool (see
    /// [`SimPool::map_items`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, or if `edge_ids` does not
    /// have one entry per CSR neighbor slot of `graph`.
    pub fn new(
        graph: &'a CsrGraph,
        edge_ids: &'a [u32],
        config: CacheConfig,
        pool: &'a SimPool,
    ) -> Self {
        config.validate();
        assert_eq!(
            edge_ids.len(),
            graph.neighbors_flat().len(),
            "edge index does not belong to this graph"
        );
        Self { graph, config, edge_ids, pool }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The CSR-position → undirected-edge-id map.
    pub fn edge_ids(&self) -> &[u32] {
        self.edge_ids
    }

    /// Runs the walk under `policy`, charging DRAM traffic to `dram`.
    pub fn run(&self, policy: &mut dyn CachePolicy, dram: &mut HbmModel) -> CacheSimResult {
        self.run_with(policy, dram, |_, _| {})
    }

    /// Like [`CacheSim::run`], invoking `on_edge(u, v)` once per
    /// undirected edge, **in processing order**. The functional datapath
    /// verification in `gnnie-core` uses this to aggregate features in
    /// exactly the order the hardware would.
    pub fn run_with(
        &self,
        policy: &mut dyn CachePolicy,
        dram: &mut HbmModel,
        on_edge: impl FnMut(u32, u32),
    ) -> CacheSimResult {
        self.run_channel(policy, dram, on_edge)
    }

    /// Runs the walk against a tiered [`MemoryHierarchy`] instead of a
    /// flat DRAM channel: every fetch/spill/reload is charged to the
    /// tier its vertex is resident in, and the per-tier accounting comes
    /// back in `CacheSimResult::tiers`.
    pub fn run_tiered(
        &self,
        policy: &mut dyn CachePolicy,
        hierarchy: &mut MemoryHierarchy,
    ) -> CacheSimResult {
        self.run_tiered_with(policy, hierarchy, |_, _| {})
    }

    /// [`CacheSim::run_tiered`] with the per-edge callback of
    /// [`CacheSim::run_with`].
    pub fn run_tiered_with(
        &self,
        policy: &mut dyn CachePolicy,
        hierarchy: &mut MemoryHierarchy,
        on_edge: impl FnMut(u32, u32),
    ) -> CacheSimResult {
        self.run_channel(policy, hierarchy, on_edge)
    }

    /// The shared walk, generic over the memory channel. The flat
    /// [`HbmModel`] impl ignores the vertex id and delegates 1:1, so the
    /// untiered paths charge byte-identically to the pre-hierarchy
    /// engine.
    fn run_channel<M: VertexMemory>(
        &self,
        policy: &mut dyn CachePolicy,
        mem: &mut M,
        mut on_edge: impl FnMut(u32, u32),
    ) -> CacheSimResult {
        let g = self.graph;
        let cfg = &self.config;
        let n = g.num_vertices();
        let total_edges = g.num_edges() as u64;
        let offsets = g.offsets();
        policy.reset(g, cfg);

        // Sharded degree scan; concatenation in shard order keeps the
        // layout identical to the serial `(0..n)` pass.
        let mut alpha: Vec<u32> = self
            .pool
            .map_ranges(n, |r| r.map(|v| g.degree(v) as u32).collect::<Vec<_>>())
            .concat();
        let mut in_cache = vec![false; n];
        let mut pinned = vec![false; n];
        let mut cached: Vec<u32> = Vec::with_capacity(cfg.capacity_vertices);
        let mut edge_done = vec![false; g.num_edges()];
        let mut spill = vec![Spill::None; n];
        // Scratch for per-iteration per-vertex edge counts.
        let mut iter_edge_count = vec![0u32; n];
        let mut touched: Vec<u32> = Vec::new();
        let mut victims: Vec<u32> = Vec::new();

        let mut result = CacheSimResult {
            policy: policy.name().to_string(),
            completed: false,
            iterations: 0,
            rounds: 0,
            edges_processed: 0,
            evictions: 0,
            partial_spills: 0,
            refetches: 0,
            fetched_vertices: 0,
            skipped_blocks: 0,
            dram_cycles: 0,
            final_gamma: cfg.gamma,
            gamma_raises: 0,
            recovery_rounds: 0,
            alpha_histograms: Vec::new(),
            iteration_stats: Vec::new(),
            counters: Default::default(),
            tiers: Vec::new(),
        };

        let mut stream_pos = 0usize; // next DRAM position to consider
        let mut edges_this_round = 0u64;
        let mut recovery_pending = false;
        let mut recovery_active = false;
        let mut recovery_exit = false;
        let max_alpha0 = alpha.iter().copied().max().unwrap_or(0).max(1);
        // Guard: generous bound on iterations so a policy bug cannot hang
        // (recovery rounds guarantee progress long before this trips).
        let max_iterations = 64 * (n as u64 / cfg.evict_per_iteration as u64 + 1)
            + 32 * (n as u64 + 32)
            + 16 * total_edges;
        let before = mem.counter_snapshot();

        // Fetches the partial sum back for a vertex that spilled one,
        // charged in the locality class its spill batch earned.
        macro_rules! reload_psum {
            ($v:expr) => {
                match spill[$v] {
                    Spill::None => {}
                    Spill::Seq => {
                        result.dram_cycles +=
                            mem.read_seq($v as u32, cfg.psum_bytes_per_vertex);
                        spill[$v] = Spill::None;
                    }
                    Spill::Rand => {
                        result.dram_cycles +=
                            mem.read_random($v as u32, cfg.psum_bytes_per_vertex);
                        spill[$v] = Spill::None;
                    }
                }
            };
        }

        while result.edges_processed < total_edges && result.iterations < max_iterations {
            result.iterations += 1;
            let now = result.iterations;
            let mut arrivals: Vec<u32> = Vec::new();

            // --- Recovery exit: the pinned round has seen the full stream;
            // the pinned vertices are fully aggregated. Release them.
            if recovery_exit {
                recovery_exit = false;
                recovery_active = false;
                victims.clear();
                victims.extend(cached.iter().copied().filter(|&v| pinned[v as usize]));
                victims.sort_unstable();
                for &v in &victims {
                    let vi = v as usize;
                    pinned[vi] = false;
                    writeback(
                        vi,
                        true,
                        g,
                        cfg,
                        &alpha,
                        &mut in_cache,
                        &mut spill,
                        &mut result,
                        mem,
                    );
                    policy.on_leave(v);
                }
                cached.retain(|&v| in_cache[v as usize]);
            }

            // --- Recovery entry (liveness, section VI dynamic scheme): a full
            // round made no progress, so the policy alone cannot help (the
            // stuck edges' endpoints never coexist). Flush the cache, pin
            // the earliest unprocessed vertices in stream order, and
            // stream everyone else past them for one round: every edge
            // incident to a pinned vertex completes, guaranteeing progress.
            if recovery_pending {
                recovery_pending = false;
                recovery_active = true;
                result.recovery_rounds += 1;
                victims.clear();
                victims.extend_from_slice(&cached);
                victims.sort_unstable();
                for &v in &victims {
                    writeback(
                        v as usize,
                        true,
                        g,
                        cfg,
                        &alpha,
                        &mut in_cache,
                        &mut spill,
                        &mut result,
                        mem,
                    );
                    policy.on_leave(v);
                }
                cached.clear();
                let quota = (cfg.capacity_vertices / 2).max(1);
                let mut pos = 0usize;
                while cached.len() < quota && pos < n {
                    if alpha[pos] > 0 {
                        let bytes = cfg.feature_bytes_per_vertex + 4 * g.degree(pos) as u64 + 4;
                        result.dram_cycles += mem.read_seq(pos as u32, bytes);
                        reload_psum!(pos);
                        in_cache[pos] = true;
                        pinned[pos] = true;
                        cached.push(pos as u32);
                        arrivals.push(pos as u32);
                        result.fetched_vertices += 1;
                        result.refetches += 1;
                        policy.on_fetch(pos as u32, now);
                    }
                    pos += 1;
                }
                stream_pos = pos;
            }

            // --- Fetch phase: fill free slots from the sequential stream.
            let mut free = cfg.capacity_vertices - cached.len();
            // A fetch pass may wrap the stream at most once per iteration.
            let mut wrapped_this_iter = false;
            while free > 0 {
                if stream_pos >= n {
                    // Round boundary.
                    stream_pos = 0;
                    result.rounds += 1;
                    policy.on_round(result.rounds);
                    if (result.alpha_histograms.len()) < cfg.max_alpha_hist_rounds {
                        result
                            .alpha_histograms
                            .push(alpha_histogram(&alpha, max_alpha0, self.pool));
                    }
                    if recovery_active {
                        // The pinned round is complete; release the pins at
                        // the top of the next iteration (this iteration's
                        // arrivals still need processing).
                        recovery_exit = true;
                        break;
                    }
                    if wrapped_this_iter {
                        // Nothing fetchable anywhere in the stream.
                        break;
                    }
                    wrapped_this_iter = true;
                    // Zero-progress round with work remaining: schedule a
                    // recovery round (no replacement decision can fix a
                    // thrashing working set).
                    if edges_this_round == 0 && result.edges_processed < total_edges {
                        recovery_pending = true;
                        break;
                    }
                    edges_this_round = 0;
                }
                // Block skipping: if the whole block starting here is done,
                // jump it without traffic.
                if stream_pos % cfg.vertices_per_block == 0 {
                    let end = (stream_pos + cfg.vertices_per_block).min(n);
                    if (stream_pos..end).all(|v| alpha[v] == 0 || in_cache[v]) {
                        if (stream_pos..end).any(|v| alpha[v] == 0) {
                            result.skipped_blocks += 1;
                        }
                        stream_pos = end;
                        continue;
                    }
                }
                let v = stream_pos;
                stream_pos += 1;
                if alpha[v] == 0 || in_cache[v] {
                    continue;
                }
                // Sequential fetch of the vertex payload: features +
                // connectivity (4 B per neighbor) + alpha word, plus the
                // spilled partial sum when one exists.
                let bytes = cfg.feature_bytes_per_vertex + 4 * g.degree(v) as u64 + 4;
                result.dram_cycles += mem.read_seq(v as u32, bytes);
                reload_psum!(v);
                in_cache[v] = true;
                cached.push(v as u32);
                arrivals.push(v as u32);
                result.fetched_vertices += 1;
                if result.rounds > 0 {
                    result.refetches += 1;
                }
                policy.on_fetch(v as u32, now);
                free -= 1;
            }

            // --- Process phase: edges between arrivals and the cache.
            let mut iter_edges = 0u64;
            for &w in &arrivals {
                let w = w as usize;
                for (i, &x) in g.neighbors(w).iter().enumerate() {
                    let x = x as usize;
                    if !in_cache[x] {
                        continue;
                    }
                    let eid = self.edge_ids[offsets[w] + i] as usize;
                    if edge_done[eid] {
                        continue;
                    }
                    edge_done[eid] = true;
                    alpha[w] -= 1;
                    alpha[x] -= 1;
                    on_edge(w as u32, x as u32);
                    policy.on_edge(w as u32, x as u32, now);
                    iter_edges += 1;
                    for y in [w, x] {
                        if iter_edge_count[y] == 0 {
                            touched.push(y as u32);
                        }
                        iter_edge_count[y] += 1;
                    }
                }
            }
            result.edges_processed += iter_edges;
            edges_this_round += iter_edges;
            let max_vertex_edges =
                touched.iter().map(|&v| iter_edge_count[v as usize]).max().unwrap_or(0);
            // Vertices that just completed (alpha = 0) retire immediately:
            // their aggregated result leaves through the output buffer and
            // the slot frees for the stream (section VI: "when alpha_i = 0,
            // h_i is fully computed"). Pinned vertices wait for the
            // recovery exit instead.
            let mut retired_any = false;
            for &v in &touched {
                let vi = v as usize;
                iter_edge_count[vi] = 0;
                if alpha[vi] == 0 && in_cache[vi] && !pinned[vi] {
                    in_cache[vi] = false;
                    retired_any = true;
                    policy.on_leave(v);
                }
            }
            if retired_any {
                cached.retain(|&v| in_cache[v as usize]);
            }
            touched.clear();
            result.iteration_stats.push(IterationStats {
                edges: iter_edges,
                arrivals: arrivals.len() as u32,
                max_vertex_edges,
            });

            if result.edges_processed >= total_edges {
                break;
            }

            // --- Evict phase.
            if recovery_active {
                // Stream mode: everything unpinned leaves so the next batch
                // can flow past the pinned set.
                victims.clear();
                victims.extend(cached.iter().copied().filter(|&v| !pinned[v as usize]));
                victims.sort_unstable();
                for &v in &victims {
                    writeback(
                        v as usize,
                        true,
                        g,
                        cfg,
                        &alpha,
                        &mut in_cache,
                        &mut spill,
                        &mut result,
                        mem,
                    );
                    policy.on_leave(v);
                }
                cached.retain(|&v| in_cache[v as usize]);
                continue;
            }
            // Normal operation: the policy picks up to r victims. Fully
            // processed vertices already retired above, so eviction only
            // ever touches unfinished ones.
            victims.clear();
            {
                let ctx = PolicyCtx {
                    graph: g,
                    config: cfg,
                    alpha: &alpha,
                    in_cache: &in_cache,
                    edge_done: &edge_done,
                    edge_ids: self.edge_ids,
                    stream_pos,
                    round: result.rounds,
                };
                policy.select_victims(&cached, cfg.evict_per_iteration, &ctx, &mut victims);
                victims.retain(|&v| ctx.in_cache[v as usize] && !pinned[v as usize]);
                victims.truncate(cfg.evict_per_iteration);
                if victims.is_empty() {
                    if cached.len() < cfg.capacity_vertices {
                        // Room in the cache: nothing to do this iteration.
                        continue;
                    }
                    // Deadlock: full cache, nothing evictable. Ask the
                    // policy to adapt (the paper's dynamic γ raise)...
                    if policy.on_deadlock(&ctx) {
                        result.gamma_raises += 1;
                        continue;
                    }
                    // ...or force-evict the earliest entry for liveness.
                    if let Some(&v) = cached.iter().min() {
                        victims.push(v);
                    }
                }
            }
            // An address-ordered batch streams its writebacks; anything
            // else scatters them (the per-policy seq/random split).
            let ordered = victims.windows(2).all(|w| w[0] < w[1]);
            for &v in &victims {
                let vi = v as usize;
                if !in_cache[vi] {
                    continue; // duplicate victim from a sloppy policy
                }
                writeback(
                    vi,
                    ordered,
                    g,
                    cfg,
                    &alpha,
                    &mut in_cache,
                    &mut spill,
                    &mut result,
                    mem,
                );
                policy.on_leave(v);
            }
            // One linear pass drops every victim; `cached` keeps arrival
            // order, which no policy ranks by (see `select_victims`).
            cached.retain(|&v| in_cache[v as usize]);
        }

        result.completed = result.edges_processed == total_edges;
        result.final_gamma = policy.current_gamma().unwrap_or(cfg.gamma);
        result.tiers = mem.tier_stats();
        let mut delta = mem.counter_snapshot();
        // Attribute only this run's traffic.
        delta.seq_read_bytes -= before.seq_read_bytes;
        delta.seq_write_bytes -= before.seq_write_bytes;
        delta.rand_read_bytes -= before.rand_read_bytes;
        delta.rand_write_bytes -= before.rand_write_bytes;
        delta.rand_transactions -= before.rand_transactions;
        result.counters = delta;
        result
    }
}

/// The per-Round α histogram over every still-unfinished vertex, sharded:
/// per-range histograms are accumulated independently and merged in shard
/// order, reproducing the single-pass histogram bin for bin (binning is a
/// pure function of the sample value).
fn alpha_histogram(alpha: &[u32], max_alpha0: u32, pool: &SimPool) -> Histogram {
    let hi = (max_alpha0 + 1) as f64;
    let bins = 128.min(max_alpha0 as usize + 1);
    let parts = pool.map_ranges(alpha.len(), |r| {
        Histogram::from_values(
            0.0,
            hi,
            bins,
            alpha[r].iter().filter(|&&a| a > 0).map(|&a| a as f64),
        )
    });
    let mut merged = Histogram::new(0.0, hi, bins);
    for part in &parts {
        merged.merge(part);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::super::build_edge_index;
    use super::super::policy::{BeladyOracle, CachePolicyKind, PaperAlphaGamma};
    use super::*;
    use gnnie_graph::generate;
    use gnnie_graph::reorder::Permutation;

    fn reordered(g: &CsrGraph) -> CsrGraph {
        Permutation::descending_degree(g).apply(g)
    }

    fn run_kind(g: &CsrGraph, cfg: CacheConfig, kind: CachePolicyKind) -> CacheSimResult {
        run_on(g, cfg, kind, &SimPool::serial())
    }

    fn run_on(
        g: &CsrGraph,
        cfg: CacheConfig,
        kind: CachePolicyKind,
        pool: &SimPool,
    ) -> CacheSimResult {
        let mut dram = HbmModel::hbm2_256gbps(1.3e9);
        let mut policy = kind.instantiate();
        let ids = build_edge_index(g);
        CacheSim::new(g, &ids, cfg, pool).run(policy.as_mut(), &mut dram)
    }

    #[test]
    fn every_policy_completes_the_walk() {
        let g = reordered(&generate::powerlaw_chung_lu(300, 1500, 2.0, 3));
        for kind in CachePolicyKind::ALL {
            let r = run_kind(&g, CacheConfig::with_capacity(32, 64), kind);
            assert!(r.completed, "{kind} did not finish");
            assert_eq!(r.edges_processed, g.num_edges() as u64, "{kind}");
            assert_eq!(r.policy, kind.name());
        }
    }

    #[test]
    fn paper_policy_stays_fully_sequential_others_may_scatter() {
        let g = reordered(&generate::powerlaw_chung_lu(400, 2400, 2.0, 11));
        let cfg = CacheConfig::with_capacity(40, 64);
        let paper = run_kind(&g, cfg, CachePolicyKind::Paper);
        assert_eq!(paper.counters.random_bytes(), 0, "paper policy is all-sequential");
        let lru = run_kind(&g, cfg, CachePolicyKind::Lru);
        assert!(lru.completed);
        // LRU's recency-ordered victim batches scatter at least some
        // writebacks on a power-law graph this size.
        assert!(
            lru.counters.random_bytes() > 0,
            "LRU should scatter some writebacks: {:?}",
            lru.counters
        );
    }

    #[test]
    fn belady_never_evicts_below_capacity() {
        // Whole graph fits: the oracle performs zero evictions.
        let g = reordered(&generate::erdos_renyi(40, 100, 7));
        let r = run_kind(&g, CacheConfig::with_capacity(40, 64), CachePolicyKind::Belady);
        assert!(r.completed);
        assert_eq!(r.evictions, 0);
        assert_eq!(r.refetches, 0);
    }

    #[test]
    fn belady_beats_lru_and_lfu_on_evictions() {
        let g = reordered(&generate::powerlaw_chung_lu(500, 3000, 2.0, 17));
        let cfg = CacheConfig::with_capacity(48, 64);
        let belady = run_kind(&g, cfg, CachePolicyKind::Belady);
        let lru = run_kind(&g, cfg, CachePolicyKind::Lru);
        let lfu = run_kind(&g, cfg, CachePolicyKind::Lfu);
        assert!(belady.completed && lru.completed && lfu.completed);
        assert!(
            belady.evictions <= lru.evictions && belady.evictions <= lfu.evictions,
            "belady {} vs lru {} / lfu {}",
            belady.evictions,
            lru.evictions,
            lfu.evictions
        );
    }

    #[test]
    fn identical_walk_for_wrapper_and_explicit_paper_policy() {
        let g = reordered(&generate::powerlaw_chung_lu(250, 1200, 2.1, 5));
        let cfg = CacheConfig::with_capacity(24, 64);
        let via_sim = run_kind(&g, cfg, CachePolicyKind::Paper);
        let mut dram = HbmModel::hbm2_256gbps(1.3e9);
        let mut policy = PaperAlphaGamma::new();
        let ids = build_edge_index(&g);
        let direct =
            CacheSim::new(&g, &ids, cfg, &SimPool::serial()).run(&mut policy, &mut dram);
        assert_eq!(via_sim.iterations, direct.iterations);
        assert_eq!(via_sim.evictions, direct.evictions);
        assert_eq!(via_sim.counters, direct.counters);
    }

    #[test]
    fn walk_results_are_identical_at_any_thread_count() {
        use crate::SimThreads;
        // 600 vertices: a width-2 pool shards the per-vertex scans on its
        // workers; wider pools run the same ranges inline. Each pool walks
        // every policy, so one set of workers serves many walks.
        let g = reordered(&generate::powerlaw_chung_lu(600, 3600, 2.0, 31));
        let cfg = CacheConfig::with_capacity(40, 64);
        let serial: Vec<String> = CachePolicyKind::ALL
            .iter()
            .map(|&kind| format!("{:?}", run_kind(&g, cfg, kind)))
            .collect();
        for threads in [2usize, 4, 8] {
            let pool = SimPool::new(SimThreads::Fixed(threads));
            for (kind, serial) in CachePolicyKind::ALL.into_iter().zip(&serial) {
                let sharded = format!("{:?}", run_on(&g, cfg, kind, &pool));
                assert_eq!(*serial, sharded, "{kind} diverged at {threads} threads");
            }
        }
    }

    #[test]
    fn oracle_uses_the_stream_distance_not_raw_ids() {
        // Regression guard on the wrap-around arithmetic.
        let g = reordered(&generate::powerlaw_chung_lu(200, 1000, 2.0, 23));
        let mut dram = HbmModel::hbm2_256gbps(1.3e9);
        let mut policy = BeladyOracle::new();
        let pool = SimPool::serial();
        let ids = build_edge_index(&g);
        let r = CacheSim::new(&g, &ids, CacheConfig::with_capacity(16, 32), &pool)
            .run(&mut policy, &mut dram);
        assert!(r.completed);
    }
}
