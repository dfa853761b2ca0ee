//! Pluggable eviction/admission policies for the cache walk.
//!
//! [`CacheSim`](super::CacheSim) owns everything every policy shares — the
//! sequential DRAM stream walk, block skipping, psum spill accounting, α
//! histograms, liveness recovery — and delegates the *replacement
//! decision* to a [`CachePolicy`]. Six policies ship:
//!
//! * [`PaperAlphaGamma`] — the paper's §VI policy: evict vertices whose
//!   unprocessed-edge count α fell below γ, in dictionary order, raising
//!   γ dynamically on deadlock;
//! * [`Lru`] — least-recently-used by last processed edge;
//! * [`Lfu`] — least-frequently-used by edges processed while resident;
//! * [`BeladyOracle`] — the offline comparator: evict the vertex whose
//!   next use lies furthest ahead in the edge-processing schedule;
//! * [`DegreePinned`] — the α/γ policy with a fixed quota of top-degree
//!   vertices statically pinned resident;
//! * [`WorkloadSplit`] — degree pinning with the quota sized by a
//!   profiling pre-pass over the graph's edge-coverage CDF (the same
//!   pre-pass the tiered hierarchy's workload-aware capacity splitter
//!   uses, see [`crate::tier`]).
//!
//! All of them are driven by the same walk and measured under identical
//! traffic accounting, so their [`CacheSimResult`](super::CacheSimResult)s
//! are directly comparable (the Ginex/DCI-style ablation).

use serde::{Deserialize, Serialize};

use gnnie_graph::CsrGraph;

use super::CacheConfig;

/// Read-only simulation state handed to the policy's decision hooks.
///
/// `alpha[v]` is vertex `v`'s unprocessed-edge count; `edge_done[e]`
/// (indexed through `edge_ids`, see
/// [`build_edge_index`](super::build_edge_index)) tells whether undirected
/// edge `e` has been processed; `stream_pos` is the DRAM stream position
/// the next fetch will be served from.
#[derive(Debug)]
pub struct PolicyCtx<'a> {
    /// The (degree-ordered) graph being walked.
    pub graph: &'a CsrGraph,
    /// The simulation configuration.
    pub config: &'a CacheConfig,
    /// Per-vertex unprocessed-edge counts.
    pub alpha: &'a [u32],
    /// Per-vertex residency flags.
    pub in_cache: &'a [bool],
    /// Per-undirected-edge completion flags.
    pub edge_done: &'a [bool],
    /// CSR-position → undirected-edge-id map.
    pub edge_ids: &'a [u32],
    /// Next DRAM stream position to be fetched.
    pub stream_pos: usize,
    /// Completed Rounds so far.
    pub round: u32,
}

impl PolicyCtx<'_> {
    /// `true` once the cache holds its full vertex budget.
    pub fn cache_full(&self, cached: &[u32]) -> bool {
        cached.len() >= self.config.capacity_vertices
    }

    /// Stream distance from `stream_pos` to vertex `v`'s next visit
    /// (wrapping around the Round boundary).
    pub fn stream_distance(&self, v: u32) -> u64 {
        let n = self.graph.num_vertices();
        let v = v as usize;
        if v >= self.stream_pos {
            (v - self.stream_pos) as u64
        } else {
            (v + n - self.stream_pos) as u64
        }
    }
}

/// A cache replacement policy driven by [`CacheSim`](super::CacheSim).
///
/// The simulator calls [`reset`](CachePolicy::reset) once, then notifies
/// the policy of fetches, processed edges, departures, and Round
/// boundaries, and asks it each iteration to
/// [`select_victims`](CachePolicy::select_victims). An empty victim set on
/// a full cache triggers [`on_deadlock`](CachePolicy::on_deadlock); a
/// policy that cannot adapt lets the simulator force-evict instead, so
/// termination never depends on the policy being well-behaved.
///
/// # Example: a minimal custom policy
///
/// A FIFO policy that evicts in arrival order once the cache is full:
///
/// ```
/// use std::collections::VecDeque;
///
/// use gnnie_graph::CsrGraph;
/// use gnnie_mem::cache::{build_edge_index, CacheConfig, CachePolicy, CacheSim, PolicyCtx};
/// use gnnie_mem::{HbmModel, SimPool};
///
/// #[derive(Default)]
/// struct Fifo {
///     queue: VecDeque<u32>,
/// }
///
/// impl CachePolicy for Fifo {
///     fn name(&self) -> &'static str {
///         "fifo"
///     }
///     fn reset(&mut self, _graph: &CsrGraph, _config: &CacheConfig) {
///         self.queue.clear();
///     }
///     fn on_fetch(&mut self, v: u32, _now: u64) {
///         self.queue.push_back(v);
///     }
///     fn on_leave(&mut self, v: u32) {
///         self.queue.retain(|&q| q != v);
///     }
///     fn select_victims(
///         &mut self,
///         cached: &[u32],
///         max_victims: usize,
///         ctx: &PolicyCtx,
///         out: &mut Vec<u32>,
///     ) {
///         if ctx.cache_full(cached) {
///             out.extend(self.queue.iter().copied().take(max_victims));
///         }
///     }
/// }
///
/// let g = CsrGraph::from_edges(8, (0..7u32).map(|i| (i, i + 1)));
/// let mut dram = HbmModel::hbm2_256gbps(1.3e9);
/// let ids = build_edge_index(&g);
/// let result = CacheSim::new(&g, &ids, CacheConfig::with_capacity(4, 32), &SimPool::serial())
///     .run(&mut Fifo::default(), &mut dram);
/// assert!(result.completed);
/// assert_eq!(result.policy, "fifo");
/// ```
pub trait CachePolicy {
    /// Short lowercase policy name, recorded in the result.
    fn name(&self) -> &'static str;

    /// Called once before the walk begins; (re)initialize all state.
    fn reset(&mut self, graph: &CsrGraph, config: &CacheConfig);

    /// Vertex `v` arrived in the cache at event time `now`.
    fn on_fetch(&mut self, _v: u32, _now: u64) {}

    /// Undirected edge `(u, v)` between two cached vertices was processed
    /// at event time `now` (α of both endpoints already decremented).
    fn on_edge(&mut self, _u: u32, _v: u32, _now: u64) {}

    /// Vertex `v` left the cache (eviction or α = 0 retirement).
    fn on_leave(&mut self, _v: u32) {}

    /// A Round (full pass over the DRAM stream) completed.
    fn on_round(&mut self, _round: u32) {}

    /// Appends up to `max_victims` eviction victims from `cached` to
    /// `out`, in eviction order. Returning no victims while the cache is
    /// full stalls the stream (see [`on_deadlock`](CachePolicy::on_deadlock)).
    ///
    /// `cached` holds the resident set, each vertex once, in arrival
    /// order: removals (evictions, retirements) keep the survivors'
    /// relative order. That order carries no ranking — a policy must
    /// order its own victims, by id, by its own key, or by state it
    /// keeps itself (as the FIFO example above does with its queue).
    fn select_victims(
        &mut self,
        cached: &[u32],
        max_victims: usize,
        ctx: &PolicyCtx,
        out: &mut Vec<u32>,
    );

    /// The cache is full and [`select_victims`](CachePolicy::select_victims)
    /// returned nothing. Return `true` after adapting internal state (the
    /// paper's dynamic γ raise) to be consulted again next iteration;
    /// return `false` to let the simulator force-evict for liveness.
    fn on_deadlock(&mut self, _ctx: &PolicyCtx) -> bool {
        false
    }

    /// The current γ threshold, for policies that have one (fills
    /// [`CacheSimResult::final_gamma`](super::CacheSimResult::final_gamma)).
    fn current_gamma(&self) -> Option<u32> {
        None
    }
}

/// Keeps the `k` least entries of `out[start..]` under `key`, sorted
/// ascending — what a full sort followed by a truncation to `start + k`
/// leaves — with a linear partial select and a sort of the `k`
/// survivors only. `key` must be injective over the entries, so the
/// result does not depend on their incoming order.
fn keep_least_sorted<K: Ord>(
    out: &mut Vec<u32>,
    start: usize,
    k: usize,
    key: impl Fn(u32) -> K,
) {
    if k == 0 {
        out.truncate(start);
        return;
    }
    let tail = &mut out[start..];
    if tail.len() > k {
        tail.select_nth_unstable_by_key(k - 1, |&v| key(v));
        out.truncate(start + k);
    }
    out[start..].sort_unstable_by_key(|&v| key(v));
}

/// The α/γ rule shared by [`PaperAlphaGamma`], [`DegreePinned`] and
/// [`WorkloadSplit`]: victims are the cached vertices with `α < γ` at or
/// above the pin quota (0 pins nothing), in dictionary order; deadlock
/// raises γ.
#[derive(Debug, Clone, Default)]
struct AlphaGamma {
    gamma: u32,
    quota: u32,
}

impl AlphaGamma {
    fn select_victims(
        &self,
        cached: &[u32],
        max_victims: usize,
        alpha: &[u32],
        out: &mut Vec<u32>,
    ) {
        let start = out.len();
        out.extend(
            cached
                .iter()
                .copied()
                .filter(|&v| v >= self.quota && alpha[v as usize] < self.gamma),
        );
        keep_least_sorted(out, start, max_victims, |v| v);
    }

    /// The paper's dynamic raise: double γ (at least +1) and retry.
    fn on_deadlock(&mut self) -> bool {
        self.gamma = self.gamma.saturating_mul(2).max(self.gamma.saturating_add(1));
        true
    }
}

/// The paper's §VI degree-aware policy: evict cached vertices with
/// `α < γ` (up to `r` per iteration, dictionary order); on deadlock —
/// full cache, nothing below threshold — double γ and retry.
#[derive(Debug, Clone, Default)]
pub struct PaperAlphaGamma {
    rule: AlphaGamma,
}

impl PaperAlphaGamma {
    /// Creates the policy; γ is taken from the [`CacheConfig`] at reset.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CachePolicy for PaperAlphaGamma {
    fn name(&self) -> &'static str {
        "paper"
    }

    fn reset(&mut self, _graph: &CsrGraph, config: &CacheConfig) {
        self.rule = AlphaGamma { gamma: config.gamma, quota: 0 };
    }

    fn select_victims(
        &mut self,
        cached: &[u32],
        max_victims: usize,
        ctx: &PolicyCtx,
        out: &mut Vec<u32>,
    ) {
        self.rule.select_victims(cached, max_victims, ctx.alpha, out);
    }

    fn on_deadlock(&mut self, _ctx: &PolicyCtx) -> bool {
        self.rule.on_deadlock()
    }

    fn current_gamma(&self) -> Option<u32> {
        Some(self.rule.gamma)
    }
}

/// Shared LRU/LFU victim shape: the `max_victims` cached vertices with
/// the smallest score, ties broken by id for determinism.
fn evict_least_by_key<K: Ord>(
    cached: &[u32],
    max_victims: usize,
    key: impl Fn(u32) -> K,
    out: &mut Vec<u32>,
) {
    let start = out.len();
    out.extend_from_slice(cached);
    keep_least_sorted(out, start, max_victims, |v| (key(v), v));
}

/// Least-recently-used: once the cache is full, evict the vertices whose
/// last touch (fetch or processed edge) lies furthest in the past.
#[derive(Debug, Clone, Default)]
pub struct Lru {
    last_touch: Vec<u64>,
    clock: u64,
}

impl Lru {
    /// Creates an LRU comparator.
    pub fn new() -> Self {
        Self::default()
    }

    fn touch(&mut self, v: u32) {
        self.clock += 1;
        self.last_touch[v as usize] = self.clock;
    }
}

impl CachePolicy for Lru {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn reset(&mut self, graph: &CsrGraph, _config: &CacheConfig) {
        self.last_touch = vec![0; graph.num_vertices()];
        self.clock = 0;
    }

    fn on_fetch(&mut self, v: u32, _now: u64) {
        self.touch(v);
    }

    fn on_edge(&mut self, u: u32, v: u32, _now: u64) {
        self.touch(u);
        self.touch(v);
    }

    fn select_victims(
        &mut self,
        cached: &[u32],
        max_victims: usize,
        ctx: &PolicyCtx,
        out: &mut Vec<u32>,
    ) {
        if !ctx.cache_full(cached) {
            return;
        }
        evict_least_by_key(cached, max_victims, |v| self.last_touch[v as usize], out);
    }
}

/// Least-frequently-used: once the cache is full, evict the vertices with
/// the fewest edges processed while resident (cumulative across
/// residencies, so refetched hubs keep their history).
#[derive(Debug, Clone, Default)]
pub struct Lfu {
    freq: Vec<u64>,
}

impl Lfu {
    /// Creates an LFU comparator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CachePolicy for Lfu {
    fn name(&self) -> &'static str {
        "lfu"
    }

    fn reset(&mut self, graph: &CsrGraph, _config: &CacheConfig) {
        self.freq = vec![0; graph.num_vertices()];
    }

    fn on_edge(&mut self, u: u32, v: u32, _now: u64) {
        self.freq[u as usize] += 1;
        self.freq[v as usize] += 1;
    }

    fn select_victims(
        &mut self,
        cached: &[u32],
        max_victims: usize,
        ctx: &PolicyCtx,
        out: &mut Vec<u32>,
    ) {
        if !ctx.cache_full(cached) {
            return;
        }
        evict_least_by_key(cached, max_victims, |v| self.freq[v as usize], out);
    }
}

/// The offline Belady comparator: evict the cached vertex whose **next
/// use lies furthest ahead in the edge-processing schedule**.
///
/// The schedule is the sequential stream walk itself: a cached vertex's
/// remaining edges become processable when their (uncached) partner is
/// next fetched, i.e. at the partner's stream position. The oracle reads
/// the per-edge completion state the simulator maintains — the next-use
/// distance of vertex `v` at stream position `p` is the smallest wrapped
/// distance from `p` to any partner of an unprocessed edge of `v` — and
/// evicts the furthest-out vertices first, the Belady/MIN rule on this
/// reference stream (cf. Ginex's provably-optimal in-memory cache).
///
/// Unlike the batch-evicting comparators it surrenders at most **one**
/// vertex per iteration, and only once the cache is full — retirements
/// free the remaining slots the stream needs — so it never creates
/// avoidable refetch traffic and bounds the eviction count of any
/// realizable policy from below.
#[derive(Debug, Clone, Default)]
pub struct BeladyOracle;

impl BeladyOracle {
    /// Creates the oracle; next-use distances are derived on demand from
    /// the simulator's edge-completion state.
    pub fn new() -> Self {
        Self
    }
}

impl CachePolicy for BeladyOracle {
    fn name(&self) -> &'static str {
        "belady"
    }

    fn reset(&mut self, _graph: &CsrGraph, _config: &CacheConfig) {}

    fn select_victims(
        &mut self,
        cached: &[u32],
        max_victims: usize,
        ctx: &PolicyCtx,
        out: &mut Vec<u32>,
    ) {
        if !ctx.cache_full(cached) || max_victims == 0 {
            return;
        }
        let g = ctx.graph;
        let offsets = g.offsets();
        // Lazy MIN: surrender only the single furthest-needed vertex per
        // iteration (retirements free the remaining slots the stream
        // needs), so no avoidable refetch traffic is ever created. Ties
        // broken toward the smallest id for determinism.
        let furthest = cached
            .iter()
            .map(|&v| {
                let vi = v as usize;
                // Soonest next use of v: the nearest (in wrapped stream
                // distance) partner of a still-unprocessed edge. A vertex
                // with no remaining uses scores u64::MAX and leads.
                let mut next = u64::MAX;
                for (i, &u) in g.neighbors(vi).iter().enumerate() {
                    if ctx.edge_done[ctx.edge_ids[offsets[vi] + i] as usize] {
                        continue;
                    }
                    next = next.min(ctx.stream_distance(u));
                }
                (next, v)
            })
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        if let Some((_, v)) = furthest {
            out.push(v);
        }
    }
}

/// The α/γ policy with **degree-based static pinning**: the `quota`
/// lowest-id vertices — the highest-degree ones, under the engine's
/// descending-degree relabeling — are never selected as victims, so the
/// hubs every Round touches stay resident across the whole walk (the
/// classic degree-property cache). Everything else behaves exactly like
/// [`PaperAlphaGamma`], dictionary-order batches included, so DRAM
/// traffic stays sequential.
#[derive(Debug, Clone, Default)]
pub struct DegreePinned {
    rule: AlphaGamma,
}

impl DegreePinned {
    /// Creates the policy; the pin quota (a quarter of the cache) and γ
    /// are derived from the [`CacheConfig`] at reset.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CachePolicy for DegreePinned {
    fn name(&self) -> &'static str {
        "pinned"
    }

    fn reset(&mut self, _graph: &CsrGraph, config: &CacheConfig) {
        let quota = (config.capacity_vertices / 4) as u32;
        self.rule = AlphaGamma { gamma: config.gamma, quota };
    }

    fn select_victims(
        &mut self,
        cached: &[u32],
        max_victims: usize,
        ctx: &PolicyCtx,
        out: &mut Vec<u32>,
    ) {
        self.rule.select_victims(cached, max_victims, ctx.alpha, out);
    }

    fn on_deadlock(&mut self, _ctx: &PolicyCtx) -> bool {
        self.rule.on_deadlock()
    }

    fn current_gamma(&self) -> Option<u32> {
        Some(self.rule.gamma)
    }
}

/// [`DegreePinned`] with a **workload-aware** pin quota: at reset, a
/// profiling pre-pass finds the hot vertex prefix covering half of all
/// edge endpoints ([`crate::tier::hot_prefix_len`] — the same pre-pass
/// that sizes the tiered hierarchy's on-chip budget) and pins exactly
/// that, clamped to half the cache so the stream always has working
/// room. Skewed graphs pin a handful of hubs; uniform graphs degrade
/// toward the plain α/γ policy.
#[derive(Debug, Clone, Default)]
pub struct WorkloadSplit {
    rule: AlphaGamma,
}

impl WorkloadSplit {
    /// Creates the policy; the quota is profiled from the graph at reset.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CachePolicy for WorkloadSplit {
    fn name(&self) -> &'static str {
        "split"
    }

    fn reset(&mut self, graph: &CsrGraph, config: &CacheConfig) {
        let hot = crate::tier::hot_prefix_len(graph, 1, 2);
        let quota = hot.min((config.capacity_vertices / 2) as u64) as u32;
        self.rule = AlphaGamma { gamma: config.gamma, quota };
    }

    fn select_victims(
        &mut self,
        cached: &[u32],
        max_victims: usize,
        ctx: &PolicyCtx,
        out: &mut Vec<u32>,
    ) {
        self.rule.select_victims(cached, max_victims, ctx.alpha, out);
    }

    fn on_deadlock(&mut self, _ctx: &PolicyCtx) -> bool {
        self.rule.on_deadlock()
    }

    fn current_gamma(&self) -> Option<u32> {
        Some(self.rule.gamma)
    }
}

/// Selectable policy kind, threaded through `AcceleratorConfig` and the
/// `gnnie` CLI (`--cache-policy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CachePolicyKind {
    /// The paper's α/γ degree-aware policy ([`PaperAlphaGamma`]).
    Paper,
    /// Least-recently-used ([`Lru`]).
    Lru,
    /// Least-frequently-used ([`Lfu`]).
    Lfu,
    /// Offline Belady/MIN oracle ([`BeladyOracle`]).
    Belady,
    /// α/γ with a static top-degree pin quota ([`DegreePinned`]).
    Pinned,
    /// α/γ with a workload-profiled pin quota ([`WorkloadSplit`]).
    Split,
}

impl CachePolicyKind {
    /// All kinds, paper first (ablation sweep order).
    pub const ALL: [CachePolicyKind; 6] = [
        CachePolicyKind::Paper,
        CachePolicyKind::Lru,
        CachePolicyKind::Lfu,
        CachePolicyKind::Belady,
        CachePolicyKind::Pinned,
        CachePolicyKind::Split,
    ];

    /// The CLI/Display token for this kind.
    pub fn name(self) -> &'static str {
        match self {
            CachePolicyKind::Paper => "paper",
            CachePolicyKind::Lru => "lru",
            CachePolicyKind::Lfu => "lfu",
            CachePolicyKind::Belady => "belady",
            CachePolicyKind::Pinned => "pinned",
            CachePolicyKind::Split => "split",
        }
    }

    /// Instantiates a fresh policy of this kind (the paper policy reads
    /// γ from the [`CacheConfig`] at reset).
    pub fn instantiate(self) -> Box<dyn CachePolicy> {
        match self {
            CachePolicyKind::Paper => Box::new(PaperAlphaGamma::new()),
            CachePolicyKind::Lru => Box::new(Lru::new()),
            CachePolicyKind::Lfu => Box::new(Lfu::new()),
            CachePolicyKind::Belady => Box::new(BeladyOracle::new()),
            CachePolicyKind::Pinned => Box::new(DegreePinned::new()),
            CachePolicyKind::Split => Box::new(WorkloadSplit::new()),
        }
    }
}

impl std::fmt::Display for CachePolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for CachePolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "paper" | "alpha-gamma" | "gnnie" => Ok(CachePolicyKind::Paper),
            "lru" => Ok(CachePolicyKind::Lru),
            "lfu" => Ok(CachePolicyKind::Lfu),
            "belady" | "opt" | "min" => Ok(CachePolicyKind::Belady),
            "pinned" | "degree-pinned" => Ok(CachePolicyKind::Pinned),
            "split" | "workload-split" => Ok(CachePolicyKind::Split),
            other => Err(format!(
                "unknown cache policy `{other}` (use paper|lru|lfu|belady|pinned|split)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn ctx_fixture<'a>(
        graph: &'a CsrGraph,
        config: &'a CacheConfig,
        alpha: &'a [u32],
        in_cache: &'a [bool],
        edge_done: &'a [bool],
        edge_ids: &'a [u32],
    ) -> PolicyCtx<'a> {
        PolicyCtx {
            graph,
            config,
            alpha,
            in_cache,
            edge_done,
            edge_ids,
            stream_pos: 0,
            round: 0,
        }
    }

    #[test]
    fn kind_roundtrips_through_strings() {
        for kind in CachePolicyKind::ALL {
            assert_eq!(kind.name().parse::<CachePolicyKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!("BELADY".parse::<CachePolicyKind>().unwrap(), CachePolicyKind::Belady);
        assert!("arc".parse::<CachePolicyKind>().is_err());
    }

    #[test]
    fn instantiated_policies_report_matching_names() {
        for kind in CachePolicyKind::ALL {
            assert_eq!(kind.instantiate().name(), kind.name());
        }
    }

    #[test]
    fn paper_policy_selects_below_gamma_in_dictionary_order() {
        let g = CsrGraph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let cfg = CacheConfig::with_capacity(4, 32);
        let edge_ids = super::super::build_edge_index(&g);
        let alpha = [1, 9, 2, 9, 1, 0];
        let in_cache = [true, true, true, true, true, false];
        let edge_done = vec![false; g.num_edges()];
        let ctx = ctx_fixture(&g, &cfg, &alpha, &in_cache, &edge_done, &edge_ids);
        let mut p = PaperAlphaGamma::new();
        p.reset(&g, &cfg);
        let mut out = Vec::new();
        p.select_victims(&[4, 0, 2, 1], 8, &ctx, &mut out);
        assert_eq!(out, vec![0, 2, 4], "α < 5 victims in dictionary order");
        // Deadlock raises γ and asks for a retry.
        assert!(p.on_deadlock(&ctx));
        assert_eq!(p.current_gamma(), Some(10));
    }

    #[test]
    fn lru_evicts_oldest_touch_only_when_full() {
        let g = CsrGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let cfg = CacheConfig::with_capacity(3, 32);
        let edge_ids = super::super::build_edge_index(&g);
        let alpha = [1, 2, 2, 1];
        let in_cache = [true, true, true, false];
        let edge_done = vec![false; g.num_edges()];
        let ctx = ctx_fixture(&g, &cfg, &alpha, &in_cache, &edge_done, &edge_ids);
        let mut p = Lru::new();
        p.reset(&g, &cfg);
        p.on_fetch(2, 1);
        p.on_fetch(0, 2);
        p.on_edge(1, 2, 3);
        let mut out = Vec::new();
        p.select_victims(&[0, 1, 2], 2, &ctx, &mut out);
        assert_eq!(out, vec![0, 1], "vertex 2 was touched last");
        out.clear();
        p.select_victims(&[0, 1], 2, &ctx, &mut out);
        assert!(out.is_empty(), "LRU never evicts below capacity");
    }

    #[test]
    fn pinned_policies_never_surrender_their_quota() {
        // Star around vertex 0: the hot prefix is one vertex, so both
        // pinning policies protect vertex 0 and surrender the rest.
        let g = CsrGraph::from_edges(8, (1..8u32).map(|v| (0, v)));
        let cfg = CacheConfig::with_capacity(8, 32);
        let edge_ids = super::super::build_edge_index(&g);
        let alpha = [1u32; 8];
        let in_cache = [true; 8];
        let edge_done = vec![false; g.num_edges()];
        let ctx = ctx_fixture(&g, &cfg, &alpha, &in_cache, &edge_done, &edge_ids);
        let cached: Vec<u32> = (0..8).collect();

        let mut pinned = DegreePinned::new();
        pinned.reset(&g, &cfg);
        let mut out = Vec::new();
        pinned.select_victims(&cached, 8, &ctx, &mut out);
        assert!(out.iter().all(|&v| v >= 2), "quota of capacity/4 = 2 protected: {out:?}");
        assert_eq!(out.len(), 6);

        let mut split = WorkloadSplit::new();
        split.reset(&g, &cfg);
        out.clear();
        split.select_victims(&cached, 8, &ctx, &mut out);
        assert!(!out.contains(&0), "the star hub is the hot prefix");
        assert!(out.contains(&7), "cold vertices stay evictable");
        assert!(out.windows(2).all(|w| w[0] < w[1]), "dictionary order keeps DRAM sequential");
    }

    #[test]
    fn belady_evicts_furthest_next_use() {
        // Star around 0 plus a chain; with stream_pos = 0, vertex whose
        // pending partner is furthest in the stream goes first.
        let g = CsrGraph::from_edges(6, [(0, 5), (1, 2), (3, 4)]);
        let cfg = CacheConfig::with_capacity(3, 32);
        let edge_ids = super::super::build_edge_index(&g);
        let alpha = [1, 1, 1, 1, 1, 1];
        let in_cache = [true, true, true, false, false, false];
        let edge_done = vec![false; g.num_edges()];
        let ctx = ctx_fixture(&g, &cfg, &alpha, &in_cache, &edge_done, &edge_ids);
        let mut p = BeladyOracle::new();
        p.reset(&g, &cfg);
        let mut out = Vec::new();
        // 0 waits for 5 (distance 5), 1 waits for 2 (cached, but the edge
        // is undone so distance 2), 3 waits for 4 (distance 4).
        p.select_victims(&[0, 1, 3], 1, &ctx, &mut out);
        assert_eq!(out, vec![0], "vertex 0's next use is furthest out");
    }

    /// First occurrences of each id, in draw order: an arrival-ordered
    /// resident set.
    fn distinct(raw: Vec<u32>) -> Vec<u32> {
        let mut seen = [false; 64];
        raw.into_iter().filter(|&v| !std::mem::replace(&mut seen[v as usize], true)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The partial selects agree with the full-sort reference at every
        /// victim budget: 0, 1, exactly the resident count, beyond it
        /// (where an unguarded `select_nth_unstable` would panic), and a
        /// random one. Victims are appended after whatever `out` held.
        #[test]
        fn partial_selection_matches_the_full_sort_reference(
            raw in prop::collection::vec(0u32..64, 0..48),
            alpha in prop::collection::vec(0u32..8, 64),
            keys in prop::collection::vec(0u64..4, 64),
            gamma in 0u32..10,
            quota in 0u32..64,
            drawn in 0usize..64,
        ) {
            let cached = distinct(raw);
            let rule = AlphaGamma { gamma, quota };
            let prefix = [u32::MAX];
            for max_victims in [0, 1, cached.len(), cached.len() + 1, drawn] {
                let mut want: Vec<u32> = cached
                    .iter()
                    .copied()
                    .filter(|&v| v >= quota && alpha[v as usize] < gamma)
                    .collect();
                want.sort_unstable();
                want.truncate(max_victims);
                let mut got = prefix.to_vec();
                rule.select_victims(&cached, max_victims, &alpha, &mut got);
                prop_assert_eq!(&got[..1], &prefix[..], "α/γ prefix at budget {}", max_victims);
                prop_assert_eq!(&got[1..], &want[..], "α/γ at budget {}", max_victims);

                let mut want = cached.clone();
                want.sort_unstable_by_key(|&v| (keys[v as usize], v));
                want.truncate(max_victims);
                let mut got = prefix.to_vec();
                evict_least_by_key(&cached, max_victims, |v| keys[v as usize], &mut got);
                prop_assert_eq!(&got[..1], &prefix[..], "by-key prefix at budget {}", max_victims);
                prop_assert_eq!(&got[1..], &want[..], "by key at budget {}", max_victims);
            }
        }
    }
}
