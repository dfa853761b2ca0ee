//! Seeded synthetic graph generators.
//!
//! Real-world GNN datasets exhibit power-law degree distributions ("vertex
//! degrees ranging from very low (for most vertices) to extremely high (for
//! very few vertices)", paper §I). The generators here produce graphs with
//! controllable tail weight so every GNNIE mechanism that keys off the
//! degree distribution — FM binning, degree-aware caching, LB — is exercised
//! exactly as it would be on the real datasets.
//!
//! All generators are deterministic in their seed.
//!
//! The sampling generators ([`erdos_renyi`], [`powerlaw_chung_lu`], and
//! through them [`mixed_powerlaw`]) draw endpoint pairs in rounds and keep
//! the distinct ones in one of two membership structures, chosen from the
//! vertex count `n` and the edge target alone:
//!
//! - a bitmap over the `n(n−1)/2` vertex pairs when the graph is dense,
//!   i.e. the bitmap is no larger than the draw buffer the other structure
//!   would allocate (`n(n−1)/2 ≤ 64 × (target + target / overdraw + 1)`).
//!   A draw is one bit test-and-set; one ordered scan yields the edges.
//! - otherwise a sorted, unique prefix that each round's draws are merged
//!   into. Sparse graphs keep it for memory: a bitmap for full-scale Reddit
//!   would take 3.4 GB, and full-scale Pubmed's 24 MB against a 0.9 MB buffer.
//!
//! Both consume the RNG draw for draw alike, so the graph does not depend
//! on which one ran.
//!
//! The `_on` variants split each round's draws across a [`SimPool`]: every
//! shard jumps a clone of the round's RNG straight to its first pair with
//! [`StdRng::advance`] and draws on its own: into a zeroed spare bitmap,
//! ORed back into the set in one serial pass (the first shard draws into
//! the set's own words), or into its own slice of one draw buffer. The
//! graph is identical at every pool width; the plain functions run on
//! [`SimPool::serial`].

use std::ops::Range;
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::coo::EdgeList;
use crate::csr::CsrGraph;
use crate::par::{shard_ranges, SimPool, MIN_ITEMS_PER_WORKER};
use crate::VertexId;

/// Walker alias table for O(1) sampling from a discrete distribution.
///
/// Used by the Chung–Lu generator to draw edge endpoints proportional to
/// target vertex weights; also reused by `gnnie-gnn` for GraphSAGE neighbor
/// sampling cost accounting.
///
/// # Example
///
/// ```
/// use gnnie_graph::generate::AliasTable;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let table = AliasTable::new(&[1.0, 0.0, 3.0]);
/// let mut rng = StdRng::seed_from_u64(7);
/// let draws: Vec<usize> = (0..1000).map(|_| table.sample(&mut rng)).collect();
/// assert!(draws.iter().all(|&i| i != 1)); // zero-weight item never drawn
/// ```
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// The RNG words one [`AliasTable::sample`] consumes: one for the
    /// column, one for the coin. Exact, because the shim's `random_range`
    /// never rejects, so a sampler can be jumped ahead by draws.
    pub const WORDS_PER_SAMPLE: u64 = 2;

    /// Builds an alias table from nonnegative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        let sum: f64 = weights.iter().sum();
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0) && sum > 0.0,
            "weights must be nonnegative, finite, and not all zero"
        );
        let n = weights.len();
        let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / sum).collect();
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s] = l;
            prob[l] -= 1.0 - prob[s];
            if prob[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Remaining entries are exactly 1 up to rounding.
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
        }
        Self { prob, alias }
    }

    /// Draws one index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.random_range(0..self.prob.len());
        if rng.random::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

/// Erdős–Rényi `G(n, m)`: `m` uniformly random distinct edges.
///
/// # Panics
///
/// Panics if `n < 2` and `m > 0` (no non-loop edge exists).
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> CsrGraph {
    erdos_renyi_on(n, m, seed, &SimPool::serial())
}

/// [`erdos_renyi`] with each round's draws split across `pool`; the graph
/// is the same at every width.
///
/// # Panics
///
/// Panics if `n < 2` and `m > 0` (no non-loop edge exists).
pub fn erdos_renyi_on(n: usize, m: usize, seed: u64, pool: &SimPool) -> CsrGraph {
    assert!(m == 0 || n >= 2, "need at least two vertices to place edges");
    let mut rng = StdRng::seed_from_u64(seed);
    let max_possible = n.saturating_mul(n.saturating_sub(1)) / 2;
    let plan = TopUp { max_rounds: 100, overdraw: 4, widen_after: None };
    top_up(n, m.min(max_possible), plan, &mut rng, &uniform(n), pool)
}

/// Chung–Lu power-law graph: `m` edges whose endpoints are drawn with
/// probability proportional to `w_i = (i + i0)^(-1/(gamma-1))`.
///
/// Smaller `gamma` gives a heavier tail (more extreme hubs). Typical social
/// graphs have `gamma ∈ [1.8, 2.5]`; the paper's Reddit-like behaviour
/// (11 % of vertices covering 88 % of edges) needs `gamma ≈ 2`.
///
/// # Panics
///
/// Panics if `n < 2` or `gamma <= 1.0`.
pub fn powerlaw_chung_lu(n: usize, m: usize, gamma: f64, seed: u64) -> CsrGraph {
    powerlaw_chung_lu_on(n, m, gamma, seed, &SimPool::serial())
}

/// [`powerlaw_chung_lu`] with each round's draws split across `pool`; the
/// graph is the same at every width.
///
/// # Panics
///
/// Panics if `n < 2` or `gamma <= 1.0`.
pub fn powerlaw_chung_lu_on(
    n: usize,
    m: usize,
    gamma: f64,
    seed: u64,
    pool: &SimPool,
) -> CsrGraph {
    assert!(n >= 2, "need at least two vertices");
    assert!(gamma > 1.0, "power-law exponent must exceed 1");
    let mut rng = StdRng::seed_from_u64(seed);
    let exponent = -1.0 / (gamma - 1.0);
    // i0 offsets the ranking so the top weight is not degenerate for small n.
    let i0 = 1.0;
    let weights: Vec<f64> = (0..n).map(|i| (i as f64 + i0).powf(exponent)).collect();
    let table = AliasTable::new(&weights);
    let max_possible = n * (n - 1) / 2;
    // Heavy tails cause many duplicate hub-hub edges; widen the
    // distribution slightly if we stall near saturation.
    let plan = TopUp { max_rounds: 200, overdraw: 3, widen_after: Some(50) };
    let endpoints = weighted(&table);
    top_up(n, m.min(max_possible), plan, &mut rng, &endpoints, pool)
}

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `m_per_vertex` existing vertices chosen proportionally to degree.
///
/// # Panics
///
/// Panics if `m_per_vertex == 0` or `n <= m_per_vertex`.
pub fn barabasi_albert(n: usize, m_per_vertex: usize, seed: u64) -> CsrGraph {
    assert!(m_per_vertex > 0, "attachment count must be positive");
    assert!(n > m_per_vertex, "need more vertices than the attachment count");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut el = EdgeList::with_capacity(n, n * m_per_vertex);
    // `repeated` holds one entry per edge endpoint: sampling uniformly from
    // it implements preferential attachment.
    let mut repeated: Vec<VertexId> = Vec::with_capacity(2 * n * m_per_vertex);
    // Seed clique over the first m_per_vertex + 1 vertices.
    for u in 0..=m_per_vertex {
        for v in (u + 1)..=m_per_vertex {
            el.push(u as VertexId, v as VertexId);
            repeated.push(u as VertexId);
            repeated.push(v as VertexId);
        }
    }
    for v in (m_per_vertex + 1)..n {
        let mut chosen = Vec::with_capacity(m_per_vertex);
        let mut attempts = 0;
        while chosen.len() < m_per_vertex && attempts < 50 * m_per_vertex {
            let t = repeated[rng.random_range(0..repeated.len())];
            if t as usize != v && !chosen.contains(&t) {
                chosen.push(t);
            }
            attempts += 1;
        }
        for &t in &chosen {
            el.push(v as VertexId, t);
            repeated.push(v as VertexId);
            repeated.push(t);
        }
    }
    CsrGraph::from_edge_list(el)
}

/// A graph with *weak* power-law behaviour: a mixture of uniform attachment
/// and preferential attachment. The paper notes PPI has a "less strong
/// power-law degree distribution" and benefits less from degree-aware
/// caching; `uniform_frac` near 1.0 reproduces that regime.
///
/// # Panics
///
/// Panics if `uniform_frac` is outside `[0, 1]` or `n < 2`.
pub fn mixed_powerlaw(
    n: usize,
    m: usize,
    gamma: f64,
    uniform_frac: f64,
    seed: u64,
) -> CsrGraph {
    mixed_powerlaw_on(n, m, gamma, uniform_frac, seed, &SimPool::serial())
}

/// [`mixed_powerlaw`] with both halves' rounds split across `pool`; the
/// graph is the same at every width.
///
/// # Panics
///
/// Panics if `uniform_frac` is outside `[0, 1]` or `n < 2`.
pub fn mixed_powerlaw_on(
    n: usize,
    m: usize,
    gamma: f64,
    uniform_frac: f64,
    seed: u64,
    pool: &SimPool,
) -> CsrGraph {
    assert!((0.0..=1.0).contains(&uniform_frac), "uniform_frac must be in [0,1]");
    assert!(n >= 2, "need at least two vertices");
    let m_uniform = (m as f64 * uniform_frac) as usize;
    let m_power = m - m_uniform;
    let a = erdos_renyi_on(n, m_uniform, seed ^ 0xA5A5_A5A5, pool);
    let b = powerlaw_chung_lu_on(n, m_power.max(1), gamma, seed ^ 0x5A5A_5A5A, pool);
    // `edges()` yields sorted, unique pairs, so the union is one merge.
    // Inputs and scratch are freed before the CSR build allocates.
    let mut edges: Vec<Edge> = Vec::with_capacity(a.num_edges() + b.num_edges());
    edges.extend(a.edges());
    let mut fresh: Vec<Edge> = b.edges().collect();
    drop((a, b));
    merge_fresh(&mut edges, &mut fresh);
    drop(fresh);
    truncate_to(n, edges, m)
}

/// One undirected edge, normalised to `(min, max)`.
type Edge = (VertexId, VertexId);

/// An endpoint sampler and the RNG words each of its draws consumes. The
/// count is exact, so a shard can jump straight to its first pair.
struct Endpoints<F> {
    /// RNG words per call of `draw`.
    words: u64,
    draw: F,
}

/// Uniform endpoints over `0..n`: one word each.
fn uniform(n: usize) -> Endpoints<impl Fn(&mut StdRng) -> VertexId + Sync> {
    Endpoints { words: 1, draw: move |rng: &mut StdRng| rng.random_range(0..n) as VertexId }
}

/// Endpoints drawn from `table`: [`AliasTable::WORDS_PER_SAMPLE`] each.
fn weighted(table: &AliasTable) -> Endpoints<impl Fn(&mut StdRng) -> VertexId + Sync + '_> {
    Endpoints {
        words: AliasTable::WORDS_PER_SAMPLE,
        draw: move |rng: &mut StdRng| table.sample(rng) as VertexId,
    }
}

/// How [`top_up`] draws its rounds.
struct TopUp {
    /// Rounds after which the graph counts as saturated and drawing stops.
    max_rounds: usize,
    /// A round short of `need` edges draws `need + need / overdraw + 1`
    /// candidate pairs.
    overdraw: usize,
    /// After this many rounds, every round that ends short also draws one
    /// uniform edge. It counts toward the next round's `need` before it is
    /// merged, duplicate or not.
    widen_after: Option<usize>,
}

/// The sampling generators' shared loop: draws endpoint pairs from
/// `endpoints` in rounds until `target` distinct edges exist or
/// `plan.max_rounds` have run, then keeps the `target` smallest edges.
///
/// A round starting `need` edges short draws `need + need / overdraw + 1`
/// pairs; the widening edge counts toward `need` before it is inserted,
/// duplicate or not. Each round's draw count thus depends only on the
/// distinct count at its start, so the RNG is consumed draw for draw as by
/// re-sorting the whole list every round, whichever membership structure
/// holds the distinct edges:
///
/// - [`PairBitmap`], one bit per vertex pair, when the graph is dense:
///   `n(n−1)/2 ≤ 64 × (target + target / overdraw + 1)`, i.e. the bitmap
///   is no larger than the sorted path's draw buffer. A draw is one bit
///   test-and-set, and one ordered scan yields the sorted edge list.
/// - [`SortedPrefix`] otherwise. A sparse graph's bitmap would dwarf its
///   edge list (full-scale Reddit's would be 3.4 GB), so the distinct edges
///   stay a sorted, unique prefix that each round's draws are merged into.
fn top_up<F: Fn(&mut StdRng) -> VertexId + Sync>(
    n: usize,
    target: usize,
    plan: TopUp,
    rng: &mut StdRng,
    endpoints: &Endpoints<F>,
    pool: &SimPool,
) -> CsrGraph {
    let buffer = target + target / plan.overdraw + 1;
    let edges = if n.saturating_mul(n.saturating_sub(1)) / 2 <= buffer.saturating_mul(64) {
        draw_rounds(n, target, &plan, rng, endpoints, PairBitmap::new(n, target), pool)
    } else {
        draw_rounds(n, target, &plan, rng, endpoints, SortedPrefix::new(target, buffer), pool)
    };
    truncate_to(n, edges, target)
}

/// [`top_up`]'s rounds over one membership structure; returns the sorted,
/// unique edges.
fn draw_rounds<F: Fn(&mut StdRng) -> VertexId + Sync>(
    n: usize,
    target: usize,
    plan: &TopUp,
    rng: &mut StdRng,
    endpoints: &Endpoints<F>,
    mut set: impl EdgeSet,
    pool: &SimPool,
) -> Vec<Edge> {
    // The widening edge drawn at the end of the last round, not yet inserted.
    let mut pending: Option<Edge> = None;
    let mut rounds = 0;
    while rounds < plan.max_rounds {
        let held = set.len() + usize::from(pending.is_some());
        if held >= target {
            break;
        }
        let need = target - held;
        let mut draws = need + need / plan.overdraw + 1;
        while draws > 0 {
            let pairs = draws.min(set.segment());
            // The pending edge goes in with the round's first segment.
            draw_segment(&mut set, pending.take(), pairs, rng, endpoints, pool);
            draws -= pairs;
        }
        rounds += 1;
        if plan.widen_after.is_some_and(|after| rounds > after) && set.len() < target {
            let u = rng.random_range(0..n) as VertexId;
            let v = rng.random_range(0..n) as VertexId;
            if u != v {
                pending = Some((u.min(v), u.max(v)));
            }
        }
    }
    if pending.is_some() {
        draw_segment(&mut set, pending, 0, rng, endpoints, pool);
    }
    set.into_sorted()
}

/// Adds `extra` and the next `pairs` endpoint pairs of `rng` to `set` on
/// `pool`, leaving `rng` past the last pair.
///
/// The pairs split into as many contiguous shard ranges as
/// [`EdgeSet::shards`] asks for, at most one per worker; a segment too
/// small to be worth dispatching runs as one shard inline. Which shard
/// draws a pair cannot change the set, so neither does the width.
fn draw_segment<F: Fn(&mut StdRng) -> VertexId + Sync>(
    set: &mut impl EdgeSet,
    extra: Option<Edge>,
    pairs: usize,
    rng: &mut StdRng,
    endpoints: &Endpoints<F>,
    pool: &SimPool,
) {
    let serial = SimPool::serial();
    let pool = if pairs >= pool.width() * MIN_ITEMS_PER_WORKER { pool } else { &serial };
    let shards = shard_ranges(pairs, set.shards(pairs, pool.width()));
    let segment = Segment { start: rng, endpoints, shards };
    if let Some(end) = set.add(extra, &segment, pool) {
        *rng = end;
    }
}

/// One segment of a round: the pairs `shards` cover, drawn from `start`.
struct Segment<'a, F> {
    start: &'a StdRng,
    endpoints: &'a Endpoints<F>,
    /// Contiguous pair ranges from 0, one per shard.
    shards: Vec<Range<usize>>,
}

impl<F: Fn(&mut StdRng) -> VertexId> Segment<'_, F> {
    fn pairs(&self) -> usize {
        self.shards.last().map_or(0, |shard| shard.end)
    }

    /// Draws the pairs in `shard` from a clone of the start jumped to the
    /// shard's first pair, passing each one that is not a self-loop to `f`
    /// as an edge; returns the clone, past the shard's last pair. The
    /// first shard never jumps.
    fn draw(&self, shard: &Range<usize>, mut f: impl FnMut(Edge)) -> StdRng {
        let mut rng = self.start.clone();
        if shard.start > 0 {
            rng.advance(2 * self.endpoints.words * shard.start as u64);
        }
        for _ in shard.clone() {
            let u = (self.endpoints.draw)(&mut rng);
            let v = (self.endpoints.draw)(&mut rng);
            if u != v {
                f((u.min(v), u.max(v)));
            }
        }
        rng
    }
}

/// A set of distinct edges that [`draw_rounds`] draws into, one
/// [`Segment`] at a time.
trait EdgeSet {
    /// The most pairs one segment draws; a round runs in segments.
    fn segment(&self) -> usize;
    /// How many shards a segment of `pairs` splits into on `width`
    /// workers.
    fn shards(&self, pairs: usize, width: usize) -> usize;
    /// Adds `extra` and every edge the segment's shards draw, running the
    /// shards on `pool`. Returns the RNG where the last shard ended, or
    /// `None` for a segment of no pairs. After this, [`EdgeSet::len`] is
    /// exact.
    fn add<F: Fn(&mut StdRng) -> VertexId + Sync>(
        &mut self,
        extra: Option<Edge>,
        segment: &Segment<'_, F>,
        pool: &SimPool,
    ) -> Option<StdRng>;
    /// The number of distinct edges.
    fn len(&self) -> usize;
    /// The distinct edges in ascending order.
    fn into_sorted(self) -> Vec<Edge>;
}

/// One bit per vertex pair `u < v`, row-major over the upper triangle, so
/// bit order is edge order.
///
/// Shards need bitmaps of their own: one shared bitmap set with atomic
/// test-and-set ran Reddit 0.01's synthesis at 0.70–0.88 s on two workers
/// against 0.43–0.46 s with private ones, since both workers write the
/// same cache lines, and at 0.62 s against 0.52 s on one. So the first
/// shard draws into the set's own words and each other one into a zeroed
/// spare, which merges back with one serial pass of OR and popcount.
struct PairBitmap {
    n: usize,
    words: Vec<u64>,
    count: usize,
    /// Zeroed bitmaps for the shards after the first, kept across segments
    /// and dropped before the scan allocates the edge list.
    spare: Vec<Vec<u64>>,
    /// `1 + target / words`, so that the spares together never outweigh
    /// the edge list: splitting does not raise the peak memory.
    max_shards: usize,
}

impl PairBitmap {
    fn new(n: usize, target: usize) -> Self {
        let words = (n * n.saturating_sub(1) / 2).div_ceil(64);
        let max_shards = 1 + target / words.max(1);
        Self { n, words: vec![0; words], count: 0, spare: Vec::new(), max_shards }
    }

    /// Sets `edge`'s bit in `words`, a bitmap over `n` vertices; true if it
    /// was clear.
    fn set(n: usize, words: &mut [u64], (u, v): Edge) -> bool {
        let (u, v) = (u as usize, v as usize);
        let bit = u * (2 * n - u - 1) / 2 + (v - u - 1);
        let (word, mask) = (&mut words[bit / 64], 1 << (bit % 64));
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }
}

impl EdgeSet for PairBitmap {
    fn segment(&self) -> usize {
        usize::MAX
    }

    /// `k` shards save `(1 − 1/k)` of the draws, at `c` a pair, and add
    /// `k − 1` merge passes, at `m` a word: they pay once `pairs > k ×
    /// words × m / c`. Measured, `m` is 1.0–1.4 ns a word with the bitmap
    /// in cache and 2.1 ns out of it, and `c` 7–12 ns for a uniform pair
    /// and 19–35 ns for an alias pair, so `m / c` stays below 1/5 and a
    /// segment splits `k` ways from `k × words / 4` pairs.
    fn shards(&self, pairs: usize, width: usize) -> usize {
        let k = width.min(self.max_shards);
        if pairs >= k * self.words.len() / 4 {
            k
        } else {
            1
        }
    }

    fn add<F: Fn(&mut StdRng) -> VertexId + Sync>(
        &mut self,
        extra: Option<Edge>,
        segment: &Segment<'_, F>,
        pool: &SimPool,
    ) -> Option<StdRng> {
        let n = self.n;
        if let Some(edge) = extra {
            self.count += usize::from(Self::set(n, &mut self.words, edge));
        }
        let len = self.words.len();
        let spares =
            (1..segment.shards.len()).map(|_| self.spare.pop().unwrap_or_else(|| vec![0; len]));
        let parts: Vec<_> = std::iter::once(std::mem::take(&mut self.words))
            .chain(spares)
            .map(Mutex::new)
            .collect();
        let jobs: Vec<_> = segment.shards.iter().zip(&parts).collect();
        let mut shards = pool.map_items(&jobs, |(shard, part)| {
            let words = &mut **part.lock().expect("one job per part");
            let mut fresh = 0;
            let end =
                segment.draw(shard, |edge| fresh += usize::from(Self::set(n, words, edge)));
            (fresh, end)
        });
        drop(jobs);
        // Only the first shard's fresh bits are new to the set; the merge
        // counts the others'.
        self.count += shards.first().map_or(0, |(fresh, _)| *fresh);
        let mut parts =
            parts.into_iter().map(|part| part.into_inner().expect("no job panicked"));
        self.words = parts.next().expect("the set's own words");
        for mut spare in parts {
            for (word, bits) in self.words.iter_mut().zip(&mut spare) {
                let bits = std::mem::take(bits);
                self.count += (bits & !*word).count_ones() as usize;
                *word |= bits;
            }
            self.spare.push(spare);
        }
        shards.pop().map(|(_, rng)| rng)
    }

    fn len(&self) -> usize {
        self.count
    }

    fn into_sorted(self) -> Vec<Edge> {
        let Self { n, words, count, spare, .. } = self;
        drop(spare);
        let mut edges = Vec::with_capacity(count);
        // Row `u` holds bits `start..end`.
        let (mut u, mut start, mut end) = (0, 0, n.saturating_sub(1));
        for (w, &word) in words.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let bit = w * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                while bit >= end {
                    u += 1;
                    start = end;
                    end += n - u - 1;
                }
                edges.push((u as VertexId, (u + 1 + bit - start) as VertexId));
            }
        }
        edges
    }
}

/// The distinct edges as a sorted, unique prefix. A segment's shards draw
/// into disjoint slices of one scratch buffer, which is sorted on the pool
/// (see [`par_sort`]), deduplicated and merged into the prefix once (see
/// [`merge_fresh`]). The first round draws in one segment, straight into
/// the buffer that becomes the prefix; later rounds draw in segments of a
/// quarter of the target, to bound the scratch. A round costs a sort of
/// its draws plus one pass over the prefix per segment, not a sort of the
/// whole list, and its merged set does not depend on where it is split.
struct SortedPrefix {
    edges: Vec<Edge>,
    fresh: Vec<Edge>,
    chunk: usize,
}

impl SortedPrefix {
    /// A round starting `need` short adds at most `need + need / overdraw +
    /// 1` edges, so with a `buffer` of that size for `need = target` the
    /// prefix, which is this buffer after the first merge, never outgrows
    /// it and merges never reallocate.
    fn new(target: usize, buffer: usize) -> Self {
        Self {
            edges: Vec::new(),
            fresh: Vec::with_capacity(buffer),
            chunk: (target / 4).max(1024),
        }
    }
}

impl EdgeSet for SortedPrefix {
    fn segment(&self) -> usize {
        if self.edges.is_empty() {
            usize::MAX
        } else {
            self.chunk
        }
    }

    fn shards(&self, _: usize, width: usize) -> usize {
        width
    }

    fn add<F: Fn(&mut StdRng) -> VertexId + Sync>(
        &mut self,
        extra: Option<Edge>,
        segment: &Segment<'_, F>,
        pool: &SimPool,
    ) -> Option<StdRng> {
        let fresh = &mut self.fresh;
        fresh.extend(extra);
        let base = fresh.len();
        fresh.resize(base + segment.pairs(), (0, 0));
        let slots = cut(&mut fresh[base..], segment.shards.iter().map(Range::len));
        let jobs: Vec<_> = segment.shards.iter().zip(slots).collect();
        let mut shards = pool.map_items(&jobs, |(shard, slot)| {
            let slot = &mut **slot.lock().expect("one job per slot");
            let mut kept = 0;
            let end = segment.draw(shard, |edge| {
                slot[kept] = edge;
                kept += 1;
            });
            (kept, end)
        });
        drop(jobs);
        // Close the gaps that self-loops left at the shards' slice ends.
        let mut end = base;
        for (shard, &(kept, _)) in segment.shards.iter().zip(&shards) {
            fresh.copy_within(base + shard.start..base + shard.start + kept, end);
            end += kept;
        }
        fresh.truncate(end);
        par_sort(fresh, pool);
        fresh.dedup();
        merge_fresh(&mut self.edges, fresh);
        shards.pop().map(|(_, rng)| rng)
    }

    fn len(&self) -> usize {
        self.edges.len()
    }

    fn into_sorted(self) -> Vec<Edge> {
        // The scratch buffer is dropped here, before the CSR build allocates.
        self.edges
    }
}

/// Cuts `items` into consecutive slices of the given lengths, each behind
/// its own lock so that one [`SimPool::map_items`] job can take it.
fn cut<T>(mut items: &mut [T], lens: impl IntoIterator<Item = usize>) -> Vec<Mutex<&mut [T]>> {
    lens.into_iter()
        .map(|len| {
            let (head, tail) = std::mem::take(&mut items).split_at_mut(len);
            items = tail;
            Mutex::new(head)
        })
        .collect()
}

/// Sorts `edges` in place on `pool`, with no scratch memory. Rounds of
/// `select_nth_unstable` split the slice at order statistics until there
/// is one piece per worker, each piece's edges no larger than the next
/// piece's; then the pieces sort side by side. A slice too small to be
/// worth dispatching sorts inline.
fn par_sort(edges: &mut [Edge], pool: &SimPool) {
    let width =
        if edges.len() >= pool.width() * MIN_ITEMS_PER_WORKER { pool.width() } else { 1 };
    // Each piece's length and the workers it is still to be split among.
    let mut pieces = vec![(edges.len(), width)];
    while pieces.iter().any(|&(_, workers)| workers > 1) {
        let jobs: Vec<_> =
            pieces.iter().copied().zip(cut(edges, pieces.iter().map(|p| p.0))).collect();
        pieces = pool
            .map_items(&jobs, |&((len, workers), ref slot)| {
                if workers == 1 {
                    return vec![(len, 1)];
                }
                let (left, mid) = (workers / 2, len * (workers / 2) / workers);
                slot.lock().expect("one job per piece").select_nth_unstable(mid);
                vec![(mid, left), (len - mid, workers - left)]
            })
            .concat();
    }
    let slots = cut(edges, pieces.iter().map(|p| p.0));
    pool.map_items(&slots, |slot| slot.lock().expect("one job per piece").sort_unstable());
}

/// Merges the sorted, unique `fresh` into the sorted, unique `edges`
/// without a second full-size buffer: drop what `edges` already holds in
/// one two-pointer pass, then merge backward into `edges`' own spare
/// capacity. Into an empty `edges`, `fresh` moves whole. `fresh` is left
/// empty.
fn merge_fresh(edges: &mut Vec<Edge>, fresh: &mut Vec<Edge>) {
    if edges.is_empty() {
        std::mem::swap(edges, fresh);
        return;
    }
    let mut i = 0;
    fresh.retain(|e| {
        while i < edges.len() && edges[i] < *e {
            i += 1;
        }
        edges.get(i) != Some(e)
    });
    let (mut i, mut j) = (edges.len(), fresh.len());
    edges.resize(i + j, (0, 0));
    // Slot `i + j - 1` is the next to fill, always at or past every unread
    // prefix edge, so nothing is overwritten before it moves.
    while j > 0 {
        let w = i + j - 1;
        if i > 0 && edges[i - 1] > fresh[j - 1] {
            i -= 1;
            edges[w] = edges[i];
        } else {
            j -= 1;
            edges[w] = fresh[j];
        }
    }
    fresh.clear();
}

/// Builds the graph from the `target` smallest of the sorted, unique `edges`.
fn truncate_to(n: usize, mut edges: Vec<Edge>, target: usize) -> CsrGraph {
    edges.truncate(target);
    // Return the dropped tail before the CSR build allocates its arrays.
    edges.shrink_to_fit();
    CsrGraph::from_edge_list(EdgeList::from_sorted_unique(n, edges))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::par::SimThreads;

    #[test]
    fn erdos_renyi_hits_edge_target() {
        let g = erdos_renyi(100, 300, 1);
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 300);
    }

    #[test]
    fn erdos_renyi_is_deterministic_in_seed() {
        let a = erdos_renyi(50, 100, 7);
        let b = erdos_renyi(50, 100, 7);
        let c = erdos_renyi(50, 100, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn erdos_renyi_saturates_gracefully() {
        // K4 has only 6 edges; asking for 100 must not loop forever.
        let g = erdos_renyi(4, 100, 3);
        assert_eq!(g.num_edges(), 6);
    }

    #[test]
    fn chung_lu_produces_heavy_tail() {
        let g = powerlaw_chung_lu(2000, 10_000, 2.0, 42);
        assert!(g.num_edges() >= 9_000, "got {} edges", g.num_edges());
        // Heavy tail: max degree far above mean.
        assert!(
            g.max_degree() as f64 > 5.0 * g.mean_degree(),
            "max {} mean {}",
            g.max_degree(),
            g.mean_degree()
        );
        // A big share of edges touch the top 10% of vertices.
        assert!(g.edge_coverage_of_top_vertices(0.10) > 0.5);
    }

    #[test]
    fn smaller_gamma_means_heavier_tail() {
        let heavy = powerlaw_chung_lu(2000, 8000, 1.8, 9);
        let light = powerlaw_chung_lu(2000, 8000, 3.5, 9);
        assert!(heavy.max_degree() > light.max_degree());
    }

    #[test]
    fn merge_fresh_keeps_the_prefix_sorted_and_unique() {
        let mut edges = vec![(0, 2), (1, 3), (4, 5)];
        let mut fresh = vec![(0, 1), (1, 3), (2, 3), (4, 5), (6, 7)];
        merge_fresh(&mut edges, &mut fresh);
        assert_eq!(edges, [(0, 1), (0, 2), (1, 3), (2, 3), (4, 5), (6, 7)]);
        assert!(fresh.is_empty());
        let mut empty = Vec::new();
        merge_fresh(&mut empty, &mut vec![(0, 1), (1, 2)]);
        assert_eq!(empty, [(0, 1), (1, 2)]);
    }

    /// Adds `edge` to `set` alone, in a segment of no pairs.
    fn insert(set: &mut impl EdgeSet, edge: Edge) {
        let (start, endpoints) = (StdRng::seed_from_u64(0), uniform(2));
        let segment = Segment { start: &start, endpoints: &endpoints, shards: Vec::new() };
        assert!(set.add(Some(edge), &segment, &SimPool::serial()).is_none());
    }

    #[test]
    fn sets_hold_every_pair_drawn_at_any_width() {
        // 40 vertices give 780 edges, so the draws repeat edges within and
        // across shards, and across segments.
        let endpoints = uniform(40);
        let segments = [3000, 2048, 700];
        let all = 0..segments.iter().sum();
        let start = StdRng::seed_from_u64(5);
        let serial =
            Segment { start: &start, endpoints: &endpoints, shards: vec![all.clone()] };
        let mut expected = BTreeSet::from([(7, 9)]);
        let end = serial.draw(&all, |edge| {
            expected.insert(edge);
        });
        let expected: Vec<Edge> = expected.into_iter().collect();
        for width in 1..=4 {
            let pool = SimPool::new(SimThreads::Fixed(width));
            let mut bitmap = PairBitmap::new(40, 600);
            let mut sorted = SortedPrefix::new(600, 801);
            let (mut a, mut b) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
            for (i, pairs) in segments.into_iter().enumerate() {
                let extra = (i == 1).then_some((7, 9));
                draw_segment(&mut bitmap, extra, pairs, &mut a, &endpoints, &pool);
                draw_segment(&mut sorted, extra, pairs, &mut b, &endpoints, &pool);
            }
            assert!(a == end && b == end, "width {width}: the RNG ends as serial");
            assert_eq!(bitmap.len(), expected.len(), "width {width}");
            assert_eq!(sorted.len(), expected.len(), "width {width}");
            assert_eq!(bitmap.into_sorted(), expected, "width {width}");
            assert_eq!(sorted.into_sorted(), expected, "width {width}");
        }
    }

    #[test]
    fn sorted_prefix_draws_the_first_round_into_the_prefix() {
        // No second full-size buffer: the shards fill slices of the
        // scratch, which then becomes the prefix.
        let mut set = SortedPrefix::new(3000, 4001);
        let pool = SimPool::new(SimThreads::Fixed(3));
        draw_segment(
            &mut set,
            None,
            4001,
            &mut StdRng::seed_from_u64(1),
            &uniform(1000),
            &pool,
        );
        assert_eq!((set.edges.capacity(), set.fresh.capacity()), (4001, 0));
    }

    #[test]
    fn pair_bitmap_splits_where_it_pays_and_within_the_edge_list() {
        // Reddit 0.01's bitmap: 42 359 words, so two shards from 21 179
        // pairs.
        let set = PairBitmap::new(2329, 1_145_000);
        assert_eq!(set.words.len(), 42_359);
        assert_eq!([set.shards(21_178, 2), set.shards(21_179, 2)], [1, 2]);
        assert_eq!(set.shards(1_528_001, 64), set.max_shards);
        // Reddit 0.1: two 34 MB spares fit within the 92 MB edge list and
        // a third would not, so four workers get three shards.
        let set = PairBitmap::new(23_297, 11_460_000);
        assert_eq!(set.shards(15_280_000, 4), 3);
    }

    #[test]
    fn par_sort_matches_a_serial_sort() {
        let mut rng = StdRng::seed_from_u64(3);
        let edges: Vec<Edge> =
            (0..5000).map(|_| (rng.random_range(0..30), rng.random_range(0..30))).collect();
        let mut expected = edges.clone();
        expected.sort_unstable();
        for width in 1..=5 {
            let mut sorted = edges.clone();
            par_sort(&mut sorted, &SimPool::new(SimThreads::Fixed(width)));
            assert_eq!(sorted, expected, "width {width}");
        }
    }

    #[test]
    fn pair_bitmap_scans_in_edge_order() {
        let n = 70;
        let mut all = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                all.push((u, v));
            }
        }
        let mut set = PairBitmap::new(n as usize, all.len());
        // Every third pair, inserted backward and twice over.
        let picked: Vec<Edge> = all.iter().copied().step_by(3).collect();
        for &e in picked.iter().rev().chain(&picked) {
            insert(&mut set, e);
        }
        assert_eq!(set.len(), picked.len());
        assert_eq!(set.into_sorted(), picked);
        let mut set = PairBitmap::new(n as usize, all.len());
        all.iter().for_each(|&e| insert(&mut set, e));
        assert_eq!(set.len(), all.len());
        assert_eq!(set.into_sorted(), all);
    }

    #[test]
    fn samplers_consume_their_stated_words() {
        // A shard's jump is `2 × words` per pair it skips; a sampler that
        // drew a word more or less would silently reshuffle every graph.
        let table = AliasTable::new(&[0.5, 3.0, 1.0, 0.0, 7.0]);
        let uniform = uniform(1000);
        let weighted = weighted(&table);
        for seed in 0..64 {
            let mut drawn = StdRng::seed_from_u64(seed);
            let mut jumped = drawn.clone();
            (uniform.draw)(&mut drawn);
            jumped.advance(uniform.words);
            (weighted.draw)(&mut drawn);
            jumped.advance(weighted.words);
            assert_eq!(drawn, jumped, "seed {seed}");
        }
    }

    #[test]
    fn barabasi_albert_structure() {
        let g = barabasi_albert(500, 3, 11);
        assert_eq!(g.num_vertices(), 500);
        // Every non-seed vertex contributes ~m edges.
        assert!(g.num_edges() >= 3 * (500 - 4) - 50);
        assert!(g.max_degree() as f64 > 3.0 * g.mean_degree());
    }

    #[test]
    fn mixed_powerlaw_is_flatter_than_pure() {
        let pure = powerlaw_chung_lu(2000, 8000, 2.0, 5);
        let mixed = mixed_powerlaw(2000, 8000, 2.0, 0.8, 5);
        assert!(mixed.max_degree() < pure.max_degree());
    }

    #[test]
    fn alias_table_respects_weights() {
        let table = AliasTable::new(&[1.0, 3.0]);
        let mut rng = StdRng::seed_from_u64(123);
        let mut counts = [0usize; 2];
        for _ in 0..40_000 {
            counts[table.sample(&mut rng)] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn alias_table_rejects_empty() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn alias_table_rejects_negative() {
        let _ = AliasTable::new(&[1.0, -2.0]);
    }
}
