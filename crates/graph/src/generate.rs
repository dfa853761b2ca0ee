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

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::coo::EdgeList;
use crate::csr::CsrGraph;
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
    assert!(m == 0 || n >= 2, "need at least two vertices to place edges");
    let mut rng = StdRng::seed_from_u64(seed);
    let max_possible = n.saturating_mul(n.saturating_sub(1)) / 2;
    let plan = TopUp { max_rounds: 100, overdraw: 4, widen_after: None };
    top_up(n, m.min(max_possible), plan, &mut rng, |rng| rng.random_range(0..n) as VertexId)
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
    top_up(n, m.min(max_possible), plan, &mut rng, |rng| table.sample(rng) as VertexId)
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
    assert!((0.0..=1.0).contains(&uniform_frac), "uniform_frac must be in [0,1]");
    assert!(n >= 2, "need at least two vertices");
    let m_uniform = (m as f64 * uniform_frac) as usize;
    let m_power = m - m_uniform;
    let a = erdos_renyi(n, m_uniform, seed ^ 0xA5A5_A5A5);
    let b = powerlaw_chung_lu(n, m_power.max(1), gamma, seed ^ 0x5A5A_5A5A);
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

/// The sampling generators' shared loop: draws endpoint pairs from `sample`
/// in rounds until `target` distinct edges exist or `plan.max_rounds` have
/// run, then keeps the `target` smallest edges.
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
fn top_up(
    n: usize,
    target: usize,
    plan: TopUp,
    rng: &mut StdRng,
    sample: impl FnMut(&mut StdRng) -> VertexId,
) -> CsrGraph {
    let buffer = target + target / plan.overdraw + 1;
    let edges = if n.saturating_mul(n.saturating_sub(1)) / 2 <= buffer.saturating_mul(64) {
        draw_rounds(n, target, &plan, rng, sample, PairBitmap::new(n))
    } else {
        draw_rounds(n, target, &plan, rng, sample, SortedPrefix::new(target, buffer))
    };
    truncate_to(n, edges, target)
}

/// [`top_up`]'s rounds over one membership structure; returns the sorted,
/// unique edges.
fn draw_rounds(
    n: usize,
    target: usize,
    plan: &TopUp,
    rng: &mut StdRng,
    mut sample: impl FnMut(&mut StdRng) -> VertexId,
    mut set: impl EdgeSet,
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
        let draws = need + need / plan.overdraw + 1;
        if let Some(edge) = pending.take() {
            set.insert(edge);
        }
        for _ in 0..draws {
            let u = sample(rng);
            let v = sample(rng);
            if u != v {
                set.insert((u.min(v), u.max(v)));
            }
        }
        set.settle();
        rounds += 1;
        if plan.widen_after.is_some_and(|after| rounds > after) && set.len() < target {
            let u = rng.random_range(0..n) as VertexId;
            let v = rng.random_range(0..n) as VertexId;
            if u != v {
                pending = Some((u.min(v), u.max(v)));
            }
        }
    }
    if let Some(edge) = pending {
        set.insert(edge);
        set.settle();
    }
    set.into_sorted()
}

/// A set of distinct edges that [`draw_rounds`] inserts into.
trait EdgeSet {
    /// Adds `edge`; a duplicate is a no-op.
    fn insert(&mut self, edge: Edge);
    /// Ends a round: after this, [`EdgeSet::len`] is exact.
    fn settle(&mut self);
    /// The number of distinct edges, as of the last [`EdgeSet::settle`].
    fn len(&self) -> usize;
    /// The distinct edges in ascending order.
    fn into_sorted(self) -> Vec<Edge>;
}

/// One bit per vertex pair `u < v`, row-major over the upper triangle, so
/// bit order is edge order.
struct PairBitmap {
    n: usize,
    words: Vec<u64>,
    count: usize,
}

impl PairBitmap {
    fn new(n: usize) -> Self {
        let pairs = n * n.saturating_sub(1) / 2;
        Self { n, words: vec![0; pairs.div_ceil(64)], count: 0 }
    }

    /// Bit index of row `u`'s first pair, `(u, u + 1)`.
    fn row_start(&self, u: usize) -> usize {
        u * (2 * self.n - u - 1) / 2
    }
}

impl EdgeSet for PairBitmap {
    fn insert(&mut self, (u, v): Edge) {
        let bit = self.row_start(u as usize) + (v - u - 1) as usize;
        let word = &mut self.words[bit / 64];
        self.count += (!*word >> (bit % 64) & 1) as usize;
        *word |= 1 << (bit % 64);
    }

    fn settle(&mut self) {}

    fn len(&self) -> usize {
        self.count
    }

    fn into_sorted(self) -> Vec<Edge> {
        let mut edges = Vec::with_capacity(self.count);
        // Row `u` holds bits `start..end`.
        let (mut u, mut start, mut end) = (0, 0, self.n.saturating_sub(1));
        for (w, &word) in self.words.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let bit = w * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                while bit >= end {
                    u += 1;
                    start = end;
                    end += self.n - u - 1;
                }
                edges.push((u as VertexId, (u + 1 + bit - start) as VertexId));
            }
        }
        edges
    }
}

/// The distinct edges as a sorted, unique prefix. Draws collect in a
/// scratch buffer, which is sorted and merged in place (see
/// [`merge_fresh`]) at the end of a round, or sooner whenever a quarter of
/// the target has accumulated, to bound it; a round's merged set does not
/// depend on where it is split. A round costs a sort of its draws plus one
/// pass over the prefix, not a sort of the whole list.
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
    fn insert(&mut self, edge: Edge) {
        self.fresh.push(edge);
        if self.fresh.len() == self.chunk && !self.edges.is_empty() {
            merge_fresh(&mut self.edges, &mut self.fresh);
        }
    }

    fn settle(&mut self) {
        merge_fresh(&mut self.edges, &mut self.fresh);
    }

    fn len(&self) -> usize {
        self.edges.len()
    }

    fn into_sorted(self) -> Vec<Edge> {
        // The scratch buffer is dropped here, before the CSR build allocates.
        self.edges
    }
}

/// Merges `fresh` (any order, duplicates allowed) into the sorted, unique
/// `edges` without a second full-size buffer: sort and dedup `fresh`, drop
/// what `edges` already holds in one two-pointer pass, then merge backward
/// into `edges`' own spare capacity. Into an empty `edges`, `fresh` moves
/// whole. `fresh` is left empty.
fn merge_fresh(edges: &mut Vec<Edge>, fresh: &mut Vec<Edge>) {
    fresh.sort_unstable();
    fresh.dedup();
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
    use super::*;

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
        let mut fresh = vec![(4, 5), (0, 1), (2, 3), (0, 1), (6, 7), (1, 3)];
        merge_fresh(&mut edges, &mut fresh);
        assert_eq!(edges, [(0, 1), (0, 2), (1, 3), (2, 3), (4, 5), (6, 7)]);
        let mut empty = Vec::new();
        merge_fresh(&mut empty, &mut vec![(1, 2), (0, 1), (1, 2)]);
        assert_eq!(empty, [(0, 1), (1, 2)]);
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
        let mut set = PairBitmap::new(n as usize);
        // Every third pair, inserted backward and twice over.
        let picked: Vec<Edge> = all.iter().copied().step_by(3).collect();
        for &e in picked.iter().rev().chain(&picked) {
            set.insert(e);
        }
        assert_eq!(set.len(), picked.len());
        assert_eq!(set.into_sorted(), picked);
        let mut set = PairBitmap::new(n as usize);
        all.iter().for_each(|&e| set.insert(e));
        assert_eq!(set.len(), all.len());
        assert_eq!(set.into_sorted(), all);
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
