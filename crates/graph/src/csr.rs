//! Compressed sparse row (CSR) adjacency storage.
//!
//! The paper stores the adjacency matrix in CSR because GNNIE "uses
//! adjacency matrix connectivity information to schedule computations and is
//! not a matrix multiplication method" (§III). The layout here mirrors the
//! paper's three arrays: the *offset array* ([`CsrGraph::offsets`]), the
//! *coordinate array* of neighbors ([`CsrGraph::neighbors_flat`]); the
//! *property array* (weighted vertex features) lives with the engine.

use std::fmt;

use gnnie_tensor::Backing;
use serde::{Deserialize, Serialize};

use crate::coo::EdgeList;
use crate::VertexId;

/// A malformed-input error from the loader-facing CSR constructors.
///
/// File loaders (`gnnie-ingest`) feed untrusted edge data into
/// [`CsrGraph::try_from_pairs`] and [`CsrGraph::from_raw_parts`]; both
/// report *what* is wrong and *where* instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphBuildError {
    /// An edge endpoint is `>=` the declared vertex count.
    VertexOutOfRange {
        /// Zero-based index of the offending edge in the input order.
        edge_index: usize,
        /// The offending vertex id.
        vertex: VertexId,
        /// The declared vertex count.
        num_vertices: usize,
    },
    /// A raw CSR structure violates an invariant (monotone offsets,
    /// sorted deduplicated adjacency lists, symmetry, no self-loops).
    InvalidCsr(String),
}

impl fmt::Display for GraphBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphBuildError::VertexOutOfRange { edge_index, vertex, num_vertices } => write!(
                f,
                "edge {edge_index}: vertex id {vertex} >= declared vertex count {num_vertices}"
            ),
            GraphBuildError::InvalidCsr(msg) => write!(f, "invalid CSR structure: {msg}"),
        }
    }
}

impl std::error::Error for GraphBuildError {}

/// Accounting from a checked CSR build: what the input contained and what
/// was dropped to make the graph simple.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrBuildStats {
    /// Edges in the input, self-loops and duplicates included.
    pub input_edges: usize,
    /// Self-loops dropped (the GNN formulations add `{i}` to the
    /// neighborhood explicitly, paper §II, so the graph stays simple).
    pub self_loops: usize,
    /// Duplicate undirected edges collapsed (`(u,v)` and `(v,u)` count
    /// as the same edge).
    pub duplicates: usize,
    /// Unique undirected edges in the resulting graph.
    pub edges: usize,
}

/// An undirected graph in CSR form.
///
/// Every undirected edge `{u, v}` appears in both adjacency lists, so
/// `degree(v)` is the true undirected degree and the flat neighbor array has
/// `2 * num_edges()` entries. Neighbor lists are sorted ascending.
///
/// # Example
///
/// ```
/// use gnnie_graph::{CsrGraph, EdgeList};
///
/// let mut el = EdgeList::new(4);
/// el.extend([(0, 1), (0, 2), (2, 3)]);
/// let g = CsrGraph::from_edge_list(el);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.degree(0), 2);
/// assert_eq!(g.neighbors(2), &[0, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrGraph {
    offsets: Backing<usize>,
    neighbors: Backing<VertexId>,
    num_edges: usize,
}

impl CsrGraph {
    /// Builds a graph from an edge list, deduplicating edges.
    pub fn from_edge_list(mut edges: EdgeList) -> Self {
        edges.dedup();
        let n = edges.num_vertices();
        let mut degree = vec![0usize; n];
        for (u, v) in edges.iter() {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for d in &degree {
            offsets.push(offsets.last().expect("nonempty") + d);
        }
        // After `dedup` the pairs are sorted `(min, max)`, so every pair
        // `(u, v)` with `u < v` precedes every pair `(v, w)`. The scatter
        // therefore fills each list with its smaller neighbors ascending,
        // then its larger ones ascending: every list comes out sorted.
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as VertexId; offsets[n]];
        for (u, v) in edges.iter() {
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        Self { offsets: offsets.into(), neighbors: neighbors.into(), num_edges: edges.len() }
    }

    /// Builds a graph directly from `(u, v)` pairs over `n` vertices.
    pub fn from_edges(n: usize, pairs: impl IntoIterator<Item = (VertexId, VertexId)>) -> Self {
        let mut el = EdgeList::new(n);
        el.extend(pairs);
        Self::from_edge_list(el)
    }

    /// Checked build from untrusted `(u, v)` pairs over `n` vertices — the
    /// loader-facing constructor.
    ///
    /// Unlike [`CsrGraph::from_edges`] this never panics on malformed
    /// input: vertex ids `>= n` yield a typed
    /// [`GraphBuildError::VertexOutOfRange`] naming the offending edge,
    /// while self-loops and duplicate edges are dropped *and counted* in
    /// the returned [`CsrBuildStats`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphBuildError::VertexOutOfRange`] for the first edge
    /// (in input order) with an endpoint `>= n`.
    ///
    /// # Example
    ///
    /// ```
    /// use gnnie_graph::CsrGraph;
    ///
    /// let (g, stats) =
    ///     CsrGraph::try_from_pairs(3, [(0, 1), (1, 0), (2, 2)]).unwrap();
    /// assert_eq!(g.num_edges(), 1);
    /// assert_eq!((stats.self_loops, stats.duplicates), (1, 1));
    /// assert!(CsrGraph::try_from_pairs(3, [(0, 7)]).is_err());
    /// ```
    pub fn try_from_pairs(
        n: usize,
        pairs: impl IntoIterator<Item = (VertexId, VertexId)>,
    ) -> Result<(Self, CsrBuildStats), GraphBuildError> {
        let mut stats = CsrBuildStats::default();
        let mut el = EdgeList::new(n);
        for (edge_index, (u, v)) in pairs.into_iter().enumerate() {
            stats.input_edges += 1;
            for id in [u, v] {
                if id as usize >= n {
                    return Err(GraphBuildError::VertexOutOfRange {
                        edge_index,
                        vertex: id,
                        num_vertices: n,
                    });
                }
            }
            if u == v {
                stats.self_loops += 1;
            } else {
                el.push(u, v);
            }
        }
        let before = el.len();
        let graph = Self::from_edge_list(el);
        stats.duplicates = before - graph.num_edges();
        stats.edges = graph.num_edges();
        Ok((graph, stats))
    }

    /// Reassembles a graph from raw CSR arrays, validating every structural
    /// invariant — the reload path for `.gnniecsr` snapshots and the
    /// shard-parallel builder in `gnnie-ingest`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphBuildError::InvalidCsr`] unless `offsets` is a
    /// monotone array starting at 0 and ending at `neighbors.len()`, every
    /// adjacency list is strictly increasing (sorted, deduplicated) with
    /// ids `< n` and no self-loops, adjacency is symmetric, and
    /// `num_edges` is exactly `neighbors.len() / 2`.
    pub fn from_raw_parts(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        num_edges: usize,
    ) -> Result<Self, GraphBuildError> {
        let graph = Self { offsets: offsets.into(), neighbors: neighbors.into(), num_edges };
        graph.validate_full()?;
        Ok(graph)
    }

    /// Full structural validation shared by [`Self::from_raw_parts`] and
    /// the `debug_assertions` arm of [`Self::from_raw_parts_trusted`].
    fn validate_full(&self) -> Result<(), GraphBuildError> {
        let invalid = |msg: String| Err(GraphBuildError::InvalidCsr(msg));
        let offsets = &self.offsets[..];
        let neighbors = &self.neighbors[..];
        let Some((&first, _)) = offsets.split_first() else {
            return invalid("offsets array is empty (need n + 1 entries)".into());
        };
        let n = offsets.len() - 1;
        if first != 0 {
            return invalid(format!("offsets[0] is {first}, expected 0"));
        }
        if *offsets.last().expect("nonempty") != neighbors.len() {
            return invalid(format!(
                "offsets[{n}] is {} but there are {} neighbor entries",
                offsets[n],
                neighbors.len()
            ));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return invalid("offsets are not monotonically nondecreasing".into());
        }
        if neighbors.len() % 2 != 0 {
            return invalid(format!("odd neighbor count {} (undirected)", neighbors.len()));
        }
        if self.num_edges != neighbors.len() / 2 {
            return invalid(format!(
                "num_edges {} does not match {} neighbor entries / 2",
                self.num_edges,
                neighbors.len()
            ));
        }
        self.validate_lists(n)
    }

    fn validate_lists(&self, n: usize) -> Result<(), GraphBuildError> {
        let invalid = |msg: String| Err(GraphBuildError::InvalidCsr(msg));
        for v in 0..n {
            let list = self.neighbors(v);
            if let Some(&w) = list.iter().find(|&&w| w as usize >= n) {
                return invalid(format!("vertex {v}: neighbor id {w} >= vertex count {n}"));
            }
            if list.binary_search(&(v as VertexId)).is_ok() {
                return invalid(format!("vertex {v}: self-loop"));
            }
            if list.windows(2).any(|w| w[0] >= w[1]) {
                return invalid(format!("vertex {v}: adjacency list not strictly increasing"));
            }
            if let Some(&w) = list.iter().find(|&&w| !self.has_edge(w as usize, v)) {
                return invalid(format!("asymmetric edge ({v}, {w}): reverse entry missing"));
            }
        }
        Ok(())
    }

    /// [`CsrGraph::from_raw_parts`] for callers that construct the
    /// invariants by design (the shard-parallel builder in
    /// `gnnie-ingest`, or the mmap snapshot loader handing in
    /// [`Backing::from_shared`] views whose bytes were produced by the
    /// snapshot writer): full validation runs only under
    /// `debug_assertions`, so release ingest is not taxed with an
    /// `O(E log d)` re-check of arrays it just produced. Untrusted input
    /// (snapshot reload, foreign files) must go through the validating
    /// constructor instead.
    ///
    /// # Panics
    ///
    /// With `debug_assertions`, panics if the arrays violate any CSR
    /// invariant. Without them, a violating input produces a graph whose
    /// accessors may panic or return wrong results later.
    pub fn from_raw_parts_trusted(
        offsets: impl Into<Backing<usize>>,
        neighbors: impl Into<Backing<VertexId>>,
        num_edges: usize,
    ) -> Self {
        let graph = Self { offsets: offsets.into(), neighbors: neighbors.into(), num_edges };
        if cfg!(debug_assertions) {
            graph.validate_full().expect("trusted caller violated CSR invariants");
        }
        graph
    }

    /// `true` when the CSR arrays borrow shared storage (for example a
    /// memory-mapped snapshot) instead of owning their `Vec`s.
    pub fn is_memory_mapped(&self) -> bool {
        self.offsets.is_shared() || self.neighbors.is_shared()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        assert!(v < self.num_vertices(), "vertex {v} out of range");
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbor list of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[VertexId] {
        assert!(v < self.num_vertices(), "vertex {v} out of range");
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The CSR offset array (paper's *offset array*), length `n + 1`.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The flat neighbor array (paper's *coordinate array*), length `2|E|`.
    pub fn neighbors_flat(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// `true` if `{u, v}` is an edge (binary search on the adjacency list).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        if u >= self.num_vertices() || v >= self.num_vertices() {
            return false;
        }
        self.neighbors(u).binary_search(&(v as VertexId)).is_ok()
    }

    /// Iterates every undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| (u as VertexId) < v)
                .map(move |v| (u as VertexId, v))
        })
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Mean degree (`2|E| / |V|`), 0.0 for an empty graph.
    pub fn mean_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            return 0.0;
        }
        2.0 * self.num_edges as f64 / self.num_vertices() as f64
    }

    /// Sparsity of the adjacency matrix: fraction of the `n²` entries that
    /// are zero (paper reports > 99.8 % for all datasets).
    pub fn adjacency_sparsity(&self) -> f64 {
        let n = self.num_vertices();
        if n == 0 {
            return 0.0;
        }
        1.0 - (2.0 * self.num_edges as f64) / (n as f64 * n as f64)
    }

    /// Fraction of all edges covered by the `top_frac` highest-degree
    /// vertices — the paper's power-law illustration ("in the Reddit
    /// dataset, 11 % of the vertices cover 88 % of all edges").
    ///
    /// An edge counts as covered if at least one endpoint is in the top set.
    pub fn edge_coverage_of_top_vertices(&self, top_frac: f64) -> f64 {
        let n = self.num_vertices();
        if n == 0 || self.num_edges == 0 {
            return 0.0;
        }
        let k = ((n as f64 * top_frac).ceil() as usize).clamp(1, n);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&v| std::cmp::Reverse(self.degree(v)));
        let mut in_top = vec![false; n];
        for &v in order.iter().take(k) {
            in_top[v] = true;
        }
        let covered =
            self.edges().filter(|&(u, v)| in_top[u as usize] || in_top[v as usize]).count();
        covered as f64 / self.num_edges as f64
    }

    /// Relabels vertices: new vertex `i` is old vertex `order[i]`.
    ///
    /// The offsets follow from `order` alone (new vertex `i` keeps old
    /// vertex `order[i]`'s degree). The lists are filled by one scatter in
    /// ascending new-id order: new vertex `u` appends itself to the list
    /// of each of its neighbors, so every list comes out sorted without a
    /// sort.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..n`.
    pub fn relabel(&self, order: &[VertexId]) -> CsrGraph {
        let n = self.num_vertices();
        assert_eq!(order.len(), n, "order must cover every vertex");
        let mut inverse = vec![VertexId::MAX; n];
        for (new_id, &old_id) in order.iter().enumerate() {
            assert!(
                (old_id as usize) < n && inverse[old_id as usize] == VertexId::MAX,
                "order is not a permutation"
            );
            inverse[old_id as usize] = new_id as VertexId;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for (new_id, &old_id) in order.iter().enumerate() {
            offsets.push(offsets[new_id] + self.degree(old_id as usize));
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as VertexId; self.neighbors.len()];
        for (u, &old_id) in order.iter().enumerate() {
            for &w in self.neighbors(old_id as usize) {
                let v = inverse[w as usize] as usize;
                neighbors[cursor[v]] = u as VertexId;
                cursor[v] += 1;
            }
        }
        Self { offsets: offsets.into(), neighbors: neighbors.into(), num_edges: self.num_edges }
    }

    /// Estimated DRAM footprint of the CSR structure in bytes
    /// (8-byte offsets + 4-byte neighbor ids), used for Table II context.
    pub fn csr_bytes(&self) -> usize {
        self.offsets.len() * 8 + self.neighbors.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> CsrGraph {
        CsrGraph::from_edges(n, (0..n as VertexId - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn degrees_sum_to_twice_edges() {
        let g = path_graph(5);
        assert_eq!(g.num_edges(), 4);
        let sum: usize = (0..5).map(|v| g.degree(v)).sum();
        assert_eq!(sum, 8);
    }

    #[test]
    fn neighbors_are_sorted_and_symmetric() {
        let g = CsrGraph::from_edges(4, [(3, 0), (1, 0), (2, 0)]);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        for v in 1..4 {
            assert_eq!(g.neighbors(v), &[0]);
            assert!(g.has_edge(v, 0) && g.has_edge(0, v));
        }
        assert!(!g.has_edge(1, 2));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = CsrGraph::from_edges(3, [(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = CsrGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.num_edges());
        for &(u, v) in &edges {
            assert!(u < v);
        }
    }

    #[test]
    fn star_graph_max_degree_and_coverage() {
        // Star: vertex 0 connected to 1..=9.
        let g = CsrGraph::from_edges(10, (1..10).map(|i| (0, i as VertexId)));
        assert_eq!(g.max_degree(), 9);
        // Top 10% = 1 vertex = the hub, which covers all edges.
        assert_eq!(g.edge_coverage_of_top_vertices(0.1), 1.0);
    }

    #[test]
    fn adjacency_sparsity_small_graph() {
        let g = CsrGraph::from_edges(4, [(0, 1)]);
        // 2 nonzeros out of 16 entries.
        assert!((g.adjacency_sparsity() - (1.0 - 2.0 / 16.0)).abs() < 1e-12);
    }

    #[test]
    fn relabel_reverses_cleanly() {
        let g = path_graph(4); // 0-1-2-3
        let order: Vec<VertexId> = vec![3, 2, 1, 0];
        let r = g.relabel(&order);
        // New 0 is old 3 (degree 1), new 1 is old 2 (degree 2).
        assert_eq!(r.degree(0), 1);
        assert_eq!(r.degree(1), 2);
        assert!(r.has_edge(0, 1)); // old (3,2)
        assert_eq!(r.num_edges(), g.num_edges());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn relabel_rejects_non_permutation() {
        let g = path_graph(3);
        let _ = g.relabel(&[0, 0, 1]);
    }

    #[test]
    fn empty_and_single_vertex() {
        let g = CsrGraph::from_edges(1, std::iter::empty());
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.mean_degree(), 0.0);
    }

    #[test]
    fn csr_bytes_counts_structure() {
        let g = path_graph(3);
        assert_eq!(g.csr_bytes(), 4 * 8 + 4 * 4);
    }

    #[test]
    fn try_from_pairs_counts_self_loops_and_duplicates() {
        let pairs = [(0, 1), (1, 0), (2, 2), (1, 2), (2, 1), (2, 2)];
        let (g, stats) = CsrGraph::try_from_pairs(3, pairs).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(stats.input_edges, 6);
        assert_eq!(stats.self_loops, 2);
        assert_eq!(stats.duplicates, 2);
        assert_eq!(stats.edges, 2);
        // The checked path builds exactly what the panicking path builds.
        assert_eq!(g, CsrGraph::from_edges(3, [(0, 1), (1, 2)]));
    }

    #[test]
    fn try_from_pairs_rejects_out_of_range_with_location() {
        let err = CsrGraph::try_from_pairs(4, [(0, 1), (9, 2)]).unwrap_err();
        assert_eq!(
            err,
            GraphBuildError::VertexOutOfRange { edge_index: 1, vertex: 9, num_vertices: 4 }
        );
        assert!(err.to_string().contains("edge 1"), "{err}");
    }

    #[test]
    fn from_raw_parts_roundtrips_a_valid_graph() {
        let g = CsrGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]);
        let rebuilt = CsrGraph::from_raw_parts(
            g.offsets().to_vec(),
            g.neighbors_flat().to_vec(),
            g.num_edges(),
        )
        .unwrap();
        assert_eq!(rebuilt, g);
    }

    #[test]
    fn from_raw_parts_rejects_structural_corruption() {
        let g = CsrGraph::from_edges(3, [(0, 1), (1, 2)]);
        let (off, nbr, e) = (g.offsets().to_vec(), g.neighbors_flat().to_vec(), g.num_edges());
        // Wrong edge count.
        assert!(CsrGraph::from_raw_parts(off.clone(), nbr.clone(), e + 1).is_err());
        // Asymmetric adjacency: rewrite 0's neighbor to 2 without reverse.
        let mut bad = nbr.clone();
        bad[0] = 2;
        let err = CsrGraph::from_raw_parts(off.clone(), bad, e).unwrap_err();
        assert!(matches!(err, GraphBuildError::InvalidCsr(_)));
        // Out-of-range neighbor id.
        let mut bad = nbr.clone();
        bad[0] = 7;
        assert!(CsrGraph::from_raw_parts(off.clone(), bad, e).is_err());
        // Non-monotone offsets.
        let mut bad_off = off;
        bad_off[1] = 3;
        bad_off[2] = 1;
        assert!(CsrGraph::from_raw_parts(bad_off, nbr, e).is_err());
        // Empty offsets.
        assert!(CsrGraph::from_raw_parts(Vec::new(), Vec::new(), 0).is_err());
    }
}
