//! Edge lists (COO form) used to build [`crate::CsrGraph`]s.

use serde::{Deserialize, Serialize};

use crate::VertexId;

/// An undirected edge list over vertices `0..num_vertices`.
///
/// Edges are stored once as `(min, max)` pairs. Self-loops are rejected at
/// insertion: the GNN formulations add `{i}` to the neighborhood explicitly
/// (paper §II), so the graph itself stays simple.
///
/// # Example
///
/// ```
/// use gnnie_graph::EdgeList;
///
/// let mut el = EdgeList::new(4);
/// el.push(0, 1);
/// el.push(1, 0); // duplicate of (0,1)
/// el.push(2, 3);
/// el.dedup();
/// assert_eq!(el.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeList {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl EdgeList {
    /// Creates an empty edge list over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self { num_vertices, edges: Vec::new() }
    }

    /// Creates an empty edge list with capacity for `cap` edges.
    pub fn with_capacity(num_vertices: usize, cap: usize) -> Self {
        Self { num_vertices, edges: Vec::with_capacity(cap) }
    }

    /// Wraps edges that are already normalised, sorted and unique, without
    /// copying them.
    pub(crate) fn from_sorted_unique(
        num_vertices: usize,
        edges: Vec<(VertexId, VertexId)>,
    ) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges must be sorted and unique");
        debug_assert!(edges.iter().all(|&(u, v)| u < v && (v as usize) < num_vertices));
        Self { num_vertices, edges }
    }

    /// Number of vertices in the underlying vertex set.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of stored edges (duplicates included until [`Self::dedup`]).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` if no edges are stored.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Adds the undirected edge `{u, v}`, normalising to `(min, max)`.
    /// Self-loops are silently dropped.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn push(&mut self, u: VertexId, v: VertexId) {
        assert!(
            (u as usize) < self.num_vertices && (v as usize) < self.num_vertices,
            "edge ({u},{v}) out of range for {} vertices",
            self.num_vertices
        );
        if u == v {
            return;
        }
        self.edges.push((u.min(v), u.max(v)));
    }

    /// Sorts and removes duplicate edges.
    pub fn dedup(&mut self) {
        self.edges.sort_unstable();
        self.edges.dedup();
    }

    /// Iterates over the stored `(u, v)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.edges.iter().copied()
    }

    /// Consumes the list, returning the raw edge vector.
    pub fn into_inner(self) -> Vec<(VertexId, VertexId)> {
        self.edges
    }
}

impl Extend<(VertexId, VertexId)> for EdgeList {
    fn extend<T: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, iter: T) {
        for (u, v) in iter {
            self.push(u, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_normalizes_and_drops_self_loops() {
        let mut el = EdgeList::new(5);
        el.push(3, 1);
        el.push(2, 2);
        assert_eq!(el.len(), 1);
        assert_eq!(el.iter().next(), Some((1, 3)));
    }

    #[test]
    fn dedup_removes_duplicates_regardless_of_direction() {
        let mut el = EdgeList::new(3);
        el.push(0, 1);
        el.push(1, 0);
        el.push(0, 2);
        el.dedup();
        assert_eq!(el.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_out_of_range_panics() {
        let mut el = EdgeList::new(2);
        el.push(0, 2);
    }

    #[test]
    fn extend_uses_push_semantics() {
        let mut el = EdgeList::new(4);
        el.extend([(0, 1), (1, 1), (2, 3)]);
        assert_eq!(el.len(), 2); // self-loop dropped
    }
}
