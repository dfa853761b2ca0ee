//! Induced-subgraph utilities for the caching engine, and the graph
//! partitioner for multi-accelerator scale-out.
//!
//! During Aggregation the input buffer holds a set of vertices; "these
//! vertices, and the edges between them, form a subgraph of the original
//! graph" (paper §VI). The cache controller repeatedly needs the edges of
//! that induced subgraph, which these helpers provide without materialising
//! a new graph.
//!
//! [`GraphPartition`] splits a graph into `k` vertex-disjoint parts — one
//! per simulated accelerator chip — each with its own induced [`CsrGraph`]
//! view plus the boundary bookkeeping (cut edges, halo vertices) the
//! inter-chip link model charges traffic for.

use std::cmp::Reverse;

use serde::{Deserialize, Serialize};

use crate::coo::EdgeList;
use crate::csr::CsrGraph;
use crate::VertexId;

/// Which strategy assigns vertices to partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PartitionerKind {
    /// Contiguous vertex-id ranges, split as evenly as possible. Cheap,
    /// and on a degree-sorted graph it concentrates the hubs on chip 0.
    Range,
    /// Degree-balanced greedy edge-cut: vertices are placed in descending
    /// degree order onto the partition holding most of their already
    /// placed neighbors, subject to a per-partition degree-sum budget.
    EdgeCut,
}

impl PartitionerKind {
    /// Both strategies, in CLI order.
    pub const ALL: [PartitionerKind; 2] = [PartitionerKind::Range, PartitionerKind::EdgeCut];

    /// Short CLI/report token.
    pub fn name(self) -> &'static str {
        match self {
            PartitionerKind::Range => "range",
            PartitionerKind::EdgeCut => "edgecut",
        }
    }
}

impl std::fmt::Display for PartitionerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for PartitionerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "range" => Ok(PartitionerKind::Range),
            "edgecut" => Ok(PartitionerKind::EdgeCut),
            other => Err(format!("unknown partitioner `{other}` (use range|edgecut)")),
        }
    }
}

/// One partition's view: its vertices, the induced subgraph over local
/// ids, and the boundary bookkeeping the link model charges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPart {
    /// Member vertices as global ids, ascending; local id `i` is
    /// `vertices[i]`.
    pub vertices: Vec<VertexId>,
    /// The induced subgraph, in local ids.
    pub graph: CsrGraph,
    /// Local ids of vertices with at least one neighbor outside the
    /// partition, ascending.
    pub boundary: Vec<VertexId>,
    /// Distinct external neighbors — the remote feature vectors this
    /// partition must receive over the inter-chip link.
    pub halo_vertices: u64,
    /// Cut edges incident to this partition (each counted once here, and
    /// once more by the partition on the other side).
    pub cut_edges: u64,
}

/// A complete `k`-way split of a graph. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphPartition {
    kind: PartitionerKind,
    assignment: Vec<u32>,
    parts: Vec<PartitionPart>,
    cut_edges: u64,
}

impl GraphPartition {
    /// Partitions `g` into `num_parts` parts with the given strategy.
    ///
    /// # Panics
    ///
    /// Panics if `num_parts` is 0.
    pub fn build(g: &CsrGraph, num_parts: usize, kind: PartitionerKind) -> Self {
        assert!(num_parts >= 1, "need at least one partition");
        let assignment = match kind {
            PartitionerKind::Range => range_assignment(g.num_vertices(), num_parts),
            PartitionerKind::EdgeCut => edge_cut_assignment(g, num_parts),
        };
        Self::from_assignment(g, assignment, num_parts, kind)
    }

    /// Assembles the partition views for a vertex→partition assignment.
    ///
    /// # Panics
    ///
    /// Panics if `num_parts` is 0, the assignment length mismatches the
    /// vertex count, or any entry is `>= num_parts`.
    fn from_assignment(
        g: &CsrGraph,
        assignment: Vec<u32>,
        num_parts: usize,
        kind: PartitionerKind,
    ) -> Self {
        let n = g.num_vertices();
        assert!(num_parts >= 1, "need at least one partition");
        assert_eq!(assignment.len(), n, "assignment must cover every vertex");
        // Global → local ids; members of each part in ascending global id.
        let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); num_parts];
        let mut local = vec![0 as VertexId; n];
        for (v, &p) in assignment.iter().enumerate() {
            let p = p as usize;
            assert!(p < num_parts, "vertex {v} assigned to out-of-range partition {p}");
            local[v] = members[p].len() as VertexId;
            members[p].push(v as VertexId);
        }
        let mut parts = Vec::with_capacity(num_parts);
        let mut directed_cut = 0u64;
        for (p, vertices) in members.into_iter().enumerate() {
            let mut el = EdgeList::new(vertices.len());
            let mut boundary = Vec::new();
            let mut halo: Vec<VertexId> = Vec::new();
            let mut cut = 0u64;
            for (lu, &gu) in vertices.iter().enumerate() {
                let mut external = false;
                for &gv in g.neighbors(gu as usize) {
                    if assignment[gv as usize] as usize == p {
                        if gu < gv {
                            el.push(lu as VertexId, local[gv as usize]);
                        }
                    } else {
                        external = true;
                        cut += 1;
                        halo.push(gv);
                    }
                }
                if external {
                    boundary.push(lu as VertexId);
                }
            }
            halo.sort_unstable();
            halo.dedup();
            directed_cut += cut;
            parts.push(PartitionPart {
                vertices,
                graph: CsrGraph::from_edge_list(el),
                boundary,
                halo_vertices: halo.len() as u64,
                cut_edges: cut,
            });
        }
        // Each cut edge was seen once from each side.
        debug_assert_eq!(directed_cut % 2, 0);
        GraphPartition { kind, assignment, parts, cut_edges: directed_cut / 2 }
    }

    /// The strategy that produced this split.
    pub fn kind(&self) -> PartitionerKind {
        self.kind
    }

    /// Number of partitions (some may be empty when `k > |V|`).
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// `assignment()[v]` is vertex `v`'s partition.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// The per-partition views.
    pub fn parts(&self) -> &[PartitionPart] {
        &self.parts
    }

    /// Distinct undirected edges crossing partitions (each counted once).
    pub fn cut_edges(&self) -> u64 {
        self.cut_edges
    }
}

/// Contiguous near-even split of `0..n` into `k` ranges (the first
/// `n % k` ranges get the extra vertex).
fn range_assignment(n: usize, k: usize) -> Vec<u32> {
    let base = n / k;
    let extra = n % k;
    let mut assignment = Vec::with_capacity(n);
    for p in 0..k {
        let len = base + usize::from(p < extra);
        assignment.extend(std::iter::repeat(p as u32).take(len));
    }
    assignment
}

/// Deterministic greedy edge-cut. The `k` highest-degree vertices seed
/// one partition each (spreading the hubs is what balances degree-bound
/// work across chips); every remaining vertex, in descending degree order
/// (ties by id), goes to the partition with the most already placed
/// neighbors, among partitions whose degree-sum load still fits the
/// per-partition budget; fall back to the lightest partition when all are
/// full. Ties prefer the lighter, then lower-indexed partition.
fn edge_cut_assignment(g: &CsrGraph, k: usize) -> Vec<u32> {
    let n = g.num_vertices();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&v| (Reverse(g.degree(v)), v));
    // Vertex weight deg + 1 balances edge work while still spreading
    // isolated vertices.
    let total_weight = n as u64 + 2 * g.num_edges() as u64;
    let budget = total_weight.div_ceil(k as u64);
    let mut load = vec![0u64; k];
    let mut assignment = vec![u32::MAX; n];
    let mut gain = vec![0u64; k];
    for (p, &v) in order.iter().take(k).enumerate() {
        assignment[v] = p as u32;
        load[p] = g.degree(v) as u64 + 1;
    }
    for &v in order.iter().skip(k) {
        for g_slot in gain.iter_mut() {
            *g_slot = 0;
        }
        for &w in g.neighbors(v) {
            let a = assignment[w as usize];
            if a != u32::MAX {
                gain[a as usize] += 1;
            }
        }
        let weight = g.degree(v) as u64 + 1;
        let mut best: Option<usize> = None;
        for p in 0..k {
            if load[p] + weight > budget {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => (gain[p], Reverse(load[p])) > (gain[b], Reverse(load[b])),
            };
            if better {
                best = Some(p);
            }
        }
        let p = best.unwrap_or_else(|| (0..k).min_by_key(|&p| (load[p], p)).expect("k >= 1"));
        assignment[v] = p as u32;
        load[p] += weight;
    }
    assignment
}

/// Iterates the edges of the subgraph induced by `in_set`, each once as
/// `(u, v)` with `u < v`.
///
/// `in_set[v]` must be `true` iff vertex `v` is in the set.
///
/// # Panics
///
/// Panics if `in_set.len() != g.num_vertices()`.
pub fn induced_edges<'a>(
    g: &'a CsrGraph,
    in_set: &'a [bool],
) -> impl Iterator<Item = (VertexId, VertexId)> + 'a {
    assert_eq!(in_set.len(), g.num_vertices(), "membership mask length mismatch");
    g.edges().filter(move |&(u, v)| in_set[u as usize] && in_set[v as usize])
}

/// Counts the edges of the induced subgraph, iterating only the adjacency
/// lists of set members (cheaper than [`induced_edges`] when the set is
/// small relative to the graph).
///
/// # Panics
///
/// Panics if `in_set.len() != g.num_vertices()`.
pub fn count_induced_edges(g: &CsrGraph, in_set: &[bool]) -> usize {
    assert_eq!(in_set.len(), g.num_vertices(), "membership mask length mismatch");
    let mut count = 0usize;
    for u in 0..g.num_vertices() {
        if !in_set[u] {
            continue;
        }
        for &v in g.neighbors(u) {
            if (u as VertexId) < v && in_set[v as usize] {
                count += 1;
            }
        }
    }
    count
}

/// Degree of `v` *within* the induced subgraph.
///
/// # Panics
///
/// Panics if the mask length mismatches or `v` is out of range.
pub fn induced_degree(g: &CsrGraph, in_set: &[bool], v: usize) -> usize {
    assert_eq!(in_set.len(), g.num_vertices(), "membership mask length mismatch");
    g.neighbors(v).iter().filter(|&&u| in_set[u as usize]).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        // Square 0-1-2-3 plus diagonal 0-2 plus pendant 4.
        CsrGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (2, 4)])
    }

    #[test]
    fn induced_edges_respects_membership() {
        let g = sample();
        let in_set = vec![true, true, true, false, false];
        let edges: Vec<_> = induced_edges(&g, &in_set).collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn count_matches_iterator() {
        let g = sample();
        for mask in 0u8..32 {
            let in_set: Vec<bool> = (0..5).map(|i| mask & (1 << i) != 0).collect();
            assert_eq!(
                count_induced_edges(&g, &in_set),
                induced_edges(&g, &in_set).count(),
                "mismatch for mask {mask:05b}"
            );
        }
    }

    #[test]
    fn induced_degree_counts_only_members() {
        let g = sample();
        let in_set = vec![true, false, true, true, false];
        assert_eq!(induced_degree(&g, &in_set, 0), 2); // 2 and 3, not 1
        assert_eq!(induced_degree(&g, &in_set, 2), 2); // 0 and 3, not 1/4
    }

    #[test]
    fn empty_set_has_no_edges() {
        let g = sample();
        let in_set = vec![false; 5];
        assert_eq!(count_induced_edges(&g, &in_set), 0);
    }

    #[test]
    fn full_set_is_whole_graph() {
        let g = sample();
        let in_set = vec![true; 5];
        assert_eq!(count_induced_edges(&g, &in_set), g.num_edges());
    }

    fn check_partition_invariants(g: &CsrGraph, part: &GraphPartition) {
        // Every vertex in exactly one partition.
        assert_eq!(part.assignment().len(), g.num_vertices());
        let total_members: usize = part.parts().iter().map(|p| p.vertices.len()).sum();
        assert_eq!(total_members, g.num_vertices());
        for (p, view) in part.parts().iter().enumerate() {
            for (lu, &gu) in view.vertices.iter().enumerate() {
                assert_eq!(part.assignment()[gu as usize] as usize, p);
                assert!(lu < view.vertices.len());
            }
            // Each part's induced graph matches the mask-based helpers.
            let mut in_set = vec![false; g.num_vertices()];
            for &gv in &view.vertices {
                in_set[gv as usize] = true;
            }
            assert_eq!(view.graph.num_edges(), count_induced_edges(g, &in_set));
            // Edge membership agrees vertex by vertex.
            for (lu, &gu) in view.vertices.iter().enumerate() {
                assert_eq!(
                    view.graph.degree(lu),
                    induced_degree(g, &in_set, gu as usize),
                    "part {p}, vertex {gu}"
                );
            }
        }
        // Edge conservation: induced edges plus distinct cut edges cover
        // the whole graph, and directed cut counts pair up.
        let induced: u64 = part.parts().iter().map(|p| p.graph.num_edges() as u64).sum();
        assert_eq!(induced + part.cut_edges(), g.num_edges() as u64);
        let directed: u64 = part.parts().iter().map(|p| p.cut_edges).sum();
        assert_eq!(directed, 2 * part.cut_edges());
    }

    #[test]
    fn both_partitioners_hold_invariants_on_the_sample() {
        let g = sample();
        for kind in PartitionerKind::ALL {
            for k in 1..=6 {
                let part = GraphPartition::build(&g, k, kind);
                assert_eq!(part.num_parts(), k, "{kind} k={k}");
                check_partition_invariants(&g, &part);
            }
        }
    }

    #[test]
    fn one_partition_is_the_whole_graph() {
        let g = sample();
        for kind in PartitionerKind::ALL {
            let part = GraphPartition::build(&g, 1, kind);
            assert_eq!(part.cut_edges(), 0);
            let view = &part.parts()[0];
            assert_eq!(view.graph.num_edges(), g.num_edges());
            assert!(view.boundary.is_empty());
            assert_eq!(view.halo_vertices, 0);
        }
    }

    #[test]
    fn range_partitions_are_contiguous_and_near_even() {
        let assignment = super::range_assignment(10, 4);
        assert_eq!(assignment, vec![0, 0, 0, 1, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn edgecut_beats_range_on_a_two_cluster_graph() {
        // Two K4 cliques joined by one bridge, interleaved vertex ids so
        // a range split cuts through both cliques.
        let cluster_a = [0u32, 2, 4, 6];
        let cluster_b = [1u32, 3, 5, 7];
        let mut edges = Vec::new();
        for c in [cluster_a, cluster_b] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((c[i], c[j]));
                }
            }
        }
        edges.push((6, 7)); // bridge
        let g = CsrGraph::from_edges(8, edges);
        let range = GraphPartition::build(&g, 2, PartitionerKind::Range);
        let edgecut = GraphPartition::build(&g, 2, PartitionerKind::EdgeCut);
        check_partition_invariants(&g, &range);
        check_partition_invariants(&g, &edgecut);
        assert_eq!(edgecut.cut_edges(), 1, "greedy must find the bridge");
        assert!(range.cut_edges() > edgecut.cut_edges());
    }

    #[test]
    fn boundary_and_halo_bookkeeping_matches_by_hand() {
        // Square 0-1-2-3 + diagonal 0-2 + pendant 4 split {0,1} | {2,3,4}:
        // cut edges 1-2, 0-3, 0-2.
        let g = sample();
        let part =
            GraphPartition::from_assignment(&g, vec![0, 0, 1, 1, 1], 2, PartitionerKind::Range);
        assert_eq!(part.cut_edges(), 3);
        let p0 = &part.parts()[0];
        assert_eq!(p0.vertices, vec![0, 1]);
        assert_eq!(p0.graph.num_edges(), 1); // 0-1
        assert_eq!(p0.boundary, vec![0, 1]); // both touch the other side
        assert_eq!(p0.halo_vertices, 2); // globals 2 and 3
        assert_eq!(p0.cut_edges, 3);
        let p1 = &part.parts()[1];
        assert_eq!(p1.vertices, vec![2, 3, 4]);
        assert_eq!(p1.graph.num_edges(), 2); // 2-3, 2-4
        assert_eq!(p1.boundary, vec![0, 1]); // locals of globals 2, 3
        assert_eq!(p1.halo_vertices, 2); // globals 0 and 1
        assert_eq!(p1.cut_edges, 3);
    }

    #[test]
    fn more_parts_than_vertices_leaves_empties() {
        let g = CsrGraph::from_edges(2, [(0, 1)]);
        for kind in PartitionerKind::ALL {
            let part = GraphPartition::build(&g, 4, kind);
            check_partition_invariants(&g, &part);
            assert_eq!(part.num_parts(), 4);
            let nonempty = part.parts().iter().filter(|p| !p.vertices.is_empty()).count();
            assert_eq!(nonempty, 2, "{kind}");
        }
    }

    #[test]
    fn partitioner_tokens_round_trip() {
        for kind in PartitionerKind::ALL {
            assert_eq!(kind.name().parse::<PartitionerKind>().unwrap(), kind);
        }
        assert!("metis".parse::<PartitionerKind>().is_err());
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_are_rejected() {
        let _ = GraphPartition::build(&sample(), 0, PartitionerKind::Range);
    }
}
