//! Graph substrate for the GNNIE accelerator simulator.
//!
//! Provides everything GNNIE needs from the graph side:
//!
//! * [`CsrGraph`] — compressed-sparse-row adjacency storage (the format the
//!   paper stores in HBM, §III).
//! * [`generate`] — seeded synthetic graph generators, including the
//!   power-law models real datasets exhibit (§I challenge 2).
//! * [`datasets`] — synthesizers for the five benchmark datasets of paper
//!   Table II (Cora, Citeseer, Pubmed, PPI, Reddit), matched on vertex and
//!   edge counts, feature length, label count and feature sparsity.
//! * [`features`] — sparse input-feature generation with the bimodal
//!   per-vertex sparsity profile of paper Fig. 2.
//! * [`reorder`] — linear-time degree binning and descending-degree
//!   relabeling (the preprocessing of §VI).
//! * [`partition`] — induced-subgraph edge iteration used by the cache,
//!   and the k-way partitioner behind multi-accelerator scale-out.
//! * [`par`] — [`SimPool`], the one worker pool every parallel host loop
//!   in the workspace runs on, from synthesis rounds and ingest's CSR
//!   build up to the simulator's sharded scans.
//!
//! # Example
//!
//! ```
//! use gnnie_graph::generate;
//!
//! let g = generate::erdos_renyi(100, 300, 42);
//! assert_eq!(g.num_vertices(), 100);
//! let total_degree: usize = (0..100).map(|v| g.degree(v)).sum();
//! assert_eq!(total_degree, 2 * g.num_edges());
//! ```

pub mod coo;
pub mod csr;
pub mod datasets;
pub mod features;
pub mod generate;
pub mod par;
pub mod partition;
pub mod reorder;
pub mod traversal;

pub use coo::EdgeList;
pub use csr::{CsrBuildStats, CsrGraph, GraphBuildError};
pub use datasets::{Dataset, DatasetSpec, GraphDataset};
pub use par::{SimPool, SimThreads};
pub use partition::{GraphPartition, PartitionPart, PartitionerKind};
pub use reorder::Permutation;

/// Vertex identifier. Graphs in the paper reach 233 k vertices (Reddit);
/// `u32` covers that with room to spare while halving adjacency storage.
pub type VertexId = u32;
