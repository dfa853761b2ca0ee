//! # GNNIE — a GNN inference engine with load-balancing and
//! # graph-specific caching
//!
//! A from-scratch Rust reproduction of *GNNIE: GNN Inference Engine with
//! Load-balancing and Graph-Specific Caching* (Mondal, Manasi, Kunal,
//! Ramprasath, Sapatnekar — DAC 2022, arXiv:2105.10554).
//!
//! GNNIE is a single-engine accelerator that runs the **Weighting**
//! (`h·W`) and **Aggregation** (neighborhood reduction) phases of a broad
//! family of GNNs — GCN, GraphSAGE, GAT, GINConv, DiffPool — on one
//! 16×16 array of compute PEs. Its three contributions, all implemented
//! here, are:
//!
//! * **Flexible-MAC load balancing** for Weighting: vertex features are
//!   split into k-blocks, binned by nonzero count, and scheduled onto
//!   heterogeneous rows (4/5/6 MACs per CPE), with pairwise load
//!   redistribution on top ([`core::weighting`]);
//! * **Degree-aware, graph-specific caching** for Aggregation: vertices
//!   stream from DRAM in descending-degree order, a per-vertex
//!   unprocessed-edge counter (α) drives eviction, and *all* DRAM traffic
//!   stays sequential ([`mem::cache`]);
//! * **Linear-complexity GAT attention**: the per-edge inner product is
//!   reordered into two per-vertex dot products plus one add per edge
//!   ([`core::gat`]), making GNNIE the first engine in its comparison set
//!   to run the full GAT softmax.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`tensor`] | dense/sparse kernels, RLC codec, exp LUT, histograms |
//! | [`graph`] | CSR graphs, power-law generators, Table II dataset synthesizers |
//! | [`ingest`] | real-graph loading: edge-list/CSR parsers, parallel CSR builder, `.gnniecsr` snapshots, dataset registry |
//! | [`mem`] | HBM model, SRAM buffers, the degree-aware cache, energy ledger |
//! | [`gnn`] | golden GCN/GraphSAGE/GAT/GINConv/DiffPool + workload accounting |
//! | [`core`] | the accelerator: schedulers, cycle/energy engine, functional verification |
//! | [`serve`] | batched, pipelined inference serving (request batching, weight residency, phase pipelining) |
//! | [`baselines`] | PyG-CPU/GPU rooflines, HyGCN and AWB-GCN models |
//!
//! The `gnnie-bench` crate (not re-exported) regenerates every table and
//! figure of the paper's evaluation: `cargo run -p gnnie-bench -- all`.
//!
//! ## Quickstart
//!
//! ```
//! use gnnie::core::config::AcceleratorConfig;
//! use gnnie::core::engine::Engine;
//! use gnnie::gnn::model::{GnnModel, ModelConfig};
//! use gnnie::graph::{Dataset, GraphDataset};
//!
//! // Synthesize a Cora-like dataset at 10% scale.
//! let ds = GraphDataset::generate(Dataset::Cora, 0.1, 42);
//! // The paper's accelerator configuration (Design E, 1216 MACs).
//! let engine = Engine::new(AcceleratorConfig::paper(Dataset::Cora));
//! // Run a 2-layer GAT and inspect the report.
//! let model = ModelConfig::paper(GnnModel::Gat, &ds.spec);
//! let report = engine.run(&model, &ds);
//! assert!(report.total_cycles > 0);
//! println!("GAT on mini-Cora: {:.1} us, {:.1} uJ",
//!     report.latency_s * 1e6, report.energy.total_pj() / 1e6);
//! ```

pub use gnnie_baselines as baselines;
pub use gnnie_core as core;
pub use gnnie_gnn as gnn;
pub use gnnie_graph as graph;
pub use gnnie_ingest as ingest;
pub use gnnie_mem as mem;
pub use gnnie_obs as obs;
pub use gnnie_serve as serve;
pub use gnnie_tensor as tensor;

/// The paper's headline configuration re-exported at the top level.
pub use gnnie_core::config::AcceleratorConfig;
/// The cycle/energy engine re-exported at the top level.
pub use gnnie_core::engine::Engine;
/// The five evaluated models re-exported at the top level.
pub use gnnie_gnn::model::GnnModel;
/// The five benchmark datasets re-exported at the top level.
pub use gnnie_graph::Dataset;
