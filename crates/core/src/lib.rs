//! The GNNIE accelerator model — the paper's primary contribution.
//!
//! GNNIE (Mondal et al., DAC 2022) is a single-engine GNN inference
//! accelerator that runs both computation phases of every layer on one
//! 16×16 array of computation PEs (CPEs):
//!
//! * **Weighting** (`h·W`) with three load-balancing mechanisms — vertex
//!   feature **k-blocking**, the **flexible MAC (FM)** heterogeneous row
//!   groups, and **load redistribution (LR)** between row pairs
//!   ([`weighting`], paper §IV);
//! * **Aggregation** over graph neighborhoods, driven by the
//!   **degree-aware cache** of `gnnie-mem` so all DRAM traffic stays
//!   sequential, with degree-balanced edge mapping ([`aggregation`],
//!   paper §V–VI), and the **linear-complexity attention reordering** for
//!   GATs ([`gat`], paper §V-A).
//!
//! The crate provides three views of the machine:
//!
//! * [`engine::Engine`] — the cycle/energy model: runs a full model on a
//!   dataset and produces an [`report::InferenceReport`] with per-phase
//!   cycles, DRAM counters, and a per-component energy ledger;
//! * [`verify`] — the *functional* datapath: performs the actual
//!   arithmetic in hardware execution order (block scheduling, cache-driven
//!   edge order) so the result can be checked against `gnnie-gnn`'s golden
//!   models;
//! * [`config::AcceleratorConfig`] — the paper's design points, including
//!   Designs A–E of the Fig. 17 ablation.
//!
//! # Example
//!
//! ```
//! use gnnie_core::config::AcceleratorConfig;
//! use gnnie_core::engine::Engine;
//! use gnnie_gnn::model::{GnnModel, ModelConfig};
//! use gnnie_graph::{Dataset, GraphDataset};
//!
//! let ds = GraphDataset::generate(Dataset::Cora, 0.1, 42);
//! let cfg = AcceleratorConfig::paper(Dataset::Cora);
//! let model = ModelConfig::paper(GnnModel::Gcn, &ds.spec);
//! let report = Engine::new(cfg).run(&model, &ds);
//! assert!(report.total_cycles > 0);
//! assert!(report.energy.total_pj() > 0.0);
//! ```

pub mod aggregation;
pub mod config;
pub mod cpe;
pub mod energy;
pub mod engine;
pub mod gat;
pub mod mpe;
pub mod noc;
pub mod obs;
pub mod report;
pub mod verify;
pub mod weighting;

pub use config::{AcceleratorConfig, Design};
pub use cpe::CpeArray;
pub use engine::Engine;
pub use gnnie_mem::{SimPool, SimThreads, WorkerSet};
pub use report::{InferenceReport, PhaseReport};
pub use weighting::{WeightingMode, WeightingReport};
