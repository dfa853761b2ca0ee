//! Memory-system substrate for the GNNIE accelerator simulator.
//!
//! The paper's evaluation hinges on three memory-system claims:
//!
//! 1. off-chip accesses can be made **sequential** by degree-ordered
//!    placement plus the α/γ replacement policy (§VI);
//! 2. random accesses are confined to on-chip buffers;
//! 3. DRAM traffic dominates energy (Fig. 14, 3.97 pJ/bit HBM).
//!
//! This crate implements the pieces those claims rest on:
//!
//! * [`HbmModel`] — an HBM 2.0 timing/energy model (Ramulator substitute)
//!   that distinguishes sequential from random transactions.
//! * [`DoubleBuffer`] — double-buffered fetch overlap for the on-chip
//!   buffers.
//! * [`CacheSim`] — the policy-agnostic cache walk, with the replacement
//!   decision behind the [`CachePolicy`] trait: the paper's §VI α/γ
//!   policy ([`PaperAlphaGamma`](cache::PaperAlphaGamma)) next to
//!   LRU/LFU/Belady comparators for the cache-policy ablation.
//! * [`MemoryHierarchy`] — a tiered on-chip → DRAM → SSD feature store
//!   behind the [`VertexMemory`] trait, with workload-aware capacity
//!   splitting ([`tier`]).
//! * [`EnergyLedger`] — per-component energy bookkeeping for Fig. 14/15.

pub mod cache;
pub mod dram;
pub mod energy;
pub mod psum;
pub mod sram;
pub mod tier;

pub use cache::{CacheConfig, CachePolicy, CachePolicyKind, CacheSim, CacheSimResult};
pub use dram::{DramCounters, HbmModel};
pub use energy::{Component, EnergyLedger};
/// The workspace's one worker pool, defined in `gnnie-graph` so ingest
/// can reach it too.
pub use gnnie_graph::par::{SimPool, SimThreads, WorkerSet};
pub use psum::{PsumBuffer, PsumStats, RetentionPolicy};
pub use sram::DoubleBuffer;
pub use tier::{
    MemoryHierarchy, SplitMode, TierBudgets, TierConfig, TierSpec, TierStats, VertexMemory,
};
