//! Real-graph ingestion for the GNNIE simulator.
//!
//! Every other crate in the workspace consumes a
//! [`gnnie_graph::GraphDataset`]; until this crate existed, the only way
//! to get one was the Table II synthesizer. `gnnie-ingest` adds the
//! file-backed path — the DGI/Ginex-style observation being that
//! inference results become credible at scale only when the engine runs
//! real edge-list/CSR datasets, and that ingest itself is a
//! throughput-critical path worth parallelizing:
//!
//! * [`parse`] — streaming parsers for whitespace/CSV/TSV edge lists
//!   (with line-numbered errors and self-describing `gnnie` header
//!   directives);
//! * [`mod@format`] — on-disk format auto-detection from leading bytes;
//! * [`build`] — a COO→CSR builder on the workspace's one worker pool
//!   ([`gnnie_graph::SimPool`]; per-shard degree counting + prefix-sum
//!   merge) that is bit-for-bit identical to the serial
//!   [`gnnie_graph::CsrGraph`] path;
//! * [`snapshot`] — the checksummed, write-once `.gnniecsr` snapshot
//!   cache: one layout, one writer ([`write_snapshot`]), a copying
//!   reference reader ([`snapshot::decode_snapshot`]) and a zero-copy mmap loader
//!   ([`open_snapshot`]); reloading reproduces byte-identical
//!   `InferenceReport`s;
//! * [`export`] — the edge-list writer (fixtures and the round-trip
//!   guarantee);
//! * [`registry`] — [`DatasetRegistry`], resolving a dataset name or
//!   path to file-backed data when present and falling back to the
//!   synthesizer offline;
//! * [`source`] — [`DataSource`], the one entry point for all three
//!   resolution paths, returning a [`Resolved`] dataset with its
//!   [`Provenance`].
//!
//! # Example
//!
//! ```
//! use gnnie_graph::Dataset;
//! use gnnie_graph::{CsrGraph, SimPool, SimThreads};
//! use gnnie_ingest::{build, registry::DatasetRegistry};
//!
//! // No data directory: names resolve to the Table II synthesizer.
//! let reg = DatasetRegistry::new(None);
//! let out = reg.load(Dataset::Cora, 0.02, 42, &SimPool::serial()).unwrap();
//! assert!(out.dataset.graph.num_edges() > 0);
//!
//! // The parallel CSR builder matches the serial path bit-for-bit.
//! let pairs = vec![(0, 1), (1, 2), (2, 0), (1, 2)];
//! let (serial, _) = CsrGraph::try_from_pairs(3, pairs.iter().copied()).unwrap();
//! let pool = SimPool::new(SimThreads::Fixed(4));
//! let (parallel, stats) = build::build_csr_parallel(3, &pairs, &pool).unwrap();
//! assert_eq!(serial, parallel);
//! assert_eq!(stats.duplicates, 1);
//! ```

pub mod build;
pub mod bytes;
pub mod chunked;
pub mod error;
pub mod export;
pub mod format;
#[cfg(unix)]
pub mod mmapfile;
pub mod parse;
pub mod registry;
pub mod snapshot;
pub mod source;

pub use build::build_csr_parallel;
pub use chunked::build_csr_chunked;
pub use error::IngestError;
pub use export::{export_edge_list, render_edge_list};
pub use format::{detect_file_format, EdgeListFormat, FileFormat};
pub use parse::{
    parse_edge_list, scan_edge_list, scan_edge_list_reader, EdgeListMeta, ParsedEdgeList,
    RecordedSpec,
};
pub use registry::DatasetRegistry;
pub use snapshot::{
    mmap_supported, open_snapshot, peek_snapshot_info, write_snapshot, SnapshotInfo,
    SnapshotLoad,
};
pub use source::{DataSource, Provenance, Resolved};
