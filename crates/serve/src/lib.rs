//! Batched, pipelined inference serving on top of the GNNIE engine.
//!
//! The simulator's [`Engine`](gnnie_core::engine::Engine) answers one
//! `(model, dataset)` question per call; a serving deployment instead
//! sees a queue of concurrent requests. This crate adds the layer that
//! turns the one-shot simulator into a serving engine, following the
//! throughput playbook of GNN inference-serving systems (DGI's
//! layer-wise batching, arXiv:2211.15082; DCI's workload-aware
//! cross-job allocation, arXiv:2503.01281):
//!
//! * **[`request`]** — [`InferenceRequest`] and the [`ModelKey`]
//!   weight-compatibility group (equal keys ⇒ identical Table III
//!   stacks ⇒ shareable weights);
//! * **[`scheduler`]** — [`BatchScheduler`] groups compatible requests
//!   into model-homogeneous batches (FIFO vs model-affinity policies),
//!   so layer weights stream from DRAM once per batch: the leader pays,
//!   followers run with
//!   [`weights_resident`](gnnie_core::engine::RunOptions::weights_resident);
//! * **[`pipeline`](mod@pipeline)** — two-resource list scheduling of the batches'
//!   Weighting/Aggregation phases: while batch *i* aggregates, batch
//!   *i+1* weights, and the makespan never loses to back-to-back
//!   execution;
//! * **[`daemon`]** — [`Daemon`], the one serving executor: long-lived
//!   channel-fed request workers ([`WorkerSet`](gnnie_core::WorkerSet))
//!   sharing one [`SimPool`](gnnie_core::SimPool) across requests, which
//!   simulate each request cold and resident once and memoize the costs;
//! * **[`server`]** — [`schedule_batched`] plans a queue known at t = 0
//!   over those costs and reports throughput, p50/p95/p99 simulated
//!   latency, and the weight-load cycles batching saved versus a serial
//!   `Engine::run` loop.
//!
//! On top of the static path sits **online serving** — the queue is no
//! longer known at t = 0:
//!
//! * **[`clock`](mod@clock)** — [`SimClock`]: everything is timestamped in
//!   accelerator [`Cycle`]s; seconds only at the edges;
//! * **[`loadgen`]** — [`LoadGen`] stamps a queue into an arrival trace
//!   (static / Poisson / bursty, deterministic via the seeded shim RNG)
//!   with an [`SlaClass`] + [`QualityTier`] mix;
//! * **[`online`]** — [`schedule_online`] replays the trace through a
//!   continuous-batching scheduler: SLA-aware admission control,
//!   deadline-urgency batch fill, fill-vs-slack waiting, and weight
//!   residency carried across consecutive same-model batches — all
//!   exact integer cycle arithmetic over the daemon's cost oracle, so
//!   replays are bit-identical at any thread count
//!   ([`Daemon::serve_online`] profiles and replays in one call).
//!
//! # Example
//!
//! ```
//! use gnnie_serve::{schedule_batched, BatchScheduler, Daemon, DaemonConfig};
//! use gnnie_serve::{Dataset, GnnModel, InferenceRequest, SchedulerPolicy, SimClock};
//!
//! // Four GCN queries over small Cora-like graphs (distinct seeds).
//! let queue: Vec<_> = (0..4)
//!     .map(|i| InferenceRequest::new(i, GnnModel::Gcn, Dataset::Cora, 0.05, 40 + i))
//!     .collect();
//! let daemon = Daemon::new(DaemonConfig { workers: 2, ..DaemonConfig::default() });
//! let costs = daemon.profile_costs(&queue);
//! daemon.shutdown();
//! let scheduler = BatchScheduler::new(SchedulerPolicy::ModelAffinity, 4);
//! let report = schedule_batched(&queue, &scheduler, &costs, &SimClock::paper(Dataset::Cora));
//! // One model-homogeneous batch: three followers reuse the leader's
//! // resident weights, and the batched schedule never loses to the
//! // serial Engine::run loop.
//! assert_eq!(report.batches.len(), 1);
//! assert!(report.weight_load_cycles_saved > 0);
//! assert!(report.pipelined_total_cycles < report.serial_total_cycles);
//! println!(
//!     "{} req: {:.0} inf/s, p95 {:.1} us, saved {} weight-load cycles",
//!     report.requests.len(),
//!     report.throughput_inferences_per_s(),
//!     report.p95_latency_s() * 1e6,
//!     report.weight_load_cycles_saved,
//! );
//! ```

pub mod clock;
pub mod daemon;
pub mod loadgen;
pub mod online;
pub mod pipeline;
pub mod request;
pub mod scheduler;
pub mod server;

pub use clock::{Cycle, SimClock};
pub use daemon::{Daemon, DaemonConfig, ProfileCacheStats};
pub use loadgen::{ArrivalProcess, LoadGen, SlaMix};
pub use online::{
    schedule_online, OnlineBatchReport, OnlineConfig, OnlineOutcome, OnlineReport,
    RejectedRequest, RequestCost,
};
pub use pipeline::{pipeline, BatchProfile, PhasePair, PipelineSchedule, PipelineState};
pub use request::{InferenceRequest, ModelKey, OnlineRequest, QualityTier, SlaClass};
pub use scheduler::{Batch, BatchPlan, BatchScheduler, SchedulerPolicy};
pub use server::{
    percentile_nearest_rank, report_profile, schedule_batched, BatchReport, RequestOutcome,
    ServeReport,
};

// Re-exported so downstream callers (CLI, bench) can build requests
// without a direct gnn/graph dependency.
pub use gnnie_gnn::model::GnnModel;
pub use gnnie_graph::Dataset;
