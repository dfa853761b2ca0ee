//! Deterministic observability for the GNNIE simulator.
//!
//! Two surfaces, both keyed to **simulated cycles**, never wall time:
//!
//! * [`Trace`] — a span/event tracer. Phases, per-chip cache walks,
//!   inter-chip halo transfers, per-tier residency, and serve-side batch
//!   lifecycles land on named `process/track` pairs; [`chrome_trace_json`]
//!   turns the recorded stream into Chrome trace-event JSON (loadable in
//!   Perfetto / `chrome://tracing`), and [`flame_summary`] renders a
//!   compact text flamegraph of where the cycles went.
//! * [`Metrics`] — a [`MetricsRegistry`] of named counters, gauges, and
//!   histograms, one queryable surface over the stat fields the engine,
//!   memory hierarchy, and scheduler used to keep ad hoc.
//!
//! Both are **zero-cost when off**: the handles are `Option`-backed, the
//! disabled state holds no allocation and every recording call returns
//! before building a single string (see [`Trace::off`]). And because every
//! timestamp is a simulated cycle emitted from replay-stable report data,
//! traces and metric dumps are bit-identical at any `--sim-threads`
//! width — the same contract every report path in this workspace obeys,
//! property-tested the same way.

pub mod chrome;
pub mod flame;
pub mod metrics;
pub mod trace;

pub use chrome::{chrome_trace_json, CHROME_TIME_UNIT_NOTE};
pub use flame::flame_summary;
pub use metrics::{percentile_nearest_rank, Histogram, Metric, Metrics, MetricsRegistry};
pub use trace::{ArgValue, MemorySink, Trace, TraceEvent, TraceSink};

/// The one bundle a front end records into: a trace handle and a
/// metrics handle, each independently on or off. `Obs::default()` is
/// fully disabled and free to clone and pass around.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Span/event sink (off unless [`Trace::recording`]).
    pub trace: Trace,
    /// Counter/gauge/histogram registry (off unless [`Metrics::recording`]).
    pub metrics: Metrics,
}

impl Obs {
    /// A fully disabled bundle (no allocations, all recording is a no-op).
    pub fn off() -> Self {
        Obs::default()
    }

    /// A bundle with both surfaces live and recording.
    pub fn recording() -> Self {
        Obs { trace: Trace::recording(), metrics: Metrics::recording() }
    }

    /// Whether either surface is live (callers may skip derived work
    /// entirely when this is false).
    pub fn enabled(&self) -> bool {
        self.trace.enabled() || self.metrics.enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_bundle_is_fully_off() {
        let obs = Obs::default();
        assert!(!obs.enabled());
        assert!(!obs.trace.enabled());
        assert!(!obs.metrics.enabled());
        // Recording into a disabled bundle is a silent no-op, not a panic.
        obs.trace.span("engine", "phases", "Weighting L0", 0, 10, &[]);
        obs.metrics.counter_add("core.engine.total_cycles", 10);
        assert!(obs.trace.events().is_empty());
        assert!(obs.metrics.snapshot().is_empty());
    }

    #[test]
    fn a_recording_bundle_is_live_on_both_surfaces() {
        let obs = Obs::recording();
        assert!(obs.enabled());
        obs.trace.span("engine", "phases", "Weighting L0", 0, 10, &[]);
        obs.metrics.counter_add("core.engine.total_cycles", 10);
        assert_eq!(obs.trace.events().len(), 1);
        assert_eq!(obs.metrics.snapshot().len(), 1);
    }

    #[test]
    fn clones_share_the_same_sink() {
        let obs = Obs::recording();
        let clone = obs.clone();
        clone.trace.span("serve", "batches", "batch0", 5, 7, &[]);
        assert_eq!(obs.trace.events().len(), 1, "a clone records into the original");
    }
}
