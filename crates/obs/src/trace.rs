//! The span/event tracer: typed events on named tracks, a pluggable
//! [`TraceSink`], and the cheap [`Trace`] handle the rest of the stack
//! threads around.
//!
//! Every timestamp is a **simulated cycle**. Emission sites live only in
//! serial orchestration code working from replay-stable report data (the
//! engine's `finish`, the scale-out merge loop, the online scheduler), so
//! the recorded stream — and everything exported from it — is a pure
//! function of the run's inputs, bit-identical at any `--sim-threads`
//! width.

use std::sync::{Arc, Mutex};

/// A typed argument attached to an event (rendered into the Chrome
/// `args` object).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An exact integer quantity (cycles, bytes, counts).
    U64(u64),
    /// A derived ratio or rate.
    F64(f64),
    /// A label.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

/// One recorded event. `process`/`track` name the timeline row the event
/// lands on (Chrome's pid/tid pair): processes group related tracks
/// (`engine`, `chips`, `tiers`, `serve`), tracks are the rows within
/// (`phases`, `chip0`, `onchip`, one per SLA class, ...).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A complete span: `[start, start + dur)` in simulated cycles.
    Span {
        process: String,
        track: String,
        name: String,
        start: u64,
        dur: u64,
        args: Vec<(String, ArgValue)>,
    },
    /// A point-in-time marker.
    Instant {
        process: String,
        track: String,
        name: String,
        at: u64,
        args: Vec<(String, ArgValue)>,
    },
    /// A sampled counter value at a point in time (Chrome renders these
    /// as a stacked area chart per counter name).
    Counter { process: String, track: String, name: String, at: u64, value: u64 },
}

impl TraceEvent {
    /// The `process` the event belongs to.
    pub fn process(&self) -> &str {
        match self {
            TraceEvent::Span { process, .. }
            | TraceEvent::Instant { process, .. }
            | TraceEvent::Counter { process, .. } => process,
        }
    }

    /// The `track` within the process.
    pub fn track(&self) -> &str {
        match self {
            TraceEvent::Span { track, .. }
            | TraceEvent::Instant { track, .. }
            | TraceEvent::Counter { track, .. } => track,
        }
    }
}

/// Where recorded events go. The simulator only ever holds one sink per
/// run, behind the [`Trace`] handle.
pub trait TraceSink: Send {
    /// Records one event.
    fn record(&mut self, event: TraceEvent);
    /// Snapshot of everything recorded so far (empty for sinks that
    /// discard).
    fn events(&self) -> Vec<TraceEvent>;
}

/// The recording sink: an in-memory event log in emission order.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Vec<TraceEvent>,
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
    fn events(&self) -> Vec<TraceEvent> {
        self.events.clone()
    }
}

/// The handle threaded through the stack. `Trace::off()` (the default)
/// holds nothing: every recording method checks the `Option` and returns
/// before allocating a single string, so a flagless run pays one branch
/// per *would-be* event and nothing else. A recording handle is a cheap
/// clonable reference to one shared sink; all emission sites are serial,
/// so the mutex is never contended.
#[derive(Clone, Default)]
pub struct Trace(Option<Arc<Mutex<Box<dyn TraceSink>>>>);

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.enabled() { "Trace(on)" } else { "Trace(off)" })
    }
}

impl Trace {
    /// The disabled handle: records nothing and builds no event.
    pub fn off() -> Self {
        Trace(None)
    }

    /// A live handle recording into a fresh in-memory sink.
    pub fn recording() -> Self {
        Trace::with_sink(Box::new(MemorySink::default()))
    }

    /// A live handle recording into `sink`.
    pub fn with_sink(sink: Box<dyn TraceSink>) -> Self {
        Trace(Some(Arc::new(Mutex::new(sink))))
    }

    /// Whether events are being recorded. Emission sites with non-trivial
    /// derivation should gate on this.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records a complete span of `dur` cycles starting at `start`.
    pub fn span(
        &self,
        process: &str,
        track: &str,
        name: &str,
        start: u64,
        dur: u64,
        args: &[(&str, ArgValue)],
    ) {
        let Some(sink) = &self.0 else { return };
        sink.lock().expect("trace sink poisoned").record(TraceEvent::Span {
            process: process.to_string(),
            track: track.to_string(),
            name: name.to_string(),
            start,
            dur,
            args: own_args(args),
        });
    }

    /// Records a point-in-time marker at cycle `at`.
    pub fn instant(
        &self,
        process: &str,
        track: &str,
        name: &str,
        at: u64,
        args: &[(&str, ArgValue)],
    ) {
        let Some(sink) = &self.0 else { return };
        sink.lock().expect("trace sink poisoned").record(TraceEvent::Instant {
            process: process.to_string(),
            track: track.to_string(),
            name: name.to_string(),
            at,
            args: own_args(args),
        });
    }

    /// Records a counter sample at cycle `at`.
    pub fn counter(&self, process: &str, track: &str, name: &str, at: u64, value: u64) {
        let Some(sink) = &self.0 else { return };
        sink.lock().expect("trace sink poisoned").record(TraceEvent::Counter {
            process: process.to_string(),
            track: track.to_string(),
            name: name.to_string(),
            at,
            value,
        });
    }

    /// Snapshot of the recorded stream, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.0 {
            Some(sink) => sink.lock().expect("trace sink poisoned").events(),
            None => Vec::new(),
        }
    }
}

fn own_args(args: &[(&str, ArgValue)]) -> Vec<(String, ArgValue)> {
    args.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_records_nothing_and_allocates_nothing() {
        let t = Trace::off();
        assert!(!t.enabled());
        t.span("p", "t", "s", 0, 1, &[("bytes", 42u64.into())]);
        t.instant("p", "t", "i", 5, &[]);
        t.counter("p", "t", "c", 5, 1);
        assert!(t.events().is_empty());
    }

    #[test]
    fn recording_handle_preserves_emission_order_and_payloads() {
        let t = Trace::recording();
        t.span("engine", "phases", "Weighting L0", 0, 10, &[("cycles", 10u64.into())]);
        t.instant("serve", "interactive", "enqueue req3", 7, &[]);
        t.counter("tiers", "onchip", "evictions", 10, 2);
        let events = t.events();
        assert_eq!(events.len(), 3);
        match &events[0] {
            TraceEvent::Span { process, track, name, start, dur, args } => {
                assert_eq!((process.as_str(), track.as_str()), ("engine", "phases"));
                assert_eq!(name, "Weighting L0");
                assert_eq!((*start, *dur), (0, 10));
                assert_eq!(args, &[("cycles".to_string(), ArgValue::U64(10))]);
            }
            other => panic!("expected a span, got {other:?}"),
        }
        assert_eq!(events[1].process(), "serve");
        assert_eq!(events[2].track(), "onchip");
    }
}
