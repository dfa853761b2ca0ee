//! Host-side measurement: wall-clock spans recorded from the benchmark's
//! own code around each public call into a layer, their self times, the
//! process's peak resident memory, and small order statistics.
//!
//! Spans land in a `gnnie_obs::Trace` under process `host`, one track per
//! layer (`graph`, `ingest`, `core`, `serve`, `bench`). Timestamps and
//! durations are host nanoseconds since the benchmark started — not
//! simulated cycles, which is what the simulator's own traces carry. Each
//! span's args hold its `id`, its `parent` span id (0 at the top level)
//! and the `pass` it belongs to, so self times can be recovered from the
//! exported file alone.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use gnnie_obs::{ArgValue, Trace, TraceEvent};

/// What a top-level pass of the benchmark is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// One repetition of the workload's set-up.
    Setup,
    /// One timed iteration of the workload.
    Iteration,
    /// The untimed correctness pass after the timed loop.
    Check,
}

impl PassKind {
    fn name(self) -> &'static str {
        match self {
            PassKind::Setup => "setup",
            PassKind::Iteration => "iteration",
            PassKind::Check => "check",
        }
    }
}

/// The span recorder. A disabled recorder only runs the closures.
pub struct Host {
    trace: Trace,
    recording: Cell<bool>,
    t0: Instant,
    next_id: Cell<u64>,
    stack: RefCell<Vec<u64>>,
    /// `(pass id, kind)` of every traced pass, in order.
    passes: RefCell<Vec<(u64, PassKind)>>,
}

impl Host {
    /// A recorder; `traced = false` records nothing.
    pub fn new(traced: bool) -> Self {
        Host {
            trace: if traced { Trace::recording() } else { Trace::off() },
            recording: Cell::new(true),
            t0: Instant::now(),
            next_id: Cell::new(1),
            stack: RefCell::new(Vec::new()),
            passes: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn traced(&self) -> bool {
        self.trace.enabled() && self.recording.get()
    }

    /// Pauses (`false`) or resumes span recording on a traced recorder.
    pub fn set_recording(&self, on: bool) {
        self.recording.set(on);
    }

    /// Runs `f` as one top-level pass (track `bench`); returns its result
    /// and its wall-clock seconds. The pass span's self time is the part
    /// of the pass no layer span covers.
    pub fn pass<T>(&self, kind: PassKind, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.next_id.get();
        if self.traced() {
            self.passes.borrow_mut().push((id, kind));
        }
        let start = Instant::now();
        let out = self.span("bench", kind.name(), f);
        (out, start.elapsed().as_secs_f64())
    }

    /// Runs `f` inside a span on track `layer`.
    pub fn span<T>(&self, layer: &str, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.traced() {
            return f();
        }
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        let parent = self.stack.borrow().last().copied().unwrap_or(0);
        let pass = self.passes.borrow().last().map_or(0, |p| p.0);
        self.stack.borrow_mut().push(id);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.stack.borrow_mut().pop();
        self.trace.span(
            "host",
            layer,
            &format!("{layer}.{name}"),
            start,
            end - start,
            &[("id", id.into()), ("parent", parent.into()), ("pass", pass.into())],
        );
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).expect("benchmark ran for centuries")
    }

    /// The recorded spans, in completion order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.trace.events()
    }

    /// Per-layer self seconds: for every span name, the median over
    /// timed iterations of the name's summed self time in the iteration.
    /// A name that never runs inside an iteration is measured over the
    /// set-up repetitions instead, then over the check pass.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let spans = spans_of(&self.events());
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            *child_ns.entry(s.parent).or_default() += s.dur;
        }
        // name -> pass id -> summed self ns
        let mut by_name: BTreeMap<String, BTreeMap<u64, u64>> = BTreeMap::new();
        for s in &spans {
            let own = s.dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *by_name.entry(s.name.clone()).or_default().entry(s.pass).or_default() += own;
        }
        let passes = self.passes.borrow();
        let mut out = BTreeMap::new();
        for (name, per_pass) in by_name {
            for kind in [PassKind::Iteration, PassKind::Setup, PassKind::Check] {
                let of_kind: Vec<&u64> =
                    passes.iter().filter(|p| p.1 == kind).map(|p| &p.0).collect();
                if !of_kind.iter().any(|id| per_pass.contains_key(id)) {
                    continue;
                }
                let secs: Vec<f64> = of_kind
                    .iter()
                    .map(|id| per_pass.get(id).copied().unwrap_or(0) as f64 * 1e-9)
                    .collect();
                out.insert(name, median(&secs));
                break;
            }
        }
        out
    }
}

struct HostSpan {
    name: String,
    id: u64,
    parent: u64,
    pass: u64,
    dur: u64,
}

fn spans_of(events: &[TraceEvent]) -> Vec<HostSpan> {
    let arg = |args: &[(String, ArgValue)], key: &str| -> u64 {
        args.iter()
            .find_map(|(k, v)| match v {
                ArgValue::U64(n) if k == key => Some(*n),
                _ => None,
            })
            .unwrap_or(0)
    };
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Span { name, dur, args, .. } => Some(HostSpan {
                name: name.clone(),
                id: arg(args, "id"),
                parent: arg(args, "parent"),
                pass: arg(args, "pass"),
                dur: *dur,
            }),
            _ => None,
        })
        .collect()
}

/// Median of `values` (mean of the middle pair for even counts; 0 for
/// none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The process's peak resident set in MiB (`VmHWM`), covering set-up and
/// the timed loop alike.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
