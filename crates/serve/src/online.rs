//! The online continuous-batching scheduler: simulated-clock arrivals,
//! SLA-aware admission, and deadline-ordered batch fill.
//!
//! Unlike the static [`BatchScheduler`](crate::BatchScheduler), which
//! sees the whole queue at t = 0, this scheduler replays an arrival
//! trace on the simulated clock and decides *when* to cut each batch:
//! it trades batch fill (more followers amortizing one weight load)
//! against deadline slack (a tight-SLA head request cannot afford to
//! wait for stragglers). The whole loop is exact integer cycle
//! arithmetic over pre-simulated per-request costs, so a trace replays
//! bit-identically at any host-side thread count.
//!
//! Scheduling rules, in order:
//!
//! 1. **Admission.** At arrival, a request's completion is predicted as
//!    `max(now the aggregation resource frees, arrival) + resident
//!    backlog of everything pending + the request's own cold cost`. A
//!    deadline-class request predicted to miss is rejected — unless its
//!    [`QualityTier::Economy`] lets it degrade to best-effort
//!    (deadline-free) instead. [`SlaClass::Batch`] is never rejected.
//! 2. **Urgency.** The head of the queue is the pending request with
//!    the earliest deadline (deadline-free requests sort last), ties
//!    broken by arrival then id. A request with strictly more slack
//!    never preempts one with less in its own model group.
//! 3. **Fill vs. slack.** The head's batch fills with pending requests
//!    of the same [`ModelKey`] in urgency order, up to `max_batch`. An
//!    underfull batch *waits* for the next arrival only if the head can
//!    afford it: always, when the head has no deadline; otherwise only
//!    when dispatching at the next arrival would still (by the current
//!    estimate) meet the head's deadline.
//! 4. **Residency.** Weights stay resident across *consecutive* batches
//!    of the same key — the second batch's leader skips the weight
//!    load, the way the daemon keeps a model warm between dispatches.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::clock::{Cycle, SimClock};
use crate::pipeline::{BatchProfile, PipelineState};
use crate::request::{ModelKey, OnlineRequest, QualityTier, SlaClass};
use crate::server::percentile_nearest_rank;

/// A request's pre-simulated service costs — the scheduler's oracle.
///
/// Both variants come from real engine runs
/// ([`Daemon::profile_costs`](crate::Daemon::profile_costs)) or synthetic
/// profiles in tests; the scheduler itself never simulates.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestCost {
    /// The request's footprint paying its own weight loads (batch leader
    /// with no resident carry-over).
    pub cold: BatchProfile,
    /// Its footprint with the batch's weights already resident.
    pub resident: BatchProfile,
}

impl RequestCost {
    /// A cost from explicit profiles.
    pub fn new(cold: BatchProfile, resident: BatchProfile) -> Self {
        RequestCost { cold, resident }
    }

    /// Isolated service cycles when leading a cold batch.
    pub fn cold_cycles(&self) -> Cycle {
        self.cold.serial_cycles()
    }

    /// Isolated service cycles with resident weights (the deadline-slack
    /// unit).
    pub fn resident_cycles(&self) -> Cycle {
        self.resident.serial_cycles()
    }
}

/// Online scheduler parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// Hard cap on requests per batch (≥ 1).
    pub max_batch: usize,
    /// Whether predicted deadline misses are rejected (or degraded) at
    /// arrival. Off = accept everything and let the hit rate record the
    /// damage.
    pub admission_control: bool,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig { max_batch: 8, admission_control: true }
    }
}

/// One served request's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineOutcome {
    /// The request, with its arrival stamp and contract.
    pub request: OnlineRequest,
    /// Index of the batch it rode in.
    pub batch: usize,
    /// Cycle the batch was cut and enqueued on the pipeline.
    pub dispatch: Cycle,
    /// Cycle the batch (hence the request) completed.
    pub completion: Cycle,
    /// Absolute deadline, if the request kept one.
    pub deadline: Option<Cycle>,
    /// Whether the deadline was met (vacuously true without one).
    pub deadline_met: bool,
    /// Whether admission demoted the request to best-effort.
    pub degraded: bool,
    /// Whether it ran with resident weights (followers always; leaders
    /// only on a same-model carry-over).
    pub weights_resident: bool,
    /// Arrival-to-completion latency in simulated seconds.
    pub latency_s: f64,
}

/// A request admission control turned away.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RejectedRequest {
    /// The rejected request.
    pub request: OnlineRequest,
    /// The completion cycle admission predicted.
    pub predicted_completion: Cycle,
    /// The deadline it would have missed.
    pub deadline: Cycle,
}

/// One dispatched batch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineBatchReport {
    /// Dispatch order.
    pub index: usize,
    /// The shared weight-compatibility key.
    pub key: ModelKey,
    /// Requests in the batch.
    pub size: usize,
    /// Cycle the batch was enqueued.
    pub dispatch: Cycle,
    /// Cycle it completed.
    pub completion: Cycle,
    /// Whether the leader reused weights left resident by the previous
    /// batch.
    pub leader_resident: bool,
}

/// The full online-serving record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineReport {
    /// Served requests, in batch/dispatch order.
    pub outcomes: Vec<OnlineOutcome>,
    /// Admission rejections, in arrival order.
    pub rejected: Vec<RejectedRequest>,
    /// Batches, in dispatch order.
    pub batches: Vec<OnlineBatchReport>,
    /// Cycle the last batch completed (0 on an empty trace).
    pub makespan_cycles: Cycle,
    /// Accelerator clock the cycle counts are reported in.
    pub clock_hz: f64,
    /// Batch-size cap used.
    pub max_batch: usize,
    /// Whether admission control was on.
    pub admission_control: bool,
}

impl OnlineReport {
    /// Served requests per simulated second of makespan (0.0 on an empty
    /// run).
    pub fn throughput_rps(&self) -> f64 {
        let seconds = self.makespan_cycles as f64 / self.clock_hz;
        if !seconds.is_finite() || seconds <= 0.0 {
            return 0.0;
        }
        self.outcomes.len() as f64 / seconds
    }

    /// Nearest-rank latency percentile over all served requests.
    pub fn latency_percentile(&self, q: f64) -> f64 {
        percentile_nearest_rank(&self.latencies(|_| true), q)
    }

    /// Nearest-rank latency percentile over requests that *arrived* in
    /// `sla` (degraded requests still count toward their original class).
    pub fn class_percentile(&self, sla: SlaClass, q: f64) -> f64 {
        percentile_nearest_rank(&self.latencies(|o| o.request.sla == sla), q)
    }

    /// Served requests that arrived in `sla`.
    pub fn class_served(&self, sla: SlaClass) -> usize {
        self.outcomes.iter().filter(|o| o.request.sla == sla).count()
    }

    /// p50 latency in simulated seconds.
    pub fn p50_latency_s(&self) -> f64 {
        self.latency_percentile(0.50)
    }

    /// p95 latency in simulated seconds.
    pub fn p95_latency_s(&self) -> f64 {
        self.latency_percentile(0.95)
    }

    /// p99 latency in simulated seconds.
    pub fn p99_latency_s(&self) -> f64 {
        self.latency_percentile(0.99)
    }

    /// Fraction of deadline-carrying served requests that met their
    /// deadline (1.0 when none carried one).
    pub fn deadline_hit_rate(&self) -> f64 {
        let with: Vec<&OnlineOutcome> =
            self.outcomes.iter().filter(|o| o.deadline.is_some()).collect();
        if with.is_empty() {
            return 1.0;
        }
        with.iter().filter(|o| o.deadline_met).count() as f64 / with.len() as f64
    }

    /// Fraction of offered requests admission turned away.
    pub fn reject_rate(&self) -> f64 {
        let offered = self.outcomes.len() + self.rejected.len();
        if offered == 0 {
            return 0.0;
        }
        self.rejected.len() as f64 / offered as f64
    }

    /// Fraction of served requests admission degraded to best-effort.
    pub fn degrade_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.degraded).count() as f64 / self.outcomes.len() as f64
    }

    /// Ids of every served request, in dispatch order.
    pub fn served_ids(&self) -> Vec<u64> {
        self.outcomes.iter().map(|o| o.request.id()).collect()
    }

    /// Queue wait of one outcome in simulated seconds.
    fn queue_wait_s(&self, o: &OnlineOutcome) -> f64 {
        o.dispatch.saturating_sub(o.request.arrival) as f64 / self.clock_hz
    }

    /// Emits the serving timeline onto `trace` (no-op when off): per SLA
    /// class, each request's `enqueue` marker at arrival, its `wait` span
    /// (arrival → dispatch; admission decides at arrival in this
    /// scheduler, so admit coincides with enqueue), and its `service`
    /// span (dispatch → completion); rejected requests get a `reject`
    /// marker; the `serve/batches` track carries one span per dispatched
    /// batch. Derived purely from the report, which is already
    /// bit-identical at any host thread count.
    pub fn emit_trace(&self, trace: &gnnie_obs::Trace) {
        if !trace.enabled() {
            return;
        }
        for o in &self.outcomes {
            let id = o.request.id();
            let class = o.request.sla.name();
            trace.instant("serve", class, &format!("enqueue req{id}"), o.request.arrival, &[]);
            trace.span(
                "serve",
                class,
                &format!("wait req{id}"),
                o.request.arrival,
                o.dispatch.saturating_sub(o.request.arrival),
                &[
                    ("batch", (o.batch as u64).into()),
                    ("degraded", if o.degraded { "yes" } else { "no" }.into()),
                ],
            );
            trace.span(
                "serve",
                class,
                &format!("service req{id}"),
                o.dispatch,
                o.completion.saturating_sub(o.dispatch),
                &[("deadline_met", if o.deadline_met { "yes" } else { "no" }.into())],
            );
        }
        for r in &self.rejected {
            trace.instant(
                "serve",
                r.request.sla.name(),
                &format!("reject req{}", r.request.id()),
                r.request.arrival,
                &[("predicted_completion", r.predicted_completion.into())],
            );
        }
        for b in &self.batches {
            trace.span(
                "serve",
                "batches",
                &format!("batch{} x{}", b.index, b.size),
                b.dispatch,
                b.completion.saturating_sub(b.dispatch),
                &[
                    ("size", (b.size as u64).into()),
                    ("leader_resident", if b.leader_resident { "yes" } else { "no" }.into()),
                ],
            );
        }
    }

    /// Records the run's serving metrics (no-op when off): `serve.online.*`
    /// totals plus per-SLA-class `serve.queue_wait_us.<class>` and
    /// `serve.latency_us.<class>` histograms — the registry surface the
    /// daemon drain report reads its queue-wait percentiles from.
    pub fn record_metrics(&self, metrics: &gnnie_obs::Metrics) {
        if !metrics.enabled() {
            return;
        }
        metrics.counter_add("serve.online.served", self.outcomes.len() as u64);
        metrics.counter_add("serve.online.rejected", self.rejected.len() as u64);
        metrics.counter_add(
            "serve.online.degraded",
            self.outcomes.iter().filter(|o| o.degraded).count() as u64,
        );
        metrics.counter_add("serve.online.batches", self.batches.len() as u64);
        metrics.counter_add("serve.online.makespan_cycles", self.makespan_cycles);
        for o in &self.outcomes {
            let class = o.request.sla.name();
            metrics
                .observe(&format!("serve.queue_wait_us.{class}"), self.queue_wait_s(o) * 1e6);
            metrics.observe(&format!("serve.latency_us.{class}"), o.latency_s * 1e6);
        }
    }

    /// Both surfaces at once.
    pub fn record_obs(&self, obs: &gnnie_obs::Obs) {
        self.emit_trace(&obs.trace);
        self.record_metrics(&obs.metrics);
    }

    fn latencies(&self, keep: impl Fn(&OnlineOutcome) -> bool) -> Vec<f64> {
        self.outcomes.iter().filter(|o| keep(o)).map(|o| o.latency_s).collect()
    }
}

/// A pending (admitted, not yet dispatched) request.
#[derive(Debug, Clone, Copy)]
struct Pending {
    req: OnlineRequest,
    deadline: Option<Cycle>,
    degraded: bool,
}

impl Pending {
    /// Dispatch priority: earliest deadline first, deadline-free last;
    /// ties by arrival then id.
    fn urgency(&self) -> (Cycle, Cycle, u64) {
        (self.deadline.unwrap_or(Cycle::MAX), self.req.arrival, self.req.id())
    }
}

/// Replays `trace` through the continuous-batching scheduler using the
/// pre-simulated `costs` (keyed by request id) as the service oracle.
///
/// Every trace request appears exactly once in the report, either served
/// or rejected. Batches are model-homogeneous and at most
/// `cfg.max_batch` long.
///
/// # Panics
///
/// Panics if a trace request has no cost entry or `cfg.max_batch` is 0.
pub fn schedule_online(
    trace: &[OnlineRequest],
    costs: &HashMap<u64, RequestCost>,
    cfg: &OnlineConfig,
    clock: &SimClock,
) -> OnlineReport {
    assert!(cfg.max_batch >= 1, "batches must hold at least one request");
    let cost_of = |id: u64| -> &RequestCost {
        costs.get(&id).unwrap_or_else(|| panic!("no cost profiled for request {id}"))
    };

    // Arrival order: time, ties by id (the loadgen emits queue order).
    let mut arrivals: Vec<OnlineRequest> = trace.to_vec();
    arrivals.sort_by_key(|r| (r.arrival, r.id()));

    let mut next = 0usize; // arrival cursor
    let mut pending: Vec<Pending> = Vec::new();
    let mut state = PipelineState::new();
    let mut resident_key: Option<ModelKey> = None;
    let mut now: Cycle = 0;

    let mut outcomes = Vec::new();
    let mut rejected = Vec::new();
    let mut batches = Vec::new();

    loop {
        // Admit everything that has arrived by `now`, in arrival order.
        while next < arrivals.len() && arrivals[next].arrival <= now {
            let req = arrivals[next];
            next += 1;
            let cost = cost_of(req.id());
            let deadline = req.deadline(cost.resident_cycles());
            if !cfg.admission_control {
                pending.push(Pending { req, deadline, degraded: false });
                continue;
            }
            match deadline {
                None => pending.push(Pending { req, deadline: None, degraded: false }),
                Some(d) => {
                    let backlog: Cycle =
                        pending.iter().map(|p| cost_of(p.req.id()).resident_cycles()).sum();
                    let predicted =
                        state.a_free.max(req.arrival) + backlog + cost.cold_cycles();
                    if predicted > d {
                        match req.tier {
                            QualityTier::Economy => {
                                // Degrade to best-effort instead of turning
                                // the caller away.
                                pending.push(Pending { req, deadline: None, degraded: true });
                            }
                            QualityTier::Full => rejected.push(RejectedRequest {
                                request: req,
                                predicted_completion: predicted,
                                deadline: d,
                            }),
                        }
                    } else {
                        pending.push(Pending { req, deadline: Some(d), degraded: false });
                    }
                }
            }
        }

        if pending.is_empty() {
            match arrivals.get(next) {
                Some(r) => {
                    now = now.max(r.arrival);
                    continue;
                }
                None => break,
            }
        }

        // Head = most urgent pending; its batch fills with same-key
        // requests in urgency order.
        let mut order: Vec<usize> = (0..pending.len()).collect();
        order.sort_by_key(|&i| pending[i].urgency());
        let head = &pending[order[0]];
        let key = head.req.model_key();
        let head_deadline = head.deadline;
        let members: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| pending[i].req.model_key() == key)
            .take(cfg.max_batch)
            .collect();
        let leader_resident = resident_key == Some(key);
        let profile = merged_profile(&pending, &members, leader_resident, cost_of);

        // Fill-vs-slack: wait for the next arrival iff the head can
        // afford to (see the module docs).
        if members.len() < cfg.max_batch {
            if let Some(next_req) = arrivals.get(next) {
                let wait = match head_deadline {
                    None => true,
                    Some(d) => {
                        let mut probe = state;
                        probe.push(&profile, next_req.arrival) <= d
                    }
                };
                if wait {
                    now = now.max(next_req.arrival);
                    continue;
                }
            }
        }

        // Dispatch at `now`.
        let completion = state.push(&profile, now);
        let index = batches.len();
        batches.push(OnlineBatchReport {
            index,
            key,
            size: members.len(),
            dispatch: now,
            completion,
            leader_resident,
        });
        for (pos, &m) in members.iter().enumerate() {
            let p = pending[m];
            outcomes.push(OnlineOutcome {
                request: p.req,
                batch: index,
                dispatch: now,
                completion,
                deadline: p.deadline,
                deadline_met: !p.deadline.is_some_and(|d| completion > d),
                degraded: p.degraded,
                weights_resident: pos > 0 || leader_resident,
                latency_s: clock.to_seconds(completion - p.req.arrival),
            });
        }
        resident_key = Some(key);
        let dispatched: std::collections::HashSet<u64> =
            members.iter().map(|&m| pending[m].req.id()).collect();
        pending.retain(|p| !dispatched.contains(&p.req.id()));
    }

    OnlineReport {
        makespan_cycles: batches.iter().map(|b| b.completion).max().unwrap_or(0),
        outcomes,
        rejected,
        batches,
        clock_hz: clock.clock_hz,
        max_batch: cfg.max_batch,
        admission_control: cfg.admission_control,
    }
}

/// The batch's merged resource footprint: leader cold unless weights
/// carried over, followers resident.
fn merged_profile<'a>(
    pending: &[Pending],
    members: &[usize],
    leader_resident: bool,
    cost_of: impl Fn(u64) -> &'a RequestCost,
) -> BatchProfile {
    let mut profile = BatchProfile::default();
    for (pos, &m) in members.iter().enumerate() {
        let cost = cost_of(pending[m].req.id());
        let part = if pos == 0 && !leader_resident { &cost.cold } else { &cost.resident };
        profile.merge(part);
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PhasePair;
    use crate::request::InferenceRequest;
    use gnnie_gnn::model::GnnModel;
    use gnnie_graph::Dataset;

    fn clock() -> SimClock {
        SimClock::new(1.0e9)
    }

    /// One-layer cost: cold Weighting 100 (weight load included),
    /// resident Weighting 10, Aggregation 50 both ways.
    fn cost() -> RequestCost {
        let layer = |w: u64| BatchProfile {
            pre_cycles: 0,
            layers: vec![PhasePair { weighting: w, aggregation: 50 }],
            ..BatchProfile::default()
        };
        RequestCost::new(layer(100), layer(10))
    }

    fn req(id: u64, arrival: Cycle, sla: SlaClass, tier: QualityTier) -> OnlineRequest {
        OnlineRequest::new(
            InferenceRequest::new(id, GnnModel::Gcn, Dataset::Cora, 0.1, id),
            arrival,
            sla,
            tier,
        )
    }

    fn costs_for(trace: &[OnlineRequest]) -> HashMap<u64, RequestCost> {
        trace.iter().map(|r| (r.id(), cost())).collect()
    }

    #[test]
    fn full_batch_at_time_zero_amortizes_the_leader_load() {
        let trace: Vec<_> =
            (0..4).map(|i| req(i, 0, SlaClass::Batch, QualityTier::Full)).collect();
        let cfg = OnlineConfig { max_batch: 4, admission_control: true };
        let report = schedule_online(&trace, &costs_for(&trace), &cfg, &clock());
        assert_eq!(report.batches.len(), 1);
        // Merged profile: W = 100 + 3·10 = 130, A = 4·50 = 200.
        assert_eq!(report.makespan_cycles, 330);
        assert_eq!(
            report.outcomes.iter().map(|o| o.weights_resident).collect::<Vec<_>>(),
            [false, true, true, true]
        );
        assert!(report.rejected.is_empty());
        assert_eq!(report.deadline_hit_rate(), 1.0);
    }

    #[test]
    fn residency_carries_across_consecutive_same_key_batches() {
        let trace: Vec<_> =
            (0..4).map(|i| req(i, 0, SlaClass::Batch, QualityTier::Full)).collect();
        let cfg = OnlineConfig { max_batch: 2, admission_control: true };
        let report = schedule_online(&trace, &costs_for(&trace), &cfg, &clock());
        assert_eq!(report.batches.len(), 2);
        // Batch 0 (cold leader): W [0,110), A [110,210).
        // Batch 1 (carry-over leader): W [110,130), A [210,310).
        assert_eq!(report.batches[0].completion, 210);
        assert_eq!(report.batches[1].completion, 310);
        assert!(!report.batches[0].leader_resident);
        assert!(report.batches[1].leader_resident);
        assert!(report.outcomes[2].weights_resident, "carried-over leader skips the load");
    }

    #[test]
    fn tighter_deadlines_dispatch_first() {
        let trace = vec![
            req(0, 0, SlaClass::Standard, QualityTier::Full),
            req(1, 0, SlaClass::Interactive, QualityTier::Full),
            req(2, 0, SlaClass::Interactive, QualityTier::Full),
            req(3, 0, SlaClass::Batch, QualityTier::Full),
        ];
        let cfg = OnlineConfig { max_batch: 2, admission_control: false };
        let report = schedule_online(&trace, &costs_for(&trace), &cfg, &clock());
        assert_eq!(report.served_ids(), [1, 2, 0, 3]);
        assert_eq!(report.batches.len(), 2);
    }

    #[test]
    fn admission_rejects_full_tier_and_degrades_economy() {
        // Resident service = 60 ⇒ interactive deadline = 240. The third
        // interactive arrival predicts 0 + backlog 120 + cold 150 = 270.
        let trace = vec![
            req(0, 0, SlaClass::Interactive, QualityTier::Full),
            req(1, 0, SlaClass::Interactive, QualityTier::Full),
            req(2, 0, SlaClass::Interactive, QualityTier::Full),
            req(3, 0, SlaClass::Interactive, QualityTier::Economy),
        ];
        let cfg = OnlineConfig { max_batch: 4, admission_control: true };
        let report = schedule_online(&trace, &costs_for(&trace), &cfg, &clock());
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].request.id(), 2);
        assert_eq!(report.rejected[0].predicted_completion, 270);
        assert_eq!(report.rejected[0].deadline, 240);
        let degraded: Vec<u64> =
            report.outcomes.iter().filter(|o| o.degraded).map(|o| o.request.id()).collect();
        assert_eq!(degraded, [3], "economy tier degrades instead of rejecting");
        assert_eq!(report.served_ids().len(), 3);
        assert!(report.reject_rate() > 0.0 && report.degrade_rate() > 0.0);
    }

    #[test]
    fn batch_class_is_never_rejected() {
        let mut trace: Vec<_> =
            (0..8).map(|i| req(i, 0, SlaClass::Interactive, QualityTier::Full)).collect();
        trace.extend((8..16).map(|i| req(i, 0, SlaClass::Batch, QualityTier::Full)));
        let cfg = OnlineConfig { max_batch: 4, admission_control: true };
        let report = schedule_online(&trace, &costs_for(&trace), &cfg, &clock());
        for r in &report.rejected {
            assert_ne!(r.request.sla, SlaClass::Batch);
        }
        let served: std::collections::HashSet<u64> = report.served_ids().into_iter().collect();
        assert!((8..16).all(|i| served.contains(&i)), "all batch-class requests served");
    }

    #[test]
    fn deadline_free_head_waits_to_fill_its_batch() {
        let trace = vec![
            req(0, 0, SlaClass::Batch, QualityTier::Full),
            req(1, 1_000, SlaClass::Batch, QualityTier::Full),
        ];
        let cfg = OnlineConfig { max_batch: 2, admission_control: true };
        let report = schedule_online(&trace, &costs_for(&trace), &cfg, &clock());
        assert_eq!(report.batches.len(), 1, "the lone request waits for the second arrival");
        assert_eq!(report.batches[0].dispatch, 1_000);
        // Merged: W [1000,1110), A [1110,1210).
        assert_eq!(report.makespan_cycles, 1_210);
    }

    #[test]
    fn tight_deadline_head_dispatches_underfull_instead_of_waiting() {
        let trace = vec![
            req(0, 0, SlaClass::Interactive, QualityTier::Full),
            req(1, 1_000_000, SlaClass::Batch, QualityTier::Full),
        ];
        let cfg = OnlineConfig { max_batch: 2, admission_control: true };
        let report = schedule_online(&trace, &costs_for(&trace), &cfg, &clock());
        assert_eq!(report.batches.len(), 2, "waiting would blow the 240-cycle deadline");
        assert_eq!(report.batches[0].dispatch, 0);
        assert_eq!(report.batches[0].completion, 150);
        assert!(report.outcomes[0].deadline_met);
        // The second batch reuses the resident weights a million cycles
        // later: W [1e6, 1e6+10), A [.., +50).
        assert!(report.batches[1].leader_resident);
        assert_eq!(report.batches[1].completion, 1_000_060);
    }

    #[test]
    fn every_request_is_served_or_rejected_exactly_once() {
        let trace: Vec<_> = (0..32)
            .map(|i| {
                let sla = SlaClass::ALL[(i % 3) as usize];
                req(i, i * 37, sla, QualityTier::Full)
            })
            .collect();
        let cfg = OnlineConfig { max_batch: 3, admission_control: true };
        let report = schedule_online(&trace, &costs_for(&trace), &cfg, &clock());
        let mut seen: Vec<u64> = report
            .served_ids()
            .into_iter()
            .chain(report.rejected.iter().map(|r| r.request.id()))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..32).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_trace_reports_cleanly() {
        let report = schedule_online(&[], &HashMap::new(), &OnlineConfig::default(), &clock());
        assert_eq!(report.makespan_cycles, 0);
        assert_eq!(report.throughput_rps(), 0.0);
        assert_eq!(report.deadline_hit_rate(), 1.0);
        assert_eq!(report.reject_rate(), 0.0);
        assert_eq!(report.p99_latency_s(), 0.0);
    }
}
