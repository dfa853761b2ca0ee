//! Inference requests, their weight-compatibility grouping key, and the
//! SLA annotations online requests carry.

use serde::{Deserialize, Serialize};

use gnnie_gnn::model::{GnnModel, ModelConfig};
use gnnie_graph::{Dataset, GraphDataset, SimPool};

use crate::clock::Cycle;

/// One queued inference question: run `model` over an instance of
/// `dataset` synthesized at `scale` from `seed`.
///
/// Requests with equal [`model_key`](InferenceRequest::model_key)s
/// instantiate byte-identical [`ModelConfig`]s (the Table III stack's
/// dimensions depend only on model, dataset, and scale), so their layer
/// weights are interchangeable — the batch scheduler groups them so the
/// weights stream from DRAM once per batch instead of once per request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceRequest {
    /// Caller-chosen identity (unique per queue; reports echo it).
    pub id: u64,
    /// The GNN to run.
    pub model: GnnModel,
    /// The Table II dataset family to synthesize from.
    pub dataset: Dataset,
    /// Synthesis scale in `(0, 1]` (1.0 = paper size).
    pub scale: f64,
    /// Synthesis seed — the per-request "payload": requests of one batch
    /// usually differ only here.
    pub seed: u64,
}

impl InferenceRequest {
    /// A request at the given scale and seed.
    pub fn new(id: u64, model: GnnModel, dataset: Dataset, scale: f64, seed: u64) -> Self {
        InferenceRequest { id, model, dataset, scale, seed }
    }

    /// The weight-compatibility key: equal keys guarantee equal
    /// [`ModelConfig`]s, hence shareable resident weights.
    pub fn model_key(&self) -> ModelKey {
        ModelKey { model: self.model, dataset: self.dataset, scale_bits: self.scale.to_bits() }
    }

    /// The Table III model configuration this request runs.
    pub fn model_config(&self) -> ModelConfig {
        ModelConfig::paper(self.model, &self.dataset.spec().scaled(self.scale))
    }

    /// Synthesizes the request's graph + features on a pool of
    /// `GNNIE_SIM_THREADS` workers.
    pub fn synthesize(&self) -> GraphDataset {
        GraphDataset::generate(self.dataset, self.scale, self.seed)
    }

    /// Synthesizes the request's graph + features on `pool`; the dataset is
    /// the same at every pool width.
    pub fn synthesize_on(&self, pool: &SimPool) -> GraphDataset {
        GraphDataset::generate_on(self.dataset, self.scale, self.seed, pool)
    }
}

/// Groups requests whose weights are interchangeable: the Table III
/// stack's dimensions are a function of `(model, dataset, scale)` only
/// (DiffPool's cluster count depends on the scaled vertex count, hence
/// `scale` participates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ModelKey {
    /// The GNN model.
    pub model: GnnModel,
    /// The dataset family (fixes feature/label widths).
    pub dataset: Dataset,
    /// Bit pattern of the synthesis scale (fixes DiffPool's cluster count).
    pub scale_bits: u64,
}

/// The latency contract a request arrives under.
///
/// A class maps to a *slack factor*: the request's deadline is its
/// arrival cycle plus `slack_factor × its own isolated service time`
/// (the resident-weights cost the admission controller predicts for it).
/// `Batch` has no deadline — it absorbs whatever capacity is left.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SlaClass {
    /// Tight deadline: 4× the request's own service time.
    Interactive,
    /// Relaxed deadline: 16× the request's own service time.
    Standard,
    /// No deadline; never rejected by admission control.
    Batch,
}

impl SlaClass {
    /// All classes, tightest first.
    pub const ALL: [SlaClass; 3] = [SlaClass::Interactive, SlaClass::Standard, SlaClass::Batch];

    /// Deadline slack as a multiple of the request's isolated service
    /// time; `None` means no deadline.
    pub fn slack_factor(self) -> Option<u64> {
        match self {
            SlaClass::Interactive => Some(4),
            SlaClass::Standard => Some(16),
            SlaClass::Batch => None,
        }
    }

    /// Short CLI/report token.
    pub fn name(self) -> &'static str {
        match self {
            SlaClass::Interactive => "interactive",
            SlaClass::Standard => "standard",
            SlaClass::Batch => "batch",
        }
    }
}

impl std::fmt::Display for SlaClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SlaClass {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "interactive" => Ok(SlaClass::Interactive),
            "standard" => Ok(SlaClass::Standard),
            "batch" => Ok(SlaClass::Batch),
            other => {
                Err(format!("unknown SLA class `{other}` (use interactive|standard|batch)"))
            }
        }
    }
}

/// How much quality the caller insists on when the server is saturated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QualityTier {
    /// Full-quality answer or an admission rejection.
    Full,
    /// Degradable: instead of being rejected at admission, the request is
    /// demoted to best-effort ([`SlaClass::Batch`] semantics) and kept.
    Economy,
}

impl QualityTier {
    /// Short report token.
    pub fn name(self) -> &'static str {
        match self {
            QualityTier::Full => "full",
            QualityTier::Economy => "economy",
        }
    }
}

impl std::fmt::Display for QualityTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A request stamped with its arrival cycle and SLA contract — the unit
/// the online scheduler works in.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineRequest {
    /// The underlying inference question.
    pub request: InferenceRequest,
    /// Simulated arrival cycle.
    pub arrival: Cycle,
    /// Latency contract.
    pub sla: SlaClass,
    /// Degradation policy under overload.
    pub tier: QualityTier,
}

impl OnlineRequest {
    /// Stamps `request` with an arrival time and contract.
    pub fn new(
        request: InferenceRequest,
        arrival: Cycle,
        sla: SlaClass,
        tier: QualityTier,
    ) -> Self {
        OnlineRequest { request, arrival, sla, tier }
    }

    /// The request id (unique per trace).
    pub fn id(&self) -> u64 {
        self.request.id
    }

    /// The weight-compatibility key.
    pub fn model_key(&self) -> ModelKey {
        self.request.model_key()
    }

    /// Absolute deadline cycle given the request's isolated resident
    /// service time, or `None` for deadline-free classes.
    pub fn deadline(&self, service_cycles: Cycle) -> Option<Cycle> {
        self.sla
            .slack_factor()
            .map(|slack| self.arrival.saturating_add(slack.saturating_mul(service_cycles)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_mean_equal_model_configs() {
        let a = InferenceRequest::new(0, GnnModel::DiffPool, Dataset::Cora, 0.25, 7);
        let b = InferenceRequest::new(1, GnnModel::DiffPool, Dataset::Cora, 0.25, 99);
        assert_eq!(a.model_key(), b.model_key());
        assert_eq!(a.model_config(), b.model_config());
    }

    #[test]
    fn scale_participates_in_the_key() {
        // DiffPool's cluster count tracks the scaled vertex count, so
        // different scales must not share weights.
        let a = InferenceRequest::new(0, GnnModel::DiffPool, Dataset::Cora, 0.05, 7);
        let b = InferenceRequest::new(1, GnnModel::DiffPool, Dataset::Cora, 0.10, 7);
        assert_ne!(a.model_key(), b.model_key());
        assert_ne!(a.model_config(), b.model_config());
    }

    #[test]
    fn model_and_dataset_participate_in_the_key() {
        let base = InferenceRequest::new(0, GnnModel::Gcn, Dataset::Cora, 0.2, 7);
        let other_model = InferenceRequest { model: GnnModel::Gat, ..base };
        let other_dataset = InferenceRequest { dataset: Dataset::Citeseer, ..base };
        assert_ne!(base.model_key(), other_model.model_key());
        assert_ne!(base.model_key(), other_dataset.model_key());
    }

    #[test]
    fn sla_tokens_round_trip() {
        for sla in SlaClass::ALL {
            assert_eq!(sla.name().parse::<SlaClass>().unwrap(), sla);
        }
        assert!("gold".parse::<SlaClass>().is_err());
    }

    #[test]
    fn deadlines_scale_with_the_slack_factor() {
        let base = InferenceRequest::new(0, GnnModel::Gcn, Dataset::Cora, 0.1, 7);
        let service = 1_000u64;
        let interactive =
            OnlineRequest::new(base, 500, SlaClass::Interactive, QualityTier::Full);
        assert_eq!(interactive.deadline(service), Some(500 + 4 * service));
        let standard = OnlineRequest::new(base, 500, SlaClass::Standard, QualityTier::Full);
        assert_eq!(standard.deadline(service), Some(500 + 16 * service));
        let batch = OnlineRequest::new(base, 500, SlaClass::Batch, QualityTier::Full);
        assert_eq!(batch.deadline(service), None);
    }
}
