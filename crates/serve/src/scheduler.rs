//! The batch scheduler: groups compatible requests into
//! model-homogeneous batches.
//!
//! Two policies, swept against each other by the `serving_throughput`
//! bench:
//!
//! * **FIFO** — strict arrival order; a batch grows while consecutive
//!   requests share a [`ModelKey`] and is cut at the first mismatch (or
//!   at `max_batch`). An interleaved mix degenerates to batches of one.
//! * **Model affinity** — requests are grouped by [`ModelKey`] across the
//!   whole queue (groups ordered by first arrival, arrival order kept
//!   within a group), then cut at `max_batch`. This is the DGI/DCI-style
//!   cross-request scheduling that keeps weights resident regardless of
//!   interleaving.

use serde::{Deserialize, Serialize};

use crate::request::{InferenceRequest, ModelKey};

/// Which grouping strategy [`BatchScheduler::plan`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerPolicy {
    /// Strict arrival order; batches cut at every model change.
    Fifo,
    /// Group by model across the queue, then cut by size.
    ModelAffinity,
}

impl SchedulerPolicy {
    /// Both policies, FIFO first.
    pub const ALL: [SchedulerPolicy; 2] =
        [SchedulerPolicy::Fifo, SchedulerPolicy::ModelAffinity];

    /// Short CLI/report token.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerPolicy::Fifo => "fifo",
            SchedulerPolicy::ModelAffinity => "affinity",
        }
    }
}

impl std::fmt::Display for SchedulerPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SchedulerPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fifo" => Ok(SchedulerPolicy::Fifo),
            "affinity" | "model-affinity" => Ok(SchedulerPolicy::ModelAffinity),
            other => Err(format!("unknown scheduler policy `{other}` (use fifo|affinity)")),
        }
    }
}

/// One model-homogeneous batch: every request shares a [`ModelKey`], so
/// the layer weights stream from DRAM once (charged to the first request,
/// the batch *leader*) and stay resident for the rest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Batch {
    /// The requests, leader first, in scheduling order.
    pub requests: Vec<InferenceRequest>,
}

impl Batch {
    /// The shared weight-compatibility key.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch (the scheduler never emits one).
    pub fn key(&self) -> ModelKey {
        self.requests.first().expect("batches are nonempty").model_key()
    }

    /// Requests in the batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the batch holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// The scheduler's output: batches in execution order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchPlan {
    /// Batches, in the order the server pipelines them.
    pub batches: Vec<Batch>,
}

impl BatchPlan {
    /// All request ids in plan order (for drop/duplicate audits).
    pub fn request_ids(&self) -> Vec<u64> {
        self.batches.iter().flat_map(|b| b.requests.iter().map(|r| r.id)).collect()
    }
}

/// Groups a request queue into model-homogeneous batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchScheduler {
    /// The grouping strategy.
    pub policy: SchedulerPolicy,
    /// Hard cap on requests per batch (≥ 1).
    pub max_batch: usize,
}

impl BatchScheduler {
    /// A scheduler for `policy` cutting batches at `max_batch`.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(policy: SchedulerPolicy, max_batch: usize) -> Self {
        assert!(max_batch >= 1, "batches must hold at least one request");
        BatchScheduler { policy, max_batch }
    }

    /// Plans the queue into batches. Every request appears in exactly one
    /// batch, every batch is model-homogeneous and at most `max_batch`
    /// long, and batches are nonempty.
    pub fn plan(&self, queue: &[InferenceRequest]) -> BatchPlan {
        let groups: Vec<Vec<InferenceRequest>> = match self.policy {
            SchedulerPolicy::Fifo => {
                // Consecutive-run grouping: a group ends where the key changes.
                let mut groups: Vec<Vec<InferenceRequest>> = Vec::new();
                for &req in queue {
                    match groups.last_mut() {
                        Some(g) if g[0].model_key() == req.model_key() => g.push(req),
                        _ => groups.push(vec![req]),
                    }
                }
                groups
            }
            SchedulerPolicy::ModelAffinity => {
                // Stable grouping by key: groups ordered by first arrival,
                // arrival order preserved within each group.
                let mut keys: Vec<ModelKey> = Vec::new();
                let mut groups: Vec<Vec<InferenceRequest>> = Vec::new();
                for &req in queue {
                    let key = req.model_key();
                    match keys.iter().position(|&k| k == key) {
                        Some(i) => groups[i].push(req),
                        None => {
                            keys.push(key);
                            groups.push(vec![req]);
                        }
                    }
                }
                groups
            }
        };
        let batches = groups
            .into_iter()
            .flat_map(|g| {
                g.chunks(self.max_batch)
                    .map(|c| Batch { requests: c.to_vec() })
                    .collect::<Vec<_>>()
            })
            .collect();
        BatchPlan { batches }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnie_gnn::model::GnnModel;
    use gnnie_graph::Dataset;

    fn req(id: u64, model: GnnModel) -> InferenceRequest {
        InferenceRequest::new(id, model, Dataset::Cora, 0.1, id)
    }

    #[test]
    fn fifo_cuts_at_model_changes_affinity_regroups() {
        // Interleaved GCN/GAT arrivals: FIFO degenerates to singletons,
        // affinity recovers two full batches.
        let queue: Vec<_> = (0..8)
            .map(|i| req(i, if i % 2 == 0 { GnnModel::Gcn } else { GnnModel::Gat }))
            .collect();
        let fifo = BatchScheduler::new(SchedulerPolicy::Fifo, 8).plan(&queue);
        assert_eq!(fifo.batches.len(), 8);
        let aff = BatchScheduler::new(SchedulerPolicy::ModelAffinity, 8).plan(&queue);
        assert_eq!(aff.batches.len(), 2);
        assert_eq!(
            aff.batches[0].requests.iter().map(|r| r.id).collect::<Vec<_>>(),
            [0, 2, 4, 6]
        );
        assert_eq!(
            aff.batches[1].requests.iter().map(|r| r.id).collect::<Vec<_>>(),
            [1, 3, 5, 7]
        );
    }

    #[test]
    fn max_batch_cuts_uniform_streams() {
        let queue: Vec<_> = (0..10).map(|i| req(i, GnnModel::Gcn)).collect();
        for policy in SchedulerPolicy::ALL {
            let plan = BatchScheduler::new(policy, 4).plan(&queue);
            let sizes: Vec<usize> = plan.batches.iter().map(Batch::len).collect();
            assert_eq!(sizes, [4, 4, 2], "{policy}");
        }
    }

    #[test]
    fn empty_queue_plans_to_no_batches() {
        for policy in SchedulerPolicy::ALL {
            assert!(BatchScheduler::new(policy, 4).plan(&[]).batches.is_empty());
        }
    }

    #[test]
    fn policy_tokens_round_trip() {
        for policy in SchedulerPolicy::ALL {
            assert_eq!(policy.name().parse::<SchedulerPolicy>().unwrap(), policy);
        }
        assert!("lifo".parse::<SchedulerPolicy>().is_err());
    }
}
