//! The two-resource phase pipeline: simulated-cycle accounting of
//! Weighting/Aggregation overlap across consecutive batches.
//!
//! GNNIE's engine has two schedulable resources: the CPE array running
//! Weighting passes and the aggregation datapath (cache walk + edge
//! updates). One request alternates them (`W₀ A₀ W₁ A₁ …`), leaving each
//! resource idle half the time; with several batches queued, batch *i+1*
//! can occupy the Weighting resource while batch *i* aggregates. This
//! module computes the makespan of that schedule by list scheduling:
//! each resource serves its task queue in batch order, and a batch's
//! layer-*l* Weighting additionally waits for the same batch's layer-*l−1*
//! Aggregation (the layer's input embeddings).
//!
//! Preprocessing is controller work that must precede the batch's first
//! Weighting pass, so it extends the first Weighting task; writeback (and
//! DiffPool coarsening) trail the last Aggregation task.

use serde::{Deserialize, Serialize};

/// One layer's phase-cycle pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhasePair {
    /// Cycles on the Weighting resource.
    pub weighting: u64,
    /// Cycles on the Aggregation resource.
    pub aggregation: u64,
}

/// A batch's cycle footprint on the two engine resources.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchProfile {
    /// Preprocessing cycles, serialized before the batch's first
    /// Weighting task.
    pub pre_cycles: u64,
    /// Per-layer phase pairs (the batch's requests back to back).
    pub layers: Vec<PhasePair>,
    /// Coarsening + writeback cycles, serialized after the batch's last
    /// Aggregation task.
    pub post_cycles: u64,
    /// Weight-load DRAM cycles already inside the Weighting phases above
    /// (zero for a request that ran with resident weights). Carried so a
    /// planner can report what residency saved without re-simulating.
    pub weight_load_cycles: u64,
}

impl BatchProfile {
    /// The batch's cycles with no cross-batch overlap (the serial cost).
    pub fn serial_cycles(&self) -> u64 {
        self.pre_cycles
            + self.layers.iter().map(|l| l.weighting + l.aggregation).sum::<u64>()
            + self.post_cycles
    }

    /// Folds another request's footprint into this batch: pre/post and
    /// weight loads add up, and layer phases add element-wise (a batch runs its requests back
    /// to back on each resource). Mismatched layer counts pad with zero
    /// phases, though batches of one [`ModelKey`](crate::ModelKey) never
    /// hit that.
    pub fn merge(&mut self, other: &BatchProfile) {
        self.pre_cycles += other.pre_cycles;
        self.post_cycles += other.post_cycles;
        self.weight_load_cycles += other.weight_load_cycles;
        if self.layers.len() < other.layers.len() {
            self.layers.resize(other.layers.len(), PhasePair::default());
        }
        for (mine, theirs) in self.layers.iter_mut().zip(&other.layers) {
            mine.weighting += theirs.weighting;
            mine.aggregation += theirs.aggregation;
        }
    }
}

/// Incremental two-resource list scheduler: the online server feeds it
/// batches one dispatch at a time (each released no earlier than its
/// dispatch cycle), the offline [`pipeline`] feeds the whole plan with
/// release 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineState {
    /// Next free cycle on the Weighting resource.
    pub w_free: u64,
    /// Next free cycle on the Aggregation resource.
    pub a_free: u64,
}

impl PipelineState {
    /// A pipeline with both resources free at cycle 0.
    pub fn new() -> Self {
        PipelineState::default()
    }

    /// Schedules one batch whose first task may not start before
    /// `release`; returns the batch's completion cycle.
    pub fn push(&mut self, profile: &BatchProfile, release: u64) -> u64 {
        if profile.layers.is_empty() {
            // No phases: the pre/post work still serializes on the
            // controller; charge it across both resources.
            let done = self.w_free.max(self.a_free).max(release)
                + profile.pre_cycles
                + profile.post_cycles;
            self.w_free = done;
            self.a_free = done;
            return done;
        }
        // `dep`: when this batch's previous phase finished (intra-batch
        // dependency chain W₀ → A₀ → W₁ → …), seeded with the release.
        let mut dep = release;
        let mut done = release;
        let last = profile.layers.len() - 1;
        for (l, phases) in profile.layers.iter().enumerate() {
            let w_len =
                if l == 0 { profile.pre_cycles + phases.weighting } else { phases.weighting };
            let w_done = self.w_free.max(dep) + w_len;
            self.w_free = w_done;
            let a_len = if l == last {
                phases.aggregation + profile.post_cycles
            } else {
                phases.aggregation
            };
            let a_done = self.a_free.max(w_done) + a_len;
            self.a_free = a_done;
            dep = a_done;
            done = a_done;
        }
        done
    }
}

/// The pipelined schedule of a batch sequence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineSchedule {
    /// Makespan: the cycle at which the last batch completes.
    pub total_cycles: u64,
    /// Completion cycle of each batch (nondecreasing).
    pub batch_completion: Vec<u64>,
    /// The same batches run back to back with no overlap.
    pub serial_cycles: u64,
}

impl PipelineSchedule {
    /// Cycles the phase overlap removed versus back-to-back batches.
    pub fn overlap_cycles_saved(&self) -> u64 {
        self.serial_cycles.saturating_sub(self.total_cycles)
    }
}

/// List-schedules `batches` over the two engine resources and returns the
/// makespan. The schedule can never lose to the serial order: every task
/// starts no later than it would back to back, so
/// `total_cycles ≤ serial_cycles` holds for any input (the proptest
/// suite sweeps this).
pub fn pipeline(batches: &[BatchProfile]) -> PipelineSchedule {
    let mut state = PipelineState::new();
    let mut batch_completion = Vec::with_capacity(batches.len());
    for profile in batches {
        batch_completion.push(state.push(profile, 0));
    }
    PipelineSchedule {
        total_cycles: batch_completion.last().copied().unwrap_or(0),
        batch_completion,
        serial_cycles: batches.iter().map(BatchProfile::serial_cycles).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(pre: u64, layers: &[(u64, u64)], post: u64) -> BatchProfile {
        BatchProfile {
            pre_cycles: pre,
            layers: layers
                .iter()
                .map(|&(w, a)| PhasePair { weighting: w, aggregation: a })
                .collect(),
            post_cycles: post,
            weight_load_cycles: 0,
        }
    }

    #[test]
    fn single_batch_runs_serial() {
        let p = profile(5, &[(10, 20), (30, 40)], 7);
        let s = pipeline(std::slice::from_ref(&p));
        assert_eq!(s.total_cycles, p.serial_cycles());
        assert_eq!(s.total_cycles, 5 + 10 + 20 + 30 + 40 + 7);
        assert_eq!(s.overlap_cycles_saved(), 0);
    }

    #[test]
    fn second_batch_weights_under_first_batch_aggregation() {
        // Two identical one-layer batches: batch 1's Weighting (10) hides
        // entirely under batch 0's Aggregation (20).
        let p = profile(0, &[(10, 20)], 0);
        let s = pipeline(&[p.clone(), p]);
        // W0 [0,10) A0 [10,30); W1 [10,20) A1 [30,50).
        assert_eq!(s.batch_completion, vec![30, 50]);
        assert_eq!(s.total_cycles, 50);
        assert_eq!(s.serial_cycles, 60);
        assert_eq!(s.overlap_cycles_saved(), 10);
    }

    #[test]
    fn completion_times_are_nondecreasing() {
        let batches = vec![
            profile(3, &[(10, 2), (4, 6)], 1),
            profile(0, &[(1, 1)], 0),
            profile(9, &[(2, 30), (40, 5)], 2),
        ];
        let s = pipeline(&batches);
        assert!(s.batch_completion.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(s.total_cycles, *s.batch_completion.last().unwrap());
        assert!(s.total_cycles <= s.serial_cycles);
    }

    #[test]
    fn empty_input_is_zero() {
        let s = pipeline(&[]);
        assert_eq!(s.total_cycles, 0);
        assert_eq!(s.serial_cycles, 0);
        assert!(s.batch_completion.is_empty());
    }

    #[test]
    fn zero_layer_batch_still_charges_pre_and_post() {
        let s = pipeline(&[profile(5, &[], 7), profile(0, &[(10, 10)], 0)]);
        assert_eq!(s.batch_completion, vec![12, 32]);
    }

    #[test]
    fn a_release_delays_the_first_weighting_pass() {
        // Same two-batch shape as the overlap test, but batch 1 is not
        // released until cycle 25: its Weighting can no longer hide fully
        // under batch 0's Aggregation ([10,30)).
        let p = profile(0, &[(10, 20)], 0);
        let mut state = PipelineState::new();
        assert_eq!(state.push(&p, 0), 30);
        // W1 [25,35) (release-bound), A1 [35,55).
        assert_eq!(state.push(&p, 25), 55);
    }

    #[test]
    fn an_idle_gap_lets_a_late_batch_run_in_isolation() {
        let p = profile(5, &[(10, 20)], 7);
        let mut state = PipelineState::new();
        let first = state.push(&p, 0);
        let second = state.push(&p, 1_000);
        assert_eq!(second, 1_000 + p.serial_cycles());
        assert!(first < 1_000);
    }

    #[test]
    fn merge_sums_phases_elementwise() {
        let mut a = profile(5, &[(10, 20), (30, 40)], 7);
        let b = profile(1, &[(2, 3), (4, 5)], 6);
        let serial_sum = a.serial_cycles() + b.serial_cycles();
        a.merge(&b);
        assert_eq!(a, profile(6, &[(12, 23), (34, 45)], 13));
        assert_eq!(a.serial_cycles(), serial_sum);
    }

    #[test]
    fn merge_pads_shorter_layer_stacks() {
        let mut a = profile(0, &[(1, 1)], 0);
        a.merge(&profile(0, &[(2, 2), (3, 3)], 0));
        assert_eq!(a, profile(0, &[(3, 3), (3, 3)], 0));
    }
}
