//! Ablation — MPE psum-slot sizing (§IV-B).
//!
//! The MPEs accumulate partial sums "for several vertices at a time" but
//! "have only limited psum slots"; when the rabbit/turtle spread exceeds
//! the slot budget, the fast rows stall. This sweep varies the per-MPE
//! slot count and reports the Weighting stall cycles per pass on the
//! citation datasets, under both the unbalanced baseline schedule (where
//! the spread is worst) and the FM+LR schedule (which shrinks the spread
//! at the source) — showing why 64 slots suffice once load balancing is
//! on.

use gnnie_core::config::AcceleratorConfig;
use gnnie_core::cpe::CpeArray;
use gnnie_core::mpe::psum_stall_cycles;
use gnnie_core::weighting::{schedule, BlockProfile, WeightingMode};
use gnnie_graph::Dataset;

use crate::{table::fmt_count, Ctx, ExperimentResult, Table};

/// Slot counts swept (the paper configuration uses 64).
pub const SLOT_SWEEP: [u64; 6] = [8, 16, 32, 64, 128, 256];

/// Datasets swept.
pub const DATASETS: [Dataset; 3] = [Dataset::Cora, Dataset::Citeseer, Dataset::Pubmed];

/// Stall cycles per pass for one dataset under `mode` across the sweep.
pub fn stalls_for(ctx: &Ctx, dataset: Dataset, mode: WeightingMode) -> Vec<u64> {
    let ds = ctx.dataset(dataset);
    let cfg = AcceleratorConfig::paper(dataset);
    let arr = CpeArray::new(&cfg);
    let profile = BlockProfile::from_sparse(&ds.features, arr.rows());
    let per_row = schedule(&profile, &arr, mode).per_row_cycles(&arr);
    SLOT_SWEEP
        .iter()
        .map(|&slots| psum_stall_cycles(&per_row, profile.vertices() as u64, slots))
        .collect()
}

/// Regenerates the ablation table.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let mut header: Vec<String> = vec!["dataset".into(), "schedule".into()];
    header.extend(SLOT_SWEEP.iter().map(|s| format!("{s} slots")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&header_refs);
    for dataset in DATASETS {
        for mode in [WeightingMode::Baseline, WeightingMode::FmLr] {
            let mut row = vec![format!("{dataset:?}"), mode.to_string()];
            row.extend(stalls_for(ctx, dataset, mode).iter().map(|&s| fmt_count(s)));
            t.row(row);
        }
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.push(
        "stall cycles per Weighting pass from psum-slot exhaustion: the \
         unbalanced baseline schedule needs large psum spads to absorb the \
         rabbit/turtle spread, while FM+LR shrinks the spread at the source \
         so the paper's 64-slot MPEs run stall-free — load balancing and \
         buffer sizing trade against each other (§IV-B)"
            .to_string(),
    );
    ExperimentResult::new("Ablation A6", "MPE psum slots vs Weighting stalls (§IV-B)", lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stalls_decrease_with_more_slots() {
        let ctx = Ctx::with_scale(0.3);
        for dataset in DATASETS {
            let stalls = stalls_for(&ctx, dataset, WeightingMode::Baseline);
            for w in stalls.windows(2) {
                assert!(w[0] >= w[1], "{dataset:?}: more slots must not add stalls {stalls:?}");
            }
        }
    }

    #[test]
    fn balanced_schedule_stalls_no_more_than_baseline() {
        let ctx = Ctx::with_scale(0.3);
        for dataset in DATASETS {
            let base = stalls_for(&ctx, dataset, WeightingMode::Baseline);
            let lb = stalls_for(&ctx, dataset, WeightingMode::FmLr);
            for (b, l) in base.iter().zip(&lb) {
                assert!(l <= b, "{dataset:?}: FM+LR must not stall more ({lb:?} vs {base:?})");
            }
        }
    }

    #[test]
    fn paper_config_runs_stall_free_with_load_balancing() {
        let ctx = Ctx::with_scale(0.3);
        for dataset in DATASETS {
            let lb = stalls_for(&ctx, dataset, WeightingMode::FmLr);
            // Index 3 is the paper's 64-slot point.
            assert_eq!(lb[3], 0, "{dataset:?}: 64 slots must absorb the FM+LR spread");
        }
    }

    #[test]
    fn table_has_a_row_per_dataset_and_mode() {
        let ctx = Ctx::with_scale(0.1);
        let r = run(&ctx);
        // header + separator + 3 datasets x 2 modes + blank + note.
        assert_eq!(r.lines.len(), 2 + 6 + 2);
    }
}
