//! Fig. 16 — per-CPE-row Weighting workload for the baseline, FM, and
//! FM+LR schedules on Cora, Citeseer, and Pubmed.
//!
//! The y-axis is the cycles each CPE row needs to produce 16 output
//! elements of the transformed features — exactly one weight-stationary
//! pass. Paper-reported pass-cycle reductions from FM: 6% (Cora), 14%
//! (Citeseer), 31% (Pubmed); LR smooths further.

use gnnie_core::config::AcceleratorConfig;
use gnnie_core::cpe::CpeArray;
use gnnie_core::weighting::{schedule, BlockProfile, WeightingMode};
use gnnie_graph::Dataset;
use gnnie_tensor::stats::LoadStats;

use crate::{Ctx, ExperimentResult, Table};

/// Per-row cycles of one pass under `mode`.
pub fn per_row_cycles(ctx: &Ctx, dataset: Dataset, mode: WeightingMode) -> Vec<u64> {
    let ds = ctx.dataset(dataset);
    let cfg = AcceleratorConfig::paper(dataset);
    let arr = CpeArray::new(&cfg);
    let profile = BlockProfile::from_sparse(&ds.features, arr.rows());
    schedule(&profile, &arr, mode).per_row_cycles(&arr)
}

/// Regenerates Fig. 16.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    /// Paper-reported FM pass-cycle reductions per dataset.
    const PAPER_FM_REDUCTION: [(Dataset, f64); 3] =
        [(Dataset::Cora, 0.06), (Dataset::Citeseer, 0.14), (Dataset::Pubmed, 0.31)];
    let mut t = Table::new(&["dataset", "mode", "max row", "min row", "spread", "rows 0..15"]);
    let mut summary = Vec::new();
    for dataset in [Dataset::Cora, Dataset::Citeseer, Dataset::Pubmed] {
        let mut pass = Vec::new();
        for mode in [WeightingMode::Baseline, WeightingMode::Fm, WeightingMode::FmLr] {
            let rows = per_row_cycles(ctx, dataset, mode);
            let stats = LoadStats::of(&rows);
            pass.push(*rows.iter().max().unwrap_or(&0));
            t.row(vec![
                dataset.abbrev().to_string(),
                mode.to_string(),
                stats.max.to_string(),
                stats.min.to_string(),
                stats.range().to_string(),
                rows.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(" "),
            ]);
        }
        let fm_red = 1.0 - pass[1] as f64 / pass[0].max(1) as f64;
        let lr_red = 1.0 - pass[2] as f64 / pass[0].max(1) as f64;
        let paper =
            PAPER_FM_REDUCTION.iter().find(|(d, _)| *d == dataset).map(|(_, r)| *r).unwrap();
        summary.push(format!(
            "{:4} pass-cycle reduction: FM {:.0}% (paper {:.0}%), FM+LR {:.0}%",
            dataset.abbrev(),
            fm_red * 100.0,
            paper * 100.0,
            lr_red * 100.0,
        ));
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.extend(summary);
    ExperimentResult::new(
        "Fig. 16",
        "CPE row workload in Weighting (baseline / FM / FM+LR)",
        lines,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fm_and_lr_shrink_spread_and_makespan() {
        let ctx = Ctx::with_scale(0.4);
        for dataset in [Dataset::Cora, Dataset::Citeseer] {
            let base = per_row_cycles(&ctx, dataset, WeightingMode::Baseline);
            let fm = per_row_cycles(&ctx, dataset, WeightingMode::Fm);
            let lr = per_row_cycles(&ctx, dataset, WeightingMode::FmLr);
            let spread = |v: &[u64]| v.iter().max().unwrap() - v.iter().min().unwrap();
            assert!(spread(&fm) < spread(&base), "{dataset:?} FM must narrow the spread");
            assert!(
                fm.iter().max() <= base.iter().max(),
                "{dataset:?} FM must not slow the pass"
            );
            assert!(
                lr.iter().max() <= fm.iter().max(),
                "{dataset:?} LR must not slow the pass"
            );
        }
    }

    #[test]
    fn work_is_conserved_across_modes() {
        let ctx = Ctx::with_scale(0.3);
        let base: u64 =
            per_row_cycles(&ctx, Dataset::Cora, WeightingMode::Baseline).iter().sum();
        // Cycle totals differ (different MACs per row) but both are
        // positive and within a small factor.
        let fm: u64 = per_row_cycles(&ctx, Dataset::Cora, WeightingMode::Fm).iter().sum();
        assert!(base > 0 && fm > 0);
        assert!((fm as f64) < 1.5 * base as f64);
    }
}
