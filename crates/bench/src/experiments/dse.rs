//! Design-space exploration: how the paper's flexible-MAC configuration
//! was (plausibly) chosen.
//!
//! §VIII-A: "The number of MACs per CPE was chosen through design space
//! exploration, optimizing the cost-to-benefit ratio (speedup gain :
//! hardware overhead)." This sweep enumerates every monotone three-group
//! row configuration with 3–7 MACs per CPE, evaluates Weighting cycles
//! under FM on the citation datasets, and ranks by the paper's β metric
//! (Eq. 9) against the uniform 4-MAC baseline — showing where 4/5/6 with
//! an 8/4/4 row split lands.

use gnnie_core::config::{AcceleratorConfig, Design, RowGroup};
use gnnie_core::cpe::CpeArray;
use gnnie_core::weighting::{
    simulate_weighting_mode, BlockProfile, WeightingMode, WeightingParams,
};
use gnnie_graph::Dataset;
use gnnie_mem::HbmModel;

use crate::{Ctx, ExperimentResult, Table};

/// A candidate point: three row groups over 16 rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsePoint {
    /// Rows per group (sums to 16).
    pub rows: [usize; 3],
    /// MACs per CPE per group (nondecreasing).
    pub macs: [usize; 3],
}

impl DsePoint {
    /// The paper's chosen configuration.
    pub const PAPER: DsePoint = DsePoint { rows: [8, 4, 4], macs: [4, 5, 6] };

    /// Builds the accelerator configuration for this point.
    pub fn config(&self) -> AcceleratorConfig {
        let mut cfg = AcceleratorConfig::with_design(Design::E, 256 * 1024);
        cfg.row_groups = (0..3)
            .map(|i| RowGroup { rows: self.rows[i], macs_per_cpe: self.macs[i] })
            .collect();
        cfg
    }

    /// Total MAC count.
    pub fn total_macs(&self) -> usize {
        (0..3).map(|i| self.rows[i] * self.macs[i] * 16).sum()
    }
}

impl std::fmt::Display for DsePoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}x{} {}x{} {}x{}",
            self.rows[0], self.macs[0], self.rows[1], self.macs[1], self.rows[2], self.macs[2]
        )
    }
}

/// Enumerates the candidate space: row splits of 16 into three nonempty
/// groups (multiples of 4, as banked hardware would) and nondecreasing
/// MAC triples from 3–7.
pub fn candidates() -> Vec<DsePoint> {
    let mut out = Vec::new();
    for r0 in [4usize, 8] {
        for r1 in [4usize, 8] {
            let Some(r2) = 16usize.checked_sub(r0 + r1).filter(|&r| r >= 4) else {
                continue;
            };
            for m0 in 3..=7usize {
                for m1 in m0..=7 {
                    for m2 in m1..=7 {
                        if m0 == m2 {
                            continue; // uniform points are Designs A–D
                        }
                        out.push(DsePoint { rows: [r0, r1, r2], macs: [m0, m1, m2] });
                    }
                }
            }
        }
    }
    out
}

/// Weighting compute cycles for a point on a dataset (FM schedule).
pub fn cycles(ctx: &Ctx, dataset: Dataset, point: &DsePoint) -> u64 {
    let ds = ctx.dataset(dataset);
    let cfg = point.config();
    let arr = CpeArray::new(&cfg);
    let profile = BlockProfile::from_sparse(&ds.features, arr.rows());
    let mut dram = HbmModel::hbm2_256gbps(cfg.clock_hz);
    simulate_weighting_mode(
        &cfg,
        &arr,
        &profile,
        WeightingParams::default(),
        WeightingMode::Fm,
        &mut dram,
    )
    .compute_cycles
}

/// β of a point against the uniform 4-MAC baseline, averaged over the
/// three citation datasets.
pub fn mean_beta(ctx: &Ctx, point: &DsePoint) -> f64 {
    let base_cfg = AcceleratorConfig::with_design(Design::A, 256 * 1024);
    let base_macs = base_cfg.total_macs() as f64;
    let mut sum = 0.0;
    let datasets = [Dataset::Cora, Dataset::Citeseer, Dataset::Pubmed];
    for &dataset in &datasets {
        let ds = ctx.dataset(dataset);
        let arr = CpeArray::new(&base_cfg);
        let profile = BlockProfile::from_sparse(&ds.features, arr.rows());
        let mut dram = HbmModel::hbm2_256gbps(base_cfg.clock_hz);
        let base = simulate_weighting_mode(
            &base_cfg,
            &arr,
            &profile,
            WeightingParams::default(),
            WeightingMode::Baseline,
            &mut dram,
        )
        .compute_cycles as f64;
        let point_cycles = cycles(ctx, dataset, point) as f64;
        let dm = point.total_macs() as f64 - base_macs;
        if dm > 0.0 {
            sum += (base - point_cycles) / dm;
        }
    }
    sum / datasets.len() as f64
}

/// Regenerates the DSE ranking (top 10 by mean β).
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let mut scored: Vec<(DsePoint, f64)> =
        candidates().into_iter().map(|p| (p, mean_beta(ctx, &p))).collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("β is finite"));
    let paper_rank =
        scored.iter().position(|(p, _)| *p == DsePoint::PAPER).map(|i| i + 1).unwrap_or(0);

    let mut t = Table::new(&["rank", "rows x MACs", "total MACs", "mean β", ""]);
    for (i, (point, beta)) in scored.iter().take(10).enumerate() {
        t.row(vec![
            (i + 1).to_string(),
            point.to_string(),
            point.total_macs().to_string(),
            format!("{beta:.2}"),
            if *point == DsePoint::PAPER { "<- paper's choice".into() } else { String::new() },
        ]);
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.push(format!(
        "candidates evaluated: {}; the paper's 8x4 4x5 4x6 ranks #{paper_rank} by mean β \
         over CR/CS/PB (β = cycle reduction per added MAC vs the uniform 4-MAC baseline)",
        scored.len()
    ));
    lines.push(
        "note: β-per-added-MAC inherently favors lean additions; the paper's point \
         trades some β for more absolute speedup at a still-modest 1216 MACs"
            .to_string(),
    );
    ExperimentResult::new(
        "DSE",
        "Design-space exploration of the flexible-MAC configuration",
        lines,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_space_is_valid() {
        let all = candidates();
        assert!(all.len() > 20, "space too small: {}", all.len());
        assert!(all.contains(&DsePoint::PAPER), "paper's point must be in the space");
        for p in &all {
            assert_eq!(p.rows.iter().sum::<usize>(), 16);
            assert!(p.macs.windows(2).all(|w| w[0] <= w[1]));
            p.config().validate();
        }
    }

    #[test]
    fn papers_point_scores_well() {
        let ctx = Ctx::with_scale(0.25);
        let paper_beta = mean_beta(&ctx, &DsePoint::PAPER);
        assert!(paper_beta > 0.0, "paper's design must improve on the baseline");
        // It need not win outright, but it must land in the upper half.
        let mut scored: Vec<f64> = candidates().iter().map(|p| mean_beta(&ctx, p)).collect();
        scored.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        let rank = scored.iter().position(|&b| b <= paper_beta).unwrap_or(0);
        assert!(rank <= scored.len() / 2, "paper's point ranks {rank} of {}", scored.len());
    }

    #[test]
    fn more_macs_cost_beta() {
        let ctx = Ctx::with_scale(0.25);
        let lean = DsePoint { rows: [8, 4, 4], macs: [4, 5, 6] };
        let heavy = DsePoint { rows: [4, 4, 8], macs: [5, 6, 7] };
        // The heavier point has more MACs; β (gain per MAC) should not
        // beat the lean one by much — diminishing returns on sparsity.
        let lean_beta = mean_beta(&ctx, &lean);
        let heavy_beta = mean_beta(&ctx, &heavy);
        assert!(heavy_beta < lean_beta * 1.5, "lean {lean_beta} vs heavy {heavy_beta}");
    }
}
