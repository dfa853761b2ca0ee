//! Fig. 17 — speedup-gain vs. hardware-overhead ratio β for Designs B–E.
//!
//! `β = (baseline cycles − design cycles) / (design MACs − baseline MACs)`
//! over the Weighting phase, baseline = Design A (uniform 4 MACs/CPE,
//! 1024 MACs). The paper's claim: β drops as MACs are added uniformly
//! (B→C→D) because sparsity leaves the extra MACs idle, while the
//! flexible-MAC Design E (1216 MACs) achieves the highest β on every
//! dataset.

use gnnie_core::config::{AcceleratorConfig, Design};
use gnnie_core::cpe::CpeArray;
use gnnie_core::weighting::{
    simulate_weighting_mode, BlockProfile, WeightingMode, WeightingParams,
};
use gnnie_graph::Dataset;
use gnnie_mem::HbmModel;

use crate::{Ctx, ExperimentResult, Table};

/// Weighting compute cycles for one design on one dataset (one layer,
/// F_out = 128). Designs A–D run the pinned baseline schedule (they are
/// uniform arrays with no reordering); Design E runs FM.
pub fn weighting_cycles(ctx: &Ctx, dataset: Dataset, design: Design) -> u64 {
    let ds = ctx.dataset(dataset);
    let cfg = AcceleratorConfig::with_design(design, 256 * 1024);
    let arr = CpeArray::new(&cfg);
    let profile = BlockProfile::from_sparse(&ds.features, arr.rows());
    let mode = if design == Design::E { WeightingMode::Fm } else { WeightingMode::Baseline };
    let mut dram = HbmModel::hbm2_256gbps(cfg.clock_hz);
    simulate_weighting_mode(&cfg, &arr, &profile, WeightingParams::default(), mode, &mut dram)
        .compute_cycles
}

/// β of `design` relative to Design A on `dataset` (Eq. 9).
pub fn beta(ctx: &Ctx, dataset: Dataset, design: Design) -> f64 {
    let base_cycles = weighting_cycles(ctx, dataset, Design::A) as f64;
    let design_cycles = weighting_cycles(ctx, dataset, design) as f64;
    let base_macs = AcceleratorConfig::with_design(Design::A, 1024).total_macs() as f64;
    let design_macs = AcceleratorConfig::with_design(design, 1024).total_macs() as f64;
    (base_cycles - design_cycles) / (design_macs - base_macs)
}

/// Regenerates Fig. 17.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let mut t = Table::new(&["design", "MACs", "β (CR)", "β (CS)", "β (PB)"]);
    for design in [Design::B, Design::C, Design::D, Design::E] {
        let macs = AcceleratorConfig::with_design(design, 1024).total_macs();
        let betas: Vec<String> = [Dataset::Cora, Dataset::Citeseer, Dataset::Pubmed]
            .iter()
            .map(|&d| format!("{:.2}", beta(ctx, d, design)))
            .collect();
        t.row(vec![
            design.to_string(),
            macs.to_string(),
            betas[0].clone(),
            betas[1].clone(),
            betas[2].clone(),
        ]);
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.push(
        "paper: β falls from Design B to D (uniform MACs are wasted on sparse blocks) \
         and Design E's flexible MACs achieve the highest β on all datasets"
            .to_string(),
    );
    ExperimentResult::new("Fig. 17", "Speedup gain vs hardware overhead (Designs B–E)", lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_e_has_highest_beta() {
        let ctx = Ctx::with_scale(0.4);
        for dataset in [Dataset::Cora, Dataset::Citeseer] {
            let be = beta(&ctx, dataset, Design::E);
            for design in [Design::B, Design::C, Design::D] {
                let b = beta(&ctx, dataset, design);
                assert!(be > b, "{dataset:?}: Design E β {be} must beat {design:?} β {b}");
            }
        }
    }

    #[test]
    fn beta_declines_with_uniform_mac_count() {
        let ctx = Ctx::with_scale(0.4);
        let bb = beta(&ctx, Dataset::Cora, Design::B);
        let bd = beta(&ctx, Dataset::Cora, Design::D);
        assert!(bb > bd, "uniform scaling must show diminishing returns: B {bb} vs D {bd}");
    }

    #[test]
    fn more_macs_never_increase_cycles() {
        let ctx = Ctx::with_scale(0.3);
        let a = weighting_cycles(&ctx, Dataset::Cora, Design::A);
        let d = weighting_cycles(&ctx, Dataset::Cora, Design::D);
        assert!(d <= a);
    }
}
