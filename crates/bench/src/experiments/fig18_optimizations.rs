//! Fig. 18 — cumulative effectiveness of GNNIE's optimizations.
//!
//! Left panel: Aggregation time under CP (degree-aware caching), CP+FM,
//! and CP+FM+LB, relative to a baseline with none of them (4 MACs/CPE,
//! id-order processing, no load balancing). Paper-reported cumulative
//! aggregation-time reductions: 47% (Cora), 69% (Citeseer), 87% (Pubmed).
//!
//! Middle/right panels: the same ladder applied to full GCN and GAT
//! inference time (CP, CP+FM, CP+FM+LB where LB includes LR).

use gnnie_core::config::{AcceleratorConfig, Design};
use gnnie_gnn::model::GnnModel;
use gnnie_graph::Dataset;

use crate::{Ctx, ExperimentResult, Table};

/// The optimization ladder of Fig. 18.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// No cache policy, no FM, no LR, no aggregation LB, 4 MACs/CPE.
    Baseline,
    /// Degree-aware cache replacement policy only.
    Cp,
    /// CP plus the flexible-MAC architecture.
    CpFm,
    /// CP + FM + load balancing (aggregation LB and Weighting LR).
    CpFmLb,
}

impl Step {
    /// All steps in ladder order.
    pub const ALL: [Step; 4] = [Step::Baseline, Step::Cp, Step::CpFm, Step::CpFmLb];

    /// The accelerator configuration for this step.
    pub fn config(self, dataset: Dataset) -> AcceleratorConfig {
        let input = AcceleratorConfig::paper(dataset).input_buffer_bytes;
        match self {
            Step::Baseline => AcceleratorConfig::ablation_baseline(input),
            Step::Cp => {
                let mut c = AcceleratorConfig::ablation_baseline(input);
                c.enable_cache_policy = true;
                c
            }
            Step::CpFm => {
                let mut c = AcceleratorConfig::with_design(Design::E, input);
                c.enable_lr = false;
                c.enable_agg_lb = false;
                c
            }
            Step::CpFmLb => AcceleratorConfig::with_design(Design::E, input),
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Step::Baseline => "baseline",
            Step::Cp => "CP",
            Step::CpFm => "CP+FM",
            Step::CpFmLb => "CP+FM+LB",
        }
    }
}

/// (aggregation cycles, total cycles) for one ladder step.
pub fn cycles_at(ctx: &Ctx, model: GnnModel, dataset: Dataset, step: Step) -> (u64, u64) {
    let r = ctx.run_gnnie_with(step.config(dataset), model, dataset);
    (r.aggregation_cycles(), r.total_cycles)
}

/// Regenerates Fig. 18 (all three panels).
pub fn run(ctx: &Ctx) -> ExperimentResult {
    /// Paper-reported cumulative aggregation-time reductions at CP+FM+LB.
    const PAPER_AGG_REDUCTION: [(Dataset, f64); 3] =
        [(Dataset::Cora, 0.47), (Dataset::Citeseer, 0.69), (Dataset::Pubmed, 0.87)];
    let datasets = [Dataset::Cora, Dataset::Citeseer, Dataset::Pubmed];

    let mut lines = Vec::new();
    // Left panel: aggregation time (GCN).
    let mut t = Table::new(&["dataset", "step", "agg cycles", "reduction"]);
    for dataset in datasets {
        let base = cycles_at(ctx, GnnModel::Gcn, dataset, Step::Baseline).0;
        for step in Step::ALL {
            let agg = cycles_at(ctx, GnnModel::Gcn, dataset, step).0;
            t.row(vec![
                dataset.abbrev().to_string(),
                step.label().to_string(),
                agg.to_string(),
                format!("{:.0}%", (1.0 - agg as f64 / base.max(1) as f64) * 100.0),
            ]);
        }
        let paper = PAPER_AGG_REDUCTION.iter().find(|(d, _)| *d == dataset).unwrap().1;
        let measured = 1.0
            - cycles_at(ctx, GnnModel::Gcn, dataset, Step::CpFmLb).0 as f64
                / base.max(1) as f64;
        lines.push(format!(
            "{:4} cumulative aggregation reduction: measured {:.0}%, paper {:.0}%",
            dataset.abbrev(),
            measured * 100.0,
            paper * 100.0
        ));
    }
    let mut out = t.render();
    out.push(String::new());
    out.append(&mut lines);
    out.push(String::new());

    // Middle/right panels: inference time for GCN and GAT.
    let mut t2 = Table::new(&["model", "dataset", "step", "total cycles", "reduction"]);
    for model in [GnnModel::Gcn, GnnModel::Gat] {
        for dataset in datasets {
            let base = cycles_at(ctx, model, dataset, Step::Baseline).1;
            for step in [Step::Cp, Step::CpFm, Step::CpFmLb] {
                let total = cycles_at(ctx, model, dataset, step).1;
                t2.row(vec![
                    model.name().to_string(),
                    dataset.abbrev().to_string(),
                    step.label().to_string(),
                    total.to_string(),
                    format!("{:.0}%", (1.0 - total as f64 / base.max(1) as f64) * 100.0),
                ]);
            }
        }
    }
    out.extend(t2.render());
    out.push(String::new());
    out.push(
        "paper: reductions grow with graph size (Pubmed > Cora), demonstrating \
         scalability of the optimizations"
            .to_string(),
    );
    ExperimentResult::new("Fig. 18", "Effectiveness of GNNIE's optimization methods", out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_improves_aggregation_monotonically_enough() {
        let ctx = Ctx::with_scale(0.2);
        let base = cycles_at(&ctx, GnnModel::Gcn, Dataset::Cora, Step::Baseline).0;
        let cp = cycles_at(&ctx, GnnModel::Gcn, Dataset::Cora, Step::Cp).0;
        let full = cycles_at(&ctx, GnnModel::Gcn, Dataset::Cora, Step::CpFmLb).0;
        assert!(cp < base, "CP must cut aggregation time: {cp} vs {base}");
        assert!(full < cp, "FM+LB must cut further: {full} vs {cp}");
    }

    #[test]
    fn full_ladder_cuts_total_inference_time() {
        let ctx = Ctx::with_scale(0.2);
        for model in [GnnModel::Gcn, GnnModel::Gat] {
            let base = cycles_at(&ctx, model, Dataset::Citeseer, Step::Baseline).1;
            let full = cycles_at(&ctx, model, Dataset::Citeseer, Step::CpFmLb).1;
            assert!(full < base, "{model}: {full} vs {base}");
        }
    }
}
