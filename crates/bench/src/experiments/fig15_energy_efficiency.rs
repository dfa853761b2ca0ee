//! Fig. 15 — energy efficiency (inferences/kJ): GNNIE vs HyGCN vs
//! AWB-GCN on GCN across the five datasets.
//!
//! Paper-reported ranges: HyGCN 2.3×10¹–5.2×10⁵, AWB-GCN
//! 1.5×10²–4.4×10⁵, GNNIE 7.4×10³–6.7×10⁶ inferences/kJ — GNNIE tops
//! every dataset.

use gnnie_baselines::{AwbGcnModel, HygcnModel};
use gnnie_gnn::flops::ModelWorkload;
use gnnie_gnn::model::GnnModel;
use gnnie_graph::Dataset;

use crate::{Ctx, ExperimentResult, Table};

/// Measured inferences/kJ for (GNNIE, HyGCN, AWB-GCN) on GCN × `dataset`.
pub fn efficiency(ctx: &Ctx, dataset: Dataset) -> (f64, Option<f64>, Option<f64>) {
    let report = ctx.run_gnnie(GnnModel::Gcn, dataset);
    let ds = ctx.dataset(dataset);
    let cfg = ctx.model_config(GnnModel::Gcn, dataset);
    let w = ModelWorkload::for_dataset(&cfg, &ds);
    let hygcn = HygcnModel::new().run(&w).map(|r| r.inferences_per_kj());
    let awb = AwbGcnModel::new().run(&w).map(|r| r.inferences_per_kj());
    (report.inferences_per_kj(), hygcn, awb)
}

/// Regenerates Fig. 15.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let mut t = Table::new(&["dataset", "GNNIE (inf/kJ)", "HyGCN", "AWB-GCN"]);
    for dataset in Dataset::ALL {
        let (gnnie, hygcn, awb) = efficiency(ctx, dataset);
        t.row(vec![
            dataset.abbrev().to_string(),
            format!("{gnnie:.3e}"),
            hygcn.map(|x| format!("{x:.3e}")).unwrap_or_else(|| "--".into()),
            awb.map(|x| format!("{x:.3e}")).unwrap_or_else(|| "--".into()),
        ]);
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.push(
        "paper ranges (GCN): HyGCN 2.3e1–5.2e5, AWB-GCN 1.5e2–4.4e5, GNNIE 7.4e3–6.7e6 \
         inferences/kJ; GNNIE leads on every dataset"
            .to_string(),
    );
    ExperimentResult::new("Fig. 15", "Energy efficiency: GNNIE vs HyGCN vs AWB-GCN", lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnnie_is_most_efficient() {
        let ctx = Ctx::with_scale(1.0);
        for dataset in [Dataset::Cora, Dataset::Citeseer] {
            let (gnnie, hygcn, awb) = efficiency(&ctx, dataset);
            assert!(gnnie > hygcn.unwrap(), "{dataset:?} vs HyGCN");
            assert!(gnnie > awb.unwrap(), "{dataset:?} vs AWB-GCN");
        }
    }

    #[test]
    fn efficiency_decreases_with_graph_size() {
        let ctx = Ctx::with_scale(0.5);
        let (small, _, _) = efficiency(&ctx, Dataset::Cora);
        let (large, _, _) = efficiency(&ctx, Dataset::Pubmed);
        assert!(small > large, "bigger graphs cost more energy per inference");
    }
}
