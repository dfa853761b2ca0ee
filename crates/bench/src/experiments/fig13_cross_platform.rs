//! Fig. 13 — cross-platform comparison against HyGCN (GCN, GraphSAGE,
//! GINConv) and AWB-GCN (GCN only).
//!
//! Neither prior accelerator computes graph softmax, so GATs are out for
//! both and AWB-GCN runs only GCNs — exactly the paper's framing. GNNIE
//! wins with 3.4× fewer MACs than AWB-GCN and ~14× less on-chip buffer
//! than HyGCN.

use gnnie_baselines::{AwbGcnModel, HygcnModel};
use gnnie_gnn::flops::ModelWorkload;
use gnnie_gnn::model::GnnModel;
use gnnie_graph::Dataset;

use crate::table::fmt_ratio;
use crate::{Ctx, ExperimentResult, Table};

/// Paper-reported average speedups: (model, vs HyGCN, vs AWB-GCN).
pub const PAPER_AVG: [(GnnModel, Option<f64>, Option<f64>); 3] = [
    (GnnModel::Gcn, Some(25.0), Some(2.1)),
    (GnnModel::GraphSage, Some(72.0), None),
    (GnnModel::GinConv, Some(7.0), None),
];

/// Measured speedups of GNNIE over (HyGCN, AWB-GCN) for one model ×
/// dataset; `None` where the baseline cannot run the model.
pub fn speedups(ctx: &Ctx, model: GnnModel, dataset: Dataset) -> (Option<f64>, Option<f64>) {
    let report = ctx.run_gnnie(model, dataset);
    let ds = ctx.dataset(dataset);
    let cfg = ctx.model_config(model, dataset);
    let w = ModelWorkload::for_dataset(&cfg, &ds);
    let hygcn = HygcnModel::new().run(&w).map(|r| r.latency_s / report.latency_s);
    let awb = AwbGcnModel::new().run(&w).map(|r| r.latency_s / report.latency_s);
    (hygcn, awb)
}

/// Regenerates Fig. 13.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let mut t = Table::new(&["model", "dataset", "vs HyGCN", "vs AWB-GCN"]);
    let mut summary = Vec::new();
    for model in [GnnModel::Gcn, GnnModel::GraphSage, GnnModel::GinConv] {
        let mut hy_prod = 1.0f64;
        let mut hy_n = 0u32;
        let mut awb_prod = 1.0f64;
        let mut awb_n = 0u32;
        for dataset in Dataset::ALL {
            let (hy, awb) = speedups(ctx, model, dataset);
            if let Some(h) = hy {
                hy_prod *= h;
                hy_n += 1;
            }
            if let Some(a) = awb {
                awb_prod *= a;
                awb_n += 1;
            }
            t.row(vec![
                model.name().to_string(),
                dataset.abbrev().to_string(),
                hy.map(fmt_ratio).unwrap_or_else(|| "--".into()),
                awb.map(fmt_ratio).unwrap_or_else(|| "--".into()),
            ]);
        }
        let paper = PAPER_AVG.iter().find(|(m, _, _)| *m == model).unwrap();
        summary.push(format!(
            "{:10} measured geo-mean: HyGCN {:>7} AWB-GCN {:>7}   paper: HyGCN {:>6} AWB-GCN {:>6}",
            model.name(),
            if hy_n > 0 { fmt_ratio(hy_prod.powf(1.0 / hy_n as f64)) } else { "--".into() },
            if awb_n > 0 { fmt_ratio(awb_prod.powf(1.0 / awb_n as f64)) } else { "--".into() },
            paper.1.map(fmt_ratio).unwrap_or_else(|| "--".into()),
            paper.2.map(fmt_ratio).unwrap_or_else(|| "--".into()),
        ));
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.extend(summary);
    lines.push(String::new());
    lines.push(
        "GATs/DiffPool omitted: neither prior accelerator implements graph softmax \
         (paper §VIII-C); AWB-GCN implements only GCNs."
            .to_string(),
    );
    ExperimentResult::new("Fig. 13", "Performance comparison with HyGCN and AWB-GCN", lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnnie_beats_hygcn_and_awb_on_gcn() {
        // Full-scale Citeseer: the ultra-sparse input layer is exactly
        // the regime where GNNIE's zero-skipping beats AWB-GCN's SpMM.
        let ctx = Ctx::with_scale(1.0);
        let (hy, awb) = speedups(&ctx, GnnModel::Gcn, Dataset::Citeseer);
        let hy = hy.expect("HyGCN runs GCN");
        let awb = awb.expect("AWB-GCN runs GCN");
        assert!(hy > 1.0, "HyGCN speedup {hy}");
        assert!(awb > 1.0, "AWB-GCN speedup {awb}");
        assert!(hy > awb, "AWB-GCN must be the closer competitor: {hy} vs {awb}");
    }

    #[test]
    fn unsupported_models_report_none() {
        let ctx = Ctx::with_scale(0.1);
        let (hy, awb) = speedups(&ctx, GnnModel::Gat, Dataset::Cora);
        assert!(hy.is_none());
        assert!(awb.is_none());
        let (_, awb_sage) = speedups(&ctx, GnnModel::GraphSage, Dataset::Cora);
        assert!(awb_sage.is_none());
    }
}
