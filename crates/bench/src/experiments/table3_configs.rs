//! Table III — convolution layer configurations per model.

use gnnie_gnn::model::GnnModel;
use gnnie_graph::Dataset;

use crate::{Ctx, ExperimentResult, Table};

/// Regenerates Table III (instantiated for each dataset's feature length).
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let mut t = Table::new(&["model", "weighting", "aggregation", "sample size"]);
    let spec = ctx.dataset(Dataset::Cora).spec;
    for model in GnnModel::ALL {
        let cfg = ctx.model_config(model, Dataset::Cora);
        let weighting = match model {
            GnnModel::GinConv => format!("len[h] -> {} / {}", cfg.hidden, cfg.hidden),
            _ => format!("len[h] -> {}", cfg.hidden),
        };
        let aggregation = match model {
            GnnModel::GraphSage => "Max".to_string(),
            _ => "Sum".to_string(),
        };
        let sample = cfg.sample_size.map(|s| s.to_string()).unwrap_or_else(|| "--".to_string());
        t.row(vec![model.name().to_string(), weighting, aggregation, sample]);
    }
    let mut lines = t.render();
    lines.push(format!(
        "(len[h] = dataset feature length, e.g. {} for Cora; hidden width 128 throughout; \
         DiffPool pairs a GCN-pool and GCN-embedding stack)",
        spec.feature_len
    ));
    ExperimentResult::new("Table III", "Convolution layer configurations", lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_all_five_models() {
        let r = run(&Ctx::with_scale(0.05));
        let body = r.lines.join("\n");
        for model in GnnModel::ALL {
            assert!(body.contains(model.name()), "{model} missing");
        }
        assert!(body.contains("Max"), "GraphSAGE aggregator");
        assert!(body.contains("25"), "sample size");
    }
}
