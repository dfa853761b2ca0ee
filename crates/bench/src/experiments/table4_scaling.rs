//! Table IV extension — throughput vs. graph scale.
//!
//! The table's accompanying claim is that throughput "degrades only
//! moderately as the graph size is increased". The three citation
//! datasets span only a 7× vertex range; this sweep runs GCN on one
//! dataset family (Pubmed statistics) across a 50× scale ramp and on the
//! two large datasets, reporting effective TOPS and the slowdown relative
//! to the smallest point — making the degradation curve explicit.

use gnnie_core::report::InferenceReport;
use gnnie_gnn::model::{GnnModel, ModelConfig};
use gnnie_graph::{Dataset, SyntheticDataset};

use crate::{table::fmt_count, Ctx, ExperimentResult, Table};

/// Scale points for the Pubmed-statistics ramp.
pub const SCALE_RAMP: [f64; 4] = [0.02, 0.1, 0.5, 1.0];

/// Runs GCN on Pubmed statistics at `scale`.
pub fn run_at_scale(ctx: &Ctx, scale: f64) -> InferenceReport {
    let ds = SyntheticDataset::generate(Dataset::Pubmed, scale, ctx.seed());
    let cfg = gnnie_core::config::AcceleratorConfig::paper(Dataset::Pubmed);
    gnnie_core::engine::Engine::new(cfg).run(&ModelConfig::paper(GnnModel::Gcn, &ds.spec), &ds)
}

/// Regenerates the scaling table.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let mut t = Table::new(&["workload", "|V|", "|E|", "eff. TOPS", "TOPS vs smallest"]);
    let mut base_tops = None;
    for &scale in &SCALE_RAMP {
        let r = run_at_scale(ctx, scale);
        let tops = r.effective_tops();
        let base = *base_tops.get_or_insert(tops);
        t.row(vec![
            format!("PB x{scale}"),
            fmt_count(r.vertices),
            fmt_count(r.edges),
            format!("{tops:.2}"),
            format!("{:.2}x", tops / base),
        ]);
    }
    // The two large datasets at the harness scales.
    for dataset in [Dataset::Ppi, Dataset::Reddit] {
        let r = ctx.run_gnnie(GnnModel::Gcn, dataset);
        let base = base_tops.unwrap_or(1.0);
        t.row(vec![
            format!("{dataset:?} (harness scale)"),
            fmt_count(r.vertices),
            fmt_count(r.edges),
            format!("{:.2}", r.effective_tops()),
            format!("{:.2}x", r.effective_tops() / base),
        ]);
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.push(
        "across a 50x vertex ramp the effective throughput moves by well \
         under an order of magnitude — the degree-aware cache keeps DRAM \
         sequential so bigger graphs add Rounds, not random stalls \
         (Table IV's 'degrades only moderately', extended)"
            .to_string(),
    );
    ExperimentResult::new("Table IV-b", "Throughput vs graph scale (extension)", lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_is_moderate_across_the_ramp() {
        let ctx = Ctx::from_env().expect("GNNIE_SCALE, if set, is in (0, 1]");
        let small = run_at_scale(&ctx, 0.02).effective_tops();
        let large = run_at_scale(&ctx, 0.5).effective_tops();
        assert!(small > 0.0 && large > 0.0);
        // "Moderate": a 25x size increase may not cost an order of
        // magnitude of throughput.
        let ratio = small.max(large) / small.min(large);
        assert!(ratio < 10.0, "throughput moved {ratio:.1}x across the ramp");
    }

    #[test]
    fn table_has_ramp_and_large_dataset_rows() {
        let ctx = Ctx::with_scale(0.05);
        let r = run(&ctx);
        assert!(r.lines.iter().any(|l| l.contains("PB x")));
        assert!(r.lines.iter().any(|l| l.contains("Reddit")));
    }
}
