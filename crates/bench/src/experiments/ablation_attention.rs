//! Ablation — the §V-A attention reordering: linear `O(|V|+|E|)` vs the
//! naïve per-edge evaluation the paper's complexity argument replaces.
//!
//! Not a paper figure (the paper states the asymptotic claim in prose);
//! this regenerates the evidence: operation counts and ideal cycles for
//! both orderings across the datasets, plus the mean-degree scaling that
//! makes the gap grow.

use gnnie_core::gat::AttentionCost;
use gnnie_graph::Dataset;

use crate::table::{fmt_count, fmt_ratio};
use crate::{Ctx, ExperimentResult, Table};

/// Regenerates the ablation table.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let mut t = Table::new(&[
        "dataset",
        "naive MACs",
        "reordered MACs",
        "MAC ratio",
        "cycle ratio (1216 MACs)",
    ]);
    for dataset in Dataset::ALL {
        let ds = ctx.dataset(dataset);
        let v = ds.graph.num_vertices() as u64;
        let e = ds.graph.num_edges() as u64;
        let naive = AttentionCost::naive(v, e, 128);
        let linear = AttentionCost::linear(v, e, 128);
        t.row(vec![
            dataset.abbrev().to_string(),
            fmt_count(naive.dot_macs),
            fmt_count(linear.dot_macs),
            fmt_ratio(naive.dot_macs as f64 / linear.dot_macs as f64),
            fmt_ratio(
                naive.compute_cycles(1216) as f64 / linear.compute_cycles(1216).max(1) as f64,
            ),
        ]);
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.push(
        "the MAC ratio tracks (1 + mean degree): e_{i,2} is computed once per vertex \
         instead of once per incident edge (paper §V-A)"
            .to_string(),
    );
    ExperimentResult::new(
        "Ablation A1",
        "GAT attention: naive vs linear-complexity reordering",
        lines,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_tracks_mean_degree() {
        let ctx = Ctx::with_scale(0.2);
        let ds = ctx.dataset(Dataset::Pubmed);
        let v = ds.graph.num_vertices() as u64;
        let e = ds.graph.num_edges() as u64;
        let ratio = AttentionCost::naive(v, e, 128).dot_macs as f64
            / AttentionCost::linear(v, e, 128).dot_macs as f64;
        let mean_deg_plus_1 = (2 * e + v) as f64 / v as f64;
        assert!(
            (ratio - mean_deg_plus_1).abs() / mean_deg_plus_1 < 0.01,
            "ratio {ratio} vs 1+mean degree {mean_deg_plus_1}"
        );
    }

    #[test]
    fn renders_all_datasets() {
        let r = run(&Ctx::with_scale(0.05));
        assert_eq!(r.lines.len(), 2 + 5 + 2);
    }
}
