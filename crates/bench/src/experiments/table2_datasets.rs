//! Table II — dataset statistics: paper targets vs. the synthesized
//! stand-ins actually generated at the harness scale.

use gnnie_graph::Dataset;

use crate::table::fmt_count;
use crate::{Ctx, ExperimentResult, Table};

/// Regenerates Table II.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let mut t = Table::new(&[
        "dataset",
        "scale",
        "|V| paper",
        "|V| gen",
        "|E| paper",
        "|E| gen",
        "feat",
        "labels",
        "sparsity paper",
        "sparsity gen",
    ]);
    for dataset in Dataset::ALL {
        let paper = dataset.spec();
        let ds = ctx.dataset(dataset);
        t.row(vec![
            dataset.abbrev().to_string(),
            format!("{:.2}", ctx.scale_for(dataset)),
            fmt_count(paper.vertices as u64),
            fmt_count(ds.graph.num_vertices() as u64),
            fmt_count(paper.edges as u64),
            fmt_count(ds.graph.num_edges() as u64),
            paper.feature_len.to_string(),
            paper.labels.to_string(),
            format!("{:.2}%", paper.feature_sparsity * 100.0),
            format!("{:.2}%", ds.features.sparsity() * 100.0),
        ]);
    }
    ExperimentResult::new("Table II", "Dataset information (synthetic stand-ins)", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_stats_track_scaled_targets() {
        let ctx = Ctx::with_scale(0.2);
        for dataset in [Dataset::Cora, Dataset::Citeseer] {
            let ds = ctx.dataset(dataset);
            let target = dataset.spec().scaled(0.2);
            let e = ds.graph.num_edges() as f64;
            assert!(
                (e - target.edges as f64).abs() / (target.edges as f64) < 0.05,
                "{dataset:?} edges {e} vs {}",
                target.edges
            );
            assert!(
                (ds.features.sparsity() - target.feature_sparsity).abs() < 0.01,
                "{dataset:?} sparsity"
            );
        }
    }

    #[test]
    fn renders_five_rows() {
        let r = run(&Ctx::with_scale(0.02));
        assert_eq!(r.lines.len(), 7); // header + separator + 5 datasets
    }
}
