//! Table IV — throughput (TOPS): the configuration peak and the
//! effective throughput on Cora, Citeseer, and Pubmed.
//!
//! Paper values: peak 3.17 TOPS; CR 2.88, CS 2.69, PB 2.57 — throughput
//! "degrades only moderately as graph size increases".

use gnnie_core::config::AcceleratorConfig;
use gnnie_gnn::model::GnnModel;
use gnnie_graph::Dataset;

use crate::{Ctx, ExperimentResult, Table};

/// Paper-reported throughput rows.
pub const PAPER_TOPS: [(&str, f64); 4] =
    [("Peak", 3.17), ("CR", 2.88), ("CS", 2.69), ("PB", 2.57)];

/// Regenerates Table IV.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let peak = AcceleratorConfig::paper(Dataset::Cora).peak_tops();
    let mut t = Table::new(&["", "measured TOPS", "paper TOPS"]);
    t.row(vec!["Peak".into(), format!("{peak:.2}"), format!("{:.2}", PAPER_TOPS[0].1)]);
    for (i, dataset) in
        [Dataset::Cora, Dataset::Citeseer, Dataset::Pubmed].into_iter().enumerate()
    {
        let r = ctx.run_gnnie(GnnModel::Gcn, dataset);
        t.row(vec![
            dataset.abbrev().to_string(),
            format!("{:.2}", r.effective_tops()),
            format!("{:.2}", PAPER_TOPS[i + 1].1),
        ]);
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.push(
        "note: measured TOPS counts zero-skipped (issued) operations over end-to-end \
         latency; the paper's throughput similarly degrades only moderately with \
         graph size"
            .to_string(),
    );
    ExperimentResult::new("Table IV", "Throughput for various datasets", lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_matches_paper() {
        let peak = AcceleratorConfig::paper(Dataset::Cora).peak_tops();
        assert!((peak - 3.17).abs() < 0.05, "peak {peak}");
    }

    #[test]
    fn effective_tops_below_peak_and_positive() {
        let ctx = Ctx::with_scale(0.2);
        let peak = AcceleratorConfig::paper(Dataset::Cora).peak_tops();
        let r = ctx.run_gnnie(GnnModel::Gcn, Dataset::Cora);
        assert!(r.effective_tops() > 0.0);
        assert!(r.effective_tops() <= peak);
    }
}
