//! Fig. 2 — nonzero histogram of the input vertex feature vectors (Cora).
//!
//! The paper's figure shows a bimodal distribution: a sparse Region A and
//! a denser Region B, which is exactly the imbalance the FM architecture
//! targets. The synthetic Cora features reproduce the bimodal profile.

use gnnie_graph::features::nonzero_histogram;
use gnnie_graph::Dataset;

use crate::{Ctx, ExperimentResult, Table};

/// Histogram bins used for the figure.
pub const BINS: usize = 30;

/// Regenerates Fig. 2.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let ds = ctx.dataset(Dataset::Cora);
    let hist = nonzero_histogram(&ds.features, BINS);
    let peak = hist.peak();
    let mut t = Table::new(&["nnz range", "vertices", ""]);
    let max_count = hist.counts().iter().copied().max().unwrap_or(1).max(1);
    for (i, &c) in hist.counts().iter().enumerate() {
        if c == 0 {
            continue;
        }
        let bar = "#".repeat(((c * 40) / max_count) as usize);
        t.row(vec![
            format!("{:>4.0}-{:<4.0}", hist.bin_lo(i), hist.bin_hi(i)),
            c.to_string(),
            bar,
        ]);
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.push(format!(
        "mean nnz per vertex: {:.1} of {} features ({:.2}% sparsity; paper: 98.73%)",
        ds.features.nnz() as f64 / ds.graph.num_vertices() as f64,
        ds.spec.feature_len,
        ds.features.sparsity() * 100.0
    ));
    lines.push(format!("peak bin: [{:.0}, {:.0})", hist.bin_lo(peak.0), hist.bin_hi(peak.0)));
    ExperimentResult::new(
        "Fig. 2",
        "Nonzero histogram for input vertex feature vectors (Cora)",
        lines,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cora_histogram_is_bimodal() {
        let ctx = Ctx::with_scale(1.0);
        let ds = ctx.dataset(Dataset::Cora);
        let hist = nonzero_histogram(&ds.features, BINS);
        // Bimodality: at least two local maxima separated by a valley at
        // under half the smaller peak.
        let counts = hist.counts();
        let peaks: Vec<usize> = (1..counts.len() - 1)
            .filter(|&i| {
                counts[i] > counts[i - 1] && counts[i] >= counts[i + 1] && counts[i] > 10
            })
            .collect();
        assert!(
            peaks.len() >= 2,
            "expected a bimodal histogram (regions A and B), got peaks {peaks:?} in {counts:?}"
        );
    }

    #[test]
    fn run_emits_summary_lines() {
        let r = run(&Ctx::with_scale(0.5));
        assert!(r.lines.iter().any(|l| l.contains("sparsity")));
        assert!(r.lines.iter().any(|l| l.contains("peak bin")));
    }
}
