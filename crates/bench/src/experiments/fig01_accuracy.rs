//! Fig. 1 — GNN accuracy comparison (PPI micro-F1, data from the GAT
//! paper \[33\]).
//!
//! This is background motivating GNNIE's versatility (GATs are the most
//! accurate and most compute-hungry). GNNIE is an inference engine and
//! performs no training, so the figure reprints the literature values the
//! paper cites rather than re-deriving them.

use crate::{Ctx, ExperimentResult, Table};

/// PPI micro-F1 scores from Veličković et al. (ICLR 2018), Table 3 —
/// the data Fig. 1 plots.
pub const PPI_MICRO_F1: [(&str, f64); 6] = [
    ("MLP (no graph)", 0.422),
    ("GraphSAGE-GCN", 0.500),
    ("GraphSAGE-mean", 0.598),
    ("GraphSAGE-pool", 0.600),
    ("Const-GAT", 0.934),
    ("GAT", 0.973),
];

/// Regenerates the Fig. 1 rows.
pub fn run(_ctx: &Ctx) -> ExperimentResult {
    let mut t = Table::new(&["model", "PPI micro-F1 (literature)"]);
    for (name, f1) in PPI_MICRO_F1 {
        t.row(vec![name.to_string(), format!("{f1:.3}")]);
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.push(
        "GATs top the accuracy ordering at the highest compute cost — the paper's \
         motivation for an accelerator that covers GATs (no training performed here; \
         values reprinted from the cited GAT paper)."
            .to_string(),
    );
    ExperimentResult::new("Fig. 1", "GNN accuracy comparison (PPI)", lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_ordering_matches_figure() {
        // GAT > Const-GAT > GraphSAGE variants > MLP.
        let f1: Vec<f64> = PPI_MICRO_F1.iter().map(|(_, v)| *v).collect();
        assert!(f1.windows(2).all(|w| w[0] <= w[1]), "rows must be sorted ascending");
        assert_eq!(PPI_MICRO_F1.last().unwrap().0, "GAT");
    }

    #[test]
    fn produces_one_row_per_model() {
        let r = run(&Ctx::with_scale(0.05));
        // header + separator + 6 rows + blank + note.
        assert_eq!(r.lines.len(), 10);
    }
}
