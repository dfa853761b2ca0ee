//! Fig. 14 — energy breakdown for GCN and GAT across Cora, Citeseer, and
//! Pubmed, including the DRAM energy attributed to each on-chip buffer.
//!
//! The paper's observation: the output buffer dominates DRAM transactions
//! (psum spills for high-degree vertices); the weight buffer's share is
//! negligible.

use gnnie_gnn::model::GnnModel;
use gnnie_graph::Dataset;
use gnnie_mem::Component;

use crate::{Ctx, ExperimentResult, Table};

/// Regenerates Fig. 14.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let mut t = Table::new(&[
        "model",
        "dataset",
        "DRAM out (uJ)",
        "DRAM in (uJ)",
        "DRAM wt (uJ)",
        "on-chip (uJ)",
        "total (uJ)",
    ]);
    for model in [GnnModel::Gcn, GnnModel::Gat] {
        for dataset in [Dataset::Cora, Dataset::Citeseer, Dataset::Pubmed] {
            let r = ctx.run_gnnie(model, dataset);
            let uj = |c: Component| r.energy.pj_of(c) / 1e6;
            t.row(vec![
                model.name().to_string(),
                dataset.abbrev().to_string(),
                format!("{:.1}", uj(Component::DramOutput)),
                format!("{:.1}", uj(Component::DramInput)),
                format!("{:.2}", uj(Component::DramWeight)),
                format!("{:.1}", r.energy.on_chip_pj() / 1e6),
                format!("{:.1}", r.energy.total_pj() / 1e6),
            ]);
        }
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.push(
        "paper: the output buffer causes the most DRAM transactions (psum traffic); \
         weight-buffer DRAM energy is negligible"
            .to_string(),
    );
    ExperimentResult::new("Fig. 14", "Energy breakdown for GCN and GAT", lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_dram_energy_is_negligible() {
        let ctx = Ctx::with_scale(0.2);
        let r = ctx.run_gnnie(GnnModel::Gcn, Dataset::Cora);
        let wt = r.energy.pj_of(Component::DramWeight);
        let total_dram = r.energy.dram_pj();
        assert!(total_dram > 0.0);
        assert!(
            wt < 0.25 * total_dram,
            "weight DRAM share must be small: {wt} of {total_dram}"
        );
    }

    #[test]
    fn gat_spends_more_energy_than_gcn() {
        let ctx = Ctx::with_scale(0.2);
        let gcn = ctx.run_gnnie(GnnModel::Gcn, Dataset::Citeseer);
        let gat = ctx.run_gnnie(GnnModel::Gat, Dataset::Citeseer);
        assert!(gat.energy.total_pj() > gcn.energy.total_pj());
    }
}
