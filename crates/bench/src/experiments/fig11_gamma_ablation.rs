//! Fig. 11 — ablation of the eviction threshold γ: DRAM accesses vs. γ
//! for Cora, Citeseer, and Pubmed.
//!
//! The paper's claim: higher γ evicts more aggressively, forcing evicted
//! vertices back later and increasing DRAM traffic; too-low γ risks
//! deadlock (resolved dynamically). The paper settles on a static γ = 5.

use gnnie_core::aggregation::{simulate_aggregation, AggregationParams};
use gnnie_core::config::AcceleratorConfig;
use gnnie_core::cpe::CpeArray;
use gnnie_graph::reorder::Permutation;
use gnnie_graph::{CsrGraph, Dataset};
use gnnie_mem::HbmModel;

use crate::table::fmt_count;
use crate::{Ctx, ExperimentResult, Table};

/// γ values swept (the paper's x-axis).
pub const GAMMAS: [u32; 8] = [1, 2, 3, 5, 8, 12, 16, 24];

/// DRAM accesses (64-byte transactions) for one γ on one graph.
pub fn dram_accesses(graph: &CsrGraph, dataset: Dataset, gamma: u32) -> u64 {
    let mut cfg = AcceleratorConfig::paper(dataset);
    cfg.gamma = gamma;
    let arr = CpeArray::new(&cfg);
    let mut dram = HbmModel::hbm2_256gbps(cfg.clock_hz);
    let report = simulate_aggregation(
        &cfg,
        &arr,
        graph,
        AggregationParams { f_out: 128, is_gat: false },
        &mut dram,
    );
    let cache = report.cache.expect("cache policy enabled");
    assert!(cache.completed, "γ={gamma} failed to complete");
    cache.counters.total_bytes() / 64
}

/// Regenerates Fig. 11.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let mut t = Table::new(&["dataset", "γ", "DRAM accesses (64B)", "vs γ=1"]);
    for dataset in [Dataset::Cora, Dataset::Citeseer, Dataset::Pubmed] {
        let ds = ctx.dataset(dataset);
        let graph = Permutation::descending_degree(&ds.graph).apply(&ds.graph);
        let mut base = None;
        for gamma in GAMMAS {
            let accesses = dram_accesses(&graph, dataset, gamma);
            let b = *base.get_or_insert(accesses);
            t.row(vec![
                dataset.abbrev().to_string(),
                gamma.to_string(),
                fmt_count(accesses),
                format!("{:+.1}%", (accesses as f64 / b as f64 - 1.0) * 100.0),
            ]);
        }
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.push(
        "paper: DRAM accesses grow with γ (more eviction → more refetch); the static \
         choice γ=5 balances traffic against deadlock risk"
            .to_string(),
    );
    ExperimentResult::new("Fig. 11", "Ablation study on γ", lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_accesses_trend_upward_in_gamma() {
        let ctx = Ctx::with_scale(0.3);
        let ds = ctx.dataset(Dataset::Cora);
        let graph = Permutation::descending_degree(&ds.graph).apply(&ds.graph);
        let lo = dram_accesses(&graph, Dataset::Cora, 1);
        let hi = dram_accesses(&graph, Dataset::Cora, 24);
        assert!(hi >= lo, "γ=24 accesses {hi} must be ≥ γ=1 accesses {lo}");
    }

    #[test]
    fn all_gammas_complete() {
        let ctx = Ctx::with_scale(0.15);
        let ds = ctx.dataset(Dataset::Citeseer);
        let graph = Permutation::descending_degree(&ds.graph).apply(&ds.graph);
        for gamma in GAMMAS {
            // dram_accesses asserts completion internally.
            let _ = dram_accesses(&graph, Dataset::Citeseer, gamma);
        }
    }
}
