//! Fig. 10 — histogram of the unprocessed-edge counts (α) of the vertices
//! still awaiting aggregation after each Round (Pubmed).
//!
//! The paper's claim: the initial α distribution mirrors the power-law
//! degree distribution, and each Round flattens it — both the peak
//! frequency and the maximum α shrink — mitigating the power-law problem.

use gnnie_core::aggregation::{simulate_aggregation, AggregationParams};
use gnnie_core::config::AcceleratorConfig;
use gnnie_core::cpe::CpeArray;
use gnnie_graph::reorder::Permutation;
use gnnie_graph::Dataset;
use gnnie_mem::HbmModel;

use crate::{Ctx, ExperimentResult, Table};

/// Regenerates Fig. 10.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let ds = ctx.dataset(Dataset::Pubmed);
    let cfg = AcceleratorConfig::paper(Dataset::Pubmed);
    let arr = CpeArray::new(&cfg);
    let graph = Permutation::descending_degree(&ds.graph).apply(&ds.graph);
    let mut dram = HbmModel::hbm2_256gbps(cfg.clock_hz);
    let report = simulate_aggregation(
        &cfg,
        &arr,
        &graph,
        AggregationParams { f_out: 128, is_gat: false },
        &mut dram,
        ctx.pool(),
    );
    let cache = report.cache.as_ref().expect("cache policy enabled");

    let mut t =
        Table::new(&["round", "unfinished", "peak freq", "peak α bin", "p95 α", "max α"]);
    for (round, hist) in cache.alpha_histograms.iter().enumerate() {
        let (peak_bin, peak_count) = hist.peak();
        let max_bin = hist.last_nonempty_bin().unwrap_or(0);
        // 95th percentile from the histogram counts.
        let total = hist.total().max(1);
        let mut cum = 0u64;
        let mut p95_bin = 0usize;
        for (i, &c) in hist.counts().iter().enumerate() {
            cum += c;
            if cum * 100 >= 95 * total {
                p95_bin = i;
                break;
            }
        }
        t.row(vec![
            (round + 1).to_string(),
            hist.total().to_string(),
            peak_count.to_string(),
            format!("[{:.0},{:.0})", hist.bin_lo(peak_bin), hist.bin_hi(peak_bin)),
            format!("{:.0}", hist.bin_hi(p95_bin)),
            format!("{:.0}", hist.bin_hi(max_bin)),
        ]);
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.push(format!(
        "rounds: {}, iterations: {}, refetches: {} — paper: histogram grows flatter each \
         round (peak frequency and max α both decrease)",
        cache.rounds, cache.iterations, cache.refetches
    ));
    ExperimentResult::new("Fig. 10", "α histogram through Rounds (Pubmed)", lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_histograms_flatten() {
        let ctx = Ctx::with_scale(0.3);
        let r = run(&ctx);
        assert!(r.lines.len() > 3, "need at least one round: {:?}", r.lines);
    }

    #[test]
    fn max_alpha_never_grows_across_rounds() {
        let ctx = Ctx::with_scale(0.3);
        let ds = ctx.dataset(Dataset::Pubmed);
        let cfg = AcceleratorConfig::paper(Dataset::Pubmed);
        let arr = CpeArray::new(&cfg);
        let graph = Permutation::descending_degree(&ds.graph).apply(&ds.graph);
        let mut dram = HbmModel::hbm2_256gbps(cfg.clock_hz);
        let report = simulate_aggregation(
            &cfg,
            &arr,
            &graph,
            AggregationParams { f_out: 128, is_gat: false },
            &mut dram,
            ctx.pool(),
        );
        let cache = report.cache.unwrap();
        let maxes: Vec<usize> =
            cache.alpha_histograms.iter().map(|h| h.last_nonempty_bin().unwrap_or(0)).collect();
        if maxes.len() >= 2 {
            assert!(
                maxes.last().unwrap() <= maxes.first().unwrap(),
                "max α should shrink: {maxes:?}"
            );
        }
    }
}
