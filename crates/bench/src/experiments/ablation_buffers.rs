//! Ablation — input-buffer sizing for the degree-aware cache (§VI,
//! §VIII-A).
//!
//! The paper sizes the input buffer at 256 KB for the small citation
//! graphs and 512 KB for the larger datasets. The buffer is the cache the
//! degree-aware policy manages: a larger buffer holds more of the
//! power-law head, so fewer vertices are evicted below γ and re-fetched
//! in later Rounds. This sweep runs the Aggregation cache simulation at
//! five buffer sizes and reports Rounds, re-fetches, and DRAM cycles —
//! showing the knee that justifies the paper's choices.

use gnnie_core::aggregation::{simulate_aggregation, AggregationParams};
use gnnie_core::config::AcceleratorConfig;
use gnnie_core::cpe::CpeArray;
use gnnie_graph::reorder::Permutation;
use gnnie_graph::Dataset;
use gnnie_mem::HbmModel;

use crate::{table::fmt_count, Ctx, ExperimentResult, Table};

/// Buffer sizes swept, in KiB (the paper points are 256 and 512).
pub const BUFFER_KIB: [usize; 5] = [64, 128, 256, 512, 1024];

/// Datasets swept.
pub const DATASETS: [Dataset; 3] = [Dataset::Cora, Dataset::Citeseer, Dataset::Pubmed];

/// One sweep point's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferPoint {
    /// Input buffer size in KiB.
    pub kib: usize,
    /// Cache Rounds needed to process every edge.
    pub rounds: u32,
    /// Vertex re-fetches beyond the initial fill.
    pub refetches: u64,
    /// DRAM channel cycles attributable to Aggregation.
    pub dram_cycles: u64,
    /// Total Aggregation cycles.
    pub total_cycles: u64,
}

/// Runs the sweep for one dataset.
pub fn sweep(ctx: &Ctx, dataset: Dataset) -> Vec<BufferPoint> {
    let ds = ctx.dataset(dataset);
    let ordered = Permutation::descending_degree(&ds.graph).apply(&ds.graph);
    BUFFER_KIB
        .iter()
        .map(|&kib| {
            let mut cfg = AcceleratorConfig::paper(dataset);
            cfg.input_buffer_bytes = kib * 1024;
            let arr = CpeArray::new(&cfg);
            let mut dram = HbmModel::hbm2_256gbps(cfg.clock_hz);
            let report = simulate_aggregation(
                &cfg,
                &arr,
                &ordered,
                AggregationParams { f_out: 128, is_gat: false },
                &mut dram,
                ctx.pool(),
            );
            let cache = report.cache.as_ref().expect("cache policy is on");
            BufferPoint {
                kib,
                rounds: cache.rounds,
                refetches: cache.refetches,
                dram_cycles: report.dram_cycles,
                total_cycles: report.total_cycles,
            }
        })
        .collect()
}

/// Regenerates the ablation table.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let mut t = Table::new(&[
        "dataset",
        "buffer",
        "rounds",
        "re-fetches",
        "DRAM cycles",
        "agg cycles",
        "vs paper pt",
    ]);
    for dataset in DATASETS {
        let points = sweep(ctx, dataset);
        let paper_kib = AcceleratorConfig::paper(dataset).input_buffer_bytes / 1024;
        let paper_cycles =
            points.iter().find(|p| p.kib == paper_kib).map(|p| p.total_cycles).unwrap_or(1);
        for p in &points {
            let marker = if p.kib == paper_kib { " <- paper" } else { "" };
            t.row(vec![
                format!("{dataset:?}"),
                format!("{} KiB{marker}", p.kib),
                p.rounds.to_string(),
                fmt_count(p.refetches),
                fmt_count(p.dram_cycles),
                fmt_count(p.total_cycles),
                format!("{:.2}x", p.total_cycles as f64 / paper_cycles as f64),
            ]);
        }
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.push(
        "shrinking the input buffer below the paper's point multiplies \
         Rounds and re-fetches (the power-law head no longer fits), while \
         doubling it past the point buys little — the knee the paper's \
         256 KiB / 512 KiB split sits on (§VIII-A)"
            .to_string(),
    );
    ExperimentResult::new(
        "Ablation A7",
        "Input-buffer size vs cache Rounds and DRAM traffic (§VI)",
        lines,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refetches_decrease_with_buffer_size() {
        let ctx = Ctx::with_scale(0.3);
        for dataset in DATASETS {
            let points = sweep(&ctx, dataset);
            for w in points.windows(2) {
                assert!(
                    w[0].refetches >= w[1].refetches,
                    "{dataset:?}: bigger buffer must not re-fetch more: {points:?}"
                );
            }
        }
    }

    #[test]
    fn rounds_are_monotone_nonincreasing() {
        let ctx = Ctx::with_scale(0.3);
        for dataset in DATASETS {
            let points = sweep(&ctx, dataset);
            for w in points.windows(2) {
                assert!(w[0].rounds >= w[1].rounds, "{dataset:?}: {points:?}");
            }
        }
    }

    #[test]
    fn every_point_completes_all_edges() {
        let ctx = Ctx::with_scale(0.2);
        // Smallest buffer on the biggest citation graph is the stress case.
        let points = sweep(&ctx, Dataset::Pubmed);
        assert_eq!(points.len(), BUFFER_KIB.len());
        for p in &points {
            assert!(p.total_cycles > 0);
            assert!(p.dram_cycles > 0);
        }
    }

    #[test]
    fn table_marks_the_paper_point() {
        let ctx = Ctx::with_scale(0.1);
        let r = run(&ctx);
        assert!(r.lines.iter().any(|l| l.contains("<- paper")));
    }
}
