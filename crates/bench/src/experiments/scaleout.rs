//! Multi-accelerator scale-out sweep — simulated `Engine::run` cycles at
//! 1/2/4/8 chips, with the inter-chip link traffic each row pays.
//!
//! The engine shards the Aggregation cache walk by graph partition when
//! `chips > 1`: each chip walks its induced subgraph with a private cache
//! and DRAM channel, boundary-vertex features cross a configurable
//! inter-chip link, and the merged report's `total_cycles` is the
//! makespan over chips. Everything here is a **simulated-cycle** number —
//! deterministic run to run — so the `bench_check` baselines stay tight.
//! CI uploads the sweep as `BENCH_scaleout.json`.
//!
//! Expect the citation graphs to *slow down* under partitioning at bench
//! scales: their per-chip work is tiny, so the fixed link latency plus
//! boundary traffic dominates (the link-bound regime). The two large
//! datasets (PPI, Reddit) have enough per-chip work to amortize the link
//! and show real speedup — those rows carry the acceptance bar.

use gnnie_core::config::AcceleratorConfig;
use gnnie_gnn::model::GnnModel;
use gnnie_graph::{Dataset, GraphPartition, PartitionerKind};

use crate::json::Json;
use crate::{Ctx, ExperimentResult, Metric, Table};

/// Simulated accelerator counts swept per dataset.
pub const CHIP_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// The partitioner the cycle sweep runs. The cut-quality table compares
/// both kinds; the cycle sweep uses the degree-balanced greedy edge-cut.
pub const SWEEP_PARTITIONER: PartitionerKind = PartitionerKind::EdgeCut;

/// The chip count the cut-quality comparison partitions for.
pub const CUT_CHIPS: usize = 4;

/// One (dataset, chips) measurement.
#[derive(Debug, Clone)]
pub struct ScaleoutRow {
    /// Table II dataset.
    pub dataset: Dataset,
    /// Simulated accelerator count (1 = the unchanged single-chip engine).
    pub chips: usize,
    /// End-to-end simulated cycles (makespan over chips).
    pub total_cycles: u64,
    /// Single-chip cycles / this row's cycles (simulated, deterministic).
    pub speedup: f64,
    /// Boundary feature bytes that crossed the inter-chip link.
    pub inter_chip_bytes: u64,
    /// Link cycles charged for that traffic (latency + serialization).
    pub inter_chip_cycles: u64,
}

/// One (dataset, partitioner) cut-quality measurement at [`CUT_CHIPS`]
/// partitions — graph-only, no engine run.
#[derive(Debug, Clone)]
pub struct CutRow {
    /// Table II dataset.
    pub dataset: Dataset,
    /// Partitioning strategy.
    pub partitioner: PartitionerKind,
    /// Distinct undirected edges crossing partition boundaries.
    pub cut_edges: u64,
    /// Halo vertices summed over partitions (remote neighbors each chip
    /// must fetch over the link).
    pub halo_vertices: u64,
    /// Undirected edges in the whole graph (for the cut fraction).
    pub total_edges: u64,
}

impl CutRow {
    /// `cut_edges / total_edges`.
    pub fn cut_fraction(&self) -> f64 {
        if self.total_edges == 0 {
            return 0.0;
        }
        self.cut_edges as f64 / self.total_edges as f64
    }
}

/// Runs the chip sweep over every Table II dataset at the context's
/// scale (GCN, paper configuration, [`SWEEP_PARTITIONER`]).
pub fn sweep(ctx: &Ctx) -> Vec<ScaleoutRow> {
    let mut rows = Vec::new();
    for dataset in Dataset::ALL {
        let mut single_chip_cycles = 0u64;
        for chips in CHIP_SWEEP {
            let mut cfg = AcceleratorConfig::paper(dataset);
            cfg.chips = chips;
            cfg.partitioner = SWEEP_PARTITIONER;
            let report = ctx.run_gnnie_with(cfg, GnnModel::Gcn, dataset);
            if chips == 1 {
                single_chip_cycles = report.total_cycles;
            }
            rows.push(ScaleoutRow {
                dataset,
                chips,
                total_cycles: report.total_cycles,
                speedup: single_chip_cycles as f64 / report.total_cycles.max(1) as f64,
                inter_chip_bytes: report.inter_chip_bytes(),
                inter_chip_cycles: report.inter_chip_cycles(),
            });
        }
    }
    rows
}

/// Partition-quality comparison: cut edges and halo size for both
/// partitioners at [`CUT_CHIPS`] partitions (no engine runs — this is
/// pure graph bookkeeping, cheap even on Reddit).
pub fn cut_quality(ctx: &Ctx) -> Vec<CutRow> {
    let mut rows = Vec::new();
    for dataset in Dataset::ALL {
        let ds = ctx.dataset(dataset);
        for kind in PartitionerKind::ALL {
            let p = GraphPartition::build(&ds.graph, CUT_CHIPS, kind);
            rows.push(CutRow {
                dataset,
                partitioner: kind,
                cut_edges: p.cut_edges(),
                halo_vertices: p.parts().iter().map(|part| part.halo_vertices).sum(),
                total_edges: ds.graph.num_edges() as u64,
            });
        }
    }
    rows
}

/// Regenerates the scale-out tables.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    render(&sweep(ctx), &cut_quality(ctx))
}

/// The gated headline: the best 4-chip speedup and how many datasets
/// scale (> 1x) at 4 chips — at least the two large ones. Simulated
/// cycles, deterministic run to run.
///
/// # Errors
///
/// A sweep without 4-chip rows.
pub fn headline(rows: &[ScaleoutRow]) -> Result<Vec<Metric>, String> {
    let at_4: Vec<f64> = rows.iter().filter(|r| r.chips == 4).map(|r| r.speedup).collect();
    let max_speedup =
        at_4.iter().copied().reduce(f64::max).ok_or("scaleout: no 4-chip rows to gate")?;
    let scaling = at_4.iter().filter(|&&s| s > 1.0).count();
    Ok(vec![
        Metric::deterministic("max_speedup_at_4_chips", max_speedup),
        Metric::deterministic("datasets_scaling_at_4_chips", scaling as f64),
    ])
}

/// The artifact rows: one `chips` row per (dataset, chips) and one
/// `cut_quality` row per (dataset, partitioner).
fn json_rows(rows: &[ScaleoutRow], cuts: &[CutRow]) -> Vec<Json> {
    let chips = rows.iter().map(|r| {
        crate::json_obj! {
            "table": "chips", "dataset": r.dataset.abbrev(), "chips": r.chips,
            "total_cycles": r.total_cycles, "speedup_vs_single_chip": r.speedup,
            "inter_chip_bytes": r.inter_chip_bytes, "inter_chip_cycles": r.inter_chip_cycles,
        }
    });
    let cut_quality = cuts.iter().map(|c| {
        crate::json_obj! {
            "table": "cut_quality", "dataset": c.dataset.abbrev(),
            "partitioner": c.partitioner.name(), "cut_edges": c.cut_edges,
            "halo_vertices": c.halo_vertices, "total_edges": c.total_edges,
        }
    });
    chips.chain(cut_quality).collect()
}

/// Renders already-computed sweeps: the tables, their rows, and the
/// headline.
pub fn render(rows: &[ScaleoutRow], cuts: &[CutRow]) -> ExperimentResult {
    let mut t = Table::new(&[
        "dataset",
        "chips",
        "total cycles",
        "speedup",
        "link bytes",
        "link cycles",
    ]);
    for r in rows {
        t.row(vec![
            r.dataset.abbrev().to_string(),
            r.chips.to_string(),
            r.total_cycles.to_string(),
            format!("{:.2}x", r.speedup),
            r.inter_chip_bytes.to_string(),
            r.inter_chip_cycles.to_string(),
        ]);
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.push(format!(
        "partition quality at {CUT_CHIPS} chips (cut edges and per-chip remote \
         neighbors; no engine runs):"
    ));
    let mut q = Table::new(&["dataset", "partitioner", "cut edges", "cut %", "halo vertices"]);
    for c in cuts {
        q.row(vec![
            c.dataset.abbrev().to_string(),
            c.partitioner.name().to_string(),
            c.cut_edges.to_string(),
            format!("{:.1}%", c.cut_fraction() * 100.0),
            c.halo_vertices.to_string(),
        ]);
    }
    lines.extend(q.render());
    lines.push(String::new());
    lines.push(
        "speedup is simulated cycles (single-chip / makespan over chips), so rows are \
         deterministic; small graphs go link-bound (fixed link latency + boundary \
         traffic dwarf their per-chip work) while PPI and Reddit amortize the link \
         and scale"
            .to_string(),
    );
    ExperimentResult::new(
        "Scaleout",
        "Multi-accelerator scale-out (partitioned cache walk)",
        lines,
    )
    .gated(json_rows(rows, cuts), headline(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_rows_are_complete_and_single_chip_anchors_speedup() {
        let ctx = Ctx::with_scale(0.02);
        let rows = sweep(&ctx);
        assert_eq!(rows.len(), Dataset::ALL.len() * CHIP_SWEEP.len());
        for chunk in rows.chunks(CHIP_SWEEP.len()) {
            assert_eq!(chunk[0].chips, 1);
            assert!((chunk[0].speedup - 1.0).abs() < 1e-12, "chips=1 is the reference");
            assert_eq!(chunk[0].inter_chip_bytes, 0, "single chip pays no link traffic");
            assert_eq!(chunk[0].inter_chip_cycles, 0);
            for r in &chunk[1..] {
                assert!(r.chips > 1);
                assert!(r.total_cycles > 0);
                assert!(r.inter_chip_bytes > 0, "{:?} @ {} chips", r.dataset, r.chips);
                assert!(r.speedup.is_finite() && r.speedup > 0.0);
            }
        }
        // The headline reads the 4-chip rows only; without them there is
        // nothing to gate.
        let mut rows = rows;
        rows.iter_mut().filter(|r| r.chips != 4).for_each(|r| r.speedup = f64::MAX);
        let at_4: Vec<f64> = rows.iter().filter(|r| r.chips == 4).map(|r| r.speedup).collect();
        let scaling = at_4.iter().filter(|&&s| s > 1.0).count() as f64;
        let m = headline(&rows).unwrap();
        assert_eq!(m[0].value, at_4.iter().copied().fold(0.0, f64::max));
        assert_eq!(m[1], Metric::deterministic("datasets_scaling_at_4_chips", scaling));
        rows.retain(|r| r.chips != 4);
        assert!(headline(&rows).is_err());
    }

    #[test]
    fn cut_quality_covers_both_partitioners_and_edgecut_never_loses() {
        let ctx = Ctx::with_scale(0.02);
        let cuts = cut_quality(&ctx);
        assert_eq!(cuts.len(), Dataset::ALL.len() * PartitionerKind::ALL.len());
        for chunk in cuts.chunks(PartitionerKind::ALL.len()) {
            for c in chunk {
                assert!(c.cut_edges <= c.total_edges);
                assert!(c.cut_fraction() <= 1.0);
            }
        }
        let rendered = render(&sweep(&ctx), &cuts);
        let text = rendered.lines.join("\n");
        assert!(text.contains("range") && text.contains("edgecut"), "{text}");
    }
}
