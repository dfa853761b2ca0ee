//! Tiered feature-cache sweep — workload-aware vs even capacity splits
//! of one global budget across the on-chip → DRAM → SSD hierarchy, per
//! Table II dataset.
//!
//! Each row runs the full `Engine::run` with `cfg.tiers` set to a
//! [`TierSpec::Split`] at the paper configuration's input-buffer budget.
//! That budget is the interesting operating point: the on-chip tier is
//! carved out of the *same SRAM* the Aggregation walk's dynamic subgraph
//! window lives in, so the naive even split (half the budget pinned
//! on-chip) starves the window and pays for it in walk evictions,
//! refetches, and deep-tier traffic — while the workload-aware split
//! sizes the on-chip tier to the hot vertex prefix a degree-profiling
//! pre-pass finds, keeping the window nearly full.
//!
//! Everything here is a **simulated-cycle** number — deterministic run
//! to run — so the `bench_check` baselines stay tight. CI uploads the
//! sweep as `BENCH_tiered_cache.json`; the gated headlines are the
//! workload split's mean on-chip hit rate, how many datasets it wins on
//! total cycles (the acceptance bar is at least two), and the mean
//! even/workload cycle ratio.

use gnnie_core::config::AcceleratorConfig;
use gnnie_gnn::model::GnnModel;
use gnnie_graph::Dataset;
use gnnie_mem::{SplitMode, TierSpec};

use crate::{Ctx, ExperimentResult, Metric, Table};

/// The capacity splits swept per dataset.
pub const SPLIT_MODES: [SplitMode; 2] = [SplitMode::Even, SplitMode::Workload];

/// The global tier budget for `dataset`: the paper configuration's
/// input-buffer size, so the on-chip share trades directly against the
/// walk's subgraph window.
pub fn budget_for(dataset: Dataset) -> u64 {
    AcceleratorConfig::paper(dataset).input_buffer_bytes as u64
}

/// One (dataset, split-mode) measurement.
#[derive(Debug, Clone)]
pub struct TieredRow {
    /// Table II dataset.
    pub dataset: Dataset,
    /// How the global budget was divided across tiers.
    pub mode: SplitMode,
    /// Global capacity budget the split divided (bytes).
    pub budget_bytes: u64,
    /// On-chip tier hit rate (hits over probes), summed across layers.
    pub onchip_hit_rate: f64,
    /// DRAM tier hit rate.
    pub dram_hit_rate: f64,
    /// Bytes read from the SSD backstop.
    pub ssd_read_bytes: u64,
    /// End-to-end simulated cycles.
    pub total_cycles: u64,
}

/// Runs the split sweep over every Table II dataset at the context's
/// scale (GCN, paper configuration).
pub fn sweep(ctx: &Ctx) -> Vec<TieredRow> {
    let mut rows = Vec::new();
    for dataset in Dataset::ALL {
        for mode in SPLIT_MODES {
            let mut cfg = AcceleratorConfig::paper(dataset);
            cfg.tiers = Some(TierSpec::Split { total_bytes: budget_for(dataset), mode });
            let report = ctx.run_gnnie_with(cfg, GnnModel::Gcn, dataset);
            let tiers = report.tier_stats();
            assert_eq!(tiers.len(), 3, "split specs resolve to onchip/dram/ssd");
            rows.push(TieredRow {
                dataset,
                mode,
                budget_bytes: budget_for(dataset),
                onchip_hit_rate: tiers[0].hit_rate(),
                dram_hit_rate: tiers[1].hit_rate(),
                ssd_read_bytes: tiers[2].read_bytes,
                total_cycles: report.total_cycles,
            });
        }
    }
    rows
}

/// Regenerates the tier-split table.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    render(&sweep(ctx))
}

/// The gated headline over each dataset's (`even`, `workload`) pair: the
/// workload split's mean on-chip hit rate, the datasets it wins on total
/// cycles (the acceptance bar is two), and the mean even/workload cycle
/// ratio. Simulated cycles, deterministic run to run.
///
/// # Errors
///
/// A `workload` row without an earlier `even` row, or no pairs.
pub fn headline(rows: &[TieredRow]) -> Result<Vec<Metric>, String> {
    let mut hit_sum = 0.0;
    let mut ratio_sum = 0.0;
    let mut wins = 0;
    let mut pairs = 0;
    for (i, r) in rows.iter().enumerate() {
        if r.mode != SplitMode::Workload {
            continue;
        }
        let even = rows[..i]
            .iter()
            .find(|e| e.mode == SplitMode::Even && e.dataset == r.dataset)
            .ok_or_else(|| {
                format!("tiered: workload row for `{}` has no even row", r.dataset.abbrev())
            })?;
        hit_sum += r.onchip_hit_rate;
        ratio_sum += even.total_cycles as f64 / r.total_cycles.max(1) as f64;
        wins += usize::from(r.total_cycles < even.total_cycles);
        pairs += 1;
    }
    if pairs == 0 {
        return Err("tiered: no even/workload pairs to gate".into());
    }
    Ok(vec![
        Metric::deterministic("workload_mean_onchip_hit_rate", hit_sum / pairs as f64),
        Metric::deterministic("datasets_won_by_workload_split", wins as f64),
        Metric::deterministic("mean_cycle_ratio_even_over_workload", ratio_sum / pairs as f64),
    ])
}

/// Renders an already-computed sweep: the table, its rows, and the
/// headline.
pub fn render(rows: &[TieredRow]) -> ExperimentResult {
    let mut t = Table::new(&[
        "dataset",
        "split",
        "budget KB",
        "on-chip hit",
        "DRAM hit",
        "SSD read B",
        "total cycles",
    ]);
    for r in rows {
        t.row(vec![
            r.dataset.abbrev().to_string(),
            r.mode.name().to_string(),
            (r.budget_bytes / 1024).to_string(),
            format!("{:.1}%", r.onchip_hit_rate * 100.0),
            format!("{:.1}%", r.dram_hit_rate * 100.0),
            r.ssd_read_bytes.to_string(),
            r.total_cycles.to_string(),
        ]);
    }
    let mut lines = t.render();
    lines.push(String::new());
    let wins = rows
        .chunks(SPLIT_MODES.len())
        .filter(|pair| pair[1].total_cycles < pair[0].total_cycles)
        .count();
    lines.push(format!(
        "the workload-aware split beats the even split on total cycles on {wins} of {} \
         datasets: sizing the on-chip tier to the hot vertex prefix leaves the walk's \
         SRAM window nearly full, where the even split's oversized on-chip share \
         shrinks it and pays in evictions and deep-tier refetches",
        rows.len() / SPLIT_MODES.len(),
    ));
    let json_rows = rows
        .iter()
        .map(|r| {
            crate::json_obj! {
                "dataset": r.dataset.abbrev(), "mode": r.mode.name(),
                "budget_bytes": r.budget_bytes, "onchip_hit_rate": r.onchip_hit_rate,
                "dram_hit_rate": r.dram_hit_rate, "ssd_read_bytes": r.ssd_read_bytes,
                "total_cycles": r.total_cycles,
            }
        })
        .collect();
    ExperimentResult::new(
        "Tiered cache",
        "Tiered feature cache (workload-aware vs even capacity split)",
        lines,
    )
    .gated(json_rows, headline(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_pairs_even_and_workload_rows_per_dataset() {
        let row = |dataset, mode, onchip_hit_rate, total_cycles| TieredRow {
            dataset,
            mode,
            budget_bytes: 1024,
            onchip_hit_rate,
            dram_hit_rate: 0.0,
            ssd_read_bytes: 0,
            total_cycles,
        };
        let rows = [
            row(Dataset::Cora, SplitMode::Even, 0.10, 1000),
            row(Dataset::Cora, SplitMode::Workload, 0.60, 800),
            row(Dataset::Reddit, SplitMode::Even, 0.05, 4000),
            row(Dataset::Reddit, SplitMode::Workload, 0.40, 5000),
        ];
        let m = headline(&rows).unwrap();
        assert_eq!(m[0], Metric::deterministic("workload_mean_onchip_hit_rate", 0.5));
        assert_eq!(m[1], Metric::deterministic("datasets_won_by_workload_split", 1.0));
        // (1000/800 + 4000/5000) / 2 = (1.25 + 0.8) / 2
        assert!((m[2].value - 1.025).abs() < 1e-12, "{:?}", m[2]);
        // A workload row with no even partner, and an empty sweep, fail
        // loudly rather than gating nothing.
        assert!(headline(&rows[1..2]).is_err());
        assert!(headline(&rows[2..3]).is_err(), "an even row alone is no pair");
        assert!(headline(&[]).is_err());
    }

    #[test]
    fn sweep_pairs_every_dataset_and_workload_wins_somewhere() {
        let ctx = Ctx::with_scale(0.02);
        let rows = sweep(&ctx);
        assert_eq!(rows.len(), Dataset::ALL.len() * SPLIT_MODES.len());
        for pair in rows.chunks(SPLIT_MODES.len()) {
            assert_eq!(pair[0].mode, SplitMode::Even);
            assert_eq!(pair[1].mode, SplitMode::Workload);
            assert_eq!(pair[0].dataset, pair[1].dataset);
            assert_eq!(pair[0].budget_bytes, pair[1].budget_bytes);
            for r in pair {
                assert!(r.total_cycles > 0);
                assert!((0.0..=1.0).contains(&r.onchip_hit_rate));
                assert!((0.0..=1.0).contains(&r.dram_hit_rate));
            }
        }
        let text = render(&rows).lines.join("\n");
        assert!(text.contains("workload") && text.contains("even"), "{text}");
    }
}
