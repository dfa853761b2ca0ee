//! Cache-policy ablation — the paper's α/γ policy vs LRU, LFU, and the
//! offline Belady oracle, per Table II dataset.
//!
//! The paper's headline memory-system claim (§VI) is that the
//! degree-aware α/γ policy keeps *all* DRAM traffic sequential. This
//! sweep quantifies that claim against the classic comparators the
//! related caching studies use (Ginex's Belady-optimal in-memory cache,
//! DCI's workload-aware allocation): every policy drives the identical
//! [`CacheSim`](gnnie_mem::CacheSim) walk through the full Aggregation
//! cycle model, so evictions, refetches, and the sequential-vs-random
//! DRAM byte split are directly comparable.
//!
//! Expected shape: the paper policy issues **zero random fetch bytes**
//! and beats the realizable LRU/LFU comparators on DRAM cycles, while
//! the (unrealizable) Belady oracle performs the **fewest evictions** on
//! every dataset — it never evicts below capacity and surrenders only
//! the single furthest-needed vertex per iteration, bounding from below
//! what any replacement decision could achieve.
//!
//! The rendered table ends with a tier-split sweep (the
//! [`tiered_cache`](crate::experiments::tiered_cache) rows): the same
//! global capacity budget divided even vs workload-aware across the
//! on-chip → DRAM → SSD hierarchy, so the replacement-policy and
//! capacity-split ablations read side by side.

use gnnie_core::aggregation::{simulate_aggregation, AggregationParams};
use gnnie_core::config::AcceleratorConfig;
use gnnie_core::cpe::CpeArray;
use gnnie_graph::reorder::Permutation;
use gnnie_graph::{CsrGraph, Dataset};
use gnnie_mem::cache::CacheSimResult;
use gnnie_mem::{CachePolicyKind, HbmModel};

use crate::table::fmt_count;
use crate::{Ctx, ExperimentResult, Table};

/// The degree-ordered DRAM placement of `dataset` (the shared schedule
/// every policy walks; compute once, run all policies over it).
pub fn ordered_graph(ctx: &Ctx, dataset: Dataset) -> CsrGraph {
    let ds = ctx.dataset(dataset);
    Permutation::descending_degree(&ds.graph).apply(&ds.graph)
}

/// Runs one policy over an already degree-ordered `graph` through the
/// Aggregation cycle model and returns the cache-walk result.
pub fn run_policy_on(
    graph: &CsrGraph,
    dataset: Dataset,
    kind: CachePolicyKind,
) -> CacheSimResult {
    let mut cfg = AcceleratorConfig::paper(dataset);
    cfg.cache_policy = kind;
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
    assert!(cache.completed, "{kind} failed to complete on {dataset:?}");
    cache
}

/// The full sweep: policies × Table II datasets.
pub fn sweep(ctx: &Ctx) -> Vec<(Dataset, CachePolicyKind, CacheSimResult)> {
    let mut rows = Vec::new();
    for dataset in Dataset::ALL {
        let graph = ordered_graph(ctx, dataset);
        for kind in CachePolicyKind::ALL {
            let result = run_policy_on(&graph, dataset, kind);
            rows.push((dataset, kind, result));
        }
    }
    rows
}

/// Regenerates the cache-policy ablation table.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let mut t = Table::new(&[
        "dataset",
        "policy",
        "rounds",
        "evictions",
        "refetches",
        "spills",
        "seq KB",
        "rand fetch B",
        "rand wb B",
        "DRAM cycles",
    ]);
    for (dataset, kind, r) in sweep(ctx) {
        let seq_kb = (r.counters.seq_read_bytes + r.counters.seq_write_bytes) / 1024;
        t.row(vec![
            dataset.abbrev().to_string(),
            kind.to_string(),
            r.rounds.to_string(),
            fmt_count(r.evictions),
            fmt_count(r.refetches),
            fmt_count(r.partial_spills),
            fmt_count(seq_kb),
            fmt_count(r.counters.rand_read_bytes),
            fmt_count(r.counters.rand_write_bytes),
            fmt_count(r.dram_cycles),
        ]);
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.push(
        "paper §VI: dictionary-order eviction of nearly-done vertices keeps every \
         writeback and reload in stream order — the α/γ policy issues zero random \
         fetch bytes, unlike the realizable LRU/LFU comparators whose scattered \
         victim batches pay random transactions both ways; the offline Belady \
         oracle bounds evictions from below"
            .to_string(),
    );
    lines.push(String::new());
    lines.push(
        "tier-split sweep (one global budget = the paper input buffer, divided \
         across on-chip/DRAM/SSD):"
            .to_string(),
    );
    let mut s = Table::new(&["dataset", "split", "on-chip hit", "total cycles"]);
    for r in crate::experiments::tiered_cache::sweep(ctx) {
        s.row(vec![
            r.dataset.abbrev().to_string(),
            r.mode.name().to_string(),
            format!("{:.1}%", r.onchip_hit_rate * 100.0),
            r.total_cycles.to_string(),
        ]);
    }
    lines.extend(s.render());
    ExperimentResult::new(
        "Ablation CP",
        "Cache replacement policy (α/γ vs LRU/LFU/Belady)",
        lines,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_policy_issues_zero_random_fetch_bytes_and_belady_fewest_evictions() {
        let ctx = Ctx::with_scale(0.2);
        for dataset in [Dataset::Cora, Dataset::Citeseer, Dataset::Pubmed] {
            let graph = ordered_graph(&ctx, dataset);
            let paper = run_policy_on(&graph, dataset, CachePolicyKind::Paper);
            assert_eq!(paper.counters.rand_read_bytes, 0, "{dataset:?}");
            assert_eq!(paper.counters.random_bytes(), 0, "{dataset:?}");
            let belady = run_policy_on(&graph, dataset, CachePolicyKind::Belady);
            for (kind, other) in [
                (CachePolicyKind::Paper, paper),
                (CachePolicyKind::Lru, run_policy_on(&graph, dataset, CachePolicyKind::Lru)),
                (CachePolicyKind::Lfu, run_policy_on(&graph, dataset, CachePolicyKind::Lfu)),
            ] {
                assert!(
                    belady.evictions <= other.evictions,
                    "{dataset:?}: belady {} vs {kind} {}",
                    belady.evictions,
                    other.evictions
                );
            }
        }
    }
}
