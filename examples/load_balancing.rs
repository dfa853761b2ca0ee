//! Walking through GNNIE's Weighting-side load balancing (§IV): how the
//! flexible-MAC (FM) row groups and load redistribution (LR) flatten the
//! per-row workload that input-feature sparsity variation creates, what
//! that does to MPE psum pressure, and what the rebalancing costs on the
//! interconnect compared to an AWB-GCN-style runtime scheme.
//!
//! ```sh
//! cargo run --example load_balancing
//! ```

use gnnie::core::config::AcceleratorConfig;
use gnnie::core::cpe::CpeArray;
use gnnie::core::mpe::psum_stall_cycles;
use gnnie::core::noc::{awb_rebalance_traffic, lr_traffic, AwbRebalanceParams, LinkParams};
use gnnie::core::weighting::{schedule, BlockProfile, WeightingMode};
use gnnie::graph::GraphDataset;
use gnnie::Dataset;

fn bar(cycles: u64, max: u64) -> String {
    let width = (cycles * 40).checked_div(max).unwrap_or(0) as usize;
    "#".repeat(width)
}

fn main() {
    // A Cora-statistics dataset: 2708 vertices, F = 1433, ~98.7% feature
    // sparsity with the bimodal per-vertex profile of Fig. 2.
    let ds = GraphDataset::generate(Dataset::Cora, 1.0, 42);
    let cfg = AcceleratorConfig::paper(Dataset::Cora);
    let arr = CpeArray::new(&cfg);
    let profile = BlockProfile::from_sparse(&ds.features, arr.rows());
    println!(
        "dataset: {} vertices, F_in {}, {:.2}% sparse ({} nonzeros)\n",
        profile.vertices(),
        profile.f_in(),
        100.0
            * (1.0 - profile.total_nnz() as f64 / (profile.vertices() * profile.f_in()) as f64),
        profile.total_nnz(),
    );

    // --- Per-row cycles under the three schedules (the Fig. 16 series).
    let mut makespans = Vec::new();
    for mode in [WeightingMode::Baseline, WeightingMode::Fm, WeightingMode::FmLr] {
        let sched = schedule(&profile, &arr, mode);
        let rows = sched.per_row_cycles(&arr);
        let max = rows.iter().copied().max().unwrap_or(0);
        let min = rows.iter().copied().min().unwrap_or(0);
        println!("-- {mode} (makespan {max}, spread {}) --", max - min);
        for (r, &c) in rows.iter().enumerate() {
            println!("row {r:>2} ({} MACs): {c:>6} |{}", arr.macs_in_row(r), bar(c, max));
        }
        if sched.lr_moved_blocks > 0 {
            println!(
                "LR moved {} blocks across {} row pairs",
                sched.lr_moved_blocks,
                sched.lr_moves.len()
            );
        }
        println!();
        makespans.push((mode, rows));
    }

    // --- What the imbalance costs downstream: MPE psum-slot stalls.
    println!("-- MPE psum stalls per pass (64 slots, §IV-B) --");
    for (mode, rows) in &makespans {
        let stalls = psum_stall_cycles(rows, profile.vertices() as u64, 64);
        println!("{mode:<9} {stalls:>6} stall cycles");
    }
    println!();

    // --- What the rebalancing costs on the wire (§VII). Cora is small
    // enough that FM alone balances it; Pubmed's wider sparsity spread
    // (Fig. 2) makes the contrast visible.
    let pubmed = GraphDataset::generate(Dataset::Pubmed, 1.0, 42);
    let profile = BlockProfile::from_sparse(&pubmed.features, arr.rows());
    let link = LinkParams::default();
    let lr_sched = schedule(&profile, &arr, WeightingMode::FmLr);
    let gnnie = lr_traffic(&lr_sched, profile.k());
    let base_loads = schedule(&profile, &arr, WeightingMode::Baseline).per_row_cycles(&arr);
    let (awb, _) = awb_rebalance_traffic(&base_loads, AwbRebalanceParams::default());
    println!("-- interconnect cost of rebalancing (Pubmed) --");
    for (name, ledger) in [("GNNIE FM+LR", &gnnie), ("AWB-style runtime", &awb)] {
        println!(
            "{name:<18} {:>8} word-hops  {:>2} rounds  {:>6.2} nJ",
            ledger.word_hops,
            ledger.rounds,
            ledger.energy_pj(&link) / 1e3
        );
    }
    println!(
        "\nFM assigns sparse bins to small-MAC rows and dense bins to \
         large-MAC rows before anything moves; LR then offloads whole \
         blocks between at most {} row pairs — one static decision instead \
         of round-after-round runtime migration.",
        arr.rows() / 2
    );
}
