//! Exploring the degree-aware cache (§VI): how γ, buffer capacity, and
//! the degree-ordered DRAM layout shape off-chip traffic on a power-law
//! graph — including the sequential-access guarantee and the id-order
//! counterfactual.
//!
//! ```sh
//! cargo run --example cache_explorer
//! ```

use gnnie::graph::reorder::Permutation;
use gnnie::graph::{generate, CsrGraph};
use gnnie::mem::cache::{build_edge_index, simulate_id_order_baseline, PaperAlphaGamma};
use gnnie::mem::{CacheConfig, CacheSim, HbmModel, SimPool};

fn run_cache(g: &CsrGraph, capacity: usize, gamma: u32) {
    let mut cfg = CacheConfig::with_capacity(capacity, 512);
    cfg.gamma = gamma;
    let mut dram = HbmModel::hbm2_256gbps(1.3e9);
    let ids = build_edge_index(g);
    let r = CacheSim::new(g, &ids, cfg, &SimPool::serial())
        .run(&mut PaperAlphaGamma::new(), &mut dram);
    assert!(r.completed);
    println!(
        "capacity {:>5}  γ {:>2}: rounds {:>2}  refetches {:>6}  dram {:>7} KB \
         (random bytes: {})  recovery rounds: {}",
        capacity,
        gamma,
        r.rounds,
        r.refetches,
        r.counters.total_bytes() / 1024,
        r.counters.random_bytes(),
        r.recovery_rounds,
    );
}

fn main() {
    // A scale-free graph with a heavy tail: 20k vertices, 120k edges.
    let raw = generate::powerlaw_chung_lu(20_000, 120_000, 2.0, 7);
    println!(
        "graph: {} vertices, {} edges, max degree {}, top-11% edge coverage {:.0}%\n",
        raw.num_vertices(),
        raw.num_edges(),
        raw.max_degree(),
        raw.edge_coverage_of_top_vertices(0.11) * 100.0
    );

    // Preprocessing: descending-degree relabeling = the DRAM layout.
    let g = Permutation::descending_degree(&raw).apply(&raw);

    println!("-- buffer capacity sweep (γ = 5) --");
    for capacity in [256, 1024, 4096, 16384] {
        run_cache(&g, capacity, 5);
    }

    println!("\n-- γ sweep (capacity = 1024) — the Fig. 11 ablation --");
    for gamma in [1, 2, 5, 10, 20, 40] {
        run_cache(&g, 1024, gamma);
    }

    println!("\n-- the counterfactual: id-order processing, no policy --");
    let mut dram = HbmModel::hbm2_256gbps(1.3e9);
    let (stats, cycles, counters) = simulate_id_order_baseline(&raw, 1024, 512, &mut dram);
    println!(
        "id-order: {} chunks, dram {} KB of which RANDOM {} KB, {} dram cycles",
        stats.len(),
        counters.total_bytes() / 1024,
        counters.random_bytes() / 1024,
        cycles
    );
    let mut dram2 = HbmModel::hbm2_256gbps(1.3e9);
    let ids = build_edge_index(&g);
    let policy =
        CacheSim::new(&g, &ids, CacheConfig::with_capacity(1024, 512), &SimPool::serial())
            .run(&mut PaperAlphaGamma::new(), &mut dram2);
    println!(
        "policy:   dram {} KB, all sequential, {} dram cycles ({:.1}x fewer)",
        policy.counters.total_bytes() / 1024,
        policy.dram_cycles,
        cycles as f64 / policy.dram_cycles as f64
    );
}
