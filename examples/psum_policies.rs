//! The §VI output-buffer psum question: when the output buffer cannot
//! hold a partial sum for every vertex, *which* psums should stay
//! resident? The paper prioritizes by degree; GRASP-style systems use
//! recency. This example replays one Aggregation phase's exact edge order
//! through three retention policies at several buffer sizes and shows why
//! degree wins on power-law graphs.
//!
//! ```sh
//! cargo run --example psum_policies
//! ```

use gnnie::graph::reorder::Permutation;
use gnnie::graph::{generate, CsrGraph};
use gnnie::mem::psum::{simulate_psum_traffic, RetentionPolicy};
use gnnie::mem::{CacheConfig, SimPool};

fn study(name: &str, raw: &CsrGraph, psum_slots: usize) {
    let g = Permutation::descending_degree(raw).apply(raw);
    println!(
        "{name}: {} vertices, {} edges, max degree {} — {} psum slots",
        g.num_vertices(),
        g.num_edges(),
        g.max_degree(),
        psum_slots
    );
    for policy in RetentionPolicy::ALL {
        let cache_cfg = CacheConfig::with_capacity(512, 64);
        let s = simulate_psum_traffic(&g, cache_cfg, policy, psum_slots, &SimPool::serial());
        println!(
            "  {policy:<16} hit rate {:>5.1}%  spills {:>6}  refetches {:>6}  \
             DRAM {:>6} KiB",
            s.hit_rate() * 100.0,
            s.spill_writes,
            s.refetches,
            s.dram_bytes(512) / 1024
        );
    }
    println!();
}

fn main() {
    // A strongly skewed scale-free graph: the regime the paper's degree
    // criterion is designed for.
    let powerlaw = generate::powerlaw_chung_lu(8_000, 48_000, 1.9, 7);
    study("power-law (gamma 1.9)", &powerlaw, 512);
    study("power-law (gamma 1.9)", &powerlaw, 2048);

    // A uniform-degree graph: degree carries no signal, so pinning
    // look-alike vertices fights the temporal locality of the edge order
    // and recency wins decisively. The degree criterion is *graph-
    // specific* — a bet on skew, not a universal policy.
    let uniform = generate::erdos_renyi(8_000, 48_000, 7);
    study("uniform (Erdos-Renyi)", &uniform, 512);

    println!(
        "on skewed graphs the degree criterion keeps the hub psums (the \
         bulk of all future updates) resident and beats FIFO, trading \
         blows with LRU; on the uniform graph it collapses — every vertex \
         looks alike, so degree pins arbitrary psums against the stream's \
         temporal locality. That asymmetry is the point: §VI's policy is \
         graph-specific, designed for the power-law inputs GNNs see."
    );
}
