//! Property tests over the policy-agnostic `CacheSim`: structural
//! invariants that must hold for every replacement policy on every graph.
//!
//! * the walk completes and every vertex's edges are fully processed;
//! * α is monotone — the per-edge callback only ever decrements each
//!   endpoint's unprocessed-edge count, and never below zero;
//! * total DRAM fetch bytes are at least the cold-miss lower bound
//!   (every vertex with edges is fetched at least once);
//! * the recorded per-Round α histograms never grow a new maximum.

use proptest::prelude::*;

use gnnie_graph::reorder::Permutation;
use gnnie_graph::CsrGraph;
use gnnie_mem::cache::{build_edge_index, CacheConfig, CachePolicyKind, CacheSim};
use gnnie_mem::{HbmModel, MemoryHierarchy, SimPool, TierConfig};

/// Random small graphs: up to 48 vertices, up to 160 raw edge draws
/// (self-loops dropped, duplicates deduplicated by the CSR builder).
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2usize..48, proptest::collection::vec((0u32..48, 0u32..48), 1..160)).prop_map(
        |(n, raw)| {
            let edges = raw.into_iter().filter_map(|(a, b)| {
                let (u, v) = (a % n as u32, b % n as u32);
                (u != v).then_some((u, v))
            });
            CsrGraph::from_edges(n, edges)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The core invariants, swept across all six shipped policies.
    #[test]
    fn cache_sim_invariants_hold_for_every_policy(
        g in arb_graph(),
        capacity in 4usize..24,
        policy_idx in 0usize..6,
    ) {
        let kind = CachePolicyKind::ALL[policy_idx];
        let g = Permutation::descending_degree(&g).apply(&g);
        let cfg = CacheConfig::with_capacity(capacity, 32);
        let mut dram = HbmModel::hbm2_256gbps(1.3e9);
        let mut policy = kind.instantiate();

        // Shadow α: decremented per delivered edge; underflow would mean
        // an edge was delivered twice (or to a wrong endpoint).
        let mut alpha: Vec<i64> = (0..g.num_vertices()).map(|v| g.degree(v) as i64).collect();
        let mut underflow = false;
        let pool = SimPool::serial();
        let ids = build_edge_index(&g);
        let sim = CacheSim::new(&g, &ids, cfg, &pool);
        let result = sim.run_with(policy.as_mut(), &mut dram, |u, v| {
            for w in [u as usize, v as usize] {
                alpha[w] -= 1;
                if alpha[w] < 0 {
                    underflow = true;
                }
            }
        });

        prop_assert!(result.completed, "{kind}: walk did not complete");
        prop_assert_eq!(result.edges_processed, g.num_edges() as u64);
        prop_assert!(!underflow, "{}: some α went negative (edge delivered twice)", kind);
        prop_assert!(
            alpha.iter().all(|&a| a == 0),
            "{}: unfinished vertices remain: {:?}", kind, alpha
        );

        // Cold-miss lower bound: every vertex with edges is fetched at
        // least once, paying features + connectivity + the α word.
        let cold: u64 = (0..g.num_vertices())
            .filter(|&v| g.degree(v) > 0)
            .map(|v| cfg.feature_bytes_per_vertex + 4 * g.degree(v) as u64 + 4)
            .sum();
        let fetched = result.counters.seq_read_bytes + result.counters.rand_read_bytes;
        prop_assert!(
            fetched >= cold,
            "{}: fetch bytes {} below cold-miss bound {}", kind, fetched, cold
        );

        // α never increases: the maximum recorded α can only shrink from
        // Round to Round.
        let maxima: Vec<usize> = result
            .alpha_histograms
            .iter()
            .map(|h| h.last_nonempty_bin().unwrap_or(0))
            .collect();
        prop_assert!(
            maxima.windows(2).all(|w| w[1] <= w[0]),
            "{}: α histogram maxima grew across rounds: {:?}", kind, maxima
        );

        // Accounting identities shared by all policies.
        prop_assert!(result.partial_spills <= result.evictions);
        let nonzero = (0..g.num_vertices()).filter(|&v| g.degree(v) > 0).count() as u64;
        prop_assert!(result.fetched_vertices >= nonzero);
        prop_assert!(result.fetched_vertices <= nonzero + result.refetches);

        // The paper policy's headline guarantee holds on every input.
        if kind == CachePolicyKind::Paper {
            prop_assert_eq!(result.counters.random_bytes(), 0);
            prop_assert_eq!(result.counters.rand_transactions, 0);
        }
    }

    /// A single-DRAM-tier hierarchy is the legacy flat engine, byte for
    /// byte: same result (down to the Debug rendering), same channel
    /// counters — for every policy on every graph.
    #[test]
    fn single_tier_hierarchy_is_byte_identical_to_the_flat_walk(
        g in arb_graph(),
        capacity in 4usize..24,
        policy_idx in 0usize..6,
    ) {
        let kind = CachePolicyKind::ALL[policy_idx];
        let g = Permutation::descending_degree(&g).apply(&g);
        let cfg = CacheConfig::with_capacity(capacity, 32);

        let mut dram = HbmModel::hbm2_256gbps(1.3e9);
        let mut flat_policy = kind.instantiate();
        let pool = SimPool::serial();
        let ids = build_edge_index(&g);
        let flat = CacheSim::new(&g, &ids, cfg, &pool).run(flat_policy.as_mut(), &mut dram);

        let tiers = [TierConfig::dram(0)];
        let mut hier =
            MemoryHierarchy::new(&tiers, 1.3e9, g.num_vertices() as u32, 64);
        let mut tiered_policy = kind.instantiate();
        let mut tiered =
            CacheSim::new(&g, &ids, cfg, &pool).run_tiered(tiered_policy.as_mut(), &mut hier);

        prop_assert_eq!(tiered.tiers.len(), 1, "{}: one tier surfaced", kind);
        tiered.tiers.clear(); // the flat path reports no tier stats
        prop_assert_eq!(
            format!("{flat:?}"),
            format!("{tiered:?}"),
            "{}: tiered walk diverged from the flat engine", kind
        );
        prop_assert_eq!(
            dram.counters(),
            &hier.dram_counters(),
            "{}: channel counters diverged", kind
        );
    }

    /// Degenerate stacks — a zero-capacity middle tier, an on-chip tier
    /// smaller than one feature line — never wedge the walk.
    #[test]
    fn degenerate_tier_capacities_keep_the_walk_complete(
        g in arb_graph(),
        capacity in 4usize..24,
        policy_idx in 0usize..6,
        onchip_bytes in 0u64..200,
    ) {
        let kind = CachePolicyKind::ALL[policy_idx];
        let g = Permutation::descending_degree(&g).apply(&g);
        let cfg = CacheConfig::with_capacity(capacity, 32);
        // 64-byte lines: onchip_bytes < 64 means the top tier holds
        // nothing at all; the dram and ssd tiers are both zero-capacity,
        // leaving the backstop to absorb everything.
        let tiers = [TierConfig::onchip(onchip_bytes), TierConfig::dram(0), TierConfig::ssd(0)];
        let mut hier =
            MemoryHierarchy::new(&tiers, 1.3e9, g.num_vertices() as u32, 64);
        let mut policy = kind.instantiate();
        let pool = SimPool::serial();
        let ids = build_edge_index(&g);
        let result = CacheSim::new(&g, &ids, cfg, &pool).run_tiered(policy.as_mut(), &mut hier);

        prop_assert!(result.completed, "{kind}: walk did not complete");
        prop_assert_eq!(result.edges_processed, g.num_edges() as u64);
        prop_assert_eq!(result.tiers.len(), 3);
        let dram_tier = &result.tiers[1];
        prop_assert_eq!(dram_tier.capacity_vertices, 0);
        prop_assert_eq!(
            dram_tier.hits + dram_tier.evictions, 0,
            "{}: the zero-capacity middle tier held vertices", kind
        );
        if onchip_bytes < 64 {
            prop_assert_eq!(
                result.tiers[0].hits, 0,
                "{}: a sub-line tier cannot hit", kind
            );
        }
    }
}
