//! Old-vs-new oracle for the sampling generators.
//!
//! The `oracle` module freezes the generators as they were when every
//! top-up round re-sorted the whole edge list. The library now keeps the
//! distinct edges either in a bitmap over the vertex pairs (dense graphs)
//! or in a sorted prefix that each round's draws are merged into (sparse
//! graphs). Both must consume the RNG identically and produce equal
//! graphs, or every synthesized dataset, report and baseline would move.
//! Each round's draws are also split across a worker pool, every shard
//! jumping the RNG ahead to its first pair, so the library runs at pool
//! widths 1 to 4 against one oracle graph.

use std::sync::OnceLock;

use gnnie_graph::datasets::Dataset;
use gnnie_graph::{generate, CsrGraph, SimPool, SimThreads};
use proptest::prelude::*;

/// Frozen copies of the re-sort-every-round generators. The only addition
/// is the [`Widening`] count in `powerlaw_chung_lu_traced`.
mod oracle {
    use gnnie_graph::generate::AliasTable;
    use gnnie_graph::{CsrGraph, EdgeList, VertexId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// How often the Chung–Lu loop took its `guard > 50` widening branch.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct Widening {
        /// Widening edges pushed after a round's dedup.
        pub pushed: usize,
        /// `true` if the loop exited with a widening edge not yet deduped,
        /// so only the final `truncate_to` merged it.
        pub pending_at_exit: bool,
        /// `true` if the loop stopped at its 200-round limit, short of the
        /// target.
        pub hit_max_rounds: bool,
    }

    pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> CsrGraph {
        assert!(m == 0 || n >= 2, "need at least two vertices to place edges");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut el = EdgeList::with_capacity(n, m);
        let max_possible = n.saturating_mul(n.saturating_sub(1)) / 2;
        let target = m.min(max_possible);
        let mut guard = 0;
        while el.len() < target && guard < 100 {
            let need = target - el.len();
            for _ in 0..need + need / 4 + 1 {
                let u = rng.random_range(0..n) as VertexId;
                let v = rng.random_range(0..n) as VertexId;
                if u != v {
                    el.push(u, v);
                }
            }
            el.dedup();
            guard += 1;
        }
        truncate_to(el, target)
    }

    pub fn powerlaw_chung_lu(n: usize, m: usize, gamma: f64, seed: u64) -> CsrGraph {
        powerlaw_chung_lu_traced(n, m, gamma, seed).0
    }

    pub fn powerlaw_chung_lu_traced(
        n: usize,
        m: usize,
        gamma: f64,
        seed: u64,
    ) -> (CsrGraph, Widening) {
        assert!(n >= 2, "need at least two vertices");
        assert!(gamma > 1.0, "power-law exponent must exceed 1");
        let mut widening = Widening::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let exponent = -1.0 / (gamma - 1.0);
        let i0 = 1.0;
        let weights: Vec<f64> = (0..n).map(|i| (i as f64 + i0).powf(exponent)).collect();
        let table = AliasTable::new(&weights);
        let mut el = EdgeList::with_capacity(n, m);
        let max_possible = n * (n - 1) / 2;
        let target = m.min(max_possible);
        let mut guard = 0;
        let mut pending = false;
        while el.len() < target && guard < 200 {
            let need = target - el.len();
            for _ in 0..need + need / 3 + 1 {
                let u = table.sample(&mut rng) as VertexId;
                let v = table.sample(&mut rng) as VertexId;
                if u != v {
                    el.push(u, v);
                }
            }
            el.dedup();
            pending = false;
            guard += 1;
            if guard > 50 && el.len() < target {
                let u = rng.random_range(0..n) as VertexId;
                let v = rng.random_range(0..n) as VertexId;
                if u != v {
                    el.push(u, v);
                    widening.pushed += 1;
                    pending = true;
                }
            }
        }
        widening.pending_at_exit = pending;
        widening.hit_max_rounds = guard == 200 && el.len() < target;
        (truncate_to(el, target), widening)
    }

    pub fn mixed_powerlaw(
        n: usize,
        m: usize,
        gamma: f64,
        uniform_frac: f64,
        seed: u64,
    ) -> CsrGraph {
        assert!((0.0..=1.0).contains(&uniform_frac), "uniform_frac must be in [0,1]");
        assert!(n >= 2, "need at least two vertices");
        let m_uniform = (m as f64 * uniform_frac) as usize;
        let m_power = m - m_uniform;
        let a = erdos_renyi(n, m_uniform, seed ^ 0xA5A5_A5A5);
        let b = powerlaw_chung_lu(n, m_power.max(1), gamma, seed ^ 0x5A5A_5A5A);
        let mut el = EdgeList::with_capacity(n, m);
        el.extend(a.edges());
        el.extend(b.edges());
        el.dedup();
        truncate_to(el, m)
    }

    fn truncate_to(mut el: EdgeList, target: usize) -> CsrGraph {
        el.dedup();
        if el.len() > target {
            let n = el.num_vertices();
            let mut edges = el.into_inner();
            edges.truncate(target);
            let mut out = EdgeList::with_capacity(n, target);
            out.extend(edges);
            CsrGraph::from_edge_list(out)
        } else {
            CsrGraph::from_edge_list(el)
        }
    }
}

/// Pools of widths 1 to 4, started once for the whole file.
fn pools() -> &'static [SimPool] {
    static POOLS: OnceLock<Vec<SimPool>> = OnceLock::new();
    POOLS.get_or_init(|| (1..=4).map(|w| SimPool::new(SimThreads::Fixed(w))).collect())
}

/// Asserts that `generate` builds `oracle` on every pool of [`pools`];
/// `case` names the inputs in the failure message.
fn same_at_every_width(
    case: impl std::fmt::Display,
    oracle: &CsrGraph,
    generate: impl Fn(&SimPool) -> CsrGraph,
) {
    for pool in pools() {
        assert!(
            generate(pool) == *oracle,
            "{case}: differs from the oracle at width {}",
            pool.width()
        );
    }
}

/// The library's choice of membership structure, restated: the pair bitmap
/// when its `n(n−1)/2` bits are no more than 64 × the sorted path's draw
/// buffer of `target + target / overdraw + 1` edges. Chung–Lu draws with
/// `overdraw` 3, Erdős–Rényi with 4.
fn takes_bitmap(n: usize, m: usize, overdraw: usize) -> bool {
    let pairs = n * (n - 1) / 2;
    let target = m.min(pairs);
    pairs <= 64 * (target + target / overdraw + 1)
}

proptest! {
    #[test]
    fn chung_lu_matches_the_oracle(
        n in 2usize..=64,
        m in 0usize..2500,
        gamma in 1.5f64..=3.5,
        seed in 0u64..1_000_000,
    ) {
        // m spans both sides of n(n-1)/2, so saturated graphs are covered.
        same_at_every_width(
            format!("chung-lu n {n} m {m} gamma {gamma} seed {seed}"),
            &oracle::powerlaw_chung_lu(n, m, gamma, seed),
            |pool| generate::powerlaw_chung_lu_on(n, m, gamma, seed, pool),
        );
    }

    #[test]
    fn erdos_renyi_matches_the_oracle(
        n in 2usize..=64,
        m in 0usize..2500,
        seed in 0u64..1_000_000,
    ) {
        same_at_every_width(
            format!("erdos-renyi n {n} m {m} seed {seed}"),
            &oracle::erdos_renyi(n, m, seed),
            |pool| generate::erdos_renyi_on(n, m, seed, pool),
        );
    }

    #[test]
    fn mixed_powerlaw_matches_the_oracle(
        n in 2usize..=64,
        m in 0usize..2500,
        uniform_frac in 0.0f64..=1.0,
        seed in 0u64..1_000_000,
    ) {
        same_at_every_width(
            format!("mixed n {n} m {m} uniform_frac {uniform_frac} seed {seed}"),
            &oracle::mixed_powerlaw(n, m, 2.5, uniform_frac, seed),
            |pool| generate::mixed_powerlaw_on(n, m, 2.5, uniform_frac, seed, pool),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mid_size_graphs_match_the_oracle_on_both_sides_of_the_rule(
        n in 100usize..=3000,
        factor in 0.5f64..=1.5,
        gamma in 1.5f64..=3.5,
        seed in 0u64..1_000_000,
    ) {
        // m around n(n-1)/128; the bitmap takes over near n(n-1)/171 for
        // Chung–Lu and n(n-1)/160 for Erdős–Rényi, i.e. factor 0.75 / 0.8.
        let m = (factor * (n * (n - 1)) as f64 / 128.0) as usize;
        same_at_every_width(
            format!("chung-lu n {n} m {m} gamma {gamma} seed {seed}"),
            &oracle::powerlaw_chung_lu(n, m, gamma, seed),
            |pool| generate::powerlaw_chung_lu_on(n, m, gamma, seed, pool),
        );
        same_at_every_width(
            format!("erdos-renyi n {n} m {m} seed {seed}"),
            &oracle::erdos_renyi(n, m, seed),
            |pool| generate::erdos_renyi_on(n, m, seed, pool),
        );
    }
}

#[test]
fn grid_on_both_sides_of_the_rule_matches_the_oracle() {
    // The bitmap is used when n(n-1)/2 <= 64 * (target + target/overdraw + 1),
    // target = min(m, n(n-1)/2); overdraw is 3 for Chung–Lu, 4 for
    // Erdős–Rényi. Sides (Chung–Lu, Erdős–Rényi) per case:
    let cases = [
        (200, 100),     // 19,900 pairs: merge, merge
        (200, 240),     // just past Chung–Lu's threshold: bitmap, merge
        (200, 400),     // bitmap, bitmap
        (200, 19_900),  // saturated: bitmap, bitmap
        (1000, 2000),   // 499,500 pairs: merge, merge
        (1000, 10_000), // bitmap, bitmap
        (2500, 20_000), // 3,123,750 pairs: merge, merge
        (2500, 40_000), // bitmap, bitmap
    ];
    let (mut bitmap, mut merge) = (0, 0);
    for (n, m) in cases {
        for overdraw in [3, 4] {
            if takes_bitmap(n, m, overdraw) {
                bitmap += 1;
            } else {
                merge += 1;
            }
        }
        for seed in [1, 7919] {
            // The heavier tail draws more duplicates, so the sparse cases
            // take several merge rounds.
            for gamma in [1.5, 2.0] {
                same_at_every_width(
                    format!("chung-lu n {n} m {m} gamma {gamma} seed {seed}"),
                    &oracle::powerlaw_chung_lu(n, m, gamma, seed),
                    |pool| generate::powerlaw_chung_lu_on(n, m, gamma, seed, pool),
                );
            }
            same_at_every_width(
                format!("erdos-renyi n {n} m {m} seed {seed}"),
                &oracle::erdos_renyi(n, m, seed),
                |pool| generate::erdos_renyi_on(n, m, seed, pool),
            );
        }
    }
    assert!(bitmap >= 4 && merge >= 4, "bitmap {bitmap} merge {merge}: both sides must occur");
    assert!(takes_bitmap(200, 240, 3) && !takes_bitmap(200, 240, 4));
}

#[test]
fn small_grid_matches_the_oracle() {
    for n in [2, 3, 5, 40] {
        for m in [0, 1, 10, 1000] {
            for seed in [1, 2, 7919] {
                same_at_every_width(
                    format!("chung-lu n {n} m {m} seed {seed}"),
                    &oracle::powerlaw_chung_lu(n, m, 2.0, seed),
                    |pool| generate::powerlaw_chung_lu_on(n, m, 2.0, seed, pool),
                );
                same_at_every_width(
                    format!("erdos-renyi n {n} m {m} seed {seed}"),
                    &oracle::erdos_renyi(n, m, seed),
                    |pool| generate::erdos_renyi_on(n, m, seed, pool),
                );
            }
        }
    }
}

#[test]
fn table_ii_graphs_match_the_oracle() {
    // Reddit 0.002 and 0.005 take the bitmap path; the citation graphs take
    // the merge path. PPI 0.05 takes both: its Erdős–Rényi half is just
    // dense enough for the bitmap, its Chung–Lu half merges.
    let cases = [
        (Dataset::Cora, 1.0),
        (Dataset::Citeseer, 1.0),
        (Dataset::Pubmed, 1.0),
        (Dataset::Ppi, 0.05),
        (Dataset::Reddit, 0.002),
        (Dataset::Reddit, 0.005),
    ];
    for (dataset, scale) in cases {
        let spec = dataset.spec().scaled(scale);
        let (n, m, gamma, seed) = (spec.vertices, spec.edges, spec.degree_gamma, 1);
        let case = format!("{} at scale {scale}", dataset.name());
        if spec.uniform_frac > 0.0 {
            let frac = spec.uniform_frac;
            same_at_every_width(
                case,
                &oracle::mixed_powerlaw(n, m, gamma, frac, seed),
                |pool| generate::mixed_powerlaw_on(n, m, gamma, frac, seed, pool),
            );
        } else {
            same_at_every_width(case, &oracle::powerlaw_chung_lu(n, m, gamma, seed), |pool| {
                generate::powerlaw_chung_lu_on(n, m, gamma, seed, pool)
            });
        }
    }
}

#[test]
fn widening_edge_paths_match_the_oracle() {
    // Saturated heavy-tailed graphs outlast 50 rounds, so the widening
    // branch fires. Both ways the pending edge can be merged must occur:
    // by the next round's dedup, and by the final truncation only; and the
    // 200-round limit must be hit. The first three graphs take the bitmap,
    // the last two (gamma 1.1 piles nearly every draw onto a few hubs) the
    // sorted prefix; (100, 39) reaches its target with the pending edge
    // held, (300, 358) runs out of rounds.
    let cases = [
        (40, 1000, 2.0, 1),
        (64, 2016, 1.5, 2),
        (30, 400, 2.0, 7919),
        (100, 39, 1.1, 1),
        (300, 358, 1.1, 1),
    ];
    let mut seen = [[false; 3]; 2];
    for (n, m, gamma, seed) in cases {
        let (old, widening) = oracle::powerlaw_chung_lu_traced(n, m, gamma, seed);
        same_at_every_width(format!("n {n} m {m} gamma {gamma}"), &old, |pool| {
            generate::powerlaw_chung_lu_on(n, m, gamma, seed, pool)
        });
        let side = &mut seen[usize::from(takes_bitmap(n, m, 3))];
        side[0] |= widening.pushed > 0;
        side[1] |= widening.pending_at_exit;
        side[2] |= widening.hit_max_rounds;
    }
    assert_eq!(
        seen, [[true; 3]; 2],
        "[pushed, pending at exit, 200 rounds] per [sorted, bitmap]"
    );
}
