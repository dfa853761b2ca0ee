//! Output-buffer psum management (paper §VI).
//!
//! "Due to limited output buffer capacity, only a subset of partial
//! vertex feature vector sums can be retained in the buffer, and the rest
//! must be written to off-chip DRAM. To reduce the cost of off-chip
//! access, we use a degree-based criterion for prioritizing writes to the
//! output buffer vs. DRAM."
//!
//! This module models that choice. During Aggregation every processed
//! edge updates the partial sums of both endpoints; a psum resident in
//! the output buffer updates for free, while a spilled psum costs a DRAM
//! round trip (sequential, thanks to the numerator/denominator adjacency
//! the paper arranges). The retention policy decides *which* psums stay
//! resident — and because a vertex's remaining updates are proportional
//! to its degree, keeping high-degree vertices is provably the right
//! greedy criterion on power-law graphs. [`RetentionPolicy`] implements
//! the paper's degree priority plus LRU and FIFO counterfactuals for the
//! ablation harness.

use std::collections::{BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

use gnnie_graph::CsrGraph;

use crate::cache::{build_edge_index, CacheConfig, CacheSim, PaperAlphaGamma};
use crate::dram::HbmModel;
use crate::SimPool;

/// Which psums the output buffer keeps when full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RetentionPolicy {
    /// The paper's criterion: evict the lowest-degree resident vertex
    /// (fewest expected future updates).
    DegreePriority,
    /// Evict the least-recently-updated psum (GRASP-style history, which
    /// §VII argues measures the past rather than future potential).
    Lru,
    /// Evict the oldest-allocated psum.
    Fifo,
}

impl RetentionPolicy {
    /// All policies, paper's first.
    pub const ALL: [RetentionPolicy; 3] =
        [RetentionPolicy::DegreePriority, RetentionPolicy::Lru, RetentionPolicy::Fifo];
}

impl std::fmt::Display for RetentionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RetentionPolicy::DegreePriority => "degree-priority",
            RetentionPolicy::Lru => "LRU",
            RetentionPolicy::Fifo => "FIFO",
        })
    }
}

/// Outcome counters of one psum-buffer simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PsumStats {
    /// Psum updates issued (2 per processed edge).
    pub accesses: u64,
    /// Updates that found their psum resident.
    pub hits: u64,
    /// Psums written to DRAM on eviction.
    pub spill_writes: u64,
    /// Spilled psums read back on a later update.
    pub refetches: u64,
}

impl PsumStats {
    /// Buffer hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            return 1.0;
        }
        self.hits as f64 / self.accesses as f64
    }

    /// DRAM bytes moved for spills and refetches at `bytes_per_vertex`.
    pub fn dram_bytes(&self, bytes_per_vertex: u64) -> u64 {
        (self.spill_writes + self.refetches) * bytes_per_vertex
    }
}

/// The output-buffer psum manager: a bounded set of resident psums with a
/// pluggable eviction priority.
///
/// # Example
///
/// ```
/// use gnnie_mem::psum::{PsumBuffer, RetentionPolicy};
///
/// let mut buf = PsumBuffer::new(RetentionPolicy::DegreePriority, 2);
/// buf.update(0, 10); // hub
/// buf.update(1, 1);
/// buf.update(2, 1); // evicts a degree-1 vertex, never the hub
/// assert!(buf.is_resident(0));
/// assert_eq!(buf.stats().spill_writes, 1);
/// ```
#[derive(Debug, Clone)]
pub struct PsumBuffer {
    policy: RetentionPolicy,
    capacity: usize,
    /// Eviction order: the *smallest* `(key, vertex)` pair is evicted
    /// first. Key semantics depend on the policy.
    order: BTreeSet<(u64, u32)>,
    /// vertex → its current key in `order`.
    resident: HashMap<u32, u64>,
    /// Vertices whose psum currently lives in DRAM.
    spilled: HashMap<u32, ()>,
    tick: u64,
    stats: PsumStats,
}

impl PsumBuffer {
    /// Creates a buffer holding at most `capacity` psums.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(policy: RetentionPolicy, capacity: usize) -> Self {
        assert!(capacity > 0, "psum buffer needs at least one slot");
        PsumBuffer {
            policy,
            capacity,
            order: BTreeSet::new(),
            resident: HashMap::new(),
            spilled: HashMap::new(),
            tick: 0,
            stats: PsumStats::default(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> RetentionPolicy {
        self.policy
    }

    /// Resident psum count.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// `true` if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// `true` if vertex `v`'s psum is currently in the buffer.
    pub fn is_resident(&self, v: u32) -> bool {
        self.resident.contains_key(&v)
    }

    /// Counters so far.
    pub fn stats(&self) -> PsumStats {
        self.stats
    }

    fn key_for(&self, degree: u32) -> u64 {
        match self.policy {
            // Smallest degree evicts first; ties broken by vertex id via
            // the set's lexicographic pair order.
            RetentionPolicy::DegreePriority => degree as u64,
            // Oldest tick evicts first; hits refresh the key (LRU) or
            // keep the allocation tick (FIFO).
            RetentionPolicy::Lru | RetentionPolicy::Fifo => self.tick,
        }
    }

    /// Applies one psum update for vertex `v` (with static `degree`),
    /// charging a hit, or a miss with the eviction the policy selects.
    pub fn update(&mut self, v: u32, degree: u32) {
        self.tick += 1;
        self.stats.accesses += 1;
        if let Some(&old_key) = self.resident.get(&v) {
            self.stats.hits += 1;
            if self.policy == RetentionPolicy::Lru {
                self.order.remove(&(old_key, v));
                let new_key = self.tick;
                self.order.insert((new_key, v));
                self.resident.insert(v, new_key);
            }
            return;
        }
        // Miss: a previously spilled psum must be fetched back and merged.
        if self.spilled.remove(&v).is_some() {
            self.stats.refetches += 1;
        }
        if self.resident.len() == self.capacity {
            let &(victim_key, victim) =
                self.order.iter().next().expect("full buffer has an eviction candidate");
            self.order.remove(&(victim_key, victim));
            self.resident.remove(&victim);
            self.spilled.insert(victim, ());
            self.stats.spill_writes += 1;
        }
        let key = self.key_for(degree);
        self.order.insert((key, v));
        self.resident.insert(v, key);
    }

    /// Marks vertex `v` complete: its psum leaves the buffer as a final
    /// result write (not a spill).
    pub fn retire(&mut self, v: u32) {
        if let Some(old_key) = self.resident.remove(&v) {
            self.order.remove(&(old_key, v));
        }
        self.spilled.remove(&v);
    }
}

/// Simulates the output-buffer psum traffic of one Aggregation phase:
/// the degree-aware cache (§VI) drives the edge order, every edge updates
/// both endpoint psums, and completed vertices retire. The walk's
/// vertex scans shard across `pool` (the counters are identical at any
/// width). Returns the policy's counters.
pub fn simulate_psum_traffic(
    g: &CsrGraph,
    cache_cfg: CacheConfig,
    policy: RetentionPolicy,
    psum_capacity: usize,
    pool: &SimPool,
) -> PsumStats {
    let mut buf = PsumBuffer::new(policy, psum_capacity);
    let mut remaining: Vec<u32> = (0..g.num_vertices()).map(|v| g.degree(v) as u32).collect();
    let mut dram = HbmModel::hbm2_256gbps(1.3e9);
    let ids = build_edge_index(g);
    let sim = CacheSim::new(g, &ids, cache_cfg, pool);
    let result = sim.run_with(&mut PaperAlphaGamma::new(), &mut dram, |u, v| {
        let (du, dv) = (g.degree(u as usize) as u32, g.degree(v as usize) as u32);
        buf.update(u, du);
        buf.update(v, dv);
        for w in [u, v] {
            remaining[w as usize] -= 1;
            if remaining[w as usize] == 0 {
                buf.retire(w);
            }
        }
    });
    assert!(result.completed, "psum study requires a completed walk");
    buf.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnie_graph::generate;
    use gnnie_graph::reorder::Permutation;

    #[test]
    fn hits_are_free_misses_allocate() {
        let mut buf = PsumBuffer::new(RetentionPolicy::DegreePriority, 4);
        buf.update(1, 3);
        buf.update(1, 3);
        buf.update(2, 5);
        let s = buf.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.spill_writes, 0);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn degree_priority_protects_the_hub() {
        let mut buf = PsumBuffer::new(RetentionPolicy::DegreePriority, 2);
        buf.update(0, 100); // hub
        buf.update(1, 1);
        buf.update(2, 1); // evicts 1 (lowest degree), not the hub
        assert!(buf.is_resident(0));
        assert!(!buf.is_resident(1));
        buf.update(3, 2); // evicts 2
        assert!(buf.is_resident(0));
        assert_eq!(buf.stats().spill_writes, 2);
    }

    #[test]
    fn refetch_counts_only_previously_spilled() {
        let mut buf = PsumBuffer::new(RetentionPolicy::Fifo, 1);
        buf.update(1, 1); // cold allocation: no refetch
        buf.update(2, 1); // spills 1
        buf.update(1, 1); // 1 comes back: refetch
        let s = buf.stats();
        assert_eq!(s.spill_writes, 2);
        assert_eq!(s.refetches, 1);
    }

    #[test]
    fn lru_refresh_changes_the_victim() {
        let mut lru = PsumBuffer::new(RetentionPolicy::Lru, 2);
        lru.update(1, 1);
        lru.update(2, 1);
        lru.update(1, 1); // refresh 1
        lru.update(3, 1); // must evict 2
        assert!(lru.is_resident(1));
        assert!(!lru.is_resident(2));
        // FIFO ignores the refresh and evicts the older allocation (1).
        let mut fifo = PsumBuffer::new(RetentionPolicy::Fifo, 2);
        fifo.update(1, 1);
        fifo.update(2, 1);
        fifo.update(1, 1);
        fifo.update(3, 1);
        assert!(!fifo.is_resident(1));
        assert!(fifo.is_resident(2));
    }

    #[test]
    fn retire_is_not_a_spill() {
        let mut buf = PsumBuffer::new(RetentionPolicy::DegreePriority, 2);
        buf.update(1, 1);
        buf.retire(1);
        buf.update(2, 1);
        buf.update(3, 1);
        assert_eq!(buf.stats().spill_writes, 0, "retirement freed the slot");
        // A retired vertex that somehow returns is a cold allocation.
        buf.retire(2);
        buf.update(2, 1);
        assert_eq!(buf.stats().refetches, 0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        let _ = PsumBuffer::new(RetentionPolicy::Lru, 0);
    }

    #[test]
    fn degree_priority_beats_fifo_on_power_law() {
        // The §VI claim: on a skewed graph, keeping high-degree psums
        // resident minimizes spill traffic.
        let raw = generate::powerlaw_chung_lu(2_000, 12_000, 2.0, 13);
        let g = Permutation::descending_degree(&raw).apply(&raw);
        let cfg = CacheConfig::with_capacity(256, 64);
        let hub = simulate_psum_traffic(
            &g,
            cfg,
            RetentionPolicy::DegreePriority,
            128,
            &SimPool::serial(),
        );
        let cfg = CacheConfig::with_capacity(256, 64);
        let fifo =
            simulate_psum_traffic(&g, cfg, RetentionPolicy::Fifo, 128, &SimPool::serial());
        assert_eq!(hub.accesses, fifo.accesses, "same edge order");
        assert!(
            hub.dram_bytes(512) <= fifo.dram_bytes(512),
            "degree priority must not lose to FIFO: {hub:?} vs {fifo:?}"
        );
        assert!(hub.hit_rate() >= fifo.hit_rate());
    }

    #[test]
    fn ample_capacity_never_spills() {
        let raw = generate::erdos_renyi(300, 1200, 5);
        let g = Permutation::descending_degree(&raw).apply(&raw);
        let cfg = CacheConfig::with_capacity(64, 64);
        let s = simulate_psum_traffic(
            &g,
            cfg,
            RetentionPolicy::DegreePriority,
            300,
            &SimPool::serial(),
        );
        assert_eq!(s.spill_writes, 0);
        assert_eq!(s.refetches, 0);
        assert_eq!(s.hit_rate(), (s.hits as f64) / (s.accesses as f64));
    }

    #[test]
    fn every_edge_updates_both_endpoints() {
        let raw = generate::erdos_renyi(200, 800, 9);
        let g = Permutation::descending_degree(&raw).apply(&raw);
        let cfg = CacheConfig::with_capacity(48, 64);
        let s = simulate_psum_traffic(&g, cfg, RetentionPolicy::Lru, 64, &SimPool::serial());
        assert_eq!(s.accesses, 2 * g.num_edges() as u64);
    }
}
