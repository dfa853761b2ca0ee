//! HBM 2.0 DRAM timing and energy model.
//!
//! A lightweight substitute for the Ramulator integration the paper uses
//! (§VIII-A): GNNIE's results depend on (a) how many **bytes** move, (b)
//! whether transfers are **sequential** (streaming at full bandwidth) or
//! **random** (row-miss dominated, paying an efficiency penalty), and (c)
//! the 3.97 pJ/bit access energy. This model preserves all three.

use serde::{Deserialize, Serialize};

/// Byte/transaction counters kept by [`HbmModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramCounters {
    /// Bytes read with streaming (row-hit) behaviour.
    pub seq_read_bytes: u64,
    /// Bytes written with streaming behaviour.
    pub seq_write_bytes: u64,
    /// Bytes read with random-access behaviour.
    pub rand_read_bytes: u64,
    /// Bytes written with random-access behaviour.
    pub rand_write_bytes: u64,
    /// Number of random transactions issued (each pays the row-miss toll).
    pub rand_transactions: u64,
}

impl DramCounters {
    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.seq_read_bytes
            + self.seq_write_bytes
            + self.rand_read_bytes
            + self.rand_write_bytes
    }

    /// Bytes moved by random transactions.
    pub fn random_bytes(&self) -> u64 {
        self.rand_read_bytes + self.rand_write_bytes
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &DramCounters) {
        self.seq_read_bytes += other.seq_read_bytes;
        self.seq_write_bytes += other.seq_write_bytes;
        self.rand_read_bytes += other.rand_read_bytes;
        self.rand_write_bytes += other.rand_write_bytes;
        self.rand_transactions += other.rand_transactions;
    }
}

/// An HBM 2.0 channel model.
///
/// Sequential transfers stream at the configured peak bandwidth. Random
/// transfers move whole bursts and run at `1 / random_penalty` of peak —
/// the first-order behaviour of row-miss-dominated access patterns.
///
/// # Example
///
/// ```
/// use gnnie_mem::HbmModel;
///
/// let mut hbm = HbmModel::hbm2_256gbps(1.3e9);
/// let seq = hbm.read_seq(4096);
/// let rand = hbm.read_random(4096);
/// assert!(rand > 4 * seq, "random access must be far slower");
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HbmModel {
    /// Peak sequential bandwidth in bytes per second.
    bandwidth_bytes_per_s: f64,
    /// Accelerator clock in Hz (cycles are reported in this domain).
    clock_hz: f64,
    /// Burst granularity in bytes; random transfers round up to this.
    burst_bytes: u64,
    /// Sequential-to-random slowdown factor.
    random_penalty: f64,
    /// Access energy in pJ per bit (paper: 3.97 pJ/bit for HBM 2.0).
    energy_pj_per_bit: f64,
    counters: DramCounters,
}

impl HbmModel {
    /// The paper's configuration: HBM 2.0 at 256 GB/s, 64-byte bursts,
    /// 8x random-access penalty, 3.97 pJ/bit, with cycles reported in the
    /// accelerator's `clock_hz` domain (1.3 GHz in the paper).
    pub fn hbm2_256gbps(clock_hz: f64) -> Self {
        Self::new(256.0e9, clock_hz, 64, 8.0, 3.97)
    }

    /// Creates a model from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive.
    pub fn new(
        bandwidth_bytes_per_s: f64,
        clock_hz: f64,
        burst_bytes: u64,
        random_penalty: f64,
        energy_pj_per_bit: f64,
    ) -> Self {
        assert!(bandwidth_bytes_per_s > 0.0, "bandwidth must be positive");
        assert!(clock_hz > 0.0, "clock must be positive");
        assert!(burst_bytes > 0, "burst size must be positive");
        assert!(random_penalty >= 1.0, "random penalty cannot beat sequential");
        assert!(energy_pj_per_bit > 0.0, "energy must be positive");
        Self {
            bandwidth_bytes_per_s,
            clock_hz,
            burst_bytes,
            random_penalty,
            energy_pj_per_bit,
            counters: DramCounters::default(),
        }
    }

    /// Bytes transferable per accelerator cycle at peak sequential rate.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bandwidth_bytes_per_s / self.clock_hz
    }

    fn seq_cycles(&self, bytes: u64) -> u64 {
        (bytes as f64 / self.bytes_per_cycle()).ceil() as u64
    }

    /// Cycles a row-miss costs: a tRC-class 25 ns row cycle in the
    /// accelerator clock domain. Random transactions pay this per burst —
    /// the first-order Ramulator behaviour for row-miss-dominated streams.
    pub fn row_miss_cycles(&self) -> u64 {
        (self.clock_hz * 25e-9).ceil() as u64
    }

    fn rand_cycles(&self, bytes: u64) -> u64 {
        let bursts = bytes.div_ceil(self.burst_bytes);
        let moved = bursts * self.burst_bytes;
        let latency_bound = bursts * self.row_miss_cycles() + self.seq_cycles(moved);
        let penalty_bound =
            (moved as f64 * self.random_penalty / self.bytes_per_cycle()).ceil() as u64;
        latency_bound.max(penalty_bound)
    }

    /// Streams `bytes` from DRAM; returns the cycles occupied on the channel.
    pub fn read_seq(&mut self, bytes: u64) -> u64 {
        self.counters.seq_read_bytes += bytes;
        self.seq_cycles(bytes)
    }

    /// Streams `bytes` to DRAM; returns channel cycles.
    pub fn write_seq(&mut self, bytes: u64) -> u64 {
        self.counters.seq_write_bytes += bytes;
        self.seq_cycles(bytes)
    }

    /// Randomly reads `bytes` (rounded up to bursts); returns channel cycles.
    pub fn read_random(&mut self, bytes: u64) -> u64 {
        let bursts = bytes.div_ceil(self.burst_bytes);
        self.counters.rand_read_bytes += bursts * self.burst_bytes;
        self.counters.rand_transactions += bursts;
        self.rand_cycles(bytes)
    }

    /// Randomly writes `bytes` (rounded up to bursts); returns channel cycles.
    pub fn write_random(&mut self, bytes: u64) -> u64 {
        let bursts = bytes.div_ceil(self.burst_bytes);
        self.counters.rand_write_bytes += bursts * self.burst_bytes;
        self.counters.rand_transactions += bursts;
        self.rand_cycles(bytes)
    }

    /// Accumulated counters.
    pub fn counters(&self) -> &DramCounters {
        &self.counters
    }

    /// Resets the counters, returning the previous values.
    pub fn take_counters(&mut self) -> DramCounters {
        std::mem::take(&mut self.counters)
    }

    /// Folds another model's counters into this one — the multi-chip
    /// scale-out path simulates each chip on its own channel model and
    /// accounts the combined traffic (bytes and energy) here.
    pub fn absorb_counters(&mut self, other: &DramCounters) {
        self.counters.merge(other);
    }

    /// Total DRAM access energy so far, in picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.counters.total_bytes() as f64 * 8.0 * self.energy_pj_per_bit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> HbmModel {
        HbmModel::hbm2_256gbps(1.3e9)
    }

    #[test]
    fn sequential_cycles_match_bandwidth() {
        let mut m = model();
        // 256 GB/s at 1.3 GHz = ~196.9 B/cycle; 196900 bytes ≈ 1000 cycles.
        let cycles = m.read_seq(196_900);
        assert!((995..=1005).contains(&cycles), "got {cycles}");
    }

    #[test]
    fn random_pays_penalty_and_rounds_to_bursts() {
        let mut m = model();
        let seq = m.read_seq(64);
        let mut m2 = model();
        let rand = m2.read_random(1); // rounds to one 64-byte burst
        assert_eq!(m2.counters().rand_read_bytes, 64);
        assert_eq!(m2.counters().rand_transactions, 1);
        assert!(rand >= 8 * seq.max(1), "rand {rand} seq {seq}");
        // A single random burst pays at least the 25 ns row cycle.
        assert!(rand >= m2.row_miss_cycles(), "rand {rand} must cover the row miss");
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let mut m = model();
        m.read_seq(100);
        m.write_seq(50);
        m.read_random(64);
        m.write_random(65); // two bursts
        let c = m.counters();
        assert_eq!(c.seq_read_bytes, 100);
        assert_eq!(c.seq_write_bytes, 50);
        assert_eq!(c.rand_read_bytes, 64);
        assert_eq!(c.rand_write_bytes, 128);
        assert_eq!(c.rand_transactions, 3);
        assert_eq!(c.total_bytes(), 100 + 50 + 64 + 128);

        let mut other = DramCounters::default();
        other.merge(c);
        other.merge(c);
        assert_eq!(other.total_bytes(), 2 * c.total_bytes());
    }

    #[test]
    fn energy_tracks_bits_times_pj() {
        let mut m = model();
        m.read_seq(1000);
        let expect = 1000.0 * 8.0 * 3.97;
        assert!((m.energy_pj() - expect).abs() < 1e-6);
    }

    #[test]
    fn take_counters_resets() {
        let mut m = model();
        m.read_seq(10);
        let taken = m.take_counters();
        assert_eq!(taken.seq_read_bytes, 10);
        assert_eq!(m.counters().total_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn rejects_zero_bandwidth() {
        let _ = HbmModel::new(0.0, 1.0e9, 64, 8.0, 3.97);
    }
}
