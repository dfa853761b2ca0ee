//! Double buffering of the on-chip SRAM buffers.
//!
//! GNNIE's on-chip storage (paper §III, §VIII-A): a 1 MB output buffer,
//! 128 KB weight buffer, and a 256/512 KB input buffer, all double-buffered
//! so "off-chip data is fetched while the PE array computes".

use serde::{Deserialize, Serialize};

/// Double-buffering overlap model.
///
/// With two banks, fetching batch `i+1` overlaps computing batch `i`
/// (paper §III: "off-chip data is fetched while the PE array computes"; and
/// §IV-B for weights). Per batch the pipeline advances at
/// `max(compute, fetch)`; the first fetch cannot be hidden.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DoubleBuffer {
    total_cycles: u64,
    stall_cycles: u64,
    batches: u64,
    first_fetch_cycles: u64,
}

impl DoubleBuffer {
    /// Creates an idle double buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accounts one batch with the given compute and fetch cycles.
    /// Returns the cycles this batch added to the pipeline.
    pub fn push_batch(&mut self, compute_cycles: u64, fetch_cycles: u64) -> u64 {
        if self.batches == 0 {
            // The very first fetch has nothing to hide behind.
            self.first_fetch_cycles = fetch_cycles;
            self.total_cycles += fetch_cycles + compute_cycles;
            self.batches = 1;
            return fetch_cycles + compute_cycles;
        }
        let step = compute_cycles.max(fetch_cycles);
        self.stall_cycles += step - compute_cycles;
        self.total_cycles += step;
        self.batches += 1;
        step
    }

    /// Total pipeline cycles so far.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Cycles the compute array sat idle waiting for memory.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Number of batches pushed.
    pub fn batches(&self) -> u64 {
        self.batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_buffer_hides_fast_fetches() {
        let mut db = DoubleBuffer::new();
        db.push_batch(100, 100); // first batch: fetch exposed
        for _ in 0..9 {
            db.push_batch(100, 40); // fetch fully hidden
        }
        assert_eq!(db.total_cycles(), 200 + 9 * 100);
        assert_eq!(db.stall_cycles(), 0);
    }

    #[test]
    fn double_buffer_exposes_slow_fetches() {
        let mut db = DoubleBuffer::new();
        db.push_batch(100, 100);
        db.push_batch(100, 300);
        assert_eq!(db.total_cycles(), 200 + 300);
        assert_eq!(db.stall_cycles(), 200);
    }

    #[test]
    fn compute_bound_pipeline_has_no_stalls() {
        let mut db = DoubleBuffer::new();
        for _ in 0..5 {
            db.push_batch(1000, 10);
        }
        assert_eq!(db.stall_cycles(), 0);
        assert_eq!(db.batches(), 5);
    }
}
