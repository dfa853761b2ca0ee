//! Accelerator configuration: the paper's design points.
//!
//! The evaluated configuration (§VIII-A) is a 16×16 CPE array at 1.3 GHz
//! with the flexible-MAC row groups 4/4/4 rows × 4/5/6 MACs — 1216 MACs in
//! all — 1 MB output buffer, 128 KB weight buffer, and a 256 KB (small
//! datasets) or 512 KB (large datasets) input buffer. The Fig. 17 ablation
//! compares this against uniform-MAC Designs A–D.

use serde::{Deserialize, Serialize};

use gnnie_graph::{Dataset, PartitionerKind};
use gnnie_mem::cache::CachePolicyKind;
use gnnie_mem::TierSpec;

/// A group of CPE rows sharing a MAC count (the FM architecture, §IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowGroup {
    /// Number of CPE rows in the group.
    pub rows: usize,
    /// MAC units per CPE in this group.
    pub macs_per_cpe: usize,
}

/// The design points of the Fig. 17 ablation (§VIII-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Design {
    /// Baseline: 4 MACs/CPE uniform (1024 MACs).
    A,
    /// 5 MACs/CPE uniform (1280 MACs).
    B,
    /// 6 MACs/CPE uniform (1536 MACs).
    C,
    /// 7 MACs/CPE uniform (1792 MACs).
    D,
    /// GNNIE's flexible MAC: rows 1–8 × 4, 9–12 × 5, 13–16 × 6 (1216 MACs).
    E,
}

impl Design {
    /// All five designs in paper order.
    pub const ALL: [Design; 5] = [Design::A, Design::B, Design::C, Design::D, Design::E];

    /// The row-group layout of this design for a 16-row array.
    pub fn row_groups(self) -> Vec<RowGroup> {
        match self {
            Design::A => vec![RowGroup { rows: 16, macs_per_cpe: 4 }],
            Design::B => vec![RowGroup { rows: 16, macs_per_cpe: 5 }],
            Design::C => vec![RowGroup { rows: 16, macs_per_cpe: 6 }],
            Design::D => vec![RowGroup { rows: 16, macs_per_cpe: 7 }],
            Design::E => vec![
                RowGroup { rows: 8, macs_per_cpe: 4 },
                RowGroup { rows: 4, macs_per_cpe: 5 },
                RowGroup { rows: 4, macs_per_cpe: 6 },
            ],
        }
    }
}

impl std::fmt::Display for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Design {}",
            match self {
                Design::A => "A",
                Design::B => "B",
                Design::C => "C",
                Design::D => "D",
                Design::E => "E",
            }
        )
    }
}

/// Full accelerator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorConfig {
    /// CPE array rows (`M`).
    pub array_rows: usize,
    /// CPE array columns (`N`), each with a dedicated MPE.
    pub array_cols: usize,
    /// Flexible-MAC row groups, first rows to last; MAC counts must be
    /// monotonically nondecreasing (§IV-C).
    pub row_groups: Vec<RowGroup>,
    /// Clock frequency in Hz (paper: 1.3 GHz at 32 nm).
    pub clock_hz: f64,
    /// Input buffer capacity in bytes (256 KB small / 512 KB large).
    pub input_buffer_bytes: usize,
    /// Output buffer capacity in bytes (1 MB).
    pub output_buffer_bytes: usize,
    /// Weight buffer capacity in bytes (128 KB, double-buffered).
    pub weight_buffer_bytes: usize,
    /// Psum slots per MPE (rabbit/turtle in-flight vertex budget, §IV-B).
    pub mpe_psum_slots: usize,
    /// Special-function units (exp LUT, LeakyReLU, dividers): the paper
    /// interleaves SFU columns with the CPE array (§III); two columns of
    /// 16 gives 32.
    pub sfu_units: usize,
    /// Cache eviction threshold γ (§VI; paper uses a static 5).
    pub gamma: u32,
    /// Enable the flexible-MAC workload reordering (FM).
    pub enable_fm: bool,
    /// Enable load redistribution between CPE row pairs (LR).
    pub enable_lr: bool,
    /// Enable degree-balanced edge distribution during Aggregation (LB).
    pub enable_agg_lb: bool,
    /// Enable the degree-aware cache replacement policy (CP); when off,
    /// vertices are processed in id order with random DRAM fetches.
    pub enable_cache_policy: bool,
    /// Which replacement policy drives the cache walk when
    /// `enable_cache_policy` is on (the paper's α/γ policy, or one of the
    /// LRU/LFU/Belady ablation comparators).
    pub cache_policy: CachePolicyKind,
    /// Simulated accelerator chips. 1 reproduces the single-chip engine
    /// exactly; above 1 the Aggregation graph is partitioned, each chip
    /// walks its own partition with its own cache and DRAM channel, and
    /// boundary features cross the inter-chip link.
    pub chips: usize,
    /// How the graph is split across chips when `chips > 1`.
    pub partitioner: PartitionerKind,
    /// Inter-chip link bandwidth in bytes per accelerator cycle
    /// (default 32 ≈ 41.6 GB/s at 1.3 GHz, an NVLink-class serial link).
    pub link_bytes_per_cycle: u64,
    /// Fixed per-transfer link latency in cycles (serialization +
    /// handshake before the first byte lands).
    pub link_latency_cycles: u64,
    /// Tiered feature-cache hierarchy (on-chip → DRAM → SSD) for the
    /// Aggregation cache walk. `None` keeps the flat single-channel
    /// DRAM engine, byte-identical to the pre-tier simulator.
    pub tiers: Option<TierSpec>,
}

impl AcceleratorConfig {
    /// The paper's evaluated configuration for `dataset` (§VIII-A): input
    /// buffer 256 KB for Cora/Citeseer, 512 KB for Pubmed/PPI/Reddit; all
    /// optimizations on.
    pub fn paper(dataset: Dataset) -> Self {
        let input_buffer_bytes = match dataset {
            Dataset::Cora | Dataset::Citeseer => 256 * 1024,
            Dataset::Pubmed | Dataset::Ppi | Dataset::Reddit => 512 * 1024,
        };
        Self::with_design(Design::E, input_buffer_bytes)
    }

    /// A configuration with `design`'s MAC layout and all optimizations on.
    pub fn with_design(design: Design, input_buffer_bytes: usize) -> Self {
        AcceleratorConfig {
            array_rows: 16,
            array_cols: 16,
            row_groups: design.row_groups(),
            clock_hz: 1.3e9,
            input_buffer_bytes,
            output_buffer_bytes: 1024 * 1024,
            weight_buffer_bytes: 128 * 1024,
            mpe_psum_slots: 64,
            sfu_units: 32,
            gamma: 5,
            enable_fm: design == Design::E,
            enable_lr: design == Design::E,
            enable_agg_lb: true,
            enable_cache_policy: true,
            cache_policy: CachePolicyKind::Paper,
            chips: 1,
            partitioner: PartitionerKind::Range,
            link_bytes_per_cycle: 32,
            link_latency_cycles: 500,
            tiers: None,
        }
    }

    /// The ablation baseline ("Design A" in §VIII-E): uniform 4 MACs/CPE,
    /// no FM, no LR, no aggregation LB, no cache policy.
    pub fn ablation_baseline(input_buffer_bytes: usize) -> Self {
        let mut cfg = Self::with_design(Design::A, input_buffer_bytes);
        cfg.enable_agg_lb = false;
        cfg.enable_cache_policy = false;
        cfg
    }

    /// Validates structural invariants.
    ///
    /// # Panics
    ///
    /// Panics if row groups don't cover `array_rows`, MAC counts are not
    /// monotonically nondecreasing, or any size is zero.
    pub fn validate(&self) {
        assert!(self.array_rows > 0 && self.array_cols > 0, "array must be nonempty");
        let covered: usize = self.row_groups.iter().map(|g| g.rows).sum();
        assert_eq!(covered, self.array_rows, "row groups must cover all rows");
        let mut prev = 0;
        for g in &self.row_groups {
            assert!(g.macs_per_cpe >= prev, "MAC counts must be nondecreasing (§IV-C)");
            assert!(g.macs_per_cpe > 0, "every CPE needs at least one MAC");
            prev = g.macs_per_cpe;
        }
        assert!(self.clock_hz > 0.0, "clock must be positive");
        assert!(
            self.input_buffer_bytes > 0
                && self.output_buffer_bytes > 0
                && self.weight_buffer_bytes > 0,
            "buffers must be nonempty"
        );
        assert!(self.mpe_psum_slots > 0, "MPEs need psum slots");
        assert!(self.sfu_units > 0, "need at least one SFU");
        assert!(self.chips >= 1, "chips must be at least 1");
        if self.chips > 1 {
            assert!(
                self.link_bytes_per_cycle > 0,
                "inter-chip link bandwidth must be positive"
            );
        }
        if let Some(TierSpec::Split { total_bytes, .. }) = self.tiers {
            assert!(total_bytes > 0, "tier split budget must be positive");
        }
    }

    /// MACs per CPE in array row `r` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `r >= array_rows`.
    pub fn macs_in_row(&self, r: usize) -> usize {
        assert!(r < self.array_rows, "row {r} out of range");
        let mut base = 0;
        for g in &self.row_groups {
            if r < base + g.rows {
                return g.macs_per_cpe;
            }
            base += g.rows;
        }
        unreachable!("validate() guarantees coverage")
    }

    /// Total MAC units in the array.
    pub fn total_macs(&self) -> usize {
        self.row_groups.iter().map(|g| g.rows * g.macs_per_cpe * self.array_cols).sum()
    }

    /// Number of CPEs.
    pub fn num_cpes(&self) -> usize {
        self.array_rows * self.array_cols
    }

    /// Weight-buffer bytes needed to keep all `array_cols` CPE columns
    /// occupied for a layer with `f_in` input features at
    /// `bytes_per_weight`, double-buffered — the paper's §VIII-A sizing
    /// arithmetic ("4K×16×2 = 128KB" for Citeseer's ~4K features).
    pub fn weight_buffer_required(&self, f_in: usize, bytes_per_weight: usize) -> usize {
        f_in * self.array_cols * bytes_per_weight * 2
    }

    /// `true` if the configured weight buffer can double-buffer a layer
    /// with `f_in` input features at `bytes_per_weight`.
    pub fn weight_buffer_fits(&self, f_in: usize, bytes_per_weight: usize) -> bool {
        self.weight_buffer_required(f_in, bytes_per_weight) <= self.weight_buffer_bytes
    }

    /// Peak throughput in TOPS (2 ops per MAC per cycle).
    pub fn peak_tops(&self) -> f64 {
        2.0 * self.total_macs() as f64 * self.clock_hz / 1e12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_design_e_has_1216_macs() {
        let cfg = AcceleratorConfig::paper(Dataset::Cora);
        cfg.validate();
        assert_eq!(cfg.total_macs(), 1216);
        assert_eq!(cfg.num_cpes(), 256);
        // Paper Table IV: peak 3.17 TOPS (2·1216·1.3 GHz = 3.16).
        assert!((cfg.peak_tops() - 3.16).abs() < 0.02, "peak {}", cfg.peak_tops());
    }

    #[test]
    fn design_mac_totals_match_paper() {
        let totals: Vec<usize> = Design::ALL
            .iter()
            .map(|&d| AcceleratorConfig::with_design(d, 1024).total_macs())
            .collect();
        assert_eq!(totals, vec![1024, 1280, 1536, 1792, 1216]);
    }

    #[test]
    fn macs_in_row_follows_groups() {
        let cfg = AcceleratorConfig::with_design(Design::E, 1024);
        assert_eq!(cfg.macs_in_row(0), 4);
        assert_eq!(cfg.macs_in_row(7), 4);
        assert_eq!(cfg.macs_in_row(8), 5);
        assert_eq!(cfg.macs_in_row(11), 5);
        assert_eq!(cfg.macs_in_row(12), 6);
        assert_eq!(cfg.macs_in_row(15), 6);
    }

    #[test]
    fn weight_buffer_sizing_reproduces_the_papers_arithmetic() {
        // §VIII-A: "for the dataset with the largest feature vector
        // (~4K for CS), to keep 16 CPE columns occupied, the buffer size
        // is 4K×16×2 (for double-buffering) = 128KB" at 1-byte weights.
        let cfg = AcceleratorConfig::paper(Dataset::Citeseer);
        let f_cs = Dataset::Citeseer.spec().feature_len; // 3703
        assert!(cfg.weight_buffer_fits(f_cs, 1), "CS must fit the 128KB buffer");
        assert_eq!(cfg.weight_buffer_required(4096, 1), 128 * 1024);
        // 4-byte weights would not fit — the 1-byte quantization is what
        // makes the 128KB buffer work (ablation A3).
        assert!(!cfg.weight_buffer_fits(f_cs, 4));
        // Every Table II dataset fits at 1 byte.
        for d in Dataset::ALL {
            assert!(cfg.weight_buffer_fits(d.spec().feature_len, 1), "{d:?}");
        }
    }

    #[test]
    fn input_buffer_depends_on_dataset() {
        assert_eq!(AcceleratorConfig::paper(Dataset::Cora).input_buffer_bytes, 256 * 1024);
        assert_eq!(AcceleratorConfig::paper(Dataset::Reddit).input_buffer_bytes, 512 * 1024);
    }

    #[test]
    fn ablation_baseline_disables_everything() {
        let cfg = AcceleratorConfig::ablation_baseline(256 * 1024);
        assert!(!cfg.enable_fm && !cfg.enable_lr && !cfg.enable_agg_lb);
        assert!(!cfg.enable_cache_policy);
        assert_eq!(cfg.total_macs(), 1024);
    }

    #[test]
    #[should_panic(expected = "row groups must cover all rows")]
    fn validate_rejects_uncovered_rows() {
        let mut cfg = AcceleratorConfig::with_design(Design::A, 1024);
        cfg.row_groups = vec![RowGroup { rows: 10, macs_per_cpe: 4 }];
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn validate_rejects_decreasing_macs() {
        let mut cfg = AcceleratorConfig::with_design(Design::E, 1024);
        cfg.row_groups =
            vec![RowGroup { rows: 8, macs_per_cpe: 6 }, RowGroup { rows: 8, macs_per_cpe: 4 }];
        cfg.validate();
    }

    #[test]
    fn design_display() {
        assert_eq!(Design::E.to_string(), "Design E");
    }

    #[test]
    #[should_panic(expected = "chips must be at least 1")]
    fn validate_rejects_zero_chips() {
        let mut cfg = AcceleratorConfig::with_design(Design::E, 1024);
        cfg.chips = 0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "link bandwidth must be positive")]
    fn validate_rejects_a_zero_bandwidth_link_on_multi_chip() {
        let mut cfg = AcceleratorConfig::with_design(Design::E, 1024);
        cfg.chips = 4;
        cfg.link_bytes_per_cycle = 0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "tier split budget must be positive")]
    fn validate_rejects_an_empty_tier_split_budget() {
        let mut cfg = AcceleratorConfig::with_design(Design::E, 1024);
        cfg.tiers = Some(TierSpec::Split { total_bytes: 0, mode: gnnie_mem::SplitMode::Even });
        cfg.validate();
    }

    #[test]
    fn explicit_tier_budgets_may_be_degenerate() {
        // Zero-capacity explicit tiers are a legitimate degenerate
        // hierarchy (the backstop absorbs everything); only the split
        // modes need a real budget to divide.
        let mut cfg = AcceleratorConfig::paper(Dataset::Cora);
        cfg.tiers = Some(TierSpec::Explicit(gnnie_mem::TierBudgets {
            onchip_bytes: 0,
            dram_bytes: 0,
            ssd_bytes: Some(0),
        }));
        cfg.validate();
    }

    #[test]
    fn single_chip_defaults_and_multi_chip_knobs_validate() {
        let cfg = AcceleratorConfig::paper(Dataset::Cora);
        assert_eq!(cfg.chips, 1);
        assert_eq!(cfg.partitioner, PartitionerKind::Range);
        let mut multi = cfg.clone();
        multi.chips = 8;
        multi.partitioner = PartitionerKind::EdgeCut;
        multi.validate();
        // A single chip never touches the link, so its bandwidth may be
        // anything, including zero.
        let mut single = cfg;
        single.link_bytes_per_cycle = 0;
        single.validate();
    }

    #[test]
    fn paper_config_selects_the_paper_cache_policy() {
        let cfg = AcceleratorConfig::paper(Dataset::Cora);
        assert_eq!(cfg.cache_policy, CachePolicyKind::Paper);
        // Ablation comparators swap in without touching anything else.
        let mut ablated = cfg.clone();
        ablated.cache_policy = CachePolicyKind::Belady;
        ablated.validate();
        assert_eq!(ablated.total_macs(), cfg.total_macs());
    }
}
