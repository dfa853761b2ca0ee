//! Inter-PE interconnect model: the communication side of load balancing.
//!
//! The paper's §VII argues that GNNIE's load balancing is cheap on the
//! wire where competing schemes are expensive:
//!
//! * **GNNIE LR** makes one static offload decision per pass, *after* FM,
//!   between paired CPE rows — the only traffic is the weights travelling
//!   with the offloaded blocks over the row-broadcast bus ("It results in
//!   low inter-PE communication, low control overhead").
//! * **AWB-GCN** performs "multiple rounds of runtime load-rebalancing,
//!   but this leads to high inter-PE communication" through a multistage
//!   network: every round re-routes work units (and their operands)
//!   across `⌈log₂ P⌉` switch stages and broadcasts fresh routing state.
//! * **EnGN** uses a ring-edge-reduce (RER) dataflow where "each PE
//!   broadcasts its data to other PEs in the same column": every partial
//!   circulates the column ring regardless of whether a hop is useful.
//!
//! This module gives the three schemes a common currency — **word-hops**,
//! cycles, and picojoules over an explicit topology — so the ablation
//! harness (`gnnie-bench`, Ablation A5) can put numbers behind the §VII
//! comparison. It is a standalone analysis layer: the engine's headline
//! cycle counts already charge LR through the weight-transfer toll, so
//! NoC results are reported separately rather than double-counted.

use serde::{Deserialize, Serialize};

use crate::cpe::{div_ceil, CpeArray};
use crate::weighting::RowSchedule;

/// An interconnect topology with a hop-distance metric.
///
/// Hops count link traversals between adjacent nodes (or switch stages,
/// for the indirect multistage network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Topology {
    /// A shared broadcast bus: any pair of nodes is one transaction apart.
    /// GNNIE's row/column buses (§III: "Interleaved placement allows low
    /// latency and communication overhead with CPEs").
    Bus {
        /// Nodes on the bus.
        nodes: usize,
    },
    /// A unidirectional ring of `nodes` (EnGN's ring-edge-reduce).
    Ring {
        /// Nodes on the ring.
        nodes: usize,
    },
    /// A 2-D mesh with Manhattan routing.
    Mesh2d {
        /// Mesh rows.
        rows: usize,
        /// Mesh columns.
        cols: usize,
    },
    /// An indirect multistage (omega/butterfly) network over `ports`
    /// endpoints: every route crosses `⌈log₂ ports⌉` switch stages
    /// (AWB-GCN's rebalancing fabric).
    Multistage {
        /// Endpoint count.
        ports: usize,
    },
}

impl Topology {
    /// Number of endpoints.
    pub fn nodes(&self) -> usize {
        match *self {
            Topology::Bus { nodes } | Topology::Ring { nodes } => nodes,
            Topology::Mesh2d { rows, cols } => rows * cols,
            Topology::Multistage { ports } => ports,
        }
    }

    /// Hop count from node `a` to node `b`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn hops(&self, a: usize, b: usize) -> u64 {
        let n = self.nodes();
        assert!(a < n && b < n, "node index out of range ({a}, {b}) on {n} nodes");
        if a == b {
            return 0;
        }
        match *self {
            Topology::Bus { .. } => 1,
            Topology::Ring { nodes } => {
                // Unidirectional: data only travels forward around the ring.
                ((b + nodes - a) % nodes) as u64
            }
            Topology::Mesh2d { cols, .. } => {
                let (ar, ac) = (a / cols, a % cols);
                let (br, bc) = (b / cols, b % cols);
                (ar.abs_diff(br) + ac.abs_diff(bc)) as u64
            }
            Topology::Multistage { ports } => log2_ceil(ports),
        }
    }

    /// The worst-case hop count between any two distinct nodes.
    pub fn diameter(&self) -> u64 {
        match *self {
            Topology::Bus { .. } => 1,
            Topology::Ring { nodes } => nodes.saturating_sub(1) as u64,
            Topology::Mesh2d { rows, cols } => (rows - 1 + (cols - 1)) as u64,
            Topology::Multistage { ports } => log2_ceil(ports),
        }
    }
}

fn log2_ceil(n: usize) -> u64 {
    debug_assert!(n > 0);
    (usize::BITS - (n - 1).leading_zeros()) as u64
}

/// Physical link parameters shared by all schemes, so the comparison is
/// apples-to-apples: identical wires, different traffic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkParams {
    /// Words a link (or bus transaction) moves per cycle.
    pub words_per_cycle: u64,
    /// Energy per word per hop, in picojoules. On-chip wire energy is
    /// orders of magnitude below the 3.97 pJ/bit HBM figure; 0.06 pJ/word
    /// ≈ 2 fJ/bit/mm at a ~1 mm PE pitch in 32 nm.
    pub pj_per_word_hop: f64,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams { words_per_cycle: 16, pj_per_word_hop: 0.06 }
    }
}

/// Accumulated interconnect traffic for one scheme on one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CommLedger {
    /// Payload words injected into the network.
    pub words: u64,
    /// Words × hops actually traversed (the energy-relevant volume).
    pub word_hops: u64,
    /// Control/bookkeeping messages (routing updates, round barriers).
    pub control_msgs: u64,
    /// Rebalancing decision rounds taken.
    pub rounds: u64,
}

impl CommLedger {
    /// Records a payload transfer of `words` across `hops`.
    pub fn transfer(&mut self, words: u64, hops: u64) {
        self.words += words;
        self.word_hops += words * hops;
    }

    /// Serialized transfer cycles on the given links (control messages
    /// count as one word each).
    pub fn cycles(&self, link: &LinkParams) -> u64 {
        div_ceil(self.word_hops + self.control_msgs, link.words_per_cycle.max(1))
    }

    /// Transfer energy in picojoules (control messages count as one
    /// word-hop each).
    pub fn energy_pj(&self, link: &LinkParams) -> f64 {
        (self.word_hops + self.control_msgs) as f64 * link.pj_per_word_hop
    }

    /// Folds another ledger into this one.
    pub fn merge(&mut self, other: &CommLedger) {
        self.words += other.words;
        self.word_hops += other.word_hops;
        self.control_msgs += other.control_msgs;
        self.rounds += other.rounds;
    }
}

/// The load-balancing communication schemes compared in §VII.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RebalanceScheme {
    /// GNNIE: static FM binning + one LR offload per pass over the bus.
    GnnieLr,
    /// AWB-GCN-style iterative runtime rebalancing over a multistage
    /// network.
    AwbMultistage,
    /// EnGN-style ring-edge-reduce column broadcast.
    EngnRer,
}

impl std::fmt::Display for RebalanceScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RebalanceScheme::GnnieLr => "GNNIE FM+LR (bus)",
            RebalanceScheme::AwbMultistage => "AWB-style multistage rebalance",
            RebalanceScheme::EngnRer => "EnGN-style ring-edge-reduce",
        })
    }
}

/// GNNIE's LR traffic for one pass: the weights of every offloaded block
/// (`k` words each) cross the bus once, plus one control message per
/// heavy/light pair selected by the controller (§IV-C).
pub fn lr_traffic(sched: &RowSchedule, k: usize) -> CommLedger {
    let mut ledger =
        CommLedger { rounds: u64::from(!sched.lr_moves.is_empty()), ..Default::default() };
    let bus = Topology::Bus { nodes: 16.max(sched.rows.len()) };
    for mv in &sched.lr_moves {
        ledger.transfer(mv.blocks * k as u64, bus.hops(mv.from_row, mv.to_row));
        ledger.control_msgs += 1;
    }
    ledger
}

/// Parameters for the AWB-GCN-style runtime rebalancing model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AwbRebalanceParams {
    /// Stop when `(max − mean)/mean` falls below this (AWB-GCN iterates
    /// until the distribution is "smooth").
    pub imbalance_tolerance: f64,
    /// Hard cap on rounds.
    pub max_rounds: u64,
    /// Operand words that travel with one migrated unit of work (the
    /// feature block the remote PE now needs).
    pub words_per_unit: u64,
}

impl Default for AwbRebalanceParams {
    fn default() -> Self {
        AwbRebalanceParams { imbalance_tolerance: 0.05, max_rounds: 16, words_per_unit: 16 }
    }
}

/// AWB-GCN-style iterative rebalancing (§VII: "multiple rounds of runtime
/// load-rebalancing ... high inter-PE communication").
///
/// Each round: every PE above the mean load offloads half its excess to
/// PEs below the mean; the migrated units carry their operands across the
/// multistage network (`⌈log₂ P⌉` hops each), and the controller
/// broadcasts new routing state to all P PEs. Rounds repeat until the
/// relative imbalance drops under the tolerance or the cap is hit.
/// Returns the ledger and the final per-PE load.
pub fn awb_rebalance_traffic(
    loads: &[u64],
    params: AwbRebalanceParams,
) -> (CommLedger, Vec<u64>) {
    let mut ledger = CommLedger::default();
    let p = loads.len();
    if p == 0 {
        return (ledger, Vec::new());
    }
    let net = Topology::Multistage { ports: p };
    let hops = net.diameter();
    let total: u64 = loads.iter().sum();
    let mean = total as f64 / p as f64;
    let mut cur: Vec<u64> = loads.to_vec();
    if mean == 0.0 {
        return (ledger, cur);
    }
    for _ in 0..params.max_rounds {
        let max = cur.iter().copied().max().unwrap_or(0);
        if (max as f64 - mean) / mean <= params.imbalance_tolerance {
            break;
        }
        ledger.rounds += 1;
        // Each overloaded PE sheds half its excess this round; receivers
        // absorb proportionally to their slack (modelled in aggregate).
        let mut shed_total = 0u64;
        for load in cur.iter_mut() {
            let excess = load.saturating_sub(mean.ceil() as u64);
            let shed = excess / 2;
            *load -= shed;
            shed_total += shed;
        }
        let slacks: Vec<u64> =
            cur.iter().map(|&l| (mean.floor() as u64).saturating_sub(l)).collect();
        let slack_total: u64 = slacks.iter().sum::<u64>().max(1);
        let mut distributed = 0u64;
        for (load, &slack) in cur.iter_mut().zip(&slacks) {
            let share = shed_total * slack / slack_total;
            *load += share;
            distributed += share;
        }
        // Integer shares round down; park the remainder on the slackest
        // PE so work is conserved exactly.
        if let Some(idx) = (0..p).max_by_key(|&i| (slacks[i], std::cmp::Reverse(i))) {
            cur[idx] += shed_total - distributed;
        }
        ledger.transfer(shed_total * params.words_per_unit, hops);
        // Routing-state broadcast: one message to every PE.
        ledger.control_msgs += p as u64;
        if shed_total == 0 {
            break;
        }
    }
    (ledger, cur)
}

/// EnGN-style ring-edge-reduce traffic for one aggregation phase: each of
/// the `edge_updates` partial results (one `f_out`-word vector each)
/// circulates the column ring so every PE in the column sees it —
/// `nodes − 1` hops per word, useful or not (§VII).
pub fn rer_traffic(edge_updates: u64, f_out: usize, column_nodes: usize) -> CommLedger {
    let ring = Topology::Ring { nodes: column_nodes.max(2) };
    let mut ledger = CommLedger::default();
    ledger.transfer(edge_updates * f_out as u64, ring.diameter());
    ledger
}

/// GNNIE's aggregation-side traffic on the same phase: each edge update
/// sends its partial one bus transaction up the column to the MPE
/// (§V-C's pairwise adder-tree placement keeps operands local).
pub fn gnnie_aggregation_traffic(edge_updates: u64, f_out: usize) -> CommLedger {
    let mut ledger = CommLedger::default();
    ledger.transfer(edge_updates * f_out as u64, 1);
    ledger
}

/// A named (scheme, ledger) pair with derived cycles/energy, ready for
/// the harness table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommReport {
    /// Which scheme produced the traffic.
    pub scheme: RebalanceScheme,
    /// The raw traffic ledger.
    pub ledger: CommLedger,
    /// Serialized transfer cycles under [`LinkParams`].
    pub cycles: u64,
    /// Transfer energy in picojoules.
    pub energy_pj: f64,
}

impl CommReport {
    /// Evaluates `ledger` under `link`.
    pub fn new(scheme: RebalanceScheme, ledger: CommLedger, link: &LinkParams) -> Self {
        CommReport {
            scheme,
            ledger,
            cycles: ledger.cycles(link),
            energy_pj: ledger.energy_pj(link),
        }
    }
}

/// Convenience: the per-row loads (cycles) of a weighting schedule, the
/// quantity AWB-GCN's runtime rebalancer equalizes.
pub fn schedule_loads(sched: &RowSchedule, arr: &CpeArray) -> Vec<u64> {
    sched.per_row_cycles(arr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
    use crate::weighting::{schedule, BlockProfile, WeightingMode};
    use gnnie_graph::{Dataset, GraphDataset};

    #[test]
    fn bus_is_one_hop_everywhere() {
        let t = Topology::Bus { nodes: 16 };
        assert_eq!(t.hops(0, 15), 1);
        assert_eq!(t.hops(3, 4), 1);
        assert_eq!(t.hops(5, 5), 0);
        assert_eq!(t.diameter(), 1);
    }

    #[test]
    fn ring_hops_wrap_forward_only() {
        let t = Topology::Ring { nodes: 8 };
        assert_eq!(t.hops(0, 1), 1);
        assert_eq!(t.hops(1, 0), 7, "unidirectional ring must wrap");
        assert_eq!(t.hops(6, 2), 4);
        assert_eq!(t.diameter(), 7);
    }

    #[test]
    fn mesh_uses_manhattan_distance() {
        let t = Topology::Mesh2d { rows: 4, cols: 4 };
        assert_eq!(t.hops(0, 15), 6); // (0,0) → (3,3)
        assert_eq!(t.hops(5, 6), 1); // (1,1) → (1,2)
        assert_eq!(t.hops(2, 14), 3); // (0,2) → (3,2)
        assert_eq!(t.diameter(), 6);
    }

    #[test]
    fn multistage_crosses_log2_stages() {
        assert_eq!(Topology::Multistage { ports: 16 }.hops(0, 9), 4);
        assert_eq!(Topology::Multistage { ports: 256 }.hops(1, 2), 8);
        assert_eq!(Topology::Multistage { ports: 17 }.diameter(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hops_reject_bad_index() {
        let _ = Topology::Bus { nodes: 4 }.hops(0, 4);
    }

    #[test]
    fn ledger_accumulates_and_prices() {
        let mut l = CommLedger::default();
        l.transfer(100, 3);
        l.transfer(50, 1);
        l.control_msgs = 10;
        assert_eq!(l.words, 150);
        assert_eq!(l.word_hops, 350);
        let link = LinkParams::default();
        assert_eq!(l.cycles(&link), (350u64 + 10).div_ceil(16));
        assert!((l.energy_pj(&link) - 360.0 * 0.06).abs() < 1e-9);
    }

    #[test]
    fn ledger_merge_adds_fields() {
        let mut a = CommLedger { words: 1, word_hops: 2, control_msgs: 3, rounds: 1 };
        a.merge(&CommLedger { words: 10, word_hops: 20, control_msgs: 30, rounds: 2 });
        assert_eq!(a, CommLedger { words: 11, word_hops: 22, control_msgs: 33, rounds: 3 });
    }

    #[test]
    fn lr_traffic_matches_schedule_moves() {
        let ds = GraphDataset::generate(Dataset::Cora, 0.3, 7);
        let cfg = AcceleratorConfig::paper(Dataset::Cora);
        let arr = CpeArray::new(&cfg);
        let profile = BlockProfile::from_sparse(&ds.features, arr.rows());
        let sched = schedule(&profile, &arr, WeightingMode::FmLr);
        let ledger = lr_traffic(&sched, profile.k());
        assert_eq!(ledger.words, sched.lr_moved_blocks * profile.k() as u64);
        // Bus: every move is exactly one hop.
        assert_eq!(ledger.word_hops, ledger.words);
        assert_eq!(ledger.control_msgs, sched.lr_moves.len() as u64);
        assert!(ledger.rounds <= 1, "LR decides once per pass");
    }

    #[test]
    fn awb_rebalance_converges_and_conserves_load() {
        let loads = vec![1000, 10, 10, 10, 10, 10, 10, 10];
        let total: u64 = loads.iter().sum();
        let (ledger, after) = awb_rebalance_traffic(&loads, AwbRebalanceParams::default());
        assert!(ledger.rounds >= 2, "imbalanced input needs multiple rounds");
        assert!(ledger.words > 0);
        let after_total: u64 = after.iter().sum();
        assert_eq!(after_total, total, "rebalancing must conserve work");
        let max = *after.iter().max().unwrap() as f64;
        let mean = total as f64 / loads.len() as f64;
        assert!(max / mean < 1.6, "load must flatten: {after:?}");
    }

    #[test]
    fn awb_balanced_input_needs_no_rounds() {
        let (ledger, after) = awb_rebalance_traffic(&[100; 16], AwbRebalanceParams::default());
        assert_eq!(ledger.rounds, 0);
        assert_eq!(ledger.words, 0);
        assert_eq!(after, vec![100; 16]);
    }

    #[test]
    fn awb_empty_and_zero_loads_are_free() {
        let (l0, v0) = awb_rebalance_traffic(&[], AwbRebalanceParams::default());
        assert_eq!((l0.words, v0.len()), (0, 0));
        let (l1, _) = awb_rebalance_traffic(&[0, 0, 0], AwbRebalanceParams::default());
        assert_eq!(l1.rounds, 0);
    }

    #[test]
    fn awb_respects_round_cap() {
        let params = AwbRebalanceParams {
            imbalance_tolerance: 0.0, // unreachable: forces the cap
            max_rounds: 3,
            words_per_unit: 4,
        };
        let (ledger, _) = awb_rebalance_traffic(&[1_000_000, 1, 1, 1], params);
        assert!(ledger.rounds <= 3);
    }

    #[test]
    fn rer_moves_more_than_gnnie_bus_on_the_same_phase() {
        let rer = rer_traffic(10_000, 128, 16);
        let bus = gnnie_aggregation_traffic(10_000, 128);
        assert_eq!(rer.words, bus.words, "same payload");
        assert_eq!(rer.word_hops, 15 * bus.word_hops, "ring broadcast is 15x the bus");
    }

    #[test]
    fn comm_report_derives_consistent_numbers() {
        let link = LinkParams::default();
        let ledger = rer_traffic(100, 16, 16);
        let report = CommReport::new(RebalanceScheme::EngnRer, ledger, &link);
        assert_eq!(report.cycles, ledger.cycles(&link));
        assert!((report.energy_pj - ledger.energy_pj(&link)).abs() < 1e-9);
        assert_eq!(RebalanceScheme::EngnRer.to_string(), "EnGN-style ring-edge-reduce");
    }

    #[test]
    fn gnnie_lr_is_orders_of_magnitude_cheaper_than_awb_on_real_features() {
        // The §VII headline, end to end on a real dataset profile.
        let ds = GraphDataset::generate(Dataset::Citeseer, 0.3, 11);
        let cfg = AcceleratorConfig::paper(Dataset::Citeseer);
        let arr = CpeArray::new(&cfg);
        let profile = BlockProfile::from_sparse(&ds.features, arr.rows());
        // GNNIE: LR on top of FM.
        let lr_sched = schedule(&profile, &arr, WeightingMode::FmLr);
        let gnnie = lr_traffic(&lr_sched, profile.k());
        // AWB: runtime rebalance from the unbalanced (baseline) load.
        let base_sched = schedule(&profile, &arr, WeightingMode::Baseline);
        let loads = schedule_loads(&base_sched, &arr);
        let (awb, _) = awb_rebalance_traffic(&loads, AwbRebalanceParams::default());
        assert!(
            awb.word_hops > 10 * gnnie.word_hops.max(1),
            "AWB {awb:?} must dwarf GNNIE {gnnie:?}"
        );
    }
}
