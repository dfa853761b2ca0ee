//! The Aggregation-phase cycle model (paper §V–VI).
//!
//! Aggregation walks the dynamic subgraph held in the input buffer by the
//! degree-aware cache (`gnnie-mem`). Per cache iteration the edges with
//! both endpoints resident are executed as pairwise vector operations on
//! the CPEs:
//!
//! * with **LB** (degree-dependent load distribution, §V-C) the directed
//!   edge updates spread evenly over the whole array — the iteration costs
//!   the ideal `⌈ops / total MACs⌉`;
//! * without LB each vertex's adder chain serializes on one CPE, so the
//!   highest-degree vertex in the iteration gates it (the power-law tail
//!   the paper calls out);
//! * for **GATs** each edge additionally runs
//!   `add → LeakyReLU → exp(LUT) → multiply` through the SFUs (Fig. 7),
//!   preceded by the two linear-complexity attention dot passes (§V-A/B)
//!   and followed by the softmax division.
//!
//! DRAM fetches overlap compute through double buffering; the phase total
//! uses `gnnie-mem`'s [`DoubleBuffer`] accounting.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use gnnie_graph::{CsrGraph, GraphPartition, Permutation};
use gnnie_mem::cache::{build_edge_index, IterationStats};
use gnnie_mem::{
    CacheConfig, CacheSim, CacheSimResult, DoubleBuffer, DramCounters, HbmModel,
    MemoryHierarchy, SimPool,
};

use crate::config::AcceleratorConfig;
use crate::cpe::{div_ceil, CpeArray};
use crate::gat::AttentionCost;

/// Cap on the coordinate-array entries pinned per cached vertex; hub
/// lists beyond this stream through in chunks (see capacity sizing in
/// [`simulate_aggregation`]).
pub const MAX_CACHED_NEIGHBORS_PER_VERTEX: u64 = 64;

/// Parameters of one Aggregation invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregationParams {
    /// Feature width being aggregated (`F_out` of the layer).
    pub f_out: usize,
    /// GAT mode: per-edge attention ops and the softmax pipeline.
    pub is_gat: bool,
}

/// Outcome of the Aggregation cycle model for one layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AggregationReport {
    /// Whether the degree-aware cache policy (CP) drove the walk.
    pub cache_policy_used: bool,
    /// Whether LB spread edge updates across the array.
    pub load_balanced: bool,
    /// Full cache simulation result (None for the id-order baseline).
    pub cache: Option<CacheSimResult>,
    /// CPE compute cycles across all iterations.
    pub compute_cycles: u64,
    /// SFU-bound cycles (GAT only; included in `compute_cycles`).
    pub sfu_cycles: u64,
    /// GAT-only: attention partial dot passes plus softmax division.
    pub attention_cycles: u64,
    /// DRAM cycles for vertex/psum traffic.
    pub dram_cycles: u64,
    /// Stall cycles where compute waited on DRAM despite double buffering.
    pub stall_cycles: u64,
    /// Phase total (compute/fetch overlapped, plus attention passes).
    pub total_cycles: u64,
    /// Directed edge updates executed (2 per undirected edge).
    pub edge_updates: u64,
    /// MAC operations issued.
    pub macs_issued: u64,
    /// Exponential evaluations (GAT softmax numerators).
    pub exp_evals: u64,
    /// Vertices the walk covered.
    pub vertices: u64,
    /// Boundary feature bytes moved over the inter-chip link (0 on a
    /// single chip).
    pub inter_chip_bytes: u64,
    /// Cycles spent on inter-chip transfers (0 on a single chip).
    pub inter_chip_cycles: u64,
    /// Per-chip timeline of the scale-out walk, in partition order
    /// (empty on single-chip runs). Filled by the serial merge loop, so
    /// it inherits the replay-stable contract of the merged report —
    /// the tracer reconstructs per-chip span tracks from these lanes
    /// without touching the sharded walk itself.
    pub chip_lanes: Vec<ChipLane>,
}

/// One chip's share of a scale-out Aggregation phase: its own partition
/// walk, its side of the cut-edge updates, and its halo transfer over
/// the inter-chip link.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChipLane {
    /// Partition index (chip id).
    pub chip: usize,
    /// Cycles of the chip's private cache walk.
    pub walk_cycles: u64,
    /// Cycles spent on the chip's side of cut-edge updates.
    pub cut_cycles: u64,
    /// Cycles the chip's halo transfer occupied the link.
    pub link_cycles: u64,
    /// Boundary feature bytes this chip pulled over the link.
    pub link_bytes: u64,
    /// Distinct external neighbors whose features crossed the link.
    pub halo_vertices: u64,
    /// Cut edges incident to this chip.
    pub cut_edges: u64,
}

impl AggregationReport {
    /// An all-zero report for layers whose aggregation is a dense matmul
    /// folded elsewhere (DiffPool's coarsened levels).
    pub fn empty() -> Self {
        AggregationReport {
            cache_policy_used: false,
            load_balanced: false,
            cache: None,
            compute_cycles: 0,
            sfu_cycles: 0,
            attention_cycles: 0,
            dram_cycles: 0,
            stall_cycles: 0,
            total_cycles: 0,
            edge_updates: 0,
            macs_issued: 0,
            exp_evals: 0,
            vertices: 0,
            inter_chip_bytes: 0,
            inter_chip_cycles: 0,
            chip_lanes: Vec::new(),
        }
    }

    /// Folds another head's pass over the same graph into this report
    /// (multi-head GAT: each head re-runs the weighted aggregation with
    /// its own coefficients). Extensive quantities add; the vertex set
    /// and policy flags are shared, and the first head's cache trace is
    /// kept (every head walks the identical subgraph sequence).
    pub fn absorb(&mut self, other: &AggregationReport) {
        self.compute_cycles += other.compute_cycles;
        self.sfu_cycles += other.sfu_cycles;
        self.attention_cycles += other.attention_cycles;
        self.dram_cycles += other.dram_cycles;
        self.stall_cycles += other.stall_cycles;
        self.total_cycles += other.total_cycles;
        self.edge_updates += other.edge_updates;
        self.macs_issued += other.macs_issued;
        self.exp_evals += other.exp_evals;
        self.inter_chip_bytes += other.inter_chip_bytes;
        self.inter_chip_cycles += other.inter_chip_cycles;
        // Lanes line up positionally (every head walks the same
        // partition); cycle and traffic shares add per chip.
        if self.chip_lanes.is_empty() {
            self.chip_lanes = other.chip_lanes.clone();
        } else {
            for (lane, o) in self.chip_lanes.iter_mut().zip(&other.chip_lanes) {
                lane.walk_cycles += o.walk_cycles;
                lane.cut_cycles += o.cut_cycles;
                lane.link_cycles += o.link_cycles;
                lane.link_bytes += o.link_bytes;
                lane.halo_vertices += o.halo_vertices;
                lane.cut_edges += o.cut_edges;
            }
        }
    }
}

/// Runs the Aggregation cycle model over `graph`, the cache walk's
/// sharded vertex scans on `pool` (the engine passes its session's pool;
/// results are bit-identical at any width).
///
/// `graph` must already be relabeled into descending-degree order when the
/// cache policy is enabled (the engine does this as preprocessing, §VI).
///
/// With `cfg.chips > 1` the graph is partitioned per
/// [`AcceleratorConfig::partitioner`], every chip walks its own partition
/// with a private cache and DRAM channel, boundary features are charged to
/// the inter-chip link, and the phase total is the slowest chip's
/// makespan. `chips == 1` takes the exact single-chip code path, so those
/// reports are bit-identical to builds without scale-out.
pub fn simulate_aggregation(
    cfg: &AcceleratorConfig,
    arr: &CpeArray,
    graph: &CsrGraph,
    params: AggregationParams,
    dram: &mut HbmModel,
    pool: &SimPool,
) -> AggregationReport {
    let (report, counters) = simulate_aggregation_batch(cfg, arr, graph, &[params], dram, pool)
        .pop()
        .expect("one walk per parameter set");
    dram.absorb_counters(&counters);
    report
}

/// Runs [`simulate_aggregation`] once per entry of `params`, every walk
/// over the same `graph`, and returns each report with the DRAM counters
/// its walk charged, in `params` order.
///
/// The walks are independent, so they run side by side over one shared
/// edge index of `graph`: the calling thread takes the first and the
/// workers of `pool` the rest ([`SimPool::map_items`]). Each of these
/// walks gets [`SimPool::serial`] for its sharded vertex scans, since a
/// task must not call back into `pool`. A lone walk runs on the calling
/// thread with `pool` for its scans, and at width 1 every walk runs on
/// the calling thread.
///
/// Each walk charges a counter-zeroed clone of `dram`. That is exact
/// because [`HbmModel`] cycles are a stateless function of the bytes
/// moved: the caller absorbs a walk's counters into its own channel when
/// it charges that phase. Reports are bit-identical to one
/// `simulate_aggregation` call per entry, at any pool width.
pub(crate) fn simulate_aggregation_batch(
    cfg: &AcceleratorConfig,
    arr: &CpeArray,
    graph: &CsrGraph,
    params: &[AggregationParams],
    dram: &HbmModel,
    pool: &SimPool,
) -> Vec<(AggregationReport, DramCounters)> {
    // Scale-out walks index each chip's own partition instead.
    let edge_ids = if cfg.chips > 1 { Vec::new() } else { edge_index(cfg, graph) };
    let walk = |params: &AggregationParams, pool: &SimPool| {
        let mut channel = dram.clone();
        channel.take_counters();
        let report = if cfg.chips > 1 {
            simulate_scaleout(cfg, arr, graph, *params, &mut channel, pool)
        } else {
            simulate_single_chip(cfg, arr, graph, &edge_ids, *params, &mut channel, pool)
        };
        (report, *channel.counters())
    };
    match params {
        [one] => vec![walk(one, pool)],
        _ => pool.map_items(params, |p| walk(p, &SimPool::serial())),
    }
}

/// The undirected edge index the cache walk borrows; empty when the
/// cache policy is off, since the id-order baseline reads none.
fn edge_index(cfg: &AcceleratorConfig, graph: &CsrGraph) -> Vec<u32> {
    if cfg.enable_cache_policy {
        build_edge_index(graph)
    } else {
        Vec::new()
    }
}

/// The single-chip cycle model (the only path when `chips <= 1`).
/// `edge_ids` is [`edge_index`] of `graph`.
fn simulate_single_chip(
    cfg: &AcceleratorConfig,
    arr: &CpeArray,
    graph: &CsrGraph,
    edge_ids: &[u32],
    params: AggregationParams,
    dram: &mut HbmModel,
    pool: &SimPool,
) -> AggregationReport {
    let f = params.f_out.max(1);
    // Per-vertex payload: the weighted feature vector, for GATs the
    // appended {e_i1, e_i2} pair (§VI), the α word, and the connectivity
    // share. The coordinate-array slice held per cached vertex is capped:
    // hub adjacency lists stream through the buffer in chunks rather than
    // pinning kilobytes per vertex (otherwise a dense graph collapses the
    // window to a handful of vertices and the policy cannot form
    // subgraphs at all).
    let payload = (f * 4) as u64 + if params.is_gat { 8 } else { 0 };
    let mean_deg = if graph.num_vertices() == 0 {
        0
    } else {
        (2 * graph.num_edges() / graph.num_vertices()) as u64
    };
    let connectivity_bytes = 4 * mean_deg.min(MAX_CACHED_NEIGHBORS_PER_VERTEX);
    let capacity = (cfg.input_buffer_bytes as u64 / (payload + connectivity_bytes + 4).max(1))
        .max(4) as usize;

    let (baseline_stats, cache, cache_dram_cycles) = if cfg.enable_cache_policy {
        let mut cache_cfg = CacheConfig::with_capacity(capacity, payload);
        cache_cfg.gamma = cfg.gamma;
        // The replacement decision is pluggable (`AcceleratorConfig::
        // cache_policy`); the walk and its traffic accounting are shared.
        let mut policy = cfg.cache_policy.instantiate();
        let result = match &cfg.tiers {
            // Tiered feature store: the walk streams against the
            // on-chip → DRAM → SSD hierarchy, and the hierarchy's DRAM
            // tier folds back into the session channel so the report's
            // energy/traffic totals stay coherent.
            Some(spec) => {
                let line = payload + connectivity_bytes + 4;
                let tier_cfgs = spec.resolve(graph, line);
                // The on-chip tier is carved out of the same SRAM the
                // walk's input buffer lives in, so pinning features
                // on-chip shrinks the dynamic subgraph window — the
                // real cost a naive even split pays for over-allocating
                // the fast tier, and what the workload-aware split's
                // hot-prefix sizing avoids.
                let onchip_bytes = tier_cfgs
                    .iter()
                    .take(tier_cfgs.len().saturating_sub(1))
                    .find(|t| t.name == "onchip")
                    .map_or(0, |t| t.capacity_bytes);
                let avail = (cfg.input_buffer_bytes as u64).saturating_sub(onchip_bytes);
                let mut tiered_cfg =
                    CacheConfig::with_capacity((avail / line.max(1)).max(4) as usize, payload);
                tiered_cfg.gamma = cfg.gamma;
                let mut hier = MemoryHierarchy::new(
                    &tier_cfgs,
                    cfg.clock_hz,
                    graph.num_vertices() as u32,
                    line,
                );
                let r = CacheSim::new(graph, edge_ids, tiered_cfg, pool)
                    .run_tiered(policy.as_mut(), &mut hier);
                dram.absorb_counters(&hier.dram_counters());
                r
            }
            None => CacheSim::new(graph, edge_ids, cache_cfg, pool).run(policy.as_mut(), dram),
        };
        let cycles = result.dram_cycles;
        (Vec::new(), Some(result), cycles)
    } else {
        let (stats, cycles, _) =
            gnnie_mem::cache::simulate_id_order_baseline(graph, capacity, payload, dram);
        (stats, None, cycles)
    };
    let iteration_stats = cache.as_ref().map_or(&baseline_stats, |c| &c.iteration_stats);

    let total_arrivals: u64 =
        iteration_stats.iter().map(|s| s.arrivals as u64).sum::<u64>().max(1);
    let total_macs = arr.total_macs() as u64;
    let min_macs = (0..arr.rows()).map(|r| arr.macs_in_row(r)).min().unwrap_or(1) as u64;

    let mut compute_cycles = 0u64;
    let mut sfu_cycles_total = 0u64;
    let mut edge_updates = 0u64;
    let mut overlap = DoubleBuffer::new();
    for s in iteration_stats {
        let (iter_compute, iter_sfu) =
            iteration_cycles(s, f as u64, params.is_gat, cfg, total_macs, min_macs);
        compute_cycles += iter_compute;
        sfu_cycles_total += iter_sfu;
        edge_updates += updates_of(s);
        // This iteration's share of the DRAM stream, fetched while the
        // previous iteration computes.
        let fetch = cache_dram_cycles * s.arrivals as u64 / total_arrivals;
        overlap.push_batch(iter_compute, fetch);
    }

    // GAT pre/post passes: the e₁/e₂ dot products and the softmax divide.
    let attention_cycles = if params.is_gat {
        let v = graph.num_vertices() as u64;
        let e = graph.num_edges() as u64;
        let dots = AttentionCost::linear(v, e, f as u64).dot_macs;
        div_ceil(dots, total_macs) + div_ceil(v * f as u64, cfg.sfu_units as u64)
    } else {
        0
    };

    let exp_evals = if params.is_gat { edge_updates + graph.num_vertices() as u64 } else { 0 };
    let macs_issued = edge_updates * f as u64
        + if params.is_gat { 2 * graph.num_vertices() as u64 * f as u64 } else { 0 };

    let total_cycles = overlap.total_cycles() + attention_cycles;
    AggregationReport {
        cache_policy_used: cfg.enable_cache_policy,
        load_balanced: cfg.enable_agg_lb,
        cache,
        compute_cycles,
        sfu_cycles: sfu_cycles_total,
        attention_cycles,
        dram_cycles: cache_dram_cycles,
        stall_cycles: overlap.stall_cycles(),
        total_cycles,
        edge_updates,
        macs_issued,
        exp_evals,
        vertices: graph.num_vertices() as u64,
        inter_chip_bytes: 0,
        inter_chip_cycles: 0,
        chip_lanes: Vec::new(),
    }
}

/// Multi-chip Aggregation: one single-chip walk per graph partition, with
/// boundary-vertex feature traffic charged to the inter-chip link.
///
/// Deterministic merge contract: partitions are processed in partition
/// order on independent DRAM channel models, so the merged report is a
/// pure function of the graph and config — replay-stable at any pool
/// width. Extensive quantities (updates, MACs, per-chip
/// compute/DRAM cycles, link traffic) sum; `total_cycles` is the slowest
/// chip's makespan (its walk, its share of cut-edge updates, and its link
/// transfers), which is where the scale-out speedup comes from. Cut edges
/// execute one directed update on each incident chip against the remote
/// feature received over the link, so `edge_updates` still covers every
/// directed edge exactly once. Chip 0's iteration trace and α histograms
/// stand for the merged cache result; its byte counters are the sum over
/// all chips.
fn simulate_scaleout(
    cfg: &AcceleratorConfig,
    arr: &CpeArray,
    graph: &CsrGraph,
    params: AggregationParams,
    dram: &mut HbmModel,
    pool: &SimPool,
) -> AggregationReport {
    let partition = GraphPartition::build(graph, cfg.chips, cfg.partitioner);
    let f = params.f_out.max(1) as u64;
    let payload = 4 * f + if params.is_gat { 8 } else { 0 };
    let total_macs = (arr.total_macs() as u64).max(1);

    let mut merged = AggregationReport::empty();
    merged.cache_policy_used = cfg.enable_cache_policy;
    merged.load_balanced = cfg.enable_agg_lb;
    merged.vertices = graph.num_vertices() as u64;
    let mut merged_cache: Option<CacheSimResult> = None;
    let mut makespan = 0u64;
    for (chip, part) in partition.parts().iter().enumerate() {
        if part.vertices.is_empty() {
            continue;
        }
        // Each chip degree-sorts its own partition, mirroring the
        // single-chip preprocessing contract the cache policy expects.
        let chip_graph = if cfg.enable_cache_policy {
            Permutation::descending_degree(&part.graph).apply(&part.graph)
        } else {
            part.graph.clone()
        };
        let mut chip_dram = HbmModel::hbm2_256gbps(cfg.clock_hz);
        // A tiered run divides the global capacity budget across chips:
        // evenly for explicit/even specs, by edge share for the
        // workload-aware split (busy partitions get more cache).
        let chip_cfg = match &cfg.tiers {
            Some(spec) => {
                let mut c = cfg.clone();
                c.tiers = Some(spec.for_chip(
                    cfg.chips as u64,
                    chip_graph.num_edges() as u64,
                    graph.num_edges() as u64,
                ));
                Cow::Owned(c)
            }
            None => Cow::Borrowed(cfg),
        };
        let chip_ids = edge_index(cfg, &chip_graph);
        let r = simulate_single_chip(
            &chip_cfg,
            arr,
            &chip_graph,
            &chip_ids,
            params,
            &mut chip_dram,
            pool,
        );
        dram.absorb_counters(chip_dram.counters());

        // Every distinct external neighbor's feature crosses the link once.
        let link_bytes = part.halo_vertices * payload;
        let link_cycles = if link_bytes == 0 {
            0
        } else {
            cfg.link_latency_cycles + div_ceil(link_bytes, cfg.link_bytes_per_cycle.max(1))
        };
        // This chip's side of each incident cut edge: one directed update
        // against the received remote feature.
        let cut_updates = part.cut_edges;
        let cut_mac_ops = cut_updates * f + if params.is_gat { 2 * cut_updates } else { 0 };
        let cut_compute = div_ceil(cut_mac_ops, total_macs);
        let cut_sfu =
            if params.is_gat { div_ceil(2 * cut_updates, cfg.sfu_units as u64) } else { 0 };

        merged.compute_cycles += r.compute_cycles + cut_compute.max(cut_sfu);
        merged.sfu_cycles += r.sfu_cycles + cut_sfu;
        merged.attention_cycles += r.attention_cycles;
        merged.dram_cycles += r.dram_cycles;
        merged.stall_cycles += r.stall_cycles;
        merged.edge_updates += r.edge_updates + cut_updates;
        merged.macs_issued += r.macs_issued + cut_updates * f;
        merged.exp_evals += r.exp_evals + if params.is_gat { cut_updates } else { 0 };
        merged.inter_chip_bytes += link_bytes;
        merged.inter_chip_cycles += link_cycles;
        makespan = makespan.max(r.total_cycles + cut_compute.max(cut_sfu) + link_cycles);
        merged.chip_lanes.push(ChipLane {
            chip,
            walk_cycles: r.total_cycles,
            cut_cycles: cut_compute.max(cut_sfu),
            link_cycles,
            link_bytes,
            halo_vertices: part.halo_vertices,
            cut_edges: cut_updates,
        });

        match (&mut merged_cache, r.cache) {
            (None, Some(chip)) => merged_cache = Some(chip),
            (Some(acc), Some(chip)) => merge_cache_results(acc, &chip),
            _ => {}
        }
    }
    merged.total_cycles = makespan;
    merged.cache = merged_cache;
    merged
}

/// Folds one chip's cache outcome into the accumulated result: extensive
/// quantities and byte counters sum, the first chip's per-iteration trace
/// and α histograms stand for the walk.
fn merge_cache_results(acc: &mut CacheSimResult, chip: &CacheSimResult) {
    acc.completed &= chip.completed;
    acc.iterations += chip.iterations;
    acc.rounds = acc.rounds.max(chip.rounds);
    acc.edges_processed += chip.edges_processed;
    acc.evictions += chip.evictions;
    acc.partial_spills += chip.partial_spills;
    acc.refetches += chip.refetches;
    acc.fetched_vertices += chip.fetched_vertices;
    acc.skipped_blocks += chip.skipped_blocks;
    acc.dram_cycles += chip.dram_cycles;
    acc.final_gamma = acc.final_gamma.max(chip.final_gamma);
    acc.gamma_raises += chip.gamma_raises;
    acc.recovery_rounds += chip.recovery_rounds;
    acc.counters.merge(&chip.counters);
    // Tier stacks line up positionally across chips (every chip resolves
    // the same onchip/dram/ssd shape from the shared spec).
    for (a, c) in acc.tiers.iter_mut().zip(&chip.tiers) {
        a.merge(c);
    }
}

/// Directed updates of one iteration: each undirected edge updates both
/// endpoint accumulators.
fn updates_of(s: &IterationStats) -> u64 {
    2 * s.edges
}

/// Cycle cost of one cache iteration. Returns `(compute, sfu_bound)`.
fn iteration_cycles(
    s: &IterationStats,
    f: u64,
    is_gat: bool,
    cfg: &AcceleratorConfig,
    total_macs: u64,
    min_macs: u64,
) -> (u64, u64) {
    let updates = updates_of(s);
    if updates == 0 {
        return (0, 0);
    }
    // Each update: f MACs (weighted accumulate); GAT adds the scalar edge
    // pipeline (add + denominator accumulate).
    let mac_ops = updates * f + if is_gat { 2 * updates } else { 0 };
    let ideal = div_ceil(mac_ops, total_macs);
    let chain = if cfg.enable_agg_lb {
        0
    } else {
        // Unbalanced: the iteration's highest-degree vertex serializes its
        // adder chain on a single CPE.
        s.max_vertex_edges as u64 * CpeArray::vector_op_cycles(f as usize, min_macs as usize)
    };
    let sfu = if is_gat {
        // LeakyReLU + exp per directed update through the SFU columns.
        div_ceil(2 * updates, cfg.sfu_units as u64)
    } else {
        0
    };
    let compute = ideal.max(chain).max(sfu);
    (compute, sfu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnie_graph::reorder::Permutation;
    use gnnie_graph::{generate, Dataset, GraphDataset};
    use gnnie_mem::SimThreads;

    fn paper_setup() -> (AcceleratorConfig, CpeArray) {
        let cfg = AcceleratorConfig::paper(Dataset::Cora);
        let arr = CpeArray::new(&cfg);
        (cfg, arr)
    }

    fn degree_ordered(g: &CsrGraph) -> CsrGraph {
        Permutation::descending_degree(g).apply(g)
    }

    fn run(
        cfg: &AcceleratorConfig,
        arr: &CpeArray,
        g: &CsrGraph,
        params: AggregationParams,
    ) -> AggregationReport {
        let mut dram = HbmModel::hbm2_256gbps(cfg.clock_hz);
        simulate_aggregation(cfg, arr, g, params, &mut dram, &SimPool::serial())
    }

    #[test]
    fn absorb_doubles_extensive_quantities() {
        let (cfg, arr) = paper_setup();
        let g = degree_ordered(&generate::powerlaw_chung_lu(200, 1000, 2.0, 5));
        let params = AggregationParams { f_out: 32, is_gat: true };
        let one = run(&cfg, &arr, &g, params);
        let mut two = one.clone();
        two.absorb(&run(&cfg, &arr, &g, params));
        assert_eq!(two.total_cycles, 2 * one.total_cycles);
        assert_eq!(two.edge_updates, 2 * one.edge_updates);
        assert_eq!(two.exp_evals, 2 * one.exp_evals);
        assert_eq!(two.macs_issued, 2 * one.macs_issued);
        assert_eq!(two.vertices, one.vertices, "vertex set is shared, not doubled");
    }

    #[test]
    fn a_batch_matches_one_call_per_shape_at_any_width() {
        // Repeated and distinct shapes, on one chip, two chips and a
        // tiered store: each batched walk must report, and charge, exactly
        // what its own `simulate_aggregation` call does.
        let g = degree_ordered(&generate::powerlaw_chung_lu(700, 4200, 2.0, 19));
        let shapes = [
            AggregationParams { f_out: 32, is_gat: false },
            AggregationParams { f_out: 64, is_gat: true },
            AggregationParams { f_out: 32, is_gat: false },
        ];
        for variant in 0..3 {
            let (mut cfg, arr) = paper_setup();
            match variant {
                1 => cfg.chips = 2,
                2 => {
                    cfg.tiers = Some(gnnie_mem::TierSpec::Split {
                        total_bytes: 64 * 1024,
                        mode: gnnie_mem::SplitMode::Workload,
                    })
                }
                _ => {}
            }
            let expect: Vec<String> = shapes
                .iter()
                .map(|&p| {
                    let mut dram = HbmModel::hbm2_256gbps(cfg.clock_hz);
                    let r =
                        simulate_aggregation(&cfg, &arr, &g, p, &mut dram, &SimPool::serial());
                    format!("{r:?} {:?}", dram.counters())
                })
                .collect();
            let mut session_dram = HbmModel::hbm2_256gbps(cfg.clock_hz);
            session_dram.read_seq(4096); // earlier phases' traffic stays out
            for width in [1usize, 2, 3] {
                let pool = SimPool::new(SimThreads::Fixed(width));
                let batch =
                    simulate_aggregation_batch(&cfg, &arr, &g, &shapes, &session_dram, &pool);
                let got: Vec<String> =
                    batch.iter().map(|(r, c)| format!("{r:?} {c:?}")).collect();
                assert_eq!(got, expect, "variant {variant}, width {width}");
            }
        }
    }

    #[test]
    fn processes_all_edges_once() {
        let (cfg, arr) = paper_setup();
        let g = degree_ordered(&generate::powerlaw_chung_lu(500, 2500, 2.0, 3));
        let r = run(&cfg, &arr, &g, AggregationParams { f_out: 64, is_gat: false });
        assert!(r.cache.as_ref().unwrap().completed);
        assert_eq!(r.edge_updates, 2 * g.num_edges() as u64);
        assert_eq!(r.macs_issued, r.edge_updates * 64);
        assert_eq!(r.exp_evals, 0);
        assert_eq!(r.attention_cycles, 0);
    }

    #[test]
    fn gat_adds_attention_and_sfu_work() {
        let (cfg, arr) = paper_setup();
        let g = degree_ordered(&generate::powerlaw_chung_lu(300, 1500, 2.0, 5));
        let gcn = run(&cfg, &arr, &g, AggregationParams { f_out: 64, is_gat: false });
        let gat = run(&cfg, &arr, &g, AggregationParams { f_out: 64, is_gat: true });
        assert!(gat.attention_cycles > 0);
        assert!(gat.exp_evals == 2 * g.num_edges() as u64 + g.num_vertices() as u64);
        assert!(gat.total_cycles > gcn.total_cycles, "GAT must cost more than GCN");
        assert!(gat.macs_issued > gcn.macs_issued);
    }

    #[test]
    fn lb_speeds_up_powerlaw_aggregation() {
        let (mut cfg, arr) = paper_setup();
        let g = degree_ordered(&generate::powerlaw_chung_lu(800, 6000, 1.9, 7));
        cfg.enable_agg_lb = true;
        let with_lb = run(&cfg, &arr, &g, AggregationParams { f_out: 128, is_gat: false });
        cfg.enable_agg_lb = false;
        let without = run(&cfg, &arr, &g, AggregationParams { f_out: 128, is_gat: false });
        assert!(
            with_lb.compute_cycles < without.compute_cycles,
            "LB {} vs no-LB {}",
            with_lb.compute_cycles,
            without.compute_cycles
        );
    }

    #[test]
    fn cache_policy_beats_id_order_on_dram() {
        let (mut cfg, arr) = paper_setup();
        let raw = generate::powerlaw_chung_lu(1000, 8000, 2.0, 9);
        let ordered = degree_ordered(&raw);
        cfg.enable_cache_policy = true;
        let cp = run(&cfg, &arr, &ordered, AggregationParams { f_out: 128, is_gat: false });
        cfg.enable_cache_policy = false;
        let base = run(&cfg, &arr, &raw, AggregationParams { f_out: 128, is_gat: false });
        assert!(cp.cache_policy_used && !base.cache_policy_used);
        assert!(base.cache.is_none());
        assert!(
            cp.dram_cycles < base.dram_cycles,
            "CP {} vs baseline {}",
            cp.dram_cycles,
            base.dram_cycles
        );
    }

    #[test]
    fn every_cache_policy_kind_completes_the_same_workload() {
        use gnnie_mem::CachePolicyKind;
        let (mut cfg, arr) = paper_setup();
        let g = degree_ordered(&generate::powerlaw_chung_lu(600, 4000, 2.0, 13));
        // A small buffer so the policies actually have to evict.
        cfg.input_buffer_bytes = 32 * 1024;
        let params = AggregationParams { f_out: 64, is_gat: false };
        for kind in CachePolicyKind::ALL {
            cfg.cache_policy = kind;
            let r = run(&cfg, &arr, &g, params);
            let cache = r.cache.as_ref().expect("cache policy enabled");
            assert!(cache.completed, "{kind}");
            assert_eq!(cache.policy, kind.name(), "{kind}");
            assert_eq!(r.edge_updates, 2 * g.num_edges() as u64, "{kind}");
            if kind == CachePolicyKind::Paper {
                assert_eq!(cache.counters.random_bytes(), 0, "paper stays sequential");
            }
        }
    }

    #[test]
    fn total_includes_stalls_and_attention() {
        let (cfg, arr) = paper_setup();
        let ds = GraphDataset::generate(Dataset::Cora, 0.2, 3);
        let g = degree_ordered(&ds.graph);
        let r = run(&cfg, &arr, &g, AggregationParams { f_out: 128, is_gat: true });
        assert!(r.total_cycles >= r.attention_cycles);
        assert!(r.total_cycles >= r.compute_cycles);
    }

    #[test]
    fn empty_graph_is_free() {
        let (cfg, arr) = paper_setup();
        let g = CsrGraph::from_edges(8, std::iter::empty());
        let r = run(&cfg, &arr, &g, AggregationParams { f_out: 32, is_gat: false });
        assert_eq!(r.edge_updates, 0);
        assert_eq!(r.compute_cycles, 0);
    }

    #[test]
    fn scaleout_covers_every_edge_and_charges_the_link() {
        let (mut cfg, arr) = paper_setup();
        let g = degree_ordered(&generate::powerlaw_chung_lu(2000, 16000, 2.0, 17));
        let params = AggregationParams { f_out: 128, is_gat: false };
        let single = run(&cfg, &arr, &g, params);
        for chips in [2, 4, 8] {
            cfg.chips = chips;
            let multi = run(&cfg, &arr, &g, params);
            assert_eq!(multi.edge_updates, 2 * g.num_edges() as u64, "{chips} chips");
            assert_eq!(multi.macs_issued, multi.edge_updates * 128, "{chips} chips");
            assert!(multi.inter_chip_bytes > 0, "{chips} chips must move boundary features");
            assert!(multi.inter_chip_cycles > 0, "{chips} chips");
            // At high chip counts the halo traffic can dominate a small
            // graph (the link becomes the bottleneck), so the speedup
            // claim is only made where the partitions are still chunky.
            if chips <= 4 {
                assert!(
                    multi.total_cycles < single.total_cycles,
                    "{chips} chips: makespan {} must beat single-chip {}",
                    multi.total_cycles,
                    single.total_cycles
                );
            }
            let cache = multi.cache.as_ref().expect("cache policy on");
            assert!(cache.completed, "{chips} chips");
            // The caches walk the induced subgraphs; cut edges execute
            // against link-received features instead, one directed update
            // per side. Together they cover the whole graph.
            let induced = cache.edges_processed;
            let cut = (multi.edge_updates - 2 * induced) / 2;
            assert_eq!(induced + cut, g.num_edges() as u64, "{chips} chips");
            assert!(cut > 0, "{chips} chips must cut something on a connected graph");
        }
    }

    #[test]
    fn scaleout_gat_accounting_matches_the_single_chip_formulas() {
        let (mut cfg, arr) = paper_setup();
        cfg.chips = 4;
        cfg.partitioner = gnnie_graph::PartitionerKind::EdgeCut;
        let g = degree_ordered(&generate::powerlaw_chung_lu(600, 4000, 2.0, 5));
        let r = run(&cfg, &arr, &g, AggregationParams { f_out: 64, is_gat: true });
        let (v, e) = (g.num_vertices() as u64, g.num_edges() as u64);
        assert_eq!(r.edge_updates, 2 * e);
        assert_eq!(r.exp_evals, 2 * e + v);
        assert_eq!(r.macs_issued, 2 * e * 64 + 2 * v * 64);
        assert_eq!(r.vertices, v);
    }

    #[test]
    fn scaleout_is_deterministic_across_reruns_and_thread_counts() {
        let (mut cfg, arr) = paper_setup();
        cfg.chips = 4;
        let g = degree_ordered(&generate::powerlaw_chung_lu(800, 6000, 2.0, 7));
        let params = AggregationParams { f_out: 64, is_gat: false };
        let mut reports = Vec::new();
        for threads in [SimThreads::Fixed(1), SimThreads::Fixed(4), SimThreads::Fixed(1)] {
            let mut dram = HbmModel::hbm2_256gbps(cfg.clock_hz);
            let pool = SimPool::new(threads);
            let r = simulate_aggregation(&cfg, &arr, &g, params, &mut dram, &pool);
            reports.push((format!("{r:?}"), *dram.counters()));
        }
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[2]);
    }

    #[test]
    fn scaleout_tiered_walk_is_identical_on_a_persistent_pool() {
        // Four chips over 3,200 vertices with a three-tier stack: every
        // chip's partition is large enough that a width-2 pool shards its
        // walk's per-vertex scans on the workers. One pool per width walks
        // all four chips, as in an engine session.
        let (mut cfg, arr) = paper_setup();
        cfg.chips = 4;
        cfg.tiers = Some(gnnie_mem::TierSpec::Explicit(gnnie_mem::TierBudgets {
            onchip_bytes: 16 << 10,
            dram_bytes: 64 << 10,
            ssd_bytes: Some(1 << 20),
        }));
        let g = degree_ordered(&generate::powerlaw_chung_lu(3200, 16000, 2.0, 13));
        let params = AggregationParams { f_out: 32, is_gat: false };
        let walk = |pool: &SimPool| {
            let mut dram = HbmModel::hbm2_256gbps(cfg.clock_hz);
            let r = simulate_aggregation(&cfg, &arr, &g, params, &mut dram, pool);
            assert_eq!(r.cache.as_ref().expect("cache policy on").tiers.len(), 3);
            (format!("{r:?}"), *dram.counters())
        };
        let serial = walk(&SimPool::serial());
        for width in [2, 4] {
            assert_eq!(serial, walk(&SimPool::new(SimThreads::Fixed(width))), "width {width}");
        }
    }

    #[test]
    fn scaleout_folds_every_chips_dram_counters_into_the_session_model() {
        let (mut cfg, arr) = paper_setup();
        let g = degree_ordered(&generate::powerlaw_chung_lu(500, 3500, 2.0, 3));
        let params = AggregationParams { f_out: 64, is_gat: false };
        cfg.chips = 4;
        let mut dram = HbmModel::hbm2_256gbps(cfg.clock_hz);
        let r = simulate_aggregation(&cfg, &arr, &g, params, &mut dram, &SimPool::serial());
        let cache = r.cache.as_ref().expect("cache policy on");
        assert_eq!(
            *dram.counters(),
            cache.counters,
            "session DRAM counters must equal the merged cache counters"
        );
        assert!(dram.counters().total_bytes() > 0);
    }

    #[test]
    fn a_tiered_run_surfaces_per_tier_accounting() {
        let (mut cfg, arr) = paper_setup();
        let g = degree_ordered(&generate::powerlaw_chung_lu(400, 2000, 2.0, 7));
        cfg.tiers = Some(gnnie_mem::TierSpec::Split {
            total_bytes: 64 * 1024,
            mode: gnnie_mem::SplitMode::Workload,
        });
        let params = AggregationParams { f_out: 32, is_gat: false };
        let mut dram = HbmModel::hbm2_256gbps(cfg.clock_hz);
        let r = simulate_aggregation(&cfg, &arr, &g, params, &mut dram, &SimPool::serial());
        let cache = r.cache.as_ref().expect("cache policy on");
        assert!(cache.completed);
        assert_eq!(r.edge_updates, 2 * g.num_edges() as u64, "tiering is traffic, not work");
        assert_eq!(cache.tiers.len(), 3, "onchip + dram + ssd backstop");
        assert!(cache.tiers[0].hits > 0, "the hot prefix serves on-chip hits");
        assert_eq!(
            *dram.counters(),
            cache.counters,
            "the hierarchy's DRAM tier must fold into the session channel"
        );
    }

    #[test]
    fn an_untiered_run_reports_no_tier_stats() {
        let (cfg, arr) = paper_setup();
        let g = degree_ordered(&generate::powerlaw_chung_lu(200, 1000, 2.0, 5));
        let r = run(&cfg, &arr, &g, AggregationParams { f_out: 32, is_gat: false });
        assert!(r.cache.as_ref().unwrap().tiers.is_empty());
    }

    #[test]
    fn scaleout_divides_the_tier_budget_and_merges_tier_stats() {
        let (mut cfg, arr) = paper_setup();
        let g = degree_ordered(&generate::powerlaw_chung_lu(600, 4200, 2.0, 11));
        cfg.chips = 4;
        cfg.tiers = Some(gnnie_mem::TierSpec::Split {
            total_bytes: 128 * 1024,
            mode: gnnie_mem::SplitMode::Workload,
        });
        let params = AggregationParams { f_out: 32, is_gat: false };
        let r = run(&cfg, &arr, &g, params);
        let cache = r.cache.as_ref().expect("cache policy on");
        assert_eq!(cache.tiers.len(), 3, "chips share the stack shape");
        let per_chip_hits: u64 = cache.tiers.iter().map(|t| t.hits).sum();
        assert!(per_chip_hits > 0, "merged tier stats must accumulate across chips");
    }

    #[test]
    fn makespan_maxes_over_chips_instead_of_summing() {
        // Guard against merge arithmetic that accidentally sums the chip
        // totals: the makespan must stay below the summed per-chip work,
        // which the extensive fields record.
        let (mut cfg, arr) = paper_setup();
        let g = degree_ordered(&generate::powerlaw_chung_lu(2000, 16000, 2.0, 29));
        let params = AggregationParams { f_out: 128, is_gat: false };
        cfg.chips = 8;
        let eight = run(&cfg, &arr, &g, params);
        let summed_work = eight.compute_cycles + eight.dram_cycles + eight.inter_chip_cycles;
        assert!(
            eight.total_cycles < summed_work,
            "makespan {} should be far below the summed per-chip work {}",
            eight.total_cycles,
            summed_work
        );
    }

    #[test]
    fn bigger_buffer_never_hurts_dram() {
        let (mut cfg, arr) = paper_setup();
        let g = degree_ordered(&generate::powerlaw_chung_lu(600, 4000, 2.0, 11));
        cfg.input_buffer_bytes = 16 * 1024;
        let small = run(&cfg, &arr, &g, AggregationParams { f_out: 128, is_gat: false });
        cfg.input_buffer_bytes = 512 * 1024;
        let large = run(&cfg, &arr, &g, AggregationParams { f_out: 128, is_gat: false });
        assert!(large.dram_cycles <= small.dram_cycles);
    }
}
