//! The end-to-end inference engine: runs every layer of a model through
//! the Weighting and Aggregation cycle models, charges energy, and emits
//! an [`InferenceReport`].
//!
//! Phase orchestration per model (paper §II–V):
//!
//! * **GCN** — Weighting (`hW`, zero-skipped on layer 0) then normalized
//!   sum Aggregation over the cached subgraphs.
//! * **GraphSAGE** — Weighting, then Aggregation over the *sampled*
//!   neighborhood graph (Table III: 25 neighbors; sampling cost included
//!   in preprocessing).
//! * **GAT** — Weighting, the two linear-complexity attention dot passes,
//!   per-edge softmax pipeline, weighted Aggregation.
//! * **GINConv** — Weighting (first MLP linear), sum Aggregation, second
//!   MLP linear as an extra graph-free Weighting pass.
//! * **DiffPool** — embedding GCN + pooling GCN on the full graph, the
//!   coarsening matmuls (`SᵀZ`, `AS`, `Sᵀ(AS)`), then the remaining
//!   layers on the coarsened (dense) level.

use gnnie_gnn::model::{GnnModel, ModelConfig};
use gnnie_graph::reorder::Permutation;
use gnnie_graph::{CsrGraph, GraphDataset, VertexId};
use gnnie_mem::{DramCounters, EnergyLedger, HbmModel, SimPool, SimThreads};
use gnnie_tensor::rlc;

use crate::aggregation::{simulate_aggregation_batch, AggregationParams, AggregationReport};
use crate::config::AcceleratorConfig;
use crate::cpe::{div_ceil, CpeArray};
use crate::energy::{static_energy_pj, ActivityCounts, OpEnergy};
use crate::report::{InferenceReport, LayerReport};
use crate::weighting::{simulate_weighting, BlockProfile, WeightingParams, WeightingReport};

/// Seed stream for the engine's GraphSAGE neighborhood sampling. The
/// cycle model only needs the sampled *counts*, so it keeps its own seed;
/// the functional datapath (`verify`) samples with the golden layer's own
/// seed instead.
pub const SAGE_ENGINE_SEED: u64 = 0x5a6e_0000_0000_0000;

/// Bytes per RLC-encoded nonzero on the sparse input layer (the 21-bit
/// run/value pair of `gnnie-tensor::rlc`, rounded up to whole bytes).
const RLC_BYTES_PER_NNZ: u64 = rlc::PAIR_BITS.div_ceil(8) as u64;

/// The GNNIE inference engine (cycle/energy model).
#[derive(Debug, Clone)]
pub struct Engine {
    config: AcceleratorConfig,
    array: CpeArray,
    ops: OpEnergy,
}

impl Engine {
    /// Creates an engine for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: AcceleratorConfig) -> Self {
        config.validate();
        let array = CpeArray::new(&config);
        Engine { config, array, ops: OpEnergy::paper_32nm() }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The CPE array description.
    pub fn array(&self) -> &CpeArray {
        &self.array
    }

    /// Runs one inference of `model` over `ds` and reports cycles, DRAM
    /// traffic, and energy.
    ///
    /// Equivalent to [`Engine::begin_with`] followed by
    /// [`RunSession::run_to_completion`] and [`RunSession::finish`]; the
    /// serving path drives the phases individually instead so consecutive
    /// batches can pipeline Weighting under Aggregation.
    ///
    /// The dataset may come from the Table II synthesizer or from
    /// `gnnie-ingest`'s registry (edge-list/CSR files, `.gnniecsr`
    /// snapshots) — the engine consumes both identically, and equal
    /// datasets produce byte-identical reports regardless of source.
    pub fn run(&self, model: &ModelConfig, ds: &GraphDataset) -> InferenceReport {
        self.run_with(model, ds, RunOptions::default())
    }

    /// The options-driven single-shot entry point: one inference of
    /// `model` over `ds` under `opts` — weight residency and a
    /// sim-thread override ride on [`RunOptions`]. [`Engine::run`] is
    /// exactly `run_with(m, ds, RunOptions::default())`; the report is
    /// bit-identical across `sim_threads` settings. Observability is
    /// recorded from the finished report
    /// ([`InferenceReport::record_obs`]).
    pub fn run_with(
        &self,
        model: &ModelConfig,
        ds: &GraphDataset,
        opts: RunOptions,
    ) -> InferenceReport {
        let mut session = self.begin_with(model, ds, opts);
        session.run_to_completion();
        session.finish()
    }

    /// Starts a phased run of `model` over `ds`.
    ///
    /// Performs preprocessing (§VI + §IV-C): degree binning/reordering of
    /// the graph and linear-time workload binning of the feature blocks.
    /// Both are linear scans; charged at one element per cycle on the
    /// controller. Included in all reported speedups (§VIII-B).
    ///
    /// The session gets its own [`SimPool`], `opts.sim_threads` wide
    /// (`None` reads `GNNIE_SIM_THREADS`, unset meaning the host's
    /// parallelism). Its workers start here, serve every phase of the
    /// run, and are joined when the session is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `opts.sim_threads` is `Some(SimThreads::Fixed(0))`.
    pub fn begin_with<'a>(
        &'a self,
        model: &'a ModelConfig,
        ds: &'a GraphDataset,
        opts: RunOptions,
    ) -> RunSession<'a> {
        let threads = opts.sim_threads.unwrap_or_else(SimThreads::from_env);
        assert!(threads != SimThreads::Fixed(0), "RunOptions::sim_threads must be at least 1");
        self.begin_pooled(model, ds, opts, &SimPool::new(threads))
    }

    /// Starts a phased run like [`Engine::begin_with`], but dispatching
    /// the sharded simulation loops through a caller-provided [`SimPool`]
    /// instead of starting one per session.
    ///
    /// This is the serving daemon's hook: it keeps one pool and shares it
    /// across every request's `RunSession`, so the workers start once per
    /// daemon, not once per request — in the Weighting scans and the
    /// Aggregation cache walk alike. `opts.sim_threads` is ignored here —
    /// the pool *is* the thread policy. Cloning a pool handle is cheap
    /// (clones share the same workers), and reports stay bit-identical to
    /// any other pool width by the sharding contract.
    pub fn begin_pooled<'a>(
        &'a self,
        model: &'a ModelConfig,
        ds: &'a GraphDataset,
        opts: RunOptions,
        pool: &SimPool,
    ) -> RunSession<'a> {
        let mut dram = HbmModel::hbm2_256gbps(self.config.clock_hz);
        let v = ds.graph.num_vertices();
        let e = ds.graph.num_edges();

        let agg_graph = if self.config.enable_cache_policy {
            Permutation::descending_degree(&ds.graph).apply(&ds.graph)
        } else {
            ds.graph.clone()
        };
        // Degree binning reads the CSR offsets (V words) and bins in
        // place; the relabeled adjacency is rewritten by streaming the
        // edge array through DRAM once (read + write at bandwidth).
        // Workload binning scans V·M block descriptors across the M row
        // banks in parallel (V cycles).
        let mut preprocessing_cycles = 2 * v as u64;
        if self.config.enable_cache_policy {
            let edge_array_bytes = 2 * e as u64 * 4;
            preprocessing_cycles +=
                dram.read_seq(edge_array_bytes) + dram.write_seq(edge_array_bytes);
        }
        if model.model == GnnModel::GraphSage {
            // Sampling via the pregenerated random stream: one draw per
            // kept neighbor (§VIII-B includes this cost).
            let k = model.sample_size.unwrap_or(25);
            let sampled: u64 = (0..v).map(|u| ds.graph.degree(u).min(k) as u64).sum();
            preprocessing_cycles += sampled;
        }

        RunSession {
            engine: self,
            model,
            ds,
            opts,
            // Every phase, the cache walk included, dispatches through
            // the session's pool handle.
            pool: pool.clone(),
            agg_graph,
            walks: None,
            begin_dram: dram.clone(),
            dram,
            counts: ActivityCounts::default(),
            layers: Vec::new(),
            preprocessing_cycles,
            coarsening_cycles: 0,
            cursor: 0,
            pending_weighting: None,
            diffpool_done: false,
        }
    }
}

/// Options for a run ([`Engine::run_with`] / [`Engine::begin_with`]).
///
/// Every field is host-side only: none of them change the simulated
/// cycles, traffic, or energy in the report.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// The model's layer weights are already resident on chip — an
    /// earlier request of a model-homogeneous serving batch streamed
    /// them — so no Weighting phase pays the weight DRAM load.
    pub weights_resident: bool,
    /// Worker threads for this run's sharded simulation loops (`None` =
    /// `GNNIE_SIM_THREADS`, unset meaning the host's parallelism). A run
    /// option, not simulated hardware: the report is bit-identical at any
    /// setting. [`Engine::begin_pooled`] ignores it in favour of the
    /// caller's pool.
    pub sim_threads: Option<SimThreads>,
}

/// A phased inference run: the per-run mutable state of one
/// `(model, dataset)` simulation, with the Weighting and Aggregation
/// phases individually steppable.
///
/// Produced by [`Engine::begin_with`]/[`Engine::begin_pooled`] (which charge the
/// one-time preprocessing). A serial caller just uses
/// [`run_to_completion`](RunSession::run_to_completion); the serving
/// subsystem instead alternates [`run_weighting`](RunSession::run_weighting)
/// and [`run_aggregation`](RunSession::run_aggregation) so that, across
/// concurrent sessions, batch *i+1*'s Weighting overlaps batch *i*'s
/// Aggregation on the two engine resources. [`finish`](RunSession::finish)
/// charges writeback and energy and emits the [`InferenceReport`];
/// [`finish_and_rewind`](RunSession::finish_and_rewind) emits it too, then
/// rewinds the session to run again under new options, reusing its graph
/// and Aggregation walks.
#[derive(Debug)]
pub struct RunSession<'a> {
    engine: &'a Engine,
    model: &'a ModelConfig,
    ds: &'a GraphDataset,
    opts: RunOptions,
    /// The run's worker pool, shared across every phase.
    pool: SimPool,
    agg_graph: CsrGraph,
    /// Every Aggregation walk simulated so far (`None` before the first
    /// Aggregation phase); see [`RunSession::walk`]. Kept across
    /// [`RunSession::finish_and_rewind`].
    walks: Option<Vec<StoredWalk>>,
    /// The DRAM channel as preprocessing left it: the state a rewind
    /// restores.
    begin_dram: HbmModel,
    dram: HbmModel,
    counts: ActivityCounts,
    layers: Vec<LayerReport>,
    preprocessing_cycles: u64,
    coarsening_cycles: u64,
    /// Next layer index awaiting phases (flat models).
    cursor: usize,
    /// Weighting report of `cursor`, awaiting its Aggregation.
    pending_weighting: Option<WeightingReport>,
    /// DiffPool's irregular schedule ran (all layers emitted).
    diffpool_done: bool,
}

impl<'a> RunSession<'a> {
    /// The engine driving this session.
    pub fn engine(&self) -> &Engine {
        self.engine
    }

    /// The model under simulation.
    pub fn model(&self) -> &ModelConfig {
        self.model
    }

    /// Cycles charged to the one-time preprocessing.
    pub fn preprocessing_cycles(&self) -> u64 {
        self.preprocessing_cycles
    }

    /// Whether every phase of the run has executed ([`finish`] is legal).
    ///
    /// [`finish`]: RunSession::finish
    pub fn is_complete(&self) -> bool {
        if self.model.model == GnnModel::DiffPool {
            self.diffpool_done
        } else {
            self.pending_weighting.is_none() && self.cursor == self.model.layers.len()
        }
    }

    /// Runs the Weighting phase of the current layer (all GAT heads, plus
    /// GINConv's second MLP linear) and returns its cycles.
    ///
    /// # Panics
    ///
    /// Panics on a DiffPool model (its irregular schedule runs through
    /// [`run_diffpool`](RunSession::run_diffpool)), if the current
    /// layer's Weighting already ran, or if the run is complete.
    pub fn run_weighting(&mut self) -> u64 {
        assert_ne!(
            self.model.model,
            GnnModel::DiffPool,
            "DiffPool phases are driven by run_diffpool"
        );
        assert!(self.pending_weighting.is_none(), "Weighting already ran for this layer");
        let spec = *self
            .model
            .layers
            .get(self.cursor)
            .unwrap_or_else(|| panic!("no layer {} to weight", self.cursor));
        let mut weighting = self.weighting_phase(spec.f_in, spec.f_out, spec.sparse_input);
        if self.model.model == GnnModel::GinConv {
            // Second MLP linear: dense F_out → F_out pass.
            let extra = self.weighting_phase(spec.f_out, spec.f_out, false);
            weighting.absorb(&extra);
        }
        // GAT heads attend independently: every head re-runs Weighting
        // with its own W (Veličković et al.; Table III is single-head, so
        // heads = 1 on the paper configs).
        for _ in 1..self.heads() {
            let w = self.weighting_phase(spec.f_in, spec.f_out, spec.sparse_input);
            weighting.absorb(&w);
        }
        let cycles = weighting.total_cycles;
        self.pending_weighting = Some(weighting);
        cycles
    }

    /// Runs the Aggregation phase of the current layer (all GAT heads),
    /// closes the layer's report, and returns the phase cycles.
    ///
    /// # Panics
    ///
    /// Panics if the current layer's Weighting has not run yet.
    pub fn run_aggregation(&mut self) -> u64 {
        let weighting =
            self.pending_weighting.take().expect("run_weighting must precede run_aggregation");
        let spec = self.model.layers[self.cursor];
        let is_gat = self.model.model == GnnModel::Gat;
        // GraphSAGE aggregates over the layer's sampled neighborhoods;
        // every other model walks the session's relabeled graph in place.
        let sampled = (self.model.model == GnnModel::GraphSage).then_some(self.cursor);
        let mut aggregation = self.aggregation_phase(sampled, spec.f_out, is_gat);
        for _ in 1..self.heads() {
            let a = self.aggregation_phase(sampled, spec.f_out, true);
            aggregation.absorb(&a);
        }
        let cycles = aggregation.total_cycles;
        self.layers.push(LayerReport { layer: self.cursor, weighting, aggregation });
        self.cursor += 1;
        cycles
    }

    /// Runs DiffPool's full irregular schedule (embedding + pooling GCNs,
    /// coarsening matmuls, the dense coarse stack).
    ///
    /// # Panics
    ///
    /// Panics unless the model is DiffPool, or if already run.
    pub fn run_diffpool(&mut self) {
        assert_eq!(self.model.model, GnnModel::DiffPool, "run_diffpool is DiffPool-only");
        assert!(!self.diffpool_done, "DiffPool schedule already ran");
        let (engine, model) = (self.engine, self.model);
        let v = self.ds.graph.num_vertices() as u64;
        let e = self.ds.graph.num_edges() as u64;
        let c = model.diffpool_clusters.unwrap_or(1) as u64;
        let h = model.hidden as u64;
        let f_in = model.layers[0].f_in;
        let total_macs = engine.array.total_macs() as u64;

        // Embedding GCN: F⁰ → hidden.
        let w_embed = self.weighting_phase(f_in, model.hidden, true);
        let a_embed = self.aggregation_phase(None, model.hidden, false);
        self.layers.push(LayerReport { layer: 0, weighting: w_embed, aggregation: a_embed });

        // Pooling GCN: F⁰ → C, plus the row softmax through the SFUs.
        let w_pool = self.weighting_phase(f_in, c as usize, true);
        let mut a_pool = self.aggregation_phase(None, c as usize, false);
        let softmax_cycles = div_ceil(v * c, engine.config.sfu_units as u64);
        a_pool.total_cycles += softmax_cycles;
        self.counts.sfu_ops += v * c;
        self.layers.push(LayerReport { layer: 1, weighting: w_pool, aggregation: a_pool });

        // Coarsening: X' = SᵀZ, T = AS, A' = SᵀT. S streams through DRAM
        // (it is far larger than any on-chip buffer).
        let matmul_macs = v * c * h + 2 * e * c + v * c * c;
        let compute = div_ceil(matmul_macs, total_macs);
        let s_bytes = v * c * 4;
        let stream = self.dram.read_seq(s_bytes) + self.dram.write_seq(c * h * 4 + c * c * 4);
        self.counts.macs += matmul_macs;
        self.counts.dram_input_bytes += s_bytes;
        self.counts.dram_output_bytes += c * h * 4 + c * c * 4;
        self.coarsening_cycles += compute.max(stream);

        // Remaining layers on the coarsened dense level: Weighting on C
        // vertices plus a dense-adjacency aggregation matmul.
        for (li, spec) in model.layers.iter().enumerate().skip(1) {
            let f_in_l = if li == 1 { h as usize } else { spec.f_in };
            let profile = BlockProfile::dense(c as usize, f_in_l, engine.array.rows());
            let params = WeightingParams {
                f_out: spec.f_out,
                feature_bytes_per_nnz: 4,
                weight_bytes_per_elem: 1,
                weights_resident: self.opts.weights_resident,
            };
            let report = simulate_weighting(
                &engine.config,
                &engine.array,
                &profile,
                params,
                &mut self.dram,
                &self.pool,
            );
            self.charge_weighting(&report, c, spec.f_out as u64);
            let dense_agg = div_ceil(c * c * spec.f_out as u64, total_macs);
            self.counts.macs += c * c * spec.f_out as u64;
            self.coarsening_cycles += dense_agg;
            self.layers.push(LayerReport {
                layer: li + 1,
                weighting: report,
                aggregation: AggregationReport::empty(),
            });
        }
        self.diffpool_done = true;
    }

    /// Drives every remaining phase in serial order.
    pub fn run_to_completion(&mut self) {
        if self.model.model == GnnModel::DiffPool {
            if !self.diffpool_done {
                self.run_diffpool();
            }
            return;
        }
        if self.pending_weighting.is_some() {
            self.run_aggregation();
        }
        while self.cursor < self.model.layers.len() {
            self.run_weighting();
            self.run_aggregation();
        }
    }

    /// Charges the final writeback and static energy and emits the report.
    ///
    /// # Panics
    ///
    /// Panics if phases are still outstanding (see
    /// [`is_complete`](RunSession::is_complete)).
    pub fn finish(mut self) -> InferenceReport {
        self.emit_report("finish")
    }

    /// Emits the finished report like [`finish`](RunSession::finish), then
    /// rewinds the session to where [`Engine::begin_pooled`] left it, to
    /// run again under `opts`.
    ///
    /// The rewind restores the DRAM channel as preprocessing left it and
    /// clears every per-run count, layer and phase cursor. It keeps the
    /// relabeled graph, the pool (`opts.sim_threads` is ignored, as in
    /// `begin_pooled`) and every Aggregation walk already simulated: a
    /// walk's report is a pure function of the graph, the configuration
    /// and the shape, and no option changes any of them. The next run's
    /// report is therefore byte-identical to a fresh `begin_pooled` under
    /// `opts`, but its Aggregation phases walk nothing. This is how the
    /// serving daemon profiles one request cold and then with resident
    /// weights.
    ///
    /// # Panics
    ///
    /// Panics if phases are still outstanding (see
    /// [`is_complete`](RunSession::is_complete)).
    pub fn finish_and_rewind(&mut self, opts: RunOptions) -> InferenceReport {
        let report = self.emit_report("finish_and_rewind");
        self.opts = opts;
        self.dram = self.begin_dram.clone();
        self.counts = ActivityCounts::default();
        self.coarsening_cycles = 0;
        self.cursor = 0;
        self.pending_weighting = None;
        self.diffpool_done = false;
        report
    }

    /// The report builder behind [`finish`](RunSession::finish) and
    /// [`finish_and_rewind`](RunSession::finish_and_rewind): charges the
    /// writeback and energy and moves the layers out. `caller` names the
    /// public method in the panic message.
    fn emit_report(&mut self, caller: &str) -> InferenceReport {
        assert!(self.is_complete(), "phases still outstanding at {caller}");
        let v = self.ds.graph.num_vertices();
        let e = self.ds.graph.num_edges();

        // --- Final writeback of the output embeddings.
        let out_rows = if self.model.model == GnnModel::DiffPool {
            self.model.diffpool_clusters.unwrap_or(1) as u64
        } else {
            v as u64
        };
        let writeback_bytes = out_rows * self.model.output_width() as u64 * 4;
        let writeback_cycles = self.dram.write_seq(writeback_bytes);
        self.counts.dram_output_bytes += writeback_bytes;

        let total_cycles = self.preprocessing_cycles
            + self
                .layers
                .iter()
                .map(|l| l.weighting.total_cycles + l.aggregation.total_cycles)
                .sum::<u64>()
            + self.coarsening_cycles
            + writeback_cycles;
        let latency_s = total_cycles as f64 / self.engine.config.clock_hz;

        let mut energy = EnergyLedger::new();
        self.counts.charge(&self.engine.ops, &mut energy);
        energy.add(
            gnnie_mem::Component::Control,
            static_energy_pj(&self.engine.ops, total_cycles, self.engine.config.clock_hz),
        );

        let effective_ops = 2 * self
            .layers
            .iter()
            .map(|l| l.weighting.macs_issued + l.aggregation.macs_issued)
            .sum::<u64>()
            + self.layers.iter().map(|l| l.aggregation.exp_evals).sum::<u64>();
        let weight_load_cycles =
            self.layers.iter().map(|l| l.weighting.weight_dram_cycles).sum();

        let dram_counters: DramCounters = *self.dram.counters();
        InferenceReport {
            model: self.model.model,
            dataset: self.ds.spec.dataset,
            scale: self.ds.spec.vertices as f64 / self.ds.spec.dataset.spec().vertices as f64,
            vertices: v as u64,
            edges: e as u64,
            preprocessing_cycles: self.preprocessing_cycles,
            layers: std::mem::take(&mut self.layers),
            coarsening_cycles: self.coarsening_cycles,
            writeback_cycles,
            total_cycles,
            latency_s,
            energy,
            dram: dram_counters,
            effective_ops,
            weight_load_cycles,
            weights_resident: self.opts.weights_resident,
        }
    }

    /// One Weighting phase over the session's vertices, with activity
    /// accounting.
    fn weighting_phase(
        &mut self,
        f_in: usize,
        f_out: usize,
        sparse_input: bool,
    ) -> WeightingReport {
        let engine = self.engine;
        let v = self.ds.graph.num_vertices();
        let profile = if sparse_input {
            BlockProfile::from_sparse_pooled(&self.ds.features, engine.array.rows(), &self.pool)
        } else {
            BlockProfile::dense(v, f_in, engine.array.rows())
        };
        let params = WeightingParams {
            f_out,
            feature_bytes_per_nnz: if sparse_input { RLC_BYTES_PER_NNZ } else { 4 },
            weight_bytes_per_elem: 1,
            weights_resident: self.opts.weights_resident,
        };
        let report = simulate_weighting(
            &engine.config,
            &engine.array,
            &profile,
            params,
            &mut self.dram,
            &self.pool,
        );
        self.charge_weighting(&report, v as u64, f_out as u64);
        report
    }

    fn charge_weighting(&mut self, report: &WeightingReport, vertices: u64, f_out: u64) {
        let counts = &mut self.counts;
        counts.macs += report.macs_issued;
        // Quantized operands: ~2 spad bytes per MAC (feature + weight).
        counts.spad_bytes += 2 * report.macs_issued;
        // MPE accumulates one partial per nonzero block per output column.
        let nonzero_blocks = (vertices * self.engine.array.rows() as u64)
            .saturating_sub(report.zero_blocks_skipped);
        counts.mpe_updates += nonzero_blocks * f_out;
        counts.input_buf_bytes += report.feature_bytes;
        counts.weight_buf_bytes += report.weight_bytes;
        counts.dram_input_bytes += report.feature_bytes;
        counts.dram_weight_bytes += report.weight_bytes;
    }

    /// One Aggregation phase over the sampled graph of GraphSAGE layer
    /// `sampled`, or over the session's relabeled graph when `None`, with
    /// activity accounting.
    fn aggregation_phase(
        &mut self,
        sampled: Option<usize>,
        f_out: usize,
        is_gat: bool,
    ) -> AggregationReport {
        let report = self.walk(sampled, AggregationParams { f_out, is_gat });
        let counts = &mut self.counts;
        counts.macs += report.macs_issued;
        counts.sfu_ops +=
            2 * report.exp_evals + if is_gat { report.vertices * f_out as u64 } else { 0 };
        counts.mpe_updates += report.edge_updates;
        // Each edge update reads both endpoint vectors from the input
        // buffer and read-modify-writes the psum in the output buffer.
        counts.input_buf_bytes += report.edge_updates * f_out as u64 * 4;
        counts.output_buf_bytes += 2 * report.edge_updates * f_out as u64 * 4;
        if let Some(cache) = &report.cache {
            counts.dram_input_bytes += cache.counters.seq_read_bytes;
            counts.dram_output_bytes += cache.counters.seq_write_bytes;
        }
        report
    }

    /// The walk of one Aggregation phase, charging its DRAM counters to
    /// the session channel. `sampled` names the GraphSAGE layer whose
    /// sampled graph is walked; `None` walks the session's relabeled graph.
    ///
    /// The first call runs the whole plan over the relabeled graph
    /// ([`RunSession::walk_plan`]): each distinct `(f_out, is_gat)` is
    /// walked once, and the distinct walks run side by side on the session
    /// pool ([`simulate_aggregation_batch`]). The first phase's host time
    /// therefore also carries its sibling walks. A GraphSAGE layer samples
    /// its graph the first time it aggregates and walks it alone on the
    /// session pool, so only one sampled graph is ever live; only the
    /// walk's report and counters are kept.
    ///
    /// Every walk stays stored for the session's life, rewinds included,
    /// and each phase of its shape charges a copy: a walk's report is a
    /// pure function of the graph, the configuration and the shape.
    ///
    /// # Panics
    ///
    /// Panics if `params` is not in the session's plan.
    fn walk(&mut self, sampled: Option<usize>, params: AggregationParams) -> AggregationReport {
        let engine = self.engine;
        if self.walks.is_none() {
            let shapes = self.walk_plan();
            let walks = simulate_aggregation_batch(
                &engine.config,
                &engine.array,
                &self.agg_graph,
                &shapes,
                &self.dram,
                &self.pool,
            );
            let planned = shapes.into_iter().zip(walks).map(|(params, (report, counters))| {
                StoredWalk { sampled: None, params, report, counters }
            });
            self.walks = Some(planned.collect());
        }
        let walks = self.walks.as_mut().expect("planned above");
        let i = match walks.iter().position(|w| w.sampled == sampled && w.params == params) {
            Some(i) => i,
            None => {
                let layer = sampled
                    .unwrap_or_else(|| panic!("{params:?} is not in the session's walk plan"));
                let graph = sampled_union_graph(
                    &self.agg_graph,
                    self.model.sample_size.unwrap_or(25),
                    SAGE_ENGINE_SEED ^ ((layer as u64 + 1) << 32),
                );
                let (report, counters) = simulate_aggregation_batch(
                    &engine.config,
                    &engine.array,
                    &graph,
                    &[params],
                    &self.dram,
                    &self.pool,
                )
                .pop()
                .expect("one walk per shape");
                walks.push(StoredWalk { sampled, params, report, counters });
                walks.len() - 1
            }
        };
        self.dram.absorb_counters(&walks[i].counters);
        walks[i].report.clone()
    }

    /// The distinct shapes of every Aggregation phase the session runs
    /// over its relabeled graph, in first-use order: each layer's (every
    /// GAT head shares it), or DiffPool's embedding and pooling GCNs.
    /// GraphSAGE walks its sampled graphs instead, so its plan is empty.
    fn walk_plan(&self) -> Vec<AggregationParams> {
        let model = self.model;
        let phases: Vec<usize> = match model.model {
            GnnModel::GraphSage => Vec::new(),
            GnnModel::DiffPool => vec![model.hidden, model.diffpool_clusters.unwrap_or(1)],
            _ => model.layers.iter().map(|spec| spec.f_out).collect(),
        };
        let is_gat = model.model == GnnModel::Gat;
        let mut shapes: Vec<AggregationParams> = Vec::new();
        for f_out in phases {
            let params = AggregationParams { f_out, is_gat };
            if !shapes.contains(&params) {
                shapes.push(params);
            }
        }
        shapes
    }

    /// Independent attention heads per layer (1 for non-GAT models).
    fn heads(&self) -> usize {
        if self.model.model == GnnModel::Gat {
            self.model.gat_heads.max(1)
        } else {
            1
        }
    }
}

/// One simulated Aggregation walk of a session: the graph and shape it
/// walked, its report, and the DRAM counters it charged.
#[derive(Debug)]
struct StoredWalk {
    /// The GraphSAGE layer whose sampled graph was walked, or `None` for
    /// the session's relabeled graph.
    sampled: Option<usize>,
    params: AggregationParams,
    report: AggregationReport,
    counters: DramCounters,
}

/// Builds the undirected union of sampled neighborhoods: edge `(u, v)` is
/// present if `u` sampled `v` or `v` sampled `u`. This is the edge
/// workload GraphSAGE aggregation executes on the array.
///
/// Built in linear passes, with no global sort: each vertex's sample row
/// (already sorted), the transpose of those rows by scatter (each row
/// fills in ascending source order, so it comes out sorted), and a
/// per-vertex merge of the two rows that drops duplicates.
pub fn sampled_union_graph(g: &CsrGraph, k: usize, seed: u64) -> CsrGraph {
    let n = g.num_vertices();
    let sampled: usize = (0..n).map(|u| g.degree(u).min(k)).sum();
    let mut out_offsets = Vec::with_capacity(n + 1);
    out_offsets.push(0);
    let mut out = Vec::with_capacity(sampled);
    for u in 0..n {
        out.extend(gnnie_gnn::layers::sample_neighbors(g, u, k, seed));
        out_offsets.push(out.len());
    }
    let out_row = |u: usize| &out[out_offsets[u]..out_offsets[u + 1]];

    let mut in_offsets = vec![0; n + 1];
    for &v in &out {
        in_offsets[v as usize + 1] += 1;
    }
    for v in 0..n {
        in_offsets[v + 1] += in_offsets[v];
    }
    let mut cursor = in_offsets.clone();
    let mut inn = vec![0 as VertexId; out.len()];
    for u in 0..n {
        for &v in out_row(u) {
            inn[cursor[v as usize]] = u as VertexId;
            cursor[v as usize] += 1;
        }
    }
    let in_row = |v: usize| &inn[in_offsets[v]..in_offsets[v + 1]];

    // Count each merged row, then fill the exact-size neighbor array.
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    for v in 0..n {
        let mut degree = 0;
        merge_union(out_row(v), in_row(v), |_| degree += 1);
        offsets.push(offsets[v] + degree);
    }
    let mut neighbors = Vec::with_capacity(offsets[n]);
    for v in 0..n {
        merge_union(out_row(v), in_row(v), |w| neighbors.push(w));
    }
    let edges = neighbors.len() / 2;
    CsrGraph::from_raw_parts_trusted(offsets, neighbors, edges)
}

/// Calls `emit` on every id of the union of two ascending rows, once each,
/// in ascending order.
fn merge_union(a: &[VertexId], b: &[VertexId], mut emit: impl FnMut(VertexId)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        emit(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    a[i..].iter().chain(&b[j..]).for_each(|&w| emit(w));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;
    use gnnie_graph::Dataset;

    fn small(dataset: Dataset, scale: f64) -> GraphDataset {
        GraphDataset::generate(dataset, scale, 42)
    }

    fn run(model: GnnModel, ds: &GraphDataset) -> InferenceReport {
        let cfg = AcceleratorConfig::paper(ds.spec.dataset);
        let mc = ModelConfig::paper(model, &ds.spec);
        Engine::new(cfg).run(&mc, ds)
    }

    #[test]
    fn gcn_report_is_internally_consistent() {
        let ds = small(Dataset::Cora, 0.2);
        let r = run(GnnModel::Gcn, &ds);
        assert_eq!(r.layers.len(), 2);
        assert!(r.total_cycles > 0);
        assert!(
            r.total_cycles
                >= r.preprocessing_cycles + r.weighting_cycles() + r.aggregation_cycles()
        );
        assert!(r.latency_s > 0.0);
        assert!(r.energy.total_pj() > 0.0);
        assert!(r.energy.dram_pj() > 0.0, "DRAM traffic must be charged");
        assert!(r.effective_tops() > 0.0);
        assert!(r.inferences_per_kj() > 0.0);
    }

    #[test]
    fn gat_costs_more_than_gcn() {
        let ds = small(Dataset::Cora, 0.2);
        let gcn = run(GnnModel::Gcn, &ds);
        let gat = run(GnnModel::Gat, &ds);
        assert!(gat.total_cycles > gcn.total_cycles);
        assert!(gat.energy.total_pj() > gcn.energy.total_pj());
    }

    #[test]
    fn all_models_run_on_all_small_datasets() {
        for dataset in [Dataset::Cora, Dataset::Citeseer] {
            let ds = small(dataset, 0.1);
            for model in GnnModel::ALL {
                let r = run(model, &ds);
                assert!(r.total_cycles > 0, "{model} on {dataset:?}");
                assert!(r.energy.total_pj() > 0.0, "{model} on {dataset:?}");
            }
        }
    }

    #[test]
    fn diffpool_has_coarsening_phase() {
        let ds = small(Dataset::Cora, 0.1);
        let r = run(GnnModel::DiffPool, &ds);
        assert!(r.coarsening_cycles > 0);
        // embed + pool + 1 coarse layer.
        assert_eq!(r.layers.len(), 3);
    }

    #[test]
    fn sage_runs_on_sampled_graph() {
        let ds = small(Dataset::Pubmed, 0.05);
        let r = run(GnnModel::GraphSage, &ds);
        // Sampled aggregation must touch no more than the full edge set.
        let agg_updates: u64 = r.layers.iter().map(|l| l.aggregation.edge_updates).sum();
        assert!(agg_updates <= 2 * 2 * ds.graph.num_edges() as u64);
        assert!(agg_updates > 0);
    }

    #[test]
    fn sampled_union_graph_caps_degree_growth() {
        let g = gnnie_graph::generate::powerlaw_chung_lu(200, 2000, 2.0, 3);
        let s = sampled_union_graph(&g, 5, 7);
        assert_eq!(s.num_vertices(), 200);
        assert!(s.num_edges() <= g.num_edges());
        // Every sampled edge must exist in the original graph.
        for (u, vtx) in s.edges() {
            assert!(g.has_edge(u as usize, vtx as usize));
        }
    }

    #[test]
    fn multihead_gat_scales_attention_work() {
        let ds = small(Dataset::Cora, 0.15);
        let cfg = AcceleratorConfig::paper(Dataset::Cora);
        let one = Engine::new(cfg.clone()).run(&ModelConfig::gat_multihead(&ds.spec, 1), &ds);
        let four = Engine::new(cfg).run(&ModelConfig::gat_multihead(&ds.spec, 4), &ds);
        // Heads attend independently: exp evaluations scale exactly, total
        // time grows but stays sublinear in K only if phases overlapped —
        // our serial-head model is at least 2x for 4 heads.
        let exp1: u64 = one.layers.iter().map(|l| l.aggregation.exp_evals).sum();
        let exp4: u64 = four.layers.iter().map(|l| l.aggregation.exp_evals).sum();
        assert_eq!(exp4, 4 * exp1, "each head re-runs the softmax pipeline");
        assert!(four.total_cycles > 2 * one.total_cycles);
        assert!(four.energy.total_pj() > 2.0 * one.energy.total_pj());
    }

    #[test]
    fn single_head_multihead_config_matches_paper_gat() {
        let ds = small(Dataset::Citeseer, 0.15);
        let cfg = AcceleratorConfig::paper(Dataset::Citeseer);
        let paper =
            Engine::new(cfg.clone()).run(&ModelConfig::paper(GnnModel::Gat, &ds.spec), &ds);
        let multi = Engine::new(cfg).run(&ModelConfig::gat_multihead(&ds.spec, 1), &ds);
        assert_eq!(paper.total_cycles, multi.total_cycles);
    }

    #[test]
    fn full_design_beats_ablation_baseline() {
        let ds = small(Dataset::Cora, 0.2);
        let mc = ModelConfig::paper(GnnModel::Gcn, &ds.spec);
        let full = Engine::new(AcceleratorConfig::paper(Dataset::Cora)).run(&mc, &ds);
        let base = Engine::new(AcceleratorConfig::ablation_baseline(256 * 1024)).run(&mc, &ds);
        assert!(
            full.total_cycles < base.total_cycles,
            "all optimizations on ({}) must beat baseline ({})",
            full.total_cycles,
            base.total_cycles
        );
    }

    #[test]
    fn cache_policy_selection_threads_through_the_engine() {
        use gnnie_mem::CachePolicyKind;
        let ds = small(Dataset::Cora, 0.2);
        let mc = ModelConfig::paper(GnnModel::Gcn, &ds.spec);
        let mut cycles_by_kind = Vec::new();
        for kind in CachePolicyKind::ALL {
            let mut cfg = AcceleratorConfig::paper(Dataset::Cora);
            cfg.cache_policy = kind;
            let r = Engine::new(cfg).run(&mc, &ds);
            for layer in &r.layers {
                let cache = layer.aggregation.cache.as_ref().expect("cache policy enabled");
                assert!(cache.completed, "{kind}");
                assert_eq!(cache.policy, kind.name());
            }
            if kind == CachePolicyKind::Paper {
                assert_eq!(r.dram.random_bytes(), 0, "paper policy keeps DRAM sequential");
            }
            cycles_by_kind.push(r.total_cycles);
        }
        assert!(cycles_by_kind.iter().all(|&c| c > 0));
    }

    #[test]
    fn phased_session_reproduces_the_serial_run_exactly() {
        // The serving path drives phases one at a time; the report must be
        // indistinguishable from the one-shot Engine::run.
        for model in GnnModel::ALL {
            let ds = small(Dataset::Cora, 0.15);
            let cfg = AcceleratorConfig::paper(Dataset::Cora);
            let mc = ModelConfig::paper(model, &ds.spec);
            let engine = Engine::new(cfg);
            let serial = engine.run(&mc, &ds);

            let mut session = engine.begin_with(&mc, &ds, RunOptions::default());
            if model == GnnModel::DiffPool {
                session.run_diffpool();
            } else {
                for _ in 0..mc.layers.len() {
                    assert!(!session.is_complete());
                    let w = session.run_weighting();
                    let a = session.run_aggregation();
                    assert!(w > 0 && a > 0, "{model}");
                }
            }
            assert!(session.is_complete());
            let phased = session.finish();
            assert_eq!(serial.total_cycles, phased.total_cycles, "{model}");
            assert_eq!(serial.energy, phased.energy, "{model}");
            assert_eq!(serial.dram, phased.dram, "{model}");
            assert_eq!(serial.weight_load_cycles, phased.weight_load_cycles, "{model}");
            assert!(serial.weight_load_cycles > 0, "{model} must pay weight loads");
        }
    }

    #[test]
    fn resident_weights_cut_total_cycles_and_report_zero_weight_loads() {
        for model in GnnModel::ALL {
            let ds = small(Dataset::Cora, 0.15);
            let cfg = AcceleratorConfig::paper(Dataset::Cora);
            let mc = ModelConfig::paper(model, &ds.spec);
            let engine = Engine::new(cfg);
            let cold = engine.run(&mc, &ds);
            let mut session = engine.begin_with(
                &mc,
                &ds,
                RunOptions { weights_resident: true, ..RunOptions::default() },
            );
            session.run_to_completion();
            let hot = session.finish();
            assert!(hot.weights_resident);
            assert_eq!(hot.weight_load_cycles, 0, "{model}");
            assert!(hot.total_cycles <= cold.total_cycles, "{model}");
            assert!(
                hot.dram.total_bytes() < cold.dram.total_bytes(),
                "{model}: resident weights must remove DRAM traffic"
            );
        }
    }

    #[test]
    fn reports_are_bit_identical_across_sim_threads() {
        // The tentpole invariant: sharded merge in shard order keeps the
        // full report byte-identical to the width-1 run at every
        // RunOptions::sim_threads width.
        let ds = small(Dataset::Cora, 0.15);
        let engine = Engine::new(AcceleratorConfig::paper(Dataset::Cora));
        let at = |mc: &ModelConfig, threads: usize| {
            let opts = RunOptions {
                sim_threads: Some(SimThreads::Fixed(threads)),
                ..RunOptions::default()
            };
            format!("{:?}", engine.run_with(mc, &ds, opts))
        };
        for model in [GnnModel::Gcn, GnnModel::Gat] {
            let mc = ModelConfig::paper(model, &ds.spec);
            let serial = at(&mc, 1);
            for threads in [2usize, 4, 8] {
                assert_eq!(at(&mc, threads), serial, "{model} @ {threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "RunOptions::sim_threads must be at least 1")]
    fn begin_with_rejects_zero_sim_threads_by_name() {
        let ds = small(Dataset::Cora, 0.05);
        let mc = ModelConfig::paper(GnnModel::Gcn, &ds.spec);
        let engine = Engine::new(AcceleratorConfig::paper(Dataset::Cora));
        let opts =
            RunOptions { sim_threads: Some(SimThreads::Fixed(0)), ..RunOptions::default() };
        let _ = engine.begin_with(&mc, &ds, opts);
    }

    #[test]
    fn shared_persistent_pool_reproduces_the_scoped_reports_exactly() {
        // The daemon's hook: one pool shared across consecutive sessions
        // must report exactly what a width-1 pool scoped to each session
        // does, at every shared width.
        let ds = small(Dataset::Cora, 0.15);
        let engine = Engine::new(AcceleratorConfig::paper(Dataset::Cora));
        for width in [1usize, 2, 4] {
            let pool = SimPool::new(SimThreads::Fixed(width));
            for model in [GnnModel::Gcn, GnnModel::Gat] {
                let mc = ModelConfig::paper(model, &ds.spec);
                for resident in [false, true] {
                    let opts =
                        RunOptions { weights_resident: resident, ..RunOptions::default() };
                    let scoped = engine.run_with(
                        &mc,
                        &ds,
                        RunOptions { sim_threads: Some(SimThreads::Fixed(1)), ..opts.clone() },
                    );
                    // Reuse the same pool for both residency variants and
                    // both models — the daemon does exactly this.
                    let mut pooled = engine.begin_pooled(&mc, &ds, opts, &pool);
                    pooled.run_to_completion();
                    assert_eq!(
                        format!("{:?}", pooled.finish()),
                        format!("{scoped:?}"),
                        "{model} resident={resident} width {width}"
                    );
                }
            }
        }
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let ds = small(Dataset::Citeseer, 0.2);
        let a = run(GnnModel::Gat, &ds);
        let b = run(GnnModel::Gat, &ds);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.energy, b.energy);
    }

    #[test]
    fn design_e_close_to_design_d_with_fewer_macs() {
        // The headline of Fig. 17: FM (Design E, 1216 MACs) achieves
        // comparable weighting cycles to uniform designs with more MACs.
        let ds = small(Dataset::Cora, 0.3);
        let mc = ModelConfig::paper(GnnModel::Gcn, &ds.spec);
        let e =
            Engine::new(AcceleratorConfig::with_design(Design::E, 256 * 1024)).run(&mc, &ds);
        let b =
            Engine::new(AcceleratorConfig::with_design(Design::B, 256 * 1024)).run(&mc, &ds);
        let we = e.weighting_cycles() as f64;
        let wb = b.weighting_cycles() as f64;
        assert!(
            we <= wb * 1.15,
            "Design E weighting ({we}) should be within 15% of Design B ({wb})"
        );
    }
}
