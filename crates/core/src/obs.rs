//! Observability emission for the engine: reconstructs the run's span
//! timeline and records its metrics from a finished [`InferenceReport`].
//!
//! Nothing here touches the sharded simulation loops. Every span is
//! derived — at one serial call site — from report fields that are
//! already bit-identical at any `sim_threads` width (the engine's phase
//! accounting, the scale-out merge's [`ChipLane`]s, the per-tier
//! [`TierStats`](gnnie_mem::TierStats)), so the trace inherits the
//! replay-stable contract instead of having to re-prove it.
//!
//! Track layout (the Chrome export turns each pair into a pid/tid row):
//!
//! * `engine/phases` — preprocessing, per-layer Weighting/Aggregation,
//!   coarsening (DiffPool), writeback, laid end to end exactly as
//!   `total_cycles` sums them.
//! * `chips/chip<N>` — each chip's partition walk, its cut-edge updates,
//!   and its `halo xfer` link transfer inside the owning Aggregation
//!   window. A single-chip run shows one `chip0` lane.
//! * `tiers/<name>` — per-tier channel occupancy per layer, with
//!   hit/miss/eviction/fill counts as span args. Tier spans measure
//!   channel cycles and may extend past the phase window they start in
//!   (the walk overlaps transfers).

use gnnie_obs::{Metrics, Obs, Trace};

use crate::aggregation::ChipLane;
use crate::report::InferenceReport;

impl InferenceReport {
    /// Emits the run's span timeline onto `trace` (no-op when off).
    pub fn emit_trace(&self, trace: &Trace) {
        if !trace.enabled() {
            return;
        }
        let mut t = 0u64;
        trace.span("engine", "phases", "preprocessing", t, self.preprocessing_cycles, &[]);
        t += self.preprocessing_cycles;
        for layer in &self.layers {
            let idx = layer.layer;
            let w = layer.weighting.total_cycles;
            trace.span(
                "engine",
                "phases",
                &format!("weighting L{idx}"),
                t,
                w,
                &[("macs_issued", layer.weighting.macs_issued.into())],
            );
            t += w;
            let a = layer.aggregation.total_cycles;
            trace.span(
                "engine",
                "phases",
                &format!("aggregation L{idx}"),
                t,
                a,
                &[
                    ("edge_updates", layer.aggregation.edge_updates.into()),
                    ("stall_cycles", layer.aggregation.stall_cycles.into()),
                ],
            );
            // Per-chip lanes inside the Aggregation window. Single-chip
            // runs carry no lanes; synthesize chip 0 from the phase total
            // so every trace has a chips process.
            let single = [ChipLane { chip: 0, walk_cycles: a, ..ChipLane::default() }];
            let lanes: &[ChipLane] = if layer.aggregation.chip_lanes.is_empty() {
                &single
            } else {
                &layer.aggregation.chip_lanes
            };
            for lane in lanes {
                let track = format!("chip{}", lane.chip);
                trace.span(
                    "chips",
                    &track,
                    &format!("walk L{idx}"),
                    t,
                    lane.walk_cycles,
                    &[("cut_edges", lane.cut_edges.into())],
                );
                let mut at = t + lane.walk_cycles;
                if lane.cut_cycles > 0 {
                    trace.span(
                        "chips",
                        &track,
                        &format!("cut updates L{idx}"),
                        at,
                        lane.cut_cycles,
                        &[],
                    );
                    at += lane.cut_cycles;
                }
                if lane.link_cycles > 0 {
                    trace.span(
                        "chips",
                        &track,
                        &format!("halo xfer L{idx}"),
                        at,
                        lane.link_cycles,
                        &[
                            ("link_bytes", lane.link_bytes.into()),
                            ("halo_vertices", lane.halo_vertices.into()),
                        ],
                    );
                }
            }
            if let Some(cache) = layer.aggregation.cache.as_ref() {
                for tier in &cache.tiers {
                    trace.span(
                        "tiers",
                        &tier.name,
                        &format!("L{idx} occupancy"),
                        t,
                        tier.cycles,
                        &[
                            ("hits", tier.hits.into()),
                            ("misses", tier.misses.into()),
                            ("evictions", tier.evictions.into()),
                            ("fill_bytes", tier.fill_bytes.into()),
                        ],
                    );
                    trace.counter("tiers", &tier.name, "evictions", t + a, tier.evictions);
                }
            }
            t += a;
        }
        if self.coarsening_cycles > 0 {
            trace.span("engine", "phases", "coarsening", t, self.coarsening_cycles, &[]);
            t += self.coarsening_cycles;
        }
        trace.span("engine", "phases", "writeback", t, self.writeback_cycles, &[]);
        t += self.writeback_cycles;
        debug_assert_eq!(t, self.total_cycles, "the span timeline must tile total_cycles");
    }

    /// Records the run's metrics into `metrics` (no-op when off):
    /// `core.engine.*` phase totals here, `mem.cache.*` / `mem.tier.*`
    /// via each layer's cache result.
    pub fn record_metrics(&self, metrics: &Metrics) {
        if !metrics.enabled() {
            return;
        }
        metrics.counter_add("core.engine.preprocessing_cycles", self.preprocessing_cycles);
        metrics.counter_add("core.engine.weighting_cycles", self.weighting_cycles());
        metrics.counter_add("core.engine.aggregation_cycles", self.aggregation_cycles());
        metrics.counter_add("core.engine.coarsening_cycles", self.coarsening_cycles);
        metrics.counter_add("core.engine.writeback_cycles", self.writeback_cycles);
        metrics.counter_add("core.engine.total_cycles", self.total_cycles);
        metrics.counter_add("core.engine.layers", self.layers.len() as u64);
        metrics.counter_add("core.engine.effective_ops", self.effective_ops);
        metrics.counter_add("core.engine.weight_load_cycles", self.weight_load_cycles);
        metrics.counter_add("core.engine.inter_chip_bytes", self.inter_chip_bytes());
        metrics.counter_add("core.engine.inter_chip_cycles", self.inter_chip_cycles());
        metrics.counter_add("core.dram.total_bytes", self.dram.total_bytes());
        metrics.counter_add("core.dram.random_bytes", self.dram.random_bytes());
        metrics.gauge_set("core.engine.latency_us", self.latency_s * 1e6);
        metrics.gauge_set("core.engine.energy_uj", self.energy.total_pj() / 1e6);
        for layer in &self.layers {
            if let Some(cache) = layer.aggregation.cache.as_ref() {
                cache.record_metrics(metrics);
            }
        }
    }

    /// Both surfaces at once: how `gnnie run` records a finished report.
    pub fn record_obs(&self, obs: &Obs) {
        self.emit_trace(&obs.trace);
        self.record_metrics(&obs.metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
    use crate::engine::Engine;
    use gnnie_gnn::model::ModelConfig;
    use gnnie_graph::{Dataset, GraphDataset};
    use gnnie_obs::TraceEvent;

    fn run_report(chips: usize) -> InferenceReport {
        let ds = GraphDataset::generate(Dataset::Cora, 0.05, 11);
        let mut cfg = AcceleratorConfig::paper(Dataset::Cora);
        cfg.chips = chips;
        let model = ModelConfig::paper(gnnie_gnn::model::GnnModel::Gcn, &ds.spec);
        Engine::new(cfg).run(&model, &ds)
    }

    #[test]
    fn phase_spans_tile_total_cycles_exactly() {
        let report = run_report(1);
        let trace = Trace::recording();
        report.emit_trace(&trace);
        let phase_sum: u64 = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span { process, track, dur, .. }
                    if process == "engine" && track == "phases" =>
                {
                    Some(*dur)
                }
                _ => None,
            })
            .sum();
        assert_eq!(phase_sum, report.total_cycles);
    }

    #[test]
    fn multi_chip_reports_carry_a_lane_per_chip() {
        let report = run_report(4);
        for layer in &report.layers {
            assert!(
                !layer.aggregation.chip_lanes.is_empty(),
                "scale-out layers must record their lanes"
            );
            for lane in &layer.aggregation.chip_lanes {
                assert!(lane.walk_cycles > 0, "chip {} walked nothing", lane.chip);
            }
        }
        let trace = Trace::recording();
        report.emit_trace(&trace);
        let chip_tracks: std::collections::BTreeSet<String> = trace
            .events()
            .iter()
            .filter(|e| e.process() == "chips")
            .map(|e| e.track().to_string())
            .collect();
        assert_eq!(chip_tracks.len(), 4, "one track per chip: {chip_tracks:?}");
    }

    #[test]
    fn single_chip_traces_synthesize_chip0() {
        let report = run_report(1);
        let trace = Trace::recording();
        report.emit_trace(&trace);
        assert!(trace.events().iter().any(|e| e.track() == "chip0"));
    }

    #[test]
    fn metrics_cover_engine_and_cache_surfaces() {
        let report = run_report(1);
        let metrics = Metrics::recording();
        report.record_metrics(&metrics);
        let reg = metrics.snapshot();
        for name in [
            "core.engine.total_cycles",
            "core.engine.aggregation_cycles",
            "core.dram.total_bytes",
            "mem.cache.evictions",
        ] {
            assert!(reg.get(name).is_some(), "missing metric {name}:\n{}", reg.render());
        }
    }

    #[test]
    fn disabled_obs_is_a_no_op() {
        let report = run_report(1);
        report.record_obs(&Obs::off()); // must not panic or allocate sinks
    }
}
