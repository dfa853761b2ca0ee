//! Per-layer and per-model workload accounting.
//!
//! The CPU/GPU roofline baselines and the accelerator's throughput numbers
//! (Table IV) both need to know how much arithmetic and traffic a model
//! performs on a dataset. This module counts it from first principles:
//! MACs for Weighting (dense and zero-skipped), scalar ops for Aggregation,
//! attention/exponential work for GATs, and the DiffPool coarsening
//! matmuls.
//!
//! Counting conventions:
//!
//! * a MAC is 2 FLOPs;
//! * comparisons (SAGE max) and LeakyReLU/exp evaluations count 1 FLOP —
//!   crude for exp, but both platforms pay it equally so ratios survive;
//! * "directed edges" means `2|E|` (each undirected edge is aggregated from
//!   both sides), plus `|V|` self-loops where the model includes them.

use serde::{Deserialize, Serialize};

use gnnie_graph::{DatasetSpec, GraphDataset};

use crate::model::{GnnModel, ModelConfig};

/// Bytes per feature scalar (f32 datapath).
pub const BYTES_PER_SCALAR: u64 = 4;

/// Graph-level statistics a workload computation needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphStats {
    /// `|V|`.
    pub vertices: u64,
    /// `|E|` (undirected).
    pub edges: u64,
    /// Nonzeros in the input feature matrix.
    pub feature_nnz: u64,
    /// Input feature length `F⁰`.
    pub feature_len: u64,
    /// `Σ_i min(deg_i, k)` for GraphSAGE's sample size `k` (None when not
    /// sampling).
    pub sampled_in_edges: Option<u64>,
}

impl GraphStats {
    /// Exact statistics of a generated dataset.
    pub fn of(ds: &GraphDataset, sample_size: Option<usize>) -> Self {
        let g = &ds.graph;
        let sampled_in_edges =
            sample_size.map(|k| (0..g.num_vertices()).map(|v| g.degree(v).min(k) as u64).sum());
        GraphStats {
            vertices: g.num_vertices() as u64,
            edges: g.num_edges() as u64,
            feature_nnz: ds.features.nnz() as u64,
            feature_len: ds.spec.feature_len as u64,
            sampled_in_edges,
        }
    }

    /// Estimated statistics straight from a [`DatasetSpec`], without
    /// generating the graph (used for quick what-if sizing). The sampling
    /// estimate assumes `min(deg, k) ≈ min(mean_deg, k)` which understates
    /// heavy-tail truncation; prefer [`GraphStats::of`] for measurements.
    pub fn from_spec(spec: &DatasetSpec, sample_size: Option<usize>) -> Self {
        let v = spec.vertices as u64;
        let e = spec.edges as u64;
        let mean_in_deg = if v == 0 { 0.0 } else { 2.0 * e as f64 / v as f64 };
        GraphStats {
            vertices: v,
            edges: e,
            feature_nnz: (spec.avg_feature_nnz() * v as f64) as u64,
            feature_len: spec.feature_len as u64,
            sampled_in_edges: sample_size
                .map(|k| (mean_in_deg.min(k as f64) * v as f64) as u64),
        }
    }

    /// Directed edge count `2|E|`.
    pub fn directed_edges(&self) -> u64 {
        2 * self.edges
    }
}

/// Workload of one convolution layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerWorkload {
    /// Input feature width.
    pub f_in: u64,
    /// Output feature width.
    pub f_out: u64,
    /// Weighting MACs with dense features: `|V| · F_in · F_out`.
    pub weighting_macs_dense: u64,
    /// Weighting MACs after zero-skipping: `nnz(H) · F_out`.
    pub weighting_macs_effective: u64,
    /// Additional graph-free MACs (GIN's second MLP linear, GAT's two
    /// attention dot-product passes).
    pub extra_macs: u64,
    /// Scalar FLOPs spent in Aggregation (adds, normalization multiplies,
    /// max comparisons, attention edge ops).
    pub aggregation_flops: u64,
    /// Exponential evaluations (GAT softmax numerators), also the SFU/LUT
    /// access count for the energy model.
    pub exp_evals: u64,
    /// Weight bytes streamed for this layer.
    pub weight_bytes: u64,
    /// Input feature bytes (sparse-effective on the input layer).
    pub input_feature_bytes: u64,
    /// Output feature bytes written back.
    pub output_feature_bytes: u64,
}

impl LayerWorkload {
    /// Total FLOPs with zero-skipping (what an ideal sparse engine executes).
    pub fn flops_effective(&self) -> u64 {
        2 * (self.weighting_macs_effective + self.extra_macs)
            + self.aggregation_flops
            + self.exp_evals
    }

    /// Total FLOPs a dense engine executes (no zero-skipping).
    pub fn flops_dense(&self) -> u64 {
        2 * (self.weighting_macs_dense + self.extra_macs)
            + self.aggregation_flops
            + self.exp_evals
    }

    /// Total DRAM-visible bytes for the layer.
    pub fn total_bytes(&self) -> u64 {
        self.weight_bytes + self.input_feature_bytes + self.output_feature_bytes
    }
}

/// Workload of a full model on a dataset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelWorkload {
    /// The model.
    pub model: GnnModel,
    /// The graph statistics used.
    pub stats: GraphStats,
    /// Per-layer workloads.
    pub layers: Vec<LayerWorkload>,
    /// DiffPool-only: coarsening matmuls (`SᵀZ`, `AS`, `Sᵀ(AS)`) and the
    /// pooling GNN, in FLOPs.
    pub diffpool_extra_flops: u64,
}

impl ModelWorkload {
    /// Computes the workload of `cfg` over graph statistics `stats`.
    pub fn of(cfg: &ModelConfig, stats: &GraphStats) -> Self {
        let v = stats.vertices;
        let de = stats.directed_edges();
        let mut layers = Vec::with_capacity(cfg.layers.len());
        for spec in &cfg.layers {
            let f_in = spec.f_in as u64;
            let f_out = spec.f_out as u64;
            // Input nnz: layer 0 sees the sparse input features; hidden
            // layers see post-ReLU features which the paper treats as
            // dense enough to bypass the RLC decoder (§III).
            let nnz_in = if spec.sparse_input { stats.feature_nnz } else { v * f_in };
            let weighting_macs_dense = v * f_in * f_out;
            let weighting_macs_effective = nnz_in * f_out;

            let (extra_macs, aggregation_flops, exp_evals) = match cfg.model {
                // Normalized sum over {i}∪N(i): one multiply + one add per
                // element per contribution.
                GnnModel::Gcn | GnnModel::DiffPool => (0, 2 * (de + v) * f_out, 0),
                // Max over {i}∪SN(i): one comparison per element.
                GnnModel::GraphSage => {
                    let s = stats.sampled_in_edges.unwrap_or(de);
                    (0, (s + v) * f_out, 0)
                }
                // Sum over N(i) plus the (1+ε) self scale; second MLP
                // linear is an extra graph-free Weighting pass.
                GnnModel::GinConv => (v * f_out * f_out, (de + 2 * v) * f_out, 0),
                // Two attention dot-product passes (e₁, e₂); per directed
                // edge + self: add, LeakyReLU, exp, then f_out multiply +
                // f_out add for the weighted sum; denominator adds; final
                // per-vertex divide.
                GnnModel::Gat => {
                    let contribs = de + v;
                    (2 * v * f_out, contribs * (2 + 2 * f_out) + contribs + v * f_out, contribs)
                }
            };

            let input_feature_bytes = if spec.sparse_input {
                // Index + value per nonzero (RLC-order bytes).
                stats.feature_nnz * (BYTES_PER_SCALAR + BYTES_PER_SCALAR)
            } else {
                v * f_in * BYTES_PER_SCALAR
            };
            let mut weight_bytes = f_in * f_out * BYTES_PER_SCALAR;
            if cfg.model == GnnModel::GinConv {
                weight_bytes += f_out * f_out * BYTES_PER_SCALAR;
            }
            if cfg.model == GnnModel::Gat {
                weight_bytes += 2 * f_out * BYTES_PER_SCALAR;
            }
            layers.push(LayerWorkload {
                f_in,
                f_out,
                weighting_macs_dense,
                weighting_macs_effective,
                extra_macs,
                aggregation_flops,
                exp_evals,
                weight_bytes,
                input_feature_bytes,
                output_feature_bytes: v * f_out * BYTES_PER_SCALAR,
            });
        }

        let diffpool_extra_flops = if cfg.model == GnnModel::DiffPool {
            let c = cfg.diffpool_clusters.unwrap_or(1) as u64;
            let h = cfg.hidden as u64;
            // Pooling GNN F⁰ → C (zero-skipped Weighting + aggregation).
            let pool_gnn = 2 * stats.feature_nnz * c + 2 * (de + v) * c;
            // Row softmax over C scores per vertex (exp + sum + divide ≈ 3).
            let softmax = 3 * v * c;
            // X' = SᵀZ, AS, Sᵀ(AS).
            let coarsen = 2 * v * c * h + 2 * de * c + 2 * v * c * c;
            pool_gnn + softmax + coarsen
        } else {
            0
        };

        ModelWorkload { model: cfg.model, stats: *stats, layers, diffpool_extra_flops }
    }

    /// Convenience: workload of `cfg` on a generated dataset.
    pub fn for_dataset(cfg: &ModelConfig, ds: &GraphDataset) -> Self {
        ModelWorkload::of(cfg, &GraphStats::of(ds, cfg.sample_size))
    }

    /// Total FLOPs with zero-skipping.
    pub fn flops_effective(&self) -> u64 {
        self.layers.iter().map(LayerWorkload::flops_effective).sum::<u64>()
            + self.diffpool_extra_flops
    }

    /// Total FLOPs for a dense engine.
    pub fn flops_dense(&self) -> u64 {
        self.layers.iter().map(LayerWorkload::flops_dense).sum::<u64>()
            + self.diffpool_extra_flops
    }

    /// Total DRAM-visible bytes.
    pub fn total_bytes(&self) -> u64 {
        self.layers.iter().map(LayerWorkload::total_bytes).sum()
    }

    /// Total exponential evaluations (SFU workload).
    pub fn exp_evals(&self) -> u64 {
        self.layers.iter().map(|l| l.exp_evals).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnie_graph::Dataset;

    fn tiny_stats() -> GraphStats {
        // 4 vertices, 3 undirected edges, layer-0 nnz 10, F⁰ = 8.
        GraphStats {
            vertices: 4,
            edges: 3,
            feature_nnz: 10,
            feature_len: 8,
            sampled_in_edges: None,
        }
    }

    #[test]
    fn gcn_layer_counts_hand_checked() {
        let cfg = ModelConfig::custom(GnnModel::Gcn, &[8, 4]);
        let w = ModelWorkload::of(&cfg, &tiny_stats());
        let l = &w.layers[0];
        assert_eq!(l.weighting_macs_dense, 4 * 8 * 4);
        assert_eq!(l.weighting_macs_effective, 10 * 4);
        // (2·3 + 4) vertices·contributions × f_out 4 × 2 ops.
        assert_eq!(l.aggregation_flops, 2 * 10 * 4);
        assert_eq!(l.exp_evals, 0);
        assert_eq!(w.diffpool_extra_flops, 0);
    }

    #[test]
    fn effective_flops_below_dense_on_sparse_layer() {
        let spec = Dataset::Cora.spec();
        let cfg = ModelConfig::paper(GnnModel::Gcn, &spec);
        let stats = GraphStats::from_spec(&spec, None);
        let w = ModelWorkload::of(&cfg, &stats);
        assert!(w.flops_effective() < w.flops_dense());
        // Cora features are 98.7% sparse: layer-0 effective weighting must
        // be well under 5% of dense.
        let l0 = &w.layers[0];
        assert!((l0.weighting_macs_effective as f64) < 0.05 * l0.weighting_macs_dense as f64);
        // Hidden layer is dense: effective == dense there.
        let l1 = &w.layers[1];
        assert_eq!(l1.weighting_macs_effective, l1.weighting_macs_dense);
    }

    #[test]
    fn gat_costs_more_than_gcn() {
        let spec = Dataset::Cora.spec();
        let stats = GraphStats::from_spec(&spec, None);
        let gcn = ModelWorkload::of(&ModelConfig::paper(GnnModel::Gcn, &spec), &stats);
        let gat = ModelWorkload::of(&ModelConfig::paper(GnnModel::Gat, &spec), &stats);
        assert!(gat.flops_effective() > gcn.flops_effective());
        assert!(gat.exp_evals() > 0);
        assert_eq!(gcn.exp_evals(), 0);
    }

    #[test]
    fn sage_sampling_caps_aggregation() {
        let spec = Dataset::Reddit.spec().scaled(0.01);
        let full = GraphStats::from_spec(&spec, None);
        let sampled = GraphStats::from_spec(&spec, Some(25));
        let cfg = ModelConfig::paper(GnnModel::GraphSage, &spec);
        let w_full = ModelWorkload::of(&cfg, &full);
        let w_sampled = ModelWorkload::of(&cfg, &sampled);
        assert!(w_sampled.layers[0].aggregation_flops <= w_full.layers[0].aggregation_flops);
    }

    #[test]
    fn gin_has_second_linear() {
        let cfg = ModelConfig::custom(GnnModel::GinConv, &[8, 4]);
        let w = ModelWorkload::of(&cfg, &tiny_stats());
        assert_eq!(w.layers[0].extra_macs, 4 * 4 * 4);
        assert!(w.layers[0].weight_bytes > 8 * 4 * 4);
    }

    #[test]
    fn diffpool_extra_is_positive_and_scales_with_clusters() {
        let spec = Dataset::Cora.spec();
        let mut cfg = ModelConfig::paper(GnnModel::DiffPool, &spec);
        let stats = GraphStats::from_spec(&spec, None);
        let big = ModelWorkload::of(&cfg, &stats);
        cfg.diffpool_clusters = Some(10);
        let small = ModelWorkload::of(&cfg, &stats);
        assert!(big.diffpool_extra_flops > small.diffpool_extra_flops);
        assert!(small.diffpool_extra_flops > 0);
    }

    #[test]
    fn stats_of_generated_dataset_are_consistent() {
        let ds = GraphDataset::generate(Dataset::Cora, 0.2, 3);
        let stats = GraphStats::of(&ds, Some(25));
        assert_eq!(stats.vertices, ds.graph.num_vertices() as u64);
        assert_eq!(stats.edges, ds.graph.num_edges() as u64);
        assert_eq!(stats.feature_nnz, ds.features.nnz() as u64);
        let s = stats.sampled_in_edges.unwrap();
        assert!(s <= stats.directed_edges());
        assert!(s <= 25 * stats.vertices);
    }

    #[test]
    fn workload_totals_are_sums_of_layers() {
        let spec = Dataset::Citeseer.spec();
        let cfg = ModelConfig::paper(GnnModel::Gat, &spec);
        let stats = GraphStats::from_spec(&spec, None);
        let w = ModelWorkload::of(&cfg, &stats);
        let sum: u64 = w.layers.iter().map(LayerWorkload::flops_effective).sum();
        assert_eq!(w.flops_effective(), sum);
        assert!(w.total_bytes() > 0);
    }
}
