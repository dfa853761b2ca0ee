//! Functional datapath verification.
//!
//! The cycle model in [`crate::engine`] claims the machine computes each
//! GNN correctly while the cache walks dynamic subgraphs and the
//! schedulers shuffle blocks between CPE rows. This module *performs the
//! actual arithmetic in hardware order* — k-block partial products
//! accumulated through MPE psums, edge aggregation in the exact order the
//! degree-aware cache processes edges, GAT softmax through the exp LUT —
//! and compares against the golden models of `gnnie-gnn`.
//!
//! A cache-policy bug that dropped or double-processed an edge, or a
//! scheduler bug that lost a block, shows up here as a numeric mismatch.

use gnnie_gnn::layers::{GatLayer, GnnLayer, SageAggregator};
use gnnie_graph::reorder::Permutation;
use gnnie_graph::CsrGraph;
use gnnie_mem::cache::build_edge_index;
use gnnie_mem::cache::PaperAlphaGamma;
use gnnie_mem::{CacheConfig, CacheSim, HbmModel, SimPool};
use gnnie_tensor::activations::{leaky_relu, relu, GAT_LEAKY_SLOPE};
use gnnie_tensor::{CsrMatrix, DenseMatrix, ExpLut};

/// How the functional datapath evaluates `exp` in the GAT softmax.
#[derive(Debug, Clone)]
pub enum ExpMode {
    /// Library `exp` (tight tolerances; the default for correctness tests).
    Exact,
    /// The hardware's lookup-table unit (paper §III, citing Nilsson et
    /// al.); expect LUT-level relative error.
    Lut(ExpLut),
}

impl ExpMode {
    fn eval(&self, x: f32) -> f32 {
        match self {
            ExpMode::Exact => x.exp(),
            ExpMode::Lut(lut) => lut.exp(x),
        }
    }
}

/// Weighting on the datapath: per-vertex k-block partial products, each
/// block's contribution accumulated separately (the MPE psum path,
/// §IV-A/B). Accepts sparse input features.
pub fn functional_weighting_sparse(
    features: &CsrMatrix,
    weight: &DenseMatrix,
    array_rows: usize,
) -> DenseMatrix {
    let v = features.rows();
    let f_in = features.cols();
    let f_out = weight.cols();
    let k = f_in.div_ceil(array_rows.max(1)).max(1);
    let mut out = DenseMatrix::zeros(v, f_out);
    let mut psum = vec![0.0f32; f_out];
    for r in 0..v {
        for b in 0..array_rows {
            let lo = b * k;
            if lo >= f_in {
                break;
            }
            let hi = ((b + 1) * k).min(f_in);
            // The CPE computes the block-local partial...
            psum.iter_mut().for_each(|p| *p = 0.0);
            let mut nonzero = false;
            for (c, x) in features.row_iter(r) {
                if c < lo || c >= hi {
                    continue;
                }
                nonzero = true;
                let wrow = weight.row(c);
                for (p, &w) in psum.iter_mut().zip(wrow) {
                    *p += x * w;
                }
            }
            // ...and the MPE accumulates it into the vertex psum
            // (zero blocks are skipped, contributing nothing).
            if nonzero {
                out.axpy_row(r, 1.0, &psum);
            }
        }
    }
    out
}

/// Dense-feature variant of [`functional_weighting_sparse`].
pub fn functional_weighting_dense(
    h: &DenseMatrix,
    weight: &DenseMatrix,
    array_rows: usize,
) -> DenseMatrix {
    functional_weighting_sparse(&CsrMatrix::from_dense(h), weight, array_rows)
}

/// Runs edge aggregation through the degree-aware cache, invoking
/// `on_edge` for every undirected edge in hardware processing order.
/// `capacity` vertices fit in the input buffer; the walk's vertex scans
/// shard across `pool`. Panics if the cache walk fails to process every
/// edge (that *is* the verification).
fn cache_edge_walk(
    graph: &CsrGraph,
    capacity: usize,
    gamma: u32,
    pool: &SimPool,
    mut on_edge: impl FnMut(u32, u32),
) {
    let mut cfg = CacheConfig::with_capacity(capacity.max(4), 64);
    cfg.gamma = gamma;
    let mut dram = HbmModel::hbm2_256gbps(1.3e9);
    let ids = build_edge_index(graph);
    let result = CacheSim::new(graph, &ids, cfg, pool).run_with(
        &mut PaperAlphaGamma::new(),
        &mut dram,
        &mut on_edge,
    );
    assert!(
        result.completed,
        "cache walk must process every edge exactly once (processed {} of {})",
        result.edges_processed,
        graph.num_edges()
    );
}

/// GCN aggregation in cache order: `out_i = Σ_{j∈{i}∪N(i)} hw_j/√(d̃_i d̃_j)`.
pub fn functional_aggregate_gcn(
    graph: &CsrGraph,
    hw: &DenseMatrix,
    capacity: usize,
    gamma: u32,
    pool: &SimPool,
) -> DenseMatrix {
    let n = graph.num_vertices();
    let inv: Vec<f32> = (0..n).map(|u| 1.0 / ((graph.degree(u) as f32 + 1.0).sqrt())).collect();
    let mut out = DenseMatrix::zeros(n, hw.cols());
    for (i, &inv_i) in inv.iter().enumerate() {
        out.axpy_row(i, inv_i * inv_i, hw.row(i));
    }
    cache_edge_walk(graph, capacity, gamma, pool, |u, vx| {
        let (u, vx) = (u as usize, vx as usize);
        let w = inv[u] * inv[vx];
        let vrow = hw.row(vx).to_vec();
        out.axpy_row(u, w, &vrow);
        let urow = hw.row(u).to_vec();
        out.axpy_row(vx, w, &urow);
    });
    out
}

/// GIN aggregation in cache order: `(1+ε)·hw_i + Σ_{j∈N(i)} hw_j`.
pub fn functional_aggregate_gin(
    graph: &CsrGraph,
    hw: &DenseMatrix,
    epsilon: f32,
    capacity: usize,
    gamma: u32,
    pool: &SimPool,
) -> DenseMatrix {
    let n = graph.num_vertices();
    let mut out = DenseMatrix::zeros(n, hw.cols());
    for i in 0..n {
        out.axpy_row(i, 1.0 + epsilon, hw.row(i));
    }
    cache_edge_walk(graph, capacity, gamma, pool, |u, vx| {
        let (u, vx) = (u as usize, vx as usize);
        let vrow = hw.row(vx).to_vec();
        out.axpy_row(u, 1.0, &vrow);
        let urow = hw.row(u).to_vec();
        out.axpy_row(vx, 1.0, &urow);
    });
    out
}

/// GAT attention + weighted aggregation in cache order, with softmax
/// numerators/denominators accumulated per edge exactly as Fig. 7's
/// dataflow does (including the self edge, then a final divide).
pub fn functional_aggregate_gat(
    graph: &CsrGraph,
    hw: &DenseMatrix,
    layer: &GatLayer,
    exp_mode: &ExpMode,
    capacity: usize,
    gamma: u32,
    pool: &SimPool,
) -> DenseMatrix {
    let n = graph.num_vertices();
    let f = hw.cols();
    let (e1, e2) = layer.attention_partials(hw);
    let mut num = DenseMatrix::zeros(n, f);
    let mut den = vec![0.0f32; n];
    // Self edges are processed at vertex arrival.
    for i in 0..n {
        let s = exp_mode.eval(leaky_relu(e1[i] + e2[i], GAT_LEAKY_SLOPE));
        num.axpy_row(i, s, hw.row(i));
        den[i] += s;
    }
    cache_edge_walk(graph, capacity, gamma, pool, |u, vx| {
        let (u, vx) = (u as usize, vx as usize);
        // Edge (u ← v): numerator exp(e_{u,1}+e_{v,2})·hw_v.
        let suv = exp_mode.eval(leaky_relu(e1[u] + e2[vx], GAT_LEAKY_SLOPE));
        let vrow = hw.row(vx).to_vec();
        num.axpy_row(u, suv, &vrow);
        den[u] += suv;
        // And the reverse direction (v ← u).
        let svu = exp_mode.eval(leaky_relu(e1[vx] + e2[u], GAT_LEAKY_SLOPE));
        let urow = hw.row(u).to_vec();
        num.axpy_row(vx, svu, &urow);
        den[vx] += svu;
    });
    // Final SFU divide.
    for (i, &d) in den.iter().enumerate() {
        for x in num.row_mut(i) {
            *x /= d;
        }
    }
    num
}

/// GraphSAGE max aggregation over sampled directed neighborhoods, walked
/// through the cache on the sampled-union graph. `sampled(u)` must return
/// `u`'s sampled neighbor list (the golden layer's own sampling).
pub fn functional_aggregate_sage_max(
    union_graph: &CsrGraph,
    hw: &DenseMatrix,
    sampled_pairs: &std::collections::HashSet<(u32, u32)>,
    capacity: usize,
    gamma: u32,
    pool: &SimPool,
) -> DenseMatrix {
    let n = union_graph.num_vertices();
    let f = hw.cols();
    let mut out = DenseMatrix::zeros(n, f);
    for i in 0..n {
        let row = hw.row(i).to_vec();
        out.row_mut(i).copy_from_slice(&row);
    }
    cache_edge_walk(union_graph, capacity, gamma, pool, |u, vx| {
        // Directional: u pulls from v only if u sampled v.
        if sampled_pairs.contains(&(u, vx)) {
            let vrow = hw.row(vx as usize).to_vec();
            for (o, &x) in out.row_mut(u as usize).iter_mut().zip(&vrow) {
                if x > *o {
                    *o = x;
                }
            }
        }
        if sampled_pairs.contains(&(vx, u)) {
            let urow = hw.row(u as usize).to_vec();
            for (o, &x) in out.row_mut(vx as usize).iter_mut().zip(&urow) {
                if x > *o {
                    *o = x;
                }
            }
        }
    });
    out
}

/// Runs one layer through the functional datapath. The graph is relabeled
/// into descending-degree order (mirroring the engine's preprocessing) and
/// the output is mapped back to original vertex ids.
#[allow(clippy::too_many_arguments)]
pub fn functional_layer(
    layer: &GnnLayer,
    graph: &CsrGraph,
    h: &DenseMatrix,
    array_rows: usize,
    capacity: usize,
    gamma: u32,
    exp_mode: &ExpMode,
    pool: &SimPool,
) -> DenseMatrix {
    let perm = Permutation::descending_degree(graph);
    let g2 = perm.apply(graph);
    let n = graph.num_vertices();
    // Features in new-id order.
    let h2 = DenseMatrix::from_fn(n, h.cols(), |r, c| h.get(perm.old_of(r) as usize, c));

    let out2 = match layer {
        GnnLayer::Gcn(l) => {
            let hw = functional_weighting_dense(&h2, l.weight(), array_rows);
            functional_aggregate_gcn(&g2, &hw, capacity, gamma, pool)
        }
        GnnLayer::Gat(l) => {
            let hw = functional_weighting_dense(&h2, l.weight(), array_rows);
            functional_aggregate_gat(&g2, &hw, l, exp_mode, capacity, gamma, pool)
        }
        GnnLayer::Gin(l) => {
            let mlp = l.mlp();
            let hw1 = functional_weighting_dense(&h2, &mlp.w1, array_rows);
            let mut agg =
                functional_aggregate_gin(&g2, &hw1, l.epsilon(), capacity, gamma, pool);
            for r in 0..agg.rows() {
                for (x, &b) in agg.row_mut(r).iter_mut().zip(&mlp.b1) {
                    *x = relu(*x + b);
                }
            }
            let mut out = functional_weighting_dense(&agg, &mlp.w2, array_rows);
            for r in 0..out.rows() {
                for (x, &b) in out.row_mut(r).iter_mut().zip(&mlp.b2) {
                    *x += b;
                }
            }
            out
        }
        GnnLayer::Sage(l) => {
            assert_eq!(
                l.aggregator(),
                SageAggregator::Max,
                "functional path implements the Table III max aggregator"
            );
            let hw = functional_weighting_dense(&h2, l.weight(), array_rows);
            // Sample on the *original* graph (golden sampling), then map
            // pairs into new-id space.
            let mut pairs = std::collections::HashSet::new();
            let mut union = gnnie_graph::EdgeList::new(n);
            for u in 0..n {
                for vtx in l.sampled_neighbors(graph, u) {
                    let nu = perm.new_of(u);
                    let nv = perm.new_of(vtx as usize);
                    pairs.insert((nu, nv));
                    union.push(nu, nv);
                }
            }
            union.dedup();
            let union_graph = CsrGraph::from_edge_list(union);
            functional_aggregate_sage_max(&union_graph, &hw, &pairs, capacity, gamma, pool)
        }
    };
    // Map back to original ids.
    DenseMatrix::from_fn(n, out2.cols(), |r, c| out2.get(perm.new_of(r) as usize, c))
}

/// Outcome of a full-model functional verification.
#[derive(Debug, Clone)]
pub struct VerifyOutcome {
    /// Per-layer max |functional − golden| relative to the layer's max
    /// absolute golden value.
    pub per_layer_rel_err: Vec<f32>,
    /// The worst layer error.
    pub max_rel_err: f32,
}

impl VerifyOutcome {
    /// Whether every layer matched within `tol`.
    pub fn passed(&self, tol: f32) -> bool {
        self.max_rel_err <= tol
    }
}

/// Verifies a full layer stack: runs both the golden model and the
/// functional datapath layer by layer (ReLU between layers) and records
/// relative errors. Uses a deliberately small cache (`|V|/3` vertices) so
/// eviction/refetch paths are exercised; the cache walks shard across
/// `pool` (the outcome is identical at any width).
pub fn verify_layers(
    layers: &[GnnLayer],
    graph: &CsrGraph,
    h0: &DenseMatrix,
    array_rows: usize,
    gamma: u32,
    exp_mode: &ExpMode,
    pool: &SimPool,
) -> VerifyOutcome {
    let capacity = (graph.num_vertices() / 3).max(4);
    let mut golden = h0.clone();
    let mut functional = h0.clone();
    let mut per_layer_rel_err = Vec::with_capacity(layers.len());
    for (i, layer) in layers.iter().enumerate() {
        golden = layer.forward(graph, &golden);
        functional = functional_layer(
            layer,
            graph,
            &functional,
            array_rows,
            capacity,
            gamma,
            exp_mode,
            pool,
        );
        let scale = golden.as_slice().iter().fold(0.0f32, |m, &x| m.max(x.abs())).max(1e-12);
        per_layer_rel_err.push(golden.max_abs_diff(&functional) / scale);
        if i + 1 < layers.len() {
            golden.map_inplace(relu);
            functional.map_inplace(relu);
        }
    }
    let max_rel_err = per_layer_rel_err.iter().copied().fold(0.0f32, f32::max);
    VerifyOutcome { per_layer_rel_err, max_rel_err }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnie_gnn::layers::{aggregate_gcn, GcnLayer, GinLayer, Mlp, SageLayer};
    use gnnie_gnn::model::{GnnModel, ModelConfig};
    use gnnie_gnn::params::ModelParams;
    use gnnie_graph::generate;

    fn features(n: usize, f: usize) -> DenseMatrix {
        DenseMatrix::from_fn(n, f, |r, c| (((r * 13 + c * 7) % 11) as f32 - 5.0) * 0.21)
    }

    #[test]
    fn functional_weighting_matches_matmul() {
        let h = features(30, 50);
        let w = DenseMatrix::from_fn(50, 16, |r, c| (((r + c) % 7) as f32 - 3.0) * 0.1);
        let exact = h.matmul(&w).unwrap();
        let fun = functional_weighting_dense(&h, &w, 16);
        let scale = exact.as_slice().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        assert!(exact.max_abs_diff(&fun) / scale < 1e-5);
    }

    #[test]
    fn functional_weighting_sparse_matches_dense_path() {
        let h = {
            let mut m = features(20, 64);
            // Sparsify: zero 80% of entries.
            m.map_inplace(|x| if (x * 100.0) as i32 % 5 != 0 { 0.0 } else { x });
            m
        };
        let w = DenseMatrix::from_fn(64, 8, |r, c| ((r * 3 + c) % 5) as f32 * 0.2 - 0.4);
        let sparse = CsrMatrix::from_dense(&h);
        let a = functional_weighting_sparse(&sparse, &w, 16);
        let b = h.matmul(&w).unwrap();
        let scale = b.as_slice().iter().fold(1e-12f32, |m, &x| m.max(x.abs()));
        assert!(a.max_abs_diff(&b) / scale < 1e-5);
    }

    #[test]
    fn cache_order_gcn_aggregation_matches_golden() {
        let g = generate::powerlaw_chung_lu(120, 600, 2.0, 5);
        let perm = Permutation::descending_degree(&g);
        let g2 = perm.apply(&g);
        let hw = features(120, 24);
        let fun = functional_aggregate_gcn(&g2, &hw, 20, 5, &SimPool::serial());
        let gold = aggregate_gcn(&g2, &hw);
        let scale = gold.as_slice().iter().fold(1e-12f32, |m, &x| m.max(x.abs()));
        assert!(
            gold.max_abs_diff(&fun) / scale < 1e-4,
            "cache-order aggregation must equal golden"
        );
    }

    #[test]
    fn tiny_cache_still_aggregates_correctly() {
        // Stresses eviction, refetch, and psum spill paths.
        let g = generate::powerlaw_chung_lu(200, 1400, 1.9, 11);
        let perm = Permutation::descending_degree(&g);
        let g2 = perm.apply(&g);
        let hw = features(200, 8);
        let fun = functional_aggregate_gcn(&g2, &hw, 8, 5, &SimPool::serial());
        let gold = aggregate_gcn(&g2, &hw);
        let scale = gold.as_slice().iter().fold(1e-12f32, |m, &x| m.max(x.abs()));
        assert!(gold.max_abs_diff(&fun) / scale < 1e-4);
    }

    #[test]
    fn gcn_layer_verifies_end_to_end() {
        let g = generate::erdos_renyi(60, 240, 9);
        let h0 = features(60, 32);
        let params = ModelParams::init(ModelConfig::custom(GnnModel::Gcn, &[32, 16, 4]), 3);
        let outcome =
            verify_layers(&params.layers, &g, &h0, 16, 5, &ExpMode::Exact, &SimPool::serial());
        assert!(outcome.passed(1e-4), "errors: {:?}", outcome.per_layer_rel_err);
    }

    #[test]
    fn gat_layer_verifies_with_exact_exp() {
        let g = generate::powerlaw_chung_lu(80, 400, 2.1, 13);
        let h0 = features(80, 24);
        let params = ModelParams::init(ModelConfig::custom(GnnModel::Gat, &[24, 12, 4]), 5);
        let outcome =
            verify_layers(&params.layers, &g, &h0, 16, 5, &ExpMode::Exact, &SimPool::serial());
        assert!(outcome.passed(2e-4), "errors: {:?}", outcome.per_layer_rel_err);
    }

    #[test]
    fn gat_layer_verifies_with_lut_exp_at_loose_tolerance() {
        let g = generate::erdos_renyi(50, 200, 17);
        let h0 = features(50, 16);
        let params = ModelParams::init(ModelConfig::custom(GnnModel::Gat, &[16, 8]), 7);
        let outcome = verify_layers(
            &params.layers,
            &g,
            &h0,
            16,
            5,
            &ExpMode::Lut(ExpLut::default()),
            &SimPool::serial(),
        );
        // LUT exp is approximate; softmax normalization cancels much of
        // the error but not all of it.
        assert!(outcome.passed(0.05), "errors: {:?}", outcome.per_layer_rel_err);
    }

    #[test]
    fn gin_layer_verifies() {
        let g = generate::erdos_renyi(70, 280, 21);
        let h0 = features(70, 20);
        let mlp = Mlp::new(
            DenseMatrix::from_fn(20, 12, |r, c| ((r + 2 * c) % 5) as f32 * 0.2 - 0.4),
            vec![0.05; 12],
            DenseMatrix::from_fn(12, 6, |r, c| ((2 * r + c) % 3) as f32 * 0.3 - 0.3),
            vec![-0.02; 6],
        );
        let layers = vec![GnnLayer::Gin(GinLayer::new(0.3, mlp))];
        let outcome =
            verify_layers(&layers, &g, &h0, 16, 5, &ExpMode::Exact, &SimPool::serial());
        assert!(outcome.passed(1e-4), "errors: {:?}", outcome.per_layer_rel_err);
    }

    #[test]
    fn sage_layer_verifies_with_sampling() {
        let g = generate::powerlaw_chung_lu(90, 700, 2.0, 23);
        let h0 = features(90, 16);
        let layers = vec![GnnLayer::Sage(SageLayer::new(
            DenseMatrix::from_fn(16, 8, |r, c| ((r * c + 1) % 7) as f32 * 0.1 - 0.3),
            SageAggregator::Max,
            5,
            99,
        ))];
        let outcome =
            verify_layers(&layers, &g, &h0, 16, 5, &ExpMode::Exact, &SimPool::serial());
        assert!(outcome.passed(1e-4), "errors: {:?}", outcome.per_layer_rel_err);
    }

    #[test]
    fn verify_detects_a_corrupted_datapath() {
        // Sanity check that the harness can actually fail: perturb the
        // golden weight after building the functional layer.
        let g = generate::erdos_renyi(40, 160, 2);
        let h0 = features(40, 10);
        let w_good = DenseMatrix::from_fn(10, 5, |r, c| ((r + c) % 3) as f32 * 0.5 - 0.5);
        let mut w_bad = w_good.clone();
        w_bad.set(0, 0, w_bad.get(0, 0) + 1.0);
        let golden = GcnLayer::new(w_good).forward(&g, &h0);
        let perm = Permutation::descending_degree(&g);
        let g2 = perm.apply(&g);
        let h2 = DenseMatrix::from_fn(40, 10, |r, c| h0.get(perm.old_of(r) as usize, c));
        let hw = functional_weighting_dense(&h2, &w_bad, 16);
        let out2 = functional_aggregate_gcn(&g2, &hw, 8, 5, &SimPool::serial());
        let out = DenseMatrix::from_fn(40, 5, |r, c| out2.get(perm.new_of(r) as usize, c));
        assert!(golden.max_abs_diff(&out) > 1e-3, "corruption must be detected");
    }
}
