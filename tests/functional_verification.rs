//! Integration: the accelerator's functional datapath computes exactly
//! what the golden GNN models compute, across models, graph shapes, and
//! cache pressures. A cache-policy bug that loses or duplicates an edge,
//! or a scheduler that drops a block, fails these tests numerically.

use gnnie::core::verify::{verify_layers, ExpMode};
use gnnie::gnn::model::ModelConfig;
use gnnie::gnn::params::ModelParams;
use gnnie::graph::generate;
use gnnie::mem::SimPool;
use gnnie::tensor::{DenseMatrix, ExpLut};
use gnnie::GnnModel;

fn features(n: usize, f: usize, scale: f32) -> DenseMatrix {
    DenseMatrix::from_fn(n, f, |r, c| (((r * 29 + c * 13) % 17) as f32 - 8.0) * scale)
}

fn verify_model_on(
    model: GnnModel,
    graph: &gnnie::graph::CsrGraph,
    widths: &[usize],
    tol: f32,
    seed: u64,
) {
    let params = ModelParams::init(ModelConfig::custom(model, widths), seed);
    let h0 = features(graph.num_vertices(), widths[0], 0.11);
    let outcome =
        verify_layers(&params.layers, graph, &h0, 16, 5, &ExpMode::Exact, &SimPool::serial());
    assert!(
        outcome.passed(tol),
        "{model} failed verification: per-layer errors {:?}",
        outcome.per_layer_rel_err
    );
}

#[test]
fn gcn_datapath_matches_golden_on_powerlaw() {
    let g = generate::powerlaw_chung_lu(300, 1800, 2.0, 5);
    verify_model_on(GnnModel::Gcn, &g, &[48, 24, 6], 2e-4, 11);
}

#[test]
fn gcn_datapath_matches_golden_on_erdos_renyi() {
    let g = generate::erdos_renyi(250, 1200, 7);
    verify_model_on(GnnModel::Gcn, &g, &[32, 16, 4], 2e-4, 13);
}

#[test]
fn gat_datapath_matches_golden() {
    let g = generate::powerlaw_chung_lu(200, 1000, 2.1, 9);
    verify_model_on(GnnModel::Gat, &g, &[32, 16, 8], 5e-4, 17);
}

#[test]
fn gin_datapath_matches_golden() {
    let g = generate::barabasi_albert(220, 4, 19);
    verify_model_on(GnnModel::GinConv, &g, &[24, 16, 8], 5e-4, 23);
}

#[test]
fn sage_datapath_matches_golden_with_sampling() {
    let g = generate::powerlaw_chung_lu(260, 2600, 1.9, 29);
    verify_model_on(GnnModel::GraphSage, &g, &[20, 12, 6], 2e-4, 31);
}

#[test]
fn gat_datapath_with_lut_exp_stays_within_hardware_tolerance() {
    let g = generate::erdos_renyi(150, 600, 37);
    let params = ModelParams::init(ModelConfig::custom(GnnModel::Gat, &[16, 8]), 41);
    let h0 = features(150, 16, 0.1);
    let outcome = verify_layers(
        &params.layers,
        &g,
        &h0,
        16,
        5,
        &ExpMode::Lut(ExpLut::default()),
        &SimPool::serial(),
    );
    assert!(
        outcome.passed(0.05),
        "LUT-exp softmax should stay within 5%: {:?}",
        outcome.per_layer_rel_err
    );
}

#[test]
fn datapath_survives_disconnected_graphs() {
    // Two components plus isolated vertices: the cache walk must still
    // process every edge and the self-loop handling must cover isolated
    // vertices.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for i in 0..40u32 {
        edges.push((i, (i + 1) % 41));
    }
    for i in 60..90u32 {
        edges.push((i, i + 10));
    }
    let g = gnnie::graph::CsrGraph::from_edges(120, edges);
    verify_model_on(GnnModel::Gcn, &g, &[12, 6], 2e-4, 43);
}

#[test]
fn datapath_handles_star_graph_hub() {
    // One hub with degree n-1: the extreme power-law case, the worst
    // cache-pressure shape.
    let n = 120u32;
    let g = gnnie::graph::CsrGraph::from_edges(n as usize, (1..n).map(|i| (0u32, i)));
    verify_model_on(GnnModel::Gcn, &g, &[10, 5], 2e-4, 47);
    verify_model_on(GnnModel::Gat, &g, &[10, 5], 5e-4, 53);
}

#[test]
fn multihead_gat_hardware_order_matches_golden_concat() {
    // Each head runs the full hardware pipeline (dense weighting in
    // k-blocks, cache-order attention aggregation); concatenating the
    // per-head results must equal the golden multi-head layer.
    use gnnie::core::verify::{functional_aggregate_gat, functional_weighting_dense};
    use gnnie::gnn::layers::GatLayer;
    use gnnie::gnn::multihead::{HeadCombine, MultiHeadGat};

    let g = generate::powerlaw_chung_lu(120, 600, 2.0, 21);
    let g2 = gnnie::graph::reorder::Permutation::descending_degree(&g).apply(&g);
    let h = features(120, 12, 0.09);
    let heads: Vec<GatLayer> = (0..3)
        .map(|k| {
            let w = DenseMatrix::from_fn(12, 6, |r, c| {
                (((r * 5 + c * 11 + k * 7) % 9) as f32 - 4.0) * 0.12
            });
            let attn = (0..12).map(|i| ((i * 3 + k) % 7) as f32 * 0.1 - 0.3).collect();
            GatLayer::new(w, attn)
        })
        .collect();
    let golden = MultiHeadGat::new(heads.clone(), HeadCombine::Concat).forward(&g2, &h);
    let mut hardware = DenseMatrix::zeros(120, 18);
    for (k, head) in heads.iter().enumerate() {
        let hw = functional_weighting_dense(&h, head.weight(), 16);
        let out = functional_aggregate_gat(
            &g2,
            &hw,
            head,
            &gnnie::core::verify::ExpMode::Exact,
            30,
            5,
            &SimPool::serial(),
        );
        for r in 0..120 {
            hardware.row_mut(r)[k * 6..(k + 1) * 6].copy_from_slice(out.row(r));
        }
    }
    let scale = golden.as_slice().iter().fold(1e-12f32, |m, &x| m.max(x.abs()));
    assert!(
        hardware.max_abs_diff(&golden) / scale < 1e-4,
        "multi-head hardware order diverged: {}",
        hardware.max_abs_diff(&golden)
    );
}
