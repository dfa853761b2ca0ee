//! Building a custom GNN stack and verifying the accelerator's
//! functional datapath against the golden model — the workflow a user
//! extending GNNIE to a new GNN variant would follow.
//!
//! The functional datapath executes the *hardware's* arithmetic order:
//! k-block partial products through MPE psums, edge aggregation in
//! degree-aware cache order, GAT softmax through the exp LUT.
//!
//! ```sh
//! cargo run --example custom_gnn_verification
//! ```

use gnnie::core::verify::{verify_layers, ExpMode};
use gnnie::gnn::layers::{GatLayer, GcnLayer, GnnLayer, SageAggregator, SageLayer};
use gnnie::gnn::params::glorot;
use gnnie::graph::generate;
use gnnie::mem::SimPool;
use gnnie::tensor::{DenseMatrix, ExpLut};

use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A mixed stack no paper table prescribes: GCN → GAT → GraphSAGE.
    let mut rng = StdRng::seed_from_u64(2022);
    let f0 = 64;
    let layers = vec![
        GnnLayer::Gcn(GcnLayer::new(glorot(&mut rng, f0, 32))),
        GnnLayer::Gat(GatLayer::new(glorot(&mut rng, 32, 16), {
            let a = glorot(&mut rng, 1, 32);
            a.as_slice().to_vec()
        })),
        GnnLayer::Sage(SageLayer::new(glorot(&mut rng, 16, 8), SageAggregator::Max, 10, 99)),
    ];

    let g = generate::powerlaw_chung_lu(400, 2400, 2.0, 11);
    let h0 =
        DenseMatrix::from_fn(400, f0, |r, c| (((r * 31 + c * 17) % 23) as f32 - 11.0) * 0.05);
    println!(
        "verifying a 3-layer custom stack (GCN→GAT→SAGE) on a {}-vertex power-law graph",
        g.num_vertices()
    );

    // Exact exp: numerics should match the golden model to float noise.
    let exact = verify_layers(&layers, &g, &h0, 16, 5, &ExpMode::Exact, &SimPool::serial());
    println!("\nexact-exp datapath:");
    for (i, err) in exact.per_layer_rel_err.iter().enumerate() {
        println!("  layer {i}: max relative error {err:.2e}");
    }
    assert!(exact.passed(1e-3), "exact datapath must match golden");
    println!("  PASS (tolerance 1e-3)");

    // LUT exp: the hardware's 256-entry exponentiation table introduces
    // bounded softmax error.
    let lut = ExpLut::default();
    println!(
        "\nLUT-exp datapath ({} entries, max relative LUT error {:.2e} on [-8, 8]):",
        lut.entries(),
        lut.max_relative_error(-8.0, 8.0, 10_000)
    );
    let approx = verify_layers(&layers, &g, &h0, 16, 5, &ExpMode::Lut(lut), &SimPool::serial());
    for (i, err) in approx.per_layer_rel_err.iter().enumerate() {
        println!("  layer {i}: max relative error {err:.2e}");
    }
    assert!(approx.passed(0.05), "LUT datapath must stay within 5%");
    println!("  PASS (tolerance 5e-2)");

    println!("\nthe functional datapath (block scheduling + cache-order aggregation)");
    println!("computes the same result as the golden models — the cycle model's");
    println!("claims are about a machine that actually computes the right thing.");
}
