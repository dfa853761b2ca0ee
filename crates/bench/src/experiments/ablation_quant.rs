//! Ablation — 8-bit weight quantization: the paper sizes the weight
//! buffer "for a 1-byte weight" (§VIII-A) without quantifying the
//! accuracy cost. This sweep measures GCN output error and DRAM weight
//! traffic with quantized vs f32 weights, justifying the engine's 1-byte
//! weight-traffic assumption.

use gnnie_gnn::layers::aggregate_gcn;
use gnnie_gnn::params::glorot;
use gnnie_graph::generate;
use gnnie_tensor::quant::QuantizedMatrix;
use gnnie_tensor::DenseMatrix;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Ctx, ExperimentResult, Table};

/// `(max relative output error, f32 weight bytes, quantized bytes)` for a
/// GCN layer of shape `f_in × f_out`.
pub fn quant_impact(f_in: usize, f_out: usize, seed: u64) -> (f32, u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = glorot(&mut rng, f_in, f_out);
    let q = QuantizedMatrix::quantize(&w);
    let g = generate::powerlaw_chung_lu(120, 700, 2.0, seed);
    let h = DenseMatrix::from_fn(120, f_in, |r, c| (((r * 11 + c * 3) % 9) as f32 - 4.0) * 0.2);
    let exact = aggregate_gcn(&g, &h.matmul(&w).expect("shapes agree"));
    let approx = aggregate_gcn(&g, &h.matmul(&q.dequantize()).expect("shapes agree"));
    let scale = exact.as_slice().iter().fold(1e-12f32, |m, &x| m.max(x.abs()));
    let err = exact.max_abs_diff(&approx) / scale;
    ((err), (f_in * f_out * 4) as u64, q.storage_bytes() as u64)
}

/// Regenerates the ablation table.
pub fn run(_ctx: &Ctx) -> ExperimentResult {
    let mut t = Table::new(&[
        "layer shape",
        "f32 bytes",
        "int8 bytes",
        "traffic saved",
        "max rel. output error",
    ]);
    for (f_in, f_out) in [(64usize, 32usize), (256, 128), (1433, 128)] {
        let (err, full, quant) = quant_impact(f_in, f_out, 11);
        t.row(vec![
            format!("{f_in}x{f_out}"),
            full.to_string(),
            quant.to_string(),
            format!("{:.1}x", full as f64 / quant as f64),
            format!("{err:.2e}"),
        ]);
    }
    let mut lines = t.render();
    lines.push(String::new());
    lines.push(
        "8-bit weights cut weight traffic ~4x at sub-percent GCN output error — the \
         basis for the paper's 128 KB weight-buffer sizing and this engine's 1-byte \
         weight-traffic model"
            .to_string(),
    );
    ExperimentResult::new("Ablation A3", "Weight quantization: traffic vs accuracy", lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_saves_4x_at_small_error() {
        let (err, full, quant) = quant_impact(128, 64, 3);
        assert!(full >= 4 * quant - 8, "int8 must cut traffic ~4x: {full} vs {quant}");
        assert!(err < 0.02, "int8 GCN output error too high: {err}");
    }

    #[test]
    fn bigger_layers_stay_accurate() {
        let (err, _, _) = quant_impact(1433, 128, 5);
        assert!(err < 0.02, "error {err}");
    }
}
