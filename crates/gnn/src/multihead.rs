//! Multi-head graph attention (the full GAT formulation).
//!
//! The paper's evaluation runs single-head GATs (Table III), but the GAT
//! architecture it cites uses K independent attention heads whose outputs
//! are concatenated on hidden layers and averaged on the output layer.
//! This module extends the golden models to multi-head attention so the
//! engine's cost model can be extrapolated (`K×` the attention work and
//! `K·F` concatenated output width) — the paper's "wide degree of GNNs"
//! claim, one step further.

use gnnie_graph::CsrGraph;
use gnnie_tensor::DenseMatrix;

use crate::layers::GatLayer;

/// How head outputs combine (Veličković et al., Eq. 5/6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeadCombine {
    /// Concatenate head outputs: hidden layers, output width `K·F`.
    Concat,
    /// Average head outputs: final layers, output width `F`.
    Average,
}

/// A K-head GAT layer: K independent [`GatLayer`]s sharing the input.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHeadGat {
    heads: Vec<GatLayer>,
    combine: HeadCombine,
}

impl MultiHeadGat {
    /// Creates a multi-head layer from per-head single-head layers.
    ///
    /// # Panics
    ///
    /// Panics if `heads` is empty or the heads disagree on shapes.
    pub fn new(heads: Vec<GatLayer>, combine: HeadCombine) -> Self {
        assert!(!heads.is_empty(), "need at least one attention head");
        let (rows, cols) = heads[0].weight().shape();
        for h in &heads {
            assert_eq!(h.weight().shape(), (rows, cols), "heads must share weight shape");
        }
        Self { heads, combine }
    }

    /// The per-head layers.
    pub fn heads(&self) -> &[GatLayer] {
        &self.heads
    }

    /// The combine mode.
    pub fn combine(&self) -> HeadCombine {
        self.combine
    }

    /// Output feature width after combining.
    pub fn output_width(&self) -> usize {
        let f = self.heads[0].weight().cols();
        match self.combine {
            HeadCombine::Concat => f * self.heads.len(),
            HeadCombine::Average => f,
        }
    }

    /// Forward pass: each head attends independently; outputs concatenate
    /// or average. Returned before the outer activation σ.
    ///
    /// # Panics
    ///
    /// Panics if `h` has a row count different from `g.num_vertices()`.
    pub fn forward(&self, g: &CsrGraph, h: &DenseMatrix) -> DenseMatrix {
        assert_eq!(h.rows(), g.num_vertices(), "feature rows must match vertex count");
        let per_head: Vec<DenseMatrix> =
            self.heads.iter().map(|head| head.forward(g, h)).collect();
        let n = g.num_vertices();
        let f = per_head[0].cols();
        match self.combine {
            HeadCombine::Concat => {
                let mut out = DenseMatrix::zeros(n, f * per_head.len());
                for (k, head_out) in per_head.iter().enumerate() {
                    for r in 0..n {
                        out.row_mut(r)[k * f..(k + 1) * f].copy_from_slice(head_out.row(r));
                    }
                }
                out
            }
            HeadCombine::Average => {
                let mut out = DenseMatrix::zeros(n, f);
                let scale = 1.0 / per_head.len() as f32;
                for head_out in &per_head {
                    for r in 0..n {
                        out.axpy_row(r, scale, head_out.row(r));
                    }
                }
                out
            }
        }
    }

    /// Attention-phase operation counts relative to a single head: the
    /// dot-product passes, edge softmax ops, and weighted accumulations
    /// all scale by `K` (each head attends independently), which is what
    /// the engine's GAT cost extrapolates by.
    pub fn attention_cost_multiplier(&self) -> u64 {
        self.heads.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnie_tensor::DenseMatrix;

    fn head(seed: usize, f_in: usize, f_out: usize) -> GatLayer {
        let w = DenseMatrix::from_fn(f_in, f_out, |r, c| {
            (((r * 7 + c * 3 + seed) % 9) as f32 - 4.0) * 0.15
        });
        let attn = (0..2 * f_out).map(|i| ((i * 5 + seed) % 7) as f32 * 0.1 - 0.3).collect();
        GatLayer::new(w, attn)
    }

    fn graph() -> CsrGraph {
        gnnie_graph::generate::erdos_renyi(30, 90, 11)
    }

    fn features() -> DenseMatrix {
        DenseMatrix::from_fn(30, 8, |r, c| ((r + 2 * c) % 5) as f32 * 0.3 - 0.6)
    }

    #[test]
    fn single_head_concat_equals_plain_gat() {
        let g = graph();
        let h = features();
        let head0 = head(0, 8, 6);
        let multi = MultiHeadGat::new(vec![head0.clone()], HeadCombine::Concat);
        assert!(multi.forward(&g, &h).max_abs_diff(&head0.forward(&g, &h)) < 1e-6);
        assert_eq!(multi.output_width(), 6);
    }

    #[test]
    fn concat_stacks_head_outputs() {
        let g = graph();
        let h = features();
        let h1 = head(1, 8, 4);
        let h2 = head(2, 8, 4);
        let multi = MultiHeadGat::new(vec![h1.clone(), h2.clone()], HeadCombine::Concat);
        let out = multi.forward(&g, &h);
        assert_eq!(out.shape(), (30, 8));
        let o1 = h1.forward(&g, &h);
        let o2 = h2.forward(&g, &h);
        for r in 0..30 {
            assert_eq!(&out.row(r)[..4], o1.row(r));
            assert_eq!(&out.row(r)[4..], o2.row(r));
        }
    }

    #[test]
    fn average_means_head_outputs() {
        let g = graph();
        let h = features();
        let h1 = head(3, 8, 5);
        let h2 = head(4, 8, 5);
        let multi = MultiHeadGat::new(vec![h1.clone(), h2.clone()], HeadCombine::Average);
        let out = multi.forward(&g, &h);
        assert_eq!(out.shape(), (30, 5));
        let o1 = h1.forward(&g, &h);
        let o2 = h2.forward(&g, &h);
        for r in 0..30 {
            for c in 0..5 {
                let want = 0.5 * (o1.get(r, c) + o2.get(r, c));
                assert!((out.get(r, c) - want).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn identical_heads_average_to_single_head() {
        let g = graph();
        let h = features();
        let h0 = head(5, 8, 6);
        let multi =
            MultiHeadGat::new(vec![h0.clone(), h0.clone(), h0.clone()], HeadCombine::Average);
        assert!(multi.forward(&g, &h).max_abs_diff(&h0.forward(&g, &h)) < 1e-5);
    }

    #[test]
    fn cost_multiplier_is_head_count() {
        let multi = MultiHeadGat::new(vec![head(0, 4, 4); 8], HeadCombine::Concat);
        assert_eq!(multi.attention_cost_multiplier(), 8);
        assert_eq!(multi.output_width(), 32);
    }

    #[test]
    #[should_panic(expected = "need at least one attention head")]
    fn rejects_empty_head_list() {
        let _ = MultiHeadGat::new(Vec::new(), HeadCombine::Concat);
    }

    #[test]
    #[should_panic(expected = "heads must share weight shape")]
    fn rejects_mismatched_heads() {
        let _ = MultiHeadGat::new(vec![head(0, 8, 4), head(1, 8, 5)], HeadCombine::Concat);
    }
}
