//! Reference activation functions.
//!
//! These are the exact (`f64`-free, plain `f32`) versions used by the golden
//! GNN models. The accelerator's SFU path uses [`crate::explut::ExpLut`] for
//! exponentiation; tests bound the LUT's error against [`softmax`] here.

/// Rectified linear unit: `max(x, 0)`.
#[inline]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Leaky ReLU with the negative-side slope used by GAT (paper uses 0.2).
#[inline]
pub fn leaky_relu(x: f32, negative_slope: f32) -> f32 {
    if x >= 0.0 {
        x
    } else {
        negative_slope * x
    }
}

/// Default negative slope for GAT's LeakyReLU.
pub const GAT_LEAKY_SLOPE: f32 = 0.2;

/// Numerically stable softmax over a slice, in place.
///
/// An all-`-inf` or empty input leaves the slice unchanged.
pub fn softmax_inplace(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        return;
    }
    let mut denom = 0.0f32;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        denom += *x;
    }
    if denom > 0.0 {
        for x in xs.iter_mut() {
            *x /= denom;
        }
    }
}

/// Numerically stable softmax returning a new vector.
pub fn softmax(xs: &[f32]) -> Vec<f32> {
    let mut out = xs.to_vec();
    softmax_inplace(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(relu(-1.0), 0.0);
        assert_eq!(relu(0.0), 0.0);
        assert_eq!(relu(2.5), 2.5);
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        assert_eq!(leaky_relu(-10.0, 0.2), -2.0);
        assert_eq!(leaky_relu(3.0, 0.2), 3.0);
        assert_eq!(leaky_relu(0.0, 0.2), 0.0);
    }

    #[test]
    fn softmax_sums_to_one() {
        let out = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = out.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(out[2] > out[1] && out[1] > out[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_survives_large_inputs() {
        let out = softmax(&[1000.0, 1000.0]);
        assert!((out[0] - 0.5).abs() < 1e-6);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_handles_degenerate_inputs() {
        let mut empty: [f32; 0] = [];
        softmax_inplace(&mut empty);
        let out = softmax(&[f32::NEG_INFINITY, f32::NEG_INFINITY]);
        assert!(out.iter().all(|v| v.is_infinite()
            || *v == 0.0
            || v.is_nan()
            || *v < 0.0
            || *v >= 0.0));
    }

    #[test]
    fn softmax_single_element_is_one() {
        assert_eq!(softmax(&[42.0]), vec![1.0]);
    }
}
