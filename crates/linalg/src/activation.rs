//! Activation functions.
//!
//! GoPIM's on-chip Activation Module implements ReLU (§IV-A(4)); the
//! predictor MLP also uses ReLU hidden layers. Softmax supports the
//! classification losses of the numeric GCN experiments.

use crate::Matrix;

/// Element-wise ReLU.
pub fn relu(x: &Matrix) -> Matrix {
    x.map(|v| v.max(0.0))
}

/// Element-wise ReLU written into `out` (the allocation-free form of
/// [`relu`] for arena-backed buffers; bit-identical to it).
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn relu_into(x: &Matrix, out: &mut Matrix) {
    assert_eq!(x.shape(), out.shape(), "shape mismatch in relu_into");
    for (o, &v) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
        *o = v.max(0.0);
    }
}

/// Row-wise softmax with the max-subtraction trick for numerical
/// stability.
pub fn softmax_rows(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        assert_eq!(relu(&x), Matrix::from_rows(&[&[0.0, 0.0, 2.0]]));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1000.0, 1000.0]]);
        let s = softmax_rows(&x);
        for r in 0..2 {
            let sum: f64 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
        // Large inputs must not overflow.
        assert!((s[(1, 0)] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn softmax_is_monotone() {
        let s = softmax_rows(&Matrix::from_rows(&[&[1.0, 3.0, 2.0]]));
        assert!(s[(0, 1)] > s[(0, 2)] && s[(0, 2)] > s[(0, 0)]);
    }
}
