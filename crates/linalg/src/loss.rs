//! Loss functions with analytic gradients.

use crate::activation::softmax_rows;
use crate::Matrix;

/// Mean-squared error between `pred` and `target`, averaged over all
/// elements; its gradient with respect to `pred` is written into
/// `grad`, overwriting it. The loss sums the squared differences left
/// to right in row-major order.
///
/// # Panics
///
/// Panics if the three shapes differ or `pred` is empty.
pub fn mse_into(pred: &Matrix, target: &Matrix, grad: &mut Matrix) -> f64 {
    assert_eq!(pred.shape(), target.shape(), "shape mismatch in mse");
    assert_eq!(grad.shape(), pred.shape(), "gradient shape mismatch in mse");
    let n = pred.as_slice().len();
    assert!(n > 0, "mse of empty matrix");
    let mut loss = 0.0;
    for ((g, &p), &t) in grad
        .as_mut_slice()
        .iter_mut()
        .zip(pred.as_slice())
        .zip(target.as_slice())
    {
        let d = p - t;
        loss += d * d;
        *g = 2.0 * d / n as f64;
    }
    loss / n as f64
}

/// Softmax cross-entropy over rows: `logits` is `n × c`, `labels[i]`
/// is the class of row `i`. Returns the mean loss and the gradient with
/// respect to the logits (`softmax − one_hot`, scaled by `1/n`).
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or a label is out of range.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[u32]) -> (f64, Matrix) {
    assert_eq!(labels.len(), logits.rows(), "one label per row");
    let n = logits.rows();
    assert!(n > 0, "cross entropy of empty batch");
    let probs = softmax_rows(logits);
    let mut loss = 0.0;
    let mut grad = probs.clone();
    for (i, &label) in labels.iter().enumerate() {
        let c = label as usize;
        assert!(c < logits.cols(), "label {c} out of range");
        loss -= probs[(i, c)].max(1e-300).ln();
        grad[(i, c)] -= 1.0;
    }
    for v in grad.as_mut_slice() {
        *v /= n as f64;
    }
    (loss / n as f64, grad)
}

/// Classification accuracy: fraction of rows whose argmax equals the
/// label.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()`.
pub fn accuracy(logits: &Matrix, labels: &[u32]) -> f64 {
    assert_eq!(labels.len(), logits.rows(), "one label per row");
    if labels.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for (i, &label) in labels.iter().enumerate() {
        let row = logits.row(i);
        let argmax = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(j, _)| j);
        if argmax == label as usize {
            correct += 1;
        }
    }
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mse(pred: &Matrix, target: &Matrix) -> (f64, Matrix) {
        let mut grad = Matrix::from_vec(
            pred.rows(),
            pred.cols(),
            vec![f64::NAN; pred.as_slice().len()],
        );
        let loss = mse_into(pred, target, &mut grad);
        (loss, grad)
    }

    #[test]
    fn mse_zero_at_target() {
        let p = Matrix::from_rows(&[&[1.0, 2.0]]);
        let (l, g) = mse(&p, &p);
        assert_eq!(l, 0.0);
        assert_eq!(g, Matrix::zeros(1, 2));
    }

    #[test]
    fn mse_gradient_matches_finite_difference() {
        let p = Matrix::from_rows(&[&[0.3, -0.7], &[1.2, 0.0]]);
        let t = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, -1.0]]);
        let (_, g) = mse(&p, &t);
        let eps = 1e-6;
        for i in 0..2 {
            for j in 0..2 {
                let mut p2 = p.clone();
                p2[(i, j)] += eps;
                let (l2, _) = mse(&p2, &t);
                let (l1, _) = mse(&p, &t);
                let fd = (l2 - l1) / eps;
                assert!((fd - g[(i, j)]).abs() < 1e-5, "at ({i},{j})");
            }
        }
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = Matrix::from_rows(&[&[0.5, -0.2, 0.1], &[2.0, 1.0, -1.0]]);
        let labels = [2u32, 0u32];
        let (_, g) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-6;
        for i in 0..2 {
            for j in 0..3 {
                let mut l2 = logits.clone();
                l2[(i, j)] += eps;
                let (a, _) = softmax_cross_entropy(&l2, &labels);
                let (b, _) = softmax_cross_entropy(&logits, &labels);
                let fd = (a - b) / eps;
                assert!((fd - g[(i, j)]).abs() < 1e-5, "at ({i},{j})");
            }
        }
    }

    #[test]
    fn perfect_prediction_low_loss() {
        let logits = Matrix::from_rows(&[&[10.0, -10.0], &[-10.0, 10.0]]);
        let (l, _) = softmax_cross_entropy(&logits, &[0, 1]);
        assert!(l < 1e-6);
    }

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 0.0]]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-12);
    }
}
