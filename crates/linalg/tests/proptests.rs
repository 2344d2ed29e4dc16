//! Property-based tests for the linear-algebra kernels (gopim-testkit).

use gopim_linalg::activation::{relu, softmax_rows};
use gopim_linalg::loss::{mse_into, softmax_cross_entropy};
use gopim_linalg::ops::{add, hadamard, scale, sub};
use gopim_linalg::Matrix;
use gopim_testkit::prop::{check_with, Config, Draw};

fn matrix(d: &mut Draw, name: &str, rows: usize, cols: usize) -> Matrix {
    let data = d.vec(name, rows * cols..rows * cols + 1, |d| {
        d.draw("x", -10.0f64..10.0)
    });
    Matrix::from_vec(rows, cols, data)
}

#[test]
fn matmul_is_associative() {
    check_with("matmul_is_associative", Config::cases(48), |d| {
        let a = matrix(d, "a", 3, 4);
        let b = matrix(d, "b", 4, 2);
        let c = matrix(d, "c", 2, 5);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    });
}

#[test]
fn matmul_distributes_over_addition() {
    check_with("matmul_distributes_over_addition", Config::cases(48), |d| {
        let a = matrix(d, "a", 3, 4);
        let b = matrix(d, "b", 4, 2);
        let c = matrix(d, "c", 4, 2);
        let left = a.matmul(&add(&b, &c));
        let right = add(&a.matmul(&b), &a.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            assert!((x - y).abs() < 1e-9);
        }
    });
}

#[test]
fn transpose_reverses_products() {
    check_with("transpose_reverses_products", Config::cases(48), |d| {
        let a = matrix(d, "a", 3, 4);
        let b = matrix(d, "b", 4, 2);
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            assert!((x - y).abs() < 1e-9);
        }
    });
}

#[test]
fn elementwise_algebra() {
    check_with("elementwise_algebra", Config::cases(48), |d| {
        let a = matrix(d, "a", 4, 4);
        let b = matrix(d, "b", 4, 4);
        let s = d.draw("s", -5.0f64..5.0);
        // a + b − b == a
        let round = sub(&add(&a, &b), &b);
        for (x, y) in round.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-9);
        }
        // s·(a ⊙ b) == (s·a) ⊙ b
        let left = scale(&hadamard(&a, &b), s);
        let right = hadamard(&scale(&a, s), &b);
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            assert!((x - y).abs() < 1e-8);
        }
    });
}

#[test]
fn relu_is_idempotent_and_nonnegative() {
    check_with(
        "relu_is_idempotent_and_nonnegative",
        Config::cases(48),
        |d| {
            let a = matrix(d, "a", 3, 5);
            let r = relu(&a);
            assert!(r.as_slice().iter().all(|&v| v >= 0.0));
            assert_eq!(relu(&r), r.clone());
        },
    );
}

#[test]
fn softmax_is_shift_invariant() {
    check_with("softmax_is_shift_invariant", Config::cases(48), |d| {
        let a = matrix(d, "a", 2, 4);
        let shift = d.draw("shift", -50.0f64..50.0);
        let shifted = a.map(|v| v + shift);
        let s1 = softmax_rows(&a);
        let s2 = softmax_rows(&shifted);
        for (x, y) in s1.as_slice().iter().zip(s2.as_slice()) {
            assert!((x - y).abs() < 1e-9);
        }
    });
}

#[test]
fn mse_is_zero_iff_equal_and_symmetric() {
    check_with(
        "mse_is_zero_iff_equal_and_symmetric",
        Config::cases(48),
        |d| {
            let a = matrix(d, "a", 3, 3);
            let b = matrix(d, "b", 3, 3);
            let mut grad = Matrix::zeros(3, 3);
            let zero = mse_into(&a, &a, &mut grad);
            assert_eq!(zero, 0.0);
            let ab = mse_into(&a, &b, &mut grad);
            let ba = mse_into(&b, &a, &mut grad);
            assert!((ab - ba).abs() < 1e-12);
            assert!(ab >= 0.0);
        },
    );
}

#[test]
fn cross_entropy_is_bounded_below_by_log_uniform() {
    check_with(
        "cross_entropy_is_bounded_below_by_log_uniform",
        Config::cases(48),
        |d| {
            let logits = matrix(d, "logits", 4, 3);
            let labels = d.vec("labels", 4usize..5, |d| d.draw("l", 0u32..3));
            let (loss, grad) = softmax_cross_entropy(&logits, &labels);
            assert!(loss >= 0.0);
            // Gradient rows sum to zero (softmax − one-hot property).
            for i in 0..4 {
                let sum: f64 = grad.row(i).iter().sum();
                assert!(sum.abs() < 1e-12);
            }
        },
    );
}
