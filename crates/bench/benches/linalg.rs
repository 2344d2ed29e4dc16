//! Microbenchmarks for the dense linear-algebra hot path: square,
//! MLP-shaped and GCN-shaped matmuls.
//!
//! These are the kernels behind the Time Predictor's training
//! (`gopim-linalg::Mlp`) and the GCN Combination stages; the
//! `GOPIM_THREADS` env var controls how many pool workers they fan
//! out over (results are bit-identical at any thread count).

use gopim_linalg::Matrix;
use gopim_testkit::bench::Runner;

fn filled(rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| ((i as f64) * 0.37).sin())
            .collect(),
    )
}

fn main() {
    let mut runner = Runner::new("linalg");
    for &n in &[64usize, 128, 256] {
        let a = filled(n, n);
        let b = filled(n, n);
        runner.bench(&format!("matmul/{n}x{n}"), || a.matmul(&b));
    }
    // The predictor's training shapes: a 64-row micro-batch through the
    // 10-256-1 MLP's two layers.
    let x = filled(64, 10);
    let w1 = filled(10, 256);
    let h = filled(64, 256);
    let w2 = filled(256, 1);
    runner.bench("matmul/mlp-64x10x256", || x.matmul(&w1));
    runner.bench("matmul/mlp-64x256x1", || h.matmul(&w2));
    // The GCN training shapes of the `gcn_train` benchmark (1200
    // vertices, hidden width 48, 7 Cora classes): the combination
    // `X·W` and the weight gradient `Xᵀ·δ`, hidden and output layer.
    for &(m, k, n) in &[
        (1200usize, 48usize, 48usize),
        (1200, 48, 7),
        (48, 1200, 48),
        (48, 1200, 7),
    ] {
        let a = filled(m, k);
        let b = filled(k, n);
        let mut out = Matrix::zeros(m, n);
        runner.bench(&format!("matmul/{m}x{k}x{n}"), || {
            a.matmul_into(&b, &mut out)
        });
    }
    // The GCN's hidden-layer weight gradient `Xᵀ·δ` as the backward
    // pass forms it, from the untransposed 1200 × 48 operands.
    let x = filled(1200, 48);
    let delta = filled(1200, 48);
    runner.bench("matmul_tn/48x1200x48", || x.matmul_tn(&delta));
    runner.finish();
}
