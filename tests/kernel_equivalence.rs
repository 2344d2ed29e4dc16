//! Differential-equivalence harness for the fast paths.
//!
//! Two families of optimized code ship with this repo, both under the
//! bit-determinism contract:
//!
//! - the register-tile matmul/aggregation kernels (`gopim_linalg`),
//!   whose AVX2 and baseline-ISA builds must produce the same `f64`
//!   bits as each other and as the textbook loop for every shape, tile
//!   edge, and thread count;
//! - the DES's round-robin server rings (`gopim_pipeline::des`), which
//!   must drive the DES to the same makespans, completion tables and
//!   fault-session statistics as a test-local `BinaryHeap` engine, and
//!   emit the same `gopim-obs` spans at every thread count.
//!
//! Each property test draws randomized shapes and inputs through
//! `gopim-testkit` (replay a failure with `GOPIM_PT_SEED=<seed>`), and
//! every comparison is exact — `to_bits` equality, never tolerances.
//! The SIMD comparisons run via the `set_simd_enabled` runtime toggle,
//! so a single process exercises both dispatch paths even though the
//! build flags never change.

use gopim_faults::{FaultConfig, FaultPlan, FaultSession, MitigationPolicy, SessionConfig};
use gopim_gcn::aggregate::NormalizedAdjacency;
use gopim_graph::datasets::ModelConfig;
use gopim_graph::generate::power_law_profile;
use gopim_graph::CsrGraph;
use gopim_linalg::simd::{set_simd_enabled, simd_enabled};
use gopim_linalg::Matrix;
use gopim_par::Pool;
use gopim_pipeline::des::{simulate_des, simulate_des_faulty, DesResult, ReplicaModel};
use gopim_pipeline::{GcnWorkload, WorkloadOptions};
use gopim_testkit::prop::{check_with, Config};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Deterministic value stream for filling matrices (xorshift64*), so a
/// single drawn seed reproduces the whole input.
struct Values(u64);

impl Values {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        // Map to a modest range with both signs and uneven mantissas.
        (self.0 % 2_000_003) as f64 / 997.0 - 1000.0
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| self.next()).collect())
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// [`bits`] with every NaN mapped to one canonical pattern. Rust leaves
/// the sign and payload of a NaN that arithmetic produces unspecified,
/// so two orderings of the same adds may yield NaNs that differ only in
/// their sign bit, depending on how the optimizer arranged each. A NaN
/// must still sit exactly where the reference has one, and every other
/// value keeps all its bits.
fn canonical_bits(m: &Matrix) -> Vec<u64> {
    m.as_slice()
        .iter()
        .map(|v| if v.is_nan() { f64::NAN } else { *v }.to_bits())
        .collect()
}

/// The textbook product: one running sum per output, starting at 0.0
/// and adding `a[i][k]·b[k][j]` for ascending `k`, fused only on builds
/// with the `fma` target feature (the kernels' rounding policy).
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f64;
            for k in 0..a.cols() {
                if cfg!(target_feature = "fma") {
                    acc = a[(i, k)].mul_add(b[(k, j)], acc);
                } else {
                    acc += a[(i, k)] * b[(k, j)];
                }
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// Runs `f` with the SIMD path forced on, then forced off, restoring
/// the previous dispatch state afterwards.
fn with_both_paths<R>(mut f: impl FnMut() -> R) -> (R, R) {
    let was = simd_enabled();
    set_simd_enabled(true);
    let on = f();
    set_simd_enabled(false);
    let off = f();
    set_simd_enabled(was);
    (on, off)
}

#[test]
fn matmul_is_bit_identical_across_simd_paths_and_thread_counts() {
    check_with(
        "matmul_is_bit_identical_across_simd_paths_and_thread_counts",
        Config::cases(48),
        |d| {
            // Shapes hug the register tile (4 rows × 8 columns, column
            // tails of 4/2/1): draws land on exact multiples, 1-off
            // tails, and degenerate single rows/columns alike. `k`
            // reaches past a GCN layer's `Xᵀ·δ` reduction (1200).
            let m = d.draw("m", 1usize..40);
            let k = d.draw("k", 1usize..1300);
            let n = d.draw("n", 1usize..70);
            let seed = d.draw("seed", 1u64..u64::MAX);
            let threads = d.pick("threads", &[1usize, 4]);
            let mut vals = Values(seed);
            let a = vals.matrix(m, k);
            let b = vals.matrix(k, n);
            let pool = Pool::new(threads);
            let (on, off) = with_both_paths(|| pool.install(|| a.matmul(&b)));
            assert_eq!(
                bits(&on),
                bits(&off),
                "matmul bits diverged at {m}x{k}x{n}, {threads} threads"
            );
            assert_eq!(
                bits(&on),
                bits(&naive_matmul(&a, &b)),
                "matmul diverged from the naive reference at {m}x{k}x{n}"
            );
            // matmul_into over a dirty (non-zero) output buffer must
            // fully overwrite and agree with the allocating form.
            let mut out = vals.matrix(m, n);
            let (into_on, into_off) = with_both_paths(|| {
                pool.install(|| {
                    a.matmul_into(&b, &mut out);
                    out.clone()
                })
            });
            assert_eq!(
                bits(&into_on),
                bits(&on),
                "matmul_into diverged from matmul"
            );
            assert_eq!(bits(&into_on), bits(&into_off), "matmul_into SIMD diverged");
            // The row-sparse product writes exactly the listed rows,
            // with the full product's bits, over a dirty buffer.
            let stride = d.draw("stride", 1usize..5);
            let rows: Vec<usize> = (0..m).filter(|r| r % stride != 1).collect();
            let dirty = vals.matrix(m, n);
            let (rows_on, rows_off) = with_both_paths(|| {
                pool.install(|| {
                    let mut out = dirty.clone();
                    a.matmul_rows_into(&b, &rows, &mut out);
                    out
                })
            });
            assert_eq!(
                bits(&rows_on),
                bits(&rows_off),
                "matmul_rows_into SIMD diverged"
            );
            for r in 0..m {
                let want = if rows.contains(&r) {
                    on.row(r)
                } else {
                    dirty.row(r)
                };
                assert_eq!(
                    rows_on
                        .row(r)
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "matmul_rows_into row {r} wrong at {m}x{k}x{n}, stride {stride}"
                );
            }
        },
    );
}

#[test]
fn matmul_tn_matches_the_materialised_transpose_bitwise() {
    // `aᵀ·b` from the untransposed `a` against `a.transpose().matmul(b)`:
    // product rows on every residue of the 4-row register tile, widths
    // on both sides of every column tile (8, 4, 2, 1), and reductions
    // that are empty, single-term and as long as a GCN layer's `Xᵀ·δ`
    // (1200 vertices), on both SIMD paths and on pools of 1, 2 and 8
    // threads. The row-sparse form over every other row must equal the
    // full product of `b` with the unlisted rows zeroed (exact for the
    // finite operands drawn here), allocated or written over a dirty
    // buffer.
    let pools: Vec<Pool> = [1usize, 2, 8].into_iter().map(Pool::new).collect();
    let mut vals = Values(0x7e57_0b17);
    for m in 1..=8usize {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 17, 48] {
            for k in [0usize, 1, 1200] {
                let a = vals.matrix(k, m);
                let b = vals.matrix(k, n);
                let expect = bits(&a.transpose().matmul(&b));
                for pool in &pools {
                    let (on, off) = with_both_paths(|| pool.install(|| a.matmul_tn(&b)));
                    let threads = pool.threads();
                    assert_eq!(
                        bits(&on),
                        expect,
                        "matmul_tn {m}x{k}x{n}, {threads} threads"
                    );
                    assert_eq!(bits(&off), expect, "scalar matmul_tn {m}x{k}x{n}");
                }
                let rows: Vec<usize> = (0..k).filter(|r| r % 2 == 0).collect();
                let mut b_zeroed = b.clone();
                for r in (0..k).filter(|r| r % 2 == 1) {
                    b_zeroed.row_mut(r).fill(0.0);
                }
                let expect = bits(&a.transpose().matmul(&b_zeroed));
                let (on, off) = with_both_paths(|| a.matmul_tn_rows(&b, &rows));
                assert_eq!(bits(&on), expect, "matmul_tn_rows {m}x{k}x{n}");
                assert_eq!(bits(&off), expect, "scalar matmul_tn_rows {m}x{k}x{n}");
                // The in-place form overwrites a dirty output.
                let mut into = vals.matrix(m, n);
                a.matmul_tn_rows_into(&b, &rows, &mut into);
                assert_eq!(bits(&into), expect, "matmul_tn_rows_into {m}x{k}x{n}");
            }
        }
    }
}

/// The backward pass as it stood before row-sparse epochs: the full
/// `Âᵀ·δ = Â·δ` with the stale rows zeroed afterwards, `Xᵀ`
/// materialised for `∇W`, and `δ·Wᵀ` over every row.
fn dense_gradients(
    model: &gopim_gcn::GcnModel,
    graph: &CsrGraph,
    adj: &NormalizedAdjacency,
    caches: &gopim_gcn::model::ForwardCaches,
    mut delta: Matrix,
) -> Vec<Matrix> {
    let layers = model.num_layers();
    let mut grads = vec![Matrix::zeros(0, 0); layers];
    for l in (0..layers).rev() {
        if l != layers - 1 {
            gopim_linalg::ops::hadamard_relu_grad_in_place(&mut delta, caches.pre_activation(l));
        }
        let mut d_combined = adj.apply(graph, &delta);
        for v in 0..graph.num_vertices() {
            if !caches.fresh_rows(l).contains(&v) {
                d_combined.row_mut(v).fill(0.0);
            }
        }
        grads[l] = caches.input(l).transpose().matmul(&d_combined);
        if l > 0 {
            delta = d_combined.matmul(&model.weights()[l].transpose());
        }
    }
    grads
}

#[test]
fn row_sparse_gradients_match_the_dense_backward_pass_bitwise() {
    use gopim_gcn::selective::StaleFeatureCache;
    use gopim_gcn::GcnModel;
    use gopim_graph::generate::planted_partition;
    use gopim_mapping::SelectivePolicy;

    // A planted graph plus three isolated vertices (ids 60..63), which
    // rank last by degree, so ISU serves them stale after epoch 0.
    // Vertex 60's features hold an `inf` and vertex 61's a NaN: they
    // stay out of every other row (no edges), and their stale terms
    // must still reach `∇W` as they do in the dense product.
    let (planted, _) = planted_partition(60, 3, 8.0, 6.0, 21);
    let edges: Vec<(u32, u32)> = planted.edges().collect();
    let graph = CsrGraph::from_edges(63, &edges);
    let mut vals = Values(0x9e37_79b9);
    let mut x = Matrix::from_vec(63, 6, (0..63 * 6).map(|_| vals.next() / 1000.0).collect());
    x[(60, 2)] = f64::INFINITY;
    x[(61, 4)] = f64::NAN;
    let policy = SelectivePolicy::with_theta(0.5, 20);
    let important = policy.important_vertices(&graph.to_degree_profile());
    assert!(!important[60] && !important[61] && !important[62]);
    let delta = Matrix::from_vec(63, 3, (0..63 * 3).map(|_| vals.next() / 1000.0).collect());
    let adj = NormalizedAdjacency::new(&graph);
    // A finite model, then ones whose hidden-to-output weights
    // hold an `inf` or a NaN, which make every row of `δ·Wᵀ`
    // count (see the next test for a graph where that shows).
    for poison in [None, Some(f64::INFINITY), Some(f64::NAN)] {
        let mut weights = GcnModel::new(&[6, 8, 8, 3], 0.02, 5).weights().to_vec();
        if let Some(p) = poison {
            weights[2][(1, 1)] = p;
        }
        let model = GcnModel::from_weights(weights, 0.02);
        let mut cache = StaleFeatureCache::new(3, important.clone(), policy);
        let warm = model.forward_with_caches(&graph, &adj, &x, Some(&mut cache), 0);
        model.recycle_caches(warm);
        let caches = model.forward_with_caches(&graph, &adj, &x, Some(&mut cache), 1);
        assert!(
            (0..3).all(|l| caches.fresh_rows(l).len() < 63),
            "epoch 1 must serve stale rows"
        );
        let expect: Vec<Vec<u64>> = dense_gradients(&model, &graph, &adj, &caches, delta.clone())
            .iter()
            .map(canonical_bits)
            .collect();
        assert!(
            expect[0].iter().any(|&b| f64::from_bits(b).is_nan()),
            "the stale inf/NaN input rows must reach the first layer's ∇W"
        );
        let (on, off) = with_both_paths(|| {
            model
                .gradients(&graph, &adj, &caches, delta.clone())
                .iter()
                .map(canonical_bits)
                .collect::<Vec<_>>()
        });
        assert_eq!(
            on, expect,
            "row-sparse gradients diverged (W poisoned with {poison:?})"
        );
        assert_eq!(off, expect, "scalar row-sparse gradients diverged");
    }
}

/// `Mlp::fit` as it stood before its step ran in a workspace: every
/// step clones the batch and each layer input, transposes the input and
/// the weight by indexing, and allocates every intermediate (`add_bias`,
/// `relu`, `relu_grad`, `hadamard`, `mse`, `sum_rows`). The workspace
/// step is pinned against it bit for bit.
mod allocating_mlp {
    use gopim_linalg::activation::relu;
    use gopim_linalg::ops::hadamard;
    use gopim_linalg::optimizer::Adam;
    use gopim_linalg::Matrix;
    use gopim_rng::rngs::SmallRng;
    use gopim_rng::seq::SliceRandom;
    use gopim_rng::SeedableRng;

    fn add_bias(a: &Matrix, bias: &Matrix) -> Matrix {
        let mut out = a.clone();
        for r in 0..out.rows() {
            for (o, &b) in out.row_mut(r).iter_mut().zip(bias.row(0)) {
                *o += b;
            }
        }
        out
    }

    fn relu_grad(x: &Matrix) -> Matrix {
        x.map(|v| if v > 0.0 { 1.0 } else { 0.0 })
    }

    fn sum_rows(a: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(1, a.cols());
        for r in 0..a.rows() {
            for (o, &x) in out.row_mut(0).iter_mut().zip(a.row(r)) {
                *o += x;
            }
        }
        out
    }

    fn transpose(m: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(m.cols(), m.rows());
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                out[(j, i)] = m[(i, j)];
            }
        }
        out
    }

    fn mse(pred: &Matrix, target: &Matrix) -> (f64, Matrix) {
        let n = pred.as_slice().len();
        let mut loss = 0.0;
        let grad: Vec<f64> = pred
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(&p, &t)| {
                let d = p - t;
                loss += d * d;
                2.0 * d / n as f64
            })
            .collect();
        (
            loss / n as f64,
            Matrix::from_vec(pred.rows(), pred.cols(), grad),
        )
    }

    fn gather_rows(m: &Matrix, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), m.cols());
        for (i, &r) in rows.iter().enumerate() {
            out.row_mut(i).copy_from_slice(m.row(r));
        }
        out
    }

    /// The network's output for each row of `x`.
    pub fn predict(weights: &[Matrix], biases: &[Matrix], x: &Matrix) -> Matrix {
        let mut act = x.clone();
        for (i, (w, b)) in weights.iter().zip(biases).enumerate() {
            let z = add_bias(&act.matmul(w), b);
            act = if i + 1 == weights.len() { z } else { relu(&z) };
        }
        act
    }

    fn step(
        weights: &mut [Matrix],
        biases: &mut [Matrix],
        x: &Matrix,
        y: &Matrix,
        opts: &mut [(Adam, Adam)],
    ) -> f64 {
        let num_layers = weights.len();
        let mut inputs = Vec::with_capacity(num_layers);
        let mut pre = Vec::with_capacity(num_layers);
        let mut act = x.clone();
        for (i, (w, b)) in weights.iter().zip(biases.iter()).enumerate() {
            inputs.push(act.clone());
            let z = add_bias(&act.matmul(w), b);
            act = if i + 1 == num_layers {
                z.clone()
            } else {
                relu(&z)
            };
            pre.push(z);
        }
        let (loss, mut delta) = mse(&act, y);
        for i in (0..num_layers).rev() {
            if i + 1 != num_layers {
                delta = hadamard(&delta, &relu_grad(&pre[i]));
            }
            let grad_w = transpose(&inputs[i]).matmul(&delta);
            let grad_b = sum_rows(&delta);
            let next_delta = (i > 0).then(|| delta.matmul(&transpose(&weights[i])));
            let (opt_w, opt_b) = &mut opts[i];
            opt_w.step(&mut weights[i], &grad_w);
            opt_b.step(&mut biases[i], &grad_b);
            if let Some(d) = next_delta {
                delta = d;
            }
        }
        loss
    }

    pub fn fit(
        weights: &mut [Matrix],
        biases: &mut [Matrix],
        x: &Matrix,
        y: &Matrix,
        epochs: usize,
        batch_size: usize,
        learning_rate: f64,
    ) -> f64 {
        let mut opts: Vec<(Adam, Adam)> = weights
            .iter()
            .map(|_| (Adam::new(learning_rate), Adam::new(learning_rate)))
            .collect();
        let mut order: Vec<usize> = (0..x.rows()).collect();
        let mut rng = SmallRng::seed_from_u64(0x6d6c70);
        let mut last = 0.0;
        for epoch in 0..epochs {
            let progress = epoch as f64 / epochs.max(1) as f64;
            let lr = learning_rate
                * (0.02 + 0.98 * 0.5 * (1.0 + (std::f64::consts::PI * progress).cos()));
            for (w, b) in opts.iter_mut() {
                w.set_learning_rate(lr);
                b.set_learning_rate(lr);
            }
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(batch_size) {
                let bx = gather_rows(x, chunk);
                let by = gather_rows(y, chunk);
                epoch_loss += step(weights, biases, &bx, &by, &mut opts);
                batches += 1;
            }
            last = epoch_loss / batches as f64;
        }
        last
    }
}

/// Fits `sizes` on `rows` rows drawn from `seed` with both `Mlp::fit`
/// (SIMD on and off, on a pool of `threads`) and the allocating
/// reference, and asserts the final loss, every parameter and the
/// predictions agree bit for bit.
fn assert_mlp_fit_matches_reference(
    sizes: &[usize],
    rows: usize,
    batch: usize,
    epochs: usize,
    threads: usize,
    seed: u64,
) {
    use gopim_linalg::{Mlp, MlpConfig};
    let what = format!("{sizes:?}, {rows} rows, batch {batch}, {epochs} epochs, {threads} threads");
    let mut vals = Values(seed);
    // Inputs and targets of order 1, so training moves the weights.
    let mut small = |r: usize, c: usize| {
        Matrix::from_vec(r, c, (0..r * c).map(|_| vals.next() / 1000.0).collect())
    };
    let x = small(rows, sizes[0]);
    let y = small(rows, sizes[sizes.len() - 1]);
    let init = Mlp::new(MlpConfig::new(sizes.to_vec()), seed);
    let mut weights = init.weights().to_vec();
    let mut biases = init.biases().to_vec();
    let loss = allocating_mlp::fit(&mut weights, &mut biases, &x, &y, epochs, batch, 0.01);
    let params =
        |w: &[Matrix], b: &[Matrix]| -> Vec<Vec<u64>> { w.iter().chain(b).map(bits).collect() };
    let expect = (
        loss.to_bits(),
        params(&weights, &biases),
        bits(&allocating_mlp::predict(&weights, &biases, &x)),
    );
    let pool = Pool::new(threads);
    let (on, off) = with_both_paths(|| {
        pool.install(|| {
            let mut mlp = init.clone();
            let loss = mlp.fit(&x, &y, epochs, batch, 0.01);
            (
                loss.to_bits(),
                params(mlp.weights(), mlp.biases()),
                bits(&mlp.predict(&x)),
            )
        })
    });
    assert_eq!(
        on, expect,
        "Mlp::fit diverged from the allocating step: {what}"
    );
    assert_eq!(
        off, expect,
        "scalar Mlp::fit diverged from the allocating step: {what}"
    );
}

#[test]
fn mlp_fit_matches_the_allocating_step_bitwise() {
    check_with(
        "mlp_fit_matches_the_allocating_step_bitwise",
        Config::cases(24),
        |d| {
            // Depths 2–6 (paper counting) and widths 1–300, so the hidden
            // products reach past `PAR_MIN_WORK` and split over a
            // 4-thread pool; a row count of whole batches plus a tail
            // of 0 (none) to batch − 1, or a single batch smaller than
            // `batch`.
            let depth = d.draw("depth", 2usize..7);
            let width = d.draw("width", 1usize..301);
            let inputs = d.draw("inputs", 1usize..12);
            let outputs = d.draw("outputs", 1usize..3);
            let batch = d.draw("batch", 1usize..17);
            let full_batches = d.draw("full_batches", 0usize..3);
            let tail = d.draw("tail", 0usize..batch);
            let epochs = d.draw("epochs", 1usize..3);
            let threads = d.pick("threads", &[1usize, 4]);
            let seed = d.draw("seed", 1u64..u64::MAX);
            let rows = (full_batches * batch + tail).max(1);
            let mut sizes = vec![inputs];
            sizes.extend(std::iter::repeat_n(width, depth - 2));
            sizes.push(outputs);
            assert_mlp_fit_matches_reference(&sizes, rows, batch, epochs, threads, seed);
        },
    );
}

#[test]
fn mlp_fit_matches_the_allocating_step_at_every_tail_length() {
    // The paper's batch of 32 with every tail batch from 1 to 31 rows
    // behind one full batch, cycling through depths 2–6 and narrow to
    // wide hidden layers, so each remainder-batch workspace runs.
    for tail in 1..32usize {
        let depth = 2 + tail % 5;
        let width = [1usize, 3, 8, 17, 40][tail % 5];
        let mut sizes = vec![10];
        sizes.extend(std::iter::repeat_n(width, depth - 2));
        sizes.push(1);
        assert_mlp_fit_matches_reference(&sizes, 32 + tail, 32, 2, 1, 0x5eed + tail as u64);
    }
}

#[test]
fn aggregation_is_bit_identical_across_simd_paths_and_thread_counts() {
    check_with(
        "aggregation_is_bit_identical_across_simd_paths_and_thread_counts",
        Config::cases(32),
        |d| {
            let n = d.draw("n", 2usize..200);
            let d_feat = d.draw("d", 1usize..65);
            let num_edges = d.draw("edges", 0usize..400);
            let seed = d.draw("seed", 1u64..u64::MAX);
            let threads = d.pick("threads", &[1usize, 4]);
            let mut vals = Values(seed);
            let edges: Vec<(u32, u32)> = (0..num_edges)
                .map(|_| {
                    let u = (vals.0 % n as u64) as u32;
                    vals.next();
                    let v = (vals.0 % n as u64) as u32;
                    vals.next();
                    (u, v)
                })
                .filter(|&(u, v)| u != v)
                .collect();
            let graph = CsrGraph::from_edges(n, &edges);
            let x = vals.matrix(n, d_feat);
            let norm = NormalizedAdjacency::new(&graph);
            let pool = Pool::new(threads);
            let (on, off) = with_both_paths(|| pool.install(|| norm.apply(&graph, &x)));
            assert_eq!(
                bits(&on),
                bits(&off),
                "Â·X bits diverged (n={n}, d={d_feat})"
            );
        },
    );
}

fn model(layers: usize) -> ModelConfig {
    ModelConfig {
        num_layers: layers,
        learning_rate: 0.01,
        dropout: 0.0,
        input_channels: 32,
        hidden_channels: 64,
        output_channels: 16,
    }
}

fn assert_des_bits_equal(a: &DesResult, b: &DesResult, what: &str) {
    assert_eq!(
        a.makespan_ns.to_bits(),
        b.makespan_ns.to_bits(),
        "{what}: makespan diverged"
    );
    assert_eq!(
        a.completions_ns.len(),
        b.completions_ns.len(),
        "{what}: stage count diverged"
    );
    for (i, (ca, cb)) in a.completions_ns.iter().zip(&b.completions_ns).enumerate() {
        let ba: Vec<u64> = ca.iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u64> = cb.iter().map(|v| v.to_bits()).collect();
        assert_eq!(ba, bb, "{what}: stage {i} completions diverged");
    }
}

/// Maps `f64` bits to an integer that sorts like `f64::total_cmp`; the
/// map is its own inverse.
fn total_order(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The reference DES: every stage's servers sit in a `BinaryHeap` of
/// free times, and each micro-batch pops the earliest-free one. It
/// assumes no monotonicity, so the ring engine must match it bit for
/// bit. (Equal times are equal bits, so the tie order is moot.)
fn reference_des(
    wl: &GcnWorkload,
    replicas: &[usize],
    model: ReplicaModel,
    mut session: Option<&mut FaultSession>,
) -> DesResult {
    let (s, n_mb, b) = (wl.stages().len(), wl.num_microbatches(), wl.micro_batch());
    // (server count, split factor) per stage.
    let shape: Vec<(usize, usize)> = replicas
        .iter()
        .map(|&r| match model {
            ReplicaModel::DiscreteServers => (r, 1),
            ReplicaModel::InputSplit => ((r / r.min(b)).max(1), r.min(b)),
        })
        .collect();
    let mut pools: Vec<BinaryHeap<Reverse<i64>>> = shape
        .iter()
        .map(|&(count, _)| vec![Reverse(total_order(0)); count].into())
        .collect();
    let mut w_chan = vec![0.0f64; s];
    let mut completions = vec![vec![0.0f64; n_mb]; s];
    let mut makespan = 0.0f64;
    #[allow(clippy::needless_range_loop)] // j indexes per-stage completion tables
    for j in 0..n_mb {
        let mut prev_end = 0.0f64;
        for i in 0..s {
            let d_start = prev_end.max(w_chan[i]);
            let base = wl.write_ns(i, j);
            let w = match session.as_deref_mut() {
                Some(session) => session.write(i, j, d_start, base),
                None => base,
            };
            let w_end = d_start + wl.overhead_ns() + w;
            w_chan[i] = w_end;
            let Reverse(key) = pools[i].pop().expect("non-empty pool");
            let free = f64::from_bits(total_order(key) as u64);
            let c_end = w_end.max(free) + wl.stages()[i].compute_ns / shape[i].1 as f64;
            pools[i].push(Reverse(total_order(c_end.to_bits() as i64)));
            completions[i][j] = c_end;
            prev_end = c_end;
        }
        makespan = makespan.max(prev_end);
    }
    DesResult {
        makespan_ns: makespan,
        completions_ns: completions,
    }
}

#[test]
fn des_rings_are_bit_identical_to_a_heap_reference() {
    check_with(
        "des_rings_are_bit_identical_to_a_heap_reference",
        Config::cases(32),
        |d| {
            let n = d.draw("n", 64usize..3000);
            let avg = d.draw("avg", 2.0f64..50.0);
            let b = d.draw("b", 1usize..65);
            let profile = power_law_profile(n, avg, 0.8, 0.9, d.draw("pseed", 0u64..1000));
            let options = WorkloadOptions {
                micro_batch: b,
                ..WorkloadOptions::default()
            };
            let layers = d.draw("layers", 2usize..4);
            let wl = GcnWorkload::build_custom("equiv", &profile, &model(layers), &options);
            let s = wl.stages().len();
            let reps: Vec<usize> = (0..s)
                .map(|i| d.pick(&format!("r{i}"), &[1usize, 2, 3, 8, 64, 256]))
                .collect();
            let shape = vec![d.draw("groups", 1usize..24); s];
            let fault = FaultConfig {
                seed: d.draw("seed", 0u64..1_000_000),
                stuck_rate: d.draw("stuck_rate", 0.05f64..1.0),
                transient_rate: d.draw("transient_rate", 0.01f64..0.2),
                horizon_ns: 0.0,
            };
            let spares = d.draw("spares", 0usize..4);
            for m in [ReplicaModel::DiscreteServers, ReplicaModel::InputSplit] {
                let ring = simulate_des(&wl, &reps, m);
                let heap = reference_des(&wl, &reps, m, None);
                assert_des_bits_equal(&heap, &ring, &format!("{m:?} b={b} R={reps:?}"));
                let plan = FaultPlan::generate(
                    FaultConfig {
                        horizon_ns: ring.makespan_ns,
                        ..fault
                    },
                    &shape,
                );
                for policy in MitigationPolicy::ALL {
                    let mut cfg = SessionConfig::new(policy);
                    cfg.spare_groups = spares;
                    let mut ring_session = FaultSession::new(plan.clone(), cfg, &shape);
                    let mut heap_session = FaultSession::new(plan.clone(), cfg, &shape);
                    let ring = simulate_des_faulty(&wl, &reps, m, &mut ring_session);
                    let heap = reference_des(&wl, &reps, m, Some(&mut heap_session));
                    let what = format!("{m:?} {policy:?} b={b} R={reps:?}");
                    assert_des_bits_equal(&heap, &ring, &what);
                    assert_eq!(
                        heap_session.stats(),
                        ring_session.stats(),
                        "{what}: session stats diverged"
                    );
                }
            }
        },
    );
}

/// Runs a DES-heavy workload under `threads` workers and returns the
/// result plus the sorted identities of the `pipeline.des` spans it
/// traced.
fn traced_des(threads: usize) -> (DesResult, Vec<String>) {
    let wl = GcnWorkload::build(
        gopim_graph::datasets::Dataset::Ddi,
        &WorkloadOptions::default(),
    );
    let reps = vec![8; wl.stages().len()];
    let pool = Pool::new(threads);
    gopim_obs::set_trace_enabled(true);
    let _ = gopim_obs::span::drain();
    let result = {
        let _marker = gopim_obs::span!("kernel_equivalence.traced_des");
        pool.install(|| simulate_des(&wl, &reps, ReplicaModel::DiscreteServers))
    };
    let spans = gopim_obs::span::drain();
    gopim_obs::set_trace_enabled(false);
    // Tracing is process-wide, so concurrent tests leave their own
    // spans (DES runs included) in the drain: keep this thread's.
    let tid = spans
        .iter()
        .find(|e| e.name == "kernel_equivalence.traced_des")
        .expect("marker span recorded")
        .tid;
    let mut ids: Vec<String> = spans
        .iter()
        .filter(|e| e.tid == tid && e.name == "pipeline.des")
        .map(|e| e.identity())
        .collect();
    ids.sort();
    (result, ids)
}

#[test]
fn des_span_multiset_is_thread_count_invariant() {
    // The observable behaviour of a DES run — results AND the trace
    // it emits — must not depend on GOPIM_THREADS: serial (1 thread)
    // and the default-sized pool must agree bit for bit.
    let (serial, spans_serial) = traced_des(1);
    let default_threads = gopim_par::num_threads().max(2);
    let (par, spans_par) = traced_des(default_threads);
    assert!(
        !spans_serial.is_empty(),
        "DES runs must record spans (is span collection wired?)"
    );
    assert_des_bits_equal(&serial, &par, "1 vs default threads");
    assert_eq!(
        spans_serial, spans_par,
        "span multiset differs across thread counts"
    );
}

#[test]
fn training_trajectory_is_bit_identical_under_simd_toggle() {
    // End to end: a short GCN training run (forward, backward, Adam)
    // must land on byte-identical weights whichever kernel path the
    // dispatcher picks. This is the contract that lets GOPIM_NO_SIMD
    // be a pure kill-switch rather than a numerics knob.
    use gopim_gcn::model::GcnModel;
    use gopim_graph::generate::planted_partition;
    let run = || {
        let (g, labels) = planted_partition(120, 3, 8.0, 6.0, 11);
        let norm = NormalizedAdjacency::new(&g);
        let mut x = gopim_linalg::init::uniform(120, 5, 0.3, 17);
        for (v, &l) in labels.iter().enumerate() {
            x[(v, l as usize)] += 1.0;
        }
        let mut m = GcnModel::new(&[5, 16, 3], 0.02, 23);
        let mask = vec![true; 120];
        let mut losses = Vec::new();
        for e in 0..6 {
            losses.push(m.train_epoch(&g, &norm, &x, &labels, &mask, None, e));
        }
        let out = m.forward(&g, &norm, &x);
        (losses, bits(&out))
    };
    let (on, off) = with_both_paths(run);
    let loss_bits = |l: &[f64]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        loss_bits(&on.0),
        loss_bits(&off.0),
        "per-epoch losses diverged between SIMD and scalar paths"
    );
    assert_eq!(
        on.1, off.1,
        "final logits diverged between SIMD and scalar paths"
    );
}

#[test]
fn a_non_finite_weight_makes_every_delta_row_count() {
    use gopim_gcn::selective::StaleFeatureCache;
    use gopim_gcn::GcnModel;
    use gopim_mapping::SelectivePolicy;

    // Two vertices joined by one edge, one of them stale after epoch 0,
    // and an infinite output weight. The stale row's `δ_prev` is
    // `0·inf = NaN` in the dense pass; it reaches the fresh vertex's
    // `Pᵀ·δ`, whose own term is `+inf`, so the first layer's `∇W` is
    // NaN, not `+inf`. Writing that row as `+0.0` would change it.
    let graph = CsrGraph::from_edges(2, &[(0, 1)]);
    let x = Matrix::from_rows(&[&[1.0], &[1.0]]);
    let model = GcnModel::from_weights(
        vec![
            Matrix::from_rows(&[&[1.0]]),
            Matrix::from_rows(&[&[f64::INFINITY]]),
        ],
        0.02,
    );
    let policy = SelectivePolicy::with_theta(0.5, 20);
    let important = policy.important_vertices(&graph.to_degree_profile());
    let mut cache = StaleFeatureCache::new(2, important, policy);
    let norm = NormalizedAdjacency::new(&graph);
    let warm = model.forward_with_caches(&graph, &norm, &x, Some(&mut cache), 0);
    model.recycle_caches(warm);
    let caches = model.forward_with_caches(&graph, &norm, &x, Some(&mut cache), 1);
    assert_eq!(caches.fresh_rows(0).len(), 1, "one vertex must be stale");
    let delta = Matrix::from_rows(&[&[1.0], &[1.0]]);
    let expect: Vec<Vec<u64>> = dense_gradients(&model, &graph, &norm, &caches, delta.clone())
        .iter()
        .map(bits)
        .collect();
    assert!(f64::from_bits(expect[0][0]).is_nan(), "{expect:?}");
    let got: Vec<Vec<u64>> = model
        .gradients(&graph, &norm, &caches, delta)
        .iter()
        .map(bits)
        .collect();
    assert_eq!(got, expect);
}
