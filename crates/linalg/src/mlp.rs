//! Multilayer perceptron with ReLU hidden layers.
//!
//! This is the model family behind GoPIM's Time Predictor (§V-A): the
//! paper sweeps depth (2–6 layers, Fig. 9(b)) and hidden width
//! (Fig. 9(c)) and settles on a 3-layer 10-256-1 network. [`MlpConfig`]
//! expresses any such architecture.

use gopim_rng::rngs::SmallRng;
use gopim_rng::seq::SliceRandom;
use gopim_rng::SeedableRng;

use crate::activation::relu_into;
use crate::init::xavier_uniform;
use crate::loss::mse_into;
use crate::ops::{add_bias_in_place, hadamard_relu_grad_in_place, sum_rows_into};
use crate::optimizer::Adam;
use crate::Matrix;

/// Architecture of an MLP: the sizes of every layer, input to output.
///
/// "Number of layers" follows the paper's convention of counting the
/// input and output layers, so the selected 10-256-1 predictor is a
/// *3-layer* MLP with one hidden layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpConfig {
    /// Layer widths from input to output; length ≥ 2.
    pub layer_sizes: Vec<usize>,
}

impl MlpConfig {
    /// Builds a config from explicit layer sizes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new(layer_sizes: Vec<usize>) -> Self {
        assert!(layer_sizes.len() >= 2, "need input and output layers");
        assert!(
            layer_sizes.iter().all(|&s| s > 0),
            "layer sizes must be positive"
        );
        MlpConfig { layer_sizes }
    }

    /// The paper's selected predictor: 10 inputs, one 256-wide hidden
    /// layer, one output.
    pub fn paper_predictor() -> Self {
        MlpConfig::new(vec![10, 256, 1])
    }

    /// A uniform-depth config: `depth` total layers (paper counting)
    /// with all hidden layers `hidden` wide.
    ///
    /// # Panics
    ///
    /// Panics if `depth < 2`.
    pub fn uniform(inputs: usize, hidden: usize, outputs: usize, depth: usize) -> Self {
        assert!(depth >= 2, "depth must be at least 2");
        let mut sizes = vec![inputs];
        sizes.extend(std::iter::repeat_n(hidden, depth - 2));
        sizes.push(outputs);
        MlpConfig::new(sizes)
    }

    /// Number of layers in the paper's counting (including input and
    /// output).
    pub fn depth(&self) -> usize {
        self.layer_sizes.len()
    }
}

/// A trained (or trainable) MLP with ReLU hidden activations and a
/// linear output layer, optimized with Adam against MSE.
///
/// # Example
///
/// ```
/// use gopim_linalg::{Matrix, Mlp, MlpConfig};
///
/// // Learn y = 2x on a handful of points.
/// let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
/// let y = Matrix::from_rows(&[&[0.0], &[2.0], &[4.0], &[6.0]]);
/// let mut mlp = Mlp::new(MlpConfig::new(vec![1, 16, 1]), 42);
/// mlp.fit(&x, &y, 500, 4, 0.01);
/// let pred = mlp.predict(&Matrix::from_rows(&[&[1.5]]));
/// assert!((pred[(0, 0)] - 3.0).abs() < 0.3);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    config: MlpConfig,
    weights: Vec<Matrix>,
    biases: Vec<Matrix>,
}

impl Mlp {
    /// Initializes weights with Xavier uniform.
    pub fn new(config: MlpConfig, seed: u64) -> Self {
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for (i, w) in config.layer_sizes.windows(2).enumerate() {
            weights.push(xavier_uniform(
                w[0],
                w[1],
                seed.wrapping_add(i as u64 * 7919),
            ));
            biases.push(Matrix::zeros(1, w[1]));
        }
        Mlp {
            config,
            weights,
            biases,
        }
    }

    /// The architecture of this network.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Each layer's weight matrix (`inputs × outputs`), input layer
    /// first.
    pub fn weights(&self) -> &[Matrix] {
        &self.weights
    }

    /// Each layer's bias row (`1 × outputs`), input layer first.
    pub fn biases(&self) -> &[Matrix] {
        &self.biases
    }

    /// Number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.weights
            .iter()
            .zip(&self.biases)
            .map(|(w, b)| w.rows() * w.cols() + b.cols())
            .sum()
    }

    /// Forward pass returning the output for each input row.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` does not match the input layer width.
    pub fn predict(&self, x: &Matrix) -> Matrix {
        let sizes = &self.config.layer_sizes;
        let mut pre = zeros_per_layer(x.rows(), &sizes[1..]);
        let mut act = zeros_per_layer(x.rows(), &sizes[1..sizes.len() - 1]);
        self.forward(x, &mut pre, &mut act);
        // lint:allow(no-panic-in-lib): MlpConfig construction rejects empty layer lists, so there is an output layer
        pre.pop().expect("at least one layer")
    }

    /// Forward pass over `x`, overwriting the buffers: `pre[i]` becomes
    /// layer `i`'s pre-activation `x_i·W_i + b_i` (the product first,
    /// then the bias), and `act[i]`, for each hidden layer, its ReLU,
    /// which is the next layer's input `x_{i+1}`. The output layer is
    /// linear, so the last `pre` is the network's output.
    fn forward(&self, x: &Matrix, pre: &mut [Matrix], act: &mut [Matrix]) {
        assert_eq!(x.cols(), self.config.layer_sizes[0], "input width mismatch");
        for (i, ((w, b), z)) in self.weights.iter().zip(&self.biases).zip(pre).enumerate() {
            let (inputs, outputs) = act.split_at_mut(i);
            inputs.last().unwrap_or(x).matmul_into(w, z);
            add_bias_in_place(z, b);
            if let Some(a) = outputs.first_mut() {
                relu_into(z, a);
            }
        }
    }

    /// One gradient step on the batch in `ws` with the given Adam
    /// optimizers; returns the batch MSE. Every intermediate is written
    /// into `ws` and `grads`, so the step allocates no matrix.
    fn step(
        &mut self,
        ws: &mut Workspace,
        grads: &mut [LayerGrads],
        opts: &mut [(Adam, Adam)],
    ) -> f64 {
        self.forward(&ws.x, &mut ws.pre, &mut ws.act);
        let last = self.weights.len() - 1;
        let loss = mse_into(&ws.pre[last], &ws.y, &mut ws.delta[last]);
        for i in (0..=last).rev() {
            // `delta` is ∂loss/∂pre[i] once the ReLU mask is applied;
            // `below` holds the lower layers' deltas, the last of which
            // receives `δ·Wᵀ`.
            let (below, rest) = ws.delta.split_at_mut(i);
            let delta = &mut rest[0];
            if i < last {
                hadamard_relu_grad_in_place(delta, &ws.pre[i]);
            }
            let input = if i == 0 { &ws.x } else { &ws.act[i - 1] };
            let g = &mut grads[i];
            input.matmul_tn_rows_into(delta, &ws.rows, &mut g.w);
            sum_rows_into(delta, &mut g.b);
            if let (Some(next), Some(w_t)) = (below.last_mut(), g.w_t.as_mut()) {
                // `δ·Wᵀ` reads the weights before this layer's update.
                self.weights[i].transpose_into(w_t);
                delta.matmul_into(w_t, next);
            }
            let (opt_w, opt_b) = &mut opts[i];
            opt_w.step(&mut self.weights[i], &g.w);
            opt_b.step(&mut self.biases[i], &g.b);
        }
        loss
    }

    /// Trains with Adam + mini-batches for `epochs` epochs; returns the
    /// final epoch's mean batch loss.
    ///
    /// Each epoch shuffles the rows and steps through them `batch_size`
    /// at a time; the last batch holds the remainder. The step buffers
    /// are allocated once here, for the full batch and for the
    /// remainder, so no step allocates.
    ///
    /// # Panics
    ///
    /// Panics if `x` has no rows, `x` and `y` have different row
    /// counts, `batch_size` is zero, or widths mismatch the
    /// architecture.
    pub fn fit(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        epochs: usize,
        batch_size: usize,
        learning_rate: f64,
    ) -> f64 {
        assert_eq!(x.rows(), y.rows(), "x and y row count mismatch");
        assert!(x.rows() > 0, "cannot fit on zero rows");
        assert!(batch_size > 0, "batch size must be positive");
        assert_eq!(x.cols(), self.config.layer_sizes[0], "input width mismatch");
        assert_eq!(
            y.cols(),
            // lint:allow(no-panic-in-lib): layer_sizes is validated non-empty when the config is built
            *self.config.layer_sizes.last().unwrap(),
            "output width mismatch"
        );
        let mut opts: Vec<(Adam, Adam)> = self
            .weights
            .iter()
            .map(|_| (Adam::new(learning_rate), Adam::new(learning_rate)))
            .collect();
        let n = x.rows();
        let full_rows = batch_size.min(n);
        let mut full = Workspace::new(&self.config, full_rows);
        let tail_rows = n % full_rows;
        let mut tail = (tail_rows > 0).then(|| Workspace::new(&self.config, tail_rows));
        let mut grads: Vec<LayerGrads> = self
            .weights
            .iter()
            .enumerate()
            .map(|(i, w)| LayerGrads::new(w, i > 0))
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = SmallRng::seed_from_u64(0x6d6c70);
        let mut last = 0.0;
        for epoch in 0..epochs {
            // Cosine learning-rate decay (floor at 2 % of the base).
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
                let ws = match &mut tail {
                    Some(t) if chunk.len() < full_rows => t,
                    _ => &mut full,
                };
                gather_rows(x, chunk, &mut ws.x);
                gather_rows(y, chunk, &mut ws.y);
                epoch_loss += self.step(ws, &mut grads, &mut opts);
                batches += 1;
            }
            last = epoch_loss / batches as f64;
        }
        last
    }
}

/// The buffers of one training step at one batch size.
struct Workspace {
    /// The batch's input rows.
    x: Matrix,
    /// The batch's target rows.
    y: Matrix,
    /// Per layer, its pre-activation; the last is the network output.
    pre: Vec<Matrix>,
    /// Per hidden layer, its ReLU output (the next layer's input).
    act: Vec<Matrix>,
    /// Per layer, the loss gradient with respect to its pre-activation.
    delta: Vec<Matrix>,
    /// `0..rows`: the row list `∇W = Xᵀ·δ` sums over.
    rows: Vec<usize>,
}

impl Workspace {
    fn new(config: &MlpConfig, rows: usize) -> Self {
        let sizes = &config.layer_sizes;
        let outputs = &sizes[1..];
        Workspace {
            x: Matrix::zeros(rows, sizes[0]),
            y: Matrix::zeros(rows, sizes[sizes.len() - 1]),
            pre: zeros_per_layer(rows, outputs),
            act: zeros_per_layer(rows, &outputs[..outputs.len() - 1]),
            delta: zeros_per_layer(rows, outputs),
            rows: (0..rows).collect(),
        }
    }
}

/// One zeroed `rows × width` matrix per listed width.
fn zeros_per_layer(rows: usize, widths: &[usize]) -> Vec<Matrix> {
    widths.iter().map(|&w| Matrix::zeros(rows, w)).collect()
}

/// One layer's gradient buffers, whose shapes do not depend on the batch
/// size, so the full and the remainder batch share them.
struct LayerGrads {
    /// `∇W = Xᵀ·δ`, `inputs × outputs`.
    w: Matrix,
    /// `∇b`, the column sums of `δ`.
    b: Matrix,
    /// `Wᵀ`, copied before the layer's update for `δ·Wᵀ`; the input
    /// layer passes no delta down, so it has none.
    w_t: Option<Matrix>,
}

impl LayerGrads {
    fn new(w: &Matrix, passes_delta_down: bool) -> Self {
        LayerGrads {
            w: Matrix::zeros(w.rows(), w.cols()),
            b: Matrix::zeros(1, w.cols()),
            w_t: passes_delta_down.then(|| Matrix::zeros(w.cols(), w.rows())),
        }
    }
}

/// Copies the given rows of `m` into `out`, row `i` from row `rows[i]`.
fn gather_rows(m: &Matrix, rows: &[usize], out: &mut Matrix) {
    for (i, &r) in rows.iter().enumerate() {
        out.row_mut(i).copy_from_slice(m.row(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_constructors() {
        let c = MlpConfig::paper_predictor();
        assert_eq!(c.layer_sizes, vec![10, 256, 1]);
        assert_eq!(c.depth(), 3);
        let u = MlpConfig::uniform(10, 32, 1, 5);
        assert_eq!(u.layer_sizes, vec![10, 32, 32, 32, 1]);
    }

    #[test]
    fn parameter_count() {
        let mlp = Mlp::new(MlpConfig::new(vec![2, 3, 1]), 0);
        // 2*3 + 3 + 3*1 + 1 = 13
        assert_eq!(mlp.num_parameters(), 13);
    }

    #[test]
    fn predict_shape() {
        let mlp = Mlp::new(MlpConfig::new(vec![4, 8, 2]), 1);
        let x = Matrix::zeros(5, 4);
        assert_eq!(mlp.predict(&x).shape(), (5, 2));
    }

    #[test]
    fn fits_linear_function() {
        let n = 64;
        let x = Matrix::from_vec(n, 2, (0..2 * n).map(|i| (i % 7) as f64 / 7.0).collect());
        let y = Matrix::from_vec(
            n,
            1,
            (0..n)
                .map(|i| 3.0 * x[(i, 0)] - 2.0 * x[(i, 1)] + 0.5)
                .collect(),
        );
        let mut mlp = Mlp::new(MlpConfig::new(vec![2, 16, 1]), 3);
        let loss = mlp.fit(&x, &y, 300, 16, 0.01);
        assert!(loss < 1e-3, "final loss {loss}");
    }

    #[test]
    fn fits_nonlinear_function() {
        // y = x0 * x1 requires the hidden layer.
        let n = 128;
        let mut xd = Vec::new();
        let mut yd = Vec::new();
        for i in 0..n {
            let a = (i % 11) as f64 / 11.0;
            let b = (i % 13) as f64 / 13.0;
            xd.extend_from_slice(&[a, b]);
            yd.push(a * b);
        }
        let x = Matrix::from_vec(n, 2, xd);
        let y = Matrix::from_vec(n, 1, yd);
        let mut mlp = Mlp::new(MlpConfig::new(vec![2, 32, 1]), 4);
        let loss = mlp.fit(&x, &y, 400, 32, 0.01);
        assert!(loss < 5e-3, "final loss {loss}");
    }

    #[test]
    fn deeper_config_trains_too() {
        let x = Matrix::from_vec(32, 1, (0..32).map(|i| i as f64 / 32.0).collect());
        let y = x.map(|v| v * v);
        let mut mlp = Mlp::new(MlpConfig::uniform(1, 16, 1, 4), 5);
        let loss = mlp.fit(&x, &y, 300, 8, 0.01);
        assert!(loss < 1e-2, "final loss {loss}");
    }

    #[test]
    #[should_panic(expected = "cannot fit on zero rows")]
    fn fit_rejects_zero_rows() {
        let mut mlp = Mlp::new(MlpConfig::new(vec![2, 4, 1]), 0);
        mlp.fit(&Matrix::zeros(0, 2), &Matrix::zeros(0, 1), 3, 8, 0.01);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn predict_rejects_wrong_width() {
        let mlp = Mlp::new(MlpConfig::new(vec![3, 4, 1]), 0);
        let _ = mlp.predict(&Matrix::zeros(1, 2));
    }
}
