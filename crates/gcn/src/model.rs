//! The GCN model (the paper's Eqs. 1–2) with full-batch
//! backpropagation.

use std::borrow::Cow;
use std::cell::RefCell;

use gopim_graph::CsrGraph;
use gopim_linalg::activation::{relu, relu_into};
use gopim_linalg::arena::BufferArena;
use gopim_linalg::init::xavier_uniform;
use gopim_linalg::loss::softmax_cross_entropy;
use gopim_linalg::ops::hadamard_relu_grad_in_place;
use gopim_linalg::optimizer::Adam;
use gopim_linalg::Matrix;
use gopim_obs::metrics::LazyCounter;

use crate::aggregate::{unlisted, zero_unlisted_rows, NormalizedAdjacency};
use crate::selective::StaleFeatureCache;

/// Rows of combination (forward) and backward work skipped because
/// the ISU cache served them stale: each stale row counts once in its
/// layer's forward pass and once in its backward pass.
static ROWS_SKIPPED: LazyCounter = LazyCounter::new("gcn.isu.rows_skipped");

/// A multi-layer GCN: layer `l` computes
/// `X^{l+1} = σ(Â · (X^l · W^l))` — Combination (`X·W`) then
/// Aggregation (`Â·C`), with ReLU on every layer but the last.
///
/// With an ISU cache an epoch computes only the rows the cache
/// rewrites: the combination of its fresh vertices (straight into the
/// cache's crossbar-resident matrix), and in the backward pass their
/// rows of `Â·δ`, their terms of `∇W = Xᵀ·δ` and their rows of
/// `δ·Wᵀ`. A stale row's gradient is `+0.0`, so leaving its terms out
/// keeps every output bit (DESIGN.md §11 gives the argument and its
/// finite-operand guards), and an epoch with no stale row runs the same
/// kernels over every row.
///
/// Per-epoch temporaries (layer inputs, combination outputs,
/// aggregation outputs, the output gradient and backward deltas) come
/// from an internal [`BufferArena`] and go back to it:
/// [`GcnModel::gradients`] recycles its deltas,
/// [`GcnModel::recycle_caches`] (which [`GcnModel::train_epoch`] calls
/// itself) the forward buffers. Every buffer the arena holds is one it
/// handed out, so after the first epoch its free list stays at one
/// buffer per live temporary and the epoch loop stops allocating them;
/// the unit tests pin that for plain and ISU training. Only the
/// output gradient, which the loss accumulates into, is zero-filled;
/// every other buffer is one a kernel overwrites whole (the arena's
/// write-once rule).
#[derive(Debug)]
pub struct GcnModel {
    weights: Vec<Matrix>,
    optimizers: Vec<Adam>,
    scratch: RefCell<BufferArena>,
}

impl GcnModel {
    /// Creates a model with the given layer widths (`dims.len() - 1`
    /// layers).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given or
    /// `learning_rate <= 0`.
    pub fn new(dims: &[usize], learning_rate: f64, seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least one layer");
        let weights: Vec<Matrix> = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| xavier_uniform(w[0], w[1], seed.wrapping_add(i as u64 * 131)))
            .collect();
        GcnModel::from_weights(weights, learning_rate)
    }

    /// Creates a model from explicit per-layer weights (`W^l` is
    /// `width_l × width_{l+1}`), each with a fresh Adam state.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, consecutive shapes do not chain,
    /// or `learning_rate <= 0`.
    pub fn from_weights(weights: Vec<Matrix>, learning_rate: f64) -> Self {
        assert!(!weights.is_empty(), "need at least one layer");
        assert!(
            weights.windows(2).all(|w| w[0].cols() == w[1].rows()),
            "layer widths must chain"
        );
        let optimizers = weights.iter().map(|_| Adam::new(learning_rate)).collect();
        GcnModel {
            weights,
            optimizers,
            scratch: RefCell::default(),
        }
    }

    /// Number of GCN layers.
    pub fn num_layers(&self) -> usize {
        self.weights.len()
    }

    /// The per-layer weight matrices `W^l`.
    pub fn weights(&self) -> &[Matrix] {
        &self.weights
    }

    /// Pure forward pass (no staleness), returning the logits.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != graph.num_vertices()` or the feature
    /// width mismatches the first layer.
    pub fn forward(&self, graph: &CsrGraph, adj: &NormalizedAdjacency, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        let last = self.num_layers() - 1;
        for (l, w) in self.weights.iter().enumerate() {
            let combined = h.matmul(w);
            let aggregated = adj.apply(graph, &combined);
            h = if l == last {
                aggregated
            } else {
                relu(&aggregated)
            };
        }
        h
    }

    /// Forward pass recording everything backprop needs: per-layer
    /// inputs, post-aggregation pre-activations, and which rows the
    /// ISU cache refreshed (the rest were served stale). The last
    /// entry of `pre_acts` is the output (the final layer has no ReLU).
    pub fn forward_with_caches(
        &self,
        graph: &CsrGraph,
        adj: &NormalizedAdjacency,
        x: &Matrix,
        mut cache: Option<&mut StaleFeatureCache>,
        epoch: usize,
    ) -> ForwardCaches {
        let n = graph.num_vertices();
        assert_eq!(x.rows(), n, "one feature row per vertex");
        let num_layers = self.num_layers();
        let last = num_layers - 1;
        let mut arena = self.scratch.borrow_mut();
        let mut inputs: Vec<Matrix> = Vec::with_capacity(num_layers);
        let mut fresh_rows: Vec<Vec<usize>> = Vec::with_capacity(num_layers);
        let mut pre_acts: Vec<Matrix> = Vec::with_capacity(num_layers);
        let mut h = {
            let mut first = arena.alloc_unzeroed(x.rows(), x.cols());
            first.as_mut_slice().copy_from_slice(x.as_slice());
            first
        };
        for l in 0..num_layers {
            inputs.push(h);
            let input = &inputs[l];
            let w = &self.weights[l];
            // With an ISU cache, the combination computes only the rows
            // the cache refreshes, straight into the cache's own matrix,
            // and the aggregation reads that matrix (the other rows
            // stale); without one, every row goes through an arena
            // buffer.
            let mut aggregated = arena.alloc_unzeroed(n, w.cols());
            let fresh = match cache.as_deref_mut() {
                Some(c) => {
                    let (features, fresh) = c.refresh(l, epoch, w.cols(), |rows, out| {
                        input.matmul_rows_into(w, rows, out);
                    });
                    adj.apply_into(graph, features, &mut aggregated);
                    fresh
                }
                None => {
                    let mut combined = arena.alloc_unzeroed(n, w.cols());
                    input.matmul_into(w, &mut combined);
                    adj.apply_into(graph, &combined, &mut aggregated);
                    arena.recycle(combined);
                    (0..n).collect()
                }
            };
            ROWS_SKIPPED.add((n - fresh.len()) as u64);
            fresh_rows.push(fresh);
            h = if l == last {
                // The output layer is linear; `aggregated` below is
                // the network output and `h` is never read again.
                Matrix::zeros(0, 0)
            } else {
                let mut act = arena.alloc_unzeroed(n, aggregated.cols());
                relu_into(&aggregated, &mut act);
                act
            };
            pre_acts.push(aggregated);
        }
        ForwardCaches {
            inputs,
            pre_acts,
            fresh_rows,
        }
    }

    /// Returns the per-epoch temporaries held by `caches` to the
    /// model's internal arena so the next epoch reuses their storage.
    /// Optional — dropping the caches is always correct, it just
    /// re-allocates next epoch. [`GcnModel::train_epoch`] calls this
    /// itself.
    pub fn recycle_caches(&self, caches: ForwardCaches) {
        let mut arena = self.scratch.borrow_mut();
        for m in caches.inputs.into_iter().chain(caches.pre_acts) {
            arena.recycle(m);
        }
    }

    /// A zeroed output gradient (`∂L/∂output`) shaped like
    /// `caches.output()`, backed by the model's arena. Hand it to
    /// [`GcnModel::gradients`] or [`GcnModel::backward`], which return
    /// its storage to the arena, so the free list stays bounded.
    fn output_grad(&self, caches: &ForwardCaches) -> Matrix {
        let (rows, cols) = caches.output().shape();
        self.scratch.borrow_mut().alloc(rows, cols)
    }

    /// Number of buffers on the model's arena free list (the
    /// bounded-arena tests watch it stay flat across epochs).
    #[cfg(test)]
    pub(crate) fn arena_free_buffers(&self) -> usize {
        self.scratch.borrow().free_buffers()
    }

    /// Computes per-layer weight gradients for an arbitrary output
    /// gradient (`∂L/∂output`, `N × out_dim`) through the recorded
    /// forward pass, without touching the weights. Stale
    /// (crossbar-resident) rows receive no gradient: their rows of
    /// `δ_combined` and of the delta passed to the layer below are
    /// `+0.0`, and only the fresh rows are computed.
    ///
    /// # Panics
    ///
    /// Panics if `delta`'s shape mismatches the recorded output.
    pub fn gradients(
        &self,
        graph: &CsrGraph,
        adj: &NormalizedAdjacency,
        caches: &ForwardCaches,
        mut delta: Matrix,
    ) -> Vec<Matrix> {
        let num_layers = self.num_layers();
        let last = num_layers - 1;
        assert_eq!(
            delta.shape(),
            caches.pre_acts[last].shape(),
            "output gradient shape mismatch"
        );
        // δ_pre = δ ⊙ σ'; δ_combined = Âᵀ δ_pre = Â δ_pre (Â is
        // symmetric) on the fresh rows, +0.0 on the stale ones
        // (constants); ∇W = Xᵀ δ_combined; δ_prev =
        // δ_combined Wᵀ. All `N × d` temporaries come from the arena;
        // only the weight-shaped gradients escape.
        let mut arena = self.scratch.borrow_mut();
        let mut grads = vec![Matrix::zeros(0, 0); num_layers];
        let n = delta.rows();
        for l in (0..num_layers).rev() {
            if l != last {
                hadamard_relu_grad_in_place(&mut delta, &caches.pre_acts[l]);
            }
            let fresh = &caches.fresh_rows[l];
            ROWS_SKIPPED.add((n - fresh.len()) as u64);
            let mut d_combined = arena.alloc_unzeroed(n, delta.cols());
            adj.apply_rows_into(graph, &delta, fresh, &mut d_combined);
            let input = &caches.inputs[l];
            grads[l] = input.matmul_tn_rows(&d_combined, &gradient_rows(fresh, input));
            if l > 0 {
                // A stale row of δ_combined is +0.0, so its row of
                // δ_prev is +0.0 while W is finite (0·inf is NaN: with
                // a non-finite W every row is computed, as densely).
                let w = &self.weights[l];
                let all: Vec<usize>;
                let rows = if w.as_slice().iter().all(|v| v.is_finite()) {
                    fresh
                } else {
                    all = (0..n).collect();
                    &all
                };
                let mut next = arena.alloc_unzeroed(n, w.rows());
                d_combined.matmul_rows_into(&w.transpose(), rows, &mut next);
                zero_unlisted_rows(&mut next, rows);
                arena.recycle(std::mem::replace(&mut delta, next));
            }
            arena.recycle(d_combined);
        }
        arena.recycle(delta);
        grads
    }

    /// Applies one Adam step per layer with the given gradients (as
    /// produced by [`GcnModel::gradients`]).
    ///
    /// # Panics
    ///
    /// Panics if the gradient count or shapes mismatch the weights.
    pub fn apply_gradients(&mut self, grads: &[Matrix]) {
        assert_eq!(grads.len(), self.num_layers(), "one gradient per layer");
        for (l, grad) in grads.iter().enumerate() {
            self.optimizers[l].step(&mut self.weights[l], grad);
        }
    }

    /// Backpropagates an arbitrary output gradient and applies one Adam
    /// step per layer (compute + apply in one call).
    ///
    /// # Panics
    ///
    /// Panics if `delta`'s shape mismatches the recorded output.
    pub fn backward(
        &mut self,
        graph: &CsrGraph,
        adj: &NormalizedAdjacency,
        caches: &ForwardCaches,
        delta: Matrix,
    ) {
        let grads = self.gradients(graph, adj, caches, delta);
        self.apply_gradients(&grads);
    }

    /// One full-batch node-classification training epoch with optional
    /// ISU staleness.
    ///
    /// `cache` (when provided) substitutes stale combined-feature rows
    /// before each Aggregation, per the update schedule at `epoch`;
    /// gradients are masked off stale rows (they are crossbar-resident
    /// constants).
    ///
    /// Returns the epoch's training loss over `train_mask` rows.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch between `x`, `labels`, `train_mask`
    /// and the graph.
    #[allow(clippy::too_many_arguments)] // one argument per training input
    pub fn train_epoch(
        &mut self,
        graph: &CsrGraph,
        adj: &NormalizedAdjacency,
        x: &Matrix,
        labels: &[u32],
        train_mask: &[bool],
        cache: Option<&mut StaleFeatureCache>,
        epoch: usize,
    ) -> f64 {
        let n = graph.num_vertices();
        assert_eq!(labels.len(), n, "one label per vertex");
        assert_eq!(train_mask.len(), n, "one mask bit per vertex");
        let caches = self.forward_with_caches(graph, adj, x, cache, epoch);
        let mut delta = self.output_grad(&caches);
        let loss = masked_cross_entropy(caches.output(), labels, train_mask, &mut delta);
        self.backward(graph, adj, &caches, delta);
        self.recycle_caches(caches);
        loss
    }
}

/// The rows whose terms `∇W = Xᵀ·δ_combined` adds: the fresh rows,
/// plus any stale row of `x` holding a non-finite value. A stale row's
/// `δ_combined` is `+0.0`, so for a finite row its terms are `±0.0`,
/// which leave an accumulator that started at `+0.0` unchanged; `inf·0`
/// and `NaN·0` are NaN, which the dense product carries into `∇W`, so
/// such a row keeps its terms.
fn gradient_rows<'a>(fresh: &'a [usize], x: &Matrix) -> Cow<'a, [usize]> {
    let nonfinite: Vec<usize> = unlisted(fresh, x.rows())
        .filter(|&v| x.row(v).iter().any(|a| !a.is_finite()))
        .collect();
    if nonfinite.is_empty() {
        return Cow::Borrowed(fresh);
    }
    let mut rows = [fresh, &nonfinite].concat();
    rows.sort_unstable();
    Cow::Owned(rows)
}

/// Masked softmax cross-entropy over the `mask` rows of `logits`:
/// returns the mean loss over those rows and writes `∂L/∂logits` into
/// `delta` (zero on unmasked rows, which `delta` must already be).
///
/// # Panics
///
/// Panics if the mask selects no row.
fn masked_cross_entropy(logits: &Matrix, labels: &[u32], mask: &[bool], delta: &mut Matrix) -> f64 {
    let rows: Vec<usize> = (0..labels.len()).filter(|&v| mask[v]).collect();
    assert!(!rows.is_empty(), "empty training mask");
    let mut sub = Matrix::zeros(rows.len(), logits.cols());
    let mut sub_labels = Vec::with_capacity(rows.len());
    for (i, &v) in rows.iter().enumerate() {
        sub.row_mut(i).copy_from_slice(logits.row(v));
        sub_labels.push(labels[v]);
    }
    let (loss, grad) = softmax_cross_entropy(&sub, &sub_labels);
    for (i, &v) in rows.iter().enumerate() {
        delta.row_mut(v).copy_from_slice(grad.row(i));
    }
    loss
}

/// Everything recorded by [`GcnModel::forward_with_caches`] for a
/// subsequent [`GcnModel::backward`].
#[derive(Debug, Clone)]
pub struct ForwardCaches {
    inputs: Vec<Matrix>,
    pre_acts: Vec<Matrix>,
    fresh_rows: Vec<Vec<usize>>,
}

impl ForwardCaches {
    /// The network output (final-layer activations; the GCN output
    /// layer is linear).
    pub fn output(&self) -> &Matrix {
        // lint:allow(no-panic-in-lib): ForwardCaches is only built by forward passes over models with >= 1 layer
        self.pre_acts.last().expect("at least one layer")
    }

    /// Layer `l`'s input `X^l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn input(&self, l: usize) -> &Matrix {
        &self.inputs[l]
    }

    /// Layer `l`'s aggregated pre-activation.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn pre_activation(&self, l: usize) -> &Matrix {
        &self.pre_acts[l]
    }

    /// The rows layer `l` computed this epoch, ascending; the ISU
    /// cache served every other row stale.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn fresh_rows(&self, l: usize) -> &[usize] {
        &self.fresh_rows[l]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::NormalizedAdjacency;
    use gopim_graph::generate::planted_partition;
    use gopim_linalg::loss::accuracy;

    fn features_from_labels(labels: &[u32], classes: usize, noise_seed: u64) -> Matrix {
        // One-hot community indicator + noise.
        let n = labels.len();
        let mut x = gopim_linalg::init::uniform(n, classes + 2, 0.3, noise_seed);
        for (v, &l) in labels.iter().enumerate() {
            x[(v, l as usize)] += 1.0;
        }
        x
    }

    #[test]
    fn forward_shapes() {
        let (g, labels) = planted_partition(60, 3, 8.0, 6.0, 1);
        let norm = NormalizedAdjacency::new(&g);
        let x = features_from_labels(&labels, 3, 2);
        let model = GcnModel::new(&[5, 8, 3], 0.01, 3);
        let out = model.forward(&g, &norm, &x);
        assert_eq!(out.shape(), (60, 3));
    }

    #[test]
    fn training_learns_planted_communities() {
        let (g, labels) = planted_partition(200, 3, 10.0, 8.0, 4);
        let norm = NormalizedAdjacency::new(&g);
        let x = features_from_labels(&labels, 3, 5);
        let mut model = GcnModel::new(&[5, 16, 3], 0.02, 6);
        let mask = vec![true; 200];
        let mut first = 0.0;
        let mut last = 0.0;
        for e in 0..40 {
            let loss = model.train_epoch(&g, &norm, &x, &labels, &mask, None, e);
            if e == 0 {
                first = loss;
            }
            last = loss;
        }
        assert!(last < 0.5 * first, "loss {first} → {last}");
        let acc = accuracy(&model.forward(&g, &norm, &x), &labels);
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn stale_training_still_converges() {
        use gopim_mapping::SelectivePolicy;
        let (g, labels) = planted_partition(200, 3, 10.0, 8.0, 7);
        let norm = NormalizedAdjacency::new(&g);
        let x = features_from_labels(&labels, 3, 8);
        let mut model = GcnModel::new(&[5, 16, 3], 0.02, 9);
        let mask = vec![true; 200];
        let profile = g.to_degree_profile();
        let policy = SelectivePolicy::with_theta(0.5, 10);
        let important = policy.important_vertices(&profile);
        let mut cache = StaleFeatureCache::new(2, important, policy);
        for e in 0..40 {
            model.train_epoch(&g, &norm, &x, &labels, &mask, Some(&mut cache), e);
        }
        let acc = accuracy(&model.forward(&g, &norm, &x), &labels);
        assert!(acc > 0.7, "accuracy with staleness {acc}");
    }

    #[test]
    fn arena_free_list_stays_flat_across_epochs() {
        use gopim_mapping::SelectivePolicy;
        let (g, labels) = planted_partition(200, 3, 10.0, 8.0, 4);
        let norm = NormalizedAdjacency::new(&g);
        let x = features_from_labels(&labels, 3, 5);
        let mask: Vec<bool> = (0..200).map(|v| v % 5 < 3).collect();
        let policy = SelectivePolicy::with_theta(0.5, 10);
        for isu in [false, true] {
            let mut model = GcnModel::new(&[5, 16, 16, 3], 0.02, 6);
            let mut cache = isu.then(|| {
                let important = policy.important_vertices(&g.to_degree_profile());
                StaleFeatureCache::new(3, important, policy)
            });
            let mut free = Vec::new();
            for e in 0..40 {
                model.train_epoch(&g, &norm, &x, &labels, &mask, cache.as_mut(), e);
                free.push(model.arena_free_buffers());
            }
            assert_eq!(free[2], free[39], "isu={isu}: free list grew: {free:?}");
        }
    }

    #[test]
    #[should_panic(expected = "one label per vertex")]
    fn mismatched_labels_rejected() {
        let (g, _) = planted_partition(20, 2, 4.0, 4.0, 1);
        let norm = NormalizedAdjacency::new(&g);
        let x = Matrix::zeros(20, 4);
        let mut model = GcnModel::new(&[4, 2], 0.01, 1);
        let mask = vec![true; 20];
        model.train_epoch(&g, &norm, &x, &[0, 1], &mask, None, 0);
    }
}
