//! The GCN model (the paper's Eqs. 1–2) with full-batch
//! backpropagation.

use std::cell::RefCell;

use gopim_graph::CsrGraph;
use gopim_linalg::activation::{relu, relu_into};
use gopim_linalg::arena::BufferArena;
use gopim_linalg::init::xavier_uniform;
use gopim_linalg::loss::softmax_cross_entropy;
use gopim_linalg::ops::hadamard_relu_grad_in_place;
use gopim_linalg::optimizer::Adam;
use gopim_linalg::Matrix;

use crate::aggregate::Propagation;
use crate::selective::StaleFeatureCache;

/// A multi-layer GCN: layer `l` computes
/// `X^{l+1} = σ(Â · (X^l · W^l))` — Combination (`X·W`) then
/// Aggregation (`Â·C`), with ReLU on every layer but the last.
///
/// Per-epoch temporaries (layer inputs, combination outputs,
/// aggregation outputs, the output gradient, backward deltas and
/// transposes) come from an internal [`BufferArena`] and go back to
/// it: [`GcnModel::gradients`] recycles its deltas,
/// [`GcnModel::recycle_caches`] (which [`GcnModel::train_epoch`] calls
/// itself) the forward buffers. Every buffer the arena holds is one it
/// handed out, so after the first epoch its free list stays at one
/// buffer per live temporary (11 for a 3-layer model) and the epoch
/// loop stops allocating them; the unit tests pin that for plain, ISU
/// and link training. Arena buffers are zero-filled on allocation, so
/// the training trajectories stay bit-identical to the allocating
/// implementation.
#[derive(Debug, Clone)]
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
        let optimizers = weights.iter().map(|_| Adam::new(learning_rate)).collect();
        GcnModel {
            weights,
            optimizers,
            scratch: RefCell::new(BufferArena::new()),
        }
    }

    /// Number of GCN layers.
    pub fn num_layers(&self) -> usize {
        self.weights.len()
    }

    /// Pure forward pass (no staleness), returning the logits.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != graph.num_vertices()` or the feature
    /// width mismatches the first layer.
    pub fn forward(&self, graph: &CsrGraph, prop: &dyn Propagation, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        let last = self.num_layers() - 1;
        for (l, w) in self.weights.iter().enumerate() {
            let combined = h.matmul(w);
            let aggregated = prop.propagate(graph, &combined);
            h = if l == last {
                aggregated
            } else {
                relu(&aggregated)
            };
        }
        h
    }

    /// Forward pass recording everything backprop needs: per-layer
    /// inputs, post-aggregation pre-activations, and which rows were
    /// served stale by the ISU cache. The last entry of `pre_acts` is
    /// the output (the final layer has no ReLU).
    pub fn forward_with_caches(
        &self,
        graph: &CsrGraph,
        prop: &dyn Propagation,
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
        let mut stale_masks: Vec<Vec<bool>> = Vec::with_capacity(num_layers);
        let mut pre_acts: Vec<Matrix> = Vec::with_capacity(num_layers);
        let mut h = {
            let mut first = arena.alloc(x.rows(), x.cols());
            first.as_mut_slice().copy_from_slice(x.as_slice());
            first
        };
        for l in 0..num_layers {
            inputs.push(h);
            let input = &inputs[l];
            let w = &self.weights[l];
            let mut combined = arena.alloc(n, w.cols());
            input.matmul_into(w, &mut combined);
            // With an ISU cache, the aggregation reads the cache's own
            // matrix (this epoch's rows written in place, the rest
            // stale); either way `combined` goes back to the arena.
            let mut aggregated = arena.alloc(n, w.cols());
            let stale = match cache.as_deref_mut() {
                Some(c) => {
                    let (observed, stale) = c.observe(l, epoch, &combined);
                    prop.propagate_into(graph, observed, &mut aggregated);
                    stale
                }
                None => {
                    prop.propagate_into(graph, &combined, &mut aggregated);
                    vec![false; n]
                }
            };
            arena.recycle(combined);
            stale_masks.push(stale);
            h = if l == last {
                // The output layer is linear; `aggregated` below is
                // the network output and `h` is never read again.
                Matrix::zeros(0, 0)
            } else {
                let mut act = arena.alloc(n, aggregated.cols());
                relu_into(&aggregated, &mut act);
                act
            };
            pre_acts.push(aggregated);
        }
        ForwardCaches {
            inputs,
            pre_acts,
            stale_masks,
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
    pub(crate) fn output_grad(&self, caches: &ForwardCaches) -> Matrix {
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
    /// (crossbar-resident) rows receive no gradient.
    ///
    /// # Panics
    ///
    /// Panics if `delta`'s shape mismatches the recorded output.
    pub fn gradients(
        &self,
        graph: &CsrGraph,
        prop: &dyn Propagation,
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
        // δ_pre = δ ⊙ σ'; δ_combined = Pᵀ δ_pre (P = Â is symmetric,
        // the mean aggregator is not); stale rows are constants so
        // their combined-gradient is zeroed; ∇W = Xᵀ δ_combined;
        // δ_prev = δ_combined Wᵀ. All `N × d` temporaries come from
        // the arena; only the weight-shaped gradients escape.
        let mut arena = self.scratch.borrow_mut();
        let mut grads = vec![Matrix::zeros(0, 0); num_layers];
        for l in (0..num_layers).rev() {
            if l != last {
                hadamard_relu_grad_in_place(&mut delta, &caches.pre_acts[l]);
            }
            let mut d_combined = arena.alloc(delta.rows(), delta.cols());
            prop.propagate_transpose_into(graph, &delta, &mut d_combined);
            for (v, &is_stale) in caches.stale_masks[l].iter().enumerate() {
                if is_stale {
                    for g in d_combined.row_mut(v) {
                        *g = 0.0;
                    }
                }
            }
            let input = &caches.inputs[l];
            let mut input_t = arena.alloc(input.cols(), input.rows());
            input.transpose_into(&mut input_t);
            grads[l] = input_t.matmul(&d_combined);
            arena.recycle(input_t);
            if l > 0 {
                let w_t = self.weights[l].transpose();
                let mut next = arena.alloc(d_combined.rows(), w_t.cols());
                d_combined.matmul_into(&w_t, &mut next);
                arena.recycle(std::mem::replace(&mut delta, next));
            }
            arena.recycle(d_combined);
        }
        arena.recycle(delta);
        grads
    }

    /// Applies one Adam step per layer with the given gradients (as
    /// produced by [`GcnModel::gradients`], possibly accumulated over
    /// micro-batches first).
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
        prop: &dyn Propagation,
        caches: &ForwardCaches,
        delta: Matrix,
    ) {
        let grads = self.gradients(graph, prop, caches, delta);
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
        prop: &dyn Propagation,
        x: &Matrix,
        labels: &[u32],
        train_mask: &[bool],
        cache: Option<&mut StaleFeatureCache>,
        epoch: usize,
    ) -> f64 {
        let n = graph.num_vertices();
        assert_eq!(labels.len(), n, "one label per vertex");
        assert_eq!(train_mask.len(), n, "one mask bit per vertex");
        let caches = self.forward_with_caches(graph, prop, x, cache, epoch);
        let mut delta = self.output_grad(&caches);
        let loss = masked_cross_entropy(caches.output(), labels, train_mask, &mut delta);
        self.backward(graph, prop, &caches, delta);
        self.recycle_caches(caches);
        loss
    }
}

/// Masked softmax cross-entropy over the `mask` rows of `logits`:
/// returns the mean loss over those rows and writes `∂L/∂logits` into
/// `delta` (zero on unmasked rows, which `delta` must already be).
///
/// # Panics
///
/// Panics if the mask selects no row.
pub(crate) fn masked_cross_entropy(
    logits: &Matrix,
    labels: &[u32],
    mask: &[bool],
    delta: &mut Matrix,
) -> f64 {
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
    stale_masks: Vec<Vec<bool>>,
}

impl ForwardCaches {
    /// The network output (final-layer activations; the GCN output
    /// layer is linear).
    pub fn output(&self) -> &Matrix {
        // lint:allow(no-panic-in-lib): ForwardCaches is only built by forward passes over models with >= 1 layer
        self.pre_acts.last().expect("at least one layer")
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
    fn sage_mean_aggregation_trains_too() {
        use crate::aggregate::MeanAggregator;
        let (g, labels) = planted_partition(200, 3, 10.0, 8.0, 12);
        let x = features_from_labels(&labels, 3, 13);
        let mut model = GcnModel::new(&[5, 16, 3], 0.02, 14);
        let mask = vec![true; 200];
        let sage = MeanAggregator::new();
        for e in 0..40 {
            model.train_epoch(&g, &sage, &x, &labels, &mask, None, e);
        }
        let acc = accuracy(&model.forward(&g, &sage, &x), &labels);
        assert!(acc > 0.8, "SAGE accuracy {acc}");
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
