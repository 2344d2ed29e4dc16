//! Training driver for the accuracy experiments (Table V, Fig. 16).

use gopim_graph::CsrGraph;
use gopim_linalg::init::uniform;
use gopim_linalg::loss::accuracy;
use gopim_linalg::Matrix;
use gopim_mapping::SelectivePolicy;
use gopim_rng::rngs::SmallRng;
use gopim_rng::{Rng, SeedableRng};

use crate::aggregate::NormalizedAdjacency;
use crate::model::{masked_cross_entropy, GcnModel};
use crate::selective::StaleFeatureCache;

/// Options for one training run.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Hidden width (the numeric experiments scale the paper's 256 down
    /// to keep dense CPU training tractable; see DESIGN.md §2).
    pub hidden: usize,
    /// GCN layer count.
    pub num_layers: usize,
    /// Epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Fraction of vertices in the training split.
    pub train_fraction: f64,
    /// ISU policy; `None` trains with every vertex fresh every epoch
    /// (the GoPIM-Vanilla numeric behaviour).
    pub selective: Option<SelectivePolicy>,
    /// Gradient delay in epochs (inter-batch pipelining's bounded
    /// staleness, §IV-A: the next batch starts before the previous
    /// weight update lands). 0 = synchronous.
    pub weight_staleness: usize,
    /// Vertices stranded on crossbars the fault layer killed: their
    /// cached features stop refreshing at `freeze_epoch`. Empty =
    /// the fault-free path, bit-identical to a build without the
    /// fault layer.
    pub frozen_vertices: Vec<u32>,
    /// Epoch at which `frozen_vertices` freeze (the simulated instant
    /// the crossbars died).
    pub freeze_epoch: usize,
    /// RNG seed (weights, split, features).
    pub seed: u64,
}

impl gopim_cache::CanonicalHash for TrainOptions {
    fn canonical_hash(&self, h: &mut gopim_cache::CanonicalHasher) {
        h.write_tag("gcn.train_options/v1");
        h.write_usize(self.hidden);
        h.write_usize(self.num_layers);
        h.write_usize(self.epochs);
        h.write_f64(self.learning_rate);
        h.write_f64(self.train_fraction);
        self.selective.canonical_hash(h);
        h.write_usize(self.weight_staleness);
        self.frozen_vertices.canonical_hash(h);
        h.write_usize(self.freeze_epoch);
        h.write_u64(self.seed);
    }
}

impl TrainOptions {
    /// A fast configuration for unit tests.
    pub fn quick_test() -> Self {
        TrainOptions {
            hidden: 16,
            num_layers: 2,
            epochs: 30,
            learning_rate: 0.02,
            train_fraction: 0.6,
            selective: None,
            weight_staleness: 0,
            frozen_vertices: Vec::new(),
            freeze_epoch: 0,
            seed: 1,
        }
    }

    /// The configuration used by the paper-scale accuracy experiments.
    pub fn experiment() -> Self {
        TrainOptions {
            hidden: 48,
            num_layers: 3,
            epochs: 80,
            learning_rate: 0.01,
            train_fraction: 0.6,
            selective: None,
            weight_staleness: 0,
            frozen_vertices: Vec::new(),
            freeze_epoch: 0,
            seed: 11,
        }
    }
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions::experiment()
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Accuracy on the training split.
    pub train_accuracy: f64,
    /// Accuracy on the held-out split (the paper's Table V numbers).
    pub test_accuracy: f64,
    /// Final-epoch training loss.
    pub final_loss: f64,
}

/// Builds node features: a noisy community indicator (so the task is
/// learnable, mirroring informative real-world features) plus random
/// dimensions. The indicator is deliberately weak relative to the
/// noise so accuracies land below the ceiling and θ-sensitivity is
/// visible (Fig. 16).
pub fn synthetic_features(
    labels: &[u32],
    num_classes: usize,
    extra_dims: usize,
    seed: u64,
) -> Matrix {
    let n = labels.len();
    let mut x = uniform(n, num_classes + extra_dims, 0.8, seed);
    for (v, &l) in labels.iter().enumerate() {
        x[(v, l as usize)] += 0.55;
    }
    x
}

/// Trains a GCN on `graph` with community `labels` and reports
/// accuracies.
///
/// # Panics
///
/// Panics if `labels.len() != graph.num_vertices()` or the graph is
/// empty.
pub fn train_gcn(graph: &CsrGraph, labels: &[u32], options: &TrainOptions) -> TrainReport {
    let n = graph.num_vertices();
    assert!(n > 0, "empty graph");
    assert_eq!(labels.len(), n, "one label per vertex");
    let num_classes = (labels.iter().copied().max().unwrap_or(0) + 1) as usize;

    let x = synthetic_features(labels, num_classes, 8, options.seed ^ 0xfea7);
    let mut dims = vec![x.cols()];
    dims.extend(std::iter::repeat_n(options.hidden, options.num_layers - 1));
    dims.push(num_classes);

    let mut rng = SmallRng::seed_from_u64(options.seed ^ 0x5eed);
    let train_mask: Vec<bool> = (0..n)
        .map(|_| rng.gen::<f64>() < options.train_fraction)
        .collect();
    // Guarantee both splits are non-empty.
    let mut train_mask = train_mask;
    train_mask[0] = true;
    if let Some(m) = train_mask.iter_mut().next_back() {
        *m = false;
    }

    let norm = NormalizedAdjacency::new(graph);
    let mut model = GcnModel::new(&dims, options.learning_rate, options.seed);
    // A cache is needed for selective updating and/or fault-frozen
    // vertices; with neither, the no-cache path is taken untouched
    // (the fault layer's zero-cost-when-disabled guarantee).
    let mut cache = if options.selective.is_some() || !options.frozen_vertices.is_empty() {
        let policy = options
            .selective
            .unwrap_or_else(SelectivePolicy::update_all);
        let profile = graph.to_degree_profile();
        let important = policy.important_vertices(&profile);
        Some(StaleFeatureCache::new(
            options.num_layers,
            important,
            policy,
        ))
    } else {
        None
    };

    // Bounded staleness: gradients are computed against a weight
    // snapshot `weight_staleness` epochs old, then applied to the
    // current weights (the asynchrony inter-batch pipelining creates).
    let mut snapshots: std::collections::VecDeque<GcnModel> = std::collections::VecDeque::new();
    let mut final_loss = 0.0;
    for epoch in 0..options.epochs {
        if !options.frozen_vertices.is_empty() && epoch == options.freeze_epoch {
            if let Some(c) = cache.as_mut() {
                c.freeze(&options.frozen_vertices);
            }
        }
        if options.weight_staleness == 0 {
            final_loss =
                model.train_epoch(graph, &norm, &x, labels, &train_mask, cache.as_mut(), epoch);
        } else {
            snapshots.push_back(model.clone());
            if snapshots.len() > options.weight_staleness {
                // lint:allow(no-panic-in-lib): guarded by the len() > weight_staleness check above
                let stale = snapshots.pop_front().expect("non-empty queue");
                let caches = stale.forward_with_caches(graph, &norm, &x, cache.as_mut(), epoch);
                let mut delta = stale.output_grad(&caches);
                final_loss = masked_cross_entropy(caches.output(), labels, &train_mask, &mut delta);
                let grads = stale.gradients(graph, &norm, &caches, delta);
                model.apply_gradients(&grads);
            }
        }
    }

    let logits = model.forward(graph, &norm, &x);
    let split_acc = |want_train: bool| -> f64 {
        let rows: Vec<usize> = (0..n).filter(|&v| train_mask[v] == want_train).collect();
        let mut sub = Matrix::zeros(rows.len(), logits.cols());
        let mut sub_labels = Vec::with_capacity(rows.len());
        for (i, &v) in rows.iter().enumerate() {
            sub.row_mut(i).copy_from_slice(logits.row(v));
            sub_labels.push(labels[v]);
        }
        accuracy(&sub, &sub_labels)
    };
    TrainReport {
        train_accuracy: split_acc(true),
        test_accuracy: split_acc(false),
        final_loss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopim_graph::generate::planted_partition;

    #[test]
    fn learns_dense_planted_partition() {
        let (g, labels) = planted_partition(240, 3, 14.0, 8.0, 2);
        let report = train_gcn(&g, &labels, &TrainOptions::quick_test());
        assert!(report.test_accuracy > 0.7, "{report:?}");
        assert!(report.train_accuracy >= report.test_accuracy - 0.15);
    }

    #[test]
    fn selective_updating_costs_little_accuracy_on_dense_graphs() {
        let (g, labels) = planted_partition(240, 3, 16.0, 8.0, 3);
        let vanilla = train_gcn(&g, &labels, &TrainOptions::quick_test());
        let mut opts = TrainOptions::quick_test();
        opts.selective = Some(SelectivePolicy::with_theta(0.5, 20));
        let isu = train_gcn(&g, &labels, &opts);
        // The paper's claim: accuracy impact within ~±4 % at adaptive θ.
        assert!(
            (vanilla.test_accuracy - isu.test_accuracy).abs() < 0.12,
            "vanilla {} vs isu {}",
            vanilla.test_accuracy,
            isu.test_accuracy
        );
    }

    #[test]
    fn aggressive_theta_on_sparse_graph_hurts_more_than_adaptive() {
        let (g, labels) = planted_partition(240, 3, 4.0, 10.0, 4);
        let adaptive = {
            let mut o = TrainOptions::quick_test();
            o.selective = Some(SelectivePolicy::with_theta(0.8, 20));
            train_gcn(&g, &labels, &o)
        };
        let aggressive = {
            let mut o = TrainOptions::quick_test();
            o.selective = Some(SelectivePolicy::with_theta(0.1, 20));
            train_gcn(&g, &labels, &o)
        };
        assert!(
            adaptive.test_accuracy >= aggressive.test_accuracy - 0.05,
            "adaptive {} vs aggressive {}",
            adaptive.test_accuracy,
            aggressive.test_accuracy
        );
    }

    #[test]
    fn frozen_vertices_degrade_accuracy_gracefully() {
        let (g, labels) = planted_partition(240, 3, 14.0, 8.0, 2);
        let clean = train_gcn(&g, &labels, &TrainOptions::quick_test());
        // Freeze a third of the graph early: training must still run
        // to completion and keep some signal, but lose accuracy.
        let mut opts = TrainOptions::quick_test();
        opts.frozen_vertices = (0..80).collect();
        opts.freeze_epoch = 2;
        let hurt = train_gcn(&g, &labels, &opts);
        assert!(hurt.test_accuracy <= clean.test_accuracy + 1e-9);
        assert!(
            hurt.test_accuracy > 1.0 / 3.0,
            "worse than chance: {hurt:?}"
        );
        // Empty frozen set is bit-identical to the fault-free path.
        let mut noop = TrainOptions::quick_test();
        noop.frozen_vertices = Vec::new();
        noop.freeze_epoch = 7;
        assert_eq!(train_gcn(&g, &labels, &noop), clean);
    }

    #[test]
    fn bounded_staleness_barely_moves_accuracy() {
        // The inter-batch pipeline's 1-epoch gradient delay (§IV-A)
        // must be accuracy-neutral — that is what lets GoPIM overlap
        // batches at all.
        let (g, labels) = planted_partition(240, 3, 12.0, 8.0, 9);
        let mut sync_opts = TrainOptions::quick_test();
        sync_opts.epochs = 40;
        let sync = train_gcn(&g, &labels, &sync_opts);
        let mut stale_opts = sync_opts.clone();
        stale_opts.weight_staleness = 1;
        stale_opts.epochs = 41; // one warm-up epoch fills the queue
        let stale = train_gcn(&g, &labels, &stale_opts);
        assert!(
            (sync.test_accuracy - stale.test_accuracy).abs() < 0.1,
            "sync {} vs stale {}",
            sync.test_accuracy,
            stale.test_accuracy
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, labels) = planted_partition(120, 2, 8.0, 6.0, 5);
        let a = train_gcn(&g, &labels, &TrainOptions::quick_test());
        let b = train_gcn(&g, &labels, &TrainOptions::quick_test());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "one label per vertex")]
    fn label_mismatch_rejected() {
        let (g, _) = planted_partition(30, 2, 4.0, 4.0, 6);
        train_gcn(&g, &[0, 1], &TrainOptions::quick_test());
    }
}
