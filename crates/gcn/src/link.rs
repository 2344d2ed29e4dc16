//! Link-prediction training (the task type of the paper's ddi, collab
//! and ppa datasets, Table III).
//!
//! A GCN encoder produces vertex embeddings; an inner-product decoder
//! scores candidate edges; training minimizes binary cross-entropy over
//! positive (held-in) edges and sampled negatives; evaluation reports
//! Hits@K over held-out positives against sampled negatives — the
//! OGB-style protocol behind the paper's Table V link numbers. ISU's
//! staleness semantics plug in exactly as for node classification.

use gopim_graph::CsrGraph;
use gopim_linalg::Matrix;
use gopim_mapping::SelectivePolicy;
use gopim_rng::rngs::SmallRng;
use gopim_rng::seq::SliceRandom;
use gopim_rng::{Rng, SeedableRng};

use crate::aggregate::NormalizedAdjacency;
use crate::model::GcnModel;
use crate::selective::StaleFeatureCache;
use crate::train::synthetic_features;

/// A train/test edge split: test positives are removed from the
/// message-passing graph (no leakage).
#[derive(Debug, Clone)]
pub struct EdgeSplit {
    /// The graph visible to the encoder (training edges only).
    pub train_graph: CsrGraph,
    /// Training positives.
    pub train_pos: Vec<(u32, u32)>,
    /// Held-out positives.
    pub test_pos: Vec<(u32, u32)>,
}

/// Splits a graph's edges, holding out `test_fraction` as test
/// positives.
///
/// # Panics
///
/// Panics if `test_fraction ∉ (0, 1)` or the graph has no edges.
pub fn split_edges(graph: &CsrGraph, test_fraction: f64, seed: u64) -> EdgeSplit {
    assert!(
        test_fraction > 0.0 && test_fraction < 1.0,
        "test fraction must be in (0, 1)"
    );
    let mut edges: Vec<(u32, u32)> = graph.edges().collect();
    assert!(!edges.is_empty(), "graph has no edges to split");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x11_4b);
    edges.shuffle(&mut rng);
    let n_test = ((edges.len() as f64) * test_fraction).round() as usize;
    let n_test = n_test.clamp(1, edges.len() - 1);
    let test_pos = edges[..n_test].to_vec();
    let train_pos = edges[n_test..].to_vec();
    let train_graph = CsrGraph::from_edges(graph.num_vertices(), &train_pos);
    EdgeSplit {
        train_graph,
        train_pos,
        test_pos,
    }
}

/// Options for link-prediction training.
#[derive(Debug, Clone)]
pub struct LinkTrainOptions {
    /// Embedding width of every GCN layer.
    pub hidden: usize,
    /// GCN layer count.
    pub num_layers: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Negatives sampled per positive during training.
    pub negatives_per_positive: usize,
    /// ISU policy; `None` = every vertex fresh every epoch.
    pub selective: Option<SelectivePolicy>,
    /// RNG seed.
    pub seed: u64,
}

impl LinkTrainOptions {
    /// A fast configuration for unit tests.
    pub fn quick_test() -> Self {
        LinkTrainOptions {
            hidden: 16,
            num_layers: 2,
            epochs: 30,
            learning_rate: 0.02,
            negatives_per_positive: 1,
            selective: None,
            seed: 1,
        }
    }

    /// The configuration used by the experiment binaries.
    pub fn experiment() -> Self {
        LinkTrainOptions {
            hidden: 48,
            num_layers: 2,
            epochs: 60,
            learning_rate: 0.01,
            negatives_per_positive: 1,
            selective: None,
            seed: 11,
        }
    }
}

/// Outcome of a link-prediction run.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkReport {
    /// Hits@20 over held-out positives vs 100 sampled negatives each
    /// (the OGB ddi metric family).
    pub hits_at_20: f64,
    /// Final-epoch training loss (BCE).
    pub final_loss: f64,
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// One training epoch: BCE over the training positives and
/// `negatives_per_positive` sampled negatives each, one Adam step, and
/// the epoch's temporaries returned to the model's arena. Returns the
/// mean loss.
#[allow(clippy::too_many_arguments)] // one argument per training input
fn link_epoch(
    model: &mut GcnModel,
    split: &EdgeSplit,
    norm: &NormalizedAdjacency,
    x: &Matrix,
    cache: Option<&mut StaleFeatureCache>,
    negatives_per_positive: usize,
    rng: &mut SmallRng,
    epoch: usize,
) -> f64 {
    let graph = &split.train_graph;
    let n = graph.num_vertices();
    let caches = model.forward_with_caches(graph, norm, x, cache, epoch);
    let h = caches.output();
    // BCE over positives and sampled negatives; accumulate ∂L/∂h.
    let mut delta = model.output_grad(&caches);
    let mut loss = 0.0f64;
    let mut count = 0.0f64;
    let mut accumulate = |u: usize, v: usize, label: f64, delta: &mut Matrix| {
        let s = dot(h.row(u), h.row(v));
        let p = sigmoid(s);
        loss -= if label > 0.5 {
            p.max(1e-12).ln()
        } else {
            (1.0 - p).max(1e-12).ln()
        };
        count += 1.0;
        let g = p - label; // dL/ds
        for k in 0..h.cols() {
            delta[(u, k)] += g * h[(v, k)];
            delta[(v, k)] += g * h[(u, k)];
        }
    };
    for &(u, v) in &split.train_pos {
        accumulate(u as usize, v as usize, 1.0, &mut delta);
        for _ in 0..negatives_per_positive {
            let nu = rng.gen_range(0..n);
            let nv = rng.gen_range(0..n);
            if nu != nv && !graph.has_edge(nu, nv) {
                accumulate(nu, nv, 0.0, &mut delta);
            }
        }
    }
    // Mean gradient.
    for g in delta.as_mut_slice() {
        *g /= count.max(1.0);
    }
    model.backward(graph, norm, &caches, delta);
    model.recycle_caches(caches);
    loss / count.max(1.0)
}

/// Trains a GCN encoder + inner-product decoder on `split` and reports
/// Hits@20.
///
/// # Panics
///
/// Panics if the split is empty or options are degenerate.
pub fn train_link_predictor(split: &EdgeSplit, options: &LinkTrainOptions) -> LinkReport {
    let graph = &split.train_graph;
    let n = graph.num_vertices();
    assert!(n > 1, "need at least two vertices");
    assert!(!split.train_pos.is_empty(), "no training edges");
    let mut rng = SmallRng::seed_from_u64(options.seed ^ 0x114b);

    // Structural-noise features: link prediction has no labels to leak,
    // so features are random (the encoder must rely on the graph).
    let x = synthetic_features(
        &vec![0u32; n],
        1,
        options.hidden.min(15),
        options.seed ^ 0xfea7,
    );
    let mut dims = vec![x.cols()];
    dims.extend(std::iter::repeat_n(options.hidden, options.num_layers));

    let norm = NormalizedAdjacency::new(graph);
    let mut model = GcnModel::new(&dims, options.learning_rate, options.seed);
    let mut cache = options.selective.map(|policy| {
        let profile = graph.to_degree_profile();
        let important = policy.important_vertices(&profile);
        StaleFeatureCache::new(options.num_layers, important, policy)
    });

    let mut final_loss = 0.0;
    for epoch in 0..options.epochs {
        final_loss = link_epoch(
            &mut model,
            split,
            &norm,
            &x,
            cache.as_mut(),
            options.negatives_per_positive,
            &mut rng,
            epoch,
        );
    }

    // Evaluation: Hits@20 vs 100 random negatives per test positive.
    let caches = model.forward_with_caches(graph, &norm, &x, cache.as_mut(), options.epochs);
    let h = caches.output();
    let mut eval_rng = SmallRng::seed_from_u64(options.seed ^ 0xe7a1);
    let mut neg_scores = Vec::with_capacity(100);
    for _ in 0..100 {
        let nu = eval_rng.gen_range(0..n);
        let nv = eval_rng.gen_range(0..n);
        neg_scores.push(dot(h.row(nu), h.row(nv)));
    }
    neg_scores.sort_by(|a, b| b.total_cmp(a));
    let threshold = neg_scores.get(19).copied().unwrap_or(f64::NEG_INFINITY);
    let hits = split
        .test_pos
        .iter()
        .filter(|&&(u, v)| dot(h.row(u as usize), h.row(v as usize)) > threshold)
        .count();
    LinkReport {
        hits_at_20: hits as f64 / split.test_pos.len() as f64,
        final_loss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopim_graph::generate::planted_partition;

    fn task(seed: u64) -> EdgeSplit {
        let (g, _) = planted_partition(150, 3, 10.0, 8.0, seed);
        split_edges(&g, 0.15, seed)
    }

    #[test]
    fn split_removes_test_edges_from_training_graph() {
        let split = task(1);
        for &(u, v) in &split.test_pos {
            assert!(!split.train_graph.has_edge(u as usize, v as usize));
        }
        split.train_graph.validate().unwrap();
        assert_eq!(
            split.train_pos.len() + split.test_pos.len(),
            split.train_graph.num_edges() + split.test_pos.len()
        );
    }

    #[test]
    fn link_predictor_beats_random_ranking() {
        // Random scoring would land ~20/100 = 0.2 hits@20. Any single
        // seed wobbles around that bar, so check the mean of three.
        let mut hits = 0.0;
        for seed in [1, 2, 9] {
            let report = train_link_predictor(&task(seed), &LinkTrainOptions::quick_test());
            assert!(report.final_loss < 0.8, "seed {seed}: {report:?}");
            hits += report.hits_at_20;
        }
        assert!(hits / 3.0 > 0.28, "mean hits@20 {}", hits / 3.0);
    }

    #[test]
    fn isu_link_accuracy_stays_close_to_vanilla() {
        let split = task(3);
        let vanilla = train_link_predictor(&split, &LinkTrainOptions::quick_test());
        let mut opts = LinkTrainOptions::quick_test();
        opts.selective = Some(SelectivePolicy::with_theta(0.5, 20));
        let isu = train_link_predictor(&split, &opts);
        assert!(
            vanilla.hits_at_20 - isu.hits_at_20 < 0.2,
            "vanilla {} vs isu {}",
            vanilla.hits_at_20,
            isu.hits_at_20
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let split = task(4);
        let a = train_link_predictor(&split, &LinkTrainOptions::quick_test());
        let b = train_link_predictor(&split, &LinkTrainOptions::quick_test());
        assert_eq!(a, b);
    }

    #[test]
    fn link_training_arena_stays_flat_across_epochs() {
        let split = task(5);
        let graph = &split.train_graph;
        let n = graph.num_vertices();
        let x = synthetic_features(&vec![0u32; n], 1, 8, 6);
        let norm = NormalizedAdjacency::new(graph);
        for selective in [None, Some(SelectivePolicy::with_theta(0.5, 20))] {
            let mut model = GcnModel::new(&[x.cols(), 16, 16], 0.01, 7);
            let mut cache = selective.map(|policy| {
                let important = policy.important_vertices(&graph.to_degree_profile());
                StaleFeatureCache::new(2, important, policy)
            });
            let mut rng = SmallRng::seed_from_u64(8);
            let mut free = Vec::new();
            for epoch in 0..40 {
                link_epoch(
                    &mut model,
                    &split,
                    &norm,
                    &x,
                    cache.as_mut(),
                    1,
                    &mut rng,
                    epoch,
                );
                free.push(model.arena_free_buffers());
            }
            assert_eq!(free[2], free[39], "{selective:?}: free list grew: {free:?}");
        }
    }

    #[test]
    #[should_panic(expected = "test fraction")]
    fn bad_fraction_rejected() {
        let (g, _) = planted_partition(20, 2, 4.0, 4.0, 5);
        split_edges(&g, 1.5, 5);
    }
}
