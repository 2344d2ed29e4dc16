//! Micro-batch numeric training with sampled neighborhoods.
//!
//! The accelerator processes GCN training in micro-batches (§II-A:
//! "each batch is further divided into several micro-batches … their
//! gradients are accumulated for updating the model's weights"). This
//! module is the numeric counterpart: each micro-batch trains on its
//! seed vertices' sampled L-hop neighborhood block, gradients
//! accumulate across the micro-batches of a batch, and the weights
//! update once per batch.

use gopim_graph::partition::MicroBatchPlan;
use gopim_graph::CsrGraph;
use gopim_linalg::loss::{accuracy, softmax_cross_entropy};
use gopim_linalg::ops::accumulate;
use gopim_linalg::Matrix;
use gopim_rng::rngs::SmallRng;
use gopim_rng::seq::SliceRandom;
use gopim_rng::SeedableRng;

use crate::aggregate::NormalizedAdjacency;
use crate::model::GcnModel;
use crate::train::synthetic_features;

/// A sampled computation block: the induced subgraph over a micro-batch
/// and its (fanout-sampled) multi-hop neighborhood.
#[derive(Debug, Clone)]
pub struct Block {
    /// Subgraph over the block's vertices (relabelled `0..len`).
    pub subgraph: CsrGraph,
    /// Original vertex id of each block vertex.
    pub vertices: Vec<u32>,
    /// How many of the leading block vertices are seeds (loss rows).
    pub num_seeds: usize,
}

/// Samples the `hops`-hop neighborhood of `seeds`, keeping at most
/// `fanout` neighbors per vertex per hop.
///
/// # Panics
///
/// Panics if `seeds` is empty, contains duplicates/out-of-range ids, or
/// `fanout == 0`.
pub fn sample_block(
    graph: &CsrGraph,
    seeds: &[u32],
    hops: usize,
    fanout: usize,
    rng: &mut SmallRng,
) -> Block {
    assert!(!seeds.is_empty(), "need at least one seed");
    assert!(fanout > 0, "fanout must be positive");
    let n = graph.num_vertices();
    let mut in_block = vec![false; n];
    let mut vertices: Vec<u32> = Vec::with_capacity(seeds.len() * (fanout + 1));
    for &s in seeds {
        assert!((s as usize) < n, "seed {s} out of range");
        assert!(!in_block[s as usize], "duplicate seed {s}");
        in_block[s as usize] = true;
        vertices.push(s);
    }
    let mut frontier: Vec<u32> = seeds.to_vec();
    for _ in 0..hops {
        let mut next = Vec::new();
        for &v in &frontier {
            let neighbors = graph.neighbors(v as usize);
            let take = neighbors.len().min(fanout);
            // Sample without replacement via partial shuffle indices.
            let mut picks: Vec<u32> = neighbors.to_vec();
            if neighbors.len() > fanout {
                picks.shuffle(rng);
            }
            for &u in picks.iter().take(take) {
                if !in_block[u as usize] {
                    in_block[u as usize] = true;
                    vertices.push(u);
                    next.push(u);
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    Block {
        subgraph: graph.induced_subgraph(&vertices),
        num_seeds: seeds.len(),
        vertices,
    }
}

/// Options for micro-batch training.
#[derive(Debug, Clone)]
pub struct MiniBatchOptions {
    /// Micro-batch (seed-set) size.
    pub micro_batch: usize,
    /// Neighbors sampled per vertex per hop.
    pub fanout: usize,
    /// Hidden width.
    pub hidden: usize,
    /// GCN layers (= sampled hops).
    pub num_layers: usize,
    /// Batches (weight updates) to run; each covers every micro-batch.
    pub batches: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl MiniBatchOptions {
    /// A fast configuration for tests.
    pub fn quick_test() -> Self {
        MiniBatchOptions {
            micro_batch: 32,
            fanout: 8,
            hidden: 16,
            num_layers: 2,
            batches: 25,
            learning_rate: 0.02,
            seed: 1,
        }
    }
}

/// Outcome of a micro-batch training run.
#[derive(Debug, Clone, PartialEq)]
pub struct MiniBatchReport {
    /// Full-graph accuracy after training.
    pub accuracy: f64,
    /// Final batch's mean micro-batch loss.
    pub final_loss: f64,
}

/// Trains with accumulated micro-batch gradients (one weight update per
/// batch, as in §II-A) and evaluates on the full graph.
///
/// # Panics
///
/// Panics if `labels.len() != graph.num_vertices()` or the graph is
/// empty.
pub fn train_minibatch(
    graph: &CsrGraph,
    labels: &[u32],
    options: &MiniBatchOptions,
) -> MiniBatchReport {
    let n = graph.num_vertices();
    assert!(n > 0, "empty graph");
    assert_eq!(labels.len(), n, "one label per vertex");
    let num_classes = (labels.iter().copied().max().unwrap_or(0) + 1) as usize;
    let x = synthetic_features(labels, num_classes, 8, options.seed ^ 0xfea7);

    let mut dims = vec![x.cols()];
    dims.extend(std::iter::repeat_n(options.hidden, options.num_layers - 1));
    dims.push(num_classes);
    let mut model = GcnModel::new(&dims, options.learning_rate, options.seed);
    let mut rng = SmallRng::seed_from_u64(options.seed ^ 0x3b1c);

    let plan = MicroBatchPlan::contiguous(n, options.micro_batch);
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut final_loss = 0.0;
    for _batch in 0..options.batches {
        order.shuffle(&mut rng);
        let mut grad_acc: Option<Vec<Matrix>> = None;
        let mut batch_loss = 0.0;
        for mb in plan.iter() {
            let seeds: Vec<u32> = order[mb.clone()].to_vec();
            let block = sample_block(graph, &seeds, options.num_layers, options.fanout, &mut rng);
            // Gather block features and labels.
            let mut bx = Matrix::zeros(block.vertices.len(), x.cols());
            for (i, &v) in block.vertices.iter().enumerate() {
                bx.row_mut(i).copy_from_slice(x.row(v as usize));
            }
            let norm = NormalizedAdjacency::new(&block.subgraph);
            let caches = model.forward_with_caches(&block.subgraph, &norm, &bx, None, 0);
            let logits = caches.output();
            // Loss on the seed rows only.
            let mut seed_logits = Matrix::zeros(block.num_seeds, logits.cols());
            let mut seed_labels = Vec::with_capacity(block.num_seeds);
            for i in 0..block.num_seeds {
                seed_logits.row_mut(i).copy_from_slice(logits.row(i));
                seed_labels.push(labels[block.vertices[i] as usize]);
            }
            let (loss, seed_grad) = softmax_cross_entropy(&seed_logits, &seed_labels);
            batch_loss += loss;
            let mut delta = model.output_grad(&caches);
            for i in 0..block.num_seeds {
                delta.row_mut(i).copy_from_slice(seed_grad.row(i));
            }
            let grads = model.gradients(&block.subgraph, &norm, &caches, delta);
            model.recycle_caches(caches);
            match grad_acc.as_mut() {
                None => grad_acc = Some(grads),
                Some(acc) => {
                    for (a, g) in acc.iter_mut().zip(&grads) {
                        accumulate(a, g);
                    }
                }
            }
        }
        // One weight update per batch (gradients accumulated, §II-A).
        if let Some(mut grads) = grad_acc {
            let scale = 1.0 / plan.num_batches() as f64;
            for g in &mut grads {
                for v in g.as_mut_slice() {
                    *v *= scale;
                }
            }
            model.apply_gradients(&grads);
        }
        final_loss = batch_loss / plan.num_batches() as f64;
    }

    // Full-graph evaluation.
    let norm = NormalizedAdjacency::new(graph);
    let logits = model.forward(graph, &norm, &x);
    MiniBatchReport {
        accuracy: accuracy(&logits, labels),
        final_loss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopim_graph::generate::degree_corrected_partition;

    fn task() -> (CsrGraph, Vec<u32>) {
        degree_corrected_partition(300, 3, 12.0, 5.0, 0.6, 2)
    }

    #[test]
    fn sampled_block_respects_fanout_and_contains_seeds() {
        let (g, _) = task();
        let mut rng = SmallRng::seed_from_u64(3);
        let seeds: Vec<u32> = (0..16).collect();
        let block = sample_block(&g, &seeds, 2, 4, &mut rng);
        assert_eq!(block.num_seeds, 16);
        assert_eq!(&block.vertices[..16], &seeds[..]);
        // Size bound: seeds × (1 + fanout + fanout²).
        assert!(block.vertices.len() <= 16 * (1 + 4 + 16));
        block.subgraph.validate().unwrap();
    }

    #[test]
    fn minibatch_training_learns_communities() {
        let (g, labels) = task();
        let report = train_minibatch(&g, &labels, &MiniBatchOptions::quick_test());
        assert!(report.accuracy > 0.6, "{report:?}");
    }

    #[test]
    fn minibatch_tracks_fullbatch_within_a_margin() {
        let (g, labels) = task();
        let mini = train_minibatch(&g, &labels, &MiniBatchOptions::quick_test());
        let mut full_opts = crate::train::TrainOptions::quick_test();
        full_opts.epochs = 25;
        let full = crate::train::train_gcn(&g, &labels, &full_opts);
        assert!(
            mini.accuracy > full.test_accuracy - 0.25,
            "mini {} vs full {}",
            mini.accuracy,
            full.test_accuracy
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, labels) = task();
        let a = train_minibatch(&g, &labels, &MiniBatchOptions::quick_test());
        let b = train_minibatch(&g, &labels, &MiniBatchOptions::quick_test());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "duplicate seed")]
    fn duplicate_seeds_rejected() {
        let (g, _) = task();
        let mut rng = SmallRng::seed_from_u64(1);
        sample_block(&g, &[0, 0], 1, 4, &mut rng);
    }
}
