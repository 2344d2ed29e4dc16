//! Parallel-runtime benchmark: nested parallelism under a fan-out, the
//! shape of Table V. One iteration `par_map`s 8 short GCN trainings
//! (ddi and arxiv, two graph seeds each, vanilla and ISU) on
//! 1200-vertex `numeric_graph`s with `TrainOptions::experiment()`
//! widths and 10 epochs; every matmul and CSR gather inside a run
//! opens its scope inside the outer task.
//!
//! It measures scheduling on whatever host runs it, so it stays out of
//! `scripts/perf_ratchet.sh`. `GOPIM_THREADS` sets the pool size.

use gopim_gcn::train::{train_gcn, TrainOptions};
use gopim_graph::datasets::Dataset;
use gopim_mapping::SelectivePolicy;
use gopim_testkit::bench::Runner;

fn main() {
    let mut runner = Runner::new("par");
    let base = TrainOptions {
        epochs: 10,
        ..TrainOptions::experiment()
    };
    let mut graphs = Vec::new();
    let mut runs = Vec::new();
    for dataset in [Dataset::Ddi, Dataset::Arxiv] {
        for seed in [1, 2] {
            let (graph, labels) = dataset.numeric_graph(1200, seed);
            let policy = SelectivePolicy::adaptive(&graph.to_degree_profile());
            for selective in [None, Some(policy)] {
                let options = TrainOptions {
                    seed,
                    selective,
                    ..base.clone()
                };
                runs.push((graphs.len(), options));
            }
            graphs.push((graph, labels));
        }
    }
    runner.bench("nested/train_batch_x8", || {
        gopim_par::par_map(&runs, |(g, options)| {
            let (graph, labels) = &graphs[*g];
            train_gcn(graph, labels, options).final_loss
        })
    });
    runner.finish();
}
