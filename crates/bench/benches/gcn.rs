//! Microbenchmarks for one numeric GCN training epoch at the shapes of
//! the `gcn_train` benchmark: `train_epoch` (forward, backward, Adam)
//! on a 1200-vertex `numeric_graph` with `TrainOptions::experiment()`
//! widths (3 layers, hidden 48), plain and with ISU staleness.
//!
//! ddi is the dense link dataset (2 classes, average degree 32); arxiv
//! is a sparse node dataset (8 classes). `GOPIM_THREADS` sets the pool
//! fan-out and `GOPIM_NO_SIMD=1` selects the baseline-ISA kernels;
//! neither changes any output bit.

use gopim_gcn::aggregate::NormalizedAdjacency;
use gopim_gcn::selective::StaleFeatureCache;
use gopim_gcn::train::synthetic_features;
use gopim_gcn::{GcnModel, TrainOptions};
use gopim_graph::datasets::Dataset;
use gopim_mapping::SelectivePolicy;
use gopim_testkit::bench::Runner;

fn main() {
    let mut runner = Runner::new("gcn");
    let options = TrainOptions::experiment();
    for dataset in [Dataset::Ddi, Dataset::Arxiv] {
        let (graph, labels) = dataset.numeric_graph(1200, 1);
        let n = graph.num_vertices();
        let classes = dataset.num_classes();
        let x = synthetic_features(&labels, classes, 8, 2);
        let mut dims = vec![x.cols()];
        dims.extend(std::iter::repeat_n(options.hidden, options.num_layers - 1));
        dims.push(classes);
        let norm = NormalizedAdjacency::new(&graph);
        let mask: Vec<bool> = (0..n).map(|v| v % 5 < 3).collect();
        let profile = graph.to_degree_profile();
        let policy = SelectivePolicy::adaptive(&profile);
        for isu in [false, true] {
            let mut model = GcnModel::new(&dims, options.learning_rate, 3);
            let mut cache = isu.then(|| {
                let important = policy.important_vertices(&profile);
                StaleFeatureCache::new(options.num_layers, important, policy)
            });
            let mut epoch = 0;
            let suffix = if isu { "-isu" } else { "" };
            runner.bench(&format!("epoch/{}{suffix}", dataset.name()), || {
                epoch += 1;
                model.train_epoch(&graph, &norm, &x, &labels, &mask, cache.as_mut(), epoch)
            });
        }
    }
    runner.finish();
}
