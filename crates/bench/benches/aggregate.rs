//! Microbenchmarks for sparse Â·X aggregation (the GCN Aggregation
//! stage): symmetric-normalized propagation and the SAGE-style mean
//! aggregator over synthetic power-law graphs, plus `Â·X` on the ddi
//! training graph of the `gcn_train` benchmark at its three feature
//! widths (hidden 48, Cora's 7 classes, the link datasets' 2).
//!
//! `GOPIM_THREADS` controls the pool fan-out; outputs are row-wise
//! deterministic, so every thread count produces identical bits.

use gopim_gcn::aggregate::{MeanAggregator, NormalizedAdjacency, Propagation};
use gopim_graph::datasets::Dataset;
use gopim_graph::generate::{chung_lu, power_law_profile};
use gopim_linalg::Matrix;
use gopim_testkit::bench::Runner;

fn features(n: usize, d: usize) -> Matrix {
    Matrix::from_vec(
        n,
        d,
        (0..n * d).map(|i| ((i as f64) * 0.13).cos()).collect(),
    )
}

fn main() {
    let mut runner = Runner::new("aggregate");
    for &(n, avg_deg, d) in &[(1_000usize, 8.0f64, 32usize), (4_000, 16.0, 64)] {
        let profile = power_law_profile(n, avg_deg, 2.2, 0.5, 0x9a6);
        let graph = chung_lu(&profile, 0x517);
        let x = features(n, d);
        let norm = NormalizedAdjacency::new(&graph);
        runner.bench(&format!("normalized/{n}v-d{d}"), || {
            norm.propagate(&graph, &x)
        });
        let mean = MeanAggregator::new();
        runner.bench(&format!("mean/{n}v-d{d}"), || mean.propagate(&graph, &x));
    }
    let (graph, _) = Dataset::Ddi.numeric_graph(1200, 1);
    let norm = NormalizedAdjacency::new(&graph);
    for d in [48usize, 7, 2] {
        let x = features(graph.num_vertices(), d);
        let mut out = Matrix::zeros(graph.num_vertices(), d);
        runner.bench(&format!("normalized/1200v-d{d}"), || {
            norm.apply_into(&graph, &x, &mut out)
        });
    }
    runner.finish();
}
