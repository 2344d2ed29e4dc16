//! Microbenchmarks for degree-profile generation and degree ranking —
//! the graph-layer work every cold simulator cell repeats (one full-size
//! profile per dataset, ranked by the interleaved mapping and the
//! selective-update mask).

use gopim_graph::datasets::Dataset;
use gopim_testkit::bench::Runner;

fn main() {
    let mut runner = Runner::new("graph");
    // ddi: short runs (scan path, serve_mix's hot key); collab:
    // fractional cap (scan path); products: the 2.45 M-vertex run path.
    for dataset in [Dataset::Ddi, Dataset::Collab, Dataset::Products] {
        let name = dataset.name();
        runner.bench(&format!("profile/{name}"), || dataset.profile(7));
    }
    let products = Dataset::Products.profile(7);
    runner.bench("rank_by_degree/products", || {
        products.vertices_by_degree_desc()
    });
    runner.finish();
}
