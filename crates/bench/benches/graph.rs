//! Microbenchmarks for degree-profile generation and degree ranking —
//! the graph-layer work every cold simulator cell repeats (one full-size
//! profile per dataset, ranked by the interleaved mapping and the
//! selective-update mask).

use gopim_graph::datasets::Dataset;
use gopim_graph::generate::power_law_profile;
use gopim_testkit::bench::Runner;

fn main() {
    let mut runner = Runner::new("graph");
    // ddi: short runs (2·cap > n, serve_mix's hot key); collab: a
    // fractional cap (counts settled against the rounding bound);
    // proteins: cap 35,820, the costliest calibration per vertex; ppa:
    // 576 K vertices at exponent 1.0; products: 2.45 M vertices, the
    // largest weight table.
    for dataset in [
        Dataset::Ddi,
        Dataset::Collab,
        Dataset::Proteins,
        Dataset::Ppa,
        Dataset::Products,
    ] {
        let name = dataset.name();
        runner.bench(&format!("profile/{name}"), || dataset.profile(7));
    }
    // One of the Time Predictor's random graphs at its typical size: a
    // fractional cap (60 · 34.86) with long runs.
    runner.bench("profile/sample_draw_397898", || {
        power_law_profile(397_898, 34.86, 0.75, 0.9, 7)
    });
    let products = Dataset::Products.profile(7);
    runner.bench("rank_by_degree/products", || {
        products.vertices_by_degree_desc()
    });
    runner.finish();
}
