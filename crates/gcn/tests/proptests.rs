//! Property-based tests for the GCN training engine (gopim-testkit).

use gopim_gcn::aggregate::NormalizedAdjacency;
use gopim_gcn::GcnModel;
use gopim_graph::generate::erdos_renyi;
use gopim_linalg::init::xavier_uniform;
use gopim_linalg::ops::{add, scale};
use gopim_testkit::prop::{check_with, Config};

#[test]
fn aggregation_is_linear() {
    check_with("aggregation_is_linear", Config::cases(16), |d| {
        let n = d.draw("n", 4usize..60);
        let avg = d.draw("avg", 1.0f64..8.0);
        let seed = d.draw("seed", 0u64..100);
        let alpha = d.draw("alpha", -3.0f64..3.0);
        let g = erdos_renyi(n, avg, seed);
        let norm = NormalizedAdjacency::new(&g);
        let x = xavier_uniform(n, 3, seed ^ 1);
        let y = xavier_uniform(n, 3, seed ^ 2);
        // Â(x + αy) == Âx + αÂy
        let left = norm.apply(&g, &add(&x, &scale(&y, alpha)));
        let right = add(&norm.apply(&g, &x), &scale(&norm.apply(&g, &y), alpha));
        for (a, b) in left.as_slice().iter().zip(right.as_slice()) {
            assert!((a - b).abs() < 1e-9);
        }
    });
}

#[test]
fn forward_is_deterministic_and_shaped() {
    check_with(
        "forward_is_deterministic_and_shaped",
        Config::cases(16),
        |d| {
            let n = d.draw("n", 4usize..50);
            let seed = d.draw("seed", 0u64..50);
            let g = erdos_renyi(n, 3.0, seed);
            let norm = NormalizedAdjacency::new(&g);
            let x = xavier_uniform(n, 5, seed);
            let model = GcnModel::new(&[5, 7, 4], 0.01, seed);
            let a = model.forward(&g, &norm, &x);
            let b = model.forward(&g, &norm, &x);
            assert_eq!(a.shape(), (n, 4));
            assert_eq!(a, b);
        },
    );
}

#[test]
fn gradients_match_backward_effect() {
    check_with("gradients_match_backward_effect", Config::cases(16), |d| {
        let n = d.draw("n", 4usize..30);
        let seed = d.draw("seed", 0u64..50);
        // gradients() + apply_gradients() must equal backward().
        let g = erdos_renyi(n, 3.0, seed);
        let norm = NormalizedAdjacency::new(&g);
        let x = xavier_uniform(n, 4, seed);
        let delta = xavier_uniform(n, 3, seed ^ 9);
        let mut m1 = GcnModel::new(&[4, 6, 3], 0.05, seed);
        let mut m2 = GcnModel::new(&[4, 6, 3], 0.05, seed);

        let caches1 = m1.forward_with_caches(&g, &norm, &x, None, 0);
        m1.backward(&g, &norm, &caches1, delta.clone());

        let caches2 = m2.forward_with_caches(&g, &norm, &x, None, 0);
        let grads = m2.gradients(&g, &norm, &caches2, delta);
        m2.apply_gradients(&grads);

        let out1 = m1.forward(&g, &norm, &x);
        let out2 = m2.forward(&g, &norm, &x);
        for (a, b) in out1.as_slice().iter().zip(out2.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    });
}
