//! Differential test: `power_law_profile` against a copy of its original
//! form — a full 80-step calibration bisection whose mean is a sequential
//! scan over every vertex. The fast generator must reproduce it bit for
//! bit on every path it takes.

use gopim_graph::datasets::Dataset;
use gopim_graph::generate::power_law_profile;
use gopim_graph::DegreeProfile;
use gopim_rng::rngs::SmallRng;
use gopim_rng::{Rng, SeedableRng};
use gopim_testkit::prop::{check_with, Config};

/// The original generator, kept verbatim as the reference.
fn reference_profile(
    n: usize,
    avg_degree: f64,
    exponent: f64,
    locality: f64,
    seed: u64,
) -> DegreeProfile {
    let mut rng = SmallRng::seed_from_u64(seed);
    let max_degree = ((n - 1) as f64).min(60.0 * avg_degree);
    let weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-exponent)).collect();
    let mean_for = |c: f64, weights: &[f64]| -> f64 {
        weights
            .iter()
            .map(|&w| (c * w).round().clamp(1.0, max_degree))
            .sum::<f64>()
            / n as f64
    };
    let mut lo = 0.0_f64;
    let mut hi = max_degree * (n as f64).powf(exponent) + 1.0;
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if mean_for(mid, &weights) < avg_degree {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let c = 0.5 * (lo + hi);
    let mut degrees: Vec<u32> = weights
        .iter()
        .map(|&w| {
            let jitter = rng.gen_range(0.9..1.1);
            (c * w * jitter).round().clamp(1.0, max_degree) as u32
        })
        .collect();
    let swaps = ((1.0 - locality) * n as f64) as usize;
    for _ in 0..swaps {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        degrees.swap(i, j);
    }
    DegreeProfile::from_degrees(degrees)
}

/// The generator's degree cap for `(n, avg_degree)`.
fn cap(n: usize, avg_degree: f64) -> f64 {
    ((n - 1) as f64).min(60.0 * avg_degree)
}

#[derive(Debug, Clone, Copy)]
enum Case {
    /// Integral cap with runs of at least two on average (run path).
    IntegralCap,
    /// Non-integral cap, as collab's 60 · 8.2 (scan path).
    FractionalCap,
    /// `2 · cap > n`, as ddi's (scan path).
    ShortRuns,
}

#[test]
fn fast_profile_matches_the_reference_scan_bitwise() {
    check_with(
        "fast_profile_matches_the_reference_scan_bitwise",
        Config::cases(48),
        |d| {
            let case = d.pick(
                "case",
                &[Case::IntegralCap, Case::FractionalCap, Case::ShortRuns],
            );
            let (n, avg) = match case {
                Case::IntegralCap => {
                    // avg = k / 4 puts 60 · avg = 15 k on an integer.
                    let avg = d.draw("k", 4u32..120) as f64 / 4.0;
                    let cap = 60.0 * avg;
                    (d.draw("n", 2 * cap as usize..2 * cap as usize + 6000), avg)
                }
                Case::FractionalCap => {
                    let avg = d.draw("avg", 1.0f64..30.0);
                    let cap = 60.0 * avg;
                    (d.draw("n", cap as usize + 2..cap as usize + 6000), avg)
                }
                Case::ShortRuns => {
                    let n = d.draw("n", 3usize..3000);
                    (n, d.draw("avg", (n as f64 / 100.0).max(1.0)..n as f64))
                }
            };
            let cap = cap(n, avg);
            match case {
                Case::IntegralCap => assert!(cap.fract() == 0.0 && 2.0 * cap <= n as f64),
                Case::FractionalCap => assert!(cap.fract() != 0.0),
                Case::ShortRuns => assert!(2.0 * cap > n as f64),
            }
            let exponent = d.draw("exponent", 0.3f64..1.2);
            let locality = d.draw("locality", 0.0f64..=1.0);
            let seed = d.draw("seed", 0u64..1 << 40);
            let fast = power_law_profile(n, avg, exponent, locality, seed);
            let slow = reference_profile(n, avg, exponent, locality, seed);
            assert_eq!(fast.degrees(), slow.degrees(), "{case:?} n={n} avg={avg}");
        },
    );
}

#[test]
fn every_dataset_profile_matches_the_reference_scan() {
    // Mirrors the arguments `Dataset::profile` passes; the first assert
    // keeps this table honest.
    let exponent = |d: Dataset| match d {
        Dataset::Ddi => 0.35,
        Dataset::Collab | Dataset::Arxiv => 0.6,
        Dataset::Ppa => 1.0,
        Dataset::Proteins => 1.1,
        Dataset::Products => 0.9,
        Dataset::Cora => 0.5,
    };
    for dataset in Dataset::ALL {
        let s = dataset.stats();
        for seed in [7, 1] {
            let args = (s.num_vertices, s.avg_degree, exponent(dataset), 0.92);
            let fast = power_law_profile(args.0, args.1, args.2, args.3, seed ^ 0x60_71_6d);
            assert_eq!(dataset.profile(seed), fast, "{dataset} seed {seed}");
            let slow = reference_profile(args.0, args.1, args.2, args.3, seed ^ 0x60_71_6d);
            assert_eq!(fast.degrees(), slow.degrees(), "{dataset} seed {seed}");
        }
    }
}
