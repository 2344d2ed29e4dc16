//! Differential test: `power_law_profile` against a copy of its original
//! form — a full 80-step calibration bisection whose mean is a sequential
//! scan over every vertex. The fast generator must reproduce it bit for
//! bit on every path it takes, and at every pool size: its weight table
//! is filled on the pool, so each comparison runs under pools of 1, 2
//! and 8 threads.

use gopim_graph::datasets::Dataset;
use gopim_graph::generate::power_law_profile;
use gopim_graph::DegreeProfile;
use gopim_par::Pool;
use gopim_rng::rngs::SmallRng;
use gopim_rng::{Rng, SeedableRng};
use gopim_testkit::prop::{check_with, Config};

/// Weights per pool task in the generator's table fill.
const WEIGHT_CHUNK: usize = 16 * 1024;

/// Asserts that the generator matches the reference bit for bit under
/// each of `pools`.
fn assert_matches_reference(
    pools: &[Pool],
    (n, avg, exponent, locality, seed): (usize, f64, f64, f64, u64),
    what: &str,
) {
    let slow = reference_profile(n, avg, exponent, locality, seed);
    for pool in pools {
        let fast = pool.install(|| power_law_profile(n, avg, exponent, locality, seed));
        assert_eq!(
            fast.degrees(),
            slow.degrees(),
            "{what} n={n} avg={avg} exponent={exponent} threads={}",
            pool.threads()
        );
    }
}

fn pools() -> Vec<Pool> {
    [1, 2, 8].into_iter().map(Pool::new).collect()
}

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
    /// Integral cap with runs of at least two on average (every term an
    /// integer, every sum exact).
    IntegralCap,
    /// Non-integral cap with `n` just above it.
    FractionalCap,
    /// Non-integral cap with `2 · cap ≤ n`, as collab's 60 · 8.2 (counts
    /// checked against the rounding bound).
    FractionalCapLongRuns,
    /// `2 · cap > n` with the cap at `n − 1`, as ddi's.
    ShortRuns,
    /// An integral cap of `60 · avg` below `n − 1` with `2 · cap > n`:
    /// short runs under a cap other than ddi's `n − 1`.
    IntegralCapShortRuns,
    /// `n` below 130: the first 64 probe blocks hold one index each, so
    /// the probe bounds are exact or nearly so.
    Tiny,
    /// `avg` within a factor of three of the cap `n − 1`: dense short
    /// runs, where the probe bounds settle only the first few steps.
    DenseShortRuns,
    /// `n` spanning two to four weight-table chunks plus a partial one.
    ManyChunks,
}

#[test]
fn fast_profile_matches_the_reference_scan_bitwise() {
    let pools = pools();
    check_with(
        "fast_profile_matches_the_reference_scan_bitwise",
        Config::cases(96),
        |d| {
            let case = d.pick(
                "case",
                &[
                    Case::IntegralCap,
                    Case::FractionalCap,
                    Case::FractionalCapLongRuns,
                    Case::ShortRuns,
                    Case::IntegralCapShortRuns,
                    Case::Tiny,
                    Case::DenseShortRuns,
                    Case::ManyChunks,
                ],
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
                Case::FractionalCapLongRuns => {
                    let avg = d.draw("avg", 1.0f64..30.0);
                    let cap = 60.0 * avg;
                    (
                        d.draw("n", 2 * cap as usize + 2..2 * cap as usize + 6000),
                        avg,
                    )
                }
                Case::ShortRuns => {
                    let n = d.draw("n", 3usize..3000);
                    (n, d.draw("avg", (n as f64 / 100.0).max(1.0)..n as f64))
                }
                Case::IntegralCapShortRuns => {
                    let avg = d.draw("k", 4u32..120) as f64 / 4.0;
                    let cap = 60.0 * avg;
                    (d.draw("n", cap as usize + 2..2 * cap as usize), avg)
                }
                Case::Tiny => {
                    let n = d.draw("n", 2usize..130);
                    (n, d.draw("avg", 1.0f64..n as f64))
                }
                Case::DenseShortRuns => {
                    let n = d.draw("n", 3usize..1500);
                    let cap = (n - 1) as f64;
                    (n, d.draw("avg", (cap / 3.0).max(1.0)..=cap))
                }
                Case::ManyChunks => {
                    let chunks = d.draw("chunks", 2usize..5);
                    let tail = d.draw("tail", 1usize..WEIGHT_CHUNK);
                    (chunks * WEIGHT_CHUNK + tail, d.draw("avg", 1.0f64..40.0))
                }
            };
            let cap = cap(n, avg);
            match case {
                Case::IntegralCap => assert!(cap.fract() == 0.0 && 2.0 * cap <= n as f64),
                Case::FractionalCap => assert!(cap.fract() != 0.0),
                Case::FractionalCapLongRuns => {
                    assert!(cap.fract() != 0.0 && 2.0 * cap <= n as f64)
                }
                Case::ShortRuns | Case::DenseShortRuns => assert!(2.0 * cap > n as f64),
                Case::IntegralCapShortRuns => {
                    assert!(cap.fract() == 0.0 && cap < (n - 1) as f64 && 2.0 * cap > n as f64)
                }
                Case::Tiny => assert!(n < 130),
                Case::ManyChunks => assert!(n > 2 * WEIGHT_CHUNK && n % WEIGHT_CHUNK != 0),
            }
            let exponent = d.draw("exponent", 0.3f64..1.2);
            let locality = d.draw("locality", 0.0f64..=1.0);
            let seed = d.draw("seed", 0u64..1 << 40);
            let args = (n, avg, exponent, locality, seed);
            assert_matches_reference(&pools, args, &format!("{case:?}"));
        },
    );
}

/// The Time Predictor's random graphs: `(n, avg, exponent)` drawn as
/// `generate_samples` draws them, with `n` capped at 2^17 (not 2^19.2) to
/// keep the reference scan short. The draws land on both sides of the run
/// gate and mostly on fractional caps.
#[test]
fn sample_draw_profiles_match_the_reference_scan_bitwise() {
    let pools = pools();
    check_with(
        "sample_draw_profiles_match_the_reference_scan_bitwise",
        Config::cases(24),
        |d| {
            let n = 2f64.powf(d.draw("log2_n", 9.0f64..17.0)) as usize;
            let max_deg = (n as f64 / 2.0).min(600.0);
            let avg = 2f64.powf(d.draw("log2_avg", 1.0..max_deg.log2()));
            let exponent = d.draw("exponent", 0.4f64..1.1);
            assert!((512..1 << 17).contains(&n) && (2.0..max_deg).contains(&avg));
            let seed = d.draw("seed", 0u64..1 << 40);
            assert_matches_reference(&pools, (n, avg, exponent, 0.9, seed), "sample draw");
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
    let pools = pools();
    for dataset in Dataset::ALL {
        let s = dataset.stats();
        for seed in [7, 1] {
            let args = (s.num_vertices, s.avg_degree, exponent(dataset), 0.92);
            let fast = power_law_profile(args.0, args.1, args.2, args.3, seed ^ 0x60_71_6d);
            assert_eq!(dataset.profile(seed), fast, "{dataset} seed {seed}");
            let args = (args.0, args.1, args.2, args.3, seed ^ 0x60_71_6d);
            assert_matches_reference(&pools, args, &format!("{dataset} seed {seed}"));
        }
    }
}
