//! Synthetic graph generators.
//!
//! These stand in for the OGB datasets the paper evaluates on (see
//! DESIGN.md §2). The generators are deterministic given a seed.
//!
//! Two families:
//!
//! - [`power_law_profile`]: a degree *sequence* with power-law shape,
//!   calibrated to a target average degree — input to the analytic
//!   performance model.
//! - [`chung_lu`], [`erdos_renyi`], [`planted_partition`]: concrete
//!   [`CsrGraph`]s for the numeric GCN training and mapping experiments.

use gopim_rng::rngs::SmallRng;
use gopim_rng::seq::SliceRandom;
use gopim_rng::{Rng, SeedableRng};

use crate::csr::CsrGraph;
use crate::degree::DegreeProfile;

/// Generates a power-law degree sequence over `n` vertices whose mean is
/// calibrated to `avg_degree` (within a few percent), with index
/// locality as found in real OGB orderings.
///
/// `exponent` controls skew (larger ⇒ flatter; typical 0.5–1.2).
/// `locality ∈ [0, 1]` controls how strongly the degree correlates with
/// the vertex index: `1.0` keeps the sequence fully sorted (maximum
/// per-crossbar skew under index-based mapping, as in the paper's
/// Fig. 6), `0.0` shuffles uniformly.
///
/// # Panics
///
/// Panics if `n < 2` (a lone vertex has no neighbour, so no degree cap
/// of at least 1 exists), `avg_degree < 1.0`, or `locality` is outside
/// `[0, 1]`.
pub fn power_law_profile(
    n: usize,
    avg_degree: f64,
    exponent: f64,
    locality: f64,
    seed: u64,
) -> DegreeProfile {
    assert!(n >= 2, "need at least two vertices");
    assert!(avg_degree >= 1.0, "average degree must be at least 1");
    assert!(
        (0.0..=1.0).contains(&locality),
        "locality must be within [0, 1]"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    // Real OGB graphs cap their hubs at a few tens of times the average
    // degree (e.g. ppa: avg 73.7, max ≈ 3.2k); an uncapped power law
    // would put ~N-degree monsters at the head.
    let max_degree = ((n - 1) as f64).min(60.0 * avg_degree);

    // Raw power-law weights w_i = (i + 1)^(-exponent).
    let weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-exponent)).collect();

    // Calibrate scale c so that mean(clamp(round(c * w_i), 1, n-1))
    // equals avg_degree. The clamp makes this nonlinear; bisection on c
    // converges quickly because the mean is monotone in c.
    let term = |c: f64, w: f64| (c * w).round().clamp(1.0, max_degree);
    // With an integral cap every term is an integer, so while n·cap stays
    // below 2^53 every partial sum is exact and the summation order
    // cannot change the result: non-increasing weights give runs of equal
    // terms that can be summed as `d · len`. Short runs (2·cap > n) gain
    // nothing from galloping and keep the scan.
    let by_runs = max_degree.fract() == 0.0
        && (n as f64) * max_degree < EXACT_F64_INTEGER_LIMIT
        && 2.0 * max_degree <= n as f64
        && weights.windows(2).all(|pair| pair[0] >= pair[1]);
    let mean_for = |c: f64| -> f64 {
        let sum = if by_runs {
            run_length_sum(&weights, |w| term(c, w))
        } else {
            weights.iter().map(|&w| term(c, w)).sum::<f64>()
        };
        sum / n as f64
    };
    let mut lo = 0.0_f64;
    // Upper bound: the scale at which even the lightest-weight vertex
    // saturates at max_degree (w_min = n^-exponent).
    let mut hi = max_degree * (n as f64).powf(exponent) + 1.0;
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        // Collapsed: whichever side moves, every later step has this same
        // midpoint, so running all 80 steps would also end with c = mid.
        if mid == lo || mid == hi {
            break;
        }
        if mean_for(mid) < avg_degree {
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

    // Degrees are currently descending in index. Break locality for a
    // (1 - locality) fraction of positions via random swaps.
    let swaps = ((1.0 - locality) * n as f64) as usize;
    for _ in 0..swaps {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        degrees.swap(i, j);
    }
    DegreeProfile::from_degrees(degrees)
}

/// 2^53: every integer up to here is exactly representable as an `f64`.
const EXACT_F64_INTEGER_LIMIT: f64 = 9_007_199_254_740_992.0;

/// Sum of `term(w)` over `weights`, where `term` is non-increasing along
/// `weights`, integer-valued, and the total stays below 2^53 — so the
/// result equals the sequential sum bit for bit. Each run of equal terms
/// is found by galloping (probe `i+1, i+2, i+4, …` until a probe leaves
/// the run, then binary-search the last gap) and added as `d · len`.
fn run_length_sum(weights: &[f64], term: impl Fn(f64) -> f64) -> f64 {
    let n = weights.len();
    let mut sum = 0.0;
    let mut start = 0;
    while start < n {
        let d = term(weights[start]);
        // Every index below `inside` is known to be in the run; `outside`
        // is the first index known not to be (or n).
        let mut inside = start + 1;
        let mut step = 1;
        let outside = loop {
            let probe = start + step;
            if probe >= n {
                break n;
            }
            if term(weights[probe]) != d {
                break probe;
            }
            inside = probe + 1;
            step *= 2;
        };
        let end = inside + weights[inside..outside].partition_point(|&w| term(w) == d);
        sum += d * (end - start) as f64;
        start = end;
    }
    sum
}

/// Chung–Lu random graph: samples `target_edges` endpoint pairs with
/// probability proportional to the degree profile, dropping duplicates
/// and self-loops. The realized degree sequence approximates `profile`.
///
/// Intended for the *numeric* experiments where `n` is at most a few
/// thousand; cost is `O(E log E)`.
///
/// # Panics
///
/// Panics if the profile is empty or has zero total degree.
pub fn chung_lu(profile: &DegreeProfile, seed: u64) -> CsrGraph {
    let n = profile.num_vertices();
    assert!(n > 0, "need at least one vertex");
    let total = profile.total_degree();
    assert!(total > 0, "profile must have positive total degree");
    let mut rng = SmallRng::seed_from_u64(seed);

    // Cumulative distribution over vertices, weighted by degree.
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0u64;
    for v in 0..n {
        acc += u64::from(profile.degree(v));
        cdf.push(acc);
    }
    let sample_vertex = |rng: &mut SmallRng| -> u32 {
        let t = rng.gen_range(0..acc);
        cdf.partition_point(|&c| c <= t) as u32
    };

    let target_edges = (total / 2) as usize;
    let mut edges = Vec::with_capacity(target_edges);
    // Oversample modestly; duplicates get deduped by the CSR builder.
    for _ in 0..target_edges + target_edges / 8 {
        let u = sample_vertex(&mut rng);
        let v = sample_vertex(&mut rng);
        if u != v {
            edges.push((u, v));
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Erdős–Rényi `G(n, p)` chosen so the expected average degree is
/// `avg_degree`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn erdos_renyi(n: usize, avg_degree: f64, seed: u64) -> CsrGraph {
    assert!(n >= 2, "need at least two vertices");
    let p = (avg_degree / (n - 1) as f64).clamp(0.0, 1.0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Planted-partition (stochastic block model) graph with `communities`
/// equal-size blocks: intra-community edges are `assortativity` times
/// more likely than inter-community ones, with the overall expected
/// average degree equal to `avg_degree`.
///
/// Returns the graph and the community label of each vertex. Used by the
/// accuracy experiments (Table V, Fig. 16), which need a learnable
/// structure.
///
/// # Panics
///
/// Panics if `n < communities` or `communities == 0`.
pub fn planted_partition(
    n: usize,
    communities: usize,
    avg_degree: f64,
    assortativity: f64,
    seed: u64,
) -> (CsrGraph, Vec<u32>) {
    assert!(communities > 0, "need at least one community");
    assert!(n >= communities, "need at least one vertex per community");
    let labels: Vec<u32> = (0..n).map(|v| (v % communities) as u32).collect();

    // Expected degree = p_out * (n - n/k) + p_in * (n/k - 1), with
    // p_in = assortativity * p_out.
    let per_block = n as f64 / communities as f64;
    let same = per_block - 1.0;
    let diff = n as f64 - per_block;
    let p_out = (avg_degree / (diff + assortativity * same)).clamp(0.0, 1.0);
    let p_in = (assortativity * p_out).clamp(0.0, 1.0);

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            let p = if labels[u as usize] == labels[v as usize] {
                p_in
            } else {
                p_out
            };
            if rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    (CsrGraph::from_edges(n, &edges), labels)
}

/// Degree-corrected planted partition: like [`planted_partition`] but
/// with power-law vertex propensities, so the graph has both community
/// structure *and* the skewed degrees real datasets show. This is the
/// stand-in used by the accuracy experiments: ISU's premise — that
/// low-degree vertices matter less — only holds on graphs where degree
/// actually varies.
///
/// Returns the graph and the community label of each vertex.
///
/// # Panics
///
/// Panics if `n < communities` or `communities == 0`.
pub fn degree_corrected_partition(
    n: usize,
    communities: usize,
    avg_degree: f64,
    assortativity: f64,
    exponent: f64,
    seed: u64,
) -> (CsrGraph, Vec<u32>) {
    assert!(communities > 0, "need at least one community");
    assert!(n >= communities, "need at least one vertex per community");
    let labels: Vec<u32> = (0..n).map(|v| (v % communities) as u32).collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xdc_5b);

    // Power-law propensities, shuffled so degree is independent of the
    // community layout, normalized to mean 1.
    let mut w: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-exponent)).collect();
    use gopim_rng::seq::SliceRandom;
    w.shuffle(&mut rng);
    let mean_w: f64 = w.iter().sum::<f64>() / n as f64;
    for v in w.iter_mut() {
        *v /= mean_w;
    }

    // Base rate calibrated like planted_partition, then modulated by
    // w_u · w_v (clamped into a valid probability).
    let per_block = n as f64 / communities as f64;
    let same = per_block - 1.0;
    let diff = n as f64 - per_block;
    let p_out = (avg_degree / (diff + assortativity * same)).clamp(0.0, 1.0);
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            let base = if labels[u as usize] == labels[v as usize] {
                assortativity * p_out
            } else {
                p_out
            };
            let p = (base * w[u as usize] * w[v as usize]).clamp(0.0, 1.0);
            if p > 0.0 && rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    (CsrGraph::from_edges(n, &edges), labels)
}

/// Density-preserving subsample: keeps `keep_n` random vertices and
/// rescales nothing else — on power-law graphs the induced subgraph's
/// average degree shrinks, so this picks vertices with probability
/// proportional to degree to keep the density character of the original.
///
/// Used to shrink large datasets for numeric training while preserving
/// the dense/sparse classification that drives ISU's adaptive θ.
pub fn degree_weighted_sample(graph: &CsrGraph, keep_n: usize, seed: u64) -> CsrGraph {
    let n = graph.num_vertices();
    if keep_n >= n {
        return graph.clone();
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    // Weighted sampling without replacement (Efraimidis–Spirakis): each
    // vertex gets key u^(1/w); the keep_n largest keys win.
    let mut keyed: Vec<(f64, u32)> = (0..n as u32)
        .map(|v| {
            let w = graph.degree(v as usize) as f64 + 1.0;
            (rng.gen::<f64>().powf(1.0 / w), v)
        })
        .collect();
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut keep: Vec<u32> = keyed[..keep_n].iter().map(|&(_, v)| v).collect();
    keep.shuffle(&mut rng);
    graph.induced_subgraph(&keep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law_profile_hits_target_mean() {
        let p = power_law_profile(4000, 60.0, 0.8, 0.9, 1);
        assert_eq!(p.num_vertices(), 4000);
        let err = (p.avg_degree() - 60.0).abs() / 60.0;
        assert!(err < 0.05, "mean {} too far from 60", p.avg_degree());
    }

    #[test]
    #[should_panic(expected = "need at least two vertices")]
    fn power_law_profile_rejects_a_single_vertex() {
        power_law_profile(1, 1.0, 0.8, 0.5, 1);
    }

    #[test]
    fn power_law_profile_is_skewed() {
        let p = power_law_profile(2000, 20.0, 0.9, 1.0, 2);
        let s = p.stats();
        assert!(s.max > 10 * s.min.max(1), "expected heavy skew, got {s:?}");
    }

    #[test]
    fn power_law_locality_one_is_sorted_descending_modulo_jitter() {
        let p = power_law_profile(1000, 30.0, 0.8, 1.0, 3);
        // First decile should be far denser than last decile.
        let first: u64 = p.degrees()[..100].iter().map(|&d| u64::from(d)).sum();
        let last: u64 = p.degrees()[900..].iter().map(|&d| u64::from(d)).sum();
        assert!(first > 3 * last);
    }

    #[test]
    fn power_law_is_deterministic_per_seed() {
        let a = power_law_profile(500, 10.0, 0.8, 0.5, 42);
        let b = power_law_profile(500, 10.0, 0.8, 0.5, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn chung_lu_approximates_profile() {
        let p = power_law_profile(800, 16.0, 0.7, 0.5, 4);
        let g = chung_lu(&p, 5);
        g.validate().unwrap();
        let realized = g.avg_degree();
        assert!(
            (realized - 16.0).abs() / 16.0 < 0.3,
            "avg degree {realized} too far from 16"
        );
    }

    #[test]
    fn erdos_renyi_mean_degree_close() {
        let g = erdos_renyi(1000, 8.0, 6);
        g.validate().unwrap();
        assert!((g.avg_degree() - 8.0).abs() < 1.5);
    }

    #[test]
    fn planted_partition_is_assortative() {
        let (g, labels) = planted_partition(600, 3, 20.0, 8.0, 7);
        g.validate().unwrap();
        let mut intra = 0usize;
        let mut inter = 0usize;
        for (u, v) in g.edges() {
            if labels[u as usize] == labels[v as usize] {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        // Communities are 1/3 of vertices, so random would give
        // intra/inter ≈ 0.5; assortativity 8 pushes it well above 1.
        assert!(
            intra as f64 > 1.5 * inter as f64,
            "intra={intra} inter={inter}"
        );
    }

    #[test]
    fn degree_corrected_partition_is_skewed_and_assortative() {
        let (g, labels) = degree_corrected_partition(600, 3, 16.0, 6.0, 0.7, 11);
        g.validate().unwrap();
        let s = g.degree_stats();
        assert!(s.max as f64 > 4.0 * s.mean, "skew: {s:?}");
        let mut intra = 0usize;
        let mut inter = 0usize;
        for (u, v) in g.edges() {
            if labels[u as usize] == labels[v as usize] {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(
            intra as f64 > 1.2 * inter as f64,
            "intra={intra} inter={inter}"
        );
    }

    #[test]
    fn degree_corrected_partition_hits_target_density() {
        let (g, _) = degree_corrected_partition(800, 4, 12.0, 4.0, 0.6, 13);
        let rel = (g.avg_degree() - 12.0).abs() / 12.0;
        assert!(rel < 0.35, "avg degree {}", g.avg_degree());
    }

    #[test]
    fn degree_weighted_sample_preserves_density_character() {
        let p = power_law_profile(1500, 30.0, 0.8, 0.3, 8);
        let g = chung_lu(&p, 9);
        let sub = degree_weighted_sample(&g, 500, 10);
        sub.validate().unwrap();
        assert_eq!(sub.num_vertices(), 500);
        // Degree-weighted sampling should retain a dense core.
        assert!(sub.avg_degree() > 8.0, "avg {}", sub.avg_degree());
    }
}
