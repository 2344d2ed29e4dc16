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

use std::sync::atomic::{AtomicBool, Ordering};

use gopim_obs::metrics::LazyCounter;
use gopim_rng::rngs::SmallRng;
use gopim_rng::{Rng, SeedableRng};

use crate::csr::CsrGraph;
use crate::degree::DegreeProfile;

/// Calibration steps the probe bounds settled.
static BOUND_STEPS: LazyCounter = LazyCounter::new("graph.profile.bound_steps");
/// Calibration steps that counted the midpoint's terms exactly.
static EXACT_STEPS: LazyCounter = LazyCounter::new("graph.profile.exact_steps");
/// Calibration steps that ran the sequential scan: after an exact count
/// that could not settle the step, or every step when the counts'
/// preconditions fail.
static SCAN_STEPS: LazyCounter = LazyCounter::new("graph.profile.scan_steps");

/// Weights per pool task when the weight table is filled. Fixed, so
/// what each task computes never depends on the pool's width.
const WEIGHT_CHUNK: usize = 16 * 1024;

/// The probe bounds' resolution: a block starting at index `q` is
/// `1 + q / PROBE_SPACING` long, so block ends grow geometrically.
const PROBE_SPACING: usize = 64;

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
    let _span = gopim_obs::span!("graph.power_law_profile", n);
    let mut rng = SmallRng::seed_from_u64(seed);
    // Real OGB graphs cap their hubs at a few tens of times the average
    // degree (e.g. ppa: avg 73.7, max ≈ 3.2k); an uncapped power law
    // would put ~N-degree monsters at the head.
    let max_degree = ((n - 1) as f64).min(60.0 * avg_degree);

    // Raw power-law weights w_i = (i + 1)^(-exponent).
    let (weights, non_increasing) = weight_table(n, exponent);
    let c = calibrate(&weights, non_increasing, max_degree, avg_degree, exponent);

    let _draw = gopim_obs::span!("graph.profile.draw", n);
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

/// Fills `w_i = (i + 1)^(-exponent)` for `i < n` in fixed chunks of
/// `WEIGHT_CHUNK` on the pool, and reports whether the table is
/// non-increasing: each chunk checks its own pairs and the pair across
/// its left edge.
fn weight_table(n: usize, exponent: f64) -> (Vec<f64>, bool) {
    let _span = gopim_obs::span!("graph.profile.weights", n);
    let weight = |i: usize| ((i + 1) as f64).powf(-exponent);
    let mut weights = vec![0.0; n];
    let non_increasing = AtomicBool::new(true);
    gopim_par::par_chunks_mut(&mut weights, WEIGHT_CHUNK, |chunk, out| {
        let start = chunk * WEIGHT_CHUNK;
        let mut prev = if start == 0 {
            f64::INFINITY
        } else {
            weight(start - 1)
        };
        let mut ok = true;
        for (w, i) in out.iter_mut().zip(start..) {
            *w = weight(i);
            ok &= *w <= prev;
            prev = *w;
        }
        if !ok {
            non_increasing.store(false, Ordering::Relaxed);
        }
    });
    (weights, non_increasing.into_inner())
}

/// The calibration term of weight `w` at scale `c`.
fn term(c: f64, w: f64, cap: f64) -> f64 {
    (c * w).round().clamp(1.0, cap)
}

/// Calibrates the scale `c` so that the mean of the terms
/// `clamp(round(c·w_i), 1, cap)` equals `avg`. The clamp makes this
/// nonlinear; bisection on `c` converges because the mean is monotone in
/// `c`. Each step asks whether the left-to-right `f64` sum of the terms
/// (the scan), divided by `n`, is below `avg`.
///
/// Non-increasing weights give terms that are non-increasing in the
/// index and, rounding being monotone, non-decreasing in `c`. Then a
/// step is settled by bounds from a fixed set of probes, else by the
/// exact count of the midpoint's terms where the bracket's ends do not
/// pin them down (see [`Bracket`]), and the scan runs only when even the
/// exact count leaves the scan's rounding undecided. Every step asks the
/// scan's question and gets the scan's answer, so `lo`, `hi` and `c` are
/// the scan's bit for bit.
fn calibrate(weights: &[f64], non_increasing: bool, cap: f64, avg: f64, exponent: f64) -> f64 {
    let n = weights.len();
    let _span = gopim_obs::span!("graph.profile.calibrate", n);
    let scan_below =
        |c: f64| weights.iter().map(|&w| term(c, w, cap)).sum::<f64>() / (n as f64) < avg;
    let mut counts = (non_increasing && (n as f64) * cap < EXACT_F64_INTEGER_LIMIT)
        .then(|| (Probes::new(weights), None::<Bracket>));
    let mut lo = 0.0_f64;
    // Upper bound: the scale at which even the lightest-weight vertex
    // saturates at the cap (w_min = n^-exponent).
    let mut hi = cap * (n as f64).powf(exponent) + 1.0;
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        // Collapsed: whichever side moves, every later step has this same
        // midpoint, so running all 80 steps would also end with c = mid.
        if mid == lo || mid == hi {
            break;
        }
        let below = match counts.as_mut() {
            None => {
                SCAN_STEPS.add(1);
                scan_below(mid)
            }
            Some((probes, bracket)) => {
                let (lower, upper) = probes.bounds(mid, cap);
                if let Some(below) = settle_below(lower, upper, cap, n, avg) {
                    BOUND_STEPS.add(1);
                    below
                } else {
                    EXACT_STEPS.add(1);
                    let bracket = bracket.get_or_insert_with(|| probes.bracket(lo, hi, cap));
                    let sum = bracket.count(weights, mid, cap);
                    let below = settle_below(sum, sum, cap, n, avg).unwrap_or_else(|| {
                        SCAN_STEPS.add(1);
                        scan_below(mid)
                    });
                    bracket.narrow(below);
                    below
                }
            }
        };
        if below {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// 2^53: every integer up to here is exactly representable as an `f64`.
const EXACT_F64_INTEGER_LIMIT: f64 = 9_007_199_254_740_992.0;

/// An exact sum of calibration terms: `at_cap` terms equal to a
/// fractional cap, and integer terms summing to `integral` (exact in
/// `u64` while `n·cap < 2^53`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Sum {
    at_cap: u64,
    integral: u64,
}

impl Sum {
    /// Adds `len` terms equal to `d`. A term is an integer unless it is
    /// a fractional cap.
    fn add(&mut self, d: f64, len: usize) {
        if d.fract() == 0.0 {
            self.integral += d as u64 * len as u64;
        } else {
            self.at_cap += len as u64;
        }
    }
}

/// Certified bounds on the term sum from a fixed set of probes. Block
/// `j` runs from probe `q_j` up to the next probe, and its terms lie
/// between its probe's term and the next probe's, because terms are
/// non-increasing in the index. The blocks grow geometrically, and the
/// last probe is index `n − 1`, a block of one.
struct Probes {
    weights: Vec<f64>,
    lens: Vec<usize>,
}

impl Probes {
    fn new(weights: &[f64]) -> Probes {
        let last = weights.len() - 1;
        let mut probes = Probes {
            weights: Vec::new(),
            lens: Vec::new(),
        };
        let mut q = 0;
        while q < last {
            let next = (q + 1 + q / PROBE_SPACING).min(last);
            probes.weights.push(weights[q]);
            probes.lens.push(next - q);
            q = next;
        }
        probes.weights.push(weights[last]);
        probes.lens.push(1);
        probes
    }

    /// Lower and upper bounds on the sum of the terms at scale `c`: each
    /// block's first term is its probe's, and the rest lie between the
    /// next probe's term and its own.
    fn bounds(&self, c: f64, cap: f64) -> (Sum, Sum) {
        let (mut lower, mut upper) = (Sum::default(), Sum::default());
        let mut rest = 0;
        for (&w, &len) in self.weights.iter().zip(&self.lens) {
            let t = term(c, w, cap);
            lower.add(t, rest + 1);
            upper.add(t, len);
            rest = len - 1;
        }
        (lower, upper)
    }

    /// The bracket between scales `lo < hi`: on each block the terms at
    /// any scale in between lie between the term at `lo` of the block's
    /// last index (the next probe's, or the probe's own for a block of
    /// one) and the term at `hi` of its first.
    fn bracket(&self, lo: f64, hi: f64, cap: f64) -> Bracket {
        let mut settled = Sum::default();
        let mut pieces = Vec::new();
        let mut start = 0;
        for (j, (&w, &len)) in self.weights.iter().zip(&self.lens).enumerate() {
            let last = if len == 1 { w } else { self.weights[j + 1] };
            let end = start + len;
            let bounds = (term(lo, last, cap), term(hi, w, cap));
            settle_or_push(&mut settled, &mut pieces, start..end, bounds);
            start = end;
        }
        Bracket {
            settled,
            pieces,
            runs: Vec::new(),
            spare: Vec::new(),
        }
    }
}

/// An index range on which every term at a scale inside the bracket
/// lies in `[lo, hi]`, with `lo < hi`.
#[derive(Clone, Copy, Debug)]
struct Piece {
    start: usize,
    end: usize,
    lo: f64,
    hi: f64,
}

/// What bounds on the terms at two scales, below and above every later
/// midpoint, pin down. Terms are non-decreasing in `c`, so wherever the
/// lower end's lower bound meets the upper end's upper bound, every
/// midpoint has that term: those are summed once, in `settled`. Only the
/// `pieces` where the bounds differ are counted at a midpoint, run by
/// run. The bracket starts from the probe terms at the ends (see
/// [`Probes::bracket`]); each exact step makes its midpoint one end, its
/// counted runs the new bounds on that side.
struct Bracket {
    settled: Sum,
    pieces: Vec<Piece>,
    /// The last counted midpoint's runs, `(end, term)` in index order;
    /// each piece's runs end at the piece's end.
    runs: Vec<(usize, f64)>,
    /// Where `narrow` builds the next pieces.
    spare: Vec<Piece>,
}

impl Bracket {
    /// The exact sum of the terms at scale `c`, which must lie strictly
    /// inside the bracket. Galloping finds each run's end; a run whose
    /// term is its piece's `lo` is the piece's last.
    fn count(&mut self, weights: &[f64], c: f64, cap: f64) -> Sum {
        let mut sum = self.settled;
        self.runs.clear();
        for piece in &self.pieces {
            let mut start = piece.start;
            while start < piece.end {
                let d = term(c, weights[start], cap);
                let end = if d == piece.lo {
                    piece.end
                } else {
                    run_end(&weights[..piece.end], start, |w| term(c, w, cap) == d)
                };
                sum.add(d, end - start);
                self.runs.push((end, d));
                start = end;
            }
        }
        sum
    }

    /// Makes the last counted scale the bracket's lower end (`below`) or
    /// its upper end: its runs that now meet the other end's bound join
    /// `settled`, and the rest become the new pieces.
    fn narrow(&mut self, below: bool) {
        let Bracket {
            settled,
            pieces,
            runs,
            spare,
        } = self;
        spare.clear();
        let mut runs = runs.iter();
        for piece in pieces.iter() {
            let mut start = piece.start;
            while start < piece.end {
                // `count` pushed runs that tile every piece.
                let Some(&(end, d)) = runs.next() else { break };
                let bounds = if below { (d, piece.hi) } else { (piece.lo, d) };
                settle_or_push(settled, spare, start..end, bounds);
                start = end;
            }
        }
        std::mem::swap(pieces, spare);
    }
}

/// Adds `range`, on which every term lies in `[lo, hi]`, to `settled`
/// when the two meet, else to `pieces`, merged into the last piece when
/// that one ends where `range` starts and has the same bounds.
fn settle_or_push(
    settled: &mut Sum,
    pieces: &mut Vec<Piece>,
    range: std::ops::Range<usize>,
    (lo, hi): (f64, f64),
) {
    if lo == hi {
        settled.add(lo, range.len());
        return;
    }
    match pieces.last_mut() {
        Some(last) if last.end == range.start && last.lo == lo && last.hi == hi => {
            last.end = range.end;
        }
        _ => pieces.push(Piece {
            start: range.start,
            end: range.end,
            lo,
            hi,
        }),
    }
}

/// The end of the run of equal terms that starts at `start`: the first
/// index of `weights` at or after `start` whose weight fails `same` (or
/// the slice's end), where `same` holds on a prefix of `start..`. Gallops
/// (probe `start+1, start+2, start+4, …` until a probe leaves the run),
/// then binary-searches the last gap.
fn run_end(weights: &[f64], start: usize, same: impl Fn(f64) -> bool) -> usize {
    let n = weights.len();
    // Every index below `inside` is known to be in the run; `outside`
    // is the first index known not to be (or n).
    let mut inside = start + 1;
    let mut step = 1;
    let outside = loop {
        let probe = start + step;
        if probe >= n {
            break n;
        }
        if !same(weights[probe]) {
            break probe;
        }
        inside = probe + 1;
        step *= 2;
    };
    inside + weights[inside..outside].partition_point(|&w| same(w))
}

/// Decides one bisection step, `scan / n < avg`, from bounds
/// `lower ≤ S ≤ upper` on the exact sum `S` of the `n` positive terms the
/// scan adds left to right, with `n·cap < 2^53`; an exact count passes
/// the same sum twice. Returns `None` when the bounds cannot settle the
/// step.
///
/// With no term at a fractional cap (`upper` counts none, and its first
/// block holds the largest term) every partial sum of the scan is an
/// integer below 2^53, so the scan is exact, `scan = S`, and division
/// rounds monotonically. Otherwise recursive summation of positive
/// terms gives `|scan − S| ≤ γ_{n−1}·S` with `γ_m = m·u / (1 − m·u)`,
/// `u = 2^-53` (Higham, *Accuracy and Stability of Numerical
/// Algorithms*, ch. 4). A fractional cap is `60·avg ≥ 60`, so
/// `n < 2^47` and `γ_{n−1} < 1.02·(n−1)·u`. Computing `s` from a bound
/// `U ≥ S` rounds twice (`|s − U| ≤ 2.01·u·U`), so
/// `scan ≤ (1 + γ)·U < s + 1.02·(n+1)·u·U`, and `B = 4u·s·(n+2)` is
/// about four times that, which also covers the rounding of `s` and `B`;
/// likewise `scan ≥ (1 − γ)·L > s − B` for `s` computed from a bound
/// `L ≤ S`. Rounding is monotone, so `scan ≤ s + B` gives
/// `scan/n ≤ (s + B)/n` after both divisions round, and likewise below.
fn settle_below(lower: Sum, upper: Sum, cap: f64, n: usize, avg: f64) -> Option<bool> {
    let n_f = n as f64;
    if upper.at_cap == 0 {
        if upper.integral as f64 / n_f < avg {
            return Some(true);
        }
        return (lower.integral as f64 / n_f >= avg).then_some(false);
    }
    let with_margin = |sum: Sum| {
        let s = sum.at_cap as f64 * cap + sum.integral as f64;
        (s, s * (n + 2) as f64 * 2.0 * f64::EPSILON)
    };
    let (s, bound) = with_margin(upper);
    if (s + bound) / n_f < avg {
        return Some(true);
    }
    let (s, bound) = with_margin(lower);
    ((s - bound) / n_f >= avg).then_some(false)
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

    /// `settle_below` against the scan it stands in for: random
    /// non-increasing terms (`k` at a fractional cap, then integers), with
    /// `avg` at the scan's own mean, a few ulps to either side, and
    /// farther out. Every answer must be the scan's, from the exact count
    /// and from bounds loosened around it; at the scan's mean a
    /// fractional term forces the fallback, and far enough out the exact
    /// count always settles.
    #[test]
    fn settle_below_agrees_with_the_scan_or_defers() {
        use gopim_testkit::prop::{check_with, Config};
        check_with(
            "settle_below_agrees_with_the_scan_or_defers",
            Config::cases(256),
            |d| {
                let cap = d.draw("cap_int", 60u32..5000) as f64 + d.draw("cap_frac", 0.01f64..0.99);
                let k = d.draw("k", 0usize..50);
                let mut integers = d.vec("integers", 1usize..400, |d| {
                    d.draw("t", 1u32..=cap as u32) as f64
                });
                integers.sort_by(|a, b| b.total_cmp(a));
                let mut terms = vec![cap; k];
                terms.extend(&integers);
                let n = terms.len();
                let mean = terms.iter().sum::<f64>() / n as f64;
                let exact = Sum {
                    at_cap: k as u64,
                    integral: integers.iter().map(|&t| t as u64).sum(),
                };
                // Bounds as the probes give them: a lower one that counts
                // some cap terms as integers below the cap and trims the
                // integers, an upper one that adds to the integers.
                let demoted = d.draw("demoted", 0usize..=k);
                let lower = Sum {
                    at_cap: exact.at_cap - demoted as u64,
                    integral: (exact.integral + demoted as u64 * cap as u64)
                        .saturating_sub(d.draw("trim", 0u64..64)),
                };
                let upper = Sum {
                    integral: exact.integral + d.draw("pad", 0u64..64),
                    ..exact
                };
                let decide = |lower, upper, avg: f64| settle_below(lower, upper, cap, n, avg);
                let ulps_off = |ulps: i64| f64::from_bits((mean.to_bits() as i64 + ulps) as u64);
                let far = 16 * (n as i64 + 2);
                let offsets = (-8..=8)
                    .chain((4..=16).flat_map(|j| [-(1i64 << j), 1 << j]))
                    .chain([-far, far]);
                for ulps in offsets {
                    let avg = ulps_off(ulps);
                    match decide(exact, exact, avg) {
                        Some(below) => assert_eq!(below, mean < avg, "k={k} n={n} ulps={ulps}"),
                        None => assert!(k > 0 && ulps.abs() < far, "k={k} n={n} ulps={ulps}"),
                    }
                    if let Some(below) = decide(lower, upper, avg) {
                        assert_eq!(below, mean < avg, "bounds: k={k} n={n} ulps={ulps}");
                    }
                }
                if k > 0 {
                    assert_eq!(
                        decide(exact, exact, mean),
                        None,
                        "must defer at the scan's mean, n={n}"
                    );
                }
            },
        );
    }

    /// The probe bounds bracket the exact term sum and agree with a
    /// direct count of non-increasing weights at any scale.
    #[test]
    fn probe_bounds_bracket_the_exact_sum() {
        use gopim_testkit::prop::{check_with, Config};
        check_with(
            "probe_bounds_bracket_the_exact_sum",
            Config::cases(128),
            |d| {
                let n = d.draw("n", 2usize..5000);
                let exponent = d.draw("exponent", 0.3f64..1.2);
                let cap = d
                    .draw("cap", 1.0f64..(n - 1) as f64 + 0.5)
                    .min((n - 1) as f64);
                let (weights, non_increasing) = weight_table(n, exponent);
                assert!(non_increasing);
                let c = d.draw("c", 0.0f64..4.0) * cap * (n as f64).powf(exponent);
                let mut exact = Sum::default();
                for &w in &weights {
                    exact.add(term(c, w, cap), 1);
                }
                let (lower, upper) = Probes::new(&weights).bounds(c, cap);
                let value = |s: Sum| s.at_cap as f64 * cap + s.integral as f64;
                assert!(value(lower) <= value(exact) && value(exact) <= value(upper));
                assert!(lower.at_cap <= exact.at_cap && exact.at_cap <= upper.at_cap);
                assert_eq!(upper.at_cap == 0, exact.at_cap == 0);
            },
        );
    }

    /// Each exact count inside a bracket, started from the probe terms,
    /// equals a direct count, however the bracket narrowed before it.
    #[test]
    fn bracketed_counts_equal_direct_counts() {
        use gopim_testkit::prop::{check_with, Config};
        check_with(
            "bracketed_counts_equal_direct_counts",
            Config::cases(128),
            |d| {
                let n = d.draw("n", 2usize..3000);
                let exponent = d.draw("exponent", 0.3f64..1.2);
                let cap = d
                    .draw("cap", 1.0f64..(n - 1) as f64 + 0.5)
                    .min((n - 1) as f64);
                let (weights, _) = weight_table(n, exponent);
                let (mut lo, mut hi) = (0.0, 4.0 * cap * (n as f64).powf(exponent));
                let mut bracket = Probes::new(&weights).bracket(lo, hi, cap);
                for _ in 0..d.draw("steps", 1usize..40) {
                    let c = lo + (hi - lo) * d.draw("at", 0.01f64..0.99);
                    if c <= lo || c >= hi {
                        break;
                    }
                    let mut direct = Sum::default();
                    for &w in &weights {
                        direct.add(term(c, w, cap), 1);
                    }
                    assert_eq!(bracket.count(&weights, c, cap), direct, "n={n} c={c}");
                    let below = d.draw("below", 0u8..2) == 1;
                    bracket.narrow(below);
                    if below {
                        lo = c;
                    } else {
                        hi = c;
                    }
                }
            },
        );
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
}
