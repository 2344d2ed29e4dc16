//! Runtime-dispatched SIMD micro-kernels for the dense hot loops.
//!
//! The workspace determinism contract requires every kernel to produce
//! the *same bits* at any thread count, queue implementation, or SIMD
//! width, so only element-wise-independent loops are vectorized here:
//! each output element still accumulates its own terms in the same
//! order with the same rounding as the scalar code. Concretely, the
//! one primitive is the AXPY row update `dst[j] ← dst[j] + c·src[j]`
//! (and its four-row register-blocked variant), where lane `j` of a
//! vector is exactly scalar element `j` — reordering never happens
//! across the reduction dimension.
//!
//! Rounding parity with the scalar [`mac`](crate::kernels) helper is
//! kept by mirroring its compile-time FMA policy: on
//! `target_feature = "fma"` builds both sides fuse (one rounding), on
//! every other build both sides do a separate multiply and add. The
//! dot-product kernel (`dot_block`) is deliberately *not* vectorized:
//! its single running accumulator per output would need the reduction
//! order changed, which changes the bits.
//!
//! Dispatch policy (see DESIGN.md §11):
//!
//! - `x86_64`: AVX2 when the CPU reports it (`is_x86_feature_detected!`),
//!   checked once and cached.
//! - `aarch64`: NEON (always present on AArch64).
//! - anywhere else, or when the `GOPIM_NO_SIMD=1` kill-switch is set:
//!   the scalar fallback, which is the reference implementation the
//!   differential tests (`tests/kernel_equivalence.rs`) compare
//!   against.

use gopim_obs::EnvFlag;

static SIMD: EnvFlag = EnvFlag::new(|| !gopim_obs::env::get().no_simd && cpu_supported());

/// Whether this CPU has the vector unit the kernels need (checked
/// once, when the gate seeds).
fn cpu_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is a baseline AArch64 feature.
        true
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

/// Whether the SIMD paths are active (CPU support present and
/// `GOPIM_NO_SIMD` not set). The decision is made once and cached;
/// [`set_simd_enabled`] overrides it.
#[inline]
pub fn simd_enabled() -> bool {
    SIMD.get()
}

/// Forces the dispatch decision — the hook the differential tests use
/// to run the same process with and without SIMD. Enabling on a CPU
/// without the required features silently stays scalar.
pub fn set_simd_enabled(enabled: bool) {
    SIMD.set(enabled && cpu_supported());
}

/// Scalar multiply-accumulate matching `kernels::mac`: fused on FMA
/// builds, separate multiply + add elsewhere.
#[inline(always)]
fn mac(acc: f64, a: f64, b: f64) -> f64 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        acc + a * b
    }
}

/// Reference AXPY: `dst[j] ← dst[j] + c·src[j]` element-wise.
#[inline]
pub fn axpy_scalar(dst: &mut [f64], src: &[f64], c: f64) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = mac(*d, c, s);
    }
}

/// AXPY over one row: `dst[j] ← dst[j] + c·src[j]`, SIMD when active.
///
/// Bit-identical to [`axpy_scalar`] on every dispatch path. Operates
/// on the overlapping prefix if the slices have different lengths
/// (like the scalar `zip`).
#[inline]
pub fn axpy(dst: &mut [f64], src: &[f64], c: f64) {
    #[cfg(target_arch = "x86_64")]
    {
        if simd_enabled() {
            // SAFETY: simd_enabled() verified AVX2 support at runtime.
            unsafe { axpy_avx2(dst, src, c) };
            return;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if simd_enabled() {
            // SAFETY: NEON is a baseline AArch64 feature.
            unsafe { axpy_neon(dst, src, c) };
            return;
        }
    }
    axpy_scalar(dst, src, c);
}

/// Four-row AXPY against one shared `src` row — the inner update of
/// the register-blocked wide matmul kernel. Each output row gets its
/// own coefficient; all four stream the same `src`, so the RHS is
/// read once per four rows.
///
/// Bit-identical to four [`axpy_scalar`] calls on every dispatch path.
///
/// # Panics
///
/// Panics if the four destination rows have different lengths.
#[inline]
pub fn axpy4(dst: [&mut [f64]; 4], src: &[f64], coeffs: [f64; 4]) {
    let [d0, d1, d2, d3] = dst;
    assert!(
        d0.len() == d1.len() && d1.len() == d2.len() && d2.len() == d3.len(),
        "axpy4: destination rows must have equal lengths"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if simd_enabled() {
            // SAFETY: simd_enabled() verified AVX2 support at runtime.
            unsafe { axpy4_avx2(d0, d1, d2, d3, src, coeffs) };
            return;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if simd_enabled() {
            // SAFETY: NEON is a baseline AArch64 feature.
            unsafe { axpy4_neon(d0, d1, d2, d3, src, coeffs) };
            return;
        }
    }
    axpy_scalar(d0, src, coeffs[0]);
    axpy_scalar(d1, src, coeffs[1]);
    axpy_scalar(d2, src, coeffs[2]);
    axpy_scalar(d3, src, coeffs[3]);
}

/// Per-neighbor coefficient rule for [`gather_row`].
#[derive(Debug, Clone, Copy)]
pub enum NeighborCoeffs<'a> {
    /// `coeff(u) = scale * table[u]` — the normalized-adjacency rule.
    Scaled {
        /// The output vertex's own factor (its `1/√(1+deg)`).
        scale: f64,
        /// Per-vertex factors indexed by neighbor id (`1/√(1+deg)`).
        table: &'a [f64],
    },
    /// `coeff(u) = c` for every neighbor — the mean-aggregation rule.
    Uniform(f64),
}

impl NeighborCoeffs<'_> {
    /// The coefficient for neighbor `u`. One `f64` multiply in the
    /// scaled case, so SIMD and scalar paths round identically.
    #[inline(always)]
    fn coeff(&self, u: u32) -> f64 {
        match *self {
            NeighborCoeffs::Scaled { scale, table } => scale * table[u as usize],
            NeighborCoeffs::Uniform(c) => c,
        }
    }
}

/// Neighbors per inner chunk of the SIMD gather: bounds the source
/// working set re-walked per lane block to chunk·d doubles so it stays
/// cache-resident even for hub vertices with huge degrees.
const GATHER_CHUNK: usize = 32;

/// Minimum degree for the SIMD gather path. The lane-blocked kernel
/// pays per-row call and setup costs that only amortize once the
/// register-resident accumulator is reused across several neighbors;
/// below this, the scalar row updates are as fast or faster. The
/// threshold never affects output bits — both paths are bit-identical.
const GATHER_SIMD_MIN_DEG: usize = 8;

/// Largest source matrix (bytes) the SIMD gather path accepts. The
/// lane-blocked sweep reads neighbor rows in a strided order the
/// hardware prefetcher cannot follow, so once `x` falls out of L2 every
/// line becomes a demand miss and the scalar row-streaming order (which
/// the prefetcher tracks) wins. Half a typical 2 MB L2 leaves room for
/// the output rows. Like the degree floor, this is a pure perf knob —
/// output bits are identical on both sides of it.
const GATHER_SIMD_MAX_BYTES: usize = 1 << 20;

/// Reference row gather: into `dst` (row `v`'s output, length `d`),
/// accumulate `self_coeff · x[v]` then `coeff(u) · x[u]` for each
/// neighbor in order. `x` is a row-major `n × d` matrix.
pub fn gather_row_scalar(
    dst: &mut [f64],
    x: &[f64],
    d: usize,
    v: usize,
    self_coeff: f64,
    neighbors: &[u32],
    coeffs: NeighborCoeffs,
) {
    axpy_scalar(dst, &x[v * d..v * d + d], self_coeff);
    for &u in neighbors {
        axpy_scalar(dst, &x[u as usize * d..u as usize * d + d], coeffs.coeff(u));
    }
}

/// [`gather_row_scalar`] with the whole neighbor loop inside one SIMD
/// kernel: each lane block keeps its accumulator in a register across
/// a chunk of neighbors, so the output row is loaded and stored once
/// per chunk instead of once per edge, and the per-edge dispatch
/// branch disappears.
///
/// Bit-identical to [`gather_row_scalar`] on every dispatch path: for
/// each output element the accumulation order is still self-loop
/// first, then neighbors in CSR order, with [`mac`]'s rounding.
///
/// # Panics
///
/// Panics (in debug builds) if `dst.len() != d` or an index is out of
/// bounds of `x`.
pub fn gather_row(
    dst: &mut [f64],
    x: &[f64],
    d: usize,
    v: usize,
    self_coeff: f64,
    neighbors: &[u32],
    coeffs: NeighborCoeffs,
) {
    debug_assert_eq!(dst.len(), d, "one output row of width d");
    if neighbors.len() < GATHER_SIMD_MIN_DEG || x.len() * 8 > GATHER_SIMD_MAX_BYTES {
        gather_row_scalar(dst, x, d, v, self_coeff, neighbors, coeffs);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if simd_enabled() {
            // SAFETY: simd_enabled() verified AVX2 support at runtime,
            // and every row index stays in bounds of `x` (checked
            // slices in the scalar tail, debug asserts in the body).
            unsafe { gather_row_avx2(dst, x, d, v, self_coeff, neighbors, coeffs) };
            return;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if simd_enabled() {
            // SAFETY: NEON is a baseline AArch64 feature.
            unsafe { gather_row_neon(dst, x, d, v, self_coeff, neighbors, coeffs) };
            return;
        }
    }
    gather_row_scalar(dst, x, d, v, self_coeff, neighbors, coeffs);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Vector multiply-accumulate with the same rounding policy as the
    /// scalar `mac`: `vfmadd` on FMA builds, `mul` + `add` elsewhere.
    #[inline(always)]
    unsafe fn vmac(acc: __m256d, a: __m256d, b: __m256d) -> __m256d {
        #[cfg(target_feature = "fma")]
        {
            _mm256_fmadd_pd(a, b, acc)
        }
        #[cfg(not(target_feature = "fma"))]
        {
            _mm256_add_pd(acc, _mm256_mul_pd(a, b))
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_avx2(dst: &mut [f64], src: &[f64], c: f64) {
        let n = dst.len().min(src.len());
        let lanes = n - n % 4;
        let cv = _mm256_set1_pd(c);
        let mut j = 0;
        while j < lanes {
            let d = _mm256_loadu_pd(dst.as_ptr().add(j));
            let s = _mm256_loadu_pd(src.as_ptr().add(j));
            _mm256_storeu_pd(dst.as_mut_ptr().add(j), vmac(d, cv, s));
            j += 4;
        }
        // Non-multiple-of-lane-width tail: scalar, same rounding.
        super::axpy_scalar(&mut dst[lanes..n], &src[lanes..n], c);
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)] // four row streams + shared RHS
    pub(super) unsafe fn axpy4_avx2(
        d0: &mut [f64],
        d1: &mut [f64],
        d2: &mut [f64],
        d3: &mut [f64],
        src: &[f64],
        c: [f64; 4],
    ) {
        let n = d0.len().min(src.len());
        let lanes = n - n % 4;
        let c0 = _mm256_set1_pd(c[0]);
        let c1 = _mm256_set1_pd(c[1]);
        let c2 = _mm256_set1_pd(c[2]);
        let c3 = _mm256_set1_pd(c[3]);
        let mut j = 0;
        while j < lanes {
            let s = _mm256_loadu_pd(src.as_ptr().add(j));
            let t0 = _mm256_loadu_pd(d0.as_ptr().add(j));
            _mm256_storeu_pd(d0.as_mut_ptr().add(j), vmac(t0, c0, s));
            let t1 = _mm256_loadu_pd(d1.as_ptr().add(j));
            _mm256_storeu_pd(d1.as_mut_ptr().add(j), vmac(t1, c1, s));
            let t2 = _mm256_loadu_pd(d2.as_ptr().add(j));
            _mm256_storeu_pd(d2.as_mut_ptr().add(j), vmac(t2, c2, s));
            let t3 = _mm256_loadu_pd(d3.as_ptr().add(j));
            _mm256_storeu_pd(d3.as_mut_ptr().add(j), vmac(t3, c3, s));
            j += 4;
        }
        super::axpy_scalar(&mut d0[lanes..n], &src[lanes..n], c[0]);
        super::axpy_scalar(&mut d1[lanes..n], &src[lanes..n], c[1]);
        super::axpy_scalar(&mut d2[lanes..n], &src[lanes..n], c[2]);
        super::axpy_scalar(&mut d3[lanes..n], &src[lanes..n], c[3]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gather_row_avx2(
        dst: &mut [f64],
        x: &[f64],
        d: usize,
        v: usize,
        self_coeff: f64,
        neighbors: &[u32],
        coeffs: super::NeighborCoeffs,
    ) {
        if neighbors.is_empty() {
            axpy_avx2(dst, &x[v * d..v * d + d], self_coeff);
            return;
        }
        let lanes = d - d % 4;
        let xv = x.as_ptr().add(v * d);
        let sc = _mm256_set1_pd(self_coeff);
        let mut cbuf = [0.0f64; super::GATHER_CHUNK];
        // The self-loop is fused into the first chunk's pass so the
        // output row is loaded and stored once per chunk, never in a
        // separate self-only sweep. Per element the accumulation order
        // is still self first, then neighbors in CSR order.
        let mut first = true;
        for chunk in neighbors.chunks(super::GATHER_CHUNK) {
            // Coefficients once per chunk (same single multiply as the
            // scalar path), not once per lane block.
            for (k, &u) in chunk.iter().enumerate() {
                cbuf[k] = coeffs.coeff(u);
            }
            let mut j = 0;
            while j < lanes {
                let mut acc = _mm256_loadu_pd(dst.as_ptr().add(j));
                if first {
                    acc = vmac(acc, sc, _mm256_loadu_pd(xv.add(j)));
                }
                for (k, &u) in chunk.iter().enumerate() {
                    let s = _mm256_loadu_pd(x.as_ptr().add(u as usize * d + j));
                    acc = vmac(acc, _mm256_set1_pd(cbuf[k]), s);
                }
                _mm256_storeu_pd(dst.as_mut_ptr().add(j), acc);
                j += 4;
            }
            for jj in lanes..d {
                let mut t = dst[jj];
                if first {
                    t = super::mac(t, self_coeff, *xv.add(jj));
                }
                for (k, &u) in chunk.iter().enumerate() {
                    t = super::mac(t, cbuf[k], x[u as usize * d + jj]);
                }
                dst[jj] = t;
            }
            first = false;
        }
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{axpy4_avx2, axpy_avx2, gather_row_avx2};

#[cfg(target_arch = "aarch64")]
mod arm {
    use std::arch::aarch64::*;

    /// Vector multiply-accumulate mirroring the scalar `mac` rounding
    /// policy. `cfg(target_feature = "fma")` is never set on AArch64
    /// builds today, so this matches the unfused scalar branch there;
    /// the fused arm exists only to stay in lockstep with `mac` should
    /// that ever change.
    #[inline(always)]
    unsafe fn vmac(acc: float64x2_t, a: float64x2_t, b: float64x2_t) -> float64x2_t {
        #[cfg(target_feature = "fma")]
        {
            vfmaq_f64(acc, a, b)
        }
        #[cfg(not(target_feature = "fma"))]
        {
            vaddq_f64(acc, vmulq_f64(a, b))
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn axpy_neon(dst: &mut [f64], src: &[f64], c: f64) {
        let n = dst.len().min(src.len());
        let lanes = n - n % 2;
        let cv = vdupq_n_f64(c);
        let mut j = 0;
        while j < lanes {
            let d = vld1q_f64(dst.as_ptr().add(j));
            let s = vld1q_f64(src.as_ptr().add(j));
            vst1q_f64(dst.as_mut_ptr().add(j), vmac(d, cv, s));
            j += 2;
        }
        super::axpy_scalar(&mut dst[lanes..n], &src[lanes..n], c);
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn axpy4_neon(
        d0: &mut [f64],
        d1: &mut [f64],
        d2: &mut [f64],
        d3: &mut [f64],
        src: &[f64],
        c: [f64; 4],
    ) {
        let n = d0.len().min(src.len());
        let lanes = n - n % 2;
        let c0 = vdupq_n_f64(c[0]);
        let c1 = vdupq_n_f64(c[1]);
        let c2 = vdupq_n_f64(c[2]);
        let c3 = vdupq_n_f64(c[3]);
        let mut j = 0;
        while j < lanes {
            let s = vld1q_f64(src.as_ptr().add(j));
            let t0 = vld1q_f64(d0.as_ptr().add(j));
            vst1q_f64(d0.as_mut_ptr().add(j), vmac(t0, c0, s));
            let t1 = vld1q_f64(d1.as_ptr().add(j));
            vst1q_f64(d1.as_mut_ptr().add(j), vmac(t1, c1, s));
            let t2 = vld1q_f64(d2.as_ptr().add(j));
            vst1q_f64(d2.as_mut_ptr().add(j), vmac(t2, c2, s));
            let t3 = vld1q_f64(d3.as_ptr().add(j));
            vst1q_f64(d3.as_mut_ptr().add(j), vmac(t3, c3, s));
            j += 2;
        }
        super::axpy_scalar(&mut d0[lanes..n], &src[lanes..n], c[0]);
        super::axpy_scalar(&mut d1[lanes..n], &src[lanes..n], c[1]);
        super::axpy_scalar(&mut d2[lanes..n], &src[lanes..n], c[2]);
        super::axpy_scalar(&mut d3[lanes..n], &src[lanes..n], c[3]);
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn gather_row_neon(
        dst: &mut [f64],
        x: &[f64],
        d: usize,
        v: usize,
        self_coeff: f64,
        neighbors: &[u32],
        coeffs: super::NeighborCoeffs,
    ) {
        if neighbors.is_empty() {
            axpy_neon(dst, &x[v * d..v * d + d], self_coeff);
            return;
        }
        let lanes = d - d % 2;
        let xv = x.as_ptr().add(v * d);
        let sc = vdupq_n_f64(self_coeff);
        let mut cbuf = [0.0f64; super::GATHER_CHUNK];
        // Self-loop fused into the first chunk's pass (see the AVX2
        // variant): per element the order is still self first, then
        // neighbors in CSR order.
        let mut first = true;
        for chunk in neighbors.chunks(super::GATHER_CHUNK) {
            for (k, &u) in chunk.iter().enumerate() {
                cbuf[k] = coeffs.coeff(u);
            }
            let mut j = 0;
            while j < lanes {
                let mut acc = vld1q_f64(dst.as_ptr().add(j));
                if first {
                    acc = vmac(acc, sc, vld1q_f64(xv.add(j)));
                }
                for (k, &u) in chunk.iter().enumerate() {
                    let s = vld1q_f64(x.as_ptr().add(u as usize * d + j));
                    acc = vmac(acc, vdupq_n_f64(cbuf[k]), s);
                }
                vst1q_f64(dst.as_mut_ptr().add(j), acc);
                j += 2;
            }
            for jj in lanes..d {
                let mut t = dst[jj];
                if first {
                    t = super::mac(t, self_coeff, *xv.add(jj));
                }
                for (k, &u) in chunk.iter().enumerate() {
                    t = super::mac(t, cbuf[k], x[u as usize * d + jj]);
                }
                dst[jj] = t;
            }
            first = false;
        }
    }
}

#[cfg(target_arch = "aarch64")]
use arm::{axpy4_neon, axpy_neon, gather_row_neon};

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize, phase: f64) -> Vec<f64> {
        (0..n).map(|i| ((i as f64) * phase).sin()).collect()
    }

    #[test]
    fn axpy_matches_scalar_bitwise_across_lengths_and_alignments() {
        // Lengths straddling the 4-lane width, and offsets that shift
        // the slice off 32-byte alignment.
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 100] {
            for off in 0..4usize {
                let src = filled(n + off, 0.7);
                let base = filled(n + off, 0.3);
                let mut simd_dst = base.clone();
                let mut scalar_dst = base.clone();
                axpy(&mut simd_dst[off..], &src[off..], 1.7);
                axpy_scalar(&mut scalar_dst[off..], &src[off..], 1.7);
                assert!(
                    simd_dst
                        .iter()
                        .zip(&scalar_dst)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "axpy diverged at n={n} off={off}"
                );
            }
        }
    }

    #[test]
    fn axpy4_matches_four_scalar_rows_bitwise() {
        for n in [0usize, 1, 3, 4, 6, 8, 13, 64, 101] {
            let src = filled(n, 0.9);
            let coeffs = [1.25, -0.5, 3.0, 0.0];
            let mut rows_simd: Vec<Vec<f64>> = (0..4).map(|r| filled(n, 0.2 + r as f64)).collect();
            let mut rows_scalar = rows_simd.clone();
            {
                let (a, rest) = rows_simd.split_at_mut(1);
                let (b, rest) = rest.split_at_mut(1);
                let (c, d) = rest.split_at_mut(1);
                axpy4(
                    [&mut a[0][..], &mut b[0][..], &mut c[0][..], &mut d[0][..]],
                    &src,
                    coeffs,
                );
            }
            for (row, &c) in rows_scalar.iter_mut().zip(&coeffs) {
                axpy_scalar(row, &src, c);
            }
            for r in 0..4 {
                assert!(
                    rows_simd[r]
                        .iter()
                        .zip(&rows_scalar[r])
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "axpy4 row {r} diverged at n={n}"
                );
            }
        }
    }

    #[test]
    fn gather_row_matches_scalar_bitwise_across_degrees_and_widths() {
        // Degrees straddling the GATHER_CHUNK boundary and widths
        // straddling the lane width (including a lane-free d=1).
        let n = 128usize;
        let table = filled(n, 0.13);
        for d in [1usize, 2, 3, 4, 5, 7, 8, 32, 33] {
            let x = filled(n * d, 0.7);
            for deg in [0usize, 1, 2, 31, 32, 33, 64, 100] {
                let neighbors: Vec<u32> = (0..deg).map(|i| ((i * 7 + 3) % n) as u32).collect();
                let v = 5usize;
                for coeffs in [
                    NeighborCoeffs::Uniform(0.37),
                    NeighborCoeffs::Scaled {
                        scale: 1.2,
                        table: &table,
                    },
                ] {
                    let base = filled(d, 0.4);
                    let mut fast = base.clone();
                    let mut reference = base.clone();
                    gather_row(&mut fast, &x, d, v, 0.81, &neighbors, coeffs);
                    gather_row_scalar(&mut reference, &x, d, v, 0.81, &neighbors, coeffs);
                    assert!(
                        fast.iter()
                            .zip(&reference)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "gather_row diverged at d={d} deg={deg}"
                    );
                }
            }
        }
    }

    #[test]
    fn kill_switch_round_trips() {
        let was = simd_enabled();
        set_simd_enabled(false);
        assert!(!simd_enabled());
        set_simd_enabled(true);
        // Re-enabling only sticks when the CPU supports a SIMD path.
        let _ = simd_enabled();
        set_simd_enabled(was);
    }
}
