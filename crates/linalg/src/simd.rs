//! Runtime ISA dispatch and the register-tile CSR gather.
//!
//! The workspace determinism contract requires every kernel to produce
//! the *same bits* at any thread count, tile shape or vector width.
//! Each kernel here therefore keeps one accumulator per output element,
//! with the same start value, the same term order and the same `mac`
//! rounding as its scalar reference; vector lanes only ever run
//! *different* outputs side by side. That makes vectorizing exact, so
//! the kernels are written in plain Rust and the compiler does it.
//!
//! Dispatch policy (see DESIGN.md §11): every kernel is compiled twice,
//! once inside a `#[target_feature(enable = "avx2")]` wrapper and once
//! for the baseline ISA. The AVX2 build runs on `x86_64` CPUs that
//! report AVX2 (checked once and cached) unless `GOPIM_NO_SIMD=1` is
//! set; everywhere else the baseline build runs (on `aarch64` that
//! build already uses NEON). Rust never contracts `acc + a * b` into an
//! FMA on its own, so both builds give the same bits, and
//! [`set_simd_enabled`] lets the differential tests
//! (`tests/kernel_equivalence.rs`) run both in one process.
//!
//! [`gather_row`] is the CSR aggregation kernel: for one output row it
//! holds a tile of up to `GATHER_TILE` (16) columns in registers across
//! the vertex's neighbor list (the self-loop first), then stores the
//! tile once. The 1–15-column remainder is one more tile of exactly
//! that width, so narrow rows such as the link datasets' `d = 2` logits
//! also run on register accumulators. [`gather_row_scalar`] is the
//! reference it is pinned against.

use gopim_obs::EnvFlag;

static SIMD: EnvFlag = EnvFlag::new(|| !gopim_obs::env::get().no_simd && cpu_supported());

/// Whether this CPU runs the AVX2 build of the kernels (checked once,
/// when the gate seeds).
fn cpu_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the AVX2 build of the kernels is active (CPU support
/// present and `GOPIM_NO_SIMD` not set). The decision is made once and
/// cached; [`set_simd_enabled`] overrides it.
#[inline]
pub fn simd_enabled() -> bool {
    SIMD.get()
}

/// Forces the dispatch decision — the hook the differential tests use
/// to run the same process with and without SIMD. Enabling on a CPU
/// without AVX2 silently stays on the baseline build.
pub fn set_simd_enabled(enabled: bool) {
    SIMD.set(enabled && cpu_supported());
}

/// Defines `fn $name` to run the `#[inline(always)]` kernel `$kernel`
/// from its AVX2 build when [`simd_enabled`], else from its
/// baseline-ISA build.
macro_rules! isa_dispatch {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) => $kernel:ident) => {
        $(#[$meta])*
        $vis fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                fn avx2($($arg: $ty),*) {
                    $kernel($($arg),*)
                }
                if $crate::simd::simd_enabled() {
                    // SAFETY: `simd_enabled()` holds only on CPUs that
                    // report AVX2 (`cpu_supported`).
                    return unsafe { avx2($($arg),*) };
                }
            }
            $kernel($($arg),*)
        }
    };
}
pub(crate) use isa_dispatch;

/// Multiply-accumulate `acc + a·b`: fused on builds with the `fma`
/// target feature (one rounding), a separate multiply and add
/// elsewhere. Every kernel and every reference uses this one helper,
/// so all of them round alike on any build.
#[inline(always)]
pub(crate) fn mac(acc: f64, a: f64, b: f64) -> f64 {
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
#[inline(always)]
pub fn axpy_scalar(dst: &mut [f64], src: &[f64], c: f64) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = mac(*d, c, s);
    }
}

isa_dispatch! {
    /// AXPY over one row: `dst[j] ← dst[j] + c·src[j]`, from the AVX2
    /// build when active.
    ///
    /// Bit-identical to [`axpy_scalar`] on every dispatch path. Operates
    /// on the overlapping prefix if the slices have different lengths
    /// (like the scalar `zip`).
    pub fn axpy(dst: &mut [f64], src: &[f64], c: f64) => axpy_scalar
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
    /// The coefficient for neighbor `u`: one `f64` multiply in the
    /// scaled case, the same in the kernel and the reference.
    #[inline(always)]
    fn coeff(&self, u: u32) -> f64 {
        match *self {
            NeighborCoeffs::Scaled { scale, table } => scale * table[u as usize],
            NeighborCoeffs::Uniform(c) => c,
        }
    }
}

/// Output columns per gather tile (four AVX2 vectors).
const GATHER_TILE: usize = 16;

/// Source rows (the self-loop plus neighbors) per pass of the gather's
/// column tiles: bounds the rows re-read by a row's later tiles to
/// `GATHER_CHUNK·d` doubles, so they stay in L1 even for hub vertices
/// with huge degrees.
const GATHER_CHUNK: usize = 32;

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

isa_dispatch! {
    /// [`gather_row_scalar`] as a register-tile kernel: each tile of up
    /// to 16 output columns is loaded once, accumulates the self-loop
    /// and then every neighbor in registers, and is stored once per 32
    /// source rows.
    ///
    /// Bit-identical to [`gather_row_scalar`] on every dispatch path:
    /// each output element keeps one accumulator, which starts at
    /// `dst[j]` and adds the self-loop, then the neighbors in CSR order,
    /// with the same rounding.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != d` or a source row is out of bounds of `x`.
    pub fn gather_row(
        dst: &mut [f64],
        x: &[f64],
        d: usize,
        v: usize,
        self_coeff: f64,
        neighbors: &[u32],
        coeffs: NeighborCoeffs,
    ) => gather_tiles
}

#[inline(always)]
fn gather_tiles(
    dst: &mut [f64],
    x: &[f64],
    d: usize,
    v: usize,
    self_coeff: f64,
    neighbors: &[u32],
    coeffs: NeighborCoeffs,
) {
    assert_eq!(dst.len(), d, "one output row of width d");
    if d == 0 {
        return;
    }
    let rows = x.len() / d;
    // (row offset into `x`, coefficient) per source row. Every offset
    // is range-checked here, once, so the tiles can load unchecked.
    let mut terms = [(0usize, 0.0f64); GATHER_CHUNK];
    assert!(v < rows, "gather_row: row {v} out of bounds");
    terms[0] = (v * d, self_coeff);
    let mut len = 1;
    let mut rest = neighbors;
    loop {
        let take = (GATHER_CHUNK - len).min(rest.len());
        for (term, &u) in terms[len..len + take].iter_mut().zip(rest) {
            assert!(
                (u as usize) < rows,
                "gather_row: neighbor {u} out of bounds"
            );
            *term = (u as usize * d, coeffs.coeff(u));
        }
        rest = &rest[take..];
        // SAFETY: every offset in `terms` is `u·d` for a row `u < rows`
        // (asserted as it was stored), so `off + d <= x.len()`.
        unsafe { gather_chunk(dst, x, d, &terms[..len + take]) };
        if rest.is_empty() {
            return;
        }
        len = 0;
    }
}

/// Accumulates one chunk of `terms` into every column tile of `dst`.
///
/// # Safety
///
/// Every `(off, _)` in `terms` must satisfy `off + d <= x.len()`.
#[inline(always)]
unsafe fn gather_chunk(dst: &mut [f64], x: &[f64], d: usize, terms: &[(usize, f64)]) {
    let mut j = 0;
    // SAFETY (every tile below): this function's contract.
    unsafe {
        while j + GATHER_TILE <= d {
            gather_tile::<GATHER_TILE>(dst, x, d, terms, j);
            j += GATHER_TILE;
        }
        // The 0–15-column remainder, as one tile of exactly that width.
        match d - j {
            0 => {}
            1 => gather_tile::<1>(dst, x, d, terms, j),
            2 => gather_tile::<2>(dst, x, d, terms, j),
            3 => gather_tile::<3>(dst, x, d, terms, j),
            4 => gather_tile::<4>(dst, x, d, terms, j),
            5 => gather_tile::<5>(dst, x, d, terms, j),
            6 => gather_tile::<6>(dst, x, d, terms, j),
            7 => gather_tile::<7>(dst, x, d, terms, j),
            8 => gather_tile::<8>(dst, x, d, terms, j),
            9 => gather_tile::<9>(dst, x, d, terms, j),
            10 => gather_tile::<10>(dst, x, d, terms, j),
            11 => gather_tile::<11>(dst, x, d, terms, j),
            12 => gather_tile::<12>(dst, x, d, terms, j),
            13 => gather_tile::<13>(dst, x, d, terms, j),
            14 => gather_tile::<14>(dst, x, d, terms, j),
            _ => gather_tile::<15>(dst, x, d, terms, j),
        }
    }
}

/// Output columns `j..j + W` of one row, accumulated in registers over
/// `terms`.
///
/// # Safety
///
/// As for [`gather_chunk`].
#[inline(always)]
unsafe fn gather_tile<const W: usize>(
    dst: &mut [f64],
    x: &[f64],
    d: usize,
    terms: &[(usize, f64)],
    j: usize,
) {
    let out = &mut dst[j..j + W];
    let mut acc: [f64; W] = std::array::from_fn(|w| out[w]);
    // One range check for the whole term loop: with `j + W <= d` and
    // the caller's `off + d <= x.len()`, each row segment
    // `off + j..off + j + W` lies in `x`.
    assert!(j + W <= d);
    for &(off, c) in terms {
        // SAFETY: `off + j + W <= off + d <= x.len()` (see above);
        // `[f64; W]` has `f64`'s alignment.
        let src = unsafe { &*x.as_ptr().add(off + j).cast::<[f64; W]>() };
        for w in 0..W {
            acc[w] = mac(acc[w], c, src[w]);
        }
    }
    out.copy_from_slice(&acc);
}

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
    fn gather_row_matches_scalar_bitwise_across_degrees_and_widths() {
        // Every remainder width below the 16-column tile, widths on
        // both sides of one and two whole tiles, and degrees on both
        // sides of 8 and of the 32-row chunk (the self-loop shares the
        // first chunk, so 31 neighbors fill it exactly).
        let n = 128usize;
        let table = filled(n, 0.13);
        let widths = (1usize..=17).chain([31, 32, 33, 48, 64]);
        for d in widths {
            let x = filled(n * d, 0.7);
            for deg in [0usize, 1, 2, 7, 8, 9, 30, 31, 32, 33, 63, 64, 100] {
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
    #[should_panic(expected = "out of bounds")]
    fn gather_row_rejects_an_out_of_range_neighbor() {
        let x = filled(4 * 3, 0.5);
        let mut dst = vec![0.0; 3];
        gather_row(
            &mut dst,
            &x,
            3,
            0,
            1.0,
            &[1, 4],
            NeighborCoeffs::Uniform(0.5),
        );
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
