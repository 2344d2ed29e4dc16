//! The matmul kernel behind [`crate::Matrix::matmul`] and
//! [`crate::Matrix::matmul_into`].
//!
//! [`matmul_block`] computes a block of output rows as a grid of
//! register tiles. A tile of `R × C` outputs keeps one accumulator per
//! output element in registers for the whole `k` reduction and stores
//! the tile once at the end. Every accumulator starts at `0.0` and adds
//! `a[i][k]·b[k][j]` for ascending `k` with `mac`'s rounding, so the
//! bits depend only on the operands — not on the tile shape, on how the
//! caller blocks rows, or on how many pool threads run the blocks
//! (`tests/determinism.rs` pins that).
//!
//! The speed comes from the tile's `R·C` independent accumulators:
//! a single running sum waits on the latency of every add, while a
//! 4 × 8 tile keeps eight AVX2 vectors of independent sums in flight.
//! Vectorizing across outputs never splits or reorders any one output's
//! reduction, which is why the narrow products (the MLP's 256→1 head,
//! the GCN's logit layers) get the same kernel as the wide ones.
//!
//! Tiles are `MR` rows × `NR` columns, with column tails of 4, 2
//! and 1 and a one-row tail, so one kernel serves every shape. The
//! kernel is plain Rust, compiled once with AVX2 enabled and once for
//! the baseline ISA (see [`crate::simd`]); Rust never contracts
//! `acc + a * b` into an FMA by itself, so both builds give the same
//! bits.

use crate::simd::mac;

/// Output rows per register tile.
pub(crate) const MR: usize = 4;

/// Output columns per register tile (two AVX2 vectors per row).
const NR: usize = 8;

crate::simd::isa_dispatch! {
    /// `out = a × b` for a block of rows: `a` is `rows × kd` row-major,
    /// `b` is `kd × n` row-major, `out` is `rows × n` (overwritten).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match those shapes.
    pub(crate) fn matmul_block(a: &[f64], b: &[f64], out: &mut [f64], kd: usize, n: usize)
        => matmul_tiles
}

#[inline(always)]
fn matmul_tiles(a: &[f64], b: &[f64], out: &mut [f64], kd: usize, n: usize) {
    if n == 0 {
        assert!(out.is_empty(), "matmul_block: output shape mismatch");
        return;
    }
    let rows = out.len() / n;
    assert!(
        out.len() == rows * n && a.len() == rows * kd && b.len() == kd * n,
        "matmul_block: operand shapes mismatch"
    );
    let mut i = 0;
    while i + MR <= rows {
        row_tiles::<MR>(a, b, out, kd, n, i);
        i += MR;
    }
    while i < rows {
        row_tiles::<1>(a, b, out, kd, n, i);
        i += 1;
    }
}

/// All tiles of output rows `i..i + R`, left to right.
#[inline(always)]
fn row_tiles<const R: usize>(a: &[f64], b: &[f64], out: &mut [f64], kd: usize, n: usize, i: usize) {
    let mut j = 0;
    while j + NR <= n {
        tile::<R, NR>(a, b, out, kd, n, i, j);
        j += NR;
    }
    if j + 4 <= n {
        tile::<R, 4>(a, b, out, kd, n, i, j);
        j += 4;
    }
    if j + 2 <= n {
        tile::<R, 2>(a, b, out, kd, n, i, j);
        j += 2;
    }
    if j < n {
        tile::<R, 1>(a, b, out, kd, n, i, j);
    }
}

/// Output rows `i..i + R`, columns `j..j + C`, accumulated in registers.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    kd: usize,
    n: usize,
    i: usize,
    j: usize,
) {
    let a_rows: [&[f64]; R] = std::array::from_fn(|r| &a[(i + r) * kd..(i + r + 1) * kd]);
    // One range check for the whole k loop: with `j + C <= n` and
    // `b.len() == kd * n` (asserted by `matmul_tiles`), every load
    // below stays inside `b`.
    assert!(j + C <= n && b.len() == kd * n);
    let mut acc = [[0.0f64; C]; R];
    for k in 0..kd {
        // SAFETY: k < kd and j + C <= n, so k·n + j + C <= kd·n = b.len()
        // (the assert above); `[f64; C]` has `f64`'s alignment.
        let bk = unsafe { &*b.as_ptr().add(k * n + j).cast::<[f64; C]>() };
        for r in 0..R {
            // SAFETY: each `a_rows[r]` was sliced to length kd above.
            let ark = unsafe { *a_rows[r].get_unchecked(k) };
            for c in 0..C {
                acc[r][c] = mac(acc[r][c], ark, bk[c]);
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[(i + r) * n + j..(i + r) * n + j + C].copy_from_slice(acc_row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(a: &[f64], b: &[f64], m: usize, kd: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..kd {
                    acc = mac(acc, a[i * kd + k], b[k * n + j]);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn kernels_agree_with_the_reference_bitwise() {
        // Odd sizes exercise the ragged MR tail and partial column tiles.
        for &(m, kd, n) in &[
            (1usize, 1usize, 1usize),
            (5, 3, 7),
            (9, 16, 4),
            (4, 300, 301),
        ] {
            check_against_reference(m, kd, n);
        }
    }

    #[test]
    fn edge_shapes_agree_with_the_reference_bitwise() {
        // Degenerate and tail-heavy shapes: empty operands, a single
        // element, widths around the 4-lane SIMD boundary (tails of
        // 1–3), and row counts around the MR=4 register block.
        for &(m, kd, n) in &[
            (0usize, 3usize, 4usize),
            (3, 0, 4),
            (3, 4, 0),
            (0, 0, 0),
            (1, 1, 1),
            (4, 1, 1),
            (1, 4, 9),
            (3, 5, 1),
            (5, 5, 2),
            (6, 7, 3),
            (7, 2, 5),
            (8, 3, 6),
            (4, 16, 258),
            (11, 9, 13),
        ] {
            check_against_reference(m, kd, n);
        }
    }

    #[test]
    fn every_tile_edge_agrees_with_the_reference_bitwise() {
        // Row counts on every residue of MR, widths on both sides of
        // every column tile (8, 4, 2, 1 and their sums), and reductions
        // that are empty, single-term and as long as a GCN layer's
        // `Xᵀ·δ` (1200 vertices).
        for m in 4..8usize {
            for n in [1usize, 2, 3, 7, 8, 9, 15, 16, 17, 48] {
                for kd in [0usize, 1, 1200] {
                    check_against_reference(m, kd, n);
                }
            }
        }
    }

    #[test]
    fn simd_and_scalar_paths_are_bit_identical() {
        // Toggle the runtime dispatch and pin the two builds against
        // each other on shapes with ragged rows and lane tails.
        let was = crate::simd::simd_enabled();
        for &(m, kd, n) in &[(7usize, 13usize, 11usize), (4, 31, 258), (2, 5, 9)] {
            let a: Vec<f64> = (0..m * kd).map(|i| ((i as f64) * 0.61).sin()).collect();
            let b: Vec<f64> = (0..kd * n).map(|i| ((i as f64) * 0.23).cos()).collect();
            let mut with_simd = vec![f64::NAN; m * n];
            crate::simd::set_simd_enabled(true);
            matmul_block(&a, &b, &mut with_simd, kd, n);
            let mut without = vec![f64::NAN; m * n];
            crate::simd::set_simd_enabled(false);
            matmul_block(&a, &b, &mut without, kd, n);
            assert!(
                with_simd
                    .iter()
                    .zip(&without)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "SIMD path diverged from scalar at {m}x{kd}x{n}"
            );
        }
        crate::simd::set_simd_enabled(was);
    }

    fn check_against_reference(m: usize, kd: usize, n: usize) {
        let a: Vec<f64> = (0..m * kd).map(|i| ((i as f64) * 0.7).sin()).collect();
        let b: Vec<f64> = (0..kd * n).map(|i| ((i as f64) * 0.3).cos()).collect();
        let expect = reference(&a, &b, m, kd, n);
        let mut out = vec![f64::NAN; m * n];
        matmul_block(&a, &b, &mut out, kd, n);
        assert!(
            out.iter()
                .zip(&expect)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "matmul_block diverged at {m}x{kd}x{n}"
        );
    }
}
