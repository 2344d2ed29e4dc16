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
//!
//! Two row-sparse siblings keep the same tiles and the same rounding:
//! [`matmul_rows_block`] computes only a listed subset of output rows
//! (the GCN's fresh vertices), and [`matmul_tn_block`] forms `aᵀ × b`
//! from the untransposed `a`, reducing over a listed subset of rows of
//! both operands (the GCN's `∇W = Xᵀ·δ`). Neither changes which terms
//! an output adds or in what order beyond what its list says.

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

crate::simd::isa_dispatch! {
    /// `out = a × b` on the listed rows only: for each `r` in `rows`,
    /// row `r - row0` of `out` becomes row `r` of `a` times `b`, and
    /// every other row of `out` keeps its contents. `a` is `m × kd`
    /// row-major, `b` is `kd × n`, and `out` holds rows
    /// `row0..row0 + out.len() / n` of the `m × n` product. Each listed
    /// output has the bits [`matmul_block`] gives it.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match those shapes or a
    /// listed row falls outside `out` or `a`.
    pub(crate) fn matmul_rows_block(
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        kd: usize,
        n: usize,
        rows: &[usize],
        row0: usize,
    ) => matmul_rows_tiles
}

#[inline(always)]
fn matmul_rows_tiles(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    kd: usize,
    n: usize,
    rows: &[usize],
    row0: usize,
) {
    if n == 0 {
        return;
    }
    let block = out.len() / n;
    assert!(
        out.len() == block * n
            && b.len() == kd * n
            && rows
                .iter()
                .all(|&r| (row0..row0 + block).contains(&r) && (r + 1) * kd <= a.len()),
        "matmul_rows_block: operand shapes mismatch"
    );
    let mut groups = rows.chunks_exact(MR);
    for group in &mut groups {
        listed_row_tiles::<MR>(a, b, out, kd, n, std::array::from_fn(|r| group[r]), row0);
    }
    for &r in groups.remainder() {
        listed_row_tiles::<1>(a, b, out, kd, n, [r], row0);
    }
}

/// All tiles of the listed output rows `rows`, left to right.
#[inline(always)]
fn listed_row_tiles<const R: usize>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    kd: usize,
    n: usize,
    rows: [usize; R],
    row0: usize,
) {
    let mut j = 0;
    while j + NR <= n {
        listed_tile::<R, NR>(a, b, out, kd, n, rows, row0, j);
        j += NR;
    }
    if j + 4 <= n {
        listed_tile::<R, 4>(a, b, out, kd, n, rows, row0, j);
        j += 4;
    }
    if j + 2 <= n {
        listed_tile::<R, 2>(a, b, out, kd, n, rows, row0, j);
        j += 2;
    }
    if j < n {
        listed_tile::<R, 1>(a, b, out, kd, n, rows, row0, j);
    }
}

/// [`tile`] for the output rows `rows` (any `R` listed rows), columns
/// `j..j + C`.
#[allow(clippy::too_many_arguments)] // the tile's operands and coordinates
#[inline(always)]
fn listed_tile<const R: usize, const C: usize>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    kd: usize,
    n: usize,
    rows: [usize; R],
    row0: usize,
    j: usize,
) {
    let a_rows: [&[f64]; R] = std::array::from_fn(|r| &a[rows[r] * kd..(rows[r] + 1) * kd]);
    assert!(j + C <= n && b.len() == kd * n);
    let mut acc = [[0.0f64; C]; R];
    for k in 0..kd {
        // SAFETY: as in `tile`: k < kd and j + C <= n bound the load
        // inside `b`.
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
        let o = (rows[r] - row0) * n + j;
        out[o..o + C].copy_from_slice(acc_row);
    }
}

crate::simd::isa_dispatch! {
    /// `out = aᵀ × b` over the listed rows: output `(i, j)` adds
    /// `a[k][i]·b[k][j]` for each `k` in `ks`, in list order, from
    /// `0.0`, so with `ks` ascending it has the bits [`matmul_block`]
    /// gives `aᵀ × b` restricted to those rows. `a` is `ka × m`
    /// row-major, `b` is `ka × n`, and `out` holds rows
    /// `row0..row0 + out.len() / n` of the `m × n` product.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match those shapes or a
    /// listed row is out of bounds of `a` or `b`.
    pub(crate) fn matmul_tn_block(
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        m: usize,
        n: usize,
        ks: &[usize],
        row0: usize,
    ) => matmul_tn_tiles
}

#[inline(always)]
fn matmul_tn_tiles(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    n: usize,
    ks: &[usize],
    row0: usize,
) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    assert!(
        out.len() == rows * n && row0 + rows <= m,
        "matmul_tn_block: output shape mismatch"
    );
    // One range check per listed row, so the tiles load unchecked.
    for &k in ks {
        assert!(
            (k + 1) * m <= a.len() && (k + 1) * n <= b.len(),
            "matmul_tn_block: row {k} out of bounds"
        );
    }
    let mut i = row0;
    while i + MR <= row0 + rows {
        tn_row_tiles::<MR>(a, b, out, m, n, ks, row0, i);
        i += MR;
    }
    while i < row0 + rows {
        tn_row_tiles::<1>(a, b, out, m, n, ks, row0, i);
        i += 1;
    }
}

/// All tiles of product rows `i..i + R`, left to right.
#[allow(clippy::too_many_arguments)] // the tile's operands and coordinates
#[inline(always)]
fn tn_row_tiles<const R: usize>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    n: usize,
    ks: &[usize],
    row0: usize,
    i: usize,
) {
    let mut j = 0;
    while j + NR <= n {
        tn_tile::<R, NR>(a, b, out, m, n, ks, row0, i, j);
        j += NR;
    }
    if j + 4 <= n {
        tn_tile::<R, 4>(a, b, out, m, n, ks, row0, i, j);
        j += 4;
    }
    if j + 2 <= n {
        tn_tile::<R, 2>(a, b, out, m, n, ks, row0, i, j);
        j += 2;
    }
    if j < n {
        tn_tile::<R, 1>(a, b, out, m, n, ks, row0, i, j);
    }
}

/// Product rows `i..i + R` (columns `i..i + R` of `a`), columns
/// `j..j + C`, accumulated in registers over the listed rows `ks`.
#[allow(clippy::too_many_arguments)] // the tile's operands and coordinates
#[inline(always)]
fn tn_tile<const R: usize, const C: usize>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    n: usize,
    ks: &[usize],
    row0: usize,
    i: usize,
    j: usize,
) {
    assert!(i + R <= m && j + C <= n);
    let mut acc = [[0.0f64; C]; R];
    for &k in ks {
        // SAFETY: `matmul_tn_tiles` checked (k + 1)·m <= a.len() and
        // (k + 1)·n <= b.len() for every listed k, and i + R <= m,
        // j + C <= n (asserted above); the arrays have `f64`'s
        // alignment.
        let (ak, bk) = unsafe {
            (
                &*a.as_ptr().add(k * m + i).cast::<[f64; R]>(),
                &*b.as_ptr().add(k * n + j).cast::<[f64; C]>(),
            )
        };
        for r in 0..R {
            for c in 0..C {
                acc[r][c] = mac(acc[r][c], ak[r], bk[c]);
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let o = (i - row0 + r) * n + j;
        out[o..o + C].copy_from_slice(acc_row);
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
