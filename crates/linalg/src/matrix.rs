//! Row-major dense matrix.

use crate::kernels;
use gopim_obs::metrics::{LazyCounter, LazyHistogram};
use std::fmt;
use std::ops::{Index, IndexMut};

static MATMUL_CALLS: LazyCounter = LazyCounter::new("linalg.matmul.calls");
static MATMUL_FLOPS: LazyCounter = LazyCounter::new("linalg.matmul.flops");
static MATMUL_NS: LazyHistogram = LazyHistogram::new("linalg.matmul.ns");

/// Products below this many multiply-adds (`m·k·n`) run as a single
/// task. The predictor's MLP runs tens of thousands of small products
/// (its 32×10×256 and 10×32×256 layer products are 82 K multiply-adds,
/// its 32×256×1 head 8 K), and a pool hand-off costs more than such a
/// product. A product inside a run that is itself a pool task (one of
/// Table V's fanned-out GCN trainings) runs on that task's thread at
/// any size: that is the pool's nesting rule (`gopim_par::Pool::scope`),
/// not this threshold's job.
const PAR_MIN_WORK: usize = 1 << 17;

/// A dense `rows × cols` matrix of `f64`, stored row-major.
///
/// # Example
///
/// ```
/// use gopim_linalg::Matrix;
///
/// let mut m = Matrix::zeros(2, 3);
/// m[(1, 2)] = 5.0;
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.shape(), (2, 3));
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from explicit rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of range");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major buffer (used by
    /// [`crate::arena::BufferArena`] to recycle storage).
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Matrix product `self × rhs`.
    ///
    /// Parallelized over row ranges of the output through `gopim-par`;
    /// each output element accumulates over `k` in ascending order
    /// with a fixed kernel, so the result is bit-identical at every
    /// thread count (see `tests/determinism.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self × rhs` written into `out`, overwriting its
    /// contents — the allocation-free form of [`Matrix::matmul`] for
    /// callers that reuse an output buffer across iterations.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()` or `out`'s shape is not
    /// `self.rows() × rhs.cols()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "dimension mismatch: {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, rhs.cols),
            "output shape mismatch: got {}x{}, need {}x{}",
            out.rows,
            out.cols,
            self.rows,
            rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let _span = gopim_obs::span!("linalg.matmul", m, k, n);
        MATMUL_CALLS.add(1);
        MATMUL_FLOPS.add(2 * (m as u64) * (k as u64) * (n as u64));
        let _timer = MATMUL_NS.timer();
        if out.data.is_empty() {
            return;
        }
        // Partition the output into contiguous row blocks; each block
        // is one task. Every output element keeps one accumulator in
        // `k` order whatever block it lands in, so the block size
        // (which scales with the pool) has no effect on the bits. A
        // product below `PAR_MIN_WORK` multiply-adds runs as one task:
        // splitting it costs more in pool hand-offs than it saves.
        let block_rows = block_rows(m, m * k * n);
        gopim_par::par_chunks_mut(&mut out.data, block_rows * n, |block, chunk| {
            let row0 = block * block_rows;
            let rows = chunk.len() / n;
            kernels::matmul_block(
                &self.data[row0 * k..(row0 + rows) * k],
                &rhs.data,
                chunk,
                k,
                n,
            );
        });
    }

    /// The product `self × rhs` on the listed rows only: each row `r`
    /// in `rows` of `out` becomes row `r` of `self` times `rhs`, with
    /// the bits [`Matrix::matmul_into`] gives it, and every other row
    /// of `out` keeps its contents. The GCN computes its fresh
    /// vertices' combinations this way, straight into the rows of the
    /// stale-feature cache.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`, `out`'s shape is not
    /// `self.rows() × rhs.cols()`, or `rows` is not strictly
    /// ascending within `0..self.rows()`.
    pub fn matmul_rows_into(&self, rhs: &Matrix, rows: &[usize], out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "dimension mismatch: {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, rhs.cols),
            "output shape mismatch: got {}x{}, need {}x{}",
            out.rows,
            out.cols,
            self.rows,
            rhs.cols
        );
        assert_ascending(rows, self.rows);
        let (listed, k, n) = (rows.len(), self.cols, rhs.cols);
        let _span = gopim_obs::span!("linalg.matmul_rows", listed, k, n);
        MATMUL_CALLS.add(1);
        MATMUL_FLOPS.add(2 * (listed as u64) * (k as u64) * (n as u64));
        let _timer = MATMUL_NS.timer();
        if out.data.is_empty() {
            return;
        }
        // Contiguous blocks of output rows, as in `matmul_into`; each
        // block computes the listed rows that fall inside it.
        let m = self.rows;
        let block_rows = block_rows(m, listed * k * n);
        gopim_par::par_chunks_mut(&mut out.data, block_rows * n, |block, chunk| {
            let row0 = block * block_rows;
            let lo = rows.partition_point(|&r| r < row0);
            let hi = rows.partition_point(|&r| r < row0 + chunk.len() / n);
            kernels::matmul_rows_block(&self.data, &rhs.data, chunk, k, n, &rows[lo..hi], row0);
        });
    }

    /// The product `selfᵀ × rhs`, formed without transposing `self`
    /// and bit-identical to `self.transpose().matmul(rhs)`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        let all: Vec<usize> = (0..self.rows).collect();
        self.matmul_tn_rows(rhs, &all)
    }

    /// `selfᵀ × rhs` summed over the listed rows of both operands only:
    /// output `(i, j)` adds `self[(k, i)]·rhs[(k, j)]` for ascending
    /// `k` in `rows`, so it equals `self.transpose().matmul(rhs)` with
    /// every unlisted row's terms left out. Row-partitioned over the
    /// pool like [`Matrix::matmul_into`], with the same bits at every
    /// thread count. The GCN forms each weight gradient `Xᵀ·δ` this
    /// way over its fresh vertices.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()` or `rows` is not strictly
    /// ascending within `0..self.rows()`.
    pub fn matmul_tn_rows(&self, rhs: &Matrix, rows: &[usize]) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "dimension mismatch: ({}x{})ᵀ × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_ascending(rows, self.rows);
        let (m, listed, n) = (self.cols, rows.len(), rhs.cols);
        let _span = gopim_obs::span!("linalg.matmul_tn", m, listed, n);
        MATMUL_CALLS.add(1);
        MATMUL_FLOPS.add(2 * (m as u64) * (listed as u64) * (n as u64));
        let _timer = MATMUL_NS.timer();
        let mut out = Matrix::zeros(m, n);
        if out.data.is_empty() {
            return out;
        }
        let block_rows = block_rows(m, m * listed * n);
        gopim_par::par_chunks_mut(&mut out.data, block_rows * n, |block, chunk| {
            kernels::matmul_tn_block(&self.data, &rhs.data, chunk, m, n, rows, block * block_rows);
        });
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Element-wise map.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }
}

/// Output rows per task for a product with `m` output rows and `work`
/// multiply-adds: all of them below `PAR_MIN_WORK`, else whole
/// register tiles of `MR` rows, about four blocks per pool thread.
/// Split 8 ways without rounding to `MR`, a 48-row product would leave
/// two slow one-row tails in every 6-row block (48×1200×48 measured
/// 1.5× slower that way).
fn block_rows(m: usize, work: usize) -> usize {
    if work < PAR_MIN_WORK {
        m
    } else {
        m.div_ceil(gopim_par::num_threads() * 4)
            .next_multiple_of(kernels::MR)
            .min(m)
    }
}

/// Asserts that `rows` is strictly ascending and below `bound` (the
/// row lists of the row-sparse products).
fn assert_ascending(rows: &[usize], bound: usize) {
    assert!(
        rows.windows(2).all(|w| w[0] < w[1]) && rows.last().is_none_or(|&r| r < bound),
        "row list must be strictly ascending and below {bound}"
    );
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of range"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of range"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows <= 8 && self.cols <= 8 {
            for r in 0..self.rows {
                write!(f, "\n  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

impl gopim_cache::CanonicalHash for Matrix {
    fn canonical_hash(&self, h: &mut gopim_cache::CanonicalHasher) {
        h.write_tag("linalg.matrix/v1");
        h.write_usize(self.rows);
        h.write_usize(self.cols);
        for &v in &self.data {
            h.write_f64(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[5.0], &[3.0]]);
        assert_eq!(a.matmul(&b), Matrix::from_rows(&[&[7.0]]));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(&[&[2.0, -1.0], &[0.5, 3.0]]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn map_and_norm() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.frobenius_norm(), 5.0);
        assert_eq!(a.map(|x| x * 2.0), Matrix::from_rows(&[&[6.0, 8.0]]));
    }

    #[test]
    fn matmul_into_overwrites_a_reused_buffer() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut out = Matrix::from_rows(&[&[9.9, 9.9], &[9.9, 9.9]]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn matmul_bits_do_not_depend_on_thread_count() {
        // Wide and narrow outputs on both sides of `PAR_MIN_WORK`: the
        // 70×60×40 and 70×700×3 products split into several row blocks.
        for &(m, kd, n) in &[
            (70usize, 33usize, 40usize),
            (70, 33, 3),
            (70, 330, 3),
            (70, 60, 40),
            (70, 700, 3),
        ] {
            let a = Matrix::from_vec(
                m,
                kd,
                (0..m * kd).map(|i| ((i as f64) * 0.37).sin()).collect(),
            );
            let b = Matrix::from_vec(
                kd,
                n,
                (0..kd * n).map(|i| ((i as f64) * 0.53).cos()).collect(),
            );
            let serial = gopim_par::Pool::new(1).install(|| a.matmul(&b));
            for threads in [2, 8] {
                let par = gopim_par::Pool::new(threads).install(|| a.matmul(&b));
                assert!(
                    par.as_slice()
                        .iter()
                        .zip(serial.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "matmul {m}x{kd}x{n} changed bits at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn matmul_handles_zero_sized_operands() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        assert_eq!(a.matmul(&b).shape(), (0, 4));
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 4);
        assert_eq!(a.matmul(&b), Matrix::zeros(2, 4));
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn matmul_into_rejects_wrong_output_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut out = Matrix::zeros(2, 3);
        a.matmul_into(&b, &mut out);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let a = Matrix::zeros(2, 2);
        let _ = a[(2, 0)];
    }
}
