//! Element-wise and broadcast operations on [`Matrix`].
//!
//! The loops here are per-element pure, so they parallelize with a
//! fixed chunk length: every element's value is independent of which
//! chunk (and therefore which thread) computed it, keeping outputs
//! bit-identical at any pool size.

use crate::Matrix;
use gopim_obs::metrics::LazyCounter;

/// Fixed element count per parallel task — large enough to amortize
/// dispatch, and independent of the pool size by construction.
const ELEMWISE_CHUNK: usize = 32 * 1024;

static ELEMWISE_CALLS: LazyCounter = LazyCounter::new("linalg.elemwise.calls");
static ELEMWISE_ELEMS: LazyCounter = LazyCounter::new("linalg.elemwise.elems");

/// Element-wise sum `a + b`.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn add(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "shape mismatch in add");
    zip(a, b, |x, y| x + y)
}

/// Element-wise difference `a − b`.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn sub(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "shape mismatch in sub");
    zip(a, b, |x, y| x - y)
}

/// Element-wise (Hadamard) product.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn hadamard(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "shape mismatch in hadamard");
    zip(a, b, |x, y| x * y)
}

/// Scales every element by `s`.
pub fn scale(a: &Matrix, s: f64) -> Matrix {
    a.map(|x| x * s)
}

/// In-place `delta ⊙ relu'(pre)`: multiplies each element of `delta`
/// by `1.0` where the pre-activation is positive and by `0.0`
/// elsewhere. It multiplies rather than selects, so a masked NaN or
/// infinite gradient comes out NaN and a masked negative one `-0.0`. The MLP's and the GCN's backward passes run it once per
/// hidden layer on an `N × d` gradient.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn hadamard_relu_grad_in_place(delta: &mut Matrix, pre: &Matrix) {
    assert_eq!(
        delta.shape(),
        pre.shape(),
        "shape mismatch in hadamard_relu_grad_in_place"
    );
    let elems = delta.as_slice().len();
    let _span = gopim_obs::span!("linalg.hadamard_relu_grad", elems);
    ELEMWISE_CALLS.add(1);
    ELEMWISE_ELEMS.add(elems as u64);
    let ps = pre.as_slice();
    gopim_par::par_chunks_mut(delta.as_mut_slice(), ELEMWISE_CHUNK, |i, chunk| {
        let base = i * ELEMWISE_CHUNK;
        for (d, &p) in chunk.iter_mut().zip(&ps[base..]) {
            *d *= if p > 0.0 { 1.0 } else { 0.0 };
        }
    });
}

/// Adds row-vector `bias` (1 × cols) to every row of `a`, in place:
/// each element becomes `a + b` with its column's bias `b`.
///
/// # Panics
///
/// Panics if `bias` is not a single row of matching width.
pub fn add_bias_in_place(a: &mut Matrix, bias: &Matrix) {
    assert_eq!(bias.rows(), 1, "bias must be a row vector");
    assert_eq!(bias.cols(), a.cols(), "bias width mismatch");
    let cols = a.cols();
    if cols == 0 {
        return;
    }
    let elems = a.as_slice().len();
    let _span = gopim_obs::span!("linalg.add_bias", elems);
    ELEMWISE_CALLS.add(1);
    ELEMWISE_ELEMS.add(elems as u64);
    let brow = bias.row(0);
    // Whole rows per chunk so the bias broadcast never splits a row.
    let chunk_len = (ELEMWISE_CHUNK / cols).max(1) * cols;
    gopim_par::par_chunks_mut(a.as_mut_slice(), chunk_len, |_, chunk| {
        for row in chunk.chunks_mut(cols) {
            for (o, &b) in row.iter_mut().zip(brow) {
                *o += b;
            }
        }
    });
}

/// Sums the rows of `a` into the 1 × cols row vector `out` (gradient of
/// a broadcast bias), overwriting it: each column starts at `0.0` and
/// adds the rows top to bottom.
///
/// # Panics
///
/// Panics if `out` is not a single row as wide as `a`.
pub fn sum_rows_into(a: &Matrix, out: &mut Matrix) {
    assert_eq!(out.shape(), (1, a.cols()), "sum_rows output shape mismatch");
    let out = out.as_mut_slice();
    out.fill(0.0);
    if out.is_empty() {
        return;
    }
    for row in a.as_slice().chunks_exact(out.len()) {
        for (o, &x) in out.iter_mut().zip(row) {
            *o += x;
        }
    }
}

/// In-place accumulation `acc += x`.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn accumulate(acc: &mut Matrix, x: &Matrix) {
    assert_eq!(acc.shape(), x.shape(), "shape mismatch in accumulate");
    let elems = acc.as_slice().len();
    let _span = gopim_obs::span!("linalg.accumulate", elems);
    ELEMWISE_CALLS.add(1);
    ELEMWISE_ELEMS.add(elems as u64);
    let xs = x.as_slice();
    gopim_par::par_chunks_mut(acc.as_mut_slice(), ELEMWISE_CHUNK, |i, chunk| {
        let base = i * ELEMWISE_CHUNK;
        for (a, &b) in chunk.iter_mut().zip(&xs[base..]) {
            *a += b;
        }
    });
}

fn zip(a: &Matrix, b: &Matrix, f: impl Fn(f64, f64) -> f64 + Sync) -> Matrix {
    let elems = a.as_slice().len();
    let _span = gopim_obs::span!("linalg.zip", elems);
    ELEMWISE_CALLS.add(1);
    ELEMWISE_ELEMS.add(elems as u64);
    let mut out = a.clone();
    let bs = b.as_slice();
    gopim_par::par_chunks_mut(out.as_mut_slice(), ELEMWISE_CHUNK, |i, chunk| {
        let base = i * ELEMWISE_CHUNK;
        for (o, &y) in chunk.iter_mut().zip(&bs[base..]) {
            *o = f(*o, y);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[0.5, -1.0]]);
        assert_eq!(sub(&add(&a, &b), &b), a);
    }

    #[test]
    fn hadamard_elementwise() {
        let a = Matrix::from_rows(&[&[2.0, 3.0]]);
        let b = Matrix::from_rows(&[&[4.0, -1.0]]);
        assert_eq!(hadamard(&a, &b), Matrix::from_rows(&[&[8.0, -3.0]]));
    }

    #[test]
    fn bias_broadcasts_over_rows() {
        let mut a = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0]]);
        add_bias_in_place(&mut a, &b);
        assert_eq!(a, Matrix::from_rows(&[&[10.0, 20.0], &[11.0, 21.0]]));
    }

    #[test]
    fn sum_rows_is_bias_gradient() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        // A dirty output is overwritten, not accumulated into.
        let mut out = Matrix::from_rows(&[&[9.0, -9.0]]);
        sum_rows_into(&a, &mut out);
        assert_eq!(out, Matrix::from_rows(&[&[4.0, 6.0]]));
    }

    #[test]
    fn accumulate_adds_in_place() {
        let mut acc = Matrix::zeros(1, 2);
        accumulate(&mut acc, &Matrix::from_rows(&[&[1.0, 2.0]]));
        accumulate(&mut acc, &Matrix::from_rows(&[&[1.0, 2.0]]));
        assert_eq!(acc, Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_rejects_mismatched_shapes() {
        let _ = add(&Matrix::zeros(1, 2), &Matrix::zeros(2, 1));
    }
}
