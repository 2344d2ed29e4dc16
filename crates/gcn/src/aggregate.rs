//! Sparse symmetric-normalized aggregation.
//!
//! The GCN propagation rule uses `Â = D^{-1/2}(A + I)D^{-1/2}` (Kipf &
//! Welling). `Â` is symmetric, so the backward pass applies the same
//! operator to the upstream gradient.

use gopim_graph::CsrGraph;
use gopim_linalg::Matrix;
use gopim_obs::metrics::LazyCounter;

static AGG_CALLS: LazyCounter = LazyCounter::new("gcn.aggregate.calls");
static AGG_EDGES: LazyCounter = LazyCounter::new("gcn.aggregate.edges");

/// Writes `+0.0` over every row of `m` not in `rows` (strictly
/// ascending).
///
/// # Panics
///
/// Panics if `rows` is not strictly ascending within `0..m.rows()`.
pub(crate) fn zero_unlisted_rows(m: &mut Matrix, rows: &[usize]) {
    assert_row_list(rows, m.rows());
    for v in unlisted(rows, m.rows()) {
        m.row_mut(v).fill(0.0);
    }
}

/// Asserts that `rows` is strictly ascending and below `n`.
fn assert_row_list(rows: &[usize], n: usize) {
    assert!(
        rows.windows(2).all(|w| w[0] < w[1]) && rows.last().is_none_or(|&r| r < n),
        "row list must be strictly ascending and below {n}"
    );
}

/// The rows of `0..n` not in `rows` (strictly ascending), ascending.
pub(crate) fn unlisted(rows: &[usize], n: usize) -> impl Iterator<Item = usize> + '_ {
    let mut listed = rows.iter().peekable();
    (0..n).filter(move |&v| listed.next_if_eq(&&v).is_none())
}

/// Precomputed normalization coefficients for a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedAdjacency {
    /// `1 / sqrt(1 + deg(v))` per vertex.
    inv_sqrt_deg: Vec<f64>,
}

impl NormalizedAdjacency {
    /// Precomputes `D^{-1/2}` with self-loops included.
    pub fn new(graph: &CsrGraph) -> Self {
        let inv_sqrt_deg = (0..graph.num_vertices())
            .map(|v| 1.0 / ((1.0 + graph.degree(v) as f64).sqrt()))
            .collect();
        NormalizedAdjacency { inv_sqrt_deg }
    }

    /// Computes `Â · X` for a feature matrix `X` (one row per vertex).
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != graph.num_vertices()`.
    pub fn apply(&self, graph: &CsrGraph, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(graph.num_vertices(), x.cols());
        self.apply_into(graph, x, &mut out);
        out
    }

    /// [`NormalizedAdjacency::apply`] written into `out`, overwriting
    /// its contents (the allocation-free form for arena buffers).
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != graph.num_vertices()` or `out`'s shape
    /// differs from `x`'s.
    pub fn apply_into(&self, graph: &CsrGraph, x: &Matrix, out: &mut Matrix) {
        let all: Vec<usize> = (0..graph.num_vertices()).collect();
        self.apply_rows_into(graph, x, &all, out);
    }

    /// The listed rows of `Â · X` written into `out`, every other row
    /// written as `+0.0` (the row-sparse form of
    /// [`NormalizedAdjacency::apply_into`]; a listed row has the bits
    /// the full product gives it).
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != graph.num_vertices()`, `out`'s shape
    /// differs from `x`'s, or `rows` is not strictly ascending within
    /// the vertex range.
    pub fn apply_rows_into(&self, graph: &CsrGraph, x: &Matrix, rows: &[usize], out: &mut Matrix) {
        let n = graph.num_vertices();
        assert_eq!(x.rows(), n, "one feature row per vertex");
        assert_eq!(out.shape(), x.shape(), "propagate output shape mismatch");
        assert_row_list(rows, n);
        let d = x.cols();
        let _span = gopim_obs::span!("gcn.aggregate.normalized", n, d);
        AGG_CALLS.add(1);
        // Each undirected edge is two CSR entries, so a full pass adds
        // `num_edges`.
        AGG_EDGES.add(rows.iter().map(|&v| graph.degree(v) as u64).sum::<u64>() / 2);
        if n == 0 || d == 0 {
            return;
        }
        // Row-partitioned CSR gather: output row v reads only `x` and
        // the graph, so contiguous row blocks are independent tasks.
        // Per-row accumulation order (self-loop, then neighbors in
        // CSR order) is fixed, so the bits match the serial loop at
        // every thread count; the whole per-vertex gather goes through
        // `gopim_linalg::simd::gather_row`, a register-tile kernel
        // pinned bit-identical to its scalar reference. The gather
        // overwrites its row, so only unlisted rows are zero-filled.
        let block_rows = n.div_ceil(gopim_par::num_threads() * 4).clamp(1, n);
        let xs = x.as_slice();
        gopim_par::par_chunks_mut(out.as_mut_slice(), block_rows * d, |block, chunk| {
            let v0 = block * block_rows;
            let mut listed = rows[rows.partition_point(|&r| r < v0)..].iter().peekable();
            for (dv, out_row) in chunk.chunks_mut(d).enumerate() {
                let v = v0 + dv;
                if listed.next_if_eq(&&v).is_none() {
                    out_row.fill(0.0);
                    continue;
                }
                gopim_linalg::simd::gather_row(
                    out_row,
                    xs,
                    d,
                    v,
                    graph.neighbors(v),
                    &self.inv_sqrt_deg,
                );
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopim_graph::CsrGraph;

    fn path3() -> CsrGraph {
        CsrGraph::from_edges(3, &[(0, 1), (1, 2)])
    }

    #[test]
    fn isolated_vertices_keep_their_features() {
        let g = CsrGraph::empty(2);
        let norm = NormalizedAdjacency::new(&g);
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        // deg 0 ⇒ coefficient 1/1 ⇒ identity.
        assert_eq!(norm.apply(&g, &x), x);
    }

    #[test]
    fn aggregation_mixes_neighbors() {
        let g = path3();
        let norm = NormalizedAdjacency::new(&g);
        let x = Matrix::from_rows(&[&[1.0], &[0.0], &[0.0]]);
        let y = norm.apply(&g, &x);
        // Vertex 0: self (1/2) · 1; vertex 1 receives 1/(√3·√2).
        assert!((y[(0, 0)] - 0.5).abs() < 1e-12);
        assert!((y[(1, 0)] - 1.0 / (3.0f64.sqrt() * 2.0f64.sqrt())).abs() < 1e-12);
        assert_eq!(y[(2, 0)], 0.0);
    }

    #[test]
    fn operator_is_symmetric() {
        // x'·(Ây) == y'·(Âx) for the symmetric-normalized operator.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]);
        let norm = NormalizedAdjacency::new(&g);
        let x = Matrix::from_rows(&[&[1.0], &[-2.0], &[0.5], &[3.0]]);
        let y = Matrix::from_rows(&[&[0.3], &[1.2], &[-0.7], &[0.9]]);
        let ax = norm.apply(&g, &x);
        let ay = norm.apply(&g, &y);
        let dot = |a: &Matrix, b: &Matrix| -> f64 { (0..4).map(|i| a[(i, 0)] * b[(i, 0)]).sum() };
        assert!((dot(&x, &ay) - dot(&y, &ax)).abs() < 1e-12);
    }

    #[test]
    fn spectral_radius_at_most_one() {
        // Â is normalized: repeated application must not blow up.
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]);
        let norm = NormalizedAdjacency::new(&g);
        let mut x = Matrix::from_rows(&[&[1.0], &[1.0], &[1.0], &[1.0], &[1.0]]);
        let initial = x.frobenius_norm();
        for _ in 0..20 {
            x = norm.apply(&g, &x);
        }
        assert!(x.frobenius_norm() <= initial + 1e-9);
    }

    #[test]
    fn propagation_bits_do_not_depend_on_thread_count() {
        let g = CsrGraph::from_edges(60, &(0..59).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let x = Matrix::from_vec(60, 5, (0..300).map(|i| ((i as f64) * 0.41).sin()).collect());
        let norm = NormalizedAdjacency::new(&g);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let serial = gopim_par::Pool::new(1).install(|| norm.apply(&g, &x));
        for threads in [2, 8] {
            let par = gopim_par::Pool::new(threads).install(|| norm.apply(&g, &x));
            assert_eq!(
                bits(&par),
                bits(&serial),
                "Â·X changed at {threads} threads"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one feature row per vertex")]
    fn shape_mismatch_rejected() {
        let g = path3();
        let norm = NormalizedAdjacency::new(&g);
        let _ = norm.apply(&g, &Matrix::zeros(2, 1));
    }
}
