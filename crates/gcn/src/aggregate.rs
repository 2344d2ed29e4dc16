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

/// A neighborhood propagation operator `P` applied as `P · X`.
///
/// Backpropagation needs `Pᵀ`; symmetric operators (like the GCN's
/// `Â`) get it for free via the default method.
pub trait Propagation {
    /// Computes `P · X`.
    fn propagate(&self, graph: &CsrGraph, x: &Matrix) -> Matrix;

    /// Computes `Pᵀ · X` (defaults to [`Propagation::propagate`] for
    /// symmetric operators).
    fn propagate_transpose(&self, graph: &CsrGraph, x: &Matrix) -> Matrix {
        self.propagate(graph, x)
    }

    /// Computes `P · X` into `out`, overwriting its contents — the
    /// allocation-free form used by the arena-backed training path.
    /// The default copies [`Propagation::propagate`]'s result; the
    /// in-repo operators override it to write `out` directly.
    ///
    /// # Panics
    ///
    /// Panics if `out`'s shape differs from the result's.
    fn propagate_into(&self, graph: &CsrGraph, x: &Matrix, out: &mut Matrix) {
        let r = self.propagate(graph, x);
        assert_eq!(out.shape(), r.shape(), "propagate output shape mismatch");
        out.as_mut_slice().copy_from_slice(r.as_slice());
    }

    /// Computes `Pᵀ · X` into `out`, overwriting its contents (see
    /// [`Propagation::propagate_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `out`'s shape differs from the result's.
    fn propagate_transpose_into(&self, graph: &CsrGraph, x: &Matrix, out: &mut Matrix) {
        let r = self.propagate_transpose(graph, x);
        assert_eq!(out.shape(), r.shape(), "propagate output shape mismatch");
        out.as_mut_slice().copy_from_slice(r.as_slice());
    }
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
        let n = graph.num_vertices();
        assert_eq!(x.rows(), n, "one feature row per vertex");
        assert_eq!(out.shape(), x.shape(), "propagate output shape mismatch");
        let d = x.cols();
        let _span = gopim_obs::span!("gcn.aggregate.normalized", n, d);
        AGG_CALLS.add(1);
        AGG_EDGES.add(graph.num_edges() as u64);
        out.as_mut_slice().fill(0.0);
        if n == 0 || d == 0 {
            return;
        }
        // Row-partitioned CSR gather: output row v reads only `x` and
        // the graph, so contiguous row blocks are independent tasks.
        // Per-row accumulation order (self-loop, then neighbors in
        // CSR order) is fixed, so the bits match the serial loop at
        // every thread count; the whole per-vertex gather goes through
        // `gopim_linalg::simd::gather_row`, a register-tile kernel
        // pinned bit-identical to its scalar reference.
        let block_rows = n.div_ceil(gopim_par::num_threads() * 4).clamp(1, n);
        let xs = x.as_slice();
        gopim_par::par_chunks_mut(out.as_mut_slice(), block_rows * d, |block, chunk| {
            let v0 = block * block_rows;
            for (dv, out_row) in chunk.chunks_mut(d).enumerate() {
                let v = v0 + dv;
                let sv = self.inv_sqrt_deg[v];
                gopim_linalg::simd::gather_row(
                    out_row,
                    xs,
                    d,
                    v,
                    sv * sv,
                    graph.neighbors(v),
                    gopim_linalg::simd::NeighborCoeffs::Scaled {
                        scale: sv,
                        table: &self.inv_sqrt_deg,
                    },
                );
            }
        });
    }
}

impl Propagation for NormalizedAdjacency {
    fn propagate(&self, graph: &CsrGraph, x: &Matrix) -> Matrix {
        self.apply(graph, x)
    }

    fn propagate_into(&self, graph: &CsrGraph, x: &Matrix, out: &mut Matrix) {
        self.apply_into(graph, x, out);
    }

    // Symmetric: the transpose is the same operator.
    fn propagate_transpose_into(&self, graph: &CsrGraph, x: &Matrix, out: &mut Matrix) {
        self.apply_into(graph, x, out);
    }
}

/// GraphSAGE-style mean aggregation `M = D⁻¹(A + I)`: each vertex's
/// new feature is the mean of its own and its neighbors' features.
/// Unlike `Â`, `M` is not symmetric, so backprop uses the explicit
/// transpose `Mᵀ = (A + I)D⁻¹`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeanAggregator;

impl MeanAggregator {
    /// A mean aggregator (stateless).
    pub fn new() -> Self {
        MeanAggregator
    }
}

impl Propagation for MeanAggregator {
    fn propagate(&self, graph: &CsrGraph, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(graph.num_vertices(), x.cols());
        self.propagate_into(graph, x, &mut out);
        out
    }

    fn propagate_into(&self, graph: &CsrGraph, x: &Matrix, out: &mut Matrix) {
        let n = graph.num_vertices();
        assert_eq!(x.rows(), n, "one feature row per vertex");
        assert_eq!(out.shape(), x.shape(), "propagate output shape mismatch");
        let d = x.cols();
        let _span = gopim_obs::span!("gcn.aggregate.mean", n, d);
        AGG_CALLS.add(1);
        AGG_EDGES.add(graph.num_edges() as u64);
        out.as_mut_slice().fill(0.0);
        if n == 0 || d == 0 {
            return;
        }
        // Same row-partitioned gather as `NormalizedAdjacency::apply`.
        let block_rows = n.div_ceil(gopim_par::num_threads() * 4).clamp(1, n);
        let xs = x.as_slice();
        gopim_par::par_chunks_mut(out.as_mut_slice(), block_rows * d, |block, chunk| {
            let v0 = block * block_rows;
            for (dv, row) in chunk.chunks_mut(d).enumerate() {
                let v = v0 + dv;
                let inv = 1.0 / (1.0 + graph.degree(v) as f64);
                gopim_linalg::simd::gather_row(
                    row,
                    xs,
                    d,
                    v,
                    inv,
                    graph.neighbors(v),
                    gopim_linalg::simd::NeighborCoeffs::Uniform(inv),
                );
            }
        });
    }

    fn propagate_transpose(&self, graph: &CsrGraph, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(graph.num_vertices(), x.cols());
        self.propagate_transpose_into(graph, x, &mut out);
        out
    }

    fn propagate_transpose_into(&self, graph: &CsrGraph, x: &Matrix, out: &mut Matrix) {
        // Mᵀ · X: scale each source row by its 1/(1+deg), then scatter
        // along edges (plus the self loop).
        let n = graph.num_vertices();
        assert_eq!(x.rows(), n, "one feature row per vertex");
        assert_eq!(out.shape(), x.shape(), "propagate output shape mismatch");
        out.as_mut_slice().fill(0.0);
        for v in 0..n {
            let inv = 1.0 / (1.0 + graph.degree(v) as f64);
            // Self contribution.
            gopim_linalg::simd::axpy(out.row_mut(v), x.row(v), inv);
        }
        // Scatter along edges: out[u] accumulates contributions from
        // every v with u ∈ N(v), so rows of `out` are written from
        // many source vertices — this pass stays serial.
        for v in 0..n {
            let inv = 1.0 / (1.0 + graph.degree(v) as f64);
            for &u in graph.neighbors(v) {
                // Column v of M has entries inv at rows v and its
                // neighbors ⇒ scatter x[v]·inv_v into out[u].
                gopim_linalg::simd::axpy(out.row_mut(u as usize), x.row(v), inv);
            }
        }
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
    fn mean_aggregator_averages_the_closed_neighborhood() {
        let g = path3();
        let m = MeanAggregator::new();
        let x = Matrix::from_rows(&[&[3.0], &[0.0], &[6.0]]);
        let y = m.propagate(&g, &x);
        // Vertex 1 sees mean(3, 0, 6) = 3.
        assert!((y[(1, 0)] - 3.0).abs() < 1e-12);
        // Vertex 0 sees mean(3, 0) = 1.5.
        assert!((y[(0, 0)] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn mean_aggregator_transpose_is_the_adjoint() {
        // x'·(Mᵀy) == (Mx)'·y for all x, y.
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let m = MeanAggregator::new();
        let x = Matrix::from_rows(&[&[1.0], &[-2.0], &[0.5], &[3.0], &[0.7]]);
        let y = Matrix::from_rows(&[&[0.3], &[1.2], &[-0.7], &[0.9], &[-1.1]]);
        let mx = m.propagate(&g, &x);
        let mty = m.propagate_transpose(&g, &y);
        let dot = |a: &Matrix, b: &Matrix| -> f64 { (0..5).map(|i| a[(i, 0)] * b[(i, 0)]).sum() };
        assert!((dot(&x, &mty) - dot(&mx, &y)).abs() < 1e-12);
    }

    #[test]
    fn propagation_bits_do_not_depend_on_thread_count() {
        let g = CsrGraph::from_edges(60, &(0..59).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let x = Matrix::from_vec(60, 5, (0..300).map(|i| ((i as f64) * 0.41).sin()).collect());
        let norm = NormalizedAdjacency::new(&g);
        let mean = MeanAggregator::new();
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let serial =
            gopim_par::Pool::new(1).install(|| (norm.apply(&g, &x), mean.propagate(&g, &x)));
        for threads in [2, 8] {
            let par = gopim_par::Pool::new(threads)
                .install(|| (norm.apply(&g, &x), mean.propagate(&g, &x)));
            assert_eq!(
                bits(&par.0),
                bits(&serial.0),
                "Â·X changed at {threads} threads"
            );
            assert_eq!(
                bits(&par.1),
                bits(&serial.1),
                "M·X changed at {threads} threads"
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
