//! Compressed-sparse-row graph storage.
//!
//! The numeric GCN training engine and the vertex-mapping strategies both
//! operate on concrete adjacency; [`CsrGraph`] stores an undirected graph
//! as sorted CSR with validated invariants.

use std::fmt;

use crate::degree::{DegreeProfile, DegreeStats};

/// An undirected graph in compressed-sparse-row form.
///
/// Invariants (checked by [`CsrGraph::from_edges`] and testable via
/// [`CsrGraph::validate`]):
///
/// - `offsets.len() == num_vertices + 1`, `offsets[0] == 0`, offsets are
///   non-decreasing and `offsets[n] == neighbors.len()`.
/// - Each adjacency list is sorted and free of duplicates and self-loops.
/// - The adjacency relation is symmetric (`u ∈ adj(v)` ⇔ `v ∈ adj(u)`).
///
/// # Example
///
/// ```
/// use gopim_graph::CsrGraph;
///
/// let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 4);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl CsrGraph {
    /// Builds a graph from an edge list.
    ///
    /// Edges are undirected; duplicates and self-loops are silently
    /// dropped. Endpoints must be `< num_vertices`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_edges(num_vertices: usize, edges: &[(u32, u32)]) -> Self {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); num_vertices];
        for &(u, v) in edges {
            assert!(
                (u as usize) < num_vertices && (v as usize) < num_vertices,
                "edge ({u}, {v}) out of range for {num_vertices} vertices"
            );
            if u == v {
                continue;
            }
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        let mut offsets = Vec::with_capacity(num_vertices + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len());
        }
        CsrGraph { offsets, neighbors }
    }

    /// Constructs an empty graph (no edges) over `num_vertices` vertices.
    pub fn empty(num_vertices: usize) -> Self {
        CsrGraph {
            offsets: vec![0; num_vertices + 1],
            neighbors: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted adjacency list of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the undirected edge `(u, v)` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Average vertex degree (`2E / N`), 0.0 for the empty vertex set.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            return 0.0;
        }
        self.neighbors.len() as f64 / self.num_vertices() as f64
    }

    /// Graph density: ratio of edges to the maximum possible
    /// `N (N − 1) / 2` (the paper's §VII-A definition).
    pub fn density(&self) -> f64 {
        let n = self.num_vertices() as f64;
        if n < 2.0 {
            return 0.0;
        }
        self.num_edges() as f64 / (n * (n - 1.0) / 2.0)
    }

    /// The degree sequence of this graph as a [`DegreeProfile`].
    pub fn to_degree_profile(&self) -> DegreeProfile {
        DegreeProfile::from_degrees(
            (0..self.num_vertices())
                .map(|v| self.degree(v) as u32)
                .collect(),
        )
    }

    /// Summary statistics over the degree sequence.
    pub fn degree_stats(&self) -> DegreeStats {
        self.to_degree_profile().stats()
    }

    /// Iterates over each undirected edge exactly once, as `(u, v)`
    /// with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_vertices()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| (u as u32) < v)
                .map(move |&v| (u as u32, v))
        })
    }

    /// Checks every structural invariant, returning a description of the
    /// first violation found.
    ///
    /// # Errors
    ///
    /// Returns `Err` with a human-readable message if the CSR arrays are
    /// malformed, adjacency lists are unsorted/duplicated, a self-loop is
    /// present, or symmetry is broken.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.is_empty() || self.offsets[0] != 0 {
            return Err("offsets must start at 0".into());
        }
        if self.offsets.last().copied() != Some(self.neighbors.len()) {
            return Err("last offset must equal neighbor count".into());
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets must be non-decreasing".into());
        }
        for v in 0..self.num_vertices() {
            let adj = self.neighbors(v);
            if adj.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("adjacency of {v} not strictly sorted"));
            }
            if adj.binary_search(&(v as u32)).is_ok() {
                return Err(format!("self-loop at {v}"));
            }
            for &u in adj {
                if u as usize >= self.num_vertices() {
                    return Err(format!("neighbor {u} of {v} out of range"));
                }
                if !self.has_edge(u as usize, v) {
                    return Err(format!("edge ({v}, {u}) not symmetric"));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsrGraph")
            .field("num_vertices", &self.num_vertices())
            .field("num_edges", &self.num_edges())
            .field("avg_degree", &self.avg_degree())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    }

    #[test]
    fn from_edges_builds_sorted_symmetric_csr() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        g.validate().unwrap();
    }

    #[test]
    fn self_loops_and_duplicates_are_dropped() {
        let g = CsrGraph::from_edges(3, &[(0, 0), (0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 0);
        g.validate().unwrap();
    }

    #[test]
    fn degree_and_has_edge_agree() {
        let g = diamond();
        assert_eq!(g.degree(1), 2);
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(1, 3));
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.num_edges());
        assert!(edges.contains(&(0, 2)));
        assert!(edges.iter().all(|&(u, v)| u < v));
    }

    #[test]
    fn density_of_complete_graph_is_one() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert!((g.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_out_of_range() {
        CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn degree_profile_matches_graph() {
        let g = diamond();
        let p = g.to_degree_profile();
        assert_eq!(p.num_vertices(), 4);
        assert_eq!(p.total_degree(), 10);
    }
}
