//! Graph substrate for the GoPIM reproduction.
//!
//! GoPIM (HPCA 2025) evaluates GCN training on seven graph datasets
//! (six from the Open Graph Benchmark plus Cora). This crate provides
//! everything the rest of the workspace needs to stand in for those
//! datasets and for graph handling in general:
//!
//! - [`CsrGraph`]: a compact, validated compressed-sparse-row graph used
//!   by the numeric GCN training engine and the mapping strategies.
//! - [`DegreeProfile`]: a degree sequence *without* materialized edges,
//!   sufficient for the analytic performance model (whose inputs are
//!   `(N, degree distribution, feature dim)`), so the full-size
//!   `products` graph (2.45 M vertices) is represented exactly without
//!   hundreds of MB of edge storage.
//! - [`datasets`]: the catalog of Table III / Table IV statistics and
//!   generators that reproduce them synthetically (see DESIGN.md §2 for
//!   the substitution rationale).
//! - [`generate`]: power-law (Chung–Lu), Erdős–Rényi and planted-partition
//!   (SBM) generators.
//!
//! # Example
//!
//! ```
//! use gopim_graph::datasets::Dataset;
//!
//! let ddi = Dataset::Ddi.profile(7);
//! assert_eq!(ddi.num_vertices(), 4267);
//! // Average degree tracks Table III (500.5) closely.
//! assert!((ddi.avg_degree() - 500.5).abs() < 25.0);
//! ```

#![warn(missing_docs)]

pub mod csr;
pub mod datasets;
pub mod degree;
pub mod generate;
pub mod io;

pub use csr::CsrGraph;
pub use degree::{DegreeProfile, DegreeStats};
