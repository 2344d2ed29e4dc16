//! Numeric GCN training engine.
//!
//! The performance experiments never need real numerics — but the
//! paper's Table V and Fig. 16 measure *accuracy* under ISU's selective
//! vertex updating, so this crate trains actual GCNs (from scratch, on
//! [`gopim_linalg`] kernels) over [`gopim_graph`] graphs:
//!
//! - [`aggregate`]: the symmetric-normalized sparse aggregation
//!   `Â = D^{-1/2}(A + I)D^{-1/2}` applied directly on CSR.
//! - [`model`]: the multi-layer GCN of the paper's Eq. 1–2 with
//!   full-batch backpropagation.
//! - [`selective`]: the stale-feature semantics of ISU — the
//!   *Aggregation* stage reads the crossbar-resident copy of a combined
//!   feature, which is refreshed every epoch for important vertices and
//!   every 20 epochs for the rest (§VI-A). Gradients do not flow
//!   through stale (constant) rows.
//! - [`train`]: the training/evaluation driver the accuracy experiments
//!   call.
//!
//! # Example
//!
//! ```no_run
//! use gopim_gcn::train::{train_gcn, TrainOptions};
//! use gopim_graph::generate::planted_partition;
//! use gopim_mapping::SelectivePolicy;
//!
//! let (graph, labels) = planted_partition(300, 3, 12.0, 6.0, 1);
//! let mut opts = TrainOptions::quick_test();
//! opts.selective = Some(SelectivePolicy::with_theta(0.5, 20));
//! let report = train_gcn(&graph, &labels, &opts);
//! assert!(report.test_accuracy > 0.5);
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod model;
pub mod selective;
pub mod train;

pub use model::GcnModel;
pub use train::{train_gcn, TrainOptions, TrainReport};
