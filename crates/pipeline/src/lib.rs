//! GCN training pipeline model for ReRAM PIM accelerators.
//!
//! This crate implements the paper's execution model (§III–§V):
//!
//! - An `L`-layer GCN trains in `4L` stages per batch —
//!   `CO1 → AG1 → … → COL → AGL → LCL → GCL → … → LC1 → GC1`
//!   (Fig. 2) — each mapped onto its own crossbar group ([`stage`]).
//! - Per-stage, per-micro-batch service times come from the analytic
//!   latency model ([`latency`]), split into a *compute* part that
//!   replicas parallelize and a *write* part (ReRAM programming) that
//!   they do not.
//! - A workload builder ([`workload`]) assembles the stage specs for a
//!   dataset/model pair under a chosen mapping strategy and selective
//!   updating policy.
//! - A schedule simulator ([`schedule`]) evaluates the pipeline
//!   recurrences (the paper's Eqs. 3–6) for any per-stage replica
//!   assignment, yielding makespan, per-stage busy/idle fractions
//!   (Fig. 4 / Fig. 15) and the op counts the energy model consumes
//!   ([`energy`]).
//!
//! # Example
//!
//! ```
//! use gopim_graph::datasets::Dataset;
//! use gopim_pipeline::workload::{GcnWorkload, WorkloadOptions};
//! use gopim_pipeline::schedule::{simulate, PipelineOptions};
//!
//! let wl = GcnWorkload::build(Dataset::Ddi, &WorkloadOptions::default());
//! assert_eq!(wl.stages().len(), 8); // 2-layer GCN ⇒ 8 stages
//!
//! let serial = simulate(&wl, &vec![1; 8], &PipelineOptions::serial());
//! let piped = simulate(&wl, &vec![1; 8], &PipelineOptions::default());
//! assert!(piped.makespan_ns < serial.makespan_ns);
//! ```

#![warn(missing_docs)]

pub mod des;
pub mod energy;
pub mod epochs;
pub mod latency;
pub mod schedule;
pub mod stage;
pub mod trace;
pub mod workload;

pub use schedule::{
    simulate, simulate_traced, PipelineOptions, PipelineResult, StageActivity, TraceEvent,
};
pub use stage::{StageKind, StageSpec};
pub use workload::{GcnWorkload, MappingKind, WorkloadOptions};
