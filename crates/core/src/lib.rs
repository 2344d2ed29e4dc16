//! GoPIM: GCN-oriented pipeline optimization for ReRAM PIM
//! accelerators — a from-scratch reproduction of the HPCA 2025 paper.
//!
//! This crate ties the substrates together into runnable accelerator
//! systems and the paper's experiments:
//!
//! - [`system::System`]: the six evaluated accelerators — `Serial`,
//!   `SlimGNN-like`, `ReGraphX`, `ReFlip`, `GoPIM-Vanilla` and `GoPIM`
//!   — each a combination of mapping strategy, sparsification,
//!   pipelining mode and replica-allocation policy (paper §VII-A).
//! - [`runner`]: builds a workload for a dataset, allocates crossbar
//!   replicas, simulates the pipeline and accounts energy.
//! - [`experiments`]: one module per paper table/figure and extension,
//!   returning typed rows that `gopim repro <experiment>` prints.
//! - [`jobs`]: the same entry points as self-describing jobs for the
//!   `gopim-serve` job server (`gopim serve`).
//! - [`report`]: plain-text table formatting.
//!
//! The crate's `gopim` binary is the one command-line front end:
//! `gopim repro <experiment>` regenerates a table or figure,
//! `gopim loadgen` drives the job server, and `gopim --help` lists the
//! rest.
//!
//! # Quickstart
//!
//! ```no_run
//! use gopim::runner::{run_system, RunConfig};
//! use gopim::system::System;
//! use gopim_graph::datasets::Dataset;
//!
//! let config = RunConfig::default();
//! let serial = run_system(Dataset::Ddi, System::Serial, &config);
//! let gopim = run_system(Dataset::Ddi, System::Gopim, &config);
//! let speedup = serial.makespan_ns / gopim.makespan_ns;
//! println!("GoPIM speedup on ddi: {speedup:.1}x");
//! ```

#![warn(missing_docs)]

pub mod benchdiff;
pub mod cli;
pub mod experiments;
pub mod jobs;
pub mod paper;
pub mod report;
pub mod runner;
pub mod system;

pub use runner::{run_system, RunConfig, SystemRun};
pub use system::System;
