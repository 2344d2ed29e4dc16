//! ReRAM processing-in-memory hardware model for the GoPIM reproduction.
//!
//! The paper evaluates GoPIM on a NeuroSim-derived simulator configured
//! per its Table II: 64×64 crossbars with 2 bits/cell, 32 crossbars per
//! PE, 8 PEs per tile, 65,536 tiles per chip (a 16 GB ReRAM array),
//! 8-bit ADCs, 2-bit DACs, and read/write latencies of 29.31 ns /
//! 50.88 ns. This crate is the from-scratch equivalent (see DESIGN.md
//! §2 for the substitution rationale):
//!
//! - [`spec`]: the Table II component catalog (power, area, counts) and
//!   derived quantities.
//! - [`tiling`]: how matrices map onto crossbars (horizontal/vertical
//!   tiling extension, §II-B), crossbar counting used by the allocator.
//! - [`timing`]: latencies of MVM, row writes and buffer traffic.
//! - [`energy`]: per-operation energy and leakage accounting.
//! - [`crossbar`]: a *functional* crossbar that performs bit-sliced,
//!   ADC-quantized MVM — used to validate that the analog dataflow
//!   computes correct numerics.
//!
//! # Example
//!
//! ```
//! use gopim_reram::spec::AcceleratorSpec;
//! use gopim_reram::tiling;
//!
//! let spec = AcceleratorSpec::paper();
//! assert_eq!(spec.total_crossbars(), 16_777_216);
//! // The ddi weight matrix (256×256) occupies 32 crossbars (Table VI).
//! assert_eq!(tiling::crossbars_for_matrix(&spec, 256, 256), 32);
//! ```

#![warn(missing_docs)]

pub mod area;
pub mod crossbar;
pub mod endurance;
pub mod energy;
pub mod noc;
pub mod spec;
pub mod tiled;
pub mod tiling;
pub mod timing;

pub use spec::AcceleratorSpec;
