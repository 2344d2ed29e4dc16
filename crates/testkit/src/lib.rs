//! Hermetic in-repo testkit: property testing, golden snapshots, and
//! microbenchmarks with **zero external dependencies**.
//!
//! The build environment has no crates-io access, so `proptest` and
//! `criterion` can never resolve here. This crate replaces both with
//! small, deterministic, offline-runnable equivalents:
//!
//! - [`prop`] — a property-testing harness. Tests draw named random
//!   values through a [`prop::Draw`], the harness records the raw
//!   entropy stream, and on failure it *shrinks the stream* (zeroing,
//!   halving, truncating draws) to a minimal counterexample, then
//!   reports every named draw of that minimal case. Deterministic by
//!   default; `GOPIM_PT_SEED` / `GOPIM_PT_CASES` override the base
//!   seed and case count.
//! - [`golden`] — golden-snapshot checks. Results serialize to
//!   `tests/golden/*.txt` at the workspace root; numeric fields
//!   compare under a configurable relative tolerance, everything else
//!   exactly. `GOPIM_GOLDEN=update` regenerates the files.
//! - [`bench`] — a wall-clock microbenchmark runner (warmup, then
//!   median-of-N with MAD spread) that prints human-readable tables
//!   and machine-readable JSON lines, replacing criterion for the
//!   `crates/core/benches/*` targets.
//! - [`gen`] — domain generators (CSR graphs, degree profiles, stage
//!   timing specs) shared by the ported property suites.
//!
//! The PRNG underneath everything is [`gopim_rng`]
//! (SplitMix64-seeded xoshiro256++), re-exported here so test code
//! needs only one import.

#![warn(missing_docs)]

pub mod bench;
pub mod gen;
pub mod golden;
pub mod prop;

pub use gopim_rng::{mix_seed, rngs::SmallRng, Rng, SeedableRng};

use std::path::PathBuf;

/// Absolute path of the workspace root (derived from this crate's
/// manifest directory at compile time).
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        // lint:allow(no-panic-in-lib): CARGO_MANIFEST_DIR is a compile-time constant two levels below the root
        .expect("crates/testkit sits two levels below the workspace root")
        .to_path_buf()
}
