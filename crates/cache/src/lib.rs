//! Canonical-hash run cache for the GoPIM reproduction.
//!
//! The reproduce sweep re-requests heavily overlapping work: several
//! figures simulate the same `(dataset, system, config)` tuple, sweep
//! points share workload construction and allocation inputs, and a
//! warm re-run of a whole experiment binary repeats everything it did
//! the first time. This crate removes that redundancy without touching
//! the bit-determinism contract:
//!
//! - [`hash`] — a **canonical request key**: a fixed-key structural
//!   hasher (no `RandomState`, no pointer identity) plus the derive-free
//!   [`CanonicalHash`] trait that config types across the workspace
//!   implement field by field. Equal requests hash equal in every
//!   process on every platform; any semantic field change moves the key.
//! - [`codec`] — a tiny length-prefixed byte codec ([`CacheValue`])
//!   so results round-trip through the store as exact bytes. Floats
//!   travel as IEEE-754 bit patterns; a decoded result is bitwise
//!   identical to the encoded one by construction.
//! - [`store`] — the two-tier content-addressed [`RunCache`]: an
//!   in-process map for intra-sweep hits, plus an opt-in on-disk tier
//!   (`GOPIM_CACHE=dir`) with version/key-schema stamping and
//!   corruption-safe miss-on-mismatch semantics.
//! - [`memo`] — [`Memo`], an in-process `Arc`-sharing memo table for
//!   expensive intermediates (degree profiles, built workloads,
//!   allocation inputs) that sweep points share copy-on-write.
//!
//! Both in-process tiers — the run cache's memory map and every memo —
//! are one byte-budgeted FIFO table type (`table::FifoTable`): an
//! entry's weight, not the entry count, bounds what stays resident.
//!
//! Everything is std-only and hermetic. The cache is a pure
//! performance layer: a hit returns the same bytes a fresh computation
//! would produce, which the differential harness in
//! `tests/cache_differential.rs` pins bitwise.
//!
//! Kill switch: `GOPIM_NO_CACHE=1` disables every tier, memos
//! included, for a process. In-process tests that need a fresh
//! computation call the uncached twin of each cached entry point
//! instead (e.g. `run_system` for `run_system_cached`).

pub mod codec;
pub mod hash;
pub mod memo;
pub mod store;
mod table;

pub use codec::{CacheValue, Decoder, Encoder};
pub use hash::{key_of, CacheKey, CanonicalHash, CanonicalHasher, KEY_SCHEMA_VERSION};
pub use memo::Memo;
pub use store::{global, RunCache, StatsSnapshot};
