//! Dependency-free telemetry for the GoPIM reproduction.
//!
//! The workspace's hot paths — the matmul kernels, the `gopim-par`
//! pool, the pipeline simulators, the experiment runner — record
//! *what* they did and *how long* it took through this crate. Three
//! subsystems, all hermetic and std-only in the same spirit as
//! `gopim-rng` / `gopim-par`:
//!
//! - [`metrics`] — a global registry of counters, gauges and
//!   fixed-bucket (power-of-two) histograms behind relaxed atomics.
//!   Snapshots are cheap, mergeable and diffable, which is how the
//!   testkit bench runner reports per-iteration counter deltas.
//! - [`span`] — lightweight scoped timers ([`span!`]) recording into
//!   per-thread buffers that a global collector drains. A second
//!   event family carries *simulated-time* intervals (the pipeline
//!   DES timeline), so one Chrome trace shows wall-clock work and the
//!   simulated schedule side by side.
//! - [`log`] — a level-gated logging facade ([`log_error!`] …
//!   [`log_debug!`]) honoring `GOPIM_LOG`, replacing ad-hoc
//!   `eprintln!` progress lines.
//!
//! # Overhead contract
//!
//! Everything is **off by default** and the disabled path is one
//! relaxed atomic load plus a predictable branch — no allocation, no
//! clock read, no locking. Enablement comes from the typed config in
//! [`env`] (`GOPIM_TRACE`, `GOPIM_PROFILE`, `GOPIM_PROFILE_FOLDED`,
//! `GOPIM_MANIFEST`, `GOPIM_METRICS`, `GOPIM_LOG`).
//!
//! Binaries opt in with one line:
//!
//! ```no_run
//! fn main() {
//!     let _telemetry = gopim_obs::attach();
//!     // ... the run; spans/metrics flush when _telemetry drops ...
//! }
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod env;
pub mod export;
pub mod lockdep;
pub mod log;
pub mod manifest;
pub mod metrics;
pub mod report;
pub mod span;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub use lockdep::{lockdep_enabled, set_lockdep_enabled, DepCondvar, DepMutex, DepMutexGuard};
pub use span::SpanGuard;

/// A hot-path on/off gate: one relaxed atomic load once seeded. It is
/// seeded from the config on first read and can be forced by a test
/// setter. State: 0 = unseeded, 1 = off, 2 = on.
pub struct EnvFlag {
    state: AtomicU8,
    read: fn() -> bool,
}

impl EnvFlag {
    /// A gate seeded by `read` (typically a field of [`env::get`]).
    pub const fn new(read: fn() -> bool) -> Self {
        EnvFlag {
            state: AtomicU8::new(0),
            read,
        }
    }

    /// The gate's state.
    #[inline]
    pub fn get(&self) -> bool {
        match self.state.load(Ordering::Relaxed) {
            0 => self.init(),
            s => s == 2,
        }
    }

    #[cold]
    fn init(&self) -> bool {
        let on = (self.read)();
        self.state.store(if on { 2 } else { 1 }, Ordering::Relaxed);
        on
    }

    /// Forces the gate on or off, overriding the config.
    pub fn set(&self, on: bool) {
        self.state.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    }
}

// Spans are collected whenever *any* span consumer is configured:
// the Chrome trace, the profile report, the folded-stack export, or
// the run manifest.
static TRACE: EnvFlag = EnvFlag::new(|| {
    let env = env::get();
    env.trace.is_some()
        || env.profile.is_some()
        || env.profile_folded.is_some()
        || env.manifest.is_some()
});
static METRICS: EnvFlag = EnvFlag::new(|| env::get().metrics);
static MANIFEST: EnvFlag = EnvFlag::new(|| env::get().manifest.is_some());

/// Whether span collection is on (`GOPIM_TRACE` set, or forced by
/// [`set_trace_enabled`]). The disabled path is a relaxed load.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE.get()
}

/// Whether metrics collection is on (`GOPIM_METRICS=1`, or forced by
/// [`set_metrics_enabled`]). The disabled path is a relaxed load.
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS.get()
}

/// Forces span collection on or off, overriding the config —
/// for tests and embedders that manage their own export.
pub fn set_trace_enabled(on: bool) {
    TRACE.set(on);
}

/// Forces metrics collection on or off, overriding the config.
pub fn set_metrics_enabled(on: bool) {
    METRICS.set(on);
}

/// Whether run-manifest collection is on (`GOPIM_MANIFEST` set, or
/// forced by [`set_manifest_enabled`]). The disabled path is a
/// relaxed load — [`manifest::record_u64`] and friends check this
/// before touching any lock.
#[inline]
pub fn manifest_enabled() -> bool {
    MANIFEST.get()
}

/// Forces manifest collection on or off, overriding the config.
pub fn set_manifest_enabled(on: bool) {
    MANIFEST.set(on);
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the process's telemetry epoch (the
/// first call to this function or to [`attach`]).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Flushes telemetry on drop: writes the Chrome trace (`GOPIM_TRACE`),
/// the aggregated profile (`GOPIM_PROFILE`), the collapsed stacks
/// (`GOPIM_PROFILE_FOLDED`), the run manifest (`GOPIM_MANIFEST`), and
/// prints the metrics report to stderr when `GOPIM_METRICS` is on.
/// Create one at the top of `main` via [`attach`].
#[must_use = "telemetry flushes when the guard drops"]
pub struct TelemetryGuard {
    trace_path: Option<String>,
    /// `1` or `stderr` prints the profile; anything else is a path.
    profile: Option<String>,
    folded_path: Option<String>,
    manifest_path: Option<String>,
    command: String,
}

/// Initializes telemetry from the config and returns the guard that
/// exports everything on drop. Parsing the config here logs its
/// warnings (unknown or malformed `GOPIM_*` knobs) at the start of the
/// run. Safe to call when no telemetry knob is set — the guard is then
/// inert.
pub fn attach() -> TelemetryGuard {
    // Pin the epoch at attach time so span timestamps are relative to
    // the start of the run, not to the first span.
    let _ = now_ns();
    let env = env::get();
    let collecting = trace_enabled();
    TelemetryGuard {
        trace_path: env.trace.clone().filter(|_| collecting),
        profile: env.profile.clone().filter(|_| collecting),
        folded_path: env.profile_folded.clone().filter(|_| collecting),
        manifest_path: env.manifest.clone().filter(|_| manifest_enabled()),
        command: std::env::args().collect::<Vec<_>>().join(" "),
    }
}

fn write_artifact(what: &str, path: &str, contents: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => crate::log_info!("telemetry: wrote {what} to {path}"),
        Err(e) => crate::log_error!("telemetry: failed to write {what} {path}: {e}"),
    }
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        let consuming_spans = self.trace_path.is_some()
            || self.profile.is_some()
            || self.folded_path.is_some()
            || self.manifest_path.is_some();
        if consuming_spans {
            // Read the loss count *before* draining (drain resets it),
            // then drain exactly once and feed every consumer from the
            // same buffer.
            let dropped = span::dropped();
            let events = span::drain();
            if dropped > 0 {
                crate::log_warn!("telemetry: span buffer full, dropped {dropped} events");
            }
            if let Some(path) = &self.trace_path {
                match export::write_chrome_trace(path, &events) {
                    Ok(()) => {
                        crate::log_info!("telemetry: wrote {} trace events to {path}", events.len())
                    }
                    Err(e) => crate::log_error!("telemetry: failed to write {path}: {e}"),
                }
            }
            if self.profile.is_some() || self.folded_path.is_some() || self.manifest_path.is_some()
            {
                let agg = aggregate::aggregate(&events, dropped);
                match self.profile.as_deref() {
                    Some("1" | "stderr") => eprint!("{}", report::render_profile(&agg)),
                    Some(path) => write_artifact("profile", path, &report::render_profile(&agg)),
                    None => {}
                }
                if let Some(path) = &self.folded_path {
                    write_artifact("folded stacks", path, &report::render_folded(&agg));
                }
                if let Some(path) = &self.manifest_path {
                    let snapshot = metrics::global().snapshot();
                    write_artifact(
                        "run manifest",
                        path,
                        &manifest::render_manifest(&self.command, &agg, &snapshot),
                    );
                }
            }
        }
        if metrics_enabled() {
            let snapshot = metrics::global().snapshot();
            if !snapshot.is_empty() {
                eprintln!("{}", snapshot.render());
            }
        }
        if lockdep_enabled() {
            if let Some(path) = &env::get().lockdep_dump {
                write_artifact("lockdep witness", path, &lockdep::render_witness());
            }
        }
    }
}
