//! One measured pass: the operation ledger (attempted / failed, with
//! panics caught), the output digest, benchmark-side timing of calls
//! into the program's layers, and the JSON record run.py reads.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use gopim_obs::export::escape_json;

/// Failure messages kept per pass (the count is always exact).
const MAX_FAILURE_MESSAGES: usize = 8;

/// Accumulated time and call count of one benchmark-timed layer call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Summed call durations, seconds.
    pub seconds: f64,
    /// Number of calls.
    pub calls: u64,
}

/// FNV-1a over everything a workload feeds it: a pass's output
/// fingerprint, equal across passes, commits and trace settings
/// whenever the program's outputs are bitwise equal.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a float in by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a length-prefixed string in.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The state of one pass.
pub struct Pass {
    /// Workload name.
    pub workload: String,
    /// Benchmark seed.
    pub seed: u64,
    /// Whether the program's telemetry (spans + metrics) is on.
    pub traced: bool,
    spawned: Option<SystemTime>,
    started: Instant,
    first_op: Option<(Instant, SystemTime)>,
    ops_end: Option<Instant>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, panicked, were refused or broke an
    /// output invariant.
    pub failed: u64,
    failures: Vec<String>,
    /// Output fingerprint.
    pub digest: Digest,
    /// Benchmark-timed layer calls, by per-layer metric stem.
    pub timed: BTreeMap<&'static str, Timed>,
    /// Time spent inside top-level timed calls (the traced pass's
    /// attributed wall time).
    covered: Duration,
    /// Workload-specific end-to-end figures (paper error, serve
    /// throughput and latency quantiles).
    pub extra: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced pass only); `None` = absent.
    pub layers: Vec<(&'static str, &'static str, Option<f64>)>,
}

impl Pass {
    /// Starts a pass. `spawned` is the wall-clock instant the parent
    /// spawned this process, so set-up time covers process start.
    pub fn new(workload: &str, seed: u64, spawned: Option<SystemTime>) -> Pass {
        Pass {
            workload: workload.to_string(),
            seed,
            traced: gopim_obs::trace_enabled() || gopim_obs::metrics_enabled(),
            spawned,
            started: Instant::now(),
            first_op: None,
            ops_end: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            digest: Digest::default(),
            timed: BTreeMap::new(),
            covered: Duration::ZERO,
            extra: BTreeMap::new(),
            layers: Vec::new(),
        }
    }

    /// Marks the end of set-up: the first operation is about to be
    /// issued. Idempotent.
    pub fn begin_ops(&mut self) {
        if self.first_op.is_none() {
            self.first_op = Some((Instant::now(), SystemTime::now()));
        }
    }

    /// Marks the end of the measured operations (checks that follow
    /// are not part of `wall_s`).
    pub fn end_ops(&mut self) {
        self.begin_ops();
        self.ops_end = Some(Instant::now());
    }

    /// Records one failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(what.into());
        }
    }

    /// Checks an output invariant of an already-counted operation;
    /// a violation fails the operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Runs one operation: counts it, catches a panic or error as a
    /// failure, and (when `stem` is set) times it as a layer call whose
    /// time counts as attributed.
    pub fn op<T>(
        &mut self,
        name: &str,
        stem: Option<&'static str>,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Option<T> {
        self.begin_ops();
        self.attempted += 1;
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(f));
        let dt = t0.elapsed();
        if let Some(stem) = stem {
            self.covered += dt;
            self.add_timed(stem, dt.as_secs_f64(), 1);
        }
        match out {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.fail(format!("{name}: {e}"));
                None
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panic".to_string());
                self.fail(format!("{name}: panicked: {msg}"));
                None
            }
        }
    }

    /// Times a call that is not an operation (input generation during
    /// set-up, the traced pass's layer probes).
    pub fn timed<T>(&mut self, stem: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let v = f();
        let dt = t0.elapsed();
        self.covered += dt;
        self.add_timed(stem, dt.as_secs_f64(), 1);
        v
    }

    /// Runs a batch of operations that are counted individually by the
    /// caller (e.g. fanned over the pool), as attributed wall time.
    pub fn batch<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.begin_ops();
        let t0 = Instant::now();
        let v = f();
        self.covered += t0.elapsed();
        v
    }

    /// Adds time the caller measured to a stem.
    pub fn add_timed(&mut self, stem: &'static str, seconds: f64, calls: u64) {
        let t = self.timed.entry(stem).or_default();
        t.seconds += seconds;
        t.calls += calls;
    }

    /// Seconds from process spawn (or `main`, when the spawn time is
    /// unknown) to the first operation.
    pub fn setup_s(&self) -> f64 {
        match (self.first_op, self.spawned) {
            (Some((_, wall)), Some(spawned)) => wall
                .duration_since(spawned)
                .unwrap_or(Duration::ZERO)
                .as_secs_f64(),
            (Some((t, _)), None) => (t - self.started).as_secs_f64(),
            (None, _) => self.started.elapsed().as_secs_f64(),
        }
    }

    /// Seconds from the first operation to the end of the last.
    pub fn wall_s(&self) -> f64 {
        match (self.first_op, self.ops_end) {
            (Some((a, _)), Some(b)) => (b - a).as_secs_f64(),
            (Some((a, _)), None) => a.elapsed().as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Share of the process's wall time covered by no timed call.
    pub fn unattributed_frac(&self) -> f64 {
        let total = match self.spawned {
            Some(spawned) => SystemTime::now()
                .duration_since(spawned)
                .unwrap_or(Duration::ZERO)
                .as_secs_f64(),
            None => self.started.elapsed().as_secs_f64(),
        };
        if total <= 0.0 {
            return 0.0;
        }
        (1.0 - self.covered.as_secs_f64() / total).clamp(0.0, 1.0)
    }

    /// The pass record as one line of JSON.
    pub fn to_json(&self) -> String {
        let num = |v: f64| {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        };
        let mut s = String::from("{");
        s += &format!("\"workload\":\"{}\",", escape_json(&self.workload));
        s += &format!("\"seed\":{},", self.seed);
        s += &format!("\"traced\":{},", self.traced);
        s += &format!("\"setup_s\":{},", num(self.setup_s()));
        s += &format!("\"wall_s\":{},", num(self.wall_s()));
        s += &format!("\"attempted\":{},", self.attempted);
        s += &format!("\"failed\":{},", self.failed);
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", escape_json(f)))
            .collect();
        s += &format!("\"failures\":[{}],", failures.join(","));
        s += &format!("\"digest\":\"{}\",", self.digest.hex());
        s += &format!("\"cache_hits\":{},", gopim_cache::global().stats().hits);
        let extra: Vec<String> = self
            .extra
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
            .collect();
        s += &format!("\"extra\":{{{}}},", extra.join(","));
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|(name, unit, v)| {
                let value = v.map_or("null".to_string(), num);
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        s += &format!("\"layers\":{{{}}}", layers.join(","));
        s.push('}');
        s
    }
}

/// Parses the parent's spawn stamp (nanoseconds since the Unix epoch).
pub fn spawn_time(unix_ns: u64) -> SystemTime {
    UNIX_EPOCH + Duration::from_nanos(unix_ns)
}
