//! Minimal property-testing harness with stream-level shrinking.
//!
//! A property is a closure over a [`Draw`]: it pulls named random
//! values (`d.draw("n", 1..64)`, `d.vec("edges", 0..200, |d| …)`) and
//! asserts invariants with plain `assert!` / `assert_eq!`. The
//! harness runs it for a configurable number of cases, each seeded
//! deterministically from a base seed.
//!
//! **Shrinking** works on the recorded entropy stream rather than on
//! typed values (the Hypothesis approach): every draw consumes one
//! raw `u64`, and all draw-to-value mappings are monotone, so zeroing
//! /halving/truncating raw words moves every drawn value toward the
//! bottom of its range. When a case fails, the harness minimizes the
//! stream while the property keeps failing, then replays the minimal
//! stream once more with logging enabled and reports every named draw
//! of the minimal counterexample.
//!
//! **Replay** is deterministic by default: the base seed is a fixed
//! constant, so CI runs are reproducible. Environment overrides:
//!
//! - `GOPIM_PT_SEED` — base seed (decimal or `0x…` hex). A failure
//!   report prints the exact value to re-run with.
//! - `GOPIM_PT_CASES` — overrides the per-property case count.

use gopim_rng::{mix_seed, rngs::SmallRng, Rng, SampleRange, SeedableRng};
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};

/// Base seed used when `GOPIM_PT_SEED` is not set. Fixed so that
/// `cargo test` is deterministic run-to-run and machine-to-machine.
pub const DEFAULT_SEED: u64 = 0x60_91_4D_5E_ED_00_01;

/// Default number of cases per property when neither the property nor
/// `GOPIM_PT_CASES` says otherwise.
pub const DEFAULT_CASES: usize = 64;

/// Per-property configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases.
    pub cases: usize,
    /// Maximum property re-executions spent shrinking a failure.
    pub max_shrink_iters: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: DEFAULT_CASES,
            max_shrink_iters: 1_000,
        }
    }
}

impl Config {
    /// A config with the given case count (the common override).
    pub fn cases(cases: usize) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }
}

fn env_seed() -> u64 {
    match &gopim_obs::env::get().pt_seed {
        Some(s) => {
            let s = s.trim();
            let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                u64::from_str_radix(hex, 16)
            } else {
                s.parse()
            };
            // lint:allow(no-panic-in-lib): property harness aborts loudly on a malformed replay seed
            parsed.unwrap_or_else(|_| panic!("GOPIM_PT_SEED must be a u64, got {s:?}"))
        }
        None => DEFAULT_SEED,
    }
}

fn env_cases(default: usize) -> usize {
    match &gopim_obs::env::get().pt_cases {
        Some(s) => s
            .trim()
            .parse()
            // lint:allow(no-panic-in-lib): property harness aborts loudly on a malformed case count
            .unwrap_or_else(|_| panic!("GOPIM_PT_CASES must be a usize, got {s:?}")),
        None => default,
    }
}

enum Mode {
    /// Fresh entropy from the PRNG, recording every word.
    Record(SmallRng),
    /// Replaying a recorded stream; draws past the end read 0 (which
    /// maps to the bottom of every range).
    Replay,
}

/// The value source handed to a property closure.
///
/// Every method takes a `name` used in failure reports; draws consume
/// one raw `u64` each from the underlying stream.
pub struct Draw {
    mode: Mode,
    stream: Vec<u64>,
    pos: usize,
    log: Option<Vec<(String, String)>>,
    log_suspended: usize,
}

/// Adapter exposing a [`Draw`]'s raw stream as a [`Rng`] so the range
/// reduction logic in `gopim-rng` can be reused verbatim.
struct RawRng<'a>(&'a mut Draw);

impl Rng for RawRng<'_> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.0.raw()
    }
}

impl Draw {
    fn record(seed: u64) -> Self {
        Draw {
            mode: Mode::Record(SmallRng::seed_from_u64(seed)),
            stream: Vec::new(),
            pos: 0,
            log: None,
            log_suspended: 0,
        }
    }

    fn replay(stream: Vec<u64>, with_log: bool) -> Self {
        Draw {
            mode: Mode::Replay,
            stream,
            pos: 0,
            log: with_log.then(Vec::new),
            log_suspended: 0,
        }
    }

    #[inline]
    fn raw(&mut self) -> u64 {
        let v = match &mut self.mode {
            Mode::Record(rng) => {
                let v = rng.next_u64();
                self.stream.push(v);
                v
            }
            Mode::Replay => self.stream.get(self.pos).copied().unwrap_or(0),
        };
        self.pos += 1;
        v
    }

    fn note(&mut self, name: &str, value: &dyn Debug) {
        if self.log_suspended == 0 {
            if let Some(log) = &mut self.log {
                log.push((name.to_string(), format!("{value:?}")));
            }
        }
    }

    /// Draws one value uniformly from `range` (any integer or float
    /// range type supported by [`gopim_rng::SampleRange`]).
    pub fn draw<T: Debug, S: SampleRange<T>>(&mut self, name: &str, range: S) -> T {
        let v = range.sample_from(&mut RawRng(self));
        self.note(name, &v);
        v
    }

    /// Draws `true` with probability `p`. Shrinks toward `false`.
    pub fn bool_with(&mut self, name: &str, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "bool_with: p = {p} not in [0, 1]");
        // Raw 0 maps to false (unless p == 1), so stream shrinking
        // turns bools off.
        let unit = (self.raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let v = unit >= 1.0 - p;
        self.note(name, &v);
        v
    }

    /// Fair coin. Shrinks toward `false`.
    pub fn any_bool(&mut self, name: &str) -> bool {
        self.bool_with(name, 0.5)
    }

    /// Uniformly picks one of `options` (cloned). Shrinks toward the
    /// first option.
    pub fn pick<T: Clone + Debug>(&mut self, name: &str, options: &[T]) -> T {
        assert!(!options.is_empty(), "pick: no options");
        let i: usize = { 0..options.len() }.sample_from(&mut RawRng(self));
        let v = options[i].clone();
        self.note(name, &v);
        v
    }

    /// Draws a vector whose length is drawn from `len` and whose
    /// elements come from `elem`. Shrinks toward shorter vectors of
    /// smaller elements. The whole vector is logged under `name`;
    /// element-level draws are not logged individually.
    pub fn vec<T: Debug, S: SampleRange<usize>>(
        &mut self,
        name: &str,
        len: S,
        mut elem: impl FnMut(&mut Draw) -> T,
    ) -> Vec<T> {
        let n: usize = len.sample_from(&mut RawRng(self));
        self.log_suspended += 1;
        let v: Vec<T> = (0..n).map(|_| elem(self)).collect();
        self.log_suspended -= 1;
        self.note(name, &v);
        v
    }
}

/// Outcome of one property execution.
enum Run {
    Pass,
    Fail(String),
}

fn run_once(prop: &dyn Fn(&mut Draw), draw: &mut Draw) -> Run {
    let result = panic::catch_unwind(AssertUnwindSafe(|| prop(draw)));
    match result {
        Ok(()) => Run::Pass,
        Err(payload) => Run::Fail(panic_message(payload.as_ref())),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic payload>".to_string())
    }
}

fn fails(prop: &dyn Fn(&mut Draw), stream: &[u64]) -> bool {
    let mut draw = Draw::replay(stream.to_vec(), false);
    matches!(run_once(prop, &mut draw), Run::Fail(_))
}

/// Minimizes a failing stream in two phases: truncate the tail
/// (removing whole draws — replayed draws past the end read 0), then
/// binary-search each word down to the smallest value that still
/// fails. Draw-to-value mappings are monotone in the raw word, so
/// word minimization drives every drawn value to the bottom of the
/// failing region.
fn shrink(prop: &dyn Fn(&mut Draw), mut stream: Vec<u64>, budget: usize) -> Vec<u64> {
    let mut spent = 0;
    // Phase 1: truncations, coarsest first.
    'truncate: loop {
        let n = stream.len();
        for keep in [0, n / 4, n / 2, (3 * n) / 4, n.saturating_sub(1)] {
            if keep >= n || spent >= budget {
                break 'truncate;
            }
            let candidate = stream[..keep].to_vec();
            spent += 1;
            if fails(prop, &candidate) {
                stream = candidate;
                continue 'truncate;
            }
        }
        break;
    }
    // Phase 2: per-word minimization. The invariant throughout: the
    // current `stream` fails; `hi` is only ever assigned a value
    // verified failing with the rest of the stream fixed.
    for i in 0..stream.len() {
        if spent >= budget {
            break;
        }
        let original = stream[i];
        if original == 0 {
            continue;
        }
        stream[i] = 0;
        spent += 1;
        if fails(prop, &stream) {
            continue;
        }
        let (mut lo, mut hi) = (1u64, original);
        while lo < hi && spent < budget {
            let mid = lo + (hi - lo) / 2;
            stream[i] = mid;
            spent += 1;
            if fails(prop, &stream) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        stream[i] = hi;
    }
    stream
}

/// Runs `prop` for [`Config::default`] cases. Panics with a shrunk,
/// named counterexample on failure.
pub fn check(name: &str, prop: impl Fn(&mut Draw)) {
    check_with(name, Config::default(), prop);
}

/// Runs `prop` under an explicit [`Config`].
pub fn check_with(name: &str, config: Config, prop: impl Fn(&mut Draw)) {
    let base_seed = env_seed();
    let cases = env_cases(config.cases);
    // Silence the per-case panic hook while probing/shrinking; the
    // final report goes through a fresh panic at the end.
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut failure = None;
    for case in 0..cases {
        let case_seed = mix_seed(base_seed, case as u64);
        let mut draw = Draw::record(case_seed);
        if let Run::Fail(first_msg) = run_once(&prop, &mut draw) {
            let minimal = shrink(&prop, draw.stream, config.max_shrink_iters);
            // Replay the minimal stream once more, logging each named
            // draw for the report.
            let mut report_draw = Draw::replay(minimal, true);
            let final_msg = match run_once(&prop, &mut report_draw) {
                Run::Fail(m) => m,
                // The shrinker only keeps failing candidates, so this
                // replay must fail too; fall back defensively.
                Run::Pass => first_msg,
            };
            failure = Some((case, final_msg, report_draw.log.unwrap_or_default()));
            break;
        }
    }
    panic::set_hook(hook);
    if let Some((case, msg, log)) = failure {
        let mut lines = String::new();
        for (key, value) in &log {
            lines.push_str(&format!("    {key} = {value}\n"));
        }
        // lint:allow(no-panic-in-lib): panicking is how the property harness reports a counterexample to the test runner
        panic!(
            "property '{name}' failed at case {case}/{cases}\n  \
             minimal counterexample:\n{lines}  assertion: {msg}\n  \
             replay with: GOPIM_PT_SEED={base_seed:#x} GOPIM_PT_CASES={cases}\n"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn passing_property_draws_deterministically() {
        use std::cell::RefCell;
        let mut seen = Vec::new();
        for _ in 0..2 {
            let values = RefCell::new(Vec::new());
            check_with("probe", Config::cases(4), |d| {
                values.borrow_mut().push(d.draw("n", 0u64..1000));
            });
            seen.push(values.into_inner());
        }
        assert_eq!(seen[0], seen[1]);
        assert_eq!(seen[0].len(), 4);
    }

    #[test]
    fn failing_property_reports_minimal_case() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            check_with("always_small", Config::cases(32), |d| {
                let n = d.draw("n", 0usize..10_000);
                assert!(n < 50, "n too big");
            });
        }));
        let msg = match result {
            Ok(()) => panic!("property should have failed"),
            Err(p) => super::panic_message(p.as_ref()),
        };
        assert!(msg.contains("always_small"), "report: {msg}");
        assert!(msg.contains("GOPIM_PT_SEED"), "report: {msg}");
        // The shrinker should land on the boundary counterexample.
        assert!(msg.contains("n = 50"), "report: {msg}");
    }

    #[test]
    fn vec_draws_shrink_to_short_vectors() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            check_with("no_long_vecs", Config::cases(32), |d| {
                let v = d.vec("v", 0usize..100, |d| d.draw("x", 0u32..5));
                assert!(v.len() < 3);
            });
        }));
        let msg = match result {
            Ok(()) => panic!("property should have failed"),
            Err(p) => super::panic_message(p.as_ref()),
        };
        // Minimal failing vector has exactly 3 minimal elements.
        assert!(msg.contains("v = [0, 0, 0]"), "report: {msg}");
    }

    #[test]
    fn bools_and_picks_shrink_to_defaults() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            check_with("coin", Config::cases(64), |d| {
                let b = d.any_bool("b");
                let p = d.pick("p", &[16usize, 32, 64]);
                assert!(!(b && p >= 16));
            });
        }));
        let msg = match result {
            Ok(()) => panic!("property should have failed"),
            Err(p) => super::panic_message(p.as_ref()),
        };
        assert!(msg.contains("b = true"), "report: {msg}");
        assert!(msg.contains("p = 16"), "report: {msg}");
    }
}
