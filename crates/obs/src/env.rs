//! The one typed view of every `GOPIM_*` environment knob.
//!
//! [`get`] reads the process environment once into an [`Env`] with one
//! typed field per knob; no other code reads it (the `no-adhoc-env`
//! lint rule). A **flag** is on for `1`/`true`/`yes`/`on` and off when
//! unset or `""`/`0`/`false`/`no`/`off`; a **path** is off when unset,
//! empty or `0`; a malformed flag, number or level warns and falls back.
//! A **selection** (seeds, rate lists) picks *what* is computed, so its
//! reader rejects a malformed value as a hard error. An unknown
//! `GOPIM_*` name warns too. Warnings are logged after parsing, because
//! `GOPIM_LOG` is itself a knob.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::log::Level;

/// Declares the parsed knobs once — field, type, rule, name — and
/// derives [`Env`], its parser and [`KNOBS`] from that list.
macro_rules! knobs {
    ($($field:ident: $ty:ty = $rule:ident($name:literal),)* ; $($other:literal,)*) => {
        /// The parsed configuration: one field per knob, in [`KNOBS`]
        /// order (README's knob table says what each one does).
        #[derive(Debug)]
        pub struct Env {
            $(#[doc = concat!("`", $name, "`")] pub $field: $ty,)*
            /// Every parsed knob's effective value, in [`KNOBS`] order.
            pub effective: Vec<(&'static str, String)>,
            /// Malformed values and unknown names found while parsing.
            pub warnings: Vec<String>,
        }

        /// Every settable `GOPIM_*` name: the parsed knobs, then those
        /// only scripts and tests read.
        pub const KNOBS: &[&str] = &[$($name,)* $($other,)*];

        fn parse(mut p: Parser) -> Env {
            Env {
                $($field: p.$rule($name),)*
                effective: p.effective,
                warnings: p.warnings,
            }
        }
    };
}

knobs! {
    trace: Option<String> = path("GOPIM_TRACE"),
    metrics: bool = flag("GOPIM_METRICS"),
    profile: Option<String> = path("GOPIM_PROFILE"),
    profile_folded: Option<String> = path("GOPIM_PROFILE_FOLDED"),
    manifest: Option<String> = path("GOPIM_MANIFEST"),
    log: Option<Level> = level("GOPIM_LOG"),
    lockdep: bool = flag("GOPIM_LOCKDEP"),
    lockdep_dump: Option<String> = path("GOPIM_LOCKDEP_DUMP"),
    threads: Option<usize> = number("GOPIM_THREADS"),
    no_simd: bool = flag("GOPIM_NO_SIMD"),
    cache: Option<String> = path("GOPIM_CACHE"),
    no_cache: bool = flag("GOPIM_NO_CACHE"),
    serve_workers: Option<usize> = number("GOPIM_SERVE_WORKERS"),
    golden_update: bool = update("GOPIM_GOLDEN"),
    bench_fast: bool = flag("GOPIM_BENCH_FAST"),
    bench_samples: Option<usize> = number("GOPIM_BENCH_SAMPLES"),
    bench_json: Option<String> = path("GOPIM_BENCH_JSON"),
    pt_seed: Option<String> = selection("GOPIM_PT_SEED"),
    pt_cases: Option<String> = selection("GOPIM_PT_CASES"),
    fault_seed: Option<String> = selection("GOPIM_FAULT_SEED"),
    fault_rates: Option<String> = selection("GOPIM_FAULT_RATES"),
    lint_json: Option<String> = path("GOPIM_LINT_JSON"),
    ;
    // Read by scripts only.
    "GOPIM_RESULTS_DIR",
    "GOPIM_NO_SERVE",
    "GOPIM_NO_PERF_RATCHET",
    "GOPIM_NO_LOCKDEP",
    "GOPIM_BENCH_BASELINE",
    "GOPIM_BENCH_TOLERANCE",
    // Set by integration tests for their own child processes.
    "GOPIM_DET_DIGEST_OUT",
    "GOPIM_CACHE_DIFF_OUT",
}

/// The process configuration, parsed from the environment on first
/// use; the first caller also logs the parse warnings.
pub fn get() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    let mut fresh = false;
    let env = ENV.get_or_init(|| {
        fresh = true;
        // Non-UTF-8 entries cannot name a knob or hold a usable value.
        Env::from_vars(
            std::env::vars_os()
                .filter_map(|(k, v)| Some((k.into_string().ok()?, v.into_string().ok()?))),
        )
    });
    if fresh {
        for warning in &env.warnings {
            crate::log_warn!("config: {warning}");
        }
    }
    env
}

impl Env {
    /// Parses a configuration from `(name, value)` pairs; names outside
    /// the `GOPIM_` namespace are ignored.
    pub fn from_vars<K: Into<String>, V: Into<String>>(
        vars: impl IntoIterator<Item = (K, V)>,
    ) -> Env {
        let vars: BTreeMap<String, String> = vars
            .into_iter()
            .map(|(k, v)| (k.into(), v.into()))
            .filter(|(k, _)| k.starts_with("GOPIM_"))
            .collect();
        let warnings = vars
            .keys()
            .filter(|k| !KNOBS.contains(&k.as_str()))
            .map(|k| format!("unknown knob {k} is ignored (README's knob table lists them all)"))
            .collect();
        parse(Parser {
            vars,
            effective: Vec::new(),
            warnings,
        })
    }
}

struct Parser {
    vars: BTreeMap<String, String>,
    effective: Vec<(&'static str, String)>,
    warnings: Vec<String>,
}

impl Parser {
    /// Takes `name`'s value; unset and empty are the same.
    fn take(&mut self, name: &str) -> Option<String> {
        self.vars.remove(name).filter(|v| !v.is_empty())
    }

    fn record<T>(&mut self, name: &'static str, shown: &str, value: T) -> T {
        self.effective.push((name, shown.to_string()));
        value
    }

    fn warn(&mut self, name: &str, value: &str, problem: &str) {
        self.warnings.push(format!("{name}={value:?} {problem}"));
    }

    fn flag(&mut self, name: &'static str) -> bool {
        self.switch(name, &["1", "true", "yes", "on"])
    }

    /// `GOPIM_GOLDEN`-style: `update` turns a regenerate mode on.
    fn update(&mut self, name: &'static str) -> bool {
        self.switch(name, &["update"])
    }

    /// On for any of `on` (case-insensitive, shown as the last one),
    /// off for unset or `0`/`false`/`no`/`off`; anything else warns.
    fn switch(&mut self, name: &'static str, on: &[&'static str]) -> bool {
        let value = self.take(name).unwrap_or_default();
        let word = value.trim().to_ascii_lowercase();
        let state = on.contains(&word.as_str());
        if !state && !["", "0", "false", "no", "off"].contains(&word.as_str()) {
            let expected = format!(
                "is neither {} nor 0/false/no/off; it counts as off",
                on.join("/")
            );
            self.warn(name, &value, &expected);
        }
        self.record(name, if state { on[on.len() - 1] } else { "off" }, state)
    }

    fn path(&mut self, name: &'static str) -> Option<String> {
        let path = self.take(name).filter(|v| v != "0");
        self.record(name, path.as_deref().unwrap_or("off"), path.clone())
    }

    fn number(&mut self, name: &'static str) -> Option<usize> {
        let value = self.take(name);
        let n = value
            .as_deref()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0);
        if let (Some(v), None) = (&value, n) {
            self.warn(name, v, "is not a positive integer; the default applies");
        }
        self.record(name, &n.map_or("default".to_string(), |n| n.to_string()), n)
    }

    fn selection(&mut self, name: &'static str) -> Option<String> {
        let value = self.take(name);
        self.record(name, value.as_deref().unwrap_or("default"), value.clone())
    }

    fn level(&mut self, name: &'static str) -> Option<Level> {
        let value = self.take(name).unwrap_or_default();
        let level = match value.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => None,
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "debug" => Some(Level::Debug),
            word => {
                if !matches!(word, "" | "info") {
                    self.warn(name, &value, "is not a log level; info applies");
                }
                Some(Level::Info)
            }
        };
        self.record(name, level.map_or("off", Level::name), level)
    }
}
