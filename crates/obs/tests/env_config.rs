//! Table tests of the one `GOPIM_*` config: every value kind's rule,
//! the unknown-name warning, and the effective values the manifest
//! records.

use gopim_obs::env::{Env, KNOBS};
use gopim_obs::log::Level;

fn env(pairs: &[(&str, &str)]) -> Env {
    Env::from_vars(pairs.iter().copied())
}

type Field = fn(&Env) -> bool;

/// Every flag knob with its field.
const FLAGS: &[(&str, Field)] = &[
    ("GOPIM_METRICS", |e| e.metrics),
    ("GOPIM_LOCKDEP", |e| e.lockdep),
    ("GOPIM_NO_SIMD", |e| e.no_simd),
    ("GOPIM_NO_CACHE", |e| e.no_cache),
    ("GOPIM_BENCH_FAST", |e| e.bench_fast),
];

#[test]
fn flags_follow_one_rule() {
    let cases = [
        ("", false, false),
        ("0", false, false),
        ("1", true, false),
        ("true", true, false),
        ("yes", true, false),
        ("On", true, false),
        ("off", false, false),
        ("no", false, false),
        ("garbage", false, true),
    ];
    for &(name, field) in FLAGS {
        assert!(!field(&env(&[])), "{name} unset");
        for &(value, on, warns) in &cases {
            let e = env(&[(name, value)]);
            assert_eq!(field(&e), on, "{name}={value:?}");
            assert_eq!(e.warnings.len(), usize::from(warns), "{name}={value:?}");
            if warns {
                assert!(e.warnings[0].contains(name), "{:?}", e.warnings);
            }
        }
    }
}

#[test]
fn values_scripts_and_tests_set_keep_their_meaning() {
    let e = env(&[
        ("GOPIM_THREADS", "1"),
        ("GOPIM_NO_SIMD", "1"),
        ("GOPIM_NO_CACHE", "1"),
        ("GOPIM_METRICS", "1"),
        ("GOPIM_LOCKDEP", "1"),
        ("GOPIM_LOG", "warn"),
        ("GOPIM_GOLDEN", "update"),
        ("GOPIM_BENCH_FAST", "1"),
        ("GOPIM_BENCH_SAMPLES", "11"),
        ("GOPIM_BENCH_JSON", "/tmp/bench.jsonl"),
        ("GOPIM_MANIFEST", "m.json"),
        ("GOPIM_LOCKDEP_DUMP", "w.json"),
        ("GOPIM_FAULT_RATES", "0,0.2"),
        ("GOPIM_PT_CASES", "64"),
    ]);
    assert!(e.warnings.is_empty(), "{:?}", e.warnings);
    assert_eq!(e.threads, Some(1));
    assert!(e.no_simd && e.no_cache && e.metrics && e.lockdep);
    assert!(e.golden_update && e.bench_fast);
    assert_eq!(e.log, Some(Level::Warn));
    assert_eq!(e.bench_samples, Some(11));
    assert_eq!(e.bench_json.as_deref(), Some("/tmp/bench.jsonl"));
    assert_eq!(e.manifest.as_deref(), Some("m.json"));
    assert_eq!(e.lockdep_dump.as_deref(), Some("w.json"));
    assert_eq!(e.fault_rates.as_deref(), Some("0,0.2"));
    assert_eq!(e.pt_cases.as_deref(), Some("64"));
}

#[test]
fn paths_are_off_when_unset_empty_or_zero() {
    for value in ["", "0"] {
        let e = env(&[("GOPIM_TRACE", value), ("GOPIM_PROFILE", value)]);
        assert_eq!((e.trace, e.profile), (None, None), "{value:?}");
    }
    let e = env(&[
        ("GOPIM_TRACE", "t.json"),
        ("GOPIM_PROFILE", "1"),
        ("GOPIM_CACHE", "/tmp/c"),
    ]);
    assert_eq!(e.trace.as_deref(), Some("t.json"));
    assert_eq!(
        e.profile.as_deref(),
        Some("1"),
        "1 means stderr to its reader"
    );
    assert_eq!(e.cache.as_deref(), Some("/tmp/c"));
}

#[test]
fn malformed_or_zero_numbers_warn_and_fall_back() {
    assert_eq!(env(&[]).threads, None);
    assert_eq!(env(&[("GOPIM_THREADS", " 3 ")]).threads, Some(3));
    for value in ["abc", "0", "-2", "1.5"] {
        let e = env(&[("GOPIM_THREADS", value), ("GOPIM_SERVE_WORKERS", value)]);
        assert_eq!((e.threads, e.serve_workers), (None, None), "{value:?}");
        assert_eq!(e.warnings.len(), 2, "{value:?}: {:?}", e.warnings);
    }
    assert_eq!(
        env(&[("GOPIM_BENCH_SAMPLES", "11")]).bench_samples,
        Some(11)
    );
}

#[test]
fn log_levels_parse_and_unknown_levels_warn() {
    assert_eq!(env(&[]).log, Some(Level::Info));
    assert_eq!(env(&[("GOPIM_LOG", "warn")]).log, Some(Level::Warn));
    assert_eq!(env(&[("GOPIM_LOG", "DEBUG")]).log, Some(Level::Debug));
    assert_eq!(env(&[("GOPIM_LOG", "off")]).log, None);
    let e = env(&[("GOPIM_LOG", "loud")]);
    assert_eq!((e.log, e.warnings.len()), (Some(Level::Info), 1));
}

#[test]
fn golden_update_and_selections_keep_their_spelling() {
    assert!(env(&[("GOPIM_GOLDEN", "update")]).golden_update);
    let e = env(&[("GOPIM_GOLDEN", "1")]);
    assert!(!e.golden_update);
    assert_eq!(e.warnings.len(), 1);
    let e = env(&[("GOPIM_FAULT_SEED", "many"), ("GOPIM_PT_SEED", "0x2a")]);
    assert_eq!(e.fault_seed.as_deref(), Some("many"));
    assert_eq!(e.pt_seed.as_deref(), Some("0x2a"));
    assert!(
        e.warnings.is_empty(),
        "selections are validated by their reader"
    );
}

#[test]
fn unknown_names_warn_once_and_script_names_do_not() {
    let e = env(&[
        ("GOPIM_NOCACHE", "1"),
        ("GOPIM_NO_SERVE", "1"),
        ("GOPIM_RESULTS_DIR", "out"),
        ("HOME", "/home/user"),
    ]);
    assert!(!e.no_cache, "a typo must not change the run");
    assert_eq!(e.warnings.len(), 1, "{:?}", e.warnings);
    assert!(e.warnings[0].contains("GOPIM_NOCACHE"));
}

#[test]
fn effective_config_lists_every_parsed_knob_in_table_order() {
    let e = env(&[("GOPIM_METRICS", "yes"), ("GOPIM_THREADS", "2")]);
    let names: Vec<&str> = e.effective.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, KNOBS[..names.len()], "fields follow KNOBS order");
    assert_eq!(names.len(), 22);
    let value = |name| {
        e.effective
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap()
            .1
            .clone()
    };
    assert_eq!(value("GOPIM_METRICS"), "on");
    assert_eq!(value("GOPIM_THREADS"), "2");
    assert_eq!(value("GOPIM_TRACE"), "off");
    assert_eq!(value("GOPIM_LOG"), "info");
    assert_eq!(value("GOPIM_SERVE_WORKERS"), "default");
}
