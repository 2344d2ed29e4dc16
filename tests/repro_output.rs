//! Pins the text `gopim repro` prints: the stdout of three fast
//! experiments byte for byte against `tests/golden/repro_*.txt`, and
//! the usage errors that must exit 2 without running anything.
//!
//! Each run is a child `gopim` process with every `GOPIM_*` variable
//! removed, so an inherited knob cannot change what is compared.

use std::path::PathBuf;
use std::process::{Command, Output};

fn gopim(args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gopim"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("GOPIM_") {
            cmd.env_remove(name);
        }
    }
    cmd.args(args).output().expect("spawn the gopim binary")
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("{name}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

fn assert_prints(args: &[&str], golden_name: &str) {
    let out = gopim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "gopim {args:?} failed: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        stdout == golden(golden_name),
        "gopim {args:?} stdout differs from tests/golden/{golden_name}.txt:\n{stdout}"
    );
}

#[test]
fn table02_prints_its_golden_text() {
    assert_prints(&["repro", "table02"], "repro_table02");
}

#[test]
fn fig05_prints_its_golden_text() {
    assert_prints(&["repro", "fig05"], "repro_fig05");
}

#[test]
fn quick_table03_prints_its_golden_text() {
    assert_prints(&["repro", "table03", "--quick"], "repro_table03_quick");
}

#[test]
fn usage_errors_exit_2_and_print_nothing_on_stdout() {
    for args in [
        &["repro", "fig99"][..],
        &["repro", "fig04", "--quik"],
        &["repro"],
        &["repro", "fig04", "--budget", "--quick"],
        &["loadgen", "--jobs", "many"],
        &["datasets", "--bogus"],
        &["compare", "cora", "64", "junk"],
        &["gantt", "cora", "GoPIM", "64", "--oops"],
    ] {
        let out = gopim(args);
        assert_eq!(out.status.code(), Some(2), "gopim {args:?}");
        assert!(out.stdout.is_empty(), "gopim {args:?} printed to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("[gopim error]"), "gopim {args:?}: {stderr}");
    }
}

#[test]
fn an_unknown_experiment_lists_every_experiment() {
    let stderr = String::from_utf8(gopim(&["repro", "fig99"]).stderr).expect("utf-8 stderr");
    assert!(stderr.contains("unknown experiment 'fig99'"), "{stderr}");
    for name in ["table02", "fig04", "fig17", "shapecheck", "faults"] {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}
