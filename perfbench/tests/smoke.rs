//! One pass of every workload, spawned the way `run.py` spawns it (the
//! same knobs on the child), yields its applicable metrics with no
//! failed operation; a traced pass reports every per-layer metric.
//!
//! Each pass runs at full size (a few seconds in a release build):
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use gopim_obs::export::{parse_json, Json};
use gopim_perfbench::layers::LAYER_METRICS;
use gopim_perfbench::workloads::WORKLOADS;

const COLD: [&str; 3] = ["sim_sweep", "gcn_train", "predictor_fit"];

fn pass(workload: &str, traced: bool) -> Json {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gopim-perfbench"));
    cmd.args(["--workload", workload, "--seed", "1"])
        .env("GOPIM_THREADS", "2")
        .env("GOPIM_LOG", "warn")
        .env_remove("GOPIM_NO_CACHE")
        .env_remove("GOPIM_METRICS");
    if COLD.contains(&workload) {
        cmd.env("GOPIM_NO_CACHE", "1");
    }
    if traced {
        cmd.env("GOPIM_METRICS", "1");
    }
    let out = cmd.output().expect("the pass binary runs");
    assert!(out.status.success(), "{workload}: pass exited {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 record");
    let line = stdout.lines().last().expect("a record line");
    parse_json(line).unwrap_or_else(|e| panic!("{workload}: record does not parse: {e}"))
}

fn num(record: &Json, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(record, |j, key| j.get(key))
        .and_then(Json::as_num)
}

#[test]
fn every_workload_passes_with_its_metrics_and_no_failure() {
    for workload in WORKLOADS {
        let r = pass(workload, false);
        let attempted = num(&r, &["attempted"]).expect("attempted");
        assert!(attempted >= 1.0, "{workload}: nothing attempted");
        assert_eq!(num(&r, &["failed"]), Some(0.0), "{workload}: {:?}", r.get("failures"));
        for key in ["wall_s", "setup_s"] {
            let v = num(&r, &[key]).unwrap_or(0.0);
            assert!(v > 0.0, "{workload}: {key} = {v}");
        }
        let extras: &[&str] = match workload {
            "sim_sweep" | "predictor_fit" => &["paper_err"],
            "serve_mix" => &["jobs", "jobs_per_s", "latency_p50_ms", "latency_p99_ms"],
            _ => &[],
        };
        for key in extras {
            let v = num(&r, &["extra", key]).unwrap_or(f64::NAN);
            assert!(v.is_finite() && v > 0.0, "{workload}: {key} = {v}");
        }
        if COLD.contains(&workload) {
            assert_eq!(num(&r, &["cache_hits"]), Some(0.0), "{workload} hit the cache cold");
        }
    }
}

#[test]
fn a_traced_pass_reports_every_layer_metric() {
    let r = pass("serve_mix", true);
    let layers = r.get("layers").expect("a layers object");
    for (name, unit) in LAYER_METRICS {
        let m = layers.get(name).unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
    }
    for name in ["serve.exec_ms_p50", "cache.hits", "trace.unattributed_frac"] {
        assert!(num(layers, &[name, "value"]).is_some(), "{name} is absent");
    }
}
