//! Differential harness for the run cache: a cache hit must hand back
//! bytes *bitwise identical* to a fresh simulation. Three fronts:
//!
//! 1. in-process — warm [`run_systems`]/[`run_ablation_cached`] results
//!    vs the same requests computed by the uncached twins
//!    [`run_system`]/[`run_ablation`];
//! 2. cross-process — a child process populates an on-disk tier
//!    (`GOPIM_CACHE`), a second child serves the same sweep from disk,
//!    a third runs with `GOPIM_NO_CACHE=1` (no store, no memos), and
//!    all three digests must match the parent's fresh computation;
//! 3. thread counts — a cache populated under a 1-thread pool must
//!    serve byte-identical results under an 8-thread pool (and the
//!    fresh leg agrees with both).
//!
//! Comparison is on the [`CacheValue`] encodings — the exact byte
//! strings the store persists — so equality here *is* the bitwise
//! contract, f64 payloads included.

use std::ffi::OsStr;

use gopim::runner::{
    run_ablation, run_ablation_cached, run_system, run_system_cached, run_systems, RunConfig,
};
use gopim::system::{Ablation, System};
use gopim::SystemRun;
use gopim_cache::CacheValue;
use gopim_graph::datasets::Dataset;
use gopim_par::Pool;

const CHILD_ENV: &str = "GOPIM_CACHE_DIFF_OUT";
const TEST_NAME: &str = "disk_tier_serves_bitwise_identical_results_across_processes";

fn test_config() -> RunConfig {
    RunConfig {
        crossbar_budget: Some(200_000),
        ..RunConfig::default()
    }
}

fn sweep() -> Vec<(Dataset, System)> {
    vec![
        (Dataset::Ddi, System::Serial),
        (Dataset::Ddi, System::Gopim),
        (Dataset::Cora, System::Gopim),
        (Dataset::Collab, System::Serial),
    ]
}

/// The uncached twin of [`run_systems`]: every cell simulated fresh.
fn fresh_runs(cells: &[(Dataset, System)], config: &RunConfig) -> Vec<SystemRun> {
    gopim_par::par_map(cells, |&(d, s)| run_system(d, s, config))
}

/// The store's own byte encoding of a result list: bit-exact identity.
fn encode(runs: &[SystemRun]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in runs {
        out.extend_from_slice(&r.to_bytes());
    }
    out
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn cached_sweep_is_bitwise_identical_to_fresh() {
    let config = test_config();
    let cells = sweep();
    let warmup = encode(&run_systems(&cells, &config));
    let before = gopim_cache::global().stats();
    let cached = encode(&run_systems(&cells, &config));
    let after = gopim_cache::global().stats();
    let fresh = encode(&fresh_runs(&cells, &config));
    assert_eq!(warmup, cached, "warm rerun changed bytes");
    assert_eq!(cached, fresh, "cache hit differs from fresh simulation");
    // The second sweep must have been served by the store (other tests
    // running in parallel can only add hits, so >= is exact enough).
    assert!(
        after.hits - before.hits >= 3,
        "expected cache hits on the warm sweep: {before:?} -> {after:?}"
    );
}

#[test]
fn cached_ablation_is_bitwise_identical_to_fresh() {
    let config = test_config();
    for variant in Ablation::ALL {
        let warm = run_ablation_cached(Dataset::Ddi, variant, &config);
        let cached = run_ablation_cached(Dataset::Ddi, variant, &config);
        let fresh = run_ablation(Dataset::Ddi, variant, &config);
        assert_eq!(
            warm.to_bytes(),
            cached.to_bytes(),
            "{variant:?} warm rerun changed bytes"
        );
        assert_eq!(
            cached.to_bytes(),
            fresh.to_bytes(),
            "{variant:?} cache hit differs from fresh"
        );
    }
}

/// A cache populated at one thread count must serve the same bytes at
/// another, and both must match a fresh run — the cache cannot be
/// allowed to launder a thread-count dependence into "deterministic"
/// results.
#[test]
fn cache_populated_serial_serves_identical_bytes_parallel() {
    // A budget this test alone uses, so the cold leg is really cold.
    let config = RunConfig {
        crossbar_budget: Some(222_000),
        ..RunConfig::default()
    };
    let cells = sweep();
    let cold = Pool::new(1).install(|| encode(&run_systems(&cells, &config)));
    let warm = Pool::new(8).install(|| encode(&run_systems(&cells, &config)));
    let fresh = Pool::new(8).install(|| encode(&fresh_runs(&cells, &config)));
    assert_eq!(cold, warm, "1-thread-populated cache differs at 8 threads");
    assert_eq!(warm, fresh, "cached bytes differ from fresh at 8 threads");
}

/// Re-runs this test in a child process with `envs` set (`None`
/// removes a variable). Returns the child's sweep digest and its
/// `[disk hits, total store statistics, memo lookups]`.
fn child_run(tag: &str, envs: &[(&str, Option<&OsStr>)]) -> (String, [u64; 3]) {
    let out =
        std::env::temp_dir().join(format!("gopim_cache_diff_{}_{tag}.txt", std::process::id()));
    let mut cmd = std::process::Command::new(std::env::current_exe().expect("test binary"));
    cmd.args(["--exact", TEST_NAME])
        .env(CHILD_ENV, &out)
        .env("GOPIM_METRICS", "1");
    for &(key, value) in envs {
        match value {
            Some(v) => cmd.env(key, v),
            None => cmd.env_remove(key),
        };
    }
    let status = cmd.status().expect("spawn child test process");
    assert!(status.success(), "child run {tag} failed");
    let report = std::fs::read_to_string(&out).expect("read child report");
    let _ = std::fs::remove_file(&out);
    let fields: Vec<&str> = report.split(' ').collect();
    let count = |i: usize| fields[i].parse::<u64>().expect("count");
    (fields[0].to_string(), [count(1), count(2), count(3)])
}

#[test]
fn disk_tier_serves_bitwise_identical_results_across_processes() {
    let config = test_config();
    if let Ok(out) = std::env::var(CHILD_ENV) {
        // Child mode: simulate the sweep (consulting whatever cache
        // the parent configured), report a digest plus the store and
        // memo statistics, and stop before re-spawning.
        let mut runs = Vec::new();
        for (d, s) in sweep() {
            runs.push(run_system_cached(d, s, &config));
        }
        let s = gopim_cache::global().stats();
        let store = s.hits + s.misses + s.disk_hits + s.evictions + s.corrupt;
        let counters = gopim_obs::metrics::global().snapshot().counters;
        let memo: u64 = ["cache.memo_hits", "cache.memo_misses"]
            .iter()
            .filter_map(|k| counters.get(*k))
            .sum();
        let digest = fnv(&encode(&runs));
        let line = format!("{digest:016x} {} {store} {memo}", s.disk_hits);
        std::fs::write(out, line).expect("write child digest");
        return;
    }

    // Parent: the reference digest comes from the uncached twin.
    let fresh_digest = format!("{:016x}", fnv(&encode(&fresh_runs(&sweep(), &config))));

    let cache_dir = std::env::temp_dir().join(format!("gopim_cache_diff_{}", std::process::id()));
    std::fs::create_dir_all(&cache_dir).expect("create cache dir");
    let disk = [
        ("GOPIM_CACHE", Some(cache_dir.as_os_str())),
        ("GOPIM_NO_CACHE", None),
    ];
    let (cold, [cold_disk_hits, _, cold_memo]) = child_run("cold", &disk);
    let (warm, [warm_disk_hits, _, _]) = child_run("warm", &disk);
    let _ = std::fs::remove_dir_all(&cache_dir);
    // Fully fresh: no store and no memo, through the user-facing knob.
    let no_cache_env = [
        ("GOPIM_CACHE", None),
        ("GOPIM_NO_CACHE", Some(OsStr::new("1"))),
    ];
    let (no_cache, [_, no_cache_store, no_cache_memo]) = child_run("no_cache", &no_cache_env);

    for (tag, digest) in [("cold", cold), ("warm", warm), ("no-cache", no_cache)] {
        assert_eq!(
            digest, fresh_digest,
            "{tag} child digest differs from fresh"
        );
    }
    // The first child starts from an empty directory; the second must
    // have been served (at least partly) by the records the first
    // wrote.
    assert_eq!(cold_disk_hits, 0, "cold child run cannot have disk hits");
    assert!(warm_disk_hits > 0, "warm child never touched the disk tier");
    assert!(cold_memo > 0, "cold child counted no memo lookups");
    assert_eq!(no_cache_store, 0, "GOPIM_NO_CACHE child touched the store");
    assert_eq!(no_cache_memo, 0, "GOPIM_NO_CACHE child touched a memo");
}
