//! Differential harness for the run cache: a cache hit must hand back
//! bytes *bitwise identical* to a fresh simulation. Four fronts:
//!
//! 1. in-process — warm [`run_systems`]/[`run_sweep`]/
//!    [`run_ablation_cached`] results vs the same requests computed by
//!    the uncached twins [`run_system`]/[`run_ablation`];
//! 2. cross-process — a child process populates an on-disk tier
//!    (`GOPIM_CACHE`), a second child serves the same sweeps from disk,
//!    a third runs with `GOPIM_NO_CACHE=1` (no store, no memos), and
//!    all three digests must match the parent's fresh computation;
//! 3. thread counts — a cache populated under a 1-thread pool must
//!    serve byte-identical results under an 8-thread pool (and the
//!    fresh leg agrees with both);
//! 4. profile sharing — a cold sweep builds one degree profile per
//!    `(dataset, seed)` pair, and a warm one builds none (counted by
//!    `runner.profiles_built` in child processes, where no other test
//!    builds profiles).
//!
//! Comparison is on the [`CacheValue`] encodings — the exact byte
//! strings the store persists — so equality here *is* the bitwise
//! contract, f64 payloads included.

use std::ffi::OsStr;

use gopim::runner::{
    run_ablation, run_ablation_cached, run_sweep, run_system, run_system_cached, run_systems, Cell,
    Estimator, RunConfig,
};
use gopim::system::{Ablation, System};
use gopim::SystemRun;
use gopim_cache::CacheValue;
use gopim_graph::datasets::Dataset;
use gopim_par::Pool;
use gopim_predictor::dataset_gen::generate_samples;
use gopim_predictor::TimePredictor;

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

/// What one mixed-sweep cell runs.
#[derive(Clone, Copy)]
enum Runs {
    System(System),
    Ablation(Ablation),
}

/// A sweep mixing systems and ablations, two micro-batches, two
/// budgets, a duplicate cell (and an ablation end that duplicates a
/// system cell), an ML-estimator cell and two profile seeds of ddi:
/// three distinct `(dataset, seed)` pairs, ddi/7, Cora/7 and ddi/8.
fn mixed_sweep() -> Vec<(Dataset, Runs, RunConfig)> {
    let base = test_config();
    let micro_batch_32 = RunConfig {
        micro_batch: 32,
        ..base.clone()
    };
    let budget = RunConfig {
        crossbar_budget: Some(300_000),
        ..base.clone()
    };
    let seed_8 = RunConfig {
        profile_seed: 8,
        ..base.clone()
    };
    // A tiny predictor: its estimates only need to be deterministic.
    let ml = RunConfig {
        estimator: Estimator::Ml(TimePredictor::train(&generate_samples(12, 1), 2, 4, 1, 1)),
        ..base.clone()
    };
    vec![
        (Dataset::Ddi, Runs::System(System::Serial), base.clone()),
        (Dataset::Ddi, Runs::Ablation(Ablation::PlusPp), base.clone()),
        (Dataset::Cora, Runs::System(System::Gopim), budget.clone()),
        (Dataset::Ddi, Runs::System(System::Gopim), micro_batch_32),
        (Dataset::Ddi, Runs::Ablation(Ablation::Serial), base.clone()),
        (
            Dataset::Ddi,
            Runs::Ablation(Ablation::PlusIsu),
            seed_8.clone(),
        ),
        (Dataset::Ddi, Runs::System(System::Gopim), ml),
        (Dataset::Ddi, Runs::System(System::ReFlip), budget),
        (Dataset::Ddi, Runs::Ablation(Ablation::Full), seed_8),
        (Dataset::Ddi, Runs::System(System::Serial), base),
    ]
}

fn sweep_cells(spec: &[(Dataset, Runs, RunConfig)]) -> Vec<Cell> {
    spec.iter()
        .map(|(d, runs, config)| match *runs {
            Runs::System(s) => Cell::system(*d, s, config.clone()),
            Runs::Ablation(v) => Cell::ablation(*d, v, config.clone()),
        })
        .collect()
}

/// The uncached twin of a [`run_sweep`]: every cell run fresh.
fn fresh_sweep(spec: &[(Dataset, Runs, RunConfig)]) -> Vec<SystemRun> {
    spec.iter()
        .map(|(d, runs, config)| match *runs {
            Runs::System(s) => run_system(*d, s, config),
            Runs::Ablation(v) => run_ablation(*d, v, config),
        })
        .collect()
}

/// A process-wide counter's current value (0 before its first use).
fn counter(name: &str) -> u64 {
    gopim_obs::metrics::global()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
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
fn mixed_sweep_is_bitwise_identical_to_fresh_cells() {
    let spec = mixed_sweep();
    let cells = sweep_cells(&spec);
    let cold = encode(&run_sweep(&cells));
    let warm = encode(&run_sweep(&cells));
    let fresh = encode(&fresh_sweep(&spec));
    assert_eq!(cold, warm, "warm rerun changed bytes");
    assert_eq!(
        cold, fresh,
        "sweep differs from the per-cell uncached twins"
    );
}

#[test]
fn cold_sweep_builds_one_profile_per_dataset_seed_pair() {
    if std::env::var(CHILD_ENV).is_ok() {
        let before = counter("runner.profiles_built");
        let runs = run_sweep(&sweep_cells(&mixed_sweep()));
        let built = counter("runner.profiles_built") - before;
        report_to_parent(&format!("{} {built}", runs.len()));
        return;
    }
    let no_cache = [
        ("GOPIM_CACHE", None),
        ("GOPIM_NO_CACHE", Some(OsStr::new("1"))),
    ];
    let report = child_report(
        "cold_sweep_builds_one_profile_per_dataset_seed_pair",
        "cold_profiles",
        &no_cache,
    );
    // With no memo, every build is the sweep's own: one per group.
    assert_eq!(
        report, "10 3",
        "want 10 runs on 3 profiles (ddi/7, Cora/7, ddi/8)"
    );
}

/// A sweep whose cells all hit the run cache builds no profile. The
/// hits come from the disk tier in a fresh process, whose profile memo
/// is empty, so any profile the sweep asked for would be a real build.
#[test]
fn warm_sweep_builds_no_profile() {
    if std::env::var(CHILD_ENV).is_ok() {
        // The cacheable cells only, so a warm sweep is all hits.
        let exact: Vec<_> = mixed_sweep()
            .into_iter()
            .filter(|(_, _, config)| matches!(config.estimator, Estimator::Exact))
            .collect();
        let runs = run_sweep(&sweep_cells(&exact));
        let built = counter("runner.profiles_built");
        report_to_parent(&format!("{:016x} {built}", fnv(&encode(&runs))));
        return;
    }
    let cache_dir =
        std::env::temp_dir().join(format!("gopim_cache_diff_profiles_{}", std::process::id()));
    std::fs::create_dir_all(&cache_dir).expect("create cache dir");
    let disk = [
        ("GOPIM_CACHE", Some(cache_dir.as_os_str())),
        ("GOPIM_NO_CACHE", None),
    ];
    let test = "warm_sweep_builds_no_profile";
    let cold = child_report(test, "profiles_cold", &disk);
    let warm = child_report(test, "profiles_warm", &disk);
    let _ = std::fs::remove_dir_all(&cache_dir);
    let (cold_digest, cold_built) = cold.split_once(' ').expect("two fields");
    let (warm_digest, warm_built) = warm.split_once(' ').expect("two fields");
    assert_eq!(
        cold_built, "3",
        "the cold sweep builds ddi/7, Cora/7 and ddi/8"
    );
    assert_eq!(warm_built, "0", "an all-hit sweep built a profile");
    assert_eq!(warm_digest, cold_digest, "disk hits changed bytes");
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

/// Re-runs the test `test` in a child process with `GOPIM_METRICS=1`
/// and `envs` set (`None` removes a variable). Returns the line the
/// child passed to [`report_to_parent`].
fn child_report(test: &str, tag: &str, envs: &[(&str, Option<&OsStr>)]) -> String {
    let out =
        std::env::temp_dir().join(format!("gopim_cache_diff_{}_{tag}.txt", std::process::id()));
    let mut cmd = std::process::Command::new(std::env::current_exe().expect("test binary"));
    cmd.args(["--exact", test])
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
    report
}

/// Child mode: writes `line` where the parent's [`child_report`] reads.
fn report_to_parent(line: &str) {
    let out = std::env::var(CHILD_ENV).expect("child mode");
    std::fs::write(out, line).expect("write child report");
}

/// Re-runs the cross-process test in a child process with `envs` set.
/// Returns the child's sweep digest and its `[disk hits, total store
/// statistics, memo lookups]`.
fn child_run(tag: &str, envs: &[(&str, Option<&OsStr>)]) -> (String, [u64; 3]) {
    let report = child_report(TEST_NAME, tag, envs);
    let fields: Vec<&str> = report.split(' ').collect();
    let count = |i: usize| fields[i].parse::<u64>().expect("count");
    (fields[0].to_string(), [count(1), count(2), count(3)])
}

#[test]
fn disk_tier_serves_bitwise_identical_results_across_processes() {
    let config = test_config();
    if std::env::var(CHILD_ENV).is_ok() {
        // Child mode: simulate the sweeps (consulting whatever cache
        // the parent configured), report a digest plus the store and
        // memo statistics, and stop before re-spawning.
        let mut runs = Vec::new();
        for (d, s) in sweep() {
            runs.push(run_system_cached(d, s, &config));
        }
        runs.extend(run_sweep(&sweep_cells(&mixed_sweep())));
        let s = gopim_cache::global().stats();
        let store = s.hits + s.misses + s.disk_hits + s.evictions + s.corrupt;
        let counters = gopim_obs::metrics::global().snapshot().counters;
        let memo: u64 = ["cache.memo_hits", "cache.memo_misses"]
            .iter()
            .filter_map(|k| counters.get(*k))
            .sum();
        let digest = fnv(&encode(&runs));
        report_to_parent(&format!("{digest:016x} {} {store} {memo}", s.disk_hits));
        return;
    }

    // Parent: the reference digest comes from the uncached twins.
    let mut fresh = fresh_runs(&sweep(), &config);
    fresh.extend(fresh_sweep(&mixed_sweep()));
    let fresh_digest = format!("{:016x}", fnv(&encode(&fresh)));

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
