//! The trace event *set* must not depend on `GOPIM_THREADS`.
//!
//! Spans are recorded at parallel-primitive entry with input-shape-only
//! arguments (see `gopim-par`), and pool internals are metrics-only, so
//! the multiset of span identities (`cat|name|args`, excluding
//! pid/tid/timestamps) is pinned to be identical at 1 and 8 worker
//! threads. This is the contract that makes `GOPIM_TRACE` diffs
//! meaningful across machines with different core counts.

use gopim::runner::{run_system, RunConfig};
use gopim::system::System;
use gopim_gcn::aggregate::NormalizedAdjacency;
use gopim_graph::datasets::Dataset;
use gopim_graph::CsrGraph;
use gopim_linalg::Matrix;
use gopim_mapping::SelectivePolicy;
use gopim_par::Pool;
use gopim_pipeline::{GcnWorkload, MappingKind, WorkloadOptions};

/// The runner configuration of the traced legs' driver-path run.
fn run_config() -> RunConfig {
    RunConfig {
        micro_batch: 16,
        ..RunConfig::default()
    }
}

/// Runs the mixed workload under `threads` workers and returns the
/// sorted span-identity multiset.
fn traced_identities(threads: usize) -> Vec<String> {
    let pool = Pool::new(threads);
    gopim_obs::set_trace_enabled(true);
    let _ = gopim_obs::span::drain();
    pool.install(|| {
        // Kernels: matmul + sparse aggregation.
        let a = Matrix::from_vec(48, 32, (0..48 * 32).map(|i| (i % 7) as f64).collect());
        let b = Matrix::from_vec(32, 24, (0..32 * 24).map(|i| (i % 5) as f64).collect());
        std::hint::black_box(a.matmul(&b));
        let n = 300u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let graph = CsrGraph::from_edges(n as usize, &edges);
        let adj = NormalizedAdjacency::new(&graph);
        let x = Matrix::from_vec(n as usize, 8, vec![0.5; n as usize * 8]);
        std::hint::black_box(adj.apply(&graph, &x));
        // A workload build outside the runner's memos, so both legs
        // record it: GoPIM's interleaved mapping and ISU rank ddi.
        let profile = Dataset::Ddi.profile(7);
        let options = WorkloadOptions {
            mapping: MappingKind::Interleaved,
            selective: Some(SelectivePolicy::adaptive(&profile)),
            ..WorkloadOptions::default()
        };
        std::hint::black_box(GcnWorkload::build_custom(
            "ddi",
            &profile,
            &Dataset::Ddi.model(),
            &options,
        ));
        // Full driver path: runner → pipeline DES → schedule.
        std::hint::black_box(run_system(Dataset::Ddi, System::Gopim, &run_config()));
    });
    let mut ids: Vec<String> = gopim_obs::span::drain()
        .iter()
        .map(|e| e.identity())
        .collect();
    gopim_obs::set_trace_enabled(false);
    ids.sort();
    ids
}

#[test]
fn span_identity_multiset_is_thread_count_invariant() {
    // The runner memoizes degree profiles and workloads, so only a memo
    // miss records `graph.power_law_profile` or `pipeline.build_workload`:
    // run the legs' driver-path cell before either traced leg so both
    // legs see the same memo state.
    std::hint::black_box(run_system(Dataset::Ddi, System::Gopim, &run_config()));
    let serial = traced_identities(1);
    let parallel = traced_identities(8);
    assert!(
        !serial.is_empty(),
        "traced run must record spans (is span collection wired?)"
    );
    // The workload touches every instrumented layer.
    for prefix in [
        "linalg.matmul",
        "gcn.aggregate",
        "pipeline.simulate",
        "pipeline.build_workload.rank",
        "pipeline.build_workload.pacing",
        "runner.run_system",
    ] {
        assert!(
            serial.iter().any(|id| id.contains(prefix)),
            "missing {prefix} span in {serial:?}"
        );
    }
    let only_serial: Vec<&String> = serial.iter().filter(|id| !parallel.contains(id)).collect();
    let only_parallel: Vec<&String> = parallel.iter().filter(|id| !serial.contains(id)).collect();
    assert_eq!(
        serial, parallel,
        "trace event set differs between 1 and 8 threads\n\
         only at 1 thread: {only_serial:?}\nonly at 8 threads: {only_parallel:?}"
    );
}
