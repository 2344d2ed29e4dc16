//! Differential harness for the serve layer: a result served over the
//! socket must be **bitwise identical** to the same request computed
//! in-process — serving changes *where* a result is computed, never
//! *what* it is. Three fronts:
//!
//! 1. **cold** — a fresh server computes each sweep cell on demand;
//!    the bytes must match the uncached in-process [`run_system`];
//! 2. **cache-warm** — resubmitting the same jobs must be served from
//!    the canonical-hash cache (`cache_served = true`) with the same
//!    bytes;
//! 3. **one namespace** — the socket and the in-process runner share
//!    one cache: results computed through the server satisfy later
//!    in-process calls, and vice versa.
//!
//! Comparison is on the [`CacheValue`] encodings — the exact byte
//! strings the wire carries and the store persists — so equality here
//! *is* the bitwise contract, f64 payloads included.

use std::sync::Arc;

use gopim::jobs::{CoreJobHandler, JobConfig, JobRequest};
use gopim::runner::{run_system, run_systems, RunConfig};
use gopim::system::System;
use gopim_cache::CacheValue;
use gopim_graph::datasets::Dataset;
use gopim_serve::{Client, Response, Server, ServerConfig};

fn sweep() -> Vec<(Dataset, System)> {
    vec![
        (Dataset::Ddi, System::Serial),
        (Dataset::Ddi, System::Gopim),
        (Dataset::Cora, System::Gopim),
    ]
}

fn test_server() -> (Server, String) {
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(CoreJobHandler),
        ServerConfig {
            workers: 2,
            max_queue: 64,
            ..ServerConfig::default()
        },
    )
    .expect("bind differential server");
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// Submits one job and returns `(result_bytes, cache_served)`.
fn submit(client: &mut Client, id: u64, job: &JobRequest) -> (Vec<u8>, bool) {
    match client
        .submit_blocking(id, 0, job.to_bytes(), |_| {})
        .expect("submit job")
    {
        Response::Done {
            result,
            cache_served,
            ..
        } => (result, cache_served),
        other => panic!("expected Done for job {id}, got {other:?}"),
    }
}

#[test]
fn socket_served_simulations_are_bitwise_identical_cold_and_warm() {
    // A budget only this test uses, so the server's first pass is
    // genuinely cold even with other tests sharing the process cache.
    let config = RunConfig {
        crossbar_budget: Some(234_000),
        ..RunConfig::default()
    };
    let cells = sweep();

    // Reference: fresh in-process simulation through the uncached twin.
    let fresh: Vec<Vec<u8>> = cells
        .iter()
        .map(|&(d, s)| run_system(d, s, &config).to_bytes())
        .collect();

    let (server, addr) = test_server();
    let mut client = Client::connect(&addr, "differential").expect("connect");
    let job_config = JobConfig::from_run_config(&config);

    // Cold leg: every cell computed by the server on demand.
    for (i, &(dataset, system)) in cells.iter().enumerate() {
        let job = JobRequest::Simulate {
            dataset,
            system,
            config: job_config.clone(),
        };
        let (bytes, cache_served) = submit(&mut client, i as u64, &job);
        assert!(
            !cache_served,
            "cold leg for {dataset:?}/{system:?} must not be cache-served"
        );
        assert_eq!(
            bytes, fresh[i],
            "cold socket bytes differ from fresh in-process run for {dataset:?}/{system:?}"
        );
    }

    // Warm leg: the same requests come straight from the cache, byte
    // for byte.
    for (i, &(dataset, system)) in cells.iter().enumerate() {
        let job = JobRequest::Simulate {
            dataset,
            system,
            config: job_config.clone(),
        };
        let (bytes, cache_served) = submit(&mut client, 100 + i as u64, &job);
        assert!(
            cache_served,
            "warm leg for {dataset:?}/{system:?} must be cache-served"
        );
        assert_eq!(
            bytes, fresh[i],
            "warm socket bytes differ from fresh for {dataset:?}/{system:?}"
        );
    }

    let stats = client.stats(|_| {}).expect("stats");
    server.shutdown();
    assert_eq!(stats.completed, 2 * cells.len() as u64);
    assert!(
        stats.cache_served >= cells.len() as u64,
        "warm leg must hit the cache: {stats:?}"
    );

    // One namespace, socket → in-process: the runner's own cached
    // entry points now serve the bytes the server computed.
    let in_process: Vec<Vec<u8>> = run_systems(&cells, &config)
        .iter()
        .map(CacheValue::to_bytes)
        .collect();
    assert_eq!(
        in_process, fresh,
        "in-process run after socket warm-up changed bytes"
    );
}

#[test]
fn a_sweep_job_matches_run_systems_bitwise() {
    let config = RunConfig {
        crossbar_budget: Some(236_000),
        ..RunConfig::default()
    };
    let cells = sweep();
    let fresh = cells
        .iter()
        .map(|&(d, s)| run_system(d, s, &config))
        .collect::<Vec<_>>()
        .to_bytes();

    let (server, addr) = test_server();
    let mut client = Client::connect(&addr, "sweep-diff").expect("connect");
    let job = JobRequest::Sweep {
        cells: cells.clone(),
        config: JobConfig::from_run_config(&config),
    };
    let (cold, cold_cached) = submit(&mut client, 1, &job);
    let (warm, warm_cached) = submit(&mut client, 2, &job);
    server.shutdown();

    assert_eq!(cold, fresh, "cold sweep bytes differ from run_systems");
    assert_eq!(warm, fresh, "warm sweep bytes differ from run_systems");
    assert!(!cold_cached, "first sweep cannot be cache-served");
    assert!(warm_cached, "second sweep must be cache-served");
}

#[test]
fn an_in_process_run_pre_warms_the_socket() {
    // One namespace, in-process → socket: results computed by the
    // plain runner satisfy the very first socket request.
    let config = RunConfig {
        crossbar_budget: Some(238_000),
        ..RunConfig::default()
    };
    let (dataset, system) = (Dataset::Ddi, System::Gopim);
    let local = run_systems(&[(dataset, system)], &config)[0].to_bytes();

    let (server, addr) = test_server();
    let mut client = Client::connect(&addr, "pre-warmed").expect("connect");
    let job = JobRequest::Simulate {
        dataset,
        system,
        config: JobConfig::from_run_config(&config),
    };
    let (bytes, cache_served) = submit(&mut client, 1, &job);
    server.shutdown();

    assert!(
        cache_served,
        "the socket's first request must reuse the in-process result"
    );
    assert_eq!(
        bytes, local,
        "socket-served bytes differ from the local run"
    );
}
