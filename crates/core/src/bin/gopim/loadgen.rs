//! `gopim loadgen`: load generator for the gopim-serve job server.
//!
//! Spawns an in-process server on an ephemeral port (or targets an
//! external one via `--addr`), hammers it with a seeded mix of
//! simulation / sweep / ablation / allocation / prediction jobs from
//! N client threads, and reports client-observed and server-side
//! latency quantiles (p50/p95/p99) from the `gopim-obs` registry.
//!
//! ```text
//! gopim loadgen                                        # 1000 jobs, 8 clients
//! gopim loadgen --quick                                # CI-sized smoke
//! gopim loadgen --jobs 5000 --clients 16 --addr host:4857  # external server
//! ```
//!
//! The job mix deliberately repeats request tuples: a serving workload
//! is dominated by repeated configurations, and the canonical-hash
//! cache should absorb them. The final line reports how many jobs the
//! cache served.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gopim::jobs::{CoreJobHandler, JobConfig, JobRequest};
use gopim::report;
use gopim::system::{Ablation, System};
use gopim_cache::CacheValue;
use gopim_graph::datasets::Dataset;
use gopim_obs::metrics::LazyHistogram;
use gopim_rng::rngs::SmallRng;
use gopim_rng::{Rng, SeedableRng};
use gopim_serve::{Client, Response, Server, ServerConfig};

use crate::args::{Args, Flags};
use crate::print_table;
use crate::repro::{banner, calibrate_trace};

static CLIENT_LATENCY: LazyHistogram = LazyHistogram::new("loadgen.latency_ns");

/// The seeded job mix: small datasets only (the point is scheduler and
/// protocol throughput, not simulation scale), heavy key repetition.
fn make_job(rng: &mut SmallRng, quick: bool) -> JobRequest {
    let datasets = [Dataset::Ddi, Dataset::Cora];
    let systems = [System::Serial, System::GopimVanilla, System::Gopim];
    let dataset = datasets[rng.gen_range(0..datasets.len())];
    let system = systems[rng.gen_range(0..systems.len())];
    // A handful of seeds bounds the distinct-key universe, so most
    // jobs repeat an earlier tuple and exercise the cache path.
    let seeds: u64 = if quick { 2 } else { 4 };
    let config = JobConfig {
        crossbar_budget: Some(300_000),
        profile_seed: 7 + rng.gen_range(0..seeds),
        ..JobConfig::default()
    };
    match rng.gen_range(0..10u32) {
        // Simulation dominates the mix, as it would in production.
        0..=4 => JobRequest::Simulate {
            dataset,
            system,
            config,
        },
        5 => JobRequest::Sweep {
            cells: vec![(dataset, System::Serial), (dataset, System::Gopim)],
            config,
        },
        6 => JobRequest::Ablation {
            dataset,
            variant: Ablation::ALL[rng.gen_range(0..Ablation::ALL.len())],
            config,
        },
        7..=8 => JobRequest::Allocate {
            dataset,
            system,
            config,
        },
        _ => JobRequest::Predict {
            dataset,
            system,
            config,
        },
    }
}

struct Outcome {
    done: AtomicU64,
    cache_served: AtomicU64,
    busy: AtomicU64,
    failed: AtomicU64,
    other: AtomicU64,
}

fn client_thread(
    addr: String,
    client_id: usize,
    jobs: u64,
    quick: bool,
    outcome: Arc<Outcome>,
) -> Result<(), String> {
    let mut client = Client::connect(&addr, &format!("loadgen-{client_id}"))
        .map_err(|e| format!("client {client_id}: connect: {e}"))?;
    client
        .set_recv_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| format!("client {client_id}: timeout: {e}"))?;
    let mut rng = SmallRng::seed_from_u64(0x10ad_0000 + client_id as u64);
    for j in 0..jobs {
        let job = make_job(&mut rng, quick);
        let payload = job.to_bytes();
        let start = Instant::now();
        let mut attempts = 0u32;
        loop {
            let reply = client
                .submit_blocking(j, 0, payload.clone(), |_| {})
                .map_err(|e| format!("client {client_id} job {j}: {e}"))?;
            match reply {
                Response::Done { cache_served, .. } => {
                    CLIENT_LATENCY.record_ns(start.elapsed().as_nanos() as f64);
                    outcome.done.fetch_add(1, Ordering::Relaxed);
                    if cache_served {
                        outcome.cache_served.fetch_add(1, Ordering::Relaxed);
                    }
                    break;
                }
                Response::Busy { .. } => {
                    // Admission backpressure: back off and retry the
                    // same job (bounded so a wedged server fails loud).
                    outcome.busy.fetch_add(1, Ordering::Relaxed);
                    attempts += 1;
                    if attempts > 1000 {
                        return Err(format!("client {client_id}: busy-looped on job {j}"));
                    }
                    std::thread::sleep(Duration::from_millis(2 * u64::from(attempts.min(25))));
                }
                Response::Failed { message, .. } => {
                    outcome.failed.fetch_add(1, Ordering::Relaxed);
                    return Err(format!("client {client_id} job {j} failed: {message}"));
                }
                other => {
                    outcome.other.fetch_add(1, Ordering::Relaxed);
                    return Err(format!("client {client_id} job {j}: unexpected {other:?}"));
                }
            }
        }
    }
    Ok(())
}

/// The load generator's arguments.
const FLAGS: Flags = Flags {
    switches: &["--quick"],
    options: &["--jobs", "--clients", "--addr"],
    positionals: 0,
};

/// What one run does.
#[derive(Debug, PartialEq)]
struct Options {
    quick: bool,
    jobs: u64,
    clients: usize,
    addr: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let usage = |e: String| format!("loadgen: {e}");
    let args = Args::parse(args, &[&FLAGS]).map_err(usage)?;
    let quick = args.has("--quick");
    let clients = args.number("--clients").map_err(usage)?;
    if clients == Some(0) {
        return Err(usage("--clients must be positive".into()));
    }
    Ok(Options {
        quick,
        jobs: args
            .number("--jobs")
            .map_err(usage)?
            .unwrap_or(if quick { 120 } else { 1000 }),
        clients: clients.unwrap_or(if quick { 4 } else { 8 }),
        addr: args.value("--addr").map(str::to_string),
    })
}

/// Runs `gopim loadgen` with the arguments after `loadgen`.
///
/// # Errors
///
/// A usage error: an unknown flag or a malformed `--jobs`/`--clients`.
pub fn run(args: &[String]) -> Result<(), String> {
    let Options {
        quick,
        jobs: jobs_total,
        clients,
        addr: addr_override,
    } = parse(args)?;
    calibrate_trace();
    // Quantile reporting needs the registry regardless of GOPIM_METRICS.
    gopim_obs::set_metrics_enabled(true);
    banner(
        "loadgen",
        "Serve-layer load generator: mixed simulation/allocation/prediction jobs\n\
         over the wire protocol, fair-share scheduled, cache-backed.",
    );

    // In-process server on an ephemeral port unless --addr points at
    // an external one.
    let server = if addr_override.is_none() {
        let cfg = ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(2),
            max_queue: 64,
            ..ServerConfig::default()
        };
        Some(
            Server::bind("127.0.0.1:0", Arc::new(CoreJobHandler), cfg).unwrap_or_else(|e| {
                eprintln!("loadgen: bind: {e}");
                std::process::exit(1);
            }),
        )
    } else {
        None
    };
    let addr = addr_override.unwrap_or_else(|| {
        server
            .as_ref()
            .map(|s| s.local_addr().to_string())
            .unwrap_or_default()
    });
    println!(
        "target {addr} — {jobs_total} jobs across {clients} client thread(s){}",
        if quick { " [quick]" } else { "" }
    );

    let outcome = Arc::new(Outcome {
        done: AtomicU64::new(0),
        cache_served: AtomicU64::new(0),
        busy: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        other: AtomicU64::new(0),
    });
    let per_client = jobs_total / clients as u64;
    let remainder = jobs_total % clients as u64;
    let wall = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            let outcome = Arc::clone(&outcome);
            let quota = per_client + u64::from((c as u64) < remainder);
            std::thread::spawn(move || client_thread(addr, c, quota, quick, outcome))
        })
        .collect();
    let mut errors = Vec::new();
    for h in handles {
        match h.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => errors.push(e),
            Err(_) => errors.push("client thread panicked".to_string()),
        }
    }
    let wall_s = wall.elapsed().as_secs_f64();

    // Server statistics over the wire, then a clean drain.
    let stats = Client::connect(&addr, "loadgen-stats")
        .ok()
        .and_then(|mut c| c.stats(|_| {}).ok());
    if let Some(server) = &server {
        // In-process server: drain directly (a protocol Shutdown would
        // race the stats reply on a shared listener).
        server.shutdown();
    }

    let snapshot = gopim_obs::metrics::global().snapshot();
    let quantiles = |name: &str| -> Option<(f64, f64, f64)> {
        let h = snapshot.histograms.get(name)?;
        Some((h.quantile(0.50), h.quantile(0.95), h.quantile(0.99)))
    };
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (label, name) in [
        ("client latency", "loadgen.latency_ns"),
        ("server latency", "serve.latency_ns"),
        ("queue wait", "serve.wait_ns"),
        ("execution", "serve.exec_ns"),
    ] {
        if let Some((p50, p95, p99)) = quantiles(name) {
            rows.push(vec![
                label.to_string(),
                report::time_ns(p50),
                report::time_ns(p95),
                report::time_ns(p99),
            ]);
        }
    }
    print_table(&["metric", "p50", "p95", "p99"], rows);

    let done = outcome.done.load(Ordering::Relaxed);
    let cache = outcome.cache_served.load(Ordering::Relaxed);
    let busy = outcome.busy.load(Ordering::Relaxed);
    println!(
        "{done}/{jobs_total} jobs done in {wall_s:.2}s ({:.0} jobs/s), {cache} cache-served \
         ({:.0}%), {busy} busy-backoff(s)",
        done as f64 / wall_s,
        100.0 * cache as f64 / done.max(1) as f64,
    );
    if let Some(s) = stats {
        println!(
            "server: {} submitted, {} completed, {} cache-served, {} busy-rejected, \
             {} cancelled, {} expired",
            s.submitted, s.completed, s.cache_served, s.busy_rejections, s.cancelled, s.expired
        );
    }
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("loadgen: {e}");
        }
        std::process::exit(1);
    }
    if done != jobs_total {
        eprintln!("loadgen: only {done} of {jobs_total} jobs completed");
        std::process::exit(1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::strings;

    fn options(args: &[&str]) -> Result<Options, String> {
        parse(&strings(args))
    }

    #[test]
    fn quick_scales_the_defaults_and_flags_override_them() {
        let quick = options(&["--quick"]).unwrap();
        assert_eq!((quick.jobs, quick.clients), (120, 4));
        let full = options(&[]).unwrap();
        assert_eq!((full.jobs, full.clients, full.addr), (1000, 8, None));
        let set = options(&["--jobs", "5", "--clients", "2", "--addr", "h:1"]).unwrap();
        assert_eq!((set.jobs, set.clients), (5, 2));
        assert_eq!(set.addr.as_deref(), Some("h:1"));
    }

    #[test]
    fn malformed_jobs_or_clients_are_usage_errors() {
        for (args, want) in [
            (
                &["--jobs", "many"][..],
                "loadgen: --jobs expects an integer, got 'many'",
            ),
            (&["--jobs"], "loadgen: --jobs expects a value"),
            (
                &["--clients", "-1"],
                "loadgen: --clients expects an integer, got '-1'",
            ),
            (&["--clients", "0"], "loadgen: --clients must be positive"),
            (&["--budget", "5"], "loadgen: unknown flag '--budget'"),
            (&["extra"], "loadgen: unexpected argument 'extra'"),
        ] {
            assert_eq!(options(args).err().as_deref(), Some(want), "{args:?}");
        }
    }
}
