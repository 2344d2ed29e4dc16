//! Discrete-event cross-check of the analytic schedule model.
//!
//! [`schedule::simulate`](crate::schedule::simulate) evaluates the
//! pipeline with a token-bucket recurrence (inter-departure
//! `compute / R`). This module simulates the same system with an
//! event-driven engine in which every replica is an explicit server —
//! an independent implementation with different idealizations, used to
//! bound the analytic model's optimism:
//!
//! - [`ReplicaModel::DiscreteServers`]: each replica serves one whole
//!   micro-batch (`compute_ns` service); replicas are a `c = R` server
//!   pool. This is the paper's literal intra-batch parallelism ("multiple
//!   micro-batches … run in parallel").
//! - [`ReplicaModel::InputSplit`]: `min(R, B)` replicas gang up on one
//!   micro-batch (service `compute / min(R, B)`), with
//!   `⌊R / min(R, B)⌋` gangs — the analytic model's assumption.
//!
//! With `R = 1` both collapse to the same recurrence and must agree
//! with the analytic simulator exactly; the tests verify this, and the
//! property tests bound the divergence elsewhere.
//!
//! Each stage's server pool is an exact round-robin ring: micro-batch
//! `j` takes the server that micro-batch `j - count` released, because
//! a stage's completions never decrease in `j` (the precondition is
//! stated where the engine reads the ring).
//! `tests/kernel_equivalence.rs` pins the ring bit for bit against a
//! test-local `BinaryHeap` engine, clean and faulty.

use crate::workload::GcnWorkload;
use gopim_obs::metrics::LazyCounter;

static DES_RUNS: LazyCounter = LazyCounter::new("pipeline.des.runs");
static DES_EVENTS: LazyCounter = LazyCounter::new("pipeline.des.events");
static FAULTS_INJECTED: LazyCounter = LazyCounter::new("faults.injected");
static FAULTS_REMAPPED: LazyCounter = LazyCounter::new("faults.remapped");
static FAULTS_RETRIES: LazyCounter = LazyCounter::new("faults.retries");

/// How replicas serve micro-batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaModel {
    /// One replica serves one whole micro-batch.
    DiscreteServers,
    /// Up to `B` replicas split a micro-batch's inputs.
    InputSplit,
}

/// Result of a discrete-event run.
#[derive(Debug, Clone, PartialEq)]
pub struct DesResult {
    /// End-to-end makespan, ns.
    pub makespan_ns: f64,
    /// Completion time of every (stage, micro-batch), ns.
    pub completions_ns: Vec<Vec<f64>>,
}

/// The shared event-driven engine: per-stage server pools as
/// round-robin rings, with the per-write latency supplied by `write`
/// (identity for clean runs, the fault session filter for faulty
/// ones).
fn des_core(
    workload: &GcnWorkload,
    replicas: &[usize],
    model: ReplicaModel,
    mut write: impl FnMut(usize, usize, f64, f64) -> f64,
) -> DesResult {
    let stages = workload.stages();
    assert_eq!(replicas.len(), stages.len(), "one replica count per stage");
    assert!(replicas.iter().all(|&r| r > 0), "replicas must be positive");
    let n_mb = workload.num_microbatches();
    let s = stages.len();
    let _span = gopim_obs::span!("pipeline.des", s, n_mb);
    DES_RUNS.add(1);
    DES_EVENTS.add((s * n_mb) as u64);
    let b = workload.micro_batch();
    let overhead = workload.overhead_ns();

    // Per-stage server count and service time, hoisted out of the
    // event loop.
    let (servers, service_ns): (Vec<usize>, Vec<f64>) = (0..s)
        .map(|i| {
            let (count, split) = server_shape(replicas[i], b, model);
            (count, stages[i].compute_ns / split as f64)
        })
        .unzip();
    let mut w_chan = vec![0.0f64; s];
    let mut completions = vec![vec![0.0f64; n_mb]; s];
    let mut makespan = 0.0f64;

    // Server pools are round-robin rings read out of the completion
    // table: micro-batch `j` takes the server that micro-batch
    // `j - count` released (all `count` servers start free at 0).
    // That is exactly the earliest-free server, given this
    // precondition: writes (clean, or through `FaultSession::write`),
    // the dispatch overhead and the service times are non-negative.
    // Then the write channel only advances and a pool's minimum free
    // time never decreases, so each stage's completions never decrease
    // in `j`, and the server freed longest ago is always one of the
    // earliest free. Servers carry no payload, so ties change nothing.
    #[allow(clippy::needless_range_loop)] // j indexes per-stage completion tables
    for j in 0..n_mb {
        let mut prev_end = 0.0f64;
        for i in 0..s {
            let d_start = prev_end.max(w_chan[i]);
            let w = write(i, j, d_start, workload.write_ns(i, j));
            let w_end = d_start + overhead + w;
            w_chan[i] = w_end;
            let free = match j.checked_sub(servers[i]) {
                Some(prev) => completions[i][prev],
                None => 0.0,
            };
            let c_end = w_end.max(free) + service_ns[i];
            completions[i][j] = c_end;
            prev_end = c_end;
        }
        makespan = makespan.max(prev_end);
    }
    DesResult {
        makespan_ns: makespan,
        completions_ns: completions,
    }
}

/// Runs the event-driven simulation (single batch, intra-batch
/// pipelining).
///
/// # Panics
///
/// Panics if `replicas.len() != workload.stages().len()` or any count
/// is zero.
pub fn simulate_des(workload: &GcnWorkload, replicas: &[usize], model: ReplicaModel) -> DesResult {
    des_core(workload, replicas, model, |_, _, _, w| w)
}

/// Runs the event-driven simulation through a fault session: each
/// write's latency is filtered by
/// [`FaultSession::write`](gopim_faults::FaultSession::write) at its
/// dispatch time, so due fault events fire in simulated-time order and
/// mitigation (retries with capped backoff, spare remapping, load
/// concentration) stretches exactly the writes it should. The
/// session's [stats](gopim_faults::FaultSession::stats) accumulate the
/// retry/remap work for energy accounting, and the `faults.injected` /
/// `faults.remapped` / `faults.retries` telemetry counters advance by
/// this run's contribution.
///
/// Over an inert session this is *bit-identical* to [`simulate_des`]
/// (the differential tests pin that), so the fault layer costs nothing
/// when disabled.
///
/// # Panics
///
/// Panics if `replicas.len() != workload.stages().len()` or any count
/// is zero.
pub fn simulate_des_faulty(
    workload: &GcnWorkload,
    replicas: &[usize],
    model: ReplicaModel,
    session: &mut gopim_faults::FaultSession,
) -> DesResult {
    let stats_before = *session.stats();
    let result = des_core(workload, replicas, model, |i, j, d_start, w| {
        session.write(i, j, d_start, w)
    });
    let stats = session.stats();
    FAULTS_INJECTED.add(stats.injected - stats_before.injected);
    FAULTS_REMAPPED.add(stats.remapped - stats_before.remapped);
    FAULTS_RETRIES.add(stats.retries - stats_before.retries);
    result
}

/// `(server count, split factor)` for a replica count under a model.
#[inline]
fn server_shape(replicas: usize, micro_batch: usize, model: ReplicaModel) -> (usize, usize) {
    match model {
        ReplicaModel::DiscreteServers => (replicas, 1),
        ReplicaModel::InputSplit => {
            let split = replicas.min(micro_batch);
            ((replicas / split).max(1), split)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{simulate, PipelineOptions};
    use crate::workload::{GcnWorkload, WorkloadOptions};
    use gopim_graph::datasets::Dataset;

    fn ddi() -> GcnWorkload {
        GcnWorkload::build(Dataset::Ddi, &WorkloadOptions::default())
    }

    #[test]
    fn agrees_with_analytic_model_at_one_replica() {
        let wl = ddi();
        let r = vec![1; wl.stages().len()];
        let analytic = simulate(&wl, &r, &PipelineOptions::intra_only());
        for model in [ReplicaModel::DiscreteServers, ReplicaModel::InputSplit] {
            let des = simulate_des(&wl, &r, model);
            let rel = (des.makespan_ns - analytic.makespan_ns).abs() / analytic.makespan_ns;
            assert!(
                rel < 1e-9,
                "{model:?}: {} vs {}",
                des.makespan_ns,
                analytic.makespan_ns
            );
        }
    }

    #[test]
    fn input_split_tracks_the_token_bucket_closely() {
        let wl = ddi();
        let s = wl.stages().len();
        for r in [4usize, 16, 64, 256] {
            let reps = vec![r; s];
            let analytic = simulate(&wl, &reps, &PipelineOptions::intra_only());
            let des = simulate_des(&wl, &reps, ReplicaModel::InputSplit);
            let ratio = des.makespan_ns / analytic.makespan_ns;
            assert!(
                (0.99..1.25).contains(&ratio),
                "R={r}: DES/analytic ratio {ratio}"
            );
        }
    }

    #[test]
    fn discrete_servers_are_never_faster_than_the_analytic_bound() {
        // Same throughput, worse latency: the discrete model can only
        // lose to the idealized split.
        let wl = ddi();
        let s = wl.stages().len();
        for r in [2usize, 8, 32] {
            let reps = vec![r; s];
            let analytic = simulate(&wl, &reps, &PipelineOptions::intra_only());
            let des = simulate_des(&wl, &reps, ReplicaModel::DiscreteServers);
            assert!(
                des.makespan_ns >= analytic.makespan_ns * 0.999,
                "R={r}: {} vs {}",
                des.makespan_ns,
                analytic.makespan_ns
            );
        }
    }

    #[test]
    fn replicas_help_under_both_models() {
        let wl = ddi();
        let s = wl.stages().len();
        for model in [ReplicaModel::DiscreteServers, ReplicaModel::InputSplit] {
            let base = simulate_des(&wl, &vec![1; s], model);
            let boosted = simulate_des(&wl, &vec![16; s], model);
            assert!(
                boosted.makespan_ns < 0.3 * base.makespan_ns,
                "{model:?}: {} vs {}",
                boosted.makespan_ns,
                base.makespan_ns
            );
        }
    }

    #[test]
    fn faulty_des_with_inert_session_is_bit_identical() {
        let wl = ddi();
        let s = wl.stages().len();
        let shape = vec![8usize; s];
        for model in [ReplicaModel::DiscreteServers, ReplicaModel::InputSplit] {
            let clean = simulate_des(&wl, &vec![4; s], model);
            let mut session = gopim_faults::FaultSession::disabled(&shape);
            let faulty = simulate_des_faulty(&wl, &vec![4; s], model, &mut session);
            assert_eq!(clean.makespan_ns.to_bits(), faulty.makespan_ns.to_bits());
            assert_eq!(clean.completions_ns, faulty.completions_ns);
            assert_eq!(*session.stats(), gopim_faults::SessionStats::default());
        }
    }

    #[test]
    fn faults_with_mitigation_strictly_stretch_the_makespan() {
        use gopim_faults::{FaultConfig, FaultPlan, FaultSession, MitigationPolicy, SessionConfig};
        let wl = ddi();
        let s = wl.stages().len();
        let reps = vec![4; s];
        let clean = simulate_des(&wl, &reps, ReplicaModel::DiscreteServers);
        let shape = vec![16usize; s];
        let plan = FaultPlan::generate(
            FaultConfig {
                seed: 7,
                stuck_rate: 0.5,
                transient_rate: 0.05,
                horizon_ns: clean.makespan_ns,
            },
            &shape,
        );
        let mut cfg = SessionConfig::new(MitigationPolicy::Remap);
        cfg.spare_groups = 2;
        let run = |mut session: FaultSession| {
            let r = simulate_des_faulty(&wl, &reps, ReplicaModel::DiscreteServers, &mut session);
            (r, *session.stats())
        };
        let (a, sa) = run(FaultSession::new(plan.clone(), cfg, &shape));
        let (b, sb) = run(FaultSession::new(plan, cfg, &shape));
        // Replays bit-identically from the same seed.
        assert_eq!(a.makespan_ns.to_bits(), b.makespan_ns.to_bits());
        assert_eq!(sa, sb);
        // And degradation is real but graceful.
        assert!(a.makespan_ns > clean.makespan_ns, "no degradation");
        assert!(sa.injected > 0);
        assert!(sa.remapped > 0);
        assert!(sa.extra_write_ns > 0.0);
    }

    #[test]
    fn completions_are_monotone_per_stage() {
        // The ring's precondition: each stage's completions never
        // decrease in the micro-batch index, for both replica models,
        // with and without fault sessions stretching the writes.
        use gopim_faults::{FaultConfig, FaultPlan, FaultSession, MitigationPolicy, SessionConfig};
        let wl = ddi();
        let reps = vec![8; wl.stages().len()];
        let shape = vec![16usize; reps.len()];
        let monotone = |des: &DesResult| {
            des.completions_ns
                .iter()
                .all(|row| row.windows(2).all(|w| w[0] <= w[1]))
        };
        for model in [ReplicaModel::DiscreteServers, ReplicaModel::InputSplit] {
            let clean = simulate_des(&wl, &reps, model);
            assert!(monotone(&clean), "{model:?} clean");
            let fault = FaultConfig {
                seed: 11,
                stuck_rate: 0.5,
                transient_rate: 0.1,
                horizon_ns: clean.makespan_ns,
            };
            for policy in MitigationPolicy::ALL {
                let mut cfg = SessionConfig::new(policy);
                cfg.spare_groups = 2;
                let plan = FaultPlan::generate(fault, &shape);
                let mut session = FaultSession::new(plan, cfg, &shape);
                let faulty = simulate_des_faulty(&wl, &reps, model, &mut session);
                assert!(session.stats().injected > 0, "{model:?} {policy:?}");
                assert!(monotone(&faulty), "{model:?} {policy:?}");
            }
        }
    }
}
