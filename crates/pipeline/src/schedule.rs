//! Pipeline schedule simulation (the paper's Eqs. 3–6).
//!
//! For every micro-batch `j` and stage `i` the schedule respects:
//!
//! - `T_i^j(start) ≥ T_{i−1}^j(end)` — data dependency within a
//!   micro-batch (Eq. 4);
//! - `T_i^j(start) ≥ T_i^{j−c_i}(end)` — replica occupancy (Eq. 3
//!   generalized);
//! - writes serialize per stage (every replica is programmed with the
//!   same update, so the write channel admits one micro-batch at a
//!   time) and precede that micro-batch's compute.
//!
//! Replicas act on two axes, following the paper's §IV-A intra-batch
//! parallelism: up to `B` replicas *split one micro-batch's inputs*
//! (service time `compute / min(R, B)`), and beyond that each group of
//! `B` replicas holds an additional micro-batch in flight
//! (`c = max(1, R / B)` concurrent micro-batches). Either way the
//! stage's steady-state throughput is `R / compute`.
//!
//! With `R_i = 1` everywhere and uniform service times this reduces to
//! the paper's closed form `T_A = Σ T_i + (B−1)·T_max` (Eq. 6), which
//! the tests check.

use crate::workload::GcnWorkload;

/// Pipelining options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Overlap stages of different micro-batches within a batch
    /// (intra-batch pipelining). When `false` everything runs strictly
    /// sequentially — the paper's `Serial` baseline.
    pub intra_batch: bool,
    /// Overlap the tail of one batch with the head of the next
    /// (inter-batch pipelining under bounded staleness, §IV-A). Only
    /// meaningful when `num_batches > 1`.
    pub inter_batch: bool,
    /// Number of batches to simulate.
    pub num_batches: usize,
}

impl PipelineOptions {
    /// The `Serial` baseline: no pipelining at all.
    pub fn serial() -> Self {
        PipelineOptions {
            intra_batch: false,
            inter_batch: false,
            num_batches: 1,
        }
    }

    /// Intra-batch pipelining only (SlimGNN-like / ReGraphX style).
    pub fn intra_only() -> Self {
        PipelineOptions {
            intra_batch: true,
            inter_batch: false,
            num_batches: 1,
        }
    }
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            intra_batch: true,
            inter_batch: true,
            num_batches: 1,
        }
    }
}

/// Per-stage activity accounting from one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct StageActivity {
    /// Stage name (e.g. `AG1`).
    pub name: String,
    /// Replicas assigned.
    pub replicas: usize,
    /// Summed compute service time across micro-batches, ns.
    pub busy_compute_ns: f64,
    /// Summed write time across micro-batches, ns.
    pub busy_write_ns: f64,
    /// Crossbar-level idle share: one minus the fraction of
    /// makespan × replica-capacity actually doing work
    /// (`(Σ compute / R + Σ write) / makespan`). This is the paper's
    /// Fig. 4 quantity — Combination crossbars idle > 97 % under a
    /// plain pipeline.
    pub idle_fraction: f64,
    /// Stage-occupancy idle share: the fraction of the makespan during
    /// which the stage had *no* micro-batch in flight (dispatch, write
    /// or compute). This is the Fig. 15 quantity that GoPIM's replicas
    /// reduce by tens of points.
    pub stage_idle_fraction: f64,
}

/// Result of simulating a pipeline schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineResult {
    /// End-to-end makespan, ns.
    pub makespan_ns: f64,
    /// Sum of every stage's service time over every micro-batch (the
    /// `Serial` execution time), ns.
    pub total_service_ns: f64,
    /// Per-stage activity.
    pub stages: Vec<StageActivity>,
}

/// Simulates the pipeline for a given per-stage replica assignment.
///
/// # Panics
///
/// Panics if `replicas.len() != workload.stages().len()` or any replica
/// count is zero.
pub fn simulate(
    workload: &GcnWorkload,
    replicas: &[usize],
    options: &PipelineOptions,
) -> PipelineResult {
    simulate_with_sink(workload, replicas, options, &mut |_| {})
}

/// One scheduled (stage, micro-batch) occupancy, emitted by
/// [`simulate_traced`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Stage index in the 4L chain.
    pub stage: usize,
    /// Batch index.
    pub batch: usize,
    /// Micro-batch index within the batch.
    pub microbatch: usize,
    /// Dispatch start, ns.
    pub dispatch_ns: f64,
    /// Write start, ns.
    pub write_start_ns: f64,
    /// Compute start, ns.
    pub compute_start_ns: f64,
    /// Completion, ns.
    pub end_ns: f64,
}

/// Like [`simulate`] but also returns every scheduled interval — the
/// input to [`crate::trace::render_gantt`].
pub fn simulate_traced(
    workload: &GcnWorkload,
    replicas: &[usize],
    options: &PipelineOptions,
) -> (PipelineResult, Vec<TraceEvent>) {
    let mut events = Vec::new();
    let result = simulate_with_sink(workload, replicas, options, &mut |e| events.push(e));
    (result, events)
}

fn simulate_with_sink(
    workload: &GcnWorkload,
    replicas: &[usize],
    options: &PipelineOptions,
    sink: &mut dyn FnMut(TraceEvent),
) -> PipelineResult {
    let stages = workload.stages();
    assert_eq!(replicas.len(), stages.len(), "one replica count per stage");
    assert!(
        replicas.iter().all(|&r| r > 0),
        "every stage needs at least one replica"
    );
    let n_mb = workload.num_microbatches();
    let s = stages.len();
    let _span = gopim_obs::span!("pipeline.simulate", s, n_mb);

    let mut busy_compute = vec![0.0f64; s];
    let mut busy_write = vec![0.0f64; s];
    let mut busy_dispatch = vec![0.0f64; s];
    // Union length of the intervals during which each stage has work
    // in flight (drives the Fig. 4 / Fig. 15 idle metric).
    let mut active_ns = vec![0.0f64; s];
    let mut active_end = vec![0.0f64; s];
    let mut makespan = 0.0f64;

    let overhead = workload.overhead_ns();
    if !options.intra_batch {
        // Strictly sequential: the makespan is the total service time.
        let mut t = 0.0;
        for batch in 0..options.num_batches {
            for j in 0..n_mb {
                for (i, st) in stages.iter().enumerate() {
                    let w = workload.write_ns(i, j);
                    sink(TraceEvent {
                        stage: i,
                        batch,
                        microbatch: j,
                        dispatch_ns: t,
                        write_start_ns: t + overhead,
                        compute_start_ns: t + overhead + w,
                        end_ns: t + overhead + w + st.compute_ns,
                    });
                    t += overhead + w + st.compute_ns;
                    busy_compute[i] += st.compute_ns;
                    busy_write[i] += w;
                    busy_dispatch[i] += overhead;
                    active_ns[i] += overhead + w + st.compute_ns;
                }
            }
        }
        makespan = t;
        return finish(
            workload,
            busy_compute,
            busy_write,
            busy_dispatch,
            active_ns,
            makespan,
            replicas,
        );
    }

    // Pipelined simulation.
    // Per stage: min(R, B) replicas split one micro-batch's inputs
    // (latency), while the stage's aggregate throughput is R / compute
    // micro-batches per unit time (modeled as a token bucket:
    // consecutive dispatches are spaced compute / R apart).
    let b = workload.micro_batch();
    let service: Vec<f64> = stages
        .iter()
        .enumerate()
        .map(|(i, st)| st.compute_ns / replicas[i].min(b) as f64)
        .collect();
    let spacing: Vec<f64> = stages
        .iter()
        .enumerate()
        .map(|(i, st)| st.compute_ns / replicas[i] as f64)
        .collect();
    // stage_ready[i]: earliest time stage i can dispatch its next
    // micro-batch; w_chan[i]: the stage's write-channel availability.
    let mut stage_ready = vec![0.0f64; s];
    let mut w_chan = vec![0.0f64; s];
    let mut batch_barrier = 0.0f64;

    for batch in 0..options.num_batches {
        let mut batch_end = 0.0f64;
        for j in 0..n_mb {
            let mut prev_end = if options.inter_batch || batch == 0 {
                0.0
            } else {
                batch_barrier
            };
            for (i, st) in stages.iter().enumerate() {
                let w = workload.write_ns(i, j);
                // Dispatch overhead, then the write, then compute; the
                // write channel serializes micro-batches.
                let d_start = prev_end.max(w_chan[i]);
                let w_start = d_start + overhead;
                let w_end = w_start + w;
                w_chan[i] = w_end;
                let c_start = w_end.max(stage_ready[i]);
                let c_end = c_start + service[i];
                stage_ready[i] = c_start + spacing[i];
                sink(TraceEvent {
                    stage: i,
                    batch,
                    microbatch: j,
                    dispatch_ns: d_start,
                    write_start_ns: w_start,
                    compute_start_ns: c_start,
                    end_ns: c_end,
                });
                prev_end = c_end;
                busy_compute[i] += st.compute_ns;
                busy_write[i] += w;
                busy_dispatch[i] += overhead;
                // Interval-union occupancy time: [d_start, c_end),
                // merged with whatever this stage already covered.
                // Starts are non-decreasing in practice, so clamping to
                // the previous occupancy end is exact.
                let inc = c_end - d_start.max(active_end[i]);
                if inc > 0.0 {
                    active_ns[i] += inc;
                }
                active_end[i] = active_end[i].max(c_end);
            }
            batch_end = batch_end.max(prev_end);
        }
        batch_barrier = batch_end;
        makespan = makespan.max(batch_end);
    }
    finish(
        workload,
        busy_compute,
        busy_write,
        busy_dispatch,
        active_ns,
        makespan,
        replicas,
    )
}

#[allow(clippy::too_many_arguments)]
fn finish(
    workload: &GcnWorkload,
    busy_compute: Vec<f64>,
    busy_write: Vec<f64>,
    busy_dispatch: Vec<f64>,
    active_ns: Vec<f64>,
    makespan: f64,
    replicas: &[usize],
) -> PipelineResult {
    // Per-stage duration telemetry (compute / write / dispatch), keyed
    // by stage name. Dynamic names go through the registry directly;
    // the whole block is skipped when metrics are off.
    if gopim_obs::metrics_enabled() {
        let registry = gopim_obs::metrics::global();
        for (i, st) in workload.stages().iter().enumerate() {
            let name = st.name();
            registry
                .counter(&format!("pipeline.stage.{name}.compute_ns"))
                .add_ns(busy_compute[i]);
            registry
                .counter(&format!("pipeline.stage.{name}.write_ns"))
                .add_ns(busy_write[i]);
            registry
                .counter(&format!("pipeline.stage.{name}.dispatch_ns"))
                .add_ns(busy_dispatch[i]);
        }
        registry.counter("pipeline.simulate.calls").add(1);
    }
    let total_service: f64 = busy_compute.iter().sum::<f64>() + busy_write.iter().sum::<f64>();
    let stages = workload
        .stages()
        .iter()
        .enumerate()
        .map(|(i, st)| {
            let (idle, stage_idle) = if makespan > 0.0 {
                let work = busy_compute[i] / replicas[i] as f64 + busy_write[i];
                (
                    (1.0 - work / makespan).clamp(0.0, 1.0),
                    (1.0 - active_ns[i] / makespan).clamp(0.0, 1.0),
                )
            } else {
                (0.0, 0.0)
            };
            StageActivity {
                name: st.name(),
                replicas: replicas[i],
                busy_compute_ns: busy_compute[i],
                busy_write_ns: busy_write[i],
                idle_fraction: idle,
                stage_idle_fraction: stage_idle,
            }
        })
        .collect();
    PipelineResult {
        makespan_ns: makespan,
        total_service_ns: total_service,
        stages,
    }
}

impl gopim_cache::CanonicalHash for PipelineOptions {
    fn canonical_hash(&self, h: &mut gopim_cache::CanonicalHasher) {
        h.write_tag("pipeline.options/v1");
        h.write_bool(self.intra_batch);
        h.write_bool(self.inter_batch);
        h.write_usize(self.num_batches);
    }
}

impl gopim_cache::CacheValue for StageActivity {
    fn encode(&self, e: &mut gopim_cache::Encoder) {
        e.put_str(&self.name);
        e.put_usize(self.replicas);
        e.put_f64(self.busy_compute_ns);
        e.put_f64(self.busy_write_ns);
        e.put_f64(self.idle_fraction);
        e.put_f64(self.stage_idle_fraction);
    }
    fn decode(d: &mut gopim_cache::Decoder<'_>) -> Option<Self> {
        Some(StageActivity {
            name: d.take_str()?,
            replicas: d.take_usize()?,
            busy_compute_ns: d.take_f64()?,
            busy_write_ns: d.take_f64()?,
            idle_fraction: d.take_f64()?,
            stage_idle_fraction: d.take_f64()?,
        })
    }
}

impl gopim_cache::CacheValue for PipelineResult {
    fn encode(&self, e: &mut gopim_cache::Encoder) {
        e.put_f64(self.makespan_ns);
        e.put_f64(self.total_service_ns);
        self.stages.encode(e);
    }
    fn decode(d: &mut gopim_cache::Decoder<'_>) -> Option<Self> {
        Some(PipelineResult {
            makespan_ns: d.take_f64()?,
            total_service_ns: d.take_f64()?,
            stages: Vec::decode(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{GcnWorkload, WorkloadOptions};
    use gopim_graph::datasets::Dataset;

    fn ddi() -> GcnWorkload {
        GcnWorkload::build(Dataset::Ddi, &WorkloadOptions::default())
    }

    #[test]
    fn serial_makespan_equals_total_service() {
        let wl = ddi();
        let r = vec![1; wl.stages().len()];
        let res = simulate(&wl, &r, &PipelineOptions::serial());
        let overhead_total = wl.overhead_ns() * (wl.num_microbatches() * wl.stages().len()) as f64;
        assert!((res.makespan_ns - res.total_service_ns - overhead_total).abs() < 1e-3);
    }

    #[test]
    fn pipelining_beats_serial() {
        let wl = ddi();
        let r = vec![1; wl.stages().len()];
        let serial = simulate(&wl, &r, &PipelineOptions::serial());
        let piped = simulate(&wl, &r, &PipelineOptions::intra_only());
        assert!(piped.makespan_ns < 0.6 * serial.makespan_ns);
    }

    #[test]
    fn replicas_shorten_the_bottleneck() {
        let wl = ddi();
        let s = wl.stages().len();
        let base = simulate(&wl, &vec![1; s], &PipelineOptions::default());
        // Give the aggregation-style stages 8 replicas each.
        let mut r = vec![1; s];
        for (i, st) in wl.stages().iter().enumerate() {
            if st.kind.maps_features() {
                r[i] = 8;
            }
        }
        let boosted = simulate(&wl, &r, &PipelineOptions::default());
        assert!(
            boosted.makespan_ns < 0.3 * base.makespan_ns,
            "boosted {} vs base {}",
            boosted.makespan_ns,
            base.makespan_ns
        );
    }

    #[test]
    fn closed_form_eq6_holds_for_unit_replicas() {
        // With R_i = 1, uniform writes folded into service, the
        // makespan must match Σ T_i + (M−1)·T_max within the write
        // channel's second-order effects.
        let wl = ddi();
        let s = wl.stages().len();
        let res = simulate(&wl, &vec![1; s], &PipelineOptions::intra_only());
        let n_mb = wl.num_microbatches() as f64;
        // Build per-stage mean service times.
        let services: Vec<f64> = wl
            .stages()
            .iter()
            .enumerate()
            .map(|(i, st)| {
                let mean_w: f64 = (0..wl.num_microbatches())
                    .map(|j| wl.write_ns(i, j))
                    .sum::<f64>()
                    / n_mb;
                st.compute_ns + mean_w + wl.overhead_ns()
            })
            .collect();
        let t_max = services.iter().cloned().fold(0.0, f64::max);
        let closed = services.iter().sum::<f64>() + (n_mb - 1.0) * t_max;
        let rel = (res.makespan_ns - closed).abs() / closed;
        assert!(
            rel < 0.05,
            "simulated {} vs closed-form {}",
            res.makespan_ns,
            closed
        );
    }

    #[test]
    fn inter_batch_overlap_reduces_multi_batch_makespan() {
        let wl = ddi();
        let s = wl.stages().len();
        let with = PipelineOptions {
            num_batches: 3,
            ..PipelineOptions::default()
        };
        let without = PipelineOptions {
            num_batches: 3,
            ..PipelineOptions::intra_only()
        };
        let a = simulate(&wl, &vec![1; s], &with);
        let b = simulate(&wl, &vec![1; s], &without);
        assert!(a.makespan_ns < b.makespan_ns);
    }

    #[test]
    fn combination_stages_idle_most_of_the_time() {
        // The paper's Fig. 4 observation: crossbars mapped for CO
        // stages idle > 97 % under a plain pipeline.
        let wl = ddi();
        let s = wl.stages().len();
        let res = simulate(&wl, &vec![1; s], &PipelineOptions::intra_only());
        for st in &res.stages {
            if st.name.starts_with("CO") {
                assert!(
                    st.idle_fraction > 0.9,
                    "{}: idle {}",
                    st.name,
                    st.idle_fraction
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "one replica count per stage")]
    fn wrong_replica_len_rejected() {
        let wl = ddi();
        let _ = simulate(&wl, &[1, 1], &PipelineOptions::default());
    }
}
