//! Differential-equivalence harness for the fast paths.
//!
//! Two families of optimized code ship with this repo, both under the
//! bit-determinism contract:
//!
//! - the register-tile matmul/aggregation kernels (`gopim_linalg`),
//!   whose AVX2 and baseline-ISA builds must produce the same `f64`
//!   bits as each other and as the textbook loop for every shape, tile
//!   edge, and thread count;
//! - the DES's round-robin server rings (`gopim_pipeline::des`), which
//!   must drive the DES to the same makespans, completion tables and
//!   fault-session statistics as a test-local `BinaryHeap` engine, and
//!   emit the same `gopim-obs` spans at every thread count.
//!
//! Each property test draws randomized shapes and inputs through
//! `gopim-testkit` (replay a failure with `GOPIM_PT_SEED=<seed>`), and
//! every comparison is exact — `to_bits` equality, never tolerances.
//! The SIMD comparisons run via the `set_simd_enabled` runtime toggle,
//! so a single process exercises both dispatch paths even though the
//! build flags never change.

use gopim_faults::{FaultConfig, FaultPlan, FaultSession, MitigationPolicy, SessionConfig};
use gopim_gcn::aggregate::{MeanAggregator, NormalizedAdjacency, Propagation};
use gopim_graph::datasets::ModelConfig;
use gopim_graph::generate::power_law_profile;
use gopim_graph::CsrGraph;
use gopim_linalg::simd::{set_simd_enabled, simd_enabled};
use gopim_linalg::Matrix;
use gopim_par::Pool;
use gopim_pipeline::des::{simulate_des, simulate_des_faulty, DesResult, ReplicaModel};
use gopim_pipeline::{GcnWorkload, WorkloadOptions};
use gopim_testkit::prop::{check_with, Config};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Deterministic value stream for filling matrices (xorshift64*), so a
/// single drawn seed reproduces the whole input.
struct Values(u64);

impl Values {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        // Map to a modest range with both signs and uneven mantissas.
        (self.0 % 2_000_003) as f64 / 997.0 - 1000.0
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| self.next()).collect())
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The textbook product: one running sum per output, starting at 0.0
/// and adding `a[i][k]·b[k][j]` for ascending `k`, fused only on builds
/// with the `fma` target feature (the kernels' rounding policy).
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f64;
            for k in 0..a.cols() {
                if cfg!(target_feature = "fma") {
                    acc = a[(i, k)].mul_add(b[(k, j)], acc);
                } else {
                    acc += a[(i, k)] * b[(k, j)];
                }
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// Runs `f` with the SIMD path forced on, then forced off, restoring
/// the previous dispatch state afterwards.
fn with_both_paths<R>(mut f: impl FnMut() -> R) -> (R, R) {
    let was = simd_enabled();
    set_simd_enabled(true);
    let on = f();
    set_simd_enabled(false);
    let off = f();
    set_simd_enabled(was);
    (on, off)
}

#[test]
fn matmul_is_bit_identical_across_simd_paths_and_thread_counts() {
    check_with(
        "matmul_is_bit_identical_across_simd_paths_and_thread_counts",
        Config::cases(48),
        |d| {
            // Shapes hug the register tile (4 rows × 8 columns, column
            // tails of 4/2/1): draws land on exact multiples, 1-off
            // tails, and degenerate single rows/columns alike. `k`
            // reaches past a GCN layer's `Xᵀ·δ` reduction (1200).
            let m = d.draw("m", 1usize..40);
            let k = d.draw("k", 1usize..1300);
            let n = d.draw("n", 1usize..70);
            let seed = d.draw("seed", 1u64..u64::MAX);
            let threads = d.pick("threads", &[1usize, 4]);
            let mut vals = Values(seed);
            let a = vals.matrix(m, k);
            let b = vals.matrix(k, n);
            let pool = Pool::new(threads);
            let (on, off) = with_both_paths(|| pool.install(|| a.matmul(&b)));
            assert_eq!(
                bits(&on),
                bits(&off),
                "matmul bits diverged at {m}x{k}x{n}, {threads} threads"
            );
            assert_eq!(
                bits(&on),
                bits(&naive_matmul(&a, &b)),
                "matmul diverged from the naive reference at {m}x{k}x{n}"
            );
            // matmul_into over a dirty (non-zero) output buffer must
            // fully overwrite and agree with the allocating form.
            let mut out = vals.matrix(m, n);
            let (into_on, into_off) = with_both_paths(|| {
                pool.install(|| {
                    a.matmul_into(&b, &mut out);
                    out.clone()
                })
            });
            assert_eq!(
                bits(&into_on),
                bits(&on),
                "matmul_into diverged from matmul"
            );
            assert_eq!(bits(&into_on), bits(&into_off), "matmul_into SIMD diverged");
        },
    );
}

#[test]
fn aggregation_is_bit_identical_across_simd_paths_and_thread_counts() {
    check_with(
        "aggregation_is_bit_identical_across_simd_paths_and_thread_counts",
        Config::cases(32),
        |d| {
            let n = d.draw("n", 2usize..200);
            let d_feat = d.draw("d", 1usize..65);
            let num_edges = d.draw("edges", 0usize..400);
            let seed = d.draw("seed", 1u64..u64::MAX);
            let threads = d.pick("threads", &[1usize, 4]);
            let mut vals = Values(seed);
            let edges: Vec<(u32, u32)> = (0..num_edges)
                .map(|_| {
                    let u = (vals.0 % n as u64) as u32;
                    vals.next();
                    let v = (vals.0 % n as u64) as u32;
                    vals.next();
                    (u, v)
                })
                .filter(|&(u, v)| u != v)
                .collect();
            let graph = CsrGraph::from_edges(n, &edges);
            let x = vals.matrix(n, d_feat);
            let norm = NormalizedAdjacency::new(&graph);
            let mean = MeanAggregator::new();
            let pool = Pool::new(threads);
            let run = |p: &dyn Propagation| {
                with_both_paths(|| {
                    pool.install(|| (p.propagate(&graph, &x), p.propagate_transpose(&graph, &x)))
                })
            };
            for (name, p) in [
                ("normalized", &norm as &dyn Propagation),
                ("mean", &mean as &dyn Propagation),
            ] {
                let (on, off) = run(p);
                assert_eq!(
                    bits(&on.0),
                    bits(&off.0),
                    "{name} propagate bits diverged (n={n}, d={d_feat})"
                );
                assert_eq!(
                    bits(&on.1),
                    bits(&off.1),
                    "{name} propagate_transpose bits diverged (n={n}, d={d_feat})"
                );
            }
        },
    );
}

fn model(layers: usize) -> ModelConfig {
    ModelConfig {
        num_layers: layers,
        learning_rate: 0.01,
        dropout: 0.0,
        input_channels: 32,
        hidden_channels: 64,
        output_channels: 16,
    }
}

fn assert_des_bits_equal(a: &DesResult, b: &DesResult, what: &str) {
    assert_eq!(
        a.makespan_ns.to_bits(),
        b.makespan_ns.to_bits(),
        "{what}: makespan diverged"
    );
    assert_eq!(
        a.completions_ns.len(),
        b.completions_ns.len(),
        "{what}: stage count diverged"
    );
    for (i, (ca, cb)) in a.completions_ns.iter().zip(&b.completions_ns).enumerate() {
        let ba: Vec<u64> = ca.iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u64> = cb.iter().map(|v| v.to_bits()).collect();
        assert_eq!(ba, bb, "{what}: stage {i} completions diverged");
    }
}

/// Maps `f64` bits to an integer that sorts like `f64::total_cmp`; the
/// map is its own inverse.
fn total_order(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The reference DES: every stage's servers sit in a `BinaryHeap` of
/// free times, and each micro-batch pops the earliest-free one. It
/// assumes no monotonicity, so the ring engine must match it bit for
/// bit. (Equal times are equal bits, so the tie order is moot.)
fn reference_des(
    wl: &GcnWorkload,
    replicas: &[usize],
    model: ReplicaModel,
    mut session: Option<&mut FaultSession>,
) -> DesResult {
    let (s, n_mb, b) = (wl.stages().len(), wl.num_microbatches(), wl.micro_batch());
    // (server count, split factor) per stage.
    let shape: Vec<(usize, usize)> = replicas
        .iter()
        .map(|&r| match model {
            ReplicaModel::DiscreteServers => (r, 1),
            ReplicaModel::InputSplit => ((r / r.min(b)).max(1), r.min(b)),
        })
        .collect();
    let mut pools: Vec<BinaryHeap<Reverse<i64>>> = shape
        .iter()
        .map(|&(count, _)| vec![Reverse(total_order(0)); count].into())
        .collect();
    let mut w_chan = vec![0.0f64; s];
    let mut completions = vec![vec![0.0f64; n_mb]; s];
    let mut makespan = 0.0f64;
    #[allow(clippy::needless_range_loop)] // j indexes per-stage completion tables
    for j in 0..n_mb {
        let mut prev_end = 0.0f64;
        for i in 0..s {
            let d_start = prev_end.max(w_chan[i]);
            let base = wl.write_ns(i, j);
            let w = match session.as_deref_mut() {
                Some(session) => session.write(i, j, d_start, base),
                None => base,
            };
            let w_end = d_start + wl.overhead_ns() + w;
            w_chan[i] = w_end;
            let Reverse(key) = pools[i].pop().expect("non-empty pool");
            let free = f64::from_bits(total_order(key) as u64);
            let c_end = w_end.max(free) + wl.stages()[i].compute_ns / shape[i].1 as f64;
            pools[i].push(Reverse(total_order(c_end.to_bits() as i64)));
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

#[test]
fn des_rings_are_bit_identical_to_a_heap_reference() {
    check_with(
        "des_rings_are_bit_identical_to_a_heap_reference",
        Config::cases(32),
        |d| {
            let n = d.draw("n", 64usize..3000);
            let avg = d.draw("avg", 2.0f64..50.0);
            let b = d.draw("b", 1usize..65);
            let profile = power_law_profile(n, avg, 0.8, 0.9, d.draw("pseed", 0u64..1000));
            let options = WorkloadOptions {
                micro_batch: b,
                ..WorkloadOptions::default()
            };
            let layers = d.draw("layers", 2usize..4);
            let wl = GcnWorkload::build_custom("equiv", &profile, &model(layers), &options);
            let s = wl.stages().len();
            let reps: Vec<usize> = (0..s)
                .map(|i| d.pick(&format!("r{i}"), &[1usize, 2, 3, 8, 64, 256]))
                .collect();
            let shape = vec![d.draw("groups", 1usize..24); s];
            let fault = FaultConfig {
                seed: d.draw("seed", 0u64..1_000_000),
                stuck_rate: d.draw("stuck_rate", 0.05f64..1.0),
                transient_rate: d.draw("transient_rate", 0.01f64..0.2),
                horizon_ns: 0.0,
            };
            let spares = d.draw("spares", 0usize..4);
            for m in [ReplicaModel::DiscreteServers, ReplicaModel::InputSplit] {
                let ring = simulate_des(&wl, &reps, m);
                let heap = reference_des(&wl, &reps, m, None);
                assert_des_bits_equal(&heap, &ring, &format!("{m:?} b={b} R={reps:?}"));
                let plan = FaultPlan::generate(
                    FaultConfig {
                        horizon_ns: ring.makespan_ns,
                        ..fault
                    },
                    &shape,
                );
                for policy in MitigationPolicy::ALL {
                    let mut cfg = SessionConfig::new(policy);
                    cfg.spare_groups = spares;
                    let mut ring_session = FaultSession::new(plan.clone(), cfg, &shape);
                    let mut heap_session = FaultSession::new(plan.clone(), cfg, &shape);
                    let ring = simulate_des_faulty(&wl, &reps, m, &mut ring_session);
                    let heap = reference_des(&wl, &reps, m, Some(&mut heap_session));
                    let what = format!("{m:?} {policy:?} b={b} R={reps:?}");
                    assert_des_bits_equal(&heap, &ring, &what);
                    assert_eq!(
                        heap_session.stats(),
                        ring_session.stats(),
                        "{what}: session stats diverged"
                    );
                }
            }
        },
    );
}

/// Runs a DES-heavy workload under `threads` workers and returns the
/// result plus the sorted identities of the `pipeline.des` spans it
/// traced.
fn traced_des(threads: usize) -> (DesResult, Vec<String>) {
    let wl = GcnWorkload::build(
        gopim_graph::datasets::Dataset::Ddi,
        &WorkloadOptions::default(),
    );
    let reps = vec![8; wl.stages().len()];
    let pool = Pool::new(threads);
    gopim_obs::set_trace_enabled(true);
    let _ = gopim_obs::span::drain();
    let result = {
        let _marker = gopim_obs::span!("kernel_equivalence.traced_des");
        pool.install(|| simulate_des(&wl, &reps, ReplicaModel::DiscreteServers))
    };
    let spans = gopim_obs::span::drain();
    gopim_obs::set_trace_enabled(false);
    // Tracing is process-wide, so concurrent tests leave their own
    // spans (DES runs included) in the drain: keep this thread's.
    let tid = spans
        .iter()
        .find(|e| e.name == "kernel_equivalence.traced_des")
        .expect("marker span recorded")
        .tid;
    let mut ids: Vec<String> = spans
        .iter()
        .filter(|e| e.tid == tid && e.name == "pipeline.des")
        .map(|e| e.identity())
        .collect();
    ids.sort();
    (result, ids)
}

#[test]
fn des_span_multiset_is_thread_count_invariant() {
    // The observable behaviour of a DES run — results AND the trace
    // it emits — must not depend on GOPIM_THREADS: serial (1 thread)
    // and the default-sized pool must agree bit for bit.
    let (serial, spans_serial) = traced_des(1);
    let default_threads = gopim_par::num_threads().max(2);
    let (par, spans_par) = traced_des(default_threads);
    assert!(
        !spans_serial.is_empty(),
        "DES runs must record spans (is span collection wired?)"
    );
    assert_des_bits_equal(&serial, &par, "1 vs default threads");
    assert_eq!(
        spans_serial, spans_par,
        "span multiset differs across thread counts"
    );
}

#[test]
fn training_trajectory_is_bit_identical_under_simd_toggle() {
    // End to end: a short GCN training run (forward, backward, Adam)
    // must land on byte-identical weights whichever kernel path the
    // dispatcher picks. This is the contract that lets GOPIM_NO_SIMD
    // be a pure kill-switch rather than a numerics knob.
    use gopim_gcn::model::GcnModel;
    use gopim_graph::generate::planted_partition;
    let run = || {
        let (g, labels) = planted_partition(120, 3, 8.0, 6.0, 11);
        let norm = NormalizedAdjacency::new(&g);
        let mut x = gopim_linalg::init::uniform(120, 5, 0.3, 17);
        for (v, &l) in labels.iter().enumerate() {
            x[(v, l as usize)] += 1.0;
        }
        let mut m = GcnModel::new(&[5, 16, 3], 0.02, 23);
        let mask = vec![true; 120];
        let mut losses = Vec::new();
        for e in 0..6 {
            losses.push(m.train_epoch(&g, &norm, &x, &labels, &mask, None, e));
        }
        let out = m.forward(&g, &norm, &x);
        (losses, bits(&out))
    };
    let (on, off) = with_both_paths(run);
    let loss_bits = |l: &[f64]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        loss_bits(&on.0),
        loss_bits(&off.0),
        "per-epoch losses diverged between SIMD and scalar paths"
    );
    assert_eq!(
        on.1, off.1,
        "final logits diverged between SIMD and scalar paths"
    );
}
