//! Determinism guarantees: the whole simulator is a pure function of
//! its inputs and seeds. Two runs with the same configuration must
//! agree bit-for-bit — this is what makes golden snapshots and seed
//! replay (GOPIM_PT_SEED) meaningful at all.

use gopim_graph::datasets::Dataset;
use gopim_pipeline::{simulate, GcnWorkload, PipelineOptions, WorkloadOptions};
use gopim_testkit::{mix_seed, SeedableRng, SmallRng};

/// `simulate` twice on the same workload: the `PipelineResult`s must
/// be identical, including every f64 bit pattern.
#[test]
fn simulate_is_bit_identical_across_runs() {
    let wl = GcnWorkload::build(Dataset::Ddi, &WorkloadOptions::default());
    let replicas = vec![3; wl.stages().len()];
    for opts in [
        PipelineOptions::serial(),
        PipelineOptions::intra_only(),
        PipelineOptions::default(),
    ] {
        let a = simulate(&wl, &replicas, &opts);
        let b = simulate(&wl, &replicas, &opts);
        assert_eq!(a, b, "non-deterministic simulate under {opts:?}");
        assert_eq!(
            a.makespan_ns.to_bits(),
            b.makespan_ns.to_bits(),
            "makespan differs at the bit level under {opts:?}"
        );
    }
}

/// Building the workload twice from the same (dataset, options) pair
/// — including the seeded synthetic profile — must produce the same
/// stage timings down to the last bit, and simulating each copy must
/// agree.
#[test]
fn workload_build_is_deterministic_for_a_fixed_seed() {
    let opts = WorkloadOptions {
        profile_seed: 1234,
        ..WorkloadOptions::default()
    };
    let a = GcnWorkload::build(Dataset::Ddi, &opts);
    let b = GcnWorkload::build(Dataset::Ddi, &opts);

    assert_eq!(a.stages().len(), b.stages().len());
    assert_eq!(a.num_microbatches(), b.num_microbatches());
    for (i, (sa, sb)) in a.stages().iter().zip(b.stages().iter()).enumerate() {
        assert_eq!(
            sa.compute_ns.to_bits(),
            sb.compute_ns.to_bits(),
            "stage {i} compute_ns differs between identical builds"
        );
        assert_eq!(
            sa.write_ns.to_bits(),
            sb.write_ns.to_bits(),
            "stage {i} write_ns differs between identical builds"
        );
        assert_eq!(sa.crossbars_per_replica, sb.crossbars_per_replica);
    }
    for j in 0..a.num_microbatches() {
        for i in 0..a.stages().len() {
            assert_eq!(a.write_ns(i, j).to_bits(), b.write_ns(i, j).to_bits());
        }
    }

    let replicas = vec![2; a.stages().len()];
    let ra = simulate(&a, &replicas, &PipelineOptions::default());
    let rb = simulate(&b, &replicas, &PipelineOptions::default());
    assert_eq!(ra, rb, "simulate of identical builds diverged");
}

/// Different profile seeds actually change the synthetic profile —
/// determinism is seeding, not a constant function.
#[test]
fn different_seeds_produce_different_workloads() {
    let a = GcnWorkload::build(
        Dataset::Ddi,
        &WorkloadOptions {
            profile_seed: 1,
            ..WorkloadOptions::default()
        },
    );
    let b = GcnWorkload::build(
        Dataset::Ddi,
        &WorkloadOptions {
            profile_seed: 2,
            ..WorkloadOptions::default()
        },
    );
    let differs = a
        .stages()
        .iter()
        .zip(b.stages().iter())
        .any(|(sa, sb)| sa.compute_ns.to_bits() != sb.compute_ns.to_bits());
    assert!(differs, "profile_seed has no effect on stage timings");
}

/// The parallel runtime's contract: the pool size must not change a
/// single bit anywhere. One snapshot covers the hot paths — dense
/// matmul, sparse propagation, a fanned-out DES sweep, GCN trainings
/// fanned out with their kernels nested under the fan-out, and an MLP
/// fit whose products split over the pool — computed under a 1-thread
/// pool and an 8-thread pool.
///
/// (`scripts/verify.sh` covers the environment side by running the
/// whole suite under `GOPIM_THREADS=1` and again at the default.)
#[test]
fn thread_count_never_changes_any_bits() {
    use gopim::runner::{run_system, RunConfig};
    use gopim::system::System;
    use gopim_gcn::aggregate::NormalizedAdjacency;
    use gopim_gcn::train::{train_gcn, TrainOptions};
    use gopim_graph::generate::planted_partition;
    use gopim_graph::CsrGraph;
    use gopim_linalg::{Matrix, Mlp, MlpConfig};
    use gopim_mapping::SelectivePolicy;
    use gopim_par::Pool;

    let snapshot = || {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Dense matmul, both kernel paths (wide and narrow output).
        let a = Matrix::from_vec(
            37,
            29,
            (0..37 * 29).map(|i| ((i as f64) * 0.61).sin()).collect(),
        );
        let wide = Matrix::from_vec(
            29,
            23,
            (0..29 * 23).map(|i| ((i as f64) * 0.27).cos()).collect(),
        );
        let narrow = Matrix::from_vec(29, 2, (0..58).map(|i| ((i as f64) * 0.19).sin()).collect());
        let mut mm = bits(&a.matmul(&wide));
        mm.extend(bits(&a.matmul(&narrow)));
        // Sparse propagation.
        let g = CsrGraph::from_edges(40, &(0..39).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let x = Matrix::from_vec(40, 6, (0..240).map(|i| ((i as f64) * 0.43).sin()).collect());
        let prop = bits(&NormalizedAdjacency::new(&g).apply(&g, &x));
        // A fanned-out DES sweep.
        let config = RunConfig {
            crossbar_budget: Some(200_000),
            ..RunConfig::default()
        };
        let sweep = [
            (Dataset::Ddi, System::Serial),
            (Dataset::Ddi, System::Gopim),
            (Dataset::Cora, System::Gopim),
        ];
        // The uncached `run_system`, fanned over the pool: this test
        // exists to observe real simulations at both thread counts,
        // not one simulation and a cache hit
        // (tests/cache_differential.rs covers the cached path).
        let des: Vec<u64> = gopim_par::par_map(&sweep, |&(d, s)| run_system(d, s, &config))
            .iter()
            .map(|r| r.makespan_ns.to_bits())
            .collect();
        // Three trainings fanned over the pool, one with ISU: every
        // matmul and CSR gather inside them runs nested under the
        // outer `par_map`. At 800 vertices the first layer's products
        // (800·12·16 multiply-adds) are above matmul's one-task
        // threshold, so they are split into row blocks too.
        let dense = planted_partition(800, 4, 8.0, 4.0, 11);
        let sparse = planted_partition(300, 3, 4.0, 4.0, 12);
        let isu = TrainOptions {
            selective: Some(SelectivePolicy::with_theta(0.5, 20)),
            ..TrainOptions::quick_test()
        };
        let runs = [
            (&dense, TrainOptions::quick_test()),
            (&dense, isu),
            (&sparse, TrainOptions::quick_test()),
        ];
        let train: Vec<[u64; 3]> = gopim_par::par_map(&runs, |((graph, labels), options)| {
            let r = train_gcn(graph, labels, options);
            [
                r.train_accuracy.to_bits(),
                r.test_accuracy.to_bits(),
                r.final_loss.to_bits(),
            ]
        });
        // A 10-256-256-1 MLP fit, called from the top level: its
        // 32×256×256 products (forward, `∇W` and `δ·Wᵀ`) cross
        // matmul's one-task threshold and split over the pool; 40 rows
        // leave an 8-row tail batch.
        let mlp_x = Matrix::from_vec(
            40,
            10,
            (0..400).map(|i| ((i as f64) * 0.29).sin()).collect(),
        );
        let mlp_y = Matrix::from_vec(40, 1, (0..40).map(|i| ((i as f64) * 0.71).cos()).collect());
        let mut mlp = Mlp::new(MlpConfig::new(vec![10, 256, 256, 1]), 13);
        let mut fit = vec![mlp.fit(&mlp_x, &mlp_y, 2, 32, 0.01).to_bits()];
        for m in mlp.weights().iter().chain(mlp.biases()) {
            fit.extend(bits(m));
        }
        fit.extend(bits(&mlp.predict(&mlp_x)));
        (mm, prop, des, train, fit)
    };
    let serial = Pool::new(1).install(snapshot);
    let par = Pool::new(8).install(snapshot);
    assert_eq!(serial.0, par.0, "matmul bits changed with thread count");
    assert_eq!(
        serial.1, par.1,
        "propagation bits changed with thread count"
    );
    assert_eq!(serial.2, par.2, "DES sweep bits changed with thread count");
    assert_eq!(
        serial.3, par.3,
        "nested GCN training bits changed with thread count"
    );
    assert_eq!(
        serial.4, par.4,
        "MLP training bits changed with thread count"
    );
}

/// The testkit's own PRNG: same seed ⇒ same stream, `mix_seed` keeps
/// per-case streams decorrelated but reproducible.
#[test]
fn testkit_rng_streams_replay_exactly() {
    let mut a = SmallRng::seed_from_u64(0xD5EED);
    let mut b = SmallRng::seed_from_u64(0xD5EED);
    for _ in 0..1000 {
        assert_eq!(a.next_u64(), b.next_u64());
    }
    assert_eq!(mix_seed(42, 7), mix_seed(42, 7));
    assert_ne!(mix_seed(42, 7), mix_seed(42, 8));
}
