//! Property-based tests for workload construction and the faulty DES
//! (gopim-testkit).

use gopim_graph::datasets::ModelConfig;
use gopim_graph::generate::power_law_profile;
use gopim_mapping::SelectivePolicy;
use gopim_pipeline::{GcnWorkload, MappingKind, WorkloadOptions};
use gopim_testkit::prop::{check_with, Config};

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

#[test]
fn workload_structure_is_consistent() {
    check_with("workload_structure_is_consistent", Config::cases(24), |d| {
        let n = d.draw("n", 64usize..4000);
        let avg = d.draw("avg", 2.0f64..60.0);
        let layers = d.draw("layers", 2usize..4);
        let b = d.pick("b", &[16usize, 32, 64, 128]);
        let profile = power_law_profile(n, avg, 0.8, 0.9, 3);
        let options = WorkloadOptions {
            micro_batch: b,
            ..WorkloadOptions::default()
        };
        let wl = GcnWorkload::build_custom("prop", &profile, &model(layers), &options);
        assert_eq!(wl.stages().len(), 4 * layers);
        assert_eq!(wl.num_microbatches(), n.div_ceil(b));
        for (i, st) in wl.stages().iter().enumerate() {
            assert_eq!(st.index, i);
            assert!(st.compute_ns > 0.0);
            assert!(st.crossbars_per_replica >= 2);
            for j in 0..wl.num_microbatches() {
                assert!(wl.write_ns(i, j) >= 0.0);
            }
        }
    });
}

#[test]
fn interleaving_never_increases_the_worst_write() {
    check_with(
        "interleaving_never_increases_the_worst_write",
        Config::cases(24),
        |d| {
            let n = d.draw("n", 128usize..4000);
            let avg = d.draw("avg", 2.0f64..80.0);
            let theta = d.draw("theta", 0.2f64..1.0);
            let profile = power_law_profile(n, avg, 0.9, 0.95, 5);
            let policy = SelectivePolicy::with_theta(theta, 20);
            let build = |mapping: MappingKind| {
                let options = WorkloadOptions {
                    mapping,
                    selective: Some(policy),
                    ..WorkloadOptions::default()
                };
                GcnWorkload::build_custom("prop", &profile, &model(2), &options)
            };
            let osu = build(MappingKind::IndexBased);
            let isu = build(MappingKind::Interleaved);
            let worst = |wl: &GcnWorkload| -> f64 {
                (0..wl.num_microbatches())
                    .map(|j| wl.write_ns(1, j))
                    .fold(0.0, f64::max)
            };
            assert!(worst(&isu) <= worst(&osu) + 1e-9);
        },
    );
}

#[test]
fn selective_updating_never_increases_writes() {
    check_with(
        "selective_updating_never_increases_writes",
        Config::cases(24),
        |d| {
            let n = d.draw("n", 128usize..3000);
            let avg = d.draw("avg", 2.0f64..60.0);
            let profile = power_law_profile(n, avg, 0.8, 0.9, 7);
            let build = |selective: Option<SelectivePolicy>| {
                let options = WorkloadOptions {
                    mapping: MappingKind::Interleaved,
                    selective,
                    ..WorkloadOptions::default()
                };
                GcnWorkload::build_custom("prop", &profile, &model(2), &options)
            };
            let full = build(None);
            let selective = build(Some(SelectivePolicy::with_theta(0.5, 20)));
            let total = |wl: &GcnWorkload| -> f64 {
                (0..wl.num_microbatches()).map(|j| wl.write_ns(1, j)).sum()
            };
            assert!(total(&selective) <= total(&full) + 1e-9);
            assert!(selective.stages()[1].rows_written <= full.stages()[1].rows_written + 1e-9);
        },
    );
}

#[test]
fn faulty_des_conserves_write_time_and_energy() {
    use gopim_faults::{FaultConfig, FaultPlan, FaultSession, MitigationPolicy, SessionConfig};
    use gopim_pipeline::des::{simulate_des, simulate_des_faulty, ReplicaModel};
    check_with(
        "faulty_des_conserves_write_time_and_energy",
        Config::cases(16),
        |d| {
            let n = d.draw("n", 256usize..2000);
            let avg = d.draw("avg", 2.0f64..40.0);
            let profile = power_law_profile(n, avg, 0.8, 0.9, 3);
            let options = WorkloadOptions::default();
            let wl = GcnWorkload::build_custom("prop", &profile, &model(2), &options);
            let s = wl.stages().len();
            let reps = vec![d.pick("r", &[1usize, 2, 4]); s];
            let clean = simulate_des(&wl, &reps, ReplicaModel::DiscreteServers);
            let shape = vec![d.draw("groups", 1usize..24); s];
            let plan = FaultPlan::generate(
                FaultConfig {
                    seed: d.draw("seed", 0u64..1_000_000),
                    stuck_rate: d.draw("stuck_rate", 0.0f64..1.0),
                    transient_rate: d.draw("transient_rate", 0.0f64..0.2),
                    horizon_ns: clean.makespan_ns,
                },
                &shape,
            );
            let mut cfg = SessionConfig::new(d.pick("policy", &MitigationPolicy::ALL));
            cfg.spare_groups = d.draw("spares", 0usize..4);
            let mut session = FaultSession::new(plan, cfg, &shape);
            let faulty =
                simulate_des_faulty(&wl, &reps, ReplicaModel::DiscreteServers, &mut session);
            // Mitigation only adds simulated time: the faulty run can
            // never beat the fault-free one, so total write time — and
            // with it write energy — is conserved or exceeded.
            assert!(
                faulty.makespan_ns >= clean.makespan_ns,
                "faulty {} < clean {}",
                faulty.makespan_ns,
                clean.makespan_ns
            );
            let stats = session.stats();
            assert!(stats.extra_write_ns >= 0.0);
            assert!(stats.extra_rows >= 0.0);
            // The makespan stretch is bounded by the extra write time
            // actually injected (each extra write-ns delays at most
            // the full downstream chain once per stage visit).
            if stats.extra_write_ns == 0.0 && stats.dropped_rows == 0 && stats.injected == 0 {
                assert_eq!(faulty.makespan_ns.to_bits(), clean.makespan_ns.to_bits());
            }
        },
    );
}
