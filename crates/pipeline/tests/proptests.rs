//! Property-based tests for workload construction and the faulty DES
//! (gopim-testkit).

use gopim_graph::datasets::ModelConfig;
use gopim_graph::generate::power_law_profile;
use gopim_graph::DegreeProfile;
use gopim_mapping::SelectivePolicy;
use gopim_pipeline::stage::stage_order;
use gopim_pipeline::workload::{mapping_for, UpdateAccounting};
use gopim_pipeline::{GcnWorkload, MappingKind, StageKind, StageSpec, WorkloadOptions};
use gopim_reram::tiling;
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

/// The workload build before it derived everything from one rank
/// vector, kept as the differential reference: a materialized
/// `VertexMapping`, the important-vertex mask from its own ranking, a
/// `group_of` array filled from the groups, and the dense pacing loop
/// over every vertex. Returns the stage specs and `write_ns` rows.
fn reference_build(
    profile: &DegreeProfile,
    model: &ModelConfig,
    options: &WorkloadOptions,
) -> (Vec<StageSpec>, Vec<Vec<f64>>) {
    let n = profile.num_vertices();
    let b = options.micro_batch;
    let n_mb = n.div_ceil(b);
    let spec = &options.params.spec;
    let capacity = spec.crossbar_rows;
    let mapping = mapping_for(profile, options.mapping, capacity);
    let policy = options
        .selective
        .unwrap_or_else(SelectivePolicy::update_all);
    let important = policy.important_vertices(profile);
    let unimportant_weight = match options.accounting {
        UpdateAccounting::Amortized => 1.0 / policy.stale_period() as f64,
        UpdateAccounting::SteadyEpoch => 0.0,
        UpdateAccounting::RefreshEpoch => 1.0,
    };
    let weight_of = |v: usize| {
        if important[v] {
            1.0
        } else {
            unimportant_weight
        }
    };
    let mut group_of = vec![0u32; n];
    for (g, members) in mapping.groups().iter().enumerate() {
        for &v in members {
            group_of[v as usize] = g as u32;
        }
    }
    let mut per_group = vec![0.0f64; mapping.num_groups()];
    let pacing: Vec<f64> = group_of
        .chunks(b)
        .enumerate()
        .map(|(j, groups)| {
            for (v, &g) in (j * b..).zip(groups) {
                per_group[g as usize] += weight_of(v);
            }
            groups.iter().fold(0.0, |rows: f64, &g| {
                rows.max(std::mem::take(&mut per_group[g as usize]))
            })
        })
        .collect();
    let amortized_rows_total: f64 = (0..n).map(weight_of).sum();

    let params = &options.params;
    let avg_degree = profile.avg_degree();
    let edges_per_mb = profile.total_degree() as f64 / n_mb as f64;
    let groups = tiling::feature_groups(spec, n);
    let mut stages = Vec::new();
    let mut write_profiles = Vec::new();
    for (index, (kind, layer)) in stage_order(model.num_layers).into_iter().enumerate() {
        let (in_dim, out_dim) = model.layer_dims(layer);
        let stage = match kind {
            StageKind::Combination | StageKind::LossCalc => {
                let xbars = tiling::crossbars_for_matrix(spec, in_dim, out_dim);
                let write = in_dim.min(capacity) as f64 * params.row_write_ns() / n_mb as f64;
                let col_tiles = out_dim.div_ceil(spec.crossbar_cols);
                write_profiles.push(vec![write; n_mb]);
                StageSpec {
                    kind,
                    layer,
                    index,
                    mapped_rows: in_dim,
                    mapped_cols: out_dim,
                    crossbars_per_replica: xbars,
                    compute_ns: params.combination_compute_ns(b),
                    write_ns: write,
                    mvm_crossbar_issues: (b * xbars) as u64,
                    rows_written: in_dim as f64 * col_tiles as f64 * spec.differential_pairs as f64
                        / n_mb as f64,
                }
            }
            StageKind::Aggregation | StageKind::GradCompute => {
                let xbars = tiling::crossbars_for_matrix(spec, n, out_dim);
                let col_tiles = out_dim.div_ceil(spec.crossbar_cols);
                let width = (col_tiles * spec.differential_pairs) as f64;
                let compute = if kind == StageKind::Aggregation {
                    params.aggregation_compute_ns(b, avg_degree, groups, edges_per_mb)
                } else {
                    params.grad_compute_ns(
                        b,
                        avg_degree,
                        groups,
                        edges_per_mb,
                        (in_dim * out_dim) as u64,
                    )
                };
                let (per_mb_write, rows_written) = if kind == StageKind::Aggregation {
                    let extra = options.repeated_load_rows_per_edge * edges_per_mb;
                    let extra_pacing = extra / groups as f64;
                    let writes: Vec<f64> = pacing
                        .iter()
                        .map(|&r| (r + extra_pacing) * params.row_write_ns())
                        .collect();
                    (
                        writes,
                        amortized_rows_total * width / n_mb as f64 + extra * width,
                    )
                } else {
                    (vec![0.0; n_mb], 0.0)
                };
                let mean_write = per_mb_write.iter().sum::<f64>() / n_mb as f64;
                write_profiles.push(per_mb_write);
                StageSpec {
                    kind,
                    layer,
                    index,
                    mapped_rows: n,
                    mapped_cols: out_dim,
                    crossbars_per_replica: xbars,
                    compute_ns: compute,
                    write_ns: mean_write,
                    mvm_crossbar_issues: (b as f64
                        * params.expected_active_groups(avg_degree, groups)
                        * width) as u64,
                    rows_written,
                }
            }
        };
        stages.push(stage);
    }
    (stages, write_profiles)
}

/// Every field of a stage spec, floats as bits.
fn spec_bits(s: &StageSpec) -> [u64; 10] {
    [
        s.kind as u64,
        s.layer as u64,
        s.index as u64,
        s.mapped_rows as u64,
        s.mapped_cols as u64,
        s.crossbars_per_replica as u64,
        s.compute_ns.to_bits(),
        s.write_ns.to_bits(),
        s.mvm_crossbar_issues,
        s.rows_written.to_bits(),
    ]
}

#[test]
fn lean_build_matches_the_materialized_mapping_bitwise() {
    check_with(
        "lean_build_matches_the_materialized_mapping_bitwise",
        Config::cases(96),
        |d| {
            // n below, between and past the capacities and micro-batch
            // sizes, mostly not a multiple of either.
            let n = d.draw("n", 1usize..700);
            let profile = if n >= 2 && d.any_bool("power_law") {
                let avg = d.draw("avg", 1.0f64..40.0);
                let locality = d.draw("locality", 0.0f64..1.0);
                power_law_profile(n, avg, 0.8, locality, d.draw("seed", 0u64..100))
            } else {
                // Many ties; bounds past n take the ranking's
                // comparison sort.
                let bound = d.draw("bound", 1u32..2 * n as u32 + 2);
                DegreeProfile::from_degrees(d.vec("degrees", n..n + 1, |d| d.draw("deg", 0..bound)))
            };
            let theta = d.pick("theta", &[None, Some(0.0), Some(0.3), Some(0.5), Some(1.0)]);
            let mut options = WorkloadOptions {
                micro_batch: d.pick("b", &[1usize, 32, 64, 100]),
                mapping: d.pick(
                    "mapping",
                    &[MappingKind::IndexBased, MappingKind::Interleaved],
                ),
                selective: theta.map(|t| SelectivePolicy::with_theta(t, d.pick("stale", &[1, 20]))),
                accounting: d.pick(
                    "accounting",
                    &[
                        UpdateAccounting::Amortized,
                        UpdateAccounting::SteadyEpoch,
                        UpdateAccounting::RefreshEpoch,
                    ],
                ),
                repeated_load_rows_per_edge: d.pick("reload", &[0.0, 0.5]),
                ..WorkloadOptions::default()
            };
            options.params.spec.crossbar_rows = d.pick("capacity", &[1usize, 7, 16, 64]);
            let model = model(d.draw("layers", 2usize..4));
            let wl = GcnWorkload::build_custom("prop", &profile, &model, &options);
            let (stages, write_ns) = reference_build(&profile, &model, &options);
            assert_eq!(wl.num_vertices(), n);
            assert_eq!(wl.micro_batch(), options.micro_batch);
            assert_eq!(wl.num_microbatches(), n.div_ceil(options.micro_batch));
            assert_eq!(wl.stages().len(), stages.len());
            for (i, (got, want)) in wl.stages().iter().zip(&stages).enumerate() {
                assert_eq!(spec_bits(got), spec_bits(want), "stage {i}");
                for (j, w) in write_ns[i].iter().enumerate() {
                    assert_eq!(wl.write_ns(i, j).to_bits(), w.to_bits(), "stage {i} mb {j}");
                }
            }
        },
    );
}
