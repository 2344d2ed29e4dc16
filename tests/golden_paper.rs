//! Golden regression tests pinning the paper-derived numbers that the
//! figure/table binaries print, so a refactor that silently shifts a
//! published quantity fails `cargo test` instead of shipping.
//!
//! Snapshots live in `tests/golden/`; regenerate intentionally with
//! `GOPIM_GOLDEN=update cargo test -q` and review the diff.

use gopim::experiments::fig04;
use gopim::runner::RunConfig;
use gopim_alloc::{greedy_allocate, AllocInput};
use gopim_graph::datasets::Dataset;
use gopim_reram::spec::AcceleratorSpec;
use gopim_testkit::golden::{self, Report};

/// Table II: the published accelerator configuration and the
/// quantities derived from it. The hard asserts pin the four numbers
/// the paper states verbatim; the snapshot pins everything else.
#[test]
fn golden_table02_accelerator_spec() {
    let spec = AcceleratorSpec::paper();

    // Published verbatim in Table II.
    assert_eq!(spec.crossbar_rows, 64);
    assert_eq!(spec.crossbar_cols, 64);
    assert_eq!(spec.bits_per_cell, 2);
    assert_eq!(spec.value_bits, 16);
    assert_eq!(spec.read_latency_ns, 29.31);
    assert_eq!(spec.write_latency_ns, 50.88);

    let mut r = Report::new();
    r.section("published")
        .scalar("crossbar_rows", spec.crossbar_rows)
        .scalar("crossbar_cols", spec.crossbar_cols)
        .scalar("bits_per_cell", spec.bits_per_cell)
        .scalar("value_bits", spec.value_bits)
        .scalar("dac_bits", spec.dac_bits)
        .scalar("adc_bits", spec.adc_bits)
        .scalar("crossbars_per_pe", spec.crossbars_per_pe)
        .scalar("pes_per_tile", spec.pes_per_tile)
        .scalar("tiles_per_chip", spec.tiles_per_chip)
        .scalar("read_latency_ns", spec.read_latency_ns)
        .scalar("write_latency_ns", spec.write_latency_ns)
        .blank()
        .section("derived")
        .scalar("total_crossbars", spec.total_crossbars())
        .scalar("total_gib", spec.total_bytes() / (1 << 30))
        .scalar("input_cycles_per_mvm", spec.input_cycles())
        .scalar("write_cycles_per_row", spec.write_cycles())
        .scalar("mvm_latency_ns", format!("{:.2}", spec.mvm_latency_ns()))
        .scalar(
            "row_write_latency_ns",
            format!("{:.2}", spec.row_write_latency_ns()),
        );
    golden::check("table02_accelerator_spec", &r.render());
}

/// Table III: the dataset catalog (published stats) plus the degree
/// statistics our seeded synthetic stand-ins realize.
#[test]
fn golden_table03_dataset_catalog() {
    let mut r = Report::new();
    r.section("table03_datasets");
    let rows: Vec<Vec<String>> = Dataset::ALL
        .iter()
        .map(|&d| {
            let s = d.stats();
            let p = d.profile(7);
            vec![
                s.name.to_string(),
                format!("{:?}", s.task),
                s.num_vertices.to_string(),
                s.num_edges.to_string(),
                format!("{:.1}", s.avg_degree),
                s.feature_dim.to_string(),
                p.num_edges().to_string(),
                format!("{:.2}", p.avg_degree()),
            ]
        })
        .collect();
    r.table(
        &[
            "dataset",
            "task",
            "vertices",
            "edges_paper",
            "avg_deg_paper",
            "feat_dim",
            "edges_ours",
            "avg_deg_ours",
        ],
        &rows,
    );
    // The realized degree must track the published one to within a few
    // percent — that's the DESIGN.md §2 substitution contract.
    for d in Dataset::ALL {
        let s = d.stats();
        let realized = d.profile(7).avg_degree();
        let rel = (realized - s.avg_degree).abs() / s.avg_degree;
        assert!(
            rel < 0.10,
            "{}: realized avg degree {realized:.2} vs published {:.1}",
            s.name,
            s.avg_degree
        );
    }
    golden::check("table03_dataset_catalog", &r.render());
}

/// Fig. 4: per-stage idle fractions of the forward pass under a
/// SlimGNN-style pipeline. The paper's observation — Combination
/// crossbars idle >97 % — plus the exact fractions as a snapshot.
#[test]
fn golden_fig04_idle_fractions() {
    let config = RunConfig {
        crossbar_budget: Some(200_000),
        ..RunConfig::default()
    };
    let rows = fig04::run(&config, &[Dataset::Ddi, Dataset::Cora]);
    let mut r = Report::new();
    r.section("fig04_idle_fractions");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.dataset.clone(),
                row.stage.clone(),
                row.kind.clone(),
                format!("{:.6}", row.idle_fraction),
            ]
        })
        .collect();
    r.table(&["dataset", "stage", "kind", "idle_fraction"], &table);
    for row in rows.iter().filter(|row| row.kind.starts_with("CO")) {
        assert!(
            row.idle_fraction > 0.9,
            "Combination stage not idle-dominated: {row:?}"
        );
    }
    golden::check("fig04_idle_fractions", &r.render());
}

/// Fig. 5: the worked two-stage allocation example (times 1:6, three
/// spare crossbars). The paper reports ~65.4 % improvement for the
/// fixed 1:2 split and ~69.2 % for putting every replica on the long
/// stage; the greedy allocator must find the latter.
#[test]
fn golden_fig05_allocation_example() {
    let input = AllocInput {
        compute_ns: vec![1.0, 6.0],
        write_ns: vec![0.0, 0.0],
        quantum_ns: vec![0.01, 0.01],
        crossbars_per_replica: vec![1, 1],
        unused_crossbars: 3,
        num_microbatches: 4,
        max_replicas: None,
    };
    let greedy = greedy_allocate(&input).replicas;
    assert_eq!(
        greedy,
        vec![1, 4],
        "greedy must put all replicas on stage 2"
    );

    let base = input.pipeline_time(&[1, 1]);
    let cases: Vec<(&str, Vec<usize>)> = vec![
        ("no_replicas", vec![1, 1]),
        ("fixed_1to2_split", vec![2, 3]),
        ("all_to_long_stage", vec![1, 4]),
        ("greedy_alg1", greedy.clone()),
    ];
    let mut r = Report::new();
    r.section("fig05_two_stage_example");
    let table: Vec<Vec<String>> = cases
        .iter()
        .map(|(name, replicas)| {
            let t = input.pipeline_time(replicas);
            vec![
                name.to_string(),
                format!("{replicas:?}").replace(' ', ""),
                format!("{t:.4}"),
                format!("{:.4}", 1.0 - t / base),
            ]
        })
        .collect();
    r.table(
        &["case", "replicas", "pipeline_time", "improvement"],
        &table,
    );

    let improvement = |replicas: &[usize]| 1.0 - input.pipeline_time(replicas) / base;
    let fixed = improvement(&[2, 3]);
    let all_long = improvement(&[1, 4]);
    assert!(
        (fixed - 0.654).abs() < 0.05,
        "fixed-split improvement {fixed:.3} drifted from the paper's ~65.4 %"
    );
    assert!(
        (all_long - 0.692).abs() < 0.05,
        "all-to-long improvement {all_long:.3} drifted from the paper's ~69.2 %"
    );
    assert!(all_long > fixed);
    golden::check("fig05_allocation_example", &r.render());
}

/// GCN training bits: `to_bits()` of every reported number for small
/// cells covering each way an epoch can leave rows stale — none
/// (vanilla), ISU at three θ with the 30-epoch run's refreshes at
/// epochs 0 and 20 (period 20) and at every third epoch (period 3), and
/// rows frozen by the fault layer. The determinism and SIMD suites
/// compare the engine with itself; this pins it to fixed values,
/// compared exactly.
#[test]
fn golden_gcn_training_bits() {
    use gopim_gcn::train::{train_gcn, TrainOptions};
    use gopim_graph::generate::degree_corrected_partition;
    use gopim_mapping::SelectivePolicy;

    let (g, labels) = degree_corrected_partition(240, 3, 12.0, 6.0, 0.6, 5);
    // One row per cell: the bits of its train accuracy, its test
    // accuracy and its final loss.
    let hex = |v: f64| format!("{:#018x}", v.to_bits());
    let mut rows: Vec<Vec<String>> = Vec::new();

    let quick = TrainOptions::quick_test();
    let mut node_cells: Vec<(String, TrainOptions)> = vec![("vanilla".into(), quick.clone())];
    for period in [20, 3] {
        for theta in [0.2, 0.5, 0.8] {
            node_cells.push((
                format!("isu/theta{theta}/period{period}"),
                TrainOptions {
                    selective: Some(SelectivePolicy::with_theta(theta, period)),
                    ..quick.clone()
                },
            ));
        }
    }
    node_cells.push((
        "isu/theta0.5/period3/layers3".into(),
        TrainOptions {
            num_layers: 3,
            selective: Some(SelectivePolicy::with_theta(0.5, 3)),
            ..quick.clone()
        },
    ));
    node_cells.push((
        "frozen/epoch2".into(),
        TrainOptions {
            frozen_vertices: (0..80).collect(),
            freeze_epoch: 2,
            ..quick.clone()
        },
    ));
    for (cell, options) in &node_cells {
        let r = train_gcn(&g, &labels, options);
        rows.push(vec![
            format!("train_gcn/{cell}"),
            hex(r.train_accuracy),
            hex(r.test_accuracy),
            hex(r.final_loss),
        ]);
    }

    let mut r = Report::new();
    r.section("gcn_training_bits");
    r.table(&["cell", "accuracy", "test_accuracy", "final_loss"], &rows);
    golden::check_with_tolerance("gcn_training_bits", &r.render(), 0.0);
}

/// Time Predictor training bits: `to_bits()` of the final loss, a
/// digest of every parameter's bits and the predictions on a probe set,
/// for the paper's 10-256-1 predictor (trained through
/// `TimePredictor::train_paper` on a sample set whose row count leaves
/// a tail batch) and for `Mlp` cells at depth 2 (no hidden layer),
/// depth 5, hidden width 1, two outputs and a batch larger than the row
/// count. The parameter digest is FNV-1a over each weight's and bias's
/// `to_bits()`, layer by layer, weights row-major, so a change to any
/// single bit of any parameter changes it; listing the 3,073 paper
/// parameters one by one would make the snapshot 60 KB. Compared
/// exactly.
#[test]
fn golden_predictor_training_bits() {
    use gopim_linalg::{Matrix, Mlp, MlpConfig};
    use gopim_predictor::dataset_gen::generate_samples;
    use gopim_predictor::TimePredictor;

    let hex = |v: f64| format!("{:#018x}", v.to_bits());
    let digest = |mlp: &Mlp| {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (w, b) in mlp.weights().iter().zip(mlp.biases()) {
            for v in w.as_slice().iter().chain(b.as_slice()) {
                for byte in v.to_bits().to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        format!("{h:#018x}")
    };
    let mut cells: Vec<Vec<String>> = Vec::new();
    let mut predictions: Vec<Vec<String>> = Vec::new();
    let mut record = |cell: &str, mlp: &Mlp, loss: f64, pred: &Matrix| {
        cells.push(vec![
            cell.into(),
            hex(loss),
            mlp.num_parameters().to_string(),
            digest(mlp),
        ]);
        for r in 0..pred.rows() {
            let row: Vec<String> = pred.row(r).iter().map(|&v| hex(v)).collect();
            predictions.push(vec![cell.into(), r.to_string(), row.join(",")]);
        }
    };

    // The paper's predictor, through the production training entry.
    let samples = generate_samples(40, 23);
    assert_ne!(
        samples.len() % 32,
        0,
        "the sample set must leave a tail batch"
    );
    let probe = generate_samples(4, 29);
    let predictor = TimePredictor::train_paper(&samples, 4, 31);
    let pred = predictor.predict_normalized(&probe.x);
    record(
        &format!("train_paper/{}rows", samples.len()),
        predictor.mlp(),
        predictor.final_loss(),
        &Matrix::from_vec(pred.len(), 1, pred),
    );

    // Small `Mlp` cells on a fixed smooth, nonlinear regression task:
    // 37 rows, so a batch of 8 leaves a 5-row tail.
    let rows = 37;
    let feature = |i: usize, j: usize| ((i * 7 + j * 3) as f64 * 0.37).sin();
    let x = Matrix::from_vec(
        rows,
        4,
        (0..rows * 4).map(|e| feature(e / 4, e % 4)).collect(),
    );
    let target = |r: &[f64], o: usize| r[0] * r[1] - 0.5 * r[2] + (o as f64 + 1.0) * r[3].abs();
    let probe = Matrix::from_vec(5, 4, (0..20).map(|e| feature(e / 4 + 100, e % 4)).collect());
    for (cell, sizes, batch, epochs) in [
        ("mlp/depth2", vec![4, 1], 8, 30),
        ("mlp/depth5", vec![4, 12, 12, 12, 1], 8, 12),
        ("mlp/hidden1", vec![4, 1, 1], 8, 30),
        ("mlp/outputs2", vec![4, 16, 2], 8, 20),
        ("mlp/batch64_over_37rows", vec![4, 16, 1], 64, 40),
    ] {
        let outputs = *sizes.last().unwrap();
        let y = Matrix::from_vec(
            rows,
            outputs,
            (0..rows * outputs)
                .map(|e| target(x.row(e / outputs), e % outputs))
                .collect(),
        );
        let mut mlp = Mlp::new(MlpConfig::new(sizes), 41);
        let loss = mlp.fit(&x, &y, epochs, batch, 0.01);
        record(cell, &mlp, loss, &mlp.predict(&probe));
    }

    let mut r = Report::new();
    r.section("predictor_training_bits");
    r.table(
        &["cell", "final_loss", "parameters", "parameter_fnv1a"],
        &cells,
    );
    r.blank();
    r.section("predictions");
    r.table(&["cell", "probe_row", "outputs"], &predictions);
    golden::check_with_tolerance("predictor_training_bits", &r.render(), 0.0);
}
