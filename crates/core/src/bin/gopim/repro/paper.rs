//! The paper's tables and figures: Tables II–VII and Figs. 4–17.

use gopim::experiments;
use gopim::report;
use gopim_alloc::{greedy_allocate, AllocInput};
use gopim_gcn::train::TrainOptions;
use gopim_graph::datasets::Dataset;
use gopim_pipeline::schedule::{simulate, simulate_traced, PipelineOptions};
use gopim_pipeline::trace::render_gantt;
use gopim_pipeline::{GcnWorkload, WorkloadOptions};
use gopim_predictor::dataset_gen::generate_samples;
use gopim_reram::area::area_breakdown;
use gopim_reram::energy::EnergyModel;
use gopim_reram::noc::MeshNoc;
use gopim_reram::spec::AcceleratorSpec;

use super::{banner, Repro};
use crate::print_table;

/// Table II: the ReRAM accelerator configuration — the published
/// component catalog plus the quantities this reproduction derives
/// from it (cycle counts, capacity, area composition, NoC).
pub fn table02(_: &Repro) -> Result<(), String> {
    banner(
        "Table II",
        "Specifications of the ReRAM-based accelerator simulator (published values\n\
         and the quantities derived from them).",
    );
    let spec = AcceleratorSpec::paper();

    println!("published configuration:");
    let rows = vec![
        vec![
            "crossbar size".into(),
            format!("{}x{}", spec.crossbar_rows, spec.crossbar_cols),
        ],
        vec!["bits per cell".into(), spec.bits_per_cell.to_string()],
        vec![
            "value precision".into(),
            format!("{} bits", spec.value_bits),
        ],
        vec!["DAC resolution".into(), format!("{} bits", spec.dac_bits)],
        vec!["ADC resolution".into(), format!("{} bits", spec.adc_bits)],
        vec!["crossbars / PE".into(), spec.crossbars_per_pe.to_string()],
        vec!["PEs / tile".into(), spec.pes_per_tile.to_string()],
        vec!["tiles / chip".into(), spec.tiles_per_chip.to_string()],
        vec![
            "read latency".into(),
            format!("{} ns", spec.read_latency_ns),
        ],
        vec![
            "write latency".into(),
            format!("{} ns", spec.write_latency_ns),
        ],
    ];
    print_table(&["parameter", "value"], rows);

    println!("derived quantities:");
    let area = area_breakdown(&spec);
    let energy = EnergyModel::new(&spec);
    let noc = MeshNoc::paper(&spec);
    let rows = vec![
        vec!["total crossbars".into(), spec.total_crossbars().to_string()],
        vec![
            "total ReRAM capacity".into(),
            format!("{} GiB", spec.total_bytes() / (1 << 30)),
        ],
        vec!["input cycles / MVM".into(), spec.input_cycles().to_string()],
        vec!["write cycles / row".into(), spec.write_cycles().to_string()],
        vec![
            "MVM issue latency".into(),
            format!("{:.1} ns", spec.mvm_latency_ns()),
        ],
        vec![
            "row program latency".into(),
            format!("{:.1} ns", spec.row_write_latency_ns()),
        ],
        vec!["PE area".into(), format!("{:.4} mm2", area.pe_mm2)],
        vec!["tile area".into(), format!("{:.3} mm2", area.tile_mm2)],
        vec!["chip area".into(), format!("{:.0} mm2", area.chip_mm2)],
        vec![
            "row write energy".into(),
            format!("{:.2} nJ", energy.row_write_energy_nj()),
        ],
        vec![
            "MVM issue energy / crossbar".into(),
            format!("{:.2} nJ", energy.mvm_energy_nj(1, 1)),
        ],
        vec!["NoC mesh".into(), format!("{0}x{0}", noc.side)],
        vec![
            "NoC sink service".into(),
            format!("{:.1} ns", noc.sink_service_ns()),
        ],
    ];
    print_table(&["quantity", "value"], rows);
    Ok(())
}

/// Table III (the dataset catalog) and Table IV (the GCN model
/// architectures), plus the statistics the synthetic stand-ins actually
/// realize — the check that the substitution (DESIGN.md §2) reproduces
/// the published numbers.
pub fn table03(args: &Repro) -> Result<(), String> {
    banner(
        "Table III / Table IV",
        "Dataset catalog, model configurations, and the realized statistics of the\n\
         synthetic stand-in profiles (vertex counts exact; degrees within a few %).\n\
         Note: the paper's edge counts follow the directed/raw-OGB convention; ours\n\
         are undirected edges consistent with N x avg_degree / 2.",
    );

    println!("Table III — datasets (published | realized by our generators):");
    let datasets = args.scaled(Dataset::ALL.to_vec(), vec![Dataset::Ddi, Dataset::Cora]);
    print_table(
        &[
            "dataset",
            "task",
            "vertices",
            "edges (paper | ours)",
            "avg deg (paper | ours)",
            "feat dim",
        ],
        datasets.iter().map(|&d| {
            let s = d.stats();
            let p = d.profile(7);
            let realized_edges = p.num_edges();
            vec![
                s.name.to_string(),
                format!("{:?}", s.task),
                s.num_vertices.to_string(),
                format!("{} | {}", s.num_edges, realized_edges),
                format!("{:.1} | {:.1}", s.avg_degree, p.avg_degree()),
                s.feature_dim.to_string(),
            ]
        }),
    );

    println!("Table IV — GCN architectures and training parameters:");
    print_table(
        &["dataset", "layers", "lr", "dropout", "in", "hidden", "out"],
        datasets.iter().map(|&d| {
            let m = d.model();
            vec![
                d.name().to_string(),
                m.num_layers.to_string(),
                m.learning_rate.to_string(),
                m.dropout.to_string(),
                m.input_channels.to_string(),
                m.hidden_channels.to_string(),
                m.output_channels.to_string(),
            ]
        }),
    );
    Ok(())
}

/// Fig. 4: idle-time percentage of crossbars per forward stage under a
/// SlimGNN-style pipeline, across the motivation datasets.
pub fn fig04(args: &Repro) -> Result<(), String> {
    banner(
        "Fig. 4",
        "Idle time of crossbars per stage (XBSi), SlimGNN-like pipeline.\n\
         Paper: CO-stage crossbars (XBS1/3/5) idle 98.47/97.50/99.03% on average.",
    );
    let config = args.run_config();
    let datasets = args.scaled(
        Dataset::MOTIVATION.to_vec(),
        vec![Dataset::Ddi, Dataset::Cora],
    );
    let rows = experiments::fig04::run(&config, &datasets);
    print_table(
        &["dataset", "crossbar group", "stage", "idle time"],
        rows.iter().map(|r| {
            vec![
                r.dataset.clone(),
                r.stage.clone(),
                r.kind.clone(),
                report::percent(r.idle_fraction),
            ]
        }),
    );

    // The paper's headline: average CO-stage idle across datasets.
    let co: Vec<f64> = rows
        .iter()
        .filter(|r| r.kind.starts_with("CO"))
        .map(|r| r.idle_fraction)
        .collect();
    println!(
        "Average Combination-crossbar idle: {} (paper: 97.5-99.0%)",
        report::percent(co.iter().sum::<f64>() / co.len() as f64)
    );
    Ok(())
}

/// Fig. 5: the worked resource-allocation example — two stages with a
/// 1:6 time ratio, three spare crossbars. (a) no replicas; (b) the
/// ReGraphX-style fixed 1:2 split; (c) all three replicas on the long
/// stage (what GoPIM's allocator picks).
pub fn fig05(_: &Repro) -> Result<(), String> {
    banner(
        "Fig. 5",
        "Two-stage toy pipeline (times 1:6), 3 spare crossbars, 1 crossbar per replica.\n\
         Paper: case (c) (everything to stage 2) beats the fixed 1:2 split of case (b).",
    );
    let input = AllocInput {
        compute_ns: vec![1.0, 6.0],
        write_ns: vec![0.0, 0.0],
        quantum_ns: vec![0.01, 0.01],
        crossbars_per_replica: vec![1, 1],
        unused_crossbars: 3,
        num_microbatches: 4,
        max_replicas: None,
    };
    let cases: Vec<(&str, Vec<usize>)> = vec![
        ("(a) no replicas", vec![1, 1]),
        ("(b) fixed 1:2 split (ReGraphX)", vec![2, 3]),
        ("(c) all to the long stage", vec![1, 4]),
        (
            "GoPIM greedy (Algorithm 1)",
            greedy_allocate(&input).replicas,
        ),
    ];
    let base = input.pipeline_time(&[1, 1]);
    print_table(
        &["case", "replicas", "pipeline time", "improvement"],
        cases.iter().map(|(name, replicas)| {
            let t = input.pipeline_time(replicas);
            vec![
                name.to_string(),
                format!("{replicas:?}"),
                format!("{t:.2} units"),
                report::percent(1.0 - t / base),
            ]
        }),
    );
    println!("Paper reports improvements of ~65.4% for (b) and ~69.2% for (c).");
    Ok(())
}

/// Fig. 6: per-crossbar average vertex degree under index-based
/// mapping (plus the interleaved fix of Fig. 11).
pub fn fig06(args: &Repro) -> Result<(), String> {
    banner(
        "Fig. 6",
        "Average degree of vertices mapped on each 64-row crossbar.\n\
         Paper (index mapping): ddi 151.8-827.4, proteins 1.6-2266.8, ppa 1-1716.9.",
    );
    let datasets = args.scaled(
        Dataset::MOTIVATION.to_vec(),
        vec![Dataset::Ddi, Dataset::Proteins],
    );
    let rows = experiments::fig06::run(&args.run_config(), &datasets);
    print_table(
        &[
            "dataset",
            "mapping",
            "min avg deg",
            "max avg deg",
            "mean avg deg",
        ],
        rows.iter().map(|r| {
            vec![
                r.dataset.clone(),
                r.mapping.clone(),
                format!("{:.1}", r.min_avg),
                format!("{:.1}", r.max_avg),
                format!("{:.1}", r.mean_avg),
            ]
        }),
    );
    Ok(())
}

/// Fig. 9: Time-Predictor model selection — (a) regressor families,
/// (b) MLP depth 2–6, (c) hidden width sweep.
pub fn fig09(args: &Repro) -> Result<(), String> {
    banner(
        "Fig. 9",
        "RMSE of learning-based execution-time predictors (normalized log-time targets).\n\
         Paper: the MLP wins; 3 layers and 256 hidden neurons are best; RMSE ~0.0022.",
    );
    let samples = generate_samples(args.scaled(2200, 400), 42);
    gopim_obs::log_info!("training samples: {}", samples.len());
    let epochs = args.scaled(800, 40);

    println!("(a) model families:");
    let rows = experiments::fig09::model_comparison(&samples, epochs, 9);
    let mut sorted = rows.clone();
    sorted.sort_by(|a, b| a.rmse.partial_cmp(&b.rmse).unwrap());
    print_table(
        &["model", "RMSE"],
        sorted
            .iter()
            .map(|r| vec![r.model.clone(), format!("{:.5}", r.rmse)]),
    );

    println!("(b) MLP depth sweep (256 hidden):");
    let depth_rows = experiments::fig09::depth_sweep(
        &samples,
        &[2, 3, 4, 5, 6],
        args.scaled(256, 32),
        epochs,
        9,
    );
    print_table(
        &["depth", "RMSE"],
        depth_rows
            .iter()
            .map(|(d, r)| vec![format!("{d} layers"), format!("{r:.5}")]),
    );

    println!("(d, SV-A) feature ablation — RMSE with one Table I feature removed:");
    let ablation_epochs = args.scaled(150, 20);
    let full_rmse = rows
        .iter()
        .find(|r| r.model == "MLP")
        .map(|r| r.rmse)
        .unwrap_or(0.0);
    let ab_rows = experiments::fig09::feature_ablation(&samples, ablation_epochs, 9);
    print_table(
        &["removed feature", "RMSE", "vs full set"],
        ab_rows.iter().map(|(name, r)| {
            vec![
                name.clone(),
                format!("{r:.5}"),
                format!("{:+.1}%", (r / full_rmse - 1.0) * 100.0),
            ]
        }),
    );

    println!("(c) hidden-width sweep (3 layers):");
    let widths: &[usize] = args.scaled(&[32, 64, 128, 256, 512], &[16, 64, 256]);
    let width_rows = experiments::fig09::width_sweep(&samples, widths, epochs, 9);
    print_table(
        &["hidden width", "RMSE"],
        width_rows
            .iter()
            .map(|(w, r)| vec![format!("{w} neurons"), format!("{r:.5}")]),
    );
    Ok(())
}

/// Fig. 10: the pipeline timeline of a 2-layer GCN training batch —
/// the 8-stage chain CO1→AG1→CO2→AG2→LC2→GC2→LC1→GC1 with
/// micro-batches flowing through (the paper draws B = 3).
pub fn fig10(_: &Repro) -> Result<(), String> {
    banner(
        "Fig. 10",
        "Pipeline of 2-layer GCN training: 8 stages, micro-batches overlapping under\n\
         the Eq. 3-6 dependency rules (# compute, w write, . dispatch).",
    );
    // A small slice of ddi so a handful of micro-batches fits one page:
    // keep only the first 3 micro-batches' worth of vertices.
    let options = WorkloadOptions {
        micro_batch: 64,
        ..WorkloadOptions::default()
    };
    let wl = GcnWorkload::build(Dataset::Ddi, &options);
    let replicas = vec![1; wl.stages().len()];

    println!("(a) Serial — no overlap:");
    let (_, serial_events) = simulate_traced(&wl, &replicas, &PipelineOptions::serial());
    let head: Vec<_> = serial_events
        .iter()
        .filter(|e| e.microbatch < 3)
        .cloned()
        .collect();
    print!("{}", render_gantt(&wl, &head, 100));
    println!();

    println!("(b) Pipelined (intra-batch) — stages of consecutive micro-batches overlap:");
    let (_, piped_events) = simulate_traced(&wl, &replicas, &PipelineOptions::intra_only());
    let head: Vec<_> = piped_events
        .iter()
        .filter(|e| e.microbatch < 3)
        .cloned()
        .collect();
    print!("{}", render_gantt(&wl, &head, 100));
    println!();

    let serial = simulate(&wl, &replicas, &PipelineOptions::serial());
    let piped = simulate(&wl, &replicas, &PipelineOptions::intra_only());
    println!(
        "full batch ({} micro-batches): serial {}, pipelined {} ({} faster)",
        wl.num_microbatches(),
        report::time_ns(serial.makespan_ns),
        report::time_ns(piped.makespan_ns),
        report::speedup(serial.makespan_ns / piped.makespan_ns),
    );
    Ok(())
}

/// Fig. 13: end-to-end speedup (a) and normalized energy (b) of all
/// six systems on the headline datasets. `--cora` adds the §VII-F
/// sparse-dataset run.
pub fn fig13(args: &Repro) -> Result<(), String> {
    banner(
        "Fig. 13",
        "End-to-end comparison vs Serial. Paper averages: GoPIM 727.6x, SlimGNN-like\n\
         gap 2.1x, ReGraphX gap 2.4x, ReFlip gap 45.1x, Vanilla gap 1.5x; energy 4.0x.",
    );
    let mut datasets = args.scaled(
        Dataset::HEADLINE.to_vec(),
        vec![Dataset::Ddi, Dataset::Collab],
    );
    if args.parsed.has("--cora") {
        datasets.push(Dataset::Cora);
    }
    let rows = experiments::fig13::run(&args.run_config(), &datasets);
    print_table(
        &["dataset", "system", "exec time", "speedup", "energy saving"],
        rows.iter().map(|r| {
            vec![
                r.dataset.clone(),
                r.system.clone(),
                report::time_ns(r.makespan_ns),
                report::speedup(r.speedup),
                format!("{:.2}x", r.energy_saving),
            ]
        }),
    );

    // Summary: GoPIM's gap over each baseline (the paper's headline).
    for baseline in [
        "Serial",
        "SlimGNN-like",
        "ReGraphX",
        "ReFlip",
        "GoPIM-Vanilla",
    ] {
        let gaps: Vec<f64> = datasets
            .iter()
            .map(|d| {
                let g = experiments::fig13::cell(&rows, d.name(), "GoPIM").makespan_ns;
                let b = experiments::fig13::cell(&rows, d.name(), baseline).makespan_ns;
                b / g
            })
            .collect();
        let geo = gaps.iter().map(|g| g.ln()).sum::<f64>() / gaps.len() as f64;
        println!(
            "GoPIM vs {baseline:>14}: geomean {:.1}x (range {:.1}x-{:.1}x)",
            geo.exp(),
            gaps.iter().cloned().fold(f64::INFINITY, f64::min),
            gaps.iter().cloned().fold(0.0, f64::max),
        );
    }
    Ok(())
}

/// Fig. 14: the technique ablation — Serial → +PP → +ISU → GoPIM,
/// execution time and energy.
pub fn fig14(args: &Repro) -> Result<(), String> {
    banner(
        "Fig. 14",
        "Impact of individual techniques. Paper: +PP up to 2.6x on ddi; energy\n\
         reductions up to 62% (+PP), 75% (+ISU), 79% (GoPIM).",
    );
    let datasets = args.scaled(Dataset::HEADLINE.to_vec(), vec![Dataset::Ddi]);
    let rows = experiments::fig14::run(&args.run_config(), &datasets);
    print_table(
        &[
            "dataset",
            "variant",
            "exec time",
            "speedup",
            "energy reduction",
        ],
        rows.iter().map(|r| {
            vec![
                r.dataset.clone(),
                r.variant.clone(),
                report::time_ns(r.makespan_ns),
                report::speedup(r.speedup),
                report::percent(r.energy_reduction),
            ]
        }),
    );
    Ok(())
}

/// Fig. 15: per-stage idle time, Naive vs GoPIM, at micro-batch sizes
/// 32/64/128 on ddi.
pub fn fig15(args: &Repro) -> Result<(), String> {
    banner(
        "Fig. 15",
        "Idle time of crossbar groups, Naive (pipelined, index-mapped, no replicas)\n\
         vs GoPIM, on ddi. Paper: average reductions 46.75/49.75/51.75% at B=32/64/128.",
    );
    let sizes: &[usize] = args.scaled(&[32, 64, 128], &[32, 64]);
    let rows = experiments::fig15::run(&args.run_config(), Dataset::Ddi, sizes);
    print_table(
        &["micro-batch", "system", "group", "idle time"],
        rows.iter().map(|r| {
            vec![
                r.micro_batch.to_string(),
                r.system.clone(),
                r.stage.clone(),
                report::percent(r.idle_fraction),
            ]
        }),
    );
    for &b in sizes {
        println!(
            "B={b}: mean idle reduction {} (paper ~46-52 points)",
            report::percent(experiments::fig15::mean_reduction(&rows, b))
        );
    }
    Ok(())
}

/// Fig. 16: (a) accuracy vs θ on a dense graph (ddi), (b) accuracy vs
/// θ on a sparse graph (Cora), (c) speedup vs micro-batch size.
pub fn fig16(args: &Repro) -> Result<(), String> {
    banner(
        "Fig. 16",
        "Sensitivity studies. Paper: θ=50% safe for dense graphs (ddi), θ=80% for\n\
         sparse graphs (Cora), both within 1% accuracy; speedup grows with micro-batch.",
    );
    let max_vertices = args.scaled(1200, 250);
    let train = args.scaled(TrainOptions::experiment(), TrainOptions::quick_test());
    let thetas = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

    for (label, dataset) in [
        ("(a) dense (ddi)", Dataset::Ddi),
        ("(b) sparse (Cora)", Dataset::Cora),
    ] {
        println!("{label}: accuracy vs update threshold θ");
        let rows = experiments::fig16::theta_sweep(dataset, &thetas, max_vertices, &train, 17);
        print_table(
            &["θ", "test accuracy"],
            rows.iter().map(|r| {
                vec![
                    format!("{:.0}%", r.theta * 100.0),
                    report::percent(r.test_accuracy),
                ]
            }),
        );
    }

    println!("(c) GoPIM speedup vs micro-batch size (ddi):");
    let sizes: &[usize] = args.scaled(&[16, 32, 64, 128, 256], &[16, 64]);
    let rows = experiments::fig16::batch_sweep(&args.run_config(), Dataset::Ddi, sizes);
    print_table(
        &["micro-batch", "speedup vs Serial"],
        rows.iter()
            .map(|r| vec![r.micro_batch.to_string(), report::speedup(r.speedup)]),
    );
    Ok(())
}

/// Fig. 17: (a) speedup vs vertex-feature dimension (256→8192),
/// (b) scalability on the full-size products dataset, (c) products
/// speedup vs chip count.
pub fn fig17(args: &Repro) -> Result<(), String> {
    banner(
        "Fig. 17",
        "Scalability. Paper: speedups persist but taper as dimensions grow;\n\
         products: 5.9x speedup and 1.8x energy saving over Serial.",
    );
    println!("(a) GoPIM speedup vs vertex-feature dimension (ddi-like graph):");
    let dims: &[usize] = args.scaled(&[256, 512, 1024, 2048, 4096, 8192], &[256, 512]);
    let rows = experiments::fig17::dimension_sweep(&args.run_config(), dims);
    print_table(
        &["feature dim", "speedup vs Serial"],
        rows.iter()
            .map(|r| vec![r.dimension.to_string(), report::speedup(r.speedup)]),
    );

    if args.quick {
        println!("(b) skipped in --quick mode (full-size products run).");
        return Ok(());
    }
    println!("(b) products (2,449,029 vertices):");
    let rows = experiments::fig17::products_run(&args.run_config());
    print_table(
        &["system", "speedup", "energy saving"],
        rows.iter().map(|r| {
            vec![
                r.system.clone(),
                report::speedup(r.speedup),
                format!("{:.2}x", r.energy_saving),
            ]
        }),
    );

    println!("(c, extension) products speedup vs chip count (SVII-F: 'augmenting the");
    println!("crossbar resources' recovers big-graph speedups):");
    let rows =
        experiments::fig17::budget_sweep(&args.run_config(), Dataset::Products, &[1.0, 2.0, 4.0]);
    print_table(
        &["chips", "speedup vs Serial"],
        rows.iter()
            .map(|r| vec![format!("{:.0}x 16GB", r.chips), report::speedup(r.speedup)]),
    );
    Ok(())
}

/// Table V: the accuracy impact of ISU — GoPIM vs GoPIM-Vanilla on the
/// headline datasets' numeric stand-ins.
pub fn table05(args: &Repro) -> Result<(), String> {
    banner(
        "Table V",
        "Accuracy impact of ISU at the adaptive θ. Paper deltas: ddi +4.01, collab\n\
         -0.65, ppa +1.07, proteins +1.62, arxiv -0.20 percentage points.",
    );
    let datasets = args.scaled(
        Dataset::HEADLINE.to_vec(),
        vec![Dataset::Ddi, Dataset::Cora],
    );
    let options = args.scaled(TrainOptions::experiment(), TrainOptions::quick_test());
    let seeds: &[u64] = args.scaled(&[23, 29, 31], &[23]);
    let rows =
        experiments::table05::run_multi_seed(&datasets, args.scaled(1200, 250), &options, seeds);
    print_table(
        &[
            "dataset",
            "GoPIM-Vanilla",
            "GoPIM",
            "acc impact",
            "adaptive θ",
        ],
        rows.iter().map(|r| {
            vec![
                r.dataset.clone(),
                report::percent(r.vanilla),
                report::percent(r.gopim),
                format!("{:+.2} ± {:.2} pp", r.delta_pp, r.delta_std_pp),
                format!("{:.0}%", r.theta * 100.0),
            ]
        }),
    );
    Ok(())
}

/// Table VI: crossbar allocation details on ddi — replica and crossbar
/// counts per stage, Serial vs GoPIM.
pub fn table06(args: &Repro) -> Result<(), String> {
    banner(
        "Table VI",
        "Crossbar allocation on ddi. Paper: Serial [1×8 replicas, 2264 crossbars];\n\
         GoPIM [59,364,60,616,61,487,61,484] replicas, 1,046,852 crossbars.",
    );
    let details = experiments::table06::run(&args.run_config(), Dataset::Ddi);
    for d in &details {
        println!("{}:", d.system);
        print_table(
            &["stage", "replicas", "crossbars"],
            d.stage_names
                .iter()
                .zip(&d.replicas)
                .zip(&d.crossbars)
                .map(|((name, &r), &x)| vec![name.clone(), r.to_string(), x.to_string()]),
        );
        println!("total crossbars: {}\n", d.total);
    }
    Ok(())
}

/// Table VII: GoPIM speedups when the allocator is driven by the ML
/// Time Predictor vs exact profiling-style estimates.
pub fn table07(args: &Repro) -> Result<(), String> {
    banner(
        "Table VII",
        "ML vs profiling stage-time estimates feeding Algorithm 1. Paper: speedups\n\
         within 4.3% of each other (ddi 3454.31 vs 3469.17, collab 36.82 vs 36.82, ...).",
    );
    let datasets = args.scaled(Dataset::HEADLINE.to_vec(), vec![Dataset::Ddi]);
    let rows = experiments::table07::run(
        &args.run_config(),
        &datasets,
        args.scaled(2200, 400),
        args.scaled(400, 60),
        31,
    );
    print_table(
        &["dataset", "ML speedup", "profiling speedup", "gap"],
        rows.iter().map(|r| {
            vec![
                r.dataset.clone(),
                report::speedup(r.ml_speedup),
                report::speedup(r.profiling_speedup),
                report::percent(r.relative_gap),
            ]
        }),
    );
    Ok(())
}
