//! `gopim` — command-line front end to the GoPIM reproduction.
//!
//! ```text
//! gopim datasets                         # Table III catalog
//! gopim run <dataset> [system] [B]       # one simulation
//! gopim compare <dataset>                # all six systems
//! gopim gantt <dataset> [system] [B]     # schedule timeline
//! gopim repro <experiment> [--quick]     # one paper table/figure
//! gopim loadgen [--quick]                # job-server load generator
//! gopim --help
//! ```

mod args;
mod loadgen;
mod repro;

use args::{Args, Flags};
use gopim::report;
use gopim::runner::{build_workload, run_system, run_systems, RunConfig};
use gopim::system::System;
use gopim_graph::datasets::Dataset;
use gopim_pipeline::schedule::simulate_traced;
use gopim_pipeline::trace::render_gantt;
use gopim_pipeline::PipelineOptions;

const HELP: &str = "\
gopim — GCN-oriented pipeline optimization for PIM accelerators (paper reproduction)

USAGE:
    gopim <COMMAND> [ARGS]

COMMANDS:
    datasets                      list the Table III dataset catalog
    run <dataset> [system] [B]    simulate one system (default GoPIM, B=64)
    compare <dataset> [B]         run all six systems and tabulate
    gantt <dataset> [system] [B]  print the schedule timeline
    custom <edge-file> [B]        run all systems on your own graph
                                  (text edge list: 'u v' per line, # comments)
    repro <experiment> [--quick] [--budget <crossbars>]
                                  regenerate one paper table/figure or
                                  extension (EXPERIMENTS below); --quick
                                  runs at reduced scale, --budget caps the
                                  crossbars (default: the full 16 GB chip)
    repro fig13 --cora            add the SVII-F sparse-dataset run
    repro faults [dataset]        fault-injection degradation campaign
          [--json <path>]         (env: GOPIM_FAULT_SEED, GOPIM_FAULT_RATES);
                                  --json appends one JSON line per row
    repro faults --validate <f>   schema-check a campaign or lint JSON file
    serve [addr]                  persistent job server (default
                                  127.0.0.1:4857; ':0' = ephemeral):
                                  simulation/allocation/prediction jobs
                                  over the gopim-serve wire protocol,
                                  fair-share scheduled, cache-backed
                                  (env: GOPIM_SERVE_WORKERS)
    loadgen [--quick]             seeded job mix against an in-process
            [--jobs N] [--clients N]  server (or the one at --addr):
            [--addr <addr>]       latency quantiles and cache-served share
    lint [--update-baseline]      determinism & hermeticity linter
                                  (ratchets against lint-baseline.json;
                                   GOPIM_LINT_JSON=<path> writes a JSON report)
         [--prune-stale]          drop baseline budget no finding still uses
    lint --locks                  static lock-order/deadlock analysis:
                                  prints the lock-acquisition graph and any
                                  concurrency findings; exit 1 on findings
                                  [--dot | --json] graph dump format
                                  [--root <path>] analyze another workspace
                                  [--check-witness <f>] require a
                                  GOPIM_LOCKDEP_DUMP witness ⊆ static graph
    bench-diff <old> <new>        statistical comparison of two bench record
                                  files (JSON-lines or BENCH_pr*.json):
                                  median±MAD overlap test, each id classified
                                  regression/improvement/neutral
                                  [--json] machine-readable report
                                  [--phase <p>] select a phase tag
                                  [--ratchet] tolerance band + exit 1 on
                                  regression  [--tolerance <frac>]
    bench-diff --trajectory <f..> one column per file across BENCH_pr*.json
    help                          show this message

The paper's full 16 GB chip is assumed; scripts/reproduce.sh runs every
experiment into results/.

DATASETS:  ddi collab ppa proteins arxiv products Cora
SYSTEMS:   Serial SlimGNN-like ReGraphX ReFlip GoPIM-Vanilla GoPIM";

use gopim::cli::{parse_dataset, parse_micro_batch, parse_serve_addr, parse_system};

/// Prints a [`report::table`] of `rows` to stdout.
fn print_table(header: &[&str], rows: impl IntoIterator<Item = Vec<String>>) {
    println!(
        "{}",
        report::table(header, &rows.into_iter().collect::<Vec<_>>())
    );
}

/// The help text, with the experiment names from `repro`'s table.
fn help() -> String {
    format!("{HELP}\nEXPERIMENTS: {}", repro::names())
}

fn cmd_datasets() {
    print_table(
        &[
            "dataset", "task", "vertices", "edges", "avg deg", "feat dim", "layers",
        ],
        Dataset::ALL.iter().map(|d| {
            let s = d.stats();
            let m = d.model();
            vec![
                s.name.to_string(),
                format!("{:?}", s.task),
                s.num_vertices.to_string(),
                s.num_edges.to_string(),
                format!("{:.1}", s.avg_degree),
                s.feature_dim.to_string(),
                m.num_layers.to_string(),
            ]
        }),
    );
}

fn cmd_run(dataset: Dataset, system: System, micro_batch: usize) {
    let config = RunConfig {
        micro_batch,
        ..RunConfig::default()
    };
    let serial = run_system(dataset, System::Serial, &config);
    let run = run_system(dataset, system, &config);
    println!(
        "{} on {} (B={micro_batch}): {}  ({} vs Serial, energy saving {:.2}x)",
        run.system_name,
        dataset,
        report::time_ns(run.makespan_ns),
        report::speedup(serial.makespan_ns / run.makespan_ns),
        serial.energy_nj() / run.energy_nj(),
    );
    print_table(
        &["stage", "replicas", "crossbars", "crossbar idle"],
        run.stage_names
            .iter()
            .zip(&run.replicas)
            .zip(&run.footprints)
            .zip(&run.schedule.stages)
            .map(|(((name, &r), &fp), st)| {
                vec![
                    name.clone(),
                    r.to_string(),
                    (r * fp).to_string(),
                    report::percent(st.idle_fraction),
                ]
            }),
    );
}

fn cmd_compare(dataset: Dataset, micro_batch: usize) {
    let config = RunConfig {
        micro_batch,
        ..RunConfig::default()
    };
    // The cached sweep path: six systems fan out in parallel, identical
    // cells dedup, and a GOPIM_CACHE directory serves warm reruns.
    let cells: Vec<_> = System::ALL.iter().map(|&s| (dataset, s)).collect();
    let runs = run_systems(&cells, &config);
    let serial_time = runs[0].makespan_ns;
    let serial_energy = runs[0].energy_nj();
    print_table(
        &[
            "system",
            "exec time",
            "speedup",
            "energy saving",
            "crossbars",
        ],
        runs.iter().map(|r| {
            vec![
                r.system_name.clone(),
                report::time_ns(r.makespan_ns),
                report::speedup(serial_time / r.makespan_ns),
                format!("{:.2}x", serial_energy / r.energy_nj()),
                r.total_crossbars().to_string(),
            ]
        }),
    );
}

fn cmd_gantt(dataset: Dataset, system: System, micro_batch: usize) {
    let config = RunConfig {
        micro_batch,
        ..RunConfig::default()
    };
    let run = run_system(dataset, system, &config);
    let workload = build_workload(dataset, system, &config);
    let options = if system.pipelined() {
        PipelineOptions {
            intra_batch: true,
            inter_batch: system.inter_batch(),
            num_batches: 1,
        }
    } else {
        PipelineOptions::serial()
    };
    let (_, events) = simulate_traced(&workload, &run.replicas, &options);
    println!(
        "{system} on {dataset} (B={micro_batch}), makespan {} — # compute, w write, . dispatch:",
        report::time_ns(run.makespan_ns)
    );
    print!("{}", render_gantt(&workload, &events, 100));
}

fn cmd_serve(addr: &str) -> Result<(), String> {
    use gopim::jobs::CoreJobHandler;
    use gopim_serve::{Server, ServerConfig};
    use std::sync::Arc;

    // A malformed GOPIM_SERVE_WORKERS warns and keeps the default: a
    // server must come up.
    let default = ServerConfig::default();
    let cfg = ServerConfig {
        workers: gopim_obs::env::get()
            .serve_workers
            .unwrap_or(default.workers),
        ..default
    };
    let server = Server::bind(addr, Arc::new(CoreJobHandler), cfg)
        .map_err(|e| format!("serve: cannot bind {addr}: {e}"))?;
    println!(
        "gopim-serve listening on {} — send jobs with the gopim-serve client \
         (see README 'Serving'); Ctrl-C or a protocol Shutdown stops it.",
        server.local_addr()
    );
    server.wait();
    let stats = server.stats();
    println!(
        "gopim-serve drained: {} submitted, {} completed ({} from cache), \
         {} busy-rejected, {} cancelled, {} expired",
        stats.submitted,
        stats.completed,
        stats.cache_served,
        stats.busy_rejections,
        stats.cancelled,
        stats.expired
    );
    Ok(())
}

fn cmd_lint(update_baseline: bool, prune_stale: bool) -> Result<(), String> {
    let cwd = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    let root = gopim_lint::find_workspace_root(&cwd)?;
    let outcome = gopim_lint::lint_workspace(&root)?;
    if let Some(json_path) = &gopim_obs::env::get().lint_json {
        std::fs::write(json_path, outcome.render_json())
            .map_err(|e| format!("write {json_path}: {e}"))?;
        eprintln!("lint: JSON report written to {json_path}");
    }
    print!("{}", outcome.render_human());
    if update_baseline {
        let pairs = gopim_lint::update_baseline(&root, &outcome)?;
        println!(
            "lint: baseline rewritten with {pairs} grandfathered (file, rule) pair(s) at {}",
            root.join(gopim_lint::BASELINE_FILE).display()
        );
        return Ok(());
    }
    if prune_stale {
        let pruned = gopim_lint::prune_baseline(&root, &outcome)?;
        println!("lint: {pruned} stale baseline entr{} pruned", {
            if pruned == 1 {
                "y"
            } else {
                "ies"
            }
        });
    }
    if !outcome.clean() {
        // A distinct exit path from usage errors: findings beyond the
        // baseline fail the run without reprinting the help text.
        std::process::exit(1);
    }
    Ok(())
}

/// `gopim lint --locks`: the static concurrency pass on its own, with
/// graph dumps and the runtime-witness subgraph check.
fn cmd_lint_locks(args: &[String]) -> Result<(), String> {
    let mut dot = false;
    let mut json = false;
    let mut root_arg: Option<String> = None;
    let mut witness_paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dot" => dot = true,
            "--json" => json = true,
            "--root" => {
                root_arg = Some(
                    it.next()
                        .ok_or("lint --locks: --root needs a path")?
                        .clone(),
                );
            }
            "--check-witness" => {
                witness_paths.push(
                    it.next()
                        .ok_or("lint --locks: --check-witness needs a path")?
                        .clone(),
                );
            }
            other => return Err(format!("lint --locks: unknown argument '{other}'")),
        }
    }
    let root = match root_arg {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
            gopim_lint::find_workspace_root(&cwd)?
        }
    };
    let analysis = gopim_lint::lock_graph(&root)?;
    if dot {
        print!("{}", analysis.graph.render_dot());
    } else if json {
        print!("{}", analysis.graph.render_json());
    } else {
        print!("{}", analysis.graph.render_human());
    }
    for f in &analysis.findings {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    }
    let mut failed = !analysis.findings.is_empty();
    for path in &witness_paths {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("lint --locks: read {path}: {e}"))?;
        let witness = gopim_lint::lockgraph::parse_witness(&text)
            .map_err(|e| format!("lint --locks: {path}: {e}"))?;
        let problems = gopim_lint::lockgraph::check_witness(&analysis.graph, &witness);
        if problems.is_empty() {
            println!(
                "lint --locks: witness {path} OK ({} classes, {} edges ⊆ static graph)",
                witness.classes.len(),
                witness.edges.len()
            );
        } else {
            failed = true;
            for p in problems {
                println!("lint --locks: witness {path}: {p}");
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    Ok(())
}

fn cmd_bench_diff(args: &[String]) -> Result<(), String> {
    use gopim::benchdiff::{diff, latest_by_id, parse_records, trajectory, BenchDiffArgs};

    let parsed = BenchDiffArgs::parse(args)?;
    let read = |path: &str| -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("bench-diff: cannot read {path}: {e}"))
    };
    if parsed.trajectory {
        let files: Vec<(String, String)> = parsed
            .files
            .iter()
            .map(|p| {
                // Column label: the file stem (BENCH_pr2.json → BENCH_pr2).
                let label = std::path::Path::new(p)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| p.clone());
                read(p).map(|text| (label, text))
            })
            .collect::<Result<_, _>>()?;
        print!("{}", trajectory(&files)?);
        return Ok(());
    }
    let phase = parsed.phase.as_deref();
    let old_records = parse_records(&read(&parsed.files[0])?)
        .map_err(|e| format!("bench-diff: {}: {e}", parsed.files[0]))?;
    let new_records = parse_records(&read(&parsed.files[1])?)
        .map_err(|e| format!("bench-diff: {}: {e}", parsed.files[1]))?;
    let report = diff(
        &latest_by_id(&old_records, phase),
        &latest_by_id(&new_records, phase),
        parsed.options(),
    );
    if parsed.json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if parsed.ratchet && report.regressions() > 0 {
        eprintln!(
            "bench-diff: {} regression(s) beyond the ratchet tolerance",
            report.regressions()
        );
        // Distinct from usage errors: a real regression fails the run
        // without reprinting the help text.
        std::process::exit(1);
    }
    Ok(())
}

fn cmd_custom(path: &str, micro_batch: usize) -> Result<(), String> {
    use gopim::runner::run_system_custom;
    use gopim_graph::datasets::ModelConfig;
    use gopim_graph::io::read_edge_list;

    let file = std::fs::File::open(path).map_err(|e| format!("cannot open '{path}': {e}"))?;
    let graph = read_edge_list(std::io::BufReader::new(file))
        .map_err(|e| format!("parse '{path}': {e}"))?;
    let profile = graph.to_degree_profile();
    println!(
        "loaded '{path}': {} vertices, {} edges, avg degree {:.1} ({})",
        graph.num_vertices(),
        graph.num_edges(),
        graph.avg_degree(),
        if profile.is_sparse() {
            "sparse: θ=80%"
        } else {
            "dense: θ=50%"
        },
    );
    // A default 2-layer, 128-dim GCN.
    let model = ModelConfig {
        num_layers: 2,
        learning_rate: 0.01,
        dropout: 0.0,
        input_channels: 128,
        hidden_channels: 128,
        output_channels: 128,
    };
    let config = RunConfig {
        micro_batch,
        ..RunConfig::default()
    };
    let runs: Vec<_> = System::ALL
        .iter()
        .map(|&s| run_system_custom("custom", &profile, &model, s, &config))
        .collect();
    let serial_time = runs[0].makespan_ns;
    let serial_energy = runs[0].energy_nj();
    print_table(
        &["system", "exec time", "speedup", "energy saving"],
        runs.iter().map(|r| {
            vec![
                r.system_name.clone(),
                report::time_ns(r.makespan_ns),
                report::speedup(serial_time / r.makespan_ns),
                format!("{:.2}x", serial_energy / r.energy_nj()),
            ]
        }),
    );
    Ok(())
}

fn main() {
    // Flushes GOPIM_TRACE / GOPIM_METRICS output when dropped; inert
    // when neither knob is set.
    let telemetry = gopim_obs::attach();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = dispatch(&args);
    if let Err(msg) = result {
        gopim_obs::log_error!("{msg}");
        eprintln!();
        eprintln!("{}", help());
        drop(telemetry);
        std::process::exit(2);
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    // The positionals of a command that takes up to `max` of them and
    // no flag.
    let positionals = |max: usize| {
        Args::parse(&args[1..], &[&Flags::positionals(max)]).map_err(|e| format!("{cmd}: {e}"))
    };
    // `<dataset> [system] [B]`, as `run` and `gantt` take them.
    let dataset_system_batch = || -> Result<(Dataset, System, usize), String> {
        let a = positionals(3)?;
        let dataset = parse_dataset(
            a.positional(0)
                .ok_or_else(|| format!("{cmd} needs a dataset"))?,
        )?;
        let system = a.positional(1).map_or(Ok(System::Gopim), parse_system)?;
        Ok((dataset, system, parse_micro_batch(a.positional(2))?))
    };
    match cmd {
        "help" | "--help" | "-h" => {
            println!("{}", help());
            Ok(())
        }
        "datasets" => {
            positionals(0)?;
            cmd_datasets();
            Ok(())
        }
        "run" => {
            let (dataset, system, micro_batch) = dataset_system_batch()?;
            cmd_run(dataset, system, micro_batch);
            Ok(())
        }
        "compare" => {
            let a = positionals(2)?;
            let dataset = parse_dataset(a.positional(0).ok_or("compare needs a dataset")?)?;
            cmd_compare(dataset, parse_micro_batch(a.positional(1))?);
            Ok(())
        }
        "gantt" => {
            let (dataset, system, micro_batch) = dataset_system_batch()?;
            cmd_gantt(dataset, system, micro_batch);
            Ok(())
        }
        "custom" => {
            let a = positionals(2)?;
            let path = a.positional(0).ok_or("custom needs an edge-list file")?;
            cmd_custom(path, parse_micro_batch(a.positional(1))?)
        }
        "repro" => repro::run(&args[1..]),
        "loadgen" => loadgen::run(&args[1..]),
        "serve" => cmd_serve(&parse_serve_addr(positionals(1)?.positional(0))?),
        "bench-diff" => cmd_bench_diff(&args[1..]),
        "lint" => {
            if args.get(1).map(String::as_str) == Some("--locks") {
                return cmd_lint_locks(&args[2..]);
            }
            let (update, prune) = match args.get(1).map(String::as_str) {
                None => (false, false),
                Some("--update-baseline") => (true, false),
                Some("--prune-stale") => (false, true),
                Some(other) => return Err(format!("lint: unknown argument '{other}'")),
            };
            cmd_lint(update, prune)
        }
        other => Err(format!("unknown command '{other}'")),
    }
}
