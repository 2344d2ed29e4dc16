//! `gopim repro <experiment> [--quick] [--budget N] [args]`: regenerates
//! one paper table or figure, or one reproduction extension. `--quick`
//! runs at reduced scale for smoke-testing; `--budget` overrides the
//! crossbar budget (default: the full 16 GB chip).

mod extensions;
mod faults;
mod paper;

use gopim::runner::RunConfig;

use crate::args::{Args, Flags};

/// One experiment: its name, the flags it takes beyond `--quick` and
/// `--budget`, and its body.
struct Experiment {
    name: &'static str,
    flags: Flags,
    run: fn(&Repro) -> Result<(), String>,
}

impl Experiment {
    const fn new(name: &'static str, flags: Flags, run: fn(&Repro) -> Result<(), String>) -> Self {
        Experiment { name, flags, run }
    }
}

/// `fig13 --cora` adds the §VII-F sparse-dataset run.
const CORA: Flags = Flags {
    switches: &["--cora"],
    options: &[],
    positionals: 0,
};

/// Every experiment, in `scripts/reproduce.sh` order.
const EXPERIMENTS: &[Experiment] = &[
    Experiment::new("table02", Flags::NONE, paper::table02),
    Experiment::new("table03", Flags::NONE, paper::table03),
    Experiment::new("fig04", Flags::NONE, paper::fig04),
    Experiment::new("fig05", Flags::NONE, paper::fig05),
    Experiment::new("fig06", Flags::NONE, paper::fig06),
    Experiment::new("fig09", Flags::NONE, paper::fig09),
    Experiment::new("fig10", Flags::NONE, paper::fig10),
    Experiment::new("fig13", CORA, paper::fig13),
    Experiment::new("fig14", Flags::NONE, paper::fig14),
    Experiment::new("fig15", Flags::NONE, paper::fig15),
    Experiment::new("fig16", Flags::NONE, paper::fig16),
    Experiment::new("fig17", Flags::NONE, paper::fig17),
    Experiment::new("table05", Flags::NONE, paper::table05),
    Experiment::new("table06", Flags::NONE, paper::table06),
    Experiment::new("table07", Flags::NONE, paper::table07),
    Experiment::new("ablation", Flags::NONE, extensions::ablation),
    Experiment::new("endurance", Flags::NONE, extensions::endurance),
    Experiment::new("xbar_size", Flags::NONE, extensions::xbar_size),
    Experiment::new("shapecheck", Flags::NONE, extensions::shapecheck),
    Experiment::new("faults", faults::FLAGS, faults::faults),
];

/// The flags every experiment accepts.
const COMMON: Flags = Flags {
    switches: &["--quick"],
    options: &["--budget"],
    positionals: 0,
};

/// The experiment names, space-separated.
pub fn names() -> String {
    EXPERIMENTS
        .iter()
        .map(|e| e.name)
        .collect::<Vec<_>>()
        .join(" ")
}

/// What an experiment reads from its command line.
#[derive(Debug)]
pub struct Repro {
    /// Reduced-scale smoke run.
    pub quick: bool,
    /// Crossbar budget override.
    pub budget: Option<usize>,
    /// Every parsed argument, for the experiment's own flags.
    pub parsed: Args,
}

impl Repro {
    /// The run configuration these arguments imply.
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            crossbar_budget: self.budget.or(self.quick.then_some(400_000)),
            ..RunConfig::default()
        }
    }

    /// The full-scale value, or the reduced one in quick mode.
    pub fn scaled<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// Finds the experiment `args[0]` and parses the rest against its flags.
fn parse(args: &[String]) -> Result<(&'static Experiment, Repro), String> {
    let name = args
        .first()
        .ok_or_else(|| format!("repro needs an experiment (try: {})", names()))?;
    let experiment = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown experiment '{name}' (try: {})", names()))?;
    let usage = |e: String| format!("repro {name}: {e}");
    let args = Args::parse(&args[1..], &[&COMMON, &experiment.flags]).map_err(usage)?;
    let repro = Repro {
        quick: args.has("--quick"),
        budget: args.number("--budget").map_err(usage)?,
        parsed: args,
    };
    Ok((experiment, repro))
}

/// Runs `gopim repro` with the arguments after `repro`.
///
/// # Errors
///
/// A usage error: an unknown experiment or flag, or a malformed value.
pub fn run(args: &[String]) -> Result<(), String> {
    let (experiment, repro) = parse(args)?;
    calibrate_trace();
    (experiment.run)(&repro)
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, description: &str) {
    println!("== GoPIM reproduction :: {id} ==");
    println!("{description}");
    println!();
}

/// When tracing is on, runs a tiny host-kernel calibration (one
/// matmul, one aggregation) so every trace carries `linalg.*`, `gcn.*`
/// and `par.*` wall-clock spans even for experiments whose path is
/// purely analytic.
pub fn calibrate_trace() {
    if !gopim_obs::trace_enabled() {
        return;
    }
    let _span = gopim_obs::span!("bench.calibrate");
    let fill = |rows: usize, cols: usize, salt: usize| {
        let data = (0..rows * cols)
            .map(|i| ((i * 31 + salt) % 13) as f64 * 0.1)
            .collect();
        gopim_linalg::Matrix::from_vec(rows, cols, data)
    };
    let c = fill(64, 64, 0).matmul(&fill(64, 64, 7));
    std::hint::black_box(&c);
    let n = 256u32;
    let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    let graph = gopim_graph::CsrGraph::from_edges(n as usize, &edges);
    let adj = gopim_gcn::aggregate::NormalizedAdjacency::new(&graph);
    let y = adj.apply(&graph, &fill(n as usize, 16, 3));
    std::hint::black_box(&y);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::strings;

    fn repro(args: &[&str]) -> Result<Repro, String> {
        parse(&strings(args)).map(|(_, r)| r)
    }

    #[test]
    fn default_is_full_chip() {
        let r = repro(&["fig04"]).unwrap();
        assert!(!r.quick);
        assert_eq!(r.run_config().crossbar_budget, None);
        assert_eq!(r.scaled(2200, 300), 2200);
    }

    #[test]
    fn quick_mode_reduces_budget_and_counts() {
        let r = repro(&["fig04", "--quick"]).unwrap();
        assert_eq!(r.run_config().crossbar_budget, Some(400_000));
        assert_eq!(r.scaled(2200, 300), 300);
        let r = repro(&["fig04", "--quick", "--budget", "1000"]).unwrap();
        assert_eq!(r.run_config().crossbar_budget, Some(1000));
    }

    #[test]
    fn every_experiment_accepts_quick_and_budget() {
        for e in EXPERIMENTS {
            let r = repro(&[e.name, "--quick", "--budget", "7"]).unwrap();
            assert!(r.quick && r.budget == Some(7), "{}", e.name);
        }
    }

    #[test]
    fn experiment_names_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }

    #[test]
    fn an_unknown_experiment_lists_the_valid_names() {
        let err = repro(&["fig99"]).unwrap_err();
        assert!(err.starts_with("unknown experiment 'fig99'"), "{err}");
        assert!(err.contains(&names()), "{err}");
        assert!(repro(&[]).unwrap_err().contains(&names()));
    }

    #[test]
    fn usage_errors_name_the_experiment() {
        for (args, want) in [
            (
                &["table03", "--quik"][..],
                "repro table03: unknown flag '--quik'",
            ),
            (
                &["fig04", "--budget"],
                "repro fig04: --budget expects a value",
            ),
            (
                &["fig04", "--budget", "--quick"],
                "repro fig04: --budget expects a value",
            ),
            (
                &["fig04", "--budget", "lots"],
                "repro fig04: --budget expects an integer, got 'lots'",
            ),
            (
                &["fig05", "extra"],
                "repro fig05: unexpected argument 'extra'",
            ),
            (&["fig04", "--cora"], "repro fig04: unknown flag '--cora'"),
        ] {
            assert_eq!(repro(args).err().as_deref(), Some(want), "{args:?}");
        }
    }

    #[test]
    fn experiment_flags_parse_for_their_experiment() {
        assert!(repro(&["fig13", "--cora"]).unwrap().parsed.has("--cora"));
        let r = repro(&["faults", "cora", "--json", "out.jsonl"]).unwrap();
        assert_eq!(r.parsed.positional(0), Some("cora"));
        assert_eq!(r.parsed.value("--json"), Some("out.jsonl"));
    }
}
