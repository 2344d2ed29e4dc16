//! Fig. 14: the ablation — `Serial → +PP → +ISU → GoPIM`, execution
//! time (a) and energy (b), normalized to `Serial`.

use gopim_graph::datasets::Dataset;

use crate::runner::{run_sweep, Cell, RunConfig};
use crate::system::Ablation;

/// One (dataset, variant) cell of Fig. 14.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Dataset name.
    pub dataset: String,
    /// Variant name (`Serial`, `+PP`, `+ISU`, `GoPIM`).
    pub variant: String,
    /// Speedup over `Serial`.
    pub speedup: f64,
    /// Energy reduction vs `Serial` (fraction saved, the paper's
    /// "up to 79 %" quantity).
    pub energy_reduction: f64,
    /// Raw makespan, ns.
    pub makespan_ns: f64,
}

/// Runs the ablation over the given datasets.
pub fn run(config: &RunConfig, datasets: &[Dataset]) -> Vec<AblationRow> {
    // One sweep over the cross product; each dataset's four variants
    // share one profile, and the results regroup per dataset.
    let cells: Vec<Cell> = datasets
        .iter()
        .flat_map(|&d| {
            Ablation::ALL
                .iter()
                .map(move |&v| Cell::ablation(d, v, config.clone()))
        })
        .collect();
    let all_runs = run_sweep(&cells);
    let mut rows = Vec::new();
    for (&dataset, runs) in datasets.iter().zip(all_runs.chunks(Ablation::ALL.len())) {
        let serial_time = runs[0].makespan_ns;
        let serial_energy = runs[0].energy_nj();
        for r in runs {
            rows.push(AblationRow {
                dataset: dataset.name().to_string(),
                variant: r.system_name.clone(),
                speedup: serial_time / r.makespan_ns,
                energy_reduction: 1.0 - r.energy_nj() / serial_energy,
                makespan_ns: r.makespan_ns,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_technique_adds_speedup() {
        let config = RunConfig {
            crossbar_budget: Some(400_000),
            ..RunConfig::default()
        };
        let rows = run(&config, &[Dataset::Ddi]);
        assert_eq!(rows.len(), 4);
        let s = |v: &str| rows.iter().find(|r| r.variant == v).unwrap().speedup;
        assert!((s("Serial") - 1.0).abs() < 1e-9);
        assert!(s("+PP") > 1.5, "+PP {}", s("+PP"));
        assert!(
            s("+ISU") >= s("+PP"),
            "+ISU {} vs +PP {}",
            s("+ISU"),
            s("+PP")
        );
        assert!(s("GoPIM") > 10.0 * s("+ISU"), "GoPIM {}", s("GoPIM"));
        // Energy reductions are positive for the pipeline variants.
        assert!(rows
            .iter()
            .filter(|r| r.variant != "Serial")
            .all(|r| r.energy_reduction > 0.0));
    }
}
