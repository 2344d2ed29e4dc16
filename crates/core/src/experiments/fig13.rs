//! Fig. 13: the headline end-to-end comparison — speedup (a) and
//! normalized energy (b) of every system against `Serial`, per dataset.
//! Also covers the §VII-F sparse-dataset (Cora) run.

use gopim_graph::datasets::Dataset;

use crate::runner::{run_sweep, Cell, RunConfig, SystemRun};
use crate::system::System;

/// One (dataset, system) cell of Fig. 13.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Dataset name.
    pub dataset: String,
    /// System name.
    pub system: String,
    /// End-to-end time, ns.
    pub makespan_ns: f64,
    /// Total energy, nJ.
    pub energy_nj: f64,
    /// Speedup over `Serial` on the same dataset.
    pub speedup: f64,
    /// Energy saving factor over `Serial` (>1 = better).
    pub energy_saving: f64,
}

/// Runs the Fig. 13 comparison over the given datasets and all six
/// systems.
pub fn run(config: &RunConfig, datasets: &[Dataset]) -> Vec<ComparisonRow> {
    // One cached sweep over the full (dataset, system) grid: each
    // dataset's six systems share one profile, and the datasets fan
    // over the pool. Results come back in input order, bitwise
    // identical to serial `run_system` calls.
    let cells: Vec<Cell> = datasets
        .iter()
        .flat_map(|&d| {
            System::ALL
                .iter()
                .map(move |&s| Cell::system(d, s, config.clone()))
        })
        .collect();
    let all_runs = run_sweep(&cells);
    let mut rows = Vec::new();
    for (&dataset, runs) in datasets.iter().zip(all_runs.chunks(System::ALL.len())) {
        let runs: &[SystemRun] = runs;
        let serial_time = runs[0].makespan_ns;
        let serial_energy = runs[0].energy_nj();
        for r in runs {
            rows.push(ComparisonRow {
                dataset: dataset.name().to_string(),
                system: r.system_name.clone(),
                makespan_ns: r.makespan_ns,
                energy_nj: r.energy_nj(),
                speedup: serial_time / r.makespan_ns,
                energy_saving: serial_energy / r.energy_nj(),
            });
        }
    }
    rows
}

/// Looks up one cell.
///
/// # Panics
///
/// Panics if the (dataset, system) pair is absent.
pub fn cell<'a>(rows: &'a [ComparisonRow], dataset: &str, system: &str) -> &'a ComparisonRow {
    rows.iter()
        .find(|r| r.dataset == dataset && r.system == system)
        // lint:allow(no-panic-in-lib): documented panicking lookup for experiment tables (see # Panics above)
        .unwrap_or_else(|| panic!("no row for ({dataset}, {system})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gopim_wins_everywhere_and_ddi_shows_the_largest_speedup() {
        let config = RunConfig {
            crossbar_budget: Some(400_000),
            ..RunConfig::default()
        };
        let rows = run(&config, &[Dataset::Ddi, Dataset::Cora]);
        for dataset in ["ddi", "Cora"] {
            let gopim = cell(&rows, dataset, "GoPIM");
            for system in [
                "Serial",
                "SlimGNN-like",
                "ReGraphX",
                "ReFlip",
                "GoPIM-Vanilla",
            ] {
                let other = cell(&rows, dataset, system);
                assert!(
                    gopim.speedup >= other.speedup,
                    "{dataset}: GoPIM {} vs {system} {}",
                    gopim.speedup,
                    other.speedup
                );
            }
        }
        // Paper: the smallest dataset (ddi) sees the largest speedup
        // because replicas are cheap.
        let ddi = cell(&rows, "ddi", "GoPIM").speedup;
        assert!(ddi > 50.0, "ddi speedup {ddi}");
    }
}
