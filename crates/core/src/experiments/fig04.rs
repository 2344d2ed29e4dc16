//! Fig. 4: idle-time percentage of crossbars for the forward-pass
//! stages under a SlimGNN-style pipeline, across the six motivation
//! datasets.
//!
//! The paper's headline numbers: the Combination-stage crossbars
//! (XBS1/3/5) idle 98.47 %, 97.50 % and 99.03 % of the time on average.

use gopim_graph::datasets::Dataset;

use crate::runner::{run_sweep, Cell, RunConfig};
use crate::system::System;

/// One bar of Fig. 4.
#[derive(Debug, Clone, PartialEq)]
pub struct IdleRow {
    /// Dataset name.
    pub dataset: String,
    /// Stage label (`XBS1` = crossbars of the 1st forward stage, …).
    pub stage: String,
    /// Kind label (CO/AG) for readability.
    pub kind: String,
    /// Idle fraction in `[0, 1]`.
    pub idle_fraction: f64,
}

/// Runs the Fig. 4 analysis for the given datasets.
pub fn run(config: &RunConfig, datasets: &[Dataset]) -> Vec<IdleRow> {
    // One independent simulation per dataset — fan them over the pool.
    let cells: Vec<Cell> = datasets
        .iter()
        .map(|&d| Cell::system(d, System::SlimGnnLike, config.clone()))
        .collect();
    let runs = run_sweep(&cells);
    let mut rows = Vec::new();
    for (&dataset, run) in datasets.iter().zip(&runs) {
        let num_forward = 2 * dataset.model().num_layers;
        for (i, stage) in run.schedule.stages.iter().take(num_forward).enumerate() {
            rows.push(IdleRow {
                dataset: dataset.name().to_string(),
                stage: format!("XBS{}", i + 1),
                kind: run.stage_names[i].clone(),
                idle_fraction: stage.idle_fraction,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combination_crossbars_idle_far_more_than_aggregation() {
        let config = RunConfig {
            crossbar_budget: Some(200_000),
            ..RunConfig::default()
        };
        let rows = run(&config, &[Dataset::Ddi]);
        assert_eq!(rows.len(), 4); // 2-layer GCN forward pass
        let co: Vec<&IdleRow> = rows.iter().filter(|r| r.kind.starts_with("CO")).collect();
        let ag: Vec<&IdleRow> = rows.iter().filter(|r| r.kind.starts_with("AG")).collect();
        for c in &co {
            // The paper's observation: CO crossbars idle > 97 %.
            assert!(c.idle_fraction > 0.9, "{c:?}");
            for a in &ag {
                assert!(c.idle_fraction > a.idle_fraction, "{c:?} vs {a:?}");
            }
        }
    }
}
