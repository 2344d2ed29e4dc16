//! Fig. 15: per-stage crossbar idle time, Naive vs GoPIM, for
//! micro-batch sizes 32/64/128 on ddi.
//!
//! `Naive` is a pipelined accelerator with index-based mapping and no
//! replicas; GoPIM's ML-allocated replicas shorten the long stages and
//! thereby cut every stage's idle share (the paper reports average
//! reductions of 46.75 %/49.75 %/51.75 % for the three sizes).

use gopim_graph::datasets::Dataset;

use crate::runner::{run_sweep, Cell, RunConfig};
use crate::system::{Ablation, System};

/// One bar of Fig. 15.
#[derive(Debug, Clone, PartialEq)]
pub struct IdleComparisonRow {
    /// Micro-batch size.
    pub micro_batch: usize,
    /// `Naive` or `GoPIM`.
    pub system: String,
    /// Stage label (`XBS1`…).
    pub stage: String,
    /// Idle fraction.
    pub idle_fraction: f64,
}

/// Runs the Fig. 15 sweep on one dataset.
pub fn run(
    config: &RunConfig,
    dataset: Dataset,
    micro_batches: &[usize],
) -> Vec<IdleComparisonRow> {
    let labels: Vec<(usize, &str)> = micro_batches
        .iter()
        .flat_map(|&b| [(b, "Naive"), (b, "GoPIM")])
        .collect();
    let cells: Vec<Cell> = labels
        .iter()
        .map(|&(b, label)| {
            let cfg = RunConfig {
                micro_batch: b,
                ..config.clone()
            };
            if label == "Naive" {
                Cell::ablation(dataset, Ablation::PlusPp, cfg)
            } else {
                Cell::system(dataset, System::Gopim, cfg)
            }
        })
        .collect();
    let runs = run_sweep(&cells);
    let mut rows = Vec::new();
    for (&(b, label), run) in labels.iter().zip(&runs) {
        for (i, st) in run.schedule.stages.iter().enumerate() {
            rows.push(IdleComparisonRow {
                micro_batch: b,
                system: label.to_string(),
                stage: format!("XBS{}", i + 1),
                idle_fraction: st.stage_idle_fraction,
            });
        }
    }
    rows
}

/// Mean idle reduction (percentage points) of GoPIM vs Naive at one
/// micro-batch size.
pub fn mean_reduction(rows: &[IdleComparisonRow], micro_batch: usize) -> f64 {
    let mean = |system: &str| -> f64 {
        let vals: Vec<f64> = rows
            .iter()
            .filter(|r| r.micro_batch == micro_batch && r.system == system)
            .map(|r| r.idle_fraction)
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    mean("Naive") - mean("GoPIM")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gopim_cuts_idle_time_at_every_batch_size() {
        let config = RunConfig {
            crossbar_budget: Some(400_000),
            ..RunConfig::default()
        };
        let rows = run(&config, Dataset::Ddi, &[32, 64]);
        for b in [32, 64] {
            let red = mean_reduction(&rows, b);
            assert!(red > 0.1, "batch {b}: reduction {red}");
        }
    }
}
