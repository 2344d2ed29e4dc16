//! Fig. 16: sensitivity studies.
//!
//! (a)/(b) accuracy vs the selective-updating threshold θ for a dense
//! graph (ddi-like) and a sparse graph (Cora-like) — the paper finds
//! θ = 50 % safe for dense and θ = 80 % for sparse graphs;
//! (c) speedup vs micro-batch size.

use gopim_cache::{CacheValue, CanonicalHash, CanonicalHasher, Decoder, Encoder};
use gopim_gcn::train::{train_gcn, TrainOptions};
use gopim_graph::datasets::Dataset;
use gopim_mapping::SelectivePolicy;

use crate::runner::{run_system_cached, RunConfig};
use crate::system::System;

/// One point of the θ-accuracy sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ThetaAccuracyRow {
    /// Dataset name.
    pub dataset: String,
    /// Threshold θ (1.0 = no sparsification).
    pub theta: f64,
    /// Held-out accuracy.
    pub test_accuracy: f64,
}

impl CacheValue for ThetaAccuracyRow {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.dataset);
        e.put_f64(self.theta);
        e.put_f64(self.test_accuracy);
    }
    fn decode(d: &mut Decoder<'_>) -> Option<Self> {
        Some(ThetaAccuracyRow {
            dataset: d.take_str()?,
            theta: d.take_f64()?,
            test_accuracy: d.take_f64()?,
        })
    }
}

/// Runs the θ sweep for one dataset's numeric stand-in graph. The sweep
/// trains one GCN per θ — deterministic in `(dataset, seed, options)` —
/// so the whole row set is cached under its canonical inputs.
pub fn theta_sweep(
    dataset: Dataset,
    thetas: &[f64],
    max_vertices: usize,
    train_options: &TrainOptions,
    seed: u64,
) -> Vec<ThetaAccuracyRow> {
    let mut h = CanonicalHasher::new();
    h.write_tag("experiments.fig16.theta_sweep/v1");
    dataset.canonical_hash(&mut h);
    thetas.canonical_hash(&mut h);
    h.write_usize(max_vertices);
    train_options.canonical_hash(&mut h);
    h.write_u64(seed);
    gopim_cache::global().get_or_compute(h.finish(), || {
        theta_sweep_fresh(dataset, thetas, max_vertices, train_options, seed)
    })
}

fn theta_sweep_fresh(
    dataset: Dataset,
    thetas: &[f64],
    max_vertices: usize,
    train_options: &TrainOptions,
    seed: u64,
) -> Vec<ThetaAccuracyRow> {
    let (graph, labels) = dataset.numeric_graph(max_vertices, seed);
    // One independent training per θ, fanned over the pool; the rows
    // come back in θ order.
    gopim_par::par_map(thetas, |&theta| {
        let mut opts = train_options.clone();
        opts.selective = if theta >= 1.0 {
            None
        } else {
            Some(SelectivePolicy::with_theta(theta, 20))
        };
        let report = train_gcn(&graph, &labels, &opts);
        ThetaAccuracyRow {
            dataset: dataset.name().to_string(),
            theta,
            test_accuracy: report.test_accuracy,
        }
    })
}

/// One point of the micro-batch-size speedup sweep (Fig. 16(c)).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSpeedupRow {
    /// Micro-batch size.
    pub micro_batch: usize,
    /// GoPIM speedup over Serial.
    pub speedup: f64,
}

/// Runs the micro-batch sweep.
pub fn batch_sweep(config: &RunConfig, dataset: Dataset, sizes: &[usize]) -> Vec<BatchSpeedupRow> {
    sizes
        .iter()
        .map(|&b| {
            let cfg = RunConfig {
                micro_batch: b,
                ..config.clone()
            };
            let serial = run_system_cached(dataset, System::Serial, &cfg);
            let gopim = run_system_cached(dataset, System::Gopim, &cfg);
            BatchSpeedupRow {
                micro_batch: b,
                speedup: serial.makespan_ns / gopim.makespan_ns,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moderate_theta_keeps_accuracy_close_to_full_updating() {
        let rows = theta_sweep(
            Dataset::Ddi,
            &[0.5, 1.0],
            250,
            &TrainOptions::quick_test(),
            3,
        );
        let at = |theta: f64| {
            rows.iter()
                .find(|r| r.theta == theta)
                .unwrap()
                .test_accuracy
        };
        assert!(at(1.0) > 0.5, "baseline accuracy {}", at(1.0));
        assert!(
            (at(1.0) - at(0.5)).abs() < 0.15,
            "theta 0.5 {} vs full {}",
            at(0.5),
            at(1.0)
        );
    }

    #[test]
    fn larger_micro_batches_increase_speedup() {
        let config = RunConfig {
            crossbar_budget: Some(400_000),
            ..RunConfig::default()
        };
        let rows = batch_sweep(&config, Dataset::Ddi, &[16, 128]);
        assert!(rows[1].speedup > rows[0].speedup, "{rows:?}");
    }
}
