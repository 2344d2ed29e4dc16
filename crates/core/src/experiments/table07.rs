//! Table VII: ML-predicted vs profiling-derived stage times feeding the
//! allocator — the paper finds the resulting speedups within 4.3 % of
//! each other, while ML avoids the profiling collection cost.

use gopim_cache::{CacheValue, CanonicalHash, CanonicalHasher, Decoder, Encoder};
use gopim_graph::datasets::Dataset;
use gopim_predictor::dataset_gen::{generate_samples, samples_from_datasets};
use gopim_predictor::TimePredictor;

use crate::runner::{run_sweep, Cell, Estimator, RunConfig};
use crate::system::System;

/// One dataset row of Table VII.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorRow {
    /// Dataset name.
    pub dataset: String,
    /// GoPIM speedup over Serial with ML-predicted stage times.
    pub ml_speedup: f64,
    /// GoPIM speedup over Serial with exact (profiling) stage times.
    pub profiling_speedup: f64,
    /// Relative difference `|ml − prof| / prof`.
    pub relative_gap: f64,
}

impl CacheValue for PredictorRow {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.dataset);
        e.put_f64(self.ml_speedup);
        e.put_f64(self.profiling_speedup);
        e.put_f64(self.relative_gap);
    }
    fn decode(d: &mut Decoder<'_>) -> Option<Self> {
        Some(PredictorRow {
            dataset: d.take_str()?,
            ml_speedup: d.take_f64()?,
            profiling_speedup: d.take_f64()?,
            relative_gap: d.take_f64()?,
        })
    }
}

/// Runs the Table VII comparison. Trains one predictor on `samples`
/// randomized simulator samples *plus* the evaluation workloads' own
/// execution records — the paper's §V-A data-collection protocol — and
/// reuses it for every dataset.
///
/// The individual ML-estimator runs stay uncached (a trained predictor
/// has no canonical content hash), but the experiment as a whole is a
/// pure function of its *training inputs* — sample count, epochs, seed,
/// datasets, config — so the finished table is cached under those. A
/// caller-supplied `Estimator::Ml` config bypasses the cache entirely.
pub fn run(
    config: &RunConfig,
    datasets: &[Dataset],
    samples: usize,
    train_epochs: usize,
    seed: u64,
) -> Vec<PredictorRow> {
    if matches!(config.estimator, Estimator::Ml(_)) {
        return run_fresh(config, datasets, samples, train_epochs, seed);
    }
    let mut h = CanonicalHasher::new();
    h.write_tag("experiments.table07/v1");
    config.canonical_hash(&mut h);
    datasets.canonical_hash(&mut h);
    h.write_usize(samples);
    h.write_usize(train_epochs);
    h.write_u64(seed);
    gopim_pipeline::latency::LatencyParams::paper().canonical_hash(&mut h);
    gopim_cache::global().get_or_compute(h.finish(), || {
        run_fresh(config, datasets, samples, train_epochs, seed)
    })
}

fn run_fresh(
    config: &RunConfig,
    datasets: &[Dataset],
    samples: usize,
    train_epochs: usize,
    seed: u64,
) -> Vec<PredictorRow> {
    let data = generate_samples(samples, seed)
        .concat(&samples_from_datasets(datasets, config.profile_seed));
    let predictor = TimePredictor::train_paper(&data, train_epochs, seed);
    let ml_config = RunConfig {
        estimator: Estimator::Ml(predictor),
        ..config.clone()
    };
    // Three cells per dataset on one profile: Serial and GoPIM with
    // exact stage times (cached), and GoPIM with the ML estimator
    // (uncacheable, but it still shares the profile).
    let cells: Vec<Cell> = datasets
        .iter()
        .flat_map(|&d| {
            [
                Cell::system(d, System::Serial, config.clone()),
                Cell::system(d, System::Gopim, config.clone()),
                Cell::system(d, System::Gopim, ml_config.clone()),
            ]
        })
        .collect();
    let runs = run_sweep(&cells);
    datasets
        .iter()
        .zip(runs.chunks_exact(3))
        .map(|(&dataset, runs)| {
            let (serial, prof, ml) = (&runs[0], &runs[1], &runs[2]);
            let profiling_speedup = serial.makespan_ns / prof.makespan_ns;
            let ml_speedup = serial.makespan_ns / ml.makespan_ns;
            PredictorRow {
                dataset: dataset.name().to_string(),
                ml_speedup,
                profiling_speedup,
                relative_gap: (ml_speedup - profiling_speedup).abs() / profiling_speedup,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ml_allocation_is_close_to_profiling_allocation() {
        let config = RunConfig {
            crossbar_budget: Some(400_000),
            ..RunConfig::default()
        };
        // Debug builds train a smaller predictor to keep `cargo test`
        // fast; the release path uses the fuller configuration.
        let (samples, epochs) = if cfg!(debug_assertions) {
            (250, 30)
        } else {
            (900, 120)
        };
        let rows = run(&config, &[Dataset::Ddi], samples, epochs, 7);
        let r = &rows[0];
        assert!(r.profiling_speedup > 10.0, "{r:?}");
        // The paper reports ≤ 4.3 % gap; allow more slack for the small
        // training set used in tests.
        assert!(r.relative_gap < 0.35, "{r:?}");
    }
}
