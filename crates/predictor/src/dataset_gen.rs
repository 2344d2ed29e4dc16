//! Training-data generation for the Time Predictor.
//!
//! The paper records per-stage execution times of six workloads over 30
//! epochs (~2,200 samples). Our equivalent: run the analytic simulator
//! over randomized (graph, model, micro-batch) configurations and
//! record `(Table I features, log stage time)` pairs.

use gopim_graph::datasets::ModelConfig;
use gopim_graph::generate::power_law_profile;
use gopim_linalg::Matrix;
use gopim_pipeline::{GcnWorkload, WorkloadOptions};
use gopim_rng::rngs::SmallRng;
use gopim_rng::{Rng, SeedableRng};

use crate::features::{stage_features, NUM_FEATURES};

/// A feature matrix plus aligned targets. Targets are `ln(service
/// ns)` scaled by [`SampleSet::TARGET_SCALE`], keeping them in ≈[0, 1]
/// so RMSE values are comparable with the paper's (0.0022 scale).
#[derive(Debug, Clone)]
pub struct SampleSet {
    /// Raw (unnormalized) feature rows.
    pub x: Matrix,
    /// Normalized log-time targets, one per row.
    pub y: Vec<f64>,
}

impl SampleSet {
    /// Log-time targets are divided by this constant.
    pub const TARGET_SCALE: f64 = 20.0;

    /// Converts a stage service time in ns to the normalized target.
    pub fn target_of_ns(ns: f64) -> f64 {
        (1.0 + ns).ln() / Self::TARGET_SCALE
    }

    /// Converts a normalized target back to nanoseconds.
    pub fn ns_of_target(t: f64) -> f64 {
        (t * Self::TARGET_SCALE).exp() - 1.0
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }
}

impl gopim_cache::CanonicalHash for SampleSet {
    fn canonical_hash(&self, h: &mut gopim_cache::CanonicalHasher) {
        h.write_tag("predictor.sample_set/v1");
        self.x.canonical_hash(h);
        self.y.canonical_hash(h);
    }
}

impl SampleSet {
    /// Concatenates two sample sets.
    ///
    /// # Panics
    ///
    /// Panics if the feature widths differ.
    pub fn concat(&self, other: &SampleSet) -> SampleSet {
        assert_eq!(self.x.cols(), other.x.cols(), "feature width mismatch");
        let mut data = self.x.as_slice().to_vec();
        data.extend_from_slice(other.x.as_slice());
        let mut y = self.y.clone();
        y.extend_from_slice(&other.y);
        SampleSet {
            x: Matrix::from_vec(self.y.len() + other.y.len(), self.x.cols(), data),
            y,
        }
    }
}

/// Records stage samples from the named datasets' own workloads at
/// micro-batch sizes 32/64/128 — the paper's §V-A protocol ("we conduct
/// six workloads … to gather the execution records").
pub fn samples_from_datasets(datasets: &[gopim_graph::datasets::Dataset], seed: u64) -> SampleSet {
    let _span = gopim_obs::span!("predictor.samples_from_datasets");
    let mut rows: Vec<[f64; NUM_FEATURES]> = Vec::new();
    let mut y = Vec::new();
    for &dataset in datasets {
        // One profile serves all three sizes: `GcnWorkload::build` is
        // `build_custom` over `dataset.profile(profile_seed)`.
        let profile = dataset.profile(seed);
        for b in [32usize, 64, 128] {
            let options = WorkloadOptions {
                micro_batch: b,
                profile_seed: seed,
                ..WorkloadOptions::default()
            };
            let wl =
                GcnWorkload::build_custom(dataset.name(), &profile, &dataset.model(), &options);
            let avg = dataset.stats().avg_degree;
            for stage in wl.stages() {
                rows.push(stage_features(&wl, stage, avg));
                y.push(SampleSet::target_of_ns(stage.compute_ns + stage.write_ns));
            }
        }
    }
    let data: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
    SampleSet {
        x: Matrix::from_vec(rows.len(), NUM_FEATURES, data),
        y,
    }
}

/// Generates at least `count` samples from randomized workloads.
///
/// # Panics
///
/// Panics if `count == 0`.
pub fn generate_samples(count: usize, seed: u64) -> SampleSet {
    assert!(count > 0, "need at least one sample");
    let _span = gopim_obs::span!("predictor.generate_samples", count);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rows: Vec<[f64; NUM_FEATURES]> = Vec::with_capacity(count + 16);
    let mut y = Vec::with_capacity(count + 16);
    let mut config_idx = 0u64;
    while y.len() < count {
        config_idx += 1;
        // Random graph: log-uniform N and average degree.
        let n = (2f64.powf(rng.gen_range(9.0..19.2))) as usize;
        let max_deg = (n as f64 / 2.0).min(600.0);
        let avg_deg = 2f64.powf(rng.gen_range(1.0..max_deg.log2()));
        let exponent = rng.gen_range(0.4..1.1);
        let profile = power_law_profile(n, avg_deg, exponent, 0.9, seed ^ config_idx);
        // Random model.
        let dims = [16usize, 32, 64, 100, 128, 256, 512];
        let model = ModelConfig {
            num_layers: rng.gen_range(2..=3),
            learning_rate: 0.01,
            dropout: 0.0,
            input_channels: dims[rng.gen_range(0..dims.len())],
            hidden_channels: dims[rng.gen_range(0..dims.len())],
            output_channels: dims[rng.gen_range(0..dims.len())],
        };
        let options = WorkloadOptions {
            micro_batch: [32, 64, 128][rng.gen_range(0..3)],
            ..WorkloadOptions::default()
        };
        let wl = GcnWorkload::build_custom("sample", &profile, &model, &options);
        let avg = profile.avg_degree();
        for stage in wl.stages() {
            rows.push(stage_features(&wl, stage, avg));
            y.push(SampleSet::target_of_ns(stage.compute_ns + stage.write_ns));
        }
    }
    let data: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
    SampleSet {
        x: Matrix::from_vec(rows.len(), NUM_FEATURES, data),
        y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count() {
        let s = generate_samples(50, 3);
        assert!(s.len() >= 50);
        assert_eq!(s.x.rows(), s.len());
        assert_eq!(s.x.cols(), NUM_FEATURES);
    }

    #[test]
    fn targets_are_in_sane_range() {
        let s = generate_samples(60, 4);
        assert!(
            s.y.iter().all(|&t| t > 0.0 && t < 2.0),
            "targets {:?}",
            &s.y[..5]
        );
    }

    #[test]
    fn target_round_trip() {
        for ns in [1.0, 1e3, 1e6, 1e9] {
            let t = SampleSet::target_of_ns(ns);
            let back = SampleSet::ns_of_target(t);
            assert!((back - ns).abs() / ns < 1e-9);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_samples(30, 9);
        let b = generate_samples(30, 9);
        assert_eq!(a.y, b.y);
    }

    /// Pins every bit of the Time Predictor's training data: the random
    /// draws of [`generate_samples`] (fractional and integral caps, long
    /// and short runs) and the headline datasets' own records.
    #[test]
    fn training_data_is_pinned() {
        use gopim_cache::CanonicalHash;
        use gopim_graph::datasets::Dataset;
        let data = generate_samples(700, 1).concat(&samples_from_datasets(&Dataset::HEADLINE, 1));
        let mut h = gopim_cache::CanonicalHasher::new();
        data.canonical_hash(&mut h);
        assert_eq!(h.finish().to_hex(), "050e72d9587133f0be9afe9194cad98c");
    }
}
