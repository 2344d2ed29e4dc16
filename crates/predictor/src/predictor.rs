//! The MLP-based Time Predictor (paper §V-A, "The Predictor
//! Structure").

use gopim_linalg::{Matrix, Mlp, MlpConfig};
use gopim_pipeline::GcnWorkload;

use crate::dataset_gen::SampleSet;
use crate::features::{stage_features, Normalizer, NUM_FEATURES};

/// A trained execution-time predictor: feature normalizer + MLP with
/// ReLU hidden layers, predicting the normalized log service time of a
/// stage.
///
/// The paper's selected architecture is the 3-layer, 256-hidden-neuron
/// configuration ([`TimePredictor::train_paper`]); the generic
/// [`TimePredictor::train`] supports the depth/width sweeps of
/// Fig. 9(b)/(c).
#[derive(Debug, Clone)]
pub struct TimePredictor {
    mlp: Mlp,
    norm: Normalizer,
}

impl TimePredictor {
    /// Trains a predictor with `depth` total layers (paper counting)
    /// and `hidden` neurons per hidden layer.
    ///
    /// # Panics
    ///
    /// Panics if the sample set is empty or `depth < 2`.
    pub fn train(
        samples: &SampleSet,
        depth: usize,
        hidden: usize,
        epochs: usize,
        seed: u64,
    ) -> Self {
        assert!(!samples.is_empty(), "cannot train on empty samples");
        let _span = gopim_obs::SpanGuard::enter(
            "predictor.train",
            "span",
            &[("samples", samples.len() as f64), ("epochs", epochs as f64)],
        );
        let norm = Normalizer::fit(&samples.x);
        let x = norm.transform(&samples.x);
        let y = Matrix::from_vec(samples.y.len(), 1, samples.y.clone());
        let config = MlpConfig::uniform(NUM_FEATURES, hidden, 1, depth);
        let mut mlp = Mlp::new(config, seed);
        mlp.fit(&x, &y, epochs, 32, 5e-3);
        TimePredictor { mlp, norm }
    }

    /// Trains the paper's selected configuration (10-256-1).
    pub fn train_paper(samples: &SampleSet, epochs: usize, seed: u64) -> Self {
        Self::train(samples, 3, 256, epochs, seed)
    }

    /// Predicts normalized log-time targets for raw feature rows.
    pub fn predict_normalized(&self, x: &Matrix) -> Vec<f64> {
        let xn = self.norm.transform(x);
        let out = self.mlp.predict(&xn);
        (0..out.rows()).map(|i| out[(i, 0)]).collect()
    }

    /// Predicts the per-stage execution times (ns, no replicas) of a
    /// workload — the input Algorithm 1 consumes.
    pub fn predict_stage_times_ns(&self, workload: &GcnWorkload, avg_degree: f64) -> Vec<f64> {
        let stages = workload.stages();
        let mut x = Matrix::zeros(stages.len(), NUM_FEATURES);
        for (i, st) in stages.iter().enumerate() {
            x.row_mut(i)
                .copy_from_slice(&stage_features(workload, st, avg_degree));
        }
        self.predict_normalized(&x)
            .into_iter()
            .map(SampleSet::ns_of_target)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset_gen::generate_samples;
    use crate::eval::{rmse, split};
    use gopim_graph::datasets::Dataset;
    use gopim_pipeline::WorkloadOptions;

    #[test]
    fn predictor_beats_the_mean_baseline() {
        let data = generate_samples(300, 11);
        let (train, test) = split(&data, 0.8, 1);
        let p = TimePredictor::train(&train, 3, 48, 60, 5);
        let pred = p.predict_normalized(&test.x);
        let model_rmse = rmse(&pred, &test.y);
        let mean = train.y.iter().sum::<f64>() / train.y.len() as f64;
        let baseline = rmse(&vec![mean; test.y.len()], &test.y);
        assert!(
            model_rmse < 0.5 * baseline,
            "model {model_rmse} vs baseline {baseline}"
        );
    }

    #[test]
    fn stage_time_prediction_tracks_simulator() {
        let data = generate_samples(400, 13);
        let p = TimePredictor::train(&data, 3, 64, 80, 6);
        let wl = GcnWorkload::build(Dataset::Ddi, &WorkloadOptions::default());
        let preds = p.predict_stage_times_ns(&wl, Dataset::Ddi.stats().avg_degree);
        assert_eq!(preds.len(), 8);
        // The predictor must rank AG stages far above CO stages.
        assert!(preds[1] > 5.0 * preds[0], "AG {} CO {}", preds[1], preds[0]);
        // And be within ~3× of the simulator on the bottleneck stage.
        let actual = wl.stages()[1].compute_ns + wl.stages()[1].write_ns;
        let ratio = preds[1] / actual;
        assert!(ratio > 0.3 && ratio < 3.0, "ratio {ratio}");
    }

    #[test]
    fn deterministic_given_seed() {
        let data = generate_samples(120, 17);
        let a = TimePredictor::train(&data, 3, 16, 10, 3);
        let b = TimePredictor::train(&data, 3, 16, 10, 3);
        assert_eq!(a.predict_normalized(&data.x), b.predict_normalized(&data.x));
    }
}
