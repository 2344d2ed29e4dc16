//! Microbenchmarks for the Time Predictor: training-sample generation at
//! the Table VII protocol's sizes (700 random-workload samples plus the
//! headline datasets' records), inference latency (the paper's §VII-G
//! claims milliseconds for a whole workload) and training: ten epochs of
//! a 64-wide net, and 30 epochs of the paper's 10-256-1 predictor at the
//! `predictor_fit` benchmark's shape (868 rows, batch 32, so a 4-row
//! tail batch closes every epoch).

use gopim_graph::datasets::Dataset;
use gopim_pipeline::{GcnWorkload, WorkloadOptions};
use gopim_predictor::dataset_gen::{generate_samples, samples_from_datasets};
use gopim_predictor::TimePredictor;
use gopim_testkit::bench::Runner;

fn main() {
    let samples = generate_samples(400, 42);
    let predictor = TimePredictor::train_paper(&samples, 30, 9);
    let wl = GcnWorkload::build(Dataset::Ddi, &WorkloadOptions::default());
    let avg = Dataset::Ddi.stats().avg_degree;
    // A training set of `predictor_fit`'s size: 700 random samples (at
    // seed 3, which draws exactly 700) plus the headline datasets' 168
    // records.
    let fit_set = generate_samples(700, 3).concat(&samples_from_datasets(&Dataset::HEADLINE, 3));
    assert_eq!(fit_set.len(), 868, "predictor_fit's training shape moved");

    let mut runner = Runner::new("predictor");
    runner.bench("generate_samples/700", || generate_samples(700, 1));
    runner.bench("samples_from_datasets/headline", || {
        samples_from_datasets(&Dataset::HEADLINE, 1)
    });
    runner.bench("infer_all_stages_ddi", || {
        predictor.predict_stage_times_ns(&wl, avg)
    });
    runner.bench("train_10_epochs_400_samples", || {
        TimePredictor::train(&samples, 3, 64, 10, 1)
    });
    runner.bench("train_paper/868x30", || {
        TimePredictor::train_paper(&fit_set, 30, 1)
    });
    runner.finish();
}
