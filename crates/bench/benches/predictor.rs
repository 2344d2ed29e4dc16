//! Microbenchmarks for the Time Predictor: training-sample generation at
//! the Table VII protocol's sizes (700 random-workload samples plus the
//! headline datasets' records), inference latency (the paper's §VII-G
//! claims milliseconds for a whole workload) and one training epoch.

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
    runner.finish();
}
