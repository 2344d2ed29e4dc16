//! Runner-layer benchmark with the memos on: the warm working set of a
//! long-lived job server, whose requests revisit the same degree
//! profiles and workloads across many `(dataset, profile seed)` keys.

use gopim::runner::{allocation_plan, RunConfig};
use gopim::System;
use gopim_graph::datasets::Dataset;
use gopim_testkit::bench::Runner;

fn main() {
    let mut runner = Runner::new("runner");
    // serve_mix's key space: ddi and Cora × 60 profile seeds × three
    // micro-batch sizes, at the job server's 300,000-crossbar budget —
    // 360 configs over 120 profiles. Warmup builds every intermediate
    // once; each timed iteration re-plans all 360 from the memos.
    let configs: Vec<(Dataset, RunConfig)> = [Dataset::Ddi, Dataset::Cora]
        .into_iter()
        .flat_map(|dataset| {
            (1..=60u64).flat_map(move |profile_seed| {
                [32, 64, 128].map(|micro_batch| {
                    let config = RunConfig {
                        micro_batch,
                        crossbar_budget: Some(300_000),
                        profile_seed,
                        ..RunConfig::default()
                    };
                    (dataset, config)
                })
            })
        })
        .collect();
    runner.bench("warm_working_set", || {
        configs
            .iter()
            .map(|(dataset, config)| allocation_plan(*dataset, System::Gopim, config).0[0])
            .sum::<usize>()
    });
    runner.finish();
}
