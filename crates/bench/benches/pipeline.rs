//! Microbenchmarks for workload construction, schedule simulation and
//! the discrete-event engine — the inner loop of every experiment in
//! the harness.

use gopim_graph::datasets::Dataset;
use gopim_mapping::SelectivePolicy;
use gopim_pipeline::des::{simulate_des, ReplicaModel};
use gopim_pipeline::{simulate, GcnWorkload, MappingKind, PipelineOptions, WorkloadOptions};
use gopim_testkit::bench::Runner;

fn main() {
    let mut runner = Runner::new("pipeline");
    // The build alone (profile generated once, outside the timing) for
    // a GoPIM cell on products: interleaved mapping and selective
    // updating rank the 2.45 M vertices twice and pace 38 k micro-batches.
    let products = Dataset::Products.profile(7);
    let gopim = WorkloadOptions {
        mapping: MappingKind::Interleaved,
        selective: Some(SelectivePolicy::adaptive(&products)),
        ..WorkloadOptions::default()
    };
    runner.bench("build_workload/products", || {
        GcnWorkload::build_custom("products", &products, &Dataset::Products.model(), &gopim)
    });
    for dataset in [Dataset::Ddi, Dataset::Collab] {
        let name = dataset.name();
        runner.bench(&format!("build_workload/{name}"), || {
            GcnWorkload::build(dataset, &WorkloadOptions::default())
        });
        let wl = GcnWorkload::build(dataset, &WorkloadOptions::default());
        let replicas = vec![8; wl.stages().len()];
        runner.bench(&format!("simulate_pipelined/{name}"), || {
            simulate(&wl, &replicas, &PipelineOptions::default())
        });
    }
    // The DES event loop proper: small micro-batches make many events,
    // large replica pools make each event-queue operation expensive —
    // the configuration where the queue implementation dominates.
    for (dataset, micro_batch) in [(Dataset::Ddi, 16), (Dataset::Collab, 32)] {
        let name = dataset.name();
        let wl = GcnWorkload::build(
            dataset,
            &WorkloadOptions {
                micro_batch,
                ..WorkloadOptions::default()
            },
        );
        for r in [8usize, 256] {
            let replicas = vec![r; wl.stages().len()];
            runner.bench(&format!("simulate_des/{name}-b{micro_batch}-R{r}"), || {
                simulate_des(&wl, &replicas, ReplicaModel::DiscreteServers)
            });
        }
    }
    // A fig04-style DES sweep: every motivation dataset through the
    // event engine back to back (the shape of the experiment bins).
    let sweep: Vec<GcnWorkload> = Dataset::MOTIVATION
        .iter()
        .map(|&d| GcnWorkload::build(d, &WorkloadOptions::default()))
        .collect();
    runner.bench("des_sweep/motivation-R64", || {
        sweep
            .iter()
            .map(|wl| {
                let replicas = vec![64; wl.stages().len()];
                simulate_des(wl, &replicas, ReplicaModel::DiscreteServers).makespan_ns
            })
            .sum::<f64>()
    });
    runner.finish();
}
