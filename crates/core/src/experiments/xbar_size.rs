//! Crossbar-size design-space sweep (reproduction extension).
//!
//! The paper fixes 64×64 crossbars (Table II); its baseline ReGraphX
//! explores heterogeneous sizes. [`run`] re-runs the headline
//! comparison on ddi at other square sizes to show where 64×64 sits:
//! smaller arrays mean more write parallelism (more groups) but more
//! tiles to reduce over; bigger arrays amortize periphery but
//! concentrate writes. Total ReRAM capacity stays constant.

use gopim_alloc::{greedy_allocate, AllocPlan};
use gopim_graph::datasets::Dataset;
use gopim_mapping::SelectivePolicy;
use gopim_pipeline::latency::LatencyParams;
use gopim_pipeline::{simulate, GcnWorkload, MappingKind, PipelineOptions, WorkloadOptions};
use gopim_reram::spec::AcceleratorSpec;

use crate::runner::{alloc_input, Estimator};

/// One crossbar size.
#[derive(Debug, Clone, PartialEq)]
pub struct XbarRow {
    /// Rows (and columns) of each crossbar.
    pub size: usize,
    /// GoPIM's speedup over Serial.
    pub speedup: f64,
    /// GoPIM's makespan, µs.
    pub makespan_us: f64,
}

/// Runs Serial and GoPIM on ddi at each `size`×`size` crossbar, under
/// `budget` crossbars (`None` = the whole chip at that size).
pub fn run(sizes: &[usize], budget: Option<usize>) -> Vec<XbarRow> {
    // Each crossbar size is an independent end-to-end simulation.
    gopim_par::par_map(sizes, |&size| {
        let (speedup, makespan_us) = run_at_size(size, size, budget);
        XbarRow {
            size,
            speedup,
            makespan_us,
        }
    })
}

fn run_at_size(rows: usize, cols: usize, budget: Option<usize>) -> (f64, f64) {
    let mut spec = AcceleratorSpec::paper();
    // Keep total capacity constant: scale crossbars-per-PE inversely
    // with array cells.
    let cell_ratio = (rows * cols) as f64 / (64.0 * 64.0);
    spec.crossbar_rows = rows;
    spec.crossbar_cols = cols;
    spec.crossbars_per_pe = ((32.0 / cell_ratio).round() as usize).max(1);
    let total = budget.unwrap_or_else(|| spec.total_crossbars());
    let params = LatencyParams {
        spec,
        ..LatencyParams::paper()
    };

    let dataset = Dataset::Ddi;
    let profile = dataset.profile(7);
    let build = |gopim: bool| -> GcnWorkload {
        let options = WorkloadOptions {
            mapping: if gopim {
                MappingKind::Interleaved
            } else {
                MappingKind::IndexBased
            },
            selective: gopim.then(|| SelectivePolicy::adaptive(&profile)),
            params: params.clone(),
            ..WorkloadOptions::default()
        };
        GcnWorkload::build_custom(dataset.name(), &profile, &dataset.model(), &options)
    };

    let serial_wl = build(false);
    let serial_plan = AllocPlan::serial(serial_wl.stages().len());
    let serial = simulate(
        &serial_wl,
        &serial_plan.replicas,
        &PipelineOptions::serial(),
    );

    let wl = build(true);
    // The allocator's quantum, the MVM issue latency, does not depend
    // on the crossbar size, so the paper-spec input applies.
    let unused = total.saturating_sub(wl.base_crossbars());
    let plan = greedy_allocate(&alloc_input(
        &wl,
        profile.avg_degree(),
        unused,
        &Estimator::Exact,
    ));
    let gopim = simulate(&wl, &plan.replicas, &PipelineOptions::default());
    (
        serial.makespan_ns / gopim.makespan_ns,
        gopim.makespan_ns / 1e3,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_system, RunConfig};
    use crate::system::System;

    #[test]
    fn the_paper_crossbar_size_is_the_runners_gopim() {
        let config = RunConfig {
            crossbar_budget: Some(200_000),
            ..RunConfig::default()
        };
        let rows = run(&[64], config.crossbar_budget);
        let serial = run_system(Dataset::Ddi, System::Serial, &config);
        let gopim = run_system(Dataset::Ddi, System::Gopim, &config);
        assert_eq!(rows[0].speedup, serial.makespan_ns / gopim.makespan_ns);
        assert_eq!(rows[0].makespan_us, gopim.makespan_ns / 1e3);
    }
}
