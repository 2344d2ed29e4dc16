//! Model-sensitivity ablation (reproduction extension, not a paper
//! figure).
//!
//! The analytic latency model has three calibrated constants that the
//! paper's NeuroSim setup fixes implicitly: the per-group aggregation
//! issue cost, the per-edge streaming cost, and the per-micro-batch
//! dispatch overhead. [`run`] scales each in turn and reports the
//! headline conclusion (GoPIM's speedup over Serial and over the
//! strongest baseline) at every point, showing that the paper's
//! qualitative result does not hinge on the calibration.

use gopim_alloc::{fixed, greedy_allocate, AllocPlan};
use gopim_graph::datasets::Dataset;
use gopim_graph::DegreeProfile;
use gopim_mapping::SelectivePolicy;
use gopim_pipeline::latency::LatencyParams;
use gopim_pipeline::workload::UpdateAccounting;
use gopim_pipeline::{simulate, GcnWorkload, MappingKind, PipelineOptions, WorkloadOptions};
use gopim_reram::spec::AcceleratorSpec;

use crate::runner::{alloc_input, Estimator, RunConfig};

/// The swept latency constants, in sweep order.
pub const KNOBS: [&str; 3] = ["group_issue_ns", "edge_stream_ns", "microbatch_overhead_ns"];

/// One point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// The scaled constant, one of [`KNOBS`].
    pub knob: &'static str,
    /// Its factor over the paper calibration.
    pub factor: f64,
    /// GoPIM's speedup over Serial.
    pub vs_serial: f64,
    /// GoPIM's speedup over the strongest baseline: uniform replicas
    /// (SlimGNN-like) with intra-batch pipelining.
    pub vs_baseline: f64,
}

/// The paper calibration with `knob` scaled by `factor`.
fn scaled(knob: &str, factor: f64) -> LatencyParams {
    let mut params = LatencyParams::paper();
    let value = match knob {
        "group_issue_ns" => &mut params.group_issue_ns,
        "edge_stream_ns" => &mut params.edge_stream_ns,
        _ => &mut params.microbatch_overhead_ns,
    };
    *value *= factor;
    params
}

/// Sweeps every knob over `factors` on ddi, knob by knob.
pub fn run(config: &RunConfig, factors: &[f64]) -> Vec<AblationRow> {
    let dataset = Dataset::Ddi;
    let profile = dataset.profile(config.profile_seed);
    let total = config
        .crossbar_budget
        .unwrap_or_else(|| AcceleratorSpec::paper().total_crossbars());
    let mut rows = Vec::new();
    for knob in KNOBS {
        for &factor in factors {
            let (vs_serial, vs_baseline) =
                run_with(&scaled(knob, factor), dataset, &profile, config, total);
            rows.push(AblationRow {
                knob,
                factor,
                vs_serial,
                vs_baseline,
            });
        }
    }
    rows
}

/// GoPIM's speedups over Serial and over the uniform baseline under
/// `params`.
fn run_with(
    params: &LatencyParams,
    dataset: Dataset,
    profile: &DegreeProfile,
    config: &RunConfig,
    total: usize,
) -> (f64, f64) {
    let build = |gopim: bool| -> GcnWorkload {
        let options = WorkloadOptions {
            micro_batch: config.micro_batch,
            mapping: if gopim {
                MappingKind::Interleaved
            } else {
                MappingKind::IndexBased
            },
            selective: gopim.then(|| SelectivePolicy::adaptive(profile)),
            accounting: UpdateAccounting::Amortized,
            params: params.clone(),
            repeated_load_rows_per_edge: 0.0,
            profile_seed: config.profile_seed,
        };
        GcnWorkload::build_custom(dataset.name(), profile, &dataset.model(), &options)
    };
    let input = |wl: &GcnWorkload| {
        let unused = total.saturating_sub(wl.base_crossbars());
        alloc_input(wl, profile.avg_degree(), unused, &Estimator::Exact)
    };

    // Serial and the baseline share the index-mapped, update-all build.
    let index_wl = build(false);
    let serial_plan = AllocPlan::serial(index_wl.stages().len());
    let serial = simulate(&index_wl, &serial_plan.replicas, &PipelineOptions::serial());
    let baseline_plan = fixed::uniform(&input(&index_wl));
    let baseline = simulate(
        &index_wl,
        &baseline_plan.replicas,
        &PipelineOptions::intra_only(),
    );

    let gopim_wl = build(true);
    let gopim_plan = greedy_allocate(&input(&gopim_wl));
    let gopim = simulate(&gopim_wl, &gopim_plan.replicas, &PipelineOptions::default());
    (
        serial.makespan_ns / gopim.makespan_ns,
        baseline.makespan_ns / gopim.makespan_ns,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_system;
    use crate::system::System;

    #[test]
    fn the_paper_calibration_is_the_runners_gopim_at_every_knob() {
        let config = RunConfig {
            crossbar_budget: Some(200_000),
            ..RunConfig::default()
        };
        let rows = run(&config, &[1.0]);
        assert_eq!(rows.iter().map(|r| r.knob).collect::<Vec<_>>(), KNOBS);
        let serial = run_system(Dataset::Ddi, System::Serial, &config);
        let gopim = run_system(Dataset::Ddi, System::Gopim, &config);
        for row in &rows {
            assert_eq!(row.vs_serial, serial.makespan_ns / gopim.makespan_ns);
            assert_eq!(row.vs_baseline, rows[0].vs_baseline);
            assert!(row.vs_baseline > 1.0, "{row:?}");
        }
    }
}
