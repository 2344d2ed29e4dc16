//! Fig. 17: scalability.
//!
//! (a) GoPIM speedup as the vertex-feature dimension grows 256→2048 —
//! speedups persist but taper because bigger replicas leave less room
//! for the ML-based allocation;
//! (b) the largest dataset (products): the paper reports 5.9× speedup
//! and 1.8× energy saving over Serial.

use gopim_graph::datasets::{Dataset, ModelConfig};
use gopim_graph::generate::power_law_profile;
use gopim_mapping::SelectivePolicy;
use gopim_pipeline::latency::LatencyParams;
use gopim_pipeline::{GcnWorkload, MappingKind, WorkloadOptions};

use crate::runner::RunConfig;
use crate::system::System;

/// One point of the feature-dimension sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DimensionRow {
    /// Vertex feature dimension.
    pub dimension: usize,
    /// GoPIM speedup over Serial.
    pub speedup: f64,
}

/// Runs the Fig. 17(a) dimension sweep on a ddi-like graph.
pub fn dimension_sweep(config: &RunConfig, dims: &[usize]) -> Vec<DimensionRow> {
    let stats = Dataset::Ddi.stats();
    let profile = power_law_profile(
        stats.num_vertices,
        stats.avg_degree,
        0.35,
        0.92,
        config.profile_seed,
    );
    dims.iter()
        .map(|&dim| {
            let model = ModelConfig {
                num_layers: 2,
                learning_rate: 0.005,
                dropout: 0.5,
                input_channels: dim,
                hidden_channels: dim,
                output_channels: dim,
            };
            let speedup = run_custom(config, &profile, &model);
            DimensionRow {
                dimension: dim,
                speedup,
            }
        })
        .collect()
}

/// Builds and runs Serial vs GoPIM on a custom (profile, model) pair,
/// returning the speedup.
fn run_custom(
    config: &RunConfig,
    profile: &gopim_graph::DegreeProfile,
    model: &ModelConfig,
) -> f64 {
    use gopim_alloc::{greedy_allocate, AllocPlan};
    use gopim_pipeline::energy::energy_of_run;
    use gopim_pipeline::{simulate, PipelineOptions};
    use gopim_reram::spec::AcceleratorSpec;

    let build = |system: System| -> GcnWorkload {
        let options = WorkloadOptions {
            micro_batch: config.micro_batch,
            mapping: if system == System::Gopim {
                MappingKind::Interleaved
            } else {
                MappingKind::IndexBased
            },
            selective: (system == System::Gopim).then(|| SelectivePolicy::adaptive(profile)),
            accounting: gopim_pipeline::workload::UpdateAccounting::Amortized,
            params: LatencyParams::paper(),
            repeated_load_rows_per_edge: 0.0,
            profile_seed: config.profile_seed,
        };
        GcnWorkload::build_custom("custom", profile, model, &options)
    };
    let spec = AcceleratorSpec::paper();
    let total = config
        .crossbar_budget
        .unwrap_or_else(|| spec.total_crossbars());

    // Serial.
    let serial_wl = build(System::Serial);
    let serial_plan = AllocPlan::serial(serial_wl.stages().len());
    let serial = simulate(
        &serial_wl,
        &serial_plan.replicas,
        &PipelineOptions::serial(),
    );

    // GoPIM.
    let wl = build(System::Gopim);
    let budget = total.saturating_sub(wl.base_crossbars());
    let n_mb = wl.num_microbatches();
    let mean_writes: Vec<f64> = (0..wl.stages().len())
        .map(|i| (0..n_mb).map(|j| wl.write_ns(i, j)).sum::<f64>() / n_mb as f64 + wl.overhead_ns())
        .collect();
    let input = gopim_alloc::AllocInput {
        compute_ns: wl.stages().iter().map(|s| s.compute_ns).collect(),
        write_ns: mean_writes,
        quantum_ns: vec![spec.mvm_latency_ns(); wl.stages().len()],
        crossbars_per_replica: wl
            .stages()
            .iter()
            .map(|s| s.crossbars_per_replica)
            .collect(),
        unused_crossbars: budget,
        num_microbatches: n_mb,
        max_replicas: None,
    };
    let plan = greedy_allocate(&input);
    let gopim = simulate(&wl, &plan.replicas, &PipelineOptions::default());
    let _ = energy_of_run(&spec, &wl, &plan.replicas, &gopim, 1);
    serial.makespan_ns / gopim.makespan_ns
}

/// One point of the chip-budget sweep (extension of §VII-F's remedy:
/// "it can be addressed by augmenting the crossbar resources").
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    /// Crossbar budget in multiples of the paper's 16 GB chip.
    pub chips: f64,
    /// GoPIM speedup over Serial at that budget.
    pub speedup: f64,
}

/// Sweeps the crossbar budget on a dataset: more chips ⇒ more replica
/// room ⇒ the big-graph speedup recovers.
pub fn budget_sweep(config: &RunConfig, dataset: Dataset, chips: &[f64]) -> Vec<BudgetRow> {
    use gopim_reram::spec::AcceleratorSpec;
    let one_chip = AcceleratorSpec::paper().total_crossbars();
    // One sweep: every budget point runs on one profile of the
    // dataset, built once even with the memos off.
    let configs: Vec<RunConfig> = chips
        .iter()
        .map(|&c| RunConfig {
            crossbar_budget: Some((c * one_chip as f64) as usize),
            ..config.clone()
        })
        .collect();
    super::serial_and_gopim(dataset, &configs)
        .chunks_exact(2)
        .zip(chips)
        .map(|(pair, &c)| BudgetRow {
            chips: c,
            speedup: pair[0].makespan_ns / pair[1].makespan_ns,
        })
        .collect()
}

/// Fig. 17(b): the products run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductsRow {
    /// System name.
    pub system: String,
    /// Speedup over Serial.
    pub speedup: f64,
    /// Energy saving over Serial.
    pub energy_saving: f64,
}

/// Runs Serial vs GoPIM on the full-size products dataset.
pub fn products_run(config: &RunConfig) -> Vec<ProductsRow> {
    // Both systems run in turn on one products profile, built once
    // even with the memos off; a warm re-run (disk tier) serves both
    // cells and builds no profile at all.
    let runs = super::serial_and_gopim(Dataset::Products, std::slice::from_ref(config));
    let (serial, gopim) = (&runs[0], &runs[1]);
    vec![
        ProductsRow {
            system: "Serial".into(),
            speedup: 1.0,
            energy_saving: 1.0,
        },
        ProductsRow {
            system: "GoPIM".into(),
            speedup: serial.makespan_ns / gopim.makespan_ns,
            energy_saving: serial.energy_nj() / gopim.energy_nj(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedups_taper_as_dimensions_grow() {
        let config = RunConfig {
            crossbar_budget: Some(400_000),
            ..RunConfig::default()
        };
        let rows = dimension_sweep(&config, &[256, 1024]);
        assert!(rows.iter().all(|r| r.speedup > 1.0), "{rows:?}");
        assert!(rows[1].speedup < rows[0].speedup, "tapering: {rows:?}");
    }
}
