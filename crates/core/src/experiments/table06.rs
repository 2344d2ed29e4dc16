//! Table VI: crossbar-allocation detail on ddi — per-stage replica and
//! crossbar counts for Serial and GoPIM.

use gopim_graph::datasets::Dataset;

use crate::runner::RunConfig;

/// The allocation detail of one system on one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationDetail {
    /// System name.
    pub system: String,
    /// Stage names in order (CO1, AG1, …).
    pub stage_names: Vec<String>,
    /// Replicas per stage.
    pub replicas: Vec<usize>,
    /// Crossbars per stage (replicas × footprint).
    pub crossbars: Vec<usize>,
    /// Total crossbars.
    pub total: usize,
}

/// Runs the Table VI analysis.
pub fn run(config: &RunConfig, dataset: Dataset) -> Vec<AllocationDetail> {
    super::serial_and_gopim(dataset, std::slice::from_ref(config))
        .iter()
        .map(|r| {
            let crossbars: Vec<usize> = r
                .replicas
                .iter()
                .zip(&r.footprints)
                .map(|(&rep, &fp)| rep * fp)
                .collect();
            AllocationDetail {
                system: r.system_name.clone(),
                stage_names: r.stage_names.clone(),
                total: crossbars.iter().sum(),
                replicas: r.replicas.clone(),
                crossbars,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddi_serial_matches_table_vi_shape() {
        let config = RunConfig {
            crossbar_budget: Some(400_000),
            ..RunConfig::default()
        };
        let details = run(&config, Dataset::Ddi);
        let serial = &details[0];
        // Paper Table VI Serial: [32, 534, 32, 534, 32, 534, 32, 534],
        // total 2264; our tiling gives 536 per feature stage (2272).
        assert_eq!(serial.replicas, vec![1; 8]);
        assert_eq!(serial.crossbars, vec![32, 536, 32, 536, 32, 536, 32, 536]);
        assert!((serial.total as i64 - 2264).abs() < 16);

        let gopim = &details[1];
        // GoPIM grants far more replicas to the feature-mapped stages.
        assert!(gopim.total > 10 * serial.total);
        assert!(gopim.replicas[1] > gopim.replicas[0]);
    }
}
