//! Builds the 4L-stage pipeline workload for a dataset/model pair.

use gopim_graph::datasets::{Dataset, ModelConfig};
use gopim_graph::DegreeProfile;
use gopim_mapping::{
    index_based, index_group, interleaved, interleaved_group, num_groups, SelectivePolicy,
    VertexMapping,
};
use gopim_reram::tiling;

use crate::latency::LatencyParams;
use crate::stage::{stage_order, StageKind, StageSpec};

/// Which vertex-to-crossbar mapping strategy the workload uses for its
/// feature-mapped stages (AG/GC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingKind {
    /// Vertex-index order (ReGraphX / SlimGNN baseline; the paper's
    /// "OSU" when combined with selective updating).
    IndexBased,
    /// GoPIM's degree-interleaved mapping (§VI-B).
    Interleaved,
}

/// How the selective-updating schedule is folded into write times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateAccounting {
    /// Steady-state average: an unimportant vertex contributes
    /// `1 / stale_period` of a row per epoch. Right for makespan and
    /// energy totals over many epochs.
    #[default]
    Amortized,
    /// A non-refresh epoch: only important vertices write.
    SteadyEpoch,
    /// A refresh epoch (`epoch % stale_period == 0`): every vertex
    /// writes.
    RefreshEpoch,
}

/// Options controlling workload construction.
#[derive(Debug, Clone)]
pub struct WorkloadOptions {
    /// Micro-batch size `B` (the paper defaults to 64).
    pub micro_batch: usize,
    /// Vertex mapping strategy.
    pub mapping: MappingKind,
    /// Selective-updating policy; `None` updates every vertex every
    /// epoch.
    pub selective: Option<SelectivePolicy>,
    /// How the update schedule enters the write times.
    pub accounting: UpdateAccounting,
    /// Latency model parameters.
    pub params: LatencyParams,
    /// Extra feature-row loads per processed edge, modeling ReFlip's
    /// column-major repeated source-vertex loading (0 for everything
    /// else).
    pub repeated_load_rows_per_edge: f64,
    /// Seed for the synthetic degree profile.
    pub profile_seed: u64,
}

impl Default for WorkloadOptions {
    fn default() -> Self {
        WorkloadOptions {
            micro_batch: 64,
            mapping: MappingKind::IndexBased,
            selective: None,
            accounting: UpdateAccounting::Amortized,
            params: LatencyParams::paper(),
            repeated_load_rows_per_edge: 0.0,
            profile_seed: 7,
        }
    }
}

/// A fully-specified pipeline workload: stage specs plus the per-
/// micro-batch write times that pace each feature-mapped stage.
#[derive(Debug, Clone)]
pub struct GcnWorkload {
    name: String,
    stages: Vec<StageSpec>,
    /// `write_ns[stage][micro_batch]`: ReRAM write time of that
    /// micro-batch at that stage (non-uniform under index-based
    /// mapping, where degree locality concentrates updates).
    write_ns: Vec<Vec<f64>>,
    num_microbatches: usize,
    micro_batch: usize,
    num_vertices: usize,
    overhead_ns: f64,
}

impl GcnWorkload {
    /// Builds the workload for one of the paper's datasets using its
    /// Table III statistics and Table IV model.
    pub fn build(dataset: Dataset, options: &WorkloadOptions) -> Self {
        let profile = dataset.profile(options.profile_seed);
        Self::build_custom(dataset.name(), &profile, &dataset.model(), options)
    }

    /// Builds a workload from an explicit degree profile and model
    /// (used by the scalability sweeps, e.g. Fig. 17(a)'s feature-
    /// dimension scan).
    ///
    /// # Panics
    ///
    /// Panics if the profile is empty or `micro_batch == 0`.
    pub fn build_custom(
        name: &str,
        profile: &DegreeProfile,
        model: &ModelConfig,
        options: &WorkloadOptions,
    ) -> Self {
        let n = profile.num_vertices();
        let _span = gopim_obs::span!("pipeline.build_workload", n);
        assert!(n > 0, "workload needs at least one vertex");
        assert!(options.micro_batch > 0, "micro-batch must be positive");
        let b = options.micro_batch;
        let n_mb = n.div_ceil(b);
        let spec = &options.params.spec;
        let capacity = spec.crossbar_rows;

        // Mapping + selection drive the write profile of AG/GC stages.
        // Both follow one descending-degree ranking: interleaved mapping
        // deals vertices to crossbars by rank, and the important set is
        // the top ⌈θ·n⌉ ranks. Index-based mapping that updates every
        // vertex needs no ranking at all.
        let policy = options
            .selective
            .unwrap_or_else(SelectivePolicy::update_all);
        let num_important = policy.num_important(n).min(n);
        let ranks = if options.mapping == MappingKind::Interleaved || num_important < n {
            let _span = gopim_obs::span!("pipeline.build_workload.rank", n);
            profile.degree_ranks()
        } else {
            Vec::new()
        };
        // Per-epoch write weight of each vertex: important vertices
        // refresh every epoch; the rest depend on the accounting mode.
        let stale = policy.stale_period() as f64;
        let unimportant_weight = match options.accounting {
            UpdateAccounting::Amortized => 1.0 / stale,
            UpdateAccounting::SteadyEpoch => 0.0,
            UpdateAccounting::RefreshEpoch => 1.0,
        };
        // Indexed by importance: the important set is scattered over the
        // ids, so a lookup beats a branch.
        let weights = [unimportant_weight, 1.0];
        let weight_of = |v: usize| -> f64 {
            weights[usize::from(num_important == n || (ranks[v] as usize) < num_important)]
        };

        let num_groups = num_groups(n, capacity);
        let (pacing, amortized_rows_total) = {
            let _span = gopim_obs::span!("pipeline.build_workload.pacing", n);
            match options.mapping {
                MappingKind::IndexBased => {
                    pacing_rows(n, b, num_groups, |v| index_group(v, capacity), weight_of)
                }
                MappingKind::Interleaved => pacing_rows(
                    n,
                    b,
                    num_groups,
                    |v| interleaved_group(ranks[v] as usize, num_groups),
                    weight_of,
                ),
            }
        };

        let avg_degree = profile.avg_degree();
        let total_degree = profile.total_degree() as f64; // 2E
        let edges_per_mb = total_degree / n_mb as f64;
        let groups = tiling::feature_groups(spec, n);
        let params = &options.params;

        let mut stages = Vec::new();
        let mut write_profiles: Vec<Vec<f64>> = Vec::new();
        for (index, (kind, layer)) in stage_order(model.num_layers).into_iter().enumerate() {
            let (in_dim, out_dim) = model.layer_dims(layer);
            let spec_stage = match kind {
                StageKind::Combination | StageKind::LossCalc => {
                    // Weights mapped (LC uses the transposed weights;
                    // same footprint).
                    let xbars = tiling::crossbars_for_matrix(spec, in_dim, out_dim);
                    let compute = params.combination_compute_ns(b);
                    // Weight rewrite once per batch, serial within a
                    // crossbar (≤64 rows), amortized per micro-batch.
                    let weight_write_epoch = in_dim.min(capacity) as f64 * params.row_write_ns();
                    let write = weight_write_epoch / n_mb as f64;
                    let col_tiles = out_dim.div_ceil(spec.crossbar_cols);
                    let rows_written =
                        in_dim as f64 * col_tiles as f64 * spec.differential_pairs as f64
                            / n_mb as f64;
                    write_profiles.push(vec![write; n_mb]);
                    StageSpec {
                        kind,
                        layer,
                        index,
                        mapped_rows: in_dim,
                        mapped_cols: out_dim,
                        crossbars_per_replica: xbars,
                        compute_ns: compute,
                        write_ns: write,
                        mvm_crossbar_issues: (b * xbars) as u64,
                        rows_written,
                    }
                }
                StageKind::Aggregation | StageKind::GradCompute => {
                    // Feature matrix (N × out_dim) mapped.
                    let xbars = tiling::crossbars_for_matrix(spec, n, out_dim);
                    let col_tiles = out_dim.div_ceil(spec.crossbar_cols);
                    let width = (col_tiles * spec.differential_pairs) as f64;
                    let base_compute =
                        params.aggregation_compute_ns(b, avg_degree, groups, edges_per_mb);
                    let compute = if kind == StageKind::Aggregation {
                        base_compute
                    } else {
                        params.grad_compute_ns(
                            b,
                            avg_degree,
                            groups,
                            edges_per_mb,
                            (in_dim * out_dim) as u64,
                        )
                    };
                    // Per-micro-batch writes: only AG stages program the
                    // refreshed features (the paper folds GC's rewrites
                    // into the CO/AG loading steps, §IV-B).
                    let (per_mb_write, rows_written) = if kind == StageKind::Aggregation {
                        let extra = options.repeated_load_rows_per_edge * edges_per_mb;
                        let extra_pacing = extra / groups as f64;
                        let writes: Vec<f64> = pacing
                            .iter()
                            .map(|&r| (r + extra_pacing) * params.row_write_ns())
                            .collect();
                        let rows = amortized_rows_total * width / n_mb as f64 + extra * width;
                        (writes, rows)
                    } else {
                        (vec![0.0; n_mb], 0.0)
                    };
                    let mean_write = per_mb_write.iter().sum::<f64>() / n_mb as f64;
                    write_profiles.push(per_mb_write);
                    StageSpec {
                        kind,
                        layer,
                        index,
                        mapped_rows: n,
                        mapped_cols: out_dim,
                        crossbars_per_replica: xbars,
                        compute_ns: compute,
                        write_ns: mean_write,
                        mvm_crossbar_issues: (b as f64
                            * params.expected_active_groups(avg_degree, groups)
                            * width) as u64,
                        rows_written,
                    }
                }
            };
            stages.push(spec_stage);
        }

        GcnWorkload {
            name: name.to_string(),
            stages,
            write_ns: write_profiles,
            num_microbatches: n_mb,
            micro_batch: b,
            num_vertices: n,
            overhead_ns: params.microbatch_overhead_ns,
        }
    }

    /// Per-micro-batch, per-stage scheduling overhead (dead time: the
    /// crossbars are idle during it), ns.
    pub fn overhead_ns(&self) -> f64 {
        self.overhead_ns
    }

    /// Workload name (dataset name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pipeline stages in execution order.
    pub fn stages(&self) -> &[StageSpec] {
        &self.stages
    }

    /// Write time of micro-batch `j` at stage `i`, ns.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn write_ns(&self, stage: usize, microbatch: usize) -> f64 {
        self.write_ns[stage][microbatch]
    }

    /// Number of micro-batches per batch (`⌈N / B⌉`).
    pub fn num_microbatches(&self) -> usize {
        self.num_microbatches
    }

    /// Micro-batch size `B`.
    pub fn micro_batch(&self) -> usize {
        self.micro_batch
    }

    /// Vertices in the graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Crossbars occupied by one replica of every stage (the `Serial`
    /// footprint in the paper's Table VI).
    pub fn base_crossbars(&self) -> usize {
        self.stages.iter().map(|s| s.crossbars_per_replica).sum()
    }
}

/// Per-micro-batch pacing write rows, and the weighted rows of all
/// `num_vertices` vertices. Each micro-batch of `micro_batch`
/// consecutive vertices writes the freshly-produced features of its own
/// (selected) vertices; rows on the same crossbar serialize and groups
/// run in parallel, so the pacing quantity is the *maximum* weighted rows
/// landing on one group. `group_of(v)` is vertex `v`'s crossbar group
/// and `weight_of(v)` its per-epoch write weight.
///
/// The dense per-group sums are zeroed again as each micro-batch's
/// maximum is read, from a list of the groups it touched that may
/// repeat a group (whose sum then reads 0 after the first). Every
/// group's sum accumulates in vertex order and the maximum is
/// order-free (weights are finite and non-negative), so the result is
/// bitwise the same as summing into a sorted map. The total
/// accumulates in vertex order as well.
fn pacing_rows(
    num_vertices: usize,
    micro_batch: usize,
    num_groups: usize,
    group_of: impl Fn(usize) -> usize,
    weight_of: impl Fn(usize) -> f64,
) -> (Vec<f64>, f64) {
    let mut per_group = vec![0.0f64; num_groups];
    let mut groups = Vec::with_capacity(micro_batch);
    let mut total = 0.0;
    let rows = (0..num_vertices)
        .step_by(micro_batch)
        .map(|start| {
            groups.clear();
            for v in start..(start + micro_batch).min(num_vertices) {
                let (g, w) = (group_of(v), weight_of(v));
                per_group[g] += w;
                total += w;
                // A group's vertices often come in runs (always under
                // index-based mapping): list it once per run.
                if groups.last() != Some(&g) {
                    groups.push(g);
                }
            }
            groups.iter().fold(0.0, |rows: f64, &g| {
                rows.max(std::mem::take(&mut per_group[g]))
            })
        })
        .collect();
    (rows, total)
}

/// Convenience: a [`VertexMapping`] for this dataset under the given
/// kind (used by the Fig. 6 analysis binaries).
pub fn mapping_for(profile: &DegreeProfile, kind: MappingKind, capacity: usize) -> VertexMapping {
    match kind {
        MappingKind::IndexBased => index_based(profile.num_vertices(), capacity),
        MappingKind::Interleaved => interleaved(profile, capacity),
    }
}

impl gopim_cache::CanonicalHash for MappingKind {
    fn canonical_hash(&self, h: &mut gopim_cache::CanonicalHasher) {
        h.write_u8(match self {
            MappingKind::IndexBased => 0,
            MappingKind::Interleaved => 1,
        });
    }
}

impl gopim_cache::CanonicalHash for UpdateAccounting {
    fn canonical_hash(&self, h: &mut gopim_cache::CanonicalHasher) {
        h.write_u8(match self {
            UpdateAccounting::Amortized => 0,
            UpdateAccounting::SteadyEpoch => 1,
            UpdateAccounting::RefreshEpoch => 2,
        });
    }
}

impl gopim_cache::CanonicalHash for WorkloadOptions {
    fn canonical_hash(&self, h: &mut gopim_cache::CanonicalHasher) {
        h.write_tag("pipeline.workload_options/v1");
        h.write_usize(self.micro_batch);
        self.mapping.canonical_hash(h);
        self.selective.canonical_hash(h);
        self.accounting.canonical_hash(h);
        self.params.canonical_hash(h);
        h.write_f64(self.repeated_load_rows_per_edge);
        h.write_u64(self.profile_seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_options() -> WorkloadOptions {
        WorkloadOptions::default()
    }

    #[test]
    fn ddi_has_eight_stages_matching_table_vi() {
        let wl = GcnWorkload::build(Dataset::Ddi, &small_options());
        assert_eq!(wl.stages().len(), 8);
        let names: Vec<String> = wl.stages().iter().map(StageSpec::name).collect();
        assert_eq!(
            names,
            vec!["CO1", "AG1", "CO2", "AG2", "LC2", "GC2", "LC1", "GC1"]
        );
        // Table VI Serial crossbar counts: [32, 534, 32, 534, …] — ours
        // tile to 32/536.
        assert_eq!(wl.stages()[0].crossbars_per_replica, 32);
        assert_eq!(wl.stages()[1].crossbars_per_replica, 536);
        assert_eq!(wl.stages()[5].crossbars_per_replica, 536); // GC2 maps features
    }

    #[test]
    fn aggregation_dominates_combination() {
        let wl = GcnWorkload::build(Dataset::Ddi, &small_options());
        let co = wl.stages()[0].compute_ns;
        let ag = wl.stages()[1].compute_ns;
        assert!(ag > 40.0 * co, "AG {ag} vs CO {co}");
    }

    #[test]
    fn microbatch_count_is_ceil() {
        let wl = GcnWorkload::build(Dataset::Ddi, &small_options());
        assert_eq!(wl.num_microbatches(), 4267usize.div_ceil(64));
    }

    #[test]
    fn index_mapping_full_update_pacing_is_full_group() {
        let wl = GcnWorkload::build(Dataset::Ddi, &small_options());
        // Without selective updating every micro-batch writes all 64 of
        // its rows into one group.
        let ag = 1;
        let w = wl.write_ns(ag, 0);
        let expected = 64.0 * LatencyParams::paper().row_write_ns();
        assert!((w - expected).abs() < 1e-6, "w={w} expected={expected}");
    }

    #[test]
    fn isu_reduces_pacing_writes() {
        let mut opts = small_options();
        let base = GcnWorkload::build(Dataset::Ddi, &opts);
        opts.mapping = MappingKind::Interleaved;
        opts.selective = Some(SelectivePolicy::with_theta(0.5, 20));
        let isu = GcnWorkload::build(Dataset::Ddi, &opts);
        let worst = |wl: &GcnWorkload| -> f64 {
            (0..wl.num_microbatches())
                .map(|j| wl.write_ns(1, j))
                .fold(0.0, f64::max)
        };
        assert!(
            worst(&isu) < worst(&base) / 8.0,
            "isu {} vs base {}",
            worst(&isu),
            worst(&base)
        );
    }

    #[test]
    fn osu_keeps_worst_case_pacing() {
        // Selective updating *without* interleaving: the busiest
        // micro-batch still writes a full group (paper Fig. 7).
        let mut opts = small_options();
        opts.selective = Some(SelectivePolicy::with_theta(0.5, 20));
        let osu = GcnWorkload::build(Dataset::Ddi, &opts);
        let worst = (0..osu.num_microbatches())
            .map(|j| osu.write_ns(1, j))
            .fold(0.0, f64::max);
        let full = 64.0 * LatencyParams::paper().row_write_ns();
        assert!(worst > 0.95 * full, "worst {worst} vs full {full}");
    }

    #[test]
    fn reflip_penalty_adds_writes() {
        let mut opts = small_options();
        opts.repeated_load_rows_per_edge = 0.5;
        let reflip = GcnWorkload::build(Dataset::Ddi, &opts);
        let base = GcnWorkload::build(Dataset::Ddi, &small_options());
        assert!(reflip.stages()[1].rows_written > 2.0 * base.stages()[1].rows_written);
        assert!(reflip.write_ns(1, 0) > base.write_ns(1, 0));
    }

    /// The sorted-map accumulator the dense pacing replaced.
    fn pacing_rows_reference(
        group_of: &[u32],
        micro_batch: usize,
        weight_of: impl Fn(usize) -> f64,
    ) -> Vec<f64> {
        let mut per_group = std::collections::BTreeMap::new();
        group_of
            .chunks(micro_batch)
            .enumerate()
            .map(|(j, groups)| {
                per_group.clear();
                for (v, &g) in (j * micro_batch..).zip(groups) {
                    *per_group.entry(g).or_insert(0.0) += weight_of(v);
                }
                per_group.values().cloned().fold(0.0, f64::max)
            })
            .collect()
    }

    #[test]
    fn dense_pacing_matches_a_sorted_map_reference() {
        // 1000 vertices in micro-batches of 64 leave a ragged last batch
        // of 40; SteadyEpoch gives unimportant vertices weight 0.
        let profile = gopim_graph::generate::power_law_profile(1000, 12.0, 0.8, 0.6, 3);
        let important = SelectivePolicy::with_theta(0.5, 20).important_vertices(&profile);
        for kind in [MappingKind::IndexBased, MappingKind::Interleaved] {
            let mapping = mapping_for(&profile, kind, 16);
            let mut group_of = vec![0u32; profile.num_vertices()];
            for (g, members) in mapping.groups().iter().enumerate() {
                for &v in members {
                    group_of[v as usize] = g as u32;
                }
            }
            for unimportant in [0.0, 1.0 / 20.0, 1.0] {
                let weight_of = |v: usize| if important[v] { 1.0 } else { unimportant };
                let (dense, total) = pacing_rows(
                    group_of.len(),
                    64,
                    mapping.num_groups(),
                    |v| group_of[v] as usize,
                    weight_of,
                );
                let reference = pacing_rows_reference(&group_of, 64, weight_of);
                assert_eq!(dense.len(), 16);
                let serial: f64 = (0..group_of.len()).map(weight_of).sum();
                assert_eq!(total.to_bits(), serial.to_bits());
                let bits = |rows: &[f64]| rows.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&dense), bits(&reference), "{kind:?} w={unimportant}");
            }
        }
    }

    #[test]
    fn three_layer_dataset_has_twelve_stages() {
        let wl = GcnWorkload::build(Dataset::Cora, &small_options());
        assert_eq!(wl.stages().len(), 12);
    }

    #[test]
    fn base_crossbars_sums_stage_footprints() {
        let wl = GcnWorkload::build(Dataset::Ddi, &small_options());
        let sum: usize = wl.stages().iter().map(|s| s.crossbars_per_replica).sum();
        assert_eq!(wl.base_crossbars(), sum);
    }
}
