//! End-to-end system runner: workload → allocation → schedule → energy.
//!
//! # Incremental sweeps
//!
//! Sweep-level entry points ([`run_systems`], [`run_system_cached`],
//! [`run_ablation_cached`]) consult the canonical-hash run cache
//! (`gopim-cache`) before simulating: identical request tuples within
//! one sweep are deduplicated, repeated requests across experiments hit
//! the in-process tier, and with `GOPIM_CACHE=dir` whole re-runs hit
//! the disk tier. Intermediates — degree profiles, built workloads,
//! allocator inputs — are memoized behind `Arc`s so sweep points that
//! differ only downstream share one copy. Everything is a pure
//! performance layer: a cache hit returns bytes a fresh simulation
//! would produce bitwise (pinned by `tests/cache_differential.rs`).
//! The singular [`run_system`] stays uncached so span-level tooling
//! (and the trace-determinism tests) always observe a real simulation;
//! ML-estimator runs bypass the cache entirely because a trained
//! predictor has no canonical content hash.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use gopim_alloc::{fixed, greedy_allocate, AllocInput, AllocPlan};
use gopim_cache::{CacheKey, CacheValue, CanonicalHash, CanonicalHasher, Decoder, Encoder, Memo};
use gopim_graph::datasets::Dataset;
use gopim_graph::DegreeProfile;
use gopim_mapping::SelectivePolicy;
use gopim_obs::metrics::LazyCounter;
use gopim_pipeline::energy::{energy_of_run, EnergyBreakdown};
use gopim_pipeline::latency::LatencyParams;
use gopim_pipeline::simulate_traced;
use gopim_pipeline::trace::export_spans;
use gopim_pipeline::workload::UpdateAccounting;
use gopim_pipeline::{
    simulate, GcnWorkload, MappingKind, PipelineOptions, PipelineResult, StageSpec, WorkloadOptions,
};
use gopim_predictor::TimePredictor;
use gopim_reram::spec::AcceleratorSpec;

use crate::system::{Ablation, System};

static RUNS: LazyCounter = LazyCounter::new("runner.system_runs");
static SWEEP_DEDUP: LazyCounter = LazyCounter::new("cache.sweep_dedup");

/// Each memo is bounded by the heap bytes of its entries, which span
/// three orders of magnitude: a ddi profile is 17 KB and a products
/// one 9.8 MB; a ddi or Cora workload 2.8–9.2 KB and a products one
/// 3.7 MB. The budget keeps several of the largest resident and the
/// serve layer's whole working set of ddi/Cora profiles and workloads.
static PROFILE_MEMO: Memo<DegreeProfile> = Memo::new(profile_weight);
static WORKLOAD_MEMO: Memo<GcnWorkload> = Memo::new(workload_weight);
static ALLOC_INPUT_MEMO: Memo<AllocInput> = Memo::new(alloc_input_weight);

/// A profile's weight: its `u32` degree per vertex.
fn profile_weight(profile: &DegreeProfile) -> usize {
    4 * profile.num_vertices()
}

/// A workload's weight: per stage, its `StageSpec` and one `f64`
/// write time per micro-batch.
fn workload_weight(workload: &GcnWorkload) -> usize {
    workload.stages().len() * (size_of::<StageSpec>() + 8 * workload.num_microbatches())
}

/// An allocator input's weight: the struct itself (128 B, the same
/// order as its data) and its four per-stage vectors, 32 B a stage.
fn alloc_input_weight(input: &AllocInput) -> usize {
    size_of::<AllocInput>() + input.num_stages() * (3 * size_of::<f64>() + size_of::<usize>())
}

/// Simulates the schedule, and — when span collection is on — re-runs
/// it traced and exports the schedule as one simulated Chrome-trace
/// track labeled `system/dataset`. The untraced result is always the
/// one returned, so tracing cannot perturb reported numbers.
fn simulate_and_export(
    workload: &GcnWorkload,
    replicas: &[usize],
    options: &PipelineOptions,
    label: &str,
) -> PipelineResult {
    if gopim_obs::trace_enabled() {
        let (result, events) = simulate_traced(workload, replicas, options);
        export_spans(workload, &events, label);
        return result;
    }
    simulate(workload, replicas, options)
}

/// How the allocator obtains per-stage time estimates.
#[derive(Debug, Clone, Default)]
pub enum Estimator {
    /// Exact stage times from the simulator (equivalent to the paper's
    /// profiling approach; Table VII shows the ML predictor lands
    /// within 4.3 % of this).
    #[default]
    Exact,
    /// A trained MLP Time Predictor (the paper's §V-A approach).
    Ml(TimePredictor),
}

/// Configuration shared by all experiment runs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Micro-batch size (paper default 64).
    pub micro_batch: usize,
    /// Crossbar budget; `None` = the full 16 GB chip.
    pub crossbar_budget: Option<usize>,
    /// Seed for synthetic degree profiles.
    pub profile_seed: u64,
    /// Stage-time estimator fed to the allocator.
    pub estimator: Estimator,
    /// Batches to simulate.
    pub num_batches: usize,
    /// Fraction of edges SlimGNN-like's input subgraph pruning retains.
    pub slimgnn_prune_retain: f64,
    /// ReFlip's repeated source-vertex loads per processed edge
    /// (column-major execution penalty).
    pub reflip_reload_rows_per_edge: f64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            micro_batch: 64,
            crossbar_budget: None,
            profile_seed: 7,
            estimator: Estimator::Exact,
            num_batches: 1,
            slimgnn_prune_retain: 0.75,
            reflip_reload_rows_per_edge: 0.5,
        }
    }
}

/// Result of running one system on one dataset.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// Which system ran.
    pub system_name: String,
    /// Dataset name.
    pub dataset_name: String,
    /// End-to-end execution time, ns.
    pub makespan_ns: f64,
    /// Energy breakdown, nJ.
    pub energy: EnergyBreakdown,
    /// Schedule details (per-stage busy/idle).
    pub schedule: PipelineResult,
    /// Replica counts per stage.
    pub replicas: Vec<usize>,
    /// Crossbars per replica per stage (Table VI's derivation).
    pub footprints: Vec<usize>,
    /// Stage names in order.
    pub stage_names: Vec<String>,
}

impl SystemRun {
    /// Total energy, nJ.
    pub fn energy_nj(&self) -> f64 {
        self.energy.total_nj()
    }

    /// Total crossbars occupied (base + replicas).
    pub fn total_crossbars(&self) -> usize {
        self.replicas
            .iter()
            .zip(&self.footprints)
            .map(|(&r, &x)| r * x)
            .sum()
    }
}

impl CanonicalHash for RunConfig {
    fn canonical_hash(&self, h: &mut CanonicalHasher) {
        h.write_tag("core.run_config/v1");
        h.write_usize(self.micro_batch);
        self.crossbar_budget.canonical_hash(h);
        h.write_u64(self.profile_seed);
        // The estimator hashes by variant only: `Exact` is a constant,
        // and a trained `Ml` predictor has no canonical content hash —
        // which is exactly why `run_key` refuses to cache ML runs.
        h.write_u8(match self.estimator {
            Estimator::Exact => 0,
            Estimator::Ml(_) => 1,
        });
        h.write_usize(self.num_batches);
        h.write_f64(self.slimgnn_prune_retain);
        h.write_f64(self.reflip_reload_rows_per_edge);
    }
}

impl CacheValue for SystemRun {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.system_name);
        e.put_str(&self.dataset_name);
        e.put_f64(self.makespan_ns);
        self.energy.encode(e);
        self.schedule.encode(e);
        self.replicas.encode(e);
        self.footprints.encode(e);
        self.stage_names.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Option<Self> {
        Some(SystemRun {
            system_name: d.take_str()?,
            dataset_name: d.take_str()?,
            makespan_ns: d.take_f64()?,
            energy: EnergyBreakdown::decode(d)?,
            schedule: PipelineResult::decode(d)?,
            replicas: Vec::decode(d)?,
            footprints: Vec::decode(d)?,
            stage_names: Vec::decode(d)?,
        })
    }
}

/// The profile a system runs on: SlimGNN-like's pruned input subgraph
/// (every degree scaled by the retained edge fraction), any other
/// system's borrowed as is.
fn system_profile<'a>(
    profile: &'a DegreeProfile,
    system: System,
    config: &RunConfig,
) -> Cow<'a, DegreeProfile> {
    if system != System::SlimGnnLike {
        return Cow::Borrowed(profile);
    }
    let retain = config.slimgnn_prune_retain;
    Cow::Owned(DegreeProfile::from_degrees(
        profile
            .degrees()
            .iter()
            .map(|&d| ((f64::from(d) * retain).round() as u32).max(1))
            .collect(),
    ))
}

/// Builds the workload options a system implies for a dataset profile.
fn workload_options(
    system: System,
    profile: &DegreeProfile,
    config: &RunConfig,
) -> WorkloadOptions {
    let (mapping, selective) = match system {
        System::Gopim => (
            MappingKind::Interleaved,
            Some(SelectivePolicy::adaptive(profile)),
        ),
        // SlimGNN-like prunes the input subgraph (handled by degree
        // scaling) but keeps index mapping and full updating.
        _ => (MappingKind::IndexBased, None),
    };
    WorkloadOptions {
        micro_batch: config.micro_batch,
        mapping,
        selective,
        accounting: UpdateAccounting::Amortized,
        params: LatencyParams::paper(),
        repeated_load_rows_per_edge: if system == System::ReFlip {
            config.reflip_reload_rows_per_edge
        } else {
            0.0
        },
        profile_seed: config.profile_seed,
    }
}

/// Allocator input derived from a workload and an estimator (shared
/// with the fault campaign, which reserves spares before allocating).
pub(crate) fn alloc_input(
    workload: &GcnWorkload,
    avg_degree: f64,
    budget: usize,
    estimator: &Estimator,
) -> AllocInput {
    let n_mb = workload.num_microbatches();
    // Mean write per micro-batch (the predictor's targets are
    // compute + write, without the dispatch overhead).
    let raw_writes: Vec<f64> = (0..workload.stages().len())
        .map(|i| (0..n_mb).map(|j| workload.write_ns(i, j)).sum::<f64>() / n_mb as f64)
        .collect();
    // Write + dispatch overhead: the per-micro-batch floor that
    // replicas cannot shrink.
    let mean_writes: Vec<f64> = raw_writes
        .iter()
        .map(|w| w + workload.overhead_ns())
        .collect();
    let spec = AcceleratorSpec::paper();
    let quantum = spec.mvm_latency_ns();
    let compute: Vec<f64> = match estimator {
        Estimator::Exact => workload.stages().iter().map(|s| s.compute_ns).collect(),
        Estimator::Ml(predictor) => predictor
            .predict_stage_times_ns(workload, avg_degree)
            .iter()
            .zip(&raw_writes)
            .map(|(&total, &w)| (total - w).max(quantum))
            .collect(),
    };
    AllocInput {
        quantum_ns: vec![quantum; compute.len()],
        compute_ns: compute,
        write_ns: mean_writes,
        crossbars_per_replica: workload
            .stages()
            .iter()
            .map(|s| s.crossbars_per_replica)
            .collect(),
        unused_crossbars: budget,
        num_microbatches: workload.num_microbatches(),
        max_replicas: None,
    }
}

fn allocate(system: System, input: &AllocInput, workload: &GcnWorkload) -> AllocPlan {
    let feature_class: Vec<bool> = workload
        .stages()
        .iter()
        .map(|s| s.kind.maps_features())
        .collect();
    match system {
        System::Serial => AllocPlan::serial(workload.stages().len()),
        System::SlimGnnLike => fixed::space_proportional(input),
        System::ReGraphX => fixed::regraphx_ratio(input, &feature_class),
        System::ReFlip => {
            let co_class: Vec<bool> = feature_class.iter().map(|&f| !f).collect();
            fixed::combination_only(input, &co_class)
        }
        System::GopimVanilla | System::Gopim => greedy_allocate(input),
    }
}

/// The pipeline options a system implies (hoisted out of `finish_run`
/// so cache keys can cover them without building a workload first).
fn pipeline_options_for(system: System, config: &RunConfig) -> PipelineOptions {
    if !system.pipelined() {
        PipelineOptions::serial()
    } else {
        PipelineOptions {
            intra_batch: true,
            inter_batch: system.inter_batch(),
            num_batches: config.num_batches,
        }
    }
}

/// The memoized degree profile of a dataset (shared `Arc` across every
/// sweep point requesting the same `(dataset, seed)`).
pub(crate) fn dataset_profile(dataset: Dataset, seed: u64) -> Arc<DegreeProfile> {
    let key = gopim_cache::key_of("runner.profile/v1", &(dataset, seed));
    PROFILE_MEMO.get_or_build(key, || dataset.profile(seed))
}

/// The memoized workload for `(name, profile, model, options)`; the
/// returned key canonically covers every build input, so it doubles as
/// the provenance component of downstream allocator-input keys.
fn memo_workload(
    name: &str,
    profile: &DegreeProfile,
    model: &gopim_graph::datasets::ModelConfig,
    options: &WorkloadOptions,
) -> (CacheKey, Arc<GcnWorkload>) {
    let mut h = CanonicalHasher::new();
    h.write_tag("runner.workload/v1");
    h.write_str(name);
    profile.canonical_hash(&mut h);
    model.canonical_hash(&mut h);
    options.canonical_hash(&mut h);
    let key = h.finish();
    let workload = WORKLOAD_MEMO.get_or_build(key, || {
        GcnWorkload::build_custom(name, profile, model, options)
    });
    (key, workload)
}

/// The canonical request key of one `(dataset, system, config)` run —
/// everything the result depends on, per DESIGN.md §12: the dataset
/// (profiles are pure functions of `(dataset, seed)`), the system, the
/// full run config, the latency model (hardware spec included), and
/// the derived pipeline options. `None` when the run is uncacheable
/// (ML estimator).
pub fn run_key(dataset: Dataset, system: System, config: &RunConfig) -> Option<CacheKey> {
    if !matches!(config.estimator, Estimator::Exact) {
        return None;
    }
    let mut h = CanonicalHasher::new();
    h.write_tag("runner.run_system/v1");
    dataset.canonical_hash(&mut h);
    system.canonical_hash(&mut h);
    config.canonical_hash(&mut h);
    LatencyParams::paper().canonical_hash(&mut h);
    pipeline_options_for(system, config).canonical_hash(&mut h);
    Some(h.finish())
}

/// Runs one system on one dataset end to end.
///
/// Always simulates (the cache-aware entry points are
/// [`run_system_cached`] and [`run_systems`]): span-level tooling and
/// the trace-determinism tests rely on this function emitting a real
/// `runner.run_system` span every call.
pub fn run_system(dataset: Dataset, system: System, config: &RunConfig) -> SystemRun {
    let profile = dataset_profile(dataset, config.profile_seed);
    run_system_on_profile(dataset, &profile, system, config)
}

/// [`run_system`] behind the canonical-hash run cache: a repeated
/// request — within this process or, with `GOPIM_CACHE=dir`, from an
/// earlier one — decodes the stored result instead of simulating.
/// Cached and fresh results are bitwise identical.
pub fn run_system_cached(dataset: Dataset, system: System, config: &RunConfig) -> SystemRun {
    match run_key(dataset, system, config) {
        Some(key) => {
            gopim_cache::global().get_or_compute(key, || run_system(dataset, system, config))
        }
        None => run_system(dataset, system, config),
    }
}

/// Runs several `(dataset, system)` configurations, fanning the
/// independent simulations across the `gopim-par` pool. Results come
/// back in input order and each run is bitwise identical to a
/// standalone [`run_system`] call. Identical tuples are simulated once
/// (sweep dedup), and every unique tuple consults the run cache before
/// simulating.
pub fn run_systems(configs: &[(Dataset, System)], config: &RunConfig) -> Vec<SystemRun> {
    // Dedup identical requests by canonical key; uncacheable runs
    // (`None` key) always simulate individually.
    let keys: Vec<Option<CacheKey>> = configs
        .iter()
        .map(|&(d, s)| run_key(d, s, config))
        .collect();
    if gopim_obs::manifest_enabled() {
        // Fold the sweep's canonical cell keys into one configuration
        // hash for the run manifest, so two manifests are comparable
        // at a glance: same hash ⇒ same requested work.
        let mut h = CanonicalHasher::new();
        h.write_tag("runner.sweep_manifest/v1");
        for key in keys.iter().flatten() {
            key.as_u128().canonical_hash(&mut h);
        }
        gopim_obs::manifest::record_str(
            "run.config_hash",
            format!("{:032x}", h.finish().as_u128()),
        );
        gopim_obs::manifest::record_u64("run.sweep_cells", configs.len() as u64);
    }
    let mut first_slot: BTreeMap<u128, usize> = BTreeMap::new();
    let mut unique: Vec<usize> = Vec::new();
    let mut slots: Vec<usize> = Vec::with_capacity(configs.len());
    for (i, key) in keys.iter().enumerate() {
        let slot = match key {
            Some(k) => *first_slot.entry(k.as_u128()).or_insert_with(|| {
                unique.push(i);
                unique.len() - 1
            }),
            None => {
                unique.push(i);
                unique.len() - 1
            }
        };
        slots.push(slot);
    }
    if unique.len() < configs.len() {
        SWEEP_DEDUP.add((configs.len() - unique.len()) as u64);
    }
    let runs = gopim_par::par_map(&unique, |&i| {
        run_system_cached(configs[i].0, configs[i].1, config)
    });
    slots.iter().map(|&s| runs[s].clone()).collect()
}

/// Builds the workload a system would run on a dataset (for callers
/// that want to inspect or re-simulate it, e.g. the trace/Gantt
/// example). Served from the workload memo when the same build was
/// already requested this process.
pub fn build_workload(dataset: Dataset, system: System, config: &RunConfig) -> GcnWorkload {
    let base = dataset_profile(dataset, config.profile_seed);
    let profile = system_profile(&base, system, config);
    let options = workload_options(system, &profile, config);
    let (_, workload) = memo_workload(dataset.name(), &profile, &dataset.model(), &options);
    (*workload).clone()
}

/// Replica allocation without schedule simulation — the serve layer's
/// `Allocate` job and any caller that wants the plan cheaper than a
/// full run. Returns per-stage `(replicas, crossbars_per_replica)`.
pub fn allocation_plan(
    dataset: Dataset,
    system: System,
    config: &RunConfig,
) -> (Vec<usize>, Vec<usize>) {
    let base = dataset_profile(dataset, config.profile_seed);
    let profile = system_profile(&base, system, config);
    let options = workload_options(system, &profile, config);
    let (_, workload) = memo_workload(dataset.name(), &profile, &dataset.model(), &options);
    let spec = AcceleratorSpec::paper();
    let total = config
        .crossbar_budget
        .unwrap_or_else(|| spec.total_crossbars());
    let budget = total.saturating_sub(workload.base_crossbars());
    let input = alloc_input(&workload, profile.avg_degree(), budget, &config.estimator);
    let plan = allocate(system, &input, &workload);
    let footprints = workload
        .stages()
        .iter()
        .map(|s| s.crossbars_per_replica)
        .collect();
    (plan.replicas, footprints)
}

/// Runs one system on a custom (profile, model) pair — the entry point
/// for user-supplied graphs (see the CLI's `custom` command).
pub fn run_system_custom(
    name: &str,
    profile: &DegreeProfile,
    model: &gopim_graph::datasets::ModelConfig,
    system: System,
    config: &RunConfig,
) -> SystemRun {
    let profile = system_profile(profile, system, config);
    let options = workload_options(system, &profile, config);
    let (workload_key, workload) = memo_workload(name, &profile, model, &options);
    finish_run(
        system.name(),
        &profile,
        workload_key,
        &workload,
        system,
        config,
    )
}

/// Runs one system on an explicit degree profile (used by the
/// scalability sweeps).
pub fn run_system_on_profile(
    dataset: Dataset,
    profile: &DegreeProfile,
    system: System,
    config: &RunConfig,
) -> SystemRun {
    let profile = system_profile(profile, system, config);
    let options = workload_options(system, &profile, config);
    let (workload_key, workload) =
        memo_workload(dataset.name(), &profile, &dataset.model(), &options);
    finish_run(
        system.name(),
        &profile,
        workload_key,
        &workload,
        system,
        config,
    )
}

fn finish_run(
    name: &str,
    profile: &DegreeProfile,
    workload_key: CacheKey,
    workload: &GcnWorkload,
    system: System,
    config: &RunConfig,
) -> SystemRun {
    let _span = gopim_obs::SpanGuard::enter_dyn(
        || format!("runner.run_system/{name}/{}", workload.name()),
        "span",
        &[],
    );
    RUNS.add(1);
    let spec = AcceleratorSpec::paper();
    let total = config
        .crossbar_budget
        .unwrap_or_else(|| spec.total_crossbars());
    let budget = total.saturating_sub(workload.base_crossbars());
    // With the exact estimator the allocator input is a pure function
    // of (workload, avg_degree, budget), all covered by the workload
    // key — share one Arc across every system that derives the same
    // input (Serial/ReGraphX/GoPIM-Vanilla on one dataset, for one).
    let input: Arc<AllocInput> = match config.estimator {
        Estimator::Exact => {
            let mut h = CanonicalHasher::new();
            h.write_tag("runner.alloc_input/v1");
            workload_key.as_u128().canonical_hash(&mut h);
            h.write_f64(profile.avg_degree());
            h.write_usize(budget);
            ALLOC_INPUT_MEMO.get_or_build(h.finish(), || {
                alloc_input(workload, profile.avg_degree(), budget, &config.estimator)
            })
        }
        Estimator::Ml(_) => Arc::new(alloc_input(
            workload,
            profile.avg_degree(),
            budget,
            &config.estimator,
        )),
    };
    let plan = allocate(system, &input, workload);

    let pipeline_options = pipeline_options_for(system, config);
    let schedule = simulate_and_export(
        workload,
        &plan.replicas,
        &pipeline_options,
        &format!("{name}/{}", workload.name()),
    );
    let energy = energy_of_run(
        &spec,
        workload,
        &plan.replicas,
        &schedule,
        config.num_batches,
    );
    SystemRun {
        system_name: name.to_string(),
        dataset_name: workload.name().to_string(),
        makespan_ns: schedule.makespan_ns,
        energy,
        replicas: plan.replicas,
        footprints: workload
            .stages()
            .iter()
            .map(|s| s.crossbars_per_replica)
            .collect(),
        stage_names: workload.stages().iter().map(|s| s.name()).collect(),
        schedule,
    }
}

/// The canonical request key of one ablation run; `None` when
/// uncacheable (ML estimator) or when the variant delegates to
/// [`run_system`] (those share `run_system` keys instead).
pub fn ablation_key(dataset: Dataset, variant: Ablation, config: &RunConfig) -> Option<CacheKey> {
    if !matches!(config.estimator, Estimator::Exact) {
        return None;
    }
    if matches!(variant, Ablation::Serial | Ablation::Full) {
        return None;
    }
    let mut h = CanonicalHasher::new();
    h.write_tag("runner.run_ablation/v1");
    dataset.canonical_hash(&mut h);
    variant.canonical_hash(&mut h);
    config.canonical_hash(&mut h);
    LatencyParams::paper().canonical_hash(&mut h);
    Some(h.finish())
}

/// [`run_ablation`] behind the run cache. The `Serial`/`Full` variants
/// share cache entries with the plain system sweep ([`run_system_cached`]
/// with `System::Serial`/`System::Gopim`); the pipeline-only variants
/// get their own keys.
pub fn run_ablation_cached(dataset: Dataset, variant: Ablation, config: &RunConfig) -> SystemRun {
    match variant {
        Ablation::Serial => run_system_cached(dataset, System::Serial, config),
        Ablation::Full => run_system_cached(dataset, System::Gopim, config),
        Ablation::PlusPp | Ablation::PlusIsu => match ablation_key(dataset, variant, config) {
            Some(key) => {
                gopim_cache::global().get_or_compute(key, || run_ablation(dataset, variant, config))
            }
            None => run_ablation(dataset, variant, config),
        },
    }
}

/// Runs one Fig. 14 ablation variant on a dataset.
pub fn run_ablation(dataset: Dataset, variant: Ablation, config: &RunConfig) -> SystemRun {
    let profile = dataset_profile(dataset, config.profile_seed);
    match variant {
        Ablation::Serial => run_system(dataset, System::Serial, config),
        Ablation::Full => run_system(dataset, System::Gopim, config),
        Ablation::PlusPp | Ablation::PlusIsu => {
            let options = WorkloadOptions {
                micro_batch: config.micro_batch,
                mapping: if variant == Ablation::PlusIsu {
                    MappingKind::Interleaved
                } else {
                    MappingKind::IndexBased
                },
                selective: (variant == Ablation::PlusIsu)
                    .then(|| SelectivePolicy::adaptive(&profile)),
                accounting: UpdateAccounting::Amortized,
                params: LatencyParams::paper(),
                repeated_load_rows_per_edge: 0.0,
                profile_seed: config.profile_seed,
            };
            let (_, workload) = memo_workload(dataset.name(), &profile, &dataset.model(), &options);
            // Pipelining without replicas: force a serial plan.
            let spec = AcceleratorSpec::paper();
            let plan = AllocPlan::serial(workload.stages().len());
            let pipeline_options = PipelineOptions {
                intra_batch: true,
                inter_batch: true,
                num_batches: config.num_batches,
            };
            let schedule = simulate_and_export(
                &workload,
                &plan.replicas,
                &pipeline_options,
                &format!("{}/{}", variant.name(), workload.name()),
            );
            let energy = energy_of_run(
                &spec,
                &workload,
                &plan.replicas,
                &schedule,
                config.num_batches,
            );
            SystemRun {
                system_name: variant.name().to_string(),
                dataset_name: workload.name().to_string(),
                makespan_ns: schedule.makespan_ns,
                energy,
                replicas: plan.replicas,
                footprints: workload
                    .stages()
                    .iter()
                    .map(|s| s.crossbars_per_replica)
                    .collect(),
                stage_names: workload.stages().iter().map(|s| s.name()).collect(),
                schedule,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> RunConfig {
        RunConfig {
            // A reduced chip keeps the allocator fast in tests while
            // preserving every qualitative relationship.
            crossbar_budget: Some(300_000),
            ..RunConfig::default()
        }
    }

    #[test]
    fn gopim_beats_every_baseline_on_ddi() {
        let config = quick_config();
        let runs: Vec<SystemRun> = System::ALL
            .iter()
            .map(|&s| run_system(Dataset::Ddi, s, &config))
            .collect();
        let serial = runs[0].makespan_ns;
        let gopim = runs[5].makespan_ns;
        for run in &runs[..5] {
            assert!(
                gopim < run.makespan_ns,
                "GoPIM {} vs {} {}",
                gopim,
                run.system_name,
                run.makespan_ns
            );
        }
        assert!(serial / gopim > 50.0, "speedup {}", serial / gopim);
    }

    #[test]
    fn gopim_beats_vanilla_via_isu() {
        let config = quick_config();
        let vanilla = run_system(Dataset::Ddi, System::GopimVanilla, &config);
        let gopim = run_system(Dataset::Ddi, System::Gopim, &config);
        assert!(gopim.makespan_ns < vanilla.makespan_ns);
    }

    #[test]
    fn energy_ordering_matches_paper_shape() {
        let config = quick_config();
        let serial = run_system(Dataset::Ddi, System::Serial, &config);
        let gopim = run_system(Dataset::Ddi, System::Gopim, &config);
        assert!(gopim.energy_nj() < serial.energy_nj());
    }

    #[test]
    fn reflip_burns_more_write_energy_than_serial_on_dense_graphs() {
        let config = quick_config();
        let serial = run_system(Dataset::Ddi, System::Serial, &config);
        let reflip = run_system(Dataset::Ddi, System::ReFlip, &config);
        assert!(reflip.energy.write_nj > serial.energy.write_nj);
    }

    #[test]
    fn ablation_is_monotone() {
        let config = quick_config();
        let times: Vec<f64> = Ablation::ALL
            .iter()
            .map(|&v| run_ablation(Dataset::Ddi, v, &config).makespan_ns)
            .collect();
        assert!(times[1] < times[0], "+PP beats Serial");
        assert!(times[2] <= times[1] * 1.001, "+ISU no slower than +PP");
        assert!(times[3] < times[2], "full GoPIM fastest");
    }

    #[test]
    fn serial_uses_single_replicas() {
        let config = quick_config();
        let run = run_system(Dataset::Ddi, System::Serial, &config);
        assert!(run.replicas.iter().all(|&r| r == 1));
        // Table VI Serial total: ours 2×(32+536+32+536) = 2272.
        assert_eq!(run.total_crossbars(), 2272);
    }

    #[test]
    fn memo_weights_count_the_dominant_heap_bytes() {
        // Fresh builds, not the process-global memos other tests fill.
        let config = quick_config();
        let profile = Dataset::Ddi.profile(config.profile_seed);
        assert_eq!(profile_weight(&profile), 17_068, "4 bytes per ddi vertex");
        let model = Dataset::Ddi.model();
        let options = workload_options(System::Gopim, &profile, &config);
        let workload = GcnWorkload::build_custom("ddi", &profile, &model, &options);
        // Counted from ddi itself, not from the workload accessors the
        // weight reads: 4 stages per layer, each holding one `f64`
        // write time per micro-batch of the 4,267 vertices.
        let stages = 4 * model.num_layers;
        let microbatches = 4_267usize.div_ceil(config.micro_batch);
        assert!(workload_weight(&workload) >= 8 * stages * microbatches);
    }

    #[test]
    fn budget_is_respected() {
        let config = quick_config();
        let run = run_system(Dataset::Ddi, System::Gopim, &config);
        assert!(run.total_crossbars() <= 300_000);
        assert!(run.total_crossbars() > 2272, "replicas granted");
    }
}
