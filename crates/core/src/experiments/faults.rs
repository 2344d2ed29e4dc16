//! Fault-injection degradation campaign (reproduction extension, not a
//! paper figure).
//!
//! Sweeps stuck-at/transient fault rates against every
//! [`MitigationPolicy`] on the GoPIM pipeline and reports graceful
//! degradation: makespan and energy relative to the fault-free run,
//! plus the accuracy cost of feature rows stranded on dead crossbars.
//! Every cell is seeded — the same [`CampaignConfig`] replays
//! bit-identically — and the rate-0.0 rows are bit-identical to the
//! fault-free reference, which is the differential guarantee
//! `tests/faults_differential.rs` locks in.

use gopim_alloc::greedy_allocate;
use gopim_faults::{FaultConfig, FaultPlan, FaultSession, MitigationPolicy, SessionConfig};
use gopim_gcn::train::{train_gcn, TrainOptions};
use gopim_graph::datasets::Dataset;
use gopim_mapping::{remap_to_spares, stranded_vertices};
use gopim_pipeline::des::{simulate_des, simulate_des_faulty, ReplicaModel};
use gopim_pipeline::energy::energy_with_extra_writes;
use gopim_pipeline::latency::LatencyParams;
use gopim_pipeline::workload::mapping_for;
use gopim_pipeline::MappingKind;
use gopim_reram::spec::AcceleratorSpec;

use gopim_cache::{CacheValue, CanonicalHash, CanonicalHasher, Decoder, Encoder};

use crate::report;
use crate::runner::{alloc_input, build_workload, Estimator, RunConfig};
use crate::system::System;

/// Knobs of one degradation campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Seed for fault plans, graph stand-ins and training.
    pub seed: u64,
    /// Stuck-at rates to sweep (fraction of each feature stage's
    /// crossbar groups struck within the horizon). `0.0` rows are the
    /// differential control and must match the fault-free reference
    /// bit for bit.
    pub fault_rates: Vec<f64>,
    /// Fraction of the leftover crossbar pool the allocator reserves
    /// as remap spares before replication.
    pub spare_fraction: f64,
    /// Transient write-failure probability per stuck rate unit
    /// (`transient_rate = stuck_rate × transient_scale`).
    pub transient_scale: f64,
    /// Micro-batch size.
    pub micro_batch: usize,
    /// Crossbar budget; `None` = the full 16 GB chip.
    pub crossbar_budget: Option<usize>,
    /// Vertices of the numeric stand-in graph used for the accuracy
    /// column.
    pub train_vertices: usize,
    /// Training epochs on the stand-in graph.
    pub epochs: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 7,
            fault_rates: vec![0.0, 0.05, 0.2],
            spare_fraction: 0.02,
            transient_scale: 0.25,
            micro_batch: 64,
            // The reduced chip of the runner tests: keeps the greedy
            // allocator fast while preserving every qualitative
            // relationship.
            crossbar_budget: Some(300_000),
            train_vertices: 240,
            epochs: 30,
        }
    }
}

impl CampaignConfig {
    /// A small configuration for tests and smoke runs.
    pub fn quick_test() -> Self {
        CampaignConfig {
            fault_rates: vec![0.0, 0.2],
            train_vertices: 160,
            epochs: 12,
            ..CampaignConfig::default()
        }
    }
}

impl CanonicalHash for CampaignConfig {
    fn canonical_hash(&self, h: &mut CanonicalHasher) {
        h.write_tag("experiments.campaign_config/v1");
        h.write_u64(self.seed);
        self.fault_rates.canonical_hash(h);
        h.write_f64(self.spare_fraction);
        h.write_f64(self.transient_scale);
        h.write_usize(self.micro_batch);
        self.crossbar_budget.canonical_hash(h);
        h.write_usize(self.train_vertices);
        h.write_usize(self.epochs);
    }
}

/// One `(policy, fault rate)` cell of the degradation table.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationRow {
    /// Mitigation policy name.
    pub policy: &'static str,
    /// Stuck-at rate of this cell.
    pub fault_rate: f64,
    /// End-to-end makespan, ns.
    pub makespan_ns: f64,
    /// Makespan relative to the fault-free run (1.0 = unchanged).
    pub makespan_vs_clean: f64,
    /// Total energy, nJ.
    pub energy_nj: f64,
    /// Energy relative to the fault-free run.
    pub energy_vs_clean: f64,
    /// Final test accuracy on the stand-in graph.
    pub accuracy: f64,
    /// Accuracy − fault-free accuracy, percentage points.
    pub accuracy_delta_pp: f64,
    /// Fault events fired.
    pub injected: u64,
    /// Dead groups remapped onto spares.
    pub remapped: u64,
    /// Transient write retries issued.
    pub retries: u64,
    /// Rows lost to unmitigated faults.
    pub dropped_rows: u64,
    /// Stand-in vertices whose feature rows froze (stranded).
    pub frozen_vertices: usize,
}

/// A full campaign: the fault-free reference plus the sweep rows.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Dataset name.
    pub dataset: String,
    /// Seed the campaign ran under.
    pub seed: u64,
    /// Spare groups the allocator reserved.
    pub spare_groups: usize,
    /// Fault-free makespan, ns.
    pub clean_makespan_ns: f64,
    /// Fault-free total energy, nJ.
    pub clean_energy_nj: f64,
    /// Fault-free stand-in accuracy.
    pub clean_accuracy: f64,
    /// One row per `(fault rate, policy)`, rates outer, policies in
    /// [`MitigationPolicy::ALL`] order.
    pub rows: Vec<DegradationRow>,
}

/// Resolves a decoded policy name back to the interned `&'static str`
/// the rows carry; an unknown name means a corrupt or foreign record
/// and fails the decode (→ cache miss).
fn interned_policy_name(name: &str) -> Option<&'static str> {
    MitigationPolicy::ALL
        .iter()
        .map(|p| p.name())
        .find(|n| *n == name)
}

impl CacheValue for DegradationRow {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(self.policy);
        e.put_f64(self.fault_rate);
        e.put_f64(self.makespan_ns);
        e.put_f64(self.makespan_vs_clean);
        e.put_f64(self.energy_nj);
        e.put_f64(self.energy_vs_clean);
        e.put_f64(self.accuracy);
        e.put_f64(self.accuracy_delta_pp);
        e.put_u64(self.injected);
        e.put_u64(self.remapped);
        e.put_u64(self.retries);
        e.put_u64(self.dropped_rows);
        e.put_usize(self.frozen_vertices);
    }
    fn decode(d: &mut Decoder<'_>) -> Option<Self> {
        Some(DegradationRow {
            policy: interned_policy_name(&d.take_str()?)?,
            fault_rate: d.take_f64()?,
            makespan_ns: d.take_f64()?,
            makespan_vs_clean: d.take_f64()?,
            energy_nj: d.take_f64()?,
            energy_vs_clean: d.take_f64()?,
            accuracy: d.take_f64()?,
            accuracy_delta_pp: d.take_f64()?,
            injected: d.take_u64()?,
            remapped: d.take_u64()?,
            retries: d.take_u64()?,
            dropped_rows: d.take_u64()?,
            frozen_vertices: d.take_usize()?,
        })
    }
}

impl CacheValue for CampaignReport {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.dataset);
        e.put_u64(self.seed);
        e.put_usize(self.spare_groups);
        e.put_f64(self.clean_makespan_ns);
        e.put_f64(self.clean_energy_nj);
        e.put_f64(self.clean_accuracy);
        self.rows.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Option<Self> {
        Some(CampaignReport {
            dataset: d.take_str()?,
            seed: d.take_u64()?,
            spare_groups: d.take_usize()?,
            clean_makespan_ns: d.take_f64()?,
            clean_energy_nj: d.take_f64()?,
            clean_accuracy: d.take_f64()?,
            rows: Vec::decode(d)?,
        })
    }
}

/// Everything one sweep cell needs besides the shared workload.
struct CellOutcome {
    makespan_ns: f64,
    energy_nj: f64,
    injected: u64,
    remapped: u64,
    retries: u64,
    dropped_rows: u64,
    frozen: usize,
}

/// Projects a stranded-vertex count from the full dataset profile onto
/// the numeric stand-in graph: the stand-in freezes the same *fraction*
/// of its vertices (ids `0..k`), so the accuracy column tracks how much
/// of the feature array went stale without needing the stand-in and the
/// profile to share vertex ids.
fn standin_frozen(stranded: usize, total_vertices: usize, train_vertices: usize) -> usize {
    if total_vertices == 0 {
        return 0;
    }
    let fraction = stranded as f64 / total_vertices as f64;
    ((fraction * train_vertices as f64).round() as usize).min(train_vertices)
}

/// Runs the degradation campaign for one dataset.
///
/// The whole report is cached under its canonical key — a campaign is
/// a pure function of `(dataset, config)` plus the latency model, and
/// replays bit-identically by contract, so a warm re-run (same process
/// or `GOPIM_CACHE` disk tier) skips simulation *and* the stand-in
/// training entirely. `tests/faults_differential.rs` pins cached ==
/// fresh bitwise.
///
/// # Panics
///
/// Panics if `config.fault_rates` is empty.
pub fn run(dataset: Dataset, config: &CampaignConfig) -> CampaignReport {
    assert!(!config.fault_rates.is_empty(), "need at least one rate");
    let mut h = CanonicalHasher::new();
    h.write_tag("experiments.fault_campaign/v1");
    dataset.canonical_hash(&mut h);
    config.canonical_hash(&mut h);
    LatencyParams::paper().canonical_hash(&mut h);
    gopim_cache::global().get_or_compute(h.finish(), || run_fresh(dataset, config))
}

fn run_fresh(dataset: Dataset, config: &CampaignConfig) -> CampaignReport {
    let run_config = RunConfig {
        micro_batch: config.micro_batch,
        crossbar_budget: config.crossbar_budget,
        profile_seed: config.seed,
        ..RunConfig::default()
    };
    let profile = dataset.profile(config.seed);
    let workload = build_workload(dataset, System::Gopim, &run_config);
    let spec = AcceleratorSpec::paper();
    let total = config
        .crossbar_budget
        .unwrap_or_else(|| spec.total_crossbars());
    let budget = total.saturating_sub(workload.base_crossbars());
    let mut input = alloc_input(&workload, profile.avg_degree(), budget, &Estimator::Exact);
    // Satellite tie-in: the allocator gives up part of its pool as
    // remap spares *before* replication, so mitigation capacity is
    // paid for in crossbars, not conjured.
    let spares = input.reserve_spares(config.spare_fraction);
    let replicas = greedy_allocate(&input).replicas;

    // Fault-free reference (the differential baseline).
    let clean = simulate_des(&workload, &replicas, ReplicaModel::DiscreteServers);
    let clean_energy =
        energy_with_extra_writes(&spec, &workload, &replicas, clean.makespan_ns, 0.0, 1).total_nj();

    // The vertex mapping shared by the feature stages: fault plans are
    // drawn over its groups, and dead groups strand its vertex lists.
    let mapping = mapping_for(&profile, MappingKind::Interleaved, spec.crossbar_rows);
    let stage_groups: Vec<usize> = workload
        .stages()
        .iter()
        .map(|s| {
            if s.kind.maps_features() {
                mapping.num_groups()
            } else {
                0
            }
        })
        .collect();
    let ns_per_row = LatencyParams::paper().row_write_ns();

    // Simulate every (rate, policy) cell; each is independent and
    // seeded, so the fan-out cannot perturb results.
    let cells: Vec<(f64, MitigationPolicy)> = config
        .fault_rates
        .iter()
        .flat_map(|&rate| MitigationPolicy::ALL.iter().map(move |&p| (rate, p)))
        .collect();
    let outcomes = gopim_par::par_map(&cells, |&(rate, policy)| {
        let plan = FaultPlan::generate(
            FaultConfig {
                seed: config.seed,
                stuck_rate: rate,
                transient_rate: rate * config.transient_scale,
                horizon_ns: clean.makespan_ns,
            },
            &stage_groups,
        );
        let mut scfg = SessionConfig::new(policy);
        scfg.ns_per_row = ns_per_row;
        scfg.remap_rows = spec.crossbar_rows;
        scfg.spare_groups = spares;
        let mut session = FaultSession::new(plan, scfg, &stage_groups);
        let result = simulate_des_faulty(
            &workload,
            &replicas,
            ReplicaModel::DiscreteServers,
            &mut session,
        );
        let stats = *session.stats();
        let energy_nj = energy_with_extra_writes(
            &spec,
            &workload,
            &replicas,
            result.makespan_ns,
            stats.extra_rows,
            1,
        )
        .total_nj();

        // Union of dead groups across the feature stages → stranded
        // feature rows → frozen stand-in vertices.
        let mut dead = vec![false; mapping.num_groups()];
        for (i, groups) in stage_groups.iter().enumerate() {
            for g in 0..*groups {
                if session.is_dead(i, g as u32) {
                    dead[g] = true;
                }
            }
        }
        let stranded = match policy {
            MitigationPolicy::Baseline | MitigationPolicy::Retry => {
                stranded_vertices(&mapping, &dead).len()
            }
            MitigationPolicy::Remap => {
                // Spares (or the index-based fallback) keep every
                // vertex writable; only total loss strands anything.
                let outcome = remap_to_spares(&mapping, &dead, spares);
                if outcome.fallback && outcome.moved_vertices == 0 {
                    mapping.num_vertices()
                } else {
                    0
                }
            }
        };
        CellOutcome {
            makespan_ns: result.makespan_ns,
            energy_nj,
            injected: stats.injected,
            remapped: stats.remapped,
            retries: stats.retries,
            dropped_rows: stats.dropped_rows,
            frozen: standin_frozen(stranded, mapping.num_vertices(), config.train_vertices),
        }
    });

    // Train once per distinct frozen-prefix size (cells share the
    // fault-free accuracy, so the campaign does not retrain per cell).
    let mut frozen_sizes: Vec<usize> = outcomes.iter().map(|o| o.frozen).collect();
    frozen_sizes.push(0); // the clean reference
    frozen_sizes.sort_unstable();
    frozen_sizes.dedup();
    let accuracies = gopim_par::par_map(&frozen_sizes, |&k| {
        let (graph, labels) = dataset.numeric_graph(config.train_vertices, config.seed);
        let options = TrainOptions {
            epochs: config.epochs,
            seed: config.seed,
            frozen_vertices: (0..k as u32).collect(),
            freeze_epoch: config.epochs / 4,
            ..TrainOptions::quick_test()
        };
        train_gcn(&graph, &labels, &options).test_accuracy
    });
    let accuracy_of = |k: usize| -> f64 {
        let idx = frozen_sizes
            .binary_search(&k)
            // lint:allow(no-panic-in-lib): frozen_sizes is the sorted dedup of exactly the k values queried below
            .expect("every frozen size was trained");
        accuracies[idx]
    };
    let clean_accuracy = accuracy_of(0);

    let rows = cells
        .iter()
        .zip(&outcomes)
        .map(|(&(rate, policy), o)| {
            let accuracy = accuracy_of(o.frozen);
            DegradationRow {
                policy: policy.name(),
                fault_rate: rate,
                makespan_ns: o.makespan_ns,
                makespan_vs_clean: o.makespan_ns / clean.makespan_ns,
                energy_nj: o.energy_nj,
                energy_vs_clean: o.energy_nj / clean_energy,
                accuracy,
                accuracy_delta_pp: (accuracy - clean_accuracy) * 100.0,
                injected: o.injected,
                remapped: o.remapped,
                retries: o.retries,
                dropped_rows: o.dropped_rows,
                frozen_vertices: o.frozen,
            }
        })
        .collect();
    CampaignReport {
        dataset: dataset.name().to_string(),
        seed: config.seed,
        spare_groups: spares,
        clean_makespan_ns: clean.makespan_ns,
        clean_energy_nj: clean_energy,
        clean_accuracy,
        rows,
    }
}

/// Formats a campaign as the degradation table the CLI and bench
/// binary print (also the golden-snapshot shape).
pub fn degradation_table(report: &CampaignReport) -> String {
    let mut out = format!(
        "fault campaign on {} (seed {}, {} spare groups)\n\
         fault-free: makespan {}, energy {:.3e} nJ, accuracy {:.3}\n",
        report.dataset,
        report.seed,
        report.spare_groups,
        report::time_ns(report.clean_makespan_ns),
        report.clean_energy_nj,
        report.clean_accuracy,
    );
    let rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.policy.to_string(),
                format!("{:.3}", r.fault_rate),
                report::time_ns(r.makespan_ns),
                format!("{:.4}x", r.makespan_vs_clean),
                format!("{:.4}x", r.energy_vs_clean),
                format!("{:.3}", r.accuracy),
                format!("{:+.2}", r.accuracy_delta_pp),
                r.injected.to_string(),
                r.remapped.to_string(),
                r.retries.to_string(),
                r.dropped_rows.to_string(),
                r.frozen_vertices.to_string(),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &[
            "policy",
            "rate",
            "makespan",
            "vs clean",
            "energy vs clean",
            "accuracy",
            "Δpp",
            "injected",
            "remapped",
            "retries",
            "dropped",
            "frozen",
        ],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_zero_rows_match_the_fault_free_reference_bitwise() {
        let report = run(Dataset::Ddi, &CampaignConfig::quick_test());
        assert_eq!(report.rows.len(), 2 * MitigationPolicy::ALL.len());
        for row in &report.rows[..MitigationPolicy::ALL.len()] {
            assert_eq!(row.fault_rate, 0.0);
            assert_eq!(
                row.makespan_ns.to_bits(),
                report.clean_makespan_ns.to_bits()
            );
            assert_eq!(row.energy_nj.to_bits(), report.clean_energy_nj.to_bits());
            assert_eq!(row.accuracy.to_bits(), report.clean_accuracy.to_bits());
            assert_eq!(row.injected, 0);
            assert_eq!(row.frozen_vertices, 0);
        }
    }

    #[test]
    fn nonzero_rates_stretch_the_makespan_and_replay_identically() {
        let config = CampaignConfig::quick_test();
        let a = run(Dataset::Ddi, &config);
        // The second run is the uncached twin, so this pins both the
        // seeded replay AND cached == fresh for whole campaigns.
        let b = run_fresh(Dataset::Ddi, &config);
        assert_eq!(a, b, "campaign must replay bit-identically");
        let faulted = &a.rows[MitigationPolicy::ALL.len()..];
        assert!(faulted.iter().any(|r| r.injected > 0));
        // Mitigation costs simulated time: retry/remap rows are
        // strictly slower than fault-free; baseline never is.
        for row in faulted {
            assert!(row.makespan_vs_clean >= 1.0, "{row:?}");
            if row.policy != "baseline" && row.retries + row.remapped > 0 {
                assert!(row.makespan_vs_clean > 1.0, "{row:?}");
            }
        }
        // Remap protects accuracy: no stranded vertices while spares
        // hold, while baseline strands every dead group's rows.
        let baseline = faulted.iter().find(|r| r.policy == "baseline").unwrap();
        let remap = faulted.iter().find(|r| r.policy == "remap").unwrap();
        assert!(baseline.frozen_vertices >= remap.frozen_vertices);
    }

    #[test]
    fn spare_reservation_is_reported() {
        let report = run(Dataset::Cora, &CampaignConfig::quick_test());
        assert!(report.spare_groups > 0, "default fraction reserves spares");
    }
}
