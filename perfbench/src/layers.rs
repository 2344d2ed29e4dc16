//! Per-layer metrics of the traced pass.
//!
//! Two sources, neither of which adds instrumentation to the program:
//!
//! - benchmark-timed calls into a layer's public functions (the
//!   [`Pass::timed`] / [`Pass::op`] stems such as `graph.profile`);
//! - the program's existing `gopim-obs` counters and histograms, read
//!   from the registry snapshot after the pass (`GOPIM_METRICS=1`).
//!
//! The sweep calls graph, pipeline and alloc functions inside the
//! runner, where only counters see them. So on `sim_sweep` the counts
//! (`runner.cells`, `pipeline.simulate_calls`, `pipeline.des_events`)
//! cover the whole pass, while the per-call times of those layers
//! (`graph.profile_s`, `pipeline.build_workload_s`, `alloc.allocate_s`,
//! `pipeline.simulate_s`, `pipeline.energy_s`, `pipeline.des_s`) come
//! from a fixed probe of four GoPIM cells run after the sweep: they
//! move with the cost of one call, not with the number of calls.
//!
//! The program's span collection stays off: its simulated-time tracks
//! record every stage × micro-batch interval, millions of events on
//! the largest graphs.
//!
//! A metric whose source does not exist in this build — a counter that
//! was deleted or never registered, a stem this workload never timed —
//! is reported as absent (`None`), never as a failure.

use std::collections::BTreeMap;

use gopim_obs::metrics::Snapshot;

use crate::pass::Pass;

/// Every per-layer metric, with its unit, in report order.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("graph.profile_s", "s"),
    ("graph.numeric_graph_s", "s"),
    ("pipeline.build_workload_s", "s"),
    ("pipeline.simulate_s", "s"),
    ("pipeline.simulate_calls", "count"),
    ("pipeline.energy_s", "s"),
    ("pipeline.des_s", "s"),
    ("pipeline.des_events", "count"),
    ("pipeline.des_ns_per_event", "ns"),
    ("alloc.allocate_s", "s"),
    ("runner.cells", "count"),
    ("runner.unique_frac", "fraction"),
    ("runner.run_s", "s"),
    ("runner.self_s", "s"),
    ("gcn.train_s", "s"),
    ("gcn.train_calls", "count"),
    ("gcn.epoch_ms", "ms"),
    ("gcn.aggregate_calls", "count"),
    ("gcn.aggregate_edges", "count"),
    ("linalg.matmul_calls", "count"),
    ("linalg.matmul_gflop", "gflop"),
    ("linalg.matmul_s", "s"),
    ("linalg.matmul_gflops_per_s", "gflop/s"),
    ("linalg.arena_reuse_frac", "fraction"),
    ("par.busy_s", "s"),
    ("par.idle_s", "s"),
    ("par.tasks", "count"),
    ("par.busy_frac", "fraction"),
    ("predictor.samples_s", "s"),
    ("predictor.samples", "count"),
    ("predictor.train_s", "s"),
    ("predictor.predict_s", "s"),
    ("faults.campaign_s", "s"),
    ("faults.injected", "count"),
    ("faults.retries", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_frac", "fraction"),
    ("cache.memo_hit_frac", "fraction"),
    ("cache.bytes_read", "bytes"),
    ("cache.bytes_written", "bytes"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.wait_ms_p99", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.exec_ms_p99", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.cache_served_frac", "fraction"),
    ("serve.busy_rejections", "count"),
    ("serve.frames_rejected", "count"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_frac", "fraction"),
];

/// The probe stems a runner cell is made of; `runner.self_s` is the
/// probe's `run_system` time minus these.
const CELL_STEMS: [&str; 5] = [
    "graph.profile",
    "pipeline.build_workload",
    "alloc.allocate",
    "pipeline.simulate",
    "pipeline.energy",
];

/// Ratio that reads 0 (not NaN) when nothing was counted.
fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Reads one registry counter, `None` when it is not registered.
pub fn counter(name: &str) -> Option<u64> {
    gopim_obs::metrics::global()
        .snapshot()
        .counters
        .get(name)
        .copied()
}

struct Sources<'a> {
    pass: &'a Pass,
    metrics: &'a Snapshot,
    /// Values a workload computed itself (e.g. the client-side serve
    /// latency the overhead metric subtracts from).
    provided: &'a BTreeMap<&'static str, f64>,
}

impl Sources<'_> {
    fn counter(&self, name: &str) -> Option<f64> {
        self.metrics.counters.get(name).map(|&v| v as f64)
    }

    /// Values of counters that exist (missing ones read 0); `None` when
    /// none of them do.
    fn counters(&self, names: &[&str]) -> Option<Vec<f64>> {
        let vals: Vec<Option<f64>> = names.iter().map(|n| self.counter(n)).collect();
        if vals.iter().all(Option::is_none) {
            return None;
        }
        Some(vals.into_iter().map(|v| v.unwrap_or(0.0)).collect())
    }

    fn hist_ms(&self, name: &str, q: f64) -> Option<f64> {
        let h = self.metrics.histograms.get(name)?;
        (h.count > 0).then(|| h.quantile(q) / 1e6)
    }

    fn hist_sum_s(&self, name: &str) -> Option<f64> {
        self.metrics
            .histograms
            .get(name)
            .map(|h| h.sum as f64 / 1e9)
    }

    fn timed_s(&self, stem: &str) -> Option<f64> {
        self.pass.timed.get(stem).map(|t| t.seconds)
    }

    fn timed_calls(&self, stem: &str) -> Option<f64> {
        self.pass.timed.get(stem).map(|t| t.calls as f64)
    }

    fn value(&self, name: &str) -> Option<f64> {
        match name {
            "graph.profile_s" => self.timed_s("graph.profile"),
            "graph.numeric_graph_s" => self.timed_s("graph.numeric_graph"),
            "pipeline.build_workload_s" => self.timed_s("pipeline.build_workload"),
            "pipeline.simulate_s" => self.timed_s("pipeline.simulate"),
            "pipeline.simulate_calls" => self.counter("pipeline.simulate.calls"),
            "pipeline.energy_s" => self.timed_s("pipeline.energy"),
            "pipeline.des_s" => self.timed_s("pipeline.des"),
            "pipeline.des_events" => self.counter("pipeline.des.events"),
            "pipeline.des_ns_per_event" => {
                let des_s = self.timed_s("pipeline.des")?;
                let events = self.provided.get("pipeline.des_probe_events")?;
                Some(frac(des_s * 1e9, *events))
            }
            "alloc.allocate_s" => self.timed_s("alloc.allocate"),
            // Cells the workload itself ran through the runner (the
            // probe's own `run_system` calls excluded).
            "runner.cells" => {
                let runs = self.counter("runner.system_runs")?;
                Some(runs - self.timed_calls("runner.run").unwrap_or(0.0))
            }
            "runner.unique_frac" => {
                let runs = self.counter("runner.system_runs")?;
                let cells = runs - self.timed_calls("runner.run").unwrap_or(0.0);
                let dedup = self.counter("cache.sweep_dedup").unwrap_or(0.0);
                Some(frac(cells, cells + dedup))
            }
            "runner.run_s" => self.timed_s("runner.run"),
            "runner.self_s" => {
                let run = self.timed_s("runner.run")?;
                let children: f64 = CELL_STEMS.iter().filter_map(|s| self.timed_s(s)).sum();
                Some((run - children).max(0.0))
            }
            "gcn.train_s" => self.timed_s("gcn.train"),
            "gcn.train_calls" => self.timed_calls("gcn.train"),
            "gcn.epoch_ms" => {
                let train = self.pass.timed.get("gcn.train")?;
                let epochs = self.provided.get("gcn.epochs_per_train")?;
                Some(frac(train.seconds * 1e3, train.calls as f64 * epochs))
            }
            "gcn.aggregate_calls" => self.counter("gcn.aggregate.calls"),
            "gcn.aggregate_edges" => self.counter("gcn.aggregate.edges"),
            "linalg.matmul_calls" => self.counter("linalg.matmul.calls"),
            "linalg.matmul_gflop" => self.counter("linalg.matmul.flops").map(|f| f / 1e9),
            "linalg.matmul_s" => self.hist_sum_s("linalg.matmul.ns"),
            "linalg.matmul_gflops_per_s" => {
                let gflop = self.counter("linalg.matmul.flops")? / 1e9;
                Some(frac(gflop, self.hist_sum_s("linalg.matmul.ns")?))
            }
            "linalg.arena_reuse_frac" => {
                let c = self.counters(&["linalg.arena.reuses", "linalg.arena.misses"])?;
                Some(frac(c[0], c[0] + c[1]))
            }
            "par.busy_s" => self.counter("par.worker.busy_ns").map(|ns| ns / 1e9),
            "par.idle_s" => self.counter("par.worker.idle_ns").map(|ns| ns / 1e9),
            "par.tasks" => self.counter("par.scope.tasks"),
            "par.busy_frac" => {
                let c = self.counters(&["par.worker.busy_ns", "par.worker.idle_ns"])?;
                Some(frac(c[0], c[0] + c[1]))
            }
            "predictor.samples_s" => self.timed_s("predictor.samples"),
            "predictor.samples" => self.provided.get("predictor.samples").copied(),
            "predictor.train_s" => self.timed_s("predictor.train"),
            "predictor.predict_s" => self.timed_s("predictor.predict"),
            "faults.campaign_s" => self.timed_s("faults.campaign"),
            "faults.injected" => self.counter("faults.injected"),
            "faults.retries" => self.counter("faults.retries"),
            // The run cache keeps always-on statistics of its own, so
            // these read zero (not absent) on the cold workloads.
            "cache.hits" => Some(gopim_cache::global().stats().hits as f64),
            "cache.misses" => Some(gopim_cache::global().stats().misses as f64),
            "cache.hit_frac" => {
                let s = gopim_cache::global().stats();
                Some(frac(s.hits as f64, (s.hits + s.misses) as f64))
            }
            "cache.memo_hit_frac" => {
                let c = self.counters(&["cache.memo_hits", "cache.memo_misses"])?;
                Some(frac(c[0], c[0] + c[1]))
            }
            "cache.bytes_read" => self.counter("cache.bytes_read"),
            "cache.bytes_written" => self.counter("cache.bytes_written"),
            "serve.wait_ms_p50" => self.hist_ms("serve.wait_ns", 0.50),
            "serve.wait_ms_p99" => self.hist_ms("serve.wait_ns", 0.99),
            "serve.exec_ms_p50" => self.hist_ms("serve.exec_ns", 0.50),
            "serve.exec_ms_p99" => self.hist_ms("serve.exec_ns", 0.99),
            // Both medians over the jobs the server executed (the
            // histogram skips replies served from the cache at submit).
            "serve.overhead_ms_p50" => {
                let client = self.provided.get("serve.client_ms_p50")?;
                Some(client - self.hist_ms("serve.latency_ns", 0.50)?)
            }
            "serve.cache_served_frac" => self.provided.get("serve.cache_served_frac").copied(),
            "serve.busy_rejections" => self.counter("serve.busy_rejections"),
            "serve.frames_rejected" => self.counter("serve.frames_rejected"),
            "trace.unattributed_frac" => Some(self.pass.unattributed_frac()),
            // Needs the untraced passes; run.py fills it in.
            _ => None,
        }
    }
}

/// Reads the program's metrics registry and fills `pass.layers`.
pub fn collect(pass: &mut Pass, provided: &BTreeMap<&'static str, f64>) {
    let metrics = gopim_obs::metrics::global().snapshot();
    let layers: Vec<(&'static str, &'static str, Option<f64>)> = {
        let sources = Sources {
            pass,
            metrics: &metrics,
            provided,
        };
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| (name, unit, sources.value(name)))
            .collect()
    };
    pass.layers = layers;
}
