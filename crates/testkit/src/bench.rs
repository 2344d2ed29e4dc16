//! Wall-clock microbenchmark runner (the criterion replacement).
//!
//! Methodology: warm up, calibrate an iteration count so one sample
//! takes a fixed wall-clock slice, then time N samples and report the
//! **median** ns/iter with the **median absolute deviation** (MAD) as
//! the spread — both robust to scheduler noise, unlike mean ± stddev.
//!
//! Each result prints as a human-readable line and a machine-readable
//! JSON line. Environment knobs:
//!
//! - `GOPIM_BENCH_JSON=<path>` — append JSON lines to `<path>`
//!   (creating it if needed) instead of stdout, so reproduction runs
//!   can accumulate `BENCH_*.json` trajectories.
//! - `GOPIM_BENCH_SAMPLES=<n>` — sample count (default 15).
//! - `GOPIM_BENCH_FAST=1` — shrink warmup/sample budgets ~10× for
//!   smoke runs.
//! - `GOPIM_METRICS=1` — bracket each benchmark with a telemetry
//!   registry snapshot; JSON records gain a `"metrics"` object of
//!   per-iteration counter deltas (flops, edges, calls, …).
//!
//! ```no_run
//! let mut b = gopim_testkit::bench::Runner::new("allocator");
//! b.bench("greedy/100000", || 2 + 2);
//! b.finish();
//! ```

use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// One benchmark's summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// `group/name` identifier.
    pub id: String,
    /// The bench group (the runner's name), also recoverable as the
    /// prefix of `id` — carried explicitly so downstream consumers
    /// (`gopim bench-diff`) can group records without string surgery.
    pub group: String,
    /// Median time per iteration, ns.
    pub median_ns: f64,
    /// Median absolute deviation of the per-sample ns/iter values.
    pub mad_ns: f64,
    /// Fastest sample, ns/iter.
    pub min_ns: f64,
    /// Slowest sample, ns/iter.
    pub max_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample.
    pub iters_per_sample: u64,
    /// Per-iteration telemetry counter deltas (`GOPIM_METRICS=1`
    /// runs only; empty otherwise).
    pub metrics: Vec<(String, f64)>,
}

impl Summary {
    /// Renders the JSON-lines record.
    pub fn to_json(&self) -> String {
        let mut json = format!(
            "{{\"id\":\"{}\",\"group\":\"{}\",\"median_ns\":{:.3},\"mad_ns\":{:.3},\"min_ns\":{:.3},\
             \"max_ns\":{:.3},\"samples\":{},\"iters_per_sample\":{}",
            escape(&self.id),
            escape(&self.group),
            self.median_ns,
            self.mad_ns,
            self.min_ns,
            self.max_ns,
            self.samples,
            self.iters_per_sample
        );
        if !self.metrics.is_empty() {
            json.push_str(",\"metrics\":{");
            for (i, (name, per_iter)) in self.metrics.iter().enumerate() {
                if i > 0 {
                    json.push(',');
                }
                json.push_str(&format!("\"{}\":{:.3}", escape(name), per_iter));
            }
            json.push('}');
        }
        json.push('}');
        json
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Formats a nanosecond quantity with a readable unit.
pub fn human_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Collects and reports benchmarks for one group (one bench target).
pub struct Runner {
    group: String,
    samples: usize,
    warmup: Duration,
    target_sample: Duration,
    results: Vec<Summary>,
}

impl Runner {
    /// A runner with config-driven budgets (`GOPIM_BENCH_FAST`,
    /// `GOPIM_BENCH_SAMPLES`).
    pub fn new(group: &str) -> Self {
        let env = gopim_obs::env::get();
        let fast = env.bench_fast;
        let samples = env.bench_samples.unwrap_or(if fast { 7 } else { 15 });
        let (warmup_ms, sample_ms) = if fast { (10, 5) } else { (150, 50) };
        eprintln!("== bench group '{group}' ({samples} samples, median ± MAD) ==");
        Runner {
            group: group.to_string(),
            samples: samples.max(3),
            warmup: Duration::from_millis(warmup_ms),
            target_sample: Duration::from_millis(sample_ms),
            results: Vec::new(),
        }
    }

    /// Times `f`, printing the human-readable line immediately and
    /// recording the JSON record for [`Runner::finish`].
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> &Summary {
        // Warmup + calibration: run until the warmup budget elapses,
        // measuring a rough per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warmup {
            black_box(f());
            warm_iters += 1;
        }
        let est_iter_ns = (warm_start.elapsed().as_nanos() as f64 / warm_iters as f64).max(0.5);
        let iters_per_sample =
            ((self.target_sample.as_nanos() as f64 / est_iter_ns).ceil() as u64).max(1);

        // Under GOPIM_METRICS=1, bracket the timed samples with registry
        // snapshots so each record carries its per-iteration counter
        // deltas (e.g. flops or edges touched per call).
        let metrics_before =
            gopim_obs::metrics_enabled().then(|| gopim_obs::metrics::global().snapshot());
        let mut per_iter_ns: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters_per_sample {
                    black_box(f());
                }
                t.elapsed().as_nanos() as f64 / iters_per_sample as f64
            })
            .collect();
        let metrics = metrics_before
            .map(|before| {
                let total_iters = (self.samples as u64 * iters_per_sample).max(1) as f64;
                gopim_obs::metrics::global()
                    .snapshot()
                    .counter_deltas(&before)
                    .into_iter()
                    .map(|(k, d)| (k, d as f64 / total_iters))
                    .collect()
            })
            .unwrap_or_default();
        per_iter_ns.sort_by(f64::total_cmp);
        let median_ns = median_sorted(&per_iter_ns);
        let mut deviations: Vec<f64> = per_iter_ns.iter().map(|v| (v - median_ns).abs()).collect();
        deviations.sort_by(f64::total_cmp);
        let summary = Summary {
            id: format!("{}/{}", self.group, name),
            group: self.group.clone(),
            median_ns,
            mad_ns: median_sorted(&deviations),
            min_ns: per_iter_ns[0],
            // lint:allow(no-panic-in-lib): samples >= 1, so the sorted per-iteration vector is non-empty
            max_ns: *per_iter_ns.last().unwrap(),
            samples: self.samples,
            iters_per_sample,
            metrics,
        };
        eprintln!(
            "  {:<44} {:>12}/iter  ± {:<10} ({} × {} iters)",
            summary.id,
            human_ns(summary.median_ns),
            human_ns(summary.mad_ns),
            summary.samples,
            summary.iters_per_sample
        );
        self.results.push(summary);
        // lint:allow(no-panic-in-lib): the summary was pushed on the line above
        self.results.last().unwrap()
    }

    /// Emits every JSON record — appended to `GOPIM_BENCH_JSON` when
    /// set, to stdout otherwise — and returns the summaries.
    pub fn finish(self) -> Vec<Summary> {
        let lines: String = self.results.iter().map(|s| s.to_json() + "\n").collect();
        match &gopim_obs::env::get().bench_json {
            Some(path) => {
                let mut file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    // lint:allow(no-panic-in-lib): bench harness aborts loudly on an unusable GOPIM_BENCH_JSON path
                    .unwrap_or_else(|e| panic!("GOPIM_BENCH_JSON={path}: {e}"));
                file.write_all(lines.as_bytes())
                    // lint:allow(no-panic-in-lib): bench harness aborts loudly on an unusable GOPIM_BENCH_JSON path
                    .unwrap_or_else(|e| panic!("GOPIM_BENCH_JSON={path}: {e}"));
                eprintln!("  (JSON appended to {path})");
            }
            // lint:allow(no-print-in-lib): JSON records go to stdout when no GOPIM_BENCH_JSON sink is set
            None => print!("{lines}"),
        }
        self.results
    }
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_are_robust() {
        assert_eq!(median_sorted(&[1.0, 2.0, 100.0]), 2.0);
        assert_eq!(median_sorted(&[1.0, 2.0, 3.0, 100.0]), 2.5);
        assert_eq!(median_sorted(&[]), 0.0);
    }

    #[test]
    fn json_record_is_parseable_shape() {
        let s = Summary {
            id: "g/n \"q\"".into(),
            group: "g".into(),
            median_ns: 12.5,
            mad_ns: 0.5,
            min_ns: 12.0,
            max_ns: 14.0,
            samples: 15,
            iters_per_sample: 1000,
            metrics: Vec::new(),
        };
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\\\"q\\\""));
        assert!(j.contains("\"group\":\"g\""));
        assert!(j.contains("\"median_ns\":12.500"));
        // No metrics snapshot → no metrics key at all.
        assert!(!j.contains("\"metrics\""));
    }

    #[test]
    fn metrics_deltas_serialize_as_a_nested_object() {
        let s = Summary {
            id: "g/n".into(),
            group: "g".into(),
            median_ns: 1.0,
            mad_ns: 0.0,
            min_ns: 1.0,
            max_ns: 1.0,
            samples: 3,
            iters_per_sample: 10,
            metrics: vec![
                ("linalg.matmul.flops".into(), 524288.0),
                ("linalg.matmul.calls".into(), 1.0),
            ],
        };
        let j = s.to_json();
        assert!(
            j.contains(
                "\"metrics\":{\"linalg.matmul.flops\":524288.000,\"linalg.matmul.calls\":1.000}"
            ),
            "got: {j}"
        );
    }

    #[test]
    fn human_ns_picks_sane_units() {
        assert_eq!(human_ns(500.0), "500.0 ns");
        assert_eq!(human_ns(1500.0), "1.50 µs");
        assert_eq!(human_ns(2_500_000.0), "2.50 ms");
        assert_eq!(human_ns(3_000_000_000.0), "3.000 s");
    }
}
