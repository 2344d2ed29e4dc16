//! Run manifests: a self-describing JSON artifact per run
//! (`GOPIM_MANIFEST=<path>`) capturing the command line, the effective
//! value of every `GOPIM_*` knob, recorded fields (config hash, thread
//! count, cache stats), the metrics snapshot, and span aggregates with
//! p50/p95/p99.
//!
//! Other crates cannot be dependencies of `gopim-obs`, so they push
//! their facts *in*: scalar facts via [`record_u64`] / [`record_f64`]
//! / [`record_str`] (e.g. the runner's canonical config hash), and
//! late-bound groups via [`register_provider`] (e.g. the cache's
//! hit/miss counters, read at render time so they reflect the whole
//! run). Everything is gated on [`crate::manifest_enabled`]; when
//! `GOPIM_MANIFEST` is unset each call is one relaxed load.

use crate::lockdep::DepMutex;
use std::collections::BTreeMap;

use crate::aggregate::SpanAggregate;
use crate::export::{escape_json, parse_json, Json};
use crate::metrics::Snapshot;

/// Schema identifier stamped into (and required from) every manifest.
pub const SCHEMA: &str = "gopim.manifest/v2";

/// A recorded manifest field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned integer (counts, hashes-as-decimal, thread counts).
    U64(u64),
    /// A float (rates, ratios).
    F64(f64),
    /// A string (hex hashes, dataset names).
    Str(String),
}

impl Value {
    fn render(&self) -> String {
        match self {
            Value::U64(v) => format!("{v}"),
            Value::F64(v) if v.is_finite() => format!("{v}"),
            Value::F64(_) => "0".to_string(),
            Value::Str(s) => format!("\"{}\"", escape_json(s)),
        }
    }
}

/// A late-bound field source, called at render time.
pub type Provider = fn() -> Vec<(String, Value)>;

static FIELDS: DepMutex<BTreeMap<String, Value>> = DepMutex::new("obs::FIELDS", BTreeMap::new());
static PROVIDERS: DepMutex<Vec<Provider>> = DepMutex::new("obs::PROVIDERS", Vec::new());

fn record(key: &str, value: Value) {
    if !crate::manifest_enabled() {
        return;
    }
    FIELDS.lock().insert(key.to_string(), value);
}

/// Records an integer manifest field (last write wins).
pub fn record_u64(key: &str, value: u64) {
    record(key, Value::U64(value));
}

/// Records a float manifest field (last write wins).
pub fn record_f64(key: &str, value: f64) {
    record(key, Value::F64(value));
}

/// Records a string manifest field (last write wins).
pub fn record_str(key: &str, value: impl Into<String>) {
    record(key, Value::Str(value.into()));
}

/// Registers a field provider polled when the manifest renders —
/// for values that must reflect end-of-run state (cache statistics,
/// pool utilization). No-op when manifests are disabled.
pub fn register_provider(provider: Provider) {
    if !crate::manifest_enabled() {
        return;
    }
    PROVIDERS.lock().push(provider);
}

fn collected_fields() -> BTreeMap<String, Value> {
    let mut fields = FIELDS.lock().clone();
    let providers = PROVIDERS.lock().clone();
    for provider in providers {
        for (k, v) in provider() {
            fields.insert(k, v);
        }
    }
    fields
}

/// Renders `entries` as a JSON object, one member per line, closing at
/// `indent`; `{}` when empty.
fn object<K: AsRef<str>>(indent: &str, entries: impl Iterator<Item = (K, String)>) -> String {
    let members: Vec<String> = entries
        .map(|(k, v)| format!("\n{indent}  \"{}\": {v}", escape_json(k.as_ref())))
        .collect();
    if members.is_empty() {
        "{}".to_string()
    } else {
        format!("{{{}\n{indent}}}", members.join(","))
    }
}

/// Renders the run manifest as a JSON document.
///
/// `command` is the invoked command line (argv joined), `agg` the
/// span aggregation of the drained collector, `metrics` the global
/// registry snapshot taken at flush time.
pub fn render_manifest(command: &str, agg: &SpanAggregate, metrics: &Snapshot) -> String {
    // The effective config: every knob the program parses, with the
    // value the run used, so a manifest pins the exact configuration.
    let config = crate::env::get().effective.iter();
    let config = object(
        "  ",
        config.map(|(k, v)| (k, format!("\"{}\"", escape_json(v)))),
    );
    // Recorded fields plus provider output.
    let fields = collected_fields();
    let fields = object("  ", fields.iter().map(|(k, v)| (k, v.render())));
    // Metrics snapshot: counters and gauges verbatim, histograms as
    // derived summaries (count/sum/mean plus interpolated quantiles).
    let counters = object(
        "    ",
        metrics.counters.iter().map(|(k, v)| (k, v.to_string())),
    );
    let gauges = object(
        "    ",
        metrics.gauges.iter().map(|(k, v)| (k, v.to_string())),
    );
    let histograms = object(
        "    ",
        metrics.histograms.iter().map(|(k, h)| {
            (
                k,
                format!(
                    "{{\"count\": {}, \"sum\": {}, \"mean\": {:.3}, \
                     \"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}}}",
                    h.count,
                    h.sum,
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.quantile(0.99),
                ),
            )
        }),
    );
    let labels = object(
        "    ",
        agg.labels.iter().map(|(k, s)| {
            (
                k,
                format!(
                    "{{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \
                     \"min_ns\": {}, \"max_ns\": {}, \
                     \"p50_ns\": {:.1}, \"p95_ns\": {:.1}, \"p99_ns\": {:.1}}}",
                    s.count,
                    s.total_ns,
                    s.self_ns,
                    s.min_ns,
                    s.max_ns,
                    s.durations.quantile(0.50),
                    s.durations.quantile(0.95),
                    s.durations.quantile(0.99),
                ),
            )
        }),
    );
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"command\": \"{}\",\n  \"threads_available\": {},\n  \
         \"config\": {config},\n  \"fields\": {fields},\n  \"metrics\": {{\n    \
         \"counters\": {counters},\n    \"gauges\": {gauges},\n    \"histograms\": {histograms}\n  \
         }},\n  \"spans\": {{\n    \"events\": {},\n    \"dropped\": {},\n    \"labels\": {labels}\n  \
         }}\n}}\n",
        escape_json(command),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        agg.spans,
        agg.dropped,
    )
}

fn req_num(obj: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("{ctx}: missing numeric '{key}'"))
}

/// Validates a manifest document: parses it with the in-repo JSON
/// parser, checks the schema tag and required sections (the config
/// section must carry every knob the program parses), and verifies
/// per-label invariants (`self ≤ total`, `p50 ≤ p95 ≤ p99`). Returns
/// the number of span labels.
///
/// # Errors
///
/// Returns a description of the first structural problem.
pub fn validate_manifest(text: &str) -> Result<usize, String> {
    let doc = parse_json(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => return Err(format!("schema '{s}' is not '{SCHEMA}'")),
        None => return Err("missing schema tag".to_string()),
    }
    doc.get("command")
        .and_then(Json::as_str)
        .ok_or("missing command string")?;
    req_num(&doc, "threads_available", "manifest")?;
    for section in ["config", "fields", "metrics", "spans"] {
        if !matches!(doc.get(section), Some(Json::Obj(_))) {
            return Err(format!("missing object section '{section}'"));
        }
    }
    let config = doc.get("config").ok_or("missing config")?;
    for (knob, _) in crate::env::Env::from_vars(Vec::<(String, String)>::new()).effective {
        config
            .get(knob)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("config: missing knob '{knob}'"))?;
    }
    let metrics = doc.get("metrics").ok_or("missing metrics")?;
    for sub in ["counters", "gauges", "histograms"] {
        if !matches!(metrics.get(sub), Some(Json::Obj(_))) {
            return Err(format!("metrics: missing object '{sub}'"));
        }
    }
    let spans = doc.get("spans").ok_or("missing spans")?;
    req_num(spans, "events", "spans")?;
    req_num(spans, "dropped", "spans")?;
    let labels = match spans.get("labels") {
        Some(Json::Obj(pairs)) => pairs,
        _ => return Err("spans: missing object 'labels'".to_string()),
    };
    for (label, stats) in labels {
        let ctx = format!("label '{label}'");
        let total = req_num(stats, "total_ns", &ctx)?;
        let self_ns = req_num(stats, "self_ns", &ctx)?;
        let count = req_num(stats, "count", &ctx)?;
        req_num(stats, "min_ns", &ctx)?;
        req_num(stats, "max_ns", &ctx)?;
        let p50 = req_num(stats, "p50_ns", &ctx)?;
        let p95 = req_num(stats, "p95_ns", &ctx)?;
        let p99 = req_num(stats, "p99_ns", &ctx)?;
        if count < 1.0 {
            return Err(format!("{ctx}: zero count"));
        }
        if self_ns > total {
            return Err(format!("{ctx}: self_ns {self_ns} > total_ns {total}"));
        }
        if !(p50 <= p95 && p95 <= p99) {
            return Err(format!(
                "{ctx}: quantiles not monotone ({p50}, {p95}, {p99})"
            ));
        }
    }
    Ok(labels.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::aggregate;
    use crate::metrics::Registry;
    use crate::span::{SpanEvent, WALL_PID};

    fn sample_inputs() -> (SpanAggregate, Snapshot) {
        let ev = |name: &str, start: u64, dur: u64| SpanEvent {
            pid: WALL_PID,
            tid: 1,
            name: name.into(),
            cat: "span",
            start_ns: start,
            dur_ns: dur,
            args: Vec::new(),
        };
        let agg = aggregate(
            &[
                ev("outer", 0, 1000),
                ev("inner", 10, 200),
                ev("inner", 300, 400),
            ],
            1,
        );
        let registry = Registry::new();
        registry.counter("cache.hits").add(3);
        registry.gauge("pool.threads").set(4);
        registry.histogram("queue.wait_ns").record(128);
        (agg, registry.snapshot())
    }

    #[test]
    fn manifest_round_trips_through_the_validator() {
        let (agg, metrics) = sample_inputs();
        let text = render_manifest("gopim compare ddi", &agg, &metrics);
        let labels = validate_manifest(&text).expect("valid manifest");
        assert_eq!(labels, 2, "outer + inner:\n{text}");
        let doc = parse_json(&text).expect("parses");
        assert_eq!(
            doc.get("command").and_then(Json::as_str),
            Some("gopim compare ddi")
        );
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get("cache.hits"))
                .and_then(Json::as_num),
            Some(3.0)
        );
        let inner = doc
            .get("spans")
            .and_then(|s| s.get("labels"))
            .and_then(|l| l.get("inner"))
            .expect("inner label");
        assert_eq!(inner.get("count").and_then(Json::as_num), Some(2.0));
        assert_eq!(inner.get("total_ns").and_then(Json::as_num), Some(600.0));
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let (agg, metrics) = sample_inputs();
        let text = render_manifest("x", &agg, &metrics);
        assert!(validate_manifest("{}").is_err());
        assert!(validate_manifest(&text.replace(SCHEMA, "other/v0")).is_err());
        assert!(validate_manifest(&text.replace("\"spans\"", "\"nope\"")).is_err());
        // Every parsed knob must appear in the effective config.
        let dropped_knob = text.replace("\"GOPIM_THREADS\"", "\"GOPIM_X\"");
        assert_ne!(dropped_knob, text, "config carries GOPIM_THREADS");
        assert!(validate_manifest(&dropped_knob)
            .unwrap_err()
            .contains("GOPIM_THREADS"));
        // Corrupt an invariant: outer's self time beyond its total.
        let broken = text.replace("\"self_ns\": 400", "\"self_ns\": 999999999");
        assert_ne!(broken, text, "fixture self_ns changed?");
        assert!(validate_manifest(&broken).is_err());
    }

    #[test]
    fn empty_sections_still_validate() {
        let agg = SpanAggregate::default();
        let text = render_manifest("bare", &agg, &Snapshot::default());
        assert_eq!(validate_manifest(&text), Ok(0));
    }

    #[test]
    fn recording_is_gated_on_manifest_enablement() {
        // Off: the record is dropped before touching the map.
        crate::set_manifest_enabled(false);
        record_str("test.gated_off", "x");
        assert!(!FIELDS.lock().contains_key("test.gated_off"));
        crate::set_manifest_enabled(true);
        record_u64("test.gated_on", 7);
        record_f64("test.float", 1.5);
        let fields = collected_fields();
        assert_eq!(fields.get("test.gated_on"), Some(&Value::U64(7)));
        assert_eq!(fields.get("test.float"), Some(&Value::F64(1.5)));
        crate::set_manifest_enabled(false);
    }
}
