//! Fault-injection degradation campaign (reproduction extension, not a
//! paper figure).
//!
//! Sweeps stuck-at/transient fault rates against the three mitigation
//! policies on the GoPIM pipeline and prints the degradation table:
//! makespan, energy and stand-in accuracy relative to the fault-free
//! run. Seeded end to end — the same arguments replay bit-identically.
//!
//! Extra arguments on top of the shared `--quick` / `--budget`:
//!
//! - `<dataset>` — positional dataset name (default ddi);
//! - `--json <path>` — append one JSON line per table row;
//! - `--validate <path>` — parse a previously emitted JSON file —
//!   campaign JSON-lines or a `GOPIM_LINT_JSON` linter report —
//!   check its schema, and exit (no simulation).
//!
//! The fault knobs are the same as `gopim faults`'s
//! (`GOPIM_FAULT_SEED`, `GOPIM_FAULT_RATES`), read by the same
//! [`campaign_config`]. A malformed knob or argument exits 2 with the
//! message, as `gopim` does.

use gopim::cli::{campaign_config, parse_dataset};
use gopim::experiments::faults::{degradation_table, run, CampaignReport};
use gopim_bench::{banner, BenchArgs};
use gopim_graph::datasets::Dataset;

fn json_line(report: &CampaignReport, row_index: usize) -> String {
    let r = &report.rows[row_index];
    format!(
        "{{\"id\":\"faults/{}/{}/{:.3}\",\"makespan_ns\":{},\"energy_nj\":{},\
         \"accuracy\":{},\"injected\":{},\"remapped\":{},\"retries\":{},\
         \"dropped_rows\":{},\"frozen\":{}}}",
        report.dataset,
        r.policy,
        r.fault_rate,
        r.makespan_ns,
        r.energy_nj,
        r.accuracy,
        r.injected,
        r.remapped,
        r.retries,
        r.dropped_rows,
        r.frozen_vertices,
    )
}

/// Validates an emitted JSON file with the in-repo parser. Two shapes
/// are accepted: a `GOPIM_LINT_JSON` linter report (one document with
/// a `findings` array) and the campaign's own JSON-lines output, where
/// every line must be an object with a string `id` and the numeric
/// degradation fields. Returns the record count and a label for it.
fn validate(path: &str) -> Result<(usize, &'static str), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    if let Ok(doc) = gopim_obs::export::parse_json(&text) {
        if doc.get("findings").is_some() {
            return validate_lint_report(path, &doc).map(|n| (n, "lint findings"));
        }
    }
    let mut checked = 0;
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value =
            gopim_obs::export::parse_json(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        value
            .get("id")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("{path}:{}: missing string 'id'", n + 1))?;
        for key in [
            "makespan_ns",
            "energy_nj",
            "accuracy",
            "injected",
            "remapped",
            "retries",
            "dropped_rows",
            "frozen",
        ] {
            value
                .get(key)
                .and_then(|v| v.as_num())
                .ok_or_else(|| format!("{path}:{}: missing numeric '{key}'", n + 1))?;
        }
        checked += 1;
    }
    if checked == 0 {
        return Err(format!("'{path}' holds no campaign records"));
    }
    Ok((checked, "campaign records"))
}

/// Schema check for a `gopim lint` JSON report: numeric summary
/// fields, a non-empty `rules` array, and `file`/`line`/`rule`/
/// `message` on every finding.
fn validate_lint_report(path: &str, doc: &gopim_obs::export::Json) -> Result<usize, String> {
    for key in [
        "version",
        "files_scanned",
        "suppressed",
        "baseline_excused",
        "new_findings",
    ] {
        doc.get(key)
            .and_then(|v| v.as_num())
            .ok_or_else(|| format!("'{path}': missing numeric '{key}'"))?;
    }
    let rules = doc
        .get("rules")
        .and_then(|v| v.as_arr())
        .ok_or_else(|| format!("'{path}': missing 'rules' array"))?;
    if rules.is_empty() {
        return Err(format!("'{path}': empty 'rules' array"));
    }
    let findings = doc
        .get("findings")
        .and_then(|v| v.as_arr())
        .ok_or_else(|| format!("'{path}': 'findings' is not an array"))?;
    for (i, f) in findings.iter().enumerate() {
        for key in ["file", "rule", "message"] {
            f.get(key)
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("'{path}': finding {i}: missing string '{key}'"))?;
        }
        f.get("line")
            .and_then(|v| v.as_num())
            .ok_or_else(|| format!("'{path}': finding {i}: missing numeric 'line'"))?;
    }
    Ok(findings.len())
}

/// What one invocation does.
#[derive(Debug, PartialEq)]
enum Mode {
    /// Schema-check an emitted JSON file and exit.
    Validate(String),
    /// Run the campaign, optionally appending JSON lines to a file.
    Run {
        dataset: Dataset,
        json_path: Option<String>,
    },
}

/// Parses the arguments after the shared `--quick` / `--budget`.
/// `--validate` short-circuits: later arguments are not read.
fn parse_mode(rest: &[String]) -> Result<Mode, String> {
    let mut dataset = Dataset::Ddi;
    let mut json_path = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--validate" => {
                let path = it.next().ok_or("--validate expects a path")?;
                return Ok(Mode::Validate(path.clone()));
            }
            "--json" => json_path = Some(it.next().ok_or("--json expects a path")?.clone()),
            name => dataset = parse_dataset(name)?,
        }
    }
    Ok(Mode::Run { dataset, json_path })
}

/// Reports a malformed argument or knob and exits 2.
fn usage_error(msg: String) -> ! {
    gopim_obs::log_error!("faults: {msg}");
    std::process::exit(2);
}

fn main() {
    let _telemetry = gopim_bench::telemetry();
    let args = BenchArgs::from_env();
    let (dataset, json_path) = match parse_mode(&args.rest).unwrap_or_else(|e| usage_error(e)) {
        Mode::Validate(path) => match validate(&path) {
            Ok((n, kind)) => {
                println!("{path}: {n} {kind} ok");
                return;
            }
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        },
        Mode::Run { dataset, json_path } => (dataset, json_path),
    };
    let mut config = campaign_config(gopim_obs::env::get()).unwrap_or_else(|e| usage_error(e));

    banner(
        "Fault campaign (extension)",
        "Graceful degradation of the GoPIM pipeline under stuck-at and transient ReRAM\n\
         faults, per mitigation policy (baseline / retry / remap-to-spares).",
    );
    if let Some(budget) = args.run_config().crossbar_budget {
        config.crossbar_budget = Some(budget);
    }
    if args.quick {
        config.train_vertices = 160;
        config.epochs = 12;
    }

    let report = run(dataset, &config);
    println!("{}", degradation_table(&report));
    println!("Retry pays latency for transient faults; remap also re-steers dead crossbars");
    println!("to the allocator's spares, trading write time and energy for accuracy.");

    if let Some(path) = json_path {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("--json {path}: {e}"));
        for i in 0..report.rows.len() {
            writeln!(file, "{}", json_line(&report, i))
                .unwrap_or_else(|e| panic!("--json {path}: {e}"));
        }
        println!("appended {} JSON records to {path}", report.rows.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mode(args: &[&str]) -> Result<Mode, String> {
        parse_mode(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_pick_the_mode() {
        assert_eq!(
            mode(&[]),
            Ok(Mode::Run {
                dataset: Dataset::Ddi,
                json_path: None
            })
        );
        assert_eq!(
            mode(&["cora", "--json", "out.jsonl"]),
            Ok(Mode::Run {
                dataset: Dataset::Cora,
                json_path: Some("out.jsonl".into())
            })
        );
        assert_eq!(
            mode(&["--validate", "f.jsonl", "imdb"]),
            Ok(Mode::Validate("f.jsonl".into()))
        );
    }

    #[test]
    fn an_unknown_dataset_is_an_error() {
        assert!(mode(&["imdb"]).unwrap_err().contains("unknown dataset"));
    }

    #[test]
    fn json_without_a_path_is_an_error() {
        assert_eq!(
            mode(&["cora", "--json"]),
            Err("--json expects a path".into())
        );
    }

    #[test]
    fn validate_without_a_path_is_an_error() {
        assert_eq!(
            mode(&["--validate"]),
            Err("--validate expects a path".into())
        );
    }
}
