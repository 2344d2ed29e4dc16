//! Fault-injection degradation campaign (reproduction extension, not a
//! paper figure).
//!
//! Sweeps stuck-at/transient fault rates against the three mitigation
//! policies on the GoPIM pipeline and prints the degradation table:
//! makespan, energy and stand-in accuracy relative to the fault-free
//! run. Seeded end to end — the same arguments replay bit-identically.
//!
//! Arguments beyond `--quick` / `--budget`:
//!
//! - `<dataset>` — dataset name (default ddi);
//! - `--json <path>` — append one JSON line per table row;
//! - `--validate <path>` — parse a previously emitted JSON file —
//!   campaign JSON-lines or a `GOPIM_LINT_JSON` linter report —
//!   check its schema, and exit (no simulation).
//!
//! `GOPIM_FAULT_SEED` and `GOPIM_FAULT_RATES` select the campaign (see
//! [`campaign_config`]); a malformed one is a usage error.

use gopim::cli::{campaign_config, parse_dataset};
use gopim::experiments::faults::{degradation_table, run, CampaignReport};
use gopim_graph::datasets::Dataset;

use super::{banner, Repro};
use crate::args::{Args, Flags};

/// The campaign's own arguments.
pub const FLAGS: Flags = Flags {
    switches: &[],
    options: &["--json", "--validate"],
    positionals: 1,
};

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

/// `--validate` wins over the campaign's other arguments, which it
/// leaves unread.
fn mode(args: &Args) -> Result<Mode, String> {
    if let Some(path) = args.value("--validate") {
        return Ok(Mode::Validate(path.to_string()));
    }
    Ok(Mode::Run {
        dataset: args.positional(0).map_or(Ok(Dataset::Ddi), parse_dataset)?,
        json_path: args.value("--json").map(str::to_string),
    })
}

/// `gopim repro faults`: runs the campaign, or validates a JSON file.
pub fn faults(args: &Repro) -> Result<(), String> {
    let (dataset, json_path) = match mode(&args.parsed)? {
        Mode::Validate(path) => match validate(&path) {
            Ok((n, kind)) => {
                println!("{path}: {n} {kind} ok");
                return Ok(());
            }
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        },
        Mode::Run { dataset, json_path } => (dataset, json_path),
    };
    let mut config = campaign_config(gopim_obs::env::get())?;

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
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::strings;

    fn mode_of(args: &[&str]) -> Result<Mode, String> {
        mode(&Args::parse(&strings(args), &[&FLAGS])?)
    }

    #[test]
    fn arguments_pick_the_mode() {
        assert_eq!(
            mode_of(&[]),
            Ok(Mode::Run {
                dataset: Dataset::Ddi,
                json_path: None
            })
        );
        assert_eq!(
            mode_of(&["cora", "--json", "out.jsonl"]),
            Ok(Mode::Run {
                dataset: Dataset::Cora,
                json_path: Some("out.jsonl".into())
            })
        );
        assert_eq!(
            mode_of(&["--validate", "f.jsonl", "imdb"]),
            Ok(Mode::Validate("f.jsonl".into()))
        );
    }

    #[test]
    fn an_unknown_dataset_is_an_error() {
        assert!(mode_of(&["imdb"]).unwrap_err().contains("unknown dataset"));
    }

    #[test]
    fn json_without_a_path_is_an_error() {
        assert_eq!(
            mode_of(&["cora", "--json"]),
            Err("--json expects a value".into())
        );
    }

    #[test]
    fn validate_without_a_path_is_an_error() {
        assert_eq!(
            mode_of(&["--validate"]),
            Err("--validate expects a value".into())
        );
    }
}
