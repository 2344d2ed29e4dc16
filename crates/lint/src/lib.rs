//! `gopim-lint` — the repo's determinism & hermeticity linter.
//!
//! The GoPIM reproduction's evaluation story rests on contracts no
//! compiler checks: bit-determinism across thread counts (the
//! parallel runtime's ordered-reduction rule), a bitwise zero-cost
//! inert path for telemetry and fault injection, and a strict
//! no-crates.io hermetic policy. This crate makes those contracts
//! machine-checked on every build, in the same std-only style as the
//! rest of the workspace:
//!
//! - a lossless, panic-free Rust **lexer** ([`lexer`]) so rules match
//!   real tokens, never text inside strings or comments;
//! - a declarative **rule registry** ([`rules::RULES`]) with per-file
//!   context (library vs test/bench/bin classification, `#[cfg(test)]`
//!   regions);
//! - inline `// lint:allow(<rule>): <reason>` **suppressions** with
//!   mandatory reasons;
//! - a committed **ratcheting baseline** (`lint-baseline.json`) for
//!   grandfathered findings — counts may only decrease, and any new
//!   finding fails the run;
//! - a **JSON report** mode (`GOPIM_LINT_JSON`) whose output parses
//!   with the in-repo JSON parser from `gopim-obs`.
//!
//! Run it as `gopim lint` (or `scripts/lint.sh`); see DESIGN.md §10.

#![warn(missing_docs)]

pub mod baseline;
pub mod context;
pub mod engine;
pub mod lexer;
pub mod lockgraph;
pub mod manifest;
pub mod parse;
pub mod report;
pub mod rules;
pub mod symbols;

use std::path::{Path, PathBuf};

pub use baseline::Baseline;
pub use report::Outcome;
pub use rules::Finding;

/// Name of the committed baseline file at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.json";

/// Finds the enclosing workspace root: the nearest ancestor of `start`
/// whose `Cargo.toml` declares `[workspace]`.
///
/// # Errors
///
/// Returns a message when no ancestor qualifies.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    Err(format!(
        "no workspace root above {} (looked for a Cargo.toml with [workspace])",
        start.display()
    ))
}

/// Loads the baseline committed at `root`, or an empty baseline when
/// the file does not exist.
///
/// # Errors
///
/// Returns a message when the file exists but cannot be read or
/// parsed.
pub fn load_baseline(root: &Path) -> Result<Baseline, String> {
    let path = root.join(BASELINE_FILE);
    if !path.is_file() {
        return Ok(Baseline::default());
    }
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Baseline::parse(&text)
}

/// Lints the workspace at `root` against its committed baseline.
///
/// # Errors
///
/// Returns a message on I/O failure or a malformed baseline; rule
/// findings are *not* errors — inspect [`Outcome::clean`].
pub fn lint_workspace(root: &Path) -> Result<Outcome, String> {
    let baseline = load_baseline(root)?;
    engine::lint_root(root, &baseline)
}

/// Rewrites `lint-baseline.json` at `root` from `outcome`'s findings
/// and returns the number of grandfathered `(file, rule)` pairs.
///
/// # Errors
///
/// Returns a message when the file cannot be written.
pub fn update_baseline(root: &Path, outcome: &Outcome) -> Result<usize, String> {
    let counts = baseline::count_findings(&outcome.findings);
    let path = root.join(BASELINE_FILE);
    std::fs::write(&path, Baseline::render(&counts))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(counts.len())
}

/// Shrinks `lint-baseline.json` at `root` to what `outcome` still
/// justifies: each `(file, rule)` budget drops to the actual count
/// (zeros are removed) and never grows. Returns the number of stale
/// entries pruned. Unlike [`update_baseline`], this can never
/// grandfather a new finding.
///
/// # Errors
///
/// Returns a message on an unreadable/unwritable baseline file.
pub fn prune_baseline(root: &Path, outcome: &Outcome) -> Result<usize, String> {
    let actual = baseline::count_findings(&outcome.findings);
    let old = load_baseline(root)?;
    let mut pruned = 0usize;
    let mut counts = baseline::Counts::new();
    for (key, &budget) in &old.counts {
        let kept = budget.min(actual.get(key).copied().unwrap_or(0));
        if kept < budget {
            pruned += 1;
        }
        if kept > 0 {
            counts.insert(key.clone(), kept);
        }
    }
    if pruned > 0 {
        let path = root.join(BASELINE_FILE);
        std::fs::write(&path, Baseline::render(&counts))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(pruned)
}

/// Builds the lock-acquisition graph for the workspace at `root` —
/// the static half of the concurrency-safety analyzer, exposed for
/// `gopim lint --locks`. Findings in the result have already been
/// filtered through inline suppressions.
///
/// # Errors
///
/// Returns a message on I/O failure.
pub fn lock_graph(root: &Path) -> Result<lockgraph::Analysis, String> {
    let sources = engine::lib_sources(root)?;
    Ok(lockgraph::analyze(&sources))
}
