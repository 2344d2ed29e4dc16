//! The workspace walker and per-file orchestration.
//!
//! Mirrors Cargo's target auto-discovery: the workspace root manifest
//! plus every `crates/*` member, and within each crate the `src/`,
//! `tests/`, `benches/` and `examples/` trees (the workspace root's
//! own `tests/` and `examples/` are shared integration suites and are
//! scanned too). Directory iteration is sorted, so findings come out
//! in a deterministic order on every platform — the linter holds
//! itself to the determinism contract it enforces.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use crate::baseline::{count_findings, Baseline};
use crate::context::{FileContext, FileKind};
use crate::lexer::{lex, Token, TokenKind};
use crate::lockgraph;
use crate::manifest::check_manifest;
use crate::report::Outcome;
use crate::rules::{check_tokens, known_rule, Finding, MALFORMED_SUPPRESSION};

/// Subdirectories of a crate that hold Rust targets.
const TARGET_DIRS: &[&str] = &["src", "tests", "benches", "examples"];

/// Lints everything under `root` against `baseline`.
///
/// # Errors
///
/// Returns a message on I/O failure (unreadable file or directory).
pub fn lint_root(root: &Path, baseline: &Baseline) -> Result<Outcome, String> {
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    let mut files_scanned = 0usize;

    for manifest in find_manifests(root)? {
        let text = read(&manifest)?;
        findings.extend(check_manifest(&relative(root, &manifest), &text));
        files_scanned += 1;
    }
    let mut lib_files: Vec<(String, String)> = Vec::new();
    for source in find_sources(root)? {
        let text = read(&source)?;
        let rel = relative(root, &source);
        let (mut file_findings, file_suppressed) = lint_source(&rel, &text);
        findings.append(&mut file_findings);
        suppressed += file_suppressed;
        files_scanned += 1;
        if FileKind::classify(&rel) == FileKind::Lib {
            lib_files.push((rel, text));
        }
    }

    // The concurrency pass runs over library code as a whole (the
    // lock graph spans files); its findings share the pipeline.
    let analysis = lockgraph::analyze(&lib_files);
    findings.extend(analysis.findings);
    suppressed += analysis.suppressed;

    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    let ratchet = baseline.ratchet(&count_findings(&findings));
    Ok(Outcome {
        findings,
        ratchet,
        suppressed,
        files_scanned,
    })
}

/// Lints one Rust source text. Returns the unsuppressed findings and
/// the count of findings silenced by well-formed suppressions.
pub fn lint_source(path: &str, src: &str) -> (Vec<Finding>, usize) {
    let tokens = lex(src);
    let ctx = FileContext::new(path, src, &tokens);
    let sig: Vec<Token> = tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .copied()
        .collect();
    let mut suppressed = 0usize;
    let mut findings = Vec::new();
    for finding in check_tokens(&ctx, src, &sig) {
        if ctx.suppressed(&finding.rule, finding.line) {
            suppressed += 1;
        } else {
            findings.push(finding);
        }
    }
    for s in &ctx.suppressions {
        let malformed = |message: String| Finding {
            file: path.to_string(),
            line: s.line,
            rule: MALFORMED_SUPPRESSION.to_string(),
            message,
        };
        if !s.has_reason {
            findings.push(malformed(
                "`lint:allow` needs a reason: \
                 `// lint:allow(<rule>): <why this is sound>`"
                    .to_string(),
            ));
        }
        // A misspelled or retired rule name silences nothing, so it
        // must not pass for a suppression.
        for rule in s.rules.iter().filter(|r| !known_rule(r)) {
            findings.push(malformed(format!(
                "`lint:allow` names no rule the linter has: `{rule}`"
            )));
        }
    }
    (findings, suppressed)
}

/// Every `FileKind::Lib` source under `root`, as workspace-relative
/// `(path, text)` pairs — the concurrency pass's input (used directly
/// by `gopim lint --locks`).
///
/// # Errors
///
/// Returns a message on I/O failure.
pub fn lib_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    for source in find_sources(root)? {
        let rel = relative(root, &source);
        if FileKind::classify(&rel) == FileKind::Lib {
            out.push((rel, read(&source)?));
        }
    }
    Ok(out)
}

/// Every manifest to scan: the root `Cargo.toml` plus one per crate
/// directory.
fn find_manifests(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let root_manifest = root.join("Cargo.toml");
    if root_manifest.is_file() {
        out.push(root_manifest);
    }
    for dir in crate_dirs(root)? {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            out.push(manifest);
        }
    }
    Ok(out)
}

/// Every `.rs` file to scan, sorted.
fn find_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut dirs: Vec<PathBuf> = Vec::new();
    for target in TARGET_DIRS {
        let shared = root.join(target);
        if shared.is_dir() {
            dirs.push(shared);
        }
    }
    for crate_dir in crate_dirs(root)? {
        for target in TARGET_DIRS {
            let dir = crate_dir.join(target);
            if dir.is_dir() {
                dirs.push(dir);
            }
        }
    }
    let mut files = BTreeSet::new();
    for dir in dirs {
        collect_rs(&dir, &mut files)?;
    }
    Ok(files.into_iter().collect())
}

/// The workspace's member crate directories (`crates/*`), sorted.
fn crate_dirs(root: &Path) -> Result<Vec<PathBuf>, String> {
    let crates = root.join("crates");
    if !crates.is_dir() {
        return Ok(Vec::new());
    }
    let mut dirs: Vec<PathBuf> = Vec::new();
    let entries =
        fs::read_dir(&crates).map_err(|e| format!("read dir {}: {e}", crates.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read dir {}: {e}", crates.display()))?;
        let path = entry.path();
        if path.is_dir() && path.join("Cargo.toml").is_file() {
            dirs.push(path);
        }
    }
    dirs.sort();
    Ok(dirs)
}

fn collect_rs(dir: &Path, out: &mut BTreeSet<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read dir {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.insert(path);
        }
    }
    Ok(())
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// `path` relative to `root`, `/`-separated (stable across platforms
/// for reports, suppression exemptions and the baseline).
fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppressions_silence_findings_and_count() {
        let src = "\
use std::collections::HashMap; // lint:allow(no-unordered-hash-iteration): keyed, never iterated\n\
pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let (findings, suppressed) = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(suppressed, 1);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "no-panic-in-lib");
    }

    #[test]
    fn reasonless_suppressions_are_their_own_finding() {
        let src =
            "// lint:allow(no-panic-in-lib)\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let (findings, suppressed) = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(suppressed, 0);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&MALFORMED_SUPPRESSION));
        assert!(rules.contains(&"no-panic-in-lib"));
    }

    #[test]
    fn suppressions_naming_an_unknown_rule_are_malformed() {
        let src = "// lint:allow(no-panic-in-lb, no-print-in-lib): typo\n\
                   pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let (findings, suppressed) = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(suppressed, 0);
        let found: Vec<(&str, usize)> =
            findings.iter().map(|f| (f.rule.as_str(), f.line)).collect();
        assert_eq!(
            found,
            [("no-panic-in-lib", 2), (MALFORMED_SUPPRESSION, 1)],
            "{findings:?}"
        );
        assert!(findings[1].message.contains("`no-panic-in-lb`"));
    }

    #[test]
    fn suppressing_the_wrong_rule_does_not_silence() {
        let src = "// lint:allow(no-print-in-lib): wrong rule\n\
                   pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let (findings, suppressed) = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(suppressed, 0);
        assert_eq!(findings.len(), 1);
    }
}
