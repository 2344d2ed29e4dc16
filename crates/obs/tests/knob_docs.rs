//! The knob documentation cannot drift from the config's name table:
//! every `GOPIM_*` token in the docs and scripts names a knob in
//! `gopim_obs::env::KNOBS`, and README's knob table has a row for
//! every knob.

use std::collections::BTreeSet;
use std::path::PathBuf;

use gopim_obs::env::KNOBS;
use gopim_testkit::workspace_root;

/// Misspellings the scripts set on purpose, to check that an unknown
/// knob warns.
const DELIBERATE_TYPOS: &[&str] = &["GOPIM_NOCACHE"];

/// Every `GOPIM_[A-Z0-9_]+` token in `text`.
fn knob_tokens(text: &str) -> BTreeSet<&str> {
    text.match_indices("GOPIM_")
        .filter_map(|(at, prefix)| {
            let tail = &text[at + prefix.len()..];
            let len = tail
                .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(tail.len());
            (len > 0).then(|| &text[at..at + prefix.len() + len])
        })
        .collect()
}

fn read(path: &PathBuf) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_documented_knob_is_in_the_name_table() {
    let root = workspace_root();
    let mut files: Vec<PathBuf> = std::fs::read_dir(root.join("scripts"))
        .expect("scripts/")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "sh"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no scripts/*.sh found");
    for doc in ["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"] {
        files.push(root.join(doc));
    }
    let mut unknown = Vec::new();
    for file in &files {
        let text = read(file);
        for token in knob_tokens(&text) {
            if !KNOBS.contains(&token) && !DELIBERATE_TYPOS.contains(&token) {
                unknown.push(format!("{}: {token}", file.display()));
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "documented knobs missing from gopim_obs::env::KNOBS:\n{}",
        unknown.join("\n")
    );
}

#[test]
fn readme_has_a_table_row_for_every_knob() {
    let readme = read(&workspace_root().join("README.md"));
    let missing: Vec<&str> = KNOBS
        .iter()
        .copied()
        .filter(|knob| !readme.contains(&format!("\n| `{knob}` |")))
        .collect();
    assert!(
        missing.is_empty(),
        "knobs without a README table row: {missing:?}"
    );
}

#[test]
fn the_name_table_has_no_duplicates() {
    let unique: BTreeSet<&str> = KNOBS.iter().copied().collect();
    assert_eq!(unique.len(), KNOBS.len());
}
