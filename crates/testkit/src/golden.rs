//! Golden-snapshot checks with numeric tolerance.
//!
//! A golden test serializes results to text (see [`Report`] for the
//! standard scalar/table format), then calls [`check`]. Snapshots
//! live in `tests/golden/<name>.txt` at the workspace root, so they
//! are shared by every crate and reviewed like any other source file.
//!
//! Comparison is token-wise per line: tokens that parse as numbers on
//! both sides compare under a relative tolerance (default
//! [`DEFAULT_REL_TOL`]); everything else must match exactly. This
//! lets snapshots pin paper constants tightly while surviving the
//! last-ulp wobble of refactored float arithmetic.
//!
//! Set `GOPIM_GOLDEN=update` to (re)write the snapshot files instead
//! of diffing — the workflow for intentional result changes:
//!
//! ```text
//! GOPIM_GOLDEN=update cargo test -q        # regenerate
//! git diff tests/golden/                   # review the change
//! ```

use std::fmt::Display;
use std::fs;
use std::path::PathBuf;

/// Default relative tolerance for numeric tokens.
pub const DEFAULT_REL_TOL: f64 = 1e-9;

/// Directory holding every golden snapshot.
pub fn golden_dir() -> PathBuf {
    crate::workspace_root().join("tests").join("golden")
}

fn snapshot_path(name: &str) -> PathBuf {
    assert!(
        name.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'),
        "golden name {name:?} must be [A-Za-z0-9_-]+"
    );
    golden_dir().join(format!("{name}.txt"))
}

/// Compares `content` against `tests/golden/<name>.txt` with the
/// default tolerance, or rewrites the snapshot under
/// `GOPIM_GOLDEN=update`.
///
/// # Panics
///
/// Panics (failing the test) on any mismatch, with the first
/// differing line and regeneration instructions.
pub fn check(name: &str, content: &str) {
    check_with_tolerance(name, content, DEFAULT_REL_TOL);
}

/// [`check`] with an explicit relative tolerance for numeric tokens.
pub fn check_with_tolerance(name: &str, content: &str, rel_tol: f64) {
    let path = snapshot_path(name);
    if gopim_obs::env::get().golden_update {
        // lint:allow(no-panic-in-lib): snapshot update mode aborts loudly on an unwritable golden dir
        fs::create_dir_all(golden_dir()).expect("create tests/golden");
        let mut normalized = content.trim_end().to_string();
        normalized.push('\n');
        // lint:allow(no-panic-in-lib): snapshot update mode aborts loudly on an unwritable snapshot path
        fs::write(&path, normalized).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        eprintln!("golden '{name}': snapshot updated at {path:?}");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        // lint:allow(no-panic-in-lib): panicking is how the golden harness reports a missing snapshot to the test runner
        panic!(
            "golden '{name}': no snapshot at {path:?}\n  \
             generate it with: GOPIM_GOLDEN=update cargo test -q"
        )
    });
    if let Err(msg) = diff(&expected, content, rel_tol) {
        // lint:allow(no-panic-in-lib): panicking is how the golden harness reports a mismatch to the test runner
        panic!(
            "golden '{name}' mismatch against {path:?}\n  {msg}\n  \
             if the change is intentional: GOPIM_GOLDEN=update cargo test -q, \
             then review `git diff tests/golden/`"
        );
    }
}

/// Token-wise diff; `Ok(())` when equal within tolerance.
fn diff(expected: &str, actual: &str, rel_tol: f64) -> Result<(), String> {
    let exp_lines: Vec<&str> = expected.trim_end().lines().collect();
    let act_lines: Vec<&str> = actual.trim_end().lines().collect();
    if exp_lines.len() != act_lines.len() {
        return Err(format!(
            "line count differs: snapshot {} vs actual {}",
            exp_lines.len(),
            act_lines.len()
        ));
    }
    for (i, (e, a)) in exp_lines.iter().zip(&act_lines).enumerate() {
        let et: Vec<&str> = e.split_whitespace().collect();
        let at: Vec<&str> = a.split_whitespace().collect();
        let line_err = || {
            format!(
                "line {}:\n    snapshot: {}\n    actual:   {}",
                i + 1,
                e.trim_end(),
                a.trim_end()
            )
        };
        if et.len() != at.len() {
            return Err(line_err());
        }
        for (etok, atok) in et.iter().zip(&at) {
            match (etok.parse::<f64>(), atok.parse::<f64>()) {
                (Ok(x), Ok(y)) => {
                    if !close(x, y, rel_tol) {
                        return Err(format!(
                            "{} (numeric: {x} vs {y}, rel_tol {rel_tol:e})",
                            line_err()
                        ));
                    }
                }
                _ => {
                    if etok != atok {
                        return Err(line_err());
                    }
                }
            }
        }
    }
    Ok(())
}

fn close(x: f64, y: f64, rel_tol: f64) -> bool {
    if x == y {
        return true; // covers ±0 and exact integers
    }
    if !x.is_finite() || !y.is_finite() {
        return x.to_bits() == y.to_bits();
    }
    (x - y).abs() <= rel_tol * x.abs().max(y.abs()).max(1.0)
}

/// Builder for the standard snapshot format: `key = value` scalars
/// and aligned whitespace-separated tables.
#[derive(Debug, Default, Clone)]
pub struct Report {
    lines: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends one `key = value` scalar line. Floats format through
    /// `Display` (shortest round-trip), so snapshots are exact.
    pub fn scalar(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.lines.push(format!("{key} = {value}"));
        self
    }

    /// Appends a blank separator line.
    pub fn blank(&mut self) -> &mut Self {
        self.lines.push(String::new());
        self
    }

    /// Appends a section heading.
    pub fn section(&mut self, title: &str) -> &mut Self {
        self.lines.push(format!("[{title}]"));
        self
    }

    /// Appends a table: a header row then one line per row, columns
    /// separated by two spaces.
    pub fn table<S: AsRef<str>>(&mut self, headers: &[&str], rows: &[Vec<S>]) -> &mut Self {
        self.lines.push(headers.join("  "));
        for row in rows {
            let cells: Vec<&str> = row.iter().map(|c| c.as_ref()).collect();
            self.lines.push(cells.join("  "));
        }
        self
    }

    /// Renders the report (trailing newline included).
    pub fn render(&self) -> String {
        let mut out = self.lines.join("\n");
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_accepts_within_tolerance_and_rejects_beyond() {
        assert!(diff("x = 1.0", "x = 1.0000000001", 1e-9).is_ok());
        assert!(diff("x = 1.0", "x = 1.1", 1e-9).is_err());
        assert!(diff("name ddi", "name ddi", 1e-9).is_ok());
        assert!(diff("name ddi", "name cora", 1e-9).is_err());
        assert!(diff("a\nb", "a", 1e-9).is_err());
    }

    #[test]
    fn mixed_tokens_compare_fieldwise() {
        // Numeric column drifts within tolerance, text must be exact.
        assert!(diff("ddi 29.31 ns", "ddi 29.310000000001 ns", 1e-9).is_ok());
        assert!(diff("ddi 29.31 ns", "ddi 29.32 ns", 1e-9).is_err());
    }

    #[test]
    fn report_renders_scalars_and_tables() {
        let mut r = Report::new();
        r.section("spec")
            .scalar("read_latency_ns", 29.31)
            .blank()
            .table(&["k", "v"], &[vec!["a", "1"], vec!["b", "2"]]);
        let s = r.render();
        assert_eq!(s, "[spec]\nread_latency_ns = 29.31\n\nk  v\na  1\nb  2\n");
    }

    #[test]
    fn close_handles_integers_and_signs() {
        assert!(close(16777216.0, 16777216.0, 1e-9));
        assert!(!close(-1.0, 1.0, 1e-9));
        assert!(close(0.0, -0.0, 1e-9));
    }
}
