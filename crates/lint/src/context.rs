//! Per-file context: target classification, `#[cfg(test)]` regions,
//! and `// lint:allow(...)` suppressions.
//!
//! Rules fire or stay silent depending on *where* a token lives:
//! library code is held to the strictest contracts, while tests,
//! benches, binaries and examples are allowed to panic, print and
//! measure wall-clock time. Classification is purely path-based
//! (mirroring Cargo's target auto-discovery), refined by token-level
//! detection of `#[cfg(test)]` / `#[test]` item regions inside any
//! file.

use crate::lexer::{LineIndex, Token, TokenKind};

/// Which Cargo target class a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code (`src/**` minus binaries): the strict zone.
    Lib,
    /// A binary (`src/bin/**` or `src/main.rs`).
    Bin,
    /// An example (`examples/**`).
    Example,
    /// An integration test (`tests/**`).
    Test,
    /// A benchmark (`benches/**`).
    Bench,
}

impl FileKind {
    /// Classifies a workspace-relative path (`/`-separated).
    pub fn classify(path: &str) -> FileKind {
        let has = |needle: &str| {
            path.starts_with(needle.trim_start_matches('/')) || path.contains(needle)
        };
        if has("/tests/") {
            FileKind::Test
        } else if has("/benches/") {
            FileKind::Bench
        } else if has("/examples/") {
            FileKind::Example
        } else if has("/src/bin/") || path.ends_with("/src/main.rs") || path == "src/main.rs" {
            FileKind::Bin
        } else {
            FileKind::Lib
        }
    }
}

/// Everything the rule engine knows about one source file.
#[derive(Debug)]
pub struct FileContext {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Target classification.
    pub kind: FileKind,
    /// Byte→line mapping.
    pub lines: LineIndex,
    /// Byte ranges of test-only items (`#[cfg(test)] mod …`,
    /// `#[test] fn …`), attribute start to item end.
    pub test_regions: Vec<(usize, usize)>,
    /// Parsed `lint:allow` suppressions.
    pub suppressions: Vec<Suppression>,
}

/// One `// lint:allow(rule, …): reason` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rules it names.
    pub rules: Vec<String>,
    /// Whether a non-empty reason follows the rule list.
    pub has_reason: bool,
    /// Line the comment starts on.
    pub line: usize,
    /// Lines the suppression covers (its own and the next).
    pub covers: [usize; 2],
}

impl FileContext {
    /// Builds the context for `src` at workspace-relative `path`.
    pub fn new(path: &str, src: &str, tokens: &[Token]) -> FileContext {
        let lines = LineIndex::new(src);
        let significant: Vec<Token> = tokens
            .iter()
            .filter(|t| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .copied()
            .collect();
        let test_regions = find_test_regions(src, &significant);
        let suppressions = find_suppressions(src, tokens, &lines);
        FileContext {
            path: path.to_string(),
            kind: FileKind::classify(path),
            lines,
            test_regions,
            suppressions,
        }
    }

    /// Whether byte `offset` lies inside a test-only item.
    pub fn in_test_region(&self, offset: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(start, end)| offset >= start && offset < end)
    }

    /// Whether a finding of `rule` on `line` is covered by a
    /// well-formed suppression.
    pub fn suppressed(&self, rule: &str, line: usize) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.has_reason && s.covers.contains(&line) && s.rules.iter().any(|r| r == rule))
    }
}

/// Scans significant tokens for `#[test]`-carrying attributes and
/// returns the byte extent of the items they gate.
fn find_test_regions(src: &str, sig: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < sig.len() {
        if sig[i].text(src) != "#" {
            i += 1;
            continue;
        }
        let attr_start = sig[i].start;
        let mut j = i + 1;
        // Inner attribute `#![…]`: skip it, it gates no single item.
        let inner = sig.get(j).is_some_and(|t| t.text(src) == "!");
        if inner {
            j += 1;
        }
        if sig.get(j).map(|t| t.text(src)) != Some("[") {
            i += 1;
            continue;
        }
        // Scan the attribute body to its matching `]`.
        let mut depth = 0usize;
        let mut names_test = false;
        while j < sig.len() {
            match sig[j].text(src) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                text if sig[j].kind == TokenKind::Ident && text == "test" => names_test = true,
                _ => {}
            }
            j += 1;
        }
        if inner || !names_test {
            i = j + 1;
            continue;
        }
        // Skip any further outer attributes stacked on the same item.
        let mut k = j + 1;
        while sig.get(k).is_some_and(|t| t.text(src) == "#")
            && sig.get(k + 1).is_some_and(|t| t.text(src) == "[")
        {
            let mut depth = 0usize;
            while k < sig.len() {
                match sig[k].text(src) {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        // The item extends to its closing brace (brace-matched) or, if
        // it has no body, to the terminating semicolon.
        let mut end = src.len();
        let mut braces = 0usize;
        let mut m = k;
        while m < sig.len() {
            match sig[m].text(src) {
                "{" => braces += 1,
                "}" if braces > 0 => {
                    braces -= 1;
                    if braces == 0 {
                        end = sig[m].end;
                        break;
                    }
                }
                ";" if braces == 0 => {
                    end = sig[m].end;
                    break;
                }
                _ => {}
            }
            m += 1;
        }
        regions.push((attr_start, end));
        i = j + 1;
    }
    regions
}

/// Extracts `lint:allow` suppressions from comment tokens.
fn find_suppressions(src: &str, tokens: &[Token], lines: &LineIndex) -> Vec<Suppression> {
    let mut out = Vec::new();
    for t in tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        // The directive must *start* the comment (after the `//`,
        // `/*`, doc markers and whitespace); prose that merely
        // mentions `lint:allow(...)` mid-sentence is not a
        // suppression.
        let text = t.text(src).trim_start_matches(['/', '*', '!']).trim_start();
        let Some(after) = text.strip_prefix("lint:allow(") else {
            continue;
        };
        let line = lines.line_of(t.start);
        let Some(close) = after.find(')') else {
            out.push(Suppression {
                rules: Vec::new(),
                has_reason: false,
                line,
                covers: [line, line + 1],
            });
            continue;
        };
        let rules: Vec<String> = after[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let tail = after[close + 1..].trim_start();
        let has_reason = tail
            .strip_prefix(':')
            .map(|reason| {
                let reason = reason.trim_end_matches("*/");
                !reason.trim().is_empty()
            })
            .unwrap_or(false);
        out.push(Suppression {
            rules,
            has_reason,
            line,
            covers: [line, line + 1],
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx(path: &str, src: &str) -> FileContext {
        FileContext::new(path, src, &lex(src))
    }

    #[test]
    fn paths_classify_by_cargo_target_layout() {
        assert_eq!(FileKind::classify("crates/graph/src/io.rs"), FileKind::Lib);
        assert_eq!(FileKind::classify("crates/core/src/main.rs"), FileKind::Bin);
        assert_eq!(
            FileKind::classify("crates/core/src/bin/gopim/repro/faults.rs"),
            FileKind::Bin
        );
        assert_eq!(
            FileKind::classify("crates/graph/tests/proptests.rs"),
            FileKind::Test
        );
        assert_eq!(FileKind::classify("tests/determinism.rs"), FileKind::Test);
        assert_eq!(
            FileKind::classify("crates/core/benches/linalg.rs"),
            FileKind::Bench
        );
        assert_eq!(
            FileKind::classify("examples/quickstart.rs"),
            FileKind::Example
        );
        assert_eq!(
            FileKind::classify("crates/obs/examples/validate_trace.rs"),
            FileKind::Example
        );
    }

    #[test]
    fn cfg_test_modules_form_regions() {
        let src = "pub fn lib() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let c = ctx("crates/x/src/lib.rs", src);
        assert_eq!(c.test_regions.len(), 1);
        let unwrap_at = src.find("unwrap").unwrap();
        assert!(c.in_test_region(unwrap_at));
        assert!(!c.in_test_region(src.find("lib").unwrap()));
    }

    #[test]
    fn test_fns_with_stacked_attributes_form_regions() {
        let src = "#[test]\n#[ignore]\nfn slow() { panic!() }\nfn lib() {}\n";
        let c = ctx("crates/x/src/lib.rs", src);
        assert!(c.in_test_region(src.find("panic").unwrap()));
        assert!(!c.in_test_region(src.find("lib").unwrap()));
    }

    #[test]
    fn inner_attributes_and_plain_cfgs_are_not_regions() {
        let src = "#![warn(missing_docs)]\n#[cfg(feature = \"x\")]\nfn f() {}\n";
        let c = ctx("crates/x/src/lib.rs", src);
        assert!(c.test_regions.is_empty());
    }

    #[test]
    fn suppressions_parse_rules_and_reasons() {
        let src = "\
// lint:allow(no-panic-in-lib): pool sized at construction\nx.unwrap();\n\
y.unwrap(); // lint:allow(no-panic-in-lib, no-print-in-lib): trailing\n\
// lint:allow(no-panic-in-lib)\nz.unwrap();\n";
        let c = ctx("crates/x/src/lib.rs", src);
        assert_eq!(c.suppressions.len(), 3);
        assert!(c.suppressions[0].has_reason);
        assert_eq!(c.suppressions[0].rules, vec!["no-panic-in-lib"]);
        assert!(c.suppressed("no-panic-in-lib", 2));
        assert!(c.suppressions[1].has_reason);
        assert_eq!(c.suppressions[1].rules.len(), 2);
        assert!(c.suppressed("no-print-in-lib", 3));
        // Reasonless allow: parsed, but covers nothing.
        assert!(!c.suppressions[2].has_reason);
        assert!(!c.suppressed("no-panic-in-lib", 5));
    }

    #[test]
    fn block_comment_suppressions_trim_the_closer() {
        let src = "/* lint:allow(no-print-in-lib): banner */\nprintln!(\"x\");\n";
        let c = ctx("crates/x/src/lib.rs", src);
        assert!(c.suppressions[0].has_reason);
        assert!(c.suppressed("no-print-in-lib", 2));
    }
}
