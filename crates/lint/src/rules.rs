//! The rule registry and the token-level matcher.
//!
//! Each rule states *what tokens* it matches (a [`Matcher`]), *where*
//! it applies (an [`Applies`] scope plus path exemptions), and the
//! contract it enforces. Adding a rule is one new entry in [`RULES`]
//! — the engine, the suppression machinery, the baseline ratchet and
//! the reports all pick it up automatically (see DESIGN.md §10).
//!
//! Rules never look at raw text: they walk the significant tokens
//! produced by [`crate::lexer`], so nothing inside strings or
//! comments can fire a finding.

use crate::context::{FileContext, FileKind};
use crate::lexer::{Token, TokenKind};

/// How a rule recognizes an offending token.
#[derive(Debug, Clone, Copy)]
pub enum Matcher {
    /// A bare identifier with one of these exact spellings
    /// (`HashMap`, `Instant`, …) — also catches `use` imports.
    IdentAny(&'static [&'static str]),
    /// A method call: `.` immediately followed by one of these
    /// identifiers (`.unwrap()`, `.expect(…)`).
    MethodCall(&'static [&'static str]),
    /// A macro invocation: one of these identifiers immediately
    /// followed by `!` (`panic!`, `println!`, `dbg!`).
    MacroCall(&'static [&'static str]),
    /// A path segment: one of these identifiers right after
    /// `<module>::` (`env::var`) — so a local named `var` never fires.
    PathItem(&'static str, &'static [&'static str]),
}

/// Where a rule applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applies {
    /// Library code only — tests, benches, binaries and examples are
    /// free zones.
    Lib,
    /// Library code *and* binaries/examples (contracts that hold for
    /// everything shipped, like seeded randomness).
    LibAndBin,
}

impl Applies {
    fn includes(self, kind: FileKind) -> bool {
        match self {
            Applies::Lib => kind == FileKind::Lib,
            Applies::LibAndBin => {
                matches!(kind, FileKind::Lib | FileKind::Bin | FileKind::Example)
            }
        }
    }
}

/// One contract the linter enforces.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case name, used in `lint:allow(...)` and the
    /// baseline.
    pub name: &'static str,
    /// One-line statement of the contract.
    pub summary: &'static str,
    /// Token patterns that violate it.
    pub matchers: &'static [Matcher],
    /// Scope.
    pub applies: Applies,
    /// Workspace-relative path prefixes where the rule is moot (e.g.
    /// the telemetry crate owns the wall clock).
    pub exempt_paths: &'static [&'static str],
}

/// Reported when a `lint:allow` has no reason string or is otherwise
/// unparsable; not a token rule, but shares the rule namespace so it
/// can appear in reports and the baseline.
pub const MALFORMED_SUPPRESSION: &str = "malformed-suppression";

/// The Cargo.toml hermeticity rule's name (findings come from the
/// manifest scanner, not the token matcher).
pub const NO_EXTERNAL_DEPS: &str = "no-external-deps";

/// The concurrency rules: findings come from the lock-graph pass
/// ([`crate::lockgraph`]), not the token matcher, but they share the
/// rule namespace so suppressions, reports and the baseline treat
/// them like any other rule. Library code only; `#[cfg(test)]`
/// regions are skipped (tests seed deliberate inversions).
pub const ANALYSIS_RULES: &[(&str, &str)] = &[
    (
        crate::lockgraph::LOCK_ORDER_INVERSION,
        "the lock-acquisition graph must be cycle-free; a cycle is a \
         lock-order inversion — a potential deadlock",
    ),
    (
        crate::lockgraph::GUARD_HELD_ACROSS_BLOCKING_CALL,
        "a lock guard must not stay live across recv/join/accept/\
         socket-read calls",
    ),
    (
        crate::lockgraph::CONDVAR_WAIT_WITHOUT_LOOP,
        "condvar waits re-check their predicate in a while/loop \
         (wakeups are spurious)",
    ),
];

/// Whether `name` is any rule the linter can emit (token, manifest,
/// suppression or analysis).
pub fn known_rule(name: &str) -> bool {
    rule_named(name).is_some()
        || name == MALFORMED_SUPPRESSION
        || name == NO_EXTERNAL_DEPS
        || ANALYSIS_RULES.iter().any(|(n, _)| *n == name)
}

/// The registry. Order is the report's per-rule summary order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "no-nondeterministic-time",
        summary: "simulation and library code must not read the wall clock \
                  (bit-determinism across runs and thread counts)",
        matchers: &[Matcher::IdentAny(&["Instant", "SystemTime"])],
        applies: Applies::Lib,
        // The serve crate owns real deadlines, read timeouts and
        // latency measurement — wall-clock use is its job; the
        // simulation results it transports stay deterministic.
        exempt_paths: &[
            "crates/obs/",
            "crates/testkit/src/bench.rs",
            "crates/serve/",
        ],
    },
    Rule {
        name: "no-unordered-hash-iteration",
        summary: "HashMap/HashSet iterate in RandomState order; library code \
                  must use BTreeMap/BTreeSet or sort explicitly",
        matchers: &[Matcher::IdentAny(&["HashMap", "HashSet"])],
        applies: Applies::Lib,
        exempt_paths: &[],
    },
    Rule {
        name: "no-panic-in-lib",
        summary: "library code returns typed errors; unwrap/expect/panic are \
                  for tests, benches and binaries",
        matchers: &[
            Matcher::MethodCall(&["unwrap", "expect"]),
            Matcher::MacroCall(&["panic", "unreachable", "todo", "unimplemented"]),
        ],
        applies: Applies::Lib,
        exempt_paths: &[],
    },
    Rule {
        name: "no-unseeded-randomness",
        summary: "all randomness flows through gopim-rng seeds; OS entropy and \
                  per-process hash seeds are banned",
        matchers: &[Matcher::IdentAny(&[
            "RandomState",
            "thread_rng",
            "from_entropy",
            "OsRng",
            "getrandom",
        ])],
        applies: Applies::LibAndBin,
        exempt_paths: &[],
    },
    Rule {
        name: "no-print-in-lib",
        summary: "stdout belongs to binaries; println!/dbg! in a library \
                  breaks the byte-identical-output telemetry guarantee",
        matchers: &[Matcher::MacroCall(&["println", "print", "dbg"])],
        applies: Applies::Lib,
        exempt_paths: &[],
    },
    Rule {
        name: "no-adhoc-env",
        summary: "the environment is read once, into gopim_obs::env::Env; \
                  read its typed field instead",
        matchers: &[Matcher::PathItem(
            "env",
            &["var", "var_os", "vars", "vars_os"],
        )],
        applies: Applies::LibAndBin,
        exempt_paths: &["crates/obs/src/env.rs"],
    },
    Rule {
        name: NO_EXTERNAL_DEPS,
        summary: "the workspace is hermetic: no crates.io/git dependencies, \
                  no subprocess escape hatches",
        matchers: &[Matcher::IdentAny(&["Command"])],
        applies: Applies::LibAndBin,
        exempt_paths: &[],
    },
];

/// Looks a rule up by name.
pub fn rule_named(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// One raw (pre-suppression, pre-baseline) finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative file, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule name (one of [`RULES`] or [`MALFORMED_SUPPRESSION`]).
    pub rule: String,
    /// Human-readable description of this occurrence.
    pub message: String,
}

/// Runs every token rule over one file. `sig` must be the significant
/// (non-whitespace, non-comment) tokens of `src`.
pub fn check_tokens(ctx: &FileContext, src: &str, sig: &[Token]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rule in RULES {
        if !rule.applies.includes(ctx.kind) {
            continue;
        }
        if rule.exempt_paths.iter().any(|p| ctx.path.starts_with(p)) {
            continue;
        }
        for matcher in rule.matchers {
            match_one(ctx, src, sig, rule, matcher, &mut findings);
        }
    }
    findings
}

fn match_one(
    ctx: &FileContext,
    src: &str,
    sig: &[Token],
    rule: &Rule,
    matcher: &Matcher,
    findings: &mut Vec<Finding>,
) {
    for (i, tok) in sig.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let text = tok.text(src);
        let hit = match matcher {
            Matcher::IdentAny(names) => names.contains(&text).then(|| format!("`{text}`")),
            Matcher::MethodCall(names) => (names.contains(&text)
                && i > 0
                && sig[i - 1].kind == TokenKind::Punct
                && sig[i - 1].text(src) == ".")
                .then(|| format!("`.{text}()`")),
            Matcher::MacroCall(names) => (names.contains(&text)
                && sig.get(i + 1).is_some_and(|n| n.text(src) == "!"))
            .then(|| format!("`{text}!`")),
            Matcher::PathItem(module, names) => (names.contains(&text)
                && i >= 3
                && sig[i - 3].text(src) == *module
                && sig[i - 2].text(src) == ":"
                && sig[i - 1].text(src) == ":")
                .then(|| format!("`{module}::{text}`")),
        };
        let Some(what) = hit else {
            continue;
        };
        if ctx.in_test_region(tok.start) {
            continue;
        }
        findings.push(Finding {
            file: ctx.path.clone(),
            line: ctx.lines.line_of(tok.start),
            rule: rule.name.to_string(),
            message: format!("{what} — {}", rule.summary),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<Finding> {
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
        check_tokens(&ctx, src, &sig)
    }

    #[test]
    fn hash_maps_fire_only_in_lib_code() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32>; }\n";
        let hits = run("crates/x/src/lib.rs", src);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|f| f.rule == "no-unordered-hash-iteration"));
        assert_eq!(hits[0].line, 1);
        assert!(run("crates/x/tests/t.rs", src).is_empty());
        assert!(run("crates/x/src/bin/tool.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "// HashMap in a comment\nfn f() -> &'static str { \"Instant::now()\" }\n";
        assert!(run("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unwrap_needs_a_method_call_shape() {
        let src = "fn unwrap() {}\nfn f(x: Option<u32>) { x.unwrap(); unwrap(); }\n";
        let hits = run("crates/x/src/lib.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "no-panic-in-lib");
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn macros_need_the_bang() {
        let src = "fn panic() {}\nfn f() { panic(); panic!(\"boom\"); }\n";
        let hits = run("crates/x/src/lib.rs", src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("panic!"));
    }

    #[test]
    fn cfg_test_regions_are_free_zones() {
        let src = "\
fn lib(x: Option<u32>) -> u32 { x.unwrap() }\n\
#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        let hits = run("crates/x/src/lib.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 1);
    }

    #[test]
    fn time_rule_exempts_the_telemetry_crate() {
        let src = "use std::time::Instant;\n";
        assert!(run("crates/obs/src/lib.rs", src).is_empty());
        assert!(run("crates/testkit/src/bench.rs", src).is_empty());
        assert_eq!(run("crates/par/src/pool.rs", src).len(), 1);
    }

    #[test]
    fn randomness_rule_reaches_binaries() {
        let src = "use std::hash::RandomState;\n";
        assert_eq!(run("crates/x/src/bin/tool.rs", src).len(), 1);
        assert_eq!(run("crates/x/src/lib.rs", src).len(), 1);
        assert!(run("crates/x/tests/t.rs", src).is_empty());
    }

    #[test]
    fn env_reads_need_the_env_path() {
        let src = "use std::env;\nfn f() -> f64 {\n    let _ = std::env::var(\"X\");\n    \
                   let _ = env::vars_os();\n    let var = 1.0;\n    let x = var * 2.0;\n    \
                   x + var\n}\n";
        let hits = run("crates/x/src/lib.rs", src);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().all(|f| f.rule == "no-adhoc-env"));
        assert_eq!((hits[0].line, hits[1].line), (3, 4));
        assert_eq!(run("crates/x/src/bin/tool.rs", src).len(), 2);
        assert!(run("crates/x/tests/t.rs", src).is_empty());
        assert!(run("crates/obs/src/env.rs", src).is_empty());
    }

    #[test]
    fn every_rule_has_a_unique_name() {
        let mut names: Vec<&str> = RULES.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), RULES.len());
        assert!(rule_named("no-panic-in-lib").is_some());
        assert!(rule_named("nope").is_none());
    }
}
