//! A lightweight item/expression parse layer over the lossless lexer.
//!
//! The token rules in [`crate::rules`] need no structure, but the
//! concurrency pass ([`crate::lockgraph`]) must know *which function*
//! a lock is acquired in, *which struct field* a `Mutex` lives behind,
//! and *how statements nest* — guard liveness is lexical. This module
//! recovers exactly that much syntax and no more:
//!
//! - **items**: `fn` signatures + bodies, `struct` fields, `static`
//!   declarations, recursing through `impl`/`mod`/`trait` blocks;
//! - **expressions**: a flat event stream per function body — scope
//!   open/close (tagged with the opening keyword), statement ends,
//!   `let` bindings, method/free calls with receiver and
//!   first-argument ident paths, and closure boundaries.
//!
//! It is *not* a Rust parser: no precedence, no types, no patterns.
//! Anything it cannot classify it skips, so analyses built on it are
//! conservative (they may miss, they do not invent structure). Like
//! the lexer it is total: any byte string produces *some* event
//! stream, never a panic — the adversarial property suite in
//! `crates/lint/tests/parser_prop.rs` holds it to that.

use crate::lexer::{Token, TokenKind};

/// Everything the parse layer recovered from one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Function items, in source order (nested through impl/mod).
    pub fns: Vec<FnItem>,
    /// Struct items with named fields.
    pub structs: Vec<StructItem>,
    /// `static` items (including those inside `thread_local!`-style
    /// macro bodies, which tokenize identically).
    pub statics: Vec<StaticItem>,
}

/// One `fn` item: signature facts plus the body's event stream.
#[derive(Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// `Some(Type)` when declared inside `impl Type { .. }` (the last
    /// path segment of the self type); `None` for free functions.
    pub self_ty: Option<String>,
    /// Significant token texts of the parameter list (between parens).
    pub params: Vec<String>,
    /// Significant token texts of the return type (after `->`, before
    /// the body or `where`). Empty when the fn returns `()`.
    pub ret: Vec<String>,
    /// Byte offset of the `fn` keyword (for line attribution).
    pub offset: usize,
    /// The body's event stream; empty for bodyless declarations.
    pub events: Vec<Event>,
}

/// A struct with named fields.
#[derive(Debug)]
pub struct StructItem {
    /// The struct's name.
    pub name: String,
    /// Named fields in declaration order.
    pub fields: Vec<FieldDecl>,
}

/// One named struct field.
#[derive(Debug)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Significant token texts of the field type.
    pub ty: Vec<String>,
    /// Byte offset of the field name.
    pub offset: usize,
}

/// One `static` item.
#[derive(Debug)]
pub struct StaticItem {
    /// The static's name.
    pub name: String,
    /// Significant token texts of the declared type.
    pub ty: Vec<String>,
    /// Byte offset of the name.
    pub offset: usize,
}

/// What keyword opened a scope (drives the `condvar-wait-without-loop`
/// rule and closure barriers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opener {
    /// `loop { .. }`
    Loop,
    /// `while .. { .. }` (including `while let`)
    While,
    /// `for .. in .. { .. }`
    For,
    /// A closure body (`|..| { .. }`) — a liveness barrier: guards
    /// outside it are not visibly held inside (the closure may run on
    /// another thread, later, or never).
    Closure,
    /// Anything else: plain blocks, `if`/`else`, `match`, `unsafe`.
    Plain,
}

/// One step of a function body, in source order.
#[derive(Debug)]
pub enum Event {
    /// A `{` opened a scope.
    Open {
        /// The keyword (if any) that introduced it.
        opener: Opener,
        /// Byte offset of the `{`.
        offset: usize,
    },
    /// The matching `}`.
    Close {
        /// Byte offset of the `}`.
        offset: usize,
    },
    /// A `;` at parenthesis depth zero — statement-temporary guards
    /// die here.
    StmtEnd {
        /// Byte offset of the `;`.
        offset: usize,
    },
    /// A `let` binding. `binding` is the bound name for the simple
    /// `let [mut] name = ..` shape, `None` for patterns.
    Let {
        /// The bound identifier, when the pattern is a plain name.
        binding: Option<String>,
        /// Byte offset of the `let`.
        offset: usize,
    },
    /// A call expression, `recv.name(args)` or `name(args)`.
    Call(CallEvent),
    /// An expression-bodied closure began (`|x| expr` with no braces);
    /// a liveness barrier until the matching [`Event::ClosureEnd`].
    ClosureStart {
        /// Byte offset of the opening `|`.
        offset: usize,
    },
    /// The expression-bodied closure ended.
    ClosureEnd {
        /// Byte offset just past the closure expression.
        offset: usize,
    },
}

/// One call site.
#[derive(Debug)]
pub struct CallEvent {
    /// The called identifier (`lock`, `recv`, `lock_recover`, ..).
    pub name: String,
    /// True for `recv.name(..)`, false for `name(..)` / `a::name(..)`.
    pub method: bool,
    /// For method calls: the trailing ident path of the receiver
    /// (`self.inner.shared.queue` → `["self","inner","shared","queue"]`).
    /// Empty when the receiver is not a plain ident path (chained
    /// calls, indexing).
    pub recv: Vec<String>,
    /// For free calls: the leading ident path of the first argument
    /// with `&`/`mut` stripped (`lock_recover(&core.state)` →
    /// `["core","state"]`). Empty when absent or not a plain path.
    pub arg_path: Vec<String>,
    /// True when the argument list is empty (`.read()` vs `.read(buf)`).
    pub args_empty: bool,
    /// True when the call's closing `)` is immediately followed by
    /// `;` — the whole-statement shape under which a `let` binds the
    /// returned guard itself.
    pub terminal: bool,
    /// Byte offset of the called identifier.
    pub offset: usize,
}

/// Keywords that can precede `(` without being calls.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "move", "let", "in", "fn", "unsafe",
    "ref", "mut", "as", "use", "pub", "where", "impl", "dyn", "box", "await", "break", "continue",
    "static", "const", "struct", "enum", "trait", "mod", "type", "union", "extern", "crate",
    "super", "yield",
];

/// Parses one file's significant tokens. `sig` must contain no
/// whitespace or comment tokens (the engine's significant stream).
pub fn parse(src: &str, sig: &[Token]) -> ParsedFile {
    let mut out = ParsedFile::default();
    scan_items(&mut out, src, sig, 0, sig.len(), None);
    out
}

fn text<'a>(src: &'a str, sig: &[Token], i: usize) -> &'a str {
    sig.get(i).map_or("", |t| t.text(src))
}

fn kind(sig: &[Token], i: usize) -> Option<TokenKind> {
    sig.get(i).map(|t| t.kind)
}

fn offset(sig: &[Token], i: usize) -> usize {
    sig.get(i).map_or(0, |t| t.start)
}

/// Index of the token matching the opener at `open` (`{`/`}`, `(`/`)`
/// or `[`/`]`), or `hi` when unbalanced.
fn matching(src: &str, sig: &[Token], open: usize, hi: usize) -> usize {
    let (o, c) = match text(src, sig, open) {
        "{" => ("{", "}"),
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        _ => return open,
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < hi {
        if kind(sig, i) == Some(TokenKind::Punct) {
            let t = text(src, sig, i);
            if t == o {
                depth += 1;
            } else if t == c {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        i += 1;
    }
    hi
}

/// Skips a `<..>` generics list starting at `i` (which must be `<`).
/// `>` tokens that belong to `->` arrows do not close the list.
fn skip_generics(src: &str, sig: &[Token], i: usize, hi: usize) -> usize {
    if text(src, sig, i) != "<" {
        return i;
    }
    let mut depth = 0isize;
    let mut j = i;
    while j < hi {
        let t = text(src, sig, j);
        if t == "<" {
            depth += 1;
        } else if t == ">" && (j == 0 || text(src, sig, j - 1) != "-") {
            depth -= 1;
            if depth <= 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    hi
}

fn scan_items(
    out: &mut ParsedFile,
    src: &str,
    sig: &[Token],
    lo: usize,
    hi: usize,
    self_ty: Option<&str>,
) {
    let mut i = lo;
    while i < hi {
        if kind(sig, i) != Some(TokenKind::Ident) {
            i += 1;
            continue;
        }
        match text(src, sig, i) {
            "fn" => i = parse_fn(out, src, sig, i, hi, self_ty),
            "struct" => i = parse_struct(out, src, sig, i, hi),
            "static" => i = parse_static(out, src, sig, i, hi),
            "impl" => i = parse_impl(out, src, sig, i, hi),
            "mod" | "trait" => {
                // Recurse into the block (trait default methods count
                // as free functions — no self type resolution).
                let mut j = i + 1;
                while j < hi && !matches!(text(src, sig, j), "{" | ";") {
                    j += 1;
                }
                if text(src, sig, j) == "{" {
                    let end = matching(src, sig, j, hi);
                    scan_items(out, src, sig, j + 1, end, None);
                    i = end + 1;
                } else {
                    i = j + 1;
                }
            }
            "enum" | "union" => {
                // Skip the body so variant fields are not misread.
                let mut j = i + 1;
                while j < hi && !matches!(text(src, sig, j), "{" | ";") {
                    j += 1;
                }
                i = if text(src, sig, j) == "{" {
                    matching(src, sig, j, hi) + 1
                } else {
                    j + 1
                };
            }
            _ => i += 1,
        }
    }
}

fn parse_fn(
    out: &mut ParsedFile,
    src: &str,
    sig: &[Token],
    at: usize,
    hi: usize,
    self_ty: Option<&str>,
) -> usize {
    // `fn` must be followed by a name; `fn` as a type (`const F: fn()`)
    // is not an item.
    if kind(sig, at + 1) != Some(TokenKind::Ident) {
        return at + 1;
    }
    let name = text(src, sig, at + 1).to_string();
    let mut j = skip_generics(src, sig, at + 2, hi);
    if text(src, sig, j) != "(" {
        return at + 2;
    }
    let params_end = matching(src, sig, j, hi);
    let params: Vec<String> = (j + 1..params_end.min(hi))
        .map(|k| text(src, sig, k).to_string())
        .collect();
    j = params_end + 1;
    // Return type: after `->`, up to the body, `;`, or `where`.
    let mut ret = Vec::new();
    if text(src, sig, j) == "-" && text(src, sig, j + 1) == ">" {
        j += 2;
        while j < hi && !matches!(text(src, sig, j), "{" | ";") && text(src, sig, j) != "where" {
            ret.push(text(src, sig, j).to_string());
            j += 1;
        }
    }
    while j < hi && !matches!(text(src, sig, j), "{" | ";") {
        j += 1;
    }
    let mut events = Vec::new();
    let end = if text(src, sig, j) == "{" {
        let close = matching(src, sig, j, hi);
        events = parse_body(src, sig, j, close);
        close + 1
    } else {
        j + 1
    };
    out.fns.push(FnItem {
        name,
        self_ty: self_ty.map(str::to_string),
        params,
        ret,
        offset: offset(sig, at),
        events,
    });
    end
}

fn parse_struct(out: &mut ParsedFile, src: &str, sig: &[Token], at: usize, hi: usize) -> usize {
    if kind(sig, at + 1) != Some(TokenKind::Ident) {
        return at + 1;
    }
    let name = text(src, sig, at + 1).to_string();
    let mut j = skip_generics(src, sig, at + 2, hi);
    // Skip a `where` clause.
    while j < hi && !matches!(text(src, sig, j), "{" | "(" | ";") {
        j += 1;
    }
    match text(src, sig, j) {
        "(" => matching(src, sig, j, hi) + 1, // tuple struct: no named fields
        "{" => {
            let end = matching(src, sig, j, hi);
            let fields = parse_fields(src, sig, j + 1, end);
            out.structs.push(StructItem { name, fields });
            end + 1
        }
        _ => j + 1,
    }
}

fn parse_fields(src: &str, sig: &[Token], lo: usize, hi: usize) -> Vec<FieldDecl> {
    let mut fields = Vec::new();
    let mut i = lo;
    while i < hi {
        // Skip attributes and visibility.
        if text(src, sig, i) == "#" && text(src, sig, i + 1) == "[" {
            i = matching(src, sig, i + 1, hi) + 1;
            continue;
        }
        if text(src, sig, i) == "pub" {
            i += 1;
            if text(src, sig, i) == "(" {
                i = matching(src, sig, i, hi) + 1;
            }
            continue;
        }
        if kind(sig, i) == Some(TokenKind::Ident) && text(src, sig, i + 1) == ":" {
            let name = text(src, sig, i).to_string();
            let field_offset = offset(sig, i);
            let mut j = i + 2;
            let mut ty = Vec::new();
            let mut angle = 0isize;
            let mut paren = 0isize;
            while j < hi {
                let t = text(src, sig, j);
                match t {
                    "<" => angle += 1,
                    ">" if text(src, sig, j.wrapping_sub(1)) != "-" => angle -= 1,
                    "(" | "[" => paren += 1,
                    ")" | "]" => paren -= 1,
                    "," if angle <= 0 && paren <= 0 => break,
                    _ => {}
                }
                ty.push(t.to_string());
                j += 1;
            }
            fields.push(FieldDecl {
                name,
                ty,
                offset: field_offset,
            });
            i = j + 1;
        } else {
            i += 1;
        }
    }
    fields
}

fn parse_static(out: &mut ParsedFile, src: &str, sig: &[Token], at: usize, hi: usize) -> usize {
    let mut j = at + 1;
    if text(src, sig, j) == "mut" {
        j += 1;
    }
    if kind(sig, j) != Some(TokenKind::Ident) || text(src, sig, j + 1) != ":" {
        return at + 1;
    }
    let name = text(src, sig, j).to_string();
    let name_offset = offset(sig, j);
    let mut k = j + 2;
    let mut ty = Vec::new();
    while k < hi && !matches!(text(src, sig, k), "=" | ";") {
        ty.push(text(src, sig, k).to_string());
        k += 1;
    }
    out.statics.push(StaticItem {
        name,
        ty,
        offset: name_offset,
    });
    // Skip the initializer (brace-aware: block initializers exist).
    let mut depth = 0isize;
    while k < hi {
        match text(src, sig, k) {
            "{" => depth += 1,
            "}" => depth -= 1,
            ";" if depth <= 0 => return k + 1,
            _ => {}
        }
        k += 1;
    }
    hi
}

fn parse_impl(out: &mut ParsedFile, src: &str, sig: &[Token], at: usize, hi: usize) -> usize {
    let mut j = skip_generics(src, sig, at + 1, hi);
    // Collect the type tokens up to the body; `impl Trait for Type`
    // resolves to the tokens after `for`.
    let mut ty_start = j;
    let mut angle = 0isize;
    while j < hi {
        let t = text(src, sig, j);
        match t {
            "{" if angle <= 0 => break,
            ";" => return j + 1,
            "<" => angle += 1,
            ">" if text(src, sig, j.wrapping_sub(1)) != "-" => angle -= 1,
            "for" if angle <= 0 => ty_start = j + 1,
            "where" if angle <= 0 => break,
            _ => {}
        }
        j += 1;
    }
    // Self type = last ident at angle depth zero in [ty_start, j).
    let mut self_ty = None;
    let mut depth = 0isize;
    for k in ty_start..j {
        let t = text(src, sig, k);
        match t {
            "<" => depth += 1,
            ">" if text(src, sig, k.wrapping_sub(1)) != "-" => depth -= 1,
            _ => {
                if depth <= 0 && kind(sig, k) == Some(TokenKind::Ident) && t != "dyn" && t != "mut"
                {
                    self_ty = Some(t.to_string());
                }
            }
        }
    }
    while j < hi && text(src, sig, j) != "{" {
        j += 1;
    }
    if text(src, sig, j) != "{" {
        return j;
    }
    let end = matching(src, sig, j, hi);
    scan_items(out, src, sig, j + 1, end, self_ty.as_deref());
    end + 1
}

/// Tokens that may directly precede a closure's opening `|`.
fn closure_position(src: &str, sig: &[Token], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    let prev = text(src, sig, i - 1);
    match prev {
        "(" | "," | "=" | "{" | ";" | "[" | ":" => true,
        ">" => i >= 2 && text(src, sig, i - 2) == "=", // `=>` arrow
        "move" | "return" | "else" | "in" | "break" => true,
        _ => false,
    }
}

/// Parses one function body (tokens `open..=close`, both braces) into
/// an event stream. Total: malformed input produces a partial stream,
/// never a panic.
fn parse_body(src: &str, sig: &[Token], open: usize, close: usize) -> Vec<Event> {
    let mut events = Vec::new();
    let mut pending: Opener = Opener::Plain;
    let mut next_brace_closure = false;
    let mut paren = 0isize;
    let mut bracket = 0isize;
    let mut brace = 0isize;
    // Expression-bodied closures still open: (paren, bracket, brace)
    // depths at their start.
    let mut expr_closures: Vec<(isize, isize, isize)> = Vec::new();
    let mut i = open;
    while i <= close && i < sig.len() {
        let Some(tok) = sig.get(i) else { break };
        let t = tok.text(src);
        match tok.kind {
            TokenKind::Ident => match t {
                "loop" => pending = Opener::Loop,
                "while" => pending = Opener::While,
                "for" => pending = Opener::For,
                "let" => {
                    let mut j = i + 1;
                    if text(src, sig, j) == "mut" {
                        j += 1;
                    }
                    let binding = (kind(sig, j) == Some(TokenKind::Ident)
                        && matches!(text(src, sig, j + 1), "=" | ":"))
                    .then(|| text(src, sig, j).to_string());
                    events.push(Event::Let {
                        binding,
                        offset: tok.start,
                    });
                }
                _ => {
                    // `name(..)` — macros never reach here (their `!`
                    // sits between the ident and the parenthesis).
                    if text(src, sig, i + 1) == "(" && !KEYWORDS.contains(&t) {
                        let method = i > 0 && text(src, sig, i - 1) == ".";
                        let args_open = i + 1;
                        let args_close = matching(src, sig, args_open, close + 1);
                        let args_empty = args_close == args_open + 1;
                        let after = text(src, sig, args_close + 1);
                        let recv = if method {
                            recv_path(src, sig, i - 1)
                        } else {
                            Vec::new()
                        };
                        let arg_path = if method {
                            Vec::new()
                        } else {
                            leading_arg_path(src, sig, args_open + 1, args_close)
                        };
                        events.push(Event::Call(CallEvent {
                            name: t.to_string(),
                            method,
                            recv,
                            arg_path,
                            args_empty,
                            terminal: after == ";",
                            offset: tok.start,
                        }));
                    }
                }
            },
            TokenKind::Punct => match t {
                "|" if closure_position(src, sig, i) => {
                    // Scan the argument list to the matching `|`.
                    let mut j = i + 1;
                    if text(src, sig, j) == "|" {
                        // `||` — empty argument list.
                    } else {
                        let mut p = 0isize;
                        while j <= close && j < sig.len() {
                            match text(src, sig, j) {
                                "(" | "[" => p += 1,
                                ")" | "]" => p -= 1,
                                "|" if p <= 0 => break,
                                _ => {}
                            }
                            j += 1;
                        }
                    }
                    if text(src, sig, j + 1) == "{" {
                        next_brace_closure = true;
                    } else {
                        events.push(Event::ClosureStart { offset: tok.start });
                        expr_closures.push((paren, bracket, brace));
                    }
                    i = j + 1;
                    continue;
                }
                "{" => {
                    brace += 1;
                    let opener = if next_brace_closure {
                        Opener::Closure
                    } else {
                        pending
                    };
                    next_brace_closure = false;
                    pending = Opener::Plain;
                    events.push(Event::Open {
                        opener,
                        offset: tok.start,
                    });
                }
                "}" => {
                    brace -= 1;
                    end_closures(
                        &mut events,
                        &mut expr_closures,
                        paren,
                        bracket,
                        brace,
                        false,
                        tok.start,
                    );
                    events.push(Event::Close { offset: tok.start });
                }
                ";" if paren <= 0 && bracket <= 0 => {
                    end_closures(
                        &mut events,
                        &mut expr_closures,
                        paren,
                        bracket,
                        brace,
                        true,
                        tok.start,
                    );
                    events.push(Event::StmtEnd { offset: tok.start });
                    pending = Opener::Plain;
                }
                "(" => paren += 1,
                ")" => {
                    paren -= 1;
                    end_closures(
                        &mut events,
                        &mut expr_closures,
                        paren,
                        bracket,
                        brace,
                        false,
                        tok.start,
                    );
                }
                "[" => bracket += 1,
                "]" => {
                    bracket -= 1;
                    end_closures(
                        &mut events,
                        &mut expr_closures,
                        paren,
                        bracket,
                        brace,
                        false,
                        tok.start,
                    );
                }
                "," => {
                    end_closures(
                        &mut events,
                        &mut expr_closures,
                        paren,
                        bracket,
                        brace,
                        true,
                        tok.start,
                    );
                }
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }
    events
}

/// Ends expression-bodied closures whose expression just finished. A
/// *separator* (`,`, `;`) ends closures opened at the current depths;
/// a *closer* (`)`, `]`, `}`, already applied to the depth counters)
/// ends closures opened strictly inside the group it closed.
fn end_closures(
    events: &mut Vec<Event>,
    stack: &mut Vec<(isize, isize, isize)>,
    paren: isize,
    bracket: isize,
    brace: isize,
    separator: bool,
    offset: usize,
) {
    while let Some(&(p, b, br)) = stack.last() {
        let done = if separator {
            paren <= p && bracket <= b && brace <= br
        } else {
            paren < p || bracket < b || brace < br
        };
        if done {
            stack.pop();
            events.push(Event::ClosureEnd { offset });
        } else {
            break;
        }
    }
}

/// Walks backwards from the `.` at `dot` collecting the receiver's
/// ident path (`a.b.c` → `["a","b","c"]`).
fn recv_path(src: &str, sig: &[Token], dot: usize) -> Vec<String> {
    let mut parts = Vec::new();
    let mut i = dot;
    loop {
        if i == 0 || text(src, sig, i) != "." {
            break;
        }
        let prev = i - 1;
        if kind(sig, prev) == Some(TokenKind::Ident) {
            parts.push(text(src, sig, prev).to_string());
            if prev == 0 {
                break;
            }
            i = prev - 1;
            if i == 0 && text(src, sig, i) != "." {
                break;
            }
        } else {
            // Chained call / index / literal receiver: unresolvable.
            return Vec::new();
        }
    }
    parts.reverse();
    parts
}

/// Reads the leading ident path of a call's first argument
/// (`&core.state` → `["core","state"]`). Empty when the first
/// argument is not a plain (optionally borrowed) path.
fn leading_arg_path(src: &str, sig: &[Token], lo: usize, hi: usize) -> Vec<String> {
    let mut i = lo;
    while i < hi && matches!(text(src, sig, i), "&" | "mut") {
        i += 1;
    }
    let mut parts = Vec::new();
    while i < hi && kind(sig, i) == Some(TokenKind::Ident) {
        parts.push(text(src, sig, i).to_string());
        if text(src, sig, i + 1) == "." && kind(sig, i + 2) == Some(TokenKind::Ident) {
            i += 2;
        } else {
            i += 1;
            break;
        }
    }
    // Only a *whole* first argument counts: `&a.b` then `)` or `,`.
    if parts.is_empty() || !matches!(text(src, sig, i), ")" | ",") {
        return Vec::new();
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> ParsedFile {
        let tokens = lex(src);
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
        parse(src, &sig)
    }

    #[test]
    fn finds_fns_in_impls_and_mods() {
        let src = "\
struct S { m: Mutex<u32> }
impl S { fn one(&self) {} }
impl Drop for S { fn drop(&mut self) {} }
mod inner { pub fn two() {} }
fn three() {}
";
        let p = parsed(src);
        let names: Vec<(&str, Option<&str>)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.self_ty.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("one", Some("S")),
                ("drop", Some("S")),
                ("two", None),
                ("three", None),
            ]
        );
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].fields[0].name, "m");
        assert_eq!(p.structs[0].fields[0].ty, vec!["Mutex", "<", "u32", ">"]);
    }

    #[test]
    fn statics_and_generic_fns() {
        let src = "\
static LOCK_A: Mutex<u32> = Mutex::new(0);
fn f<F: Fn() -> u32>(g: F) -> Option<u32> { Some(g()) }
";
        let p = parsed(src);
        assert_eq!(p.statics.len(), 1);
        assert_eq!(p.statics[0].name, "LOCK_A");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "f");
        assert_eq!(p.fns[0].ret, vec!["Option", "<", "u32", ">"]);
    }

    #[test]
    fn call_events_carry_receiver_and_arg_paths() {
        let src = "fn f(&self) { let g = self.shared.queue.lock(); lock_recover(&core.state); }";
        let p = parsed(src);
        let calls: Vec<&CallEvent> = p.fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(calls.len(), 2);
        assert!(calls[0].method);
        assert_eq!(calls[0].recv, vec!["self", "shared", "queue"]);
        assert!(calls[0].terminal);
        assert!(!calls[1].method);
        assert_eq!(calls[1].arg_path, vec!["core", "state"]);
    }

    #[test]
    fn let_bindings_and_statement_ends() {
        let src = "fn f() { let mut st = q.lock(); st.push(1); }";
        let p = parsed(src);
        let mut lets = 0;
        let mut stmts = 0;
        for e in &p.fns[0].events {
            match e {
                Event::Let { binding, .. } => {
                    assert_eq!(binding.as_deref(), Some("st"));
                    lets += 1;
                }
                Event::StmtEnd { .. } => stmts += 1,
                _ => {}
            }
        }
        assert_eq!(lets, 1);
        assert_eq!(stmts, 2);
    }

    #[test]
    fn closures_are_marked() {
        let src = "fn f() { spawn(move || { work(); }); xs.map(|x| x.lock()); a || b; }";
        let p = parsed(src);
        let mut brace_closures = 0;
        let mut expr_closures = 0;
        for e in &p.fns[0].events {
            match e {
                Event::Open {
                    opener: Opener::Closure,
                    ..
                } => brace_closures += 1,
                Event::ClosureStart { .. } => expr_closures += 1,
                _ => {}
            }
        }
        assert_eq!(brace_closures, 1);
        assert_eq!(expr_closures, 1, "{:?}", p.fns[0].events);
    }

    #[test]
    fn loop_openers_are_tagged() {
        let src = "fn f() { loop { while x { if y { } } } }";
        let p = parsed(src);
        let openers: Vec<Opener> = p.fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Open { opener, .. } => Some(*opener),
                _ => None,
            })
            .collect();
        assert_eq!(
            openers,
            vec![Opener::Plain, Opener::Loop, Opener::While, Opener::Plain]
        );
    }

    #[test]
    fn scopes_balance_on_well_formed_input() {
        let src = "fn f() { { a(); } match x { A => { b(); } _ => c(), } }";
        let p = parsed(src);
        let mut depth = 0isize;
        for e in &p.fns[0].events {
            match e {
                Event::Open { .. } => depth += 1,
                Event::Close { .. } => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
    }

    #[test]
    fn never_panics_on_garbage() {
        for src in [
            "fn f( {",
            "impl } {",
            "fn f() { | }",
            "struct S { x: , }",
            "static X",
            "fn f() { a.b.(); }",
            "fn f() { (|; }",
            "r#fn r#struct",
        ] {
            let _ = parsed(src);
        }
    }
}
