//! A lossless, panic-free Rust lexer.
//!
//! The rule engine needs real tokens, not text matching: `HashMap`
//! inside a string literal or a doc comment must never trip a rule.
//! This lexer understands the parts of Rust's lexical grammar that
//! matter for that guarantee — raw strings with arbitrary `#` counts,
//! byte strings, nested block comments, char literals vs lifetimes,
//! raw identifiers, numeric literals with suffixes and exponents —
//! while staying permissive everywhere else: unknown bytes become
//! one-byte [`TokenKind::Unknown`] tokens instead of errors.
//!
//! Two invariants hold for every input (property-tested):
//!
//! 1. `lex` never panics;
//! 2. the produced spans tile the input exactly — token `i` ends
//!    where token `i + 1` starts, the first token starts at byte 0
//!    and the last ends at `src.len()`, and every boundary lies on a
//!    UTF-8 character boundary.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// A run of ASCII whitespace.
    Whitespace,
    /// `// …` to the end of the line (doc variants included).
    LineComment,
    /// `/* … */`, nesting tracked (doc variants included).
    BlockComment,
    /// An identifier or keyword, including raw identifiers (`r#match`).
    Ident,
    /// A lifetime or loop label: `'a` with no closing quote.
    Lifetime,
    /// A char or byte literal: `'a'`, `'\n'`, `b'x'`.
    Char,
    /// A string or byte-string literal: `"…"`, `b"…"`.
    Str,
    /// A raw (byte) string literal: `r"…"`, `r#"…"#`, `br##"…"##`.
    RawStr,
    /// A numeric literal, suffix included: `0x1F`, `1_000u64`, `1.5e-3`.
    Num,
    /// One ASCII punctuation byte (`::` is two `:` tokens).
    Punct,
    /// Anything the lexer does not recognize (consumed one char at a
    /// time so later tokens stay aligned).
    Unknown,
}

/// A half-open byte span `[start, end)` of the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Token {
    /// The token's text within `src`.
    ///
    /// Returns `""` if the span is out of bounds for `src` (only
    /// possible when pairing a token with the wrong source).
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }
}

/// Tokenizes `src` completely. Never panics; see the module docs for
/// the span-tiling invariant.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        b: src.as_bytes(),
        pos: 0,
    }
    .run()
}

/// Maps byte offsets to 1-based line numbers.
#[derive(Debug, Clone)]
pub struct LineIndex {
    /// Byte offset of the start of each line.
    starts: Vec<usize>,
}

impl LineIndex {
    /// Builds the index for `src`.
    pub fn new(src: &str) -> Self {
        let mut starts = vec![0usize];
        for (i, byte) in src.bytes().enumerate() {
            if byte == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { starts }
    }

    /// 1-based line containing byte `offset` (offsets past the end
    /// map to the last line).
    pub fn line_of(&self, offset: usize) -> usize {
        match self.starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }
}

struct Lexer<'a> {
    b: &'a [u8],
    pos: usize,
}

fn is_ident_start(byte: u8) -> bool {
    byte.is_ascii_alphabetic() || byte == b'_' || byte >= 0x80
}

fn is_ident_cont(byte: u8) -> bool {
    byte.is_ascii_alphanumeric() || byte == b'_' || byte >= 0x80
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Token> {
        let mut out = Vec::new();
        while self.pos < self.b.len() {
            let start = self.pos;
            let kind = self.next_kind();
            debug_assert!(self.pos > start, "lexer must always advance");
            if self.pos == start {
                // Defensive: never loop forever, even on a logic bug.
                self.pos += 1;
            }
            out.push(Token {
                kind,
                start,
                end: self.pos,
            });
        }
        out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.pos + ahead).copied()
    }

    fn starts_with(&self, at: usize, needle: &[u8]) -> bool {
        self.b[at..].starts_with(needle)
    }

    fn next_kind(&mut self) -> TokenKind {
        let c = self.b[self.pos];
        match c {
            b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c => {
                while self
                    .peek(0)
                    .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c))
                {
                    self.pos += 1;
                }
                TokenKind::Whitespace
            }
            b'/' if self.peek(1) == Some(b'/') => {
                while self.peek(0).is_some_and(|c| c != b'\n') {
                    self.pos += 1;
                }
                TokenKind::LineComment
            }
            b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
            b'r' => self.maybe_raw(0),
            b'b' => match self.peek(1) {
                Some(b'\'') => {
                    self.pos += 1;
                    self.char_or_lifetime()
                }
                Some(b'"') => {
                    self.pos += 1;
                    self.string()
                }
                Some(b'r') => self.maybe_raw(1),
                _ => self.ident(),
            },
            b'\'' => self.char_or_lifetime(),
            b'"' => self.string(),
            c if c.is_ascii_digit() => self.number(),
            c if is_ident_start(c) => self.ident(),
            c if c.is_ascii_graphic() => {
                self.pos += 1;
                TokenKind::Punct
            }
            _ => {
                // Stray control byte: consume exactly one byte (ASCII,
                // so character boundaries are preserved).
                self.pos += 1;
                TokenKind::Unknown
            }
        }
    }

    fn block_comment(&mut self) -> TokenKind {
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.b.len() && depth > 0 {
            if self.starts_with(self.pos, b"/*") {
                depth += 1;
                self.pos += 2;
            } else if self.starts_with(self.pos, b"*/") {
                depth -= 1;
                self.pos += 2;
            } else {
                self.pos += 1;
            }
        }
        TokenKind::BlockComment
    }

    /// At `r` (or `br` with `extra == 1`): raw string, raw identifier,
    /// or a plain identifier starting with that letter.
    fn maybe_raw(&mut self, extra: usize) -> TokenKind {
        let mut probe = self.pos + 1 + extra;
        let mut hashes = 0usize;
        while self.b.get(probe) == Some(&b'#') {
            hashes += 1;
            probe += 1;
        }
        match self.b.get(probe) {
            Some(b'"') => {
                self.pos = probe + 1;
                self.raw_string_body(hashes)
            }
            // `r#ident` raw identifier (only for `r`, not `br`).
            Some(&c) if extra == 0 && hashes == 1 && is_ident_start(c) => {
                self.pos = probe;
                self.ident()
            }
            _ => self.ident(),
        }
    }

    fn raw_string_body(&mut self, hashes: usize) -> TokenKind {
        while self.pos < self.b.len() {
            if self.b[self.pos] == b'"' {
                let tail = &self.b[self.pos + 1..];
                if tail.len() >= hashes && tail[..hashes].iter().all(|&c| c == b'#') {
                    self.pos += 1 + hashes;
                    return TokenKind::RawStr;
                }
            }
            self.pos += 1;
        }
        TokenKind::RawStr // unterminated: runs to end of input
    }

    fn string(&mut self) -> TokenKind {
        self.pos += 1; // opening quote
        while let Some(c) = self.peek(0) {
            self.pos += 1;
            match c {
                b'"' => return TokenKind::Str,
                // Skip the escaped byte; escape characters are ASCII,
                // and a quote can never be a UTF-8 continuation byte,
                // so byte-wise scanning is safe.
                b'\\' if self.pos < self.b.len() => self.pos += 1,
                _ => {}
            }
        }
        TokenKind::Str // unterminated
    }

    /// At a `'`: decide between a char literal and a lifetime.
    fn char_or_lifetime(&mut self) -> TokenKind {
        let quote = self.pos;
        self.pos += 1;
        match self.peek(0) {
            None => TokenKind::Unknown,
            Some(b'\\') => {
                // Escaped char literal: skip the escaped character,
                // then scan to the closing quote.
                self.pos += 1;
                if self.pos < self.b.len() {
                    self.pos += 1;
                }
                while let Some(c) = self.peek(0) {
                    self.pos += 1;
                    match c {
                        b'\'' => return TokenKind::Char,
                        b'\\' if self.pos < self.b.len() => self.pos += 1,
                        b'\n' => {
                            // A newline inside a char literal means it
                            // was really something else; back off to
                            // just the quote.
                            self.pos -= 1;
                            break;
                        }
                        _ => {}
                    }
                }
                self.pos = quote + 1;
                TokenKind::Unknown
            }
            Some(c) if is_ident_start(c) || c.is_ascii_digit() => {
                let mut probe = self.pos;
                while probe < self.b.len() && is_ident_cont(self.b[probe]) {
                    probe += 1;
                }
                if self.b.get(probe) == Some(&b'\'') {
                    self.pos = probe + 1;
                    TokenKind::Char
                } else {
                    self.pos = probe;
                    TokenKind::Lifetime
                }
            }
            Some(_) => {
                // `'x'` for punctuation-like x (e.g. `' '` handled by
                // whitespace? no — a quoted space lands here too).
                let next_char_end = self.char_end(self.pos);
                if self.b.get(next_char_end) == Some(&b'\'') {
                    self.pos = next_char_end + 1;
                    TokenKind::Char
                } else {
                    TokenKind::Unknown // lone quote
                }
            }
        }
    }

    /// End of the UTF-8 character starting at `at`.
    fn char_end(&self, at: usize) -> usize {
        let mut end = at + 1;
        while end < self.b.len() && (self.b[end] & 0xC0) == 0x80 {
            end += 1;
        }
        end
    }

    fn ident(&mut self) -> TokenKind {
        self.pos += 1;
        while self.peek(0).is_some_and(is_ident_cont) {
            self.pos += 1;
        }
        TokenKind::Ident
    }

    fn number(&mut self) -> TokenKind {
        let radix_prefixed = self.b[self.pos] == b'0'
            && matches!(self.peek(1), Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B'));
        self.pos += 1;
        let mut seen_dot = false;
        while let Some(c) = self.peek(0) {
            if is_ident_cont(c) {
                self.pos += 1;
            } else if c == b'.' && !seen_dot {
                match self.peek(1) {
                    // `1..2` is a range, `1.method()` a call.
                    Some(b'.') => break,
                    Some(n) if is_ident_start(n) => break,
                    _ => {
                        seen_dot = true;
                        self.pos += 1;
                    }
                }
            } else if (c == b'+' || c == b'-')
                && !radix_prefixed
                && matches!(self.b.get(self.pos.wrapping_sub(1)), Some(b'e' | b'E'))
                && self.peek(1).is_some_and(|n| n.is_ascii_digit())
            {
                // Exponent sign of a decimal float: `1.5e-3`.
                self.pos += 1;
            } else {
                break;
            }
        }
        TokenKind::Num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind != TokenKind::Whitespace)
            .map(|t| (t.kind, t.text(src)))
            .collect()
    }

    fn tiles(src: &str) {
        let tokens = lex(src);
        let mut at = 0usize;
        for t in &tokens {
            assert_eq!(t.start, at, "gap before {t:?} in {src:?}");
            assert!(t.end > t.start, "empty token {t:?} in {src:?}");
            assert!(src.is_char_boundary(t.start) && src.is_char_boundary(t.end));
            at = t.end;
        }
        assert_eq!(at, src.len(), "coverage of {src:?}");
    }

    #[test]
    fn raw_strings_with_hashes_do_not_leak_contents() {
        let src = r####"let s = r#"an "unwrap()" inside"#; s.len()"####;
        let toks = kinds(src);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::RawStr && t.contains("unwrap")));
        // The unwrap text must not surface as an identifier.
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && *t == "unwrap"));
        tiles(src);
    }

    #[test]
    fn raw_strings_respect_hash_counts() {
        let src = r###"r##"has "# inside"## trailing"###;
        let toks = kinds(src);
        assert_eq!(toks[0].0, TokenKind::RawStr);
        assert_eq!(toks[0].1, r###"r##"has "# inside"##"###);
        assert_eq!(toks[1], (TokenKind::Ident, "trailing"));
        tiles(src);
    }

    #[test]
    fn byte_and_raw_byte_strings_lex_as_literals() {
        let src = r##"b"bytes" br#"raw bytes"# b'x'"##;
        let toks = kinds(src);
        assert_eq!(toks[0].0, TokenKind::Str);
        assert_eq!(toks[1].0, TokenKind::RawStr);
        assert_eq!(toks[2].0, TokenKind::Char);
        tiles(src);
    }

    #[test]
    fn nested_block_comments_close_at_matching_depth() {
        let src = "/* outer /* inner */ still a comment */ ident";
        let toks = kinds(src);
        assert_eq!(toks[0].0, TokenKind::BlockComment);
        assert_eq!(toks[1], (TokenKind::Ident, "ident"));
        tiles(src);
    }

    #[test]
    fn unterminated_block_comment_consumes_the_rest() {
        let src = "/* /* */ never closed";
        let toks = kinds(src);
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].0, TokenKind::BlockComment);
        tiles(src);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'a' }";
        let toks = kinds(src);
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|(_, t)| *t == "'a"));
        assert_eq!(chars, vec![&(TokenKind::Char, "'a'")]);
        tiles(src);
    }

    #[test]
    fn escaped_char_literals_lex_fully() {
        for src in ["'\\n'", "'\\''", "'\\\\'", "'\\u{1F600}'", "b'\\xFF'"] {
            let toks = kinds(src);
            assert_eq!(toks.len(), 1, "{src:?} → {toks:?}");
            assert_eq!(toks[0].0, TokenKind::Char, "{src:?}");
            tiles(src);
        }
    }

    #[test]
    fn static_lifetime_and_loop_labels() {
        let src = "&'static str; 'outer: loop { break 'outer; }";
        let toks = kinds(src);
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(lifetimes, vec!["'static", "'outer", "'outer"]);
        tiles(src);
    }

    #[test]
    fn raw_identifiers_stay_identifiers() {
        let src = "let r#match = r#fn; r#\"but this is a string\"#";
        let toks = kinds(src);
        assert_eq!(toks[1], (TokenKind::Ident, "r#match"));
        assert_eq!(toks[3], (TokenKind::Ident, "r#fn"));
        assert_eq!(toks[5].0, TokenKind::RawStr);
        tiles(src);
    }

    #[test]
    fn numbers_with_suffixes_dots_and_exponents() {
        let toks = kinds("1_000u64");
        assert_eq!(toks, vec![(TokenKind::Num, "1_000u64")]);
        let toks = kinds("0x1F_ffu32");
        assert_eq!(toks, vec![(TokenKind::Num, "0x1F_ffu32")]);
        let toks = kinds("1.5e-3");
        assert_eq!(toks, vec![(TokenKind::Num, "1.5e-3")]);
        let toks = kinds("0x1E+3");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Num, "0x1E"),
                (TokenKind::Punct, "+"),
                (TokenKind::Num, "3")
            ]
        );
        let toks = kinds("1..2");
        assert_eq!(toks[0], (TokenKind::Num, "1"));
        assert_eq!(toks[3], (TokenKind::Num, "2"));
        let toks = kinds("1.min(2)");
        assert_eq!(toks[0], (TokenKind::Num, "1"));
        assert_eq!(toks[2], (TokenKind::Ident, "min"));
        for src in [
            "1_000u64", "1.5e-3", "1..2", "1.min(2)", "0x1E+3", "1.", "2E+10",
        ] {
            tiles(src);
        }
    }

    #[test]
    fn strings_with_escapes_hide_their_contents() {
        let src = r#"let s = "say \"unwrap()\" and \\"; HashMap"#;
        let toks = kinds(src);
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && *t == "unwrap"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && *t == "HashMap"));
        tiles(src);
    }

    #[test]
    fn line_comments_and_doc_comments_end_at_newline() {
        let src = "/// doc unwrap()\n//! inner\ncode";
        let toks = kinds(src);
        assert_eq!(toks[0].0, TokenKind::LineComment);
        assert_eq!(toks[1].0, TokenKind::LineComment);
        assert_eq!(toks[2], (TokenKind::Ident, "code"));
        tiles(src);
    }

    #[test]
    fn degenerate_inputs_never_panic() {
        for src in [
            "",
            "'",
            "\"",
            "r#\"",
            "/*",
            "b",
            "br",
            "r",
            "0x",
            "'\\",
            "\u{1F600}",
            "'a",
            "#![x]",
            "\\",
            "r#",
            "br#",
            "'''",
            "\"\\",
            "1e",
            "1e+",
        ] {
            tiles(src);
        }
    }

    #[test]
    fn line_index_maps_offsets() {
        let idx = LineIndex::new("ab\ncd\n\nef");
        assert_eq!(idx.line_of(0), 1);
        assert_eq!(idx.line_of(2), 1);
        assert_eq!(idx.line_of(3), 2);
        assert_eq!(idx.line_of(6), 3);
        assert_eq!(idx.line_of(7), 4);
        assert_eq!(idx.line_of(100), 4);
    }
}
