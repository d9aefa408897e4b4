//! A minimal Rust token lexer — just enough syntax awareness for reliable
//! static analysis without pulling in `syn` (the workspace builds with no
//! registry access, so the linter must be dependency-free).
//!
//! The lexer understands the parts of Rust that defeat naive `grep`-based
//! checks:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments,
//! * string literals with escapes, byte/C strings, and raw strings with
//!   arbitrary `#` fences (`r#"…"#`, `br##"…"##`),
//! * char literals vs. lifetimes (`'a'` vs. `'a`),
//! * raw identifiers (`r#type`).
//!
//! Everything else is emitted as identifier / punctuation / literal tokens
//! tagged with their 1-based source line, which is what the rules in
//! [`crate::rules`] pattern-match over. Comment *text* is not discarded
//! entirely: `lint:allow(rule-id)` directives are extracted so findings can
//! be suppressed at the use site (see [`Allow`]).

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// Token categories (only as fine-grained as the rules need).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unwrap`, `fn`, `r#type` → `type`).
    Ident(String),
    /// A single punctuation character (`.`, `!`, `{`, …).
    Punct(char),
    /// A string literal (any flavour); the payload is the literal's inner
    /// text, un-unescaped — sufficient for matching metric names.
    Str(String),
    /// A numeric or character literal (content irrelevant to the rules).
    Literal,
    /// A lifetime or loop label (`'a`, `'outer`).
    Lifetime,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// `true` if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// A `lint:allow(rule-id, …)` directive found in a comment. A directive
/// trailing code suppresses findings on its own line only; a directive on
/// a comment-only line also covers the line immediately after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    pub line: u32,
    pub rule: String,
    /// `true` when no code precedes the comment on its line (the directive
    /// then extends to the following line).
    pub own_line: bool,
}

/// Output of [`lex`]: the token stream plus extracted allow directives.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub allows: Vec<Allow>,
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Extracts `lint:allow(a, b)` directives from one comment's text.
fn scan_allows(comment: &str, line: u32, own_line: bool, allows: &mut Vec<Allow>) {
    let mut rest = comment;
    while let Some(at) = rest.find("lint:allow(") {
        rest = &rest[at + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else { return };
        for rule in rest[..close].split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                allows.push(Allow {
                    line,
                    rule: rule.to_string(),
                    own_line,
                });
            }
        }
        rest = &rest[close..];
    }
}

/// Lexes `src` into tokens. Unterminated constructs (string, comment) are
/// tolerated — the remainder of the file is swallowed into the open token,
/// which is the forgiving behaviour a linter wants on mid-edit files.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut out = Lexed::default();

    macro_rules! push {
        ($kind:expr, $line:expr) => {
            out.tokens.push(Token {
                kind: $kind,
                line: $line,
            })
        };
    }

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_ascii_whitespace() => i += 1,
            // Line comment (also doc comments).
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                let own_line = out.tokens.last().is_none_or(|t| t.line != line);
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                scan_allows(&src[start..i], line, own_line, &mut out.allows);
            }
            // Nested block comment.
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
                let own_line = out.tokens.last().is_none_or(|t| t.line != line);
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                scan_allows(&src[start..i], start_line, own_line, &mut out.allows);
            }
            // Lifetime, loop label, or char literal.
            b'\'' => {
                let start_line = line;
                match b.get(i + 1) {
                    Some(&n) if is_ident_start(n) => {
                        // 'a could be a lifetime ('a) or a char ('a').
                        let mut j = i + 1;
                        while j < b.len() && is_ident_continue(b[j]) {
                            j += 1;
                        }
                        if b.get(j) == Some(&b'\'') {
                            push!(TokenKind::Literal, start_line);
                            i = j + 1;
                        } else {
                            push!(TokenKind::Lifetime, start_line);
                            i = j;
                        }
                    }
                    Some(_) => {
                        // Char literal: scan to the closing quote, honouring
                        // backslash escapes ('\'', '\\', '\u{…}').
                        i += 1;
                        while i < b.len() {
                            match b[i] {
                                b'\\' => i += 2,
                                b'\'' => {
                                    i += 1;
                                    break;
                                }
                                b'\n' => {
                                    line += 1;
                                    i += 1;
                                }
                                _ => i += 1,
                            }
                        }
                        push!(TokenKind::Literal, start_line);
                    }
                    None => i += 1,
                }
            }
            b'"' => {
                let (inner, newlines, next) = scan_string(src, i + 1);
                push!(TokenKind::Str(inner), line);
                line += newlines;
                i = next;
            }
            _ if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                let word = &src[start..i];
                // String-literal prefixes and raw identifiers.
                match (word, b.get(i)) {
                    ("r" | "b" | "c" | "br" | "cr", Some(&b'"')) => {
                        let (inner, newlines, next) = scan_string(src, i + 1);
                        push!(TokenKind::Str(inner), line);
                        line += newlines;
                        i = next;
                    }
                    ("r" | "br" | "cr", Some(&b'#')) => {
                        let mut hashes = 0usize;
                        while b.get(i + hashes) == Some(&b'#') {
                            hashes += 1;
                        }
                        if b.get(i + hashes) == Some(&b'"') {
                            let (inner, newlines, next) =
                                scan_raw_string(src, i + hashes + 1, hashes);
                            push!(TokenKind::Str(inner), line);
                            line += newlines;
                            i = next;
                        } else if word == "r" && hashes == 1 {
                            // Raw identifier r#type.
                            let start = i + 1;
                            i += 1;
                            while i < b.len() && is_ident_continue(b[i]) {
                                i += 1;
                            }
                            push!(TokenKind::Ident(src[start..i].to_string()), line);
                        } else {
                            push!(TokenKind::Ident(word.to_string()), line);
                        }
                    }
                    ("b", Some(&b'\'')) => {
                        // Byte char literal b'x'.
                        i += 2;
                        while i < b.len() {
                            match b[i] {
                                b'\\' => i += 2,
                                b'\'' => {
                                    i += 1;
                                    break;
                                }
                                _ => i += 1,
                            }
                        }
                        push!(TokenKind::Literal, line);
                    }
                    _ => push!(TokenKind::Ident(word.to_string()), line),
                }
            }
            _ if c.is_ascii_digit() => {
                // Numeric literal: digits, alnum suffixes/exponents, one
                // fractional point, exponent signs (1_000, 0xFF, 1.5e-3).
                i += 1;
                loop {
                    if i >= b.len() {
                        break;
                    }
                    let d = b[i];
                    let fractional = d == b'.';
                    let exp_sign = (d == b'+' || d == b'-') && matches!(b[i - 1], b'e' | b'E');
                    if is_ident_continue(d) {
                        i += 1;
                    } else if (fractional || exp_sign)
                        && b.get(i + 1).is_some_and(u8::is_ascii_digit)
                    {
                        i += 2;
                    } else {
                        break;
                    }
                }
                push!(TokenKind::Literal, line);
            }
            _ => {
                // Multi-byte UTF-8 outside strings/comments can only be in
                // an (unusual) identifier; treat each byte as punctuation.
                push!(TokenKind::Punct(c as char), line);
                i += 1;
            }
        }
    }
    out
}

/// Scans a normal (escaped) string body starting at `start` (past the
/// opening quote). Returns `(inner_text, newlines_crossed, index_past_end)`.
fn scan_string(src: &str, start: usize) -> (String, u32, usize) {
    let b = src.as_bytes();
    let mut i = start;
    let mut newlines = 0u32;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => {
                return (src[start..i].to_string(), newlines, i + 1);
            }
            b'\n' => {
                newlines += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (src[start..].to_string(), newlines, b.len())
}

/// Scans a raw string body with a fence of `hashes` `#`s, starting past the
/// opening quote.
fn scan_raw_string(src: &str, start: usize, hashes: usize) -> (String, u32, usize) {
    let b = src.as_bytes();
    let mut i = start;
    let mut newlines = 0u32;
    while i < b.len() {
        if b[i] == b'"'
            && b[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&h| h == b'#')
                .count()
                == hashes
        {
            return (src[start..i].to_string(), newlines, i + 1 + hashes);
        }
        if b[i] == b'\n' {
            newlines += 1;
        }
        i += 1;
    }
    (src[start..].to_string(), newlines, b.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn comments_are_skipped_including_nested_blocks() {
        let src = "a // unwrap() in a comment\n/* outer /* inner unwrap() */ still */ b";
        assert_eq!(idents(src), ["a", "b"]);
    }

    #[test]
    fn strings_do_not_leak_tokens() {
        let src = r##"let s = "unwrap() \" quoted"; let r = r#"panic!(" inside "raw)"#; x"##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"panic".to_string()));
        assert!(ids.contains(&"x".to_string()));
    }

    #[test]
    fn string_contents_are_captured() {
        let toks = lex(r#"name("pager.page_reads")"#).tokens;
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Str("pager.page_reads".to_string())));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a u8) { let c = 'a'; let d = '\\''; }").tokens;
        let lifetimes = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 2);
    }

    #[test]
    fn byte_and_raw_strings() {
        let src = r###"let a = b"bytes"; let b2 = br#"raw "bytes""#; let c = b'x'; end"###;
        let ids = idents(src);
        assert!(ids.contains(&"end".to_string()));
        assert!(!ids.contains(&"bytes".to_string()));
    }

    #[test]
    fn raw_identifiers() {
        assert_eq!(idents("let r#type = 1;"), ["let", "type"]);
    }

    #[test]
    fn line_numbers_track_all_multiline_constructs() {
        let src = "a\n/* two\nlines */\n\"str\nstr\"\nb";
        let toks = lex(src).tokens;
        let b_tok = toks.iter().find(|t| t.ident() == Some("b")).unwrap();
        assert_eq!(b_tok.line, 6);
    }

    #[test]
    fn allow_directives_are_extracted() {
        let src = "x(); // lint:allow(untrusted-length, fs-outside-pager) reason\ny();";
        let lexed = lex(src);
        let rules: Vec<&str> = lexed.allows.iter().map(|a| a.rule.as_str()).collect();
        assert_eq!(rules, ["untrusted-length", "fs-outside-pager"]);
        assert_eq!(lexed.allows[0].line, 1);
    }

    #[test]
    fn numeric_literals_with_exponents_and_ranges() {
        // `0..n` must not swallow the range dots; 1.5e-3 is one literal.
        let ids = idents("for i in 0..n { let x = 1.5e-3; }");
        assert!(ids.contains(&"n".to_string()));
        let toks = lex("0..n").tokens;
        let dots = toks.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2);
    }
}
