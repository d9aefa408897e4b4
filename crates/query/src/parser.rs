//! Recursive-descent parser for the classic approXQL syntax.
//!
//! Grammar (with `and` binding tighter than `or`):
//!
//! ```text
//! query   := step
//! step    := NAME [ '[' expr ']' ]
//! expr    := andexpr ( 'or' andexpr )*
//! andexpr := primary ( 'and' primary )*
//! primary := '(' expr ')' | step | STRING
//! ```
//!
//! Nesting — brackets and parentheses — is bounded by [`MAX_DEPTH`]: the
//! parser recurses once per level, and a query is an argument anybody can
//! make 30,000 levels deep. How many selectors a query may have is
//! bounded by [`MAX_SELECTORS`], checked where the classic and JSON-IR
//! parses meet ([`crate::Surface::parse`]).
//!
//! String literals are normalized with the same word splitting as document
//! text (Section 4); a multi-word literal like `"piano concerto"` becomes
//! `"piano" and "concerto"`.

use crate::ast::{Query, QueryNode};
use crate::lexer::{tokenize, Spanned, Token};
use approxql_tree::text::split_words;
use std::fmt;

/// A syntax error with the position where it was detected and a rendered
/// caret snippet pointing into the offending source line.
///
/// Both query surfaces (classic and JSON query-IR) report failures
/// through this type, so every front-end error carries a
/// line/column and a `^` marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the query string.
    pub offset: usize,
    /// 1-based line of the error.
    pub line: usize,
    /// 1-based column (in characters) of the error within its line.
    pub col: usize,
    /// Description of the problem.
    pub message: String,
    /// The source line containing the error (caret snippet body).
    pub snippet: String,
}

impl ParseError {
    /// Builds an error pointing at `offset` (a byte position) in `input`,
    /// deriving the line/column and the snippet line.
    pub fn at_offset(input: &str, offset: usize, message: impl Into<String>) -> ParseError {
        let offset = offset.min(input.len());
        let line_start = input[..offset].rfind('\n').map_or(0, |i| i + 1);
        let line_end = input[offset..]
            .find('\n')
            .map_or(input.len(), |i| offset + i);
        ParseError {
            offset,
            line: input[..offset].matches('\n').count() + 1,
            col: input[line_start..offset].chars().count() + 1,
            message: message.into(),
            snippet: input[line_start..line_end].to_owned(),
        }
    }

    /// Builds an error from a 1-based line/column pair (as reported by the
    /// JSON reader), deriving the byte offset and the snippet line.
    pub fn at_line_col(
        input: &str,
        line: usize,
        col: usize,
        message: impl Into<String>,
    ) -> ParseError {
        let line_start = input
            .split_inclusive('\n')
            .take(line.saturating_sub(1))
            .map(str::len)
            .sum::<usize>();
        let within: usize = input[line_start..]
            .chars()
            .take(col.saturating_sub(1))
            .map(char::len_utf8)
            .sum();
        ParseError::at_offset(input, line_start + within, message)
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query syntax error at line {}, column {}: {}",
            self.line, self.col, self.message
        )?;
        write!(
            f,
            "\n  {}\n  {:>caret$}",
            self.snippet,
            "^",
            caret = self.col
        )
    }
}

impl std::error::Error for ParseError {}

/// `a and b and …`, left-associated; `None` without an operand.
fn conjoin(parts: impl IntoIterator<Item = QueryNode>) -> Option<QueryNode> {
    parts
        .into_iter()
        .reduce(|acc, next| QueryNode::And(Box::new(acc), Box::new(next)))
}

/// How deep a query may nest. Far beyond any schema's depth, far below
/// what the recursive descent (and everything that later walks the
/// pattern) has stack for.
pub const MAX_DEPTH: usize = 256;

/// How many selectors (name and text selectors, each word of a string
/// literal counted) a query may have. Far beyond any query a person
/// writes or the workloads run; without a bound, the memory the
/// schema-driven evaluator takes grows with the square of a long
/// conjunction's length (1.5 GB for 20,000 conjuncts). Checked by
/// [`crate::Surface::parse`], where both spellings meet.
pub const MAX_SELECTORS: usize = 1024;

/// The recursive-descent parser.
struct Parser<'a> {
    input: &'a str,
    tokens: Vec<Spanned>,
    pos: usize,
    /// Open `[` and `(` around the current token.
    depth: usize,
}

impl Parser<'_> {
    /// The whole of `input` as one `step`.
    fn parse(input: &str) -> Result<Query, ParseError> {
        let tokens =
            tokenize(input).map_err(|e| ParseError::at_offset(input, e.offset, e.message))?;
        let mut p = Parser {
            input,
            tokens,
            pos: 0,
            depth: 0,
        };
        let root = p.step()?;
        if p.peek().is_some() {
            return Err(p.err("unexpected trailing input after the query"));
        }
        Ok(Query { root })
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    /// An error at the current token (or at the end of the input).
    fn err(&self, message: impl Into<String>) -> ParseError {
        let offset = self.tokens.get(self.pos).map(|s| s.offset);
        ParseError::at_offset(self.input, offset.unwrap_or(self.input.len()), message)
    }

    fn expected(&self, what: impl fmt::Display) -> ParseError {
        match self.peek() {
            Some(t) => self.err(format!("expected {what}, found {t}")),
            None => self.err(format!("expected {what}, found end of query")),
        }
    }

    fn expect(&mut self, want: &Token) -> Result<(), ParseError> {
        if self.peek() != Some(want) {
            return Err(self.expected(want));
        }
        self.pos += 1;
        Ok(())
    }

    /// Steps over the token that opens a nesting level — `[` or `(` — and
    /// parses what stands inside it, unless the token is one level too
    /// deep.
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<QueryNode, ParseError>,
    ) -> Result<QueryNode, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("query nests deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        let node = inner(self);
        self.depth -= 1;
        node
    }

    /// `step := NAME [ '[' expr ']' ]`
    fn step(&mut self) -> Result<QueryNode, ParseError> {
        let Some(Token::Name(label)) = self.peek().cloned() else {
            return Err(self.expected("a name selector"));
        };
        self.pos += 1;
        let mut child = None;
        if self.peek() == Some(&Token::LBracket) {
            child = Some(Box::new(self.nested(Self::expr)?));
            self.expect(&Token::RBracket)?;
        }
        Ok(QueryNode::Name { label, child })
    }

    /// `primary := '(' expr ')' | step | STRING` — a string literal becomes
    /// one or more `and`-connected text selectors.
    fn primary(&mut self) -> Result<QueryNode, ParseError> {
        match self.peek() {
            Some(Token::LParen) => {
                let e = self.nested(Self::expr)?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Str(raw)) => {
                let words = split_words(raw).into_iter();
                let node = conjoin(words.map(|word| QueryNode::Text { word }))
                    .ok_or_else(|| self.err(format!("text selector \"{raw}\" contains no word")))?;
                self.pos += 1;
                Ok(node)
            }
            Some(Token::Name(_)) => self.step(),
            _ => Err(self.expected("a selector")),
        }
    }

    /// `andexpr := primary ( 'and' primary )*`
    fn andexpr(&mut self) -> Result<QueryNode, ParseError> {
        let mut node = self.primary()?;
        while self.peek() == Some(&Token::And) {
            self.pos += 1;
            let rhs = self.primary()?;
            node = QueryNode::And(Box::new(node), Box::new(rhs));
        }
        Ok(node)
    }

    /// `expr := andexpr ( 'or' andexpr )*`
    fn expr(&mut self) -> Result<QueryNode, ParseError> {
        let mut node = self.andexpr()?;
        while self.peek() == Some(&Token::Or) {
            self.pos += 1;
            let rhs = self.andexpr()?;
            node = QueryNode::Or(Box::new(node), Box::new(rhs));
        }
        Ok(node)
    }
}

/// Parses an approXQL query string.
///
/// ```
/// use approxql_query::parse_query;
/// let q = parse_query(r#"cd[title["piano" and "concerto"]]"#).unwrap();
/// assert_eq!(q.root_label(), "cd");
/// assert_eq!(q.selector_count(), 4);
/// ```
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    Parser::parse(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Surface;

    #[test]
    fn parses_paper_query() {
        let q = parse_query(r#"cd[title["piano" and "concerto"] and composer["rachmaninov"]]"#)
            .unwrap();
        assert_eq!(q.root_label(), "cd");
        assert_eq!(q.selector_count(), 6);
        assert_eq!(q.or_count(), 0);
    }

    #[test]
    fn parses_paper_or_query() {
        let q = parse_query(
            r#"cd[title["piano" and ("concerto" or "sonata")] and (composer["rachmaninov"] or performer["ashkenazy"])]"#,
        )
        .unwrap();
        assert_eq!(q.or_count(), 2);
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let q = parse_query(r#"a["x" and "y" or "z"]"#).unwrap();
        match &q.root {
            QueryNode::Name { child: Some(c), .. } => match c.as_ref() {
                QueryNode::Or(l, _) => assert!(matches!(l.as_ref(), QueryNode::And(_, _))),
                other => panic!("expected Or at top, got {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parens_override_precedence() {
        let q = parse_query(r#"a["x" and ("y" or "z")]"#).unwrap();
        match &q.root {
            QueryNode::Name { child: Some(c), .. } => {
                assert!(matches!(c.as_ref(), QueryNode::And(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bare_name_is_a_valid_query() {
        let q = parse_query("cd").unwrap();
        assert_eq!(q.selector_count(), 1);
    }

    #[test]
    fn name_leaf_inside_query() {
        // query pattern 3 ends with `… and name]`
        let q = parse_query("cd[title and composer]").unwrap();
        assert_eq!(q.selector_count(), 3);
    }

    #[test]
    fn multiword_literal_splits_into_and() {
        let q = parse_query(r#"cd[title["Piano Concerto No. 2"]]"#).unwrap();
        // piano, concerto, no, 2 -> 4 text selectors
        assert_eq!(q.selector_count(), 2 + 4);
        assert_eq!(
            format!("{q}"),
            r#"cd[title["piano" and "concerto" and "no" and "2"]]"#
        );
    }

    #[test]
    fn display_roundtrips() {
        for src in [
            r#"cd[title["piano" and "concerto"] and composer["rachmaninov"]]"#,
            r#"cd[title["piano" and ("concerto" or "sonata")]]"#,
            r#"a[b or c and d]"#,
            "cd",
        ] {
            let q = parse_query(src).unwrap();
            let rendered = format!("{q}");
            let q2 = parse_query(&rendered).unwrap();
            assert_eq!(q, q2, "roundtrip failed for {src}: rendered {rendered}");
        }
    }

    #[test]
    fn rejects_text_rooted_query() {
        assert!(parse_query(r#""piano""#).is_err());
    }

    #[test]
    fn rejects_empty_query() {
        assert!(parse_query("").is_err());
        assert!(parse_query("   ").is_err());
    }

    #[test]
    fn rejects_unbalanced_brackets() {
        assert!(parse_query("cd[title").is_err());
        assert!(parse_query("cd]").is_err());
        assert!(parse_query("cd[(a]").is_err());
    }

    #[test]
    fn rejects_empty_text_selector() {
        let err = parse_query(r#"cd["--"]"#).unwrap_err();
        assert!(err.message.contains("no word"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let err = parse_query("cd dvd").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn rejects_operators_without_operands() {
        assert!(parse_query("cd[and]").is_err());
        assert!(parse_query("cd[a and]").is_err());
        assert!(parse_query("cd[or b]").is_err());
    }

    #[test]
    fn error_offsets_point_at_problem() {
        let err = parse_query("cd[a and ]").unwrap_err();
        assert_eq!(err.offset, 9);
        assert_eq!((err.line, err.col), (1, 10));
        // A query that does not start with a name: the caret is at the
        // token the message names, not one token later.
        let err = parse_query("\"piano\" and cd").unwrap_err();
        assert_eq!(err.message, "expected a name selector, found \"piano\"");
        assert_eq!(err.offset, 0);
        assert_eq!(parse_query("[x]").unwrap_err().offset, 0);
    }

    #[test]
    fn errors_render_a_caret_snippet() {
        let err = parse_query("cd[a and ]").unwrap_err();
        let rendered = err.to_string();
        assert!(
            rendered.starts_with("query syntax error at line 1, column 10:"),
            "{rendered}"
        );
        assert!(
            rendered.ends_with("\n  cd[a and ]\n           ^"),
            "{rendered}"
        );
    }

    #[test]
    fn errors_locate_later_lines() {
        let err = parse_query("cd[\n  a and\n]").unwrap_err();
        assert_eq!((err.line, err.col), (3, 1));
        assert_eq!(err.snippet, "]");
        let same = ParseError::at_line_col("cd[\n  a and\n]", 3, 1, "x");
        assert_eq!((same.offset, same.line, same.col), (err.offset, 3, 1));
    }

    #[test]
    fn end_of_input_errors_point_past_the_last_char() {
        let err = parse_query("cd[a").unwrap_err();
        assert_eq!(err.offset, 4);
        assert_eq!(err.col, 5);
        assert!(err.to_string().ends_with("\n  cd[a\n      ^"), "{err}");
    }

    /// `levels` names, each in the brackets of the one before.
    fn nested(levels: usize) -> String {
        format!("{}a{}", "a[".repeat(levels), "]".repeat(levels))
    }

    #[test]
    fn nesting_is_bounded_at_the_bracket_that_goes_too_deep() {
        parse_query(&nested(MAX_DEPTH)).unwrap();
        let err = parse_query(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.message, "query nests deeper than 256 levels");
        // The caret stands on the 257th `[`.
        assert_eq!(
            (err.offset, err.col),
            (2 * MAX_DEPTH + 1, 2 * MAX_DEPTH + 2)
        );
        // Parentheses are levels like any other.
        let parens = |n: usize| format!("a[{}b{}]", "(".repeat(n), ")".repeat(n));
        parse_query(&parens(MAX_DEPTH - 1)).unwrap();
        let err = parse_query(&parens(MAX_DEPTH)).unwrap_err();
        assert_eq!(err.offset, 2 + MAX_DEPTH - 1);
        // What used to abort the process: 60 KB of open brackets.
        let started = std::time::Instant::now();
        let err = parse_query(&"a[".repeat(30_000)).unwrap_err();
        assert!(err.message.contains("deeper than"), "{}", err.message);
        assert!(started.elapsed().as_secs() < 5);
    }

    /// `a[b and … and b]` with `selectors` selectors, in both spellings.
    fn conjunction(selectors: usize) -> [(Surface, String); 2] {
        let classic = format!("a[{}]", vec!["b"; selectors - 1].join(" and "));
        let json = format!(
            r#"{{"v":1,"query":{{"name":"a","child":{{"and":[{}]}}}}}}"#,
            vec![r#"{"name":"b"}"#; selectors - 1].join(",")
        );
        [(Surface::Classic, classic), (Surface::Json, json)]
    }

    #[test]
    fn size_is_bounded_at_the_selector_that_goes_over() {
        for (surface, text) in conjunction(MAX_SELECTORS) {
            let q = surface.parse(&text).unwrap();
            assert_eq!(q.selector_count(), MAX_SELECTORS, "{surface}");
        }
        for (surface, text) in conjunction(MAX_SELECTORS + 1) {
            let err = surface.parse(&text).unwrap_err();
            assert_eq!(
                err.message, "query has 1025 selectors, more than 1024",
                "{surface}"
            );
            assert_eq!((err.offset, err.col), (0, 1), "{surface}");
        }
        // Each word of a string literal is a selector.
        let words = |n: usize| format!(r#"a["{}"]"#, vec!["w"; n].join(" "));
        Surface::Classic.parse(&words(MAX_SELECTORS - 1)).unwrap();
        Surface::Classic.parse(&words(MAX_SELECTORS)).unwrap_err();
        let text = |n: usize| {
            format!(
                r#"{{"v":1,"query":{{"name":"a","child":{{"text":"{}"}}}}}}"#,
                vec!["w"; n].join(" ")
            )
        };
        Surface::Json.parse(&text(MAX_SELECTORS - 1)).unwrap();
        Surface::Json.parse(&text(MAX_SELECTORS)).unwrap_err();
    }
}
