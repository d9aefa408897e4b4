//! The XPath-lite navigational surface.
//!
//! A navigational spelling of approXQL tree patterns, for users coming
//! from XPath. It is parsed by the one parser (`crate::parser`) with its
//! path `step` production switched on; the expression grammar inside a
//! predicate is the classic one:
//!
//! ```text
//! query   := sep step                        (absolute paths only)
//! sep     := '/' | '//'
//! step    := NAME pred* ( sep step )?
//! pred    := '[' expr ']'
//! expr    := andexpr ( 'or' andexpr )*
//! andexpr := primary ( 'and' primary )*
//! primary := '(' expr ')' | step | STRING
//! ```
//!
//! A step is a name selector whose containment expression conjoins the
//! step's predicates (in source order) with the rest of the path — for
//! one predicate and no path tail exactly the classic `NAME '[' expr ']'`.
//! `/a//b[c]` is `a[b[c]]`, and `/a[x]["y"]` is `a[x and "y"]`.
//!
//! **`/` and `//` are synonyms here.** approXQL containment is
//! ancestor–descendant embedding (Section 3 of the paper) — the query
//! `a[b]` already matches `b` at any depth below `a`, with insertions
//! charged by the cost model rather than forbidden. A strict child axis
//! would need a new edge type in the expanded representation; until
//! then, both separators lower to the same containment edge, and `//` is
//! the faithful spelling. Results keep approXQL semantics: hits are
//! images of the *root* step, ranked by embedding cost (not the last
//! step, as in XPath).

use crate::ast::Query;
use crate::parser::{ParseError, Parser};
use std::fmt::Write as _;

/// Parses an XPath-lite query.
///
/// ```
/// use approxql_query::{parse_query, parse_xpath_query};
/// let x = parse_xpath_query(r#"/cd//title["piano"]"#).unwrap();
/// assert_eq!(x, parse_query(r#"cd[title["piano"]]"#).unwrap());
/// ```
pub fn parse_xpath_query(input: &str) -> Result<Query, ParseError> {
    Parser::parse(input, true)
}

impl Query {
    /// Emits the canonical XPath-lite form: a single root step whose
    /// predicate is the classic rendering of the containment expression
    /// (the classic expression grammar is a subset of the predicate
    /// grammar, so the result reparses — see the round-trip tests).
    pub fn to_xpath(&self) -> String {
        let mut out = String::from("/");
        let _ = write!(out, "{}", self.root);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn same(xpath: &str, classic: &str) {
        let x = parse_xpath_query(xpath).unwrap().normalize();
        let c = parse_query(classic).unwrap().normalize();
        assert_eq!(x, c, "{xpath} != {classic}");
    }

    #[test]
    fn steps_desugar_to_containment() {
        same("/cd", "cd");
        same("/cd//title", "cd[title]");
        same("/cd/title", "cd[title]"); // `/` and `//` are synonyms
        same(r#"/a//b[c]"#, "a[b[c]]");
        same(r#"/cd//title["piano"]"#, r#"cd[title["piano"]]"#);
    }

    #[test]
    fn predicates_conjoin_in_source_order() {
        same(r#"/a[x]["y"]"#, r#"a[x and "y"]"#);
        same(r#"/a[x]//b"#, "a[x and b]");
        same(r#"/a[x][y]//b["z"]"#, r#"a[x and y and b["z"]]"#);
    }

    #[test]
    fn predicate_expressions_match_classic_semantics() {
        same(
            r#"/cd[title["piano" and "concerto"] and composer["rachmaninov"]]"#,
            r#"cd[title["piano" and "concerto"] and composer["rachmaninov"]]"#,
        );
        same(r#"/a["x" and "y" or "z"]"#, r#"a["x" and "y" or "z"]"#);
        same(r#"/a["x" and ("y" or "z")]"#, r#"a["x" and ("y" or "z")]"#);
        same(
            r#"/cd[tracks/track["vivace"]]"#,
            r#"cd[tracks[track["vivace"]]]"#,
        );
        same(
            r#"/cd[title["Piano Concerto No. 2"]]"#,
            r#"cd[title["Piano Concerto No. 2"]]"#,
        );
    }

    #[test]
    fn to_xpath_round_trips() {
        for src in [
            r#"cd[title["piano" and "concerto"] and composer["rachmaninov"]]"#,
            r#"cd[title["piano" and ("concerto" or "sonata")]]"#,
            r#"a[b or c and d]"#,
            "cd",
        ] {
            let q = parse_query(src).unwrap().normalize();
            let xp = q.to_xpath();
            assert_eq!(
                parse_xpath_query(&xp).unwrap().normalize(),
                q,
                "round-trip failed: {xp}"
            );
        }
    }

    #[test]
    fn rejects_relative_and_malformed_paths() {
        for (src, needle) in [
            ("cd", "absolute path"),
            ("", "absolute path"),
            ("/", "step name"),
            ("//", "step name"),
            ("/cd/", "step name"),
            (r#"/"piano""#, "step name"),
            ("/cd[", "selector"),
            ("/cd[a and ]", "selector"),
            ("/cd[a]b", "trailing"),
        ] {
            let err = parse_xpath_query(src).unwrap_err();
            assert!(err.message.contains(needle), "{src}: {err}");
        }
    }

    #[test]
    fn errors_carry_caret_positions() {
        let err = parse_xpath_query("/cd[a and ]").unwrap_err();
        assert_eq!((err.line, err.col), (1, 11));
        assert!(
            err.to_string().ends_with("\n  /cd[a and ]\n            ^"),
            "{err}"
        );
    }
}
