//! The two spellings of one query language.
//!
//! A query is written in the classic bracket syntax or in the versioned
//! JSON query-IR; both parse to the same [`Query`] AST and lower through
//! one shared path — normalized AST → [`crate::expand::ExpandedQuery`] →
//! physical plan. The first character decides the spelling: `{` is
//! JSON-IR, anything else is classic (a classic query starts with a name
//! selector). So there is nothing to pin: a valid query is read the same
//! way whatever one would pin, and pinning would only change which error
//! an invalid one gets. [`QueryInput`] is what the `Database` entry
//! points accept; its [`QueryInput::parse`] normalizes the AST, so the
//! canonical rendering — and with it the plan-cache key and cost-model
//! fingerprint — is the same for both spellings.
//!
//! [`Surface::parse`] is where the two parses meet, and so where a
//! query's size is bounded: a query with more than [`MAX_SELECTORS`]
//! selectors is a [`ParseError`] in either spelling.

use crate::ast::Query;
use crate::json_ir::parse_json_query;
use crate::parser::{parse_query, ParseError, MAX_SELECTORS};
use std::fmt;

/// A query surface: which concrete syntax a query string is written in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Surface {
    /// The classic approXQL syntax: `cd[title["piano"] and composer]`.
    Classic,
    /// The versioned JSON query-IR: `{"v":1,"query":{…}}` (see
    /// [`crate::json_ir`]).
    Json,
}

impl Surface {
    /// All surfaces, in canonical order.
    pub const ALL: [Surface; 2] = [Surface::Classic, Surface::Json];

    /// The surface's name, as `translate --to` and dataset `surface`
    /// fields spell it.
    pub fn name(self) -> &'static str {
        match self {
            Surface::Classic => "classic",
            Surface::Json => "json",
        }
    }

    /// Parses a surface name (see [`Surface::name`]).
    pub fn from_name(name: &str) -> Option<Surface> {
        match name {
            "classic" => Some(Surface::Classic),
            "json" => Some(Surface::Json),
            _ => None,
        }
    }

    /// The surface a query text is written in: a JSON-IR document is an
    /// object, and a classic query starts with a name selector, which
    /// cannot begin with `{`.
    pub fn detect(text: &str) -> Surface {
        if text.trim_start().starts_with('{') {
            Surface::Json
        } else {
            Surface::Classic
        }
    }

    /// Parses `text` in this surface and bounds its size: a query with
    /// more than [`MAX_SELECTORS`] selectors is an error. The result is
    /// **not** normalized; use [`QueryInput::parse`] for the compilation
    /// path.
    pub fn parse(self, text: &str) -> Result<Query, ParseError> {
        let query = match self {
            Surface::Classic => parse_query(text),
            Surface::Json => parse_json_query(text),
        }?;
        let selectors = query.selector_count();
        if selectors > MAX_SELECTORS {
            let start = text.len() - text.trim_start().len();
            return Err(ParseError::at_offset(
                text,
                start,
                format!("query has {selectors} selectors, more than {MAX_SELECTORS}"),
            ));
        }
        Ok(query)
    }

    /// Renders `query` in this surface's canonical form. Every rendering
    /// reparses (in its own surface) to the same normalized query.
    pub fn render(self, query: &Query) -> String {
        match self {
            Surface::Classic => query.to_string(),
            Surface::Json => query.to_json_ir(),
        }
    }
}

impl fmt::Display for Surface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A query string — the input type of the `Database` query entry points.
/// `From<&str>` keeps plain strings working everywhere.
#[derive(Debug, Clone, Copy)]
pub struct QueryInput<'a> {
    /// The query text, in either surface.
    pub text: &'a str,
}

impl<'a> QueryInput<'a> {
    /// The input `text`; its surface is detected ([`Surface::detect`]).
    pub fn new(text: &'a str) -> Self {
        QueryInput { text }
    }

    /// Parses and normalizes: the single entry onto the shared lowering
    /// path. Equivalent queries in either surface return equal `Query`
    /// values here, and therefore equal canonical renderings, plan-cache
    /// keys, and plans.
    pub fn parse(&self) -> Result<Query, ParseError> {
        Surface::detect(self.text)
            .parse(self.text)
            .map(Query::normalize)
    }
}

impl<'a> From<&'a str> for QueryInput<'a> {
    fn from(text: &'a str) -> Self {
        QueryInput::new(text)
    }
}

impl<'a> From<&'a String> for QueryInput<'a> {
    fn from(text: &'a String) -> Self {
        QueryInput::new(text)
    }
}

impl<'a, 'b: 'a> From<&'a &'b str> for QueryInput<'a> {
    fn from(text: &'a &'b str) -> Self {
        QueryInput::new(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_unambiguous() {
        assert_eq!(Surface::detect("cd[title]"), Surface::Classic);
        assert_eq!(Surface::detect("  _x"), Surface::Classic);
        assert_eq!(
            Surface::detect(r#"{"v":1,"query":{"name":"cd"}}"#),
            Surface::Json
        );
        assert_eq!(Surface::detect("  {"), Surface::Json);
    }

    #[test]
    fn names_round_trip() {
        for s in Surface::ALL {
            assert_eq!(Surface::from_name(s.name()), Some(s));
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(Surface::from_name("sql"), None);
        assert_eq!(Surface::from_name("xpath"), None);
    }

    #[test]
    fn both_surfaces_parse_to_the_same_normalized_query() {
        let classic = "cd[title[\"piano\" and \"concerto\"] and composer]";
        let json = r#"{"v":1,"query":{"name":"cd","child":{"and":[
            {"name":"title","child":{"text":"piano concerto"}},
            {"name":"composer"}]}}}"#;
        let want = QueryInput::new(classic).parse().unwrap();
        assert_eq!(Surface::detect(json), Surface::Json);
        assert_eq!(QueryInput::new(json).parse().unwrap(), want);
    }

    /// Path notation is no spelling of the language: a slash is a
    /// classic syntax error where it stands.
    #[test]
    fn classic_rejects_path_notation() {
        for (text, offset) in [("cd/x", 2), ("cd//x", 2), ("cd[a/b]", 4), ("/cd", 0)] {
            let err = QueryInput::new(text).parse().unwrap_err();
            assert_eq!(
                (err.offset, err.message.as_str()),
                (offset, "unexpected character `/`"),
                "{text}"
            );
        }
        for (text, offset, needle) in [
            ("cd[a][b]", 5, "unexpected trailing input after the query"),
            ("cd[a[b][c]]", 7, "expected `]`, found `[`"),
        ] {
            let err = QueryInput::new(text).parse().unwrap_err();
            assert_eq!(
                (err.offset, err.message.as_str()),
                (offset, needle),
                "{text}"
            );
        }
    }

    #[test]
    fn renderings_reparse_to_the_same_query() {
        let q = QueryInput::new(r#"cd[title["piano" or "forte"] and x]"#)
            .parse()
            .unwrap();
        for s in Surface::ALL {
            let rendered = s.render(&q);
            assert_eq!(Surface::detect(&rendered), s, "{rendered}");
            assert_eq!(
                QueryInput::new(rendered.as_str()).parse().unwrap(),
                q,
                "{rendered}"
            );
        }
    }
}
