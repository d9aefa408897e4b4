//! The multi-surface front-end: one semantics, three spellings.
//!
//! Every surface parses to the same [`Query`] AST and lowers through the
//! single shared path — surface AST → normalized AST →
//! [`crate::expand::ExpandedQuery`] → physical plan. [`QueryInput`]
//! bundles a query string with an optional surface selection (`None`
//! auto-detects) and is what the `Database` entry points accept; its
//! [`QueryInput::parse`] normalizes the AST, so the canonical rendering —
//! and with it the plan-cache key and cost-model fingerprint — is
//! surface-independent.

use crate::ast::Query;
use crate::json_ir::parse_json_query;
use crate::parser::{parse_query, ParseError};
use crate::xpath::parse_xpath_query;
use std::fmt;

/// A query surface: which concrete syntax a query string is written in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Surface {
    /// The classic approXQL syntax: `cd[title["piano"] and composer]`.
    Classic,
    /// The versioned JSON query-IR: `{"v":1,"query":{…}}` (see
    /// [`crate::json_ir`]).
    Json,
    /// The XPath-lite navigational syntax: `/cd//title["piano"]` (see
    /// [`crate::xpath`]).
    Xpath,
}

impl Surface {
    /// All surfaces, in canonical order.
    pub const ALL: [Surface; 3] = [Surface::Classic, Surface::Json, Surface::Xpath];

    /// The surface's CLI/dataset name.
    pub fn name(self) -> &'static str {
        match self {
            Surface::Classic => "classic",
            Surface::Json => "json",
            Surface::Xpath => "xpath",
        }
    }

    /// Parses a surface name as used by `--surface` and dataset `surface`
    /// fields.
    pub fn from_name(name: &str) -> Option<Surface> {
        match name {
            "classic" => Some(Surface::Classic),
            "json" => Some(Surface::Json),
            "xpath" => Some(Surface::Xpath),
            _ => None,
        }
    }

    /// Guesses the surface from the query text. Unambiguous: a classic
    /// query starts with a name selector, which can begin with neither
    /// `{` nor `/`; a JSON-IR document is an object; an XPath-lite query
    /// is an absolute path.
    pub fn detect(text: &str) -> Surface {
        let trimmed = text.trim_start();
        if trimmed.starts_with('{') {
            Surface::Json
        } else if trimmed.starts_with('/') {
            Surface::Xpath
        } else {
            Surface::Classic
        }
    }

    /// Parses `text` in this surface. The result is **not** normalized;
    /// use [`QueryInput::parse`] for the compilation path.
    pub fn parse(self, text: &str) -> Result<Query, ParseError> {
        match self {
            Surface::Classic => parse_query(text),
            Surface::Json => parse_json_query(text),
            Surface::Xpath => parse_xpath_query(text),
        }
    }

    /// Renders `query` in this surface's canonical form. Every rendering
    /// reparses (in its own surface) to the same normalized query.
    pub fn render(self, query: &Query) -> String {
        match self {
            Surface::Classic => query.to_string(),
            Surface::Json => query.to_json_ir(),
            Surface::Xpath => query.to_xpath(),
        }
    }
}

impl fmt::Display for Surface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A query string plus an optional surface selection — the input type of
/// the `Database` query entry points. `From<&str>` keeps plain strings
/// working everywhere (with auto-detection).
#[derive(Debug, Clone, Copy)]
pub struct QueryInput<'a> {
    /// The query text.
    pub text: &'a str,
    /// The surface to parse with; `None` auto-detects via
    /// [`Surface::detect`].
    pub surface: Option<Surface>,
}

impl<'a> QueryInput<'a> {
    /// An auto-detected input.
    pub fn new(text: &'a str) -> Self {
        QueryInput {
            text,
            surface: None,
        }
    }

    /// An input pinned to a specific surface.
    pub fn with_surface(text: &'a str, surface: Surface) -> Self {
        QueryInput {
            text,
            surface: Some(surface),
        }
    }

    /// The effective surface (explicit selection or auto-detected).
    pub fn surface(&self) -> Surface {
        self.surface.unwrap_or_else(|| Surface::detect(self.text))
    }

    /// Parses and normalizes: the single entry onto the shared lowering
    /// path. Equivalent queries from any surface return equal `Query`
    /// values here, and therefore equal canonical renderings, plan-cache
    /// keys, and plans.
    pub fn parse(&self) -> Result<Query, ParseError> {
        self.surface().parse(self.text).map(Query::normalize)
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

impl<'a> From<(&'a str, Surface)> for QueryInput<'a> {
    fn from((text, surface): (&'a str, Surface)) -> Self {
        QueryInput::with_surface(text, surface)
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
        assert_eq!(Surface::detect("/cd//title"), Surface::Xpath);
    }

    #[test]
    fn names_round_trip() {
        for s in Surface::ALL {
            assert_eq!(Surface::from_name(s.name()), Some(s));
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(Surface::from_name("sql"), None);
    }

    #[test]
    fn all_surfaces_parse_to_the_same_normalized_query() {
        let classic = "cd[title[\"piano\" and \"concerto\"] and composer]";
        let json = r#"{"v":1,"query":{"name":"cd","child":{"and":[
            {"name":"title","child":{"text":"piano concerto"}},
            {"name":"composer"}]}}}"#;
        let xpath = r#"/cd[title["piano" and "concerto"]]//composer"#;
        let want = QueryInput::new(classic).parse().unwrap();
        for (text, surface) in [(json, Surface::Json), (xpath, Surface::Xpath)] {
            // Auto-detection and explicit selection agree.
            assert_eq!(QueryInput::new(text).surface(), surface);
            assert_eq!(QueryInput::new(text).parse().unwrap(), want, "{surface}");
            assert_eq!(
                QueryInput::with_surface(text, surface).parse().unwrap(),
                want
            );
        }
    }

    /// Path notation is a dialect of the one parser, not a superset of
    /// the classic surface: every XPath-only construct is still a classic
    /// syntax error, at the token where the classic grammar ends.
    #[test]
    fn classic_rejects_every_path_only_construct() {
        for (text, offset, needle) in [
            ("cd/x", 2, "unexpected trailing input after the query"),
            ("cd//x", 2, "unexpected trailing input after the query"),
            ("cd[a][b]", 5, "unexpected trailing input after the query"),
            ("cd[a/b]", 4, "expected `]`, found `/`"),
            ("cd[a[b][c]]", 7, "expected `]`, found `[`"),
            ("/cd", 0, "expected a name selector, found `/`"),
        ] {
            let err = Surface::Classic.parse(text).unwrap_err();
            assert_eq!(
                (err.offset, err.message.as_str()),
                (offset, needle),
                "{text}"
            );
        }
        assert_eq!(
            Surface::Xpath.parse("/cd[a][b]/x").unwrap().normalize(),
            Surface::Classic
                .parse("cd[a and b and x]")
                .unwrap()
                .normalize()
        );
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
