//! The versioned JSON query-IR surface.
//!
//! A machine-friendly spelling of the approXQL query language, intended
//! as the wire format for tooling and the future `approxql serve`
//! daemon. Version 1 documents look like
//!
//! ```json
//! {"v": 1, "query": {"name": "cd", "child": {"and": [
//!     {"name": "title", "child": {"text": "piano concerto"}},
//!     {"name": "composer", "child": {"text": "rachmaninov"}}
//! ]}}}
//! ```
//!
//! Node forms (each node is an object with exactly one of these shapes):
//!
//! * `{"name": LABEL}` / `{"name": LABEL, "child": NODE}` — a name
//!   selector, optionally with a containment expression;
//! * `{"text": WORDS}` — a text selector; multi-word strings are split
//!   with the data model's word splitting, exactly like a classic quoted
//!   literal;
//! * `{"and": [NODE, …]}` / `{"or": [NODE, …]}` — n-ary conjunction /
//!   disjunction with at least two operands, folded left-associatively.
//!
//! **Versioning policy:** the top level is `{"v": 1, "query": NODE}` and
//! nothing else. Unknown fields are rejected — anywhere, not just at the
//! top level — so that a v1 reader never silently ignores a v2 construct;
//! a future v2 can relax v1 rules only behind a bumped `"v"`. A document
//! with an unsupported version is rejected with a distinct message.
//!
//! [`Query::to_json_ir`] emits the canonical form: compact (no
//! whitespace), fixed member order, `and`/`or` chains flattened to
//! maximal n-ary arrays. Parsing the canonical form of a normalized
//! query reproduces it exactly (see the round-trip tests).

use crate::ast::{Query, QueryNode};
use crate::json::{self, Json};
use crate::parser::ParseError;
use approxql_tree::text::split_words;

/// The query-IR version this build reads and writes.
pub const JSON_IR_VERSION: u64 = 1;

/// Parses a version-1 JSON query-IR document.
///
/// ```
/// use approxql_query::parse_json_query;
/// let q = parse_json_query(r#"{"v":1,"query":{"name":"cd"}}"#).unwrap();
/// assert_eq!(q.root_label(), "cd");
/// ```
pub fn parse_json_query(input: &str) -> Result<Query, ParseError> {
    let doc =
        json::parse(input).map_err(|e| ParseError::at_line_col(input, e.line, e.col, e.message))?;
    top_level(&doc).map_err(|message| ParseError::at_offset(input, 0, message))
}

/// Validates the `{"v": 1, "query": NODE}` envelope. Errors are plain
/// messages; the caller attaches the position.
fn top_level(doc: &Json) -> Result<Query, String> {
    let members = doc
        .as_obj()
        .ok_or_else(|| format!("query-IR document must be an object, found {}", doc.kind()))?;
    for (key, _) in members {
        if key != "v" && key != "query" {
            return Err(format!(
                "unknown query-IR field \"{key}\" (v{JSON_IR_VERSION} accepts \"v\" and \"query\")"
            ));
        }
    }
    let version = doc
        .get("v")
        .ok_or("query-IR document is missing the \"v\" version field")?;
    let version = version.as_uint().ok_or_else(|| {
        format!(
            "\"v\" must be a non-negative integer, found {}",
            version.kind()
        )
    })?;
    if version != JSON_IR_VERSION {
        return Err(format!(
            "unsupported query-IR version {version} (this build reads v{JSON_IR_VERSION})"
        ));
    }
    let root = node(
        doc.get("query")
            .ok_or("query-IR document is missing the \"query\" field")?,
    )?;
    if !matches!(root, QueryNode::Name { .. }) {
        return Err("the query root must be a name selector (a {\"name\": …} node)".to_owned());
    }
    Ok(Query { root })
}

/// Parses one query node object.
fn node(j: &Json) -> Result<QueryNode, String> {
    let members = j
        .as_obj()
        .ok_or_else(|| format!("query node must be an object, found {}", j.kind()))?;
    let mut kind: Option<&str> = None;
    for (key, _) in members {
        match key.as_str() {
            "name" | "text" | "and" | "or" => {
                if let Some(prev) = kind {
                    return Err(format!(
                        "query node mixes \"{prev}\" and \"{key}\" — exactly one node kind per object"
                    ));
                }
                kind = Some(key);
            }
            "child" => {}
            other => {
                return Err(format!(
                    "unknown query node field \"{other}\" (v{JSON_IR_VERSION} nodes use \"name\", \"text\", \"and\", \"or\", \"child\")"
                ))
            }
        }
    }
    let kind = kind.ok_or("query node needs exactly one of \"name\", \"text\", \"and\", \"or\"")?;
    if kind != "name" && j.get("child").is_some() {
        return Err(format!(
            "\"child\" is only valid on a \"name\" node, not \"{kind}\""
        ));
    }
    match kind {
        "name" => {
            let label = string_field(j, "name")?;
            check_label(&label)?;
            let child = match j.get("child") {
                Some(c) => Some(Box::new(node(c)?)),
                None => None,
            };
            Ok(QueryNode::Name { label, child })
        }
        "text" => {
            let raw = string_field(j, "text")?;
            let mut words = split_words(&raw).into_iter();
            let first = words
                .next()
                .ok_or_else(|| format!("text selector \"{raw}\" contains no word"))?;
            let mut out = QueryNode::Text { word: first };
            for w in words {
                out = QueryNode::And(Box::new(out), Box::new(QueryNode::Text { word: w }));
            }
            Ok(out)
        }
        op @ ("and" | "or") => {
            let items = j
                .get(op)
                .expect("kind key present")
                .as_arr()
                .ok_or_else(|| format!("\"{op}\" must hold an array of query nodes"))?;
            if items.len() < 2 {
                return Err(format!(
                    "\"{op}\" needs at least two operands, found {}",
                    items.len()
                ));
            }
            let mut parsed = items.iter().map(node);
            let mut out = parsed.next().expect("len checked")?;
            for next in parsed {
                let next = next?;
                out = if op == "and" {
                    QueryNode::And(Box::new(out), Box::new(next))
                } else {
                    QueryNode::Or(Box::new(out), Box::new(next))
                };
            }
            Ok(out)
        }
        _ => unreachable!("kind is one of the four node keys"),
    }
}

fn string_field(j: &Json, key: &str) -> Result<String, String> {
    let v = j.get(key).expect("kind key present");
    v.as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("\"{key}\" must be a string, found {}", v.kind()))
}

/// Element names must satisfy the classic lexer's name rules so that any
/// accepted query renders back into the classic surface.
fn check_label(label: &str) -> Result<(), String> {
    let mut chars = label.chars();
    let valid = match chars.next() {
        Some(c) => {
            (c.is_alphabetic() || c == '_')
                && chars.all(|c| c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':'))
        }
        None => false,
    };
    if !valid || label == "and" || label == "or" {
        return Err(format!("invalid element name \"{label}\""));
    }
    Ok(())
}

impl Query {
    /// Emits the canonical JSON query-IR form (version
    /// [`JSON_IR_VERSION`]): compact, fixed member order, operator chains
    /// flattened to n-ary arrays. Any accepted query — from any surface —
    /// round-trips: parsing the emitted document yields the normalized
    /// query back.
    pub fn to_json_ir(&self) -> String {
        let mut out = String::from("{\"v\":1,\"query\":");
        emit(&self.root, &mut out);
        out.push('}');
        out
    }
}

fn emit(node: &QueryNode, out: &mut String) {
    match node {
        QueryNode::Name { label, child } => {
            out.push_str("{\"name\":");
            json::write_str(out, label);
            if let Some(c) = child {
                out.push_str(",\"child\":");
                emit(c, out);
            }
            out.push('}');
        }
        QueryNode::Text { word } => {
            out.push_str("{\"text\":");
            json::write_str(out, word);
            out.push('}');
        }
        QueryNode::And(..) | QueryNode::Or(..) => {
            let is_and = matches!(node, QueryNode::And(..));
            out.push_str(if is_and { "{\"and\":[" } else { "{\"or\":[" });
            let mut parts = Vec::new();
            collect_chain(node, is_and, &mut parts);
            for (i, part) in parts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit(part, out);
            }
            out.push_str("]}");
        }
    }
}

/// Collects the operands of a maximal same-operator chain in source order.
fn collect_chain<'a>(node: &'a QueryNode, is_and: bool, out: &mut Vec<&'a QueryNode>) {
    match node {
        QueryNode::And(l, r) if is_and => {
            collect_chain(l, true, out);
            collect_chain(r, true, out);
        }
        QueryNode::Or(l, r) if !is_and => {
            collect_chain(l, false, out);
            collect_chain(r, false, out);
        }
        other => out.push(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn parses_the_paper_query() {
        let classic =
            parse_query(r#"cd[title["piano" and "concerto"] and composer["rachmaninov"]]"#)
                .unwrap();
        let ir = parse_json_query(
            r#"{"v": 1, "query": {"name": "cd", "child": {"and": [
                {"name": "title", "child": {"text": "piano concerto"}},
                {"name": "composer", "child": {"text": "rachmaninov"}}
            ]}}}"#,
        )
        .unwrap();
        assert_eq!(ir.clone().normalize(), classic.normalize());
        assert_eq!(ir.to_string(), ir.clone().normalize().to_string());
    }

    #[test]
    fn nary_operators_fold_left() {
        let ir = parse_json_query(
            r#"{"v":1,"query":{"name":"x","child":{"or":[{"text":"a"},{"text":"b"},{"text":"c"}]}}}"#,
        )
        .unwrap();
        let classic = parse_query(r#"x["a" or "b" or "c"]"#).unwrap();
        assert_eq!(ir, classic);
    }

    #[test]
    fn canonical_emit_round_trips() {
        for src in [
            r#"cd[title["piano" and "concerto"] and composer["rachmaninov"]]"#,
            r#"cd[title["piano" and ("concerto" or "sonata")]]"#,
            r#"a[b or c and d]"#,
            "cd",
        ] {
            let q = parse_query(src).unwrap().normalize();
            let ir = q.to_json_ir();
            assert_eq!(parse_json_query(&ir).unwrap(), q, "round-trip failed: {ir}");
        }
    }

    #[test]
    fn unknown_version_is_a_distinct_error() {
        let err = parse_json_query(r#"{"v":2,"query":{"name":"cd"}}"#).unwrap_err();
        assert!(
            err.message.contains("unsupported query-IR version 2"),
            "{err}"
        );
        assert!(err.message.contains("reads v1"), "{err}");
    }

    #[test]
    fn unknown_fields_are_rejected_everywhere() {
        let top = parse_json_query(r#"{"v":1,"query":{"name":"cd"},"limit":5}"#).unwrap_err();
        assert!(
            top.message.contains("unknown query-IR field \"limit\""),
            "{top}"
        );
        let node = parse_json_query(r#"{"v":1,"query":{"name":"cd","fuzz":true}}"#).unwrap_err();
        assert!(
            node.message.contains("unknown query node field \"fuzz\""),
            "{node}"
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        // Not JSON at all: the JSON reader's position is surfaced.
        let err = parse_json_query("{\n  \"v\": nope\n}").unwrap_err();
        assert_eq!(err.line, 2);
        // Envelope and node-shape violations.
        for (src, needle) in [
            (r#"[1]"#, "must be an object"),
            (r#"{"query":{"name":"cd"}}"#, "missing the \"v\""),
            (r#"{"v":1}"#, "missing the \"query\""),
            (r#"{"v":1,"query":{"text":"piano"}}"#, "root must be a name"),
            (r#"{"v":1,"query":{"name":"cd","text":"x"}}"#, "mixes"),
            (
                r#"{"v":1,"query":{"text":"x","child":{"name":"a"}}}"#,
                "only valid on a \"name\"",
            ),
            (r#"{"v":1,"query":{"and":[{"name":"a"}]}}"#, "at least two"),
            (r#"{"v":1,"query":{"name":"9bad"}}"#, "invalid element name"),
            (r#"{"v":1,"query":{"name":"or"}}"#, "invalid element name"),
            (
                r#"{"v":1,"query":{"name":"t","child":{"text":"--"}}}"#,
                "no word",
            ),
            (r#"{"v":1,"query":{}}"#, "exactly one of"),
        ] {
            let err = parse_json_query(src).unwrap_err();
            assert!(err.message.contains(needle), "{src}: {err}");
        }
    }
}
