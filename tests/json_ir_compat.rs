//! Compatibility suite for the versioned JSON query-IR.
//!
//! The fixtures under `tests/golden/json_ir/` are the compatibility
//! contract: committed v1 documents must keep parsing in every future
//! build (additions to the IR bump the version; v1 readers are never
//! broken), and documents with an unknown version must be rejected with
//! the dedicated version error — never misparsed as something else.

use approxql::{parse_query, QueryInput, Surface};

const V1_SIMPLE: &str = include_str!("golden/json_ir/v1_simple.json");
const V1_FIGURE2: &str = include_str!("golden/json_ir/v1_figure2.json");
const V1_FORMATTED: &str = include_str!("golden/json_ir/v1_formatted.json");
const UNKNOWN_VERSION: &str = include_str!("golden/json_ir/unknown_version.json");

#[test]
fn committed_v1_fixtures_keep_parsing() {
    for (fixture, classic) in [
        (V1_SIMPLE, r#"cd[title["piano"]]"#),
        (
            V1_FIGURE2,
            r#"cd[track[title["piano" and "concerto"]] and composer["rachmaninov"]]"#,
        ),
        (
            V1_FORMATTED,
            r#"catalog[(cd["piano" and "concerto"] and dvd and "brahms")
                      or mc["sonata" or track]]"#,
        ),
    ] {
        let from_ir = QueryInput::new(fixture)
            .parse()
            .unwrap_or_else(|e| panic!("v1 fixture stopped parsing: {e}\n{fixture}"));
        let want = parse_query(classic).unwrap().normalize();
        assert_eq!(from_ir, want, "fixture drifted from its classic spelling");
        // Auto-detection classifies every fixture as JSON-IR.
        assert_eq!(Surface::detect(fixture), Surface::Json);
    }
}

#[test]
fn canonical_fixtures_are_translate_output() {
    // `v1_simple`/`v1_figure2` are canonical emitter output; re-emitting
    // the parsed query must reproduce them byte-for-byte (modulo the
    // trailing newline `--out` appends).
    for fixture in [V1_SIMPLE, V1_FIGURE2] {
        let q = QueryInput::new(fixture).parse().unwrap();
        assert_eq!(q.to_json_ir(), fixture.trim_end());
    }
}

#[test]
fn lenient_json_is_a_caret_parse_error() {
    // The reader takes RFC 8259 JSON only: no leading zero or `+` sign,
    // digits on both sides of a decimal point, and exactly four hex
    // digits after `\u`. Each form is a syntax error at the byte that
    // breaks the grammar, never a document read some other way.
    for (text, col) in [
        (r#"{"v":01,"query":{"name":"cd"}}"#, 7),
        (r#"{"v":+1,"query":{"name":"cd"}}"#, 6),
        (r#"{"v":1.,"query":{"name":"cd"}}"#, 8),
        (r#"{"v":1.e0,"query":{"name":"cd"}}"#, 8),
        (r#"{"v":1,"query":{"name":"\u+063d"}}"#, 27),
        (r#"{"v":01,"query":{"name":"\u+063d"}}"#, 7),
    ] {
        let err = QueryInput::new(text).parse().unwrap_err();
        assert_eq!((err.line, err.col), (1, col), "{text}: {err}");
        let caret = format!("\n  {text}\n  {:>col$}", "^");
        assert!(err.to_string().ends_with(&caret), "{err}");
    }
}

#[test]
fn unknown_version_is_rejected_with_the_version_error() {
    let err = QueryInput::new(UNKNOWN_VERSION).parse().unwrap_err();
    assert!(
        err.message.contains("unsupported query-IR version 2"),
        "wrong error for an unknown version: {err}"
    );
    assert!(
        err.message.contains("this build reads v1"),
        "error should name the supported version: {err}"
    );
}
