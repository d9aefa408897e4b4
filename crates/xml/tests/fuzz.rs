//! Robustness properties of the XML parser: it must never panic, and the
//! writer/parser pair must round-trip arbitrary documents.

use approxql_xml::{parse_document, Document, Element, XmlNode, MAX_DEPTH};
use proptest::prelude::*;

fn name_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9._-]{0,8}".prop_filter("xml-ish names", |s| !s.is_empty())
}

fn text_strategy() -> impl Strategy<Value = String> {
    // Arbitrary printable text including markup characters and non-ASCII.
    "[ -~éüλ☂]{0,20}"
}

/// Bushy documents of a few levels, or one chain down to the depth limit.
fn element_strategy() -> impl Strategy<Value = Element> {
    prop_oneof![bushy_strategy(), deep_strategy()]
}

/// `depth` nested elements, the innermost holding `text`.
fn deep_strategy() -> impl Strategy<Value = Element> {
    (name_strategy(), 1..=MAX_DEPTH, text_strategy()).prop_map(|(name, depth, text)| {
        let mut e = Element::new(name.clone());
        if !text.is_empty() {
            e.children.push(XmlNode::Text(text));
        }
        for _ in 1..depth {
            e = Element::new(name.clone()).with_child(e);
        }
        e
    })
}

fn bushy_strategy() -> impl Strategy<Value = Element> {
    let leaf = (name_strategy(), text_strategy()).prop_map(|(name, text)| {
        let mut e = Element::new(name);
        if !text.is_empty() {
            e.children.push(XmlNode::Text(text));
        }
        e
    });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            name_strategy(),
            proptest::collection::vec((name_strategy(), text_strategy()), 0..3),
            proptest::collection::vec(
                prop_oneof![
                    inner.prop_map(XmlNode::Element),
                    text_strategy()
                        .prop_filter("non-empty text", |t| !t.is_empty())
                        .prop_map(XmlNode::Text),
                ],
                0..4,
            ),
        )
            .prop_map(|(name, attrs, children)| {
                let mut e = Element::new(name);
                // Attribute names must be unique within an element.
                let mut seen = std::collections::HashSet::new();
                for (k, v) in attrs {
                    if seen.insert(k.clone()) {
                        e.attributes.push((k, v));
                    }
                }
                // Merge adjacent text runs (the parser always does).
                for c in children {
                    match (&c, e.children.last_mut()) {
                        (XmlNode::Text(t), Some(XmlNode::Text(prev))) => prev.push_str(t),
                        _ => e.children.push(c),
                    }
                }
                e
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup must produce `Ok` or `Err`, never a panic.
    #[test]
    fn parser_never_panics(input in "\\PC{0,200}") {
        let _ = parse_document(&input);
    }

    /// Markup-flavored soup (more `<`, `&`, quotes) must not panic either.
    #[test]
    fn parser_never_panics_on_markupish_input(
        input in "[<>&'\"=a-z/! \\-\\[\\]?]{0,120}"
    ) {
        let _ = parse_document(&input);
    }

    /// write ∘ parse is the identity on parsed documents.
    #[test]
    fn write_parse_roundtrip(root in element_strategy()) {
        let doc = Document { root };
        let text = doc.to_xml_string();
        let reparsed = parse_document(&text)
            .unwrap_or_else(|e| panic!("own output failed to parse: {e}\n{text}"));
        prop_assert_eq!(reparsed, doc);
    }

    /// Nesting past the limit is refused with the position of the first
    /// tag that is too deep, however deep the document goes on.
    #[test]
    fn nesting_past_the_limit_is_a_positioned_error(
        name in name_strategy(),
        excess in 1usize..3000,
    ) {
        let depth = MAX_DEPTH + excess;
        let text = format!("<{name}>").repeat(depth) + &format!("</{name}>").repeat(depth);
        let err = parse_document(&text).unwrap_err();
        let open_tag = name.chars().count() + 2;
        prop_assert_eq!((err.line, err.column), (1, MAX_DEPTH * open_tag + 1));
        prop_assert!(err.message.contains("deeper than"));
    }

    /// Parsing is deterministic.
    #[test]
    fn parse_is_deterministic(root in element_strategy()) {
        let text = Document { root }.to_xml_string();
        let a = parse_document(&text).unwrap();
        let b = parse_document(&text).unwrap();
        prop_assert_eq!(a, b);
    }
}
