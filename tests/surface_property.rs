//! Property tests for the multi-surface front-end (random query shapes).
//!
//! Two families of invariants:
//!
//! 1. **Canonical rendering is a fixed point.** Parsing the classic
//!    rendering of any normalized query returns the same query, and
//!    re-rendering is byte-stable — the plan-cache key is well-defined.
//! 2. **Surface translation is invisible.** The canonical JSON-IR and
//!    XPath-lite renderings of a random query compile to plans with the
//!    same fingerprint as the classic form, and return byte-identical
//!    top-k results against a seeded Section 8.1 synthetic collection.
//!
//! The query alphabet reuses the generator's `nameNNN`/`termN` label and
//! word spaces so a healthy fraction of queries actually match data.

use approxql::crates::gen::{DataGenConfig, DataGenerator};
use approxql::crates::plan;
use approxql::{CostModel, Database, Query, QueryInput, QueryNode, Surface};
use proptest::prelude::*;
use std::sync::OnceLock;

fn db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        let mut cfg = DataGenConfig::paper_scale_divided(1000); // 1,000 elements
        cfg.seed = 2002;
        let costs = CostModel::new();
        let tree = DataGenerator::new(cfg).generate_tree(&costs);
        Database::from_tree(tree, costs)
    })
}

fn label_strategy() -> impl Strategy<Value = String> {
    (0usize..8).prop_map(|i| format!("name{i:03}"))
}

fn word_strategy() -> impl Strategy<Value = String> {
    (1usize..10).prop_map(|i| format!("term{i}"))
}

fn expr_strategy() -> impl Strategy<Value = QueryNode> {
    let leaf = prop_oneof![
        word_strategy().prop_map(|word| QueryNode::Text { word }),
        label_strategy().prop_map(|label| QueryNode::Name { label, child: None }),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (label_strategy(), inner.clone()).prop_map(|(label, child)| QueryNode::Name {
                label,
                child: Some(Box::new(child)),
            }),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| QueryNode::And(Box::new(l), Box::new(r))),
            (inner.clone(), inner).prop_map(|(l, r)| QueryNode::Or(Box::new(l), Box::new(r))),
        ]
    })
}

/// One query in four is *deep*: its expression sits under a chain of 30 to
/// 80 more names, so every surface's nesting — brackets, path steps, JSON
/// objects, each bounded at 256 levels — is exercised far from the shallow
/// shapes and well inside what all three admit.
fn query_strategy() -> impl Strategy<Value = Query> {
    let child = proptest::option::of(expr_strategy());
    (label_strategy(), child, 0usize..4, 30usize..81).prop_map(|(label, child, pick, levels)| {
        let mut child = child;
        if pick == 0 {
            for level in 0..levels {
                child = Some(QueryNode::Name {
                    label: format!("name{:03}", level % 8),
                    child: child.map(Box::new),
                });
            }
        }
        Query {
            root: QueryNode::Name {
                label,
                child: child.map(Box::new),
            },
        }
        .normalize()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// parse ∘ render = id on normalized queries, and render is stable.
    #[test]
    fn classic_rendering_is_a_fixed_point(q in query_strategy()) {
        let rendered = q.to_string();
        let reparsed = QueryInput::new(rendered.as_str())
            .parse()
            .unwrap_or_else(|e| panic!("own rendering failed to parse: {e}\n{rendered}"));
        prop_assert_eq!(&reparsed, &q, "reparse changed the query: {}", rendered);
        prop_assert_eq!(reparsed.to_string(), rendered, "rendering is not stable");
    }

    /// All three canonical renderings reparse (in their own, auto-detected
    /// surface) to the same normalized query.
    #[test]
    fn surface_translations_agree(q in query_strategy()) {
        for surface in Surface::ALL {
            let rendered = surface.render(&q);
            prop_assert_eq!(Surface::detect(&rendered), surface, "{}", &rendered);
            let back = QueryInput::new(rendered.as_str())
                .parse()
                .unwrap_or_else(|e| panic!("{surface} rendering failed to parse: {e}\n{rendered}"));
            prop_assert_eq!(&back, &q, "{} translation changed the query: {}", surface, rendered);
        }
    }

    /// Translations compile to the same plan fingerprint and return
    /// byte-identical top-k results.
    #[test]
    fn translations_share_plans_and_results(q in query_strategy()) {
        let db = db();
        let classic = q.to_string();
        let (cq, cex) = db.compile(classic.as_str()).unwrap();
        let base_fp = db.plan_for(&cq, &cex).map(|p| plan::fingerprint(&p));
        let baseline = db.query_direct(classic.as_str(), Some(5)).unwrap();
        for surface in Surface::ALL {
            let rendered = surface.render(&q);
            let input = QueryInput::with_surface(&rendered, surface);
            let (sq, sex) = db.compile(input).unwrap();
            prop_assert_eq!(
                db.plan_for(&sq, &sex).map(|p| plan::fingerprint(&p)),
                base_fp,
                "fingerprint diverged for {} form: {}", surface, rendered
            );
            let hits = db.query_direct(input, Some(5)).unwrap();
            prop_assert_eq!(
                &hits, &baseline,
                "top-k diverged for {} form: {}", surface, rendered
            );
        }
    }
}
