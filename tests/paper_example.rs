//! The paper's running example (Figures 1–3, Section 6 cost table) as an
//! executable specification: the catalog data tree, its encoding, the
//! indexes, and the exact root–cost pairs of the example queries — checked
//! against all three evaluators (direct, schema-driven, naive oracle).

use approxql::crates::index::LabelIndex;
use approxql::crates::schema::Schema;
use approxql::{tables, Cost, Database, NodeId, NodeType, ReferenceEvaluator};

/// The catalog of Figure 1(b)/3(a): a CD with title and composer, and a
/// second CD whose track titles carry the music terms.
const CATALOG: &str = r#"<catalog>
    <cd>
        <title>Piano Concerto</title>
        <composer>Rachmaninov</composer>
    </cd>
    <cd>
        <title>Kinderszenen</title>
        <tracks>
            <track><title>Vivace piano</title></track>
        </tracks>
    </cd>
</catalog>"#;

fn db() -> Database {
    Database::from_xml_str(CATALOG, tables::paper_section6_costs()).unwrap()
}

/// Node ids of the loaded catalog (preorder; 0 is the virtual root, 1 the
/// `catalog` element).
const CD1: u32 = 2;
const CD2: u32 = 8;

#[test]
fn tree_layout_matches_figure() {
    let db = db();
    let t = db.tree();
    assert_eq!(t.label(NodeId(1)), "catalog");
    assert_eq!(t.label(NodeId(CD1)), "cd");
    assert_eq!(t.label(NodeId(CD2)), "cd");
    // cd1: title (3) -> piano (4), concerto (5); composer (6) -> rachmaninov (7)
    assert_eq!(t.label(NodeId(4)), "piano");
    assert_eq!(t.label(NodeId(7)), "rachmaninov");
    assert_eq!(t.node_type(NodeId(7)), NodeType::Text);
    // cd2: title (9) -> kinderszenen (10); tracks (11) -> track (12) ->
    // title (13) -> vivace (14), piano (15)
    assert_eq!(t.label(NodeId(11)), "tracks");
    assert_eq!(t.label(NodeId(14)), "vivace");
}

#[test]
fn encoding_satisfies_section_6_2() {
    let db = db();
    let t = db.tree();
    // The ancestor test of Section 6.2 on the Figure 3 example pair:
    // tracks is an ancestor of "vivace".
    let tracks = NodeId(11);
    let vivace = NodeId(14);
    assert!(t.is_ancestor(tracks, vivace));
    assert!(!t.is_ancestor(vivace, tracks));
    // distance(tracks, "vivace") = inscost(track) + inscost(title):
    // track is unlisted (1), title costs 3 in the Section 6 table -> 4.
    // (The same "9 - 3 - 2 = 4" computation as the paper's example,
    // modulo the figure's own cost annotations.)
    assert_eq!(t.distance(tracks, vivace), Cost::finite(4));
    assert_eq!(
        t.distance(tracks, vivace),
        t.inscost(NodeId(12)) + t.inscost(NodeId(13))
    );
    // pathcost telescopes along every root path.
    for n in t.nodes().skip(1) {
        let p = t.parent(n).unwrap();
        assert_eq!(t.pathcost(n), t.pathcost(p) + t.inscost(p));
    }
    // bound(u) is the largest preorder number in u's subtree.
    for n in t.nodes() {
        let last = t.descendants_inclusive(n).last().unwrap();
        assert_eq!(t.bound(n), last.0);
    }
}

#[test]
fn label_indexes_match_figure_3() {
    let db = db();
    let t = db.tree();
    let idx = LabelIndex::build(t);
    let title = t.lookup_label("title").unwrap();
    let piano = t.lookup_label("piano").unwrap();
    // Three title elements, two piano words — preorder sorted.
    let titles: Vec<u32> = idx
        .fetch(NodeType::Struct, title)
        .iter()
        .map(|p| p.pre)
        .collect();
    assert_eq!(titles, vec![3, 9, 13]);
    let pianos: Vec<u32> = idx
        .fetch(NodeType::Text, piano)
        .iter()
        .map(|p| p.pre)
        .collect();
    assert_eq!(pianos, vec![4, 15]);
}

#[test]
fn schema_of_the_catalog() {
    let db = db();
    let schema = Schema::build(db.tree(), db.costs());
    // root, catalog, cd, title, text, composer, text, tracks, track,
    // title, text = 11 schema nodes.
    assert_eq!(schema.tree().len(), 11);
    // Both cds share one class.
    let class_of = |n| schema.class_of(db.tree(), NodeId(n)).unwrap();
    assert_eq!(class_of(CD1), class_of(CD2));
    // The two title contexts (cd/title vs cd/tracks/track/title) are
    // distinct classes.
    assert_ne!(class_of(3), class_of(13));
}

/// Expected root–cost pairs for the example queries, from hand evaluation
/// of the Section 6 cost table (see `crates/core/src/direct.rs` tests for
/// the per-query derivations).
fn expected() -> Vec<(&'static str, Vec<(u32, u64)>)> {
    vec![
        (
            r#"cd[title["piano" and "concerto"] and composer["rachmaninov"]]"#,
            vec![(CD1, 0)],
        ),
        (r#"cd[title["piano"]]"#, vec![(CD1, 0), (CD2, 2)]),
        (
            r#"cd[title["piano" and "concerto"]]"#,
            vec![(CD1, 0), (CD2, 8)],
        ),
        (
            r#"cd[track[title["piano" and "concerto"]] and composer["rachmaninov"]]"#,
            vec![(CD1, 3)],
        ),
        (
            r#"cd[title["concerto" or "kinderszenen"]]"#,
            vec![(CD1, 0), (CD2, 0)],
        ),
        ("cd[tracks]", vec![(CD2, 0)]),
        (r#"mc[title["piano"]]"#, vec![]), // mc is not renamable to cd
    ]
}

#[test]
fn direct_evaluation_matches_hand_computation() {
    let db = db();
    for (query, want) in expected() {
        let hits = db.query_direct(query, None).unwrap();
        let got: Vec<(u32, u64)> = hits
            .iter()
            .map(|h| (h.root.0, h.cost.value().unwrap()))
            .collect();
        assert_eq!(got, want, "direct mismatch for {query}");
    }
}

#[test]
fn schema_evaluation_matches_hand_computation() {
    let db = db();
    for (query, want) in expected() {
        let hits = db.query_schema(query, want.len().max(1)).unwrap();
        let got: Vec<(u32, u64)> = hits
            .iter()
            .map(|h| (h.root.0, h.cost.value().unwrap()))
            .collect();
        assert_eq!(got, want, "schema mismatch for {query}");
    }
}

#[test]
fn oracle_matches_hand_computation() {
    let db = db();
    let costs = tables::paper_section6_costs();
    let oracle = ReferenceEvaluator::new(db.tree(), &costs);
    for (query, want) in expected() {
        let q = approxql::parse_query(query).unwrap();
        let got: Vec<(u32, u64)> = oracle
            .best_n(&q, None, true)
            .into_iter()
            .map(|(pre, c)| (pre, c.value().unwrap()))
            .collect();
        assert_eq!(got, want, "oracle mismatch for {query}");
    }
}

#[test]
fn separated_representation_of_section_3() {
    // The 2^2 separation example of Section 3.
    let q = approxql::parse_query(
        r#"cd[title["piano" and ("concerto" or "sonata")] and (composer["rachmaninov"] or performer["ashkenazy"])]"#,
    )
    .unwrap();
    assert_eq!(q.separate().len(), 4);
}

#[test]
fn results_materialize_as_xml() {
    let db = db();
    let hits = db.query_direct(r#"cd[title["piano"]]"#, None).unwrap();
    let el = db.result_element(hits[1]).unwrap();
    assert_eq!(el.name, "cd");
    // The second CD's subtree contains the track structure.
    assert!(el.find_child("tracks").is_some());
    let xml = approxql::Document { root: el }.to_xml_string();
    assert!(xml.contains("<track>"));
}
