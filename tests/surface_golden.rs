//! Plan-identity golden suite for the two query surfaces.
//!
//! The front-end promises that the surface a query is written in is
//! *invisible* past the parser: the classic approXQL and JSON query-IR
//! forms of the same query must compile to the
//! **byte-identical** rendered plan, carry the same plan fingerprint,
//! share one plan-cache entry (one compile, cross-surface cache hits),
//! and return byte-identical results.
//!
//! The queries are read from the committed figure-2 and figure-7 fixture
//! datasets (`tests/common`); their JSON-IR spellings are derived with the
//! canonical emitters (`approxql translate` uses the same code), so this
//! suite also pins the emitters against the parsers.

mod common;

use approxql::crates::plan;
use approxql::{Database, EvalOptions, Metric, QueryInput, Surface};
use common::{CATALOG, FIGURE7_CORPUS};
use std::sync::OnceLock;

/// The query texts of a committed dataset. The figure-7 datasets share
/// theirs (ren5 and ren10 change only the cost tables, which do not
/// affect surface translation), so ren0 stands for all three.
fn queries(dataset: &str) -> Vec<String> {
    common::load(dataset).into_iter().map(|f| f.query).collect()
}

/// The two spellings of a classic query: (classic, json-ir).
fn spellings(classic: &str) -> [(Surface, String); 2] {
    let q = QueryInput::new(classic).parse().unwrap();
    [
        (Surface::Classic, classic.to_string()),
        (Surface::Json, q.to_json_ir()),
    ]
}

fn catalog_db() -> Database {
    Database::from_xml_str(CATALOG, approxql::tables::paper_section6_costs()).unwrap()
}

fn figure7_db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| Database::from_xml_str(FIGURE7_CORPUS, approxql::CostModel::new()).unwrap())
}

/// Each workload query compiles — through any surface — to one shared
/// plan-cache entry with equal fingerprints and a byte-identical
/// `--explain` rendering (operator tree *and* executed entry counts).
#[test]
fn surfaces_compile_to_byte_identical_plans() {
    let opts = EvalOptions::default();
    // Fresh databases so the plan caches start cold and the pinned
    // miss/hit counts below are exact.
    let dbs = [
        (catalog_db(), queries("figure2")),
        (
            Database::from_xml_str(FIGURE7_CORPUS, approxql::CostModel::new()).unwrap(),
            queries("figure7_ren0"),
        ),
    ];
    for (db, queries) in &dbs {
        for classic in queries {
            let before = approxql::metrics_snapshot();
            let mut explains = Vec::new();
            let mut fingerprints = Vec::new();
            for (_, text) in spellings(classic) {
                let input = QueryInput::new(&text);
                explains.push(db.explain_direct(input, Some(10), opts).unwrap());
                let (q, ex) = db.compile(input).unwrap();
                let plan = db.plan_for(&q, &ex).unwrap();
                fingerprints.push(plan::fingerprint(&plan));
            }
            let delta = approxql::metrics_snapshot().diff(&before);
            assert_eq!(
                explains[0], explains[1],
                "classic vs JSON-IR explain differs for {classic}"
            );
            assert_eq!(fingerprints[0], fingerprints[1], "{classic}");
            // One compile for the first surface; everything after —
            // including the three follow-up lookups — hits the
            // shared cache entry.
            assert_eq!(delta.get(Metric::PlanCompile), 1, "{classic}");
            assert_eq!(delta.get(Metric::PlanCacheMisses), 1, "{classic}");
            assert!(
                delta.get(Metric::PlanCacheHits) >= 2,
                "cross-surface cache hits missing for {classic}: {}",
                delta.get(Metric::PlanCacheHits)
            );
        }
    }
}

/// Results are byte-identical across surfaces: the surface chooses a
/// parser, nothing downstream.
#[test]
fn surface_results_are_identical() {
    let dbs: [(&Database, Vec<String>); 2] = [
        (&catalog_db(), queries("figure2")),
        (figure7_db(), queries("figure7_ren0")),
    ];
    for (db, queries) in dbs {
        for classic in &queries {
            let baseline = db.query_direct(classic.as_str(), Some(10)).unwrap();
            for (surface, text) in spellings(classic) {
                let input = QueryInput::new(&text);
                let hits = db.query_direct(input, Some(10)).unwrap();
                assert_eq!(hits, baseline, "{classic} via {surface}");
            }
        }
    }
}

/// The JSON explain document is surface-independent too, and carries the
/// same fingerprint that `plan::fingerprint` computes.
#[test]
fn explain_json_is_surface_independent() {
    let db = catalog_db();
    let opts = EvalOptions::default();
    for classic in &queries("figure2") {
        let docs: Vec<String> = spellings(classic)
            .into_iter()
            .map(|(_, text)| {
                db.explain_direct_json(QueryInput::new(&text), Some(10), opts)
                    .unwrap()
            })
            .collect();
        assert_eq!(docs[0], docs[1], "{classic}");
        let parsed = approxql::crates::query::json::parse(&docs[0]).unwrap();
        let rendered_fp = parsed
            .get("fingerprint")
            .and_then(|v| v.as_str())
            .unwrap()
            .to_string();
        let (q, ex) = db.compile(classic.as_str()).unwrap();
        let plan = db.plan_for(&q, &ex).unwrap();
        assert_eq!(rendered_fp, format!("{:#018x}", plan::fingerprint(&plan)));
    }
}
