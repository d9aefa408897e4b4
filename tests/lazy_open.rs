//! A database opened from a file reads only its store's catalogue; each
//! query fetches the lists of its own plan's labels. It is the resident
//! database nonetheless: for every fixture query, on both evaluators, the
//! same hits, costs and order, and the same work counter by counter —
//! except the storage counters, which only a query that reads the store
//! has.

mod common;

use approxql::crates::metrics::Layer;
use approxql::{parse_cost_file, Database, DbFile, Metric, MetricsSnapshot, NodeId};
use common::{Evaluator, Fixture, Hit};

/// The counters of `diff` outside the pager, store and B+-tree layers,
/// less `index.bytes_decoded`, which counts the lists a query reads.
fn non_storage(diff: &MetricsSnapshot) -> Vec<(Metric, u64)> {
    let storage = |m: Metric| {
        matches!(m.layer(), Layer::Pager | Layer::Store | Layer::Btree)
            || m == Metric::IndexBytesDecoded
    };
    diff.counters().filter(|&(m, _)| !storage(m)).collect()
}

/// The hits of `f` on `db` and the non-storage work they took.
fn observe(
    f: &Fixture,
    db: &Database,
    evaluator: Evaluator,
    nodes: usize,
) -> (Vec<Hit>, Vec<(Metric, u64)>) {
    let before = approxql::metrics_snapshot();
    let hits = f.run_over(db, evaluator, nodes);
    (
        hits,
        non_storage(&approxql::metrics_snapshot().diff(&before)),
    )
}

/// Holds `lazy` to `resident` on every query of `fixtures`, in order (so
/// that both plan caches see the same sequence).
fn assert_same(fixtures: &[Fixture], resident: &Database, lazy: &Database) {
    let nodes = resident.tree().len();
    for f in fixtures {
        for &e in &f.evaluators {
            let want = observe(f, resident, e, nodes);
            let got = observe(f, lazy, e, nodes);
            assert_eq!(got, want, "{} on {}", f.id, e.name());
        }
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("axql-lazy-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_lazily_opened_store_is_the_resident_database() {
    // The fixtures of a dataset differ in rename and delete costs only, so
    // each dataset is built and saved once, and both databases take every
    // fixture's cost table through `set_query_costs`.
    let dir = temp_dir("fixtures");
    let path = dir.join("db.axql");
    for (name, corpus) in common::DATASETS {
        let fixtures = common::load(name);
        let mut resident = fixtures[0].database(corpus);
        resident.save(&path).unwrap();
        let mut lazy = Database::open(&path).unwrap();
        for f in &fixtures {
            let costs = parse_cost_file(f.costs.as_deref().unwrap_or("")).unwrap();
            resident.set_query_costs(costs.clone()).unwrap();
            lazy.set_query_costs(costs).unwrap();
            assert_same(std::slice::from_ref(f), &resident, &lazy);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_mutated_store_opens_as_the_database_that_wrote_it() {
    let dir = temp_dir("mutated");
    let path = dir.join("db.axql");
    let fixtures = common::load("figure2");
    assert!(fixtures.iter().all(|f| f.costs == fixtures[0].costs));
    let mut file = DbFile::create(&path, fixtures[0].database(common::CATALOG)).unwrap();
    let docs = [
        // A top-level `cd` is a path of its own: the schema grows.
        "<cd><title>piano concerto</title><year>1999</year></cd>",
        "<mc><title>piano sonata</title><composer>brahms</composer></mc>",
    ]
    .map(|xml| approxql::parse_document(xml).unwrap());
    let spans = file.insert_documents(&docs).unwrap();
    file.delete_document(NodeId(spans[0].start)).unwrap();
    let lazy = Database::open(&path).unwrap();
    assert_same(&fixtures, file.database(), &lazy);
    drop(file);
    std::fs::remove_dir_all(&dir).unwrap();
}
