//! The committed datasets as a hits-and-costs golden.
//!
//! Every query of `datasets/figure2.json` runs on the evaluators its
//! dataset names, and the hits are held to the committed `expected` list
//! (`common::Fixture::check`): the direct evaluator returns its first k
//! entries exactly, the schema-driven evaluator the same costs rank by
//! rank. `tests/golden/eval_table.txt` is the same run printed one hit per
//! line; when a change moves a hit on purpose, the assertion message shows
//! the new listing to review and commit.

mod common;

use approxql::{Database, QueryInput, Surface};
use common::{Evaluator, Fixture, Hit, CATALOG};

/// An evaluator and the hits it returned.
type Run = (Evaluator, Vec<Hit>);

/// Each fixture of a figure-2 dataset with its hits per evaluator.
fn figure2_runs(name: &str) -> Vec<(Fixture, Vec<Run>)> {
    common::load(name)
        .into_iter()
        .map(|f| {
            let db = f.database(CATALOG);
            let hits = f.evaluators.iter().map(|&e| (e, f.run(&db, e))).collect();
            (f, hits)
        })
        .collect()
}

#[test]
fn eval_table_matches_golden() {
    let mut listing = format!(
        "{:<14} {:<6} {:>4} {:>4} {:>4}\n",
        "query", "engine", "rank", "id", "cost"
    );
    for (f, runs) in figure2_runs("figure2") {
        for (evaluator, hits) in runs {
            for (rank, (id, cost)) in hits.iter().enumerate() {
                listing.push_str(&format!(
                    "{:<14} {:<6} {rank:>4} {id:>4} {:>4}\n",
                    f.id,
                    evaluator.name(),
                    cost.to_string()
                ));
            }
        }
    }
    assert_eq!(
        listing,
        include_str!("golden/eval_table.txt"),
        "the figure-2 hits changed; new listing:\n{listing}"
    );
}

#[test]
fn eval_json_matches_golden() {
    for (f, runs) in figure2_runs("figure2") {
        for (evaluator, hits) in runs {
            f.check(evaluator, &hits);
        }
    }
}

#[test]
fn figure2_metrics_are_pinned() {
    // Four queries on both evaluators and one on the schema evaluator
    // alone, which at k = unlimited returns every expected hit.
    let runs = figure2_runs("figure2");
    let per_evaluator = |e| {
        runs.iter()
            .filter(|(f, _)| f.evaluators.contains(&e))
            .count()
    };
    assert_eq!(per_evaluator(Evaluator::Direct), 4);
    assert_eq!(per_evaluator(Evaluator::Schema), 5);
    let (all_cds, hits) = runs
        .iter()
        .find(|(f, _)| f.id == "all-cds")
        .expect("the dataset has the unlimited schema query");
    assert_eq!(all_cds.k, None);
    assert_eq!(all_cds.evaluators, [Evaluator::Schema]);
    assert_eq!(all_cds.expected.len(), 5);
    assert_eq!(hits[0].1.len(), 5);
    all_cds.check(Evaluator::Schema, &hits[0].1);
}

#[test]
fn figure2_json_mirror_matches_classic_exactly() {
    // `datasets/figure2_json.json` is the figure-2 workload spelled in the
    // JSON query-IR surface (generated with `approxql translate`). Every
    // surface lowers through one normalized AST, so the mirror has the
    // classic dataset's settings and expected lists, and returns its hits.
    let classic = figure2_runs("figure2");
    let mirror = figure2_runs("figure2_json");
    assert_eq!(mirror.len(), classic.len());
    for ((m, m_hits), (c, c_hits)) in mirror.iter().zip(&classic) {
        assert_eq!(Surface::detect(&m.query), Surface::Json, "{}", m.id);
        assert_eq!(
            QueryInput::new(&m.query).parse().unwrap(),
            QueryInput::new(&c.query).parse().unwrap(),
            "{}",
            m.id
        );
        let respelled = Fixture {
            query: c.query.clone(),
            ..m.clone()
        };
        assert_eq!(respelled, *c);
        assert_eq!(m_hits, c_hits, "{}", m.id);
    }
}

#[test]
fn committed_truth_matches_regenerated_truth() {
    // Every committed `expected` list is what the direct evaluator returns
    // untruncated today, from a store that was saved and opened again: a
    // change that shifts the reference results fails here.
    let dir = std::env::temp_dir().join(format!("axql-fixture-truth-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.axql");
    for (name, corpus) in common::DATASETS {
        for f in common::load(name) {
            f.database(corpus).save(&path).unwrap();
            let reopened = Database::open(&path).unwrap();
            let untruncated = Fixture {
                k: None,
                ..f.clone()
            };
            let got = untruncated.run(&reopened, Evaluator::Direct);
            assert_eq!(got, f.expected, "{name} {}", f.id);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
