//! Determinism across independent builds: two databases built separately
//! from one collection hash their labels in different orders (every
//! `HashMap` draws its own seed). Queried side by side, each on its own
//! thread, they must return byte-identical (pre, cost) result lists *and*
//! the same nonzero work counters, for both evaluators.
//!
//! This pins two properties callers rely on (DESIGN.md §9):
//!
//! 1. no result and no counter depends on a hash map's iteration order;
//! 2. a `Database` may be queried from the caller's own threads, and each
//!    thread's counters record exactly the work of its own queries.
//!
//! The collection is a seeded Section 8.1 synthetic collection; both
//! databases are built once and shared across cases (evaluation is
//! read-only).

use approxql::crates::core::schema_eval::SchemaEvalConfig;
use approxql::crates::core::EvalOptions;
use approxql::crates::gen::{DataGenConfig, DataGenerator};
use approxql::{CostModel, Database, Metric};
use proptest::prelude::*;
use std::sync::{Barrier, OnceLock};

fn dbs() -> &'static [Database; 2] {
    static DBS: OnceLock<[Database; 2]> = OnceLock::new();
    DBS.get_or_init(|| {
        std::array::from_fn(|_| {
            let mut cfg = DataGenConfig::paper_scale_divided(1000); // 1,000 elements
            cfg.seed = 2002;
            let costs = CostModel::new();
            let tree = DataGenerator::new(cfg).generate_tree(&costs);
            Database::from_tree(tree, costs)
        })
    })
}

/// Random tree-pattern queries over the generated label/word alphabet:
/// `nameNNN` element names and `termN` words, one or two conjuncts, with
/// optional nesting and disjunction.
fn gen_query() -> impl Strategy<Value = String> {
    let label = || (1usize..7).prop_map(|i| format!("name{i:03}"));
    let word = || (1usize..4).prop_map(|i| format!("\"term{i}\""));
    let child = prop_oneof![
        label(),
        word(),
        (label(), word()).prop_map(|(l, w)| format!("{l}[{w}]")),
        (label(), label()).prop_map(|(l, r)| format!("({l} or {r})")),
    ];
    (label(), proptest::collection::vec(child, 1..3))
        .prop_map(|(root, cs)| format!("{root}[{}]", cs.join(" and ")))
}

type Run = (Vec<(approxql::NodeId, approxql::Cost)>, Vec<(Metric, u64)>);

fn run_direct(db: &Database, query: &str, n: usize) -> Run {
    let before = approxql::metrics_snapshot();
    let (hits, _) = db
        .query_direct_with(query, Some(n), EvalOptions::default())
        .unwrap();
    let diff = approxql::metrics_snapshot().diff(&before);
    (
        hits.iter().map(|h| (h.root, h.cost)).collect(),
        diff.counters().filter(|&(_, v)| v != 0).collect(),
    )
}

fn run_schema(db: &Database, query: &str, n: usize) -> Run {
    let before = approxql::metrics_snapshot();
    let (hits, _) = db
        .query_schema_with(
            query,
            n,
            EvalOptions::default(),
            SchemaEvalConfig::default(),
        )
        .unwrap();
    let diff = approxql::metrics_snapshot().diff(&before);
    (
        hits.iter().map(|h| (h.root, h.cost)).collect(),
        diff.counters().filter(|&(_, v)| v != 0).collect(),
    )
}

/// Runs `run` on each database once to warm its plan cache (otherwise the
/// first run's compile/miss counters differ), then on both at once, one
/// thread each, released together by a barrier.
fn side_by_side(run: impl Fn(&Database) -> Run + Sync) -> [Run; 2] {
    for db in dbs() {
        run(db);
    }
    let (run, start) = (&run, &Barrier::new(2));
    std::thread::scope(|s| {
        let spawn = |db| {
            s.spawn(move || {
                start.wait();
                run(db)
            })
        };
        dbs().each_ref().map(spawn).map(|h| h.join().unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_direct_is_deterministic(query in gen_query(), n in 1usize..16) {
        let [(hits, counts), (other_hits, other_counts)] =
            side_by_side(|db| run_direct(db, &query, n));
        prop_assert!(!counts.is_empty(), "no work counted for {}", query);
        prop_assert_eq!(&other_hits, &hits, "direct results differ between builds for {}", query);
        prop_assert_eq!(
            &other_counts, &counts,
            "direct work counters differ between builds for {}", query
        );
    }

    #[test]
    fn parallel_schema_is_deterministic(query in gen_query(), n in 1usize..16) {
        let [(hits, counts), (other_hits, other_counts)] =
            side_by_side(|db| run_schema(db, &query, n));
        prop_assert!(!counts.is_empty(), "no work counted for {}", query);
        prop_assert_eq!(&other_hits, &hits, "schema results differ between builds for {}", query);
        prop_assert_eq!(
            &other_counts, &counts,
            "schema work counters differ between builds for {}", query
        );
    }
}
