//! Thread-count determinism of the fixture golden, mirroring
//! tests/parallel_determinism.rs on the committed datasets: the hits of
//! every fixture query, and the work counters that produce them, are the
//! same at 1, 2 and 4 threads, and they pass the golden.

mod common;

use approxql::{Database, Metric};
use common::{Evaluator, Fixture, Hit};

fn counter_diff(f: impl FnOnce()) -> Vec<(Metric, u64)> {
    let before = approxql::metrics_snapshot();
    f();
    approxql::metrics_snapshot()
        .diff(&before)
        .counters()
        .filter(|&(_, v)| v != 0)
        .collect()
}

/// Runs every fixture on its evaluators at 1, 2 and 4 threads, asserts
/// equal hits and equal counter diffs, and holds the hits to the golden.
/// A first pass at one thread warms every plan cache, so the compared
/// passes all take the cached path.
fn assert_thread_count_invariant(corpus: &str, fixtures: &[Fixture]) {
    let dbs: Vec<Database> = fixtures.iter().map(|f| f.database(corpus)).collect();
    let pass = |threads: usize| -> Vec<(&Fixture, Evaluator, Vec<Hit>)> {
        let runs = fixtures.iter().zip(&dbs).flat_map(|(f, db)| {
            f.evaluators
                .iter()
                .map(move |&e| (f, e, f.run(db, e, threads)))
        });
        runs.collect()
    };
    pass(1);
    let mut base = Vec::new();
    let base_counts = counter_diff(|| base = pass(1));
    for threads in [2, 4] {
        let mut runs = Vec::new();
        let counts = counter_diff(|| runs = pass(threads));
        assert_eq!(runs, base, "hits differ at {threads} threads");
        assert_eq!(
            counts, base_counts,
            "work counters differ at {threads} threads"
        );
    }
    for (f, evaluator, hits) in &base {
        f.check(*evaluator, hits);
    }
}

#[test]
fn gen_truth_is_thread_count_invariant() {
    // The reference configuration: direct, untruncated, on the figure-7
    // corpus with five renamings per label.
    let fixtures: Vec<Fixture> = common::load("figure7_ren5")
        .into_iter()
        .map(|f| Fixture {
            k: None,
            evaluators: vec![Evaluator::Direct],
            ..f
        })
        .collect();
    assert_thread_count_invariant(common::FIGURE7_CORPUS, &fixtures);
}

#[test]
fn eval_reports_are_thread_count_invariant() {
    // Both evaluators at the datasets' k, with and without renamings.
    for name in ["figure7_ren0", "figure7_ren10"] {
        assert_thread_count_invariant(common::FIGURE7_CORPUS, &common::load(name));
    }
}

#[test]
fn committed_figure2_report_is_thread_count_invariant() {
    assert_thread_count_invariant(common::CATALOG, &common::load("figure2"));
}
