//! Determinism of the fixture golden, mirroring tests/parallel_determinism.rs
//! on the committed datasets: the hits of every fixture query, and the work
//! counters that produce them, are the same on two independently built
//! databases, whether one thread or 2 or 4 caller threads share the runs,
//! and they pass the golden.

mod common;

use approxql::{Database, Metric};
use common::{Evaluator, Fixture, Hit};
use std::sync::Barrier;

/// The hits of every (fixture, evaluator) run, in fixture order, and the
/// nonzero work counters summed over every thread that ran them. The runs
/// are split into `threads` contiguous shares, one caller thread each,
/// released together by a barrier.
fn pass(
    fixtures: &[Fixture],
    dbs: &[Database],
    threads: usize,
) -> (Vec<Vec<Hit>>, Vec<(Metric, u64)>) {
    let runs: Vec<(&Fixture, &Database, Evaluator)> = fixtures
        .iter()
        .zip(dbs)
        .flat_map(|(f, db)| f.evaluators.iter().map(move |&e| (f, db, e)))
        .collect();
    let shares: Vec<_> = runs.chunks(runs.len().div_ceil(threads).max(1)).collect();
    let start = &Barrier::new(shares.len());
    let done = std::thread::scope(|s| {
        let handles: Vec<_> = shares
            .into_iter()
            .map(|share| {
                s.spawn(move || {
                    start.wait();
                    let before = approxql::metrics_snapshot();
                    let hits: Vec<Vec<Hit>> =
                        share.iter().map(|&(f, db, e)| f.run(db, e)).collect();
                    (hits, approxql::metrics_snapshot().diff(&before))
                })
            })
            .collect();
        let joined: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        joined
    });
    let mut hits = Vec::new();
    let mut counts = vec![0u64; Metric::ALL.len()];
    for (share_hits, diff) in done {
        hits.extend(share_hits);
        for (total, (_, v)) in counts.iter_mut().zip(diff.counters()) {
            *total += v;
        }
    }
    let counts = Metric::ALL.iter().copied().zip(counts);
    (hits, counts.filter(|&(_, v)| v != 0).collect())
}

/// Builds the fixtures' databases twice, warms every plan cache with a
/// first pass over each, and asserts that passes over the second build at
/// 1, 2 and 4 threads repeat the hits and counters of a one-thread pass
/// over the first. Holds the hits to the golden.
fn assert_thread_count_invariant(corpus: &str, fixtures: &[Fixture]) {
    let build = || -> Vec<Database> { fixtures.iter().map(|f| f.database(corpus)).collect() };
    let (first, second) = (build(), build());
    pass(fixtures, &first, 1);
    pass(fixtures, &second, 1);
    let (base, base_counts) = pass(fixtures, &first, 1);
    assert!(!base_counts.is_empty(), "no work counted");
    for threads in [1, 2, 4] {
        let (hits, counts) = pass(fixtures, &second, threads);
        assert_eq!(hits, base, "hits differ at {threads} threads");
        assert_eq!(
            counts, base_counts,
            "work counters differ at {threads} threads"
        );
    }
    let runs = fixtures
        .iter()
        .flat_map(|f| f.evaluators.iter().map(move |&e| (f, e)));
    for ((f, evaluator), hits) in runs.zip(&base) {
        f.check(evaluator, hits);
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
