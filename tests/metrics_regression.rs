//! Counter-based regression tests: the per-layer operation counts of the
//! metrics registry are pinned to exact values for fixed inputs.
//!
//! These tests protect the *work* done by the evaluators, not just their
//! results: an accidental loss of memoization, a broken merge that
//! re-fetches postings, or a driver that silently runs extra rounds all
//! change these counts long before they change any query answer.
//!
//! The registry is thread-local and every `#[test]` runs on its own
//! thread, so the pinned diffs are stable under parallel test execution.
//! If an intentional algorithm change shifts a count, update the pinned
//! value *after* confirming the delta is explained by the change.

mod common;

use approxql::crates::gen::{DataGenConfig, DataGenerator};
use approxql::{Cost, CostModel, Database, Metric, MetricsSnapshot};

/// The Figure 1/3 sound-storage catalog used throughout the paper.
const CATALOG: &str = "<catalog>\
    <cd><title>piano concerto</title><composer>rachmaninov</composer></cd>\
    <cd><title>kinderszenen</title>\
        <tracks><track><title>vivace piano</title></track></tracks></cd>\
    </catalog>";

/// The paper's Section 6 example costs (delete concerto=6, track=3, …).
fn paper_costs() -> CostModel {
    approxql::tables::paper_section6_costs()
}

fn diff_over(f: impl FnOnce()) -> MetricsSnapshot {
    let before = approxql::metrics_snapshot();
    f();
    approxql::metrics_snapshot().diff(&before)
}

/// Asserts that exactly the listed counters are nonzero, with exactly the
/// listed values. The full nonzero set is compared, so a new operation
/// sneaking into the measured region fails the test too.
fn assert_counts(diff: &MetricsSnapshot, expected: &[(Metric, u64)]) {
    let got: Vec<(Metric, u64)> = diff.counters().filter(|&(_, v)| v != 0).collect();
    let want: Vec<(Metric, u64)> = expected.to_vec();
    assert_eq!(
        got, want,
        "\noperation counts changed;\n  got:  {got:?}\n  want: {want:?}"
    );
}

#[test]
fn direct_figure2_query_op_counts() {
    let db = Database::from_xml_str(CATALOG, paper_costs()).unwrap();
    let diff = diff_over(|| {
        let hits = db
            .query_direct(
                r#"cd[track[title["piano" and "concerto"]] and composer["rachmaninov"]]"#,
                None,
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].cost, Cost::finite(3));
    });
    assert_counts(
        &diff,
        &[
            (Metric::IndexLabelFetches, 7),
            (Metric::IndexPostingsFetched, 11),
            (Metric::ListFetchOps, 7),
            (Metric::ListShiftOps, 10),
            (Metric::ListMergeOps, 5),
            (Metric::ListJoinOps, 10),
            (Metric::ListOuterjoinOps, 17),
            (Metric::ListIntersectOps, 9),
            (Metric::ListUnionOps, 10),
            (Metric::ListSortOps, 1),
            (Metric::ListEntriesProduced, 51),
            (Metric::PlanCompile, 1),
            (Metric::PlanCacheMisses, 1),
            (Metric::PlanCseReuses, 31),
            (Metric::PostingsBlocksDecoded, 18),
            (Metric::PostingsBlocksSkipped, 6),
            (Metric::PostingsBytes, 106),
            (Metric::EvalDirectRuns, 1),
            (Metric::EvalDirectFetches, 12),
        ],
    );
}

#[test]
fn schema_figure2_query_op_counts() {
    let db = Database::from_xml_str(CATALOG, paper_costs()).unwrap();
    let diff = diff_over(|| {
        let hits = db
            .query_schema(
                r#"cd[track[title["piano" and "concerto"]] and composer["rachmaninov"]]"#,
                5,
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].cost, Cost::finite(3));
    });
    assert_counts(
        &diff,
        &[
            (Metric::IndexLabelFetches, 22),
            (Metric::IndexPostingsFetched, 28),
            (Metric::IndexSecondaryFetches, 130),
            (Metric::IndexSecondaryRows, 171),
            (Metric::TopkOps, 207),
            (Metric::TopkEntriesProduced, 525),
            (Metric::PlanCompile, 1),
            (Metric::PlanCacheMisses, 1),
            (Metric::PlanCseReuses, 31),
            (Metric::PostingsBlocksDecoded, 22),
            (Metric::PostingsBytes, 90),
            (Metric::EvalSchemaRuns, 3),
            (Metric::EvalSchemaRounds, 3),
            (Metric::EvalSecondLevelQueries, 32),
            (Metric::EvalSecondaryRows, 16),
        ],
    );
}

#[test]
fn plan_cache_and_cse_op_counts() {
    // One compile, one cache miss, then only hits: the keyed plan cache
    // answers repeats (including whitespace variants of the same query)
    // without recompiling, and CSE sharing during the single compile is
    // reported exactly once.
    let db = Database::from_xml_str(CATALOG, paper_costs()).unwrap();
    let query = r#"cd[track[title["piano"]]]"#;
    let first = diff_over(|| {
        db.query_direct(query, None).unwrap();
    });
    let repeats = diff_over(|| {
        db.query_direct(query, None).unwrap();
        // Normalizes through `Query::to_string`, so it keys identically.
        db.query_direct(r#"cd[ track [ title [ "piano" ] ] ]"#, None)
            .unwrap();
    });
    assert_eq!(first.get(Metric::PlanCompile), 1);
    assert_eq!(first.get(Metric::PlanCacheMisses), 1);
    assert_eq!(first.get(Metric::PlanCacheHits), 0);
    // The deletion-or bridges of `cd[track[...]]` share their bridged
    // child subplans; the compiler must report that sharing.
    assert!(first.get(Metric::PlanCseReuses) > 0);
    assert_eq!(repeats.get(Metric::PlanCompile), 0);
    assert_eq!(repeats.get(Metric::PlanCacheMisses), 0);
    assert_eq!(repeats.get(Metric::PlanCacheHits), 2);
    assert_eq!(repeats.get(Metric::PlanCseReuses), 0);
    // Cache hits execute the identical DAG: the evaluation work per run
    // is exactly double the first run's.
    for m in [
        Metric::IndexLabelFetches,
        Metric::ListEntriesProduced,
        Metric::EvalDirectFetches,
    ] {
        assert_eq!(repeats.get(m), 2 * first.get(m), "{}", m.name());
    }
}

#[test]
fn save_open_storage_op_counts() {
    let dir = std::env::temp_dir().join(format!("axql-metrics-reg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.axql");
    let db = Database::from_xml_str(CATALOG, paper_costs()).unwrap();
    let save_diff = diff_over(|| db.save(&path).unwrap());
    let open_diff = diff_over(|| {
        let db2 = Database::open(&path).unwrap();
        assert_eq!(db2.tree().stats().node_count, db.tree().stats().node_count);
    });
    std::fs::remove_dir_all(&dir).unwrap();
    // The segmented layout (DESIGN.md §15) writes more, smaller keys than
    // the old monolithic tree blob: per-document segments, the secondary
    // index, and the schema tree now persist too. All 31 values of this
    // catalogue are at most 480 bytes, so each lives inside its leaf entry
    // (since store format 3) and the whole image is one leaf: 4 pages
    // allocated and flushed (two header slots and the empty root at
    // create, the root's one copy-on-write relocation by the first put
    // after create's commit), 32 page writes (the empty root + one leaf
    // rewrite per put), and no value page. Format 2 gave every value a
    // page of its own: 34 / 34 / 61. Format 4 added exactly one put, the
    // `meta#classes` numbering that lets `sec#` keys carry stable class
    // ids (30 → 31 inserts, reads and node reads, 31 → 32 page writes).
    assert_counts(
        &save_diff,
        &[
            (Metric::PagerPageReads, 31),
            (Metric::PagerPageWrites, 32),
            (Metric::PagerPageAllocs, 4),
            (Metric::PagerBackendWrites, 4),
            (Metric::PagerFlushes, 2),
            (Metric::StoreCommits, 2),
            (Metric::BtreeInserts, 31),
            (Metric::BtreeNodeReads, 31),
        ],
    );
    // Open is 6 point reads (costs, interner, docmap, the one `doc#`
    // segment, classes, schema) and 3 prefix scans (`ls#`, `lt#`, `sec#`)
    // over that one leaf: a node read per get and one per scan — the
    // cursor parses the leaf it stands on once and hands its 27 entries
    // out by move — so 9 node reads are 9 page reads (no value page to
    // follow) and the leaf is the only cache miss. Format 2: 36 node reads
    // (the leaf was re-read for every scan step), 66 page reads, 31
    // misses; format 3 was one get (`classes`) less.
    assert_counts(
        &open_diff,
        &[
            (Metric::PagerPageReads, 9),
            (Metric::PagerCacheMisses, 1),
            (Metric::BtreeGets, 6),
            (Metric::BtreeNodeReads, 9),
            (Metric::BtreeScanSteps, 27),
            // Compressed frames, now covering both the label and the
            // secondary index (the schema is reassembled, not rebuilt).
            (Metric::IndexBytesDecoded, 669),
        ],
    );
}

#[test]
fn reopened_database_counts_like_the_resident_one() {
    // A database is the same object whether it was just built or came
    // back from a store file: the figure-2 schema query returns the same
    // hits for the same work, counter by counter.
    let dir = std::env::temp_dir().join(format!("axql-metrics-reopen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.axql");
    let resident = Database::from_xml_str(CATALOG, paper_costs()).unwrap();
    resident.save(&path).unwrap();
    let reopened = Database::open(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let query = r#"cd[track[title["piano" and "concerto"]] and composer["rachmaninov"]]"#;
    let run = |db: &Database| {
        let mut hits = Vec::new();
        let diff = diff_over(|| hits = db.query_schema(query, 5).unwrap());
        (hits, diff.counters().collect::<Vec<_>>())
    };
    assert_eq!(run(&resident), run(&reopened));
}

#[test]
fn generated_collection_op_counts() {
    // A small deterministic synthetic collection (Section 8.1 generator,
    // fixed seed): both evaluators' op counts pinned for one query.
    let mut cfg = DataGenConfig::paper_scale_divided(1000); // 1,000 elements
    cfg.seed = 42;
    let costs = CostModel::new();
    let tree = DataGenerator::new(cfg).generate_tree(&costs);
    let db = Database::from_tree(tree, costs);
    let query = r#"name001[name002 and "term1"]"#;
    let mut direct_hits = Vec::new();
    let mut schema_hits = Vec::new();
    let direct_diff = diff_over(|| {
        direct_hits = db.query_direct(query, Some(10)).unwrap();
    });
    let schema_diff = diff_over(|| {
        schema_hits = db.query_schema(query, 10).unwrap();
    });
    let pairs =
        |hits: &[approxql::QueryHit]| hits.iter().map(|h| (h.root, h.cost)).collect::<Vec<_>>();
    assert_eq!(pairs(&direct_hits), pairs(&schema_hits));
    assert_counts(
        &direct_diff,
        &[
            (Metric::IndexLabelFetches, 3),
            (Metric::IndexPostingsFetched, 405),
            (Metric::ListFetchOps, 3),
            (Metric::ListOuterjoinOps, 2),
            (Metric::ListIntersectOps, 1),
            (Metric::ListSortOps, 1),
            (Metric::ListEntriesProduced, 407),
            (Metric::PlanCompile, 1),
            (Metric::PlanCacheMisses, 1),
            // 7 fetched frames total; the selective join skips 2 outright.
            (Metric::PostingsBlocksDecoded, 5),
            (Metric::PostingsBlocksSkipped, 2),
            (Metric::PostingsBytes, 1616),
            (Metric::EvalDirectRuns, 1),
            (Metric::EvalDirectFetches, 3),
        ],
    );
    assert_counts(
        &schema_diff,
        &[
            (Metric::IndexLabelFetches, 7),
            (Metric::IndexPostingsFetched, 155),
            (Metric::IndexSecondaryFetches, 1),
            (Metric::IndexSecondaryRows, 2),
            (Metric::TopkOps, 14),
            (Metric::TopkEntriesProduced, 208),
            // The direct run above already compiled this query's plan, so
            // the schema evaluator finds it in the shared cache.
            (Metric::PlanCacheHits, 1),
            (Metric::PostingsBlocksDecoded, 7),
            (Metric::PostingsBytes, 613),
            (Metric::EvalSchemaRuns, 2),
            (Metric::EvalSchemaRounds, 2),
        ],
    );
}

#[test]
fn repeated_runs_count_identically() {
    // Evaluation is deterministic: the same query twice produces the
    // identical diff (this is what makes the pinned tests meaningful).
    let db = Database::from_xml_str(CATALOG, paper_costs()).unwrap();
    let query = r#"cd[title["piano" and "concerto"]]"#;
    // Warm the plan cache so both measured rounds take the same path
    // (hit) instead of the first one paying the compile.
    db.query_direct(query, None).unwrap();
    let first = diff_over(|| {
        db.query_direct(query, None).unwrap();
        db.query_schema(query, 5).unwrap();
    });
    let second = diff_over(|| {
        db.query_direct(query, None).unwrap();
        db.query_schema(query, 5).unwrap();
    });
    let first_counts: Vec<(Metric, u64)> = first.counters().collect();
    let second_counts: Vec<(Metric, u64)> = second.counters().collect();
    assert_eq!(first_counts, second_counts);
    assert!(!first.is_zero());
}

#[test]
fn eval_harness_op_counts() {
    // One pass of the figure-2 fixture golden: nine (query, evaluator)
    // runs, four direct and five schema-driven. One schema query needs a
    // second k-escalation round, and every round is one schema run, so
    // five queries make six runs.
    let fixtures = common::load("figure2");
    let dbs: Vec<Database> = fixtures
        .iter()
        .map(|f| f.database(common::CATALOG))
        .collect();
    let diff = diff_over(|| {
        for (f, db) in fixtures.iter().zip(&dbs) {
            for &e in &f.evaluators {
                f.check(e, &f.run(db, e, 1));
            }
        }
    });
    assert_eq!(diff.get(Metric::EvalDirectRuns), 4);
    assert_eq!(diff.get(Metric::EvalSchemaRuns), 6);
    assert_eq!(diff.get(Metric::EvalSchemaRounds), 6);
    assert_eq!(diff.get(Metric::EvalSecondLevelQueries), 56);
}

#[test]
fn registry_is_exactly_the_documented_catalogue() {
    // Pins the *names* of every counter and timer, in registry order. The
    // `metric-coverage` lint rule cross-checks this same set against the
    // registry in `crates/metrics` and the catalogue in DESIGN.md §8.1;
    // together they guarantee no metric can be added, renamed, or removed
    // without touching all three surfaces in one reviewed diff.
    use approxql::TimerMetric;
    let counters: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
    assert_eq!(
        counters,
        [
            (Metric::PagerPageReads, "pager.page_reads"),
            (Metric::PagerCacheMisses, "pager.cache_misses"),
            (Metric::PagerPageWrites, "pager.page_writes"),
            (Metric::PagerPageAllocs, "pager.page_allocs"),
            (Metric::PagerBackendWrites, "pager.backend_writes"),
            (Metric::PagerFlushes, "pager.flushes"),
            (Metric::PagerEvictions, "pager.evictions"),
            (Metric::PagerChecksumFailures, "pager.checksum_failures"),
            (Metric::StoreCommits, "store.commits"),
            (Metric::StoreRecoveryRollbacks, "store.recovery_rollbacks"),
            (Metric::StoreDocInserts, "store.doc_inserts"),
            (Metric::StoreDocDeletes, "store.doc_deletes"),
            (Metric::BtreeGets, "btree.gets"),
            (Metric::BtreeInserts, "btree.inserts"),
            (Metric::BtreeDeletes, "btree.deletes"),
            (Metric::BtreeNodeReads, "btree.node_reads"),
            (Metric::BtreeNodeSplits, "btree.node_splits"),
            (Metric::BtreeScanSteps, "btree.scan_steps"),
            (Metric::IndexLabelFetches, "index.label_fetches"),
            (Metric::IndexPostingsFetched, "index.postings_fetched"),
            (Metric::IndexSecondaryFetches, "index.secondary_fetches"),
            (Metric::IndexSecondaryRows, "index.secondary_rows"),
            (Metric::IndexBytesDecoded, "index.bytes_decoded"),
            (Metric::ListFetchOps, "list.fetch_ops"),
            (Metric::ListShiftOps, "list.shift_ops"),
            (Metric::ListMergeOps, "list.merge_ops"),
            (Metric::ListJoinOps, "list.join_ops"),
            (Metric::ListOuterjoinOps, "list.outerjoin_ops"),
            (Metric::ListIntersectOps, "list.intersect_ops"),
            (Metric::ListUnionOps, "list.union_ops"),
            (Metric::ListSortOps, "list.sort_ops"),
            (Metric::ListEntriesProduced, "list.entries_produced"),
            (Metric::TopkOps, "topk.ops"),
            (Metric::TopkEntriesProduced, "topk.entries_produced"),
            (Metric::PlanCompile, "plan.compile"),
            (Metric::PlanCacheHits, "plan.cache_hits"),
            (Metric::PlanCacheMisses, "plan.cache_misses"),
            (Metric::PlanCseReuses, "plan.cse_reuses"),
            (Metric::PlanCacheInvalidations, "plan.cache_invalidations"),
            (Metric::PostingsBlocksDecoded, "postings.blocks_decoded"),
            (Metric::PostingsBlocksSkipped, "postings.blocks_skipped"),
            (Metric::PostingsBytes, "postings.bytes"),
            (Metric::EvalDirectRuns, "eval.direct_runs"),
            (Metric::EvalDirectFetches, "eval.direct_fetches"),
            (Metric::EvalSchemaRuns, "eval.schema_runs"),
            (Metric::EvalSchemaRounds, "eval.schema_rounds"),
            (Metric::EvalSecondLevelQueries, "eval.second_level_queries"),
            (Metric::EvalSecondaryRows, "eval.secondary_rows"),
        ]
        .map(|(_, name)| name)
    );
    let timers: Vec<&str> = TimerMetric::ALL.iter().map(|t| t.name()).collect();
    assert_eq!(
        timers,
        [
            (TimerMetric::EvalDirect, "eval.direct"),
            (TimerMetric::EvalSchema, "eval.schema"),
            (TimerMetric::SecondLevel, "eval.second_level"),
            (TimerMetric::StoreCommit, "storage.commit"),
            (TimerMetric::IndexBuild, "index.build"),
        ]
        .map(|(_, name)| name)
    );
}
