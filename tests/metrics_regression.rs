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

use approxql::crates::core::schema_eval::best_k_second_level_plan;
use approxql::crates::core::SchemaEvalConfig;
use approxql::crates::gen::{DataGenConfig, DataGenerator};
use approxql::{Cost, CostModel, Database, EvalOptions, Metric, MetricsSnapshot};

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
            // One k-ary merge per renamed selector: the two-link chain
            // of `cd`'s renamings is one merge now (5 → 4).
            (Metric::ListMergeOps, 4),
            (Metric::ListJoinOps, 10),
            (Metric::ListOuterjoinOps, 17),
            (Metric::ListIntersectOps, 9),
            (Metric::ListUnionOps, 10),
            (Metric::ListSortOps, 1),
            // That chain's intermediate list (1 entry) is gone (51 → 50).
            (Metric::ListEntriesProduced, 50),
            (Metric::PlanCompile, 1),
            (Metric::PlanCacheMisses, 1),
            (Metric::PlanCseReuses, 31),
            // Each fetch decodes its list once, 7 in all.
            (Metric::PostingsBlocksDecoded, 7),
            // A run stores each list's first `pre` delta (37 → 44).
            (Metric::PostingsBytes, 44),
            (Metric::EvalDirectRuns, 1),
            // The index lookups, not the plan's 12 `Fetch` ops: the 5
            // fetches of labels the collection lacks read no index.
            (Metric::EvalDirectFetches, 7),
        ],
    );
}

#[test]
fn direct_stats_count_entries_like_the_registry() {
    // `--stats` prints `DirectStats::list_entries` next to the registry's
    // `list.entries_produced`: both count every operator output but a
    // `shift`'s, plus the pairs `sort_best` keeps.
    let db = Database::from_xml_str(CATALOG, paper_costs()).unwrap();
    let query = r#"cd[track[title["piano" and "concerto"]] and composer["rachmaninov"]]"#;
    for n in [Some(1), None] {
        let mut stats = None;
        let diff = diff_over(|| {
            stats = Some(
                db.query_direct_with(query, n, EvalOptions::default())
                    .unwrap()
                    .1,
            );
        });
        assert_eq!(
            stats.unwrap().list_entries as u64,
            diff.get(Metric::ListEntriesProduced),
            "n = {n:?}"
        );
    }
}

#[test]
fn fetch_counts_are_the_index_lookups_of_one_execution() {
    // Every evaluator reports the fetches its one execution makes of the
    // index — what `index.label_fetches` counts — not its plan's `Fetch`
    // ops: a fetch of a label the collection lacks reads no index.
    let db = Database::from_xml_str(CATALOG, paper_costs()).unwrap();
    let query = r#"cd[track[title["piano" and "concerto"]] and composer["rachmaninov"]]"#;
    let parsed = approxql::parse_query(query).unwrap();
    let expanded = approxql::ExpandedQuery::build(&parsed, &paper_costs());
    let compiled = approxql::crates::plan::compile(&expanded).unwrap();
    let is_fetch = |op: &&approxql::crates::plan::PlanOp| {
        matches!(op, approxql::crates::plan::PlanOp::Fetch { .. })
    };
    assert_eq!(compiled.ops().iter().filter(is_fetch).count(), 12);
    let opts = EvalOptions::default();

    let mut direct = None;
    let diff = diff_over(|| direct = Some(db.query_direct_with(query, None, opts).unwrap().1));
    assert_eq!(diff.get(Metric::IndexLabelFetches), 7);
    assert_eq!(direct.unwrap().fetches as u64, 7);
    assert_eq!(diff.get(Metric::EvalDirectFetches), 7);

    let mut schema_stats = None;
    let diff = diff_over(|| {
        let cfg = SchemaEvalConfig::default();
        schema_stats = Some(db.query_schema_with(query, 5, opts, cfg).unwrap().1);
    });
    assert_eq!(diff.get(Metric::IndexLabelFetches), 7);
    assert_eq!(schema_stats.unwrap().fetches as u64, 7);

    let schema = approxql::crates::schema::Schema::build(db.tree(), &paper_costs());
    let interner = db.tree().interner();
    let mut run = None;
    let diff = diff_over(|| {
        run = Some(best_k_second_level_plan(
            &compiled, &schema, interner, 4, opts,
        ));
    });
    assert_eq!(diff.get(Metric::IndexLabelFetches), 7);
    assert_eq!(run.unwrap().fetches as u64, 7);
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
            // The plan runs once for all three batches (3 × 7 fetches),
            // and counting the possible roots fetches nothing (+1 label,
            // +1 secondary fetch, +2 rows): 22 → 7, 130 → 129.
            (Metric::IndexLabelFetches, 7),
            (Metric::IndexPostingsFetched, 9),
            // The 32 queries' distinct sub-skeletons, each evaluated once
            // per query, and none of a node with an empty child fetched
            // (129 → 47 lookups, 169 → 83 rows).
            (Metric::IndexSecondaryFetches, 47),
            (Metric::IndexSecondaryRows, 83),
            // One execution's 67 operators and the root queue (204 → 68);
            // the candidates the 32 drawn queries need (463 → 151).
            (Metric::TopkOps, 68),
            (Metric::TopkEntriesProduced, 151),
            (Metric::PlanCompile, 1),
            (Metric::PlanCacheMisses, 1),
            (Metric::PlanCseReuses, 31),
            (Metric::PostingsBlocksDecoded, 7),
            (Metric::PostingsBytes, 36),
            // One plan execution for all 32 draws (3 → 1: the batches of
            // 10, 20 and 40 queries it used to count are gone).
            (Metric::EvalSchemaRuns, 1),
            (Metric::EvalSecondLevelQueries, 32),
            (Metric::EvalSecondaryRows, 16),
        ],
    );
}

#[test]
fn schema_driver_executes_its_plan_once_over_all_batches() {
    // `n = 2` needs at least two second-level queries, and every one is
    // drawn from the streams of one plan execution.
    let db = Database::from_xml_str(CATALOG, paper_costs()).unwrap();
    let query = r#"cd[title["piano"]]"#;
    let mut stats = None;
    let diff = diff_over(|| {
        let cfg = SchemaEvalConfig::default();
        let (hits, s) = db
            .query_schema_with(query, 2, EvalOptions::default(), cfg)
            .unwrap();
        assert_eq!(hits.len(), 2);
        stats = Some(s);
    });
    let stats = stats.unwrap();
    assert!(stats.second_level_queries >= 2, "{stats:?}");
    assert_eq!(stats.fetches as u64, diff.get(Metric::IndexLabelFetches));
    assert_eq!(diff.get(Metric::EvalSchemaRuns), 1);
    // A fetch of a label the collection lacks reads no index, so the
    // index sees what one execution of the plan reads: what the direct
    // evaluation's one execution reads.
    let direct = diff_over(|| {
        db.query_direct(query, None).unwrap();
    });
    assert_eq!(
        diff.get(Metric::IndexLabelFetches),
        direct.get(Metric::IndexLabelFetches)
    );
    assert!(direct.get(Metric::IndexLabelFetches) > 0);
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
    let mut reopened = None;
    let open_diff = diff_over(|| reopened = Some(Database::open(&path).unwrap()));
    let reopened = reopened.unwrap();
    assert_eq!(
        reopened.tree().stats().node_count,
        db.tree().stats().node_count
    );
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
    // Open reads the catalogue and nothing else: 5 point reads (costs,
    // interner, docmap, schema, classes) of the one leaf, a node read and
    // a page read each, the leaf the only cache miss, and no posting list
    // decoded. Until format 6 open decoded the whole store — 6 gets (the
    // `doc#` segment too) and 3 prefix scans (`ls#`, `lt#`, `sec#`) over
    // 27 entries: 9 node and page reads, 669 `index.bytes_decoded`. Those
    // reads now happen where they are needed: a query reads its own lists
    // (`reopened_database_counts_like_the_resident_one`), and `tree()`
    // above decoded the rest, outside this diff.
    assert_counts(
        &open_diff,
        &[
            (Metric::PagerPageReads, 5),
            (Metric::PagerCacheMisses, 1),
            (Metric::BtreeGets, 5),
            (Metric::BtreeNodeReads, 5),
        ],
    );
}

/// Whether a counter belongs to the layers a store-backed query adds
/// work in: pager, store, B+-tree, and the `index.bytes_decoded` of the
/// lists it reads.
fn is_storage(m: Metric) -> bool {
    use approxql::crates::metrics::Layer;
    matches!(m.layer(), Layer::Pager | Layer::Store | Layer::Btree)
        || m == Metric::IndexBytesDecoded
}

#[test]
fn reopened_database_counts_like_the_resident_one() {
    // A database is the same object whether it was just built or came
    // back from a store file: the figure-2 schema query returns the same
    // hits for the same work, counter by counter — the reopened one reads
    // its lists from the store, which only the storage counters show.
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
        let (storage, rest) = diff
            .counters()
            .partition::<Vec<_>, _>(|&(m, _)| is_storage(m));
        (hits, rest, storage)
    };
    let (hits, counts, storage) = run(&resident);
    assert!(storage.iter().all(|&(_, v)| v == 0), "{storage:?}");
    let (reopened_hits, reopened_counts, reopened_storage) = run(&reopened);
    assert_eq!((hits, counts), (reopened_hits, reopened_counts));
    // The plan fetches seven labels (cd, track, title, piano, concerto,
    // composer, rachmaninov): seven prefix scans of the one leaf that holds
    // every key, which `open` left in the page cache — seven node and page
    // reads, no miss. They step over the nine `sec#` lists of those labels
    // (`title` and `piano` have two classes each) and the key that ends
    // each scan, and decode 58 bytes of lists (229 → 58: a list's 20-byte
    // skip header and 4-byte frame count became a 4-byte entry count and
    // its first `pre` delta).
    let nonzero: Vec<_> = reopened_storage
        .into_iter()
        .filter(|&(_, v)| v != 0)
        .collect();
    assert_eq!(
        nonzero,
        [
            (Metric::PagerPageReads, 7),
            (Metric::BtreeNodeReads, 7),
            (Metric::BtreeScanSteps, 16),
            (Metric::IndexBytesDecoded, 58),
        ]
    );
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
            // Each fetch decodes its list once: the three fetched lists
            // held 6 frames (6 → 3).
            (Metric::PostingsBlocksDecoded, 3),
            // A run stores every first `pre` delta (1620 → 1627).
            (Metric::PostingsBytes, 1627),
            (Metric::EvalDirectRuns, 1),
            (Metric::EvalDirectFetches, 3),
        ],
    );
    assert_counts(
        &schema_diff,
        &[
            // The plan runs once (two rounds of three fetches were 6 of
            // the 7), and counting the possible roots fetches nothing
            // (the 7th fetch, its secondary fetch and 2 rows). The root
            // list is empty.
            (Metric::IndexLabelFetches, 3),
            (Metric::IndexPostingsFetched, 77),
            // One execution's operators (14 → 7); 77 seeds, and with
            // no root there is no candidate to draw (208 → 77).
            (Metric::TopkOps, 7),
            (Metric::TopkEntriesProduced, 77),
            // The direct run above already compiled this query's plan, so
            // the schema evaluator finds it in the shared cache.
            (Metric::PlanCacheHits, 1),
            (Metric::PostingsBlocksDecoded, 3),
            (Metric::PostingsBytes, 308),
            // One plan execution.
            (Metric::EvalSchemaRuns, 1),
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
    // runs, four direct and five schema-driven, each of which executes
    // its plan once (6 → 5: the second batch of one query no longer
    // counts as a run).
    let fixtures = common::load("figure2");
    let dbs: Vec<Database> = fixtures
        .iter()
        .map(|f| f.database(common::CATALOG))
        .collect();
    let diff = diff_over(|| {
        for (f, db) in fixtures.iter().zip(&dbs) {
            for &e in &f.evaluators {
                f.check(e, &f.run(db, e));
            }
        }
    });
    assert_eq!(diff.get(Metric::EvalDirectRuns), 4);
    assert_eq!(diff.get(Metric::EvalSchemaRuns), 5);
    assert_eq!(diff.get(Metric::EvalSchemaRounds), 0);
    assert_eq!(diff.get(Metric::EvalSecondLevelQueries), 56);
}

/// The backticked spans of `text` shaped like a metric name, `layer.name`
/// in lowercase snake case — file names (`pager.rs`) excepted.
fn metric_shaped_spans(text: &str) -> Vec<&str> {
    const FILE_SUFFIXES: &[&str] = &[
        "rs", "md", "toml", "json", "tsv", "yml", "yaml", "lock", "xml", "axql", "log", "txt",
    ];
    let segment = |s: &str| {
        s.starts_with(|c: char| c.is_ascii_lowercase())
            && s.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    text.lines()
        .flat_map(|line| line.split('`').skip(1).step_by(2))
        .filter(|span| {
            span.split_once('.').is_some_and(|(layer, name)| {
                segment(layer) && segment(name) && !FILE_SUFFIXES.contains(&name)
            })
        })
        .collect()
}

#[test]
fn registry_is_exactly_the_documented_catalogue() {
    // Pins the *names* of every counter and timer, in registry order, and
    // holds DESIGN.md to the same set: §8.1 lists every one of them, and
    // no metric-shaped name of a registered layer anywhere in DESIGN.md
    // is one the registry lacks. No metric can be added, renamed or
    // removed without touching the registry, this list and the catalogue
    // in one reviewed diff.
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

    let design =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md")).unwrap();
    let catalogue = design
        .split_once("\n### 8.1 ")
        .and_then(|(_, rest)| rest.split("\n#").next())
        .expect("DESIGN.md has no §8.1");
    let registered: Vec<&str> = counters.iter().chain(&timers).copied().collect();
    for name in &registered {
        assert!(
            catalogue.contains(&format!("`{name}`")),
            "`{name}` is registered but not in DESIGN.md §8.1"
        );
    }
    let layers: Vec<&str> = registered
        .iter()
        .filter_map(|n| n.split('.').next())
        .collect();
    for span in metric_shaped_spans(&design) {
        let layer = span.split('.').next().unwrap_or_default();
        assert!(
            !layers.contains(&layer) || registered.contains(&span),
            "DESIGN.md names `{span}`, which is not registered"
        );
    }
}
