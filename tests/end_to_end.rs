//! End-to-end tests over synthetic collections: the full pipeline from
//! generation through indexing, schema construction, both evaluators, and
//! persistence.

use approxql::crates::core::schema_eval::SchemaEvalConfig;
use approxql::crates::core::EvalOptions;
use approxql::crates::gen::{
    DataGenConfig, DataGenerator, QueryGenConfig, QueryGenerator, PATTERN_1, PATTERN_2, PATTERN_3,
};
use approxql::{Cost, CostModel, Database};

fn small_collection(seed: u64) -> Database {
    let cfg = DataGenConfig {
        element_count: 1_500,
        element_names: 40,
        vocabulary: 200,
        word_occurrences: 6_000,
        seed,
        ..DataGenConfig::default()
    };
    let tree = DataGenerator::new(cfg).generate_tree(&CostModel::new());
    Database::from_tree(tree, CostModel::new())
}

#[test]
fn generated_collection_statistics() {
    let db = small_collection(1);
    let stats = db.tree().stats();
    assert_eq!(stats.element_count, 1_500);
    assert_eq!(stats.word_count, 6_000);
    let sstats = db.schema().stats();
    assert!(sstats.schema_nodes < stats.node_count / 5);
}

#[test]
fn both_evaluators_agree_across_patterns_and_renamings() {
    let db = small_collection(2);
    // The renaming counts are graded per pattern: large Boolean queries
    // with many renamings have combinatorially many second-level queries,
    // and when a query has fewer results than requested the driver must
    // exhaust them (the algorithm's documented worst case) — fine for the
    // benchmarks, too slow for a unit suite.
    let series: [(&str, u64, &[usize]); 3] = [
        (PATTERN_1, 10, &[0, 5, 10]),
        (PATTERN_2, 11, &[0, 5]),
        (PATTERN_3, 12, &[0]),
    ];
    for (pattern, seed, renaming_counts) in series {
        for &renamings in renaming_counts {
            let mut qgen = QueryGenerator::new(
                db.tree(),
                db.labels(),
                QueryGenConfig {
                    renamings_per_label: renamings,
                    seed: seed + renamings as u64,
                    ..QueryGenConfig::default()
                },
            );
            for gq in qgen.generate_batch(pattern, 3) {
                let db_q = Database::from_tree(db.tree().clone(), gq.costs.clone());
                let direct = db_q.query_direct(&gq.query, None).unwrap();
                // Ask the schema path for (up to) the known total: asking
                // beyond it forces an exhaustive closure enumeration,
                // which is the known worst case of the algorithm.
                let n = direct.len().clamp(1, 20);
                let schema = db_q.query_schema(&gq.query, n).unwrap();
                assert_eq!(schema.len(), direct.len().min(n), "count for {}", gq.query);
                // Cost sequences agree (tie order at the cut may differ).
                let dc: Vec<Cost> = direct.iter().take(n).map(|h| h.cost).collect();
                let sc: Vec<Cost> = schema.iter().map(|h| h.cost).collect();
                assert_eq!(sc, dc, "costs for {}", gq.query);
            }
        }
    }
}

#[test]
fn best_n_is_a_prefix_of_best_m() {
    let db = small_collection(3);
    let mut qgen = QueryGenerator::new(
        db.tree(),
        db.labels(),
        QueryGenConfig {
            renamings_per_label: 5,
            seed: 99,
            ..QueryGenConfig::default()
        },
    );
    let gq = qgen.generate(PATTERN_2);
    let db_q = Database::from_tree(db.tree().clone(), gq.costs.clone());
    let big = db_q.query_schema(&gq.query, 50).unwrap();
    let small = db_q.query_schema(&gq.query, 5).unwrap();
    let big_costs: Vec<Cost> = big.iter().take(small.len()).map(|h| h.cost).collect();
    let small_costs: Vec<Cost> = small.iter().map(|h| h.cost).collect();
    assert_eq!(small_costs, big_costs);
}

#[test]
fn save_open_roundtrip_preserves_answers() {
    let dir = std::env::temp_dir().join(format!("axql-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.axql");
    let db = small_collection(4);
    db.save(&path).unwrap();
    let reopened = Database::open(&path).unwrap();
    assert_eq!(reopened.tree().len(), db.tree().len());

    let mut qgen = QueryGenerator::new(db.tree(), db.labels(), QueryGenConfig::default());
    for gq in qgen.generate_batch(PATTERN_1, 5) {
        // Note: saved databases keep their own cost model; for per-query
        // costs we re-derive the views (insert costs are identical).
        let before = Database::from_tree(db.tree().clone(), gq.costs.clone())
            .query_direct(&gq.query, Some(10))
            .unwrap();
        let after = Database::from_tree(reopened.tree().clone(), gq.costs.clone())
            .query_direct(&gq.query, Some(10))
            .unwrap();
        assert_eq!(
            before, after,
            "answers changed after reopen for {}",
            gq.query
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stats_are_populated() {
    let db = small_collection(5);
    let mut qgen = QueryGenerator::new(
        db.tree(),
        db.labels(),
        QueryGenConfig {
            renamings_per_label: 5,
            ..QueryGenConfig::default()
        },
    );
    let gq = qgen.generate(PATTERN_2);
    let db_q = Database::from_tree(db.tree().clone(), gq.costs.clone());
    let (_, dstats) = db_q
        .query_direct_with(&gq.query, None, EvalOptions::default())
        .unwrap();
    assert!(dstats.fetches > 0);
    assert!(dstats.ops > 0);
    let (_, sstats) = db_q
        .query_schema_with(
            &gq.query,
            5,
            EvalOptions::default(),
            SchemaEvalConfig::default(),
        )
        .unwrap();
    assert!(sstats.fetches > 0);
}

#[test]
fn exact_subtree_queries_always_match_their_source() {
    // Pick real paths from the generated data and query for them exactly:
    // the owning element must come back at cost 0.
    let db = small_collection(6);
    let tree = db.tree();
    use approxql::NodeType;
    let mut checked = 0;
    for n in tree.nodes().skip(1) {
        if tree.node_type(n) != NodeType::Text {
            continue;
        }
        let parent = tree.parent(n).unwrap();
        let grand = match tree.parent(parent) {
            Some(g) if g.0 != 0 => g,
            _ => continue,
        };
        let query = format!(
            "{}[{}[\"{}\"]]",
            tree.label(grand),
            tree.label(parent),
            tree.label(n)
        );
        let hits = db.query_direct(&query, None).unwrap();
        assert!(
            hits.iter().any(|h| h.root == grand && h.cost == Cost::ZERO),
            "exact query {query} did not return its source {grand:?}"
        );
        checked += 1;
        if checked >= 25 {
            break;
        }
    }
    assert!(checked > 0);
}
