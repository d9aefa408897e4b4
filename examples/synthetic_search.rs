//! Searching a generated collection: build a synthetic database (the
//! Section 8.1 workload at 1/100 scale), generate queries from the paper's
//! patterns, and compare the direct and schema-driven evaluations — a
//! single-cell, annotated version of what the `figure7` harness sweeps.
//!
//! ```sh
//! cargo run --release --example synthetic_search
//! ```

use approxql::crates::core::schema_eval::SchemaEvalConfig;
use approxql::crates::core::EvalOptions;
use approxql::crates::gen::{
    DataGenConfig, DataGenerator, QueryGenConfig, QueryGenerator, PATTERN_2,
};
use approxql::{CostModel, Database};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 10,000 elements, 100,000 Zipfian word occurrences, 100 names.
    let cfg = DataGenConfig::paper_scale_divided(100);
    println!(
        "generating: {} elements, {} word occurrences, {} names, {} terms…",
        cfg.element_count, cfg.word_occurrences, cfg.element_names, cfg.vocabulary
    );
    let tree = DataGenerator::new(cfg).generate_tree(&CostModel::new());
    let stats = tree.stats();
    println!(
        "data tree: {} nodes, depth {}, {} distinct labels",
        stats.node_count, stats.max_depth, stats.distinct_labels
    );

    let db = Database::from_tree(tree, CostModel::new());
    let sstats = db.schema().stats();
    println!(
        "schema: {} nodes ({}x smaller), max node class has {} instances\n",
        sstats.schema_nodes,
        stats.node_count / sstats.schema_nodes,
        sstats.max_instances
    );

    // Generate three queries from the paper's "small Boolean" pattern with
    // 5 renamings per label.
    let mut qgen = QueryGenerator::new(
        db.tree(),
        db.labels(),
        QueryGenConfig {
            renamings_per_label: 5,
            seed: 42,
            ..QueryGenConfig::default()
        },
    );

    for gq in qgen.generate_batch(PATTERN_2, 3) {
        println!("query: {}", gq.query);
        // NOTE: each generated query ships its own cost table; build a
        // database view with those costs by compiling directly.
        let db_q = Database::from_tree(db.tree().clone(), gq.costs.clone());

        let t = Instant::now();
        let (all, dstats) = db_q.query_direct_with(&gq.query, None, EvalOptions::default())?;
        let direct_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let (top10, sstats) = db_q.query_schema_with(
            &gq.query,
            10,
            EvalOptions::default(),
            SchemaEvalConfig::default(),
        )?;
        let schema_ms = t.elapsed().as_secs_f64() * 1e3;

        println!(
            "  direct: {} results in {direct_ms:.2} ms ({} list entries)",
            all.len(),
            dstats.list_entries
        );
        println!(
            "  schema: best {} in {schema_ms:.2} ms ({} second-level queries)",
            top10.len(),
            sstats.second_level_queries
        );
        if let (Some(d), Some(s)) = (all.first(), top10.first()) {
            assert_eq!(d, s, "both algorithms must agree on the best result");
            println!("  best result: {} at cost {}", d.root, d.cost);
        }
        println!();
    }
    Ok(())
}
