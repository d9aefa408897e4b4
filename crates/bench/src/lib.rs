//! Shared harness for the experiment reproduction (Section 8).
//!
//! The experiments compare the **direct** evaluation (find all results,
//! sort, prune after `n`) with the **schema-driven** evaluation (generate
//! the best `k` second-level queries against the schema, execute them
//! incrementally) over three query patterns × {0, 5, 10} renamings per
//! label, as a function of `n` — Figure 7 of the paper.
//!
//! One deliberate economy: the generated per-query cost tables never list
//! explicit *insert* costs (all inserts default to 1, as in Section 6), so
//! the tree/schema encodings — whose `inscost`/`pathcost` columns are the
//! only cost-dependent state — are identical for every query, and the
//! collection is built once per series.

use approxql_core::direct;
use approxql_core::schema_eval::{self, SchemaEvalConfig};
use approxql_core::EvalOptions;
use approxql_cost::CostModel;
use approxql_gen::{
    DataGenConfig, DataGenerator, GeneratedQuery, QueryGenConfig, QueryGenerator, PATTERN_1,
    PATTERN_2, PATTERN_3,
};
use approxql_index::LabelIndex;
use approxql_metrics::{Layer, Metric, MetricsSnapshot};
use approxql_query::expand::ExpandedQuery;
use approxql_query::parse_query;
use approxql_schema::Schema;
use approxql_tree::DataTree;
use std::time::Instant;

/// The three query patterns of Section 8.1, in paper order.
pub const PATTERNS: [(&str, &str); 3] = [
    ("pattern 1 (simple path)", PATTERN_1),
    ("pattern 2 (small Boolean)", PATTERN_2),
    ("pattern 3 (large Boolean)", PATTERN_3),
];

/// The renaming counts of the test series.
pub const RENAMINGS: [usize; 3] = [0, 5, 10];

/// A generated collection with its evaluation-side structures.
pub struct Collection {
    /// The encoded data tree.
    pub tree: DataTree,
    /// `I_struct` / `I_text`.
    pub labels: LabelIndex,
    /// The schema with its indexes.
    pub schema: Schema,
}

/// Builds the test collection at `1/div` of the paper scale (`div = 1`
/// reproduces the full "1,000,000 elements, 100,000 terms, 10,000,000
/// term occurrences, 100 element names" series).
pub fn build_collection(div: usize, seed: u64) -> Collection {
    let mut cfg = DataGenConfig::paper_scale_divided(div);
    cfg.seed = seed;
    let costs = CostModel::new();
    let tree = DataGenerator::new(cfg).generate_tree(&costs);
    let labels = LabelIndex::build(&tree);
    let schema = Schema::build(&tree, &costs);
    Collection {
        tree,
        labels,
        schema,
    }
}

/// One measured cell of Figure 7.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Pattern name (see [`PATTERNS`]).
    pub pattern: &'static str,
    /// Renamings per label.
    pub renamings: usize,
    /// Requested result count (`None` = all results, the paper's n = ∞).
    pub n: Option<usize>,
    /// `"direct"` or `"schema"`.
    pub algorithm: &'static str,
    /// Mean evaluation time per query in milliseconds.
    pub mean_ms: f64,
    /// Mean number of results actually returned.
    pub mean_results: f64,
    /// Mean per-layer operation counts per query.
    pub work: WorkCounts,
}

/// Per-layer operation counts averaged over one measured query set —
/// Figure 7's *work* comparison alongside the wall-clock comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkCounts {
    /// Label-index fetches.
    pub index_fetches: f64,
    /// Posting entries retrieved from the label index.
    pub postings_fetched: f64,
    /// Direct list-algebra operations executed.
    pub list_ops: f64,
    /// Entries produced by the direct list operations.
    pub list_entries: f64,
    /// Top-k (schema-side) list operations executed.
    pub topk_ops: f64,
    /// Entries produced by the top-k operations.
    pub topk_entries: f64,
    /// Incremental-driver rounds (schema only).
    pub rounds: f64,
    /// Second-level queries executed against the data (schema only).
    pub second_level_queries: f64,
    /// Instances retrieved by the `secondary` executions (schema only).
    pub secondary_rows: f64,
    /// Compressed posting frames decoded by `fetch` (§14).
    pub blocks_decoded: f64,
    /// Compressed frame bytes decoded by query operators.
    pub postings_bytes: f64,
}

impl WorkCounts {
    /// Derives per-query means from a metrics diff over `queries` runs.
    pub fn from_diff(d: &MetricsSnapshot, queries: usize) -> WorkCounts {
        let per = |v: u64| v as f64 / queries.max(1) as f64;
        let layer_ops = |layer: Layer, exclude: Metric| {
            d.counters()
                .filter(|&(m, _)| m.layer() == layer && m != exclude)
                .map(|(_, v)| v)
                .sum::<u64>()
        };
        WorkCounts {
            index_fetches: per(d.get(Metric::IndexLabelFetches)),
            postings_fetched: per(d.get(Metric::IndexPostingsFetched)),
            list_ops: per(layer_ops(Layer::List, Metric::ListEntriesProduced)),
            list_entries: per(d.get(Metric::ListEntriesProduced)),
            topk_ops: per(d.get(Metric::TopkOps)),
            topk_entries: per(d.get(Metric::TopkEntriesProduced)),
            rounds: per(d.get(Metric::EvalSchemaRounds)),
            second_level_queries: per(d.get(Metric::EvalSecondLevelQueries)),
            secondary_rows: per(d.get(Metric::EvalSecondaryRows)),
            blocks_decoded: per(d.get(Metric::PostingsBlocksDecoded)),
            postings_bytes: per(d.get(Metric::PostingsBytes)),
        }
    }

    /// TSV column names, matching [`WorkCounts::to_tsv_fields`].
    pub fn tsv_header() -> &'static str {
        "index_fetches\tpostings\tlist_ops\tlist_entries\ttopk_ops\ttopk_entries\trounds\tsecond_level\tsecondary_rows\tblocks_decoded\tpostings_bytes"
    }

    /// TSV column values (one decimal: the counts are per-query means).
    pub fn to_tsv_fields(&self) -> String {
        format!(
            "{:.1}\t{:.1}\t{:.1}\t{:.1}\t{:.1}\t{:.1}\t{:.1}\t{:.1}\t{:.1}\t{:.1}\t{:.1}",
            self.index_fetches,
            self.postings_fetched,
            self.list_ops,
            self.list_entries,
            self.topk_ops,
            self.topk_entries,
            self.rounds,
            self.second_level_queries,
            self.secondary_rows,
            self.blocks_decoded,
            self.postings_bytes,
        )
    }
}

/// Compiles a generated query against its own cost table.
pub fn compile(gq: &GeneratedQuery) -> ExpandedQuery {
    let q = parse_query(&gq.query).expect("generated queries always parse");
    ExpandedQuery::build(&q, &gq.costs)
}

/// Times the direct evaluation of `queries` for a given `n`, one query
/// after the other.
pub fn time_direct(
    col: &Collection,
    queries: &[(GeneratedQuery, ExpandedQuery)],
    n: Option<usize>,
) -> (f64, f64, WorkCounts) {
    let opts = EvalOptions::default();
    // Warm up caches so the first query is not measured cold.
    if let Some((_, ex)) = queries.first() {
        let _ = direct::best_n(ex, &col.labels, col.tree.interner(), n, opts);
    }
    let baseline = approxql_metrics::snapshot();
    let timed: Vec<(f64, usize)> = queries
        .iter()
        .map(|(_, ex)| {
            let start = Instant::now();
            let (hits, _) = direct::best_n(ex, &col.labels, col.tree.interner(), n, opts);
            (start.elapsed().as_secs_f64() * 1e3, hits.len())
        })
        .collect();
    means(&timed, &approxql_metrics::snapshot().diff(&baseline))
}

/// Times the schema-driven evaluation of `queries` for a given `n`, one
/// query after the other.
///
/// `None` means "all results" (the paper's n = ∞ points): the schema path
/// is asked for each query's known total result count, i.e. it must
/// deliver the complete result list through second-level queries.
pub fn time_schema(
    col: &Collection,
    queries: &[(GeneratedQuery, ExpandedQuery)],
    n: Option<usize>,
) -> (f64, f64, WorkCounts) {
    let opts = EvalOptions::default();
    // The per-query totals (for the n = ∞ points) are direct evaluations,
    // run before the counters' baseline.
    let totals: Vec<usize> = queries
        .iter()
        .map(|(_, ex)| {
            direct::best_n(ex, &col.labels, col.tree.interner(), None, opts)
                .0
                .len()
        })
        .collect();
    // Warm up caches so the first query is not measured cold.
    if let Some((_, ex)) = queries.first() {
        let _ = schema_eval::best_n_schema(
            ex,
            &col.schema,
            col.tree.interner(),
            n.unwrap_or(1),
            opts,
            SchemaEvalConfig::default(),
        );
    }
    let baseline = approxql_metrics::snapshot();
    let timed: Vec<(f64, usize)> = queries
        .iter()
        .zip(&totals)
        .map(|((_, ex), &total)| {
            let (want, cfg) = match n {
                Some(n) => (n, SchemaEvalConfig::default()),
                // "all results": ask for the known total and allow the
                // driver to enumerate however many second-level queries
                // that takes.
                None => (
                    total.max(1),
                    SchemaEvalConfig {
                        max_k: 1 << 26,
                        ..SchemaEvalConfig::default()
                    },
                ),
            };
            let start = Instant::now();
            let (hits, _) =
                schema_eval::best_n_schema(ex, &col.schema, col.tree.interner(), want, opts, cfg);
            (start.elapsed().as_secs_f64() * 1e3, hits.len())
        })
        .collect();
    means(&timed, &approxql_metrics::snapshot().diff(&baseline))
}

/// Per-query mean time, mean result count and mean work of one cell.
fn means(timed: &[(f64, usize)], work: &MetricsSnapshot) -> (f64, f64, WorkCounts) {
    let queries = timed.len().max(1) as f64;
    let total_ms: f64 = timed.iter().map(|&(ms, _)| ms).sum();
    let total_results: usize = timed.iter().map(|&(_, r)| r).sum();
    (
        total_ms / queries,
        total_results as f64 / queries,
        WorkCounts::from_diff(work, timed.len()),
    )
}

/// Generates the query set for one (pattern, renamings) series.
pub fn make_queries(
    col: &Collection,
    pattern: &str,
    renamings: usize,
    count: usize,
    seed: u64,
) -> Vec<(GeneratedQuery, ExpandedQuery)> {
    let cfg = QueryGenConfig {
        renamings_per_label: renamings,
        seed,
        ..QueryGenConfig::default()
    };
    let mut qgen = QueryGenerator::new(&col.tree, &col.labels, cfg);
    qgen.generate_batch(pattern, count)
        .into_iter()
        .map(|gq| {
            let ex = compile(&gq);
            (gq, ex)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_one_cell() {
        let col = build_collection(1000, 1); // 1,000 elements
        let queries = make_queries(&col, PATTERN_1, 0, 2, 7);
        let (direct_ms, direct_results, direct_work) = time_direct(&col, &queries, Some(10));
        let (schema_ms, schema_results, schema_work) = time_schema(&col, &queries, Some(10));
        assert!(direct_ms >= 0.0 && schema_ms >= 0.0);
        // Both algorithms agree on the number of results for small n.
        assert_eq!(direct_results, schema_results);
        // Work counters land in the right columns: the direct run does
        // list-algebra work and no second-level queries; the schema run
        // does top-k work and executes second-level queries.
        assert!(direct_work.list_ops > 0.0 && direct_work.index_fetches > 0.0);
        assert_eq!(direct_work.second_level_queries, 0.0);
        assert!(schema_work.topk_ops > 0.0 && schema_work.second_level_queries > 0.0);
        assert!(schema_work.rounds >= 1.0);
    }

    #[test]
    fn direct_and_schema_agree_on_generated_queries() {
        let col = build_collection(2000, 3); // 500 elements
        for renamings in [0, 5] {
            let queries = make_queries(&col, PATTERN_2, renamings, 3, 11);
            for (gq, ex) in &queries {
                let (d, _) = direct::best_n(
                    ex,
                    &col.labels,
                    col.tree.interner(),
                    Some(10),
                    EvalOptions::default(),
                );
                let (s, _) = schema_eval::best_n_schema(
                    ex,
                    &col.schema,
                    col.tree.interner(),
                    10.min(d.len().max(1)),
                    EvalOptions::default(),
                    SchemaEvalConfig::default(),
                );
                // Both must return the same cost sequence; at the cut the
                // tie-breaking may differ (any best-n set is valid), so
                // roots are compared only strictly below the last cost.
                let d_trunc: Vec<_> = d.iter().take(s.len()).copied().collect();
                let s_costs: Vec<_> = s.iter().map(|&(_, c)| c).collect();
                let d_costs: Vec<_> = d_trunc.iter().map(|&(_, c)| c).collect();
                assert_eq!(s_costs, d_costs, "cost mismatch for {}", gq.query);
                if let Some(&(_, last)) = s.last() {
                    let s_strict: std::collections::BTreeSet<_> =
                        s.iter().filter(|&&(_, c)| c < last).collect();
                    let d_strict: std::collections::BTreeSet<_> =
                        d_trunc.iter().filter(|&&(_, c)| c < last).collect();
                    assert_eq!(s_strict, d_strict, "root mismatch for {}", gq.query);
                }
            }
        }
    }
}
