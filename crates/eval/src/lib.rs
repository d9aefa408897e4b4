//! Retrieval-quality evaluation harness for approXQL.
//!
//! The repo's other test layers measure *speed* (timers), *work*
//! (counters), and *byte identity* (crash torture, golden files) — this
//! crate measures *result quality*: it loads a versioned JSON dataset of
//! queries with expected element IDs ([`dataset`]), runs each query
//! through the shared plan IR on the direct and/or schema-driven
//! evaluator, and scores the returned rankings with standard IR metrics
//! ([`metrics`]): recall@k, precision@k, MRR, and nDCG, plus latency
//! percentiles per evaluator.
//!
//! Ground truth comes from the *reference* configuration — the direct
//! evaluator with no truncation (`n = None`), whose result list is the
//! complete cost-ranked answer set of Section 6. [`gen_truth`] runs it
//! and fills the dataset's `expected` arrays; `approxql eval` then pins
//! quality against that truth in CI the same way counter regressions are
//! pinned today.
//!
//! The harness is deliberately thread-count–invariant: both evaluators
//! are deterministic at any `--threads` (see `tests/parallel_determinism.rs`),
//! so a report generated with timing output disabled is byte-identical at
//! `--threads 1` and `--threads 4`.

pub mod dataset;
pub mod metrics;

/// The dependency-free JSON reader/writer now lives in `approxql-query`
/// (it parses the JSON query-IR surface too); re-exported here so dataset
/// tooling keeps a single import path.
pub use approxql_query::json;

use approxql_core::schema_eval::SchemaEvalConfig;
use approxql_core::{Database, DatabaseError, EvalOptions, QueryInput};
use approxql_cost::parse_cost_file;
use approxql_metrics::Metric;
use dataset::{Dataset, DatasetError, DatasetQuery, EvaluatorSel, KSpec, TruthEntry};
use metrics::QueryScores;
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

/// Harness failure: either the dataset is invalid (a usage error) or an
/// evaluator run failed (a runtime error).
#[derive(Debug)]
pub enum EvalError {
    Dataset(DatasetError),
    Db(DatabaseError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Dataset(e) => write!(f, "{e}"),
            EvalError::Db(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<DatasetError> for EvalError {
    fn from(e: DatasetError) -> EvalError {
        EvalError::Dataset(e)
    }
}

impl From<DatabaseError> for EvalError {
    fn from(e: DatabaseError) -> EvalError {
        EvalError::Db(e)
    }
}

/// Harness options shared by `run` and `gen_truth`.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Overrides every query's k (CLI `-k`).
    pub k_override: Option<KSpec>,
    /// Worker threads for both evaluators.
    pub threads: usize,
    /// Include latency numbers in the rendered reports. Disabled for
    /// golden/determinism tests, which need byte-identical output.
    pub timing: bool,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            k_override: None,
            threads: 1,
            timing: true,
        }
    }
}

/// Which evaluator produced a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Direct,
    Schema,
}

impl Engine {
    pub fn name(self) -> &'static str {
        match self {
            Engine::Direct => "direct",
            Engine::Schema => "schema",
        }
    }
}

/// One scored (query, evaluator) execution.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    pub query_id: String,
    pub engine: Engine,
    pub k: KSpec,
    pub retrieved: usize,
    pub truth_len: usize,
    pub scores: QueryScores,
    pub latency_nanos: u64,
}

/// Aggregate scores for one evaluator across the dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub engine: Engine,
    pub queries: usize,
    pub avg_recall: f64,
    pub avg_precision: f64,
    pub mean_rr: f64,
    pub mean_ndcg: f64,
    pub p50_nanos: u64,
    pub p95_nanos: u64,
}

/// The full result of one harness invocation.
#[derive(Debug, Clone)]
pub struct EvalReport {
    pub dataset_name: String,
    pub timing: bool,
    pub runs: Vec<RunOutcome>,
    /// One summary per engine that ran, direct first.
    pub summaries: Vec<Summary>,
}

/// Resolves a `k` into the per-evaluator truncation argument: the direct
/// evaluator takes `Option<usize>` (`None` = unlimited), the schema
/// evaluator takes a node-count bound (`tree.len()` covers every
/// possible result, so it is the schema-side spelling of n = ∞).
fn k_to_n(k: KSpec, db: &Database) -> (Option<usize>, usize) {
    match k {
        KSpec::Unlimited => (None, db.tree().len()),
        KSpec::At(n) => (Some(n), n),
    }
}

/// Builds the per-cost-table databases a dataset needs. Queries without
/// a cost table evaluate against `base` unchanged; each distinct inline
/// cost file gets one derived database sharing `base`'s tree.
fn cost_variants(base: &Database, ds: &Dataset) -> Result<HashMap<String, Database>, EvalError> {
    let mut variants = HashMap::new();
    for q in &ds.queries {
        if let Some(text) = ds.resolve_costs(q) {
            if !variants.contains_key(text) {
                let costs = parse_cost_file(text).map_err(|e| {
                    EvalError::Dataset(DatasetError {
                        message: format!("query \"{}\": bad cost table: {e}", q.id),
                    })
                })?;
                variants.insert(
                    text.to_owned(),
                    Database::from_tree(base.tree().clone(), costs),
                );
            }
        }
    }
    Ok(variants)
}

fn db_for<'a>(
    base: &'a Database,
    variants: &'a HashMap<String, Database>,
    ds: &Dataset,
    q: &DatasetQuery,
) -> &'a Database {
    match ds.resolve_costs(q) {
        Some(text) => &variants[text],
        None => base,
    }
}

/// Runs one query on one engine, returning the retrieved IDs in rank
/// order and the wall-clock latency.
fn execute(
    db: &Database,
    query: QueryInput<'_>,
    engine: Engine,
    k: KSpec,
    threads: usize,
) -> Result<(Vec<u32>, u64), EvalError> {
    let opts = EvalOptions {
        threads,
        ..EvalOptions::default()
    };
    let (direct_n, schema_n) = k_to_n(k, db);
    let start = Instant::now();
    let hits = match engine {
        Engine::Direct => db.query_direct_with(query, direct_n, opts)?.0,
        Engine::Schema => {
            db.query_schema_with(query, schema_n, opts, SchemaEvalConfig::default())?
                .0
        }
    };
    let nanos = start.elapsed().as_nanos() as u64;
    Ok((hits.iter().map(|h| h.root.0).collect(), nanos))
}

/// Runs a dataset against a database and scores every query.
///
/// Every query must carry ground truth (`expected`); datasets without it
/// must be `gen_truth`'d first. Increments the `eval.*` harness counters.
pub fn run(db: &Database, ds: &Dataset, opts: RunOptions) -> Result<EvalReport, EvalError> {
    Metric::EvalHarnessRuns.incr();
    let variants = cost_variants(db, ds)?;
    let mut runs = Vec::new();
    for q in &ds.queries {
        let truth = q.expected.as_deref().ok_or_else(|| {
            EvalError::Dataset(DatasetError {
                message: format!(
                    "query \"{}\" has no \"expected\" ground truth; run --gen-truth first",
                    q.id
                ),
            })
        })?;
        let resolved = ds.resolve(q, opts.k_override);
        let engines: &[Engine] = match resolved.evaluator {
            EvaluatorSel::Direct => &[Engine::Direct],
            EvaluatorSel::Schema => &[Engine::Schema],
            EvaluatorSel::Both => &[Engine::Direct, Engine::Schema],
        };
        let qdb = db_for(db, &variants, ds, q);
        for &engine in engines {
            Metric::EvalHarnessQueries.incr();
            let input = QueryInput {
                text: &q.query,
                surface: resolved.surface,
            };
            let (retrieved, nanos) = execute(qdb, input, engine, resolved.k, opts.threads)?;
            let k_bound = match resolved.k {
                KSpec::Unlimited => usize::MAX,
                KSpec::At(n) => n,
            };
            let scores = metrics::score(&retrieved, truth, k_bound);
            let hits = (scores.recall * truth.len() as f64).round() as u64;
            Metric::EvalHarnessTruthHits.add(hits);
            runs.push(RunOutcome {
                query_id: q.id.clone(),
                engine,
                k: resolved.k,
                retrieved: retrieved.len(),
                truth_len: truth.len(),
                scores,
                latency_nanos: nanos,
            });
        }
    }
    let summaries = [Engine::Direct, Engine::Schema]
        .into_iter()
        .filter_map(|engine| summarize(&runs, engine))
        .collect();
    Ok(EvalReport {
        dataset_name: ds.name.clone(),
        timing: opts.timing,
        runs,
        summaries,
    })
}

fn summarize(runs: &[RunOutcome], engine: Engine) -> Option<Summary> {
    let of_engine: Vec<&RunOutcome> = runs.iter().filter(|r| r.engine == engine).collect();
    if of_engine.is_empty() {
        return None;
    }
    let n = of_engine.len() as f64;
    let mut latencies: Vec<u64> = of_engine.iter().map(|r| r.latency_nanos).collect();
    latencies.sort_unstable();
    Some(Summary {
        engine,
        queries: of_engine.len(),
        avg_recall: of_engine.iter().map(|r| r.scores.recall).sum::<f64>() / n,
        avg_precision: of_engine.iter().map(|r| r.scores.precision).sum::<f64>() / n,
        mean_rr: of_engine.iter().map(|r| r.scores.rr).sum::<f64>() / n,
        mean_ndcg: of_engine.iter().map(|r| r.scores.ndcg).sum::<f64>() / n,
        p50_nanos: metrics::percentile(&latencies, 50.0),
        p95_nanos: metrics::percentile(&latencies, 95.0),
    })
}

/// Fills (or refreshes) every query's `expected` ground truth from the
/// reference configuration: the direct evaluator, untruncated. The
/// result list is already in (cost, id) order, which is exactly the
/// dataset's required truth order.
pub fn gen_truth(db: &Database, ds: &mut Dataset, opts: RunOptions) -> Result<(), EvalError> {
    Metric::EvalHarnessRuns.incr();
    let variants = cost_variants(db, ds)?;
    let queries = std::mem::take(&mut ds.queries);
    let mut filled = Vec::with_capacity(queries.len());
    for mut q in queries {
        Metric::EvalHarnessQueries.incr();
        let qdb = db_for(db, &variants, ds, &q);
        let eval_opts = EvalOptions {
            threads: opts.threads,
            ..EvalOptions::default()
        };
        let input = QueryInput {
            text: &q.query,
            surface: ds.resolve(&q, None).surface,
        };
        let (hits, _) = qdb.query_direct_with(input, None, eval_opts)?;
        let truth: Vec<TruthEntry> = hits
            .iter()
            .map(|h| TruthEntry {
                id: h.root.0,
                cost: h.cost,
            })
            .collect();
        Metric::EvalTruthRows.add(truth.len() as u64);
        q.expected = Some(truth);
        filled.push(q);
    }
    ds.queries = filled;
    Ok(())
}

fn fmt_k(k: KSpec) -> String {
    match k {
        KSpec::Unlimited => "inf".to_owned(),
        KSpec::At(n) => n.to_string(),
    }
}

fn fmt_ms(nanos: u64) -> String {
    format!("{:.3}", nanos as f64 / 1_000_000.0)
}

impl EvalReport {
    /// Human-readable table. With `timing` disabled (the golden-test
    /// mode) the latency column and summary latency lines are omitted,
    /// making the output thread-count and machine independent.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("dataset: {}\n\n", self.dataset_name));
        let mut header = format!(
            "{:<12} {:<7} {:>5} {:>6} {:>6} {:>8} {:>10} {:>7} {:>7}",
            "query", "engine", "k", "hits", "truth", "recall", "precision", "mrr", "ndcg"
        );
        if self.timing {
            header.push_str(&format!(" {:>9}", "ms"));
        }
        out.push_str(header.trim_end());
        out.push('\n');
        out.push_str(&"-".repeat(header.trim_end().len()));
        out.push('\n');
        for r in &self.runs {
            let hits = (r.scores.recall * r.truth_len as f64).round() as u64;
            let mut line = format!(
                "{:<12} {:<7} {:>5} {:>6} {:>6} {:>8.4} {:>10.4} {:>7.4} {:>7.4}",
                r.query_id,
                r.engine.name(),
                fmt_k(r.k),
                hits,
                r.truth_len,
                r.scores.recall,
                r.scores.precision,
                r.scores.rr,
                r.scores.ndcg,
            );
            if self.timing {
                line.push_str(&format!(" {:>9}", fmt_ms(r.latency_nanos)));
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        for s in &self.summaries {
            out.push('\n');
            out.push_str(&format!(
                "{} ({} runs): recall {:.4}  precision {:.4}  mrr {:.4}  ndcg {:.4}",
                s.engine.name(),
                s.queries,
                s.avg_recall,
                s.avg_precision,
                s.mean_rr,
                s.mean_ndcg,
            ));
            if self.timing {
                out.push_str(&format!(
                    "  p50 {}ms  p95 {}ms",
                    fmt_ms(s.p50_nanos),
                    fmt_ms(s.p95_nanos)
                ));
            }
            out.push('\n');
        }
        out
    }

    /// Machine-readable JSON. Scores are fixed at four decimal places so
    /// CI can pin exact textual values.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"dataset\":");
        json::write_str(&mut out, &self.dataset_name);
        out.push_str(",\"runs\":[");
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"query\":");
            json::write_str(&mut out, &r.query_id);
            out.push_str(&format!(
                ",\"engine\":\"{}\",\"k\":{},\"retrieved\":{},\"truth\":{}",
                r.engine.name(),
                match r.k {
                    KSpec::Unlimited => "\"unlimited\"".to_owned(),
                    KSpec::At(n) => n.to_string(),
                },
                r.retrieved,
                r.truth_len,
            ));
            out.push_str(&format!(
                ",\"recall_at_k\":{:.4},\"precision_at_k\":{:.4},\"rr\":{:.4},\"ndcg\":{:.4}",
                r.scores.recall, r.scores.precision, r.scores.rr, r.scores.ndcg
            ));
            if self.timing {
                out.push_str(&format!(",\"latency_ms\":{}", fmt_ms(r.latency_nanos)));
            }
            out.push('}');
        }
        out.push_str("],\"summary\":{");
        for (i, s) in self.summaries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"queries\":{},\"avg_recall_at_k\":{:.4},\"avg_precision_at_k\":{:.4},\"mean_rr\":{:.4},\"mean_ndcg\":{:.4}",
                s.engine.name(), s.queries, s.avg_recall, s.avg_precision, s.mean_rr, s.mean_ndcg
            ));
            if self.timing {
                out.push_str(&format!(
                    ",\"latency_ms_p50\":{},\"latency_ms_p95\":{}",
                    fmt_ms(s.p50_nanos),
                    fmt_ms(s.p95_nanos)
                ));
            }
            out.push('}');
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxql_cost::CostModel;

    /// The paper's Figure 1 catalog, small enough to hand-verify.
    const CATALOG: &str = "\
<catalog>\
<cd><title>piano concerto</title><composer>Mozart</composer></cd>\
<mc><title>violin sonata</title></mc>\
</catalog>";

    fn build_db() -> Database {
        Database::from_xml_str(CATALOG, CostModel::new()).unwrap()
    }

    fn dataset(text: &str) -> Dataset {
        Dataset::parse(text).unwrap()
    }

    #[test]
    fn gen_truth_then_run_scores_perfect_direct() {
        let db = build_db();
        let mut ds = dataset(
            r#"{"version":1,"name":"t","defaults":{"k":5,"evaluator":"direct"},
                "queries":[{"id":"q1","query":"cd[title[\"piano\"]]"}]}"#,
        );
        gen_truth(&db, &mut ds, RunOptions::default()).unwrap();
        let truth = ds.queries[0].expected.as_ref().unwrap();
        assert!(!truth.is_empty(), "catalog query must have matches");
        let report = run(&db, &ds, RunOptions::default()).unwrap();
        assert_eq!(report.runs.len(), 1);
        let s = &report.runs[0].scores;
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.ndcg, 1.0);
    }

    #[test]
    fn schema_unlimited_has_full_recall() {
        let db = build_db();
        let mut ds = dataset(
            r#"{"version":1,"name":"t","defaults":{"k":"unlimited","evaluator":"schema"},
                "queries":[{"id":"q1","query":"cd[title]"}]}"#,
        );
        gen_truth(&db, &mut ds, RunOptions::default()).unwrap();
        let report = run(&db, &ds, RunOptions::default()).unwrap();
        assert_eq!(
            report.runs[0].scores.recall, 1.0,
            "schema @ k=inf misses results"
        );
    }

    #[test]
    fn missing_truth_is_a_dataset_error() {
        let db = build_db();
        let ds = dataset(r#"{"version":1,"name":"t","queries":[{"id":"q1","query":"cd"}]}"#);
        match run(&db, &ds, RunOptions::default()) {
            Err(EvalError::Dataset(e)) => assert!(e.message.contains("gen-truth")),
            other => panic!("expected dataset error, got {other:?}"),
        }
    }

    #[test]
    fn bad_query_is_a_runtime_error() {
        let db = build_db();
        let ds = dataset(
            r#"{"version":1,"name":"t",
                "queries":[{"id":"q1","query":"cd[[","expected":[]}]}"#,
        );
        match run(&db, &ds, RunOptions::default()) {
            Err(EvalError::Db(_)) => {}
            other => panic!("expected db error, got {other:?}"),
        }
    }

    #[test]
    fn per_query_cost_tables_build_variant_databases() {
        let db = build_db();
        // Renaming the query's cd to mc at cost 2 makes the mc album
        // reachable from a `cd[title]` query; without the rename it is not.
        let mut ds = dataset(
            r#"{"version":1,"name":"t","defaults":{"k":"unlimited","evaluator":"direct"},
                "queries":[
                  {"id":"plain","query":"cd[title]"},
                  {"id":"renamed","query":"cd[title]",
                   "costs":"rename name cd mc 2\n"}]}"#,
        );
        gen_truth(&db, &mut ds, RunOptions::default()).unwrap();
        let plain = ds.queries[0].expected.as_ref().unwrap().len();
        let renamed = ds.queries[1].expected.as_ref().unwrap().len();
        assert!(
            renamed > plain,
            "rename table must surface extra results ({renamed} vs {plain})"
        );
    }

    #[test]
    fn report_rendering_is_stable_without_timing() {
        let db = build_db();
        let mut ds = dataset(
            r#"{"version":1,"name":"t","defaults":{"k":3},
                "queries":[{"id":"q1","query":"cd[title[\"piano\"]]"}]}"#,
        );
        gen_truth(&db, &mut ds, RunOptions::default()).unwrap();
        let opts = RunOptions {
            timing: false,
            ..RunOptions::default()
        };
        let a = run(&db, &ds, opts).unwrap();
        let b = run(&db, &ds, opts).unwrap();
        assert_eq!(a.render_table(), b.render_table());
        assert_eq!(a.render_json(), b.render_json());
        assert!(!a.render_json().contains("latency"));
        assert!(!a.render_table().contains("ms"));
    }
}
