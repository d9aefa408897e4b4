//! Running one query — through the top-level entry point (untraced runs)
//! or stage by stage through the layers' public functions (traced runs) —
//! plus the output checks shared by the query workloads.

use crate::inputs::QuerySpec;
use crate::stats::{median, Digest};
use crate::trace::Tracer;
use approxql_core::{
    direct, schema_eval, Database, DatabaseError, EvalOptions, QueryHit, SchemaEvalConfig,
};
use approxql_cost::{Cost, CostModel, NodeType};
use approxql_index::LabelIndex;
use approxql_metrics::{Layer, Metric, MetricsSnapshot};
use approxql_plan::{self as plan, Plan, PlanOp};
use approxql_query::expand::ExpandedQuery;
use approxql_query::QueryInput;
use approxql_schema::Schema;
use approxql_tree::{DataTree, NodeId};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Evaluator {
    Direct,
    Schema,
}

/// One client, one thread: the box has two cores and the driver is one
/// of the two processes.
pub const OPTS: EvalOptions = EvalOptions {
    enforce_leaf_match: true,
    threads: 1,
};

/// The top-level entry point of a warm query.
pub fn run_query(
    db: &Database,
    q: &QuerySpec,
    evaluator: Evaluator,
    opts: EvalOptions,
) -> Result<Vec<QueryHit>, DatabaseError> {
    match evaluator {
        Evaluator::Direct => Ok(db.query_direct_with(q.text.as_str(), Some(q.n), opts)?.0),
        Evaluator::Schema => Ok(db
            .query_schema_with(q.text.as_str(), q.n, opts, SchemaEvalConfig::default())?
            .0),
    }
}

/// The structures a query reads, whether they belong to a `Database` or
/// were decoded stage by stage from a store.
pub struct Parts<'a> {
    pub tree: &'a DataTree,
    pub labels: &'a LabelIndex,
    pub schema: &'a Schema,
    pub costs: &'a CostModel,
}

impl<'a> Parts<'a> {
    pub fn of(db: &'a Database) -> Parts<'a> {
        Parts {
            tree: db.tree(),
            labels: db.labels(),
            schema: db.schema(),
            costs: db.costs(),
        }
    }
}

/// Replays one query as explicit stages, one span each: parse → expand →
/// plan (through `cache`'s plan cache when given, else a fresh compile, as
/// in a cold process) → evaluator → hit mapping. The caller owns the
/// enclosing operation span.
pub fn staged_query(
    t: &mut Tracer,
    parts: &Parts,
    cache: Option<&Database>,
    q: &QuerySpec,
    evaluator: Evaluator,
) -> Result<Vec<QueryHit>, String> {
    let parsed = t
        .timed("query.parse", || QueryInput::new(&q.text).parse())
        .map_err(|e| e.to_string())?;
    let ex = t.timed("query.expand", || {
        ExpandedQuery::build(&parsed, parts.costs)
    });
    let compiled: Option<Arc<Plan>> = match cache {
        Some(db) => t.timed("plan.cache", || db.plan_for(&parsed, &ex)),
        None => t.timed("plan.compile", || plan::compile(&ex).ok().map(Arc::new)),
    };
    let interner = parts.tree.interner();
    let pairs = match evaluator {
        Evaluator::Direct => t.timed("direct.exec", || match &compiled {
            Some(p) => direct::best_n_plan(p, parts.labels, interner, Some(q.n), OPTS).0,
            None => Vec::new(),
        }),
        Evaluator::Schema => t.timed("schema_eval.exec", || {
            schema_eval::best_n_schema_with_plan(
                &ex,
                compiled,
                parts.schema,
                interner,
                q.n,
                OPTS,
                SchemaEvalConfig::default(),
            )
            .0
        }),
    };
    Ok(t.timed("core.hits", || {
        pairs
            .into_iter()
            .map(|(pre, cost)| QueryHit {
                root: NodeId(pre),
                cost,
            })
            .collect()
    }))
}

/// `approxql query`'s default output for `hits`, byte for byte.
pub fn render_hits(tree: &DataTree, hits: &[QueryHit]) -> Result<String, String> {
    let mut out = String::new();
    for (rank, hit) in hits.iter().enumerate() {
        let el = tree.subtree_element(hit.root).map_err(|e| e.to_string())?;
        out.push_str(&format!(
            "#{rank}\tcost={}\tnode={}\t<{}>\n",
            hit.cost, hit.root, el.name
        ));
    }
    Ok(out)
}

/// The roots strictly cheaper than the most expensive returned cost: the
/// part of a best-n answer that does not depend on tie-breaking at the cut.
fn strict_roots(hits: &[QueryHit]) -> Vec<(Cost, u32)> {
    let last = hits.last().map(|h| h.cost);
    let mut v: Vec<(Cost, u32)> = hits
        .iter()
        .filter(|h| Some(h.cost) < last)
        .map(|h| (h.cost, h.root.0))
        .collect();
    v.sort_unstable();
    v
}

/// Two answers to the same best-n question agree when their cost
/// sequences are equal and they hold the same roots below the cut.
pub fn answers_agree(a: &[QueryHit], b: &[QueryHit]) -> bool {
    a.iter().map(|h| h.cost).eq(b.iter().map(|h| h.cost)) && strict_roots(a) == strict_roots(b)
}

/// Feeds query id, every cost, and every root below the cut.
pub fn feed_digest(digest: &mut Digest, query_id: usize, hits: &[QueryHit]) {
    digest.feed(query_id as u64);
    for h in hits {
        digest.feed(h.cost.raw());
    }
    for (_, root) in strict_roots(hits) {
        digest.feed(u64::from(root));
    }
}

/// The labels a query's plan fetches, for the index-decode probe.
pub fn fetch_labels(plan: &Plan) -> Vec<(NodeType, String)> {
    plan.ops()
        .iter()
        .filter_map(|op| match op {
            PlanOp::Fetch { label, ty, .. } => Some((*ty, label.clone())),
            _ => None,
        })
        .collect()
}

fn per(total: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

/// Per-query work counts of the evaluation layers from a registry diff
/// over `queries` evaluations.
pub fn query_counts(diff: &MetricsSnapshot, queries: u64) -> Vec<(&'static str, f64)> {
    let list_ops: u64 = diff
        .counters()
        .filter(|&(m, _)| m.layer() == Layer::List && m != Metric::ListEntriesProduced)
        .map(|(_, v)| v)
        .sum();
    let decoded = diff.get(Metric::PostingsBlocksDecoded);
    let skipped = diff.get(Metric::PostingsBlocksSkipped);
    let lookups = diff.get(Metric::PlanCacheHits) + diff.get(Metric::PlanCacheMisses);
    vec![
        ("postings.blocks_decoded_per_query", per(decoded, queries)),
        (
            "postings.blocks_skipped_share",
            per(skipped, decoded + skipped),
        ),
        (
            "postings.bytes_per_query",
            per(diff.get(Metric::PostingsBytes), queries),
        ),
        (
            "plan.cse_reuses_per_query",
            per(diff.get(Metric::PlanCseReuses), queries),
        ),
        (
            "plan.cache_hit_share",
            per(diff.get(Metric::PlanCacheHits), lookups),
        ),
        ("list.ops_per_query", per(list_ops, queries)),
        (
            "list.entries_per_query",
            per(diff.get(Metric::ListEntriesProduced), queries),
        ),
        (
            "topk.ops_per_query",
            per(diff.get(Metric::TopkOps), queries),
        ),
        (
            "topk.entries_per_query",
            per(diff.get(Metric::TopkEntriesProduced), queries),
        ),
        (
            "schema_eval.rounds_per_query",
            per(diff.get(Metric::EvalSchemaRounds), queries),
        ),
    ]
}

/// Sum of every `pager.*` counter in a diff.
pub fn pager_ops(diff: &MetricsSnapshot) -> u64 {
    diff.counters()
        .filter(|&(m, _)| m.layer() == Layer::Pager)
        .map(|(_, v)| v)
        .sum()
}

/// Sets up three times (dropping each state before building the next) and
/// returns the last state with the median set-up time in seconds: one
/// set-up per run would make `setup_s` the noisiest number reported.
pub fn median_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut seconds = Vec::new();
    let mut state = None;
    for _ in 0..3 {
        drop(state.take());
        let (built, ms) = time_ms(&mut setup);
        seconds.push(ms / 1e3);
        state = Some(built?);
    }
    Ok((state.expect("three set-ups ran"), median(&seconds)))
}

/// Times `f` in milliseconds.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(root: u32, cost: u64) -> QueryHit {
        QueryHit {
            root: NodeId(root),
            cost: Cost::finite(cost),
        }
    }

    #[test]
    fn agreement_ignores_ties_at_the_cut_only() {
        let a = [hit(1, 0), hit(5, 2), hit(9, 2)];
        let tie_swapped = [hit(1, 0), hit(5, 2), hit(7, 2)];
        let wrong_root = [hit(2, 0), hit(5, 2), hit(9, 2)];
        let wrong_cost = [hit(1, 0), hit(5, 1), hit(9, 2)];
        assert!(answers_agree(&a, &tie_swapped));
        assert!(!answers_agree(&a, &wrong_root));
        assert!(!answers_agree(&a, &wrong_cost));
        assert!(!answers_agree(&a, &a[..2]));
        let digest = |hits: &[QueryHit]| {
            let mut d = Digest::default();
            feed_digest(&mut d, 3, hits);
            d.value()
        };
        assert_eq!(digest(&a), digest(&tie_swapped));
        assert_ne!(digest(&a), digest(&wrong_root));
    }

    #[test]
    fn staged_query_matches_the_entry_point_and_renders_like_the_cli() {
        let db = Database::from_xml_str(
            "<cd><title>piano concerto</title><composer>rachmaninov</composer></cd>",
            CostModel::new(),
        )
        .unwrap();
        let q = QuerySpec {
            text: String::from(r#"cd[title["piano"]]"#),
            n: 10,
        };
        let mut t = Tracer::default();
        for evaluator in [Evaluator::Direct, Evaluator::Schema] {
            let top = run_query(&db, &q, evaluator, OPTS).unwrap();
            let op = t.enter("op");
            let staged = staged_query(&mut t, &Parts::of(&db), Some(&db), &q, evaluator).unwrap();
            t.exit(op);
            assert_eq!(top, staged);
            assert_eq!(
                render_hits(db.tree(), &top).unwrap(),
                "#0\tcost=0\tnode=#1\t<cd>\n"
            );
        }
        assert!(t.layer_sum_share() > 0.0);
    }
}
