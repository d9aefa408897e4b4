//! Schema-driven evaluation (Sections 7.2–7.4).
//!
//! The adapted algorithm `primary` runs against the *schema* indexes in
//! the k-best domain of [`crate::topk`], producing second-level queries
//! cheapest first. Algorithm `secondary` executes each of them against
//! the path-dependent index. The driver ([`ResultStream`], Figure 6)
//! executes the plan once per query and then draws second-level queries
//! one at a time from the root list's candidate streams, until `n`
//! results are found or the queries are exhausted. The paper raises `k`
//! and re-runs `primary`; here a stream extends itself instead, so what
//! is left of `k` is one bound: at most `max_k` queries are drawn.
//!
//! Because second-level queries are processed in increasing cost order and
//! all results of one second-level query share its (exact, Section 7.1)
//! cost, the first occurrence of each embedding root is its minimum cost —
//! the driver only needs to deduplicate roots.
//!
//! The drawn queries share their work through one
//! [`secondary::Executor`](crate::secondary::Executor) per stream, dropped
//! with it: each distinct sub-skeleton is evaluated once per query and
//! memoised, the empty result included, and a node with an empty child
//! is empty before its own list is fetched. The executor also
//! deduplicates the drawn queries (two embeddings can draw the same one)
//! by root id, so the driver keeps no key of its own.
//!
//! The adapted `primary` executes the same compiled physical plan as the
//! direct evaluation (see [`approxql_plan`]) through the same list
//! algebra ([`crate::list`]): only the cost domain differs — a stream of
//! candidates per node where the direct evaluation keeps a minimum.

use crate::database::DatabaseError;
use crate::direct::EvalOptions;
use crate::list::Algebra;
use crate::secondary::Executor;
use crate::topk::{KBest, SecondLevelQueries, SecondLevelQuery};
use approxql_index::{LabelIndex, SecondaryIndex};
use approxql_metrics::{time, Metric, MetricsRegistry, TimerMetric};
use approxql_plan::{self as plan, Plan};
use approxql_query::expand::{ExpandedNode, ExpandedQuery};
use approxql_schema::Schema;
use approxql_tree::{Cost, Interner, LabelId, NodeType};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A hit — root and cost — with the label of its element.
pub(crate) type LabelledHit = (u32, Cost, LabelId);

/// The driver's bound on its draws of second-level queries.
#[derive(Debug, Clone, Copy)]
pub struct SchemaEvalConfig {
    /// Hard upper bound on the number of second-level queries drawn (0
    /// draws none), `usize::MAX` (no bound) by default.
    ///
    /// Second-level queries are combinatorial in the number of renamings
    /// and deletions (a Boolean query with 10 renamings per label can have
    /// *millions*, many of which retrieve nothing — "not every included
    /// schema tree is a tree class"), and whenever `n` exceeds the total
    /// number of results the driver must exhaust them all to learn that
    /// nothing is left. Setting a ceiling turns the evaluation into a
    /// bounded best-effort search: results beyond the `max_k` cheapest
    /// second-level queries are silently missing. The paper itself
    /// recommends the direct evaluation when `n` is close to the total
    /// number of results.
    pub max_k: usize,
}

impl Default for SchemaEvalConfig {
    fn default() -> Self {
        SchemaEvalConfig { max_k: usize::MAX }
    }
}

/// Counters describing one schema-driven evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Second-level queries executed against the data.
    pub second_level_queries: usize,
    /// Total instances returned by all `secondary` executions.
    pub secondary_rows: usize,
    /// Index fetches of the plan's one execution.
    pub fetches: usize,
}

/// The outcome of one adapted-`primary` run against the schema.
pub struct SecondLevelRun {
    /// The best `k` second-level queries, cost-sorted.
    pub queries: Vec<SecondLevelQuery>,
    /// Index fetches performed.
    pub fetches: usize,
    /// `true` iff there is no further second-level query: a larger `k`
    /// cannot produce another one.
    pub complete: bool,
}

/// Executes the compiled plan over the schema's label index in the
/// [`KBest`] domain, with no cap on the candidates; the root list's
/// second-level queries are drawn from the result. Also returns the
/// index fetches the execution performed.
fn second_level_queries(
    plan: &Plan,
    labels: &LabelIndex,
    interner: &Interner,
    opts: EvalOptions,
) -> (SecondLevelQueries, usize) {
    let alg = Algebra::new(labels, interner, KBest);
    let roots = plan::execute(plan, &alg, |_, _| {}).unwrap_or_default();
    let queries = SecondLevelQueries::new(roots, opts.enforce_leaf_match);
    (queries, alg.fetches())
}

/// Runs the adapted `primary` — the compiled plan over the schema's label
/// index in the [`KBest`] domain — returning the best `k` second-level
/// queries: the first `k` the driver draws for this plan.
pub fn best_k_second_level_plan(
    plan: &Plan,
    schema: &Schema,
    interner: &Interner,
    k: usize,
    opts: EvalOptions,
) -> SecondLevelRun {
    Metric::EvalSchemaRuns.incr();
    let _timer = time(TimerMetric::EvalSchema);
    let (stream, fetches) = second_level_queries(plan, schema.labels(), interner, opts);
    let mut stream = stream.peekable();
    let queries: Vec<SecondLevelQuery> = stream.by_ref().take(k).collect();
    let complete = stream.peek().is_none();
    SecondLevelRun {
        queries,
        fetches,
        complete,
    }
}

/// The type of the query root's selector and the labels it matches: its
/// own and its renamings'. `None` for a root that is no selector.
pub(crate) fn root_selector(
    expanded: &ExpandedQuery,
) -> Option<(NodeType, impl Iterator<Item = &str>)> {
    let (label, ty, renamings) = match &expanded.nodes[expanded.root] {
        ExpandedNode::Leaf {
            label,
            ty,
            renamings,
            ..
        }
        | ExpandedNode::Node {
            label,
            ty,
            renamings,
            ..
        } => (label, *ty, renamings),
        _ => return None,
    };
    let labels = std::iter::once(label.as_str()).chain(renamings.iter().map(|(l, _)| l.as_str()));
    Some((ty, labels))
}

/// Number of data nodes that can possibly be an embedding root: the
/// instances of every schema node carrying the query root's label or one
/// of its renamings. Once that many distinct roots have been retrieved,
/// no further second-level query can contribute — an early exit the
/// paper's driver does not have (it changes no results, only time).
/// Counted through the accessors that record no query-time metric: it
/// is bookkeeping, not evaluation. `secondary` must hold these lists.
fn possible_roots(
    expanded: &ExpandedQuery,
    labels: &LabelIndex,
    secondary: &SecondaryIndex,
    interner: &Interner,
) -> usize {
    let Some((ty, root_labels)) = root_selector(expanded) else {
        return usize::MAX;
    };
    let mut total = 0usize;
    for l in root_labels {
        let Some(id) = interner.get(l) else { continue };
        let Some(list) = labels.blocks(ty, id) else {
            continue;
        };
        // A list that does not decode is one `fetch` reads as empty.
        for posting in list.try_decode().unwrap_or_default() {
            let class = secondary.class_of_pre(posting.pre);
            total += secondary.get(class, id).map_or(0, <[_]>::len);
        }
    }
    total
}

/// A lazy stream of root–cost pairs in nondecreasing cost order — the
/// incremental retrieval the paper highlights as an advantage of the
/// schema-driven approach ("the results can be sent immediately to the
/// user", Section 9).
///
/// The stream executes its compiled plan once, at the first pull, and
/// then draws second-level queries one by one as the consumer pulls
/// results, each executed as soon as it is drawn, through the stream's
/// own executor (its memo lives as long as the stream), until `max_k`
/// have been drawn.
pub struct ResultStream<'a> {
    /// The compiled plan, executed at the first pull. `None` when the
    /// expanded query does not compile: the stream is empty.
    plan: Option<Arc<Plan>>,
    /// The schema-level label index the plan runs over.
    labels: &'a LabelIndex,
    interner: &'a Interner,
    opts: EvalOptions,
    /// The most second-level queries drawn.
    max_k: usize,
    /// The root list's second-level queries, once the plan has run.
    queries: Option<SecondLevelQueries>,
    /// Second-level queries drawn so far.
    drawn: usize,
    done: bool,
    /// Executes the drawn queries, each distinct sub-skeleton once; it
    /// dies with the stream.
    executor: Executor<'a>,
    seen_roots: HashSet<u32>,
    /// Hits not yet pulled, each with the label of the schema node it is
    /// an instance of: the root of the query that found it.
    pending: VecDeque<LabelledHit>,
    max_roots: usize,
    /// Time spent executing the plan and drawing from its streams.
    first_level: Duration,
    stats: EvalStats,
}

impl<'a> ResultStream<'a> {
    /// Creates a stream over the plan compiled from `expanded` (`None`
    /// yields an empty stream). Nothing is evaluated until the first
    /// pull.
    pub fn with_plan(
        expanded: &ExpandedQuery,
        plan: Option<Arc<Plan>>,
        schema: &'a Schema,
        interner: &'a Interner,
        opts: EvalOptions,
        cfg: SchemaEvalConfig,
    ) -> ResultStream<'a> {
        let executor = Executor::new(schema.secondary());
        ResultStream::over(
            expanded,
            plan,
            schema.labels(),
            executor,
            interner,
            opts,
            cfg,
        )
    }

    /// A stream whose plan runs over the schema-level label index
    /// `labels` and whose second-level queries run through `executor`,
    /// whose index holds the lists of the root selector's labels.
    pub(crate) fn over(
        expanded: &ExpandedQuery,
        plan: Option<Arc<Plan>>,
        labels: &'a LabelIndex,
        executor: Executor<'a>,
        interner: &'a Interner,
        opts: EvalOptions,
        cfg: SchemaEvalConfig,
    ) -> ResultStream<'a> {
        let max_roots = possible_roots(expanded, labels, executor.index(), interner);
        ResultStream {
            plan,
            labels,
            interner,
            opts,
            max_k: cfg.max_k,
            queries: None,
            drawn: 0,
            done: false,
            executor,
            seen_roots: HashSet::new(),
            pending: VecDeque::new(),
            max_roots,
            first_level: Duration::ZERO,
            stats: EvalStats::default(),
        }
    }

    /// Evaluation counters accumulated so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// The error of a list that failed to load, which ended the stream:
    /// the hits it returned are no answer.
    pub(crate) fn take_failure(&mut self) -> Option<DatabaseError> {
        self.executor.take_failure()
    }

    /// The next second-level query, executing the plan on the first call;
    /// `None` once the queries are exhausted or `max_k` are drawn.
    fn draw(&mut self) -> Option<SecondLevelQuery> {
        if self.queries.is_none() {
            let plan = self.plan.clone()?;
            Metric::EvalSchemaRuns.incr();
            let (queries, fetches) =
                second_level_queries(&plan, self.labels, self.interner, self.opts);
            self.stats.fetches += fetches;
            self.queries = Some(queries);
        }
        if self.drawn >= self.max_k {
            return None;
        }
        let query = self.queries.as_mut()?.next()?;
        self.drawn += 1;
        Some(query)
    }

    /// The next hit, with the label of the root schema node of the
    /// second-level query that found it — the name of its element.
    pub(crate) fn next_labelled(&mut self) -> Option<LabelledHit> {
        loop {
            if let Some(r) = self.pending.pop_front() {
                return Some(r);
            }
            if self.done {
                return None;
            }
            let start = Instant::now();
            let entry = self.draw();
            self.first_level += start.elapsed();
            let Some(entry) = entry else {
                self.done = true;
                continue;
            };
            let start = Instant::now();
            let label = entry.skeleton().label;
            let Some(instances) = self.executor.execute(entry.skeleton()) else {
                // Another embedding drew the same query.
                continue;
            };
            MetricsRegistry::with(|r| r.record_timing(TimerMetric::SecondLevel, start.elapsed()));
            self.stats.second_level_queries += 1;
            Metric::EvalSecondLevelQueries.incr();
            self.stats.secondary_rows += instances.len();
            Metric::EvalSecondaryRows.add(instances.len() as u64);
            for inst in instances {
                if self.seen_roots.insert(inst.pre) {
                    self.pending.push_back((inst.pre, entry.cost, label));
                }
            }
            // Once every possible root has been seen, nothing further can
            // contribute (an early exit the paper's driver does not have).
            // A list that failed to load ends the stream: its caller
            // reports the error, so no further query is worth drawing.
            if self.seen_roots.len() >= self.max_roots || self.executor.failed() {
                self.done = true;
            }
        }
    }
}

impl Iterator for ResultStream<'_> {
    type Item = (u32, Cost);

    fn next(&mut self) -> Option<(u32, Cost)> {
        self.next_labelled().map(|(pre, cost, _)| (pre, cost))
    }
}

/// Records the first level's time as one `eval.schema` sample, if the
/// plan ran.
impl Drop for ResultStream<'_> {
    fn drop(&mut self) {
        if self.queries.is_some() {
            MetricsRegistry::with(|r| r.record_timing(TimerMetric::EvalSchema, self.first_level));
        }
    }
}

/// Compiles the expanded query, then [`best_n_schema_with_plan`].
pub fn best_n_schema(
    expanded: &ExpandedQuery,
    schema: &Schema,
    interner: &Interner,
    n: usize,
    opts: EvalOptions,
    cfg: SchemaEvalConfig,
) -> (Vec<(u32, Cost)>, EvalStats) {
    let plan = plan::compile(expanded).ok().map(Arc::new);
    best_n_schema_with_plan(expanded, plan, schema, interner, n, opts, cfg)
}

/// The incremental best-n algorithm (Section 7.4, Figure 6), built on
/// [`ResultStream`]; `plan` must be compiled from `expanded`.
///
/// Returns the best `n` root–cost pairs (sorted by cost, ties by preorder)
/// and the evaluation counters. Second-level queries are executed in
/// nondecreasing cost order, so the first `n` distinct roots are the
/// best `n`.
pub fn best_n_schema_with_plan(
    expanded: &ExpandedQuery,
    plan: Option<Arc<Plan>>,
    schema: &Schema,
    interner: &Interner,
    n: usize,
    opts: EvalOptions,
    cfg: SchemaEvalConfig,
) -> (Vec<(u32, Cost)>, EvalStats) {
    let mut stream = ResultStream::with_plan(expanded, plan, schema, interner, opts, cfg);
    let (hits, stats) = best_n(&mut stream, n);
    let pairs = hits.into_iter().map(|(pre, cost, _)| (pre, cost)).collect();
    (pairs, stats)
}

/// The first `n` hits of `stream`, each with the label of its element,
/// sorted by cost, ties by preorder, and the evaluation counters. Hits
/// arrive in nondecreasing cost order, so they are the best `n`.
pub(crate) fn best_n(stream: &mut ResultStream<'_>, n: usize) -> (Vec<LabelledHit>, EvalStats) {
    let mut results = Vec::with_capacity(n.min(1024));
    while results.len() < n {
        let Some(hit) = stream.next_labelled() else {
            break;
        };
        results.push(hit);
    }
    results.sort_by_key(|&(pre, c, _)| (c, pre));
    (results, stream.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxql_cost::tables::paper_section6_costs;
    use approxql_cost::CostModel;
    use approxql_index::LabelIndex;
    use approxql_query::parse_query;
    use approxql_tree::{DataTree, DataTreeBuilder};

    fn catalog(costs: &CostModel) -> DataTree {
        let mut b = DataTreeBuilder::new();
        b.begin_struct("cd"); // 1
        b.begin_struct("title"); // 2
        b.add_text("piano concerto");
        b.end();
        b.begin_struct("composer"); // 5
        b.add_text("rachmaninov");
        b.end();
        b.end();
        b.begin_struct("cd"); // 7
        b.begin_struct("title"); // 8
        b.add_text("kinderszenen");
        b.end();
        b.begin_struct("tracks"); // 10
        b.begin_struct("track"); // 11
        b.begin_struct("title"); // 12
        b.add_text("vivace piano");
        b.end();
        b.end();
        b.end();
        b.end();
        b.build(costs)
    }

    fn schema_hits(query: &str, costs: &CostModel, tree: &DataTree, n: usize) -> Vec<(u32, Cost)> {
        let q = parse_query(query).unwrap();
        let ex = approxql_query::expand::ExpandedQuery::build(&q, costs);
        let schema = Schema::build(tree, costs);
        best_n_schema(
            &ex,
            &schema,
            tree.interner(),
            n,
            EvalOptions::default(),
            SchemaEvalConfig::default(),
        )
        .0
    }

    #[test]
    fn exact_match_found_via_schema() {
        let costs = paper_section6_costs();
        let tree = catalog(&costs);
        let hits = schema_hits(
            r#"cd[title["piano" and "concerto"] and composer["rachmaninov"]]"#,
            &costs,
            &tree,
            1,
        );
        assert_eq!(hits, vec![(1, Cost::ZERO)]);
    }

    #[test]
    fn schema_matches_direct_on_the_catalog() {
        let costs = paper_section6_costs();
        let tree = catalog(&costs);
        let index = LabelIndex::build(&tree);
        for query in [
            r#"cd[title["piano"]]"#,
            r#"cd[title["piano" and "concerto"]]"#,
            r#"cd[track[title["piano" and "concerto"]] and composer["rachmaninov"]]"#,
            r#"cd[title["concerto" or "kinderszenen"]]"#,
            "cd[tracks]",
            "cd",
        ] {
            let q = parse_query(query).unwrap();
            let ex = approxql_query::expand::ExpandedQuery::build(&q, &costs);
            let (direct, _) =
                crate::direct::best_n(&ex, &index, tree.interner(), None, EvalOptions::default());
            let schema = Schema::build(&tree, &costs);
            let (via_schema, _) = best_n_schema(
                &ex,
                &schema,
                tree.interner(),
                direct.len().max(1),
                EvalOptions::default(),
                SchemaEvalConfig::default(),
            );
            assert_eq!(via_schema, direct, "mismatch for {query}");
        }
    }

    #[test]
    fn max_k_bounds_the_queries_drawn() {
        let costs = paper_section6_costs();
        let tree = catalog(&costs);
        let q = parse_query(r#"cd[title["piano"]]"#).unwrap();
        let ex = approxql_query::expand::ExpandedQuery::build(&q, &costs);
        let schema = Schema::build(&tree, &costs);
        let run = |max_k| {
            let cfg = SchemaEvalConfig { max_k };
            let opts = EvalOptions::default();
            best_n_schema(&ex, &schema, tree.interner(), 2, opts, cfg)
        };
        // The two cds come from two second-level queries.
        let (hits, stats) = run(usize::MAX);
        assert_eq!(hits.len(), 2);
        assert!(stats.second_level_queries >= 2, "{stats:?}");
        // The cheapest query alone finds the exact match; none finds none.
        let (hits, stats) = run(1);
        assert_eq!(hits, vec![(1, Cost::ZERO)]);
        assert_eq!(stats.second_level_queries, 1);
        let (hits, stats) = run(0);
        assert!(hits.is_empty());
        assert_eq!(stats.second_level_queries, 0);
    }

    #[test]
    fn n_zero_returns_nothing() {
        let costs = paper_section6_costs();
        let tree = catalog(&costs);
        let hits = schema_hits("cd", &costs, &tree, 0);
        assert!(hits.is_empty());
    }

    #[test]
    fn termination_when_fewer_results_than_n() {
        let costs = paper_section6_costs();
        let tree = catalog(&costs);
        // Only two cds exist; ask for 50.
        let hits = schema_hits("cd", &costs, &tree, 50);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn no_results_for_unknown_labels() {
        let costs = CostModel::new();
        let tree = catalog(&costs);
        assert!(schema_hits(r#"zzz["nothing"]"#, &costs, &tree, 5).is_empty());
    }

    #[test]
    fn second_level_queries_are_sorted_by_cost() {
        let costs = paper_section6_costs();
        let tree = catalog(&costs);
        let q = parse_query(r#"cd[title["piano"]]"#).unwrap();
        let ex = approxql_query::expand::ExpandedQuery::build(&q, &costs);
        let schema = Schema::build(&tree, &costs);
        let p = plan::compile(&ex).unwrap();
        let opts = EvalOptions::default();
        let queries = best_k_second_level_plan(&p, &schema, tree.interner(), 10, opts).queries;
        assert!(!queries.is_empty());
        assert!(queries.windows(2).all(|w| w[0].cost <= w[1].cost));
        // The cheapest second-level query is the exact one (cost 0).
        assert_eq!(queries[0].cost, Cost::ZERO);
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;
    use approxql_cost::tables::paper_section6_costs;
    use approxql_query::parse_query;
    use approxql_tree::DataTreeBuilder;

    #[test]
    fn stream_yields_results_in_cost_order_and_matches_batch() {
        let costs = paper_section6_costs();
        let mut b = DataTreeBuilder::new();
        for (title, extra) in [
            ("piano concerto", true),
            ("kinderszenen", false),
            ("piano sonata", false),
        ] {
            b.begin_struct("cd");
            b.begin_struct("title");
            b.add_text(title);
            b.end();
            if extra {
                b.begin_struct("composer");
                b.add_text("rachmaninov");
                b.end();
            }
            b.end();
        }
        let tree = b.build(&costs);
        let schema = Schema::build(&tree, &costs);
        let q = parse_query(r#"cd[title["piano" and "concerto"]]"#).unwrap();
        let ex = approxql_query::expand::ExpandedQuery::build(&q, &costs);

        let stream = ResultStream::with_plan(
            &ex,
            plan::compile(&ex).ok().map(Arc::new),
            &schema,
            tree.interner(),
            EvalOptions::default(),
            SchemaEvalConfig::default(),
        );
        let streamed: Vec<(u32, Cost)> = stream.collect();
        assert!(!streamed.is_empty());
        assert!(
            streamed.windows(2).all(|w| w[0].1 <= w[1].1),
            "stream not cost-ordered: {streamed:?}"
        );
        // Collecting everything equals the batch driver asked for "all".
        let (batch, _) = best_n_schema(
            &ex,
            &schema,
            tree.interner(),
            usize::MAX,
            EvalOptions::default(),
            SchemaEvalConfig::default(),
        );
        let mut sorted = streamed.clone();
        sorted.sort_by_key(|&(pre, c)| (c, pre));
        assert_eq!(sorted, batch);
    }

    #[test]
    fn a_stream_reads_no_index_until_pulled() {
        let costs = paper_section6_costs();
        let mut b = DataTreeBuilder::new();
        b.begin_struct("cd");
        b.begin_struct("title");
        b.add_text("piano concerto");
        b.end();
        b.end();
        let tree = b.build(&costs);
        let schema = Schema::build(&tree, &costs);
        let q = parse_query(r#"cd[title["piano"]]"#).unwrap();
        let ex = approxql_query::expand::ExpandedQuery::build(&q, &costs);
        let plan = plan::compile(&ex).ok().map(Arc::new);
        let before = approxql_metrics::snapshot();
        let mut stream = ResultStream::with_plan(
            &ex,
            plan,
            &schema,
            tree.interner(),
            EvalOptions::default(),
            SchemaEvalConfig::default(),
        );
        let read = |m: Metric| m.name().starts_with("index.") || m.name().starts_with("postings.");
        let diff = approxql_metrics::snapshot().diff(&before);
        let touched: Vec<_> = diff.counters().filter(|&(m, c)| read(m) && c > 0).collect();
        assert!(touched.is_empty(), "{touched:?}");
        // The first pull runs the plan: 3 fetches, and a 3-node query.
        assert_eq!(stream.next(), Some((1, Cost::ZERO)));
        let diff = approxql_metrics::snapshot().diff(&before);
        assert_eq!(diff.get(Metric::IndexLabelFetches), 3);
        assert_eq!(diff.get(Metric::PostingsBlocksDecoded), 3);
        assert_eq!(diff.get(Metric::IndexSecondaryFetches), 3);
    }

    #[test]
    fn first_pull_executes_one_second_level_query() {
        let costs = paper_section6_costs();
        let mut b = DataTreeBuilder::new();
        for _ in 0..5 {
            b.begin_struct("cd");
            b.begin_struct("title");
            b.add_text("piano");
            b.end();
            b.end();
        }
        let tree = b.build(&costs);
        let schema = Schema::build(&tree, &costs);
        let q = parse_query(r#"cd[title["piano"]]"#).unwrap();
        let ex = approxql_query::expand::ExpandedQuery::build(&q, &costs);
        let mut stream = ResultStream::with_plan(
            &ex,
            plan::compile(&ex).ok().map(Arc::new),
            &schema,
            tree.interner(),
            EvalOptions::default(),
            SchemaEvalConfig::default(),
        );
        // The first result arrives after exactly one second-level query.
        let first = stream.next().unwrap();
        assert_eq!(first.1, Cost::ZERO);
        assert_eq!(stream.stats().second_level_queries, 1);
        // That query found all five cds: draining executes no other.
        let rest: Vec<_> = stream.by_ref().collect();
        assert_eq!(rest.len(), 4);
        assert_eq!(stream.stats().second_level_queries, 1);
    }
}
