//! Schema-driven evaluation (Sections 7.2–7.4).
//!
//! The adapted algorithm `primary` runs against the *schema* indexes in
//! the k-best domain of [`crate::topk`], producing the best `k`
//! second-level queries. Algorithm `secondary` executes each of
//! them against the path-dependent index. The incremental driver
//! ([`best_n_schema`], Figure 6) grows `k` by `δ` until `n` results are
//! found or the second-level queries are exhausted.
//!
//! Because second-level queries are processed in increasing cost order and
//! all results of one second-level query share its (exact, Section 7.1)
//! cost, the first occurrence of each embedding root is its minimum cost —
//! the driver only needs to deduplicate roots.
//!
//! The adapted `primary` executes the same compiled physical plan as the
//! direct evaluation (see [`approxql_plan`]) through the same list
//! algebra ([`crate::list`]): only the cost domain differs — the best `k`
//! candidates per node where the direct evaluation keeps a minimum, `k` a
//! run-time field, so one compiled plan serves every incremental round.

use crate::direct::{fetch_count, EvalOptions};
use crate::list::{self, Algebra};
use crate::secondary;
use crate::topk::{self, KBest, SecondLevelQuery};
use approxql_metrics::{time, Metric, TimerMetric};
use approxql_plan::{self as plan, Plan, PlanOp};
use approxql_query::expand::{ExpandedNode, ExpandedQuery};
use approxql_schema::Schema;
use approxql_tree::{Cost, Interner};
use std::collections::HashSet;
use std::sync::Arc;

/// Tuning knobs of the incremental driver.
#[derive(Debug, Clone, Copy)]
pub struct SchemaEvalConfig {
    /// Initial `k` (number of second-level queries of the first round).
    /// `None` derives it from `n` (the paper: "a good initial guess of k
    /// is crucial").
    pub initial_k: Option<usize>,
    /// Increment `δ` added to `k` when the current queries did not yield
    /// `n` results. `None` doubles `k` instead (geometric growth keeps the
    /// number of re-runs logarithmic; the paper's driver uses a fixed δ).
    pub delta: Option<usize>,
    /// Hard upper bound on `k`, `usize::MAX` (no bound) by default.
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
        SchemaEvalConfig {
            initial_k: None,
            delta: None,
            max_k: usize::MAX,
        }
    }
}

/// Counters describing one schema-driven evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Rounds of the incremental loop (primary re-runs).
    pub rounds: usize,
    /// Final `k` used.
    pub k_final: usize,
    /// Second-level queries executed against the data.
    pub second_level_queries: usize,
    /// Total instances returned by all `secondary` executions.
    pub secondary_rows: usize,
    /// Total entries produced by the top-k list operations (all rounds).
    pub primary_entries: usize,
    /// Index fetches (all rounds).
    pub fetches: usize,
}

/// Whether an operator's output takes part in the entry/cap accounting.
/// Leaf fetches and the intermediate merge/shift lists are building
/// blocks whose content reappears in their consumer; counting the
/// materialized candidate lists and combination results matches the
/// completeness argument: a truncation can only originate in an operator
/// that applies the per-segment cap to a combined list.
fn counts_toward_entries(op: &PlanOp) -> bool {
    match op {
        PlanOp::Fetch { is_leaf, .. } => !is_leaf,
        PlanOp::Join { .. }
        | PlanOp::OuterJoin { .. }
        | PlanOp::Intersect { .. }
        | PlanOp::Union { .. } => true,
        PlanOp::Merge { .. } | PlanOp::Shift { .. } | PlanOp::SortBest { .. } => false,
    }
}

/// The outcome of one adapted-`primary` run against the schema.
pub struct SecondLevelRun {
    /// The best `k` second-level queries, cost-sorted.
    pub queries: Vec<SecondLevelQuery>,
    /// Entries produced by the top-k list operations.
    pub entries: usize,
    /// Index fetches performed.
    pub fetches: usize,
    /// `true` iff the enumeration is provably complete: no candidate
    /// vector hit the cap and the root list was not truncated, so a
    /// larger `k` cannot produce additional second-level queries.
    pub complete: bool,
}

/// Runs the adapted `primary` — the compiled plan over the schema's label
/// index in the [`KBest`] domain — returning the best `k` second-level
/// queries (root candidates of the flattened, cost-sorted list).
pub fn best_k_second_level_plan(
    plan: &Plan,
    schema: &Schema,
    interner: &Interner,
    k: usize,
    opts: EvalOptions,
) -> SecondLevelRun {
    Metric::EvalSchemaRuns.incr();
    let _timer = time(TimerMetric::EvalSchema);
    let alg = Algebra::new(schema.labels(), interner, KBest { k });
    let mut entries = 0usize;
    // `possibly_capped`: whether any accounted candidate vector reached
    // length `k` — a conservative signal that the cap may have truncated
    // embeddings. If it never fires, the enumeration is provably complete
    // at this `k`.
    let mut possibly_capped = false;
    let root_list = plan::execute(plan, &alg, |h, list| {
        if plan.ops().get(h).is_some_and(counts_toward_entries) {
            entries += list::weight::<KBest>(list);
            possibly_capped = possibly_capped || list.iter().any(|(_, v)| v.len() >= k);
        }
    })
    .unwrap_or_default();
    entries += list::weight::<KBest>(&root_list);
    let best = topk::sort_k_best(k, &root_list, opts.enforce_leaf_match);
    let complete = !possibly_capped && best.len() < k;
    SecondLevelRun {
        queries: best,
        entries,
        fetches: fetch_count(plan),
        complete,
    }
}

/// Structural identity of a skeleton (for deduplicating second-level
/// queries across incremental rounds without relying on list order).
fn skeleton_key(s: &topk::Skeleton, out: &mut Vec<u32>) {
    out.push(s.pre);
    out.push(s.label.0);
    out.push(s.children.len() as u32);
    for c in s.children.iter() {
        skeleton_key(c, out);
    }
}

fn entry_key(q: &SecondLevelQuery) -> Vec<u32> {
    let mut key = Vec::with_capacity(8);
    skeleton_key(q.skeleton(), &mut key);
    key
}

/// Number of data nodes that can possibly be an embedding root: the
/// instances of every schema node carrying the query root's label or one
/// of its renamings. Once that many distinct roots have been retrieved,
/// no further second-level query can contribute — an early exit the
/// paper's driver does not have (it changes no results, only time).
fn possible_roots(expanded: &ExpandedQuery, schema: &Schema, interner: &Interner) -> usize {
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
        _ => return usize::MAX,
    };
    let mut total = 0usize;
    for l in std::iter::once(label.as_str()).chain(renamings.iter().map(|(l, _)| l.as_str())) {
        if let Some(id) = interner.get(l) {
            for posting in schema.labels().fetch(ty, id) {
                total += schema.secondary().fetch(posting.pre, id).len();
            }
        }
    }
    total
}

/// A lazy stream of root–cost pairs in nondecreasing cost order — the
/// incremental retrieval the paper highlights as an advantage of the
/// schema-driven approach ("the results can be sent immediately to the
/// user", Section 9).
///
/// The stream compiles its query once and drives the Figure 6 loop on
/// demand: second-level queries are generated in batches of `k` and
/// executed one by one as the consumer pulls results; `k` grows (by `δ`
/// or doubling) only when the current batch runs dry.
pub struct ResultStream<'a> {
    /// The compiled plan shared by all driver rounds (`k` is a runtime
    /// parameter of the top-k algebra, not a plan constant). `None` when
    /// the expanded query does not compile: the stream is empty.
    plan: Option<Arc<Plan>>,
    schema: &'a Schema,
    interner: &'a Interner,
    opts: EvalOptions,
    cfg: SchemaEvalConfig,
    k: usize,
    queries: Vec<SecondLevelQuery>,
    pos: usize,
    last_run_complete: bool,
    started: bool,
    done: bool,
    prev_len: usize,
    executed: HashSet<Vec<u32>>,
    seen_roots: HashSet<u32>,
    pending: std::collections::VecDeque<(u32, Cost)>,
    max_roots: usize,
    stats: EvalStats,
}

impl<'a> ResultStream<'a> {
    /// Creates a stream over the plan compiled from `expanded` (`None`
    /// yields an empty stream). When `cfg.initial_k` is `None`, the first
    /// batch size defaults to 16 (the stream cannot know the consumer's
    /// `n`).
    pub fn with_plan(
        expanded: &ExpandedQuery,
        plan: Option<Arc<Plan>>,
        schema: &'a Schema,
        interner: &'a Interner,
        opts: EvalOptions,
        cfg: SchemaEvalConfig,
    ) -> ResultStream<'a> {
        let k = cfg.initial_k.unwrap_or(16).min(cfg.max_k).max(1);
        let max_roots = possible_roots(expanded, schema, interner);
        ResultStream {
            plan,
            schema,
            interner,
            opts,
            cfg,
            k,
            queries: Vec::new(),
            pos: 0,
            last_run_complete: false,
            started: false,
            done: false,
            prev_len: usize::MAX,
            executed: HashSet::new(),
            seen_roots: HashSet::new(),
            pending: std::collections::VecDeque::new(),
            max_roots,
            stats: EvalStats::default(),
        }
    }

    /// Evaluation counters accumulated so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// Runs (or re-runs) the adapted primary at the current `k`, reusing
    /// the plan compiled once at stream construction.
    fn refill(&mut self) {
        let Some(plan) = self.plan.clone() else {
            self.queries.clear();
            self.started = true;
            self.done = true;
            return;
        };
        self.stats.rounds += 1;
        Metric::EvalSchemaRounds.incr();
        self.stats.k_final = self.k;
        let run = best_k_second_level_plan(&plan, self.schema, self.interner, self.k, self.opts);
        self.stats.primary_entries += run.entries;
        self.stats.fetches += run.fetches;
        self.queries = run.queries;
        self.last_run_complete = run.complete;
        self.pos = 0;
        self.started = true;
    }

    /// Advances past the current batch: either declare exhaustion or grow
    /// `k` and refill.
    fn advance_k(&mut self) {
        // Exhausted? Either provably (nothing was capped at this k), or
        // heuristically (the flattened root list stopped growing), or the
        // configured ceiling was reached.
        if self.last_run_complete
            || (self.queries.len() < self.k && self.queries.len() == self.prev_len)
            || self.k >= self.cfg.max_k
        {
            self.done = true;
            return;
        }
        self.prev_len = self.queries.len();
        self.k = match self.cfg.delta {
            Some(delta) => self.k.saturating_add(delta),
            None => self.k.saturating_mul(2),
        }
        .min(self.cfg.max_k);
        self.refill();
    }
}

impl Iterator for ResultStream<'_> {
    type Item = (u32, Cost);

    fn next(&mut self) -> Option<(u32, Cost)> {
        loop {
            if let Some(r) = self.pending.pop_front() {
                return Some(r);
            }
            if self.done {
                return None;
            }
            if !self.started {
                self.refill();
                continue;
            }
            if self.pos >= self.queries.len() {
                self.advance_k();
                continue;
            }
            let entry = self.queries[self.pos].clone();
            self.pos += 1;
            if !self.executed.insert(entry_key(&entry)) {
                // Evaluated in an earlier round.
                continue;
            }
            self.stats.second_level_queries += 1;
            Metric::EvalSecondLevelQueries.incr();
            let instances = {
                let _timer = time(TimerMetric::SecondLevel);
                secondary::execute(entry.skeleton(), self.schema.secondary())
            };
            self.stats.secondary_rows += instances.len();
            Metric::EvalSecondaryRows.add(instances.len() as u64);
            for inst in instances {
                if self.seen_roots.insert(inst.pre) {
                    self.pending.push_back((inst.pre, entry.cost));
                }
            }
            // Once every possible root has been seen, nothing further can
            // contribute (an early exit the paper's driver does not have).
            if self.seen_roots.len() >= self.max_roots {
                self.done = true;
            }
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
    if n == 0 {
        return (Vec::new(), EvalStats::default());
    }
    let cfg = SchemaEvalConfig {
        initial_k: Some(cfg.initial_k.unwrap_or_else(|| (2 * n.min(1 << 20)).max(8))),
        ..cfg
    };
    let mut stream = ResultStream::with_plan(expanded, plan, schema, interner, opts, cfg);
    let mut results: Vec<(u32, Cost)> = Vec::with_capacity(n.min(1024));
    for pair in stream.by_ref() {
        results.push(pair);
        if results.len() >= n {
            break;
        }
    }
    results.sort_by_key(|&(pre, c)| (c, pre));
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
    fn incremental_growth_when_k_too_small() {
        let costs = paper_section6_costs();
        let tree = catalog(&costs);
        let q = parse_query(r#"cd[title["piano"]]"#).unwrap();
        let ex = approxql_query::expand::ExpandedQuery::build(&q, &costs);
        let schema = Schema::build(&tree, &costs);
        let cfg = SchemaEvalConfig {
            initial_k: Some(1),
            delta: Some(1),
            max_k: usize::MAX,
        };
        let (hits, stats) = best_n_schema(
            &ex,
            &schema,
            tree.interner(),
            2,
            EvalOptions::default(),
            cfg,
        );
        assert_eq!(hits.len(), 2);
        assert!(stats.rounds > 1, "expected multiple rounds, got {stats:?}");
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
    fn stream_is_lazy_about_k() {
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
            SchemaEvalConfig {
                initial_k: Some(1),
                delta: Some(1),
                ..Default::default()
            },
        );
        // The first result must arrive after a single round with k = 1.
        let first = stream.next().unwrap();
        assert_eq!(first.1, Cost::ZERO);
        assert_eq!(stream.stats().rounds, 1);
        assert_eq!(stream.stats().k_final, 1);
        // Draining pulls the rest without recomputing per result.
        let rest: Vec<_> = stream.by_ref().collect();
        assert_eq!(rest.len(), 4);
    }
}
