//! Property tests: the list-algebra evaluators must agree with the naive
//! closure-enumeration oracle on random data trees, random queries, and
//! random cost models — and the schema-driven best-n must agree with the
//! direct best-n.
//!
//! The generators use a tiny label alphabet so that approximate matches,
//! deletions, and renamings all fire frequently.

use approxql::crates::core::list::{Algebra, TwoChannel};
use approxql::crates::core::schema_eval::{best_n_schema, SchemaEvalConfig};
use approxql::crates::core::topk::KBest;
use approxql::crates::core::{direct, EvalOptions};
use approxql::crates::index::LabelIndex;
use approxql::crates::plan;
use approxql::crates::schema::Schema;
use approxql::{
    Cost, CostModel, CostModelBuilder, DataTree, DataTreeBuilder, NodeType, Query,
    ReferenceEvaluator,
};
use proptest::prelude::*;

const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
const WORDS: [&str; 4] = ["w", "x", "y", "z"];

#[derive(Debug, Clone)]
enum GenNode {
    Struct(usize, Vec<GenNode>),
    Word(usize),
}

fn gen_tree_node(depth: u32) -> impl Strategy<Value = GenNode> {
    let leaf = prop_oneof![
        (0..WORDS.len()).prop_map(GenNode::Word),
        (0..NAMES.len()).prop_map(|n| GenNode::Struct(n, vec![])),
    ];
    leaf.prop_recursive(depth, 24, 3, |inner| {
        (0..NAMES.len(), proptest::collection::vec(inner, 0..3))
            .prop_map(|(n, children)| GenNode::Struct(n, children))
    })
}

fn gen_data() -> impl Strategy<Value = Vec<GenNode>> {
    proptest::collection::vec(gen_tree_node(3), 1..4)
}

fn build_tree(docs: &[GenNode], costs: &CostModel) -> DataTree {
    fn emit(b: &mut DataTreeBuilder, n: &GenNode) {
        match n {
            GenNode::Word(w) => {
                b.add_word(WORDS[*w]);
            }
            GenNode::Struct(name, children) => {
                b.begin_struct(NAMES[*name]);
                for c in children {
                    emit(b, c);
                }
                b.end();
            }
        }
    }
    let mut b = DataTreeBuilder::new();
    for d in docs {
        // Only struct nodes can be document roots.
        match d {
            GenNode::Word(w) => {
                b.begin_struct("doc");
                b.add_word(WORDS[*w]);
                b.end();
            }
            other => emit(&mut b, other),
        }
    }
    b.build(costs)
}

#[derive(Debug, Clone)]
enum GenQuery {
    Name(usize, Vec<GenQuery>),
    Word(usize),
    And(Box<GenQuery>, Box<GenQuery>),
    Or(Box<GenQuery>, Box<GenQuery>),
}

fn gen_query_expr(depth: u32) -> impl Strategy<Value = GenQuery> {
    let leaf = prop_oneof![
        (0..WORDS.len()).prop_map(GenQuery::Word),
        (0..NAMES.len()).prop_map(|n| GenQuery::Name(n, vec![])),
    ];
    leaf.prop_recursive(depth, 12, 2, |inner| {
        prop_oneof![
            (
                0..NAMES.len(),
                proptest::collection::vec(inner.clone(), 1..3)
            )
                .prop_map(|(n, cs)| GenQuery::Name(n, cs)),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| GenQuery::And(Box::new(l), Box::new(r))),
            (inner.clone(), inner).prop_map(|(l, r)| GenQuery::Or(Box::new(l), Box::new(r))),
        ]
    })
}

fn gen_query() -> impl Strategy<Value = (usize, Vec<GenQuery>)> {
    (
        0..NAMES.len(),
        proptest::collection::vec(gen_query_expr(2), 0..3),
    )
}

fn render_query(root: usize, children: &[GenQuery]) -> String {
    fn render(q: &GenQuery) -> String {
        match q {
            GenQuery::Word(w) => format!("\"{}\"", WORDS[*w]),
            GenQuery::Name(n, cs) if cs.is_empty() => NAMES[*n].to_owned(),
            GenQuery::Name(n, cs) => {
                let inner: Vec<String> = cs.iter().map(render).collect();
                format!("{}[{}]", NAMES[*n], inner.join(" and "))
            }
            GenQuery::And(l, r) => format!("({} and {})", render(l), render(r)),
            GenQuery::Or(l, r) => format!("({} or {})", render(l), render(r)),
        }
    }
    if children.is_empty() {
        NAMES[root].to_owned()
    } else {
        let inner: Vec<String> = children.iter().map(render).collect();
        format!("{}[{}]", NAMES[root], inner.join(" and "))
    }
}

/// A random cost model over the tiny alphabet: a few deletions and
/// renamings with costs 1..6.
fn gen_costs() -> impl Strategy<Value = Vec<(u8, usize, usize, u64)>> {
    proptest::collection::vec(
        (
            0u8..3, // 0 = delete name, 1 = delete word, 2 = rename
            0usize..NAMES.len().max(WORDS.len()),
            0usize..NAMES.len().max(WORDS.len()),
            1u64..6,
        ),
        0..6,
    )
}

fn build_costs(spec: &[(u8, usize, usize, u64)]) -> CostModel {
    let mut b: CostModelBuilder = CostModel::builder().insert_default(1);
    for &(kind, x, y, c) in spec {
        match kind {
            0 => b = b.delete(NodeType::Struct, NAMES[x % NAMES.len()], Cost::finite(c)),
            1 => b = b.delete(NodeType::Text, WORDS[x % WORDS.len()], Cost::finite(c)),
            _ => {
                let (from, to) = (NAMES[x % NAMES.len()], NAMES[y % NAMES.len()]);
                if from != to {
                    b = b.rename(NodeType::Struct, from, to, Cost::finite(c));
                }
            }
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `primary` (direct) computes exactly the oracle's root–cost pairs,
    /// with and without the leaf rule, at several thread counts.
    #[test]
    fn direct_equals_oracle(
        docs in gen_data(),
        (qroot, qchildren) in gen_query(),
        cost_spec in gen_costs(),
    ) {
        let costs = build_costs(&cost_spec);
        let tree = build_tree(&docs, &costs);
        let query_str = render_query(qroot, &qchildren);
        let query: Query = approxql::parse_query(&query_str).unwrap();
        let expanded = approxql::ExpandedQuery::build(&query, &costs);
        let index = LabelIndex::build(&tree);
        let oracle = ReferenceEvaluator::new(&tree, &costs);

        for enforce in [true, false] {
            let want = oracle.best_n(&query, None, enforce);
            let opts = EvalOptions {
                enforce_leaf_match: enforce,
                ..EvalOptions::default()
            };
            let (got, _) = direct::best_n(&expanded, &index, tree.interner(), None, opts);
            prop_assert_eq!(
                &got, &want,
                "direct(leaf={}) disagrees with oracle on {} over {:?}",
                enforce, query_str, docs
            );
        }
    }

    /// The schema-driven best-n returns the same cost sequence as the
    /// direct best-n, and identical root sets strictly below the n-th cost
    /// (tie order at the cut may differ).
    #[test]
    fn schema_equals_direct(
        docs in gen_data(),
        (qroot, qchildren) in gen_query(),
        cost_spec in gen_costs(),
        n in 1usize..8,
    ) {
        let costs = build_costs(&cost_spec);
        let tree = build_tree(&docs, &costs);
        let query_str = render_query(qroot, &qchildren);
        let query: Query = approxql::parse_query(&query_str).unwrap();
        let expanded = approxql::ExpandedQuery::build(&query, &costs);
        let index = LabelIndex::build(&tree);
        let schema = Schema::build(&tree, &costs);

        let (direct_all, _) = direct::best_n(
            &expanded, &index, tree.interner(), None, EvalOptions::default());
        let (schema_n, _) = best_n_schema(
            &expanded, &schema, tree.interner(), n,
            EvalOptions::default(), SchemaEvalConfig::default());

        let want: Vec<_> = direct_all.iter().take(n).collect();
        prop_assert_eq!(schema_n.len(), want.len(), "result count for {}", query_str);
        let want_costs: Vec<Cost> = want.iter().map(|&&(_, c)| c).collect();
        let got_costs: Vec<Cost> = schema_n.iter().map(|&(_, c)| c).collect();
        prop_assert_eq!(&got_costs, &want_costs, "cost sequence for {}", query_str);
        if let Some(&last) = want_costs.last() {
            let strict_want: std::collections::BTreeSet<_> =
                want.iter().filter(|&&&(_, c)| c < last).collect();
            for (root, cost) in schema_n.iter().filter(|&&(_, c)| c < last) {
                prop_assert!(
                    strict_want.contains(&&(*root, *cost)),
                    "root {} at {} not in direct results for {}", root, cost, query_str
                );
            }
        }
    }

    /// The incremental driver returns the same results regardless of its
    /// starting k and growth (prefix-stability of the second-level list).
    #[test]
    fn schema_driver_is_config_independent(
        docs in gen_data(),
        (qroot, qchildren) in gen_query(),
        cost_spec in gen_costs(),
    ) {
        let costs = build_costs(&cost_spec);
        let tree = build_tree(&docs, &costs);
        let query_str = render_query(qroot, &qchildren);
        let query: Query = approxql::parse_query(&query_str).unwrap();
        let expanded = approxql::ExpandedQuery::build(&query, &costs);
        let schema = Schema::build(&tree, &costs);

        let run = |cfg: SchemaEvalConfig| {
            best_n_schema(&expanded, &schema, tree.interner(), 5,
                EvalOptions::default(), cfg).0
        };
        let a = run(SchemaEvalConfig::default());
        let b = run(SchemaEvalConfig { initial_k: Some(1), delta: Some(1), ..Default::default() });
        let c = run(SchemaEvalConfig { initial_k: Some(3), delta: None, ..Default::default() });
        let costs_of = |v: &[(u32, Cost)]| v.iter().map(|&(_, c)| c).collect::<Vec<_>>();
        prop_assert_eq!(costs_of(&a), costs_of(&b), "k growth changed costs for {}", query_str);
        prop_assert_eq!(costs_of(&a), costs_of(&c), "k growth changed costs for {}", query_str);
    }

    /// Metrics invariants: counters are monotone (every later snapshot
    /// dominates every earlier one), the diff of equal snapshots is zero,
    /// and diffs over work regions obey `diff = later - earlier` exactly.
    #[test]
    fn metrics_snapshots_are_monotone_and_diffable(
        docs in gen_data(),
        (qroot, qchildren) in gen_query(),
        cost_spec in gen_costs(),
    ) {
        let costs = build_costs(&cost_spec);
        let tree = build_tree(&docs, &costs);
        let query_str = render_query(qroot, &qchildren);
        let query: Query = approxql::parse_query(&query_str).unwrap();
        let expanded = approxql::ExpandedQuery::build(&query, &costs);
        let index = LabelIndex::build(&tree);
        let schema = Schema::build(&tree, &costs);

        // Equal snapshots diff to zero (no work in between).
        let s0 = approxql::metrics_snapshot();
        let s0b = approxql::metrics_snapshot();
        prop_assert!(s0b.diff(&s0).is_zero(), "idle region recorded operations");

        // Snapshots taken across evaluation rounds are monotone.
        let mut snaps = vec![s0];
        for _ in 0..3 {
            let _ = direct::best_n(&expanded, &index, tree.interner(), None, EvalOptions::default());
            snaps.push(approxql::metrics_snapshot());
            let _ = best_n_schema(&expanded, &schema, tree.interner(), 3,
                EvalOptions::default(), SchemaEvalConfig::default());
            snaps.push(approxql::metrics_snapshot());
        }
        for w in snaps.windows(2) {
            prop_assert!(w[1].dominates(&w[0]), "counters regressed for {}", query_str);
        }
        // A snapshot diffed against itself is zero even after work.
        let last = snaps.last().unwrap();
        prop_assert!(last.diff(last).is_zero());
        // diff is exact subtraction: first + (last - first) = last, checked
        // counter by counter.
        let delta = last.diff(&snaps[0]);
        for (m, v) in last.counters() {
            prop_assert_eq!(v, snaps[0].get(m) + delta.get(m), "counter {} drifted", m.name());
        }
    }

    /// Whenever the two evaluators agree on a non-empty result, both must
    /// have touched the label index: ≥1 fetch on each side of the
    /// comparison (results cannot appear out of thin air).
    #[test]
    fn non_empty_results_imply_index_fetches(
        docs in gen_data(),
        (qroot, qchildren) in gen_query(),
        cost_spec in gen_costs(),
    ) {
        let costs = build_costs(&cost_spec);
        let tree = build_tree(&docs, &costs);
        let query_str = render_query(qroot, &qchildren);
        let query: Query = approxql::parse_query(&query_str).unwrap();
        let expanded = approxql::ExpandedQuery::build(&query, &costs);
        let index = LabelIndex::build(&tree);
        let schema = Schema::build(&tree, &costs);

        let before = approxql::metrics_snapshot();
        let (direct_hits, _) = direct::best_n(
            &expanded, &index, tree.interner(), None, EvalOptions::default());
        let direct_diff = approxql::metrics_snapshot().diff(&before);

        let before = approxql::metrics_snapshot();
        let (schema_hits, _) = best_n_schema(
            &expanded, &schema, tree.interner(), direct_hits.len().max(1),
            EvalOptions::default(), SchemaEvalConfig::default());
        let schema_diff = approxql::metrics_snapshot().diff(&before);

        use approxql::Metric;
        if !direct_hits.is_empty() {
            prop_assert!(direct_diff.get(Metric::EvalDirectFetches) >= 1,
                "direct produced {} hits with no fetch for {}", direct_hits.len(), query_str);
            prop_assert!(direct_diff.get(Metric::ListEntriesProduced) >= direct_hits.len() as u64,
                "fewer entries than results for {}", query_str);
        }
        if !schema_hits.is_empty() {
            prop_assert!(schema_diff.get(Metric::IndexLabelFetches) >= 1,
                "schema produced {} hits with no fetch for {}", schema_hits.len(), query_str);
            prop_assert!(schema_diff.get(Metric::EvalSecondLevelQueries) >= 1,
                "schema hits without second-level queries for {}", query_str);
        }
    }

    /// The incremental driver's round counter matches its reported stats,
    /// and counter diffs across rounds are monotone in k: re-running with
    /// a larger fixed k never does *less* top-k work.
    #[test]
    fn schema_round_counters_match_stats(
        docs in gen_data(),
        (qroot, qchildren) in gen_query(),
        cost_spec in gen_costs(),
    ) {
        let costs = build_costs(&cost_spec);
        let tree = build_tree(&docs, &costs);
        let query_str = render_query(qroot, &qchildren);
        let query: Query = approxql::parse_query(&query_str).unwrap();
        let expanded = approxql::ExpandedQuery::build(&query, &costs);
        let schema = Schema::build(&tree, &costs);

        use approxql::Metric;
        let before = approxql::metrics_snapshot();
        let (_, stats) = best_n_schema(
            &expanded, &schema, tree.interner(), 4,
            EvalOptions::default(),
            SchemaEvalConfig { initial_k: Some(1), delta: Some(2), ..Default::default() });
        let diff = approxql::metrics_snapshot().diff(&before);
        prop_assert_eq!(diff.get(Metric::EvalSchemaRounds), stats.rounds as u64,
            "round counter disagrees with EvalStats for {}", query_str);
        prop_assert_eq!(diff.get(Metric::EvalSecondLevelQueries),
            stats.second_level_queries as u64,
            "second-level counter disagrees with EvalStats for {}", query_str);
        prop_assert_eq!(diff.get(Metric::EvalSecondaryRows), stats.secondary_rows as u64,
            "secondary-row counter disagrees with EvalStats for {}", query_str);
        prop_assert_eq!(diff.get(Metric::EvalSchemaRuns), stats.rounds as u64,
            "every round is exactly one adapted-primary run for {}", query_str);
    }
}

proptest! {
    // Cheap per case; the rarer shapes (a leaf match on one side of an
    // `and` only, both `or` branches at one node) need the volume.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Section 7.2 adapts Section 6.4 operator by operator: one plan over
    /// one label index, executed in the two-channel domain and in the
    /// k-best domain at a `k` no candidate vector reaches, yields at every
    /// operator the same nodes, the cheapest candidate of a node costs its
    /// `any` channel, and the cheapest leaf-matching one its `leaf`
    /// channel.
    #[test]
    fn cost_domains_agree_at_every_operator(
        docs in gen_data(),
        (qroot, qchildren) in gen_query(),
        cost_spec in gen_costs(),
    ) {
        const K: usize = 1 << 16;
        let costs = build_costs(&cost_spec);
        let tree = build_tree(&docs, &costs);
        let query_str = render_query(qroot, &qchildren);
        let query: Query = approxql::parse_query(&query_str).unwrap();
        let expanded = approxql::ExpandedQuery::build(&query, &costs);
        let compiled = plan::compile(&expanded).unwrap();
        let index = LabelIndex::build(&tree);
        let interner = tree.interner();

        let (mut minima, mut k_best) = (vec![None; compiled.ops().len()], vec![None; compiled.ops().len()]);
        plan::execute(&compiled, &Algebra::new(&index, interner, TwoChannel), |h, l| minima[h] = Some(l.clone()));
        plan::execute(&compiled, &Algebra::new(&index, interner, KBest { k: K }), |h, l| k_best[h] = Some(l.clone()));
        for (h, op) in compiled.ops().iter().enumerate() {
            let (Some(min), Some(best)) = (&minima[h], &k_best[h]) else {
                prop_assert_eq!(h, compiled.result(), "operator {} was not executed", h);
                continue;
            };
            let at = format!("operator {h} ({}) of {query_str}", op.name());
            prop_assert_eq!(min.len(), best.len(), "node count at {}", &at);
            for ((node, channels), (k_node, candidates)) in min.iter().zip(best.iter()) {
                prop_assert_eq!(node, k_node, "node at {}", &at);
                prop_assert!(candidates.len() < K, "cap reached at {}", &at);
                let cheapest = |leaf_only: bool| {
                    let matching = candidates.iter().filter(|c| c.has_leaf || !leaf_only);
                    matching.map(|c| c.cost).min().unwrap_or(Cost::INFINITY)
                };
                prop_assert_eq!(cheapest(false), channels.any, "any of node {} at {}", node.pre, &at);
                prop_assert_eq!(cheapest(true), channels.leaf, "leaf of node {} at {}", node.pre, &at);
            }
        }
    }
}
