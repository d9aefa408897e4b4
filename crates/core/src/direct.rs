//! Algorithm `primary` (Section 6.5, Figure 4): direct evaluation.
//!
//! The expanded query is compiled once into the physical-plan IR of
//! [`approxql_plan`] — an operator DAG whose common-subexpression pass
//! plays the role of the paper's dynamic programming (deletion `or`s and
//! renaming expansions share their bridged subtrees structurally instead
//! of through a per-run memo) — and then executed against the label index
//! through the Section 6 list algebra of [`crate::list`]. The full
//! version's two refinements are included:
//!
//! * **Leaf rule** — entries track a second cost channel for embeddings
//!   that match at least one original query leaf (see crate docs).
//! * **Subplan sharing** — structurally identical subplans compile to one
//!   DAG node and execute exactly once; pending edge costs are applied as
//!   a *post-shift* so they do not fragment the shared structure.

use crate::list::{self, Algebra, TwoChannel};
use approxql_index::LabelIndex;
use approxql_metrics::{time, Metric, TimerMetric};
use approxql_plan::{self as plan, Plan, PlanOp};
use approxql_query::expand::ExpandedQuery;
use approxql_tree::{Cost, Interner};

/// Evaluation options shared by the direct and schema-driven algorithms.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Enforce the leaf rule: results must match at least one original
    /// query leaf (the paper's full version). Default `true`.
    pub enforce_leaf_match: bool,
    /// Ignored: evaluation is single-threaded. Defaults to 1. The field
    /// stays only because `axbench` still builds `EvalOptions` with it;
    /// it goes once `axbench` stops doing so.
    pub threads: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            enforce_leaf_match: true,
            threads: 1,
        }
    }
}

/// Counters describing one direct evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectStats {
    /// Index lookups: the fetches of labels the collection knows (what
    /// `index.label_fetches` counts).
    pub fetches: usize,
    /// Entries produced by the list operations, as the
    /// `list.entries_produced` counter counts them.
    pub list_entries: usize,
    /// Number of physical operators executed (all but the terminal
    /// `SortBest`).
    pub ops: usize,
    /// Structurally shared subplans merged by the compiler's CSE pass
    /// (each one a subtree evaluation avoided at execution time).
    pub cse_reuses: usize,
}

/// The best-n-pairs problem (Definition 12) by direct evaluation over a
/// compiled plan: find all results, sort, prune after `n` (`None` = all
/// results). Also returns the evaluation counters and the per-operator
/// output entry counts (indexed by plan handle; the terminal `SortBest`
/// slot carries the result count for `n`) that `--explain` renders.
pub(crate) fn best_n_plan_counted(
    plan: &Plan,
    index: &LabelIndex,
    interner: &Interner,
    n: Option<usize>,
    opts: EvalOptions,
) -> (Vec<(u32, Cost)>, DirectStats, Vec<u64>) {
    Metric::EvalDirectRuns.incr();
    let timer = time(TimerMetric::EvalDirect);
    let alg = Algebra::new(index, interner, TwoChannel);
    let mut counts = vec![0u64; plan.ops().len()];
    // Entries as `list.entries_produced` counts them: a `shift` passes its
    // input's entries on, and `sort_best` adds the pairs it keeps.
    let mut list_entries = 0;
    let result = plan::execute(plan, &alg, |h, l| {
        counts[h] = l.len() as u64;
        if !matches!(plan.ops()[h], PlanOp::Shift { .. }) {
            list_entries += l.len();
        }
    })
    .unwrap_or_default();
    drop(timer);
    let fetches = alg.fetches();
    Metric::EvalDirectFetches.add(fetches as u64);
    let best = list::sort_best(n, &result, opts.enforce_leaf_match);
    let stats = DirectStats {
        fetches,
        list_entries: list_entries + best.len(),
        ops: plan.ops().len().saturating_sub(1),
        cse_reuses: plan.cse_reuses() as usize,
    };
    if let Some(c) = counts.get_mut(plan.result()) {
        *c = best.len() as u64;
    }
    (best, stats, counts)
}

/// Runs algorithm `primary` against the data indexes over a pre-compiled
/// plan (the `Database` plan-cache path).
pub fn best_n_plan(
    plan: &Plan,
    index: &LabelIndex,
    interner: &Interner,
    n: Option<usize>,
    opts: EvalOptions,
) -> (Vec<(u32, Cost)>, DirectStats) {
    let (best, stats, _) = best_n_plan_counted(plan, index, interner, n, opts);
    (best, stats)
}

/// Compiles the expanded query, then [`best_n_plan`]. An expanded query
/// whose root is not a selector cannot be produced by the parser and
/// evaluates to no results.
pub fn best_n(
    expanded: &ExpandedQuery,
    index: &LabelIndex,
    interner: &Interner,
    n: Option<usize>,
    opts: EvalOptions,
) -> (Vec<(u32, Cost)>, DirectStats) {
    match plan::compile(expanded) {
        Ok(p) => best_n_plan(&p, index, interner, n, opts),
        Err(_) => (Vec::new(), DirectStats::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxql_cost::tables::paper_section6_costs;
    use approxql_cost::CostModel;
    use approxql_query::parse_query;
    use approxql_tree::{DataTree, DataTreeBuilder, NodeType};

    /// The catalog of Figure 1/3: two sound-storage entries.
    ///
    /// ```text
    /// root
    /// ├── cd                      (pre 1)
    /// │   ├── title               (pre 2): "piano" "concerto"
    /// │   └── composer            (pre 5): "rachmaninov"
    /// └── cd                      (pre 7)
    ///     ├── title               (pre 8): "kinderszenen"
    ///     └── tracks              (pre 10)
    ///         └── track           (pre 11)
    ///             ├── title       (pre 12): "vivace"  [as Fig. 3]
    ///             └── ...
    /// ```
    fn catalog(costs: &CostModel) -> DataTree {
        let mut b = DataTreeBuilder::new();
        b.begin_struct("cd"); // 1
        b.begin_struct("title"); // 2
        b.add_text("piano concerto"); // 3 4
        b.end();
        b.begin_struct("composer"); // 5
        b.add_text("rachmaninov"); // 6
        b.end();
        b.end();
        b.begin_struct("cd"); // 7
        b.begin_struct("title"); // 8
        b.add_text("kinderszenen"); // 9
        b.end();
        b.begin_struct("tracks"); // 10
        b.begin_struct("track"); // 11
        b.begin_struct("title"); // 12
        b.add_text("vivace piano"); // 13 14
        b.end();
        b.end();
        b.end();
        b.end();
        b.build(costs)
    }

    fn run(query: &str, costs: &CostModel, tree: &DataTree, n: Option<usize>) -> Vec<(u32, Cost)> {
        let q = parse_query(query).unwrap();
        let ex = ExpandedQuery::build(&q, costs);
        let index = LabelIndex::build(tree);
        best_n(&ex, &index, tree.interner(), n, EvalOptions::default()).0
    }

    #[test]
    fn exact_match_costs_zero() {
        let costs = paper_section6_costs();
        let tree = catalog(&costs);
        let hits = run(
            r#"cd[title["piano" and "concerto"] and composer["rachmaninov"]]"#,
            &costs,
            &tree,
            None,
        );
        assert_eq!(hits[0], (1, Cost::ZERO));
    }

    #[test]
    fn second_cd_matches_approximately() {
        // For cd[title["piano"]], cd#7 matches via the track title with
        // insertions of tracks (1) and track (1): cost 2.
        let costs = paper_section6_costs();
        let tree = catalog(&costs);
        let hits = run(r#"cd[title["piano"]]"#, &costs, &tree, None);
        assert_eq!(hits, vec![(1, Cost::ZERO), (7, Cost::finite(2))]);
    }

    #[test]
    fn leaf_deletion_uses_outerjoin() {
        // cd#7's title has no "concerto": the leaf is deleted (cost 6).
        // The embedding goes through the direct title (pre 8).
        let costs = paper_section6_costs();
        let tree = catalog(&costs);
        let hits = run(r#"cd[title["piano" and "concerto"]]"#, &costs, &tree, None);
        assert_eq!(hits[0], (1, Cost::ZERO));
        // cd#7: "piano" matches in track title (distance 2), "concerto"
        // deleted (6): total 8.
        assert_eq!(hits[1], (7, Cost::finite(8)));
    }

    #[test]
    fn all_leaves_deleted_is_rejected() {
        // Query where the only leaf has a finite delete cost: results must
        // still match the leaf (leaf rule).
        let costs = CostModel::builder()
            .delete(NodeType::Text, "nonexistent", Cost::finite(1))
            .build();
        let tree = catalog(&costs);
        let hits = run(r#"cd[title["nonexistent"]]"#, &costs, &tree, None);
        assert!(hits.is_empty());
        // Without the leaf rule both CDs come back via deletion.
        let q = parse_query(r#"cd[title["nonexistent"]]"#).unwrap();
        let ex = ExpandedQuery::build(&q, &costs);
        let index = LabelIndex::build(&tree);
        let opts = EvalOptions {
            enforce_leaf_match: false,
            ..Default::default()
        };
        let (hits, _) = best_n(&ex, &index, tree.interner(), None, opts);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].1, Cost::finite(1));
    }

    #[test]
    fn root_renaming_shifts_search_space() {
        let costs = CostModel::builder()
            .rename(NodeType::Struct, "dvd", "cd", Cost::finite(4))
            .build();
        let tree = catalog(&costs);
        // dvd[title["piano"]]: no dvd exists, but renaming dvd -> cd (4).
        let hits = run(r#"dvd[title["piano"]]"#, &costs, &tree, None);
        assert_eq!(hits[0], (1, Cost::finite(4)));
    }

    #[test]
    fn inner_node_deletion_bridges() {
        // cd[track[title["vivace"]]]: exact on cd#7. Deleting `track`
        // (cost 3) would search title["vivace"] directly under cd — the
        // only vivace-title sits under tracks/track, so the exact match
        // (cost 0) wins; make deletion observable with a query whose track
        // context does not exist.
        let costs = paper_section6_costs();
        let tree = catalog(&costs);
        let hits = run(
            r#"cd[track[title["piano" and "concerto"]]]"#,
            &costs,
            &tree,
            None,
        );
        // cd#1: track deleted (3), then title["piano" and "concerto"]
        // matches exactly below cd#1: total 3.
        assert_eq!(hits[0], (1, Cost::finite(3)));
    }

    #[test]
    fn or_queries_take_the_cheaper_branch() {
        let costs = paper_section6_costs();
        let tree = catalog(&costs);
        let hits = run(
            r#"cd[title["concerto" or "kinderszenen"]]"#,
            &costs,
            &tree,
            None,
        );
        assert_eq!(hits, vec![(1, Cost::ZERO), (7, Cost::ZERO)]);
    }

    #[test]
    fn text_renaming_applies() {
        // "sonata" matches nothing; renamed to "concerto" -> wait, the
        // model renames concerto -> sonata, so query "concerto" can become
        // "sonata" — query for a sonata CD instead:
        let costs = CostModel::builder()
            .rename(NodeType::Text, "sonata", "concerto", Cost::finite(3))
            .build();
        let tree = catalog(&costs);
        let hits = run(r#"cd[title["sonata"]]"#, &costs, &tree, None);
        assert_eq!(hits[0], (1, Cost::finite(3)));
    }

    #[test]
    fn bare_root_query_returns_all_instances() {
        let costs = paper_section6_costs();
        let tree = catalog(&costs);
        let hits = run("cd", &costs, &tree, None);
        assert_eq!(hits, vec![(1, Cost::ZERO), (7, Cost::ZERO)]);
    }

    #[test]
    fn struct_leaf_query() {
        let costs = paper_section6_costs();
        let tree = catalog(&costs);
        // cd[tracks]: only cd#7 has a tracks element.
        let hits = run("cd[tracks]", &costs, &tree, None);
        assert_eq!(hits, vec![(7, Cost::ZERO)]);
    }

    #[test]
    fn best_n_truncates_sorted_results() {
        let costs = paper_section6_costs();
        let tree = catalog(&costs);
        let all = run(r#"cd[title["piano"]]"#, &costs, &tree, None);
        let top1 = run(r#"cd[title["piano"]]"#, &costs, &tree, Some(1));
        assert_eq!(top1.as_slice(), &all[..1]);
    }

    #[test]
    fn unknown_labels_yield_no_results() {
        let costs = CostModel::new();
        let tree = catalog(&costs);
        assert!(run(r#"zzz["nope"]"#, &costs, &tree, None).is_empty());
    }

    #[test]
    fn cse_shares_deletion_bridges() {
        let costs = paper_section6_costs();
        let tree = catalog(&costs);
        let q = parse_query(r#"cd[track[title["piano"]]]"#).unwrap();
        let ex = ExpandedQuery::build(&q, &costs);
        let index = LabelIndex::build(&tree);
        let (_, stats) = best_n(&ex, &index, tree.interner(), None, EvalOptions::default());
        // The bridged subtree below the deletable `track` and `title`
        // nodes is shared; at least one subplan must be merged by CSE.
        assert!(stats.cse_reuses > 0, "expected CSE reuses, got {stats:?}");
        // A pre-compiled plan evaluates identically to the compile-on-use
        // path.
        let p = approxql_plan::compile(&ex).unwrap();
        let baseline = best_n(&ex, &index, tree.interner(), None, EvalOptions::default()).0;
        let (hits, _) = best_n_plan(&p, &index, tree.interner(), None, EvalOptions::default());
        assert_eq!(hits, baseline);
    }

    #[test]
    fn explain_renders_counts_and_sharing() {
        let costs = paper_section6_costs();
        let tree = catalog(&costs);
        let q = parse_query(r#"cd[track[title["piano"]]]"#).unwrap();
        let ex = ExpandedQuery::build(&q, &costs);
        let index = LabelIndex::build(&tree);
        let p = approxql_plan::compile(&ex).unwrap();
        let (_, _, counts) = best_n_plan_counted(
            &p,
            &index,
            tree.interner(),
            Some(10),
            EvalOptions::default(),
        );
        let text = plan::render(&p, Some(&counts));
        assert!(text.contains("sort_best"), "missing root op:\n{text}");
        assert!(text.contains("entries"), "missing counts:\n{text}");
        assert!(text.contains("shared ×"), "missing CSE annotation:\n{text}");
    }

    #[test]
    fn figure2_query_full_evaluation() {
        // The Figure 2 query against the catalog: cd#1 embeds by deleting
        // track (3): title/piano/concerto + composer/rachmaninov all match
        // directly. cd#7 matches the track context but pays for missing
        // words/composer.
        let costs = paper_section6_costs();
        let tree = catalog(&costs);
        let hits = run(
            r#"cd[track[title["piano" and "concerto"]] and composer["rachmaninov"]]"#,
            &costs,
            &tree,
            None,
        );
        assert_eq!(hits[0], (1, Cost::finite(3)));
        // cd#7 cannot embed the composer branch at all: it has no composer
        // (and the leaf "rachmaninov" is not deletable), so deleting the
        // inner `composer` node still leaves nowhere for the word to match.
        assert_eq!(hits.len(), 1);
    }
}
