//! The paper's Section 7 correctness claim, asserted directly: for any
//! collection and query, the schema-driven best-n evaluation returns a
//! *cost-ordered prefix* of the reference result list — the complete
//! cost-ranked answer set produced by the direct evaluator with no
//! truncation (the reference the `expected` lists of `datasets/*.json`
//! hold, `tests/eval_golden.rs`).
//!
//! "Prefix" is precise about ties: result costs are totally ordered, but
//! several elements can share one cost, and the best-n driver may pick
//! any of them at the truncation boundary. So we assert
//!
//! 1. the returned *cost sequence* equals the first n reference costs,
//! 2. every returned element appears in the reference list at the same
//!    cost, with no duplicates, and
//! 3. when no cost tie spans the boundary, the result is exactly the
//!    reference prefix, element for element.
//!
//! The direct evaluator's own top-n must always be the exact prefix (its
//! tie-break is the total (cost, pre) order of `sort_best`).

use approxql::crates::core::schema_eval::SchemaEvalConfig;
use approxql::crates::core::EvalOptions;
use approxql::crates::gen::{DataGenConfig, DataGenerator};
use approxql::{Cost, CostModel, Database, NodeId};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::OnceLock;

fn db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        let mut cfg = DataGenConfig::paper_scale_divided(1000); // 1,000 elements
        cfg.seed = 2002;
        let costs = CostModel::new();
        let tree = DataGenerator::new(cfg).generate_tree(&costs);
        Database::from_tree(tree, costs)
    })
}

/// Random tree-pattern queries over the generated label/word alphabet
/// (same shape as tests/parallel_determinism.rs).
fn gen_query() -> impl Strategy<Value = String> {
    let label = || (1usize..7).prop_map(|i| format!("name{i:03}"));
    let word = || (1usize..4).prop_map(|i| format!("\"term{i}\""));
    let child = prop_oneof![
        label(),
        word(),
        (label(), word()).prop_map(|(l, w)| format!("{l}[{w}]")),
        (label(), label()).prop_map(|(l, r)| format!("({l} or {r})")),
    ];
    (label(), proptest::collection::vec(child, 1..3))
        .prop_map(|(root, cs)| format!("{root}[{}]", cs.join(" and ")))
}

fn reference_list(query: &str) -> Vec<(NodeId, Cost)> {
    let (hits, _) = db()
        .query_direct_with(query, None, EvalOptions::default())
        .unwrap();
    hits.iter().map(|h| (h.root, h.cost)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schema_top_n_is_a_cost_ordered_prefix_of_the_reference(
        query in gen_query(),
        n in 1usize..16,
    ) {
        let reference = reference_list(&query);
        let by_root: HashMap<NodeId, Cost> = reference.iter().copied().collect();
        prop_assert_eq!(by_root.len(), reference.len(), "reference has duplicate roots");

        let (hits, _) = db()
            .query_schema_with(&query, n, EvalOptions::default(), SchemaEvalConfig::default())
            .unwrap();
        let got: Vec<(NodeId, Cost)> = hits.iter().map(|h| (h.root, h.cost)).collect();

        // Size: exactly n results, unless the whole answer set is smaller.
        prop_assert_eq!(got.len(), reference.len().min(n), "query {}", &query);

        // (1) The cost sequence is the first n reference costs.
        let got_costs: Vec<Cost> = got.iter().map(|&(_, c)| c).collect();
        let want_costs: Vec<Cost> = reference.iter().take(n).map(|&(_, c)| c).collect();
        prop_assert_eq!(&got_costs, &want_costs, "cost prefix broken for {}", &query);

        // (2) Every element is a reference element at its reference cost,
        //     with no duplicates among the returned roots.
        let mut seen = std::collections::HashSet::new();
        for &(root, cost) in &got {
            prop_assert!(seen.insert(root), "duplicate root {} for {}", root, &query);
            prop_assert_eq!(
                by_root.get(&root).copied(),
                Some(cost),
                "root {} not in reference at cost {} for {}", root, cost, &query
            );
        }

        // (3) With no cost tie across the truncation boundary the result
        //     is the exact reference prefix.
        let tie_at_boundary = got.len() < reference.len()
            && reference[got.len() - 1].1 == reference[got.len()].1;
        if !tie_at_boundary {
            prop_assert_eq!(&got, &reference[..got.len()].to_vec(), "query {}", &query);
        }
    }

    #[test]
    fn direct_top_n_is_the_exact_reference_prefix(
        query in gen_query(),
        n in 1usize..16,
    ) {
        let reference = reference_list(&query);
        let (hits, _) = db()
            .query_direct_with(&query, Some(n), EvalOptions::default())
            .unwrap();
        let got: Vec<(NodeId, Cost)> = hits.iter().map(|h| (h.root, h.cost)).collect();
        let want = &reference[..reference.len().min(n)];
        prop_assert_eq!(&got, &want.to_vec(), "query {}", &query);
    }
}
