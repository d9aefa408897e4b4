//! The committed datasets under `datasets/` as test fixtures.
//!
//! A dataset is a JSON document of queries, each with the settings it
//! runs under and the hits-and-costs list it must produce:
//!
//! ```json
//! {
//!   "version": 1,
//!   "name": "figure2",
//!   "defaults": {"k": 10, "evaluator": "both", "costs": "default insert 1\n"},
//!   "queries": [
//!     {"id": "q1", "query": "cd[title[\"piano\"]]", "k": "unlimited",
//!      "evaluator": "schema", "costs": "delete term piano 4\n",
//!      "expected": [{"id": 2, "cost": 0}, {"id": 8, "cost": 2}]}
//!   ]
//! }
//! ```
//!
//! `k` is the best-n depth (a positive integer or `"unlimited"`),
//! `evaluator` is `"direct"`, `"schema"` or `"both"`, and `costs` is a
//! cost file inlined as one string. Each falls back to `defaults`, then
//! to 10, both, and the empty cost model. A `surface` key may name the
//! query surface; auto-detection reads every committed query the same
//! way, so it is not resolved here. `expected` is the untruncated direct
//! result on the dataset's corpus, in rank order.

// Each test binary compiles this module and uses a part of it.
#![allow(dead_code)]

use approxql::crates::core::schema_eval::SchemaEvalConfig;
use approxql::crates::query::json::{self, Json};
use approxql::{parse_cost_file, Cost, CostModel, Database, EvalOptions};
use std::collections::BTreeSet;

pub const CATALOG: &str = include_str!("../../datasets/catalog.xml");
pub const FIGURE7_CORPUS: &str = include_str!("../../datasets/figure7_corpus.xml");

/// Every committed dataset with the corpus its `expected` lists hold for.
pub const DATASETS: [(&str, &str); 5] = [
    ("figure2", CATALOG),
    ("figure2_json", CATALOG),
    ("figure7_ren0", FIGURE7_CORPUS),
    ("figure7_ren5", FIGURE7_CORPUS),
    ("figure7_ren10", FIGURE7_CORPUS),
];

/// A hit as the fixtures spell it: the result node's preorder number and
/// its cost.
pub type Hit = (u32, Cost);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Evaluator {
    Direct,
    Schema,
}

impl Evaluator {
    pub fn name(self) -> &'static str {
        match self {
            Evaluator::Direct => "direct",
            Evaluator::Schema => "schema",
        }
    }
}

/// One dataset query with its settings resolved.
#[derive(Clone, Debug, PartialEq)]
pub struct Fixture {
    pub id: String,
    pub query: String,
    /// The best-n depth; `None` is unlimited.
    pub k: Option<usize>,
    pub evaluators: Vec<Evaluator>,
    /// Inline cost-file text; `None` is the empty cost model.
    pub costs: Option<String>,
    /// The untruncated direct result, in rank order.
    pub expected: Vec<Hit>,
}

/// The fixtures of `datasets/<name>.json`.
pub fn load(name: &str) -> Vec<Fixture> {
    let path = format!("{}/datasets/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let root = json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let defaults = root.get("defaults");
    let queries = root.get("queries").and_then(Json::as_arr).expect("queries");
    queries
        .iter()
        .map(|q| {
            let setting = |key| q.get(key).or_else(|| defaults?.get(key));
            let k = match setting("k") {
                None => Some(10),
                Some(Json::Str(s)) if s == "unlimited" => None,
                Some(v) => Some(v.as_uint().expect("k") as usize),
            };
            let evaluators = match setting("evaluator").map(|v| v.as_str().expect("evaluator")) {
                None | Some("both") => vec![Evaluator::Direct, Evaluator::Schema],
                Some("direct") => vec![Evaluator::Direct],
                Some("schema") => vec![Evaluator::Schema],
                Some(other) => panic!("unknown evaluator {other:?}"),
            };
            let field = |v: &Json, key| v.get(key).and_then(Json::as_uint).expect(key);
            Fixture {
                id: q.get("id").and_then(Json::as_str).expect("id").to_owned(),
                query: q
                    .get("query")
                    .and_then(Json::as_str)
                    .expect("query")
                    .to_owned(),
                k,
                evaluators,
                costs: setting("costs").map(|c| c.as_str().expect("costs").to_owned()),
                expected: q
                    .get("expected")
                    .and_then(Json::as_arr)
                    .expect("expected")
                    .iter()
                    .map(|e| (field(e, "id") as u32, Cost::finite(field(e, "cost"))))
                    .collect(),
            }
        })
        .collect()
}

impl Fixture {
    /// A database over `corpus` built under this fixture's cost table.
    /// Insert costs are part of the tree's encoding, so every table gets
    /// its own build rather than another table's tree.
    pub fn database(&self, corpus: &str) -> Database {
        let costs = match &self.costs {
            Some(text) => parse_cost_file(text).unwrap(),
            None => CostModel::new(),
        };
        Database::from_xml_str(corpus, costs).unwrap()
    }

    /// The hits of `evaluator` at this fixture's depth.
    pub fn run(&self, db: &Database, evaluator: Evaluator, threads: usize) -> Vec<Hit> {
        let opts = EvalOptions {
            threads,
            ..EvalOptions::default()
        };
        let query = self.query.as_str();
        let hits = match evaluator {
            Evaluator::Direct => db.query_direct_with(query, self.k, opts).unwrap().0,
            // A schema bound of one result per node is unlimited.
            Evaluator::Schema => {
                let n = self.k.unwrap_or(db.tree().len());
                let cfg = SchemaEvalConfig::default();
                db.query_schema_with(query, n, opts, cfg).unwrap().0
            }
        };
        hits.iter().map(|h| (h.root.0, h.cost)).collect()
    }

    /// Holds `got`, the hits of `evaluator`, to `expected`. Direct
    /// evaluation returns exactly the first k entries. Schema evaluation
    /// returns the same cost at every rank and, at every cost, the same
    /// nodes; only at the cost level that k cuts may it pick any of the
    /// tied nodes (Section 7's prefix property).
    pub fn check(&self, evaluator: Evaluator, got: &[Hit]) {
        let n = self
            .k
            .map_or(self.expected.len(), |k| k.min(self.expected.len()));
        let want = &self.expected[..n];
        let what = format!("{} on {}", self.id, evaluator.name());
        if evaluator == Evaluator::Direct {
            assert_eq!(got, want, "{what}");
            return;
        }
        let costs = |hits: &[Hit]| hits.iter().map(|&(_, c)| c).collect::<Vec<_>>();
        assert_eq!(costs(got), costs(want), "{what}: costs per rank");
        let cut = (n < self.expected.len()).then(|| self.expected[n].1);
        let mut levels = costs(want);
        levels.dedup();
        for level in levels {
            let at = |hits: &[Hit]| -> Vec<u32> {
                hits.iter().filter(|h| h.1 == level).map(|h| h.0).collect()
            };
            let got_ids: BTreeSet<u32> = at(got).into_iter().collect();
            let all: BTreeSet<u32> = at(&self.expected).into_iter().collect();
            assert_eq!(
                got_ids.len(),
                at(got).len(),
                "{what}: a node twice at cost {level}"
            );
            if Some(level) == cut {
                assert!(
                    got_ids.is_subset(&all),
                    "{what}: cost {level}: {got_ids:?} ⊄ {all:?}"
                );
            } else {
                assert_eq!(got_ids, all, "{what}: the nodes at cost {level}");
            }
        }
    }
}
