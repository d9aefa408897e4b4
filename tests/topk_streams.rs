//! The k-best operators as candidate streams against their exhaustive
//! definition: every combination, a stable sort by cost, the first `k`.
//!
//! A stream draws its candidates on demand and has no cap of its own, so
//! it must yield exactly the order the eager operator sorts by, ties
//! included: its first `k` candidates are the eager operator's `k`-vector
//! at every operator of every plan. The driver draws second-level queries
//! from the same streams, so the first `k` it draws are
//! `best_k_second_level_plan(.., k, ..)`, which are the first `k` of the
//! exhaustive root order.

use approxql::crates::core::list::{Algebra, CostDomain, List};
use approxql::crates::core::schema_eval::{
    best_k_second_level_plan, best_n_schema_with_plan, SchemaEvalConfig,
};
use approxql::crates::core::secondary;
use approxql::crates::core::topk::{Candidate, CandidateStream, KBest, Skeleton};
use approxql::crates::core::EvalOptions;
use approxql::crates::gen::{
    DataGenConfig, DataGenerator, QueryGenConfig, QueryGenerator, PATTERN_1, PATTERN_2, PATTERN_3,
};
use approxql::crates::index::{LabelIndex, Posting};
use approxql::crates::plan::{self, PlanAlgebra};
use approxql::crates::schema::Schema;
use approxql::crates::tree::{Interner, LabelId};
use approxql::{Cost, CostModel, ExpandedQuery, Metric};
use proptest::prelude::*;
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;

/// `distance(a, d) + cost(d)` from the key `pathcost(d) + cost(d)`.
fn below(a: &Posting, key: Cost) -> Cost {
    key.checked_sub(a.pathcost)
        .and_then(|c| c.checked_sub(a.inscost))
        .unwrap_or(Cost::INFINITY)
}

/// The k-best operators as they were first written: each builds every
/// combination of its inputs' vectors, sorts it stably by cost and keeps
/// the first `k`.
#[derive(Clone, Copy)]
struct Exhaustive {
    k: usize,
}

impl Exhaustive {
    fn capped(&self, mut candidates: Vec<Candidate>) -> Vec<Candidate> {
        candidates.sort_by_key(|c| c.cost);
        candidates.truncate(self.k);
        candidates
    }
}

impl CostDomain for Exhaustive {
    type V = Vec<Candidate>;
    /// Every `(key, descendant, candidate)` of the interval.
    type Acc = Vec<(Cost, usize, usize)>;

    fn seed(&self, label: LabelId, is_leaf: bool) -> Vec<Candidate> {
        vec![Candidate {
            cost: Cost::ZERO,
            has_leaf: is_leaf,
            label,
            children: Rc::new([]),
        }]
    }

    fn shift(&self, v: &mut Vec<Candidate>, c: Cost) {
        for cand in v {
            cand.cost += c;
        }
    }

    fn either(&self, mut a: Vec<Candidate>, b: Vec<Candidate>) -> Vec<Candidate> {
        a.extend(b);
        self.capped(a)
    }

    fn both(&self, a: &Vec<Candidate>, b: &Vec<Candidate>) -> Option<Vec<Candidate>> {
        let mut pairs = Vec::new();
        for x in a {
            for y in b {
                let cost = x.cost + y.cost;
                if cost.is_finite() {
                    let mut children = x.children.to_vec();
                    children.extend(y.children.iter().cloned());
                    pairs.push(Candidate {
                        cost,
                        has_leaf: x.has_leaf || y.has_leaf,
                        label: x.label,
                        children: children.into(),
                    });
                }
            }
        }
        Some(self.capped(pairs)).filter(|p| !p.is_empty())
    }

    fn open(&self) -> Self::Acc {
        Vec::new()
    }

    fn offer(&self, acc: &mut Self::Acc, j: usize, (d, v): &(Posting, Vec<Candidate>)) {
        for (c, cand) in v.iter().enumerate() {
            let key = d.pathcost + cand.cost;
            if key.is_finite() {
                acc.push((key, j, c));
            }
        }
    }

    fn fold(&self, parent: &mut Self::Acc, closed: &Self::Acc) {
        parent.extend_from_slice(closed);
    }

    fn close(
        &self,
        (a, seed): &(Posting, Vec<Candidate>),
        mut acc: Self::Acc,
        descendants: &[(Posting, Vec<Candidate>)],
        c_del: Cost,
    ) -> Option<Vec<Candidate>> {
        let label = seed.first()?.label;
        acc.sort();
        let kept = acc.into_iter().map(|(key, j, c)| {
            let (d, v) = &descendants[j];
            Candidate {
                cost: below(a, key),
                has_leaf: v[c].has_leaf,
                label,
                children: Rc::new([v[c].skeleton(d.pre)]),
            }
        });
        let deleted = c_del.is_finite().then(|| Candidate {
            cost: c_del,
            has_leaf: false,
            label,
            children: Rc::new([]),
        });
        Some(self.capped(kept.chain(deleted).collect())).filter(|v| !v.is_empty())
    }

    fn record(&self, _op: Metric, _produced: usize) {}
}

/// Asserts that `lazy` holds the nodes of `eager` and that the first `k`
/// candidates of each stream are the node's eager vector.
fn first_k_agree(lazy: &List<CandidateStream>, eager: &List<Vec<Candidate>>, k: usize, at: &str) {
    let lazy_nodes: Vec<Posting> = lazy.iter().map(|(n, _)| *n).collect();
    let eager_nodes: Vec<Posting> = eager.iter().map(|(n, _)| *n).collect();
    assert_eq!(lazy_nodes, eager_nodes, "nodes at {at}");
    for ((node, stream), (_, vector)) in lazy.iter().zip(eager) {
        let first: Vec<Candidate> = stream.iter().take(k).collect();
        assert_eq!(&first, vector, "candidates of node {} at {at}", node.pre);
    }
}

/// Random lists over one random forest: nested intervals, descendant
/// path costs that cover every ancestor's, and sorted candidate vectors
/// whose costs tie often. Every candidate points at a skeleton of its
/// own, so a candidate kept out of order shows.
struct Lists {
    state: u64,
    skeletons: u32,
}

impl Lists {
    fn draw(&mut self, below: u64) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.state >> 33) % below
    }

    /// 40 nodes in preorder, each under a random open node.
    fn forest(&mut self) -> Vec<Posting> {
        let mut nodes: Vec<Posting> = Vec::new();
        let mut open: Vec<usize> = Vec::new();
        for pre in 0..40 {
            let depth = self.draw(open.len() as u64 + 1) as usize;
            open.truncate(depth);
            let pathcost = match open.last() {
                Some(&p) => nodes[p].pathcost + nodes[p].inscost + Cost::finite(self.draw(2)),
                None => Cost::finite(self.draw(3)),
            };
            for &p in &open {
                nodes[p].bound = pre;
            }
            open.push(nodes.len());
            nodes.push(Posting {
                pre,
                bound: pre,
                pathcost,
                inscost: Cost::finite(self.draw(3)),
            });
        }
        nodes
    }

    /// 1 to 12 sorted candidates.
    fn value(&mut self, label: u32) -> Vec<Candidate> {
        let len = 1 + self.draw(12) as usize;
        let mut v: Vec<Candidate> = (0..len)
            .map(|_| {
                self.skeletons += 1;
                let pointed = Rc::new(Skeleton {
                    pre: 1000 + self.skeletons,
                    label: LabelId(label),
                    children: Rc::new([]),
                });
                Candidate {
                    cost: Cost::finite(self.draw(4)),
                    has_leaf: self.draw(2) == 0,
                    label: LabelId(label),
                    children: if self.draw(3) == 0 {
                        Rc::new([])
                    } else {
                        Rc::new([pointed])
                    },
                }
            })
            .collect();
        v.sort_by_key(|c| c.cost);
        v
    }

    /// The nodes of `forest` a list of this density holds (none at
    /// density 0).
    fn list(&mut self, forest: &[Posting], label: u32) -> List<Vec<Candidate>> {
        let density = [0, 3, 7, 10][self.draw(4) as usize];
        let mut l = Vec::new();
        for &node in forest {
            if self.draw(10) < density {
                l.push((node, self.value(label)));
            }
        }
        l
    }
}

/// Each operator on random lists, through the algebra of both domains: a
/// stream's first `k` are the eager `k`-vector.
#[test]
fn operators_on_random_lists_yield_the_eager_order() {
    let (index, interner) = (LabelIndex::default(), Interner::default());
    let mut gen = Lists {
        state: 0x2002,
        skeletons: 0,
    };
    let renames = [Cost::ZERO, Cost::finite(1), Cost::finite(3), Cost::INFINITY];
    let dels = [Cost::ZERO, Cost::finite(2), Cost::INFINITY];
    let lazy = Algebra::new(&index, &interner, KBest);
    for k in [1, 2, 3, 5, 8, 64] {
        let eager = Algebra::new(&index, &interner, Exhaustive { k });
        for case in 0..150 {
            let forest = gen.forest();
            // The eager inputs are cut at k, as an eager operator's output
            // would be; the streams hold every candidate.
            let full = [0, 1, 2].map(|label| gen.list(&forest, label));
            let s: Vec<List<CandidateStream>> = full
                .iter()
                .map(|l| {
                    l.iter()
                        .map(|(n, v)| (*n, KBest.value(v.clone())))
                        .collect()
                })
                .collect();
            let cut: Vec<List<Vec<Candidate>>> = full
                .iter()
                .map(|l| {
                    l.iter()
                        .map(|(n, v)| (*n, v[..v.len().min(k)].to_vec()))
                        .collect()
                })
                .collect();
            let (c1, c2) = (renames[gen.draw(4) as usize], renames[gen.draw(4) as usize]);
            let del = dels[gen.draw(3) as usize];
            let at = |op: &str| format!("{op} at k = {k}, case {case}");
            let (l, r, t) = (&s[0], &s[1], &s[2]);
            let (el, er, et) = (&cut[0], &cut[1], &cut[2]);
            let m = lazy.merge(l, &[(r, c1), (t, c2)]);
            let em = eager.merge(el, &[(er, c1), (et, c2)]);
            first_k_agree(&m, &em, k, &at("merge"));
            first_k_agree(&lazy.union(l, r), &eager.union(el, er), k, &at("union"));
            for ((a, b), (ea, eb)) in [((l, r), (el, er)), ((&m, t), (&em, et))] {
                let x = lazy.intersect(a, b);
                first_k_agree(&x, &eager.intersect(ea, eb), k, &at("intersect"));
            }
            for ((a, d), (ea, ed)) in [((l, r), (el, er)), ((t, &m), (et, &em))] {
                first_k_agree(&lazy.join(a, d), &eager.join(ea, ed), k, &at("join"));
                let x = lazy.outerjoin(a, d, del);
                first_k_agree(&x, &eager.outerjoin(ea, ed, del), k, &at("outerjoin"));
            }
        }
    }
}

const PATTERNS: [&str; 3] = [PATTERN_1, PATTERN_2, PATTERN_3];

/// A small generated collection over few names and words, so that
/// renamings, deletions and cost ties are frequent, and one generated
/// query over it with its cost table.
fn generated(seed: u64, pattern: usize, renamings: usize) -> (approxql::DataTree, ExpandedQuery) {
    let cfg = DataGenConfig {
        element_count: 120,
        element_names: 8,
        vocabulary: 6,
        word_occurrences: 240,
        max_depth: 5,
        dtd_branching: 2,
        recursion_prob: 0.3,
        fanout: 1..=3,
        seed,
        ..DataGenConfig::default()
    };
    let plain = CostModel::new();
    let tree = DataGenerator::new(cfg).generate_tree(&plain);
    let index = LabelIndex::build(&tree);
    let qcfg = QueryGenConfig {
        renamings_per_label: renamings,
        rename_cost_range: (1, 3),
        delete_cost_range: (1, 3),
        seed,
        ..QueryGenConfig::default()
    };
    let gq = QueryGenerator::new(&tree, &index, qcfg).generate(PATTERNS[pattern]);
    let q = approxql::parse_query(&gq.query).unwrap();
    let ex = ExpandedQuery::build(&q, &gq.costs);
    (tree, ex)
}

/// The exhaustive `sort`: the first `k` root candidates in `(cost, pre,
/// position)` order, infinite ones and (with `require_leaf`) those
/// matching no leaf left out.
fn exhaustive_sort(
    k: usize,
    list: &List<Vec<Candidate>>,
    require_leaf: bool,
) -> Vec<(Cost, Rc<Skeleton>)> {
    let mut roots: Vec<(u32, &Candidate)> = list
        .iter()
        .flat_map(|(node, v)| v.iter().map(|c| (node.pre, c)))
        .filter(|(_, c)| c.cost.is_finite() && (!require_leaf || c.has_leaf))
        .collect();
    roots.sort_by_key(|&(pre, c)| (c.cost, pre));
    roots
        .into_iter()
        .take(k)
        .map(|(pre, c)| (c.cost, c.skeleton(pre)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every operator of a generated plan, executed once with streams and
    /// once eagerly at each `k`: the streams' first `k` candidates are the
    /// eager vectors. The queries the driver draws are the first `k` of
    /// the exhaustive root order, and it draws no more than `max_k`.
    #[test]
    fn streams_and_draws_follow_the_eager_definition(
        seed in 0u64..1_000_000,
        pattern in 0usize..3,
        renamings in 0usize..3,
        leaf_rule in any::<bool>(),
    ) {
        let (tree, ex) = generated(seed, pattern, renamings);
        let compiled = Arc::new(plan::compile(&ex).unwrap());
        let schema = Schema::build(&tree, &CostModel::new());
        let interner = tree.interner();
        let opts = EvalOptions { enforce_leaf_match: leaf_rule, ..EvalOptions::default() };

        let ops = compiled.ops().len();
        let mut streams = vec![None; ops];
        let lazy = Algebra::new(schema.labels(), interner, KBest);
        plan::execute(&compiled, &lazy, |h, l| streams[h] = Some(l.clone()));
        for k in [1, 2, 3, 8, 64] {
            let mut vectors = vec![None; ops];
            let eager = Algebra::new(schema.labels(), interner, Exhaustive { k });
            plan::execute(&compiled, &eager, |h, l| vectors[h] = Some(l.clone()));
            for (h, op) in compiled.ops().iter().enumerate() {
                if let (Some(s), Some(v)) = (&streams[h], &vectors[h]) {
                    first_k_agree(s, v, k, &format!("operator {h} ({}), k = {k}", op.name()));
                }
            }
        }

        // The exact root order: eager at a k no vector reaches.
        let all = Algebra::new(schema.labels(), interner, Exhaustive { k: 1 << 16 });
        let roots = plan::execute(&compiled, &all, |_, _| {}).unwrap_or_default();
        for k in [0, 1, 2, 3, 8, 64] {
            let run = best_k_second_level_plan(&compiled, &schema, interner, k, opts);
            let drawn: Vec<(Cost, &Skeleton)> =
                run.queries.iter().map(|q| (q.cost, q.skeleton())).collect();
            let exact = exhaustive_sort(k + 1, &roots, opts.enforce_leaf_match);
            let want: Vec<(Cost, &Skeleton)> =
                exact.iter().take(k).map(|(c, s)| (*c, &**s)).collect();
            prop_assert_eq!(drawn, want, "best {} second-level queries", k);
            prop_assert_eq!(run.complete, exact.len() <= k, "complete at k = {}", k);

            // The driver stops at k drawn queries: its hits are those of
            // the first k, in order.
            let cfg = SchemaEvalConfig { max_k: k };
            let (hits, stats) = best_n_schema_with_plan(
                &ex, Some(Arc::clone(&compiled)), &schema, interner, usize::MAX, opts, cfg);
            let (mut executed, mut seen, mut want) = (HashSet::new(), HashSet::new(), Vec::new());
            for q in &run.queries {
                if executed.insert(format!("{:?}", q.skeleton())) {
                    for inst in secondary::execute(q.skeleton(), schema.secondary()) {
                        if seen.insert(inst.pre) {
                            want.push((inst.pre, q.cost));
                        }
                    }
                }
            }
            want.sort_by_key(|&(pre, c)| (c, pre));
            prop_assert_eq!(hits, want, "driver hits at max_k = {}", k);
            prop_assert!(stats.second_level_queries <= k);
            prop_assert_eq!(stats.fetches, run.fetches, "one execution");
        }
    }
}
