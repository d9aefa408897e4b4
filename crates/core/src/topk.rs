//! The schema-list value of Section 7.2.
//!
//! Run against the *schema*, the evaluation must keep not just the best
//! embedding per (query subtree, schema subtree) but the best **k** — each
//! one a distinct *second-level query*. The list algebra is the one of
//! [`crate::list`]; this module plugs in its value: per schema node, the
//! at most `k` cheapest [`Candidate`]s, sorted by cost.
//!
//! A candidate carries the matched, possibly renamed `label` and
//! `children` pointers to the skeleton nodes of the embedding image (the
//! paper's `pointers` set); a root candidate plus the nodes reachable
//! through the pointers *is* the second-level query.
//!
//! Unlike the direct evaluation's grouped minima, each candidate is one
//! concrete embedding, so the leaf rule reduces to a boolean flag.

use crate::list::{below, CostDomain};
use approxql_index::Posting;
use approxql_metrics::Metric;
use approxql_tree::{Cost, LabelId};
use std::sync::Arc;

/// A node of a second-level query: a schema node, the (possibly renamed)
/// label it must carry, and the required descendant skeletons.
#[derive(Debug, PartialEq, Eq)]
pub struct Skeleton {
    /// Preorder number of the schema node.
    pub pre: u32,
    /// Label the instances must carry (for struct nodes: the node name;
    /// for text classes: the matched word).
    pub label: LabelId,
    /// Required descendants.
    pub children: Vec<Arc<Skeleton>>,
}

impl Skeleton {
    /// Number of nodes in this skeleton.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(|c| c.size()).sum::<usize>()
    }
}

/// One embedding of the current query subtree at a schema node (Section
/// 7.2's extended entry structure, without the node numbers the list
/// keeps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Embedding cost of this (single) embedding.
    pub cost: Cost,
    /// Whether the embedding matches at least one original query leaf.
    pub has_leaf: bool,
    /// The matched label (the paper's `label` component).
    pub label: LabelId,
    /// Skeletons of the matched descendants (the paper's `pointers`).
    pub children: Vec<Arc<Skeleton>>,
}

impl Candidate {
    /// Materializes the skeleton of this embedding rooted at node `pre`.
    pub fn skeleton(&self, pre: u32) -> Arc<Skeleton> {
        Arc::new(Skeleton {
            pre,
            label: self.label,
            children: self.children.clone(),
        })
    }
}

/// The k-best domain of the adapted `primary`: a value is the candidates
/// of one schema node, cost-sorted (ties in creation order), at most `k`.
/// `k` is a run-time field, so one compiled plan serves every round of
/// the incremental driver.
#[derive(Clone, Copy, Debug)]
pub struct KBest {
    /// The cap on every candidate vector.
    pub k: usize,
}

impl KBest {
    fn capped(&self, mut candidates: Vec<Candidate>) -> Vec<Candidate> {
        candidates.sort_by_key(|c| c.cost); // stable: creation order breaks ties
        candidates.truncate(self.k);
        candidates
    }

    /// Small k: linear maintenance is fine.
    fn keep(&self, acc: &mut Vec<(Cost, usize, usize)>, item: (Cost, usize, usize)) {
        let pos = acc.partition_point(|x| *x <= item);
        if item.0.is_finite() && pos < self.k {
            acc.insert(pos, item);
            acc.truncate(self.k);
        }
    }
}

impl CostDomain for KBest {
    type V = Vec<Candidate>;
    /// The `k` smallest `(key, descendant, candidate)` triples, sorted;
    /// the two indices make the order total and deterministic.
    type Acc = Vec<(Cost, usize, usize)>;

    fn seed(&self, label: LabelId, is_leaf: bool) -> Vec<Candidate> {
        vec![Candidate {
            cost: Cost::ZERO,
            has_leaf: is_leaf,
            label,
            children: Vec::new(),
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

    /// The `k` cheapest pairs; pointer sets are united.
    fn both(&self, a: &Vec<Candidate>, b: &Vec<Candidate>) -> Option<Vec<Candidate>> {
        let mut pairs = Vec::with_capacity(a.len() * b.len());
        for x in a {
            for y in b {
                let cost = x.cost + y.cost;
                if cost.is_finite() {
                    let mut children = x.children.clone();
                    children.extend(y.children.iter().cloned());
                    pairs.push(Candidate {
                        cost,
                        has_leaf: x.has_leaf || y.has_leaf,
                        label: x.label,
                        children,
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
            self.keep(acc, (d.pathcost + cand.cost, j, c));
        }
    }

    fn fold(&self, parent: &mut Self::Acc, closed: &Self::Acc) {
        for &item in closed {
            self.keep(parent, item);
        }
    }

    /// One candidate per kept descendant, pointer set initialized with
    /// that descendant, plus the deletion alternative (empty pointer set)
    /// competing for the `k` slots.
    fn close(
        &self,
        (a, seed): &(Posting, Vec<Candidate>),
        acc: Self::Acc,
        descendants: &[(Posting, Vec<Candidate>)],
        c_del: Cost,
    ) -> Option<Vec<Candidate>> {
        let label = seed.first()?.label;
        let kept = acc.into_iter().map(|(key, j, c)| {
            let (d, v) = &descendants[j];
            Candidate {
                cost: below(a, key),
                has_leaf: v[c].has_leaf,
                label,
                children: vec![v[c].skeleton(d.pre)],
            }
        });
        let deleted = c_del.is_finite().then(|| Candidate {
            cost: c_del,
            has_leaf: false,
            label,
            children: Vec::new(),
        });
        Some(self.capped(kept.chain(deleted).collect())).filter(|v| !v.is_empty())
    }

    fn weight(v: &Vec<Candidate>) -> usize {
        v.len()
    }

    fn record(&self, _op: Metric, produced: usize) {
        Metric::TopkOps.incr();
        Metric::TopkEntriesProduced.add(produced as u64);
    }
}

/// A second-level query: the skeleton to execute against the
/// path-dependent index and the (exact, Section 7.1) cost of every
/// result it retrieves.
#[derive(Debug, Clone)]
pub struct SecondLevelQuery {
    /// Embedding cost shared by all results of this query.
    pub cost: Cost,
    root: Arc<Skeleton>,
}

impl SecondLevelQuery {
    /// The skeleton rooted at the query's schema node.
    pub fn skeleton(&self) -> &Skeleton {
        &self.root
    }
}

/// Final `sort` for the schema run: flattens the root list into the best
/// `k` second-level queries, ordered by `(cost, pre, position)`.
pub fn sort_k_best(
    k: usize,
    list: &[(Posting, Vec<Candidate>)],
    require_leaf: bool,
) -> Vec<SecondLevelQuery> {
    let mut roots: Vec<(u32, &Candidate)> = list
        .iter()
        .flat_map(|(node, v)| v.iter().map(|c| (node.pre, c)))
        .filter(|(_, c)| c.cost.is_finite() && (!require_leaf || c.has_leaf))
        .collect();
    roots.sort_by_key(|&(pre, c)| (c.cost, pre)); // stable: position breaks ties
    roots.truncate(k);
    Metric::TopkOps.incr();
    Metric::TopkEntriesProduced.add(roots.len() as u64);
    roots
        .into_iter()
        .map(|(pre, c)| SecondLevelQuery {
            cost: c.cost,
            root: c.skeleton(pre),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::Algebra;
    use approxql_index::LabelIndex;
    use approxql_plan::PlanAlgebra;
    use approxql_tree::Interner;

    fn cand(cost: u64, label: u32) -> Candidate {
        Candidate {
            cost: Cost::finite(cost),
            has_leaf: true,
            label: LabelId(label),
            children: Vec::new(),
        }
    }

    /// A node with insert cost 1 and the given candidates.
    fn node(
        pre: u32,
        bound: u32,
        pathcost: u64,
        cands: Vec<Candidate>,
    ) -> (Posting, Vec<Candidate>) {
        let n = Posting {
            pre,
            bound,
            pathcost: Cost::finite(pathcost),
            inscost: Cost::finite(1),
        };
        (n, cands)
    }

    /// The k-best algebra over an empty index.
    fn alg(k: usize) -> Algebra<'static, KBest> {
        static EMPTY: std::sync::OnceLock<(LabelIndex, Interner)> = std::sync::OnceLock::new();
        let (index, interner) = EMPTY.get_or_init(Default::default);
        Algebra {
            index,
            interner,
            domain: KBest { k },
        }
    }

    fn costs(v: &[Candidate]) -> Vec<Cost> {
        v.iter().map(|c| c.cost).collect()
    }

    #[test]
    fn join_keeps_k_candidates_per_ancestor() {
        let anc = vec![node(1, 9, 0, vec![cand(0, 7)])];
        let desc = vec![
            node(3, 3, 2, vec![cand(5, 1)]),
            node(4, 4, 2, vec![cand(1, 2)]),
            node(5, 5, 2, vec![cand(3, 3)]),
        ];
        let j = alg(2).join(&anc, &desc);
        assert_eq!(j.len(), 1);
        let v = &j[0].1;
        // distance = 2 - 0 - 1 = 1; best costs 1+1=2 and 3+1=4.
        assert_eq!(costs(v), vec![Cost::finite(2), Cost::finite(4)]);
        // pointers reference the matched descendants.
        assert_eq!(v[0].children[0].pre, 4);
        assert_eq!(v[1].children[0].pre, 5);
        // the ancestor's own label is preserved.
        assert_eq!(v[0].label, LabelId(7));
        // k = 1 is the minimum.
        let j = alg(1).join(&anc, &desc);
        assert_eq!(costs(&j[0].1), vec![Cost::finite(2)]);
    }

    #[test]
    fn outerjoin_inserts_deletion_candidate_in_order() {
        let anc = vec![node(1, 9, 0, vec![cand(0, 0)])];
        let desc = vec![node(3, 3, 2, vec![cand(5, 1)])]; // match cost 6
        let oj = alg(2).outerjoin(&anc, &desc, Cost::finite(4));
        let v = &oj[0].1;
        assert_eq!(costs(v), vec![Cost::finite(4), Cost::finite(6)]);
        assert!(!v[0].has_leaf); // deletion first
        assert!(v[0].children.is_empty());
        assert!(v[1].has_leaf);
    }

    #[test]
    fn outerjoin_keeps_ancestor_without_descendants() {
        let anc = vec![node(1, 9, 0, vec![cand(0, 0)])];
        let oj = alg(3).outerjoin(&anc, &vec![], Cost::finite(4));
        assert_eq!(costs(&oj[0].1), vec![Cost::finite(4)]);
        let oj = alg(3).outerjoin(&anc, &vec![], Cost::INFINITY);
        assert!(oj.is_empty());
    }

    #[test]
    fn intersect_takes_best_pairs_and_unions_pointers() {
        let leaf = |pre, label| {
            Arc::new(Skeleton {
                pre,
                label: LabelId(label),
                children: vec![],
            })
        };
        let mut a1 = cand(1, 0);
        a1.children = vec![leaf(3, 1)];
        let mut b1 = cand(2, 0);
        b1.children = vec![leaf(4, 2)];
        let x = alg(4).intersect(
            &vec![node(2, 5, 0, vec![a1])],
            &vec![node(2, 5, 0, vec![b1])],
        );
        assert_eq!(costs(&x[0].1), vec![Cost::finite(3)]);
        assert_eq!(x[0].1[0].children.len(), 2);
    }

    #[test]
    fn intersect_caps_pairs_at_k() {
        let l = vec![node(2, 5, 0, vec![cand(0, 0), cand(1, 0)])];
        let r = vec![node(2, 5, 0, vec![cand(0, 0), cand(10, 0)])];
        let x = alg(3).intersect(&l, &r);
        assert_eq!(
            costs(&x[0].1),
            vec![Cost::ZERO, Cost::finite(1), Cost::finite(10)]
        );
    }

    #[test]
    fn union_merges_candidates_of_one_node() {
        let l = vec![node(2, 5, 0, vec![cand(3, 0)])];
        let r = vec![
            node(2, 5, 0, vec![cand(1, 0)]),
            node(7, 7, 0, vec![cand(0, 0)]),
        ];
        let u = alg(1).union(&l, &r);
        // node 2 keeps only the cheaper candidate; node 7 is copied.
        assert_eq!(u.len(), 2);
        assert_eq!(costs(&u[0].1), vec![Cost::finite(1)]);
        assert_eq!(u[1].0.pre, 7);
    }

    #[test]
    fn merge_charges_renames_and_recaps() {
        let l = vec![node(2, 5, 0, vec![cand(0, 10)])];
        let r = vec![
            node(2, 5, 0, vec![cand(0, 11)]),
            node(3, 3, 0, vec![cand(0, 11)]),
        ];
        let m = alg(1).merge(&l, &[(&r, Cost::finite(2))]);
        // shared node 2: original (0) beats renamed (2); k=1 keeps 1.
        assert_eq!(m.len(), 2);
        assert_eq!(costs(&m[0].1), vec![Cost::ZERO]);
        assert_eq!(m[0].1[0].label, LabelId(10));
        assert_eq!(m[1].0.pre, 3);
        assert_eq!(costs(&m[1].1), vec![Cost::finite(2)]);
        assert_eq!(m[1].1[0].label, LabelId(11));
    }

    #[test]
    fn sort_k_best_filters_and_orders() {
        let mut no_leaf = cand(0, 0);
        no_leaf.has_leaf = false;
        let l = vec![
            node(1, 1, 0, vec![cand(1, 0)]),
            node(5, 5, 0, vec![no_leaf]),
            node(9, 9, 0, vec![cand(1, 0), cand(2, 0)]),
        ];
        let pres = |best: Vec<SecondLevelQuery>| -> Vec<u32> {
            best.iter().map(|q| q.skeleton().pre).collect()
        };
        assert_eq!(pres(sort_k_best(10, &l, true)), vec![1, 9, 9]);
        assert_eq!(pres(sort_k_best(10, &l, false)), vec![5, 1, 9, 9]);
        assert_eq!(pres(sort_k_best(2, &l, false)), vec![5, 1]);
    }

    #[test]
    fn nested_ancestors_fold_candidates() {
        // outer(1..9) contains inner(2..5); descendant at 4 counts for
        // both, descendant at 7 only for the outer.
        let anc = vec![
            node(1, 9, 0, vec![cand(0, 0)]),
            node(2, 5, 1, vec![cand(0, 0)]),
        ];
        let desc = vec![
            node(4, 4, 2, vec![cand(0, 1)]),
            node(7, 7, 1, vec![cand(0, 2)]),
        ];
        let j = alg(2).join(&anc, &desc);
        assert_eq!(j[0].1.len(), 2);
        assert_eq!(j[1].1.len(), 1);
        assert_eq!(j[1].1[0].children[0].pre, 4);
    }

    #[test]
    fn skeleton_size_counts_nodes() {
        let leaf = |pre| {
            Arc::new(Skeleton {
                pre,
                label: LabelId(pre),
                children: vec![],
            })
        };
        let s = Skeleton {
            pre: 0,
            label: LabelId(0),
            children: vec![leaf(1), leaf(2)],
        };
        assert_eq!(s.size(), 3);
    }
}
