//! The schema-list value of Section 7.2.
//!
//! Run against the *schema*, the evaluation must keep not just the best
//! embedding per (query subtree, schema subtree) but the best **k** — each
//! one a distinct *second-level query*. The list algebra is the one of
//! [`crate::list`]; this module plugs in its value: per schema node, the
//! at most `k` cheapest [`Candidate`]s, sorted by cost, ties in creation
//! order.
//!
//! A candidate carries the matched, possibly renamed `label` and
//! `children` pointers to the skeleton nodes of the embedding image (the
//! paper's `pointers` set); a root candidate plus the nodes reachable
//! through the pointers *is* the second-level query. A pointer set is
//! shared and immutable ([`Pointers`]), so copying a candidate copies a
//! reference count, not the set.
//!
//! Every operator reads its inputs as the sorted vectors they are and
//! stops at `k`, so its work per node is O(k), not the O(k²) of building
//! every combination and sorting it: `either`, `fold` and `close` are
//! bounded merges, `offer` stops at the first candidate that no longer
//! fits, and `both` walks the pairs cheapest first from a frontier heap
//! (O(k log k)) and builds the pointer sets of the `k` it keeps only.
//!
//! Unlike the direct evaluation's grouped minima, each candidate is one
//! concrete embedding, so the leaf rule reduces to a boolean flag.

use crate::list::{below, CostDomain};
use approxql_index::Posting;
use approxql_metrics::Metric;
use approxql_tree::{Cost, LabelId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// A pointer set: the skeletons of an embedding's matched descendants.
/// Immutable once built, so candidates and skeletons share it.
pub type Pointers = Rc<[Rc<Skeleton>]>;

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
    pub children: Pointers,
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
    pub children: Pointers,
}

impl Candidate {
    /// Materializes the skeleton of this embedding rooted at node `pre`.
    pub fn skeleton(&self, pre: u32) -> Rc<Skeleton> {
        Rc::new(Skeleton {
            pre,
            label: self.label,
            children: Rc::clone(&self.children),
        })
    }
}

/// The pointer set of a pair: `a`'s pointers, then `b`'s.
fn united(a: &Pointers, b: &Pointers) -> Pointers {
    if b.is_empty() {
        Rc::clone(a)
    } else if a.is_empty() {
        Rc::clone(b)
    } else {
        a.iter().chain(b.iter()).cloned().collect()
    }
}

/// The first `k` items of the merge of the sorted sequences `a` and `b`;
/// on a tie, `a`'s item comes first (`le` is the order's `≤`).
fn merged<T>(
    k: usize,
    a: impl IntoIterator<Item = T>,
    b: impl IntoIterator<Item = T>,
    le: impl Fn(&T, &T) -> bool,
) -> Vec<T> {
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    let mut out = Vec::new();
    while out.len() < k {
        let next = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) if !le(x, y) => b.next(),
            (Some(_), _) => a.next(),
            (None, _) => b.next(),
        };
        match next {
            Some(item) => out.push(item),
            None => break,
        }
    }
    out
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
    /// Inserts `item` into the sorted accumulator if it ranks among the
    /// `k` smallest; `false` if it does not, and then no larger item does.
    fn keep(&self, acc: &mut Vec<(Cost, usize, usize)>, item: (Cost, usize, usize)) -> bool {
        let pos = acc.partition_point(|x| *x <= item);
        if !item.0.is_finite() || pos >= self.k {
            return false;
        }
        acc.truncate(self.k - 1);
        acc.insert(pos, item);
        true
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
            children: Rc::new([]),
        }]
    }

    fn shift(&self, v: &mut Vec<Candidate>, c: Cost) {
        for cand in v {
            cand.cost += c;
        }
    }

    /// The first `k` of the merge, `a`'s candidates first on a tie.
    fn either(&self, a: Vec<Candidate>, b: Vec<Candidate>) -> Vec<Candidate> {
        merged(self.k, a, b, |x, y| x.cost <= y.cost)
    }

    /// The `k` cheapest pairs, in `(cost, i, j)` order — cost, then
    /// creation order; pointer sets are united. Pair `(i, j + 1)` and, from
    /// the first column, `(i + 1, 0)` cost no less than `(i, j)` and come
    /// after it, so a frontier heap seeded with `(0, 0)` yields the pairs
    /// in exactly that order: k pops of a heap of at most k + 1, and only
    /// the kept pairs are built.
    fn both(&self, a: &Vec<Candidate>, b: &Vec<Candidate>) -> Option<Vec<Candidate>> {
        let pair = |i: usize, j: usize| Some(Reverse((a.get(i)?.cost + b.get(j)?.cost, i, j)));
        let mut frontier: BinaryHeap<_> = pair(0, 0).into_iter().collect();
        let mut out = Vec::new();
        while out.len() < self.k {
            match frontier.pop() {
                Some(Reverse((cost, i, j))) if cost.is_finite() => {
                    let (x, y) = (&a[i], &b[j]);
                    out.push(Candidate {
                        cost,
                        has_leaf: x.has_leaf || y.has_leaf,
                        label: x.label,
                        children: united(&x.children, &y.children),
                    });
                    frontier.extend(pair(i, j + 1));
                    if j == 0 {
                        frontier.extend(pair(i + 1, 0));
                    }
                }
                // The rest cost at least as much: infinite.
                _ => break,
            }
        }
        Some(out).filter(|v| !v.is_empty())
    }

    fn open(&self) -> Self::Acc {
        Vec::new()
    }

    /// `v` is sorted, so its keys rise: the first candidate that does not
    /// fit ends the offer.
    fn offer(&self, acc: &mut Self::Acc, j: usize, (d, v): &(Posting, Vec<Candidate>)) {
        for (c, cand) in v.iter().enumerate() {
            if !self.keep(acc, (d.pathcost + cand.cost, j, c)) {
                break;
            }
        }
    }

    fn fold(&self, parent: &mut Self::Acc, closed: &Self::Acc) {
        if !closed.is_empty() {
            let folded = merged(
                self.k,
                parent.iter().copied(),
                closed.iter().copied(),
                |x, y| x <= y,
            );
            *parent = folded;
        }
    }

    /// One candidate per kept descendant, pointer set initialized with
    /// that descendant, plus the deletion alternative (empty pointer set)
    /// competing for the `k` slots. The kept descendants come sorted; the
    /// deletion, created after them, goes behind those of equal cost.
    fn close(
        &self,
        (a, seed): &(Posting, Vec<Candidate>),
        acc: Self::Acc,
        descendants: &[(Posting, Vec<Candidate>)],
        c_del: Cost,
    ) -> Option<Vec<Candidate>> {
        let label = seed.first()?.label;
        let kept = |&(key, j, c): &(Cost, usize, usize)| {
            let (d, v) = &descendants[j];
            Candidate {
                cost: below(a, key),
                has_leaf: v[c].has_leaf,
                label,
                children: Rc::new([v[c].skeleton(d.pre)]),
            }
        };
        let deleted = c_del.is_finite().then(|| Candidate {
            cost: c_del,
            has_leaf: false,
            label,
            children: Rc::new([]),
        });
        let at = acc.partition_point(|&(key, _, _)| below(a, key) <= c_del);
        let out: Vec<Candidate> = acc[..at]
            .iter()
            .map(kept)
            .chain(deleted)
            .chain(acc[at..].iter().map(kept))
            .take(self.k)
            .collect();
        Some(out).filter(|v| !v.is_empty())
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
    root: Rc<Skeleton>,
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
    use crate::list::{Algebra, List};
    use approxql_index::LabelIndex;
    use approxql_plan::PlanAlgebra;
    use approxql_tree::Interner;

    fn cand(cost: u64, label: u32) -> Candidate {
        Candidate {
            cost: Cost::finite(cost),
            has_leaf: true,
            label: LabelId(label),
            children: Rc::new([]),
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
        Algebra::new(index, interner, KBest { k })
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
            Rc::new(Skeleton {
                pre,
                label: LabelId(label),
                children: Rc::new([]),
            })
        };
        let mut a1 = cand(1, 0);
        a1.children = Rc::new([leaf(3, 1)]);
        let mut b1 = cand(2, 0);
        b1.children = Rc::new([leaf(4, 2)]);
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
            Rc::new(Skeleton {
                pre,
                label: LabelId(pre),
                children: Rc::new([]),
            })
        };
        let s = Skeleton {
            pre: 0,
            label: LabelId(0),
            children: Rc::new([leaf(1), leaf(2)]),
        };
        assert_eq!(s.size(), 3);
    }

    /// The operators as they were first written, exhaustively: every
    /// combination, a stable sort by cost, the first `k`.
    #[derive(Clone, Copy)]
    struct Exhaustive(KBest);

    impl Exhaustive {
        fn capped(&self, mut candidates: Vec<Candidate>) -> Vec<Candidate> {
            candidates.sort_by_key(|c| c.cost);
            candidates.truncate(self.0.k);
            candidates
        }

        fn keep(&self, acc: &mut Vec<(Cost, usize, usize)>, item: (Cost, usize, usize)) {
            let pos = acc.partition_point(|x| *x <= item);
            if item.0.is_finite() && pos < self.0.k {
                acc.insert(pos, item);
                acc.truncate(self.0.k);
            }
        }
    }

    impl CostDomain for Exhaustive {
        type V = Vec<Candidate>;
        type Acc = Vec<(Cost, usize, usize)>;

        fn seed(&self, label: LabelId, is_leaf: bool) -> Vec<Candidate> {
            self.0.seed(label, is_leaf)
        }

        fn shift(&self, v: &mut Vec<Candidate>, c: Cost) {
            self.0.shift(v, c);
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
                self.keep(acc, (d.pathcost + cand.cost, j, c));
            }
        }

        fn fold(&self, parent: &mut Self::Acc, closed: &Self::Acc) {
            for &item in closed {
                self.keep(parent, item);
            }
        }

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

        fn weight(v: &Vec<Candidate>) -> usize {
            v.len()
        }

        fn record(&self, op: Metric, produced: usize) {
            self.0.record(op, produced);
        }
    }

    /// Random lists over one random forest: nested intervals, descendant
    /// path costs that cover every ancestor's, and sorted candidate
    /// vectors whose costs tie often. Every candidate points at a skeleton
    /// of its own, so a candidate kept out of order shows.
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

        /// A k-best value of 1 to `min(k, 12)` candidates.
        fn value(&mut self, k: usize, label: u32) -> Vec<Candidate> {
            let len = 1 + self.draw(k.min(12) as u64) as usize;
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
        fn list(&mut self, forest: &[Posting], k: usize, label: u32) -> List<Vec<Candidate>> {
            let density = [0, 3, 7, 10][self.draw(4) as usize];
            let mut l = Vec::new();
            for &node in forest {
                if self.draw(10) < density {
                    l.push((node, self.value(k, label)));
                }
            }
            l
        }
    }

    #[test]
    fn operators_equal_their_exhaustive_definitions() {
        static EMPTY: std::sync::OnceLock<(LabelIndex, Interner)> = std::sync::OnceLock::new();
        let (index, interner) = EMPTY.get_or_init(Default::default);
        let mut gen = Lists {
            state: 0x2002,
            skeletons: 0,
        };
        let renames = [Cost::ZERO, Cost::finite(1), Cost::finite(3), Cost::INFINITY];
        let dels = [Cost::ZERO, Cost::finite(2), Cost::INFINITY];
        for k in [1, 2, 3, 5, 8, 64] {
            let fast = Algebra::new(index, interner, KBest { k });
            let slow = Algebra::new(index, interner, Exhaustive(KBest { k }));
            for case in 0..150 {
                let forest = gen.forest();
                let [l, r, s] = [0, 1, 2].map(|label| gen.list(&forest, k, label));
                let (c1, c2) = (renames[gen.draw(4) as usize], renames[gen.draw(4) as usize]);
                let del = dels[gen.draw(3) as usize];
                let at = |op: &str| format!("{op} at k = {k}, case {case}");

                let m = fast.merge(&l, &[(&r, c1), (&s, c2)]);
                assert_eq!(m, slow.merge(&l, &[(&r, c1), (&s, c2)]), "{}", at("merge"));
                assert_eq!(fast.union(&l, &r), slow.union(&l, &r), "{}", at("union"));
                for (a, b) in [(&l, &r), (&m, &s)] {
                    assert_eq!(
                        fast.intersect(a, b),
                        slow.intersect(a, b),
                        "{}",
                        at("intersect")
                    );
                }
                for (a, d) in [(&l, &r), (&s, &m)] {
                    assert_eq!(fast.join(a, d), slow.join(a, d), "{}", at("join"));
                    let (x, y) = (fast.outerjoin(a, d, del), slow.outerjoin(a, d, del));
                    assert_eq!(x, y, "{}", at("outerjoin"));
                    assert!(x.iter().all(|(_, v)| !v.is_empty() && v.len() <= k));
                }
            }
        }
    }
}
