//! The schema-list value of Section 7.2.
//!
//! Run against the *schema*, the evaluation must keep not just the best
//! embedding per (query subtree, schema subtree) but the best **k** — each
//! one a distinct *second-level query*. The list algebra is the one of
//! [`crate::list`]; this module plugs in its value: per schema node, a
//! [`CandidateStream`] of [`Candidate`]s, cheapest first, ties in creation
//! order, drawn only when someone reads them — lazy k-best enumeration
//! (Huang & Chiang, "Better k-best parsing", 2005, Algorithm 3).
//!
//! A candidate carries the matched, possibly renamed `label` and
//! `children` pointers to the skeleton nodes of the embedding image (the
//! paper's `pointers` set); a root candidate plus the nodes reachable
//! through the pointers *is* the second-level query. A pointer set is
//! shared and immutable ([`Pointers`]), so copying a candidate copies a
//! reference count, not the set.
//!
//! A stream is a shared handle over the prefix drawn so far plus the state
//! that yields the next candidate, so a candidate read twice, or through
//! two copies of a list, is drawn once. Each operator keeps the state its
//! eager form would have thrown away after `k` steps:
//!
//! * `either` and `fold` are a two-way merge, ties to the first input;
//! * `both` keeps its frontier heap of pairs `(cost, i, j)` between draws;
//! * `close` turns the ancestor's descendant interval — a range of the
//!   descendant list, which is all the walk's accumulator is — into a heap
//!   over those descendants' streams keyed `(pathcost + cost, j, c)`, the
//!   deletion candidate behind equal costs.
//!
//! A heap entry whose candidate has not been drawn yet carries a lower
//! bound of its key instead (a descendant's `pathcost`, the key of the
//! entry it follows); it is drawn only when that bound comes first. So a
//! stream draws from its inputs exactly the candidates that could come
//! next, and every stream yields the order the eager operator sorted by:
//! the first `k` candidates of a stream are the `k`-vector the operator
//! would have built. [`SecondLevelQueries`] does the same for the root
//! list: the second-level queries in `(cost, pre, position)` order, one
//! at a time.
//!
//! Unlike the direct evaluation's grouped minima, each candidate is one
//! concrete embedding, so the leaf rule reduces to a boolean flag.

use crate::list::{below, CostDomain};
use approxql_index::Posting;
use approxql_metrics::Metric;
use approxql_tree::{Cost, LabelId};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::Range;
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

/// A heap entry `(key, x, y, drawn)`, smallest first. `(x, y)` names the
/// candidate (a pair's two indices, a descendant and its candidate, a
/// root and its candidate) and is unique within one heap. While `drawn` is
/// `false` the candidate has not been drawn and `key` is only a lower
/// bound of its key; as no other entry shares `(x, y)`, the bound sorts
/// no later than the key it stands for.
type Entry = Reverse<(Cost, usize, usize, bool)>;

/// The candidates of one schema node, cheapest first, ties in creation
/// order, drawn on demand: the value of the [`KBest`] domain.
///
/// Clones share what has been drawn. `shift` adds to the costs read
/// through one handle only, so `shift` is O(1) and leaves the other
/// copies alone.
#[derive(Clone)]
pub struct CandidateStream {
    memo: Rc<RefCell<Memo>>,
    /// Added to the cost of every candidate read through this handle.
    shift: Cost,
}

/// What a stream has drawn, and what yields the rest.
struct Memo {
    /// The candidates drawn so far, without any handle's shift.
    drawn: Vec<Candidate>,
    /// The most candidates the stream yields (the domain's `k`).
    cap: usize,
    source: Source,
}

/// The state that yields a stream's next candidate.
enum Source {
    /// Nothing more: the stream is what it has drawn.
    Done,
    /// `either`: the merge of `a` from its `i`-th candidate on and `b` from
    /// its `j`-th; `a` first on a tie.
    Merge {
        a: CandidateStream,
        b: CandidateStream,
        i: usize,
        j: usize,
    },
    /// `both`: the pairs `(i, j)` of `a × b` in `(cost, i, j)` order. Pair
    /// `(i, j + 1)` and, from the first column, `(i + 1, 0)` cost no less
    /// than `(i, j)` and come after it, so the frontier grows from `(0, 0)`
    /// by at most two entries per drawn pair.
    Pairs {
        a: CandidateStream,
        b: CandidateStream,
        frontier: BinaryHeap<Entry>,
    },
    /// `close`: one ancestor's candidates.
    Below(Box<Below>),
}

/// The state of `close`: the descendants of the ancestor's interval, each
/// with its next candidate in the heap.
struct Below {
    ancestor: Posting,
    label: LabelId,
    /// The finite cost of deleting the descendant, until drawn.
    deletion: Option<Cost>,
    /// `(pre, pathcost, candidates)` per descendant of the interval.
    descendants: Vec<(u32, Cost, CandidateStream)>,
    /// `(pathcost + cost, descendant, candidate)`.
    heap: BinaryHeap<Entry>,
}

impl CandidateStream {
    fn new(cap: usize, drawn: Vec<Candidate>, source: Source) -> CandidateStream {
        CandidateStream {
            memo: Rc::new(RefCell::new(Memo { drawn, cap, source })),
            shift: Cost::ZERO,
        }
    }

    /// Draws up to candidate `i`; `false` if the stream ends before it.
    fn reach(&self, i: usize) -> bool {
        let mut memo = self.memo.borrow_mut();
        let Memo { drawn, cap, source } = &mut *memo;
        if i >= *cap {
            return false;
        }
        while drawn.len() <= i {
            let Some(c) = source.next() else {
                // Let go of the inputs.
                *source = Source::Done;
                return false;
            };
            Metric::TopkEntriesProduced.incr();
            drawn.push(c);
            if drawn.len() >= *cap {
                *source = Source::Done;
            }
        }
        true
    }

    /// The cost of candidate `i`, drawing it if need be; `None` if the
    /// stream has fewer candidates.
    pub fn cost(&self, i: usize) -> Option<Cost> {
        if !self.reach(i) {
            return None;
        }
        Some(self.memo.borrow().drawn.get(i)?.cost + self.shift)
    }

    /// Candidate `i`, drawing it if need be.
    pub fn get(&self, i: usize) -> Option<Candidate> {
        if !self.reach(i) {
            return None;
        }
        let mut c = self.memo.borrow().drawn.get(i)?.clone();
        c.cost += self.shift;
        Some(c)
    }

    /// The candidates in order, each drawn when the iterator reaches it.
    pub fn iter(&self) -> impl Iterator<Item = Candidate> + '_ {
        (0..).map_while(|i| self.get(i))
    }

    /// Number of candidates; draws them all.
    pub fn len(&self) -> usize {
        let mut n = 0;
        while self.reach(n) {
            n += 1;
        }
        n
    }

    /// `true` if the stream has no candidate.
    pub fn is_empty(&self) -> bool {
        !self.reach(0)
    }
}

/// Equal when the two streams yield the same candidates; draws both.
impl PartialEq for CandidateStream {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// Lists the candidates; draws them all.
impl fmt::Debug for CandidateStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Source {
    fn next(&mut self) -> Option<Candidate> {
        match self {
            Source::Done => None,
            Source::Merge { a, b, i, j } => {
                let first = match (a.cost(*i), b.cost(*j)) {
                    (Some(x), Some(y)) => x <= y,
                    (x, _) => x.is_some(),
                };
                let (from, at) = if first { (a, i) } else { (b, j) };
                *at += 1;
                from.get(*at - 1)
            }
            Source::Pairs { a, b, frontier } => loop {
                let Reverse((cost, i, j, drawn)) = frontier.pop()?;
                if !cost.is_finite() {
                    // The rest cost at least as much: infinite.
                    return None;
                }
                if !drawn {
                    if let (Some(x), Some(y)) = (a.cost(i), b.cost(j)) {
                        frontier.push(Reverse((x + y, i, j, true)));
                    }
                    continue;
                }
                let (x, y) = (a.get(i)?, b.get(j)?);
                frontier.push(Reverse((cost, i, j + 1, false)));
                if j == 0 {
                    frontier.push(Reverse((cost, i + 1, 0, false)));
                }
                return Some(Candidate {
                    cost,
                    has_leaf: x.has_leaf || y.has_leaf,
                    label: x.label,
                    children: united(&x.children, &y.children),
                });
            },
            Source::Below(below) => below.next(),
        }
    }
}

impl Below {
    fn candidate(&self, cost: Cost, has_leaf: bool, children: Pointers) -> Candidate {
        Candidate {
            cost,
            has_leaf,
            label: self.label,
            children,
        }
    }

    fn next(&mut self) -> Option<Candidate> {
        loop {
            let top = self.heap.peek().map(|&Reverse(entry)| entry);
            // The deletion goes behind every descendant candidate of equal
            // cost, before the first dearer one (a bound that is dearer
            // stands for a key that is).
            let due = |&del: &Cost| top.is_none_or(|(key, ..)| below(&self.ancestor, key) > del);
            if let Some(del) = self.deletion.filter(due) {
                self.deletion = None;
                return Some(self.candidate(del, false, Rc::new([])));
            }
            let (key, j, c, drawn) = top?;
            self.heap.pop();
            let (pre, pathcost, stream) = self.descendants.get(j)?;
            if !drawn {
                if let Some(cost) = stream.cost(c) {
                    let key = *pathcost + cost;
                    if key.is_finite() {
                        self.heap.push(Reverse((key, j, c, true)));
                    }
                }
                continue;
            }
            let cand = stream.get(c)?;
            self.heap.push(Reverse((key, j, c + 1, false)));
            let children: Pointers = Rc::new([cand.skeleton(*pre)]);
            return Some(self.candidate(below(&self.ancestor, key), cand.has_leaf, children));
        }
    }
}

/// The k-best domain of the adapted `primary`: a value is the
/// [`CandidateStream`] of one schema node, at most `k` candidates.
/// `k` is a run-time field; the schema driver runs with no cap and draws
/// as many second-level queries as it needs.
#[derive(Clone, Copy, Debug)]
pub struct KBest {
    /// The most candidates a value yields.
    pub k: usize,
}

impl KBest {
    fn stream_of(&self, drawn: Vec<Candidate>, source: Source) -> CandidateStream {
        CandidateStream::new(self.k, drawn, source)
    }

    /// A value holding `candidates`, which must be sorted by cost; only
    /// the first `k` are read.
    pub fn value(&self, candidates: Vec<Candidate>) -> CandidateStream {
        self.stream_of(candidates, Source::Done)
    }
}

impl CostDomain for KBest {
    type V = CandidateStream;
    /// The descendants the ancestor's interval holds, as a range of the
    /// descendant list: the walk offers them in order, and a closed inner
    /// ancestor's range lies within its parent's.
    type Acc = Range<usize>;

    fn seed(&self, label: LabelId, is_leaf: bool) -> CandidateStream {
        let seed = Candidate {
            cost: Cost::ZERO,
            has_leaf: is_leaf,
            label,
            children: Rc::new([]),
        };
        self.value(vec![seed])
    }

    fn shift(&self, v: &mut CandidateStream, c: Cost) {
        v.shift += c;
    }

    /// The merge, `a`'s candidates first on a tie.
    fn either(&self, a: CandidateStream, b: CandidateStream) -> CandidateStream {
        self.stream_of(Vec::new(), Source::Merge { a, b, i: 0, j: 0 })
    }

    /// The pairs in `(cost, i, j)` order — cost, then creation order;
    /// pointer sets are united. `None` if the cheapest pair is infinite.
    fn both(&self, a: &CandidateStream, b: &CandidateStream) -> Option<CandidateStream> {
        let cost = a.cost(0)? + b.cost(0)?;
        let frontier = BinaryHeap::from(vec![Reverse((cost, 0, 0, true))]);
        let (a, b) = (a.clone(), b.clone());
        cost.is_finite()
            .then(|| self.stream_of(Vec::new(), Source::Pairs { a, b, frontier }))
    }

    fn open(&self) -> Range<usize> {
        0..0
    }

    fn offer(&self, acc: &mut Range<usize>, j: usize, _d: &(Posting, CandidateStream)) {
        if acc.start == acc.end {
            *acc = j..j + 1;
        } else {
            acc.end = j + 1;
        }
    }

    fn fold(&self, parent: &mut Range<usize>, closed: &Range<usize>) {
        if parent.start == parent.end {
            *parent = closed.clone();
        } else if closed.start < closed.end {
            *parent = parent.start.min(closed.start)..parent.end.max(closed.end);
        }
    }

    /// One candidate per candidate of a descendant in the interval, its
    /// pointer set that descendant's skeleton, plus the deletion
    /// alternative (empty pointer set), in `(key, descendant, candidate)`
    /// order, the deletion behind the candidates of equal cost. `None`
    /// when there is neither a finite deletion nor a descendant candidate
    /// of finite cost.
    fn close(
        &self,
        (a, seed): &(Posting, CandidateStream),
        acc: Range<usize>,
        descendants: &[(Posting, CandidateStream)],
        c_del: Cost,
    ) -> Option<CandidateStream> {
        let label = seed.get(0)?.label;
        let descendants: Vec<(u32, Cost, CandidateStream)> = descendants
            .get(acc)
            .unwrap_or_default()
            .iter()
            .map(|(d, v)| (d.pre, d.pathcost, v.clone()))
            .collect();
        let deletion = c_del.is_finite().then_some(c_del);
        let finite = |(_, pathcost, v): &(u32, Cost, CandidateStream)| {
            v.cost(0).is_some_and(|c| (*pathcost + c).is_finite())
        };
        if deletion.is_none() && !descendants.iter().any(finite) {
            return None;
        }
        let heap = descendants
            .iter()
            .enumerate()
            .map(|(j, &(_, pathcost, _))| Reverse((pathcost, j, 0, false)))
            .collect();
        let below = Below {
            ancestor: *a,
            label,
            deletion,
            descendants,
            heap,
        };
        Some(self.stream_of(Vec::new(), Source::Below(Box::new(below))))
    }

    /// A value stands for one list entry; its candidates are counted as
    /// they are drawn.
    fn weight(_: &CandidateStream) -> usize {
        1
    }

    /// `topk.entries_produced` takes a fetch's seeds, one per node, here;
    /// every other candidate when it is drawn.
    fn record(&self, op: Metric, produced: usize) {
        Metric::TopkOps.incr();
        if op == Metric::ListFetchOps {
            Metric::TopkEntriesProduced.add(produced as u64);
        }
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

/// The final `sort` of the schema run: the root list's candidates as
/// second-level queries, in `(cost, pre, position)` order, drawn one at a
/// time from a heap over the root nodes' streams. Infinite candidates
/// are never yielded, and with `require_leaf` neither are those that
/// match no query leaf.
pub struct SecondLevelQueries {
    roots: Vec<(Posting, CandidateStream)>,
    /// `(cost, root, candidate)`; the list is sorted by `pre`, so root
    /// order is preorder.
    heap: BinaryHeap<Entry>,
    require_leaf: bool,
}

impl SecondLevelQueries {
    /// The queries of the root list `roots`. Nothing is drawn yet.
    pub fn new(roots: Vec<(Posting, CandidateStream)>, require_leaf: bool) -> SecondLevelQueries {
        Metric::TopkOps.incr();
        let heap = (0..roots.len())
            .map(|r| Reverse((Cost::ZERO, r, 0, false)))
            .collect();
        SecondLevelQueries {
            roots,
            heap,
            require_leaf,
        }
    }
}

impl Iterator for SecondLevelQueries {
    type Item = SecondLevelQuery;

    fn next(&mut self) -> Option<SecondLevelQuery> {
        while let Some(Reverse((cost, r, c, drawn))) = self.heap.pop() {
            let (node, stream) = self.roots.get(r)?;
            if !drawn {
                if let Some(cost) = stream.cost(c).filter(|c| c.is_finite()) {
                    self.heap.push(Reverse((cost, r, c, true)));
                }
                continue;
            }
            let cand = stream.get(c)?;
            self.heap.push(Reverse((cost, r, c + 1, false)));
            if self.require_leaf && !cand.has_leaf {
                continue;
            }
            Metric::TopkEntriesProduced.incr();
            return Some(SecondLevelQuery {
                cost,
                root: cand.skeleton(node.pre),
            });
        }
        None
    }
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

    /// A node with insert cost 1 and the given (uncapped) candidates.
    fn node(
        pre: u32,
        bound: u32,
        pathcost: u64,
        cands: Vec<Candidate>,
    ) -> (Posting, CandidateStream) {
        let n = Posting {
            pre,
            bound,
            pathcost: Cost::finite(pathcost),
            inscost: Cost::finite(1),
        };
        (n, KBest { k: usize::MAX }.value(cands))
    }

    /// The k-best algebra over an empty index.
    fn alg(k: usize) -> Algebra<'static, KBest> {
        static EMPTY: std::sync::OnceLock<(LabelIndex, Interner)> = std::sync::OnceLock::new();
        let (index, interner) = EMPTY.get_or_init(Default::default);
        Algebra::new(index, interner, KBest { k })
    }

    fn costs(v: &CandidateStream) -> Vec<Cost> {
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
        let v: Vec<Candidate> = j[0].1.iter().collect();
        // distance = 2 - 0 - 1 = 1; best costs 1+1=2 and 3+1=4.
        assert_eq!(costs(&j[0].1), vec![Cost::finite(2), Cost::finite(4)]);
        // pointers reference the matched descendants.
        assert_eq!(v[0].children[0].pre, 4);
        assert_eq!(v[1].children[0].pre, 5);
        // the ancestor's own label is preserved.
        assert_eq!(v[0].label, LabelId(7));
        // k = 1 is the minimum.
        let j = alg(1).join(&anc, &desc);
        assert_eq!(costs(&j[0].1), vec![Cost::finite(2)]);
        // With no cap, every descendant is a candidate.
        let j = alg(usize::MAX).join(&anc, &desc);
        assert_eq!(j[0].1.len(), 3);
    }

    #[test]
    fn outerjoin_inserts_deletion_candidate_in_order() {
        let anc = vec![node(1, 9, 0, vec![cand(0, 0)])];
        let desc = vec![node(3, 3, 2, vec![cand(5, 1)])]; // match cost 6
        let oj = alg(2).outerjoin(&anc, &desc, Cost::finite(4));
        let v: Vec<Candidate> = oj[0].1.iter().collect();
        assert_eq!(costs(&oj[0].1), vec![Cost::finite(4), Cost::finite(6)]);
        assert!(!v[0].has_leaf); // deletion first
        assert!(v[0].children.is_empty());
        assert!(v[1].has_leaf);
        // On a tie the deletion goes behind.
        let oj = alg(2).outerjoin(&anc, &desc, Cost::finite(6));
        assert!(oj[0].1.get(0).unwrap().has_leaf);
        assert!(!oj[0].1.get(1).unwrap().has_leaf);
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
        assert_eq!(x[0].1.get(0).unwrap().children.len(), 2);
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
        assert_eq!(m[0].1.get(0).unwrap().label, LabelId(10));
        assert_eq!(m[1].0.pre, 3);
        assert_eq!(costs(&m[1].1), vec![Cost::finite(2)]);
        assert_eq!(m[1].1.get(0).unwrap().label, LabelId(11));
    }

    #[test]
    fn shift_applies_to_one_handle_only() {
        let (_, v) = node(1, 1, 0, vec![cand(1, 0), cand(2, 0)]);
        let mut shifted = v.clone();
        KBest { k: 2 }.shift(&mut shifted, Cost::finite(3));
        KBest { k: 2 }.shift(&mut shifted, Cost::INFINITY);
        assert_eq!(costs(&v), vec![Cost::finite(1), Cost::finite(2)]);
        assert_eq!(costs(&shifted), vec![Cost::INFINITY, Cost::INFINITY]);
    }

    #[test]
    fn streams_draw_only_what_is_read() {
        let drawn = |f: &dyn Fn()| {
            let before = Metric::TopkEntriesProduced.value();
            f();
            Metric::TopkEntriesProduced.value() - before
        };
        let l: List<CandidateStream> = vec![node(2, 5, 0, (0..50).map(|c| cand(c, 0)).collect())];
        let r: List<CandidateStream> = vec![node(2, 5, 0, (0..50).map(|c| cand(c, 1)).collect())];
        let alg = alg(usize::MAX);
        let built = RefCell::new(Vec::new());
        // Building the operators draws nothing.
        assert_eq!(
            drawn(&|| {
                let x = alg.intersect(&l, &r);
                let u = alg.union(&x, &l);
                built.borrow_mut().extend([x, u]);
            }),
            0
        );
        let (x, u) = (built.borrow()[0].clone(), built.borrow()[1].clone());
        // The union's first three candidates are x0 (cost 0), l0 (0) and
        // x1 (1): three merged candidates and two pairs drawn.
        assert_eq!(
            drawn(&|| assert_eq!(u[0].1.cost(2), Some(Cost::finite(1)))),
            3 + 2
        );
        // Reading them again draws nothing.
        assert_eq!(drawn(&|| assert_eq!(u[0].1.cost(1), Some(Cost::ZERO))), 0);
        assert_eq!(x[0].1.len(), 2500);
    }

    #[test]
    fn second_level_queries_filter_and_order() {
        let mut no_leaf = cand(0, 0);
        no_leaf.has_leaf = false;
        let l = vec![
            node(1, 1, 0, vec![cand(1, 0)]),
            node(5, 5, 0, vec![no_leaf]),
            node(9, 9, 0, vec![cand(1, 0), cand(2, 0)]),
        ];
        let pres = |best: SecondLevelQueries, k: usize| -> Vec<u32> {
            best.take(k).map(|q| q.skeleton().pre).collect()
        };
        assert_eq!(
            pres(SecondLevelQueries::new(l.clone(), true), 10),
            vec![1, 9, 9]
        );
        assert_eq!(
            pres(SecondLevelQueries::new(l.clone(), false), 10),
            vec![5, 1, 9, 9]
        );
        assert_eq!(pres(SecondLevelQueries::new(l, false), 2), vec![5, 1]);
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
        assert_eq!(j[1].1.get(0).unwrap().children[0].pre, 4);
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
}
