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
//! two copies of a list, is drawn once. A stream has no cap: its reader
//! decides how many candidates are drawn. Each operator keeps the state
//! its eager form would have thrown away after `k` steps. Three of them
//! are one lazy k-way merge of candidate streams, each read from an offset
//! on (`Merge`):
//!
//! * `either` merges its two inputs at offset 0;
//! * `close` merges the descendants in the ancestor's interval (the
//!   accumulator is their range of the descendant list, and `fold` widens
//!   it by a closed inner ancestor's range), each at offset `pathcost`,
//!   up to the deletion's key, then yields the deletion;
//! * [`SecondLevelQueries`], the root `sort`, merges the root nodes'
//!   streams at offset 0: second-level queries in `(cost, pre, position)`
//!   order.
//!
//! A merge's heap entry whose candidate has not been drawn yet carries a
//! lower bound of its key instead (the input's offset, the key of the
//! candidate it yielded last); it is drawn only when that bound comes
//! first, ties to the lower input. Infinite keys come last: `either`
//! yields them, as its eager form keeps them, and `close` and `sort` stop
//! before them. `both` keeps its frontier heap of pairs `(cost, i, j)`
//! between draws, under the same lower-bound rule. So a stream draws from
//! its inputs exactly the candidates that could come next, and yields the
//! order the eager operator sorted by: its first `k` candidates are the
//! `k`-vector the operator would have built.
//!
//! Unlike the direct evaluation's grouped minima, each candidate is one
//! concrete embedding, so the leaf rule reduces to a boolean flag.

use crate::list::{below, CostDomain};
use approxql_index::Posting;
use approxql_metrics::Metric;
use approxql_tree::{Cost, LabelId};
use std::cell::RefCell;
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};
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

/// A frontier entry `(key, i, j, drawn)` of `both`, smallest first: pair
/// `(i, j)`. While `drawn` is `false` the pair has not been drawn and
/// `key` is only a lower bound of its key; as no other entry names
/// `(i, j)`, the bound sorts no later than the key it stands for.
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
    source: Source,
}

/// The state that yields a stream's next candidate.
enum Source {
    /// Nothing more: the stream is what it has drawn.
    Done,
    /// `either` until its first draw builds its merge: most are never read.
    Either(CandidateStream, CandidateStream),
    /// `either` once drawn: the merge of its two inputs.
    Merge(Merge),
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

/// The greatest finite cost: a [`Merge`] read up to it stops before infinite keys.
const FINITE: Cost = Cost::from_raw(u64::MAX - 1);

/// The lazy k-way merge of candidate streams, each read from an offset
/// on: the candidates of all inputs in `(offset + cost, input)` order.
struct Merge {
    /// One entry per input that may have more.
    heap: BinaryHeap<Head>,
}

/// An input's entry in a [`Merge`]. Once `drawn`, `key` is the key of the
/// input's candidate `next`; before, only a lower bound of it.
struct Head {
    key: Cost,
    input: usize,
    drawn: bool,
    /// The index of the input's next candidate.
    next: usize,
    /// The input, shifted by its offset.
    stream: CandidateStream,
    /// The reader's tag for the input (a preorder number).
    tag: u32,
}

impl Merge {
    fn new(inputs: impl IntoIterator<Item = (CandidateStream, Cost, u32)>) -> Merge {
        let heap = (inputs.into_iter().enumerate())
            .map(|(input, (mut stream, key, tag))| {
                stream.shift += key;
                Head {
                    key,
                    input,
                    drawn: false,
                    next: 0,
                    stream,
                    tag,
                }
            })
            .collect();
        Merge { heap }
    }

    /// The next candidate, its cost its key, with its input's tag; `None`
    /// if its key would exceed `limit`.
    fn next(&mut self, limit: Cost) -> Option<(u32, Candidate)> {
        loop {
            let mut top = self.heap.peek_mut().filter(|h| h.key <= limit)?;
            if top.drawn {
                // The key stays, as the bound of the input's next candidate.
                let cand = top.stream.get(top.next)?;
                top.drawn = false;
                top.next += 1;
                return Some((top.tag, cand));
            }
            match top.stream.cost(top.next) {
                Some(key) => (top.key, top.drawn) = (key, true),
                None => drop(PeekMut::pop(top)),
            }
        }
    }
}

impl PartialEq for Head {
    fn eq(&self, other: &Head) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Head {}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Head) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Smallest `(key, input)` first, which is unique: one entry per input.
impl Ord for Head {
    fn cmp(&self, other: &Head) -> Ordering {
        (other.key, other.input).cmp(&(self.key, self.input))
    }
}

/// The state of `close`.
struct Below {
    ancestor: Posting,
    label: LabelId,
    merge: Merge,
    /// The key `below` maps to the deletion's cost, until it is drawn.
    deletion: Option<Cost>,
}

impl CandidateStream {
    fn new(drawn: Vec<Candidate>, source: Source) -> CandidateStream {
        CandidateStream {
            memo: Rc::new(RefCell::new(Memo { drawn, source })),
            shift: Cost::ZERO,
        }
    }

    /// Draws up to candidate `i`; `false` if the stream ends before it.
    fn reach(&self, i: usize) -> bool {
        let mut memo = self.memo.borrow_mut();
        let Memo { drawn, source } = &mut *memo;
        while drawn.len() <= i {
            let Some(c) = source.next() else {
                // Let go of the inputs.
                *source = Source::Done;
                return false;
            };
            Metric::TopkEntriesProduced.incr();
            drawn.push(c);
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
            Source::Either(a, b) => {
                let inputs = [(a.clone(), Cost::ZERO, 0), (b.clone(), Cost::ZERO, 0)];
                *self = Source::Merge(Merge::new(inputs));
                self.next()
            }
            Source::Merge(merge) => merge.next(Cost::INFINITY).map(|(_, cand)| cand),
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
            Source::Below(close) => {
                let limit = close.deletion.unwrap_or(FINITE);
                let (key, has_leaf, children): (_, _, Pointers) = match close.merge.next(limit) {
                    Some((pre, c)) => (c.cost, c.has_leaf, Rc::new([c.skeleton(pre)])),
                    None => (close.deletion.take()?, false, Rc::new([])),
                };
                Some(Candidate {
                    cost: below(&close.ancestor, key),
                    has_leaf,
                    label: close.label,
                    children,
                })
            }
        }
    }
}

/// The k-best domain of the adapted `primary`: a value is the
/// [`CandidateStream`] of one schema node, whose first `k` candidates are
/// the node's best `k` for every `k` its reader draws.
#[derive(Clone, Copy, Debug)]
pub struct KBest;

impl KBest {
    /// A value holding `candidates`, which must be sorted by cost.
    pub fn value(&self, candidates: Vec<Candidate>) -> CandidateStream {
        CandidateStream::new(candidates, Source::Done)
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
        CandidateStream::new(Vec::new(), Source::Either(a, b))
    }

    /// The pairs in `(cost, i, j)` order — cost, then creation order;
    /// pointer sets are united. `None` if the cheapest pair is infinite.
    fn both(&self, a: &CandidateStream, b: &CandidateStream) -> Option<CandidateStream> {
        let cost = a.cost(0)? + b.cost(0)?;
        let frontier = BinaryHeap::from([Reverse((cost, 0, 0, true))]);
        let (a, b) = (a.clone(), b.clone());
        cost.is_finite()
            .then(|| CandidateStream::new(Vec::new(), Source::Pairs { a, b, frontier }))
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
        let descendants = descendants.get(acc).unwrap_or_default();
        let finite = |(d, v): &(Posting, CandidateStream)| {
            v.cost(0).is_some_and(|c| (d.pathcost + c).is_finite())
        };
        if !c_del.is_finite() && !descendants.iter().any(finite) {
            return None;
        }
        let inputs = descendants
            .iter()
            .map(|(d, v)| (v.clone(), d.pathcost, d.pre));
        let below = Below {
            ancestor: *a,
            label,
            merge: Merge::new(inputs),
            deletion: c_del.is_finite().then(|| a.pathcost + a.inscost + c_del),
        };
        let source = Source::Below(Box::new(below));
        Some(CandidateStream::new(Vec::new(), source))
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
/// time from the merge of the root nodes' streams. Infinite candidates
/// are never yielded, and with `require_leaf` neither are those that
/// match no query leaf.
pub struct SecondLevelQueries {
    /// The root streams, tagged with their nodes' preorder numbers; the
    /// list is sorted by `pre`, so input order is preorder.
    merge: Merge,
    require_leaf: bool,
}

impl SecondLevelQueries {
    /// The queries of the root list `roots`. Nothing is drawn yet.
    pub fn new(roots: Vec<(Posting, CandidateStream)>, require_leaf: bool) -> SecondLevelQueries {
        Metric::TopkOps.incr();
        SecondLevelQueries {
            merge: Merge::new(roots.into_iter().map(|(n, v)| (v, Cost::ZERO, n.pre))),
            require_leaf,
        }
    }
}

impl Iterator for SecondLevelQueries {
    type Item = SecondLevelQuery;

    fn next(&mut self) -> Option<SecondLevelQuery> {
        loop {
            let (pre, cand) = self.merge.next(FINITE)?;
            if self.require_leaf && !cand.has_leaf {
                continue;
            }
            Metric::TopkEntriesProduced.incr();
            return Some(SecondLevelQuery {
                cost: cand.cost,
                root: cand.skeleton(pre),
            });
        }
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

    /// A node with insert cost 1 and the given candidates.
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
        (n, KBest.value(cands))
    }

    /// The k-best algebra over an empty index.
    fn alg() -> Algebra<'static, KBest> {
        static EMPTY: std::sync::OnceLock<(LabelIndex, Interner)> = std::sync::OnceLock::new();
        let (index, interner) = EMPTY.get_or_init(Default::default);
        Algebra::new(index, interner, KBest)
    }

    fn costs(v: &CandidateStream) -> Vec<Cost> {
        v.iter().map(|c| c.cost).collect()
    }

    /// The costs of the first `k` candidates: the node's best `k`.
    fn first(v: &CandidateStream, k: usize) -> Vec<Cost> {
        v.iter().take(k).map(|c| c.cost).collect()
    }

    #[test]
    fn join_yields_the_best_k_candidates_per_ancestor() {
        let anc = vec![node(1, 9, 0, vec![cand(0, 7)])];
        let desc = vec![
            node(3, 3, 2, vec![cand(5, 1)]),
            node(4, 4, 2, vec![cand(1, 2)]),
            node(5, 5, 2, vec![cand(3, 3)]),
        ];
        let j = alg().join(&anc, &desc);
        assert_eq!(j.len(), 1);
        let v: Vec<Candidate> = j[0].1.iter().collect();
        // distance = 2 - 0 - 1 = 1; best costs 1+1=2 and 3+1=4.
        assert_eq!(first(&j[0].1, 2), vec![Cost::finite(2), Cost::finite(4)]);
        // pointers reference the matched descendants.
        assert_eq!(v[0].children[0].pre, 4);
        assert_eq!(v[1].children[0].pre, 5);
        // the ancestor's own label is preserved.
        assert_eq!(v[0].label, LabelId(7));
        // k = 1 is the minimum.
        assert_eq!(first(&j[0].1, 1), vec![Cost::finite(2)]);
        // Every descendant is a candidate.
        assert_eq!(j[0].1.len(), 3);
    }

    #[test]
    fn outerjoin_inserts_deletion_candidate_in_order() {
        let anc = vec![node(1, 9, 0, vec![cand(0, 0)])];
        let desc = vec![node(3, 3, 2, vec![cand(5, 1)])]; // match cost 6
        let oj = alg().outerjoin(&anc, &desc, Cost::finite(4));
        let v: Vec<Candidate> = oj[0].1.iter().collect();
        assert_eq!(costs(&oj[0].1), vec![Cost::finite(4), Cost::finite(6)]);
        assert!(!v[0].has_leaf); // deletion first
        assert!(v[0].children.is_empty());
        assert!(v[1].has_leaf);
        // On a tie the deletion goes behind.
        let oj = alg().outerjoin(&anc, &desc, Cost::finite(6));
        assert!(oj[0].1.get(0).unwrap().has_leaf);
        assert!(!oj[0].1.get(1).unwrap().has_leaf);
    }

    #[test]
    fn outerjoin_keeps_ancestor_without_descendants() {
        let anc = vec![node(1, 9, 0, vec![cand(0, 0)])];
        let oj = alg().outerjoin(&anc, &vec![], Cost::finite(4));
        assert_eq!(costs(&oj[0].1), vec![Cost::finite(4)]);
        let oj = alg().outerjoin(&anc, &vec![], Cost::INFINITY);
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
        let x = alg().intersect(
            &vec![node(2, 5, 0, vec![a1])],
            &vec![node(2, 5, 0, vec![b1])],
        );
        assert_eq!(costs(&x[0].1), vec![Cost::finite(3)]);
        assert_eq!(x[0].1.get(0).unwrap().children.len(), 2);
    }

    #[test]
    fn intersect_yields_the_best_k_pairs() {
        let l = vec![node(2, 5, 0, vec![cand(0, 0), cand(1, 0)])];
        let r = vec![node(2, 5, 0, vec![cand(0, 0), cand(10, 0)])];
        let x = alg().intersect(&l, &r);
        assert_eq!(
            first(&x[0].1, 3),
            vec![Cost::ZERO, Cost::finite(1), Cost::finite(10)]
        );
        assert_eq!(x[0].1.len(), 4);
    }

    #[test]
    fn union_merges_candidates_of_one_node() {
        let l = vec![node(2, 5, 0, vec![cand(3, 0)])];
        let r = vec![
            node(2, 5, 0, vec![cand(1, 0)]),
            node(7, 7, 0, vec![cand(0, 0)]),
        ];
        let u = alg().union(&l, &r);
        // node 2's cheaper candidate comes first; node 7 is copied.
        assert_eq!(u.len(), 2);
        assert_eq!(first(&u[0].1, 1), vec![Cost::finite(1)]);
        assert_eq!(u[0].1.len(), 2);
        assert_eq!(u[1].0.pre, 7);
    }

    #[test]
    fn merge_charges_renames() {
        let l = vec![node(2, 5, 0, vec![cand(0, 10)])];
        let r = vec![
            node(2, 5, 0, vec![cand(0, 11)]),
            node(3, 3, 0, vec![cand(0, 11)]),
        ];
        let m = alg().merge(&l, &[(&r, Cost::finite(2))]);
        // shared node 2: original (0) beats renamed (2); k = 1 reads it.
        assert_eq!(m.len(), 2);
        assert_eq!(first(&m[0].1, 1), vec![Cost::ZERO]);
        assert_eq!(m[0].1.get(0).unwrap().label, LabelId(10));
        assert_eq!(m[1].0.pre, 3);
        assert_eq!(costs(&m[1].1), vec![Cost::finite(2)]);
        assert_eq!(m[1].1.get(0).unwrap().label, LabelId(11));
    }

    #[test]
    fn shift_applies_to_one_handle_only() {
        let (_, v) = node(1, 1, 0, vec![cand(1, 0), cand(2, 0)]);
        let mut shifted = v.clone();
        KBest.shift(&mut shifted, Cost::finite(3));
        KBest.shift(&mut shifted, Cost::INFINITY);
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
        let alg = alg();
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

    /// The candidates `f` draws.
    fn drawn(f: impl FnOnce()) -> u64 {
        let before = Metric::TopkEntriesProduced.value();
        f();
        Metric::TopkEntriesProduced.value() - before
    }

    /// A stream over candidates of these costs that counts one draw per
    /// candidate read.
    fn lazy(costs: &[u64]) -> CandidateStream {
        let v = KBest.value(costs.iter().map(|&c| cand(c, 0)).collect());
        KBest.either(v, KBest.value(Vec::new()))
    }

    #[test]
    fn the_merge_draws_an_input_only_when_its_bound_comes_first() {
        // `either`: `a` keeps the tie at 0, so `b` is drawn only when its
        // bound 0 comes before `a`'s next key, 5. Each step draws one
        // input candidate and yields one.
        let u = KBest.either(lazy(&[0, 0, 5]), lazy(&[1]));
        assert_eq!(drawn(|| assert_eq!(u.cost(1), Some(Cost::ZERO))), 2 + 2);
        assert_eq!(
            drawn(|| assert_eq!(u.cost(2), Some(Cost::finite(1)))),
            2 + 1
        );

        // `close` at ancestor path cost 0, insert cost 1: descendants at
        // offsets 2 and 5, the deletion (cost 2) at offset 3.
        let at = |pre, pathcost| node(pre, pre, pathcost, Vec::new()).0;
        let desc = [(at(2, 2), lazy(&[0, 4])), (at(3, 5), lazy(&[0]))];
        let anc = node(1, 9, 0, vec![cand(0, 7)]);
        let c = KBest.close(&anc, 0..2, &desc, Cost::finite(2)).unwrap();
        // Key 2 of the first descendant; the second is not drawn.
        assert_eq!(drawn(|| assert_eq!(c.cost(0), Some(Cost::finite(1)))), 2);
        // The first descendant's bound 2 comes before the deletion's 3:
        // its key 6 is drawn, then the deletion, drawn uncounted, yielded.
        assert_eq!(drawn(|| assert_eq!(c.cost(1), Some(Cost::finite(2)))), 2);
        // The bound 5 of the second descendant comes before key 6.
        assert_eq!(drawn(|| assert_eq!(c.cost(2), Some(Cost::finite(4)))), 2);
        assert_eq!(drawn(|| assert_eq!(c.cost(3), Some(Cost::finite(5)))), 1);

        // The root `sort` counts the queries it yields.
        let roots = vec![(at(1, 0), lazy(&[0, 3])), (at(2, 0), lazy(&[1]))];
        let mut best = SecondLevelQueries::new(roots, false);
        let mut next = |cost| assert_eq!(best.next().map(|q| q.cost), Some(Cost::finite(cost)));
        assert_eq!(drawn(|| next(0)), 2);
        assert_eq!(drawn(|| next(1)), 3);
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
    fn second_level_queries_leave_out_infinite_candidates() {
        let mut unreachable = cand(0, 0);
        unreachable.cost = Cost::INFINITY;
        let l = vec![
            node(1, 1, 0, vec![cand(2, 0), unreachable]),
            node(5, 5, 0, vec![cand(1, 0)]),
        ];
        let costs: Vec<Cost> = SecondLevelQueries::new(l, false).map(|q| q.cost).collect();
        assert_eq!(costs, [Cost::finite(1), Cost::finite(2)]);
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
        let j = alg().join(&anc, &desc);
        assert_eq!(j[0].1.len(), 2);
        assert_eq!(j[1].1.len(), 1);
        assert_eq!(j[1].1.get(0).unwrap().children[0].pre, 4);
    }
}
