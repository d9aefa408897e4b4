//! The list algebra of Section 6.4 and, with another value plugged in, of
//! Section 7.2.
//!
//! A [`List`] is a sequence of `(node, value)` pairs sorted by strictly
//! increasing preorder number: the four encoding numbers of a data (or
//! schema) node plus what is known about the embeddings of the current
//! query subtree at that node. What a value is, and how values combine,
//! is a [`CostDomain`]: [`TwoChannel`] keeps the minimum cost per
//! leaf-rule channel (data lists, Section 6), [`crate::topk::KBest`] the
//! best `k` embeddings (schema lists, Section 7.2). The three walks over
//! sorted lists are written once, here: `either` (`merge`, `union`),
//! `both` (`intersect`) and `interval` (`join`, `outerjoin`).
//!
//! `either` walks any number of lists at once: `merge` takes a selector's
//! list and all its renamed variants in one walk, so each entry is
//! written once rather than once per later link of a chain of two-list
//! merges. A node held by several lists folds their values in input
//! order, which for [`crate::topk::KBest`] keeps the candidates, ties
//! included, exactly where a chain of two-list merges put them.
//!
//! `interval` is a *structural merge*: both operands are
//! preorder-sorted, so the descendants of each ancestor form a contiguous
//! interval. A stack of currently open ancestors is maintained; each
//! descendant updates only the innermost open ancestor, and what an
//! ancestor collected is folded into the enclosing one when it closes.
//! When no ancestor is open, no descendant up to the next ancestor's own
//! node can be offered to any, and the walk skips them by exponential
//! search. This makes the join O(|A| + covered |D| + |A| log gap), where
//! a gap is a run of descendants no ancestor covers — the paper's O(s·l)
//! bound is a safe upper bound for the same scheme (the unit tests keep a
//! literal O(s·l) rescan as the oracle, for both domains).
//!
//! [`Algebra`] is the backend a compiled plan executes against
//! ([`approxql_plan::PlanAlgebra`]). Its operands are [`List`]s: `fetch`
//! decodes a label's compressed list once, and every operator runs its
//! walk over decoded lists (DESIGN.md §14.2). The plan hands each output
//! back once no consumer reads it any more, and later outputs of the
//! same query are written into those buffers; they are freed when the
//! `Algebra` is dropped, at the end of the query.

use approxql_index::{LabelIndex, Posting};
use approxql_metrics::Metric;
use approxql_plan::PlanAlgebra;
use approxql_tree::{Cost, Interner, LabelId, NodeType};
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;

/// A preorder-sorted list (strictly increasing `pre`): one value per node.
pub type List<V> = Vec<(Posting, V)>;

/// What a list keeps per node and how the operators combine it. The
/// walks of this module own the list order and the node numbers; a
/// domain only ever sees values.
pub trait CostDomain {
    /// The per-node value.
    type V: Clone + 'static;
    /// What an open ancestor has collected from its descendant interval.
    type Acc;

    /// The value `fetch` gives every node of a posting. For a leaf
    /// selector the matched node *is* an original query leaf; an inner
    /// selector's nodes are ancestor candidates whose costs the child
    /// evaluation computes.
    fn seed(&self, label: LabelId, is_leaf: bool) -> Self::V;
    /// Adds `c` to every cost of `v`.
    fn shift(&self, v: &mut Self::V, c: Cost);
    /// Alternatives at one node (`merge`, `union`): `a`'s come first.
    fn either(&self, a: Self::V, b: Self::V) -> Self::V;
    /// Conjunction at one node (`intersect`); `None` if nothing finite is
    /// left.
    fn both(&self, a: &Self::V, b: &Self::V) -> Option<Self::V>;
    /// The collection of an ancestor that has seen no descendant yet.
    fn open(&self) -> Self::Acc;
    /// Descendant number `j` falls into the interval of `acc`'s ancestor.
    /// Costs are collected as keys `pathcost(d) + cost(d)`, which order
    /// descendants the same way for every enclosing ancestor.
    fn offer(&self, acc: &mut Self::Acc, j: usize, d: &(Posting, Self::V));
    /// `closed` ends inside `parent`'s interval, which therefore contains
    /// everything `closed` saw.
    fn fold(&self, parent: &mut Self::Acc, closed: &Self::Acc);
    /// The value of ancestor `a` (a fetched seed) given what it collected
    /// and the cost `c_del` of deleting the descendant instead (infinite
    /// for `join`); `None` drops the ancestor. The deletion matches no
    /// leaf.
    fn close(
        &self,
        a: &(Posting, Self::V),
        acc: Self::Acc,
        descendants: &[(Posting, Self::V)],
        c_del: Cost,
    ) -> Option<Self::V>;
    /// Entries `v` stands for in the work counters.
    fn weight(v: &Self::V) -> usize;
    /// Counts one operation, named by its `list.*` counter, and the
    /// entries it produced.
    fn record(&self, op: Metric, produced: usize);
}

/// `distance(a, d) + cost(d)` from the key `pathcost(d) + cost(d)` of a
/// descendant `d` of `a` (Section 6.2).
pub(crate) fn below(a: &Posting, key: Cost) -> Cost {
    let c = key
        .checked_sub(a.pathcost)
        .and_then(|c| c.checked_sub(a.inscost));
    debug_assert!(
        c.is_some() || !key.is_finite(),
        "descendant pathcost covers ancestor pathcost + inscost"
    );
    // In release, an underflow (impossible by the interval invariant)
    // degrades to an infinite cost, which the caller drops, not a panic.
    c.unwrap_or(Cost::INFINITY)
}

/// The data-list value (Section 6.3): the best embedding cost of the
/// query subtree below the node, and the best among embeddings matching
/// at least one original query leaf (see the crate docs for the leaf
/// rule).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Channels {
    /// Best embedding cost.
    pub any: Cost,
    /// Best embedding cost with ≥ 1 original leaf matched.
    pub leaf: Cost,
}

/// The grouped-minimum domain of the direct evaluation.
#[derive(Clone, Copy, Debug)]
pub struct TwoChannel;

impl CostDomain for TwoChannel {
    type V = Channels;
    type Acc = Channels;

    #[inline]
    fn seed(&self, _label: LabelId, is_leaf: bool) -> Channels {
        Channels {
            any: Cost::ZERO,
            leaf: if is_leaf { Cost::ZERO } else { Cost::INFINITY },
        }
    }

    #[inline]
    fn shift(&self, v: &mut Channels, c: Cost) {
        v.any += c;
        v.leaf += c;
    }

    #[inline]
    fn either(&self, a: Channels, b: Channels) -> Channels {
        Channels {
            any: a.any.min(b.any),
            leaf: a.leaf.min(b.leaf),
        }
    }

    #[inline]
    fn both(&self, a: &Channels, b: &Channels) -> Option<Channels> {
        let any = a.any + b.any;
        // The leaf channel requires a leaf match on at least one side.
        any.is_finite().then(|| Channels {
            any,
            leaf: (a.leaf + b.any).min(a.any + b.leaf),
        })
    }

    #[inline]
    fn open(&self) -> Channels {
        Channels {
            any: Cost::INFINITY,
            leaf: Cost::INFINITY,
        }
    }

    #[inline]
    fn offer(&self, acc: &mut Channels, _j: usize, (d, v): &(Posting, Channels)) {
        acc.any = acc.any.min(d.pathcost + v.any);
        acc.leaf = acc.leaf.min(d.pathcost + v.leaf);
    }

    #[inline]
    fn fold(&self, parent: &mut Channels, closed: &Channels) {
        *parent = self.either(*parent, *closed);
    }

    #[inline]
    fn close(
        &self,
        (a, _): &(Posting, Channels),
        acc: Channels,
        _descendants: &[(Posting, Channels)],
        c_del: Cost,
    ) -> Option<Channels> {
        let any = below(a, acc.any).min(c_del);
        any.is_finite().then(|| Channels {
            any,
            leaf: below(a, acc.leaf),
        })
    }

    #[inline]
    fn weight(_: &Channels) -> usize {
        1
    }

    fn record(&self, op: Metric, produced: usize) {
        op.incr();
        Metric::ListEntriesProduced.add(produced as u64);
    }
}

fn debug_check_sorted<V>(l: &[(Posting, V)]) {
    debug_assert!(
        l.windows(2).all(|w| w[0].0.pre < w[1].0.pre),
        "list nodes must have strictly increasing preorder numbers"
    );
}

/// A list's entries still to walk, and the cost its values pay.
type Paying<'a, V> = (&'a [(Posting, V)], Cost);

/// `v` after paying `c`.
fn paid<D: CostDomain>(dom: &D, v: &D::V, c: Cost) -> D::V {
    let mut v = v.clone();
    if c != Cost::ZERO {
        dom.shift(&mut v, c);
    }
    v
}

/// Nodes of any of `lists`, in one walk: a node held by several lists
/// takes the domain's alternative of their values, folded in input
/// order. Each list's values pay its cost first (`merge`: the rename
/// cost; `union`: nothing). The nodes are appended to `out`.
///
/// The walk takes the two lists whose next nodes come first and merges
/// them as a pair up to the node where a third list's next node is due.
/// So two lists (`union`) are one pairwise merge, and k lists cost O(k)
/// per pair of lists taken.
fn either<D: CostDomain>(dom: &D, lists: &[Paying<'_, D::V>], mut out: List<D::V>) -> List<D::V> {
    for (l, _) in lists {
        debug_check_sorted(l);
    }
    let mut rest = lists.to_vec();
    loop {
        // The three smallest keys: a list's next node above, its number
        // below, so that ties go to the earlier list; `u64::MAX` for none.
        let (mut k1, mut k2, mut k3) = (u64::MAX, u64::MAX, u64::MAX);
        for (i, (l, _)) in rest.iter().enumerate() {
            let k = l
                .first()
                .map_or(u64::MAX, |(node, _)| u64::from(node.pre) << 32 | i as u64);
            k3 = k3.min(k2.max(k));
            k2 = k2.min(k1.max(k));
            k1 = k1.min(k);
        }
        if k1 == u64::MAX {
            return out;
        }
        let (lo, due) = (k1 >> 32, k3 >> 32);
        if lo == due {
            // Three or more lists hold node `lo`: fold them one by one.
            let mut held: Option<(Posting, D::V)> = None;
            for (l, c) in &mut rest {
                if let Some(((node, v), tail)) = l.split_first() {
                    if u64::from(node.pre) == lo {
                        let v = paid(dom, v, *c);
                        held = Some(match held {
                            Some((node, acc)) => (node, dom.either(acc, v)),
                            None => (*node, v),
                        });
                        *l = tail;
                    }
                }
            }
            out.extend(held);
            continue;
        }
        // The two lists holding the first nodes, in input order, each cut
        // before `due`.
        let (i1, i2) = (k1 as u32 as usize, k2 as u32 as usize);
        let (a, b) = (i1.min(i2), i1.max(i2));
        let cut = |l: &[(Posting, D::V)]| match u32::try_from(due) {
            Ok(due) => first_after(l, 0, due - 1),
            Err(_) => l.len(),
        };
        let (la, ca) = rest[a];
        let first = (&la[..cut(la)], ca);
        let second = match rest.get(b) {
            Some(&(lb, cb)) => (&lb[..cut(lb)], cb),
            None => (&[][..], Cost::ZERO),
        };
        pair(dom, first, second, &mut out);
        rest[a].0 = &rest[a].0[first.0.len()..];
        if let Some((l, _)) = rest.get_mut(b) {
            *l = &l[second.0.len()..];
        }
    }
}

/// The pairwise step of [`either`]: every node of `a` or `b` into `out`,
/// a node of both taking `a`'s value first.
fn pair<D: CostDomain>(
    dom: &D,
    (a, ca): Paying<'_, D::V>,
    (b, cb): Paying<'_, D::V>,
    out: &mut List<D::V>,
) {
    let (mut i, mut j) = (0, 0);
    loop {
        let order = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => x.0.pre.cmp(&y.0.pre),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => break,
        };
        if order != Ordering::Greater {
            i += 1;
        }
        if order != Ordering::Less {
            j += 1;
        }
        out.push(match order {
            Ordering::Less => (a[i - 1].0, paid(dom, &a[i - 1].1, ca)),
            Ordering::Greater => (b[j - 1].0, paid(dom, &b[j - 1].1, cb)),
            Ordering::Equal => {
                let v = dom.either(paid(dom, &a[i - 1].1, ca), paid(dom, &b[j - 1].1, cb));
                (a[i - 1].0, v)
            }
        });
    }
}

/// Nodes present in both lists, with the domain's conjunction of their
/// two values, appended to `out`.
fn both<D: CostDomain>(
    dom: &D,
    left: &[(Posting, D::V)],
    right: &[(Posting, D::V)],
    mut out: List<D::V>,
) -> List<D::V> {
    debug_check_sorted(left);
    debug_check_sorted(right);
    let (mut i, mut j) = (0, 0);
    while let (Some(a), Some(b)) = (left.get(i), right.get(j)) {
        match a.0.pre.cmp(&b.0.pre) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                i += 1;
                j += 1;
                if let Some(v) = dom.both(&a.1, &b.1) {
                    out.push((a.0, v));
                }
            }
        }
    }
    out
}

/// The index of the first node of `l` from `j` on that comes after
/// `pre`: exponential steps from `j` bracket it and a binary search finds
/// it, so skipping `g` nodes costs O(log g).
fn first_after<V>(l: &[(Posting, V)], j: usize, pre: u32) -> usize {
    let (mut at, mut step) = (j, 1);
    let end = loop {
        match l.get(at) {
            Some((node, _)) if node.pre <= pre => {
                at += step;
                step *= 2;
            }
            _ => break at.min(l.len()),
        }
    };
    let start = end.saturating_sub(step / 2).max(j);
    start + l[start..end].partition_point(|(node, _)| node.pre <= pre)
}

/// Every ancestor with what the domain makes of its descendant interval
/// (`join`; with a finite `c_del`, `outerjoin`), appended to `out`.
fn interval<D: CostDomain>(
    dom: &D,
    ancestors: &[(Posting, D::V)],
    descendants: &[(Posting, D::V)],
    c_del: Cost,
    mut out: List<D::V>,
) -> List<D::V> {
    debug_check_sorted(ancestors);
    debug_check_sorted(descendants);
    let mut collected: Vec<D::Acc> = ancestors.iter().map(|_| dom.open()).collect();
    // Open ancestors, innermost last: (index, what it has seen so far).
    let mut stack: Vec<(usize, D::Acc)> = Vec::new();
    let (mut i, mut j) = (0, 0);

    // Close every open ancestor whose interval ends before `pre`.
    let close_until = |stack: &mut Vec<(usize, D::Acc)>, collected: &mut Vec<D::Acc>, pre: u32| {
        while stack
            .last()
            .is_some_and(|&(top, _)| ancestors[top].0.bound < pre)
        {
            let Some((top, acc)) = stack.pop() else { break };
            if let Some((_, parent)) = stack.last_mut() {
                dom.fold(parent, &acc);
            }
            collected[top] = acc;
        }
    };

    while i < ancestors.len() || j < descendants.len() {
        // On equal preorder numbers the descendant is processed first: a
        // node is not its own descendant, so it must not land in the
        // interval of an equal-pre ancestor (which is the same node).
        let descendant_turn = match (ancestors.get(i), descendants.get(j)) {
            (Some(a), Some(d)) => d.0.pre <= a.0.pre,
            (None, Some(_)) => true,
            _ => false,
        };
        if descendant_turn {
            let d = &descendants[j];
            close_until(&mut stack, &mut collected, d.0.pre);
            match stack.last_mut() {
                Some((top, acc)) => {
                    if ancestors[*top].0.pre < d.0.pre {
                        dom.offer(acc, j, d);
                    }
                    j += 1;
                }
                // No ancestor is open, so no ancestor covers this
                // descendant or any other up to the next ancestor's own
                // node: none of them is ever offered.
                None => {
                    j = match ancestors.get(i) {
                        Some(a) => first_after(descendants, j, a.0.pre),
                        None => descendants.len(),
                    }
                }
            }
        } else {
            close_until(&mut stack, &mut collected, ancestors[i].0.pre);
            stack.push((i, dom.open()));
            i += 1;
        }
    }
    close_until(&mut stack, &mut collected, u32::MAX);
    let closed = ancestors.iter().zip(collected);
    out.extend(closed.filter_map(|(a, acc)| Some((a.0, dom.close(a, acc, descendants, c_del)?))));
    out
}

/// Entries `l` stands for in the work counters.
pub(crate) fn weight<D: CostDomain>(l: &[(Posting, D::V)]) -> usize {
    l.iter().map(|(_, v)| D::weight(v)).sum()
}

/// The list algebra over one label index in one cost domain: the backend
/// a compiled plan executes against — [`TwoChannel`] over the data
/// indexes for the direct evaluation, [`crate::topk::KBest`] over the
/// schema's for the adapted `primary`.
///
/// One `Algebra` serves one query. Outputs handed back through `recycle`
/// wait on its spare list and later outputs take their buffers from it;
/// the list dies with the `Algebra`, so no buffer outlives its query.
pub struct Algebra<'a, D: CostDomain> {
    /// The label index `fetch` reads.
    pub index: &'a LabelIndex,
    /// Resolves the plan's label strings.
    pub interner: &'a Interner,
    /// The cost domain of the lists.
    pub domain: D,
    /// Recycled outputs, emptied, for later outputs of the same query.
    spare: RefCell<Vec<List<D::V>>>,
    /// Index lookups `fetch` has made.
    fetches: Cell<usize>,
}

impl<'a, D: CostDomain> Algebra<'a, D> {
    /// An algebra over `index` in `domain`, with no spare buffers yet.
    pub fn new(index: &'a LabelIndex, interner: &'a Interner, domain: D) -> Self {
        Algebra {
            index,
            interner,
            domain,
            spare: RefCell::default(),
            fetches: Cell::new(0),
        }
    }

    /// Index lookups made so far: one per `fetch` of a label the
    /// interner knows (the fetches of other labels read no index).
    pub fn fetches(&self) -> usize {
        self.fetches.get()
    }

    fn done(&self, op: Metric, out: List<D::V>) -> List<D::V> {
        self.domain.record(op, weight::<D>(&out));
        out
    }

    /// The smallest spare buffer that holds `n` entries, if one does.
    fn spare(&self, n: usize) -> Option<List<D::V>> {
        let mut spare = self.spare.borrow_mut();
        let fits = spare.iter().enumerate().filter(|(_, b)| b.capacity() >= n);
        let (at, _) = fits.min_by_key(|(_, b)| b.capacity())?;
        Some(spare.swap_remove(at))
    }

    /// An empty output buffer for exactly `n` entries.
    fn buffer(&self, n: usize) -> List<D::V> {
        self.spare(n).unwrap_or_else(|| Vec::with_capacity(n))
    }
}

impl<D: CostDomain> PlanAlgebra for Algebra<'_, D> {
    type L = List<D::V>;

    fn empty(&self) -> Self::L {
        Vec::new()
    }

    /// `fetch` (Section 6.4): a label's posting list, decoded once, every
    /// node seeded with the domain's starting value.
    fn fetch(&self, label: &str, ty: NodeType, is_leaf: bool) -> Self::L {
        let Some(id) = self.interner.get(label) else {
            return self.empty();
        };
        let seed = self.domain.seed(id, is_leaf);
        self.fetches.set(self.fetches.get() + 1);
        let postings = self.index.fetch(ty, id);
        let mut list = self.buffer(postings.len());
        list.extend(postings.into_iter().map(|p| (p, seed.clone())));
        self.done(Metric::ListFetchOps, list)
    }

    /// The deferred edge cost of an `or` branch.
    fn shift(&self, l: &Self::L, cost: Cost) -> Self::L {
        let mut out = self.buffer(l.len());
        out.extend_from_slice(l);
        if cost != Cost::ZERO {
            for (_, v) in &mut out {
                self.domain.shift(v, cost);
            }
        }
        // A pass-through: its entries are counted where they are produced.
        self.domain.record(Metric::ListShiftOps, 0);
        out
    }

    /// `merge` (Section 6.4): the lists of an original label and of all
    /// its renamings, in one walk; each renamed list pays its rename
    /// cost. (Two labels meet on one node only in schema lists: two words
    /// sharing a text class.)
    fn merge(&self, first: &Self::L, renamed: &[(&Self::L, Cost)]) -> Self::L {
        let mut lists = vec![(first.as_slice(), Cost::ZERO)];
        lists.extend(renamed.iter().map(|&(l, c)| (l.as_slice(), c)));
        let out = self.buffer(lists.iter().map(|(l, _)| l.len()).sum());
        self.done(Metric::ListMergeOps, either(&self.domain, &lists, out))
    }

    /// `join`: every ancestor that has a descendant, with
    /// `distance + cost(d)` of its best descendants.
    fn join(&self, anc: &Self::L, desc: &Self::L) -> Self::L {
        let out = self.spare(anc.len()).unwrap_or_default();
        let out = interval(&self.domain, anc, desc, Cost::INFINITY, out);
        self.done(Metric::ListJoinOps, out)
    }

    /// `outerjoin`: `join` where deleting the leaf below the ancestor at
    /// cost `delcost` is one more alternative, so with a finite `delcost`
    /// every ancestor survives.
    fn outerjoin(&self, anc: &Self::L, desc: &Self::L, delcost: Cost) -> Self::L {
        let out = self.spare(anc.len()).unwrap_or_default();
        let out = interval(&self.domain, anc, desc, delcost, out);
        self.done(Metric::ListOuterjoinOps, out)
    }

    fn intersect(&self, l: &Self::L, r: &Self::L) -> Self::L {
        let out = self.spare(l.len().min(r.len())).unwrap_or_default();
        self.done(Metric::ListIntersectOps, both(&self.domain, l, r, out))
    }

    /// `union`: the two branches of an `or` below the same ancestors,
    /// so mostly the same nodes.
    fn union(&self, l: &Self::L, r: &Self::L) -> Self::L {
        let lists = [(l.as_slice(), Cost::ZERO), (r.as_slice(), Cost::ZERO)];
        let out = either(&self.domain, &lists, self.buffer(l.len().max(r.len())));
        self.done(Metric::ListUnionOps, out)
    }

    /// Keeps `l`'s buffer, emptied, for a later output of this query.
    fn recycle(&self, mut l: Self::L) {
        l.clear();
        if l.capacity() > 0 {
            self.spare.borrow_mut().push(l);
        }
    }
}

/// `sort` (Section 6.4): the best `n` root–cost pairs, ranked by the
/// selected channel, ties broken by preorder number. `None` returns all
/// (finite-cost) pairs — the `n = ∞` case of the experiments.
pub fn sort_best(
    n: Option<usize>,
    list: &[(Posting, Channels)],
    use_leaf_channel: bool,
) -> Vec<(u32, Cost)> {
    let mut pairs: Vec<(u32, Cost)> = list
        .iter()
        .map(|(node, v)| (node.pre, if use_leaf_channel { v.leaf } else { v.any }))
        .filter(|(_, c)| c.is_finite())
        .collect();
    // Top-n selection: partition the n best pairs to the front in O(len),
    // then sort only those. (cost, pre) is a total order over distinct
    // preorders, so the outcome is identical to a full sort + truncate —
    // including the deterministic preorder tie-break.
    match n {
        Some(n) if n > 0 && n < pairs.len() => {
            pairs.select_nth_unstable_by(n - 1, |a, b| (a.1, a.0).cmp(&(b.1, b.0)));
            pairs.truncate(n);
            pairs.sort_by_key(|&(pre, c)| (c, pre));
        }
        Some(0) => pairs.clear(),
        _ => pairs.sort_by_key(|&(pre, c)| (c, pre)),
    }
    TwoChannel.record(Metric::ListSortOps, pairs.len());
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::{Candidate, CandidateStream, KBest};
    use std::rc::Rc;

    type DataList = List<Channels>;

    fn posting(pre: u32, bound: u32, pathcost: u64, inscost: u64) -> Posting {
        Posting {
            pre,
            bound,
            pathcost: Cost::finite(pathcost),
            inscost: Cost::finite(inscost),
        }
    }

    fn e(
        pre: u32,
        bound: u32,
        pathcost: u64,
        inscost: u64,
        any: u64,
        leaf: Option<u64>,
    ) -> (Posting, Channels) {
        let v = Channels {
            any: Cost::finite(any),
            leaf: leaf.map(Cost::finite).unwrap_or(Cost::INFINITY),
        };
        (posting(pre, bound, pathcost, inscost), v)
    }

    /// The data algebra over an empty index.
    fn alg() -> Algebra<'static, TwoChannel> {
        static EMPTY: std::sync::OnceLock<(LabelIndex, Interner)> = std::sync::OnceLock::new();
        let (index, interner) = EMPTY.get_or_init(Default::default);
        Algebra::new(index, interner, TwoChannel)
    }

    fn join(anc: &DataList, desc: &DataList) -> DataList {
        alg().join(anc, desc)
    }

    fn outerjoin(anc: &DataList, desc: &DataList, c_del: Cost) -> DataList {
        alg().outerjoin(anc, desc, c_del)
    }

    /// A k-best value: the `k` cheapest of `v`, ties in `v`'s order.
    fn best(k: usize, mut v: Vec<Candidate>) -> Vec<Candidate> {
        v.sort_by_key(|c| c.cost);
        v.truncate(k);
        v
    }

    fn pres<V>(l: &[(Posting, V)]) -> Vec<u32> {
        l.iter().map(|(n, _)| n.pre).collect()
    }

    #[test]
    fn fetch_decodes_the_list_with_the_seed() {
        // 300 postings in one compressed run.
        let postings: Vec<Posting> = (0..300)
            .map(|i| posting(i * 10 + 1, i * 10 + 6, 1, 0))
            .collect();
        let mut interner = Interner::default();
        let label = interner.intern("a");
        let mut index = LabelIndex::default();
        index.insert_posting(NodeType::Struct, label, postings.clone());
        let alg = Algebra::new(&index, &interner, TwoChannel);
        for is_leaf in [false, true] {
            let seed = TwoChannel.seed(label, is_leaf);
            let want: DataList = postings.iter().map(|&p| (p, seed)).collect();
            assert_eq!(alg.fetch("a", NodeType::Struct, is_leaf), want);
        }
        assert!(alg.fetch("a", NodeType::Text, true).is_empty());
        assert!(alg.fetch("b", NodeType::Struct, true).is_empty());
    }

    #[test]
    fn spare_buffers_serve_later_outputs_and_die_with_the_algebra() {
        let spares = |alg: &Algebra<'_, TwoChannel>| {
            alg.spare
                .borrow()
                .iter()
                .map(Vec::capacity)
                .collect::<Vec<_>>()
        };
        let l: DataList = (0..100).map(|i| e(i, i, 0, 1, 0, Some(0))).collect();
        let half = l[..50].to_vec();
        {
            let query = alg();
            let hundred = query.shift(&l, Cost::ZERO);
            let at = hundred.as_ptr();
            query.recycle(hundred);
            query.recycle(Vec::with_capacity(200));
            query.recycle(Vec::with_capacity(10));
            assert_eq!(spares(&query), [100, 200, 10]);
            // Another query's algebra sees none of them.
            let other = alg();
            assert!(spares(&other).is_empty());
            let elsewhere = other.shift(&half, Cost::ZERO);
            assert_ne!(elsewhere.as_ptr(), at);
            // 50 entries take the smallest buffer that holds them.
            let out = query.shift(&half, Cost::finite(1));
            assert_eq!(out.as_ptr(), at);
            assert_eq!(out.len(), 50);
            assert!(out.iter().all(|(_, v)| v.any == Cost::finite(1)));
            assert_eq!(spares(&query), [10, 200]);
            // No spare holds 300 entries: a new buffer.
            assert_eq!(
                query.merge(&l, &[(&l, Cost::ZERO), (&l, Cost::ZERO)]).len(),
                100
            );
            assert_eq!(spares(&query), [10, 200]);
        }
        // The buffers went with their algebra: a later query starts
        // without them.
        assert!(spares(&alg()).is_empty());
    }

    #[test]
    fn shift_adds_to_both_channels() {
        let l = vec![e(1, 1, 0, 1, 2, Some(3)), e(2, 2, 0, 1, 2, None)];
        let l = alg().shift(&l, Cost::finite(5));
        assert_eq!(l[0].1.any, Cost::finite(7));
        assert_eq!(l[0].1.leaf, Cost::finite(8));
        assert_eq!(l[1].1.leaf, Cost::INFINITY);
    }

    #[test]
    fn merge_interleaves_and_charges_renames() {
        let left = vec![e(1, 1, 0, 1, 0, Some(0)), e(5, 5, 0, 1, 0, Some(0))];
        let right = vec![e(3, 3, 0, 1, 0, Some(0))];
        let m = alg().merge(&left, &[(&right, Cost::finite(4))]);
        assert_eq!(pres(&m), vec![1, 3, 5]);
        assert_eq!(m[1].1.any, Cost::finite(4));
        assert_eq!(m[0].1.any, Cost::ZERO);
    }

    #[test]
    fn merge_equal_pre_takes_minimum() {
        let left = vec![e(2, 2, 0, 1, 7, Some(7))];
        let right = vec![e(2, 2, 0, 1, 1, Some(1))];
        let m = alg().merge(&left, &[(&right, Cost::finite(3))]);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].1.any, Cost::finite(4)); // 1 + rename 3 < 7
    }

    // A small shape:
    //   a(pre 1, bound 9, pathcost 1, inscost 1)
    //     x(pre 2..)   d(pre 4, pathcost 3)
    //   a(pre 10, bound 12, pathcost 1, inscost 1)
    //     d(pre 12, pathcost 4)
    fn ancestors() -> DataList {
        vec![e(1, 9, 1, 1, 0, None), e(10, 12, 1, 1, 0, None)]
    }

    #[test]
    fn join_computes_distance_plus_cost() {
        let desc = vec![e(4, 4, 3, 1, 5, Some(7)), e(12, 12, 4, 1, 2, None)];
        let j = join(&ancestors(), &desc);
        assert_eq!(j.len(), 2);
        // distance = pathcost(d) - pathcost(a) - inscost(a) = 3 - 1 - 1 = 1
        assert_eq!(j[0].1.any, Cost::finite(1 + 5));
        assert_eq!(j[0].1.leaf, Cost::finite(1 + 7));
        // second ancestor: distance = 4 - 2 = 2
        assert_eq!(j[1].1.any, Cost::finite(2 + 2));
        assert_eq!(j[1].1.leaf, Cost::INFINITY);
    }

    #[test]
    fn join_drops_ancestors_without_descendants() {
        let desc = vec![e(4, 4, 3, 1, 0, Some(0))];
        assert_eq!(pres(&join(&ancestors(), &desc)), vec![1]);
    }

    #[test]
    fn join_picks_cheapest_descendant() {
        let desc = vec![e(2, 2, 3, 1, 9, Some(9)), e(4, 4, 3, 1, 1, Some(20))];
        let j = join(&ancestors(), &desc);
        // any channel: min(1+9, 1+1) = 2; leaf channel: min(1+9, 1+20) = 10.
        assert_eq!(j[0].1.any, Cost::finite(2));
        assert_eq!(j[0].1.leaf, Cost::finite(10));
    }

    #[test]
    fn join_handles_nested_ancestors() {
        // a(1..9) contains a(2..5); descendant at 4 must count for both,
        // descendant at 7 only for the outer.
        let anc = vec![e(1, 9, 0, 1, 0, None), e(2, 5, 1, 1, 0, None)];
        let desc = vec![e(4, 4, 2, 1, 0, Some(0)), e(7, 7, 1, 1, 10, Some(10))];
        let j = join(&anc, &desc);
        assert_eq!(j.len(), 2);
        // outer: min(dist(0->2)=1 + 0, dist(0->1)=0 + 10) = 1
        assert_eq!(j[0].1.any, Cost::finite(1));
        // inner: dist(1->2)=0 + 0 = 0
        assert_eq!(j[1].1.any, Cost::ZERO);
    }

    #[test]
    fn equal_pre_is_not_its_own_descendant() {
        let anc = vec![e(1, 9, 0, 1, 0, None)];
        let desc = vec![e(1, 9, 0, 1, 0, Some(0))];
        assert!(join(&anc, &desc).is_empty());
    }

    #[test]
    fn outerjoin_keeps_all_ancestors() {
        let desc = vec![e(4, 4, 3, 1, 0, Some(0))];
        let oj = outerjoin(&ancestors(), &desc, Cost::finite(6));
        assert_eq!(oj.len(), 2);
        // first: match (distance 1) beats deletion (6)
        assert_eq!(oj[0].1.any, Cost::finite(1));
        assert_eq!(oj[0].1.leaf, Cost::finite(1));
        // second: no descendant -> deletion
        assert_eq!(oj[1].1.any, Cost::finite(6));
        assert_eq!(oj[1].1.leaf, Cost::INFINITY);
    }

    #[test]
    fn outerjoin_prefers_deletion_when_cheaper() {
        let desc = vec![e(4, 4, 9, 1, 0, Some(0))]; // distance 7
        let oj = outerjoin(&ancestors(), &desc, Cost::finite(2));
        assert_eq!(oj[0].1.any, Cost::finite(2)); // delete
        assert_eq!(oj[0].1.leaf, Cost::finite(7)); // leaf channel can't delete
    }

    #[test]
    fn outerjoin_with_infinite_delcost_drops_unmatched() {
        let desc = vec![e(4, 4, 3, 1, 0, Some(0))];
        assert_eq!(
            pres(&outerjoin(&ancestors(), &desc, Cost::INFINITY)),
            vec![1]
        );
    }

    /// The paper's formulation taken literally, as the oracle for the
    /// structural merge: for every ancestor, rescan its descendant
    /// interval by binary search + linear scan (O(s·l)). A join is an
    /// outerjoin whose deletion alternative is unaffordable.
    fn outerjoin_paper<D: CostDomain>(
        dom: &D,
        ancestors: &[(Posting, D::V)],
        descendants: &[(Posting, D::V)],
        c_del: Cost,
    ) -> List<D::V> {
        let mut out = Vec::new();
        for a in ancestors {
            let start = descendants.partition_point(|(d, _)| d.pre <= a.0.pre);
            let mut acc = dom.open();
            for (j, d) in descendants.iter().enumerate().skip(start) {
                if d.0.pre > a.0.bound {
                    break;
                }
                dom.offer(&mut acc, j, d);
            }
            if let Some(v) = dom.close(a, acc, descendants, c_del) {
                out.push((a.0, v));
            }
        }
        out
    }

    /// The walk against the rescan over the same nodes, in both domains
    /// and at every deletion cost. A descendant is `(node, any, leaf)`.
    fn interval_agrees_with_rescan(nodes_a: &[Posting], nodes_d: &[(Posting, u64, Option<u64>)]) {
        let dels = [Cost::finite(1), Cost::finite(100), Cost::INFINITY];

        let anc: DataList = nodes_a
            .iter()
            .map(|&n| (n, TwoChannel.seed(LabelId(0), false)))
            .collect();
        let desc: DataList = nodes_d
            .iter()
            .map(|&(n, any, leaf)| e(n.pre, n.bound, n.pathcost.raw(), 1, any, leaf))
            .collect();
        for c_del in dels {
            assert_eq!(
                interval(&TwoChannel, &anc, &desc, c_del, Vec::new()),
                outerjoin_paper(&TwoChannel, &anc, &desc, c_del)
            );
        }

        // The same nodes with two or three candidates each (the leaf-less
        // alternative first on a cost tie), at caps that truncate.
        let cand = |cost: u64, has_leaf: bool| Candidate {
            cost: Cost::finite(cost),
            has_leaf,
            label: LabelId(1),
            children: Rc::new([]),
        };
        for k in [1, 2, 3, 64] {
            let dom = KBest { k };
            let anc: List<CandidateStream> = nodes_a
                .iter()
                .map(|&n| (n, dom.seed(LabelId(7), false)))
                .collect();
            let desc: List<CandidateStream> = nodes_d
                .iter()
                .map(|&(n, any, leaf)| {
                    let mut v = vec![cand(any, false), cand(any + 1, false)];
                    v.extend(leaf.map(|c| cand(c, true)));
                    (n, dom.value(best(k, v)))
                })
                .collect();
            for c_del in dels {
                let walked = interval(&dom, &anc, &desc, c_del, Vec::new());
                assert_eq!(walked, outerjoin_paper(&dom, &anc, &desc, c_del));
                assert!(walked.iter().all(|(_, v)| v.len() <= k));
            }
        }
    }

    #[test]
    fn interval_walk_agrees_with_the_paper_rescan_in_both_domains() {
        interval_agrees_with_rescan(
            &[
                posting(1, 20, 0, 1),
                posting(2, 9, 1, 1),
                posting(3, 6, 2, 1),
                posting(10, 15, 1, 2),
            ],
            &[
                (posting(4, 4, 4, 1), 2, Some(3)),
                (posting(5, 5, 3, 1), 9, None),
                (posting(8, 8, 2, 1), 0, Some(0)),
                (posting(12, 12, 5, 1), 1, Some(4)),
                (posting(18, 18, 1, 1), 7, Some(7)),
            ],
        );

        // Runs of descendants that no ancestor covers, long enough for the
        // skip to take several exponential steps: before the first
        // ancestor, between sibling ancestors (through an ancestor's own
        // node), and after the last one. The first descendant after each
        // skip is its ancestor's cheapest, so skipping one too many shows.
        let anc = [
            posting(10, 14, 0, 1),
            posting(25, 30, 0, 1),
            posting(31, 31, 0, 1),
            posting(40, 60, 0, 1),
            posting(41, 45, 1, 1),
        ];
        let after_skip = [11, 26, 41];
        let covered = [12, 14, 30, 42, 43, 50];
        let uncovered = (1..=9).chain(15..=25).chain(31..=39).chain(61..=75);
        let mut pres: Vec<u32> = uncovered.chain(after_skip).chain(covered).collect();
        pres.sort_unstable();
        let desc: Vec<(Posting, u64, Option<u64>)> = pres
            .iter()
            .map(|&pre| {
                let node = posting(pre, pre, 3, 1);
                if after_skip.contains(&pre) {
                    (node, 0, Some(0))
                } else {
                    (node, 2 + u64::from(pre % 3), (pre % 2 == 0).then_some(4))
                }
            })
            .collect();
        interval_agrees_with_rescan(&anc, &desc);
    }

    /// The two-list merge the n-ary walk replaced, as its oracle: `right`'s
    /// values pay `c_right`, and a node of both takes `left`'s first.
    fn merge_two<D: CostDomain>(
        dom: &D,
        left: &[(Posting, D::V)],
        right: &[(Posting, D::V)],
        c_right: Cost,
    ) -> List<D::V> {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < left.len() || j < right.len() {
            let order = match (left.get(i), right.get(j)) {
                (Some(a), Some(b)) => a.0.pre.cmp(&b.0.pre),
                (Some(_), None) => Ordering::Less,
                _ => Ordering::Greater,
            };
            let right_paid = || paid(dom, &right[j].1, c_right);
            out.push(match order {
                Ordering::Less => left[i].clone(),
                Ordering::Greater => (right[j].0, right_paid()),
                Ordering::Equal => (left[i].0, dom.either(left[i].1.clone(), right_paid())),
            });
            i += usize::from(order != Ordering::Greater);
            j += usize::from(order != Ordering::Less);
        }
        out
    }

    /// The n-ary walk against a left fold of two-list merges.
    fn either_agrees_with_fold<D: CostDomain>(dom: &D, lists: &[(List<D::V>, Cost)])
    where
        D::V: PartialEq + std::fmt::Debug,
    {
        let walked: Vec<Paying<'_, D::V>> = lists.iter().map(|(l, c)| (&l[..], *c)).collect();
        let folded = lists
            .iter()
            .fold(Vec::new(), |acc, (l, c)| merge_two(dom, &acc, l, *c));
        assert_eq!(either(dom, &walked, Vec::new()), folded);
    }

    #[test]
    fn either_is_a_fold_of_two_list_merges_in_both_domains() {
        // A small linear congruential generator: the cases are the same
        // on every run.
        let mut state = 0x2002_u64;
        let mut draw = |below: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % below
        };
        let costs = [Cost::ZERO, Cost::finite(1), Cost::finite(3)];
        for case in 0..300 {
            // Up to six lists over 30 nodes; a density of 0 leaves a list
            // empty, and case 0 has no list at all.
            let count = if case == 0 { 0 } else { 1 + draw(6) as usize };
            let mut data = Vec::new();
            let mut schema = Vec::new();
            let k = 1 + draw(4) as usize;
            for i in 0..count {
                let density = [0, 2, 5, 9][draw(4) as usize];
                let c = costs[draw(3) as usize];
                let (mut d, mut s) = (Vec::new(), Vec::new());
                for pre in 0..30 {
                    if draw(10) >= density {
                        continue;
                    }
                    let any = draw(4);
                    let leaf = (draw(2) == 0).then(|| any + draw(3));
                    d.push(e(pre, pre, 0, 1, any, leaf));
                    // Costs drawn from 0..3 tie often; the label tells the
                    // lists apart.
                    let candidates = (0..1 + draw(3))
                        .map(|_| Candidate {
                            cost: Cost::finite(draw(3)),
                            has_leaf: draw(2) == 0,
                            label: LabelId(i as u32),
                            children: Rc::new([]),
                        })
                        .collect();
                    s.push((
                        posting(pre, pre, 0, 1),
                        KBest { k }.value(best(k, candidates)),
                    ));
                }
                data.push((d, c));
                schema.push((s, c));
            }
            either_agrees_with_fold(&TwoChannel, &data);
            either_agrees_with_fold(&KBest { k }, &schema);
        }

        // One node in three lists, every candidate at cost 1 once paid:
        // the cap keeps the first two lists' candidates, in input order.
        let one = |cost: u64, label: u32| {
            let v = vec![Candidate {
                cost: Cost::finite(cost),
                has_leaf: true,
                label: LabelId(label),
                children: Rc::new([]),
            }];
            vec![(posting(5, 5, 0, 1), KBest { k: 2 }.value(v))]
        };
        let lists = [
            (one(1, 0), Cost::ZERO),
            (one(0, 1), Cost::finite(1)),
            (one(1, 2), Cost::ZERO),
        ];
        let dom = KBest { k: 2 };
        either_agrees_with_fold(&dom, &lists);
        let walked: Vec<Paying<'_, CandidateStream>> =
            lists.iter().map(|(l, c)| (&l[..], *c)).collect();
        let labels: Vec<LabelId> = either(&dom, &walked, Vec::new())[0]
            .1
            .iter()
            .map(|c| c.label)
            .collect();
        assert_eq!(labels, [LabelId(0), LabelId(1)]);
    }

    #[test]
    fn intersect_requires_both_sides() {
        let l = vec![e(1, 1, 0, 1, 2, Some(2)), e(3, 3, 0, 1, 1, None)];
        let r = vec![e(3, 3, 0, 1, 4, Some(6)), e(5, 5, 0, 1, 0, Some(0))];
        let x = alg().intersect(&l, &r);
        assert_eq!(pres(&x), vec![3]);
        assert_eq!(x[0].1.any, Cost::finite(5));
        // leaf: min(inf + 4, 1 + 6) = 7
        assert_eq!(x[0].1.leaf, Cost::finite(7));
    }

    #[test]
    fn union_takes_minimum_on_overlap() {
        let l = vec![e(1, 1, 0, 1, 2, Some(2))];
        let r = vec![e(1, 1, 0, 1, 1, None), e(4, 4, 0, 1, 3, Some(3))];
        let u = alg().union(&l, &r);
        assert_eq!(u.len(), 2);
        assert_eq!(u[0].1.any, Cost::finite(1)); // min(2,1)
        assert_eq!(u[0].1.leaf, Cost::finite(2)); // min(2,inf)
        assert_eq!(u[1].1.any, Cost::finite(3));
    }

    #[test]
    fn sort_best_ranks_by_cost_then_pre() {
        let l = vec![
            e(5, 5, 0, 1, 3, Some(3)),
            e(1, 1, 0, 1, 3, Some(5)),
            e(9, 9, 0, 1, 1, None),
        ];
        // leaf channel: entry 9 filtered (infinite), tie between costs.
        let top = sort_best(None, &l, true);
        assert_eq!(top, vec![(5, Cost::finite(3)), (1, Cost::finite(5))]);
        // any channel: 9 is cheapest.
        let top = sort_best(Some(2), &l, false);
        assert_eq!(top, vec![(9, Cost::finite(1)), (1, Cost::finite(3))]);
    }

    #[test]
    fn sort_best_truncates() {
        let l = vec![e(1, 1, 0, 1, 1, Some(1)), e(2, 2, 0, 1, 2, Some(2))];
        assert_eq!(sort_best(Some(1), &l, true).len(), 1);
        assert_eq!(sort_best(Some(0), &l, true).len(), 0);
    }

    #[test]
    fn empty_lists_everywhere() {
        let empty: DataList = vec![];
        let some = vec![e(1, 1, 0, 1, 0, Some(0))];
        assert!(join(&empty, &some).is_empty());
        assert!(join(&some, &empty).is_empty());
        assert!(alg().intersect(&vec![], &some.clone()).is_empty());
        assert_eq!(alg().union(&vec![], &some.clone()).len(), 1);
        let merged = alg().merge(&vec![], &[(&some, Cost::ZERO)]);
        assert_eq!(merged.len(), 1);
        assert_eq!(outerjoin(&some, &empty, Cost::finite(1)).len(), 1);
    }
}
