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
//! `interval` is a *structural merge*: both operands are
//! preorder-sorted, so the descendants of each ancestor form a contiguous
//! interval. A stack of currently open ancestors is maintained; each
//! descendant updates only the innermost open ancestor, and what an
//! ancestor collected is folded into the enclosing one when it closes.
//! This makes the join O(|A| + |D|) amortised — the paper's O(s·l) bound
//! is a safe upper bound for the same scheme (the unit tests keep a
//! literal O(s·l) rescan as the oracle, for both domains).
//!
//! [`Algebra`] is the backend a compiled plan executes against
//! ([`approxql_plan::PlanAlgebra`]). Its operands are [`LazyList`]s: a
//! fetched data list stays in compressed frames, and `join`, `outerjoin`
//! and `intersect` decode only the frames that can contribute before
//! they run the shared walk (DESIGN.md §14.2).

use approxql_index::codec::{BlockList, BLOCK_SIZE};
use approxql_index::{LabelIndex, Posting};
use approxql_metrics::Metric;
use approxql_plan::PlanAlgebra;
use approxql_tree::{Cost, Interner, LabelId, NodeType};
use std::borrow::Cow;
use std::cmp::Ordering;

/// A preorder-sorted list (strictly increasing `pre`): one value per node.
pub type List<V> = Vec<(Posting, V)>;

/// What a list keeps per node and how the operators combine it. The
/// walks of this module own the list order and the node numbers; a
/// domain only ever sees values.
pub trait CostDomain {
    /// The per-node value.
    type V: Clone;
    /// What an open ancestor has collected from its descendant interval.
    type Acc;
    /// Whether fetched lists stay compressed so that the structural
    /// operators can skip frames. Schema lists are short and are decoded
    /// where they are fetched.
    const SKIPS_FRAMES: bool;

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
    const SKIPS_FRAMES: bool = true;

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

/// Nodes of either list; a node of both takes the domain's alternative of
/// its two values. Values from `right` pay `c_right` first (`merge`: the
/// rename cost; `union`: nothing). `expected` sizes the output: operator
/// outputs live until the plan ends, so over-allocation is resident
/// memory.
fn either<D: CostDomain>(
    dom: &D,
    left: &[(Posting, D::V)],
    right: &[(Posting, D::V)],
    c_right: Cost,
    expected: usize,
) -> List<D::V> {
    debug_check_sorted(left);
    debug_check_sorted(right);
    let paid = |v: &D::V| {
        let mut v = v.clone();
        if c_right != Cost::ZERO {
            dom.shift(&mut v, c_right);
        }
        v
    };
    let mut out = Vec::with_capacity(expected);
    let (mut i, mut j) = (0, 0);
    loop {
        let order = match (left.get(i), right.get(j)) {
            (Some(a), Some(b)) => a.0.pre.cmp(&b.0.pre),
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
            Ordering::Less => left[i - 1].clone(),
            Ordering::Greater => (right[j - 1].0, paid(&right[j - 1].1)),
            Ordering::Equal => {
                let (node, a) = left[i - 1].clone();
                (node, dom.either(a, paid(&right[j - 1].1)))
            }
        });
    }
    out
}

/// Nodes present in both lists, with the domain's conjunction of their
/// two values.
fn both<D: CostDomain>(dom: &D, left: &[(Posting, D::V)], right: &[(Posting, D::V)]) -> List<D::V> {
    debug_check_sorted(left);
    debug_check_sorted(right);
    let mut out = Vec::new();
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

/// Every ancestor with what the domain makes of its descendant interval
/// (`join`; with a finite `c_del`, `outerjoin`).
fn interval<D: CostDomain>(
    dom: &D,
    ancestors: &[(Posting, D::V)],
    descendants: &[(Posting, D::V)],
    c_del: Cost,
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
            if let Some((top, acc)) = stack.last_mut() {
                if ancestors[*top].0.pre < d.0.pre {
                    dom.offer(acc, j, d);
                }
            }
            j += 1;
        } else {
            close_until(&mut stack, &mut collected, ancestors[i].0.pre);
            stack.push((i, dom.open()));
            i += 1;
        }
    }
    close_until(&mut stack, &mut collected, u32::MAX);
    ancestors
        .iter()
        .zip(collected)
        .filter_map(|(a, acc)| Some((a.0, dom.close(a, acc, descendants, c_del)?)))
        .collect()
}

fn weight<D: CostDomain>(l: &[(Posting, D::V)]) -> usize {
    l.iter().map(|(_, v)| D::weight(v)).sum()
}

/// A list that is either materialized or still sitting in compressed
/// frames (a fetched posting list that no operator has decoded yet).
#[derive(Debug, Clone)]
pub enum LazyList<'a, V> {
    /// A compressed posting list straight from the label index.
    Blocks {
        /// The compressed frames.
        blocks: &'a BlockList,
        /// The value every decoded node starts with.
        seed: V,
    },
    /// A materialized list (every operator output).
    Mat(List<V>),
}

impl<V: Clone> LazyList<'_, V> {
    /// Number of nodes (from the skip headers when compressed).
    pub fn len(&self) -> usize {
        match self {
            LazyList::Blocks { blocks, .. } => blocks.entry_count(),
            LazyList::Mat(l) => l.len(),
        }
    }

    /// True when the list holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The materialized list: borrows a `Mat`, decodes all frames of a
    /// `Blocks`.
    pub fn force(&self) -> Cow<'_, List<V>> {
        match self {
            LazyList::Blocks { blocks, seed } => Cow::Owned(decode_frames(blocks, seed, |_| true)),
            LazyList::Mat(l) => Cow::Borrowed(l),
        }
    }
}

/// Decodes the frames of `blocks` selected by `keep` (a predicate over
/// frame indices); rejected frames count as skipped.
fn decode_frames<V: Clone>(
    blocks: &BlockList,
    seed: &V,
    mut keep: impl FnMut(usize) -> bool,
) -> List<V> {
    let mut out = Vec::new();
    let mut buf: Vec<Posting> = Vec::with_capacity(BLOCK_SIZE);
    for i in 0..blocks.headers().len() {
        if !keep(i) {
            Metric::PostingsBlocksSkipped.incr();
            continue;
        }
        buf.clear();
        blocks.decode_block_into(i, &mut buf);
        out.extend(buf.iter().map(|p| (*p, seed.clone())));
    }
    out
}

/// The ancestor envelope `(min pre, max bound)`: descendants with a
/// preorder number outside `(min, max]` fall in no ancestor's interval.
/// Computed from the skip headers when the list is compressed. The empty
/// list yields `(u32::MAX, 0)`, which rejects everything.
fn ancestor_envelope<V>(anc: &LazyList<V>) -> (u32, u32) {
    let (first, max_bound) = match anc {
        LazyList::Blocks { blocks, .. } => {
            let hs = blocks.headers();
            (
                hs.first().map(|h| h.min_pre),
                hs.iter().map(|h| h.max_bound).max(),
            )
        }
        LazyList::Mat(l) => (
            l.first().map(|(n, _)| n.pre),
            l.iter().map(|(n, _)| n.bound).max(),
        ),
    };
    (first.unwrap_or(u32::MAX), max_bound.unwrap_or(0))
}

/// Materializes `x`, skipping compressed frames whose `[min_pre,
/// max_pre]` range cannot overlap any node (or frame) of `other`.
fn decode_overlapping<'x, V: Clone>(
    x: &'x LazyList<'_, V>,
    other: &LazyList<'_, V>,
) -> Cow<'x, List<V>> {
    let LazyList::Blocks { blocks, seed } = x else {
        return x.force();
    };
    let hs = blocks.headers();
    // `min_pre` grows across frames, so the probe into `other` never
    // moves backwards (a single forward gallop overall).
    let mut from = 0usize;
    Cow::Owned(match other {
        LazyList::Mat(l) => decode_frames(blocks, seed, |i| {
            from += l[from..].partition_point(|(n, _)| n.pre < hs[i].min_pre);
            from < l.len() && l[from].0.pre <= hs[i].max_pre
        }),
        LazyList::Blocks { blocks: ob, .. } => {
            let os = ob.headers();
            decode_frames(blocks, seed, |i| {
                from += os[from..].partition_point(|h| h.max_pre < hs[i].min_pre);
                from < os.len() && os[from].min_pre <= hs[i].max_pre
            })
        }
    })
}

/// The list algebra over one label index in one cost domain: the backend
/// a compiled plan executes against — [`TwoChannel`] over the data
/// indexes for the direct evaluation, [`crate::topk::KBest`] over the
/// schema's for the adapted `primary`. Every operator output is
/// materialized, so laziness never nests.
pub struct Algebra<'a, D> {
    /// The label index `fetch` reads.
    pub index: &'a LabelIndex,
    /// Resolves the plan's label strings.
    pub interner: &'a Interner,
    /// The cost domain of the lists.
    pub domain: D,
}

impl<'a, D: CostDomain> Algebra<'a, D> {
    fn done(&self, op: Metric, out: List<D::V>) -> LazyList<'a, D::V> {
        self.domain.record(op, weight::<D>(&out));
        LazyList::Mat(out)
    }

    /// `join` and `outerjoin` behind their frame pre-filter.
    fn structural(
        &self,
        op: Metric,
        ancestors: &LazyList<'a, D::V>,
        descendants: &LazyList<'a, D::V>,
        c_del: Cost,
    ) -> LazyList<'a, D::V> {
        // Descendant frames wholly outside the ancestor envelope
        // contribute to no interval: skip them. (Any witness descendant
        // of a kept ancestor frame lies inside the envelope, so this
        // never starves the ancestor test below.)
        let desc = match descendants {
            LazyList::Blocks { blocks, seed } => {
                let (lo, hi) = ancestor_envelope(ancestors);
                let hs = blocks.headers();
                Cow::Owned(decode_frames(blocks, seed, |i| {
                    hs[i].max_pre > lo && hs[i].min_pre <= hi
                }))
            }
            LazyList::Mat(l) => Cow::Borrowed(l),
        };
        // When unmatched ancestors are dropped anyway (`join`, or an
        // `outerjoin` whose deletion is forbidden), skip ancestor frames
        // with no descendant in `(min_pre, max_bound]`: every ancestor of
        // such a frame collects nothing and would be dropped. Enclosing
        // ancestors outside the frame are unaffected — collections fold
        // upward transitively, not through intermediate entries. With a
        // finite deletion cost every ancestor survives and is decoded.
        let anc = match ancestors {
            LazyList::Blocks { blocks, seed } if !c_del.is_finite() => {
                let hs = blocks.headers();
                let mut from = 0usize;
                Cow::Owned(decode_frames(blocks, seed, |i| {
                    from += desc[from..].partition_point(|(d, _)| d.pre <= hs[i].min_pre);
                    from < desc.len() && desc[from].0.pre <= hs[i].max_bound
                }))
            }
            other => other.force(),
        };
        self.done(op, interval(&self.domain, &anc, &desc, c_del))
    }
}

impl<'a, D: CostDomain> PlanAlgebra for Algebra<'a, D> {
    type L = LazyList<'a, D::V>;

    fn empty(&self) -> Self::L {
        LazyList::Mat(Vec::new())
    }

    /// `fetch` (Section 6.4): a list from an index posting. The logical
    /// entry count is known from the skip headers, undecoded.
    fn fetch(&self, label: &str, ty: NodeType, is_leaf: bool) -> Self::L {
        let Some(id) = self.interner.get(label) else {
            return self.empty();
        };
        let seed = self.domain.seed(id, is_leaf);
        let blocks = self.index.fetch_blocks(ty, id);
        self.domain.record(
            Metric::ListFetchOps,
            blocks.entry_count() * D::weight(&seed),
        );
        let list = LazyList::Blocks { blocks, seed };
        if D::SKIPS_FRAMES {
            list
        } else {
            LazyList::Mat(list.force().into_owned())
        }
    }

    /// The deferred edge cost of an `or` branch.
    fn shift(&self, l: &Self::L, cost: Cost) -> Self::L {
        let mut out = l.force().into_owned();
        if cost != Cost::ZERO {
            for (_, v) in &mut out {
                self.domain.shift(v, cost);
            }
        }
        // A pass-through: its entries are counted where they are produced.
        self.domain.record(Metric::ListShiftOps, 0);
        LazyList::Mat(out)
    }

    /// `merge` (Section 6.4): the lists of an original label and one of
    /// its renamings; `r` pays the rename cost. (Two labels meet on one
    /// node only in schema lists: two words sharing a text class.)
    fn merge(&self, l: &Self::L, r: &Self::L, c_ren: Cost) -> Self::L {
        let (l, r) = (l.force(), r.force());
        let out = either(&self.domain, &l, &r, c_ren, l.len() + r.len());
        self.done(Metric::ListMergeOps, out)
    }

    /// `join`: every ancestor that has a descendant, with
    /// `distance + cost(d)` of its best descendants.
    fn join(&self, anc: &Self::L, desc: &Self::L) -> Self::L {
        self.structural(Metric::ListJoinOps, anc, desc, Cost::INFINITY)
    }

    /// `outerjoin`: `join` where deleting the leaf below the ancestor at
    /// cost `delcost` is one more alternative, so with a finite `delcost`
    /// every ancestor survives.
    fn outerjoin(&self, anc: &Self::L, desc: &Self::L, delcost: Cost) -> Self::L {
        self.structural(Metric::ListOuterjoinOps, anc, desc, delcost)
    }

    fn intersect(&self, l: &Self::L, r: &Self::L) -> Self::L {
        let (a, b) = (decode_overlapping(l, r), decode_overlapping(r, l));
        self.done(Metric::ListIntersectOps, both(&self.domain, &a, &b))
    }

    /// `union`: the two branches of an `or` below the same ancestors,
    /// so mostly the same nodes.
    fn union(&self, l: &Self::L, r: &Self::L) -> Self::L {
        let (l, r) = (l.force(), r.force());
        let out = either(&self.domain, &l, &r, Cost::ZERO, l.len().max(r.len()));
        self.done(Metric::ListUnionOps, out)
    }

    fn len(l: &Self::L) -> usize {
        match l {
            LazyList::Blocks { blocks, seed } => blocks.entry_count() * D::weight(seed),
            LazyList::Mat(l) => weight::<D>(l),
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
    use super::LazyList::Mat;
    use super::*;
    use crate::topk::{Candidate, KBest};

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
        Algebra {
            index,
            interner,
            domain: TwoChannel,
        }
    }

    fn own(l: LazyList<Channels>) -> DataList {
        l.force().into_owned()
    }

    fn join(anc: &DataList, desc: &DataList) -> DataList {
        own(alg().join(&Mat(anc.clone()), &Mat(desc.clone())))
    }

    fn outerjoin(anc: &DataList, desc: &DataList, c_del: Cost) -> DataList {
        own(alg().outerjoin(&Mat(anc.clone()), &Mat(desc.clone()), c_del))
    }

    fn pres<V>(l: &[(Posting, V)]) -> Vec<u32> {
        l.iter().map(|(n, _)| n.pre).collect()
    }

    #[test]
    fn shift_adds_to_both_channels() {
        let l = vec![e(1, 1, 0, 1, 2, Some(3)), e(2, 2, 0, 1, 2, None)];
        let l = own(alg().shift(&Mat(l), Cost::finite(5)));
        assert_eq!(l[0].1.any, Cost::finite(7));
        assert_eq!(l[0].1.leaf, Cost::finite(8));
        assert_eq!(l[1].1.leaf, Cost::INFINITY);
    }

    #[test]
    fn merge_interleaves_and_charges_renames() {
        let left = vec![e(1, 1, 0, 1, 0, Some(0)), e(5, 5, 0, 1, 0, Some(0))];
        let right = vec![e(3, 3, 0, 1, 0, Some(0))];
        let m = own(alg().merge(&Mat(left), &Mat(right), Cost::finite(4)));
        assert_eq!(pres(&m), vec![1, 3, 5]);
        assert_eq!(m[1].1.any, Cost::finite(4));
        assert_eq!(m[0].1.any, Cost::ZERO);
    }

    #[test]
    fn merge_equal_pre_takes_minimum() {
        let left = vec![e(2, 2, 0, 1, 7, Some(7))];
        let right = vec![e(2, 2, 0, 1, 1, Some(1))];
        let m = own(alg().merge(&Mat(left), &Mat(right), Cost::finite(3)));
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

    #[test]
    fn interval_walk_agrees_with_the_paper_rescan_in_both_domains() {
        let nodes_a = [
            posting(1, 20, 0, 1),
            posting(2, 9, 1, 1),
            posting(3, 6, 2, 1),
            posting(10, 15, 1, 2),
        ];
        let nodes_d = [
            (posting(4, 4, 4, 1), 2, Some(3)),
            (posting(5, 5, 3, 1), 9, None),
            (posting(8, 8, 2, 1), 0, Some(0)),
            (posting(12, 12, 5, 1), 1, Some(4)),
            (posting(18, 18, 1, 1), 7, Some(7)),
        ];
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
                interval(&TwoChannel, &anc, &desc, c_del),
                outerjoin_paper(&TwoChannel, &anc, &desc, c_del)
            );
        }

        // The same nodes with two or three candidates each (the leaf-less
        // alternative first on a cost tie), at caps that truncate.
        let cand = |cost: u64, has_leaf: bool| Candidate {
            cost: Cost::finite(cost),
            has_leaf,
            label: LabelId(1),
            children: Vec::new(),
        };
        for k in [1, 2, 3, 64] {
            let dom = KBest { k };
            let anc: List<Vec<Candidate>> = nodes_a
                .iter()
                .map(|&n| (n, dom.seed(LabelId(7), false)))
                .collect();
            let desc: List<Vec<Candidate>> = nodes_d
                .iter()
                .map(|&(n, any, leaf)| {
                    let mut v = vec![cand(any, false), cand(any + 1, false)];
                    v.extend(leaf.map(|c| cand(c, true)));
                    (n, dom.either(Vec::new(), v))
                })
                .collect();
            for c_del in dels {
                let walked = interval(&dom, &anc, &desc, c_del);
                assert_eq!(walked, outerjoin_paper(&dom, &anc, &desc, c_del));
                assert!(walked.iter().all(|(_, v)| v.len() <= k));
            }
        }
    }

    #[test]
    fn intersect_requires_both_sides() {
        let l = vec![e(1, 1, 0, 1, 2, Some(2)), e(3, 3, 0, 1, 1, None)];
        let r = vec![e(3, 3, 0, 1, 4, Some(6)), e(5, 5, 0, 1, 0, Some(0))];
        let x = own(alg().intersect(&Mat(l), &Mat(r)));
        assert_eq!(pres(&x), vec![3]);
        assert_eq!(x[0].1.any, Cost::finite(5));
        // leaf: min(inf + 4, 1 + 6) = 7
        assert_eq!(x[0].1.leaf, Cost::finite(7));
    }

    #[test]
    fn union_takes_minimum_on_overlap() {
        let l = vec![e(1, 1, 0, 1, 2, Some(2))];
        let r = vec![e(1, 1, 0, 1, 1, None), e(4, 4, 0, 1, 3, Some(3))];
        let u = own(alg().union(&Mat(l), &Mat(r)));
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
        assert!(own(alg().intersect(&Mat(vec![]), &Mat(some.clone()))).is_empty());
        assert_eq!(own(alg().union(&Mat(vec![]), &Mat(some.clone()))).len(), 1);
        let merged = own(alg().merge(&Mat(vec![]), &Mat(some.clone()), Cost::ZERO));
        assert_eq!(merged.len(), 1);
        assert_eq!(outerjoin(&some, &empty, Cost::finite(1)).len(), 1);
    }

    /// `n` disjoint sibling intervals, compressed: pre `i*10+1`, bound
    /// `i*10+6`.
    fn sibling_blocks(n: u32) -> BlockList {
        let postings: Vec<Posting> = (0..n)
            .map(|i| posting(i * 10 + 1, i * 10 + 6, 1, 0))
            .collect();
        BlockList::from_entries(&postings)
    }

    fn lazy(blocks: &BlockList, is_leaf: bool) -> LazyList<'_, Channels> {
        LazyList::Blocks {
            blocks,
            seed: TwoChannel.seed(LabelId(0), is_leaf),
        }
    }

    fn skipped_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
        let before = approxql_metrics::snapshot().get(Metric::PostingsBlocksSkipped);
        let r = f();
        let after = approxql_metrics::snapshot().get(Metric::PostingsBlocksSkipped);
        (r, after - before)
    }

    #[test]
    fn compressed_ancestors_join_like_decoded_ones_and_skip_frames() {
        // 300 ancestors span 3 compressed frames; descendants hit only a
        // few, so whole ancestor frames are skippable.
        let anc_blocks = sibling_blocks(300);
        let anc_decoded = lazy(&anc_blocks, false).force().into_owned();
        // All descendants land under ancestors of the first frame, so the
        // second and third ancestor frames have no witness and skip.
        let desc: DataList = [3u32, 5, 8]
            .iter()
            .map(|&i| e(i * 10 + 3, i * 10 + 3, 3, 1, 2, Some(4)))
            .collect();

        let (joined, skipped) =
            skipped_during(|| own(alg().join(&lazy(&anc_blocks, false), &Mat(desc.clone()))));
        assert_eq!(joined, join(&anc_decoded, &desc));
        assert_eq!(skipped, 2, "witness-free ancestor frames must skip");
        for c_del in [Cost::finite(2), Cost::INFINITY] {
            assert_eq!(
                own(alg().outerjoin(&lazy(&anc_blocks, false), &Mat(desc.clone()), c_del)),
                outerjoin(&anc_decoded, &desc, c_del)
            );
        }
    }

    #[test]
    fn compressed_descendant_frames_skip_outside_the_ancestor_envelope() {
        let desc_blocks = sibling_blocks(400);
        let desc_decoded = lazy(&desc_blocks, true).force().into_owned();
        // One narrow ancestor: every descendant frame outside (50, 80]
        // skips via the envelope. Descendant pathcost (1) covers ancestor
        // pathcost + inscost (0 + 1).
        let anc: DataList = vec![e(50, 80, 0, 1, 0, None)];
        let (joined, skipped) =
            skipped_during(|| own(alg().join(&Mat(anc.clone()), &lazy(&desc_blocks, true))));
        assert_eq!(joined, join(&anc, &desc_decoded));
        assert!(skipped > 0, "no descendant frame was skipped");
        // A finite deletion cost forces every ancestor through but still
        // envelope-skips descendants.
        assert_eq!(
            own(alg().outerjoin(
                &Mat(anc.clone()),
                &lazy(&desc_blocks, true),
                Cost::finite(3)
            )),
            outerjoin(&anc, &desc_decoded, Cost::finite(3))
        );
        // Empty-ancestor envelope rejects every descendant frame.
        assert!(own(alg().join(&Mat(vec![]), &lazy(&desc_blocks, true))).is_empty());
    }

    #[test]
    fn compressed_operands_intersect_like_decoded_ones_in_all_mixes() {
        let a_blocks = sibling_blocks(300);
        let b_blocks = sibling_blocks(40);
        let (la, lb) = (lazy(&a_blocks, true), lazy(&b_blocks, false));
        let ea = Mat(la.force().into_owned());
        let eb = Mat(lb.force().into_owned());
        let want = own(alg().intersect(&ea, &eb));
        assert!(!want.is_empty());
        assert_eq!(own(alg().intersect(&la, &lb)), want);
        assert_eq!(own(alg().intersect(&la, &eb)), want);
        assert_eq!(own(alg().intersect(&ea, &lb)), want);
        // Swapped operands: the same nodes, the leaf match on the other
        // side.
        assert_eq!(own(alg().intersect(&lb, &la)), want);
    }

    #[test]
    fn lazy_list_len_comes_from_headers() {
        let blocks = sibling_blocks(300);
        let l = lazy(&blocks, false);
        assert_eq!(l.len(), 300);
        assert!(!l.is_empty());
        assert_eq!(l.force().len(), 300);
        let empty = BlockList::default();
        assert!(lazy(&empty, false).is_empty());
        assert!(Mat::<Channels>(vec![]).is_empty());
    }
}
