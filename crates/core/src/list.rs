//! The list algebra of Sections 6.3 and 6.4.
//!
//! A [`List`] is a sequence of [`Entry`]s sorted by strictly increasing
//! preorder number. Each entry copies the four encoding numbers of its data
//! (or schema) node and carries the two embedding-cost channels (see the
//! crate docs for the leaf rule).
//!
//! The `join`/`outerjoin` operations are *structural merges*: both operand
//! lists are preorder-sorted, so the descendants of each ancestor form a
//! contiguous interval. A stack of currently open ancestors is maintained;
//! each descendant updates only the innermost open ancestor, and an
//! ancestor's accumulated minimum is folded into the enclosing one when it
//! closes. This makes the join O(|A| + |D|) amortised — the paper's
//! O(s·l) bound is a safe upper bound for the same scheme (the unit tests
//! keep a literal O(s·l) rescan as the oracle both joins are held to).

use approxql_index::codec::{BlockList, BLOCK_SIZE};
use approxql_index::{LabelIndex, Posting};
use approxql_metrics::Metric;
use approxql_tree::{Cost, LabelId, NodeType};
use std::borrow::Cow;

/// A list entry (Section 6.3): the four node numbers plus the two
/// embedding-cost channels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Preorder number of the node.
    pub pre: u32,
    /// Bound (largest preorder number in the node's subtree).
    pub bound: u32,
    /// Sum of ancestor insert costs.
    pub pathcost: Cost,
    /// Insert cost of the node itself.
    pub inscost: Cost,
    /// Best embedding cost of the query subtree below this node.
    pub cost_any: Cost,
    /// Best embedding cost among embeddings matching ≥ 1 original leaf.
    pub cost_leaf: Cost,
}

/// A preorder-sorted list of entries (strictly increasing `pre`).
pub type List = Vec<Entry>;

#[cfg(debug_assertions)]
fn debug_check_sorted(l: &List) {
    debug_assert!(
        l.windows(2).all(|w| w[0].pre < w[1].pre),
        "list entries must have strictly increasing preorder numbers"
    );
}

#[cfg(not(debug_assertions))]
fn debug_check_sorted(_: &List) {}

/// Counts one invocation of `op` plus the entries its output carries.
fn record_op(op: Metric, out: List) -> List {
    op.incr();
    record_entries(out)
}

fn record_entries(out: List) -> List {
    Metric::ListEntriesProduced.add(out.len() as u64);
    out
}

fn posting_entry(p: &Posting, is_leaf: bool) -> Entry {
    Entry {
        pre: p.pre,
        bound: p.bound,
        pathcost: p.pathcost,
        inscost: p.inscost,
        cost_any: Cost::ZERO,
        cost_leaf: if is_leaf { Cost::ZERO } else { Cost::INFINITY },
    }
}

/// `fetch` (Section 6.4): initializes a list from an index posting,
/// without decoding it — the compressed frames go to the lazy operators so
/// joins and intersections can skip whole blocks via the skip headers
/// (the logical entry count is known from the headers).
///
/// For leaf selectors the matched node *is* an original query leaf, so
/// both cost channels start at zero; for inner selectors the entries serve
/// as ancestor candidates whose costs are computed by the child evaluation,
/// and the leaf channel starts at infinity.
pub fn fetch_lazy<'a>(
    index: &'a LabelIndex,
    ty: NodeType,
    label: LabelId,
    is_leaf: bool,
) -> LazyList<'a> {
    let blocks = index.fetch_blocks(ty, label);
    Metric::ListFetchOps.incr();
    Metric::ListEntriesProduced.add(blocks.entry_count() as u64);
    LazyList::Blocks { blocks, is_leaf }
}

/// A list that is either materialized or still sitting in compressed
/// frames (a fetched posting list that no operator has decoded yet).
///
/// The lazy operators ([`join_lazy`], [`outerjoin_lazy`],
/// [`intersect_lazy`]) consult the skip headers of a `Blocks` operand and
/// decode only the frames that can contribute output; everything else
/// falls back to [`LazyList::force`] + the materialized operators.
/// Outputs and every `index.*`/`list.*` counter are identical to running
/// the materialized operators on fully decoded lists — only the
/// `postings.*` decode/skip traffic differs.
#[derive(Debug, Clone)]
pub enum LazyList<'a> {
    /// A compressed posting list straight from the label index.
    Blocks {
        /// The compressed frames.
        blocks: &'a BlockList,
        /// Leaf-rule channel initialization for decoded entries.
        is_leaf: bool,
    },
    /// A materialized list (every operator output).
    Mat(List),
}

impl LazyList<'_> {
    /// Logical entry count (from the skip headers when compressed).
    pub fn len(&self) -> usize {
        match self {
            LazyList::Blocks { blocks, .. } => blocks.entry_count(),
            LazyList::Mat(l) => l.len(),
        }
    }

    /// True when the list holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The materialized list: borrows a `Mat`, decodes all frames of a
    /// `Blocks`.
    pub fn force(&self) -> Cow<'_, List> {
        match self {
            LazyList::Blocks { blocks, is_leaf } => {
                Cow::Owned(decode_frames(blocks, *is_leaf, |_| true))
            }
            LazyList::Mat(l) => Cow::Borrowed(l),
        }
    }
}

/// Decodes the frames of `blocks` selected by `keep` (a predicate over
/// frame indices) into entries; rejected frames count as skipped.
fn decode_frames(blocks: &BlockList, is_leaf: bool, mut keep: impl FnMut(usize) -> bool) -> List {
    let mut out = Vec::new();
    let mut buf: Vec<Posting> = Vec::with_capacity(BLOCK_SIZE);
    for i in 0..blocks.headers().len() {
        if !keep(i) {
            Metric::PostingsBlocksSkipped.incr();
            continue;
        }
        buf.clear();
        blocks.decode_block_into(i, &mut buf);
        out.extend(buf.iter().map(|p| posting_entry(p, is_leaf)));
    }
    out
}

/// Adds `c` to both cost channels of every entry (the deferred `c_edge`).
pub fn shift(mut l: List, c: Cost) -> List {
    Metric::ListShiftOps.incr();
    if c != Cost::ZERO {
        for e in &mut l {
            e.cost_any += c;
            e.cost_leaf += c;
        }
    }
    l
}

/// `merge` (Section 6.4): combines the lists of an original label and one
/// of its renamings; entries from `right` pay the rename cost `c_ren`.
/// Entries are interleaved to keep the preorder sorting; equal preorder
/// numbers keep the cheaper channel values (relevant only for the schema
/// variant where two words share a text class — disjoint for data lists).
pub fn merge(left: &List, right: &List, c_ren: Cost) -> List {
    debug_check_sorted(left);
    debug_check_sorted(right);
    let mut out = Vec::with_capacity(left.len() + right.len());
    let (mut i, mut j) = (0, 0);
    while i < left.len() || j < right.len() {
        let take_left = match (left.get(i), right.get(j)) {
            (Some(a), Some(b)) => a.pre <= b.pre,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_left {
            let a = left[i];
            i += 1;
            if j < right.len() && right[j].pre == a.pre {
                let mut b = right[j];
                j += 1;
                b.cost_any += c_ren;
                b.cost_leaf += c_ren;
                out.push(Entry {
                    cost_any: a.cost_any.min(b.cost_any),
                    cost_leaf: a.cost_leaf.min(b.cost_leaf),
                    ..a
                });
            } else {
                out.push(a);
            }
        } else {
            let mut b = right[j];
            j += 1;
            b.cost_any += c_ren;
            b.cost_leaf += c_ren;
            out.push(b);
        }
    }
    record_op(Metric::ListMergeOps, out)
}

/// Shared machinery of `join` and `outerjoin`: for every ancestor in
/// `ancestors`, the minimum over its descendant interval of
/// `pathcost(d) + cost(d)` is computed per channel (a later subtraction of
/// `pathcost(a) + inscost(a)` turns it into `distance(a, d) + cost(d)`).
///
/// Returns one `(min_any_key, min_leaf_key)` pair per ancestor
/// ([`Cost::INFINITY`] when the interval is empty on that channel).
fn interval_minima(ancestors: &List, descendants: &List) -> Vec<(Cost, Cost)> {
    debug_check_sorted(ancestors);
    debug_check_sorted(descendants);
    let mut result = vec![(Cost::INFINITY, Cost::INFINITY); ancestors.len()];
    // Stack of open ancestors: (index, min_any_key, min_leaf_key).
    let mut stack: Vec<(usize, Cost, Cost)> = Vec::new();
    let (mut i, mut j) = (0, 0);

    // Close every open ancestor whose interval ends before `pre`.
    macro_rules! close_until {
        ($pre:expr) => {
            while let Some(&(top, any, leaf)) = stack.last() {
                if ancestors[top].bound >= $pre {
                    break;
                }
                stack.pop();
                result[top] = (any, leaf);
                if let Some(parent) = stack.last_mut() {
                    // The enclosing ancestor's interval contains everything
                    // the closed one saw: fold the minima upward.
                    parent.1 = parent.1.min(any);
                    parent.2 = parent.2.min(leaf);
                }
            }
        };
    }

    while i < ancestors.len() || j < descendants.len() {
        // On equal preorder numbers the descendant is processed first: a
        // node is not its own descendant, so it must not land in the
        // interval of an equal-pre ancestor (which is the same node).
        let descendant_turn = match (ancestors.get(i), descendants.get(j)) {
            (Some(a), Some(d)) => d.pre <= a.pre,
            (None, Some(_)) => true,
            _ => false,
        };
        if descendant_turn {
            let d = descendants[j];
            j += 1;
            close_until!(d.pre);
            if let Some(top) = stack.last_mut() {
                if ancestors[top.0].pre < d.pre {
                    top.1 = top.1.min(d.pathcost + d.cost_any);
                    top.2 = top.2.min(d.pathcost + d.cost_leaf);
                }
            }
        } else {
            let a = ancestors[i];
            close_until!(a.pre);
            stack.push((i, Cost::INFINITY, Cost::INFINITY));
            i += 1;
        }
    }
    close_until!(u32::MAX);
    result
}

fn finish_costs(a: &Entry, key: Cost) -> Cost {
    match key.value() {
        None => Cost::INFINITY,
        Some(_) => {
            let c = key
                .checked_sub(a.pathcost)
                .and_then(|c| c.checked_sub(a.inscost));
            debug_assert!(
                c.is_some(),
                "descendant pathcost covers ancestor pathcost + inscost"
            );
            // In release, an underflow (impossible by the interval-minima
            // invariant) degrades to an infinite cost, which the caller
            // drops, instead of a panic.
            c.unwrap_or(Cost::INFINITY)
        }
    }
}

/// Shared output loop of [`join`] and [`outerjoin`]: `join` is exactly
/// `outerjoin` with an infinite deletion cost (`.min(Cost::INFINITY)` is
/// the identity), so one core serves both.
fn join_core(ancestors: &List, descendants: &List, c_edge: Cost, c_del: Cost) -> List {
    let minima = interval_minima(ancestors, descendants);
    let mut out = Vec::new();
    for (a, (min_any, min_leaf)) in ancestors.iter().zip(minima) {
        let cost_any = finish_costs(a, min_any).min(c_del) + c_edge;
        if !cost_any.is_finite() {
            continue;
        }
        out.push(Entry {
            cost_any,
            cost_leaf: finish_costs(a, min_leaf) + c_edge,
            ..*a
        });
    }
    record_entries(out)
}

/// `join` (Section 6.4): copies every ancestor that has a descendant in
/// `descendants`, with cost `min(distance + cost(d)) + c_edge` per channel.
/// Ancestors without any (finite-cost) descendant are dropped.
pub fn join(ancestors: &List, descendants: &List, c_edge: Cost) -> List {
    Metric::ListJoinOps.incr();
    join_core(ancestors, descendants, c_edge, Cost::INFINITY)
}

/// `outerjoin` (Section 6.4): like `join`, but every ancestor survives —
/// if no descendant matches (or deleting is cheaper), the leaf below the
/// ancestor is deleted at cost `c_del`. The deletion path contributes no
/// leaf match, so only `cost_any` can take it.
pub fn outerjoin(ancestors: &List, descendants: &List, c_edge: Cost, c_del: Cost) -> List {
    Metric::ListOuterjoinOps.incr();
    join_core(ancestors, descendants, c_edge, c_del)
}

/// The ancestor envelope `(min pre, max bound)`: descendants with a
/// preorder number outside `(min, max]` fall in no ancestor's interval.
/// Computed from the skip headers when the list is compressed. The empty
/// list yields `(u32::MAX, 0)`, which rejects everything.
fn ancestor_envelope(anc: &LazyList) -> (u32, u32) {
    match anc {
        LazyList::Blocks { blocks, .. } => {
            let hs = blocks.headers();
            match hs.first() {
                Some(first) => (
                    first.min_pre,
                    hs.iter().map(|h| h.max_bound).max().unwrap_or(0),
                ),
                None => (u32::MAX, 0),
            }
        }
        LazyList::Mat(l) => match l.first() {
            Some(first) => (first.pre, l.iter().map(|e| e.bound).max().unwrap_or(0)),
            None => (u32::MAX, 0),
        },
    }
}

/// [`join`] over lazy operands: compressed frames that cannot contribute
/// output are skipped via their skip headers instead of decoded. The
/// result is byte-identical to forcing both operands and calling [`join`].
pub fn join_lazy(ancestors: &LazyList, descendants: &LazyList, c_edge: Cost) -> List {
    Metric::ListJoinOps.incr();
    join_core_lazy(ancestors, descendants, c_edge, Cost::INFINITY)
}

/// [`outerjoin`] over lazy operands; see [`join_lazy`]. Ancestor-side
/// skipping only applies when `c_del` is infinite (then unmatched
/// ancestors drop, exactly as in `join`); with a finite deletion cost
/// every ancestor survives and must be decoded.
pub fn outerjoin_lazy(
    ancestors: &LazyList,
    descendants: &LazyList,
    c_edge: Cost,
    c_del: Cost,
) -> List {
    Metric::ListOuterjoinOps.incr();
    join_core_lazy(ancestors, descendants, c_edge, c_del)
}

fn join_core_lazy(ancestors: &LazyList, descendants: &LazyList, c_edge: Cost, c_del: Cost) -> List {
    // Descendant frames wholly outside the ancestor envelope contribute to
    // no interval minimum: skip them. (Any witness descendant of a kept
    // ancestor frame lies inside the envelope, so this never starves the
    // ancestor test below.)
    let desc: Cow<'_, List> = match descendants {
        LazyList::Blocks { blocks, is_leaf } => {
            let (lo, hi) = ancestor_envelope(ancestors);
            let hs = blocks.headers();
            Cow::Owned(decode_frames(blocks, *is_leaf, |i| {
                hs[i].max_pre > lo && hs[i].min_pre <= hi
            }))
        }
        LazyList::Mat(l) => Cow::Borrowed(l),
    };
    // When unmatched ancestors are dropped anyway (`join`, or an
    // `outerjoin` whose deletion is forbidden), skip ancestor frames with
    // no descendant in `(min_pre, max_bound]`: every interval minimum in
    // such a frame is infinite, so `join_core` would discard each entry.
    // Enclosing ancestors outside the frame are unaffected — interval
    // minima fold upward transitively, not through intermediate entries.
    let anc: Cow<'_, List> = match ancestors {
        LazyList::Blocks { blocks, is_leaf } if !c_del.is_finite() => {
            let hs = blocks.headers();
            let mut from = 0usize;
            Cow::Owned(decode_frames(blocks, *is_leaf, |i| {
                // `min_pre` grows across frames, so the probe into `desc`
                // never moves backwards (a single forward gallop overall).
                from += desc[from..].partition_point(|d| d.pre <= hs[i].min_pre);
                from < desc.len() && desc[from].pre <= hs[i].max_bound
            }))
        }
        other => other.force(),
    };
    join_core(&anc, &desc, c_edge, c_del)
}

/// [`intersect`] over lazy operands: a compressed frame on either side is
/// decoded only if its `[min_pre, max_pre]` key range can meet an entry of
/// the other side. Results are identical to forcing + [`intersect`].
pub fn intersect_lazy(left: &LazyList, right: &LazyList, c_edge: Cost) -> List {
    let a = decode_overlapping(left, right);
    let b = decode_overlapping(right, left);
    intersect(&a, &b, c_edge)
}

/// Materializes `x`, skipping compressed frames whose pre-range cannot
/// overlap any entry (or frame) of `other`.
fn decode_overlapping<'x>(x: &'x LazyList<'_>, other: &LazyList<'_>) -> Cow<'x, List> {
    let (blocks, is_leaf) = match x {
        LazyList::Mat(l) => return Cow::Borrowed(l),
        LazyList::Blocks { blocks, is_leaf } => (*blocks, *is_leaf),
    };
    let hs = blocks.headers();
    match other {
        LazyList::Mat(l) => {
            let mut from = 0usize;
            Cow::Owned(decode_frames(blocks, is_leaf, |i| {
                from += l[from..].partition_point(|e| e.pre < hs[i].min_pre);
                from < l.len() && l[from].pre <= hs[i].max_pre
            }))
        }
        LazyList::Blocks { blocks: ob, .. } => {
            let os = ob.headers();
            let mut from = 0usize;
            Cow::Owned(decode_frames(blocks, is_leaf, |i| {
                from += os[from..].partition_point(|h| h.max_pre < hs[i].min_pre);
                from < os.len() && os[from].min_pre <= hs[i].max_pre
            }))
        }
    }
}

/// `intersect` (Section 6.4): keeps nodes present in both lists; costs are
/// the channel-wise sums (+ `c_edge`). The leaf channel requires a leaf
/// match on at least one side.
pub fn intersect(left: &List, right: &List, c_edge: Cost) -> List {
    debug_check_sorted(left);
    debug_check_sorted(right);
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        let (a, b) = (left[i], right[j]);
        match a.pre.cmp(&b.pre) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
                let cost_any = a.cost_any + b.cost_any + c_edge;
                if !cost_any.is_finite() {
                    continue;
                }
                let cost_leaf = (a.cost_leaf + b.cost_any).min(a.cost_any + b.cost_leaf) + c_edge;
                out.push(Entry {
                    cost_any,
                    cost_leaf,
                    ..a
                });
            }
        }
    }
    record_op(Metric::ListIntersectOps, out)
}

/// `union` (Section 6.4): keeps nodes of either list; shared nodes take the
/// channel-wise minimum. `c_edge` is added to every output entry.
pub fn union(left: &List, right: &List, c_edge: Cost) -> List {
    debug_check_sorted(left);
    debug_check_sorted(right);
    let mut out = Vec::with_capacity(left.len().max(right.len()));
    let (mut i, mut j) = (0, 0);
    while i < left.len() || j < right.len() {
        let entry = match (left.get(i), right.get(j)) {
            (Some(a), Some(b)) if a.pre == b.pre => {
                i += 1;
                j += 1;
                Entry {
                    cost_any: a.cost_any.min(b.cost_any) + c_edge,
                    cost_leaf: a.cost_leaf.min(b.cost_leaf) + c_edge,
                    ..*a
                }
            }
            (Some(a), Some(b)) if a.pre < b.pre => {
                i += 1;
                Entry {
                    cost_any: a.cost_any + c_edge,
                    cost_leaf: a.cost_leaf + c_edge,
                    ..*a
                }
            }
            (Some(_), Some(b)) => {
                j += 1;
                Entry {
                    cost_any: b.cost_any + c_edge,
                    cost_leaf: b.cost_leaf + c_edge,
                    ..*b
                }
            }
            (Some(a), None) => {
                i += 1;
                Entry {
                    cost_any: a.cost_any + c_edge,
                    cost_leaf: a.cost_leaf + c_edge,
                    ..*a
                }
            }
            (None, Some(b)) => {
                j += 1;
                Entry {
                    cost_any: b.cost_any + c_edge,
                    cost_leaf: b.cost_leaf + c_edge,
                    ..*b
                }
            }
            (None, None) => break,
        };
        if entry.cost_any.is_finite() {
            out.push(entry);
        }
    }
    record_op(Metric::ListUnionOps, out)
}

/// `sort` (Section 6.4): the best `n` root–cost pairs, ranked by the
/// selected channel, ties broken by preorder number. `None` returns all
/// (finite-cost) pairs — the `n = ∞` case of the experiments.
pub fn sort_best(n: Option<usize>, list: &List, use_leaf_channel: bool) -> Vec<(u32, Cost)> {
    let mut pairs: Vec<(u32, Cost)> = list
        .iter()
        .map(|e| {
            (
                e.pre,
                if use_leaf_channel {
                    e.cost_leaf
                } else {
                    e.cost_any
                },
            )
        })
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
    Metric::ListSortOps.incr();
    Metric::ListEntriesProduced.add(pairs.len() as u64);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(pre: u32, bound: u32, pathcost: u64, inscost: u64, any: u64, leaf: Option<u64>) -> Entry {
        Entry {
            pre,
            bound,
            pathcost: Cost::finite(pathcost),
            inscost: Cost::finite(inscost),
            cost_any: Cost::finite(any),
            cost_leaf: leaf.map(Cost::finite).unwrap_or(Cost::INFINITY),
        }
    }

    #[test]
    fn shift_adds_to_both_channels() {
        let l = shift(vec![e(1, 1, 0, 1, 2, Some(3))], Cost::finite(5));
        assert_eq!(l[0].cost_any, Cost::finite(7));
        assert_eq!(l[0].cost_leaf, Cost::finite(8));
        let l = shift(vec![e(1, 1, 0, 1, 2, None)], Cost::finite(5));
        assert_eq!(l[0].cost_leaf, Cost::INFINITY);
    }

    #[test]
    fn merge_interleaves_and_charges_renames() {
        let left = vec![e(1, 1, 0, 1, 0, Some(0)), e(5, 5, 0, 1, 0, Some(0))];
        let right = vec![e(3, 3, 0, 1, 0, Some(0))];
        let m = merge(&left, &right, Cost::finite(4));
        assert_eq!(m.iter().map(|x| x.pre).collect::<Vec<_>>(), vec![1, 3, 5]);
        assert_eq!(m[1].cost_any, Cost::finite(4));
        assert_eq!(m[0].cost_any, Cost::ZERO);
    }

    #[test]
    fn merge_equal_pre_takes_minimum() {
        let left = vec![e(2, 2, 0, 1, 7, Some(7))];
        let right = vec![e(2, 2, 0, 1, 1, Some(1))];
        let m = merge(&left, &right, Cost::finite(3));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].cost_any, Cost::finite(4)); // 1 + rename 3 < 7
    }

    // A small shape:
    //   a(pre 1, bound 9, pathcost 1, inscost 1)
    //     x(pre 2..)   d(pre 4, pathcost 3)
    //   a(pre 10, bound 12, pathcost 1, inscost 1)
    //     d(pre 12, pathcost 4)
    fn ancestors() -> List {
        vec![e(1, 9, 1, 1, 0, None), e(10, 12, 1, 1, 0, None)]
    }

    #[test]
    fn join_computes_distance_plus_cost() {
        let desc = vec![e(4, 4, 3, 1, 5, Some(7)), e(12, 12, 4, 1, 2, None)];
        let j = join(&ancestors(), &desc, Cost::ZERO);
        assert_eq!(j.len(), 2);
        // distance = pathcost(d) - pathcost(a) - inscost(a) = 3 - 1 - 1 = 1
        assert_eq!(j[0].cost_any, Cost::finite(1 + 5));
        assert_eq!(j[0].cost_leaf, Cost::finite(1 + 7));
        // second ancestor: distance = 4 - 2 = 2
        assert_eq!(j[1].cost_any, Cost::finite(2 + 2));
        assert_eq!(j[1].cost_leaf, Cost::INFINITY);
    }

    #[test]
    fn join_drops_ancestors_without_descendants() {
        let desc = vec![e(4, 4, 3, 1, 0, Some(0))];
        let j = join(&ancestors(), &desc, Cost::ZERO);
        assert_eq!(j.len(), 1);
        assert_eq!(j[0].pre, 1);
    }

    #[test]
    fn join_picks_cheapest_descendant() {
        let desc = vec![e(2, 2, 3, 1, 9, Some(9)), e(4, 4, 3, 1, 1, Some(20))];
        let j = join(&ancestors(), &desc, Cost::ZERO);
        // any channel: min(1+9, 1+1) = 2; leaf channel: min(1+9, 1+20) = 10.
        assert_eq!(j[0].cost_any, Cost::finite(2));
        assert_eq!(j[0].cost_leaf, Cost::finite(10));
    }

    #[test]
    fn join_adds_edge_cost() {
        let desc = vec![e(4, 4, 3, 1, 0, Some(0))];
        let j = join(&ancestors(), &desc, Cost::finite(3));
        assert_eq!(j[0].cost_any, Cost::finite(1 + 3));
    }

    #[test]
    fn join_handles_nested_ancestors() {
        // a(1..9) contains a(2..5); descendant at 4 must count for both,
        // descendant at 7 only for the outer.
        let anc = vec![e(1, 9, 0, 1, 0, None), e(2, 5, 1, 1, 0, None)];
        let desc = vec![e(4, 4, 2, 1, 0, Some(0)), e(7, 7, 1, 1, 10, Some(10))];
        let j = join(&anc, &desc, Cost::ZERO);
        assert_eq!(j.len(), 2);
        // outer: min(dist(0->2)=1 + 0, dist(0->1)=0 + 10) = 1
        assert_eq!(j[0].cost_any, Cost::finite(1));
        // inner: dist(1->2)=0 + 0 = 0
        assert_eq!(j[1].cost_any, Cost::ZERO);
    }

    #[test]
    fn equal_pre_is_not_its_own_descendant() {
        let anc = vec![e(1, 9, 0, 1, 0, None)];
        let desc = vec![e(1, 9, 0, 1, 0, Some(0))];
        assert!(join(&anc, &desc, Cost::ZERO).is_empty());
    }

    #[test]
    fn outerjoin_keeps_all_ancestors() {
        let desc = vec![e(4, 4, 3, 1, 0, Some(0))];
        let oj = outerjoin(&ancestors(), &desc, Cost::ZERO, Cost::finite(6));
        assert_eq!(oj.len(), 2);
        // first: match (distance 1) beats deletion (6)
        assert_eq!(oj[0].cost_any, Cost::finite(1));
        assert_eq!(oj[0].cost_leaf, Cost::finite(1));
        // second: no descendant -> deletion
        assert_eq!(oj[1].cost_any, Cost::finite(6));
        assert_eq!(oj[1].cost_leaf, Cost::INFINITY);
    }

    #[test]
    fn outerjoin_prefers_deletion_when_cheaper() {
        let desc = vec![e(4, 4, 9, 1, 0, Some(0))]; // distance 7
        let oj = outerjoin(&ancestors(), &desc, Cost::ZERO, Cost::finite(2));
        assert_eq!(oj[0].cost_any, Cost::finite(2)); // delete
        assert_eq!(oj[0].cost_leaf, Cost::finite(7)); // leaf channel can't delete
    }

    #[test]
    fn outerjoin_with_infinite_delcost_drops_unmatched() {
        let desc = vec![e(4, 4, 3, 1, 0, Some(0))];
        let oj = outerjoin(&ancestors(), &desc, Cost::ZERO, Cost::INFINITY);
        assert_eq!(oj.len(), 1);
        assert_eq!(oj[0].pre, 1);
    }

    /// The paper's formulation taken literally, as the oracle for the
    /// structural merges: for every ancestor, rescan its descendant
    /// interval by binary search + linear scan (O(s·l)).
    fn outerjoin_paper(ancestors: &List, descendants: &List, c_edge: Cost, c_del: Cost) -> List {
        let mut out = Vec::new();
        for a in ancestors {
            let start = descendants.partition_point(|d| d.pre <= a.pre);
            let mut min_any = Cost::INFINITY;
            let mut min_leaf = Cost::INFINITY;
            for d in &descendants[start..] {
                if d.pre > a.bound {
                    break;
                }
                min_any = min_any.min(d.pathcost + d.cost_any);
                min_leaf = min_leaf.min(d.pathcost + d.cost_leaf);
            }
            let cost_any = finish_costs(a, min_any).min(c_del) + c_edge;
            if !cost_any.is_finite() {
                continue;
            }
            out.push(Entry {
                cost_any,
                cost_leaf: finish_costs(a, min_leaf) + c_edge,
                ..*a
            });
        }
        out
    }

    /// A join is an outerjoin whose deletion alternative is unaffordable.
    fn join_paper(ancestors: &List, descendants: &List, c_edge: Cost) -> List {
        outerjoin_paper(ancestors, descendants, c_edge, Cost::INFINITY)
    }

    #[test]
    fn paper_variants_agree_with_fast_joins() {
        let anc = vec![
            e(1, 20, 0, 1, 0, None),
            e(2, 9, 1, 1, 0, None),
            e(3, 6, 2, 1, 0, None),
            e(10, 15, 1, 2, 0, None),
        ];
        let desc = vec![
            e(4, 4, 4, 1, 2, Some(3)),
            e(5, 5, 3, 1, 9, None),
            e(8, 8, 2, 1, 0, Some(0)),
            e(12, 12, 5, 1, 1, Some(4)),
            e(18, 18, 1, 1, 7, Some(7)),
        ];
        for c_edge in [Cost::ZERO, Cost::finite(2)] {
            assert_eq!(join(&anc, &desc, c_edge), join_paper(&anc, &desc, c_edge));
            for c_del in [Cost::finite(1), Cost::finite(100), Cost::INFINITY] {
                assert_eq!(
                    outerjoin(&anc, &desc, c_edge, c_del),
                    outerjoin_paper(&anc, &desc, c_edge, c_del)
                );
            }
        }
    }

    #[test]
    fn intersect_requires_both_sides() {
        let l = vec![e(1, 1, 0, 1, 2, Some(2)), e(3, 3, 0, 1, 1, None)];
        let r = vec![e(3, 3, 0, 1, 4, Some(6)), e(5, 5, 0, 1, 0, Some(0))];
        let x = intersect(&l, &r, Cost::ZERO);
        assert_eq!(x.len(), 1);
        assert_eq!(x[0].pre, 3);
        assert_eq!(x[0].cost_any, Cost::finite(5));
        // leaf: min(inf + 4, 1 + 6) = 7
        assert_eq!(x[0].cost_leaf, Cost::finite(7));
    }

    #[test]
    fn union_takes_minimum_on_overlap() {
        let l = vec![e(1, 1, 0, 1, 2, Some(2))];
        let r = vec![e(1, 1, 0, 1, 1, None), e(4, 4, 0, 1, 3, Some(3))];
        let u = union(&l, &r, Cost::finite(1));
        assert_eq!(u.len(), 2);
        assert_eq!(u[0].cost_any, Cost::finite(2)); // min(2,1)+1
        assert_eq!(u[0].cost_leaf, Cost::finite(3)); // min(2,inf)+1
        assert_eq!(u[1].cost_any, Cost::finite(4));
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
        let empty: List = vec![];
        let some = vec![e(1, 1, 0, 1, 0, Some(0))];
        assert!(join(&empty, &some, Cost::ZERO).is_empty());
        assert!(join(&some, &empty, Cost::ZERO).is_empty());
        assert!(intersect(&empty, &some, Cost::ZERO).is_empty());
        assert_eq!(union(&empty, &some, Cost::ZERO).len(), 1);
        assert_eq!(merge(&empty, &some, Cost::ZERO).len(), 1);
        assert_eq!(
            outerjoin(&some, &empty, Cost::ZERO, Cost::finite(1)).len(),
            1
        );
    }

    /// `n` disjoint sibling intervals, compressed: pre `i*10+1`, bound
    /// `i*10+6`.
    fn sibling_blocks(n: u32) -> BlockList {
        let postings: Vec<Posting> = (0..n)
            .map(|i| Posting {
                pre: i * 10 + 1,
                bound: i * 10 + 6,
                pathcost: Cost::finite(1),
                inscost: Cost::ZERO,
            })
            .collect();
        BlockList::from_entries(&postings)
    }

    #[test]
    fn lazy_joins_match_eager_joins_and_skip_ancestor_frames() {
        // 300 ancestors span 3 compressed frames; descendants hit only a
        // few, so whole ancestor frames are skippable.
        let anc_blocks = sibling_blocks(300);
        let anc_lazy = LazyList::Blocks {
            blocks: &anc_blocks,
            is_leaf: false,
        };
        let anc_eager = anc_lazy.force().into_owned();
        // All descendants land under ancestors of the first frame, so the
        // second and third ancestor frames have no witness and skip.
        let desc: List = [3u32, 5, 8]
            .iter()
            .map(|&i| e(i * 10 + 3, i * 10 + 3, 3, 1, 2, Some(4)))
            .collect();

        for c_edge in [Cost::ZERO, Cost::finite(1)] {
            let before = approxql_metrics::snapshot();
            let lazy = join_lazy(&anc_lazy, &LazyList::Mat(desc.clone()), c_edge);
            let skipped = approxql_metrics::snapshot().get(Metric::PostingsBlocksSkipped)
                - before.get(Metric::PostingsBlocksSkipped);
            assert_eq!(lazy, join(&anc_eager, &desc, c_edge));
            assert_eq!(skipped, 2, "witness-free ancestor frames must skip");
            for c_del in [Cost::finite(2), Cost::INFINITY] {
                assert_eq!(
                    outerjoin_lazy(&anc_lazy, &LazyList::Mat(desc.clone()), c_edge, c_del),
                    outerjoin(&anc_eager, &desc, c_edge, c_del)
                );
            }
        }
    }

    #[test]
    fn lazy_descendant_frames_skip_outside_the_ancestor_envelope() {
        let desc_blocks = sibling_blocks(400);
        let desc_lazy = LazyList::Blocks {
            blocks: &desc_blocks,
            is_leaf: true,
        };
        let desc_eager = desc_lazy.force().into_owned();
        // One narrow ancestor: every descendant frame outside (50, 80]
        // skips via the envelope. Descendant pathcost (1) covers ancestor
        // pathcost + inscost (0 + 1).
        let anc: List = vec![e(50, 80, 0, 1, 0, None)];
        let before = approxql_metrics::snapshot();
        assert_eq!(
            join_lazy(&LazyList::Mat(anc.clone()), &desc_lazy, Cost::ZERO),
            join(&anc, &desc_eager, Cost::ZERO)
        );
        let skipped = approxql_metrics::snapshot().get(Metric::PostingsBlocksSkipped)
            - before.get(Metric::PostingsBlocksSkipped);
        assert!(skipped > 0, "no descendant frame was skipped");
        // A finite deletion cost forces every ancestor through but still
        // envelope-skips descendants.
        assert_eq!(
            outerjoin_lazy(
                &LazyList::Mat(anc.clone()),
                &desc_lazy,
                Cost::ZERO,
                Cost::finite(3)
            ),
            outerjoin(&anc, &desc_eager, Cost::ZERO, Cost::finite(3))
        );
        // Empty-ancestor envelope rejects every descendant frame.
        assert!(join_lazy(&LazyList::Mat(vec![]), &desc_lazy, Cost::ZERO).is_empty());
    }

    #[test]
    fn lazy_intersect_matches_eager_in_all_mixes() {
        let a_blocks = sibling_blocks(300);
        let b_blocks = sibling_blocks(40);
        let la = LazyList::Blocks {
            blocks: &a_blocks,
            is_leaf: true,
        };
        let lb = LazyList::Blocks {
            blocks: &b_blocks,
            is_leaf: false,
        };
        let ea = la.force().into_owned();
        let eb = lb.force().into_owned();
        let want = intersect(&ea, &eb, Cost::ZERO);
        assert!(!want.is_empty());
        assert_eq!(intersect_lazy(&la, &lb, Cost::ZERO), want);
        assert_eq!(intersect_lazy(&lb, &la, Cost::ZERO), want);
        assert_eq!(
            intersect_lazy(&la, &LazyList::Mat(eb.clone()), Cost::ZERO),
            want
        );
        assert_eq!(
            intersect_lazy(&LazyList::Mat(ea.clone()), &lb, Cost::ZERO),
            want
        );
        assert_eq!(
            intersect_lazy(
                &LazyList::Mat(ea.clone()),
                &LazyList::Mat(eb.clone()),
                Cost::ZERO
            ),
            want
        );
    }

    #[test]
    fn lazy_list_len_comes_from_headers() {
        let blocks = sibling_blocks(300);
        let lazy = LazyList::Blocks {
            blocks: &blocks,
            is_leaf: false,
        };
        assert_eq!(lazy.len(), 300);
        assert!(!lazy.is_empty());
        assert_eq!(lazy.force().len(), 300);
        let empty = BlockList::default();
        let lazy_empty = LazyList::Blocks {
            blocks: &empty,
            is_leaf: false,
        };
        assert!(lazy_empty.is_empty());
        assert!(LazyList::Mat(vec![]).is_empty());
    }
}
