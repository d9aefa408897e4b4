//! Algorithm `secondary` (Section 7.3, Figure 5): executing second-level
//! queries against the path-dependent secondary index.
//!
//! A second-level query is a [`Skeleton`]: schema nodes with the labels
//! their instances must carry, connected by ancestor–descendant edges of
//! *fixed* distance (all instance pairs of two schema nodes are the same
//! insert-cost distance apart — Section 7.1). Executing it therefore needs
//! no cost computation at all: fetch the instances of the root, and keep
//! those that have a descendant instance for every child skeleton.
//!
//! The second-level queries of one best-n query share most of their work:
//! consecutive draws differ in a renamed label or a deleted subtree and
//! keep the rest, and most of them retrieve nothing ("not every included
//! schema tree is a tree class", Section 7.4). An [`Executor`] serves the
//! draws of one query — the schema driver's
//! [`ResultStream`](crate::ResultStream) owns one and drops it with the
//! stream, so nothing is cached across queries — and evaluates every
//! distinct sub-skeleton at most once:
//!
//! * **Hash-consing.** A sub-skeleton becomes a dense id keyed by `(pre,
//!   label, child ids)`. A child `Rc<Skeleton>` the executor has resolved
//!   before resolves by its address; that is sound only because the
//!   executor keeps every such `Rc` alive, so no address is reused while
//!   it runs.
//! * **Memo.** Each id keeps its result, the empty one included. A
//!   childless node's result is the index's own slice; a filtered node's
//!   is an `Rc<[InstancePosting]>` its parents share.
//! * **Lists read on demand.** Over a database opened from a file, the
//!   index holds only the lists read before the first draw; the executor
//!   reads any other list through a `ReadList` the first time a draw
//!   executes it, once per query. A list that fails to load stops the
//!   executor: it returns nothing from then on, and the caller reports
//!   the error (`Executor::take_failure`) instead of any hit.
//! * **An empty child stops its parent.** A node looks at its memoised
//!   children first and returns empty at its first empty child, before
//!   its own list is fetched. Otherwise it semijoins its list with the
//!   smallest child result first, scanning the shorter side and
//!   binary-searching the longer.
//!
//! Drawn queries are deduplicated by root id over the roots executed so
//! far, never by "id seen": a root can equal a sub-skeleton of an earlier
//! query and must still run. [`execute`] is the one-shot use of the same
//! executor.

use crate::database::DatabaseError;
use crate::topk::Skeleton;
use approxql_index::{InstancePosting, SecondaryIndex};
use approxql_metrics::Metric;
use approxql_tree::LabelId;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::Rc;

/// Reads the instance lists an executor's index does not hold: a database
/// opened from a file reads them from its store.
pub(crate) trait ReadList {
    /// The instances of the class with id `class` that carry `label`,
    /// preorder-sorted; empty if there are none.
    fn read(&self, class: u32, label: LabelId) -> Result<Vec<InstancePosting>, DatabaseError>;
}

/// Keeps the ancestors that have at least one descendant in
/// `descendants`: some `d` with `a.pre < d.pre <= a.bound`.
///
/// Both lists are instance postings of one schema node each:
/// preorder-sorted, and non-nesting (all instances of one schema node sit
/// at the same depth). So the scan walks the shorter list and
/// binary-searches the longer one: an ancestor's first descendant past
/// its `pre` decides it, and a descendant lies in the last ancestor that
/// starts before it or in none.
fn semijoin(
    ancestors: &[InstancePosting],
    descendants: &[InstancePosting],
) -> Vec<InstancePosting> {
    let mut out = Vec::new();
    if ancestors.len() <= descendants.len() {
        let mut rest = descendants;
        for &a in ancestors {
            rest = &rest[rest.partition_point(|d| d.pre <= a.pre)..];
            match rest.first() {
                None => break,
                Some(d) if d.pre <= a.bound => out.push(a),
                Some(_) => {}
            }
        }
    } else {
        let mut rest = ancestors;
        for d in descendants {
            let i = rest.partition_point(|a| a.pre < d.pre);
            let Some(&a) = i.checked_sub(1).and_then(|at| rest.get(at)) else {
                continue;
            };
            if d.pre <= a.bound {
                out.push(a);
            }
            // No later descendant lies in `a` unseen: it is kept or ends
            // before `d`.
            rest = &rest[i..];
        }
    }
    out
}

/// The instances a sub-skeleton retrieves.
#[derive(Clone)]
enum Rows<'a> {
    /// The index's own list (a childless node, or one no child filtered).
    Index(&'a [InstancePosting]),
    /// A filtered list, or one read on demand, shared by every parent
    /// that reads it.
    Shared(Rc<[InstancePosting]>),
}

impl<'a> Rows<'a> {
    const EMPTY: Rows<'static> = Rows::Index(&[]);

    fn as_slice(&self) -> &[InstancePosting] {
        match self {
            Rows::Index(rows) => rows,
            Rows::Shared(rows) => rows,
        }
    }

    /// These rows, less the ancestors without a descendant in `kid`.
    fn semijoin(self, kid: &[InstancePosting]) -> Rows<'a> {
        let kept = semijoin(self.as_slice(), kid);
        if kept.len() == self.as_slice().len() {
            self
        } else if kept.is_empty() {
            Rows::EMPTY
        } else {
            Rows::Shared(kept.into())
        }
    }
}

/// One distinct sub-skeleton.
struct Node<'a> {
    /// `[pre, label, child ids…]`, shared with the structural map.
    key: Rc<[u32]>,
    /// Its result, once evaluated.
    rows: Option<Rows<'a>>,
    /// Whether a query rooted here has been executed.
    executed: bool,
}

/// Executes the second-level queries of one best-n query, each distinct
/// sub-skeleton at most once (see the module docs).
pub struct Executor<'a> {
    index: &'a SecondaryIndex,
    /// Reads the lists `index` does not hold, if it does not hold all.
    reader: Option<&'a dyn ReadList>,
    /// The lists `reader` has read, by class id and label.
    read: HashMap<(u32, LabelId), Rc<[InstancePosting]>>,
    /// The first list `reader` failed to read.
    failure: Option<DatabaseError>,
    /// Indexed by id.
    nodes: Vec<Node<'a>>,
    by_key: HashMap<Rc<[u32]>, u32>,
    by_addr: HashMap<*const Skeleton, u32>,
    /// Every `Rc` resolved by address, kept alive so that no address in
    /// `by_addr` is reused by another skeleton.
    alive: Vec<Rc<Skeleton>>,
    /// Keys under construction, a child's above its parent's.
    key: Vec<u32>,
}

impl<'a> Executor<'a> {
    /// An executor over `index` that has evaluated nothing.
    pub fn new(index: &'a SecondaryIndex) -> Executor<'a> {
        Executor {
            index,
            reader: None,
            read: HashMap::new(),
            failure: None,
            nodes: Vec::new(),
            by_key: HashMap::new(),
            by_addr: HashMap::new(),
            alive: Vec::new(),
            key: Vec::new(),
        }
    }

    /// An executor over `index` that reads every list `index` does not
    /// hold through `reader`.
    pub(crate) fn reading(index: &'a SecondaryIndex, reader: &'a dyn ReadList) -> Executor<'a> {
        Executor {
            reader: Some(reader),
            ..Executor::new(index)
        }
    }

    /// The index the executor reads first.
    pub(crate) fn index(&self) -> &'a SecondaryIndex {
        self.index
    }

    /// Whether a list has failed to load: the executor has returned
    /// nothing since.
    pub(crate) fn failed(&self) -> bool {
        self.failure.is_some()
    }

    /// The error of the first list that failed to load, if one has.
    pub(crate) fn take_failure(&mut self) -> Option<DatabaseError> {
        self.failure.take()
    }

    /// Finds the exact results of the second-level query `skeleton` — the
    /// instances of its root whose subtrees contain instances of every
    /// child skeleton (Figure 5). `None` if a query equal to `skeleton`
    /// has been executed through this executor before.
    pub fn execute(&mut self, skeleton: &Skeleton) -> Option<&[InstancePosting]> {
        let id = self.intern(skeleton);
        if std::mem::replace(&mut self.nodes[id].executed, true) {
            return None;
        }
        self.eval(id);
        if self.failure.is_some() {
            return Some(&[]);
        }
        self.nodes[id].rows.as_ref().map(Rows::as_slice)
    }

    /// The id of `s`, by structure.
    fn intern(&mut self, s: &Skeleton) -> usize {
        let start = self.key.len();
        self.key.extend([s.pre, s.label.0]);
        for child in s.children.iter() {
            let id = self.intern_shared(child);
            self.key.push(id as u32);
        }
        let key = &self.key[start..];
        let id = match self.by_key.get(key) {
            Some(&id) => id as usize,
            None => {
                let key: Rc<[u32]> = key.into();
                self.by_key.insert(Rc::clone(&key), self.nodes.len() as u32);
                self.nodes.push(Node {
                    key,
                    rows: None,
                    executed: false,
                });
                self.nodes.len() - 1
            }
        };
        self.key.truncate(start);
        id
    }

    /// The id of `s`, by address if it has been resolved before.
    fn intern_shared(&mut self, s: &Rc<Skeleton>) -> usize {
        if let Some(&id) = self.by_addr.get(&Rc::as_ptr(s)) {
            return id as usize;
        }
        let id = self.intern(s);
        self.by_addr.insert(Rc::as_ptr(s), id as u32);
        self.alive.push(Rc::clone(s));
        id
    }

    /// The result of the sub-skeleton `id`, evaluated once.
    fn eval(&mut self, id: usize) -> Rows<'a> {
        if let Some(rows) = &self.nodes[id].rows {
            return rows.clone();
        }
        let key = Rc::clone(&self.nodes[id].key);
        let rows = self.filter(key[0], LabelId(key[1]), &key[2..]);
        self.nodes[id].rows = Some(rows.clone());
        rows
    }

    /// The instances of `(pre, label)` with a descendant in every child's
    /// result: empty at the first empty child, memoised ones looked at
    /// first, before the list is fetched.
    fn filter(&mut self, pre: u32, label: LabelId, children: &[u32]) -> Rows<'a> {
        let empty = |node: &Node| node.rows.as_ref().is_some_and(|r| r.as_slice().is_empty());
        if children.iter().any(|&c| empty(&self.nodes[c as usize])) {
            return Rows::EMPTY;
        }
        let mut kids = Vec::with_capacity(children.len());
        for &c in children {
            let rows = self.eval(c as usize);
            if rows.as_slice().is_empty() {
                return Rows::EMPTY;
            }
            kids.push(rows);
        }
        kids.sort_by_key(|kid| kid.as_slice().len());
        let mut rows = self.fetch(pre, label);
        for kid in &kids {
            if rows.as_slice().is_empty() {
                break;
            }
            rows = rows.semijoin(kid.as_slice());
        }
        rows
    }

    /// The instances of `(pre, label)`: the index's list, or one the
    /// reader reads, once per executor. Counted as
    /// [`SecondaryIndex::fetch`] counts, wherever the list comes from.
    fn fetch(&mut self, pre: u32, label: LabelId) -> Rows<'a> {
        let index = self.index;
        let Some(reader) = self.reader else {
            return Rows::Index(index.fetch(pre, label));
        };
        let class = index.class_of_pre(pre);
        let rows = match (index.get(class, label), self.read.entry((class, label))) {
            (Some(list), _) => Rows::Index(list),
            (None, Entry::Occupied(list)) => Rows::Shared(Rc::clone(list.get())),
            (None, Entry::Vacant(slot)) => match reader.read(class, label) {
                Ok(list) => Rows::Shared(Rc::clone(slot.insert(list.into()))),
                Err(e) => {
                    self.failure.get_or_insert(e);
                    Rows::EMPTY
                }
            },
        };
        Metric::IndexSecondaryFetches.incr();
        Metric::IndexSecondaryRows.add(rows.as_slice().len() as u64);
        rows
    }
}

/// Finds all exact results of the second-level query `skeleton` (Figure
/// 5): one query through a fresh [`Executor`].
pub fn execute(skeleton: &Skeleton, index: &SecondaryIndex) -> Vec<InstancePosting> {
    let mut executor = Executor::new(index);
    executor
        .execute(skeleton)
        .map(<[_]>::to_vec)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(pre: u32, bound: u32) -> InstancePosting {
        InstancePosting { pre, bound }
    }

    fn skel(pre: u32, label: u32, children: Vec<Rc<Skeleton>>) -> Skeleton {
        Skeleton {
            pre,
            label: LabelId(label),
            children: children.into(),
        }
    }

    /// `semijoin` walking the ancestors (they are the shorter side).
    fn scan_ancestors(anc: &[InstancePosting], desc: &[InstancePosting]) -> Vec<InstancePosting> {
        assert!(anc.len() <= desc.len());
        semijoin(anc, desc)
    }

    /// `semijoin` walking the descendants (they are the shorter side).
    fn scan_descendants(anc: &[InstancePosting], desc: &[InstancePosting]) -> Vec<InstancePosting> {
        assert!(anc.len() > desc.len());
        semijoin(anc, desc)
    }

    #[test]
    fn semijoin_keeps_matching_ancestors() {
        let anc = [ip(1, 5), ip(10, 15), ip(20, 25)];
        let want = vec![ip(1, 5), ip(20, 25)];
        assert_eq!(scan_descendants(&anc, &[ip(3, 3), ip(22, 22)]), want);
        let desc = [ip(3, 3), ip(12, 12), ip(16, 16), ip(22, 22)];
        assert_eq!(scan_ancestors(&[ip(1, 5), ip(20, 25)], &desc), want);
        // Several descendants in one ancestor keep it once.
        let desc = [ip(2, 2), ip(3, 3), ip(4, 4), ip(11, 11), ip(12, 12)];
        assert_eq!(scan_ancestors(&anc, &desc), vec![ip(1, 5), ip(10, 15)]);
        let anc = [ip(1, 5), ip(10, 15), ip(20, 25), ip(30, 35)];
        let desc = [ip(2, 2), ip(3, 3), ip(11, 11)];
        assert_eq!(scan_descendants(&anc, &desc), vec![ip(1, 5), ip(10, 15)]);
    }

    #[test]
    fn semijoin_self_pre_does_not_count() {
        assert!(scan_ancestors(&[ip(5, 9)], &[ip(5, 9)]).is_empty());
        assert!(scan_descendants(&[ip(1, 3), ip(5, 9)], &[ip(5, 9)]).is_empty());
    }

    #[test]
    fn semijoin_descendant_at_the_bound_counts() {
        assert_eq!(scan_ancestors(&[ip(5, 9)], &[ip(9, 9)]), vec![ip(5, 9)]);
        let anc = [ip(1, 4), ip(5, 9)];
        assert_eq!(scan_descendants(&anc, &[ip(9, 9)]), vec![ip(5, 9)]);
        assert_eq!(scan_descendants(&anc, &[ip(4, 4)]), vec![ip(1, 4)]);
        // One past the bound is outside.
        assert!(scan_ancestors(&[ip(5, 9)], &[ip(10, 10)]).is_empty());
        assert!(scan_descendants(&anc, &[ip(10, 10)]).is_empty());
    }

    #[test]
    fn semijoin_descendant_past_the_last_ancestor() {
        let desc = [ip(3, 3), ip(12, 12), ip(14, 14)];
        assert_eq!(scan_ancestors(&[ip(1, 4), ip(5, 9)], &desc), vec![ip(1, 4)]);
        assert!(scan_ancestors(&[ip(5, 9)], &[ip(12, 12)]).is_empty());
        let anc = [ip(1, 4), ip(5, 9), ip(10, 11)];
        assert!(scan_descendants(&anc, &[ip(12, 12), ip(14, 14)]).is_empty());
        assert_eq!(
            scan_descendants(&anc, &[ip(2, 2), ip(12, 12)]),
            vec![ip(1, 4)]
        );
        // Before the first ancestor, too.
        assert!(scan_ancestors(&[ip(5, 9)], &[ip(2, 2), ip(3, 3)]).is_empty());
        assert!(scan_descendants(&anc, &[ip(0, 0)]).is_empty());
    }

    #[test]
    fn execute_leaf_skeleton_returns_all_instances() {
        let mut idx = SecondaryIndex::new();
        idx.push(2, LabelId(7), ip(4, 6));
        idx.push(2, LabelId(7), ip(9, 11));
        let s = skel(2, 7, vec![]);
        assert_eq!(execute(&s, &idx).len(), 2);
    }

    #[test]
    fn execute_filters_by_every_child() {
        // schema: node 2 (label 7) with children node 3 (label 8) and
        // node 5 (label 9). Instance 4 has both, instance 9 misses one.
        let mut idx = SecondaryIndex::new();
        idx.push(2, LabelId(7), ip(4, 8));
        idx.push(2, LabelId(7), ip(9, 13));
        idx.push(3, LabelId(8), ip(5, 5));
        idx.push(3, LabelId(8), ip(10, 10));
        idx.push(5, LabelId(9), ip(7, 7)); // only under instance 4
        let s = skel(
            2,
            7,
            vec![Rc::new(skel(3, 8, vec![])), Rc::new(skel(5, 9, vec![]))],
        );
        assert_eq!(execute(&s, &idx), vec![ip(4, 8)]);
    }

    #[test]
    fn execute_nested_skeleton() {
        // root (1) -> a (2) -> b (3); only the instance chain 10>12>13
        // is complete.
        let mut idx = SecondaryIndex::new();
        idx.push(1, LabelId(1), ip(10, 20));
        idx.push(1, LabelId(1), ip(30, 40));
        idx.push(2, LabelId(2), ip(12, 15));
        idx.push(2, LabelId(2), ip(32, 35));
        idx.push(3, LabelId(3), ip(13, 13));
        let s = skel(
            1,
            1,
            vec![Rc::new(skel(2, 2, vec![Rc::new(skel(3, 3, vec![]))]))],
        );
        assert_eq!(execute(&s, &idx), vec![ip(10, 20)]);
    }

    #[test]
    fn execute_unknown_key_is_empty() {
        let idx = SecondaryIndex::new();
        assert!(execute(&skel(1, 1, vec![]), &idx).is_empty());
    }

    #[test]
    fn an_empty_child_stops_its_parent_before_its_fetch() {
        // Node 2's list exists, but its child (node 3, label 9) has no
        // instance: the parent's list is never fetched, and a second
        // query over the same child fetches nothing at all.
        let mut idx = SecondaryIndex::new();
        idx.push(2, LabelId(7), ip(4, 8));
        let empty_child = Rc::new(skel(3, 9, vec![]));
        let mut executor = Executor::new(&idx);
        let before = approxql_metrics::snapshot();
        let q = skel(2, 7, vec![Rc::clone(&empty_child)]);
        assert_eq!(executor.execute(&q), Some(&[][..]));
        let diff = approxql_metrics::snapshot().diff(&before);
        assert_eq!(diff.get(approxql_metrics::Metric::IndexSecondaryFetches), 1);
        let q = skel(5, 7, vec![Rc::new(skel(6, 8, vec![])), empty_child]);
        assert_eq!(executor.execute(&q), Some(&[][..]));
        let diff = approxql_metrics::snapshot().diff(&before);
        assert_eq!(diff.get(approxql_metrics::Metric::IndexSecondaryFetches), 1);
    }

    #[test]
    fn a_repeated_root_is_not_executed_again() {
        let mut idx = SecondaryIndex::new();
        idx.push(2, LabelId(7), ip(4, 8));
        idx.push(3, LabelId(8), ip(5, 5));
        let leaf = Rc::new(skel(3, 8, vec![]));
        let mut executor = Executor::new(&idx);
        let q = skel(2, 7, vec![Rc::clone(&leaf)]);
        assert_eq!(executor.execute(&q), Some(&[ip(4, 8)][..]));
        // Structurally equal, built from distinct `Rc`s.
        let again = skel(2, 7, vec![Rc::new(skel(3, 8, vec![]))]);
        assert_eq!(executor.execute(&again), None);
        // The earlier query's sub-skeleton as a root of its own still runs.
        assert_eq!(executor.execute(&leaf), Some(&[ip(5, 5)][..]));
        assert_eq!(executor.execute(&leaf), None);
    }
}
