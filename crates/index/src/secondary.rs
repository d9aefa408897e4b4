//! Path-dependent postings: the secondary index `I_sec` of Section 7.3.

use crate::codec::{BlockList, PostingDecodeError};
use approxql_metrics::Metric;
use approxql_tree::LabelId;
use std::collections::HashMap;

/// One instance of a schema node: a data node as a preorder–bound pair
/// (everything `secondary` needs for its descendant tests).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InstancePosting {
    /// Preorder number of the instance in the data tree.
    pub pre: u32,
    /// Bound of the instance's subtree.
    pub bound: u32,
}

/// The secondary index: maps `(node class, label)` to the sorted list of
/// data-tree instances.
///
/// The label component mirrors the paper's key construction
/// `pre(u)#label(u)`: for struct nodes it is redundant (a schema node has
/// one name) but for *merged text classes* of a compacted schema it selects
/// the instances of one specific word.
///
/// The class component is the **class id** — the number a node class was
/// discovered with, which never changes — and not the paper's schema
/// preorder number, which moves whenever the schema tree grows in the
/// middle (DESIGN.md §6). Everything that *stores* a class speaks class
/// ids ([`push`](Self::push), [`get`](Self::get), [`iter`](Self::iter),
/// the `sec#` keys); the query side speaks **schema pre**
/// ([`fetch`](Self::fetch)), and the index carries the `class id → schema
/// pre` numbering with its inverse to translate between the two. An index
/// nobody gave a numbering reads ids as pres.
///
/// Lists are resident as plain preorder-sorted vectors (nearly all of them
/// are far shorter than one frame); they meet the frame codec only at the
/// store boundary, [`SecondaryIndex::list_bytes`] on the way out and
/// [`SecondaryIndex::insert_bytes`] on the way in, so a reopened index is
/// the same object as the one that was saved.
#[derive(Debug, Clone, Default)]
pub struct SecondaryIndex {
    map: HashMap<(u32, LabelId), Vec<InstancePosting>>,
    /// `pre_of_class[class id] = schema pre`; empty means identity.
    pre_of_class: Vec<u32>,
    /// The inverse: `class_of_pre[schema pre] = class id`.
    class_of_pre: Vec<u32>,
}

impl SecondaryIndex {
    /// Creates an empty index (populated by the schema builder).
    pub fn new() -> SecondaryIndex {
        SecondaryIndex::default()
    }

    /// Replaces the `class id → schema pre` numbering — the only thing a
    /// structural schema extension moves. `pre_of_class` must be a
    /// permutation of `0..n` that keeps the root (class 0) at pre 0; the
    /// error names the first violation and leaves the index unchanged.
    pub fn set_numbering(&mut self, pre_of_class: Vec<u32>) -> Result<(), &'static str> {
        if pre_of_class.first() != Some(&0) {
            return Err("the root class is not schema node 0");
        }
        let mut class_of_pre = vec![u32::MAX; pre_of_class.len()];
        for (class, &pre) in pre_of_class.iter().enumerate() {
            match class_of_pre.get_mut(pre as usize) {
                None => return Err("a class points past the schema tree"),
                Some(slot) if *slot != u32::MAX => return Err("two classes share a schema node"),
                Some(slot) => *slot = class as u32,
            }
        }
        self.pre_of_class = pre_of_class;
        self.class_of_pre = class_of_pre;
        Ok(())
    }

    /// The numbering, indexed by class id (empty if none was ever set).
    pub fn numbering(&self) -> &[u32] {
        &self.pre_of_class
    }

    /// The schema pre of the class with id `class`.
    pub fn pre_of_class(&self, class: u32) -> u32 {
        *self.pre_of_class.get(class as usize).unwrap_or(&class)
    }

    /// The id of the class that sits at `schema_pre` in the schema tree.
    pub fn class_of_pre(&self, schema_pre: u32) -> u32 {
        *self
            .class_of_pre
            .get(schema_pre as usize)
            .unwrap_or(&schema_pre)
    }

    /// Appends an instance to the posting of `(class, label)`.
    /// Instances must be added in increasing preorder (the schema builder
    /// walks the data tree in preorder, so this holds naturally).
    pub fn push(&mut self, class: u32, label: LabelId, instance: InstancePosting) {
        let list = self.map.entry((class, label)).or_default();
        debug_assert!(
            list.last().is_none_or(|last| last.pre < instance.pre),
            "instances must be pushed in increasing preorder"
        );
        list.push(instance);
    }

    /// The instances of the class at `schema_pre` that carry `label`,
    /// preorder-sorted; empty if there are none. This is the query-time
    /// access: it counts `index.secondary_fetches` /
    /// `index.secondary_rows`.
    pub fn fetch(&self, schema_pre: u32, label: LabelId) -> &[InstancePosting] {
        let posting = self
            .get(self.class_of_pre(schema_pre), label)
            .unwrap_or_default();
        Metric::IndexSecondaryFetches.incr();
        Metric::IndexSecondaryRows.add(posting.len() as u64);
        posting
    }

    /// The instances of `(class, label)` without any metric side-effects,
    /// for the maintenance paths. `None` if absent.
    pub fn get(&self, class: u32, label: LabelId) -> Option<&[InstancePosting]> {
        self.map.get(&(class, label)).map(Vec::as_slice)
    }

    /// Number of `(class, label)` postings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if no postings exist.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over all postings, keyed by `(class id, label)`
    /// (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = ((u32, LabelId), &[InstancePosting])> {
        self.map.iter().map(|(&k, v)| (k, v.as_slice()))
    }

    /// The stored value of an instance list: its canonical frames.
    pub fn list_bytes(list: &[InstancePosting]) -> Vec<u8> {
        BlockList::from_entries(list).to_bytes()
    }

    /// Inserts the posting of `(class, label)` from its stored value,
    /// validating the skip headers and decoding every frame.
    pub fn insert_bytes(
        &mut self,
        class: u32,
        label: LabelId,
        value: &[u8],
    ) -> Result<(), PostingDecodeError> {
        let list = BlockList::<InstancePosting>::from_bytes(value)?.try_decode()?;
        self.map.insert((class, label), list);
        Ok(())
    }

    /// Removes every instance of `(class, label)` with
    /// `lo <= pre <= hi`, dropping the entry entirely when it empties.
    /// Returns the number of instances removed.
    pub fn remove_range(&mut self, class: u32, label: LabelId, lo: u32, hi: u32) -> usize {
        let Some(list) = self.map.get_mut(&(class, label)) else {
            return 0;
        };
        let before = list.len();
        list.retain(|p| p.pre < lo || p.pre > hi);
        let removed = before - list.len();
        if list.is_empty() {
            self.map.remove(&(class, label));
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_fetch() {
        let mut idx = SecondaryIndex::new();
        let l = LabelId(3);
        idx.push(7, l, InstancePosting { pre: 10, bound: 12 });
        idx.push(7, l, InstancePosting { pre: 20, bound: 25 });
        assert_eq!(idx.fetch(7, l).len(), 2);
        assert_eq!(idx.fetch(7, l)[1].pre, 20);
        assert!(idx.fetch(8, l).is_empty());
        assert!(idx.fetch(7, LabelId(4)).is_empty());
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn a_numbering_translates_fetch_and_nothing_else() {
        let mut idx = SecondaryIndex::new();
        let l = LabelId(3);
        idx.push(2, l, InstancePosting { pre: 10, bound: 12 });
        // Un-numbered: ids read as pres.
        assert_eq!(idx.fetch(2, l).len(), 1);
        assert_eq!((idx.pre_of_class(2), idx.class_of_pre(2)), (2, 2));
        // Class 2 moves to schema pre 1: `fetch` follows, `get` does not.
        idx.set_numbering(vec![0, 2, 1]).unwrap();
        assert_eq!((idx.pre_of_class(2), idx.class_of_pre(1)), (1, 2));
        assert_eq!(idx.fetch(1, l).len(), 1);
        assert!(idx.fetch(2, l).is_empty());
        assert_eq!(idx.get(2, l).unwrap().len(), 1);
        // A rejected numbering leaves the old one in place.
        for bad in [vec![], vec![1, 0], vec![0, 1, 1], vec![0, 3, 1]] {
            assert!(idx.set_numbering(bad).is_err());
        }
        assert_eq!(idx.numbering(), [0, 2, 1]);
    }

    #[test]
    fn stored_bytes_round_trip_and_removal_drops_empty_keys() {
        let mut idx = SecondaryIndex::new();
        let l = LabelId(3);
        for pre in [10, 20, 30] {
            idx.push(
                7,
                l,
                InstancePosting {
                    pre,
                    bound: pre + 2,
                },
            );
        }
        let bytes = SecondaryIndex::list_bytes(idx.get(7, l).unwrap());
        let mut loaded = SecondaryIndex::new();
        loaded.insert_bytes(7, l, &bytes).unwrap();
        assert_eq!(loaded.get(7, l), idx.get(7, l));
        assert!(loaded
            .insert_bytes(8, l, &bytes[..bytes.len() - 1])
            .is_err());
        assert_eq!(loaded.remove_range(7, l, 15, 25), 1);
        assert_eq!(loaded.fetch(7, l).len(), 2);
        assert_eq!(loaded.remove_range(7, l, 0, 100), 2);
        assert!(loaded.get(7, l).is_none());
        assert!(loaded.is_empty());
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn out_of_order_push_panics_in_debug() {
        let mut idx = SecondaryIndex::new();
        let l = LabelId(0);
        idx.push(0, l, InstancePosting { pre: 5, bound: 5 });
        idx.push(0, l, InstancePosting { pre: 4, bound: 4 });
    }
}
