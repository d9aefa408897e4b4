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

/// The secondary index: maps `(schema node, label)` to the sorted list of
/// data-tree instances.
///
/// The label component mirrors the paper's key construction
/// `pre(u)#label(u)`: for struct nodes it is redundant (a schema node has
/// one name) but for *merged text classes* of a compacted schema it selects
/// the instances of one specific word.
///
/// Lists are resident as plain preorder-sorted vectors (nearly all of them
/// are far shorter than one frame); they meet the frame codec only at the
/// store boundary, [`SecondaryIndex::list_bytes`] on the way out and
/// [`SecondaryIndex::insert_bytes`] on the way in, so a reopened index is
/// the same object as the one that was saved.
#[derive(Debug, Clone, Default)]
pub struct SecondaryIndex {
    map: HashMap<(u32, LabelId), Vec<InstancePosting>>,
}

impl SecondaryIndex {
    /// Creates an empty index (populated by the schema builder).
    pub fn new() -> SecondaryIndex {
        SecondaryIndex::default()
    }

    /// Appends an instance to the posting of `(schema_pre, label)`.
    /// Instances must be added in increasing preorder (the schema builder
    /// walks the data tree in preorder, so this holds naturally).
    pub fn push(&mut self, schema_pre: u32, label: LabelId, instance: InstancePosting) {
        let list = self.map.entry((schema_pre, label)).or_default();
        debug_assert!(
            list.last().is_none_or(|last| last.pre < instance.pre),
            "instances must be pushed in increasing preorder"
        );
        list.push(instance);
    }

    /// The instances of `(schema_pre, label)`, preorder-sorted; empty if
    /// the key is absent. This is the query-time access: it counts
    /// `index.secondary_fetches` / `index.secondary_rows`.
    pub fn fetch(&self, schema_pre: u32, label: LabelId) -> &[InstancePosting] {
        let posting = self.get(schema_pre, label).unwrap_or_default();
        Metric::IndexSecondaryFetches.incr();
        Metric::IndexSecondaryRows.add(posting.len() as u64);
        posting
    }

    /// The instances of `(schema_pre, label)` without any metric
    /// side-effects, for the maintenance paths. `None` if absent.
    pub fn get(&self, schema_pre: u32, label: LabelId) -> Option<&[InstancePosting]> {
        self.map.get(&(schema_pre, label)).map(Vec::as_slice)
    }

    /// Number of `(schema node, label)` postings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if no postings exist.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over all postings (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = ((u32, LabelId), &[InstancePosting])> {
        self.map.iter().map(|(&k, v)| (k, v.as_slice()))
    }

    /// The stored value of an instance list: its canonical frames.
    pub fn list_bytes(list: &[InstancePosting]) -> Vec<u8> {
        BlockList::from_entries(list).to_bytes()
    }

    /// Inserts the posting of `(schema_pre, label)` from its stored value,
    /// validating the skip headers and decoding every frame.
    pub fn insert_bytes(
        &mut self,
        schema_pre: u32,
        label: LabelId,
        value: &[u8],
    ) -> Result<(), PostingDecodeError> {
        let list = BlockList::<InstancePosting>::from_bytes(value)?.try_decode()?;
        self.map.insert((schema_pre, label), list);
        Ok(())
    }

    /// Removes every instance of `(schema_pre, label)` with
    /// `lo <= pre <= hi`, dropping the entry entirely when it empties.
    /// Returns the number of instances removed.
    pub fn remove_range(&mut self, schema_pre: u32, label: LabelId, lo: u32, hi: u32) -> usize {
        let Some(list) = self.map.get_mut(&(schema_pre, label)) else {
            return 0;
        };
        let before = list.len();
        list.retain(|p| p.pre < lo || p.pre > hi);
        let removed = before - list.len();
        if list.is_empty() {
            self.map.remove(&(schema_pre, label));
        }
        removed
    }

    /// Renumbers the schema-node component of every key (a structural
    /// schema extension shifts schema preorder numbers).
    pub fn remap_schema_pres(&mut self, remap: impl Fn(u32) -> u32) {
        self.map = std::mem::take(&mut self.map)
            .into_iter()
            .map(|((pre, label), list)| ((remap(pre), label), list))
            .collect();
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
