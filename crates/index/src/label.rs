//! The label indexes `I_struct` and `I_text` (Section 6.2, Figure 3).

use crate::codec::{BlockList, PostingDecodeError};
use crate::Posting;
use approxql_metrics::{time, Metric, TimerMetric};
use approxql_tree::{DataTree, LabelId, NodeType};
use std::collections::HashMap;

/// Maps each `(type, label)` to the block-compressed, preorder-sorted
/// posting of all nodes carrying that label (DESIGN.md §14). One
/// `LabelIndex` instance serves as both `I_struct` and `I_text` (the node
/// type is part of the key).
#[derive(Debug, Clone, Default)]
pub struct LabelIndex {
    map: HashMap<(NodeType, LabelId), BlockList>,
}

impl LabelIndex {
    /// Builds the index with one pass over the tree. Postings come out
    /// preorder-sorted because nodes are visited in preorder; each label's
    /// list is compressed once collection is complete.
    pub fn build(tree: &DataTree) -> LabelIndex {
        let _timer = time(TimerMetric::IndexBuild);
        let mut flat: HashMap<(NodeType, LabelId), Vec<Posting>> = HashMap::new();
        for n in tree.live_nodes() {
            flat.entry((tree.node_type(n), tree.label_id(n)))
                .or_default()
                .push(Posting::from_node(tree, n));
        }
        let map = flat
            .into_iter()
            .map(|(k, v)| (k, BlockList::from_entries(&v)))
            .collect();
        LabelIndex { map }
    }

    /// The posting for `(ty, label)`, fully decoded; empty if the label
    /// never occurs with that type. This is the `fetch` primitive of
    /// Section 6.4: every frame is decoded once, here.
    pub fn fetch(&self, ty: NodeType, label: LabelId) -> Vec<Posting> {
        Metric::IndexLabelFetches.incr();
        let Some(blocks) = self.map.get(&(ty, label)) else {
            return Vec::new();
        };
        Metric::IndexPostingsFetched.add(blocks.entry_count() as u64);
        blocks.decode_all()
    }

    /// Number of `(type, label)` postings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if the index holds no postings.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total number of posting entries across all labels.
    pub fn entry_count(&self) -> usize {
        self.map.values().map(BlockList::entry_count).sum()
    }

    /// Total serialized size of all compressed posting lists, in bytes.
    pub fn byte_len(&self) -> usize {
        self.map.values().map(BlockList::byte_len).sum()
    }

    /// Iterates over all `((type, label), blocks)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = ((NodeType, LabelId), &BlockList)> {
        self.map.iter().map(|(&k, v)| (k, v))
    }

    /// Inserts a posting list directly, compressing it (used by the schema
    /// builder and tests; input must be strictly pre-sorted).
    pub fn insert_posting(&mut self, ty: NodeType, label: LabelId, posting: Vec<Posting>) {
        self.map
            .insert((ty, label), BlockList::from_entries(&posting));
    }

    /// Inserts the posting of `(ty, label)` from its stored value. Every
    /// frame is decoded and held against its header
    /// ([`BlockList::validate`]), so a list that loads is one that `fetch`
    /// decodes in full; the frames stay compressed.
    pub fn insert_bytes(
        &mut self,
        ty: NodeType,
        label: LabelId,
        value: &[u8],
    ) -> Result<(), PostingDecodeError> {
        let list = BlockList::from_bytes(value)?;
        list.validate()?;
        self.map.insert((ty, label), list);
        Ok(())
    }

    /// The compressed posting for `(ty, label)` without any metric
    /// side-effects, for the persistence write path. `None` if absent.
    pub fn blocks(&self, ty: NodeType, label: LabelId) -> Option<&BlockList> {
        self.map.get(&(ty, label))
    }

    /// Appends postings (all with `pre` past the current maximum) to the
    /// list of `(ty, label)`, creating it if absent. Only the partial tail
    /// frame is re-encoded (DESIGN.md §15).
    pub fn append_postings(&mut self, ty: NodeType, label: LabelId, new: &[Posting]) {
        if new.is_empty() {
            return;
        }
        self.map.entry((ty, label)).or_default().append(new);
    }

    /// Removes a whole posting. Returns `true` if it existed.
    pub fn remove_entry(&mut self, ty: NodeType, label: LabelId) -> bool {
        self.map.remove(&(ty, label)).is_some()
    }

    /// Removes every posting of `(ty, label)` with `lo <= pre <= hi`,
    /// dropping the entry entirely when it empties. Returns the number of
    /// postings removed.
    pub fn remove_range(&mut self, ty: NodeType, label: LabelId, lo: u32, hi: u32) -> usize {
        let Some(blocks) = self.map.get_mut(&(ty, label)) else {
            return 0;
        };
        let removed = blocks.remove_range(lo, hi);
        if blocks.entry_count() == 0 {
            self.map.remove(&(ty, label));
        }
        removed
    }

    /// All labels of a given type that occur in the index, with their
    /// selectivity (posting length). Used by the query generator.
    pub fn labels_of_type(&self, ty: NodeType) -> Vec<(LabelId, usize)> {
        let mut v: Vec<(LabelId, usize)> = self
            .map
            .iter()
            .filter(|((t, _), _)| *t == ty)
            .map(|((_, l), p)| (*l, p.entry_count()))
            .collect();
        v.sort_by_key(|&(l, _)| l);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxql_cost::CostModel;
    use approxql_tree::{Cost, DataTreeBuilder};

    fn tree() -> DataTree {
        let mut b = DataTreeBuilder::new();
        b.begin_struct("cd");
        b.begin_struct("title");
        b.add_text("piano concerto");
        b.end();
        b.end();
        b.begin_struct("cd");
        b.begin_struct("title");
        b.add_text("cello concerto");
        b.end();
        b.end();
        b.build(&CostModel::new())
    }

    #[test]
    fn postings_are_preorder_sorted_and_complete() {
        let t = tree();
        let idx = LabelIndex::build(&t);
        let cd = t.lookup_label("cd").unwrap();
        let posting = idx.fetch(NodeType::Struct, cd);
        assert_eq!(posting.len(), 2);
        assert!(posting[0].pre < posting[1].pre);
        assert_eq!(idx.entry_count(), t.len());
    }

    #[test]
    fn text_and_struct_namespaces_are_separate() {
        let mut b = DataTreeBuilder::new();
        b.begin_struct("concerto"); // element named like a word
        b.add_word("concerto");
        b.end();
        let t = b.build(&CostModel::new());
        let idx = LabelIndex::build(&t);
        let l = t.lookup_label("concerto").unwrap();
        assert_eq!(idx.fetch(NodeType::Struct, l).len(), 1);
        assert_eq!(idx.fetch(NodeType::Text, l).len(), 1);
        assert_ne!(
            idx.fetch(NodeType::Struct, l)[0].pre,
            idx.fetch(NodeType::Text, l)[0].pre
        );
    }

    #[test]
    fn fetch_unknown_label_is_empty() {
        let t = tree();
        let idx = LabelIndex::build(&t);
        // "piano" exists only as a text label.
        let piano = t.lookup_label("piano").unwrap();
        assert!(idx.fetch(NodeType::Struct, piano).is_empty());
        assert_eq!(idx.fetch(NodeType::Text, piano).len(), 1);
    }

    #[test]
    fn posting_numbers_match_tree_encoding() {
        let t = tree();
        let idx = LabelIndex::build(&t);
        let concerto = t.lookup_label("concerto").unwrap();
        for p in idx.fetch(NodeType::Text, concerto) {
            let n = approxql_tree::NodeId(p.pre);
            assert_eq!(p.bound, t.bound(n));
            assert_eq!(p.pathcost, t.pathcost(n));
            assert_eq!(p.inscost, t.inscost(n));
            // default model: every ancestor costs 1; "concerto" words sit
            // at depth 3.
            assert_eq!(p.pathcost, Cost::finite(3));
        }
    }

    #[test]
    fn labels_of_type_lists_selectivities() {
        let t = tree();
        let idx = LabelIndex::build(&t);
        let structs = idx.labels_of_type(NodeType::Struct);
        // root label, cd, title
        assert_eq!(structs.len(), 3);
        let cd = t.lookup_label("cd").unwrap();
        assert!(structs.contains(&(cd, 2)));
        let texts = idx.labels_of_type(NodeType::Text);
        // piano, concerto, cello
        assert_eq!(texts.len(), 3);
    }
}
