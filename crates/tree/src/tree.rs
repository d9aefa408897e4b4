//! The encoded data tree: immutable node columns plus a document registry
//! that supports append-at-end inserts and tombstone deletes.

use crate::interner::{Interner, LabelId};
use crate::text::split_words;
use approxql_cost::{Cost, CostModel, NodeType};
use approxql_xml::{Document, Element, XmlNode};
use std::fmt;

/// A node of a [`DataTree`], identified by its 0-based preorder number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Errors raised by tree operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The requested operation needs a `struct` node.
    NotAStructNode(NodeId),
    /// A node id does not belong to this tree.
    InvalidNode(NodeId),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::NotAStructNode(n) => write!(f, "node {n} is not a struct node"),
            TreeError::InvalidNode(n) => write!(f, "node {n} is not part of this tree"),
        }
    }
}

impl std::error::Error for TreeError {}

/// Aggregate statistics of a data tree (used by experiments and examples).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeStats {
    /// Total nodes including the virtual root.
    pub node_count: usize,
    /// Number of `struct` nodes (elements + attribute names), excluding the
    /// virtual root.
    pub element_count: usize,
    /// Number of `text` nodes (word occurrences).
    pub word_count: usize,
    /// Number of distinct labels (element names + terms).
    pub distinct_labels: usize,
    /// Maximum depth (root has depth 0).
    pub max_depth: usize,
}

/// One document subtree hanging off the virtual root: a contiguous
/// preorder range `[start, bound]` plus a liveness flag.
///
/// The registry realizes gap-based labelling (DESIGN.md §15): inserts
/// append a fresh range past the current maximum (existing nodes never
/// relabel) and deletes flip `alive` off, leaving the range as a permanent
/// gap in the preorder sequence. Interval-based ancestor tests stay valid
/// because surviving nodes keep their `pre`/`bound` values verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocSpan {
    /// Preorder number of the document root (a child of the virtual root).
    pub start: u32,
    /// Largest preorder number in the document subtree.
    pub bound: u32,
    /// `false` once the document has been deleted (tombstoned).
    pub alive: bool,
}

/// The encoded data tree (Sections 4 and 6.2).
///
/// Nodes are stored in preorder; [`NodeId`] *is* the preorder number `pre`.
/// Node columns are append-only: [`DataTree::append_document`] adds a
/// fresh preorder range at the end and [`DataTree::delete_document`]
/// tombstones a document's range in the [`DocSpan`] registry without
/// touching any other node.
#[derive(Clone, Debug)]
pub struct DataTree {
    pub(crate) labels: Vec<LabelId>,
    pub(crate) types: Vec<NodeType>,
    /// Parent preorder numbers; the root stores `u32::MAX`.
    pub(crate) parents: Vec<u32>,
    pub(crate) bounds: Vec<u32>,
    pub(crate) inscosts: Vec<Cost>,
    pub(crate) pathcosts: Vec<Cost>,
    pub(crate) interner: Interner,
    /// Document registry: the ranges under the virtual root, in preorder.
    pub(crate) docs: Vec<DocSpan>,
}

/// Calls `node(label, type, parent)` for each node `el` and everything
/// below it make under `parent`, in preorder, where `node` returns the
/// preorder number it gave the node (Section 4: attributes become a struct
/// node over the words of the value, text becomes one text node per word).
fn walk_element(el: &Element, parent: u32, node: &mut impl FnMut(&str, NodeType, u32) -> u32) {
    let pre = node(&el.name, NodeType::Struct, parent);
    for (name, value) in &el.attributes {
        let a = node(name, NodeType::Struct, pre);
        for w in split_words(value) {
            node(&w, NodeType::Text, a);
        }
    }
    for child in &el.children {
        match child {
            XmlNode::Element(e) => walk_element(e, pre, node),
            XmlNode::Text(t) => {
                for w in split_words(t) {
                    node(&w, NodeType::Text, pre);
                }
            }
        }
    }
}

/// The length in bytes of the longest label `doc` adds to a tree.
pub fn longest_label(doc: &Document) -> usize {
    let mut longest = 0;
    walk_element(&doc.root, 0, &mut |label, _, _| {
        longest = longest.max(label.len());
        0
    });
    longest
}

impl DataTree {
    /// Number of nodes, including the virtual root.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` only for a tree that was never built (the builder always adds
    /// a root).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The virtual super-root (preorder 0).
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    fn check(&self, n: NodeId) -> usize {
        let i = n.index();
        assert!(i < self.len(), "node {n} out of bounds");
        i
    }

    /// The interned label id of `n`.
    pub fn label_id(&self, n: NodeId) -> LabelId {
        self.labels[self.check(n)]
    }

    /// The label string of `n`.
    pub fn label(&self, n: NodeId) -> &str {
        self.interner.resolve(self.label_id(n))
    }

    /// The node type of `n`.
    pub fn node_type(&self, n: NodeId) -> NodeType {
        self.types[self.check(n)]
    }

    /// The parent of `n`, or `None` for the root.
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        let p = self.parents[self.check(n)];
        (p != u32::MAX).then_some(NodeId(p))
    }

    /// `bound(n)`: the largest preorder number in the subtree of `n`.
    pub fn bound(&self, n: NodeId) -> u32 {
        self.bounds[self.check(n)]
    }

    /// `inscost(n)`: the cost of inserting a node labeled like `n`.
    pub fn inscost(&self, n: NodeId) -> Cost {
        self.inscosts[self.check(n)]
    }

    /// `pathcost(n)`: sum of the insert costs of all proper ancestors.
    pub fn pathcost(&self, n: NodeId) -> Cost {
        self.pathcosts[self.check(n)]
    }

    /// The ancestor test of Section 6.2:
    /// `pre(a) < pre(d) && bound(a) >= pre(d)`.
    pub fn is_ancestor(&self, a: NodeId, d: NodeId) -> bool {
        a.0 < d.0 && self.bound(a) >= d.0
    }

    /// The insert-cost distance between an ancestor `a` and a descendant
    /// `d`: the sum of the insert costs of the nodes strictly between them.
    ///
    /// # Panics
    /// Panics (debug) if `a` is not an ancestor of `d`.
    pub fn distance(&self, a: NodeId, d: NodeId) -> Cost {
        debug_assert!(self.is_ancestor(a, d), "{a} is not an ancestor of {d}");
        self.pathcost(d)
            .checked_sub(self.pathcost(a))
            .and_then(|c| c.checked_sub(self.inscost(a)))
            .expect("pathcosts are finite and monotone along root paths")
    }

    /// Iterates over the children of `n` in document order.
    pub fn children(&self, n: NodeId) -> Children<'_> {
        let i = self.check(n);
        Children {
            tree: self,
            next: n.0 + 1,
            bound: self.bounds[i],
        }
    }

    /// Iterates over all nodes of the subtree rooted at `n` (including `n`)
    /// in preorder.
    pub fn descendants_inclusive(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let b = self.bound(n);
        (n.0..=b).map(NodeId)
    }

    /// Depth of `n` (the root has depth 0).
    pub fn depth(&self, n: NodeId) -> usize {
        let mut d = 0;
        let mut cur = n;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// The label-type path from the root to `n` (Definition 13), root first.
    pub fn label_type_path(&self, n: NodeId) -> Vec<(LabelId, NodeType)> {
        let mut path = Vec::new();
        let mut cur = Some(n);
        while let Some(c) = cur {
            path.push((self.label_id(c), self.node_type(c)));
            cur = self.parent(c);
        }
        path.reverse();
        path
    }

    /// Looks up the id of a label string, if it occurs in the tree.
    pub fn lookup_label(&self, s: &str) -> Option<LabelId> {
        self.interner.get(s)
    }

    /// Resolves a label id to its string.
    pub fn resolve_label(&self, id: LabelId) -> &str {
        self.interner.resolve(id)
    }

    /// The label interner (read access).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// All node ids in preorder, including tombstoned ranges.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len() as u32).map(NodeId)
    }

    /// The document registry: one span per document ever inserted, in
    /// preorder, tombstones included.
    pub fn documents(&self) -> &[DocSpan] {
        &self.docs
    }

    /// The live document whose range contains `pre`, if any.
    pub fn doc_of(&self, pre: u32) -> Option<DocSpan> {
        let i = self
            .docs
            .partition_point(|d| d.start <= pre)
            .checked_sub(1)?;
        let d = self.docs[i];
        (pre <= d.bound && d.alive).then_some(d)
    }

    /// `true` if `n` is the virtual root or belongs to a live document.
    pub fn is_live(&self, n: NodeId) -> bool {
        n.0 == 0 || self.doc_of(n.0).is_some()
    }

    /// All live node ids in preorder (the root, then each live document's
    /// range).
    pub fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(NodeId(0)).chain(
            self.docs
                .iter()
                .filter(|d| d.alive)
                .flat_map(|d| (d.start..=d.bound).map(NodeId)),
        )
    }

    /// Number of live nodes, including the virtual root.
    pub fn live_node_count(&self) -> usize {
        1 + self
            .docs
            .iter()
            .filter(|d| d.alive)
            .map(|d| (d.bound - d.start + 1) as usize)
            .sum::<usize>()
    }

    /// Appends `doc` as a new document at the end of the preorder range
    /// and returns its span. Existing nodes keep their preorder numbers
    /// verbatim (gap-based labelling); only the virtual root's bound grows.
    pub fn append_document(&mut self, doc: &Document, costs: &CostModel) -> DocSpan {
        let start = self.labels.len() as u32;
        self.append_element(&doc.root, 0);
        self.seal(start as usize, costs);
        let bound = self.bounds[0];
        let span = DocSpan {
            start,
            bound,
            alive: true,
        };
        self.docs.push(span);
        span
    }

    /// Tombstones the document rooted at `root` (a live child of the
    /// virtual root) and returns its span. The node columns and every
    /// surviving preorder number are untouched; the root's bound is *not*
    /// shrunk (it only ever grows, which keeps it a valid upper bound).
    pub fn delete_document(&mut self, root: NodeId) -> Option<DocSpan> {
        let d = self
            .docs
            .iter_mut()
            .find(|d| d.start == root.0 && d.alive)?;
        d.alive = false;
        Some(*d)
    }

    /// Derives the bound and both costs (Section 6.2) of every node from
    /// `start` on, whose labels, types and parents are in place and whose
    /// bounds are their own `pre` or already final: each subtree's bound
    /// is propagated to its parent, the virtual root spans the tree, a
    /// node's insert cost comes from `costs`, resolved once per label and
    /// type, and its path cost is the sum of its proper ancestors'.
    pub(crate) fn seal(&mut self, start: usize, costs: &CostModel) {
        for i in (start.max(1)..self.len()).rev() {
            let p = self.parents[i] as usize;
            if p >= start && self.bounds[i] > self.bounds[p] {
                self.bounds[p] = self.bounds[i];
            }
        }
        self.bounds[0] = (self.len() - 1) as u32;
        self.inscosts.resize(self.len(), Cost::ZERO);
        self.pathcosts.resize(self.len(), Cost::ZERO);
        let mut resolved: Vec<[Option<Cost>; 2]> = vec![[None; 2]; self.interner.len()];
        for i in start..self.len() {
            let (label, ty) = (self.labels[i], self.types[i]);
            let slot = &mut resolved[label.index()][usize::from(ty == NodeType::Text)];
            let interner = &self.interner;
            self.inscosts[i] =
                *slot.get_or_insert_with(|| costs.insert_cost(ty, interner.resolve(label)));
            if i > 0 {
                let p = self.parents[i] as usize;
                self.pathcosts[i] = self.pathcosts[p] + self.inscosts[p];
            }
        }
    }

    /// Appends one node, its bound and costs left for [`Self::seal`].
    pub(crate) fn append_node(&mut self, label: &str, ty: NodeType, parent: u32) -> u32 {
        let pre = u32::try_from(self.labels.len()).expect("tree larger than u32 preorder space");
        self.labels.push(self.interner.intern(label));
        self.types.push(ty);
        self.parents.push(parent);
        self.bounds.push(pre);
        pre
    }

    /// Appends `el` and everything below it under `parent`, in preorder.
    pub(crate) fn append_element(&mut self, el: &Element, parent: u32) {
        walk_element(el, parent, &mut |label, ty, parent| {
            self.append_node(label, ty, parent)
        });
    }

    /// The name of the live struct node `n` — what [`Self::subtree_element`]
    /// would put at the root of its element, without building the subtree.
    pub fn element_name(&self, n: NodeId) -> Result<&str, TreeError> {
        if n.index() >= self.len() || !self.is_live(n) {
            return Err(TreeError::InvalidNode(n));
        }
        if self.node_type(n) != NodeType::Struct {
            return Err(TreeError::NotAStructNode(n));
        }
        Ok(self.label(n))
    }

    /// Reconstructs the subtree rooted at `n` as an XML element.
    ///
    /// Consecutive text-node children become one text run with words joined
    /// by single spaces. Attribute nodes come back as child elements (the
    /// data model deliberately erases the element/attribute distinction,
    /// see Section 4).
    pub fn subtree_element(&self, n: NodeId) -> Result<Element, TreeError> {
        let mut el = Element::new(self.element_name(n)?);
        let mut pending_words: Vec<&str> = Vec::new();
        for c in self.children(n) {
            match self.node_type(c) {
                NodeType::Text => pending_words.push(self.label(c)),
                NodeType::Struct => {
                    if !pending_words.is_empty() {
                        el = el.with_text(pending_words.join(" "));
                        pending_words.clear();
                    }
                    el = el.with_child(self.subtree_element(c)?);
                }
            }
        }
        if !pending_words.is_empty() {
            el = el.with_text(pending_words.join(" "));
        }
        Ok(el)
    }

    /// Aggregate statistics over the live nodes.
    pub fn stats(&self) -> TreeStats {
        let mut element_count = 0;
        let mut word_count = 0;
        let mut max_depth = 0;
        let mut depths = vec![0usize; self.len()];
        for n in self.live_nodes() {
            if n.0 != 0 {
                let p = self.parents[n.index()] as usize;
                depths[n.index()] = depths[p] + 1;
                max_depth = max_depth.max(depths[n.index()]);
                match self.node_type(n) {
                    NodeType::Struct => element_count += 1,
                    NodeType::Text => word_count += 1,
                }
            }
        }
        TreeStats {
            node_count: self.live_node_count(),
            element_count,
            word_count,
            distinct_labels: self.interner.len(),
            max_depth,
        }
    }
}

/// Iterator over the children of a node.
pub struct Children<'a> {
    tree: &'a DataTree,
    next: u32,
    bound: u32,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        // Skip tombstoned documents: a dead doc root's bounds entry still
        // covers its whole range, so one jump clears the gap.
        while self.next <= self.bound {
            let id = NodeId(self.next);
            self.next = self.tree.bounds[id.index()] + 1;
            if self.tree.is_live(id) {
                return Some(id);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DataTreeBuilder;
    use approxql_cost::CostModel;

    /// `root(cd(title("piano","concerto"), composer("rachmaninov")))`
    fn small_tree() -> DataTree {
        let mut b = DataTreeBuilder::new();
        b.begin_struct("cd");
        b.begin_struct("title");
        b.add_text("piano concerto");
        b.end();
        b.begin_struct("composer");
        b.add_text("rachmaninov");
        b.end();
        b.end();
        b.build(&CostModel::new())
    }

    #[test]
    fn preorder_layout() {
        let t = small_tree();
        // 0 root, 1 cd, 2 title, 3 "piano", 4 "concerto", 5 composer, 6 "rachmaninov"
        assert_eq!(t.len(), 7);
        assert_eq!(t.label(NodeId(1)), "cd");
        assert_eq!(t.label(NodeId(3)), "piano");
        assert_eq!(t.node_type(NodeId(3)), NodeType::Text);
        assert_eq!(t.label(NodeId(6)), "rachmaninov");
    }

    #[test]
    fn bounds_cover_subtrees() {
        let t = small_tree();
        assert_eq!(t.bound(NodeId(0)), 6);
        assert_eq!(t.bound(NodeId(1)), 6);
        assert_eq!(t.bound(NodeId(2)), 4);
        assert_eq!(t.bound(NodeId(3)), 3);
        assert_eq!(t.bound(NodeId(5)), 6);
    }

    #[test]
    fn ancestor_test_matches_definition() {
        let t = small_tree();
        assert!(t.is_ancestor(NodeId(1), NodeId(4)));
        assert!(t.is_ancestor(NodeId(0), NodeId(6)));
        assert!(!t.is_ancestor(NodeId(2), NodeId(5)));
        assert!(!t.is_ancestor(NodeId(4), NodeId(4)));
        assert!(!t.is_ancestor(NodeId(4), NodeId(1)));
    }

    #[test]
    fn parents_and_depths() {
        let t = small_tree();
        assert_eq!(t.parent(NodeId(0)), None);
        assert_eq!(t.parent(NodeId(1)), Some(NodeId(0)));
        assert_eq!(t.parent(NodeId(4)), Some(NodeId(2)));
        assert_eq!(t.depth(NodeId(0)), 0);
        assert_eq!(t.depth(NodeId(4)), 3);
    }

    #[test]
    fn children_iterator_skips_subtrees() {
        let t = small_tree();
        let kids: Vec<_> = t.children(NodeId(1)).collect();
        assert_eq!(kids, vec![NodeId(2), NodeId(5)]);
        let kids: Vec<_> = t.children(NodeId(3)).collect();
        assert!(kids.is_empty());
    }

    #[test]
    fn pathcost_telescopes() {
        // With the default model every insert costs 1, so pathcost == depth.
        let t = small_tree();
        for n in t.nodes() {
            assert_eq!(t.pathcost(n), Cost::finite(t.depth(n) as u64));
        }
    }

    #[test]
    fn distance_sums_intermediate_inserts() {
        let t = small_tree();
        // Between cd (1) and "piano" (3) lies only title: distance = 1.
        assert_eq!(t.distance(NodeId(1), NodeId(3)), Cost::finite(1));
        // Between root and "piano" lie cd and title: distance = 2.
        assert_eq!(t.distance(NodeId(0), NodeId(3)), Cost::finite(2));
        // Parent-child distance is zero.
        assert_eq!(t.distance(NodeId(2), NodeId(3)), Cost::ZERO);
    }

    #[test]
    fn label_type_path_starts_at_root() {
        let t = small_tree();
        let path = t.label_type_path(NodeId(3));
        let rendered: Vec<_> = path
            .iter()
            .map(|&(l, ty)| (t.resolve_label(l).to_owned(), ty))
            .collect();
        assert_eq!(
            rendered,
            vec![
                (
                    crate::builder::VIRTUAL_ROOT_LABEL.to_owned(),
                    NodeType::Struct
                ),
                ("cd".to_owned(), NodeType::Struct),
                ("title".to_owned(), NodeType::Struct),
                ("piano".to_owned(), NodeType::Text),
            ]
        );
    }

    #[test]
    fn subtree_element_reconstructs_xml() {
        let t = small_tree();
        let el = t.subtree_element(NodeId(1)).unwrap();
        assert_eq!(el.name, "cd");
        assert_eq!(el.child_elements().count(), 2);
        assert_eq!(
            el.find_child("title").unwrap().text_content(),
            "piano concerto"
        );
    }

    #[test]
    fn subtree_element_rejects_text_nodes() {
        let t = small_tree();
        assert_eq!(
            t.subtree_element(NodeId(3)),
            Err(TreeError::NotAStructNode(NodeId(3)))
        );
    }

    #[test]
    fn stats_count_node_kinds() {
        let t = small_tree();
        let s = t.stats();
        assert_eq!(s.node_count, 7);
        assert_eq!(s.element_count, 3);
        assert_eq!(s.word_count, 3);
        assert_eq!(s.max_depth, 3);
    }

    #[test]
    fn descendants_inclusive_covers_interval() {
        let t = small_tree();
        let d: Vec<_> = t.descendants_inclusive(NodeId(2)).collect();
        assert_eq!(d, vec![NodeId(2), NodeId(3), NodeId(4)]);
    }

    #[test]
    fn append_document_matches_batch_build() {
        use approxql_xml::parse_document;
        let costs = CostModel::new();
        let xml_a = r#"<cd year="1901"><title>Piano Concerto</title></cd>"#;
        let xml_b = "<cd><composer>Rachmaninov</composer></cd>";

        let mut incremental = {
            let mut b = DataTreeBuilder::new();
            b.add_document(&parse_document(xml_a).unwrap());
            b.build(&costs)
        };
        let span = incremental.append_document(&parse_document(xml_b).unwrap(), &costs);

        let batch = {
            let mut b = DataTreeBuilder::new();
            b.add_document(&parse_document(xml_a).unwrap());
            b.add_document(&parse_document(xml_b).unwrap());
            b.build(&costs)
        };
        assert_eq!(incremental.len(), batch.len());
        assert_eq!(span.bound as usize, batch.len() - 1);
        assert_eq!(incremental.documents(), batch.documents());
        for n in batch.nodes() {
            assert_eq!(incremental.label(n), batch.label(n), "label of {n}");
            assert_eq!(incremental.node_type(n), batch.node_type(n));
            assert_eq!(incremental.parent(n), batch.parent(n));
            assert_eq!(incremental.bound(n), batch.bound(n), "bound of {n}");
            assert_eq!(incremental.inscost(n), batch.inscost(n));
            assert_eq!(
                incremental.pathcost(n),
                batch.pathcost(n),
                "pathcost of {n}"
            );
        }
    }

    #[test]
    fn delete_document_tombstones_the_range() {
        use approxql_xml::parse_document;
        let costs = CostModel::new();
        let mut b = DataTreeBuilder::new();
        b.add_document(&parse_document("<a><x>one</x></a>").unwrap());
        b.add_document(&parse_document("<b>two</b>").unwrap());
        let mut t = b.build(&costs);
        let first = t.documents()[0];
        assert!(t.is_live(NodeId(first.start)));

        let deleted = t.delete_document(NodeId(first.start)).unwrap();
        assert_eq!(deleted.start, first.start);
        assert!(!t.is_live(NodeId(first.start)));
        assert!(!t.is_live(NodeId(first.bound)));
        // Second delete of the same doc is a no-op.
        assert!(t.delete_document(NodeId(first.start)).is_none());
        // Non-root nodes cannot be deleted.
        assert!(t.delete_document(NodeId(first.start + 1)).is_none());

        // The surviving document keeps its ids and the root skips the gap.
        let kids: Vec<_> = t
            .children(t.root())
            .map(|c| t.label(c).to_owned())
            .collect();
        assert_eq!(kids, vec!["b"]);
        let stats = t.stats();
        assert_eq!(stats.node_count, 1 + 2); // root + <b> + "two"
        assert_eq!(
            t.subtree_element(NodeId(first.start)),
            Err(TreeError::InvalidNode(NodeId(first.start)))
        );
        let live: Vec<_> = t.live_nodes().collect();
        assert_eq!(live.len(), t.live_node_count());
        assert!(live.iter().all(|&n| t.is_live(n)));
    }

    #[test]
    fn append_after_delete_leaves_the_gap() {
        use approxql_xml::parse_document;
        let costs = CostModel::new();
        let mut b = DataTreeBuilder::new();
        b.add_document(&parse_document("<a>one two</a>").unwrap());
        let mut t = b.build(&costs);
        let first = t.documents()[0];
        t.delete_document(NodeId(first.start)).unwrap();
        let span = t.append_document(&parse_document("<c/>").unwrap(), &costs);
        // New ids start after the tombstoned range — never reused.
        assert_eq!(span.start, first.bound + 1);
        assert_eq!(t.bound(t.root()), span.bound);
        let kids: Vec<_> = t
            .children(t.root())
            .map(|c| t.label(c).to_owned())
            .collect();
        assert_eq!(kids, vec!["c"]);
        assert!(t.is_ancestor(t.root(), NodeId(span.start)));
    }
}
