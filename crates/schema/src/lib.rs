//! The schema (DataGuide-style structural summary) of a data tree
//! (Section 7.1 of the paper).
//!
//! The schema is a tree that contains every **label-type path** of the data
//! tree exactly once (Definitions 13/14). Every data node has exactly one
//! **node class** — the schema node reachable by the same label-type path
//! (Definition 15) — and node classes preserve labels, types, and
//! parent-child relationships.
//!
//! We build *compacted* schemata: all text children of a schema node merge
//! into a single text-class node (labeled with a reserved sentinel), and
//! the words are kept in the indexes only — exactly as the paper describes
//! ("sequences of text nodes are merged into a single node and the labels
//! are not stored in the tree but only in the indexes").
//!
//! The schema is itself represented as a [`DataTree`], so it carries the
//! same `pre`/`bound`/`pathcost`/`inscost` encoding as the data tree and
//! the *same evaluation algorithm* can run against it (the key observation
//! of Section 7.1: embeddings are transitive, and every included data tree
//! has exactly one tree class). Because transformation costs are bound to
//! labels, the insert-cost distance between two schema nodes equals the
//! distance between any corresponding pair of instances — schema-estimated
//! embedding costs are *exact*.
//!
//! Alongside the schema tree, [`Schema::build`] constructs
//!
//! * a [`LabelIndex`] over the schema (the `I_struct`/`I_text` the adapted
//!   algorithm `primary` fetches from), keyed by the **data tree's** label
//!   ids, with words resolving to their merged text-class nodes, and
//! * the path-dependent [`SecondaryIndex`] `I_sec` (Section 7.3) mapping
//!   `(schema node, label)` to the preorder-sorted instances.
//!
//! Schemas here grow ([`Schema::insert_range`]), which the paper's never
//! do, and a path that lands in the middle of the tree moves the preorder
//! number of every schema node behind it. So a node class is *stored*
//! under its **class id** — the order in which its path was first seen,
//! which never changes — and only *evaluated* under its **schema pre**;
//! see [`Schema`] and DESIGN.md §6.

use approxql_cost::{CostModel, NodeType};
use approxql_index::{InstancePosting, LabelIndex, Posting, SecondaryIndex};
use approxql_tree::{DataTree, DataTreeBuilder, DocSpan, Interner, LabelId, NodeId};
use std::collections::HashMap;
use std::fmt;

/// Reserved label of merged text-class nodes in the schema tree.
pub const TEXT_CLASS_LABEL: &str = "\u{0}text";

/// Errors raised while reassembling a schema from persisted parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaAssembleError(&'static str);

impl fmt::Display for SchemaAssembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inconsistent persisted schema: {}", self.0)
    }
}

impl std::error::Error for SchemaAssembleError {}

/// What a mutation changed in the schema's secondary index, so the
/// persistence layer can rewrite only the affected `sec#` keys. Classes
/// are named by their **class id**, the number that never moves.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SchemaDelta {
    /// `(class id, label)` keys whose instance list changed, each once:
    /// a list that still exists is rewritten, one that emptied is gone.
    pub changed_sec: Vec<(u32, LabelId)>,
    /// `true` when a new label-type path grew the schema tree: schema
    /// preorder numbers may have moved, so the `schema` tree blob and the
    /// `classes` numbering must be rewritten. No `sec#` key moves — those
    /// are keyed by class id.
    pub rebuilt: bool,
}

/// Aggregate statistics of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaStats {
    /// Nodes in the schema tree (including the root and text classes).
    pub schema_nodes: usize,
    /// Number of distinct `(schema node, label)` postings in `I_sec`.
    pub secondary_postings: usize,
    /// Largest number of instances of any node class (the paper's `s_d`).
    pub max_instances: usize,
}

/// `(parent class id, child data label)` — what tells the children of one
/// class apart. The label is `None` for the text class: all words under
/// one parent merge into it.
type ChildKey = (u32, Option<LabelId>);

/// The compacted schema of a data tree, with its indexes.
///
/// A node class has two numbers. Its **class id** is the order in which
/// its label-type path was first seen; it never changes, and it is what
/// every stored or long-lived structure holds (the shape, the keys of
/// `I_sec`). Its **schema pre** is its preorder number in the schema
/// tree, which is what the evaluators compute with and which moves when a
/// new path lands in the middle of the tree. The secondary index carries
/// the table between the two.
///
/// No data node stores its class: one walk (`classify`) takes data nodes
/// in preorder and follows each node's label from its parent's class in
/// the shape — Definition 15, with the shape as the function's table.
///
/// A **view** ([`Schema::view`]) is the part of a persisted schema one
/// query reads: the tree, and the secondary index with only the lists of
/// the query's labels. It has no shape, which only mutations,
/// [`Schema::class_of`] and [`Schema::check_instances`] read.
#[derive(Clone)]
pub struct Schema {
    tree: DataTree,
    labels: LabelIndex,
    secondary: SecondaryIndex,
    /// The shape the tree was linearized from, over class ids: it
    /// classifies data nodes, and new paths append to it.
    shape: Shape,
}

impl Schema {
    /// Builds the schema of `data`: the empty schema with every live node
    /// appended at once. `costs` supplies the insert costs for the schema
    /// tree's encoding (use the same model as for the data tree so that
    /// schema distances equal instance distances).
    pub fn build(data: &DataTree, costs: &CostModel) -> Schema {
        // The root class alone: what linearizing a one-class shape gives.
        let mut secondary = SecondaryIndex::new();
        secondary
            .set_numbering(vec![0])
            .expect("the root alone is a numbering");
        let mut schema = Schema::view(DataTreeBuilder::new().build(costs), secondary);
        schema.shape = Shape::with_classes(1);
        schema.append(data, data.live_nodes().filter(|n| n.0 != 0), costs, false);
        schema
    }

    /// Reassembles a schema from its persisted parts: the schema tree and
    /// the secondary index with its class numbering (all maintained
    /// incrementally and committed with every mutation). The label index
    /// and the shape are derived, and every live data node must have a
    /// class in it — this reproduces the incremental state *exactly*,
    /// class ids and schema preorder numbers included, so recovered
    /// stores answer queries byte-identically.
    pub fn assemble(
        data: &DataTree,
        tree: DataTree,
        secondary: SecondaryIndex,
    ) -> Result<Schema, SchemaAssembleError> {
        let shape = Shape::of_tree(&tree, data.interner(), &secondary)?;
        let live = data.live_nodes().filter(|n| n.0 != 0);
        if !classify(data, live, |key| shape.find(key), |_, _| {}) {
            return Err(SchemaAssembleError(
                "a live data node has no class in the schema tree",
            ));
        }
        for ((class, _), _) in secondary.iter() {
            if class as usize >= tree.len() {
                return Err(SchemaAssembleError(
                    "secondary key points past the schema tree",
                ));
            }
        }
        let labels = derive_label_index(&tree, &secondary);
        Ok(Schema {
            tree,
            labels,
            secondary,
            shape,
        })
    }

    /// Validates a persisted schema tree against the class `numbering` and
    /// the data tree's interner, as [`Schema::assemble`] does before it
    /// classifies any data node: the numbering covers the tree, no
    /// label-type path occurs twice, and every name is a data label. What
    /// a database opened from a file checks of its schema before any query
    /// builds a [`Schema::view`] of it.
    pub fn check_tree(
        tree: &DataTree,
        interner: &Interner,
        numbering: &SecondaryIndex,
    ) -> Result<(), SchemaAssembleError> {
        Shape::of_tree(tree, interner, numbering).map(drop)
    }

    /// The view of a persisted schema one query reads: `tree`, checked by
    /// [`Schema::check_tree`], and `secondary`, its numbering with the
    /// `sec#` lists of the query's labels. The schema-level label index is
    /// derived from those lists, so it holds exactly the postings of the
    /// same labels in the whole schema.
    pub fn view(tree: DataTree, secondary: SecondaryIndex) -> Schema {
        let labels = derive_label_index(&tree, &secondary);
        Schema {
            tree,
            labels,
            secondary,
            shape: Shape::default(),
        }
    }

    /// Verifies `I_sec` against the classification, for `approxql check`:
    /// every live data node stands in the `(class, label)` list its class
    /// says it belongs to, and the lists hold nothing else. A store whose
    /// lists sit under the wrong (but existing) class ids passes every
    /// other check.
    pub fn check_instances(&self, data: &DataTree) -> Result<(), SchemaAssembleError> {
        let listed: usize = self.secondary.iter().map(|(_, list)| list.len()).sum();
        let mut consistent = listed + 1 == data.live_node_count();
        let live = data.live_nodes().filter(|n| n.0 != 0);
        let classified = classify(
            data,
            live,
            |key| self.shape.find(key),
            |node, class| {
                let list = self.secondary.get(class, data.label_id(node));
                let list = list.unwrap_or_default();
                let at = list.binary_search_by_key(&node.0, |i| i.pre);
                consistent &= at.is_ok_and(|at| list[at].bound == data.bound(node));
            },
        );
        if !(classified && consistent) {
            return Err(SchemaAssembleError(
                "secondary index contradicts the classification",
            ));
        }
        Ok(())
    }

    /// Incrementally absorbs a freshly appended document range (`span`
    /// must be the last live range of `data`, already present in its node
    /// columns). New label-type paths take the next class ids and force a
    /// re-linearization of the schema tree that preserves the historical
    /// first-occurrence order of all existing paths; no existing class id
    /// changes, and only the touched secondary postings do.
    pub fn insert_range(
        &mut self,
        data: &DataTree,
        span: DocSpan,
        costs: &CostModel,
    ) -> SchemaDelta {
        self.append(data, (span.start..=span.bound).map(NodeId), costs, true)
    }

    /// Incrementally removes a tombstoned document range from the
    /// secondary index and the schema label index. The schema tree keeps
    /// instance-less path nodes (they are harmless: with no instances they
    /// can never produce a hit), so a deletion moves no number at all.
    pub fn delete_range(&mut self, data: &DataTree, span: DocSpan) -> SchemaDelta {
        let mut keys: Vec<(u32, LabelId)> = Vec::new();
        let nodes = (span.start..=span.bound).map(NodeId);
        let shape = &self.shape;
        let classified = classify(
            data,
            nodes,
            |key| shape.find(key),
            |node, class| keys.push((class, data.label_id(node))),
        );
        debug_assert!(classified, "dead range node without a class");
        keys.sort_unstable_by_key(|&(c, l)| (c, l.0));
        keys.dedup();
        for &(class, label) in &keys {
            let removed = self
                .secondary
                .remove_range(class, label, span.start, span.bound);
            debug_assert!(removed > 0, "dead range instance missing from I_sec");
            if self.secondary.get(class, label).is_none() {
                self.set_schema_posting(class, label, false);
            }
        }
        SchemaDelta {
            changed_sec: keys,
            rebuilt: false,
        }
    }

    /// Absorbs `nodes` — live data nodes in preorder, past every listed
    /// instance, each a child of the root or of a node before it — which
    /// is all that [`Schema::build`] and [`Schema::insert_range`] do:
    /// classify them (an unseen path takes the next class id), list them
    /// in `I_sec`, and then bring the tree up to date — one
    /// re-linearization, which derives the schema label index, if the
    /// shape grew; else the schema nodes of the keys new to `I_sec` join
    /// their labels' schema-level postings. Without `delta` the changed
    /// keys are not collected, so the shape must grow (or `nodes` be
    /// empty): what a build is, where every path is new.
    fn append(
        &mut self,
        data: &DataTree,
        nodes: impl IntoIterator<Item = NodeId>,
        costs: &CostModel,
        delta: bool,
    ) -> SchemaDelta {
        let mut nodes = nodes.into_iter().peekable();
        let since = nodes.peek().map_or(0, |n| n.0);
        let mut changed: Vec<(u32, LabelId)> = Vec::new();
        let (shape, secondary) = (&mut self.shape, &mut self.secondary);
        classify(
            data,
            nodes,
            |key| Some(shape.child(key)),
            |node, class| {
                let label = data.label_id(node);
                let instance = InstancePosting {
                    pre: node.0,
                    bound: data.bound(node),
                };
                let last = secondary.push(class, label, instance);
                if delta && last.is_none_or(|last| last < since) {
                    changed.push((class, label));
                }
            },
        );
        let rebuilt = self.shape.children.len() != self.tree.len();
        if rebuilt {
            self.relinearize(data, costs);
        } else {
            for &(class, label) in &changed {
                // A list that starts in this append is a key new to I_sec.
                let list = self.secondary.get(class, label).unwrap_or_default();
                if list.first().is_some_and(|first| first.pre >= since) {
                    self.set_schema_posting(class, label, true);
                }
            }
        }
        SchemaDelta {
            changed_sec: changed,
            rebuilt,
        }
    }

    /// Adds (`listed`) or removes the schema node of `class` in the
    /// schema-level posting of `label`, as the key `(class, label)` joins
    /// or leaves `I_sec`; the small list is re-encoded.
    fn set_schema_posting(&mut self, class: u32, label: LabelId, listed: bool) {
        let schema_node = NodeId(self.secondary.pre_of_class(class));
        let ty = self.tree.node_type(schema_node);
        let mut posting = self
            .labels
            .blocks(ty, label)
            .map(|b| b.decode_all())
            .unwrap_or_default();
        match posting.binary_search_by_key(&schema_node.0, |p| p.pre) {
            Err(at) if listed => posting.insert(at, Posting::from_node(&self.tree, schema_node)),
            Ok(at) if !listed => {
                posting.remove(at);
            }
            _ => return,
        }
        if posting.is_empty() {
            self.labels.remove_entry(ty, label);
        } else {
            self.labels.insert_posting(ty, label, posting);
        }
    }

    /// Linearizes the grown shape into a new schema tree (existing
    /// siblings keep their order; new children stand after them) and
    /// installs the numbering that comes with it — the only table a
    /// structural extension moves — and the label index derived from it.
    fn relinearize(&mut self, data: &DataTree, costs: &CostModel) {
        let (tree, pre_of_class) = self.shape.linearize(data, costs);
        self.secondary
            .set_numbering(pre_of_class)
            .expect("a linearization numbers every class exactly once");
        self.tree = tree;
        self.labels = derive_label_index(&self.tree, &self.secondary);
    }

    /// The schema tree (encoded like a data tree).
    pub fn tree(&self) -> &DataTree {
        &self.tree
    }

    /// The schema-level label index (`I_struct`/`I_text` over the schema),
    /// keyed by the *data tree's* label ids.
    pub fn labels(&self) -> &LabelIndex {
        &self.labels
    }

    /// The path-dependent secondary index `I_sec`.
    pub fn secondary(&self) -> &SecondaryIndex {
        &self.secondary
    }

    /// The node class of `node`, a node of `data` (Definition 15), as a
    /// node of the schema tree: where its label-type path leads in the
    /// shape, walked down from the root. `None` if the path is not in the
    /// schema — always so for a [`Schema::view`], which has no shape.
    pub fn class_of(&self, data: &DataTree, node: NodeId) -> Option<NodeId> {
        let mut path: Vec<NodeId> = std::iter::successors(Some(node), |&n| data.parent(n))
            .filter(|n| n.0 != 0)
            .collect();
        path.reverse();
        let mut class = 0;
        let found = classify(data, path, |key| self.shape.find(key), |_, c| class = c);
        found.then(|| NodeId(self.secondary.pre_of_class(class)))
    }

    /// The instances of a schema node that carry `label`.
    pub fn instances(&self, schema_node: NodeId, label: LabelId) -> &[InstancePosting] {
        self.secondary.fetch(schema_node.0, label)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> SchemaStats {
        SchemaStats {
            schema_nodes: self.tree.len(),
            secondary_postings: self.secondary.len(),
            max_instances: self
                .secondary
                .iter()
                .map(|(_, p)| p.len())
                .max()
                .unwrap_or(0),
        }
    }
}

/// Classifies `nodes` — data nodes in preorder, each a child of the root
/// or of a node before it — the one way a data node gets its class: the
/// class of its parent's child under its label (all words under a class
/// share one text class). `class` reads that child off the shape —
/// [`Shape::child`] appends a path it has not seen, [`Shape::find`] only
/// looks — and `visit` sees every node with its class id. `false` as soon
/// as a node has no class; the walk stops there.
fn classify(
    data: &DataTree,
    nodes: impl IntoIterator<Item = NodeId>,
    mut class: impl FnMut(ChildKey) -> Option<u32>,
    mut visit: impl FnMut(NodeId, u32),
) -> bool {
    // `(pre, class)` of the walk's ancestors of the node at hand; the
    // root, class 0, stands below them all.
    let mut open: Vec<(u32, u32)> = Vec::new();
    for node in nodes {
        let parent = data.parent(node).map_or(0, |p| p.0);
        while open.last().is_some_and(|&(pre, _)| pre != parent) {
            open.pop();
        }
        let parent_class = open.last().map_or(0, |&(_, c)| c);
        let Some(c) = class(child_key(data, node, parent_class)) else {
            return false;
        };
        visit(node, c);
        open.push((node.0, c));
    }
    true
}

/// The classification key of `node` under a parent of class `parent`.
fn child_key(data: &DataTree, node: NodeId, parent: u32) -> ChildKey {
    match data.node_type(node) {
        NodeType::Struct => (parent, Some(data.label_id(node))),
        NodeType::Text => (parent, None),
    }
}

/// The shape of a schema over class ids: class 0 is the virtual root, a
/// new path takes the next id, and a class's children stand in
/// first-occurrence order, which is what fixes the schema preorder
/// numbers.
#[derive(Debug, Clone, Default, PartialEq)]
struct Shape {
    /// Children per class.
    children: Vec<Vec<u32>>,
    /// The text class under each class; 0 — the root, which is nobody's
    /// child — while no word has been seen there. Nine data nodes in ten
    /// are words, so theirs is the lookup that is an array index.
    text_child: Vec<u32>,
    /// `(parent class id, label)` → struct child class id.
    struct_child: HashMap<(u32, LabelId), u32>,
}

impl Shape {
    /// `n` classes (class 0 is the root), none of them anybody's child yet.
    fn with_classes(n: usize) -> Shape {
        Shape {
            children: vec![Vec::new(); n],
            text_child: vec![0; n],
            struct_child: HashMap::new(),
        }
    }

    /// The shape a persisted schema tree was linearized from, read back
    /// through `numbering`'s class ids (which must cover the tree) and
    /// translating schema labels into the data tree's label ids.
    fn of_tree(
        tree: &DataTree,
        interner: &Interner,
        numbering: &SecondaryIndex,
    ) -> Result<Shape, SchemaAssembleError> {
        if numbering.numbering().len() != tree.len() {
            return Err(SchemaAssembleError(
                "class numbering does not cover the schema tree",
            ));
        }
        let mut shape = Shape::with_classes(tree.len());
        for s in tree.nodes() {
            let parent = numbering.class_of_pre(s.0);
            for c in tree.children(s) {
                let label = match tree.node_type(c) {
                    NodeType::Text => None,
                    NodeType::Struct => Some(interner.get(tree.label(c)).ok_or(
                        SchemaAssembleError("schema label missing from the data interner"),
                    )?),
                };
                if shape.find((parent, label)).is_some() {
                    return Err(SchemaAssembleError("duplicate label-type path"));
                }
                shape.link((parent, label), numbering.class_of_pre(c.0));
            }
        }
        Ok(shape)
    }

    /// The child of `key.0` for `key`, if that path has been seen.
    fn find(&self, (parent, label): ChildKey) -> Option<u32> {
        match label {
            None => self
                .text_child
                .get(parent as usize)
                .copied()
                .filter(|&c| c != 0),
            Some(label) => self.struct_child.get(&(parent, label)).copied(),
        }
    }

    /// Makes the existing class `c` the child of `key.0` for `key`.
    fn link(&mut self, (parent, label): ChildKey, c: u32) {
        self.children[parent as usize].push(c);
        match label {
            None => self.text_child[parent as usize] = c,
            Some(label) => {
                self.struct_child.insert((parent, label), c);
            }
        }
    }

    /// The child of `key.0` for `key`, appended if the path is new.
    fn child(&mut self, key: ChildKey) -> u32 {
        if let Some(c) = self.find(key) {
            return c;
        }
        let c = self.children.len() as u32;
        self.children.push(Vec::new());
        self.text_child.push(0);
        self.link(key, c);
        c
    }

    /// The key every class but the root was entered under, by class id.
    fn keys(&self) -> Vec<Option<ChildKey>> {
        let mut key_of = vec![None; self.children.len()];
        for (&(parent, label), &c) in &self.struct_child {
            key_of[c as usize] = Some((parent, Some(label)));
        }
        for (parent, &c) in self.text_child.iter().enumerate() {
            if c != 0 {
                key_of[c as usize] = Some((parent as u32, None));
            }
        }
        key_of
    }

    /// Linearizes the shape into a schema [`DataTree`] (iterative preorder
    /// DFS) and returns it with `shape_pre[class id] = schema pre`.
    /// Struct labels resolve through `data`'s interner.
    fn linearize(&self, data: &DataTree, costs: &CostModel) -> (DataTree, Vec<u32>) {
        let key_of = self.keys();
        let mut builder = DataTreeBuilder::new();
        let mut shape_pre: Vec<u32> = vec![0; self.children.len()];
        let mut stack: Vec<(u32, bool)> =
            self.children[0].iter().rev().map(|&c| (c, false)).collect();
        while let Some((s, closing)) = stack.pop() {
            if closing {
                builder.end();
                continue;
            }
            match key_of[s as usize].expect("every non-root shape node has a key") {
                (_, Some(label)) => {
                    shape_pre[s as usize] = builder.begin_struct(data.resolve_label(label)).0;
                    stack.push((s, true));
                    for &c in self.children[s as usize].iter().rev() {
                        stack.push((c, false));
                    }
                }
                (_, None) => {
                    debug_assert!(self.children[s as usize].is_empty());
                    shape_pre[s as usize] = builder.add_word(TEXT_CLASS_LABEL).0;
                }
            }
        }
        (builder.build(costs), shape_pre)
    }
}

/// The schema-level label index, derived from the secondary index: every
/// `(schema node, label)` key of `I_sec` yields one posting entry — the
/// query's `fetch` against the schema must find, for a word, all text
/// classes under which the word occurs, and for a name, all schema nodes
/// with that name.
fn derive_label_index(tree: &DataTree, secondary: &SecondaryIndex) -> LabelIndex {
    let mut label_postings: HashMap<(NodeType, LabelId), Vec<Posting>> = HashMap::new();
    for ((class, label), _) in secondary.iter() {
        let schema_node = NodeId(secondary.pre_of_class(class));
        label_postings
            .entry((tree.node_type(schema_node), label))
            .or_default()
            .push(Posting::from_node(tree, schema_node));
    }
    let mut labels = LabelIndex::default();
    for ((ty, label), mut postings) in label_postings {
        postings.sort_by_key(|p| p.pre);
        postings.dedup_by_key(|p| p.pre);
        labels.insert_posting(ty, label, postings);
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxql_cost::Cost;

    /// Two CDs with the same structure plus one DVD.
    fn data() -> DataTree {
        let mut b = DataTreeBuilder::new();
        for title in ["piano concerto", "cello suite"] {
            b.begin_struct("cd");
            b.begin_struct("title");
            b.add_text(title);
            b.end();
            b.begin_struct("composer");
            b.add_text("someone");
            b.end();
            b.end();
        }
        b.begin_struct("dvd");
        b.begin_struct("title");
        b.add_text("piano");
        b.end();
        b.end();
        b.build(&CostModel::new())
    }

    #[test]
    fn schema_is_much_smaller_than_data() {
        let d = data();
        let s = Schema::build(&d, &CostModel::new());
        // root, cd, title, text, composer, text, dvd, title, text
        assert_eq!(s.tree().len(), 9);
        assert!(s.tree().len() < d.len());
    }

    #[test]
    fn every_label_type_path_occurs_exactly_once() {
        let d = data();
        let s = Schema::build(&d, &CostModel::new());
        let mut paths = std::collections::HashSet::new();
        for n in s.tree().nodes() {
            let path: Vec<_> = s
                .tree()
                .label_type_path(n)
                .iter()
                .map(|&(l, ty)| (s.tree().resolve_label(l).to_owned(), ty))
                .collect();
            assert!(paths.insert(path), "duplicate label-type path in schema");
        }
        for n in d.nodes() {
            let class = s.class_of(&d, n).unwrap();
            assert_eq!(d.depth(n), s.tree().depth(class));
        }
    }

    #[test]
    fn node_classes_preserve_labels_types_and_parents() {
        let d = data();
        let s = Schema::build(&d, &CostModel::new());
        for n in d.nodes() {
            let c = s.class_of(&d, n).unwrap();
            assert_eq!(s.tree().node_type(c), d.node_type(n));
            match d.node_type(n) {
                NodeType::Struct => {
                    if n.0 != 0 {
                        assert_eq!(s.tree().label(c), d.label(n));
                    }
                }
                NodeType::Text => {
                    assert_eq!(s.tree().label(c), TEXT_CLASS_LABEL);
                }
            }
            if let Some(p) = d.parent(n) {
                assert_eq!(s.tree().parent(c), s.class_of(&d, p));
            }
        }
    }

    #[test]
    fn secondary_index_lists_all_instances_in_preorder() {
        let d = data();
        let s = Schema::build(&d, &CostModel::new());
        let cd = d.lookup_label("cd").unwrap();
        let cd_schema = s.labels().fetch(NodeType::Struct, cd);
        assert_eq!(cd_schema.len(), 1);
        let instances = s.instances(NodeId(cd_schema[0].pre), cd);
        assert_eq!(instances.len(), 2);
        assert!(instances[0].pre < instances[1].pre);
        for inst in instances {
            assert_eq!(d.label(NodeId(inst.pre)), "cd");
        }
    }

    #[test]
    fn words_resolve_to_their_text_classes() {
        let d = data();
        let s = Schema::build(&d, &CostModel::new());
        let piano = d.lookup_label("piano").unwrap();
        // "piano" occurs under cd/title and dvd/title: two classes.
        let classes = s.labels().fetch(NodeType::Text, piano);
        assert_eq!(classes.len(), 2);
        for c in classes {
            assert_eq!(s.tree().label(NodeId(c.pre)), TEXT_CLASS_LABEL);
            let instances = s.instances(NodeId(c.pre), piano);
            assert_eq!(instances.len(), 1);
            assert_eq!(d.label(NodeId(instances[0].pre)), "piano");
        }
        // "cello" occurs only under cd/title: one class.
        let cello = d.lookup_label("cello").unwrap();
        assert_eq!(s.labels().fetch(NodeType::Text, cello).len(), 1);
    }

    #[test]
    fn a_view_reads_its_labels_like_the_whole_schema() {
        let d = data();
        let s = Schema::build(&d, &CostModel::new());
        let [piano, title, cd] = ["piano", "title", "cd"].map(|l| d.lookup_label(l).unwrap());
        let mut lists = SecondaryIndex::new();
        lists
            .set_numbering(s.secondary().numbering().to_vec())
            .unwrap();
        for ((class, label), instances) in s.secondary().iter() {
            if label == piano || label == title {
                for &i in instances {
                    lists.push(class, label, i);
                }
            }
        }
        Schema::check_tree(s.tree(), d.interner(), &lists).unwrap();
        let view = Schema::view(s.tree().clone(), lists);
        for (ty, label) in [(NodeType::Text, piano), (NodeType::Struct, title)] {
            let postings = s.labels().fetch(ty, label);
            assert_eq!(view.labels().fetch(ty, label), postings);
            for p in postings {
                let node = NodeId(p.pre);
                assert_eq!(view.instances(node, label), s.instances(node, label));
            }
        }
        assert!(view.labels().fetch(NodeType::Struct, cd).is_empty());
        // The tree is checked against the interner it is read with.
        let other = DataTreeBuilder::new().build(&CostModel::new());
        let err = Schema::check_tree(s.tree(), other.interner(), s.secondary()).err();
        assert_eq!(
            err.map(|e| e.0),
            Some("schema label missing from the data interner")
        );
    }

    #[test]
    fn schema_distances_equal_instance_distances() {
        let costs = CostModel::builder()
            .insert(NodeType::Struct, "title", Cost::finite(3))
            .insert(NodeType::Struct, "cd", Cost::finite(2))
            .build();
        let mut b = DataTreeBuilder::new();
        b.begin_struct("cd");
        b.begin_struct("title");
        b.add_text("piano");
        b.end();
        b.end();
        let d = b.build(&costs);
        let s = Schema::build(&d, &costs);
        let cd_data = NodeId(1);
        let piano_data = NodeId(3);
        let dist_data = d.distance(cd_data, piano_data);
        let dist_schema = s.tree().distance(
            s.class_of(&d, cd_data).unwrap(),
            s.class_of(&d, piano_data).unwrap(),
        );
        assert_eq!(dist_data, dist_schema);
        assert_eq!(dist_data, Cost::finite(3)); // title sits in between
    }

    #[test]
    fn empty_data_tree_yields_root_only_schema() {
        let d = DataTreeBuilder::new().build(&CostModel::new());
        let s = Schema::build(&d, &CostModel::new());
        assert_eq!(s.tree().len(), 1);
        assert!(s.secondary().is_empty());
        assert_eq!(s.stats().max_instances, 0);
    }

    #[test]
    fn stats_report_counts() {
        let d = data();
        let s = Schema::build(&d, &CostModel::new());
        let st = s.stats();
        assert_eq!(st.schema_nodes, 9);
        assert_eq!(st.max_instances, 2); // the two cd instances
    }

    /// The class id of every live node of `tree`, by preorder (0 for a
    /// tombstoned one).
    fn class_ids(schema: &Schema, tree: &DataTree) -> Vec<u32> {
        tree.nodes()
            .map(|n| match tree.is_live(n) {
                true => {
                    let class = schema.class_of(tree, n).unwrap();
                    schema.secondary.class_of_pre(class.0)
                }
                false => 0,
            })
            .collect()
    }

    /// Decoded `I_sec` contents: `(schema pre, label)` → instance spans.
    type SecSnapshot = Vec<((u32, u32), Vec<(u32, u32)>)>;
    /// Decoded label-index contents: `(node type, label)` → pres.
    type LabSnapshot = Vec<((u8, u32), Vec<u32>)>;

    /// Orders the decoded contents of two schemas' indexes for comparison.
    fn snapshot(s: &Schema) -> (Vec<u8>, SecSnapshot, LabSnapshot) {
        let tree_bytes = s.tree().to_bytes();
        let mut sec: Vec<_> = s
            .secondary()
            .iter()
            .map(|((p, l), b)| ((p, l.0), b.iter().map(|i| (i.pre, i.bound)).collect()))
            .collect();
        sec.sort();
        let mut lab: Vec<_> = s
            .labels()
            .iter()
            .map(|((ty, l), b)| {
                (
                    (ty as u8, l.0),
                    b.decode_all().iter().map(|p| p.pre).collect(),
                )
            })
            .collect();
        lab.sort();
        (tree_bytes, sec, lab)
    }

    #[test]
    fn insert_range_matches_batch_build() {
        use approxql_xml::parse_document;
        let costs = CostModel::new();
        let docs = [
            r#"<cd><title>piano concerto</title></cd>"#,
            r#"<cd><title>cello suite</title><composer>someone</composer></cd>"#, // new path
            r#"<dvd><title>piano</title></dvd>"#,                                 // new path
            r#"<cd><title>violin</title></cd>"#,                                  // no new path
            // A new path under the *first* class, once later classes
            // exist: every schema pre from `dvd` on moves.
            r#"<cd><tracks><track>allegro</track></tracks></cd>"#,
            r#"<dvd><title>piano</title><region>two</region></dvd>"#,
        ];
        // Incremental: one doc at a time.
        let mut tree = {
            let mut b = DataTreeBuilder::new();
            b.add_document(&parse_document(docs[0]).unwrap());
            b.build(&costs)
        };
        let mut schema = Schema::build(&tree, &costs);
        let mut moved = 0;
        for d in &docs[1..] {
            // The "stable" in stable class id: across any extension, no
            // existing node changes class and no existing path its ids.
            let (classes, paths) = (class_ids(&schema, &tree), schema.shape.keys());
            let pres = schema.secondary.numbering().to_vec();
            let span = tree.append_document(&parse_document(d).unwrap(), &costs);
            let delta = schema.insert_range(&tree, span, &costs);
            assert_eq!(class_ids(&schema, &tree)[..classes.len()], classes[..]);
            let grown = schema.shape.keys();
            assert_eq!(grown[..paths.len()], paths[..]);
            assert_eq!(delta.rebuilt, grown.len() > paths.len());
            moved += usize::from(schema.secondary.numbering()[..pres.len()] != pres[..]);
        }
        assert_eq!(moved, 1, "exactly the mid-schema path renumbers the tree");
        // Batch: all docs at once (same first-occurrence order).
        let batch_tree = {
            let mut b = DataTreeBuilder::new();
            for d in &docs {
                b.add_document(&parse_document(d).unwrap());
            }
            b.build(&costs)
        };
        let batch = Schema::build(&batch_tree, &costs);
        assert_eq!(snapshot(&schema), snapshot(&batch));
        assert_eq!(class_ids(&schema, &tree), class_ids(&batch, &batch_tree));
        assert_eq!(schema.shape, batch.shape);
    }

    #[test]
    fn insert_range_reports_rebuilds() {
        use approxql_xml::parse_document;
        let costs = CostModel::new();
        let mut tree = {
            let mut b = DataTreeBuilder::new();
            b.add_document(&parse_document("<cd><title>piano</title></cd>").unwrap());
            b.build(&costs)
        };
        let mut schema = Schema::build(&tree, &costs);
        let span = tree.append_document(
            &parse_document("<cd><title>cello</title></cd>").unwrap(),
            &costs,
        );
        let delta = schema.insert_range(&tree, span, &costs);
        assert!(!delta.rebuilt, "no new path must not rebuild");
        assert!(!delta.changed_sec.is_empty());
        let span = tree.append_document(
            &parse_document("<lp><title>organ</title></lp>").unwrap(),
            &costs,
        );
        let delta = schema.insert_range(&tree, span, &costs);
        assert!(delta.rebuilt, "new top-level path must rebuild");
    }

    #[test]
    fn delete_range_empties_keys_and_assemble_roundtrips() {
        use approxql_xml::parse_document;
        let costs = CostModel::new();
        let mut tree = {
            let mut b = DataTreeBuilder::new();
            b.add_document(&parse_document("<cd><title>piano</title></cd>").unwrap());
            b.add_document(&parse_document("<cd><title>piano cello</title></cd>").unwrap());
            b.build(&costs)
        };
        let mut schema = Schema::build(&tree, &costs);
        let first = tree.documents()[0];
        tree.delete_document(NodeId(first.start)).unwrap();
        let delta = schema.delete_range(&tree, first);
        assert!(!delta.rebuilt);
        // "piano" survives in doc 2, so its key changed and stays.
        let piano = tree.lookup_label("piano").unwrap();
        let sec = schema.secondary();
        assert!(delta
            .changed_sec
            .iter()
            .any(|&(c, l)| l == piano && sec.get(c, l).is_some()));
        // Deleting the second doc empties everything.
        let second = tree.documents()[1];
        tree.delete_document(NodeId(second.start)).unwrap();
        let delta = schema.delete_range(&tree, second);
        assert!(!delta.changed_sec.is_empty());
        assert!(schema.secondary().is_empty());
        assert!(schema.labels().is_empty());

        // Reassembly from the persisted parts reproduces the state exactly.
        let assembled =
            Schema::assemble(&tree, schema.tree().clone(), schema.secondary().clone()).unwrap();
        assert_eq!(snapshot(&assembled), snapshot(&schema));
        assert_eq!(assembled.shape, schema.shape);
    }

    #[test]
    fn assemble_reproduces_ids_and_pres_and_rejects_a_foreign_numbering() {
        use approxql_xml::parse_document;
        let costs = CostModel::new();
        let mut tree = {
            let mut b = DataTreeBuilder::new();
            b.add_document(&parse_document("<cd><title>piano</title></cd>").unwrap());
            b.add_document(&parse_document("<dvd>film</dvd>").unwrap());
            b.build(&costs)
        };
        let mut schema = Schema::build(&tree, &costs);
        let doc = parse_document("<cd><year>1999</year></cd>").unwrap();
        let span = tree.append_document(&doc, &costs);
        assert!(schema.insert_range(&tree, span, &costs).rebuilt);
        // `year` is class 6 and schema node 4; `dvd` moved from 4 to 6.
        assert_eq!(schema.secondary().numbering(), [0, 1, 2, 3, 6, 7, 4, 5]);
        schema.check_instances(&tree).unwrap();

        let assembled =
            Schema::assemble(&tree, schema.tree().clone(), schema.secondary().clone()).unwrap();
        assert_eq!(snapshot(&assembled), snapshot(&schema));
        assert_eq!(class_ids(&assembled, &tree), class_ids(&schema, &tree));
        assert_eq!(assembled.shape, schema.shape);

        // A numbering of another length never reaches the table lookups.
        let mut short = schema.secondary().clone();
        short.set_numbering(vec![0, 1, 2]).unwrap();
        let err = Schema::assemble(&tree, schema.tree().clone(), short).err();
        assert_eq!(
            err.map(|e| e.0),
            Some("class numbering does not cover the schema tree")
        );

        // Two ids swapped — still a permutation, still assembles (`cd` and
        // `dvd` are both struct children of the root) — but the lists now
        // sit under the wrong classes, which is what `check` is for.
        let mut swapped = schema.secondary().clone();
        swapped.set_numbering(vec![0, 6, 2, 3, 1, 7, 4, 5]).unwrap();
        let wrong = Schema::assemble(&tree, schema.tree().clone(), swapped).unwrap();
        assert_eq!(
            wrong.check_instances(&tree).err().map(|e| e.0),
            Some("secondary index contradicts the classification")
        );
    }

    #[test]
    fn assemble_rejects_a_schema_tree_that_does_not_fit_the_data() {
        use approxql_xml::parse_document;
        let costs = CostModel::new();
        let mut tree = {
            let mut b = DataTreeBuilder::new();
            b.add_document(&parse_document("<cd><title>piano</title></cd>").unwrap());
            b.build(&costs)
        };
        let schema = Schema::build(&tree, &costs);
        let assemble = |data: &DataTree, schema_tree: DataTree, classes: u32| {
            let mut numbering = SecondaryIndex::new();
            numbering.set_numbering((0..classes).collect()).unwrap();
            Schema::assemble(data, schema_tree, numbering)
                .err()
                .map(|e| e.0)
        };

        // One path twice: as struct siblings, and as two text classes
        // under one parent.
        for second_child in ["title", TEXT_CLASS_LABEL] {
            let mut b = DataTreeBuilder::new();
            b.begin_struct("cd");
            for _ in 0..2 {
                if second_child == TEXT_CLASS_LABEL {
                    b.add_word(TEXT_CLASS_LABEL);
                } else {
                    b.begin_struct(second_child);
                    b.end();
                }
            }
            b.end();
            assert_eq!(
                assemble(&tree, b.build(&costs), 4),
                Some("duplicate label-type path")
            );
        }

        // Data that grew a path (a word directly under `cd`) behind the
        // schema's back.
        tree.append_document(&parse_document("<cd>live</cd>").unwrap(), &costs);
        assert_eq!(
            assemble(&tree, schema.tree().clone(), 4),
            Some("a live data node has no class in the schema tree")
        );
    }

    #[test]
    fn deleted_paths_keep_schema_nodes_but_produce_no_hits() {
        use approxql_xml::parse_document;
        let costs = CostModel::new();
        let mut tree = {
            let mut b = DataTreeBuilder::new();
            b.add_document(&parse_document("<cd><title>piano</title></cd>").unwrap());
            b.add_document(&parse_document("<dvd>film</dvd>").unwrap());
            b.build(&costs)
        };
        let mut schema = Schema::build(&tree, &costs);
        let nodes_before = schema.tree().len();
        let first = tree.documents()[0];
        tree.delete_document(NodeId(first.start)).unwrap();
        schema.delete_range(&tree, first);
        // The schema tree is untouched (stable pres)…
        assert_eq!(schema.tree().len(), nodes_before);
        // …but the cd class no longer appears in the label index.
        let cd = tree.lookup_label("cd").unwrap();
        assert!(schema.labels().blocks(NodeType::Struct, cd).is_none());
    }

    #[test]
    fn recursive_structures_fold_per_path() {
        // part > part > part: each nesting level is its own label-type
        // path, so the schema keeps one node per depth.
        let mut b = DataTreeBuilder::new();
        b.begin_struct("part");
        b.begin_struct("part");
        b.begin_struct("part");
        b.end();
        b.end();
        b.end();
        b.begin_struct("part");
        b.begin_struct("part");
        b.end();
        b.end();
        let d = b.build(&CostModel::new());
        let s = Schema::build(&d, &CostModel::new());
        // root + part@1 + part@2 + part@3
        assert_eq!(s.tree().len(), 4);
        let part = d.lookup_label("part").unwrap();
        // Three schema nodes carry the label `part`.
        assert_eq!(s.labels().fetch(NodeType::Struct, part).len(), 3);
    }
}
