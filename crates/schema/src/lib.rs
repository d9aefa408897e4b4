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

use approxql_cost::{CostModel, NodeType};
use approxql_index::{InstancePosting, LabelIndex, Posting, SecondaryIndex};
use approxql_tree::{DataTree, DataTreeBuilder, DocSpan, LabelId, NodeId};
use std::collections::HashMap;
use std::fmt;

/// Reserved label of merged text-class nodes in the schema tree.
pub const TEXT_CLASS_LABEL: &str = "\u{0}text";

/// Errors raised while reassembling a schema from persisted parts.
#[derive(Debug, PartialEq, Eq)]
pub struct SchemaAssembleError(&'static str);

impl fmt::Display for SchemaAssembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inconsistent persisted schema: {}", self.0)
    }
}

impl std::error::Error for SchemaAssembleError {}

/// What a mutation changed in the schema's secondary index, so the
/// persistence layer can rewrite only the affected `sec#` keys.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SchemaDelta {
    /// `(schema_pre, label)` keys whose instance posting changed.
    pub touched_sec: Vec<(u32, LabelId)>,
    /// `(schema_pre, label)` keys that emptied and were dropped.
    pub removed_sec: Vec<(u32, LabelId)>,
    /// `true` when a new label-type path forced a schema-tree rebuild:
    /// every schema preorder number may have moved, so the whole `sec#`
    /// keyspace and the schema tree blob must be rewritten.
    pub rebuilt: bool,
}

/// Aggregate statistics of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaStats {
    /// Nodes in the schema tree (including the root and text classes).
    pub schema_nodes: usize,
    /// Nodes in the underlying data tree.
    pub data_nodes: usize,
    /// Number of distinct `(schema node, label)` postings in `I_sec`.
    pub secondary_postings: usize,
    /// Largest number of instances of any node class (the paper's `s_d`).
    pub max_instances: usize,
}

/// `(parent schema pre, child type, child data label)` — the key of the
/// shape lookup; the label is `None` for merged text classes.
type ChildKey = (u32, NodeType, Option<LabelId>);

/// The compacted schema of a data tree, with its indexes.
pub struct Schema {
    tree: DataTree,
    labels: LabelIndex,
    secondary: SecondaryIndex,
    /// `class_of[data_pre] = schema_pre`. Entries of tombstoned data nodes
    /// go stale and must not be read (liveness is checked at the tree).
    class_of: Vec<u32>,
    /// [`ChildKey`] → child schema pre. This is the persistent form of the
    /// shape lookup used during the build, kept so inserts can classify new
    /// nodes without an O(data) pass.
    child_lookup: HashMap<ChildKey, u32>,
}

impl Schema {
    /// Builds the schema of `data`. `costs` supplies the insert costs for
    /// the schema tree's encoding (use the same model as for the data tree
    /// so that schema distances equal instance distances).
    pub fn build(data: &DataTree, costs: &CostModel) -> Schema {
        // ---- pass 1: discover the shape ---------------------------------
        let mut shape = Shape::root_only();
        let n = data.len();
        let mut node_shape: Vec<u32> = vec![0; n];
        for node in data.live_nodes().filter(|n| n.0 != 0) {
            let parent_shape = node_shape[data.parent(node).expect("non-root").index()];
            node_shape[node.index()] = shape.child(child_key(data, node, parent_shape));
        }
        let (tree, shape_pre) = shape.linearize(data, costs);

        // ---- pass 2: instances, I_sec, and the schema label index -------
        let mut class_of: Vec<u32> = vec![0; n];
        let mut secondary = SecondaryIndex::new();
        for node in data.live_nodes().filter(|n| n.0 != 0) {
            let class = shape_pre[node_shape[node.index()] as usize];
            class_of[node.index()] = class;
            secondary.push(
                class,
                data.label_id(node),
                InstancePosting {
                    pre: node.0,
                    bound: data.bound(node),
                },
            );
        }
        let labels = derive_label_index(&tree, &secondary);

        Schema {
            tree,
            labels,
            secondary,
            class_of,
            child_lookup: shape.lookup_by_pre(&shape_pre),
        }
    }

    /// Reassembles a schema from its persisted parts: the schema tree and
    /// the secondary index (both maintained incrementally and committed
    /// with every mutation). The label index, the node classes of the live
    /// data nodes, and the shape lookup are derived — this reproduces the
    /// incremental state *exactly*, including schema preorder numbers, so
    /// recovered stores answer queries byte-identically.
    pub fn assemble(
        data: &DataTree,
        tree: DataTree,
        secondary: SecondaryIndex,
    ) -> Result<Schema, SchemaAssembleError> {
        let child_lookup = lookup_from_tree(&tree, data)?;
        let mut class_of: Vec<u32> = vec![0; data.len()];
        for node in data.live_nodes().filter(|n| n.0 != 0) {
            let parent_class = class_of[data.parent(node).expect("non-root").index()];
            let Some(&class) = child_lookup.get(&child_key(data, node, parent_class)) else {
                return Err(SchemaAssembleError(
                    "a live data node has no class in the schema tree",
                ));
            };
            class_of[node.index()] = class;
        }
        for ((schema_pre, _), _) in secondary.iter() {
            if schema_pre as usize >= tree.len() {
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
            class_of,
            child_lookup,
        })
    }

    /// Incrementally absorbs a freshly appended document range (`span`
    /// must be the last live range of `data`, already present in its node
    /// columns). New label-type paths force a schema-tree rebuild that
    /// preserves the historical first-occurrence order of all existing
    /// paths; otherwise only the touched secondary postings change.
    pub fn insert_range(
        &mut self,
        data: &DataTree,
        span: DocSpan,
        costs: &CostModel,
    ) -> SchemaDelta {
        let mut delta = SchemaDelta::default();
        // Classify with a dry run: any missing path triggers the
        // structural path (rebuild + remap) before instances are added.
        if !self.range_is_classifiable(data, span) {
            self.extend_structure(data, span, costs);
            delta.rebuilt = true;
        }
        if self.class_of.len() < data.len() {
            self.class_of.resize(data.len(), 0);
        }
        let mut touched: Vec<(u32, LabelId)> = Vec::new();
        for pre in span.start..=span.bound {
            let node = NodeId(pre);
            let parent_class = self.class_of[data.parent(node).expect("non-root").index()];
            let class = *self
                .child_lookup
                .get(&child_key(data, node, parent_class))
                .expect("extend_structure covers every path of the range");
            self.class_of[node.index()] = class;
            let label = data.label_id(node);
            let sec_key = (class, label);
            if self.secondary.get(class, label).is_none() {
                // A key new to I_sec: the schema label index gains this
                // schema node for the label (small list, re-encoded).
                let ty = self.tree.node_type(NodeId(class));
                let mut posting = self
                    .labels
                    .blocks(ty, label)
                    .map(|b| b.decode_all())
                    .unwrap_or_default();
                let entry = Posting::from_node(&self.tree, NodeId(class));
                if let Err(pos) = posting.binary_search_by_key(&class, |p: &Posting| p.pre) {
                    posting.insert(pos, entry);
                    self.labels.insert_posting(ty, label, posting);
                }
            }
            self.secondary.push(
                class,
                label,
                InstancePosting {
                    pre,
                    bound: data.bound(node),
                },
            );
            touched.push(sec_key);
        }
        touched.sort_unstable_by_key(|&(p, l)| (p, l.0));
        touched.dedup();
        delta.touched_sec = touched;
        delta
    }

    /// Incrementally removes a tombstoned document range from the
    /// secondary index and the schema label index. The schema tree keeps
    /// instance-less path nodes (they are harmless: with no instances they
    /// can never produce a hit) so schema preorder numbers stay stable.
    pub fn delete_range(&mut self, data: &DataTree, span: DocSpan) -> SchemaDelta {
        let mut keys: Vec<(u32, LabelId)> = (span.start..=span.bound)
            .map(|pre| (self.class_of[pre as usize], data.label_id(NodeId(pre))))
            .collect();
        keys.sort_unstable_by_key(|&(p, l)| (p, l.0));
        keys.dedup();
        let mut delta = SchemaDelta::default();
        for (class, label) in keys {
            let removed = self
                .secondary
                .remove_range(class, label, span.start, span.bound);
            debug_assert!(removed > 0, "dead range instance missing from I_sec");
            if self.secondary.get(class, label).is_none() {
                // The key emptied: drop this schema node from the label's
                // schema-level posting.
                delta.removed_sec.push((class, label));
                let ty = self.tree.node_type(NodeId(class));
                let mut posting = self
                    .labels
                    .blocks(ty, label)
                    .map(|b| b.decode_all())
                    .unwrap_or_default();
                posting.retain(|p| p.pre != class);
                if posting.is_empty() {
                    self.labels.remove_entry(ty, label);
                } else {
                    self.labels.insert_posting(ty, label, posting);
                }
            } else {
                delta.touched_sec.push((class, label));
            }
        }
        delta
    }

    /// `true` when every node of `span` maps onto an existing schema path.
    fn range_is_classifiable(&self, data: &DataTree, span: DocSpan) -> bool {
        // Walk with a scratch class array local to the range (the range is
        // contiguous and parents precede children within it).
        let mut scratch: HashMap<u32, u32> = HashMap::new();
        for pre in span.start..=span.bound {
            let node = NodeId(pre);
            let parent = data.parent(node).expect("non-root").0;
            let parent_class = if parent < span.start {
                0 // the virtual root
            } else {
                scratch[&parent]
            };
            match self.child_lookup.get(&child_key(data, node, parent_class)) {
                Some(&class) => {
                    scratch.insert(pre, class);
                }
                None => return false,
            }
        }
        true
    }

    /// Grows the schema tree with the new label-type paths of `span`,
    /// preserving the historical first-occurrence order of existing paths
    /// (existing siblings keep their order; new children append after
    /// them), then remaps every schema preorder number.
    fn extend_structure(&mut self, data: &DataTree, span: DocSpan, costs: &CostModel) {
        // Shape index == old schema pre for existing nodes.
        let mut shape = Shape::of_schema(&self.tree, &self.child_lookup);
        let mut node_shape: HashMap<u32, u32> = HashMap::new();
        for pre in span.start..=span.bound {
            let node = NodeId(pre);
            let parent = data.parent(node).expect("non-root").0;
            let parent_shape = if parent < span.start {
                0
            } else {
                node_shape[&parent]
            };
            node_shape.insert(pre, shape.child(child_key(data, node, parent_shape)));
        }
        let (new_tree, shape_pre) = shape.linearize(data, costs);
        // ---- remap every schema preorder number -------------------------
        let remap = |old: u32| shape_pre[old as usize];
        for c in &mut self.class_of {
            *c = remap(*c);
        }
        self.secondary.remap_schema_pres(remap);
        self.child_lookup = shape.lookup_by_pre(&shape_pre);
        self.tree = new_tree;
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

    /// The node class of a data node (Definition 15).
    pub fn class_of(&self, data_node: NodeId) -> NodeId {
        NodeId(self.class_of[data_node.index()])
    }

    /// The instances of a schema node that carry `label`.
    pub fn instances(&self, schema_node: NodeId, label: LabelId) -> &[InstancePosting] {
        self.secondary.fetch(schema_node.0, label)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> SchemaStats {
        SchemaStats {
            schema_nodes: self.tree.len(),
            data_nodes: self.class_of.len(),
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

/// The classification key of `node` under a parent of class (or shape
/// index) `parent`: struct nodes are told apart by label, all words of one
/// parent merge into one text class.
fn child_key(data: &DataTree, node: NodeId, parent: u32) -> ChildKey {
    match data.node_type(node) {
        NodeType::Struct => (parent, NodeType::Struct, Some(data.label_id(node))),
        NodeType::Text => (parent, NodeType::Text, None),
    }
}

/// A schema shape under construction: node 0 is the virtual root, and a
/// node's children stand in first-occurrence order, which is what fixes
/// the schema preorder numbers.
struct Shape {
    /// Children per shape node.
    children: Vec<Vec<u32>>,
    /// [`ChildKey`] over shape indexes → child shape index.
    lookup: HashMap<ChildKey, u32>,
}

impl Shape {
    fn root_only() -> Shape {
        Shape {
            children: vec![Vec::new()],
            lookup: HashMap::new(),
        }
    }

    /// The shape of an existing schema tree (shape index == schema pre),
    /// so that new paths append after the existing siblings.
    fn of_schema(tree: &DataTree, child_lookup: &HashMap<ChildKey, u32>) -> Shape {
        Shape {
            children: tree
                .nodes()
                .map(|s| tree.children(s).map(|c| c.0).collect())
                .collect(),
            lookup: child_lookup.clone(),
        }
    }

    /// The child of `key.0` for `key`, appended if the path is new.
    fn child(&mut self, key: ChildKey) -> u32 {
        if let Some(&c) = self.lookup.get(&key) {
            return c;
        }
        let c = self.children.len() as u32;
        self.children.push(Vec::new());
        self.children[key.0 as usize].push(c);
        self.lookup.insert(key, c);
        c
    }

    /// Linearizes the shape into a schema [`DataTree`] (iterative preorder
    /// DFS) and returns it with `shape_pre[shape index] = schema pre`.
    /// Struct labels resolve through `data`'s interner.
    fn linearize(&self, data: &DataTree, costs: &CostModel) -> (DataTree, Vec<u32>) {
        let mut key_of: Vec<Option<ChildKey>> = vec![None; self.children.len()];
        for (&key, &c) in &self.lookup {
            key_of[c as usize] = Some(key);
        }
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
                (_, NodeType::Struct, label) => {
                    let label = data.resolve_label(label.expect("struct has a label"));
                    shape_pre[s as usize] = builder.begin_struct(label).0;
                    stack.push((s, true));
                    for &c in self.children[s as usize].iter().rev() {
                        stack.push((c, false));
                    }
                }
                (_, NodeType::Text, _) => {
                    debug_assert!(self.children[s as usize].is_empty());
                    shape_pre[s as usize] = builder.add_word(TEXT_CLASS_LABEL).0;
                }
            }
        }
        (builder.build(costs), shape_pre)
    }

    /// The lookup re-keyed from shape indexes to schema preorder numbers.
    fn lookup_by_pre(&self, shape_pre: &[u32]) -> HashMap<ChildKey, u32> {
        self.lookup
            .iter()
            .map(|(&(p, ty, l), &c)| ((shape_pre[p as usize], ty, l), shape_pre[c as usize]))
            .collect()
    }
}

/// The schema-level label index, derived from the secondary index: every
/// `(schema node, label)` key of `I_sec` yields one posting entry — the
/// query's `fetch` against the schema must find, for a word, all text
/// classes under which the word occurs, and for a name, all schema nodes
/// with that name.
fn derive_label_index(tree: &DataTree, secondary: &SecondaryIndex) -> LabelIndex {
    let mut label_postings: HashMap<(NodeType, LabelId), Vec<Posting>> = HashMap::new();
    for ((schema_pre, label), _) in secondary.iter() {
        let schema_node = NodeId(schema_pre);
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

/// Rebuilds the shape lookup from a schema tree, translating schema labels
/// back into the data tree's label ids.
fn lookup_from_tree(
    tree: &DataTree,
    data: &DataTree,
) -> Result<HashMap<ChildKey, u32>, SchemaAssembleError> {
    let mut lookup = HashMap::new();
    for s in tree.nodes() {
        for c in tree.children(s) {
            let key = match tree.node_type(c) {
                NodeType::Text => (s.0, NodeType::Text, None),
                NodeType::Struct => {
                    let Some(label) = data.lookup_label(tree.label(c)) else {
                        return Err(SchemaAssembleError(
                            "schema label missing from the data interner",
                        ));
                    };
                    (s.0, NodeType::Struct, Some(label))
                }
            };
            if lookup.insert(key, c.0).is_some() {
                return Err(SchemaAssembleError("duplicate label-type path"));
            }
        }
    }
    Ok(lookup)
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
            let class = s.class_of(n);
            assert_eq!(d.depth(n), s.tree().depth(class));
        }
    }

    #[test]
    fn node_classes_preserve_labels_types_and_parents() {
        let d = data();
        let s = Schema::build(&d, &CostModel::new());
        for n in d.nodes() {
            let c = s.class_of(n);
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
                assert_eq!(s.tree().parent(c), Some(s.class_of(p)));
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
        let dist_schema = s
            .tree()
            .distance(s.class_of(cd_data), s.class_of(piano_data));
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
        assert_eq!(st.data_nodes, d.len());
        assert_eq!(st.max_instances, 2); // the two cd instances
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
        ];
        // Incremental: one doc at a time.
        let mut tree = {
            let mut b = DataTreeBuilder::new();
            b.add_document(&parse_document(docs[0]).unwrap());
            b.build(&costs)
        };
        let mut schema = Schema::build(&tree, &costs);
        for d in &docs[1..] {
            let span = tree.append_document(&parse_document(d).unwrap(), &costs);
            schema.insert_range(&tree, span, &costs);
        }
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
        assert_eq!(schema.class_of, batch.class_of);
        assert_eq!(schema.child_lookup, batch.child_lookup);
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
        assert!(!delta.touched_sec.is_empty());
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
        // "piano" survives in doc 2, so its key is touched, not removed.
        let piano = tree.lookup_label("piano").unwrap();
        assert!(delta.touched_sec.iter().any(|&(_, l)| l == piano));
        // Deleting the second doc empties everything.
        let second = tree.documents()[1];
        tree.delete_document(NodeId(second.start)).unwrap();
        let delta = schema.delete_range(&tree, second);
        assert!(delta.touched_sec.is_empty());
        assert!(!delta.removed_sec.is_empty());
        assert!(schema.secondary().is_empty());
        assert!(schema.labels().is_empty());

        // Reassembly from the persisted parts reproduces the state exactly.
        let assembled =
            Schema::assemble(&tree, schema.tree().clone(), schema.secondary().clone()).unwrap();
        assert_eq!(snapshot(&assembled), snapshot(&schema));
        assert_eq!(assembled.child_lookup, schema.child_lookup);
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
