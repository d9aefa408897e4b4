//! Building data trees from XML documents or programmatically.

use crate::interner::Interner;
use crate::text::split_words;
use crate::tree::{DataTree, NodeId};
use approxql_cost::{Cost, CostModel, NodeType};
use approxql_xml::Document;

/// The unique label of the virtual super-root added above all documents
/// (Section 4: "We add a new root node with a unique label to the
/// collection of document trees"). The `\u{0}` prefix guarantees it cannot
/// clash with an element name or word.
pub const VIRTUAL_ROOT_LABEL: &str = "\u{0}root";

/// Builds a [`DataTree`] incrementally in document order.
///
/// XML documents are added with [`DataTreeBuilder::add_document`]; trees
/// can also be assembled by hand with [`begin_struct`](Self::begin_struct) /
/// [`add_word`](Self::add_word) / [`end`](Self::end), which the tests and
/// the synthetic data generator use.
#[derive(Debug)]
pub struct DataTreeBuilder {
    /// The nodes added so far; bounds and costs are derived by `build`.
    tree: DataTree,
    /// Preorder numbers of currently open struct nodes.
    stack: Vec<u32>,
}

impl Default for DataTreeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DataTreeBuilder {
    /// Creates a builder holding only the virtual root.
    pub fn new() -> DataTreeBuilder {
        let mut interner = Interner::new();
        let root = interner.intern(VIRTUAL_ROOT_LABEL);
        let tree = DataTree {
            labels: vec![root],
            types: vec![NodeType::Struct],
            parents: vec![u32::MAX],
            bounds: vec![0],
            inscosts: vec![Cost::ZERO],
            pathcosts: vec![Cost::ZERO],
            interner,
            docs: Vec::new(),
        };
        DataTreeBuilder {
            tree,
            stack: vec![0],
        }
    }

    fn push_node(&mut self, label: &str, ty: NodeType) -> u32 {
        let parent = *self.stack.last().expect("virtual root is always open");
        self.tree.append_node(label, ty, parent)
    }

    /// Opens a new struct node below the currently open node.
    pub fn begin_struct(&mut self, label: &str) -> NodeId {
        let pre = self.push_node(label, NodeType::Struct);
        self.stack.push(pre);
        NodeId(pre)
    }

    /// Closes the most recently opened struct node.
    ///
    /// # Panics
    /// Panics when trying to close the virtual root.
    pub fn end(&mut self) {
        assert!(self.stack.len() > 1, "cannot close the virtual root");
        self.stack.pop();
    }

    /// Adds a single already-normalized word as a text leaf.
    pub fn add_word(&mut self, word: &str) -> NodeId {
        NodeId(self.push_node(word, NodeType::Text))
    }

    /// Splits `text` into normalized words and adds one text leaf each
    /// (Section 4 word splitting).
    pub fn add_text(&mut self, text: &str) {
        for w in split_words(text) {
            self.add_word(&w);
        }
    }

    /// Adds a whole document below the virtual root.
    pub fn add_document(&mut self, doc: &Document) {
        assert_eq!(
            self.stack.len(),
            1,
            "add_document must be called at the top level"
        );
        self.tree.append_element(&doc.root, 0);
    }

    /// Number of nodes added so far (including the virtual root).
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// `false`: the builder always contains at least the virtual root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Finishes the tree, computing `bound`, `inscost`, and `pathcost`
    /// with insert costs drawn from `costs`.
    ///
    /// # Panics
    /// Panics if struct nodes are still open (unbalanced `begin`/`end`).
    pub fn build(self, costs: &CostModel) -> DataTree {
        assert_eq!(
            self.stack.len(),
            1,
            "unbalanced begin_struct/end: {} nodes still open",
            self.stack.len() - 1
        );
        let mut tree = self.tree;
        let n = tree.len();
        tree.seal(0, costs);
        // Document registry: one span per child of the virtual root.
        let mut c = 1;
        while c < n {
            let bound = tree.bounds[c];
            tree.docs.push(crate::tree::DocSpan {
                start: c as u32,
                bound,
                alive: true,
            });
            c = bound as usize + 1;
        }
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxql_cost::CostModelBuilder;
    use approxql_xml::parse_document;

    #[test]
    fn virtual_root_is_node_zero() {
        let t = DataTreeBuilder::new().build(&CostModel::new());
        assert_eq!(t.len(), 1);
        assert_eq!(t.label(NodeId(0)), VIRTUAL_ROOT_LABEL);
        assert_eq!(t.bound(NodeId(0)), 0);
        assert_eq!(t.pathcost(NodeId(0)), Cost::ZERO);
    }

    #[test]
    fn from_xml_document() {
        let doc = parse_document(r#"<cd year="1901"><title>Piano Concerto</title></cd>"#).unwrap();
        let mut b = DataTreeBuilder::new();
        b.add_document(&doc);
        let t = b.build(&CostModel::new());
        // root, cd, year, "1901", title, "piano", "concerto"
        assert_eq!(t.len(), 7);
        assert_eq!(t.label(NodeId(1)), "cd");
        assert_eq!(t.label(NodeId(2)), "year");
        assert_eq!(t.node_type(NodeId(2)), NodeType::Struct);
        assert_eq!(t.label(NodeId(3)), "1901");
        assert_eq!(t.node_type(NodeId(3)), NodeType::Text);
        assert_eq!(t.label(NodeId(5)), "piano");
    }

    #[test]
    fn attributes_become_two_nodes() {
        let doc = parse_document(r#"<a k="v w"/>"#).unwrap();
        let mut b = DataTreeBuilder::new();
        b.add_document(&doc);
        let t = b.build(&CostModel::new());
        // root, a, k, "v", "w"
        assert_eq!(t.len(), 5);
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(2)));
        assert_eq!(t.parent(NodeId(4)), Some(NodeId(2)));
    }

    #[test]
    fn multiple_documents_share_the_root() {
        let mut b = DataTreeBuilder::new();
        b.add_document(&parse_document("<a/>").unwrap());
        b.add_document(&parse_document("<b/>").unwrap());
        let t = b.build(&CostModel::new());
        let kids: Vec<_> = t
            .children(t.root())
            .map(|c| t.label(c).to_owned())
            .collect();
        assert_eq!(kids, vec!["a", "b"]);
    }

    #[test]
    fn inscost_uses_cost_model() {
        let costs = CostModel::builder()
            .insert_default(1)
            .insert(NodeType::Struct, "title", Cost::finite(3))
            .build();
        let mut b = DataTreeBuilder::new();
        b.begin_struct("cd");
        b.begin_struct("title");
        b.add_word("piano");
        b.end();
        b.end();
        let t = b.build(&costs);
        assert_eq!(t.inscost(NodeId(2)), Cost::finite(3)); // title
        assert_eq!(t.inscost(NodeId(1)), Cost::finite(1)); // cd, default
                                                           // pathcost("piano") = inscost(root) + inscost(cd) + inscost(title)
        assert_eq!(t.pathcost(NodeId(3)), Cost::finite(1 + 1 + 3));
    }

    #[test]
    fn builder_drops_empty_text() {
        let doc = parse_document("<a>  \n\t </a>").unwrap();
        let mut b = DataTreeBuilder::new();
        b.add_document(&doc);
        let t = b.build(&CostModel::new());
        assert_eq!(t.len(), 2); // root + a, no text nodes
    }

    #[test]
    #[should_panic]
    fn unbalanced_build_panics() {
        let mut b = DataTreeBuilder::new();
        b.begin_struct("a");
        let _ = b.build(&CostModel::new());
    }

    #[test]
    #[should_panic]
    fn closing_root_panics() {
        let mut b = DataTreeBuilder::new();
        b.end();
    }

    #[allow(unused_imports)]
    use CostModelBuilder as _;
}
