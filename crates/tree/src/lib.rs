//! The data-tree model of approXQL (Sections 4 and 6.2 of the paper).
//!
//! XML documents are modeled as labeled trees with two node types:
//! `struct` nodes for elements and attribute names, `text` nodes for single
//! words of element text and attribute values. All documents of a collection
//! hang below one virtual super-root with a unique label, forming the *data
//! tree*.
//!
//! Every node `u` carries the four numbers of the encoding of Section 6.2:
//!
//! * `pre(u)` — preorder number (here: the node's index, 0-based),
//! * `bound(u)` — the largest preorder number in the subtree rooted at `u`,
//! * `inscost(u)` — the cost of inserting a node with `u`'s label into a
//!   query,
//! * `pathcost(u)` — the sum of the insert costs of all proper ancestors
//!   of `u`.
//!
//! These support the two primitives every evaluation algorithm uses:
//! the ancestor test `pre(u) < pre(v) && bound(u) >= pre(v)` and
//! `distance(u, v) = pathcost(v) - pathcost(u) - inscost(u)`, the total
//! insert cost of the nodes strictly between `u` and `v`.

mod builder;
mod interner;
mod ser;
pub mod text;
mod tree;
mod varint;

pub use builder::{DataTreeBuilder, VIRTUAL_ROOT_LABEL};
pub use interner::{Interner, LabelId};
pub use ser::{
    decode_doc_segment, decode_docmap, decode_interner, encode_docmap, encode_interner, DocSegment,
    TreeDecodeError,
};
pub use tree::{longest_label, DataTree, DocSpan, NodeId, TreeError, TreeStats};
pub use varint::{read_varint, write_varint, VarintError};

// Re-export the shared vocabulary types so downstream crates can name them
// without depending on approxql-cost directly.
pub use approxql_cost::{Cost, NodeType};
