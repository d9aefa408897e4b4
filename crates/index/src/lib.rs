//! Index structures of the approXQL evaluation algorithms.
//!
//! * [`LabelIndex`] — the indexes `I_struct` and `I_text` of Section 6.2:
//!   they map each label to the posting of all data (or schema) nodes that
//!   carry the label. A [`Posting`] carries the four encoding numbers
//!   (`pre`, `bound`, `pathcost`, `inscost`) so list operations never touch
//!   the tree itself.
//! * [`SecondaryIndex`] — the path-dependent postings of Section 7.3
//!   (`I_sec`): for each *schema* node (and, for merged text classes, each
//!   word) the sorted list of its data-tree instances as preorder–bound
//!   pairs. Stored under the node class's stable *class id*, fetched by
//!   schema preorder number; the index carries the table between the two.
//! * [`persist`] — serialization of both into an
//!   [`approxql_storage::Store`], mirroring the paper's use of Berkeley DB
//!   as the index store.

// No silently dropped `Result` outside tests (DESIGN.md §11).
#![cfg_attr(
    not(test),
    deny(clippy::let_underscore_must_use, clippy::unused_result_ok)
)]

pub mod codec;
mod label;
pub mod persist;
mod secondary;

pub use label::LabelIndex;
pub use secondary::{InstancePosting, SecondaryIndex};

use approxql_tree::{Cost, DataTree, NodeId};

/// One posting entry: the encoded numbers of a single node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Posting {
    /// Preorder number of the node.
    pub pre: u32,
    /// Largest preorder number in the node's subtree.
    pub bound: u32,
    /// Sum of the insert costs of all proper ancestors.
    pub pathcost: Cost,
    /// Insert cost of the node itself.
    pub inscost: Cost,
}

impl Posting {
    /// Reads the posting numbers of node `n` from `tree`.
    pub fn from_node(tree: &DataTree, n: NodeId) -> Posting {
        Posting {
            pre: n.0,
            bound: tree.bound(n),
            pathcost: tree.pathcost(n),
            inscost: tree.inscost(n),
        }
    }
}
