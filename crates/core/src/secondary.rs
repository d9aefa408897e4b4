//! Algorithm `secondary` (Section 7.3, Figure 5): executing a second-level
//! query against the path-dependent secondary index.
//!
//! A second-level query is a [`Skeleton`]: schema nodes with the labels
//! their instances must carry, connected by ancestor–descendant edges of
//! *fixed* distance (all instance pairs of two schema nodes are the same
//! insert-cost distance apart — Section 7.1). Executing it therefore needs
//! no cost computation at all: fetch the instances of the root, and keep
//! those that have a descendant instance for every child skeleton.

use crate::topk::Skeleton;
use approxql_index::{InstancePosting, SecondaryIndex};

/// Keeps the ancestors that have at least one descendant in `descendants`.
///
/// Both lists are instance postings of schema nodes: preorder-sorted, and
/// non-nesting within each list (all instances of one schema node sit at
/// the same depth), so a single forward scan suffices.
fn semijoin(
    ancestors: Vec<InstancePosting>,
    descendants: &[InstancePosting],
) -> Vec<InstancePosting> {
    let mut out = Vec::with_capacity(ancestors.len());
    let mut j = 0;
    for a in ancestors {
        while j < descendants.len() && descendants[j].pre <= a.pre {
            j += 1;
        }
        if j < descendants.len() && descendants[j].pre <= a.bound {
            out.push(a);
        }
    }
    out
}

/// Finds all exact results of the second-level query `skeleton` — the
/// instances of its root whose subtrees contain instances of every child
/// skeleton (Figure 5).
pub fn execute(skeleton: &Skeleton, index: &SecondaryIndex) -> Vec<InstancePosting> {
    let mut ancestors = index.fetch(skeleton.pre, skeleton.label).to_vec();
    for child in skeleton.children.iter() {
        if ancestors.is_empty() {
            break;
        }
        let descendants = execute(child, index);
        ancestors = semijoin(ancestors, &descendants);
    }
    ancestors
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxql_tree::LabelId;
    use std::rc::Rc;

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

    #[test]
    fn semijoin_keeps_matching_ancestors() {
        let anc = vec![ip(1, 5), ip(10, 15), ip(20, 25)];
        let desc = vec![ip(3, 3), ip(22, 22)];
        let out = semijoin(anc, &desc);
        assert_eq!(out, vec![ip(1, 5), ip(20, 25)]);
    }

    #[test]
    fn semijoin_self_pre_does_not_count() {
        let anc = vec![ip(5, 9)];
        let desc = vec![ip(5, 9)];
        assert!(semijoin(anc, &desc).is_empty());
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
}
