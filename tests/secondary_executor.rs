//! The second-level query executor against the plain recursion of
//! Figure 5.
//!
//! One `secondary::Executor` serves every second-level query of a best-n
//! query and evaluates each distinct sub-skeleton once: hash-consed by
//! structure, resolved by address for the `Rc`s it keeps alive, memoised,
//! and cut at the first empty child. Random sequences of skeletons on a
//! generated schema go through one executor here. Every answer must be
//! the plain recursion's, and a query is answered `None` exactly when a
//! structurally equal root ran before. The sequences repeat
//! sub-skeletons, rebuild equal ones from distinct `Rc`s, drop and
//! rebuild skeletons between queries, and submit earlier queries'
//! sub-skeletons as roots of their own.

use approxql::crates::core::secondary::{self, Executor};
use approxql::crates::core::topk::Skeleton;
use approxql::crates::gen::{DataGenConfig, DataGenerator};
use approxql::crates::index::{InstancePosting, SecondaryIndex};
use approxql::crates::schema::Schema;
use approxql::crates::tree::{LabelId, NodeId};
use approxql::{CostModel, DataTree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::rc::Rc;

/// Figure 5 as a plain recursion: the root's instances, kept when every
/// child skeleton's result has an instance strictly inside them.
fn plain(s: &Skeleton, index: &SecondaryIndex) -> Vec<InstancePosting> {
    let class = index.class_of_pre(s.pre);
    let mut ancestors = index.get(class, s.label).unwrap_or_default().to_vec();
    for child in s.children.iter() {
        if ancestors.is_empty() {
            break;
        }
        let descendants = plain(child, index);
        ancestors.retain(|a| {
            descendants
                .iter()
                .any(|d| a.pre < d.pre && d.pre <= a.bound)
        });
    }
    ancestors
}

/// A generated collection, its schema, and the `(schema pre, label)` keys
/// of its secondary index, preorder-sorted.
struct Keys {
    keys: Vec<(u32, LabelId)>,
    tree: DataTree,
    schema: Schema,
}

impl Keys {
    fn generated(seed: u64) -> Keys {
        let mut cfg = DataGenConfig::paper_scale_divided(2000);
        cfg.seed = seed;
        let costs = CostModel::new();
        let tree = DataGenerator::new(cfg).generate_tree(&costs);
        let schema = Schema::build(&tree, &costs);
        let index = schema.secondary();
        let mut keys: Vec<(u32, LabelId)> = index
            .iter()
            .map(|((class, label), _)| (index.pre_of_class(class), label))
            .collect();
        keys.sort();
        Keys { keys, tree, schema }
    }

    /// The keys whose schema node lies strictly below `pre`.
    fn below(&self, pre: u32) -> &[(u32, LabelId)] {
        let bound = self.schema.tree().bound(NodeId(pre));
        let from = self.keys.partition_point(|&(p, _)| p <= pre);
        let to = self.keys.partition_point(|&(p, _)| p <= bound);
        &self.keys[from..to]
    }
}

/// Builds random skeletons: from random keys (mostly over schema
/// descendants; now and then not, or with a label no class carries, so
/// most come back empty), or from a data node and some of its
/// descendants (so that node is in the answer, and the other instances
/// of its class meet several filters).
struct Skeletons<'k> {
    keys: &'k Keys,
    rng: StdRng,
    /// Skeletons built so far, shared as children of later ones.
    pool: Vec<Rc<Skeleton>>,
}

impl Skeletons<'_> {
    fn key(&mut self, under: Option<u32>) -> (u32, LabelId) {
        let below = under.map_or(&self.keys.keys[..], |pre| self.keys.below(pre));
        if below.is_empty() || self.rng.gen_bool(0.05) {
            let any = &self.keys.keys;
            let (pre, label) = any[self.rng.gen_range(0..any.len())];
            let label = if self.rng.gen_bool(0.3) {
                LabelId(label.0 + 7)
            } else {
                label
            };
            return (pre, label);
        }
        below[self.rng.gen_range(0..below.len())]
    }

    /// Up to three children for a node at schema node `pre`: earlier
    /// skeletons that fit (the same `Rc`, or an equal copy), or `fresh`.
    fn children(
        &mut self,
        pre: u32,
        depth: usize,
        fresh: impl Fn(&mut Self) -> Option<Rc<Skeleton>>,
    ) -> Vec<Rc<Skeleton>> {
        let fanout = if depth == 0 {
            0
        } else {
            self.rng.gen_range(0..4usize)
        };
        let schema = self.keys.schema.tree();
        let fits: Vec<usize> = (0..self.pool.len())
            .filter(|&i| schema.is_ancestor(NodeId(pre), NodeId(self.pool[i].pre)))
            .collect();
        let mut children = Vec::with_capacity(fanout);
        for _ in 0..fanout {
            let earlier = (!fits.is_empty()).then(|| fits[self.rng.gen_range(0..fits.len())]);
            let child = match (self.rng.gen_range(0..3u32), earlier) {
                (0, Some(at)) => Rc::clone(&self.pool[at]),
                (1, Some(at)) => deep_copy(&self.pool[at]),
                _ => match fresh(self) {
                    Some(child) => child,
                    None => continue,
                },
            };
            children.push(child);
        }
        children
    }

    fn keep(&mut self, pre: u32, label: LabelId, children: Vec<Rc<Skeleton>>) -> Rc<Skeleton> {
        let node = Rc::new(Skeleton {
            pre,
            label,
            children: children.into(),
        });
        self.pool.push(Rc::clone(&node));
        node
    }

    /// A skeleton over random keys.
    fn node(&mut self, under: Option<u32>, depth: usize) -> Rc<Skeleton> {
        let (pre, label) = self.key(under);
        let children = self.children(pre, depth, |b| Some(b.node(Some(pre), depth - 1)));
        self.keep(pre, label, children)
    }

    /// A skeleton over the data node `d` and some of its descendants.
    fn instance(&mut self, d: NodeId, depth: usize) -> Rc<Skeleton> {
        let pre = self.keys.schema.class_of(&self.keys.tree, d).unwrap().0;
        let label = self.keys.tree.label_id(d);
        let children = self.children(pre, depth, |b| {
            let below = d.0 + 1..=b.keys.tree.bound(d);
            (!below.is_empty()).then(|| {
                let c = b.rng.gen_range(below);
                b.instance(NodeId(c), depth - 1)
            })
        });
        self.keep(pre, label, children)
    }

    /// A skeleton from random keys or from a random data node.
    fn any(&mut self) -> Rc<Skeleton> {
        if self.rng.gen_bool(0.5) {
            self.node(None, 3)
        } else {
            let d = self.rng.gen_range(1..self.keys.tree.len() as u32);
            self.instance(NodeId(d), 3)
        }
    }
}

fn deep_copy(s: &Skeleton) -> Rc<Skeleton> {
    Rc::new(Skeleton {
        pre: s.pre,
        label: s.label,
        children: s.children.iter().map(|c| deep_copy(c)).collect(),
    })
}

/// Structural identity, as the driver deduplicates drawn queries.
fn structure(s: &Skeleton) -> String {
    format!("{s:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn executor_equals_the_plain_recursion(seed in 0u64..1_000_000) {
        let keys = Keys::generated(seed % 16);
        let index = keys.schema.secondary();
        let mut skeletons = Skeletons { keys: &keys, rng: StdRng::seed_from_u64(seed), pool: Vec::new() };
        let mut executor = Executor::new(index);
        let mut ran = HashSet::new();
        let (mut executed, mut nonempty) = (0usize, 0usize);
        for step in 0..120 {
            let root = match skeletons.rng.gen_range(0..10u32) {
                // An earlier skeleton, often one that ran only as a
                // sub-skeleton of another query: the same `Rc`.
                0 | 1 if !skeletons.pool.is_empty() => {
                    let at = skeletons.rng.gen_range(0..skeletons.pool.len());
                    Rc::clone(&skeletons.pool[at])
                }
                // The same, rebuilt from distinct `Rc`s.
                2 if !skeletons.pool.is_empty() => {
                    let at = skeletons.rng.gen_range(0..skeletons.pool.len());
                    deep_copy(&skeletons.pool[at])
                }
                // Drop skeletons and build new ones in their place: the
                // freed addresses may come back for different skeletons.
                3 => {
                    let keep = skeletons.rng.gen_range(0..=skeletons.pool.len());
                    skeletons.pool.truncate(keep);
                    skeletons.any()
                }
                _ => skeletons.any(),
            };
            let want = plain(&root, index);
            let first = ran.insert(structure(&root));
            let got = executor.execute(&root).map(<[_]>::to_vec);
            if first {
                prop_assert_eq!(got.as_ref(), Some(&want), "step {}: {:?}", step, root);
                executed += 1;
                nonempty += usize::from(!want.is_empty());
            } else {
                prop_assert_eq!(got, None, "step {}: a repeated root ran again", step);
            }
            // The one-shot form is the same executor, fresh.
            prop_assert_eq!(secondary::execute(&root, index), want);
        }
        prop_assert_eq!(executed, ran.len());
        prop_assert!(nonempty > 0, "no query retrieved anything");
    }
}

#[test]
fn a_sub_skeleton_run_as_a_root_is_executed_and_counted() {
    // The driver counts a query when the executor runs it. A root equal
    // to a sub-skeleton of an earlier query has its result memoised
    // already, and it must still run, with that result.
    let keys = Keys::generated(3);
    let index = keys.schema.secondary();
    let (parent, child) = keys
        .keys
        .iter()
        .find_map(|&(pre, label)| {
            let child = keys.below(pre).iter().copied().find(|&(p, l)| {
                keys.schema.tree().parent(NodeId(p)) == Some(NodeId(pre)) && {
                    let leaf = Skeleton {
                        pre: p,
                        label: l,
                        children: Rc::new([]),
                    };
                    !plain(&leaf, index).is_empty()
                }
            })?;
            Some(((pre, label), child))
        })
        .unwrap();
    let leaf = Rc::new(Skeleton {
        pre: child.0,
        label: child.1,
        children: Rc::new([]),
    });
    let query = Skeleton {
        pre: parent.0,
        label: parent.1,
        children: Rc::new([Rc::clone(&leaf)]),
    };
    let mut executor = Executor::new(index);
    assert_eq!(
        executor.execute(&query).map(<[_]>::to_vec),
        Some(plain(&query, index))
    );
    let before = approxql::metrics_snapshot();
    let rows = executor.execute(&leaf).map(<[_]>::to_vec);
    let diff = approxql::metrics_snapshot().diff(&before);
    assert_eq!(rows, Some(plain(&leaf, index)));
    assert!(!plain(&leaf, index).is_empty());
    // Memoised: the second query reads no index.
    assert_eq!(diff.get(approxql::Metric::IndexSecondaryFetches), 0);
    assert_eq!(executor.execute(&deep_copy(&leaf)), None);
}
