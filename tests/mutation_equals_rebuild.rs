//! A mutated collection is indistinguishable from a fresh build of its
//! live documents: a random collection goes through a random sequence of
//! document inserts and deletes on a store, is saved and opened again,
//! and every generated query must return, on both evaluators, the hits
//! that `Database::from_xml_strs` over the surviving documents returns.
//!
//! Tombstones leave gaps in the preorder numbers of the mutated
//! collection, so roots are compared as (live-document rank, offset in
//! the document), which is what a fresh build numbers consecutively.

use approxql::crates::storage::Store;
use approxql::crates::tree::NodeId;
use approxql::{parse_document, Cost, CostModel, Database, DbFile, NodeType, QueryHit};
use proptest::prelude::*;

const NAMES: [&str; 4] = ["a", "b", "c", "d"];
const WORDS: [&str; 3] = ["w", "x", "y"];

#[derive(Debug, Clone)]
enum GenNode {
    Struct(usize, Vec<GenNode>),
    Word(usize),
}

fn gen_node(depth: u32) -> impl Strategy<Value = GenNode> {
    let leaf = prop_oneof![
        (0..WORDS.len()).prop_map(GenNode::Word),
        (0..NAMES.len()).prop_map(|n| GenNode::Struct(n, vec![])),
    ];
    leaf.prop_recursive(depth, 16, 3, |inner| {
        (0..NAMES.len(), proptest::collection::vec(inner, 0..3))
            .prop_map(|(n, children)| GenNode::Struct(n, children))
    })
}

/// A document: a struct root over random content.
fn gen_doc() -> impl Strategy<Value = GenNode> {
    (0..NAMES.len(), proptest::collection::vec(gen_node(3), 0..3))
        .prop_map(|(name, children)| GenNode::Struct(name, children))
}

/// The XML of `n` with every word shifted `shift` places in `WORDS`.
fn render(n: &GenNode, shift: usize) -> String {
    match n {
        GenNode::Word(w) => format!(" {} ", WORDS[(w + shift) % WORDS.len()]),
        GenNode::Struct(name, children) => {
            let inner: String = children.iter().map(|c| render(c, shift)).collect();
            format!("<{0}>{inner}</{0}>", NAMES[*name])
        }
    }
}

/// One mutation: insert a document; insert a copy of an initial document
/// with other words, which adds no path but may add `(class, word)`
/// keys; or delete the live document of the given rank (each index
/// modulo the length it picks from).
#[derive(Debug, Clone)]
enum Op {
    Insert(GenNode),
    Copy(usize, usize),
    Delete(usize),
}

fn gen_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        gen_doc().prop_map(Op::Insert),
        (0usize..4, 0..WORDS.len()).prop_map(|(k, shift)| Op::Copy(k, shift)),
        (0usize..8).prop_map(Op::Delete),
    ];
    proptest::collection::vec(op, 1..8)
}

/// A query: a root name over up to two children, each a name (with one
/// optional child) or a word.
fn gen_query() -> impl Strategy<Value = String> {
    let child = prop_oneof![
        (0..WORDS.len()).prop_map(|w| format!("\"{}\"", WORDS[w])),
        (0..NAMES.len(), 0..=WORDS.len()).prop_map(|(n, w)| match WORDS.get(w) {
            Some(word) => format!("{}[\"{word}\"]", NAMES[n]),
            None => NAMES[n].to_owned(),
        }),
    ];
    (0..NAMES.len(), proptest::collection::vec(child, 0..3)).prop_map(|(root, children)| {
        if children.is_empty() {
            NAMES[root].to_owned()
        } else {
            format!("{}[{}]", NAMES[root], children.join(" and "))
        }
    })
}

/// Renamings and deletions, so that approximate hits occur too.
fn costs() -> CostModel {
    CostModel::builder()
        .insert_default(1)
        .rename(NodeType::Struct, "a", "b", Cost::finite(2))
        .rename(NodeType::Struct, "c", "d", Cost::finite(1))
        .delete(NodeType::Struct, "b", Cost::finite(3))
        .delete(NodeType::Text, "w", Cost::finite(2))
        .build()
}

/// Hits as (cost, live-document rank, offset in the document); the
/// virtual root is rank `usize::MAX`.
fn positioned(db: &Database, hits: &[QueryHit]) -> Vec<(Cost, usize, u32)> {
    let live: Vec<_> = db.tree().documents().iter().filter(|d| d.alive).collect();
    hits.iter()
        .map(|hit| {
            let pre = hit.root.0;
            let rank = live.iter().position(|d| d.start <= pre && pre <= d.bound);
            match rank {
                Some(rank) => (hit.cost, rank, pre - live[rank].start),
                None => (hit.cost, usize::MAX, pre),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mutated_store_answers_like_a_fresh_build(
        initial in proptest::collection::vec(gen_doc(), 1..4),
        ops in gen_ops(),
        queries in proptest::collection::vec(gen_query(), 1..5),
    ) {
        let mut live: Vec<String> = initial.iter().map(|d| render(d, 0)).collect();
        let refs: Vec<&str> = live.iter().map(String::as_str).collect();
        let db = Database::from_xml_strs(&refs, costs()).unwrap();
        let mut file = DbFile::create_in(Store::in_memory().unwrap(), db).unwrap();
        for op in &ops {
            let xml = match op {
                Op::Insert(doc) => render(doc, 0),
                Op::Copy(k, shift) => render(&initial[k % initial.len()], *shift),
                Op::Delete(_) if live.is_empty() => continue,
                Op::Delete(k) => {
                    let rank = k % live.len();
                    let tree = file.database().tree();
                    let span = tree.documents().iter().filter(|d| d.alive).nth(rank).copied();
                    let root = NodeId(span.unwrap().start);
                    prop_assert!(file.delete_document(root).unwrap().is_some());
                    live.remove(rank);
                    continue;
                }
            };
            file.insert_documents(&[parse_document(&xml).unwrap()]).unwrap();
            live.push(xml);
        }
        let refs: Vec<&str> = live.iter().map(String::as_str).collect();
        let fresh = Database::from_xml_strs(&refs, costs()).unwrap();
        // The mutated database as it stands, and as a reader of its saved
        // image sees it.
        let dir = std::env::temp_dir().join(format!("axql-mutation-rebuild-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.axql");
        file.database().save(&path).unwrap();
        let opened = Database::open(&path).unwrap();
        opened.materialize().unwrap();

        for q in &queries {
            let want = positioned(&fresh, &fresh.query_direct(q.as_str(), None).unwrap());
            // Every hit (n exceeds any collection here), sorted by cost
            // and root like the direct ones.
            let want_schema = positioned(&fresh, &fresh.query_schema(q.as_str(), 1000).unwrap());
            prop_assert_eq!(&want_schema, &want, "schema vs direct hits of {}", q);
            for (db, side) in [(file.database(), "mutated"), (&opened, "reopened")] {
                let direct = positioned(db, &db.query_direct(q.as_str(), None).unwrap());
                prop_assert_eq!(&direct, &want, "{} direct hits of {} over {:?}", side, q, live);
                let schema = positioned(db, &db.query_schema(q.as_str(), 1000).unwrap());
                prop_assert_eq!(&schema, &want, "{} schema hits of {} over {:?}", side, q, live);
            }
        }
        drop(opened);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
