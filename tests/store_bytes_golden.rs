//! The bytes of a store file are pinned: a fixed seeded collection is
//! saved, two documents are inserted (a copy of a stored one, which adds
//! no path, and one under a novel root name, which grows the schema) and
//! one is deleted through `DbFile`, and the file after each step must hash
//! to the digest it had when these were recorded. A change to how the
//! B+-tree lays out or edits its pages that moves a single byte fails
//! here; a deliberate format change re-pins them.

use approxql::crates::gen::{DataGenConfig, DataGenerator};
use approxql::crates::tree::NodeId;
use approxql::{parse_document, CostModel, Database, DbFile, Document};

/// FNV-1a over the whole file, with its length.
fn digest(path: &std::path::Path) -> (usize, u64) {
    let bytes = std::fs::read(path).unwrap();
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (bytes.len(), hash)
}

fn collection() -> Database {
    let cfg = DataGenConfig {
        element_count: 3_000,
        element_names: 40,
        vocabulary: 400,
        word_occurrences: 12_000,
        seed: 49,
        ..DataGenConfig::default()
    };
    let tree = DataGenerator::new(cfg).generate_tree(&CostModel::new());
    Database::from_tree(tree, CostModel::new())
}

#[test]
fn store_bytes_after_save_insert_and_delete_are_pinned() {
    let dir = std::env::temp_dir().join(format!("axql-bytes-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.axql");
    let db = collection();
    let first = db.tree().documents()[0];
    let copy = Document {
        root: db.tree().subtree_element(NodeId(first.start)).unwrap(),
    };
    let mut file = DbFile::create(&path, db).unwrap();
    let mut digests = vec![digest(&path)];
    let novel = "<novel><name001>term1 term2</name001><title>golden</title></novel>";
    let docs = [copy, parse_document(novel).unwrap()];
    let mut spans = Vec::new();
    for doc in &docs {
        spans.extend(file.insert_documents(std::slice::from_ref(doc)).unwrap());
        digests.push(digest(&path));
    }
    assert!(file
        .delete_document(NodeId(spans[0].start))
        .unwrap()
        .is_some());
    digests.push(digest(&path));
    drop(file);
    Database::check_file(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(
        digests,
        [
            (372_736, 0xce7b_6252_6a26_9f98),
            (790_528, 0x77b8_560e_d215_6fb3),
            (851_968, 0xfa6a_3016_7784_0048),
            (1_220_608, 0x7fe2_7db3_3fda_28e8),
        ],
        "store bytes moved (save, insert copy, insert novel, delete)"
    );
}
