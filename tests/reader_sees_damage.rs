//! A database opened from a file reads the store's pages as it needs them
//! and keeps none: damage done to the file under an open reader is
//! reported by the next query that reads the damaged pages, never
//! answered from a copy the reader read before the damage.

use approxql::crates::storage::{StorageError, PAGE_SIZE};
use approxql::{Database, DatabaseError};
use std::os::unix::fs::FileExt;

/// The Figure 1/3 sound-storage catalog of the paper.
const CATALOG: &str = "<catalog>\
    <cd><title>piano concerto</title><composer>rachmaninov</composer></cd>\
    <cd><title>kinderszenen</title>\
        <tracks><track><title>vivace piano</title></track></tracks></cd>\
    </catalog>";

const QUERY: &str = r#"cd[title["piano"]]"#;

/// Flips one payload byte of every data page of the store at `path`
/// (pages 0 and 1 are the header slots, which a query does not read).
fn damage_every_data_page(path: &std::path::Path) {
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    let pages = file.metadata().unwrap().len() / PAGE_SIZE as u64;
    assert!(pages > 2, "a store of {pages} pages holds no data page");
    for page in 2..pages {
        let at = page * PAGE_SIZE as u64 + 100;
        let mut byte = [0u8; 1];
        file.read_exact_at(&mut byte, at).unwrap();
        file.write_all_at(&[byte[0] ^ 0x40], at).unwrap();
    }
    file.sync_all().unwrap();
}

/// Whether `result` is the storage layer's `CorruptPage`. The database
/// reports a storage error in this one shape, also when it met it under
/// the decode of a list that a query loads.
fn is_corrupt_page<T>(result: &Result<T, DatabaseError>) -> bool {
    matches!(
        result,
        Err(DatabaseError::Storage(StorageError::CorruptPage(_, _)))
    )
}

#[test]
fn damage_under_an_open_reader_fails_its_next_query() {
    let dir = std::env::temp_dir().join(format!("axql-reader-damage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.axql");
    let resident = Database::from_xml_str(CATALOG, Default::default()).unwrap();
    resident.save(&path).unwrap();

    let reader = Database::open(&path).unwrap();
    let direct = reader.query_direct(QUERY, None).unwrap();
    let schema = reader.query_schema(QUERY, 5).unwrap();
    assert_eq!(direct.len(), 2, "{direct:?}");
    assert_eq!(schema.len(), 2, "{schema:?}");

    damage_every_data_page(&path);
    let direct = reader.query_direct(QUERY, None);
    let schema = reader.query_schema(QUERY, 5);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(is_corrupt_page(&direct), "direct after damage: {direct:?}");
    assert!(is_corrupt_page(&schema), "schema after damage: {schema:?}");
}
