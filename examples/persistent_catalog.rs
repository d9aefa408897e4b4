//! Persistence: build a database, save it to a single store file (the
//! Berkeley-DB-style substrate of `approxql-storage`), reopen it, query.
//!
//! ```sh
//! cargo run --example persistent_catalog
//! ```

use approxql::crates::gen::{DataGenConfig, DataGenerator};
use approxql::{CostModel, Database};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("approxql-example");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("catalog.axql");

    // Build a small synthetic collection and persist it.
    let cfg = DataGenConfig {
        element_count: 2_000,
        word_occurrences: 20_000,
        vocabulary: 5_000,
        ..DataGenConfig::default()
    };
    let tree = DataGenerator::new(cfg).generate_tree(&CostModel::new());
    let db = Database::from_tree(tree, CostModel::new());
    db.save(&path)?;
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "saved {} nodes + label indexes into {} ({:.1} KiB)",
        db.tree().len(),
        path.display(),
        bytes as f64 / 1024.0
    );

    // Reopen and verify a query agrees with the in-memory database.
    let reopened = Database::open(&path)?;
    let query = r#"name001[name004["term1"]]"#;
    let a = db.query_direct(query, Some(5))?;
    let b = reopened.query_direct(query, Some(5))?;
    assert_eq!(a, b, "reopened database must answer identically");
    println!(
        "query {query} -> {} hits (best cost {:?})",
        b.len(),
        b.first().map(|h| h.cost)
    );

    // Schema-driven answers survive the roundtrip too (the schema tree
    // and the secondary index are stored, and reassembled on open).
    let c = reopened.query_schema(query, 5)?;
    assert_eq!(&b[..c.len()], &c[..]);
    println!("schema-driven evaluation agrees after reopen");

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
