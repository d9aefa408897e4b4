//! `approxql insert --stats-json` says what a mutation wrote. The insert
//! here adds a path under the *first* class of the schema, which renumbers
//! every schema node after it: the report must show the document's own
//! keys and not a rewrite of the `sec#` keyspace (the CI smoke asserts
//! the same from the shell).

use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_approxql");

/// The value of counter `name` in a `--stats-json` object.
fn counter(json: &str, name: &str) -> u64 {
    let doc = approxql_query::json::parse(json.trim()).unwrap();
    let value = doc.get("counters").and_then(|c| c.get(name));
    value.and_then(|v| v.as_uint()).unwrap()
}

#[test]
fn a_mid_schema_insert_reports_only_its_own_keys() {
    let dir = std::env::temp_dir().join(format!("axql-cli-mutstats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |p: &Path| p.to_str().unwrap().to_owned();
    let db = path(&dir.join("db.axql"));
    let mut docs = Vec::new();
    for (name, xml) in [
        ("a.xml", "<cd><title>piano concerto</title></cd>"),
        (
            "b.xml",
            "<mc><title>goldberg variations</title><track>aria</track></mc>",
        ),
        (
            "c.xml",
            "<cd><title>kinderszenen</title><composer>schumann</composer></cd>",
        ),
    ] {
        std::fs::write(dir.join(name), xml).unwrap();
        docs.push(path(&dir.join(name)));
    }
    let run = |args: &[&str]| {
        let done = Command::new(BIN).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&done.stderr).into_owned();
        assert!(done.status.success(), "{args:?}: {stderr}");
        stderr
    };
    run(&["build", &db, &docs[0], &docs[1]]);
    let stats = run(&["insert", &db, &docs[2], "--stats-json"]);
    assert_eq!(counter(&stats, "btree.deletes"), 0, "{stats}");
    // 5 `sec#` lists, 6 label lists, docmap, segment, interner, schema,
    // classes.
    assert_eq!(counter(&stats, "btree.inserts"), 16, "{stats}");
    assert_eq!(counter(&stats, "store.commits"), 1, "{stats}");
    run(&["check", &db]);
    // The table form, and the mutation's own counters only (no open).
    let table = run(&["delete", &db, "1", "--stats"]);
    assert!(table.contains("store.doc_deletes"), "{table}");
    assert!(!table.contains("btree.scan_steps"), "{table}");
    run(&["check", &db]);
    std::fs::remove_dir_all(&dir).unwrap();
}
