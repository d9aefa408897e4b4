//! `approxql query --stats` on a schema-driven query: the summary line
//! counts what the registry table under it counts. The query is spawned
//! the way the benchmark driver's cold-query workload spawns it.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_approxql");

/// The value of counter `name` in a `--stats` table.
fn counter(table: &str, name: &str) -> u64 {
    let line = table
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name));
    let value = line.and_then(|l| l.split_whitespace().nth(1));
    value.and_then(|v| v.parse().ok()).unwrap_or(0)
}

#[test]
fn the_schema_line_agrees_with_the_counter_table() {
    let dir = std::env::temp_dir().join(format!("axql-cli-querystats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let xml = dir.join("catalog.xml");
    std::fs::write(
        &xml,
        "<catalog><cd><title>piano concerto</title></cd>\
         <cd><title>kinderszenen</title><tracks><track><title>vivace piano</title>\
         </track></tracks></cd></catalog>",
    )
    .unwrap();
    let db = dir.join("db.axql");
    let (db, xml) = (db.to_str().unwrap(), xml.to_str().unwrap());
    let run = |args: &[&str]| {
        let done = Command::new(BIN).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&done.stderr).into_owned();
        assert!(done.status.success(), "{args:?}: {stderr}");
        stderr
    };
    run(&["build", db, xml]);
    let query = r#"cd[title["piano"]]"#;
    let stats = run(&["query", db, query, "-n", "10", "--threads", "1", "--stats"]);
    let line = stats.lines().find(|l| l.starts_with("schema: ")).unwrap();
    let numbers: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|w| w.parse().ok())
        .collect();
    let table = [
        counter(&stats, "eval.second_level_queries"),
        counter(&stats, "eval.secondary_rows"),
        counter(&stats, "index.label_fetches"),
    ];
    assert_eq!(numbers, table, "{stats}");
    assert!(table.iter().all(|&n| n > 0), "{stats}");
    assert!(!stats.contains("rounds"), "{stats}");
    std::fs::remove_dir_all(&dir).unwrap();
}
