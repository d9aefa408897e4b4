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

/// The `--stats-json` counter `name`.
fn json_counter(json: &str, name: &str) -> u64 {
    let at = json.find(&format!("\"{name}\":")).unwrap() + name.len() + 3;
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

/// A cold schema-driven query reads the `sec#` keys of its labels, the
/// lists of its root's labels and the lists its draws execute, and takes
/// its hits' names from those lists: no other list and no document
/// segment. On a fixed generated store its storage counters are pinned —
/// with one client they repeat exactly — below what reading every list
/// of every plan label and a segment per hit document cost: 21 page reads
/// and 3,760 bytes decoded.
#[test]
fn a_cold_schema_query_reads_what_its_answer_needs() {
    use approxql_gen::{DataGenConfig, DataGenerator};
    let dir = std::env::temp_dir().join(format!("axql-cli-coldreads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = DataGenConfig {
        element_count: 3_000,
        element_names: 40,
        vocabulary: 400,
        word_occurrences: 12_000,
        seed: 49,
        ..DataGenConfig::default()
    };
    let docs = DataGenerator::new(cfg).generate_documents();
    let db = dir.join("db.axql").to_str().unwrap().to_owned();
    let mut build = vec!["build".to_owned(), db.clone()];
    for (i, doc) in docs.iter().enumerate() {
        let path = dir.join(format!("d{i}.xml"));
        let xml = approxql_xml::Document { root: doc.clone() }.to_xml_string();
        std::fs::write(&path, xml).unwrap();
        build.push(path.to_str().unwrap().to_owned());
    }
    let run = |args: &[&str]| {
        let done = Command::new(BIN).args(args).output().unwrap();
        let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
        assert!(done.status.success(), "{args:?}: {}", text(&done.stderr));
        (text(&done.stdout), text(&done.stderr))
    };
    run(&build.iter().map(String::as_str).collect::<Vec<_>>());
    let query = r#"name001[name004["term1" and "term2"] and name005]"#;
    let (hits, stats) = run(&["query", &db, query, "--schema", "--stats-json"]);
    assert!(
        hits.starts_with("#0\tcost=0\tnode=#11571\t<name001>\n"),
        "{hits}"
    );
    let counts = ["pager.page_reads", "index.bytes_decoded"].map(|c| json_counter(&stats, c));
    assert_eq!(counts, [12, 146], "{stats}");
    std::fs::remove_dir_all(&dir).unwrap();
}
