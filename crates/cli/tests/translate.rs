//! `approxql translate` as a spawned process: the cheapest verb, which
//! `axbench`'s `cli_cold_query` times as the floor of a process spawn,
//! and the exit codes of a query over the size bound.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_approxql");

fn run(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().unwrap()
}

#[test]
fn translate_of_one_name_is_the_spawn_floor() {
    let done = run(&["translate", "a"]);
    assert_eq!(done.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&done.stdout),
        "{\"v\":1,\"query\":{\"name\":\"a\"}}\n"
    );
    assert!(done.stderr.is_empty());
}

#[test]
fn a_query_over_the_selector_bound_fails_at_once() {
    let dir = std::env::temp_dir().join(format!("axql-cli-translate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let xml = dir.join("t.xml");
    std::fs::write(&xml, "<a><b/></a>").unwrap();
    let db = dir.join("t.axql");
    let (db, xml) = (db.to_str().unwrap(), xml.to_str().unwrap());
    assert!(run(&["build", db, xml]).status.success());
    // 20,000 conjuncts, about 120 KB: more than fits under the bound.
    let query = format!("a[{}]", vec!["b"; 20_000].join(" and "));
    for (args, code) in [
        (vec!["query", db, &query, "-n", "3", "--schema"], 1),
        (vec!["translate", &query], 2),
    ] {
        let done = run(&args);
        let stderr = String::from_utf8_lossy(&done.stderr);
        assert_eq!(done.status.code(), Some(code), "{}: {stderr}", args[0]);
        assert!(
            stderr.contains("query has 20001 selectors, more than 1024"),
            "{stderr}"
        );
    }
    // Path notation is a classic syntax error.
    let done = run(&["query", db, "/cd//title"]);
    assert_eq!(done.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&done.stderr).contains("unexpected character `/`"));
    std::fs::remove_dir_all(&dir).unwrap();
}
