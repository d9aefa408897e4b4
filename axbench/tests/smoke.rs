//! The contract between `BENCHMARK.json`, the catalog and the driver's
//! output, exercised at smoke scale (1/1000 collections, seconds).
//!
//! Run with `cargo test --release --manifest-path axbench/Cargo.toml`
//! from the repository root.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn axbench() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_axbench"))
}

/// The driver spawns `approxql` from its own directory: build it there,
/// with the profile this test was built with.
fn build_approxql() {
    let bin_dir = axbench().parent().unwrap().to_path_buf();
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let mut cmd = Command::new(env!("CARGO"));
    cmd.args(["build", "--offline", "--quiet", "-p", "approxql-cli"])
        .arg("--manifest-path")
        .arg(repo.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(bin_dir.parent().unwrap());
    if bin_dir.ends_with("release") {
        cmd.arg("--release");
    }
    assert!(cmd.status().unwrap().success(), "cannot build approxql");
}

/// Top-level names of a list in BENCHMARK.json (`"name": "…"` entries
/// between `"<key>": [` and the closing bracket).
fn names_in(manifest: &str, key: &str) -> Vec<String> {
    let start = manifest.find(&format!("\"{key}\": [")).unwrap();
    let end = start + manifest[start..].find("\n  ]").unwrap();
    manifest[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').unwrap()].to_string())
        .collect()
}

fn run(workload: &str, seed: u64, trace: bool) -> (String, String) {
    let out = Command::new(axbench())
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap().to_string();
    (last, String::from_utf8(out.stderr).unwrap())
}

/// The metric names of a result line, in order of appearance.
fn emitted(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\": {").unwrap() + 12..];
    metrics
        .split("\": {\"value\"")
        .filter_map(|chunk| chunk.rsplit('"').next())
        .filter(|name| !name.is_empty() && !name.contains('}'))
        .map(str::to_string)
        .collect()
}

#[test]
fn benchmark_json_is_the_catalog() {
    let out = Command::new(axbench()).arg("manifest").output().unwrap();
    let committed =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .unwrap();
    assert_eq!(String::from_utf8(out.stdout).unwrap(), committed);
    let ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for key in ["workloads", "end_to_end", "per_layer"] {
        let names = names_in(&committed, key);
        assert!(names.iter().all(|n| ok(n)), "bad name under {key}");
        let distinct: BTreeSet<_> = names.iter().collect();
        assert_eq!(distinct.len(), names.len(), "duplicate name under {key}");
    }
    for why in committed.split("\"why\": \"").skip(1) {
        assert!(why[..why.find('"').unwrap()].len() <= 200, "why too long");
    }
    assert!(names_in(&committed, "end_to_end").contains(&"setup_s".to_string()));
}

#[test]
fn every_workload_emits_every_metric_exactly_once() {
    build_approxql();
    let manifest = String::from_utf8(
        Command::new(axbench())
            .arg("manifest")
            .output()
            .unwrap()
            .stdout,
    )
    .unwrap();
    for workload in names_in(&manifest, "workloads") {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let (line, _) = run(&workload, 2002, trace);
            assert!(
                line.starts_with("{\"correct\": true, "),
                "{workload}: {line}"
            );
            assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
            assert_eq!(emitted(&line), names_in(&manifest, key), "{workload} {key}");
            if !trace {
                // An end-to-end metric that reads 0 has no regression bound.
                assert!(!line.contains("\"value\": 0,"), "{workload}: {line}");
            }
        }
    }
}

#[test]
fn the_seed_decides_the_inputs() {
    build_approxql();
    let digest = |stderr: &str| {
        stderr
            .lines()
            .find(|l| l.starts_with("# digest"))
            .unwrap()
            .rsplit('\t')
            .next()
            .unwrap()
            .to_string()
    };
    // The cold queries are drawn from the seed (the warm sets are fixed).
    let (line_a, err_a) = run("cli_cold_query", 11, true);
    let (line_b, err_b) = run("cli_cold_query", 12, true);
    let (_, err_a_again) = run("cli_cold_query", 11, true);
    assert_eq!(emitted(&line_a), emitted(&line_b));
    assert_ne!(digest(&err_a), digest(&err_b), "two seeds, one query set");
    assert_eq!(
        digest(&err_a),
        digest(&err_a_again),
        "one seed, two query sets"
    );
}
