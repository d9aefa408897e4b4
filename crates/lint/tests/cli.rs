//! End-to-end tests of the `approxql-lint` binary: exit codes, finding
//! counts per rule, and the self-check that the real workspace is clean
//! without a single suppression.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_approxql-lint"))
        .args(args)
        .output()
        .expect("spawn approxql-lint")
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

#[test]
fn clean_fixture_exits_zero() {
    let root = fixture("clean");
    let out = lint(&["--workspace", "--root", root.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(code(&out), 0, "stdout: {stdout}");
    // The fixture's one justified site is counted, not hidden.
    assert!(
        stdout.contains("approxql-lint: clean") && stdout.contains(" 1 lint:allow)"),
        "{stdout}"
    );
}

#[test]
fn violations_fixture_fires_every_rule() {
    let root = fixture("violations");
    let out = lint(&["--workspace", "--root", root.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(code(&out), 3, "stdout: {stdout}");

    let count_of = |rule: &str| {
        stdout
            .lines()
            .filter(|l| l.contains(&format!("[{rule}]")))
            .count()
    };
    assert_eq!(count_of("metric-coverage"), 3, "{stdout}");
    assert_eq!(count_of("fs-outside-pager"), 1, "{stdout}");
    assert_eq!(count_of("untrusted-length"), 2, "{stdout}");
    assert_eq!(count_of("commit-protocol"), 2, "{stdout}");
    assert!(stdout.contains("approxql-lint: 8 finding(s)"), "{stdout}");

    // The specific sites, not just the counts. fs-outside-pager covers the
    // crates that hold store state; the fixture CLI's `fs::write` is a
    // report, not store state, and must not fire.
    assert!(
        stdout.contains("crates/core/src/export.rs:5: [fs-outside-pager]"),
        "{stdout}"
    );
    assert!(!stdout.contains("crates/cli/"), "{stdout}");
    assert!(stdout.contains("`pager.bad` is not documented"), "{stdout}");
    assert!(stdout.contains("is not pinned"), "{stdout}");
    assert!(
        stdout.contains("`pager.phantom_ctr` is documented but not registered"),
        "{stdout}"
    );

    // The dataflow rules: each fixture case pins its diagnosis site.
    assert!(
        stdout.contains("crates/index/src/codec.rs:6: [untrusted-length]")
            && stdout.contains("untrusted decoded value `n`"),
        "{stdout}"
    );
    assert!(
        stdout.contains("crates/index/src/codec.rs:14: [untrusted-length]")
            && stdout.contains("a freshly decoded integer"),
        "{stdout}"
    );
    // The PR 3 header-before-flush bug, statically rediscovered…
    assert!(
        stdout.contains("crates/storage/src/pager.rs:10: [commit-protocol]")
            && stdout.contains("not dominated by a flush"),
        "{stdout}"
    );
    // …and its dual: a flush-ordered commit that never syncs.
    assert!(
        stdout.contains("crates/storage/src/pager.rs:19: [commit-protocol]")
            && stdout.contains("not followed by a sync"),
        "{stdout}"
    );
}

#[test]
fn usage_errors_exit_two() {
    // No --workspace.
    assert_eq!(code(&lint(&[])), 2);
    // Unknown flag.
    assert_eq!(code(&lint(&["--workspace", "--bogus"])), 2);
    // Missing flag value.
    assert_eq!(code(&lint(&["--workspace", "--root"])), 2);
    // The retired second suppression mechanism and output format.
    assert_eq!(code(&lint(&["--workspace", "--update-baseline"])), 2);
    assert_eq!(code(&lint(&["--workspace", "--format", "json"])), 2);
}

#[test]
fn list_rules_names_exactly_the_four() {
    let out = lint(&["--list-rules"]);
    assert_eq!(code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ids: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        ids,
        [
            "metric-coverage",
            "fs-outside-pager",
            "untrusted-length",
            "commit-protocol"
        ]
    );
}

#[test]
fn real_workspace_is_clean_without_suppressions() {
    // The repo root is two levels above this crate.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let out = lint(&["--workspace", "--root", root.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(code(&out), 0, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains(" 0 lint:allow)"), "{stdout}");
}
