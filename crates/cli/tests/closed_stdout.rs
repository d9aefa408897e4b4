//! A reader that goes away (`approxql … | head -1`) must end the process
//! quietly, not with a `failed printing to stdout` panic.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_approxql");

/// Runs `approxql <args>`, reads the first line of its output and closes
/// the pipe; returns that line, the exit code and everything on stderr.
fn first_line_then_close(args: &[&str]) -> (String, Option<i32>, String) {
    let mut child = Command::new(BIN)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    drop(stdout);
    let done = child.wait_with_output().unwrap();
    (
        line,
        done.status.code(),
        String::from_utf8_lossy(&done.stderr).into_owned(),
    )
}

#[test]
fn a_closed_stdout_pipe_is_a_quiet_exit() {
    let dir = std::env::temp_dir().join(format!("axql-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // More output than a pipe buffers (64 KiB), so the writer is still
    // writing when the reader leaves.
    let cds = "<cd><title>piano concerto</title></cd>".repeat(4000);
    let doc = dir.join("catalog.xml");
    std::fs::write(&doc, format!("<catalog>{cds}</catalog>")).unwrap();
    let db = dir.join("db.axql");
    let path = |p: &Path| p.to_str().unwrap().to_owned();
    let built = Command::new(BIN)
        .args(["build", &path(&db), &path(&doc)])
        .output()
        .unwrap();
    assert!(built.status.success(), "{built:?}");

    let q = r#"cd[title["piano"]]"#;
    for args in [
        &["query", &path(&db), q, "-n", "4000", "--direct"][..],
        &["query", &path(&db), q, "-n", "4000", "--xml"],
        &["explain", &path(&db), q, "-k", "4000"],
    ] {
        let (line, code, stderr) = first_line_then_close(args);
        assert!(!line.is_empty(), "{args:?} printed nothing");
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
