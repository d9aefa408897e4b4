//! `approxql-lint` — the CLI surface.
//!
//! ```text
//! approxql-lint --workspace [--root DIR]
//! approxql-lint --list-rules
//! ```
//!
//! Findings go to stdout, one `path:line: [rule] message` line each,
//! followed by a summary line; CI turns the finding lines into annotations.
//!
//! Exit codes are stable (CI and tests rely on them):
//!
//! | code | meaning                              |
//! |------|--------------------------------------|
//! | 0    | clean                                |
//! | 3    | findings                             |
//! | 2    | usage error                          |
//! | 1    | internal error (workspace unreadable)|

use approxql_lint::{rules, Workspace};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: approxql-lint --workspace [--root DIR]\n       \
                     approxql-lint --list-rules\n";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut workspace = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--list-rules" => {
                for r in rules::RULES {
                    println!(
                        "{:<18} {}",
                        r.id,
                        r.summary.split_whitespace().collect::<Vec<_>>().join(" ")
                    );
                }
                return ExitCode::SUCCESS;
            }
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage_error("--root needs a value"),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument {other:?}")),
        }
    }
    if !workspace {
        return usage_error("--workspace is required");
    }

    let root = root.unwrap_or_else(|| PathBuf::from("."));
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!(
                "approxql-lint: cannot load workspace at {}: {e}",
                root.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let findings = ws.run_rules();
    if findings.is_empty() {
        let allows = ws
            .files
            .iter()
            .flat_map(|f| &f.allows)
            .filter(|a| rules::rule(&a.rule).is_some())
            .count();
        println!(
            "approxql-lint: clean ({} files, {} rules, {allows} lint:allow)",
            ws.files.len(),
            rules::RULES.len()
        );
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        println!("{f}");
    }
    println!("approxql-lint: {} finding(s)", findings.len());
    ExitCode::from(3)
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("approxql-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}
