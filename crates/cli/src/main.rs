//! `approxql` — the approXQL command line.
//!
//! `approxql help` prints the synopsis of every verb; the text lives next
//! to each verb's flag declaration in `commands` (`commands::usage_text`),
//! and a usage error prints only the stanza of the verb it concerns.
//!
//! Queries are accepted in two spellings — classic approXQL
//! (`cd[title["piano"]]`) and the versioned JSON query-IR
//! (`{"v":1,"query":…}`) — both compiling to the same physical plan; a
//! query that starts with `{` is JSON-IR.
//!
//! Exit codes: 0 success, 1 generic failure, 2 usage error, 3 database
//! file unreadable / corrupt / failed verification.

// No panics outside tests: every failure is a typed error or a documented
// exit code (DESIGN.md §11).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod commands;

use std::io::{BufWriter, ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = BufWriter::new(std::io::stdout().lock());
    let done = commands::run(&args, &mut out).and_then(|()| Ok(out.flush()?));
    match done {
        Ok(()) => ExitCode::SUCCESS,
        // The reader of our output went away (`approxql … | head`): there
        // is nobody left to report to.
        Err(commands::CliError::Io(e)) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(commands::CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n");
            let verb = args.first().map(String::as_str);
            eprintln!("{}", commands::usage_text(verb));
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
