#![forbid(unsafe_code)]
//! `axbench` — the end-to-end + per-layer benchmark of approXQL.
//!
//! ```text
//! axbench --workload W --seed N --seconds S --trace 0|1 [--smoke]   one run, one process
//! axbench run --all|W [--seed N] [--seconds S] [--repeat K] [--smoke] [--out FILE]
//! axbench compare A.json B.json
//! axbench manifest                                                  prints BENCHMARK.json
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: it generates the
//! workload's inputs from the seed, measures, checks the outputs, prints
//! every metric by name with its unit, and ends with the one-line JSON
//! result. `run` starts a fresh driver process per workload and mode.
//! See README.md for the workloads and what each layer metric predicts.

mod catalog;
mod cli_cold;
mod compare;
mod digests;
mod inputs;
mod queries;
mod report;
mod stats;
mod store_mutate;
mod trace;
mod warm;

use catalog::WORKLOADS;
use queries::Evaluator;
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// What one run of one workload is asked to do.
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed phase of an untraced run. A traced run replays
    /// a fixed, shorter operation count instead, so that its work counters
    /// repeat exactly.
    pub seconds: f64,
    pub trace: bool,
    /// 1/1000-scale collections and two rounds: seconds, not minutes.
    pub smoke: bool,
    /// `<target>/axbench`: trace files land here.
    out_dir: PathBuf,
    /// `<target>/axbench/<workload>-<pid>`: stores and XML of this run,
    /// removed when the run ends.
    pub scratch: PathBuf,
    /// The already-built program under test, next to this binary.
    pub approxql: PathBuf,
}

impl Ctx {
    pub fn write_trace(&self, workload: &str, t: &trace::Tracer) {
        let path = self.out_dir.join(format!("{workload}.trace.jsonl"));
        if let Err(e) = t.write_jsonl(&path) {
            eprintln!("axbench: cannot write {}: {e}", path.display());
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: axbench --workload W --seed N --seconds S --trace 0|1 [--smoke]\n       \
         axbench run --all|W [--seed N] [--seconds S] [--repeat K] [--smoke] [--out FILE]\n       \
         axbench compare A.json B.json\n       axbench manifest\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    ExitCode::from(2)
}

/// `--name value` options and bare switches after the subcommand.
pub struct Flags {
    args: Vec<String>,
}

impl Flags {
    pub fn value(&self, name: &str) -> Option<&str> {
        let i = self.args.iter().position(|a| a == name)?;
        self.args.get(i + 1).map(String::as_str)
    }

    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value `{v}` for {name}")),
        }
    }

    pub fn switch(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Report, String> {
    match name {
        "cli_cold_query" => cli_cold::run(ctx),
        "warm_direct" => warm::run(ctx, Evaluator::Direct),
        "warm_schema" => warm::run(ctx, Evaluator::Schema),
        "store_mutate" => store_mutate::run(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The run this process was asked for, from the contract's flags.
fn context(flags: &Flags) -> Result<(&str, Ctx), String> {
    let name = flags.value("--workload").ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.name == name) {
        return Err(format!("unknown workload `{name}`"));
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin_dir = exe.parent().ok_or("binary has no directory")?;
    // target/release/axbench → target/axbench
    let out_dir = bin_dir.parent().unwrap_or(bin_dir).join("axbench");
    let ctx = Ctx {
        seed: flags.parsed("--seed")?.unwrap_or(2002),
        seconds: flags
            .parsed("--seconds")?
            .unwrap_or(catalog::RUN_SECONDS as f64),
        trace: match flags.value("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("invalid value `{v}` for --trace")),
        },
        smoke: flags.switch("--smoke"),
        scratch: out_dir.join(format!("{name}-{}", std::process::id())),
        out_dir,
        approxql: bin_dir.join("approxql"),
    };
    Ok((name, ctx))
}

/// One workload in this process: the contract's entry point. A run that
/// cannot produce its numbers prints no result and exits with 1.
fn single(name: &str, ctx: &Ctx) -> ExitCode {
    let report = if !ctx.approxql.is_file() {
        Err(format!(
            "{} is missing: build it with `cargo build --release -p approxql-cli`",
            ctx.approxql.display()
        ))
    } else {
        std::fs::create_dir_all(&ctx.scratch)
            .map_err(|e| e.to_string())
            .and_then(|()| run_workload(name, ctx))
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    let report = match report {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("axbench: {name}: {msg}");
            return ExitCode::FAILURE;
        }
    };
    for failure in &report.check_failures {
        eprintln!("axbench: {name}: check failed: {failure}");
    }
    println!(
        "workload {name}  seed {}  trace {}  ops attempted {}  ops failed {}",
        ctx.seed,
        u8::from(ctx.trace),
        report.attempted,
        report.failed
    );
    for (metric, unit, value) in report.rows(ctx.trace) {
        println!("{metric:<40} {value:>16.4} {unit}");
    }
    println!("{}", report.to_json_line(ctx.trace));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => compare::run_sets(&Flags {
            args: args.split_off(1),
        }),
        Some("compare") => compare::compare(&args[1..]),
        Some("manifest") => {
            print!("{}", catalog::manifest_json());
            Ok(ExitCode::SUCCESS)
        }
        Some(a) if a.starts_with("--") => {
            let flags = Flags { args };
            context(&flags).map(|(name, ctx)| single(name, &ctx))
        }
        _ => return usage(),
    };
    outcome.unwrap_or_else(|msg| {
        eprintln!("axbench: {msg}");
        usage()
    })
}
