//! `eval_dataset` — emits retrieval-quality dataset skeletons.
//!
//! Instantiates the paper's Section 8.1 query patterns against a corpus
//! with the seeded [`QueryGenerator`] and writes an `approxql eval`
//! dataset (schema v1) whose queries carry their generated per-query
//! cost tables inline. The emitted dataset has no ground truth yet; run
//! `approxql eval <db> <dataset> --gen-truth` to fill it from the
//! reference evaluator. The committed `datasets/figure7_ren*.json`
//! files were produced by this tool.
//!
//! ```text
//! eval_dataset <corpus.xml>... --name NAME [--pattern 1|2|3] [--queries N]
//!              [--renamings N] [--seed S] [--k K|unlimited]
//!              [--evaluator direct|schema|both] [--out FILE]
//! ```

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

use approxql_cost::{write_cost_file, CostModel};
use approxql_eval::dataset::{Dataset, DatasetQuery, EvaluatorSel, KSpec, Settings};
use approxql_gen::{QueryGenConfig, QueryGenerator, PATTERN_1, PATTERN_2, PATTERN_3};
use approxql_index::LabelIndex;
use approxql_tree::DataTreeBuilder;
use std::process::ExitCode;

const USAGE: &str = "\
usage: eval_dataset <corpus.xml>... --name NAME [--pattern 1|2|3]
       [--queries N] [--renamings N] [--seed S] [--k K|unlimited]
       [--evaluator direct|schema|both] [--out FILE]";

struct Args {
    corpus: Vec<String>,
    name: String,
    pattern: &'static str,
    queries: usize,
    renamings: usize,
    seed: u64,
    k: KSpec,
    evaluator: EvaluatorSel,
    out: Option<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        corpus: Vec::new(),
        name: String::new(),
        pattern: PATTERN_1,
        queries: 5,
        renamings: 0,
        seed: 2287,
        k: KSpec::At(10),
        evaluator: EvaluatorSel::Both,
        out: None,
    };
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("option {flag} needs a value"))
        };
        match a.as_str() {
            "--name" => args.name = value(a)?,
            "--pattern" => {
                args.pattern = match value(a)?.as_str() {
                    "1" => PATTERN_1,
                    "2" => PATTERN_2,
                    "3" => PATTERN_3,
                    other => return Err(format!("unknown pattern `{other}` (use 1, 2, or 3)")),
                }
            }
            "--queries" => {
                args.queries = value(a)?
                    .parse()
                    .map_err(|_| "invalid --queries".to_owned())?
            }
            "--renamings" => {
                args.renamings = value(a)?
                    .parse()
                    .map_err(|_| "invalid --renamings".to_owned())?
            }
            "--seed" => args.seed = value(a)?.parse().map_err(|_| "invalid --seed".to_owned())?,
            "--k" => {
                let v = value(a)?;
                args.k = if v == "unlimited" {
                    KSpec::Unlimited
                } else {
                    KSpec::At(
                        v.parse()
                            .ok()
                            .filter(|&n: &usize| n > 0)
                            .ok_or("--k needs a positive integer or `unlimited`")?,
                    )
                };
            }
            "--evaluator" => {
                args.evaluator = match value(a)?.as_str() {
                    "direct" => EvaluatorSel::Direct,
                    "schema" => EvaluatorSel::Schema,
                    "both" => EvaluatorSel::Both,
                    other => return Err(format!("unknown evaluator `{other}`")),
                }
            }
            "--out" => args.out = Some(value(a)?),
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            _ => args.corpus.push(a.clone()),
        }
    }
    if args.corpus.is_empty() {
        return Err("need at least one corpus XML file".to_owned());
    }
    if args.name.is_empty() {
        return Err("--name is required".to_owned());
    }
    if args.queries == 0 {
        return Err("--queries must be at least 1".to_owned());
    }
    Ok(args)
}

fn emit(args: &Args) -> Result<String, String> {
    let mut builder = DataTreeBuilder::new();
    for path in &args.corpus {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = approxql_xml::parse_document(&text).map_err(|e| format!("{path}: {e}"))?;
        builder.add_document(&doc);
    }
    let tree = builder.build(&CostModel::new());
    let index = LabelIndex::build(&tree);
    let cfg = QueryGenConfig {
        renamings_per_label: args.renamings,
        seed: args.seed,
        ..QueryGenConfig::default()
    };
    let mut generator = QueryGenerator::new(&tree, &index, cfg);
    let queries = generator
        .generate_batch(args.pattern, args.queries)
        .into_iter()
        .enumerate()
        .map(|(i, gq)| DatasetQuery {
            id: format!("q{:02}", i + 1),
            query: gq.query,
            overrides: Settings {
                costs: Some(write_cost_file(&gq.costs)),
                ..Settings::default()
            },
            expected: None,
        })
        .collect();
    let ds = Dataset {
        name: args.name.clone(),
        defaults: Settings {
            k: Some(args.k),
            evaluator: Some(args.evaluator),
            ..Settings::default()
        },
        queries,
    };
    Ok(ds.to_json())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match emit(&args) {
        Ok(json) => match &args.out {
            Some(path) => match std::fs::write(path, &json) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    ExitCode::FAILURE
                }
            },
            None => {
                print!("{json}");
                ExitCode::SUCCESS
            }
        },
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
