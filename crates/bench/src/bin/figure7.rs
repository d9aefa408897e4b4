//! Regenerates Figure 7 of the paper: evaluation times of the three query
//! patterns, direct vs. schema-driven, over the number of requested
//! results `n` and {0, 5, 10} renamings per label.
//!
//! ```text
//! figure7 [--scale DIV] [--full] [--pattern 1|2|3] [--queries N]
//!         [--renamings R[,R...]] [--ns N[,N...][,all]] [--seed S]
//! ```
//!
//! The default scale is 1/10 of the paper (100,000 elements, 1,000,000
//! word occurrences); `--full` runs the paper's 1,000,000-element series.
//! Output is a TSV table; each row is the mean over the query set
//! (default 10 queries, like the paper), run one query after the other on
//! one thread, as the paper measured. This is the paper-figure
//! reproduction; the end-to-end and per-layer trajectory is
//! `axbench` (EXPERIMENTS.md).
//!
//! Both evaluators must return as many results as each other in every
//! cell (the schema-driven answer is a prefix of the direct one): a cell
//! where the two `mean_results` differ is named on stderr after the
//! table, and the exit status is 1. The table goes through one buffered
//! writer; a reader that goes away (`figure7 … | head -1`) ends the run
//! quietly with exit status 0.

use approxql_bench::{
    build_collection, make_queries, time_direct, time_schema, Measurement, WorkCounts, PATTERNS,
    RENAMINGS,
};
use std::io::{self, BufWriter, ErrorKind, Write};
use std::process::ExitCode;

struct Args {
    scale_div: usize,
    patterns: Vec<usize>,
    queries: usize,
    renamings: Vec<usize>,
    ns: Vec<Option<usize>>,
    seed: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: figure7 [--scale DIV] [--full] [--pattern 1|2|3] [--queries N] \
         [--renamings R,R,...] [--ns N,...,all] [--seed S]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        scale_div: 10,
        patterns: vec![0, 1, 2],
        queries: 10,
        renamings: RENAMINGS.to_vec(),
        ns: vec![Some(1), Some(10), Some(100), Some(1000), None],
        seed: 2002,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--scale" => args.scale_div = val().parse().unwrap_or_else(|_| usage()),
            "--full" => args.scale_div = 1,
            "--pattern" => {
                let p: usize = val().parse().unwrap_or_else(|_| usage());
                if !(1..=3).contains(&p) {
                    usage();
                }
                args.patterns = vec![p - 1];
            }
            "--queries" => args.queries = val().parse().unwrap_or_else(|_| usage()),
            "--renamings" => {
                args.renamings = val()
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--ns" => {
                args.ns = val()
                    .split(',')
                    .map(|s| {
                        if s == "all" || s == "inf" {
                            None
                        } else {
                            Some(s.parse().unwrap_or_else(|_| usage()))
                        }
                    })
                    .collect();
            }
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn fmt_n(n: Option<usize>) -> String {
    match n {
        Some(n) => n.to_string(),
        None => "all".to_owned(),
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut out = BufWriter::new(io::stdout().lock());
    let done = run(&args, &mut out).and_then(|agree| {
        out.flush()?;
        Ok(agree)
    });
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        // The reader of the table went away: nobody is left to report to.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Measures every cell and writes the table to `out`; `false` if the two
/// evaluators disagree in some cell (named on stderr).
fn run(args: &Args, out: &mut impl Write) -> io::Result<bool> {
    eprintln!(
        "# building collection at 1/{} of the paper scale …",
        args.scale_div
    );
    let t0 = std::time::Instant::now();
    let col = build_collection(args.scale_div, args.seed);
    let stats = col.tree.stats();
    let sstats = col.schema.stats();
    eprintln!(
        "# collection: {} elements, {} words, {} distinct labels, depth {} (built in {:.1?})",
        stats.element_count,
        stats.word_count,
        stats.distinct_labels,
        stats.max_depth,
        t0.elapsed()
    );
    eprintln!(
        "# schema: {} nodes ({}x compression), {} secondary postings, max class {} instances",
        sstats.schema_nodes,
        stats.node_count / sstats.schema_nodes.max(1),
        sstats.secondary_postings,
        sstats.max_instances
    );
    // DESIGN.md §14: the label index stores delta/varint runs; the flat
    // codec it replaced spent a fixed 24 bytes per posting.
    let bytes_per_posting = col.labels.byte_len() as f64 / col.labels.entry_count().max(1) as f64;
    eprintln!(
        "# label index: {} postings in {} bytes ({:.2} bytes/posting; flat codec: 24)",
        col.labels.entry_count(),
        col.labels.byte_len(),
        bytes_per_posting
    );

    let measure_start = std::time::Instant::now();
    writeln!(
        out,
        "pattern\trenamings\tn\talgorithm\tmean_ms\tmean_results\tbytes_per_posting\t{}",
        WorkCounts::tsv_header()
    )?;
    let mut rows: Vec<Measurement> = Vec::new();
    let mut disagree: Vec<String> = Vec::new();
    for &p in &args.patterns {
        let (pattern_name, pattern) = PATTERNS[p];
        for &r in &args.renamings {
            let queries = make_queries(&col, pattern, r, args.queries, args.seed + r as u64);
            for &n in &args.ns {
                let (direct_ms, direct_res, direct_work) = time_direct(&col, &queries, n);
                let (schema_ms, schema_res, schema_work) = time_schema(&col, &queries, n);
                if direct_res != schema_res {
                    disagree.push(format!(
                        "{pattern_name}, {r} renamings, n = {}: direct {direct_res:.1} \
                         results per query, schema {schema_res:.1}",
                        fmt_n(n)
                    ));
                }
                for (alg, ms, res, work) in [
                    ("direct", direct_ms, direct_res, direct_work),
                    ("schema", schema_ms, schema_res, schema_work),
                ] {
                    let m = Measurement {
                        pattern: pattern_name,
                        renamings: r,
                        n,
                        algorithm: alg,
                        mean_ms: ms,
                        mean_results: res,
                        work,
                    };
                    writeln!(
                        out,
                        "{}\t{}\t{}\t{}\t{:.3}\t{:.1}\t{:.2}\t{}",
                        m.pattern,
                        m.renamings,
                        fmt_n(m.n),
                        m.algorithm,
                        m.mean_ms,
                        m.mean_results,
                        bytes_per_posting,
                        m.work.to_tsv_fields()
                    )?;
                    rows.push(m);
                }
            }
        }
    }
    eprintln!(
        "# measured {} cells in {:.1?} wall-clock",
        rows.len(),
        measure_start.elapsed()
    );

    // Shape summary (the paper's qualitative claims).
    eprintln!("#\n# shape summary (schema wins = schema faster than direct):");
    for &p in &args.patterns {
        let (pattern_name, _) = PATTERNS[p];
        for &r in &args.renamings {
            let wins: Vec<String> = args
                .ns
                .iter()
                .filter_map(|&n| {
                    let d = rows.iter().find(|m| {
                        m.pattern == pattern_name
                            && m.renamings == r
                            && m.n == n
                            && m.algorithm == "direct"
                    })?;
                    let s = rows.iter().find(|m| {
                        m.pattern == pattern_name
                            && m.renamings == r
                            && m.n == n
                            && m.algorithm == "schema"
                    })?;
                    Some(format!(
                        "n={}: {}",
                        fmt_n(n),
                        if s.mean_ms < d.mean_ms {
                            "schema"
                        } else {
                            "direct"
                        }
                    ))
                })
                .collect();
            eprintln!("#   {pattern_name}, {r} renamings -> {}", wins.join(", "));
        }
    }
    for cell in &disagree {
        eprintln!("error: direct and schema results differ: {cell}");
    }
    Ok(disagree.is_empty())
}
