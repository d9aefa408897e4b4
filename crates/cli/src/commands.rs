//! Command implementations for the `approxql` binary.

use approxql_core::schema_eval::{best_k_second_level_plan, SchemaEvalConfig};
use approxql_core::{Database, DatabaseError, DbFile, EvalOptions, QueryHit, QueryInput, Surface};
use approxql_cost::{parse_cost_file, CostModel};
use approxql_gen::{DataGenConfig, DataGenerator};
use approxql_tree::NodeId;
use approxql_xml::Document;
use std::fmt;
use std::io::Write;
use std::path::PathBuf;

/// Errors surfaced to `main`.
#[derive(Debug)]
pub enum CliError {
    /// Command-line usage problem (prints usage).
    Usage(String),
    /// I/O failure.
    Io(std::io::Error),
    /// Library failure.
    Db(DatabaseError),
    /// Cost-file parse failure.
    Costs(approxql_cost::CostFileError),
    /// Data-level operation failure (e.g. deleting a node that is not a
    /// live document root).
    Op(String),
}

impl CliError {
    /// Process exit code for this error: 2 for usage problems, 3 when the
    /// database file is unreadable, corrupt, or fails verification, 1 for
    /// everything else.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Db(
                DatabaseError::Storage(_)
                | DatabaseError::Persist(_)
                | DatabaseError::TreeDecode(_)
                | DatabaseError::Schema(_),
            ) => 3,
            _ => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Db(e) => write!(f, "{e}"),
            CliError::Costs(e) => write!(f, "{e}"),
            CliError::Op(m) => write!(f, "{m}"),
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<DatabaseError> for CliError {
    fn from(e: DatabaseError) -> Self {
        CliError::Db(e)
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Parsed flags: positional arguments plus `--key value` / `-k value`
/// options and bare `--switches`.
struct Flags {
    positional: Vec<String>,
    options: Vec<(String, String)>,
    switches: Vec<String>,
}

/// What one verb accepts, declared next to its `cmd_*`.
struct Accepts {
    verb: &'static str,
    /// Bare `--switches`.
    switches: &'static [&'static str],
    /// `--key value` options.
    options: &'static [&'static str],
    /// The verb's stanza of the usage text: synopsis, then description.
    usage: &'static str,
}

/// Every verb, in the order `approxql help` lists them.
const VERBS: [&Accepts; 9] = [
    &BUILD, &QUERY, &TRANSLATE, &INSERT, &DELETE, &STATS, &EXPLAIN, &GEN, &CHECK,
];

/// The usage text: the stanza of `verb` alone, or of every verb when
/// `verb` is none of them.
pub fn usage_text(verb: Option<&str>) -> String {
    let stanzas: Vec<&str> = match VERBS.iter().find(|a| Some(a.verb) == verb) {
        Some(a) => vec![a.usage],
        None => VERBS.iter().map(|a| a.usage).collect(),
    };
    format!("usage:\n{}", stanzas.join("\n\n"))
}

impl Accepts {
    /// A verb that takes no flags at all.
    const fn positionals_only(verb: &'static str, usage: &'static str) -> Accepts {
        Accepts {
            verb,
            switches: &[],
            options: &[],
            usage,
        }
    }

    /// Splits `args` into positionals, switches and options; anything
    /// dash-prefixed that the verb does not declare is a usage error.
    fn parse(&self, args: &[String]) -> Result<Flags, CliError> {
        let mut flags = Flags {
            positional: Vec::new(),
            options: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if self.options.contains(&a.as_str()) {
                let v = it
                    .next()
                    .ok_or_else(|| usage(format!("option {a} needs a value")))?;
                flags.options.push((a.clone(), v.clone()));
            } else if self.switches.contains(&a.as_str()) {
                flags.switches.push(a.clone());
            } else if a.starts_with('-') && a.len() > 1 {
                return Err(usage(format!("unknown option `{a}` for `{}`", self.verb)));
            } else {
                flags.positional.push(a.clone());
            }
        }
        Ok(flags)
    }
}

impl Flags {
    fn option(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn option_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        match self.option(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| usage(format!("invalid value `{v}` for {name}"))),
        }
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn load_costs(flags: &Flags) -> Result<CostModel, CliError> {
    match flags.option("--costs") {
        None => Ok(CostModel::new()),
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            parse_cost_file(&text).map_err(CliError::Costs)
        }
    }
}

/// Opens the database and applies the `--costs FILE` override of `query`
/// and `explain`. Insert costs are baked into the stored tree and into
/// every posting (`pathcost`/`inscost`) at build time, so FILE may only
/// change rename and delete costs: a FILE whose insert cost for a label of
/// the collection (or whose insert default) differs from the stored model
/// would be applied to the schema but not to the data lists.
fn open_with_costs(db_path: &str, flags: &Flags) -> Result<Database, CliError> {
    let mut db = Database::open(db_path)?;
    if flags.option("--costs").is_some() {
        db.set_query_costs(load_costs(flags)?)
            .map_err(|e| usage(format!("--costs {e}: rebuild instead")))?;
    }
    Ok(db)
}

/// `--stats` / `--stats-json`: what the metrics registry counted since
/// `before`, on stderr — as a table, or as one JSON object (which wins
/// when both switches are given).
fn report_stats(flags: &Flags, before: &approxql_metrics::MetricsSnapshot) {
    let json = flags.switch("--stats-json");
    if json || flags.switch("--stats") {
        let delta = approxql_metrics::snapshot().diff(before);
        if json {
            eprintln!("{}", delta.to_json());
        } else {
            eprint!("{}", delta.render_table());
        }
    }
}

/// Entry point: dispatches on the subcommand. Everything a command prints
/// to standard output goes through `out`, so a closed pipe surfaces as an
/// `Io` error (which `main` turns into a quiet exit) instead of a panic.
pub fn run(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| usage("missing subcommand"))?;
    match cmd.as_str() {
        "build" => cmd_build(&BUILD.parse(rest)?, out),
        "insert" => cmd_insert(&INSERT.parse(rest)?, out),
        "delete" => cmd_delete(&DELETE.parse(rest)?, out),
        "query" => cmd_query(&QUERY.parse(rest)?, out),
        "stats" => cmd_stats(&STATS.parse(rest)?, out),
        "explain" => cmd_explain(&EXPLAIN.parse(rest)?, out),
        "translate" => cmd_translate(&TRANSLATE.parse(rest)?, out),
        "gen" => cmd_gen(&GEN.parse(rest)?, out),
        "check" => cmd_check(&CHECK.parse(rest)?, out),
        "help" | "--help" | "-h" => Ok(writeln!(out, "{}", usage_text(None))?),
        other => Err(usage(format!("unknown subcommand `{other}`"))),
    }
}

const BUILD: Accepts = Accepts {
    verb: "build",
    switches: &[],
    options: &["--costs"],
    usage: "  approxql build   <out.axql> <doc.xml>... [--costs FILE]
      parse XML documents into a persistent approXQL database",
};

fn cmd_build(flags: &Flags, out: &mut impl Write) -> Result<(), CliError> {
    let [db_path, docs @ ..] = flags.positional.as_slice() else {
        return Err(usage(
            "build needs an output path and at least one document",
        ));
    };
    if docs.is_empty() {
        return Err(usage("build needs at least one XML document"));
    }
    let costs = load_costs(flags)?;
    let mut parsed: Vec<Document> = Vec::with_capacity(docs.len());
    for path in docs {
        let text = std::fs::read_to_string(path)?;
        parsed.push(approxql_xml::parse_document(&text).map_err(DatabaseError::Xml)?);
    }
    let db = Database::from_documents(&parsed, costs);
    db.save(db_path)?;
    let stats = db.tree().stats();
    writeln!(
        out,
        "built {db_path}: {} elements, {} words, {} distinct labels",
        stats.element_count, stats.word_count, stats.distinct_labels
    )?;
    Ok(())
}

/// The switches of the two mutation verbs.
const MUTATION_SWITCHES: &[&str] = &["--stats", "--stats-json"];

const INSERT: Accepts = Accepts {
    verb: "insert",
    switches: MUTATION_SWITCHES,
    options: &[],
    usage: "  approxql insert  <db.axql> <doc.xml>... [--stats] [--stats-json]
      append documents to an existing database, incrementally updating
      the label indexes, secondary index, and schema; each document is
      sealed with its own atomic commit, so a crash never loses more
      than the in-flight document (--stats / --stats-json print what the
      mutation cost, layer by layer, to stderr: keys put and deleted,
      pages written, commits — as for `query`)",
};

fn cmd_insert(flags: &Flags, out: &mut impl Write) -> Result<(), CliError> {
    let [db_path, docs @ ..] = flags.positional.as_slice() else {
        return Err(usage(
            "insert needs a database path and at least one document",
        ));
    };
    if docs.is_empty() {
        return Err(usage("insert needs at least one XML document"));
    }
    let mut parsed: Vec<Document> = Vec::with_capacity(docs.len());
    for path in docs {
        let text = std::fs::read_to_string(path)?;
        parsed.push(approxql_xml::parse_document(&text).map_err(DatabaseError::Xml)?);
    }
    let mut file = DbFile::open(db_path)?;
    // Diffed from here, so the report is the mutation and not the open.
    let before = approxql_metrics::snapshot();
    let spans = file.insert_documents(&parsed)?;
    report_stats(flags, &before);
    let nodes: u32 = spans.iter().map(|s| s.bound - s.start + 1).sum();
    writeln!(
        out,
        "inserted {} document(s) into {db_path}: {nodes} nodes, roots {}",
        spans.len(),
        spans
            .iter()
            .map(|s| s.start.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    )?;
    Ok(())
}

const DELETE: Accepts = Accepts {
    verb: "delete",
    switches: MUTATION_SWITCHES,
    options: &[],
    usage: "  approxql delete  <db.axql> <root-pre> [--stats] [--stats-json]
      tombstone the document whose root is node ROOT-PRE (document roots
      are listed by `stats`; result nodes by `query`); one atomic commit
      (--stats / --stats-json as for `insert`)",
};

fn cmd_delete(flags: &Flags, out: &mut impl Write) -> Result<(), CliError> {
    let [db_path, root] = flags.positional.as_slice() else {
        return Err(usage(
            "delete needs a database path and a document root node",
        ));
    };
    let pre: u32 = root
        .parse()
        .map_err(|_| usage(format!("invalid node number `{root}`")))?;
    let mut file = DbFile::open(db_path)?;
    let before = approxql_metrics::snapshot();
    let span = file
        .delete_document(NodeId(pre))?
        .ok_or_else(|| CliError::Op(format!("node {pre} is not a live document root")))?;
    report_stats(flags, &before);
    writeln!(
        out,
        "deleted document at node {pre} from {db_path}: {} nodes tombstoned",
        span.bound - span.start + 1
    )?;
    Ok(())
}

/// Prints ranked hits: the name of each hit's element, or with `as_xml`
/// its whole subtree.
fn print_hits(
    out: &mut impl Write,
    db: &Database,
    hits: &[QueryHit],
    as_xml: bool,
) -> Result<(), CliError> {
    if as_xml {
        for (rank, &hit) in hits.iter().enumerate() {
            let el = db.result_element(hit)?;
            writeln!(
                out,
                "<!-- rank {rank}, cost {} -->\n{}",
                hit.cost,
                Document { root: el }.to_xml_string()
            )?;
        }
        return Ok(());
    }
    let roots: Vec<NodeId> = hits.iter().map(|hit| hit.root).collect();
    let names = db.element_names(&roots)?;
    for (rank, (hit, name)) in hits.iter().zip(names).enumerate() {
        writeln!(
            out,
            "#{rank}\tcost={}\tnode={}\t<{name}>",
            hit.cost, hit.root
        )?;
    }
    Ok(())
}

const QUERY: Accepts = Accepts {
    verb: "query",
    switches: &[
        "--direct",
        "--schema",
        "--xml",
        "--stats",
        "--stats-json",
        "--explain",
    ],
    options: &["-n", "--costs", "--threads", "--format", "--repeat"],
    usage: "  approxql query   <db.axql> <QUERY> [-n N] [--direct|--schema]
                   [--costs FILE] [--threads 1] [--xml] [--stats] [--stats-json]
                   [--explain] [--format text|json] [--repeat N]
      run an approximate query; results are ranked by transformation cost
      (QUERY is classic approXQL, or the versioned JSON query-IR
       `{\"v\":1,…}` when it starts with `{`;
       --stats prints per-layer operation counters to stderr,
       --stats-json the same as one JSON object; evaluation is
       single-threaded, so --threads takes only 1;
       --explain prints the compiled physical plan with per-operator entry
       counts instead of results, and --format json renders it as a JSON
       plan DAG with the plan's shape fingerprint; --repeat re-runs the
       query N times in one process to exercise the compiled-plan cache)",
};

fn cmd_query(flags: &Flags, out: &mut impl Write) -> Result<(), CliError> {
    let [db_path, query] = flags.positional.as_slice() else {
        return Err(usage("query needs a database path and a query string"));
    };
    let n: usize = flags.option_parsed("-n")?.unwrap_or(10);
    let as_xml = flags.switch("--xml");
    let show_stats = flags.switch("--stats");
    if flags.switch("--direct") && flags.switch("--schema") {
        return Err(usage("--direct and --schema are mutually exclusive"));
    }
    let use_direct = flags.switch("--direct");
    let explain = flags.switch("--explain");
    let explain_json = match flags.option("--format") {
        None | Some("text") => false,
        Some("json") => {
            if !explain {
                return Err(usage("--format is only valid with --explain"));
            }
            true
        }
        Some(other) => {
            return Err(usage(format!(
                "invalid value `{other}` for --format (text or json)"
            )))
        }
    };
    let repeat: usize = flags.option_parsed("--repeat")?.unwrap_or(1);
    if repeat == 0 {
        return Err(usage("--repeat must be at least 1"));
    }
    if flags
        .option_parsed::<usize>("--threads")?
        .is_some_and(|t| t != 1)
    {
        return Err(usage(
            "--threads takes only 1: evaluation is single-threaded",
        ));
    }
    let opts = EvalOptions::default();

    let db = open_with_costs(db_path, flags)?;

    // The registry is process-wide; diff against a baseline so the report
    // covers exactly this query's evaluation.
    let before = approxql_metrics::snapshot();
    let input = QueryInput::new(query);
    for round in 0..repeat {
        // Repeat rounds re-execute through the plan cache (visible in the
        // plan.cache_hits counter) but print only once.
        let printing = round == 0;
        if explain {
            let text = if explain_json {
                let mut doc = db.explain_direct_json(input, Some(n), opts)?;
                doc.push('\n');
                doc
            } else {
                db.explain_direct(input, Some(n), opts)?
            };
            if printing {
                write!(out, "{text}")?;
            }
        } else if use_direct {
            let (hits, stats) = db.query_direct_with(input, Some(n), opts)?;
            if printing {
                print_hits(out, &db, &hits, as_xml)?;
                if show_stats {
                    eprintln!(
                        "direct: {} fetches, {} plan ops, {} entries, {} cse reuses",
                        stats.fetches, stats.ops, stats.list_entries, stats.cse_reuses
                    );
                }
            }
        } else {
            let (hits, stats) =
                db.query_schema_with(input, n, opts, SchemaEvalConfig::default())?;
            if printing {
                print_hits(out, &db, &hits, as_xml)?;
                if show_stats {
                    eprintln!(
                        "schema: {} second-level queries, {} rows, {} fetches",
                        stats.second_level_queries, stats.secondary_rows, stats.fetches
                    );
                }
            }
        }
    }
    report_stats(flags, &before);
    Ok(())
}

const STATS: Accepts = Accepts::positionals_only(
    "stats",
    "  approxql stats   <db.axql>
      print collection, index, and schema statistics",
);

fn cmd_stats(flags: &Flags, out: &mut impl Write) -> Result<(), CliError> {
    let [db_path] = flags.positional.as_slice() else {
        return Err(usage("stats needs a database path"));
    };
    let db = Database::open(db_path)?;
    db.materialize()?;
    let t = db.tree().stats();
    let s = db.schema().stats();
    let docs = db.tree().documents();
    let live = docs.iter().filter(|d| d.alive).count();
    writeln!(out, "data tree:")?;
    writeln!(
        out,
        "  documents        {live} live, {} tombstoned",
        docs.len() - live
    )?;
    writeln!(out, "  nodes            {}", t.node_count)?;
    writeln!(out, "  elements         {}", t.element_count)?;
    writeln!(out, "  word occurrences {}", t.word_count)?;
    writeln!(out, "  distinct labels  {}", t.distinct_labels)?;
    writeln!(out, "  max depth        {}", t.max_depth)?;
    writeln!(out, "label index:")?;
    writeln!(out, "  postings         {}", db.labels().len())?;
    writeln!(out, "  entries          {}", db.labels().entry_count())?;
    writeln!(out, "  bytes            {}", db.labels().byte_len())?;
    // DESIGN.md §14: delta/varint runs vs. the 24-byte flat codec.
    writeln!(
        out,
        "  bytes/posting    {:.2} (flat codec: 24)",
        db.labels().byte_len() as f64 / db.labels().entry_count().max(1) as f64
    )?;
    writeln!(out, "schema:")?;
    writeln!(out, "  nodes            {}", s.schema_nodes)?;
    writeln!(
        out,
        "  compression      {}x",
        t.node_count / s.schema_nodes.max(1)
    )?;
    writeln!(out, "  I_sec postings   {}", s.secondary_postings)?;
    writeln!(out, "  max class size   {}", s.max_instances)?;
    Ok(())
}

const EXPLAIN: Accepts = Accepts {
    verb: "explain",
    switches: &[],
    options: &["--costs", "-k"],
    usage: "  approxql explain <db.axql> <QUERY> [--costs FILE] [-k K]
      show the expanded representation and the best K second-level queries",
};

fn cmd_explain(flags: &Flags, out: &mut impl Write) -> Result<(), CliError> {
    let [db_path, query] = flags.positional.as_slice() else {
        return Err(usage("explain needs a database path and a query string"));
    };
    let k: usize = flags.option_parsed("-k")?.unwrap_or(5);
    let db = open_with_costs(db_path, flags)?;
    db.materialize()?;
    let metrics_before = approxql_metrics::snapshot();
    let (parsed, expanded) = db.compile(query)?;
    writeln!(out, "query (canonical): {parsed}")?;
    writeln!(
        out,
        "separated representation: {} conjunctive quer{}",
        parsed.separate().len(),
        if parsed.separate().len() == 1 {
            "y"
        } else {
            "ies"
        }
    )?;
    writeln!(
        out,
        "expanded representation: {} nodes, {} leaves, {} derivations",
        expanded.len(),
        expanded.leaf_count(),
        expanded.derivation_count()
    )?;
    let plan = db
        .plan_for(&parsed, &expanded)
        .ok_or_else(|| CliError::Op("query has no executable plan".into()))?;
    let run = best_k_second_level_plan(
        &plan,
        db.schema(),
        db.tree().interner(),
        k,
        EvalOptions::default(),
    );
    writeln!(
        out,
        "best {} second-level quer{} (complete: {}):",
        run.queries.len(),
        if run.queries.len() == 1 { "y" } else { "ies" },
        run.complete
    )?;
    for (i, entry) in run.queries.iter().enumerate() {
        let skeleton = render_skeleton(&db, entry.skeleton());
        writeln!(out, "  #{i} cost={} skeleton={skeleton}", entry.cost)?;
    }
    writeln!(out, "work counters:")?;
    for line in approxql_metrics::snapshot()
        .diff(&metrics_before)
        .render_table()
        .lines()
    {
        writeln!(out, "  {line}")?;
    }
    Ok(())
}

const TRANSLATE: Accepts = Accepts {
    verb: "translate",
    switches: &[],
    options: &["--to", "--out"],
    usage: "  approxql translate <QUERY> [--to classic|json] [--out FILE]
      parse QUERY (classic, or JSON query-IR when it starts with `{`) and
      print its canonical form in the --to surface (default: json, the
      versioned query-IR). Equivalent queries translate to identical
      canonical forms in either spelling; malformed queries exit 2 with a
      caret-annotated syntax error",
};

fn cmd_translate(flags: &Flags, out: &mut impl Write) -> Result<(), CliError> {
    let [query] = flags.positional.as_slice() else {
        return Err(usage("translate needs a query string"));
    };
    let to = match flags.option("--to") {
        None => Surface::Json,
        Some(name) => Surface::from_name(name)
            .ok_or_else(|| usage(format!("invalid value `{name}` for --to (classic or json)")))?,
    };
    // A malformed query is a usage-class failure (exit 2): translate
    // validates input, it has no system under test.
    let parsed = QueryInput::new(query)
        .parse()
        .map_err(|e| usage(format!("{} query: {e}", Surface::detect(query))))?;
    let mut rendered = to.render(&parsed);
    rendered.push('\n');
    match flags.option("--out") {
        Some(path) => std::fs::write(path, &rendered)?,
        None => write!(out, "{rendered}")?,
    }
    Ok(())
}

fn render_skeleton(db: &Database, skel: &approxql_core::topk::Skeleton) -> String {
    let label = db.tree().resolve_label(skel.label);
    if skel.children.is_empty() {
        format!("{label}@{}", skel.pre)
    } else {
        let kids: Vec<String> = skel
            .children
            .iter()
            .map(|c| render_skeleton(db, c))
            .collect();
        format!("{label}@{}[{}]", skel.pre, kids.join(" and "))
    }
}

const CHECK: Accepts = Accepts::positionals_only(
    "check",
    "  approxql check   <db.axql>
      verify on-disk integrity: header slots, page checksums, B+-tree
      invariants, and out-of-line value runs (exit 3 on corruption)",
);

fn cmd_check(flags: &Flags, out: &mut impl Write) -> Result<(), CliError> {
    let [db_path] = flags.positional.as_slice() else {
        return Err(usage("check needs a database path"));
    };
    let report = Database::check_file(db_path)?;
    writeln!(out, "{db_path}: {report}")?;
    Ok(())
}

const GEN: Accepts = Accepts {
    verb: "gen",
    switches: &[],
    options: &[
        "--elements",
        "--names",
        "--terms",
        "--words",
        "--seed",
        "--docs",
    ],
    usage: "  approxql gen     <out-dir> [--elements N] [--names N] [--terms N]
                   [--words N] [--seed S] [--docs N]
      write a synthetic XML collection (Section 8.1 workload)",
};

fn cmd_gen(flags: &Flags, out: &mut impl Write) -> Result<(), CliError> {
    let [out_dir] = flags.positional.as_slice() else {
        return Err(usage("gen needs an output directory"));
    };
    let mut cfg = DataGenConfig::default();
    if let Some(v) = flags.option_parsed("--elements")? {
        cfg.element_count = v;
    }
    if let Some(v) = flags.option_parsed("--names")? {
        cfg.element_names = v;
    }
    if let Some(v) = flags.option_parsed("--terms")? {
        cfg.vocabulary = v;
    }
    if let Some(v) = flags.option_parsed("--words")? {
        cfg.word_occurrences = v;
    }
    if let Some(v) = flags.option_parsed("--seed")? {
        cfg.seed = v;
    }
    let docs_per_file: usize = flags.option_parsed("--docs")?.unwrap_or(100);

    let dir = PathBuf::from(out_dir);
    std::fs::create_dir_all(&dir)?;
    let documents = DataGenerator::new(cfg).generate_documents();
    let mut written = 0;
    for (i, chunk) in documents.chunks(docs_per_file.max(1)).enumerate() {
        let mut text = String::from("<collection>");
        for el in chunk {
            text.push_str(&Document { root: el.clone() }.to_xml_string());
        }
        text.push_str("</collection>");
        let path = dir.join(format!("part{i:04}.xml"));
        std::fs::write(&path, text)?;
        written += 1;
    }
    writeln!(
        out,
        "wrote {} documents into {} file(s) under {}",
        documents.len(),
        written,
        dir.display()
    )?;
    Ok(())
}

/// Test helper: runs a command line given as separate words and returns
/// what it printed.
#[cfg(test)]
pub fn run_words(words: &[&str]) -> Result<String, CliError> {
    let args: Vec<String> = words.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    run(&args, &mut out)?;
    Ok(String::from_utf8(out).expect("commands print UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("axql-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn full_cli_roundtrip() {
        let dir = tmpdir("round");
        let doc = dir.join("catalog.xml");
        std::fs::write(
            &doc,
            "<catalog><cd><title>piano concerto</title></cd><cd><title>piano sonata</title></cd></catalog>",
        )
        .unwrap();
        let db = dir.join("db.axql");
        run_words(&["build", db.to_str().unwrap(), doc.to_str().unwrap()]).unwrap();
        run_words(&["stats", db.to_str().unwrap()]).unwrap();
        run_words(&[
            "query",
            db.to_str().unwrap(),
            r#"cd[title["piano"]]"#,
            "-n",
            "5",
            "--direct",
        ])
        .unwrap();
        run_words(&[
            "query",
            db.to_str().unwrap(),
            r#"cd[title["piano"]]"#,
            "--schema",
        ])
        .unwrap();
        run_words(&["explain", db.to_str().unwrap(), r#"cd[title["piano"]]"#]).unwrap();
        // Both evaluators accept `--threads 1`; any other count is a usage
        // error, since evaluation is single-threaded.
        for algo in ["--direct", "--schema"] {
            run_words(&[
                "query",
                db.to_str().unwrap(),
                r#"cd[title["piano"]]"#,
                algo,
                "--threads",
                "1",
            ])
            .unwrap();
        }
        for threads in ["0", "2"] {
            assert!(matches!(
                run_words(&[
                    "query",
                    db.to_str().unwrap(),
                    r#"cd[title["piano"]]"#,
                    "--threads",
                    threads,
                ]),
                Err(CliError::Usage(m)) if m.contains("single-threaded")
            ));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn insert_and_delete_verbs_mutate_the_database() {
        let dir = tmpdir("mutate");
        let doc1 = dir.join("one.xml");
        std::fs::write(&doc1, "<cd><title>piano concerto</title></cd>").unwrap();
        let doc2 = dir.join("two.xml");
        std::fs::write(&doc2, "<cd><title>piano sonata</title></cd>").unwrap();
        let db = dir.join("db.axql");
        run_words(&["build", db.to_str().unwrap(), doc1.to_str().unwrap()]).unwrap();
        run_words(&["insert", db.to_str().unwrap(), doc2.to_str().unwrap()]).unwrap();
        run_words(&["check", db.to_str().unwrap()]).unwrap();
        {
            let reopened = Database::open(&db).unwrap();
            assert_eq!(
                reopened
                    .query_direct(r#"cd[title["piano"]]"#, None)
                    .unwrap()
                    .len(),
                2
            );
        }
        // The first document's root is the first span start (node 1).
        run_words(&["delete", db.to_str().unwrap(), "1"]).unwrap();
        run_words(&["check", db.to_str().unwrap()]).unwrap();
        {
            let reopened = Database::open(&db).unwrap();
            assert_eq!(
                reopened
                    .query_direct(r#"cd[title["piano"]]"#, None)
                    .unwrap()
                    .len(),
                1
            );
        }
        // Deleting the same root again is a data-level error, exit 1.
        let err = run_words(&["delete", db.to_str().unwrap(), "1"]).unwrap_err();
        assert!(matches!(err, CliError::Op(_)));
        assert_eq!(err.exit_code(), 1);
        // A non-numeric node is a usage error.
        assert!(matches!(
            run_words(&["delete", db.to_str().unwrap(), "first"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_words(&["insert", db.to_str().unwrap()]),
            Err(CliError::Usage(_))
        ));
        // Both verbs take the stats switches of `query` and nothing else.
        for words in [
            &[
                "insert",
                db.to_str().unwrap(),
                doc2.to_str().unwrap(),
                "--statz",
            ][..],
            &["delete", db.to_str().unwrap(), "1", "--direct"],
        ] {
            let err = run_words(words).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{words:?}");
            assert!(err.to_string().contains("unknown option"), "{err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn query_explain_and_repeat() {
        let dir = tmpdir("explain");
        let doc = dir.join("catalog.xml");
        std::fs::write(
            &doc,
            "<catalog><cd><title>piano concerto</title></cd></catalog>",
        )
        .unwrap();
        let db = dir.join("db.axql");
        run_words(&["build", db.to_str().unwrap(), doc.to_str().unwrap()]).unwrap();
        let q = r#"cd[title["piano"]]"#;
        run_words(&["query", db.to_str().unwrap(), q, "--explain"]).unwrap();
        // Repeat rounds drive the plan cache; combined with --stats-json
        // this is what the CI smoke greps for `plan.cache_hits`.
        run_words(&[
            "query",
            db.to_str().unwrap(),
            q,
            "--repeat",
            "3",
            "--stats-json",
        ])
        .unwrap();
        assert!(matches!(
            run_words(&["query", db.to_str().unwrap(), q, "--repeat", "0"]),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn query_with_costs_file() {
        let dir = tmpdir("costs");
        let doc = dir.join("c.xml");
        std::fs::write(&doc, "<a><mc><title>piano</title></mc></a>").unwrap();
        let db = dir.join("db.axql");
        run_words(&["build", db.to_str().unwrap(), doc.to_str().unwrap()]).unwrap();
        let costs = dir.join("costs.txt");
        std::fs::write(&costs, "rename name cd mc 4\n").unwrap();
        run_words(&[
            "query",
            db.to_str().unwrap(),
            r#"cd[title["piano"]]"#,
            "--costs",
            costs.to_str().unwrap(),
        ])
        .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn costs_file_overrides_renames_and_deletes_but_not_inserts() {
        let dir = tmpdir("costs-insert");
        let doc = dir.join("c.xml");
        std::fs::write(
            &doc,
            "<a><cd><tracks><track><title>piano</title></track></tracks></cd>\
             <cd><title>piano</title></cd></a>",
        )
        .unwrap();
        let db = dir.join("db.axql");
        let db = db.to_str().unwrap();
        run_words(&["build", db, doc.to_str().unwrap()]).unwrap();

        // Insert costs are baked into the stored postings: a FILE that
        // changes one would reach the schema evaluator only (cost 20 for
        // the nested cd against 2 from --direct). Refused, naming the
        // first such label of the collection.
        let inserts = dir.join("inserts.txt");
        std::fs::write(&inserts, "insert name track 10\ninsert name tracks 10\n").unwrap();
        let q = r#"cd[title["piano"]]"#;
        for verb in [
            &["query", "--direct"][..],
            &["query", "--schema"],
            &["explain"],
        ] {
            let mut words = vec![verb[0], db, q, "--costs", inserts.to_str().unwrap()];
            words.extend(&verb[1..]);
            let err = run_words(&words).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{words:?}");
            assert!(
                err.to_string().contains("insert cost of name `tracks`"),
                "{err}"
            );
        }
        let default = dir.join("default.txt");
        std::fs::write(&default, "default insert 2\n").unwrap();
        let err = run_words(&["query", db, q, "--costs", default.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("default insert cost"), "{err}");

        // Renames and deletes only: applied, and to both evaluators alike.
        let renames = dir.join("renames.txt");
        std::fs::write(&renames, "rename name dvd cd 4\ndelete term forte 3\n").unwrap();
        let run = |algo| {
            let q = r#"dvd[title["piano" and "forte"]]"#;
            run_words(&["query", db, q, algo, "--costs", renames.to_str().unwrap()]).unwrap()
        };
        let direct = run("--direct");
        assert_eq!(direct.lines().count(), 2, "{direct}");
        assert!(direct.starts_with("#0\tcost=7\t"), "{direct}");
        assert_eq!(direct, run("--schema"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_stored_cost_table_as_costs_file_changes_nothing() {
        // A store whose classes `insert` and `delete` numbered: `dvd`, seen
        // first, keeps its class after its first document goes, and `cd`
        // comes in by insert, a path of its own. A fresh build of the live
        // documents would number `mc` before `dvd` — and break the tie
        // between their equal-cost second-level queries the other way.
        let dir = tmpdir("costs-same");
        let costs = dir.join("costs.txt");
        std::fs::write(
            &costs,
            "rename name cd mc 2\nrename name cd dvd 2\ndelete term sonata 3\n",
        )
        .unwrap();
        let docs: Vec<String> = [
            "<dvd><title>sonata</title></dvd>",
            "<mc><title>piano sonata</title></mc>",
            "<dvd><title>piano</title></dvd>",
            "<cd><title>sonata</title><composer>bach</composer></cd>",
        ]
        .iter()
        .enumerate()
        .map(|(i, xml)| {
            let path = dir.join(format!("d{i}.xml"));
            std::fs::write(&path, xml).unwrap();
            path.to_str().unwrap().to_owned()
        })
        .collect();
        let db = dir.join("db.axql");
        let (db, costs) = (db.to_str().unwrap(), costs.to_str().unwrap());
        run_words(&["build", db, &docs[0], &docs[1], "--costs", costs]).unwrap();
        run_words(&["insert", db, &docs[2]]).unwrap();
        run_words(&["insert", db, &docs[3]]).unwrap();
        run_words(&["delete", db, "1"]).unwrap();
        for (query, n) in [
            (r#"cd[title["piano"]]"#, "1"),
            (r#"cd[title["piano" and "sonata"]]"#, "2"),
            (r#"title["sonata"]"#, "2"),
        ] {
            for algo in ["--direct", "--schema"] {
                let plain = run_words(&["query", db, query, "-n", n, algo]).unwrap();
                let with = ["query", db, query, "-n", n, algo, "--costs", costs];
                assert!(!plain.is_empty(), "{query} {algo}");
                assert_eq!(run_words(&with).unwrap(), plain, "{query} {algo}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gen_writes_parseable_xml() {
        let dir = tmpdir("gen");
        run_words(&[
            "gen",
            dir.to_str().unwrap(),
            "--elements",
            "200",
            "--terms",
            "50",
            "--words",
            "600",
            "--docs",
            "10",
        ])
        .unwrap();
        let mut parsed = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let p = entry.unwrap().path();
            if p.extension().is_some_and(|e| e == "xml") {
                let text = std::fs::read_to_string(&p).unwrap();
                approxql_xml::parse_document(&text).unwrap();
                parsed += 1;
            }
        }
        assert!(parsed > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn usage_errors() {
        assert!(matches!(run_words(&[]), Err(CliError::Usage(_))));
        assert!(matches!(run_words(&["bogus"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run_words(&["eval", "db.axql", "datasets/figure2.json"]),
            Err(CliError::Usage(m)) if m == "unknown subcommand `eval`"
        ));
        assert!(matches!(run_words(&["build"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run_words(&["query", "x"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_words(&["query", "a", "b", "-n"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_words(&["query", "a", "b", "--direct", "--schema"]),
            Err(CliError::Usage(_))
        ));
        // The surface is read off the query; no verb pins it.
        for words in [
            &["query", "db", "cd", "--surface", "classic"][..],
            &["explain", "db", "cd", "--surface", "json"][..],
            &["translate", "cd", "--surface", "json"][..],
        ] {
            let err = run_words(words).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{words:?}");
            assert!(err.to_string().contains("`--surface`"), "{err}");
        }
        let err = run_words(&["translate", "cd", "--to", "xpath"]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(
            err.to_string().contains("invalid value `xpath` for --to"),
            "{err}"
        );
    }

    #[test]
    fn unknown_flags_are_usage_errors_naming_the_flag() {
        // Flags are checked before the database is touched, so no store is
        // needed: an unknown switch, a misspelt option (which used to run
        // the default evaluator), and an option that belongs to another verb.
        for (words, flag) in [
            (&["query", "db", "cd", "--bogus"][..], "--bogus"),
            (&["query", "db", "cd", "--shema"][..], "--shema"),
            (&["check", "db", "--elements", "5"][..], "--elements"),
        ] {
            let err = run_words(words).expect_err("must be rejected");
            assert_eq!(err.exit_code(), 2, "{words:?}");
            let msg = err.to_string();
            assert!(msg.contains(&format!("`{flag}`")), "{msg}");
            assert!(msg.contains(&format!("`{}`", words[0])), "{msg}");
        }
    }

    #[test]
    fn usage_stanzas_and_accepted_flags_agree() {
        for accepts in VERBS {
            let verb = accepts.verb;
            assert!(
                accepts.usage.starts_with(&format!("  approxql {verb} ")),
                "{verb}: the stanza starts with the synopsis"
            );
            // Flag-shaped words of the stanza: a dash and a letter at the
            // start of a word (`B+-tree` and `auto-detected` are not).
            let mentioned: Vec<&str> = accepts
                .usage
                .split(|c: char| c.is_whitespace() || "[]()|,;`".contains(c))
                .filter(|w| w.starts_with('-') && !w.trim_start_matches('-').is_empty())
                .collect();
            for flag in accepts.switches.iter().chain(accepts.options) {
                assert!(mentioned.contains(flag), "{verb}: usage omits {flag}");
            }
            for word in mentioned {
                assert!(
                    accepts.switches.contains(&word) || accepts.options.contains(&word),
                    "{verb}: usage mentions {word}, which the verb does not accept"
                );
            }
        }
        // A usage error shows the stanza of its verb alone; `help` and an
        // unknown verb show every stanza.
        assert_eq!(
            usage_text(Some("check")),
            format!("usage:\n{}", CHECK.usage)
        );
        assert_eq!(usage_text(Some("bogus")), usage_text(None));
        assert_eq!(
            usage_text(None).matches("\n  approxql ").count(),
            VERBS.len()
        );
    }

    #[test]
    fn check_passes_on_a_built_database_and_fails_on_a_bit_flip() {
        let dir = tmpdir("check");
        let doc = dir.join("catalog.xml");
        std::fs::write(
            &doc,
            "<catalog><cd><title>piano concerto</title></cd><cd><title>sonata</title></cd></catalog>",
        )
        .unwrap();
        let db = dir.join("db.axql");
        run_words(&["build", db.to_str().unwrap(), doc.to_str().unwrap()]).unwrap();
        run_words(&["check", db.to_str().unwrap()]).unwrap();

        // Flip one bit in a data page (past the two 4 KiB header slots).
        let mut bytes = std::fs::read(&db).unwrap();
        bytes[2 * 4096 + 137] ^= 0x10;
        std::fs::write(&db, &bytes).unwrap();
        let err = run_words(&["check", db.to_str().unwrap()]).unwrap_err();
        assert!(matches!(err, CliError::Db(DatabaseError::Storage(_))));
        assert_eq!(err.exit_code(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_store_of_another_format_version_asks_for_a_rebuild() {
        let dir = tmpdir("badversion");
        let doc = dir.join("catalog.xml");
        std::fs::write(&doc, "<catalog><cd><title>sonata</title></cd></catalog>").unwrap();
        let db = dir.join("db.axql");
        run_words(&["build", db.to_str().unwrap(), doc.to_str().unwrap()]).unwrap();
        // Both header slots as a version-6 binary wrote them (the version
        // is bytes 8..12 of each 4 KiB slot and is read before anything
        // else of the slot, its trailer included, is trusted).
        let mut bytes = std::fs::read(&db).unwrap();
        for slot in [0, 4096] {
            bytes[slot + 8..slot + 12].copy_from_slice(&6u32.to_le_bytes());
        }
        std::fs::write(&db, &bytes).unwrap();
        let db = db.to_str().unwrap();
        for words in [
            vec!["check", db],
            vec!["stats", db],
            vec!["query", db, "cd"],
        ] {
            let err = run_words(&words).unwrap_err();
            assert_eq!(err.exit_code(), 3, "{words:?}");
            let msg = err.to_string();
            assert!(msg.contains("unsupported store version 6"), "{msg}");
            assert!(msg.contains("rebuild with `approxql build`"), "{msg}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nesting_is_bounded_for_build_and_insert() {
        let dir = tmpdir("deep");
        let nested = |depth: usize| "<a>".repeat(depth) + "x" + &"</a>".repeat(depth);
        let (ok, deep) = (dir.join("ok.xml"), dir.join("deep.xml"));
        std::fs::write(&ok, nested(approxql_xml::MAX_DEPTH)).unwrap();
        std::fs::write(&deep, nested(200_000)).unwrap();
        let db = dir.join("db.axql");
        let (db, ok, deep) = (
            db.to_str().unwrap(),
            ok.to_str().unwrap(),
            deep.to_str().unwrap(),
        );

        // The deepest legal document builds, and comes back as it went in.
        run_words(&["build", db, ok]).unwrap();
        let xml = run_words(&["query", db, "a", "-n", "1", "--xml"]).unwrap();
        assert!(xml.ends_with(&format!("{}\n", nested(256))), "{xml}");

        // One level more is an XML error with its position, exit 1 — not a
        // stack overflow — for both verbs, and the store stays as it was.
        for verb in ["build", "insert"] {
            let err = run_words(&[verb, db, deep]).unwrap_err();
            assert_eq!(err.exit_code(), 1, "{verb}");
            let msg = err.to_string();
            assert!(msg.contains("XML error at 1:769"), "{msg}");
            assert!(msg.contains("deeper than 256 levels"), "{msg}");
            run_words(&["check", db]).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exit_codes_are_distinct() {
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        let nf = run_words(&["check", "/nonexistent/db.axql"]).unwrap_err();
        assert_eq!(nf.exit_code(), 3);
        let io = CliError::Io(std::io::Error::other("boom"));
        assert_eq!(io.exit_code(), 1);
        // A label too long to store is the input's fault, not the store's.
        assert_eq!(
            CliError::Db(DatabaseError::LabelTooLong(600)).exit_code(),
            1
        );
    }

    #[test]
    fn check_usage_errors() {
        assert!(matches!(run_words(&["check"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn missing_database_is_reported() {
        assert!(matches!(
            run_words(&["stats", "/nonexistent/db.axql"]),
            Err(CliError::Db(_) | CliError::Io(_))
        ));
    }

    #[test]
    fn translate_converts_between_surfaces() {
        let dir = tmpdir("translate");
        let classic = r#"cd[title["piano"] and composer]"#;
        // classic → json → classic via --out files comes back to the
        // canonical classic form.
        let json_out = dir.join("q.json");
        run_words(&["translate", classic, "--out", json_out.to_str().unwrap()]).unwrap();
        let json = std::fs::read_to_string(&json_out).unwrap();
        assert_eq!(
            json.trim_end(),
            r#"{"v":1,"query":{"name":"cd","child":{"and":[{"name":"title","child":{"text":"piano"}},{"name":"composer"}]}}}"#
        );
        let classic_out = dir.join("q.axq");
        run_words(&[
            "translate",
            json.trim_end(),
            "--to",
            "classic",
            "--out",
            classic_out.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&classic_out).unwrap().trim_end(),
            classic
        );
        assert!(matches!(
            run_words(&["translate", classic, "--to", "sql"]),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn translate_errors_render_caret_spans_and_exit_2() {
        // Satellite: the CLI surfaces line/column + caret-snippet parse
        // diagnostics, and malformed input is a usage-class (exit 2) error.
        let err = run_words(&["translate", "cd[a and ]"]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let rendered = err.to_string();
        assert!(
            rendered.contains("query syntax error at line 1, column 10:"),
            "{rendered}"
        );
        assert!(
            rendered.ends_with("\n  cd[a and ]\n           ^"),
            "missing caret snippet:\n{rendered}"
        );
        // The caret sits under the token the message names, also when
        // that token is the first one.
        let err = run_words(&["translate", "\"piano\" and cd"]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(
            err.to_string().ends_with(
                "line 1, column 1: expected a name selector, found \"piano\"\n  \"piano\" and cd\n  ^"
            ),
            "{err}"
        );
        // An unsupported JSON-IR version is also exit 2, with the
        // distinct version message.
        let err = run_words(&["translate", r#"{"v":2,"query":{"name":"cd"}}"#]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(
            err.to_string().contains("unsupported query-IR version 2"),
            "{err}"
        );
    }

    #[test]
    fn query_accepts_both_surfaces() {
        let dir = tmpdir("surfaces");
        let doc = dir.join("catalog.xml");
        std::fs::write(
            &doc,
            "<catalog><cd><title>piano concerto</title></cd></catalog>",
        )
        .unwrap();
        let db = dir.join("db.axql");
        run_words(&["build", db.to_str().unwrap(), doc.to_str().unwrap()]).unwrap();
        for query in [
            r#"cd[title["piano"]]"#,
            r#"{"v":1,"query":{"name":"cd","child":{"name":"title","child":{"text":"piano"}}}}"#,
        ] {
            run_words(&["query", db.to_str().unwrap(), query, "--direct"]).unwrap();
        }
        // Path notation is a classic syntax error.
        assert!(matches!(
            run_words(&["query", db.to_str().unwrap(), r#"/cd//title"#]),
            Err(CliError::Db(DatabaseError::Query(_)))
        ));
        // --explain --format json; --format without --explain is misuse.
        run_words(&[
            "query",
            db.to_str().unwrap(),
            r#"cd[title["piano"]]"#,
            "--explain",
            "--format",
            "json",
        ])
        .unwrap();
        assert!(matches!(
            run_words(&[
                "query",
                db.to_str().unwrap(),
                r#"cd[title["piano"]]"#,
                "--format",
                "json",
            ]),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
