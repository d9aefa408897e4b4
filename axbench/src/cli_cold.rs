//! `cli_cold_query`: what a CLI user waits for — `approxql query` from
//! process start to the last byte of output, on a store built by
//! `approxql build`. Every spawn decodes the whole store.

use crate::inputs::{
    generate_documents, generate_queries, merged_costs, with_result_counts, xml_bytes, QueryMix,
    QuerySpec,
};
use crate::queries::{
    answers_agree, feed_digest, median_setup, query_counts, render_hits, run_query, staged_query,
    time_ms, Evaluator, Parts, OPTS,
};
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, percentile, percentile_of_medians, rss_mb, Digest};
use crate::trace::Tracer;
use crate::{digests, Ctx};
use approxql_core::Database;
use approxql_cost::{parse_cost_file, write_cost_file, CostModel};
use approxql_index::persist::{
    label_key, load_blob, load_label_index, load_secondary_index, PersistError,
};
use approxql_index::LabelIndex;
use approxql_metrics::Metric;
use approxql_schema::Schema;
use approxql_storage::Store;
use approxql_tree::{
    decode_doc_segment, decode_docmap, decode_interner, DataTree, DataTreeBuilder,
};
use approxql_xml::{parse_document, Document};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

const RENAMINGS: usize = 5;
/// Distinct cold queries (8 × pattern 1, 8 × pattern 2).
const QUERIES: usize = 16;
/// Spawns per round of the timed phase.
const ROUND: usize = 8;

struct Cold {
    db_path: PathBuf,
    doc_paths: Vec<PathBuf>,
    queries: Vec<QuerySpec>,
    input_bytes: u64,
}

/// Operation `j` runs query `j mod 16`; the evaluator alternates and flips
/// every cycle, so two cycles put every query through both.
fn op_plan(j: usize) -> (usize, Evaluator) {
    let evaluator = if (j + j / QUERIES).is_multiple_of(2) {
        Evaluator::Schema
    } else {
        Evaluator::Direct
    };
    (j % QUERIES, evaluator)
}

fn spawn_query(ctx: &Ctx, cold: &Cold, q: &QuerySpec, evaluator: Evaluator) -> Option<Vec<u8>> {
    let out = Command::new(&ctx.approxql)
        .arg("query")
        .arg(&cold.db_path)
        .arg(&q.text)
        .args(["-n", &q.n.to_string(), "--threads", "1"])
        .arg(match evaluator {
            Evaluator::Direct => "--direct",
            Evaluator::Schema => "--schema",
        })
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status.success().then_some(out.stdout)
}

/// Writes the collection as XML files and one merged cost file, then has
/// the program build the store from them.
fn setup(ctx: &Ctx) -> Result<Cold, String> {
    let div = if ctx.smoke { 1000 } else { 100 };
    let docs = generate_documents(div);
    let dir = ctx.scratch.join("docs");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut doc_paths = Vec::new();
    for (i, d) in docs.iter().enumerate() {
        let path = dir.join(format!("d{i:04}.xml"));
        std::fs::write(&path, d.to_xml_string()).map_err(|e| e.to_string())?;
        doc_paths.push(path);
    }
    let mut builder = DataTreeBuilder::new();
    for d in &docs {
        builder.add_document(d);
    }
    let tree = builder.build(&CostModel::new());
    let labels = LabelIndex::build(&tree);
    let mix = QueryMix {
        pattern_1: QUERIES / 2,
        pattern_2: QUERIES / 2,
        pattern_3: 0,
    };
    let generated = generate_queries(&tree, &labels, ctx.seed, RENAMINGS, &mix);
    let costs_path = ctx.scratch.join("costs.txt");
    std::fs::write(&costs_path, write_cost_file(&merged_costs(&generated)))
        .map_err(|e| e.to_string())?;
    let db_path = ctx.scratch.join("cold.axql");
    let status = Command::new(&ctx.approxql)
        .arg("build")
        .arg(&db_path)
        .args(&doc_paths)
        .arg("--costs")
        .arg(&costs_path)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot spawn {}: {e}", ctx.approxql.display()))?;
    if !status.success() {
        return Err(format!("`approxql build` exited with {status}"));
    }
    Ok(Cold {
        db_path,
        doc_paths,
        queries: with_result_counts(&generated, &[10]),
        input_bytes: xml_bytes(&docs),
    })
}

/// The stdout every spawn must produce, per query and evaluator, from the
/// same store opened in this process; also the cross-evaluator agreement
/// and digest checks.
fn expected_outputs(
    ctx: &Ctx,
    cold: &Cold,
    db: &Database,
    report: &mut Report,
) -> Vec<[String; 2]> {
    let mut digest = Digest::default();
    let mut out = Vec::new();
    for (i, q) in cold.queries.iter().enumerate() {
        let answer = |evaluator| run_query(db, q, evaluator, OPTS).unwrap_or_default();
        let schema = answer(Evaluator::Schema);
        let direct = answer(Evaluator::Direct);
        report.check(answers_agree(&direct, &schema), || {
            format!("direct and schema disagree on query {i}: {}", q.text)
        });
        feed_digest(&mut digest, i, &schema);
        let render = |hits| render_hits(db.tree(), hits).unwrap_or_default();
        out.push([render(&schema), render(&direct)]);
    }
    digests::check(report, "cli_cold_query", ctx, digest.value());
    out
}

fn expected_for(expected: &[[String; 2]], query: usize, evaluator: Evaluator) -> &str {
    &expected[query][usize::from(evaluator == Evaluator::Direct)]
}

/// Spawns operation `j`; returns its latency and counts it.
fn spawn_op(
    ctx: &Ctx,
    cold: &Cold,
    expected: &[[String; 2]],
    j: usize,
    report: &mut Report,
) -> f64 {
    let (query, evaluator) = op_plan(j);
    let (stdout, ms) = time_ms(|| spawn_query(ctx, cold, &cold.queries[query], evaluator));
    report.attempted += 1;
    if stdout.as_deref() != Some(expected_for(expected, query, evaluator).as_bytes()) {
        report.failed += 1;
    }
    ms
}

fn untraced(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let (cold, setup_s) = median_setup(|| setup(ctx))?;
    let db = Database::open(&cold.db_path).map_err(|e| e.to_string())?;
    let expected = expected_outputs(ctx, &cold, &db, &mut report);

    let (warm_up, min_ops) = if ctx.smoke { (1, ROUND) } else { (4, QUERIES) };
    for j in 0..warm_up {
        spawn_query(ctx, &cold, &cold.queries[j], Evaluator::Schema);
    }
    // Rounds of eight spawns, so that the rate is a median like the rest:
    // one slow spawn in forty would otherwise move it by its whole excess.
    let mut latencies = Vec::new();
    let mut round_s = Vec::new();
    let start = Instant::now();
    while latencies.len() < min_ops || (!ctx.smoke && start.elapsed().as_secs_f64() < ctx.seconds) {
        let round_start = Instant::now();
        for _ in 0..ROUND {
            let j = latencies.len();
            let ms = spawn_op(ctx, &cold, &expected, j, &mut report);
            latencies.push((op_plan(j).0, ms));
        }
        round_s.push(round_start.elapsed().as_secs_f64());
    }
    report.set("op_p50_ms", percentile_of_medians(&latencies, 50.0));
    report.set("op_p90_ms", percentile_of_medians(&latencies, 90.0));
    report.set("ops_per_s", ROUND as f64 / median(&round_s));
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("setup_s", setup_s);
    Ok(report)
}

/// The parts `Database::open` assembles, decoded here stage by stage.
struct Opened {
    tree: DataTree,
    labels: LabelIndex,
    schema: Schema,
    costs: CostModel,
}

/// `core::database`'s key of a live document segment.
fn doc_key(start: u32) -> Vec<u8> {
    let mut k = b"doc#".to_vec();
    k.extend_from_slice(&start.to_be_bytes());
    k
}

/// `Database::open` replayed through the layers' public functions, one
/// span per stage; the five stages are what `core.open_ms` decomposes into.
fn staged_open(t: &mut Tracer, path: &Path) -> Result<Opened, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut store = t
        .timed("storage.open", || Store::open_file(path))
        .map_err(|e| err(&e))?;
    let stage = t.enter("tree.decode");
    let tree = (|| -> Result<(DataTree, CostModel), String> {
        let cost_bytes = load_blob(&mut store, "costs").map_err(|e| err(&e))?;
        let costs = parse_cost_file(&String::from_utf8_lossy(&cost_bytes)).map_err(|e| err(&e))?;
        let interner = decode_interner(&load_blob(&mut store, "interner").map_err(|e| err(&e))?)
            .map_err(|e| err(&e))?;
        let (total_len, docs) =
            decode_docmap(&load_blob(&mut store, "docmap").map_err(|e| err(&e))?)
                .map_err(|e| err(&e))?;
        let mut segments = Vec::new();
        for &span in docs.iter().filter(|s| s.alive) {
            let bytes = t
                .timed("storage.get", || store.get(&doc_key(span.start)))
                .map_err(|e| err(&e))?
                .ok_or_else(|| err(&PersistError::MissingBlob("document segment")))?;
            let seg = decode_doc_segment(&bytes, span, interner.len()).map_err(|e| err(&e))?;
            segments.push((span, seg));
        }
        let tree = DataTree::from_doc_segments(interner, total_len, docs, &segments, &costs)
            .map_err(|e| err(&e))?;
        Ok((tree, costs))
    })();
    t.exit(stage);
    let (tree, costs) = tree?;
    let labels = t
        .timed("index.label_load", || {
            load_label_index(&mut store, tree.interner())
        })
        .map_err(|e| err(&e))?;
    let secondary = t
        .timed("index.secondary_load", || {
            load_secondary_index(&mut store, tree.interner())
        })
        .map_err(|e| err(&e))?;
    let schema = t.timed("schema.assemble", || -> Result<Schema, String> {
        let blob = load_blob(&mut store, "schema").map_err(|e| err(&e))?;
        let schema_tree = DataTree::from_bytes(&blob).map_err(|e| err(&e))?;
        Schema::assemble(&tree, schema_tree, secondary).map_err(|e| err(&e))
    })?;
    Ok(Opened {
        tree,
        labels,
        schema,
        costs,
    })
}

const OPEN_STAGES: [&str; 5] = [
    "storage.open",
    "tree.decode",
    "index.label_load",
    "index.secondary_load",
    "schema.assemble",
];

fn traced(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let cold = setup(ctx)?;
    let mut t = Tracer::default();

    // core::database: the whole open, and its footprint.
    let rss_before = rss_mb();
    let before = approxql_metrics::snapshot();
    let db = Database::open(&cold.db_path).map_err(|e| e.to_string())?;
    let open_diff = approxql_metrics::snapshot().diff(&before);
    report.set("core.open_rss_mb", rss_mb() - rss_before);
    let reads = open_diff.get(Metric::PagerPageReads);
    report.set("pager.page_reads_per_open", reads as f64);
    report.set(
        "pager.cache_miss_share",
        open_diff.get(Metric::PagerCacheMisses) as f64 / reads.max(1) as f64,
    );
    let (checked, ms) = time_ms(|| Database::check_file(&cold.db_path));
    let checked = checked.map_err(|e| e.to_string())?;
    report.set("core.check_ms", ms);
    report.set(
        "storage.pages_per_key",
        f64::from(checked.committed_pages) / checked.entries.max(1) as f64,
    );
    report.set("storage.leaked_pages", checked.leaked_pages as f64);
    let store_bytes = std::fs::metadata(&cold.db_path)
        .map_err(|e| e.to_string())?
        .len();
    report.set("bench.store_bytes", store_bytes as f64);
    report.set("bench.input_bytes", cold.input_bytes as f64);
    report.set(
        "storage.store_bytes_per_input_byte",
        store_bytes as f64 / cold.input_bytes as f64,
    );

    let expected = expected_outputs(ctx, &cold, &db, &mut report);
    let ops = if ctx.smoke { 4 } else { QUERIES };

    // cli: the floor of any spawn, then one cycle of real cold queries.
    let mut floor = Vec::new();
    for _ in 0..10 {
        let (status, ms) = time_ms(|| {
            Command::new(&ctx.approxql)
                .args(["translate", "a"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .status()
        });
        report.check(status.is_ok_and(|s| s.success()), || {
            String::from("`approxql translate a` failed")
        });
        floor.push(ms);
    }
    report.set("cli.spawn_floor_ms", median(&floor));
    let mut spawned = Vec::new();
    for j in 0..ops {
        let op = t.enter("op");
        let process = t.enter("cli.process");
        spawned.push(spawn_op(ctx, &cold, &expected, j, &mut report));
        t.exit(process);
        t.exit(op);
    }
    report.set("cli.query_p90_ms", percentile(&spawned, 90.0));

    // The same operations inside this process, each once through the entry
    // points (reference) and once stage by stage with spans. The two are
    // interleaved so that a slow minute of the box slows both alike: the
    // staged stages are compared with the reference opens.
    let mut reference = Vec::new();
    let mut opens = Vec::new();
    let mut staged = Vec::new();
    let before = approxql_metrics::snapshot();
    let mut rows = 0u64;
    for j in 0..ops {
        let (query, evaluator) = op_plan(j);
        let q = &cold.queries[query];
        let want = Ok(expected_for(&expected, query, evaluator));

        let (rendered, ms) = time_ms(|| -> Result<String, String> {
            let (db, open_ms) = time_ms(|| Database::open(&cold.db_path));
            opens.push(open_ms);
            let db = db.map_err(|e| e.to_string())?;
            let hits = run_query(&db, q, evaluator, OPTS).map_err(|e| e.to_string())?;
            rows += hits.len() as u64;
            render_hits(db.tree(), &hits)
        });
        reference.push(ms);
        report.attempted += 1;
        report.failed += u64::from(rendered.as_deref() != want);

        let op = t.enter("op");
        let rendered = staged_open(&mut t, &cold.db_path).and_then(|opened| {
            let parts = Parts {
                tree: &opened.tree,
                labels: &opened.labels,
                schema: &opened.schema,
                costs: &opened.costs,
            };
            let hits = staged_query(&mut t, &parts, None, q, evaluator)?;
            rows += hits.len() as u64;
            t.timed("cli.render", || render_hits(&opened.tree, &hits))
        });
        t.exit(op);
        staged.push(t.duration_ms(op));
        report.attempted += 1;
        report.failed += u64::from(rendered.as_deref() != want);
    }
    let open_ms = median(&opens);
    report.set("core.open_ms", open_ms);
    let diff = approxql_metrics::snapshot().diff(&before);
    // Reference and staged pass evaluate every query once each.
    for (metric, value) in query_counts(&diff, 2 * ops as u64) {
        report.set(metric, value);
    }
    report.set(
        "schema_eval.second_level_per_result",
        diff.get(Metric::EvalSecondLevelQueries) as f64 / rows.max(1) as f64,
    );
    report.set("bench.op_p50_ms", median(&staged));
    report.set("bench.op_p95_ms", percentile(&staged, 95.0));
    report.set(
        "bench.trace_overhead_share",
        median(&staged) / median(&reference) - 1.0,
    );
    report.set("bench.layer_sum_share", t.layer_sum_share());
    report.set("bench.ops_traced", ops as f64);
    report.set("bench.result_rows", rows as f64);
    let stage_ms = |name: &str| median(&t.durations_ms(name));
    report.set("storage.open_ms", stage_ms("storage.open"));
    report.set("tree.decode_ms", stage_ms("tree.decode"));
    report.set("index.label_load_ms", stage_ms("index.label_load"));
    report.set("index.secondary_load_ms", stage_ms("index.secondary_load"));
    report.set("schema.assemble_ms", stage_ms("schema.assemble"));
    let stage_sum: f64 = OPEN_STAGES.iter().map(|s| stage_ms(s)).sum();
    let share = stage_sum / open_ms;
    report.set("bench.open_stage_sum_share", share);
    // A timing, not an output: outside 0.9–1.1 the decomposition of this
    // run is not to be trusted, but its outputs are no less correct (a box
    // that evicts the store from the page cache between two opens does it).
    if !(0.9..=1.1).contains(&share) {
        eprintln!(
            "axbench: cli_cold_query: open stages sum to {stage_sum:.1} ms, \
             `Database::open` takes {open_ms:.1} ms"
        );
    }
    report.set("query.parse_us", t.mean_ms("query.parse") * 1e3);
    report.set("query.expand_us", t.mean_ms("query.expand") * 1e3);
    report.set("plan.compile_us", t.mean_ms("plan.compile") * 1e3);
    report.set("direct.exec_ms", t.mean_ms("direct.exec"));
    report.set("schema_eval.exec_ms", t.mean_ms("schema_eval.exec"));

    // storage, read side: a full scan and point lookups on fresh handles.
    let mut store = Store::open_file(&cold.db_path).map_err(|e| e.to_string())?;
    let (scanned, ms) = time_ms(|| -> Result<u64, String> {
        let mut bytes = 0u64;
        let mut it = store.iter_all().map_err(|e| e.to_string())?;
        while let Some((k, v)) = it.next_entry().map_err(|e| e.to_string())? {
            bytes += (k.len() + v.len()) as u64;
        }
        Ok(bytes)
    });
    report.set("storage.scan_ms", ms);
    report.set("storage.scan_mb_per_s", scanned? as f64 / 1e6 / (ms / 1e3));
    let mut keys: Vec<Vec<u8>> = db
        .labels()
        .iter()
        .map(|((ty, label), _)| label_key(ty, db.tree().resolve_label(label)))
        .collect();
    keys.sort();
    keys.truncate(200);
    let mut store = Store::open_file(&cold.db_path).map_err(|e| e.to_string())?;
    let before = approxql_metrics::snapshot();
    let (found, ms) = time_ms(|| {
        keys.iter()
            .filter(|k| matches!(store.get(k), Ok(Some(_))))
            .count()
    });
    let get_diff = approxql_metrics::snapshot().diff(&before);
    report.check(found == keys.len(), || {
        format!(
            "only {found} of {} label keys found in the store",
            keys.len()
        )
    });
    report.set("storage.get_us", ms * 1e3 / keys.len().max(1) as f64);
    report.set(
        "btree.node_reads_per_get",
        get_diff.get(Metric::BtreeNodeReads) as f64 / get_diff.get(Metric::BtreeGets).max(1) as f64,
    );

    // xml, tree, schema, index: the build side of what open decodes.
    let mut docs: Vec<Document> = Vec::new();
    let mut parse_ms = 0.0;
    for path in &cold.doc_paths {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let (doc, ms) = time_ms(|| parse_document(&text));
        parse_ms += ms;
        docs.push(doc.map_err(|e| e.to_string())?);
    }
    report.set(
        "xml.parse_mb_per_s",
        cold.input_bytes as f64 / 1e6 / (parse_ms / 1e3),
    );
    let mut builder = DataTreeBuilder::new();
    for d in &docs {
        builder.add_document(d);
    }
    let (tree, ms) = time_ms(|| builder.build(db.costs()));
    report.set("tree.build_ms", ms);
    let (schema, ms) = time_ms(|| Schema::build(&tree, db.costs()));
    report.set("schema.build_ms", ms);
    report.set("schema.nodes", schema.stats().schema_nodes as f64);
    report.set(
        "index.bytes_per_posting",
        db.labels().byte_len() as f64 / db.labels().entry_count().max(1) as f64,
    );
    ctx.write_trace("cli_cold_query", &t);
    Ok(report)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    if ctx.trace {
        traced(ctx)
    } else {
        untraced(ctx)
    }
}
