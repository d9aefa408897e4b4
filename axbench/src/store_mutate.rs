//! `store_mutate`: an insert/delete stream with reads against a real
//! store file — the write side of the storage, index and schema layers.
//!
//! The stream repeats cycles of 15 mutations: (insert a held-out document,
//! insert, delete the oldest earlier insert) × 5, where the fifth insert
//! of every cycle is a *novel-path* document. Each mutation is followed by
//! one direct and one schema read of the same query on the live database.
//!
//! A novel-path insert rewrites about the whole store and freed pages are
//! not reused, so the file grows by its initial size per cycle. An untraced
//! run therefore gives every cycle a fresh store: the file's size does not
//! depend on how many cycles the clock allows (at 1/100 scale one 15 s run
//! reached 1.2 GB and ran into the acceptance driver's file-size limit).

use crate::inputs::{
    generate_documents, generate_queries, hold_out, merged_costs, novel_document, split_documents,
    with_result_counts, xml_bytes, QueryMix, QuerySpec,
};
use crate::queries::{
    answers_agree, feed_digest, median_setup, run_query, time_ms, Evaluator, OPTS,
};
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, percentile, Digest};
use crate::trace::Tracer;
use crate::{digests, Ctx};
use approxql_core::{Database, DbFile, QueryHit};
use approxql_cost::CostModel;
use approxql_metrics::{Metric, TimerMetric};
use approxql_storage::PAGE_SIZE;
use approxql_tree::NodeId;
use approxql_xml::{parse_document, Document};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

const RENAMINGS: usize = 5;
/// Mutations per cycle: 10 inserts (one of them novel-path), 5 deletes.
const CYCLE: usize = 15;
/// Mutations of a traced run (one full cycle plus five).
const TRACED_MUTATIONS: usize = 20;
/// `approxql insert` spawns after a traced stream.
const CLI_INSERTS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Insert,
    InsertNovel,
    Delete,
}

fn kind_of(mutation: usize) -> Kind {
    let in_cycle = mutation % CYCLE;
    if in_cycle % 3 == 2 {
        Kind::Delete
    } else if in_cycle == 6 {
        // the fifth insert of the cycle
        Kind::InsertNovel
    } else {
        Kind::Insert
    }
}

/// One document of the collection as the driver believes it to be.
struct Entry {
    start: u32,
    doc: Document,
    alive: bool,
}

struct Stream {
    path: PathBuf,
    file: DbFile,
    costs: CostModel,
    /// Every document ever loaded or inserted, in preorder.
    model: Vec<Entry>,
    pool: Vec<Document>,
    queries: Vec<QuerySpec>,
    /// Roots of the stream's own inserts that are still live, oldest first.
    inserted: VecDeque<u32>,
    mutations: usize,
    novel: usize,
    inserted_bytes: u64,
}

fn setup(ctx: &Ctx) -> Result<Stream, String> {
    // 1/300 scale: a 38 MB store that one cycle grows to 80 MB.
    let (div, max_elements) = if ctx.smoke { (1000, 12) } else { (300, 60) };
    let docs = split_documents(generate_documents(div), max_elements);
    let (initial, pool) = hold_out(docs, 6);
    let plain = Database::from_documents(&initial, CostModel::new());
    let mix = QueryMix {
        pattern_1: 4,
        pattern_2: 4,
        pattern_3: 0,
    };
    let generated = generate_queries(plain.tree(), plain.labels(), ctx.seed, RENAMINGS, &mix);
    let costs = merged_costs(&generated);
    let db = Database::from_tree(plain.tree().clone(), costs.clone());
    let model = db
        .tree()
        .documents()
        .iter()
        .zip(initial)
        .map(|(span, doc)| Entry {
            start: span.start,
            doc,
            alive: true,
        })
        .collect();
    let path = ctx.scratch.join("mutate.axql");
    let file = DbFile::create(&path, db).map_err(|e| e.to_string())?;
    Ok(Stream {
        path,
        file,
        costs,
        model,
        pool,
        queries: with_result_counts(&generated, &[10]),
        inserted: VecDeque::new(),
        mutations: 0,
        novel: 0,
        inserted_bytes: 0,
    })
}

impl Stream {
    /// The document the next insert of kind `kind` adds.
    fn next_document(&mut self, kind: Kind) -> Document {
        let doc = self.pool[self.mutations % self.pool.len()].clone();
        if kind == Kind::InsertNovel {
            self.novel += 1;
            novel_document(&doc, self.novel)
        } else {
            doc
        }
    }

    /// Applies one insert through the top-level entry point; returns its
    /// latency, or `None` if it failed.
    fn insert(&mut self, doc: Document) -> Option<f64> {
        let (spans, ms) = time_ms(|| self.file.insert_documents(std::slice::from_ref(&doc)));
        let span = *spans.ok()?.first()?;
        self.inserted_bytes += doc.to_xml_string().len() as u64;
        self.inserted.push_back(span.start);
        self.model.push(Entry {
            start: span.start,
            doc,
            alive: true,
        });
        Some(ms)
    }

    /// Deletes the oldest live insert of the stream.
    fn delete(&mut self) -> Option<f64> {
        let root = self.inserted.pop_front()?;
        let (span, ms) = time_ms(|| self.file.delete_document(NodeId(root)));
        let span = span.ok()??;
        let entry = self.model.iter_mut().find(|e| e.start == span.start)?;
        entry.alive = false;
        Some(ms)
    }

    /// The two reads that follow every mutation: the same query through
    /// both evaluators, which must agree. Returns their latencies in µs.
    fn reads(&self, report: &mut Report) -> [f64; 2] {
        let q = &self.queries[self.mutations % self.queries.len()];
        let (direct, d_ms) =
            time_ms(|| run_query(self.file.database(), q, Evaluator::Direct, OPTS));
        let (schema, s_ms) =
            time_ms(|| run_query(self.file.database(), q, Evaluator::Schema, OPTS));
        report.attempted += 2;
        match (direct, schema) {
            (Ok(d), Ok(s)) if answers_agree(&d, &s) => {}
            _ => report.failed += 2,
        }
        [d_ms * 1e3, s_ms * 1e3]
    }

    fn live_documents(&self) -> Vec<Document> {
        self.model
            .iter()
            .filter(|e| e.alive)
            .map(|e| e.doc.clone())
            .collect()
    }
}

/// Latencies of one stream, by mutation kind.
#[derive(Default)]
struct Latencies {
    insert_ms: Vec<f64>,
    novel_ms: Vec<f64>,
    delete_ms: Vec<f64>,
    read_us: Vec<f64>,
}

impl Latencies {
    fn record(&mut self, kind: Kind, ms: f64) {
        match kind {
            Kind::Insert => self.insert_ms.push(ms),
            Kind::InsertNovel => self.novel_ms.push(ms),
            Kind::Delete => self.delete_ms.push(ms),
        }
    }
}

/// What is left of a stream once its file handle is closed.
struct Closed {
    path: PathBuf,
    costs: CostModel,
    model: Vec<Entry>,
    queries: Vec<QuerySpec>,
}

impl Stream {
    /// Closes the store: nothing else may hold it when it is reopened.
    fn close(self) -> Closed {
        Closed {
            path: self.path,
            costs: self.costs,
            model: self.model,
            queries: self.queries,
        }
    }
}

/// After the stream: the store passes `check`, the reopened database holds
/// exactly the acknowledged documents (`cli_inserted` are the ones added
/// by `approxql insert` after the close), and its answers equal those of a
/// fresh build over the live documents.
fn verify(
    ctx: &Ctx,
    closed: Closed,
    cli_inserted: &[Document],
    report: &mut Report,
) -> Result<(approxql_core::CheckReport, f64), String> {
    let Closed {
        path,
        costs,
        mut model,
        queries,
    } = closed;
    let (checked, check_ms) = time_ms(|| Database::check_file(&path));
    let checked = checked.map_err(|e| format!("check after the stream failed: {e}"))?;
    let reopened = Database::open(&path).map_err(|e| e.to_string())?;
    let spans = reopened.tree().documents();
    // `approxql insert` appended its documents past everything we track.
    let tracked = spans.len().saturating_sub(cli_inserted.len());
    report.check(tracked == model.len(), || {
        format!(
            "store holds {} documents, {} were acknowledged",
            spans.len(),
            model.len() + cli_inserted.len()
        )
    });
    for (span, doc) in spans[tracked..].iter().zip(cli_inserted) {
        model.push(Entry {
            start: span.start,
            doc: doc.clone(),
            alive: true,
        });
    }
    for (entry, span) in model.iter().zip(spans) {
        report.check(
            entry.start == span.start && entry.alive == span.alive,
            || {
                format!(
                    "document at {} is {} after reopen, acknowledged as {}",
                    entry.start,
                    if span.alive { "live" } else { "deleted" },
                    if entry.alive { "live" } else { "deleted" }
                )
            },
        );
    }

    // A fresh build numbers the live documents consecutively; translate
    // the mutated store's hits (document rank, offset) into that numbering.
    let live: Vec<Document> = model
        .iter()
        .filter(|e| e.alive)
        .map(|e| e.doc.clone())
        .collect();
    let fresh = Database::from_documents(&live, costs);
    let live_spans: Vec<_> = spans.iter().filter(|s| s.alive).collect();
    let to_fresh = |hit: QueryHit| -> Option<QueryHit> {
        let rank = live_spans
            .iter()
            .position(|s| s.start <= hit.root.0 && hit.root.0 <= s.bound)?;
        let fresh_start = fresh.tree().documents().get(rank)?.start;
        Some(QueryHit {
            root: NodeId(fresh_start + (hit.root.0 - live_spans[rank].start)),
            cost: hit.cost,
        })
    };
    let mut digest = Digest::default();
    for (i, q) in queries.iter().enumerate() {
        let mutated: Option<Vec<QueryHit>> = run_query(&reopened, q, Evaluator::Direct, OPTS)
            .unwrap_or_default()
            .into_iter()
            .map(to_fresh)
            .collect();
        let rebuilt = run_query(&fresh, q, Evaluator::Direct, OPTS).unwrap_or_default();
        report.check(
            mutated.as_ref().is_some_and(|m| answers_agree(m, &rebuilt)),
            || {
                format!(
                    "mutated store and fresh build disagree on query {i}: {}",
                    q.text
                )
            },
        );
        feed_digest(&mut digest, i, &rebuilt);
    }
    // The stream's length depends on the clock in an untraced run, so only
    // the fixed-length traced stream has a digest to commit.
    if ctx.trace {
        digests::check(report, "store_mutate", ctx, digest.value());
    }
    Ok((checked, check_ms))
}

fn untraced(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut stream, setup_s) = median_setup(|| setup(ctx))?;
    let mut lat = Latencies::default();
    let start = Instant::now();
    let mut cycle_s = Vec::new();
    loop {
        let cycle_start = Instant::now();
        for _ in 0..CYCLE {
            let kind = kind_of(stream.mutations);
            let done = match kind {
                Kind::Delete => stream.delete(),
                _ => {
                    let doc = stream.next_document(kind);
                    stream.insert(doc)
                }
            };
            report.attempted += 1;
            match done {
                Some(ms) => lat.record(kind, ms),
                None => report.failed += 1,
            }
            lat.read_us.extend(stream.reads(&mut report));
            stream.mutations += 1;
        }
        cycle_s.push(cycle_start.elapsed().as_secs_f64());
        // Untimed: verify this cycle's store, then start the next cycle on
        // a fresh one, further along the pool and the query rotation.
        let (mutations, novel) = (stream.mutations, stream.novel);
        verify(ctx, stream.close(), &[], &mut report)?;
        if ctx.smoke || start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        stream = setup(ctx)?;
        stream.mutations = mutations;
        stream.novel = novel;
    }
    report.set("op_p50_ms", median(&lat.insert_ms));
    report.set("op_p90_ms", percentile(&lat.insert_ms, 90.0));
    report.set("ops_per_s", CYCLE as f64 / median(&cycle_s));
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("setup_s", setup_s);
    Ok(report)
}

fn traced(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let mut stream = setup(ctx)?;
    // A resident copy takes every mutation first: its cost is the part of
    // a durable insert that is not persistence, and its delta says whether
    // the schema was structurally rebuilt.
    let mut resident = Database::from_documents(&stream.live_documents(), stream.costs.clone());
    let mut resident_roots: VecDeque<u32> = VecDeque::new();
    let mut t = Tracer::default();
    let mut lat = Latencies::default();
    let mut rebuilds = 0u64;
    let mut overhead = Vec::new();
    let total = if ctx.smoke { 7 } else { TRACED_MUTATIONS };
    let before = approxql_metrics::snapshot();
    for _ in 0..total {
        let kind = kind_of(stream.mutations);
        let op = t.enter("op");
        let commit_before = approxql_metrics::snapshot().timer(TimerMetric::StoreCommit);
        let (done, top_level) = match kind {
            Kind::Delete => {
                if let Some(root) = resident_roots.pop_front() {
                    t.timed("core.delete_resident", || {
                        resident.delete_document(NodeId(root))
                    });
                }
                let span = t.enter("dbfile.delete");
                let done = stream.delete();
                (done, span)
            }
            _ => {
                let doc = stream.next_document(kind);
                let text = doc.to_xml_string();
                let parsed = t.timed("xml.parse", || parse_document(&text));
                report.check(parsed.as_ref().ok() == Some(&doc), || {
                    String::from("a serialized document does not parse back to itself")
                });
                let delta = t.timed("core.insert_resident", || resident.insert_document(&doc));
                rebuilds += u64::from(delta.schema.rebuilt);
                resident_roots.push_back(delta.span.start);
                let span = t.enter("dbfile.insert");
                let done = stream.insert(doc);
                (done, span)
            }
        };
        let commit = approxql_metrics::snapshot().timer(TimerMetric::StoreCommit);
        t.synthetic(
            "storage.commit",
            commit.total_ns.saturating_sub(commit_before.total_ns),
        );
        t.exit(top_level);
        report.attempted += 1;
        match done {
            Some(ms) => lat.record(kind, ms),
            None => report.failed += 1,
        }
        let [direct_us, schema_us] = t.timed("core.reads", || stream.reads(&mut report));
        lat.read_us.extend([direct_us, schema_us]);
        stream.mutations += 1;
        t.exit(op);
        if let Some(ms) = done {
            overhead.push(t.duration_ms(op) / (ms + (direct_us + schema_us) / 1e3) - 1.0);
        }
    }
    let diff = approxql_metrics::snapshot().diff(&before);
    let commits = diff.get(Metric::StoreCommits).max(1) as f64;
    let commit_timer = diff.timer(TimerMetric::StoreCommit);
    report.set(
        "storage.commit_ms",
        commit_timer.total_ns as f64 / 1e6 / commit_timer.count.max(1) as f64,
    );
    let written = diff.get(Metric::PagerBackendWrites);
    report.set("pager.pages_written_per_commit", written as f64 / commits);
    report.set(
        "pager.flushes_per_commit",
        diff.get(Metric::PagerFlushes) as f64 / commits,
    );
    report.set(
        "btree.puts_per_mutation",
        diff.get(Metric::BtreeInserts) as f64 / total as f64,
    );
    report.set(
        "btree.node_splits",
        diff.get(Metric::BtreeNodeSplits) as f64,
    );
    report.set(
        "storage.bytes_written_per_input_byte",
        (written * PAGE_SIZE as u64) as f64 / stream.inserted_bytes.max(1) as f64,
    );
    report.set(
        "plan.cache_invalidations_per_mutation",
        diff.get(Metric::PlanCacheInvalidations) as f64 / total as f64,
    );
    report.set("schema.structural_rebuilds", rebuilds as f64);
    report.set(
        "schema.nodes",
        stream.file.database().schema().stats().schema_nodes as f64,
    );
    let parse_ms: f64 = t.durations_ms("xml.parse").iter().sum();
    report.set(
        "xml.parse_mb_per_s",
        stream.inserted_bytes as f64 / 1e6 / (parse_ms / 1e3),
    );
    report.set("dbfile.insert_p50_ms", median(&lat.insert_ms));
    report.set("dbfile.insert_novel_p50_ms", median(&lat.novel_ms));
    report.set("dbfile.delete_p50_ms", median(&lat.delete_ms));
    let resident_ms = median(&t.durations_ms("core.insert_resident"));
    report.set("core.insert_resident_ms", resident_ms);
    report.set("dbfile.persist_ms", median(&lat.insert_ms) - resident_ms);
    report.set("core.read_after_write_p50_us", median(&lat.read_us));
    let ops = t.durations_ms("op");
    report.set("bench.op_p50_ms", median(&ops));
    report.set("bench.op_p95_ms", percentile(&ops, 95.0));
    report.set("bench.trace_overhead_share", median(&overhead));
    report.set("bench.layer_sum_share", t.layer_sum_share());
    report.set("bench.ops_traced", total as f64);

    // What a CLI user waits for on the write side: process start → exit of
    // `approxql insert` with a small path-reusing document.
    let small = stream
        .pool
        .iter()
        .min_by_key(|d| d.root.element_count())
        .cloned()
        .ok_or("the insert pool is empty")?;
    let small_path = ctx.scratch.join("small.xml");
    std::fs::write(&small_path, small.to_xml_string()).map_err(|e| e.to_string())?;
    let live_bytes = xml_bytes(&stream.live_documents());
    let closed = stream.close();
    let mut cli_docs = Vec::new();
    let mut cli_ms = Vec::new();
    for _ in 0..if ctx.smoke { 2 } else { CLI_INSERTS } {
        let (status, ms) = time_ms(|| {
            Command::new(&ctx.approxql)
                .arg("insert")
                .arg(&closed.path)
                .arg(&small_path)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .status()
        });
        report.attempted += 1;
        if status.is_ok_and(|s| s.success()) {
            cli_ms.push(ms);
            cli_docs.push(small.clone());
        } else {
            report.failed += 1;
        }
    }
    report.set("cli.insert_p50_ms", median(&cli_ms));
    let (checked, check_ms) = verify(ctx, closed, &cli_docs, &mut report)?;
    report.set("core.check_ms", check_ms);
    report.set("storage.leaked_pages", checked.leaked_pages as f64);
    report.set(
        "storage.pages_per_key",
        f64::from(checked.committed_pages) / checked.entries.max(1) as f64,
    );
    let store_bytes = f64::from(checked.committed_pages) * PAGE_SIZE as f64;
    let live_bytes = live_bytes + xml_bytes(&cli_docs);
    report.set("bench.store_bytes", store_bytes);
    report.set("bench.input_bytes", live_bytes as f64);
    report.set(
        "storage.store_bytes_per_input_byte",
        store_bytes / live_bytes as f64,
    );
    ctx.write_trace("store_mutate", &t);
    Ok(report)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    if ctx.trace {
        traced(ctx)
    } else {
        untraced(ctx)
    }
}
