//! `warm_direct` and `warm_schema`: a library user re-running queries on a
//! resident database. Same collection and cost model; 24 direct queries
//! fit the 32-entry plan cache, 64 schema queries overflow it.

use crate::inputs::{
    collection_config, generate_queries, merged_costs, with_result_counts, QueryMix, QuerySpec,
    WORK_SEED,
};
use crate::queries::{
    answers_agree, feed_digest, fetch_labels, median_setup, pager_ops, query_counts, run_query,
    staged_query, time_ms, Evaluator, Parts, OPTS,
};
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, percentile, percentile_of_medians, Digest};
use crate::trace::Tracer;
use crate::{digests, Ctx};
use approxql_core::{schema_eval, secondary, Database, EvalOptions, QueryHit, SchemaEvalConfig};
use approxql_cost::CostModel;
use approxql_gen::DataGenerator;
use approxql_index::LabelIndex;
use approxql_metrics::Metric;
use approxql_plan as plan;
use approxql_schema::Schema;
use std::time::Instant;

/// Rename targets per query label in the merged cost model.
const RENAMINGS: usize = 5;
/// Rounds of the query set in each pass of a traced run.
const TRACED_ROUNDS: usize = 3;

struct Warm {
    db: Database,
    queries: Vec<QuerySpec>,
    /// The round, starting at the query `--seed` picks. Every seed walks
    /// the same cycle: a query's latency depends on what its predecessor
    /// left on the heap (±15 % under a shuffled order), so a permutation
    /// would be another source of work drawn from the seed.
    order: Vec<usize>,
}

/// The schema evaluator escalates `k` until it has `n` results, and on a
/// few generated queries that takes thousands of empty second-level
/// queries (seconds, against a median of milliseconds). One such query
/// would decide every number of a run, so drawn queries that
/// need more than three escalation rounds (`k` > 8 n) are passed over. The
/// test is a work bound, not a clock: it always keeps the same queries.
fn bounded(db: &Database, q: &QuerySpec) -> bool {
    let cfg = SchemaEvalConfig {
        max_k: 8 * q.n,
        ..SchemaEvalConfig::default()
    };
    db.query_schema_with(q.text.as_str(), q.n, OPTS, cfg)
        .is_ok_and(|(hits, _)| hits.len() == q.n)
}

fn setup(ctx: &Ctx, evaluator: Evaluator) -> Result<Warm, String> {
    let div = if ctx.smoke { 1000 } else { 10 };
    let tree = DataGenerator::new(collection_config(div)).generate_tree(&CostModel::new());
    let labels = LabelIndex::build(&tree);
    let wanted = match evaluator {
        Evaluator::Direct => [10, 10, 4],
        Evaluator::Schema => [24, 24, 16],
    };
    // Half as many again are drawn, so that enough survive `bounded`.
    let drawn = wanted.map(|w| w + w / 2);
    let mix = QueryMix {
        pattern_1: drawn[0],
        pattern_2: drawn[1],
        pattern_3: drawn[2],
    };
    let generated = generate_queries(&tree, &labels, WORK_SEED, RENAMINGS, &mix);
    // The generated tree carries default insert costs, which is all the
    // merged model lists for inserts too.
    let db = Database::from_tree(tree, merged_costs(&generated));
    // A 1/1000-scale collection has too few results for n = 100.
    let ns = if ctx.smoke { [5, 10] } else { [10, 100] };
    let candidates = with_result_counts(&generated, &ns);
    let mut queries = Vec::new();
    let mut from = 0;
    for (pattern, (&want, &drawn)) in wanted.iter().zip(&drawn).enumerate() {
        let kept: Vec<QuerySpec> = candidates[from..from + drawn]
            .iter()
            .filter(|q| bounded(&db, q))
            .take(want)
            .cloned()
            .collect();
        if kept.len() < want {
            return Err(format!(
                "only {} of {want} bounded pattern-{} queries",
                kept.len(),
                pattern + 1
            ));
        }
        queries.extend(kept);
        from += drawn;
    }
    let mut order: Vec<usize> = (0..queries.len()).collect();
    order.rotate_left(ctx.seed as usize % queries.len());
    Ok(Warm { db, queries, order })
}

/// One pass over the query set through the top-level entry point; adds
/// `(query, latency)` samples and counts operations whose answer differs
/// from `expected` (or errors) as failed.
fn round(
    w: &Warm,
    evaluator: Evaluator,
    opts: EvalOptions,
    expected: &[Vec<QueryHit>],
    latencies_ms: &mut Vec<(usize, f64)>,
    report: &mut Report,
) {
    for &i in &w.order {
        let (got, ms) = time_ms(|| run_query(&w.db, &w.queries[i], evaluator, opts));
        latencies_ms.push((i, ms));
        report.attempted += 1;
        if got.as_ref().ok() != Some(&expected[i]) {
            report.failed += 1;
        }
    }
}

/// Warm-up pass: fills the plan cache and records the answers every later
/// operation must reproduce. Then the output checks: the other evaluator
/// agrees on every query, and the digest matches the committed one.
fn warm_up_and_check(
    w: &Warm,
    evaluator: Evaluator,
    ctx: &Ctx,
    name: &str,
    report: &mut Report,
) -> Vec<Vec<QueryHit>> {
    let other = match evaluator {
        Evaluator::Direct => Evaluator::Schema,
        Evaluator::Schema => Evaluator::Direct,
    };
    let mut expected = vec![Vec::new(); w.queries.len()];
    for &i in &w.order {
        expected[i] = run_query(&w.db, &w.queries[i], evaluator, OPTS).unwrap_or_else(|e| {
            report.check(false, || format!("query {i} failed: {e}"));
            Vec::new()
        });
    }
    // Both evaluators share one plan per query text, so the cross-check
    // leaves the plan cache as a pass of the measured evaluator would.
    for &i in &w.order {
        let cross = run_query(&w.db, &w.queries[i], other, OPTS).unwrap_or_default();
        report.check(answers_agree(&expected[i], &cross), || {
            format!(
                "direct and schema disagree on query {i}: {}",
                w.queries[i].text
            )
        });
    }
    let mut digest = Digest::default();
    for (i, hits) in expected.iter().enumerate() {
        feed_digest(&mut digest, i, hits);
    }
    digests::check(report, name, ctx, digest.value());
    expected
}

fn untraced(ctx: &Ctx, evaluator: Evaluator, name: &str) -> Result<Report, String> {
    let mut report = Report::default();
    let (w, setup_s) = median_setup(|| setup(ctx, evaluator))?;
    let expected = warm_up_and_check(&w, evaluator, ctx, name, &mut report);

    let mut latencies = Vec::new();
    let mut round_s = Vec::new();
    let start = Instant::now();
    while round_s.len() < 2 || (!ctx.smoke && start.elapsed().as_secs_f64() < ctx.seconds) {
        let ((), ms) =
            time_ms(|| round(&w, evaluator, OPTS, &expected, &mut latencies, &mut report));
        round_s.push(ms / 1e3);
    }
    report.set("op_p50_ms", percentile_of_medians(&latencies, 50.0));
    report.set("op_p90_ms", percentile_of_medians(&latencies, 90.0));
    report.set("ops_per_s", w.queries.len() as f64 / median(&round_s));
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("setup_s", setup_s);
    Ok(report)
}

fn traced(ctx: &Ctx, evaluator: Evaluator, name: &str) -> Result<Report, String> {
    let mut report = Report::default();
    let w = setup(ctx, evaluator)?;
    let expected = warm_up_and_check(&w, evaluator, ctx, name, &mut report);
    let rounds = if ctx.smoke { 2 } else { TRACED_ROUNDS };
    let parts = Parts::of(&w.db);
    let interner = w.db.tree().interner();

    // Reference pass through the entry point, then the same operations
    // stage by stage with spans; their p50s differ by the tracing overhead.
    let mut reference = Vec::new();
    for _ in 0..rounds {
        round(&w, evaluator, OPTS, &expected, &mut reference, &mut report);
    }
    let mut t = Tracer::default();
    let before = approxql_metrics::snapshot();
    let mut rows = 0u64;
    for _ in 0..rounds {
        for &i in &w.order {
            let op = t.enter("op");
            let got = staged_query(&mut t, &parts, Some(&w.db), &w.queries[i], evaluator);
            t.exit(op);
            report.attempted += 1;
            if got.as_ref().ok() != Some(&expected[i]) {
                report.failed += 1;
            }
            rows += expected[i].len() as u64;
        }
    }
    let diff = approxql_metrics::snapshot().diff(&before);
    let ops = (rounds * w.queries.len()) as u64;
    for (metric, value) in query_counts(&diff, ops) {
        report.set(metric, value);
    }
    report.set("pager.ops_in_timed_phase", pager_ops(&diff) as f64);
    report.set(
        "schema_eval.second_level_per_result",
        if rows == 0 {
            0.0
        } else {
            diff.get(Metric::EvalSecondLevelQueries) as f64 / rows as f64
        },
    );
    let staged = t.durations_ms("op");
    report.set("bench.op_p50_ms", median(&staged));
    report.set("bench.op_p95_ms", percentile(&staged, 95.0));
    let reference: Vec<f64> = reference.into_iter().map(|(_, ms)| ms).collect();
    report.set(
        "bench.trace_overhead_share",
        median(&staged) / median(&reference) - 1.0,
    );
    report.set("bench.layer_sum_share", t.layer_sum_share());
    report.set("bench.ops_traced", ops as f64);
    report.set("bench.result_rows", rows as f64);
    report.set("query.parse_us", t.mean_ms("query.parse") * 1e3);
    report.set("query.expand_us", t.mean_ms("query.expand") * 1e3);
    report.set("direct.exec_ms", t.mean_ms("direct.exec"));
    report.set("schema_eval.exec_ms", t.mean_ms("schema_eval.exec"));
    let direct_ns = t.self_times().get("direct.exec").copied().unwrap_or(0);
    if direct_ns > 0 {
        report.set(
            "list.entries_per_us",
            diff.get(Metric::ListEntriesProduced) as f64 / (direct_ns as f64 / 1e3),
        );
    }

    // Layer probes outside the operations: one call per query into a
    // single public function.
    let mut compile_us = Vec::new();
    let mut plan_ops = 0usize;
    let mut fetch_ns = 0u128;
    let mut postings = 0usize;
    let mut first_level_ms = Vec::new();
    let mut secondary_us = Vec::new();
    for q in &w.queries {
        let Ok((_, ex)) = w.db.compile(q.text.as_str()) else {
            continue;
        };
        let (compiled, ms) = time_ms(|| plan::compile(&ex));
        compile_us.push(ms * 1e3);
        let Ok(compiled) = compiled else { continue };
        plan_ops += compiled.ops().len();
        for (ty, label) in fetch_labels(&compiled) {
            if let Some(id) = interner.get(&label) {
                let start = Instant::now();
                let list = w.db.labels().fetch(ty, id);
                fetch_ns += start.elapsed().as_nanos();
                postings += std::hint::black_box(list).len();
            }
        }
        if evaluator == Evaluator::Schema {
            let k = (2 * q.n).max(8);
            let (run, ms) = time_ms(|| {
                schema_eval::best_k_second_level_plan(&compiled, w.db.schema(), interner, k, OPTS)
            });
            first_level_ms.push(ms);
            for entry in &run.queries {
                let skeleton = entry.skeleton();
                let (found, ms) =
                    time_ms(|| secondary::execute(&skeleton, w.db.schema().secondary()));
                std::hint::black_box(found);
                secondary_us.push(ms * 1e3);
            }
        }
    }
    report.set("plan.compile_us", median(&compile_us));
    report.set(
        "plan.ops_per_query",
        plan_ops as f64 / w.queries.len() as f64,
    );
    if fetch_ns > 0 {
        // postings per microsecond = million postings per second
        report.set(
            "index.decode_mpostings_per_s",
            postings as f64 / (fetch_ns as f64 / 1e3),
        );
    }
    report.set(
        "index.bytes_per_posting",
        w.db.labels().byte_len() as f64 / w.db.labels().entry_count().max(1) as f64,
    );
    report.set("schema_eval.first_level_ms", median(&first_level_ms));
    report.set("secondary.exec_us", median(&secondary_us));
    let (schema, ms) = time_ms(|| Schema::build(w.db.tree(), w.db.costs()));
    report.set("schema.build_ms", ms);
    report.set("schema.nodes", schema.stats().schema_nodes as f64);

    if evaluator == Evaluator::Direct {
        // The same round on one and on two pool threads (this box has two
        // cores; see README before reading anything into the ratio).
        let mut one = Vec::new();
        let mut two = Vec::new();
        let t2 = EvalOptions { threads: 2, ..OPTS };
        round(&w, evaluator, OPTS, &expected, &mut one, &mut report);
        round(&w, evaluator, t2, &expected, &mut two, &mut report);
        let total = |samples: &[(usize, f64)]| samples.iter().map(|&(_, ms)| ms).sum::<f64>();
        report.set("exec.direct_speedup_t2", total(&one) / total(&two));
    }
    ctx.write_trace(name, &t);
    Ok(report)
}

pub fn run(ctx: &Ctx, evaluator: Evaluator) -> Result<Report, String> {
    let name = match evaluator {
        Evaluator::Direct => "warm_direct",
        Evaluator::Schema => "warm_schema",
    };
    if ctx.trace {
        traced(ctx, evaluator, name)
    } else {
        untraced(ctx, evaluator, name)
    }
}
