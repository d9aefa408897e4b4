//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is [`manifest_json`] verbatim (`axbench manifest`
//! prints it; `tests/smoke.rs` fails when the two drift apart).

use std::fmt::Write as _;

/// Seconds one untraced run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// The directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["axbench"];

/// The program and arguments the driver appends `--workload …` to.
pub const COMMAND: [&str; 2] = ["bash", "axbench/run.sh"];

/// One workload: its name and the one-line reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cli_cold_query",
        why: "Process spawns of `approxql query` on a 1/100-scale store: open/decode dominates, evaluators do ~nothing; store-backed queries must show here, an algebra change must not.",
    },
    Workload {
        name: "warm_direct",
        why: "24 queries round-robin on a resident 1/10-scale database fit the 32-entry plan cache: posting decode + list joins dominate; compile, top-k and storage do nothing.",
    },
    Workload {
        name: "warm_schema",
        why: "64 schema-driven queries exceed the LRU plan cache (all misses): parse, expand, compile, top-k, k-escalation and second-level queries run on every op; the list algebra does nothing.",
    },
    Workload {
        name: "store_mutate",
        why: "Insert/delete stream with reads on a real store file: the write side (index append, schema delta, COW pages, dual-slot commit, fsync) of the layers cli_cold_query only reads.",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload with `--trace 0`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

// Every workload reports every end-to-end metric (the contract of
// `BENCHMARK.json`), so these are the five that mean something on all
// four; the operation is the workload's own. Latencies of single
// operation kinds, the byte ratios and p95 are per-layer metrics (README).
// The timing bounds are 25 %: on this shared two-core box ten runs of one
// workload spread by up to 13 % between their quartiles (README), and a
// bound has to sit well clear of that to mean anything.
pub const END_TO_END: [EndToEnd; 5] = [
    // The median operation: a cold `approxql query` process, a warm direct
    // or schema query (median over the distinct queries of each query's
    // own median), a durable path-reusing insert.
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    // Operations ÷ wall of the timed phase; on the round-based workloads
    // (query rounds, mutation cycles with their reads) the median round.
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    // The slow tenth, computed like `op_p50_ms`.
    EndToEnd {
        name: "op_p90_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    // VmHWM of the driver process, which holds the database in memory.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
    },
    // Generate + build (+ save): median of three set-ups in one run.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: reported by every workload with `--trace 1`
/// (0 where the layer does no work on that workload).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Counts and byte ratios that must repeat exactly for one seed;
    /// `axbench compare` requires them to be identical.
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Lower,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Higher,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Lower,
        exact: true,
    }
}

/// Page-level counts of a store. Not exact at the seed commit: the label
/// and secondary indexes are written in `HashMap` iteration order, which
/// differs from process to process, so the B+-tree's shape (splits, pages
/// read and written, leaked pages, file size) moves by a few pages in
/// tens of thousands between identical runs.
const fn pages(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Lower,
        exact: false,
    }
}

const fn share(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ratio",
        better: Higher,
        exact: true,
    }
}

pub const PER_LAYER: [PerLayer; 71] = [
    // cli
    time("cli.spawn_floor_ms", "ms"),
    time("cli.query_p90_ms", "ms"),
    time("cli.insert_p50_ms", "ms"),
    // core::database
    time("core.open_ms", "ms"),
    time("core.open_rss_mb", "MB"),
    time("core.check_ms", "ms"),
    // storage, read side
    time("storage.open_ms", "ms"),
    time("storage.scan_ms", "ms"),
    rate("storage.scan_mb_per_s", "MB/s"),
    time("storage.get_us", "us"),
    pages("pager.page_reads_per_open", "count"),
    pages("pager.cache_miss_share", "ratio"),
    pages("btree.node_reads_per_get", "count"),
    pages("storage.pages_per_key", "ratio"),
    pages("storage.store_bytes_per_input_byte", "ratio"),
    // storage, write side
    time("storage.commit_ms", "ms"),
    pages("pager.pages_written_per_commit", "count"),
    count("pager.flushes_per_commit", "count"),
    count("btree.puts_per_mutation", "count"),
    pages("btree.node_splits", "count"),
    pages("storage.leaked_pages", "count"),
    pages("storage.bytes_written_per_input_byte", "ratio"),
    // tree, xml
    time("tree.decode_ms", "ms"),
    time("tree.build_ms", "ms"),
    rate("xml.parse_mb_per_s", "MB/s"),
    // index
    time("index.label_load_ms", "ms"),
    time("index.secondary_load_ms", "ms"),
    rate("index.decode_mpostings_per_s", "M/s"),
    count("index.bytes_per_posting", "B"),
    count("postings.blocks_decoded_per_query", "count"),
    share("postings.blocks_skipped_share"),
    count("postings.bytes_per_query", "B"),
    // schema
    time("schema.build_ms", "ms"),
    time("schema.assemble_ms", "ms"),
    count("schema.nodes", "count"),
    count("schema.structural_rebuilds", "count"),
    // query, plan
    time("query.parse_us", "us"),
    time("query.expand_us", "us"),
    time("plan.compile_us", "us"),
    count("plan.ops_per_query", "count"),
    count("plan.cse_reuses_per_query", "count"),
    share("plan.cache_hit_share"),
    count("plan.cache_invalidations_per_mutation", "count"),
    // core::list + direct
    time("direct.exec_ms", "ms"),
    count("list.ops_per_query", "count"),
    count("list.entries_per_query", "count"),
    rate("list.entries_per_us", "1/us"),
    // core::topk + schema_eval + secondary
    time("schema_eval.exec_ms", "ms"),
    time("schema_eval.first_level_ms", "ms"),
    time("secondary.exec_us", "us"),
    count("topk.ops_per_query", "count"),
    count("topk.entries_per_query", "count"),
    count("schema_eval.rounds_per_query", "count"),
    count("schema_eval.second_level_per_result", "ratio"),
    // core::dbfile
    time("dbfile.insert_p50_ms", "ms"),
    time("dbfile.insert_novel_p50_ms", "ms"),
    time("dbfile.delete_p50_ms", "ms"),
    time("core.insert_resident_ms", "ms"),
    time("dbfile.persist_ms", "ms"),
    time("core.read_after_write_p50_us", "us"),
    // exec
    rate("exec.direct_speedup_t2", "ratio"),
    // the benchmark itself
    count("pager.ops_in_timed_phase", "count"),
    time("bench.op_p50_ms", "ms"),
    time("bench.op_p95_ms", "ms"),
    time("bench.trace_overhead_share", "ratio"),
    rate("bench.layer_sum_share", "ratio"),
    time("bench.open_stage_sum_share", "ratio"),
    count("bench.ops_traced", "count"),
    count("bench.result_rows", "count"),
    count("bench.input_bytes", "B"),
    pages("bench.store_bytes", "B"),
];

/// `BENCHMARK.json`, exactly as committed at the repository root.
pub fn manifest_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [{}],", quoted(&COMMAND));
    let _ = writeln!(out, "  \"paths\": [{}],", quoted(&PATHS));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}
