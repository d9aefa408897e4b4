//! Operation metrics for every evaluation layer.
//!
//! The paper's experimental section (Figure 7) argues in terms of *work
//! done* — index fetches, second-level queries executed, list entries
//! produced — not just wall-clock time. This crate gives every layer a
//! named counter in one registry so that direct vs. schema-driven
//! comparisons (and perf-regression tests) can pin exact, deterministic,
//! hardware-independent operation counts.
//!
//! Design:
//!
//! * **Thread-local registry.** Counters live in a per-thread
//!   [`MetricsRegistry`] (plain `Cell<u64>` bumps, no atomics), so the
//!   hot paths pay an indexed add and parallel test threads never bleed
//!   counts into each other — which is what keeps exact-count regression
//!   tests deterministic under `cargo test`.
//! * **Snapshot / diff / reset.** Instrumented code only ever *adds*.
//!   Consumers take a [`MetricsSnapshot`] before a region, another after,
//!   and [`MetricsSnapshot::diff`] the two; nothing needs to be zeroed to
//!   measure, so nested measurements compose.
//! * **Renderable.** Snapshots print as a human table
//!   ([`MetricsSnapshot::render_table`]), JSON
//!   ([`MetricsSnapshot::to_json`]), and TSV
//!   ([`MetricsSnapshot::to_tsv_row`]) for machine consumption by the
//!   bench harness.
//!
//! The counter set is the closed enum [`Metric`]: adding a counter is a
//! one-line enum addition, and the registry is a fixed array — no
//! hashing, no allocation, no locks on the hot path.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The layer a [`Metric`] belongs to (used to group rendered tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Page cache over the storage backend.
    Pager,
    /// Store-level commit/recovery events.
    Store,
    /// B+-tree structure operations.
    Btree,
    /// Label / secondary index lookups and decoding.
    Index,
    /// The Section 6.4 list algebra (direct evaluation).
    List,
    /// The Section 7 best-k list algebra (schema evaluation).
    Topk,
    /// Physical-plan compilation and the keyed plan cache.
    Plan,
    /// Compressed posting lists decoded at query time.
    Postings,
    /// Whole-evaluator events.
    Eval,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Pager => "pager",
            Layer::Store => "store",
            Layer::Btree => "btree",
            Layer::Index => "index",
            Layer::List => "list",
            Layer::Topk => "topk",
            Layer::Plan => "plan",
            Layer::Postings => "postings",
            Layer::Eval => "eval",
        }
    }
}

macro_rules! metrics {
    ($($variant:ident => ($layer:ident, $name:literal, $doc:literal)),+ $(,)?) => {
        /// Every counter the system records, one variant per named counter.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Metric {
            $(#[doc = $doc] $variant),+
        }

        impl Metric {
            /// All counters, in rendering order.
            pub const ALL: &'static [Metric] = &[$(Metric::$variant),+];

            /// The machine-readable counter name (`layer.counter`).
            pub fn name(self) -> &'static str {
                match self {
                    $(Metric::$variant => $name),+
                }
            }

            /// The layer this counter instruments.
            pub fn layer(self) -> Layer {
                match self {
                    $(Metric::$variant => Layer::$layer),+
                }
            }
        }
    };
}

metrics! {
    // -- pager ------------------------------------------------------------
    PagerPageReads => (Pager, "pager.page_reads", "Pages requested from the pager (cache hits included)."),
    PagerCacheMisses => (Pager, "pager.cache_misses", "Page requests that had to hit the backend."),
    PagerPageWrites => (Pager, "pager.page_writes", "Pages written through the pager (dirtied in cache)."),
    PagerPageAllocs => (Pager, "pager.page_allocs", "Fresh pages allocated."),
    PagerBackendWrites => (Pager, "pager.backend_writes", "Dirty pages pushed to the backend by flushes."),
    PagerFlushes => (Pager, "pager.flushes", "Write-back flushes (commit points)."),
    PagerEvictions => (Pager, "pager.evictions", "Clean pages evicted by the clock sweep."),
    PagerChecksumFailures => (Pager, "pager.checksum_failures", "Backend page reads whose trailer checksum failed to validate."),
    // -- store (commit/recovery) ------------------------------------------
    StoreCommits => (Store, "store.commits", "Successful dual-slot commits."),
    StoreRecoveryRollbacks => (Store, "store.recovery_rollbacks", "Opens that fell back to the previous commit's header slot."),
    StoreDocInserts => (Store, "store.doc_inserts", "Documents inserted into a mutable database file (one commit each)."),
    StoreDocDeletes => (Store, "store.doc_deletes", "Documents tombstoned in a mutable database file (one commit each)."),
    // -- b+-tree ----------------------------------------------------------
    BtreeGets => (Btree, "btree.gets", "Point lookups."),
    BtreeInserts => (Btree, "btree.inserts", "Key insertions (including overwrites)."),
    BtreeDeletes => (Btree, "btree.deletes", "Key deletions."),
    BtreeNodeReads => (Btree, "btree.node_reads", "Tree nodes deserialized from pages."),
    BtreeNodeSplits => (Btree, "btree.node_splits", "Node splits (leaf and internal)."),
    BtreeScanSteps => (Btree, "btree.scan_steps", "Entries stepped over by range/prefix cursors."),
    // -- label / secondary index ------------------------------------------
    IndexLabelFetches => (Index, "index.label_fetches", "Posting-list lookups in the label index."),
    IndexPostingsFetched => (Index, "index.postings_fetched", "Postings returned by those lookups."),
    IndexSecondaryFetches => (Index, "index.secondary_fetches", "Secondary-index lookups: one per distinct sub-skeleton a query's second-level queries evaluate."),
    IndexSecondaryRows => (Index, "index.secondary_rows", "Instance postings those lookups return."),
    IndexBytesDecoded => (Index, "index.bytes_decoded", "Bytes run through the posting codecs (decode side)."),
    // -- list algebra (Section 6.4) ---------------------------------------
    ListFetchOps => (List, "list.fetch_ops", "fetch: posting-list materializations."),
    ListShiftOps => (List, "list.shift_ops", "shift: cost-translation passes."),
    ListMergeOps => (List, "list.merge_ops", "merge: cost-channel merges."),
    ListJoinOps => (List, "list.join_ops", "join: structural joins."),
    ListOuterjoinOps => (List, "list.outerjoin_ops", "outerjoin: optional-child joins."),
    ListIntersectOps => (List, "list.intersect_ops", "intersect: and-combinations."),
    ListUnionOps => (List, "list.union_ops", "union: or-combinations."),
    ListSortOps => (List, "list.sort_ops", "sort: best-n selections."),
    ListEntriesProduced => (List, "list.entries_produced", "Entries in the output lists of all list ops."),
    // -- best-k list algebra (Section 7) ----------------------------------
    TopkOps => (Topk, "topk.ops", "Best-k list operations (fetch/shift/merge/join/…)."),
    TopkEntriesProduced => (Topk, "topk.entries_produced", "Candidates the best-k ops produced: fetch seeds, drawn candidates and drawn second-level queries."),
    // -- physical plans ---------------------------------------------------
    PlanCompile => (Plan, "plan.compile", "Physical-plan compilations from expanded queries."),
    PlanCacheHits => (Plan, "plan.cache_hits", "Plan-cache lookups answered without compiling."),
    PlanCacheMisses => (Plan, "plan.cache_misses", "Plan-cache lookups that had to compile."),
    PlanCseReuses => (Plan, "plan.cse_reuses", "Subplans shared by common-subexpression elimination during compiles."),
    PlanCacheInvalidations => (Plan, "plan.cache_invalidations", "Always 0: a cached plan depends only on the query text and the cost model, so no mutation evicts one; registered because the benchmark driver reads it."),
    // -- compressed postings ----------------------------------------------
    PostingsBlocksDecoded => (Postings, "postings.blocks_decoded", "Stored posting lists decoded by `fetch`, one per fetched list."),
    PostingsBlocksSkipped => (Postings, "postings.blocks_skipped", "Always 0: nothing skips part of a posting list; registered because the benchmark driver reads it."),
    PostingsBytes => (Postings, "postings.bytes", "Delta/varint run bytes of the posting lists `fetch` decodes."),
    // -- evaluators -------------------------------------------------------
    EvalDirectRuns => (Eval, "eval.direct_runs", "Direct (algorithm `primary`) evaluations."),
    EvalDirectFetches => (Eval, "eval.direct_fetches", "Label-index lookups of the direct evaluator (a label the collection lacks makes none)."),
    EvalSchemaRuns => (Eval, "eval.schema_runs", "Schema-plan executions: one per schema-driven query that runs its plan, one per best-k run."),
    EvalSchemaRounds => (Eval, "eval.schema_rounds", "Always 0: the schema driver no longer draws in batches; registered because the benchmark driver reads it."),
    EvalSecondLevelQueries => (Eval, "eval.second_level_queries", "Second-level queries executed (Section 7.4)."),
    EvalSecondaryRows => (Eval, "eval.secondary_rows", "Instances returned by the executed second-level queries."),
}

const METRIC_COUNT: usize = Metric::ALL.len();

macro_rules! timer_metrics {
    ($($variant:ident => ($name:literal, $doc:literal)),+ $(,)?) => {
        /// Every timed operation (histogram-style timers).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum TimerMetric {
            $(#[doc = $doc] $variant),+
        }

        impl TimerMetric {
            pub const ALL: &'static [TimerMetric] = &[$(TimerMetric::$variant),+];

            pub fn name(self) -> &'static str {
                match self {
                    $(TimerMetric::$variant => $name),+
                }
            }
        }
    };
}

timer_metrics! {
    EvalDirect => ("eval.direct", "One direct evaluation, end to end."),
    EvalSchema => ("eval.schema", "One schema-driven evaluation, end to end."),
    SecondLevel => ("eval.second_level", "One second-level query's execution."),
    StoreCommit => ("storage.commit", "One store commit (flush + header write)."),
    IndexBuild => ("index.build", "One label-index build."),
}

const TIMER_COUNT: usize = TimerMetric::ALL.len();

/// Histogram bucket upper bounds in nanoseconds (the last bucket is
/// unbounded): 1µs, 10µs, 100µs, 1ms, 10ms, 100ms, 1s.
pub const TIMER_BUCKET_BOUNDS_NS: [u64; 7] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// Number of histogram buckets per timer.
pub const TIMER_BUCKETS: usize = TIMER_BUCKET_BOUNDS_NS.len() + 1;

/// Accumulated state of one timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimerSnapshot {
    /// Completed timings.
    pub count: u64,
    /// Sum of all durations, nanoseconds.
    pub total_ns: u64,
    /// Longest single duration seen, nanoseconds. In a
    /// [`MetricsSnapshot::diff`] this is the *end* snapshot's max (maxima
    /// cannot be subtracted).
    pub max_ns: u64,
    /// Log-scale duration histogram (bounds in
    /// [`TIMER_BUCKET_BOUNDS_NS`]).
    pub buckets: [u64; TIMER_BUCKETS],
}

impl TimerSnapshot {
    /// Mean duration in nanoseconds (0 when nothing was recorded).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        let bucket = TIMER_BUCKET_BOUNDS_NS
            .iter()
            .position(|&bound| ns < bound)
            .unwrap_or(TIMER_BUCKETS - 1);
        self.buckets[bucket] += 1;
    }
}

/// The per-thread counter/timer registry. Instrumented code records via
/// [`Metric::incr`] / [`Metric::add`] / [`time`]; consumers read it
/// through [`snapshot`] / [`reset`].
pub struct MetricsRegistry {
    counters: [Cell<u64>; METRIC_COUNT],
    timers: RefCell<[TimerSnapshot; TIMER_COUNT]>,
}

thread_local! {
    static REGISTRY: MetricsRegistry = MetricsRegistry {
        counters: [const { Cell::new(0) }; METRIC_COUNT],
        timers: RefCell::new([TimerSnapshot::default(); TIMER_COUNT]),
    };
}

impl MetricsRegistry {
    /// Runs `f` with this thread's registry.
    pub fn with<R>(f: impl FnOnce(&MetricsRegistry) -> R) -> R {
        REGISTRY.with(f)
    }

    /// Adds `n` to a counter.
    pub fn add(&self, metric: Metric, n: u64) {
        let cell = &self.counters[metric as usize];
        cell.set(cell.get().wrapping_add(n));
    }

    /// Records one completed timing.
    pub fn record_timing(&self, metric: TimerMetric, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.timers.borrow_mut()[metric as usize].record(ns);
    }

    /// Copies the current state out.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: std::array::from_fn(|i| self.counters[i].get()),
            timers: *self.timers.borrow(),
        }
    }

    /// Zeroes every counter and timer on this thread.
    pub fn reset(&self) {
        for cell in &self.counters {
            cell.set(0);
        }
        *self.timers.borrow_mut() = [TimerSnapshot::default(); TIMER_COUNT];
    }
}

impl Metric {
    /// Adds 1 to this counter on the current thread.
    #[inline]
    pub fn incr(self) {
        self.add(1);
    }

    /// Adds `n` to this counter on the current thread.
    #[inline]
    pub fn add(self, n: u64) {
        MetricsRegistry::with(|r| r.add(self, n));
    }

    /// This counter's value on the current thread.
    #[inline]
    pub fn value(self) -> u64 {
        MetricsRegistry::with(|r| r.counters[self as usize].get())
    }
}

/// Snapshot of the current thread's registry.
pub fn snapshot() -> MetricsSnapshot {
    MetricsRegistry::with(MetricsRegistry::snapshot)
}

/// Zeroes the current thread's registry.
pub fn reset() {
    MetricsRegistry::with(MetricsRegistry::reset);
}

/// Starts a timer; the elapsed time is recorded when the guard drops.
#[must_use = "the timer records on drop; binding it to _ stops it immediately"]
pub fn time(metric: TimerMetric) -> OpTimer {
    OpTimer {
        metric,
        start: Instant::now(),
    }
}

/// Guard returned by [`time`]; records its lifetime's duration on drop.
pub struct OpTimer {
    metric: TimerMetric,
    start: Instant,
}

impl Drop for OpTimer {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        MetricsRegistry::with(|r| r.record_timing(self.metric, elapsed));
    }
}

/// An immutable copy of the registry at one point in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: [u64; METRIC_COUNT],
    timers: [TimerSnapshot; TIMER_COUNT],
}

impl Default for MetricsSnapshot {
    /// The all-zero snapshot.
    fn default() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: [0; METRIC_COUNT],
            timers: [TimerSnapshot::default(); TIMER_COUNT],
        }
    }
}

impl MetricsSnapshot {
    /// The value of one counter.
    pub fn get(&self, metric: Metric) -> u64 {
        self.counters[metric as usize]
    }

    /// The state of one timer.
    pub fn timer(&self, metric: TimerMetric) -> TimerSnapshot {
        self.timers[metric as usize]
    }

    /// All counters with their values, in rendering order.
    pub fn counters(&self) -> impl Iterator<Item = (Metric, u64)> + '_ {
        Metric::ALL.iter().map(|&m| (m, self.get(m)))
    }

    /// The work done since `earlier`: counter-wise (and timer-count-wise)
    /// saturating subtraction. Timer `max_ns` keeps this snapshot's value.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: std::array::from_fn(|i| self.counters[i].saturating_sub(earlier.counters[i])),
            timers: std::array::from_fn(|i| {
                let (a, b) = (self.timers[i], earlier.timers[i]);
                TimerSnapshot {
                    count: a.count.saturating_sub(b.count),
                    total_ns: a.total_ns.saturating_sub(b.total_ns),
                    max_ns: a.max_ns,
                    buckets: std::array::from_fn(|j| a.buckets[j].saturating_sub(b.buckets[j])),
                }
            }),
        }
    }

    /// True when no counter and no timer recorded anything.
    pub fn is_zero(&self) -> bool {
        self.counters.iter().all(|&c| c == 0) && self.timers.iter().all(|t| t.count == 0)
    }

    /// True when every counter is ≥ its value in `earlier` (registries
    /// only ever add, so later snapshots of the same thread dominate
    /// earlier ones).
    pub fn dominates(&self, earlier: &MetricsSnapshot) -> bool {
        self.counters
            .iter()
            .zip(earlier.counters.iter())
            .all(|(a, b)| a >= b)
            && self
                .timers
                .iter()
                .zip(earlier.timers.iter())
                .all(|(a, b)| a.count >= b.count)
    }

    /// Human-readable table, grouped by layer; zero counters are omitted.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let width = Metric::ALL
            .iter()
            .map(|m| m.name().len())
            .max()
            .unwrap_or(0);
        let mut last_layer: Option<Layer> = None;
        let mut any = false;
        for (metric, value) in self.counters() {
            if value == 0 {
                continue;
            }
            any = true;
            if last_layer != Some(metric.layer()) {
                if last_layer.is_some() {
                    out.push('\n');
                }
                let _ = writeln!(out, "[{}]", metric.layer().name());
                last_layer = Some(metric.layer());
            }
            let _ = writeln!(out, "  {:<width$}  {value:>12}", metric.name());
        }
        let timed: Vec<_> = TimerMetric::ALL
            .iter()
            .map(|&t| (t, self.timer(t)))
            .filter(|(_, s)| s.count > 0)
            .collect();
        if !timed.is_empty() {
            if any {
                out.push('\n');
            }
            any = true;
            out.push_str("[timers]\n");
            for (t, s) in timed {
                let _ = writeln!(
                    out,
                    "  {:<width$}  count={} mean={} max={} total={}",
                    t.name(),
                    s.count,
                    fmt_ns(s.mean_ns()),
                    fmt_ns(s.max_ns),
                    fmt_ns(s.total_ns),
                );
            }
        }
        if !any {
            out.push_str("(no operations recorded)\n");
        }
        out
    }

    /// Machine-readable JSON (full counter and timer set, zeros included).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (metric, value)) in self.counters().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", metric.name(), value);
        }
        out.push_str("},\"timers\":{");
        for (i, &t) in TimerMetric::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = self.timer(t);
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"total_ns\":{},\"max_ns\":{},\"buckets\":[",
                t.name(),
                s.count,
                s.total_ns,
                s.max_ns
            );
            for (j, b) in s.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Tab-separated counter names, matching [`MetricsSnapshot::to_tsv_row`].
    pub fn tsv_header() -> String {
        Metric::ALL
            .iter()
            .map(|m| m.name())
            .collect::<Vec<_>>()
            .join("\t")
    }

    /// Tab-separated counter values (full set, zeros included).
    pub fn to_tsv_row(&self) -> String {
        self.counters
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("\t")
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests in this module run on distinct threads (or sequentially on
    /// one), so baseline-diffing keeps them independent either way.
    fn baseline() -> MetricsSnapshot {
        snapshot()
    }

    #[test]
    fn counters_accumulate_and_diff() {
        let before = baseline();
        Metric::PagerPageReads.incr();
        Metric::PagerPageReads.add(4);
        Metric::ListJoinOps.incr();
        let d = snapshot().diff(&before);
        assert_eq!(d.get(Metric::PagerPageReads), 5);
        assert_eq!(d.get(Metric::ListJoinOps), 1);
        assert_eq!(d.get(Metric::BtreeGets), 0);
    }

    #[test]
    fn diff_of_equal_snapshots_is_zero() {
        Metric::EvalDirectRuns.incr();
        let a = snapshot();
        let b = snapshot();
        assert!(b.diff(&a).is_zero());
        assert_eq!(a.diff(&a), MetricsSnapshot::default());
    }

    #[test]
    fn later_snapshots_dominate_earlier_ones() {
        let a = baseline();
        Metric::IndexLabelFetches.add(3);
        let b = snapshot();
        Metric::TopkOps.incr();
        let c = snapshot();
        assert!(b.dominates(&a));
        assert!(c.dominates(&b));
        assert!(c.dominates(&a));
        assert!(!a.dominates(&c));
    }

    #[test]
    fn timers_record_counts_and_buckets() {
        let before = baseline();
        {
            let _t = time(TimerMetric::EvalDirect);
            std::thread::sleep(Duration::from_micros(50));
        }
        {
            let _t = time(TimerMetric::EvalDirect);
        }
        let d = snapshot().diff(&before);
        let t = d.timer(TimerMetric::EvalDirect);
        assert_eq!(t.count, 2);
        assert!(t.total_ns >= 50_000, "total {}", t.total_ns);
        assert!(t.max_ns >= 50_000);
        assert!(t.mean_ns() >= 25_000);
        assert_eq!(t.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn reset_zeroes_everything() {
        Metric::BtreeNodeSplits.add(7);
        {
            let _t = time(TimerMetric::StoreCommit);
        }
        reset();
        assert!(snapshot().is_zero());
    }

    #[test]
    fn renderings_cover_nonzero_counters() {
        let before = baseline();
        Metric::ListMergeOps.add(2);
        Metric::EvalSchemaRounds.add(9);
        let d = snapshot().diff(&before);
        let table = d.render_table();
        assert!(table.contains("list.merge_ops"), "table:\n{table}");
        assert!(table.contains("eval.schema_rounds"));
        assert!(table.contains("[list]"));
        assert!(!table.contains("pager.page_reads"), "zeros must be omitted");
        let json = d.to_json();
        assert!(json.contains("\"list.merge_ops\":2"));
        assert!(json.contains("\"pager.page_reads\":0"), "json keeps zeros");
        let header = MetricsSnapshot::tsv_header();
        let row = d.to_tsv_row();
        assert_eq!(
            header.split('\t').count(),
            row.split('\t').count(),
            "header/row column mismatch"
        );
    }

    #[test]
    fn counter_names_are_unique_and_layered() {
        let mut names: Vec<_> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metric::ALL.len(), "duplicate counter names");
        for m in Metric::ALL {
            assert!(
                m.name().starts_with(m.layer().name()),
                "{} should be prefixed by its layer {}",
                m.name(),
                m.layer().name()
            );
        }
    }
}
