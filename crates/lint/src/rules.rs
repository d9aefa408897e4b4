//! The rule catalogue: the project invariants no toolchain lint can
//! express, each encoded as a check over the lexed (and, for the dataflow
//! rules, parsed) workspace.
//!
//! Every rule has a stable kebab-case id (used in `lint:allow(...)`
//! directives), a one-line summary, and a `run` function. Rules are
//! path-scoped: the scopes are part of the rule definition itself, so the
//! invariant reads off this file.
//!
//! `metric-coverage` and `fs-outside-pager` are token-window pattern
//! matches. `untrusted-length` and `commit-protocol` are built on the
//! [`crate::ast`] → [`crate::cfg`] → [`crate::flow`] stack: they reason per
//! function about dominance ("a bound check precedes this allocation on
//! every path") and dataflow facts ("this name may carry a disk-decoded
//! length"). Invariants that rustc or clippy check with type information
//! (no `unsafe`, no panics, no swallowed `Result`s, `Send` across the pool)
//! are switched on in the manifests and crate roots instead — DESIGN.md §11.

use crate::ast::{Expr, FnDef};
use crate::cfg::{Action, Cfg};
use crate::flow::{self, Facts};
use crate::lexer::{Token, TokenKind};
use crate::{Finding, SourceFile, Workspace};

/// One registered rule.
pub struct Rule {
    /// Stable identifier (`lint:allow` directives use this).
    pub id: &'static str,
    /// One-line description for `--list-rules` and DESIGN.md §11.
    pub summary: &'static str,
    pub run: fn(&Workspace, &mut Vec<Finding>),
}

/// The full catalogue, in documentation order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "metric-coverage",
        summary: "every registered metric name is documented in DESIGN.md and pinned \
                  in tests/metrics_regression.rs, and vice versa (no phantom names)",
        run: metric_coverage,
    },
    Rule {
        id: "fs-outside-pager",
        summary: "no direct std::fs / File / backend writes in the crates that hold \
                  store state (storage, index, tree, schema, core) outside \
                  crates/storage/src/pager.rs and fault.rs",
        run: fs_outside_pager,
    },
    Rule {
        id: "untrusted-length",
        summary: "allocations (with_capacity/reserve) sized by a value decoded from \
                  disk bytes must be dominated by a bound check (taint dataflow over \
                  the CFG in the decode crates)",
        run: untrusted_length,
    },
    Rule {
        id: "commit-protocol",
        summary: "in pager.rs/dbfile.rs/store.rs, every header-slot write_direct is \
                  dominated by a flush and followed by a sync on all success paths \
                  (statically re-proves the PR 3 commit ordering)",
        run: commit_protocol,
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

fn in_any(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

// ---------------------------------------------------------------------------
// metric-coverage
// ---------------------------------------------------------------------------

const METRICS_LIB: &str = "crates/metrics/src/lib.rs";
const METRICS_REGRESSION: &str = "tests/metrics_regression.rs";

/// A metric registered in the `metrics!` / `timer_metrics!` tables.
struct RegisteredMetric {
    variant: String,
    name: String,
    line: u32,
}

/// `true` when `s` looks like a `layer.counter` metric name.
fn is_dotted_name(s: &str) -> bool {
    let mut parts = s.split('.');
    let (Some(a), Some(b), None) = (parts.next(), parts.next(), parts.next()) else {
        return false;
    };
    let seg = |p: &str| {
        !p.is_empty()
            && p.chars().next().is_some_and(|c| c.is_ascii_lowercase())
            && p.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    seg(a) && seg(b)
}

/// Extracts `Variant => (… "layer.name" …)` rows from the registry source.
/// The macro *definition* also matches the `Ident => (` shape (via the
/// `:ident` fragment specifiers) but contains no string literal, so the
/// dotted-name requirement filters it out.
fn registered_metrics(reg: &SourceFile) -> Vec<RegisteredMetric> {
    let toks = &reg.tokens;
    let mut found = Vec::new();
    let mut i = 0usize;
    while i + 3 < toks.len() {
        let arm = toks[i]
            .ident()
            .filter(|v| v.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
            .filter(|_| {
                toks[i + 1].is_punct('=') && toks[i + 2].is_punct('>') && toks[i + 3].is_punct('(')
            });
        let Some(variant) = arm else {
            i += 1;
            continue;
        };
        if reg.is_test_line(toks[i].line) {
            i += 1;
            continue;
        }
        // First string literal inside the parenthesized group.
        let mut depth = 1usize;
        let mut j = i + 4;
        let mut name: Option<(String, u32)> = None;
        while j < toks.len() && depth > 0 {
            match &toks[j].kind {
                TokenKind::Punct('(') => depth += 1,
                TokenKind::Punct(')') => depth -= 1,
                TokenKind::Str(s) if name.is_none() && is_dotted_name(s) => {
                    name = Some((s.clone(), toks[j].line));
                }
                _ => {}
            }
            j += 1;
        }
        if let Some((name, line)) = name {
            found.push(RegisteredMetric {
                variant: variant.to_string(),
                name,
                line,
            });
        }
        i = j;
    }
    found
}

/// All `Metric::X` / `TimerMetric::X` variant references in a file.
fn metric_paths(f: &SourceFile) -> Vec<(String, u32)> {
    f.tokens
        .windows(4)
        .filter_map(|w| {
            let root = w[0].ident()?;
            if (root != "Metric" && root != "TimerMetric")
                || !w[1].is_punct(':')
                || !w[2].is_punct(':')
            {
                return None;
            }
            let v = w[3].ident()?;
            // Skip associated consts/functions (ALL, name, …): variants are
            // CamelCase — uppercase start with at least one lowercase char.
            if v.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                && v.chars().any(|c| c.is_ascii_lowercase())
            {
                Some((v.to_string(), w[3].line))
            } else {
                None
            }
        })
        .collect()
}

/// Backtick-quoted code spans per line of a markdown document.
fn backticked_spans(text: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        for (c, chunk) in line.split('`').enumerate() {
            if c % 2 == 1 && !chunk.is_empty() {
                out.push((chunk.to_string(), idx as u32 + 1));
            }
        }
    }
    out
}

fn metric_coverage(ws: &Workspace, out: &mut Vec<Finding>) {
    let Some(reg) = ws.file(METRICS_LIB) else {
        return; // not a workspace with a metrics registry (e.g. fixtures)
    };
    let registered = registered_metrics(reg);
    if registered.is_empty() {
        return;
    }
    let names: Vec<&str> = registered.iter().map(|m| m.name.as_str()).collect();
    let prefixes: Vec<&str> = {
        let mut p: Vec<&str> = names.iter().filter_map(|n| n.split('.').next()).collect();
        p.sort_unstable();
        p.dedup();
        p
    };

    let design = ws.design_md.as_deref().unwrap_or("");
    let pinned = ws.file(METRICS_REGRESSION);
    let pinned_variants: Vec<(String, u32)> = pinned.map(metric_paths).unwrap_or_default();

    // Registry -> docs/tests: every registered metric must be documented
    // and pinned.
    for m in &registered {
        if !design.contains(&format!("`{}`", m.name)) && !reg.is_allowed("metric-coverage", m.line)
        {
            out.push(Finding {
                rule: "metric-coverage",
                path: reg.rel_path.clone(),
                line: m.line,
                message: format!("metric `{}` is not documented in DESIGN.md", m.name),
            });
        }
        let is_pinned = pinned_variants.iter().any(|(v, _)| v == &m.variant);
        if !is_pinned && !reg.is_allowed("metric-coverage", m.line) {
            out.push(Finding {
                rule: "metric-coverage",
                path: reg.rel_path.clone(),
                line: m.line,
                message: format!(
                    "metric `{}` ({}) is not pinned in {METRICS_REGRESSION}",
                    m.name, m.variant
                ),
            });
        }
    }

    // Docs -> registry: a documented name that is not registered is a
    // phantom counter (stale docs or a typo'd rename).
    const NON_METRIC_SUFFIXES: &[&str] = &[
        "rs", "md", "toml", "json", "tsv", "yml", "yaml", "lock", "xml", "axql", "log", "txt",
    ];
    for (span, line) in backticked_spans(design) {
        if !is_dotted_name(&span) {
            continue;
        }
        let (Some(prefix), Some(suffix)) = (span.split('.').next(), span.split('.').nth(1)) else {
            continue;
        };
        if !prefixes.contains(&prefix) || NON_METRIC_SUFFIXES.contains(&suffix) {
            continue;
        }
        if !names.contains(&span.as_str()) {
            out.push(Finding {
                rule: "metric-coverage",
                path: "DESIGN.md".to_string(),
                line,
                message: format!("`{span}` is documented but not registered in crates/metrics"),
            });
        }
    }

    // Tests -> registry: a pinned variant that does not exist is a phantom.
    let variants: Vec<&str> = registered.iter().map(|m| m.variant.as_str()).collect();
    if let Some(p) = pinned {
        for (v, line) in &pinned_variants {
            if !variants.contains(&v.as_str()) && !p.is_allowed("metric-coverage", *line) {
                out.push(Finding {
                    rule: "metric-coverage",
                    path: p.rel_path.clone(),
                    line: *line,
                    message: format!("`{v}` is pinned but not registered in crates/metrics"),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// fs-outside-pager
// ---------------------------------------------------------------------------

/// Crates that hold store state (pages, postings, tree segments, schema,
/// the database file). Everything else — the CLI, generators, bench
/// harnesses — writes reports and corpora, which is not this rule's
/// business.
const STORE_SCOPE: &[&str] = &[
    "crates/storage/src/",
    "crates/index/src/",
    "crates/tree/src/",
    "crates/schema/src/",
    "crates/core/src/",
];

/// The two files inside the scope that may talk to the filesystem /
/// backend directly: the pager owns all page I/O, the fault backend wraps
/// it for crash injection.
const FS_EXEMPT: &[&str] = &["crates/storage/src/pager.rs", "crates/storage/src/fault.rs"];

/// `std::fs` functions that mutate the filesystem.
const FS_WRITE_FNS: &[&str] = &[
    "write",
    "create_dir",
    "create_dir_all",
    "remove_file",
    "remove_dir",
    "remove_dir_all",
    "rename",
    "copy",
    "hard_link",
    "set_permissions",
];

fn fs_outside_pager(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        if !in_any(&f.rel_path, STORE_SCOPE) || FS_EXEMPT.contains(&f.rel_path.as_str()) {
            continue;
        }
        let toks = &f.tokens;
        for i in 0..toks.len() {
            let Some(id) = toks[i].ident() else { continue };
            let line = toks[i].line;
            if f.is_test_line(line) {
                continue;
            }
            let path_call = |module: &str, fns: &[&str]| {
                id == module
                    && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && toks
                        .get(i + 3)
                        .and_then(Token::ident)
                        .is_some_and(|m| fns.contains(&m))
            };
            let hit = if path_call("fs", FS_WRITE_FNS) {
                Some(format!("fs::{}", toks[i + 3].ident().unwrap_or_default()))
            } else if path_call("File", &["create", "create_new", "options"]) {
                Some(format!("File::{}", toks[i + 3].ident().unwrap_or_default()))
            } else if id == "OpenOptions" {
                Some("OpenOptions".to_string())
            } else if matches!(id, "set_len" | "sync_all" | "sync_data" | "write_page")
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            {
                Some(format!(".{id}()"))
            } else {
                None
            };
            if let Some(what) = hit {
                f.finding(
                    "fs-outside-pager",
                    line,
                    format!("direct filesystem/backend write `{what}`; all page I/O goes through the pager"),
                    out,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// shared dataflow plumbing
// ---------------------------------------------------------------------------

/// Iterates a file's functions whose bodies are live (non-test) code.
fn live_fns(f: &SourceFile) -> impl Iterator<Item = &FnDef> {
    f.fns.iter().filter(move |d| !f.is_test_line(d.line))
}

/// The expression evaluated by an action, if any.
fn action_expr(a: &Action) -> Option<&Expr> {
    match a {
        Action::Bind { init, .. } => init.as_ref(),
        Action::Assign { value, .. } => Some(value),
        Action::Eval { expr, .. } => Some(expr),
    }
}

/// `true` when any action or the branch expression of block `b` satisfies
/// `pred`.
fn block_mentions(cfg: &Cfg, b: usize, pred: impl Fn(&Expr) -> bool) -> bool {
    cfg.blocks[b]
        .actions
        .iter()
        .filter_map(action_expr)
        .chain(cfg.blocks[b].branch.as_ref())
        .any(pred)
}

// ---------------------------------------------------------------------------
// untrusted-length
// ---------------------------------------------------------------------------

/// Crates that decode attacker-controllable on-disk bytes. A server
/// (ROADMAP tentpole) hands these decoders bytes from any client, so a
/// length field must never size an allocation before a bound check.
const DECODE_SCOPE: &[&str] = &[
    "crates/index/src/",
    "crates/tree/src/",
    "crates/storage/src/",
];

/// Integer widths whose `from_le_bytes`/`from_be_bytes` yield an
/// untrusted length. `u8`/`u16` are excluded: 255/65535 caps are harmless
/// capacities by themselves.
const WIDE_INT_QUALIFIERS: &[&str] = &["u32", "u64", "usize", "i32", "i64"];

/// Calls that read a wide integer straight out of a byte cursor.
const DECODE_CALLS: &[&str] = &["read_varint", "read_u32", "read_u64", "u32", "u64"];

/// Struct fields that carry decoded entry counts in the codec layer.
const COUNT_FIELDS: &[&str] = &["entries", "count"];

/// Allocation sinks whose first argument is an element count.
const ALLOC_SINKS: &[&str] = &["with_capacity", "reserve", "reserve_exact"];

/// Guard-shaped calls: a dominating branch that passes the length through
/// one of these has bounded it (`data.get(..n)`, `cur.claim(n, sz)`,
/// `n.checked_mul(sz)`, …).
fn is_guardish_call(name: &str) -> bool {
    matches!(
        name,
        "get" | "min" | "claim" | "validate" | "ensure" | "check"
    ) || name.starts_with("checked_")
}

/// `true` for an expression that *originates* an untrusted length.
fn is_length_source(e: &Expr) -> bool {
    e.calls.iter().any(|c| match c.name.as_str() {
        "from_le_bytes" | "from_be_bytes" => c
            .qualifier
            .as_deref()
            .is_some_and(|q| WIDE_INT_QUALIFIERS.contains(&q)),
        n => DECODE_CALLS.contains(&n) && c.is_method || n == "read_varint",
    }) || e.fields.iter().any(|f| COUNT_FIELDS.contains(&f.as_str()))
}

/// `true` when the expression clamps its value (`.min(cap)`, `.clamp(…)`)
/// — a bound check folded into the expression itself.
fn is_clamped(e: &Expr) -> bool {
    e.calls
        .iter()
        .any(|c| c.is_method && matches!(c.name.as_str(), "min" | "clamp"))
}

/// The taint transfer: a bind/assign from a source (or from an already
/// tainted name) taints the target; a clamped initializer, or any other
/// initializer, untaints it (strong update — names are block-scoped and
/// the analysis is per-function).
fn taint_transfer(a: &Action, facts: &mut Facts) {
    let tainted = |e: &Expr, facts: &Facts| {
        !is_clamped(e) && (is_length_source(e) || e.idents.iter().any(|i| facts.contains(i)))
    };
    match a {
        Action::Bind {
            names,
            init: Some(init),
            ..
        } => {
            if tainted(init, facts) {
                facts.extend(names.iter().cloned());
            } else {
                for n in names {
                    facts.remove(n);
                }
            }
        }
        Action::Bind {
            names, init: None, ..
        } => {
            for n in names {
                facts.remove(n);
            }
        }
        Action::Assign {
            target: Some(t),
            compound,
            value,
            ..
        } => {
            if tainted(value, facts) {
                facts.insert(t.clone());
            } else if !compound {
                facts.remove(t);
            }
        }
        _ => {}
    }
}

/// `true` when branch expression `e` bounds witness `w`: it mentions the
/// witness and either compares it or passes it through a guard-shaped
/// call.
fn branch_guards(e: &Expr, w: &str) -> bool {
    (e.reads(w) || e.fields.iter().any(|f| f == w))
        && (e.has_cmp || e.calls.iter().any(|c| is_guardish_call(&c.name)))
}

fn untrusted_length(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        if !in_any(&f.rel_path, DECODE_SCOPE) {
            continue;
        }
        for def in live_fns(f) {
            let cfg = Cfg::build(def);
            let sol = flow::forward_may(&cfg, taint_transfer);
            let dom = cfg.dominators();
            for (bi, blk) in cfg.blocks.iter().enumerate() {
                for (ai, a) in blk.actions.iter().enumerate() {
                    let Some(expr) = action_expr(a) else { continue };
                    for c in expr
                        .calls
                        .iter()
                        .filter(|c| ALLOC_SINKS.contains(&c.name.as_str()))
                    {
                        let Some(arg) = c.args.first() else { continue };
                        if is_clamped(arg) {
                            continue;
                        }
                        let live = flow::facts_before(&cfg, &sol, bi, ai, taint_transfer);
                        // Witnesses: tainted names the size argument reads,
                        // plus count-fields it projects directly.
                        let mut witnesses: Vec<&str> = arg
                            .idents
                            .iter()
                            .filter(|i| live.contains(i.as_str()))
                            .map(String::as_str)
                            .collect();
                        witnesses.extend(
                            arg.fields
                                .iter()
                                .filter(|fl| COUNT_FIELDS.contains(&fl.as_str()))
                                .map(String::as_str),
                        );
                        let direct_source = witnesses.is_empty() && is_length_source(arg);
                        if witnesses.is_empty() && !direct_source {
                            continue;
                        }
                        // A strictly dominating branch that bounds every
                        // witness sanitizes the sink. A direct source has
                        // no name to guard on — it must be bound first.
                        let guarded = !direct_source
                            && witnesses.iter().all(|w| {
                                dom[bi].iter().filter(|&d| d != bi).any(|d| {
                                    cfg.blocks[d]
                                        .branch
                                        .as_ref()
                                        .is_some_and(|e| branch_guards(e, w))
                                })
                            });
                        if guarded {
                            continue;
                        }
                        let what = if direct_source {
                            "a freshly decoded integer".to_string()
                        } else {
                            format!("untrusted decoded value `{}`", witnesses.join("`/`"))
                        };
                        f.finding(
                            "untrusted-length",
                            c.line,
                            format!(
                                "`{}` sized by {what} with no dominating bound check; \
                                 validate against the input length first",
                                c.name
                            ),
                            out,
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// commit-protocol
// ---------------------------------------------------------------------------

/// Files that implement the commit path. The PR 3 invariant: a header
/// slot may only be written after every dirty page reached the backend
/// (`flush`, which itself syncs), and the write must be made durable
/// (`sync`) before the commit is reported — header-before-flush was the
/// original torn-commit bug.
fn commit_protocol_scope(rel: &str) -> bool {
    rel.ends_with("/pager.rs") || rel.ends_with("/dbfile.rs") || rel.ends_with("/store.rs")
}

fn commit_protocol(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        if !commit_protocol_scope(&f.rel_path) {
            continue;
        }
        for def in live_fns(f) {
            let cfg = Cfg::build(def);
            let mut dom = None;
            let mut pdom = None;
            for (bi, blk) in cfg.blocks.iter().enumerate() {
                for (ai, a) in blk.actions.iter().enumerate() {
                    let Some(expr) = action_expr(a) else { continue };
                    for c in expr
                        .calls
                        .iter()
                        .filter(|c| c.is_method && c.name == "write_direct")
                    {
                        let calls_flush = |e: &Expr| e.calls_named("flush");
                        let calls_sync = |e: &Expr| {
                            e.calls.iter().any(|c| {
                                matches!(c.name.as_str(), "sync" | "sync_all" | "sync_data")
                            })
                        };
                        // Flush must precede the write: earlier in this
                        // block, or in any strictly dominating block.
                        let dom = dom.get_or_insert_with(|| cfg.dominators());
                        let flushed = blk.actions[..ai]
                            .iter()
                            .filter_map(action_expr)
                            .any(calls_flush)
                            || dom[bi]
                                .iter()
                                .filter(|&d| d != bi)
                                .any(|d| block_mentions(&cfg, d, calls_flush));
                        if !flushed {
                            f.finding(
                                "commit-protocol",
                                c.line,
                                "header-slot `write_direct` not dominated by a flush of \
                                 dirty pages (PR 3 commit ordering)"
                                    .to_string(),
                                out,
                            );
                        }
                        // Sync must follow on every success path: later in
                        // this block (its branch expression included), or
                        // in every-success-path postdominators.
                        let pdom = pdom.get_or_insert_with(|| cfg.success_postdominators());
                        let synced = blk.actions[ai + 1..]
                            .iter()
                            .filter_map(action_expr)
                            .chain(blk.branch.as_ref())
                            .any(calls_sync)
                            || pdom[bi]
                                .iter()
                                .filter(|&p| p != bi)
                                .any(|p| block_mentions(&cfg, p, calls_sync));
                        if !synced {
                            f.finding(
                                "commit-protocol",
                                c.line,
                                "header-slot `write_direct` not followed by a sync on every \
                                 success path (torn-commit window)"
                                    .to_string(),
                                out,
                            );
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workspace;

    fn ws_with(files: Vec<(&str, &str)>, design: Option<&str>) -> Workspace {
        Workspace {
            files: files
                .into_iter()
                .map(|(p, s)| SourceFile::parse(p.to_string(), s))
                .collect(),
            design_md: design.map(str::to_string),
        }
    }

    fn run_one(ws: &Workspace, id: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        (rule(id).unwrap().run)(ws, &mut out);
        out
    }

    #[test]
    fn metric_coverage_cross_checks_all_three_surfaces() {
        let reg = r#"
metrics! {
    GoodReads => (Pager, "pager.good_reads", "doc"),
    Ghost => (Pager, "pager.ghost", "doc"),
}
timer_metrics! {
    Commit => ("store.commit_t", "doc"),
}
"#;
        let pinned = "fn t() { use_it(Metric::GoodReads); check(Metric::Phantom); \
                      tm(TimerMetric::Commit); }";
        let design = "counters: `pager.good_reads` and `store.commit_t`; \
                      stale: `pager.vanished`.";
        let ws = ws_with(
            vec![
                ("crates/metrics/src/lib.rs", reg),
                ("tests/metrics_regression.rs", pinned),
            ],
            Some(design),
        );
        let f = run_one(&ws, "metric-coverage");
        let has = |what: &str| f.iter().any(|x| x.message.contains(what));
        assert!(has("`pager.ghost` is not documented"), "{f:?}");
        assert!(has("`pager.ghost` (Ghost) is not pinned"), "{f:?}");
        assert!(
            has("`pager.vanished` is documented but not registered"),
            "{f:?}"
        );
        assert!(has("`Phantom` is pinned but not registered"), "{f:?}");
        assert_eq!(f.len(), 4, "{f:?}");
    }

    #[test]
    fn metric_coverage_ignores_file_names_in_docs() {
        let reg = "metrics! { A => (Pager, \"pager.reads\", \"d\") }";
        let pinned = "fn t() { p(Metric::A0a); }"; // A0a ≠ A but CamelCase-ish
        let design = "see `pager.rs` and `pager.reads`; also `list.rs`.";
        let ws = ws_with(
            vec![
                ("crates/metrics/src/lib.rs", reg),
                ("tests/metrics_regression.rs", pinned),
            ],
            Some(design),
        );
        let f = run_one(&ws, "metric-coverage");
        // pager.rs / list.rs are file names, not phantom metrics; A is
        // unpinned, A0a is phantom.
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(
            f[0].message.contains("`pager.reads` (A) is not pinned"),
            "{f:?}"
        );
        assert!(
            f[1].message.contains("`A0a` is pinned but not registered"),
            "{f:?}"
        );
    }

    #[test]
    fn fs_rule_covers_store_crates_only_and_exempts_pager_and_tests() {
        let write = "fn w() { std::fs::write(p, b)?; std::fs::read_to_string(p)?; }\n";
        let with_test = format!(
            "{write}#[cfg(test)]\nmod t {{ fn x() {{ std::fs::write(p, b).unwrap(); }} }}\n"
        );
        let ws = ws_with(
            vec![
                ("crates/core/src/dbfile.rs", with_test.as_str()),
                ("crates/storage/src/pager.rs", write),
                // Reports and corpora, not store state: out of scope.
                ("crates/cli/src/commands.rs", write),
                ("axbench/src/main.rs", write),
            ],
            None,
        );
        let f = run_one(&ws, "fs-outside-pager");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].path, "crates/core/src/dbfile.rs");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn untrusted_length_taint_guard_and_clamp() {
        let bad = "fn f(cur: &mut C) -> Result<V, E> {\n\
                   let n = cur.read_varint()? as usize;\n\
                   let mut out = Vec::with_capacity(n);\n\
                   Ok(out)\n\
                   }\n";
        let guarded = "fn f(cur: &mut C) -> Result<V, E> {\n\
                       let n = cur.read_varint()? as usize;\n\
                       cur.claim(n, 4)?;\n\
                       let mut out = Vec::with_capacity(n);\n\
                       Ok(out)\n\
                       }\n";
        let cmp_guarded = "fn f(data: &[u8], v: &mut Vec<u32>, limit: usize) {\n\
                           let n = u32::from_le_bytes(h(data)) as usize;\n\
                           if n > limit { return; }\n\
                           v.reserve(n);\n\
                           }\n";
        let clamped = "fn f(data: &[u8], v: &mut Vec<u32>) {\n\
                       let n = u32::from_le_bytes(h(data)) as usize;\n\
                       v.reserve(n.min(64));\n\
                       }\n";
        let direct = "fn f(cur: &mut C, v: &mut Vec<u32>) {\n\
                      v.reserve_exact(cur.read_u32() as usize);\n\
                      }\n";
        let ws = ws_with(
            vec![
                ("crates/index/src/a.rs", bad),
                ("crates/index/src/b.rs", guarded),
                ("crates/index/src/c.rs", cmp_guarded),
                ("crates/index/src/d.rs", clamped),
                ("crates/index/src/e.rs", direct),
                // Same decode shape outside the codec crates: not in scope.
                ("crates/query/src/q.rs", bad),
            ],
            None,
        );
        let f = run_one(&ws, "untrusted-length");
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f
            .iter()
            .any(|x| x.path == "crates/index/src/a.rs" && x.line == 3));
        assert!(f
            .iter()
            .any(|x| x.path == "crates/index/src/e.rs" && x.line == 2));
    }

    #[test]
    fn untrusted_length_guard_must_dominate() {
        // The bound check sits on one branch only, so it does NOT
        // dominate the allocation — the line-blind window heuristics this
        // pass replaces would have accepted it.
        let sneaky = "fn f(cur: &mut C, flag: bool) -> Result<V, E> {\n\
                      let n = cur.read_varint()? as usize;\n\
                      if flag { cur.claim(n, 4)?; }\n\
                      let mut out = Vec::with_capacity(n);\n\
                      Ok(out)\n\
                      }\n";
        let ws = ws_with(vec![("crates/index/src/a.rs", sneaky)], None);
        let f = run_one(&ws, "untrusted-length");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn commit_protocol_reproves_the_pr3_ordering() {
        let header_first = "fn commit(&mut self) -> Result<(), E> {\n\
                            self.write_direct(SLOT, buf)?;\n\
                            self.flush()?;\n\
                            self.backend.sync_all()?;\n\
                            Ok(())\n\
                            }\n";
        let no_sync = "fn commit(&mut self) -> Result<(), E> {\n\
                       self.flush()?;\n\
                       self.write_direct(SLOT, buf)?;\n\
                       Ok(())\n\
                       }\n";
        let good = "fn commit(&mut self) -> Result<(), E> {\n\
                    self.flush()?;\n\
                    self.write_direct(SLOT, buf)?;\n\
                    self.backend.sync_all()?;\n\
                    Ok(())\n\
                    }\n";
        let ws = ws_with(
            vec![
                ("crates/storage/src/pager.rs", header_first),
                ("crates/storage/src/dbfile.rs", no_sync),
                ("crates/storage/src/store.rs", good),
                // The rule keys on commit-layer filenames only.
                ("crates/core/src/other.rs", header_first),
            ],
            None,
        );
        let f = run_one(&ws, "commit-protocol");
        assert_eq!(f.len(), 2, "{f:?}");
        let flush = f
            .iter()
            .find(|x| x.path == "crates/storage/src/pager.rs")
            .expect("pager finding");
        assert_eq!(flush.line, 2);
        assert!(flush.message.contains("not dominated by a flush"));
        let sync = f
            .iter()
            .find(|x| x.path == "crates/storage/src/dbfile.rs")
            .expect("dbfile finding");
        assert_eq!(sync.line, 3);
        assert!(sync.message.contains("not followed by a sync"));
    }
}
