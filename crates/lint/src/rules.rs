//! The rule catalogue: each project invariant from PRs 1–3, encoded as a
//! check over the lexed (and, for the dataflow rules, parsed) workspace.
//!
//! Every rule has a stable kebab-case id (used in `lint:allow(...)`
//! directives and baseline entries), a one-line summary, and a `run`
//! function. Rules are path-scoped: the scopes and the small number of
//! allowlisted files are part of the rule definition itself, so the
//! invariant reads off this file.
//!
//! Two generations of rules coexist. The PR 4 originals are token-window
//! pattern matches. The newer rules (untrusted-length, error-swallow,
//! commit-protocol, lock-across-spawn) are built on the [`crate::ast`] →
//! [`crate::cfg`] → [`crate::flow`] stack: they reason per function about
//! dominance ("a bound check precedes this allocation on every path") and
//! dataflow facts ("this name may carry a disk-decoded length", "this
//! lock guard may still be live").

use crate::ast::{CallSite, Expr, FnDef, Stmt};
use crate::cfg::{Action, Cfg};
use crate::flow::{self, Facts};
use crate::lexer::{Token, TokenKind};
use crate::{Finding, SourceFile, Workspace};

/// One registered rule.
pub struct Rule {
    /// Stable identifier (baseline entries and `lint:allow` use this).
    pub id: &'static str,
    /// One-line description for `--list-rules` and DESIGN.md §11.
    pub summary: &'static str,
    pub run: fn(&Workspace, &mut Vec<Finding>),
}

/// The full catalogue, in documentation order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "no-panic",
        summary: "no unwrap/expect/panic!/unreachable!/todo! in non-test code of \
                  crates/storage, crates/core, crates/cli, and crates/gen \
                  (typed error paths and documented exit codes only)",
        run: no_panic,
    },
    Rule {
        id: "forbid-unsafe",
        summary: "every crate root (lib.rs, main.rs, src/bin/*.rs) carries \
                  #![forbid(unsafe_code)]",
        run: forbid_unsafe,
    },
    Rule {
        id: "no-rc",
        summary: "no Rc in crates that run under the exec pool \
                  (core, exec, query, schema) — Arc only",
        run: no_rc,
    },
    Rule {
        id: "metric-coverage",
        summary: "every registered metric name is documented in DESIGN.md and pinned \
                  in tests/metrics_regression.rs, and vice versa (no phantom names)",
        run: metric_coverage,
    },
    Rule {
        id: "fs-outside-pager",
        summary: "no direct std::fs / File / backend writes outside \
                  crates/storage/src/pager.rs and fault.rs (and the lint tool itself)",
        run: fs_outside_pager,
    },
    Rule {
        id: "lock-across-spawn",
        summary: "no Mutex guard live across a Scope::map/map_deferred/spawn call \
                  (CFG guard-liveness: drops, rebinds and scope exits release)",
        run: lock_across_spawn,
    },
    Rule {
        id: "untrusted-length",
        summary: "allocations (with_capacity/reserve) sized by a value decoded from \
                  disk bytes must be dominated by a bound check (taint dataflow over \
                  the CFG in the decode crates)",
        run: untrusted_length,
    },
    Rule {
        id: "error-swallow",
        summary: "no `let _ = fallible(…)` or statement-level `.ok()` in non-test \
                  storage/core/index code without a lint:allow justification",
        run: error_swallow,
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
// no-panic
// ---------------------------------------------------------------------------

/// Crates whose non-test code must stay panic-free: the storage layer
/// promises typed [`StorageError`]s on every path (PR 3), `core` runs
/// inside the executor where a panic poisons the whole scope, and the
/// `cli`/`gen` binaries promise their documented exit codes — a panic
/// would bypass them (PR 8).
const PANIC_SCOPE: &[&str] = &[
    "crates/storage/src/",
    "crates/core/src/",
    "crates/cli/src/",
    "crates/gen/src/",
];

fn no_panic(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        if !in_any(&f.rel_path, PANIC_SCOPE) {
            continue;
        }
        let toks = &f.tokens;
        for i in 0..toks.len() {
            let Some(id) = toks[i].ident() else { continue };
            let line = toks[i].line;
            if f.is_test_line(line) {
                continue;
            }
            let hit = match id {
                // Method calls only: `.unwrap()` / `.expect(`, not
                // identifiers like `unwrap_or` (a distinct token).
                "unwrap" | "expect" => {
                    i > 0
                        && toks[i - 1].is_punct('.')
                        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                }
                "panic" | "unreachable" | "todo" | "unimplemented" => {
                    toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
                }
                _ => false,
            };
            if hit {
                let what = match id {
                    "unwrap" | "expect" => format!(".{id}()"),
                    _ => format!("{id}!"),
                };
                f.finding(
                    "no-panic",
                    line,
                    format!("`{what}` in non-test code; return a typed error instead"),
                    out,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// forbid-unsafe
// ---------------------------------------------------------------------------

/// `true` for files that are crate roots (where the attribute must live).
fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs"
        || rel == "src/main.rs"
        || rel.ends_with("/src/lib.rs")
        || rel.ends_with("/src/main.rs")
        || rel.contains("/src/bin/")
}

fn forbid_unsafe(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        if !is_crate_root(&f.rel_path) {
            continue;
        }
        let has = f.tokens.windows(3).any(|w| {
            w[0].ident() == Some("forbid")
                && w[1].is_punct('(')
                && w[2].ident() == Some("unsafe_code")
        });
        if !has && !f.is_allowed("forbid-unsafe", 1) {
            out.push(Finding {
                rule: "forbid-unsafe",
                path: f.rel_path.clone(),
                line: 1,
                message: "crate root is missing #![forbid(unsafe_code)]".to_string(),
                key: "missing #![forbid(unsafe_code)]".to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// no-rc
// ---------------------------------------------------------------------------

/// Crates whose values cross executor threads: `Rc` is not `Send`, so a
/// refactor that reintroduces it either fails to compile deep in a closure
/// or, worse, pushes someone to unsound workarounds. Catch it at the source.
const RC_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/exec/src/",
    "crates/query/src/",
    "crates/schema/src/",
];

fn no_rc(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        if !in_any(&f.rel_path, RC_SCOPE) {
            continue;
        }
        let mut last_line = 0u32;
        for t in &f.tokens {
            if t.ident() == Some("Rc") && !f.is_test_line(t.line) && t.line != last_line {
                last_line = t.line;
                f.finding(
                    "no-rc",
                    t.line,
                    "`Rc` in an exec-pool crate; use `Arc` (Rc is not Send)".to_string(),
                    out,
                );
            }
        }
    }
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
                key: format!("undocumented {}", m.name),
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
                key: format!("unpinned {}", m.name),
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
                key: format!("phantom {span}"),
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
                    key: format!("phantom {v}"),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// fs-outside-pager
// ---------------------------------------------------------------------------

/// Files that may talk to the filesystem / backend directly: the pager owns
/// all page I/O, the fault backend wraps it for crash injection, the lint
/// tool itself reads sources and rewrites its baseline, and the `axbench`
/// driver (a package of its own, frozen by BENCHMARK.json, so it cannot
/// carry inline `lint:allow`s) writes scratch stores, traces and reports.
const FS_ALLOWED: &[&str] = &[
    "crates/storage/src/pager.rs",
    "crates/storage/src/fault.rs",
    "crates/lint/src/",
    "axbench/",
];

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
        if in_any(&f.rel_path, FS_ALLOWED) {
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
        Action::Kill { .. } => None,
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
// lock-across-spawn (v2: guard liveness over the CFG)
// ---------------------------------------------------------------------------

/// Receivers whose `.map(...)` is an executor fan-out, not iterator `map`.
const SCOPE_RECEIVERS: &[&str] = &["scope", "sc"];

/// `true` for a call that fans work out to the executor.
fn is_spawnish(c: &CallSite) -> bool {
    c.is_method
        && match c.name.as_str() {
            "spawn" | "map_deferred" => true,
            "map" => c
                .receiver
                .as_deref()
                .is_some_and(|r| SCOPE_RECEIVERS.contains(&r)),
            _ => false,
        }
}

/// `true` for an initializer that takes a Mutex/RwLock guard.
fn takes_guard(e: &Expr) -> bool {
    e.calls.iter().any(|c| c.is_method && c.name == "lock")
}

/// The guard-liveness transfer: a bind whose initializer locks makes the
/// names live; any other bind/assign of the name releases it; `drop(g)`
/// releases it. Scope exits and `break`/`continue` edges are handled by
/// the solver's kill machinery.
fn guard_transfer(a: &Action, facts: &mut Facts) {
    match a {
        Action::Bind { names, init, .. } => {
            if init.as_ref().is_some_and(takes_guard) {
                facts.extend(names.iter().cloned());
            } else {
                for n in names {
                    facts.remove(n);
                }
            }
        }
        Action::Assign { target, value, .. } => {
            if let Some(t) = target {
                if takes_guard(value) {
                    facts.insert(t.clone());
                } else {
                    facts.remove(t);
                }
            }
        }
        Action::Eval { expr, .. } => {
            for c in &expr.calls {
                if c.name == "drop" && !c.is_method {
                    for arg in &c.args {
                        for n in &arg.idents {
                            facts.remove(n);
                        }
                    }
                }
            }
        }
        Action::Kill { .. } => {}
    }
}

fn lock_across_spawn(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        for def in live_fns(f) {
            let cfg = Cfg::build(def);
            let sol = flow::forward_may(&cfg, &Facts::new(), guard_transfer);
            // Bind lines per guard name, for the finding message.
            let mut bind_lines: Vec<(String, u32)> = Vec::new();
            for b in &cfg.blocks {
                for a in &b.actions {
                    if let Action::Bind {
                        names,
                        init: Some(init),
                        line,
                        ..
                    } = a
                    {
                        if takes_guard(init) {
                            bind_lines.extend(names.iter().map(|n| (n.clone(), *line)));
                        }
                    }
                }
            }
            for (bi, blk) in cfg.blocks.iter().enumerate() {
                for (ai, a) in blk.actions.iter().enumerate() {
                    let Some(expr) = action_expr(a) else { continue };
                    for c in expr.calls.iter().filter(|c| is_spawnish(c)) {
                        let live = flow::facts_before(&cfg, &sol, bi, ai, guard_transfer);
                        for name in &live {
                            let bound = bind_lines
                                .iter()
                                .filter(|(n, l)| n == name && *l <= c.line)
                                .map(|(_, l)| *l)
                                .max()
                                .or_else(|| {
                                    bind_lines.iter().find(|(n, _)| n == name).map(|(_, l)| *l)
                                });
                            let Some(bound) = bound else { continue };
                            f.finding(
                                "lock-across-spawn",
                                c.line,
                                format!(
                                    "`.{}(…)` while Mutex guard `{name}` (bound on line {bound}) \
                                     may still be held; drop the guard before fanning out",
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
            let sol = flow::forward_may(&cfg, &Facts::new(), taint_transfer);
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
// error-swallow
// ---------------------------------------------------------------------------

/// Crates where a silently dropped `Result` can hide data loss: the
/// storage engine, the core database layer, and the index codecs.
const SWALLOW_SCOPE: &[&str] = &[
    "crates/storage/src/",
    "crates/core/src/",
    "crates/index/src/",
];

/// Recursively visits every statement of a block.
fn visit_stmts<'a>(blk: &'a crate::ast::Block, f: &mut impl FnMut(&'a Stmt)) {
    for s in &blk.stmts {
        f(s);
        match s {
            Stmt::Let {
                else_block: Some(b),
                ..
            } => visit_stmts(b, f),
            Stmt::If {
                then_block,
                else_block,
                ..
            } => {
                visit_stmts(then_block, f);
                if let Some(b) = else_block {
                    visit_stmts(b, f);
                }
            }
            Stmt::While { body, .. } | Stmt::Loop { body, .. } | Stmt::For { body, .. } => {
                visit_stmts(body, f)
            }
            Stmt::Match { arms, .. } => {
                for a in arms {
                    visit_stmts(&a.body, f);
                }
            }
            Stmt::BlockStmt { block, .. } => visit_stmts(block, f),
            _ => {}
        }
    }
}

fn error_swallow(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        if !in_any(&f.rel_path, SWALLOW_SCOPE) {
            continue;
        }
        for def in live_fns(f) {
            visit_stmts(&def.body, &mut |s| match s {
                // `let _ = fallible();` — a `?` in the initializer handles
                // the error, so only try-free discards are swallows.
                Stmt::Let {
                    wildcard: true,
                    init: Some(init),
                    line,
                    ..
                } if !init.has_try && !f.is_test_line(*line) => {
                    f.finding(
                        "error-swallow",
                        *line,
                        "`let _ = …` discards a result with no `?`; handle the error \
                         or justify with lint:allow(error-swallow)"
                            .to_string(),
                        out,
                    );
                }
                // Statement-level `….ok();` — the Result is converted to
                // an Option and immediately dropped.
                Stmt::Expr { expr, line } if !f.is_test_line(*line) => {
                    let last_is_ok = expr
                        .calls
                        .last()
                        .is_some_and(|c| c.is_method && c.name == "ok" && c.args.is_empty());
                    if last_is_ok && !expr.has_try {
                        f.finding(
                            "error-swallow",
                            *line,
                            "statement-level `.ok()` swallows a Result; handle the error \
                             or justify with lint:allow(error-swallow)"
                                .to_string(),
                            out,
                        );
                    }
                }
                _ => {}
            });
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
    use std::path::PathBuf;

    fn ws_with(files: Vec<(&str, &str)>, design: Option<&str>) -> Workspace {
        Workspace {
            root: PathBuf::new(),
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
    fn no_panic_flags_methods_and_macros_in_scope_only() {
        let ws = ws_with(
            vec![
                (
                    "crates/storage/src/pager.rs",
                    "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"n\"); unreachable!(); \
                     z.unwrap_or(0); }\n#[cfg(test)]\nmod t { fn g() { q.unwrap(); } }\n",
                ),
                ("crates/cli/src/main.rs", "fn main() { x.unwrap(); }"),
                ("crates/xml/src/lib.rs", "fn p() { x.unwrap(); }"),
            ],
            None,
        );
        let f = run_one(&ws, "no-panic");
        assert_eq!(f.len(), 5, "{f:?}");
        assert_eq!(
            f.iter()
                .filter(|x| x.path == "crates/storage/src/pager.rs")
                .count(),
            4
        );
        // cli is in scope since the scope expansion; xml is not.
        assert!(f.iter().any(|x| x.path == "crates/cli/src/main.rs"));
        assert!(f.iter().all(|x| x.path != "crates/xml/src/lib.rs"));
    }

    #[test]
    fn forbid_unsafe_checks_crate_roots_only() {
        let ws = ws_with(
            vec![
                ("crates/a/src/lib.rs", "#![forbid(unsafe_code)]\nfn a() {}"),
                ("crates/b/src/lib.rs", "fn b() {}"),
                ("crates/b/src/util.rs", "fn helper() {}"),
                ("crates/c/src/bin/tool.rs", "fn main() {}"),
            ],
            None,
        );
        let f = run_one(&ws, "forbid-unsafe");
        let paths: Vec<&str> = f.iter().map(|x| x.path.as_str()).collect();
        assert_eq!(paths, ["crates/b/src/lib.rs", "crates/c/src/bin/tool.rs"]);
    }

    #[test]
    fn no_rc_is_scoped_and_once_per_line() {
        let ws = ws_with(
            vec![
                (
                    "crates/core/src/topk.rs",
                    "use std::rc::Rc;\nfn f(x: Rc<u8>) -> Rc<u8> { x }\n",
                ),
                ("crates/storage/src/fault.rs", "use std::rc::Rc;\n"),
            ],
            None,
        );
        let f = run_one(&ws, "no-rc");
        assert_eq!(f.len(), 2, "{f:?}"); // line 1 and line 2, storage exempt
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
        let keys: Vec<&str> = f.iter().map(|x| x.key.as_str()).collect();
        assert!(keys.contains(&"undocumented pager.ghost"), "{keys:?}");
        assert!(keys.contains(&"unpinned pager.ghost"), "{keys:?}");
        assert!(keys.contains(&"phantom pager.vanished"), "{keys:?}");
        assert!(keys.contains(&"phantom Phantom"), "{keys:?}");
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
        let keys: Vec<&str> = f.iter().map(|x| x.key.as_str()).collect();
        assert_eq!(keys, ["unpinned pager.reads", "phantom A0a"], "{f:?}");
    }

    #[test]
    fn fs_rule_allows_pager_and_test_code() {
        let ws = ws_with(
            vec![
                (
                    "crates/cli/src/commands.rs",
                    "fn w() { std::fs::write(p, b)?; std::fs::read_to_string(p)?; }\n\
                     #[cfg(test)]\nmod t { fn x() { std::fs::write(p, b).unwrap(); } }\n",
                ),
                (
                    "crates/storage/src/pager.rs",
                    "fn w() { std::fs::write(p, b)?; }",
                ),
            ],
            None,
        );
        let f = run_one(&ws, "fs-outside-pager");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].path, "crates/cli/src/commands.rs");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn lock_across_spawn_window_and_drop() {
        let bad = "fn f(scope: &S) {\n\
                   let guard = m.lock().unwrap();\n\
                   scope.map(items, work);\n\
                   }\n";
        let ok_drop = "fn f(scope: &S) {\n\
                       let guard = m.lock().unwrap();\n\
                       drop(guard);\n\
                       scope.map(items, work);\n\
                       }\n";
        let ok_iter = "fn f() {\n\
                       let guard = m.lock().unwrap();\n\
                       let v: Vec<_> = items.iter().map(|x| x + 1).collect();\n\
                       }\n";
        let ws = ws_with(
            vec![
                ("crates/core/src/a.rs", bad),
                ("crates/core/src/b.rs", ok_drop),
                ("crates/core/src/c.rs", ok_iter),
            ],
            None,
        );
        let f = run_one(&ws, "lock-across-spawn");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].path, "crates/core/src/a.rs");
        assert_eq!(f[0].line, 3);
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
    fn error_swallow_wildcard_and_trailing_ok() {
        let bad = "fn f(file: &mut B) {\n\
                   let _ = file.flush();\n\
                   file.advise().ok();\n\
                   }\n";
        let ok = "fn f(file: &mut B) -> Result<(), E> {\n\
                  let _ = file.flush()?;\n\
                  Ok(())\n\
                  }\n\
                  fn g(file: &mut B) -> Option<u8> {\n\
                  let v = file.read().ok();\n\
                  v\n\
                  }\n";
        let ws = ws_with(
            vec![
                ("crates/storage/src/io.rs", bad),
                ("crates/storage/src/fine.rs", ok),
                // Out of the storage/core/index scope entirely.
                ("crates/query/src/q.rs", bad),
            ],
            None,
        );
        let f = run_one(&ws, "error-swallow");
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.path == "crates/storage/src/io.rs"));
        assert!(f.iter().any(|x| x.line == 2));
        assert!(f.iter().any(|x| x.line == 3));
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
