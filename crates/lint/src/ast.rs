//! A lightweight Rust item & statement parser over the token stream of
//! [`crate::lexer`] — the structural layer the dataflow rules need.
//!
//! The dataflow rules (untrusted-length, commit-protocol) reason about
//! *paths* through a function, which needs real structure: which statements
//! exist, what they bind, where control branches. This module recovers
//! exactly that much structure and no more:
//!
//! * every `fn` item (at any nesting: modules, impls, traits, nested fns)
//!   becomes a [`FnDef`] with a parsed [`Block`] body;
//! * statements are classified (`let` / `let…else` / `if` / `while` /
//!   `loop` / `for` / `match` / `return` / `break` / `continue` /
//!   assignments / expression statements);
//! * expressions are *summarized*, not fully parsed: an [`Expr`] records
//!   the identifiers it reads, the fields it projects, every call site
//!   (with recursively summarized arguments), whether it contains a
//!   comparison operator and whether it contains `?`. That is sufficient
//!   for taint propagation and guard detection, and it keeps the parser
//!   robust: any token soup inside an expression is swallowed by
//!   depth-matching rather than rejected.
//!
//! The parser is forgiving by design — it lints half-edited files. On a
//! construct it cannot make sense of, it abandons the current function
//! (the rules simply do not see it) instead of erroring or panicking.

use crate::lexer::{Token, TokenKind};

/// One parsed function item.
#[derive(Debug)]
pub struct FnDef {
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Parameter binding names (`self` included when present).
    pub params: Vec<String>,
    pub body: Block,
}

/// A `{ … }` statement list.
#[derive(Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

/// One match arm.
#[derive(Debug)]
pub struct Arm {
    /// Names bound by the arm's pattern.
    pub bindings: Vec<String>,
    pub guard: Option<Expr>,
    pub body: Block,
}

/// A statement, with just enough structure for CFG construction.
#[derive(Debug)]
pub enum Stmt {
    /// `let [mut] pat (= init)? (else { … })? ;`
    Let {
        bindings: Vec<String>,
        init: Option<Expr>,
        else_block: Option<Block>,
        line: u32,
    },
    /// `target = value;` or `target op= value;` — `target` is `Some` only
    /// for a plain identifier target (fields/derefs cannot be tracked).
    Assign {
        target: Option<String>,
        compound: bool,
        value: Expr,
        line: u32,
    },
    /// An expression statement (with or without a trailing `;`).
    Expr {
        expr: Expr,
        line: u32,
    },
    /// `if cond { … } (else …)?` — `bindings` are `if let` pattern names,
    /// bound only inside the then-branch.
    If {
        cond: Expr,
        bindings: Vec<String>,
        then_block: Block,
        else_block: Option<Block>,
        line: u32,
    },
    /// `while cond { … }` (including `while let`).
    While {
        cond: Expr,
        bindings: Vec<String>,
        body: Block,
        line: u32,
    },
    Loop {
        body: Block,
        line: u32,
    },
    For {
        bindings: Vec<String>,
        iter: Expr,
        body: Block,
        line: u32,
    },
    Match {
        scrutinee: Expr,
        arms: Vec<Arm>,
        line: u32,
    },
    Return {
        value: Option<Expr>,
        line: u32,
    },
    Break {
        line: u32,
    },
    Continue {
        line: u32,
    },
    /// A bare (or `unsafe`) block statement.
    BlockStmt {
        block: Block,
        line: u32,
    },
}

/// A summarized call site inside an expression.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name (`with_capacity`, `flush`, …).
    pub name: String,
    /// The path segment immediately before `::name`, if any
    /// (`Vec` for `Vec::with_capacity`, `u32` for `u32::from_le_bytes`).
    pub qualifier: Option<String>,
    /// `true` for `.name(…)` method calls.
    pub is_method: bool,
    /// Summaries of the top-level comma-separated arguments.
    pub args: Vec<Expr>,
    pub line: u32,
}

/// A summarized expression: what it reads, what it calls, how it can
/// branch. The token range is kept for snippet extraction.
#[derive(Debug, Clone, Default)]
pub struct Expr {
    pub line: u32,
    /// Root identifiers read (deduplicated, source order).
    pub idents: Vec<String>,
    /// Field names projected anywhere in the expression (`x.count` → `count`).
    pub fields: Vec<String>,
    pub calls: Vec<CallSite>,
    /// Contains a comparison operator (`<ʹ>`-family outside turbofish,
    /// `==`, `!=`).
    pub has_cmp: bool,
    /// Contains the `?` operator.
    pub has_try: bool,
}

impl Expr {
    /// `true` when the expression reads `name` as a root identifier.
    pub fn reads(&self, name: &str) -> bool {
        self.idents.iter().any(|i| i == name)
    }

    /// `true` when any call (at any nesting) is named `name`.
    pub fn calls_named(&self, name: &str) -> bool {
        self.calls.iter().any(|c| c.name == name)
    }
}

/// Words that never count as value reads.
const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "super", "trait", "true", "type", "unsafe", "use", "where",
    "while", "async", "await", "box", "self", "Self", "union",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Summarizes the token range `[a, b)` as an [`Expr`].
pub fn summarize_expr(toks: &[Token], a: usize, b: usize) -> Expr {
    let mut e = Expr {
        line: toks.get(a).map_or(0, |t| t.line),
        ..Expr::default()
    };
    let mut turbofish = 0usize;
    let mut i = a;
    while i < b.min(toks.len()) {
        let t = &toks[i];
        match &t.kind {
            TokenKind::Ident(id) => {
                // A single `.` is field/method access; `..` is a range, so
                // an ident after the second range dot is a plain read.
                let after_dot =
                    i > a && toks[i - 1].is_punct('.') && !(i > a + 1 && toks[i - 2].is_punct('.'));
                let after_path =
                    i >= a + 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');
                // `name(` is a call; so is the turbofish form
                // `name::<T>(…)` (e.g. `sum::<usize>()`).
                let open = if toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                    Some(i + 1)
                } else if toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|n| n.is_punct('<'))
                {
                    let mut depth = 0usize;
                    let mut k = i + 3;
                    let mut after = None;
                    while k < b.min(toks.len()) {
                        if toks[k].is_punct('<') {
                            depth += 1;
                        } else if toks[k].is_punct('>') && !toks[k - 1].is_punct('-') {
                            depth -= 1;
                            if depth == 0 {
                                after = Some(k + 1);
                                break;
                            }
                        }
                        k += 1;
                    }
                    after.filter(|&k| toks.get(k).is_some_and(|n| n.is_punct('(')))
                } else {
                    None
                };
                if let (Some(open), false) = (open, is_keyword(id)) {
                    // A call site. Qualifier: `Q::id(`.
                    let qualifier = if after_path && i >= a + 3 {
                        toks[i - 3].ident().map(str::to_string)
                    } else {
                        None
                    };
                    let close = match_close(toks, open, b);
                    let args = split_args(toks, open + 1, close)
                        .into_iter()
                        .map(|(s, t2)| summarize_expr(toks, s, t2))
                        .collect();
                    e.calls.push(CallSite {
                        name: id.clone(),
                        qualifier,
                        is_method: after_dot,
                        args,
                        line: t.line,
                    });
                    // Do not skip the call body: nested calls and idents
                    // inside it are collected flat in this expression too.
                } else if after_dot {
                    // Field projection (or method name, handled above).
                    if !e.fields.iter().any(|f| f == id) {
                        e.fields.push(id.clone());
                    }
                } else if !after_path
                    && !is_keyword(id)
                    && !toks.get(i + 1).is_some_and(|n| {
                        n.is_punct(':') && toks.get(i + 2).is_some_and(|m| m.is_punct(':'))
                    })
                    && id
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
                    && !e.idents.iter().any(|u| u == id)
                {
                    e.idents.push(id.clone());
                }
            }
            TokenKind::Punct('?') => e.has_try = true,
            TokenKind::Punct('<') => {
                if i > a && toks[i - 1].is_punct(':') {
                    turbofish += 1;
                } else if turbofish == 0 {
                    e.has_cmp = true;
                }
            }
            TokenKind::Punct('>') => {
                let arrow = i > a && (toks[i - 1].is_punct('-') || toks[i - 1].is_punct('='));
                if turbofish > 0 {
                    turbofish -= 1;
                } else if !arrow {
                    e.has_cmp = true;
                }
            }
            // `==` / `!=` count; `=` alone (struct update, default
            // generic) does not.
            TokenKind::Punct('=')
                if toks.get(i + 1).is_some_and(|n| n.is_punct('='))
                    || (i > a && toks[i - 1].is_punct('!')) =>
            {
                e.has_cmp = true;
            }
            _ => {}
        }
        i += 1;
    }
    e
}

/// Index just past the group opened at `open` (which must hold `(`, `[`
/// or `{`); saturates at `limit` for unbalanced input.
fn match_close(toks: &[Token], open: usize, limit: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < limit.min(toks.len()) {
        match toks[i].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    limit.min(toks.len())
}

/// Splits `[a, b)` on top-level commas.
fn split_args(toks: &[Token], a: usize, b: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = a;
    let mut i = a;
    while i < b.min(toks.len()) {
        match toks[i].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1)
            }
            TokenKind::Punct(',') if depth == 0 => {
                if i > start {
                    out.push((start, i));
                }
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if b.min(toks.len()) > start {
        out.push((start, b.min(toks.len())));
    }
    out
}

/// Extracts binding names from a pattern token range: lowercase/underscore
/// identifiers that are not path segments, keywords, or macro names.
/// (`Some((a, b))` → `a`, `b`; `Posting { pre, .. }` → `pre`.)
fn pattern_bindings(toks: &[Token], a: usize, b: usize) -> Vec<String> {
    let mut names = Vec::new();
    for i in a..b.min(toks.len()) {
        let Some(id) = toks[i].ident() else {
            continue;
        };
        if id == "_" || is_keyword(id) {
            continue;
        }
        // Skip path segments (`E::V`), call-ish pattern heads (`Some(`),
        // struct pattern heads (`Posting {`), and type positions after a
        // top-level `:` are already excluded by the caller's range.
        let heads_group = toks
            .get(i + 1)
            .is_some_and(|n| n.is_punct('(') || n.is_punct('{'));
        let in_path = toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            || i > a && toks[i - 1].is_punct(':') && i > a + 1 && toks[i - 2].is_punct(':');
        let uppercase = id.chars().next().is_some_and(|c| c.is_ascii_uppercase());
        if heads_group || in_path || uppercase {
            continue;
        }
        if !names.iter().any(|n| n == id) {
            names.push(id.to_string());
        }
    }
    names
}

/// Scans the whole token stream for `fn` items and parses each body.
pub fn parse_fns(toks: &[Token]) -> Vec<FnDef> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].ident() == Some("fn") {
            // Scanning continues *inside* the function too (just past the
            // `fn` keyword), so nested fns are found.
            if let Some((def, _)) = parse_fn(toks, i) {
                out.push(def);
            }
        }
        i += 1;
    }
    out
}

/// Parses one `fn` item starting at the `fn` keyword; returns the def and
/// the index past its body. `None` for bodyless declarations or parse
/// failures (forgiving: the rules skip what the parser cannot shape).
fn parse_fn(toks: &[Token], at: usize) -> Option<(FnDef, usize)> {
    let line = toks[at].line;
    let name = toks.get(at + 1)?.ident()?.to_string();
    let mut i = at + 2;
    // Optional generics: `<` … matching `>` (angle counting; `->` inside
    // `Fn(…) -> R` bounds is skipped as a pair).
    if toks.get(i).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i32;
        while i < toks.len() {
            if toks[i].is_punct('<') && !(i > 0 && toks[i - 1].is_punct('<')) {
                depth += 1;
            } else if toks[i].is_punct('>') {
                if i > 0 && toks[i - 1].is_punct('-') {
                    // `->` arrow inside bounds: not a closer.
                } else {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
            }
            i += 1;
        }
    }
    // Parameters.
    if !toks.get(i).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let params_close = match_close(toks, i, toks.len());
    let mut params = Vec::new();
    for (s, t) in split_args(toks, i + 1, params_close) {
        // A param binding is the identifier before the top-level `:`; the
        // bare `self` / `&mut self` param has no colon.
        let mut depth = 0usize;
        let mut colon = None;
        for (k, tok) in toks.iter().enumerate().take(t).skip(s) {
            match tok.kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                    depth = depth.saturating_sub(1)
                }
                TokenKind::Punct(':') if depth == 0 => {
                    colon = Some(k);
                    break;
                }
                _ => {}
            }
        }
        match colon {
            Some(c) => {
                params.extend(pattern_bindings(toks, s, c));
            }
            None => {
                if toks[s..t].iter().any(|t| t.ident() == Some("self")) {
                    params.push("self".to_string());
                }
            }
        }
    }
    i = params_close + 1;
    // Skip the return type / where clause up to the body `{` or a `;`.
    let mut depth = 0usize;
    while i < toks.len() {
        match toks[i].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => depth = depth.saturating_sub(1),
            TokenKind::Punct('{') if depth == 0 => break,
            TokenKind::Punct(';') if depth == 0 => return None, // declaration
            _ => {}
        }
        i += 1;
    }
    if i >= toks.len() {
        return None;
    }
    let body_close = match_close(toks, i, toks.len());
    let body = parse_block(toks, i + 1, body_close);
    Some((
        FnDef {
            name,
            line,
            params,
            body,
        },
        body_close + 1,
    ))
}

/// Parses the statements of a block interior `[a, b)` (exclusive of the
/// surrounding braces).
fn parse_block(toks: &[Token], a: usize, b: usize) -> Block {
    let mut stmts = Vec::new();
    let mut i = a;
    let b = b.min(toks.len());
    while i < b {
        // Skip attributes and stray semicolons.
        if toks[i].is_punct(';') {
            i += 1;
            continue;
        }
        if toks[i].is_punct('#') {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_punct('!')) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct('[')) {
                i = match_close(toks, j, b) + 1;
                continue;
            }
            i += 1;
            continue;
        }
        let line = toks[i].line;
        match toks[i].ident() {
            Some("let") => {
                let (stmt, next) = parse_let(toks, i, b);
                stmts.push(stmt);
                i = next;
            }
            Some("if") => {
                let (stmt, next) = parse_if(toks, i, b);
                stmts.push(stmt);
                i = next;
            }
            Some("while") => {
                let (cond, bindings, open) = parse_cond(toks, i + 1, b);
                let close = match_close(toks, open, b);
                stmts.push(Stmt::While {
                    cond,
                    bindings,
                    body: parse_block(toks, open + 1, close),
                    line,
                });
                i = close + 1;
            }
            Some("loop") => {
                let open = i + 1;
                if toks.get(open).is_some_and(|t| t.is_punct('{')) {
                    let close = match_close(toks, open, b);
                    stmts.push(Stmt::Loop {
                        body: parse_block(toks, open + 1, close),
                        line,
                    });
                    i = close + 1;
                } else {
                    i += 1;
                }
            }
            Some("for") => {
                // `for pat in iter { … }` — pattern up to top-level `in`.
                let mut j = i + 1;
                let mut depth = 0usize;
                while j < b {
                    match toks[j].kind {
                        TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                        TokenKind::Punct(')') | TokenKind::Punct(']') => {
                            depth = depth.saturating_sub(1)
                        }
                        _ => {}
                    }
                    if depth == 0 && toks[j].ident() == Some("in") {
                        break;
                    }
                    j += 1;
                }
                let bindings = pattern_bindings(toks, i + 1, j);
                let open = scan_to_brace(toks, j + 1, b);
                let iter = summarize_expr(toks, j + 1, open);
                let close = match_close(toks, open, b);
                stmts.push(Stmt::For {
                    bindings,
                    iter,
                    body: parse_block(toks, open + 1, close),
                    line,
                });
                i = close + 1;
            }
            Some("match") => {
                let open = scan_to_brace(toks, i + 1, b);
                let scrutinee = summarize_expr(toks, i + 1, open);
                let close = match_close(toks, open, b);
                let arms = parse_arms(toks, open + 1, close);
                stmts.push(Stmt::Match {
                    scrutinee,
                    arms,
                    line,
                });
                i = close + 1;
            }
            Some("return") => {
                let end = scan_to_semi(toks, i + 1, b);
                let value = (end > i + 1).then(|| summarize_expr(toks, i + 1, end));
                stmts.push(Stmt::Return { value, line });
                i = end + 1;
            }
            Some("break") => {
                let end = scan_to_semi(toks, i + 1, b);
                stmts.push(Stmt::Break { line });
                i = end + 1;
            }
            Some("continue") => {
                let end = scan_to_semi(toks, i + 1, b);
                stmts.push(Stmt::Continue { line });
                i = end + 1;
            }
            Some("unsafe") if toks.get(i + 1).is_some_and(|t| t.is_punct('{')) => {
                let close = match_close(toks, i + 1, b);
                stmts.push(Stmt::BlockStmt {
                    block: parse_block(toks, i + 2, close),
                    line,
                });
                i = close + 1;
            }
            // Nested items are opaque to the enclosing body ([`parse_fns`]
            // scans them independently).
            Some("fn") => match parse_fn(toks, i) {
                Some((_, next)) => i = next,
                None => i = scan_to_semi(toks, i + 1, b) + 1,
            },
            Some("struct") | Some("enum") | Some("impl") | Some("trait") | Some("mod")
            | Some("use") | Some("static") | Some("const") | Some("type") | Some("macro_rules") => {
                // Skip to the item's `;` or its brace block.
                let mut j = i + 1;
                let mut depth = 0usize;
                while j < b {
                    match toks[j].kind {
                        TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                        TokenKind::Punct(')') | TokenKind::Punct(']') => {
                            depth = depth.saturating_sub(1)
                        }
                        TokenKind::Punct(';') if depth == 0 => {
                            j += 1;
                            break;
                        }
                        TokenKind::Punct('{') if depth == 0 => {
                            j = match_close(toks, j, b) + 1;
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j;
            }
            _ if toks[i].is_punct('{') => {
                let close = match_close(toks, i, b);
                stmts.push(Stmt::BlockStmt {
                    block: parse_block(toks, i + 1, close),
                    line,
                });
                i = close + 1;
            }
            _ => {
                // Assignment or expression statement.
                let end = scan_to_semi(toks, i, b);
                stmts.push(parse_expr_stmt(toks, i, end, line));
                i = end + 1;
            }
        }
    }
    Block { stmts }
}

/// Parses match arms from the interior `[a, b)` of a match body.
fn parse_arms(toks: &[Token], a: usize, b: usize) -> Vec<Arm> {
    let mut arms = Vec::new();
    let mut i = a;
    let b = b.min(toks.len());
    while i < b {
        if toks[i].is_punct(',') || toks[i].is_punct(';') {
            i += 1;
            continue;
        }
        // Pattern (and optional guard) up to the top-level `=>`.
        let mut depth = 0usize;
        let mut guard_at = None;
        let mut arrow = None;
        let mut j = i;
        while j < b {
            match toks[j].kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                    depth = depth.saturating_sub(1)
                }
                TokenKind::Punct('=')
                    if depth == 0 && toks.get(j + 1).is_some_and(|t| t.is_punct('>')) =>
                {
                    arrow = Some(j);
                    break;
                }
                TokenKind::Ident(ref id) if depth == 0 && id == "if" && guard_at.is_none() => {
                    guard_at = Some(j);
                }
                _ => {}
            }
            j += 1;
        }
        let Some(arrow) = arrow else { break };
        let pat_end = guard_at.unwrap_or(arrow);
        let bindings = pattern_bindings(toks, i, pat_end);
        let guard = guard_at.map(|g| summarize_expr(toks, g + 1, arrow));
        // Body: a block, or an expression up to the top-level `,`.
        let body_start = arrow + 2;
        let (body, next) = if toks.get(body_start).is_some_and(|t| t.is_punct('{')) {
            let close = match_close(toks, body_start, b);
            (parse_block(toks, body_start + 1, close), close + 1)
        } else {
            let mut depth = 0usize;
            let mut k = body_start;
            while k < b {
                match toks[k].kind {
                    TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => {
                        depth += 1
                    }
                    TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                        depth = depth.saturating_sub(1)
                    }
                    TokenKind::Punct(',') if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            let line = toks.get(body_start).map_or(0, |t| t.line);
            let stmt = parse_expr_stmt(toks, body_start, k, line);
            (Block { stmts: vec![stmt] }, k + 1)
        };
        arms.push(Arm {
            bindings,
            guard,
            body,
        });
        i = next;
    }
    arms
}

/// Parses a `let` statement starting at the `let` keyword.
fn parse_let(toks: &[Token], at: usize, b: usize) -> (Stmt, usize) {
    let line = toks[at].line;
    // Pattern runs to the top-level `=` (not `==`) or the `;`/`:` cut.
    let mut depth = 0usize;
    let mut eq = None;
    let mut colon = None;
    let mut j = at + 1;
    while j < b {
        match toks[j].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1)
            }
            TokenKind::Punct(':') if depth == 0 => {
                // A type annotation cut (not a `::` path).
                let path = toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    || j > 0 && toks[j - 1].is_punct(':');
                if !path && colon.is_none() {
                    colon = Some(j);
                }
            }
            TokenKind::Punct('=') if depth == 0 => {
                if !toks.get(j + 1).is_some_and(|t| t.is_punct('=')) {
                    eq = Some(j);
                    break;
                }
                j += 1; // skip `==` wholesale
            }
            TokenKind::Punct(';') if depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    let Some(eq) = eq else {
        // `let x;` — an uninitialized binding.
        let end = scan_to_semi(toks, at + 1, b);
        let bindings = pattern_bindings(toks, at + 1, colon.unwrap_or(end));
        return (
            Stmt::Let {
                bindings,
                init: None,
                else_block: None,
                line,
            },
            end + 1,
        );
    };
    let bindings = pattern_bindings(toks, at + 1, colon.unwrap_or(eq));
    // Init expression runs to the `;` at depth 0, with a possible
    // top-level `else { … }` (let-else) before it.
    let mut depth = 0usize;
    let mut k = eq + 1;
    let mut else_at = None;
    while k < b {
        match toks[k].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1)
            }
            TokenKind::Punct(';') if depth == 0 => break,
            TokenKind::Ident(ref id)
                if depth == 0
                    && id == "else"
                    && toks.get(k + 1).is_some_and(|t| t.is_punct('{')) =>
            {
                else_at = Some(k);
                break;
            }
            _ => {}
        }
        k += 1;
    }
    match else_at {
        Some(e) => {
            let init = summarize_expr(toks, eq + 1, e);
            let close = match_close(toks, e + 1, b);
            let else_block = parse_block(toks, e + 2, close);
            let end = scan_to_semi(toks, close + 1, b);
            (
                Stmt::Let {
                    bindings,
                    init: Some(init),
                    else_block: Some(else_block),
                    line,
                },
                end + 1,
            )
        }
        None => (
            Stmt::Let {
                bindings,
                init: Some(summarize_expr(toks, eq + 1, k)),
                else_block: None,
                line,
            },
            k + 1,
        ),
    }
}

/// Parses an `if` chain starting at the `if` keyword.
fn parse_if(toks: &[Token], at: usize, b: usize) -> (Stmt, usize) {
    let line = toks[at].line;
    let (cond, bindings, open) = parse_cond(toks, at + 1, b);
    let close = match_close(toks, open, b);
    let then_block = parse_block(toks, open + 1, close);
    let mut next = close + 1;
    let mut else_block = None;
    if toks.get(next).is_some_and(|t| t.ident() == Some("else")) {
        if toks.get(next + 1).is_some_and(|t| t.ident() == Some("if")) {
            let (nested, after) = parse_if(toks, next + 1, b);
            else_block = Some(Block {
                stmts: vec![nested],
            });
            next = after;
        } else if toks.get(next + 1).is_some_and(|t| t.is_punct('{')) {
            let eclose = match_close(toks, next + 1, b);
            else_block = Some(parse_block(toks, next + 2, eclose));
            next = eclose + 1;
        }
    }
    (
        Stmt::If {
            cond,
            bindings,
            then_block,
            else_block,
            line,
        },
        next,
    )
}

/// Parses an `if`/`while` condition starting just past the keyword:
/// handles `let pat = scrutinee` forms, returns `(cond_expr, bindings,
/// index_of_body_brace)`. The summarized condition covers the whole
/// region (scrutinee included), which is what guard detection wants.
fn parse_cond(toks: &[Token], a: usize, b: usize) -> (Expr, Vec<String>, usize) {
    let open = scan_to_brace(toks, a, b);
    if toks.get(a).is_some_and(|t| t.ident() == Some("let")) {
        // `if let pat = scrutinee` — bindings from the pattern, condition
        // summarized over the scrutinee.
        let mut depth = 0usize;
        let mut eq = None;
        for j in a + 1..open {
            match toks[j].kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                    depth = depth.saturating_sub(1)
                }
                TokenKind::Punct('=')
                    if depth == 0
                        && !toks.get(j + 1).is_some_and(|t| t.is_punct('='))
                        && !toks[j - 1].is_punct('=')
                        && !toks[j - 1].is_punct('!')
                        && !toks[j - 1].is_punct('<')
                        && !toks[j - 1].is_punct('>') =>
                {
                    eq = Some(j);
                    break;
                }
                _ => {}
            }
        }
        if let Some(eq) = eq {
            let bindings = pattern_bindings(toks, a + 1, eq);
            return (summarize_expr(toks, eq + 1, open), bindings, open);
        }
    }
    (summarize_expr(toks, a, open), Vec::new(), open)
}

/// Classifies an expression-statement range as an assignment or a plain
/// expression.
fn parse_expr_stmt(toks: &[Token], a: usize, b: usize, line: u32) -> Stmt {
    // Find a top-level `=` that is not part of `==`, `<=`, `>=`, `!=`,
    // `=>`; note compound ops (`+=` …) by their preceding punct.
    let mut depth = 0usize;
    let mut j = a;
    while j < b.min(toks.len()) {
        match toks[j].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1)
            }
            TokenKind::Punct('=') if depth == 0 => {
                let next_eq = toks.get(j + 1).is_some_and(|t| t.is_punct('='));
                let next_gt = toks.get(j + 1).is_some_and(|t| t.is_punct('>'));
                let prev = (j > a).then(|| &toks[j - 1].kind);
                let prev_cmp = matches!(prev, Some(TokenKind::Punct('=' | '!' | '<' | '>')));
                if !next_eq && !next_gt && !prev_cmp {
                    let compound = matches!(
                        prev,
                        Some(TokenKind::Punct(
                            '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^'
                        ))
                    );
                    let target_end = if compound { j - 1 } else { j };
                    let target = if target_end == a + 1 {
                        toks[a]
                            .ident()
                            .filter(|i| !is_keyword(i))
                            .map(str::to_string)
                    } else {
                        None
                    };
                    return Stmt::Assign {
                        target,
                        compound,
                        value: summarize_expr(toks, j + 1, b),
                        line,
                    };
                }
                if next_eq {
                    j += 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    Stmt::Expr {
        expr: summarize_expr(toks, a, b),
        line,
    }
}

/// Index of the next `;` at depth 0 (or `b`).
fn scan_to_semi(toks: &[Token], a: usize, b: usize) -> usize {
    let mut depth = 0usize;
    let mut i = a;
    while i < b.min(toks.len()) {
        match toks[i].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1)
            }
            TokenKind::Punct(';') if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    b.min(toks.len())
}

/// Index of the next `{` at depth 0 (or `b`) — used for `if`/`while`/
/// `for`/`match` heads, where Rust forbids bare struct literals.
fn scan_to_brace(toks: &[Token], a: usize, b: usize) -> usize {
    let mut depth = 0usize;
    let mut i = a;
    while i < b.min(toks.len()) {
        match toks[i].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => depth = depth.saturating_sub(1),
            TokenKind::Punct('{') if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    b.min(toks.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn fns(src: &str) -> Vec<FnDef> {
        parse_fns(&lex(src).tokens)
    }

    fn one(src: &str) -> FnDef {
        let mut all = fns(src);
        assert_eq!(all.len(), 1, "expected one fn in {src:?}");
        all.remove(0)
    }

    #[test]
    fn simple_fn_with_params() {
        let f = one("fn add(a: u32, b: u32) -> u32 { a + b }");
        assert_eq!(f.name, "add");
        assert_eq!(f.params, ["a", "b"]);
        assert_eq!(f.body.stmts.len(), 1);
    }

    #[test]
    fn nested_generics_in_signature_and_body() {
        let f = one(
            "fn g<T: Into<Vec<Vec<u8>>>, F: Fn(u32) -> u32>(x: T, f: F) -> Option<Vec<u8>> {\n\
                 let v: Vec<Vec<u8>> = x.into();\n\
                 let s = v.iter().map(|i| i.len()).sum::<usize>();\n\
                 f(s as u32);\n\
                 None\n\
             }",
        );
        assert_eq!(f.name, "g");
        assert_eq!(f.params, ["x", "f"]);
        assert_eq!(f.body.stmts.len(), 4);
        // The turbofish `::<usize>` must not read as a comparison.
        let Stmt::Let { init: Some(e), .. } = &f.body.stmts[1] else {
            panic!("expected let, got {:?}", f.body.stmts[1]);
        };
        assert!(!e.has_cmp, "{e:?}");
        assert!(e.calls_named("sum"));
    }

    #[test]
    fn let_else_is_a_branching_statement() {
        let f = one("fn h(data: &[u8]) -> Result<(), ()> {\n\
                 let Some(head) = data.get(0..4) else { return Err(()); };\n\
                 consume(head);\n\
                 Ok(())\n\
             }");
        let Stmt::Let {
            bindings,
            init: Some(init),
            else_block: Some(eb),
            ..
        } = &f.body.stmts[0]
        else {
            panic!("expected let-else, got {:?}", f.body.stmts[0]);
        };
        assert_eq!(bindings, &["head"]);
        assert!(init.calls_named("get"));
        assert!(matches!(eb.stmts[0], Stmt::Return { .. }));
    }

    #[test]
    fn match_arms_with_guards_and_bindings() {
        let f = one("fn m(x: Option<u32>) -> u32 {\n\
                 match x {\n\
                     Some(v) if v > 10 => v * 2,\n\
                     Some(v) => { log(v); v }\n\
                     None => 0,\n\
                 }\n\
             }");
        let Stmt::Match {
            arms, scrutinee, ..
        } = &f.body.stmts[0]
        else {
            panic!("expected match, got {:?}", f.body.stmts[0]);
        };
        assert_eq!(arms.len(), 3);
        assert!(scrutinee.reads("x"));
        assert_eq!(arms[0].bindings, ["v"]);
        let g = arms[0].guard.as_ref().expect("guard");
        assert!(g.has_cmp && g.reads("v"));
        assert!(arms[1].guard.is_none());
        assert_eq!(arms[1].body.stmts.len(), 2);
        assert!(arms[2].bindings.is_empty());
    }

    #[test]
    fn raw_strings_and_weird_literals_do_not_derail_statements() {
        let f = one(r###"fn r() {
                 let s = r#"unterminated-looking " quote ( brace { "#;
                 let b = br##"more "# hashes"##;
                 let c = 'x';
                 after(s, b, c);
             }"###);
        assert_eq!(f.body.stmts.len(), 4);
        let Stmt::Expr { expr, .. } = &f.body.stmts[3] else {
            panic!("expected call stmt");
        };
        assert!(expr.calls_named("after"));
    }

    #[test]
    fn if_let_while_let_bind_into_their_bodies() {
        let f = one("fn w(it: I) {\n\
                 if let Some(x) = it.peek() { use_it(x); }\n\
                 while let Some(y) = it.next() { use_it(y); }\n\
             }");
        let Stmt::If { bindings, cond, .. } = &f.body.stmts[0] else {
            panic!("if");
        };
        assert_eq!(bindings, &["x"]);
        assert!(cond.calls_named("peek"));
        let Stmt::While { bindings, .. } = &f.body.stmts[1] else {
            panic!("while");
        };
        assert_eq!(bindings, &["y"]);
    }

    #[test]
    fn call_sites_record_qualifier_method_and_args() {
        let f = one("fn c() { let n = u32::from_le_bytes(raw) as usize; scope.map(items, work); }");
        let Stmt::Let { init: Some(e), .. } = &f.body.stmts[0] else {
            panic!("let");
        };
        let call = &e.calls[0];
        assert_eq!(call.name, "from_le_bytes");
        assert_eq!(call.qualifier.as_deref(), Some("u32"));
        assert!(!call.is_method);
        assert_eq!(call.args.len(), 1);
        assert!(call.args[0].reads("raw"));
        let Stmt::Expr { expr, .. } = &f.body.stmts[1] else {
            panic!("expr");
        };
        let map = expr.calls.iter().find(|c| c.name == "map").unwrap();
        assert!(map.is_method);
        assert_eq!(map.args.len(), 2);
    }

    #[test]
    fn assignments_are_classified_with_targets() {
        let f = one("fn a(mut x: u32) { x = decode(); x += step; self.field = x; }");
        let Stmt::Assign {
            target, compound, ..
        } = &f.body.stmts[0]
        else {
            panic!("assign");
        };
        assert_eq!(target.as_deref(), Some("x"));
        assert!(!compound);
        let Stmt::Assign {
            target, compound, ..
        } = &f.body.stmts[1]
        else {
            panic!("compound assign");
        };
        assert_eq!(target.as_deref(), Some("x"));
        assert!(compound);
        let Stmt::Assign { target, .. } = &f.body.stmts[2] else {
            panic!("field assign");
        };
        assert!(target.is_none());
    }

    #[test]
    fn nested_fns_are_parsed_independently() {
        let all = fns("fn outer() { fn inner(q: u8) { q; } outer_call(); }");
        let names: Vec<&str> = all.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
        // The outer body skips the nested item but keeps its own call.
        let outer = &all[0];
        assert!(outer.body.stmts.iter().any(|s| matches!(
            s,
            Stmt::Expr { expr, .. } if expr.calls_named("outer_call")
        )));
    }

    #[test]
    fn comparisons_detected_but_not_arrows_or_turbofish() {
        let f = one("fn e() { if n > data.len() { stop(); } let v = x.sum::<u64>(); }");
        let Stmt::If { cond, .. } = &f.body.stmts[0] else {
            panic!("if");
        };
        assert!(cond.has_cmp);
        let Stmt::Let { init: Some(e), .. } = &f.body.stmts[1] else {
            panic!("let");
        };
        assert!(!e.has_cmp);
    }

    #[test]
    fn try_operator_is_flagged() {
        let f = one("fn t() -> Result<(), E> { let x = fallible()?; infallible(x); Ok(()) }");
        let Stmt::Let { init: Some(e), .. } = &f.body.stmts[0] else {
            panic!("let");
        };
        assert!(e.has_try);
        let Stmt::Expr { expr, .. } = &f.body.stmts[1] else {
            panic!("expr");
        };
        assert!(!expr.has_try);
    }

    #[test]
    fn field_reads_are_recorded_by_name() {
        let f = one("fn f(h: &H) { take(self.entries); use_it(h.count); }");
        let Stmt::Expr { expr, .. } = &f.body.stmts[0] else {
            panic!();
        };
        assert!(expr.fields.iter().any(|x| x == "entries"));
        let Stmt::Expr { expr, .. } = &f.body.stmts[1] else {
            panic!();
        };
        assert!(expr.fields.iter().any(|x| x == "count"));
        assert!(expr.reads("h"));
    }
}
