//! Intra-procedural control-flow graphs over the [`crate::ast`] statement
//! trees, plus dominator / postdominator computation.
//!
//! Each [`FnDef`] body lowers to a graph of basic blocks. A block holds a
//! sequence of [`Action`]s (binds, assignments, evaluations) and an
//! optional *branch expression* — the condition (or scrutinee, or fallible
//! initializer) evaluated at the end of the block before control splits.
//! Edges carry a kind ([`EdgeKind::Try`] marks the early-error exit of a
//! `?`). Lexical scopes are not modelled: a name stays whatever the last
//! bind or assignment on the path made it, which over-approximates in the
//! safe direction for a may-analysis.
//!
//! The rules consume two derived facts:
//!
//! * **dominators** — "every path from entry to here passes through X";
//!   this is how untrusted-length proves a bound check precedes an
//!   allocation, and how commit-protocol proves `flush` precedes a header
//!   write.
//! * **success postdominators** — postdominators computed with `Try`
//!   edges removed: "every *non-error* path from here to the function
//!   exit passes through X". This is the right shape for "`sync` follows
//!   the header write": the write's own `?` may exit early, but every
//!   path on which the write *succeeded* must sync.
//!
//! Sets are bit-packed ([`BitSet`]) and solved by the standard iterative
//! fixpoint; function bodies here are tiny, so simplicity wins over the
//! fancy Lengauer–Tarjan machinery.

use crate::ast::{Arm, Block as AstBlock, Expr, FnDef, Stmt};

/// Edge classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    Normal,
    /// The error path of a `?` (or other early-error split): taken only
    /// when the fallible expression failed.
    Try,
}

/// One outgoing edge.
#[derive(Debug, Clone)]
pub struct Edge {
    pub to: usize,
    pub kind: EdgeKind,
}

/// One dataflow-relevant step inside a block, in execution order.
#[derive(Debug)]
pub enum Action {
    /// `let` binding (parameters too, with `init: None`).
    Bind {
        names: Vec<String>,
        init: Option<Expr>,
        line: u32,
    },
    /// Assignment; `target` is `Some` for a trackable plain-ident target.
    Assign {
        target: Option<String>,
        compound: bool,
        value: Expr,
        line: u32,
    },
    /// An evaluated expression (statement, return value, loop iterable).
    Eval { expr: Expr, line: u32 },
}

/// A basic block.
#[derive(Debug, Default)]
pub struct BasicBlock {
    pub actions: Vec<Action>,
    /// Expression evaluated at the end of the block when it has more than
    /// one successor (an `if`/`while` condition, a `match` scrutinee, a
    /// `let…else` / `?` initializer, a match-arm guard).
    pub branch: Option<Expr>,
    pub succs: Vec<Edge>,
}

/// The control-flow graph of one function.
#[derive(Debug)]
pub struct Cfg {
    pub blocks: Vec<BasicBlock>,
    pub entry: usize,
    pub exit: usize,
}

impl Cfg {
    /// Lowers a parsed function body.
    pub fn build(f: &FnDef) -> Cfg {
        let mut b = Builder {
            blocks: vec![BasicBlock::default(), BasicBlock::default()],
            loops: Vec::new(),
        };
        let entry = 0usize;
        let exit = 1usize;
        if !f.params.is_empty() {
            b.blocks[entry].actions.push(Action::Bind {
                names: f.params.clone(),
                init: None,
                line: f.line,
            });
        }
        if let Some(end) = b.lower_block(&f.body, entry, exit) {
            b.edge(end, exit, EdgeKind::Normal);
        }
        Cfg {
            blocks: b.blocks,
            entry,
            exit,
        }
    }

    /// Predecessor lists (by any edge kind).
    pub fn preds(&self) -> Vec<Vec<usize>> {
        let mut p = vec![Vec::new(); self.blocks.len()];
        for (i, blk) in self.blocks.iter().enumerate() {
            for e in &blk.succs {
                p[e.to].push(i);
            }
        }
        p
    }

    /// `dom[v]` = blocks that dominate `v` (every entry→`v` path passes
    /// through them; reflexive). Unreachable blocks dominate nothing and
    /// are dominated by everything (the conventional ⊤ solution).
    pub fn dominators(&self) -> Vec<BitSet> {
        let n = self.blocks.len();
        let preds = self.preds();
        let mut dom: Vec<BitSet> = (0..n).map(|_| BitSet::full(n)).collect();
        dom[self.entry] = BitSet::singleton(n, self.entry);
        let mut changed = true;
        while changed {
            changed = false;
            for v in 0..n {
                if v == self.entry {
                    continue;
                }
                let mut next = BitSet::full(n);
                for &p in &preds[v] {
                    next.intersect(&dom[p]);
                }
                if preds[v].is_empty() {
                    next = BitSet::full(n);
                }
                next.insert(v);
                if next != dom[v] {
                    dom[v] = next;
                    changed = true;
                }
            }
        }
        dom
    }

    /// `pdom[v]` = blocks that postdominate `v` **on success paths**: the
    /// computation runs on the graph with [`EdgeKind::Try`] edges removed,
    /// so "every path on which no early error fired passes through them".
    /// Blocks that cannot reach the exit on success edges get the ⊤ set.
    pub fn success_postdominators(&self) -> Vec<BitSet> {
        let n = self.blocks.len();
        // Success-only successor lists.
        let succs: Vec<Vec<usize>> = self
            .blocks
            .iter()
            .map(|b| {
                b.succs
                    .iter()
                    .filter(|e| e.kind == EdgeKind::Normal)
                    .map(|e| e.to)
                    .collect()
            })
            .collect();
        let mut pdom: Vec<BitSet> = (0..n).map(|_| BitSet::full(n)).collect();
        pdom[self.exit] = BitSet::singleton(n, self.exit);
        let mut changed = true;
        while changed {
            changed = false;
            for v in 0..n {
                if v == self.exit {
                    continue;
                }
                let mut next = BitSet::full(n);
                for &s in &succs[v] {
                    next.intersect(&pdom[s]);
                }
                if succs[v].is_empty() {
                    next = BitSet::full(n);
                }
                next.insert(v);
                if next != pdom[v] {
                    pdom[v] = next;
                    changed = true;
                }
            }
        }
        pdom
    }
}

struct LoopCtx {
    continue_to: usize,
    /// Blocks ending in `break`, patched to the after-block once it exists.
    breaks: Vec<usize>,
}

struct Builder {
    blocks: Vec<BasicBlock>,
    loops: Vec<LoopCtx>,
}

impl Builder {
    fn new_block(&mut self) -> usize {
        self.blocks.push(BasicBlock::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize, kind: EdgeKind) {
        self.blocks[from].succs.push(Edge { to, kind });
    }

    /// Lowers `blk` starting in `cur`; returns the live tail block, or
    /// `None` when every path diverged (return/break/continue).
    fn lower_block(&mut self, blk: &AstBlock, cur: usize, exit: usize) -> Option<usize> {
        let mut cur = Some(cur);
        for stmt in &blk.stmts {
            let Some(c) = cur else { break };
            cur = self.lower_stmt(stmt, c, exit);
        }
        cur
    }

    /// Splits `cur` on a fallible expression: `cur` branches on `expr`,
    /// the `Try` edge goes to `exit`, and the returned fresh block is the
    /// success continuation.
    fn try_split(&mut self, expr: &Expr, cur: usize, exit: usize) -> usize {
        self.blocks[cur].branch = Some(expr.clone());
        let ok = self.new_block();
        self.edge(cur, ok, EdgeKind::Normal);
        self.edge(cur, exit, EdgeKind::Try);
        ok
    }

    fn lower_stmt(&mut self, stmt: &Stmt, cur: usize, exit: usize) -> Option<usize> {
        match stmt {
            Stmt::Let {
                bindings,
                init,
                else_block,
                line,
            } => {
                match (init, else_block) {
                    (Some(init), Some(eb)) => {
                        // let-else: branch on the initializer; refutation
                        // runs the else block (which must diverge — if the
                        // parser saw a fall-through tail, route it to exit).
                        self.blocks[cur].branch = Some(init.clone());
                        let ok = self.new_block();
                        let els = self.new_block();
                        self.edge(cur, ok, EdgeKind::Normal);
                        self.edge(cur, els, EdgeKind::Normal);
                        self.blocks[ok].actions.push(Action::Bind {
                            names: bindings.clone(),
                            init: Some(init.clone()),
                            line: *line,
                        });
                        if let Some(tail) = self.lower_block(eb, els, exit) {
                            self.edge(tail, exit, EdgeKind::Normal);
                        }
                        Some(ok)
                    }
                    (Some(init), None) if init.has_try => {
                        let ok = self.try_split(init, cur, exit);
                        self.blocks[ok].actions.push(Action::Bind {
                            names: bindings.clone(),
                            init: Some(init.clone()),
                            line: *line,
                        });
                        Some(ok)
                    }
                    _ => {
                        self.blocks[cur].actions.push(Action::Bind {
                            names: bindings.clone(),
                            init: init.clone(),
                            line: *line,
                        });
                        Some(cur)
                    }
                }
            }
            Stmt::Assign {
                target,
                compound,
                value,
                line,
            } => {
                if value.has_try {
                    let ok = self.try_split(value, cur, exit);
                    self.blocks[ok].actions.push(Action::Assign {
                        target: target.clone(),
                        compound: *compound,
                        value: value.clone(),
                        line: *line,
                    });
                    Some(ok)
                } else {
                    self.blocks[cur].actions.push(Action::Assign {
                        target: target.clone(),
                        compound: *compound,
                        value: value.clone(),
                        line: *line,
                    });
                    Some(cur)
                }
            }
            Stmt::Expr { expr, line } => {
                if expr.has_try {
                    let ok = self.try_split(expr, cur, exit);
                    self.blocks[ok].actions.push(Action::Eval {
                        expr: expr.clone(),
                        line: *line,
                    });
                    Some(ok)
                } else {
                    self.blocks[cur].actions.push(Action::Eval {
                        expr: expr.clone(),
                        line: *line,
                    });
                    Some(cur)
                }
            }
            Stmt::If {
                cond,
                bindings,
                then_block,
                else_block,
                line,
            } => {
                self.blocks[cur].branch = Some(cond.clone());
                let then_b = self.new_block();
                self.edge(cur, then_b, EdgeKind::Normal);
                if !bindings.is_empty() {
                    self.blocks[then_b].actions.push(Action::Bind {
                        names: bindings.clone(),
                        init: Some(cond.clone()),
                        line: *line,
                    });
                }
                let join = self.new_block();
                if let Some(t) = self.lower_block(then_block, then_b, exit) {
                    self.edge(t, join, EdgeKind::Normal);
                }
                match else_block {
                    Some(eb) => {
                        let else_b = self.new_block();
                        self.edge(cur, else_b, EdgeKind::Normal);
                        if let Some(t) = self.lower_block(eb, else_b, exit) {
                            self.edge(t, join, EdgeKind::Normal);
                        }
                    }
                    None => self.edge(cur, join, EdgeKind::Normal),
                }
                Some(join)
            }
            Stmt::While {
                cond,
                bindings,
                body,
                line,
            } => {
                let head = self.new_block();
                self.edge(cur, head, EdgeKind::Normal);
                self.blocks[head].branch = Some(cond.clone());
                let body_b = self.new_block();
                self.edge(head, body_b, EdgeKind::Normal);
                if !bindings.is_empty() {
                    self.blocks[body_b].actions.push(Action::Bind {
                        names: bindings.clone(),
                        init: Some(cond.clone()),
                        line: *line,
                    });
                }
                self.loops.push(LoopCtx {
                    continue_to: head,
                    breaks: Vec::new(),
                });
                let tail = self.lower_block(body, body_b, exit);
                let ctx = self.loops.pop().expect("loop ctx");
                if let Some(t) = tail {
                    self.edge(t, head, EdgeKind::Normal);
                }
                let after = self.new_block();
                self.edge(head, after, EdgeKind::Normal);
                for from in ctx.breaks {
                    self.edge(from, after, EdgeKind::Normal);
                }
                Some(after)
            }
            Stmt::Loop { body, .. } => {
                let head = self.new_block();
                self.edge(cur, head, EdgeKind::Normal);
                self.loops.push(LoopCtx {
                    continue_to: head,
                    breaks: Vec::new(),
                });
                let tail = self.lower_block(body, head, exit);
                let ctx = self.loops.pop().expect("loop ctx");
                if let Some(t) = tail {
                    self.edge(t, head, EdgeKind::Normal);
                }
                let after = self.new_block();
                for from in ctx.breaks {
                    self.edge(from, after, EdgeKind::Normal);
                }
                Some(after)
            }
            Stmt::For {
                bindings,
                iter,
                body,
                line,
            } => {
                self.blocks[cur].actions.push(Action::Eval {
                    expr: iter.clone(),
                    line: *line,
                });
                let head = self.new_block();
                self.edge(cur, head, EdgeKind::Normal);
                self.blocks[head].branch = Some(iter.clone());
                let body_b = self.new_block();
                self.edge(head, body_b, EdgeKind::Normal);
                if !bindings.is_empty() {
                    self.blocks[body_b].actions.push(Action::Bind {
                        names: bindings.clone(),
                        init: Some(iter.clone()),
                        line: *line,
                    });
                }
                self.loops.push(LoopCtx {
                    continue_to: head,
                    breaks: Vec::new(),
                });
                let tail = self.lower_block(body, body_b, exit);
                let ctx = self.loops.pop().expect("loop ctx");
                if let Some(t) = tail {
                    self.edge(t, head, EdgeKind::Normal);
                }
                let after = self.new_block();
                self.edge(head, after, EdgeKind::Normal);
                for from in ctx.breaks {
                    self.edge(from, after, EdgeKind::Normal);
                }
                Some(after)
            }
            Stmt::Match {
                scrutinee,
                arms,
                line,
            } => {
                self.blocks[cur].branch = Some(scrutinee.clone());
                let join = self.new_block();
                if arms.is_empty() {
                    self.edge(cur, join, EdgeKind::Normal);
                }
                for Arm {
                    bindings,
                    guard,
                    body,
                } in arms
                {
                    let arm_b = self.new_block();
                    self.edge(cur, arm_b, EdgeKind::Normal);
                    if !bindings.is_empty() {
                        self.blocks[arm_b].actions.push(Action::Bind {
                            names: bindings.clone(),
                            init: Some(scrutinee.clone()),
                            line: *line,
                        });
                    }
                    // A guard makes the arm entry itself a branch: the
                    // guarded body is dominated by the guard expression.
                    let body_entry = match guard {
                        Some(g) => {
                            self.blocks[arm_b].branch = Some(g.clone());
                            let gb = self.new_block();
                            self.edge(arm_b, gb, EdgeKind::Normal);
                            self.edge(arm_b, join, EdgeKind::Normal);
                            gb
                        }
                        None => arm_b,
                    };
                    if let Some(t) = self.lower_block(body, body_entry, exit) {
                        self.edge(t, join, EdgeKind::Normal);
                    }
                }
                Some(join)
            }
            Stmt::Return { value, line } => {
                if let Some(v) = value {
                    self.blocks[cur].actions.push(Action::Eval {
                        expr: v.clone(),
                        line: *line,
                    });
                }
                self.edge(cur, exit, EdgeKind::Normal);
                None
            }
            Stmt::Break { .. } => {
                match self.loops.last_mut() {
                    Some(ctx) => ctx.breaks.push(cur),
                    None => self.edge(cur, exit, EdgeKind::Normal),
                }
                None
            }
            Stmt::Continue { .. } => {
                let to = self.loops.last().map_or(exit, |ctx| ctx.continue_to);
                self.edge(cur, to, EdgeKind::Normal);
                None
            }
            Stmt::BlockStmt { block, .. } => self.lower_block(block, cur, exit),
        }
    }
}

/// A fixed-size bit set over block indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    pub fn empty(len: usize) -> BitSet {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    pub fn full(len: usize) -> BitSet {
        let mut s = BitSet {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        };
        // Mask the tail so Eq works.
        let tail = len % 64;
        if tail != 0 {
            if let Some(w) = s.words.last_mut() {
                *w = (1u64 << tail) - 1;
            }
        }
        s
    }

    pub fn singleton(len: usize, i: usize) -> BitSet {
        let mut s = BitSet::empty(len);
        s.insert(i);
        s
    }

    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    pub fn intersect(&mut self, other: &BitSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// Iterates the contained indices.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(|&i| self.contains(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_fns;
    use crate::lexer::lex;

    fn cfg_of(src: &str) -> Cfg {
        let fns = parse_fns(&lex(src).tokens);
        assert_eq!(fns.len(), 1, "one fn expected in {src:?}");
        Cfg::build(&fns[0])
    }

    /// Finds the block holding an action on `line`.
    fn block_on_line(cfg: &Cfg, line: u32) -> usize {
        for (i, b) in cfg.blocks.iter().enumerate() {
            for a in &b.actions {
                let l = match a {
                    Action::Bind { line, .. }
                    | Action::Assign { line, .. }
                    | Action::Eval { line, .. } => *line,
                };
                if l == line {
                    return i;
                }
            }
        }
        panic!("no action on line {line}");
    }

    #[test]
    fn straight_line_code_is_one_block() {
        let cfg = cfg_of("fn f() {\n a();\n b();\n c();\n}");
        // entry holds all three actions, single edge to exit.
        assert_eq!(cfg.blocks[cfg.entry].actions.len(), 3);
        assert_eq!(cfg.blocks[cfg.entry].succs.len(), 1);
    }

    #[test]
    fn if_condition_dominates_then_branch_only() {
        let cfg = cfg_of(
            "fn f(n: usize) {\n\
                 if n < 16 {\n\
                     guarded();\n\
                 }\n\
                 unguarded();\n\
             }",
        );
        let dom = cfg.dominators();
        let then_b = block_on_line(&cfg, 3);
        let after_b = block_on_line(&cfg, 5);
        assert!(dom[then_b].contains(cfg.entry));
        // The entry (which carries the branch) dominates both, but the
        // then-block does not dominate the join.
        assert!(!dom[after_b].contains(then_b));
        // The branch expression is the comparison.
        let br = cfg.blocks[cfg.entry].branch.as_ref().expect("branch");
        assert!(br.has_cmp && br.reads("n"));
    }

    #[test]
    fn let_else_guard_block_dominates_the_tail() {
        let cfg = cfg_of(
            "fn f(data: &[u8], n: usize) -> Option<()> {\n\
                 let Some(head) = data.get(0..n) else { return None; };\n\
                 use_it(head);\n\
                 Some(())\n\
             }",
        );
        let dom = cfg.dominators();
        let tail = block_on_line(&cfg, 3);
        // The entry block branches on the let-else initializer and
        // dominates the success tail.
        assert!(dom[tail].contains(cfg.entry));
        let br = cfg.blocks[cfg.entry].branch.as_ref().expect("branch");
        assert!(br.calls_named("get") && br.reads("n"));
    }

    #[test]
    fn try_edges_are_excluded_from_success_postdominators() {
        let cfg = cfg_of(
            "fn f(p: &mut P) -> Result<(), E> {\n\
                 p.write_direct(slot, buf)?;\n\
                 p.sync()?;\n\
                 Ok(())\n\
             }",
        );
        let write_b = block_on_line(&cfg, 2);
        let sync_b = block_on_line(&cfg, 3);
        let pdom = cfg.success_postdominators();
        // On success paths, the sync block postdominates the write block…
        assert!(pdom[write_b].contains(sync_b));
        // …and a Try edge to exit exists from the write's branch block.
        let has_try = cfg
            .blocks
            .iter()
            .any(|b| b.succs.iter().any(|e| e.kind == EdgeKind::Try));
        assert!(has_try);
    }

    #[test]
    fn loops_cycle_and_breaks_reach_the_after_block() {
        let cfg = cfg_of(
            "fn f() {\n\
                 loop {\n\
                     let g = m.lock();\n\
                     if done() { break; }\n\
                     work(g);\n\
                 }\n\
                 after();\n\
             }",
        );
        let head = block_on_line(&cfg, 3);
        let after_b = block_on_line(&cfg, 7);
        // The `break` leaves from inside the loop: the head dominates the
        // after-block, and the body's tail cycles back to the head.
        assert!(cfg.dominators()[after_b].contains(head));
        let work_b = block_on_line(&cfg, 5);
        assert!(cfg.blocks[work_b].succs.iter().any(|e| e.to == head));
    }

    #[test]
    fn match_guard_dominates_its_arm_body() {
        let cfg = cfg_of(
            "fn f(x: Option<usize>) {\n\
                 match x {\n\
                     Some(n) if n < 128 => { alloc(n); }\n\
                     _ => {}\n\
                 }\n\
             }",
        );
        let dom = cfg.dominators();
        let body = block_on_line(&cfg, 3);
        // Some dominating block carries the guard comparison.
        let guarded = dom[body].iter().any(|d| {
            cfg.blocks[d]
                .branch
                .as_ref()
                .is_some_and(|g| g.has_cmp && g.reads("n"))
        });
        assert!(guarded);
    }

    // --- dominance property test -------------------------------------

    /// Tiny deterministic LCG (no external randomness in the test suite).
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Brute-force dominance: `d` dominates `v` iff `v` is unreachable
    /// from entry when traversal refuses to pass through `d`.
    fn brute_dominates(cfg: &Cfg, d: usize, v: usize) -> bool {
        if d == v {
            return true;
        }
        let mut seen = vec![false; cfg.blocks.len()];
        let mut stack = vec![cfg.entry];
        if cfg.entry == d {
            return reachable(cfg, v);
        }
        seen[cfg.entry] = true;
        while let Some(b) = stack.pop() {
            if b == v {
                return false;
            }
            for e in &cfg.blocks[b].succs {
                if e.to != d && !seen[e.to] {
                    seen[e.to] = true;
                    stack.push(e.to);
                }
            }
        }
        reachable(cfg, v)
    }

    fn reachable(cfg: &Cfg, v: usize) -> bool {
        let mut seen = vec![false; cfg.blocks.len()];
        let mut stack = vec![cfg.entry];
        seen[cfg.entry] = true;
        while let Some(b) = stack.pop() {
            if b == v {
                return true;
            }
            for e in &cfg.blocks[b].succs {
                if !seen[e.to] {
                    seen[e.to] = true;
                    stack.push(e.to);
                }
            }
        }
        false
    }

    #[test]
    fn dominators_match_brute_force_on_random_graphs() {
        let mut rng = Lcg(0x5eed_1234_5678_9abc);
        for _case in 0..200 {
            let n = 2 + rng.below(10);
            let mut cfg = Cfg {
                blocks: (0..n).map(|_| BasicBlock::default()).collect(),
                entry: 0,
                exit: 1,
            };
            // Random edges: each block gets 0–2 successors.
            for b in 0..n {
                for _ in 0..rng.below(3) {
                    let to = rng.below(n);
                    cfg.blocks[b].succs.push(Edge {
                        to,
                        kind: EdgeKind::Normal,
                    });
                }
            }
            let dom = cfg.dominators();
            for (v, dv) in dom.iter().enumerate() {
                if !reachable(&cfg, v) {
                    continue; // unreachable blocks keep the ⊤ convention
                }
                for d in 0..n {
                    assert_eq!(
                        dv.contains(d),
                        brute_dominates(&cfg, d, v),
                        "dom({d}, {v}) mismatch on case {_case} (n={n})"
                    );
                }
            }
        }
    }
}
