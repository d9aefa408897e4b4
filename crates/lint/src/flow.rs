//! A small forward **may**-dataflow solver over [`crate::cfg`] graphs.
//!
//! Facts are variable names (`BTreeSet<String>` — deterministic iteration
//! keeps findings stable). The join is set union: a fact holds at a block
//! entry if it holds on *some* path in, which is the right polarity for
//! the taint analysis built on top of this (untrusted-length): a name
//! *may* carry an attacker-controlled length.
//!
//! The per-action transfer (binds, assignments, evaluations) is supplied
//! by the rule.

use crate::cfg::{Action, Cfg};
use std::collections::BTreeSet;

/// The fact set: variable names.
pub type Facts = BTreeSet<String>;

/// Per-block solution.
#[derive(Debug, Clone, Default)]
pub struct BlockFacts {
    /// Facts holding at block entry.
    pub entry: Facts,
    /// Facts holding after the last action.
    pub exit: Facts,
}

/// Solves the forward may-analysis to fixpoint from an empty fact set at
/// the function entry; `transfer` mutates the fact set across one action.
pub fn forward_may<F: Fn(&Action, &mut Facts)>(cfg: &Cfg, transfer: F) -> Vec<BlockFacts> {
    let n = cfg.blocks.len();
    let preds = cfg.preds();
    let mut sol = vec![BlockFacts::default(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..n {
            // Entry = union of the predecessors' exits.
            let mut entry = Facts::new();
            for &p in &preds[b] {
                entry.extend(sol[p].exit.iter().cloned());
            }
            let mut exit = entry.clone();
            for a in &cfg.blocks[b].actions {
                transfer(a, &mut exit);
            }
            if entry != sol[b].entry || exit != sol[b].exit {
                sol[b] = BlockFacts { entry, exit };
                changed = true;
            }
        }
    }
    sol
}

/// Facts holding immediately **before** action `action_idx` of `block`,
/// re-derived from the solved block entry.
pub fn facts_before<F: Fn(&Action, &mut Facts)>(
    cfg: &Cfg,
    sol: &[BlockFacts],
    block: usize,
    action_idx: usize,
    transfer: F,
) -> Facts {
    let mut facts = sol[block].entry.clone();
    for a in cfg.blocks[block].actions.iter().take(action_idx) {
        transfer(a, &mut facts);
    }
    facts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_fns;
    use crate::cfg::Cfg;
    use crate::lexer::lex;

    fn cfg_of(src: &str) -> Cfg {
        let fns = parse_fns(&lex(src).tokens);
        Cfg::build(&fns[0])
    }

    /// A toy transfer: binding from a call to `taint()` marks the names;
    /// any other bind clears them.
    fn toy(action: &Action, facts: &mut Facts) {
        if let Action::Bind {
            names,
            init: Some(init),
            ..
        } = action
        {
            if init.calls_named("taint") || init.idents.iter().any(|i| facts.contains(i)) {
                facts.extend(names.iter().cloned());
            } else {
                for n in names {
                    facts.remove(n);
                }
            }
        }
    }

    /// The block holding the statement that calls `name`.
    fn block_calling(cfg: &Cfg, name: &str) -> usize {
        cfg.blocks
            .iter()
            .position(|b| {
                b.actions
                    .iter()
                    .any(|a| matches!(a, Action::Eval { expr, .. } if expr.calls_named(name)))
            })
            .expect("block with the call")
    }

    #[test]
    fn taint_propagates_through_rebinding() {
        let cfg = cfg_of("fn f() { let a = taint(); let b = a; let c = clean(); use_it(b, c); }");
        let sol = forward_may(&cfg, toy);
        let out = &sol[cfg.entry].exit;
        assert!(out.contains("a") && out.contains("b"), "{out:?}");
        assert!(!out.contains("c"));
    }

    #[test]
    fn may_join_unions_both_branches() {
        let cfg = cfg_of(
            "fn f(c: bool) {\n\
                 let x = clean();\n\
                 let y = clean();\n\
                 if c { let x = taint(); use_it(x); } else { let y = taint(); use_it(y); }\n\
                 after();\n\
             }",
        );
        let sol = forward_may(&cfg, toy);
        // Each name is tainted on one path in only; the join keeps both.
        let after = block_calling(&cfg, "after");
        assert!(sol[after].entry.contains("x"));
        assert!(sol[after].entry.contains("y"));
    }

    #[test]
    fn loop_back_edges_reach_a_fixpoint() {
        let cfg = cfg_of(
            "fn f() {\n\
                 let v = clean();\n\
                 loop {\n\
                     use_it(v);\n\
                     let v = taint();\n\
                     if done() { break; }\n\
                 }\n\
             }",
        );
        // Terminates, and the taint bound at the bottom of the body reaches
        // the use at its top through the back edge.
        let sol = forward_may(&cfg, toy);
        assert!(sol[block_calling(&cfg, "use_it")].entry.contains("v"));
    }

    #[test]
    fn facts_before_walks_partial_blocks() {
        let cfg = cfg_of("fn f() { let a = taint(); let a = clean(); use_it(a); }");
        let sol = forward_may(&cfg, toy);
        // Before the second bind, `a` is tainted; after it, clean.
        let before = facts_before(&cfg, &sol, cfg.entry, 1, toy);
        assert!(before.contains("a"));
        assert!(!sol[cfg.entry].exit.contains("a"));
    }
}
