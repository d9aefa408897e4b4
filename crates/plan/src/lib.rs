//! Compiled physical-plan IR shared by both evaluators.
//!
//! The expanded query representation (Section 6.1) is *interpreted* twice
//! in the paper: once against the data indexes (the direct evaluation of
//! Section 6.5) and once against the schema (the adapted `primary` of
//! Section 7.2). Both walks drive the same eight-operator algebra, so this
//! crate compiles the expanded DAG **once** into an explicit physical
//! operator DAG — [`PlanOp`] nodes over shared subplan handles — that
//! either evaluator executes through the [`PlanAlgebra`] trait.
//!
//! Compilation hash-conses every operator (common-subexpression
//! elimination): structurally identical subplans get one node, so the
//! per-renaming expansions of a label — which differ only in the ancestor
//! side of their final `Join` — share their entire renaming-independent
//! inner subtree instead of re-evaluating it per ancestor. The number of
//! avoided duplicates is recorded in [`Plan::cse_reuses`] and the
//! `plan.cse_reuses` metric.
//!
//! Execution runs the operators in handle order on the calling thread:
//! compilation puts every input before its consumer, so one forward pass
//! executes each node exactly once however often it is referenced, and
//! drops each output as soon as its last consumer has run.

use approxql_cost::{Cost, NodeType};
use approxql_metrics::Metric;
use approxql_query::expand::{ExpandedNode, ExpandedQuery};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Index of a [`PlanOp`] inside [`Plan::ops`]. Children always have
/// smaller handles than their parents (the DAG is built bottom-up).
pub type PlanHandle = usize;

/// One physical operator. Edge costs of `and`/`or` combinations are always
/// zero in the expanded representation, so only the operators that carry a
/// cost parameter (`Shift`, `Merge`, `OuterJoin`) store one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PlanOp {
    /// Materialize the posting list of a label from the catalog.
    Fetch {
        /// Label text (resolved against the interner at execution time).
        label: String,
        /// Struct or text posting space.
        ty: NodeType,
        /// Leaf fetches carry the zero leaf-cost channel (the leaf rule).
        is_leaf: bool,
    },
    /// Add a pending edge cost to every entry (`or` right branches).
    Shift {
        /// Input list.
        input: PlanHandle,
        /// Cost added to both channels of every entry.
        cost: Cost,
    },
    /// Merge a selector's renamed variants into its candidate list, in one
    /// walk over all of them (each renamed list pays its rename cost).
    Merge {
        /// The original label's list.
        first: PlanHandle,
        /// Each renamed variant's list and rename cost, in renaming order.
        renamed: Vec<(PlanHandle, Cost)>,
    },
    /// Structural join: ancestors that have a descendant in `descendants`.
    Join {
        /// Ancestor candidates.
        ancestors: PlanHandle,
        /// Descendant results.
        descendants: PlanHandle,
    },
    /// Join with an optional (deletable) descendant.
    OuterJoin {
        /// Ancestor candidates.
        ancestors: PlanHandle,
        /// Descendant results.
        descendants: PlanHandle,
        /// Cost of deleting the descendant ([`Cost::INFINITY`] forbids).
        delcost: Cost,
    },
    /// `and` combination of two subexpression results.
    Intersect {
        /// Left operand.
        left: PlanHandle,
        /// Right operand.
        right: PlanHandle,
    },
    /// `or` combination of two subexpression results.
    Union {
        /// Left operand.
        left: PlanHandle,
        /// Right operand.
        right: PlanHandle,
    },
    /// Terminal best-n selection over the root list. Its parameters
    /// (`n`/`k`, the leaf rule) are runtime inputs, not plan constants, so
    /// one compiled plan serves every request and driver round.
    SortBest {
        /// The root list.
        input: PlanHandle,
    },
}

impl PlanOp {
    /// The operator's children, in evaluation-order.
    pub fn inputs(&self) -> Vec<PlanHandle> {
        match *self {
            PlanOp::Fetch { .. } => vec![],
            PlanOp::Shift { input, .. } | PlanOp::SortBest { input } => vec![input],
            PlanOp::Merge { first, ref renamed } => std::iter::once(first)
                .chain(renamed.iter().map(|&(h, _)| h))
                .collect(),
            PlanOp::Intersect { left, right } | PlanOp::Union { left, right } => vec![left, right],
            PlanOp::Join {
                ancestors,
                descendants,
            }
            | PlanOp::OuterJoin {
                ancestors,
                descendants,
                ..
            } => vec![ancestors, descendants],
        }
    }

    /// Operator name as rendered by `--explain`.
    pub fn name(&self) -> &'static str {
        match self {
            PlanOp::Fetch { .. } => "fetch",
            PlanOp::Shift { .. } => "shift",
            PlanOp::Merge { .. } => "merge",
            PlanOp::Join { .. } => "join",
            PlanOp::OuterJoin { .. } => "outerjoin",
            PlanOp::Intersect { .. } => "intersect",
            PlanOp::Union { .. } => "union",
            PlanOp::SortBest { .. } => "sort_best",
        }
    }
}

/// Why an [`ExpandedQuery`] could not be compiled. Queries built through
/// the parser always compile; these cover hand-constructed arenas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The root of the expanded query is not a selector (`Node`/`Leaf`).
    NonSelectorRoot,
    /// A child index pointed outside the arena.
    BadNodeIndex(usize),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NonSelectorRoot => {
                write!(f, "query root must be a selector (name or text)")
            }
            PlanError::BadNodeIndex(i) => write!(f, "expanded-query child index {i} out of range"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A compiled physical plan: an operator DAG in topological order.
#[derive(Debug, Clone)]
pub struct Plan {
    ops: Vec<PlanOp>,
    result: PlanHandle,
    root_list: PlanHandle,
    uses: Vec<u32>,
    cse_reuses: u64,
}

impl Plan {
    /// All operators, indexed by [`PlanHandle`].
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// The terminal [`PlanOp::SortBest`] node.
    pub fn result(&self) -> PlanHandle {
        self.result
    }

    /// The root *list* (the `SortBest` input).
    pub fn root_list(&self) -> PlanHandle {
        self.root_list
    }

    /// How many operators reference this node (plus one for the root).
    /// `> 1` means the subplan is CSE-shared.
    pub fn use_count(&self, h: PlanHandle) -> u32 {
        self.uses.get(h).copied().unwrap_or(0)
    }

    /// Structurally identical subplans merged away during compilation.
    pub fn cse_reuses(&self) -> u64 {
        self.cse_reuses
    }

    /// Number of shared (use-count > 1) operators.
    pub fn shared_ops(&self) -> usize {
        self.uses.iter().filter(|&&u| u > 1).count()
    }
}

struct Compiler<'a> {
    ex: &'a ExpandedQuery,
    ops: Vec<PlanOp>,
    intern: HashMap<PlanOp, PlanHandle>,
    /// `(expanded node, ancestor handle)` → result, mirroring the paper's
    /// Section 6.5 memo but keyed structurally instead of by identity.
    eval_memo: HashMap<(usize, PlanHandle), PlanHandle>,
    /// Per-`Node` renaming-merged child result (ancestor-independent).
    under_memo: HashMap<usize, PlanHandle>,
    cse: u64,
}

impl Compiler<'_> {
    fn intern(&mut self, op: PlanOp) -> PlanHandle {
        if let Some(&h) = self.intern.get(&op) {
            self.cse += 1;
            return h;
        }
        let h = self.ops.len();
        self.ops.push(op.clone());
        self.intern.insert(op, h);
        h
    }

    fn node(&self, u: usize) -> Result<&ExpandedNode, PlanError> {
        self.ex.nodes.get(u).ok_or(PlanError::BadNodeIndex(u))
    }

    /// One `merge` of a selector's original list and its renamed variants;
    /// a selector without renamings needs none.
    fn merge(&mut self, first: PlanHandle, renamed: Vec<(PlanHandle, Cost)>) -> PlanHandle {
        if renamed.is_empty() {
            first
        } else {
            self.intern(PlanOp::Merge { first, renamed })
        }
    }

    /// The candidate list of a selector: its label's posting merged with
    /// every renamed label's (rename costs applied), in renaming order.
    fn fetch_merged(
        &mut self,
        label: &str,
        ty: NodeType,
        renamings: &[(String, Cost)],
        is_leaf: bool,
    ) -> PlanHandle {
        let first = self.intern(PlanOp::Fetch {
            label: label.to_owned(),
            ty,
            is_leaf,
        });
        let mut renamed = Vec::with_capacity(renamings.len());
        for (ren, c_ren) in renamings {
            let r = self.intern(PlanOp::Fetch {
                label: ren.clone(),
                ty,
                is_leaf,
            });
            renamed.push((r, *c_ren));
        }
        self.merge(first, renamed)
    }

    /// The renaming-merged child result of a `Node`: the child evaluated
    /// under the original label's ancestor list and under each renaming's,
    /// merged in renaming order. Ancestor-independent, hence memoized per
    /// arena node — this is the subtree the per-renaming `Join`s share.
    fn under_renamings(&mut self, u: usize) -> Result<PlanHandle, PlanError> {
        if let Some(&h) = self.under_memo.get(&u) {
            self.cse += 1;
            return Ok(h);
        }
        let ExpandedNode::Node {
            label,
            ty,
            renamings,
            child,
        } = self.node(u)?.clone()
        else {
            return Err(PlanError::BadNodeIndex(u));
        };
        let anc0 = self.intern(PlanOp::Fetch {
            label: label.clone(),
            ty,
            is_leaf: false,
        });
        let first = self.eval(child, anc0)?;
        let mut renamed = Vec::with_capacity(renamings.len());
        for (ren, c_ren) in &renamings {
            let anc = self.intern(PlanOp::Fetch {
                label: ren.clone(),
                ty,
                is_leaf: false,
            });
            renamed.push((self.eval(child, anc)?, *c_ren));
        }
        let h = self.merge(first, renamed);
        self.under_memo.insert(u, h);
        Ok(h)
    }

    /// Compiles the evaluation of expanded node `u` below the ancestor
    /// candidates `anc` — the plan-level image of Figure 4's recursion.
    /// Edge costs are not applied here; `Or` parents shift afterwards, so
    /// the memo key stays independent of the incoming edge.
    fn eval(&mut self, u: usize, anc: PlanHandle) -> Result<PlanHandle, PlanError> {
        if let Some(&h) = self.eval_memo.get(&(u, anc)) {
            self.cse += 1;
            return Ok(h);
        }
        let h = match self.node(u)?.clone() {
            ExpandedNode::Leaf {
                label,
                ty,
                renamings,
                delcost,
            } => {
                let ld = self.fetch_merged(&label, ty, &renamings, true);
                self.intern(PlanOp::OuterJoin {
                    ancestors: anc,
                    descendants: ld,
                    delcost,
                })
            }
            ExpandedNode::Node { .. } => {
                let res = self.under_renamings(u)?;
                self.intern(PlanOp::Join {
                    ancestors: anc,
                    descendants: res,
                })
            }
            ExpandedNode::And { left, right } => {
                let l = self.eval(left, anc)?;
                let r = self.eval(right, anc)?;
                self.intern(PlanOp::Intersect { left: l, right: r })
            }
            ExpandedNode::Or {
                left,
                right,
                edgecost,
            } => {
                let l = self.eval(left, anc)?;
                let r = self.eval(right, anc)?;
                let s = self.intern(PlanOp::Shift {
                    input: r,
                    cost: edgecost,
                });
                self.intern(PlanOp::Union { left: l, right: s })
            }
        };
        self.eval_memo.insert((u, anc), h);
        Ok(h)
    }
}

/// Compiles an expanded query into a physical plan.
///
/// The compiled DAG mirrors Figure 4 exactly — the root selector is never
/// joined with an ancestor list — with structurally identical subplans
/// hash-consed into shared nodes. Sharing changes the *work*, never the
/// *result*: a shared node produces the identical list its duplicates
/// would have produced.
pub fn compile(expanded: &ExpandedQuery) -> Result<Plan, PlanError> {
    Metric::PlanCompile.incr();
    let mut c = Compiler {
        ex: expanded,
        ops: Vec::new(),
        intern: HashMap::new(),
        eval_memo: HashMap::new(),
        under_memo: HashMap::new(),
        cse: 0,
    };
    let root_list = match c.node(expanded.root)?.clone() {
        ExpandedNode::Leaf {
            label,
            ty,
            renamings,
            ..
        } => c.fetch_merged(&label, ty, &renamings, true),
        ExpandedNode::Node { .. } => c.under_renamings(expanded.root)?,
        _ => return Err(PlanError::NonSelectorRoot),
    };
    let result = c.intern(PlanOp::SortBest { input: root_list });
    Metric::PlanCseReuses.add(c.cse);

    // Reference counts (the root gets one implicit use).
    let mut uses = vec![0u32; c.ops.len()];
    for op in &c.ops {
        for i in op.inputs() {
            uses[i] += 1;
        }
    }
    uses[result] += 1;

    Ok(Plan {
        ops: c.ops,
        result,
        root_list,
        uses,
        cse_reuses: c.cse,
    })
}

/// The list algebra a plan executes against — implemented over the data
/// indexes (Section 6.4 lists, outside this crate) and over the schema
/// (Section 7.2 k-lists). Edge costs of `Intersect`/`Union` are always
/// zero and therefore not passed.
pub trait PlanAlgebra {
    /// The list type the algebra operates on.
    type L;

    /// The empty list (used as a total fallback for malformed plans).
    fn empty(&self) -> Self::L;
    /// Materialize a label's posting list.
    fn fetch(&self, label: &str, ty: NodeType, is_leaf: bool) -> Self::L;
    /// Add `cost` to every entry.
    fn shift(&self, l: &Self::L, cost: Cost) -> Self::L;
    /// Merge a selector's list with its renamed variants' lists, each
    /// renamed list paying its rename cost.
    fn merge(&self, first: &Self::L, renamed: &[(&Self::L, Cost)]) -> Self::L;
    /// Structural ancestor/descendant join.
    fn join(&self, anc: &Self::L, desc: &Self::L) -> Self::L;
    /// Join with optional (deletable) descendant.
    fn outerjoin(&self, anc: &Self::L, desc: &Self::L, delcost: Cost) -> Self::L;
    /// `and` combination.
    fn intersect(&self, l: &Self::L, r: &Self::L) -> Self::L;
    /// `or` combination.
    fn union(&self, l: &Self::L, r: &Self::L) -> Self::L;
    /// Takes back an output that no consumer still to run reads, so that
    /// its memory can serve a later output. The default drops it.
    fn recycle(&self, l: Self::L) {
        drop(l);
    }
}

/// Executes every list-valued operator of `plan` exactly once, in handle
/// order (every input precedes its consumer), and returns the
/// [`Plan::root_list`] list; the caller applies its best-n/best-k
/// selection to it.
///
/// `seen` is shown each operator's output once, right after it is
/// produced. An output is then kept only while a consumer that has not
/// run yet needs it: it is handed to [`PlanAlgebra::recycle`] as soon as
/// its last consumer has run, so at most the lists still to be read are
/// resident. The root list is never recycled.
pub fn execute<A: PlanAlgebra>(
    plan: &Plan,
    alg: &A,
    mut seen: impl FnMut(PlanHandle, &A::L),
) -> Option<A::L> {
    let mut slots: Vec<Option<A::L>> = std::iter::repeat_with(|| None)
        .take(plan.ops.len())
        .collect();
    // Consumers still to run, per operator; the terminal `SortBest` never
    // runs, so its input (the root list) never reaches 0.
    let mut pending = plan.uses.clone();
    for (h, op) in plan.ops.iter().enumerate() {
        if h == plan.result {
            continue;
        }
        let out = run_op(alg, op, &slots);
        seen(h, &out);
        slots[h] = Some(out);
        for i in op.inputs() {
            if let Some(p) = pending.get_mut(i) {
                *p = p.saturating_sub(1);
                if *p == 0 {
                    if let Some(l) = slots[i].take() {
                        alg.recycle(l);
                    }
                }
            }
        }
    }
    slots.get_mut(plan.root_list).and_then(Option::take)
}

/// Executes one operator against the slots of its inputs. Total: an input
/// that is missing (a handle not below the operator's own) yields an empty
/// list rather than a panic.
fn run_op<A: PlanAlgebra>(alg: &A, op: &PlanOp, slots: &[Option<A::L>]) -> A::L {
    let mut vals = Vec::with_capacity(2);
    for i in op.inputs() {
        match slots.get(i).and_then(Option::as_ref) {
            Some(v) => vals.push(v),
            None => return alg.empty(),
        }
    }
    match (op, vals.as_slice()) {
        (PlanOp::Fetch { label, ty, is_leaf }, _) => alg.fetch(label, *ty, *is_leaf),
        (PlanOp::Shift { cost, .. }, [l]) => alg.shift(l, *cost),
        (PlanOp::Merge { renamed, .. }, [first, lists @ ..]) => {
            let costs = renamed.iter().map(|&(_, c)| c);
            let lists: Vec<(&A::L, Cost)> = lists.iter().copied().zip(costs).collect();
            alg.merge(first, &lists)
        }
        (PlanOp::Join { .. }, [a, d]) => alg.join(a, d),
        (PlanOp::OuterJoin { delcost, .. }, [a, d]) => alg.outerjoin(a, d, *delcost),
        (PlanOp::Intersect { .. }, [l, r]) => alg.intersect(l, r),
        (PlanOp::Union { .. }, [l, r]) => alg.union(l, r),
        // SortBest is terminal and never scheduled; arity mismatches
        // cannot happen for compiled plans.
        _ => alg.empty(),
    }
}

/// Renders a plan as an indented operator tree for `--explain`.
///
/// Deterministic: nodes print in DFS order from the terminal `SortBest`,
/// children in evaluation order. A CSE-shared node prints its subtree on
/// first visit with a `shared ×k` annotation and a one-line `see #h`
/// back-reference afterwards. `counts` (one entry per operator, e.g.
/// output entry counts from an execution) annotates each first visit.
pub fn render(plan: &Plan, counts: Option<&[u64]>) -> String {
    let mut out = String::new();
    let mut seen = vec![false; plan.ops().len()];
    render_node(plan, plan.result(), 0, counts, &mut seen, &mut out);
    out
}

fn op_params(op: &PlanOp) -> String {
    match op {
        PlanOp::Fetch { label, ty, is_leaf } => {
            let kind = match ty {
                NodeType::Struct => "struct",
                NodeType::Text => "text",
            };
            let leaf = if *is_leaf { ", leaf" } else { "" };
            format!(" {kind} \"{label}\"{leaf}")
        }
        PlanOp::Shift { cost, .. } => format!(" +{cost}"),
        PlanOp::Merge { renamed, .. } => {
            let costs: Vec<String> = renamed.iter().map(|(_, c)| format!("+{c}")).collect();
            format!(" ren{}", costs.join(","))
        }
        PlanOp::OuterJoin { delcost, .. } => format!(" del+{delcost}"),
        _ => String::new(),
    }
}

/// A 64-bit FNV-1a fingerprint of the plan's *shape*: the deterministic
/// `render` text (operators, parameters, sharing structure), independent
/// of runtime counts. Two queries — from any surface — that compile to
/// byte-identical plans have equal fingerprints, which is what
/// `--explain --format json` exposes for cross-surface plan diffing.
pub fn fingerprint(plan: &Plan) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in render(plan, None).bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Renders a plan as a JSON document for `--explain --format json`: the
/// operator DAG with parameters, inputs and use counts, and the shape
/// [`fingerprint`]. `counts` adds an `"entries"`
/// member per operator. Deterministic and compact; handles are the `ops`
/// array indices.
pub fn render_json(plan: &Plan, counts: Option<&[u64]>) -> String {
    let mut out = String::from("{\"v\":1,\"fingerprint\":");
    let _ = write!(out, "\"{:#018x}\"", fingerprint(plan));
    out.push_str(",\"ops\":[");
    for (h, op) in plan.ops().iter().enumerate() {
        if h > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"id\":{h},\"op\":\"{}\"", op.name());
        let params = op_params(op);
        if !params.is_empty() {
            out.push_str(",\"params\":");
            approxql_query::json::write_str(&mut out, params.trim_start());
        }
        out.push_str(",\"inputs\":[");
        for (i, input) in op.inputs().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{input}");
        }
        let _ = write!(out, "],\"uses\":{}", plan.use_count(h));
        if let Some(n) = counts.and_then(|c| c.get(h)) {
            let _ = write!(out, ",\"entries\":{n}");
        }
        out.push('}');
    }
    let _ = write!(
        out,
        "],\"result\":{},\"root_list\":{},\"cse_reuses\":{}}}",
        plan.result(),
        plan.root_list(),
        plan.cse_reuses()
    );
    out
}

fn render_node(
    plan: &Plan,
    h: PlanHandle,
    indent: usize,
    counts: Option<&[u64]>,
    seen: &mut [bool],
    out: &mut String,
) {
    let pad = "  ".repeat(indent);
    let op = &plan.ops()[h];
    if seen[h] {
        let _ = writeln!(out, "{pad}#{h} {} (see above)", op.name());
        return;
    }
    seen[h] = true;
    let shared = if plan.use_count(h) > 1 {
        format!(" shared ×{}", plan.use_count(h))
    } else {
        String::new()
    };
    let entries = counts
        .and_then(|c| c.get(h))
        .map(|n| format!(" — {n} entries"))
        .unwrap_or_default();
    let _ = writeln!(
        out,
        "{pad}#{h} {}{}{shared}{entries}",
        op.name(),
        op_params(op)
    );
    for i in op.inputs() {
        render_node(plan, i, indent + 1, counts, seen, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxql_cost::CostModel;
    use approxql_query::parse_query;

    /// Compiles `q` and checks the order [`execute`] relies on on every
    /// plan this suite builds: each operator's inputs have smaller handles
    /// than the operator itself, and the terminal `SortBest` comes last.
    fn plan_for(q: &str, costs: &CostModel) -> Plan {
        let query = parse_query(q).unwrap();
        let ex = ExpandedQuery::build(&query, costs);
        let p = compile(&ex).unwrap();
        for (h, op) in p.ops().iter().enumerate() {
            for i in op.inputs() {
                assert!(i < h, "{q}: op {h} reads input {i}, which runs later");
            }
        }
        assert_eq!(p.result(), p.ops().len() - 1, "{q}: sort_best is not last");
        p
    }

    #[test]
    fn simple_chain_has_no_sharing() {
        let p = plan_for(r#"a[b["w"]]"#, &CostModel::new());
        assert_eq!(p.cse_reuses(), 0);
        assert_eq!(p.shared_ops(), 0);
        // fetch a, fetch b, fetch w, outerjoin, join, sort_best
        assert_eq!(p.ops().len(), 6);
        assert!(matches!(p.ops()[p.result()], PlanOp::SortBest { .. }));
    }

    #[test]
    fn fingerprint_tracks_plan_shape() {
        let costs = CostModel::new();
        let a = plan_for(r#"a[b["w"]]"#, &costs);
        let same = plan_for(r#"a[b["w"]]"#, &costs);
        let other = plan_for(r#"a[b["v"]]"#, &costs);
        assert_eq!(fingerprint(&a), fingerprint(&same));
        assert_ne!(fingerprint(&a), fingerprint(&other));
    }

    #[test]
    fn render_json_is_valid_and_complete() {
        let p = plan_for(r#"a[b["w"]]"#, &CostModel::new());
        let counts: Vec<u64> = (0..p.ops().len() as u64).collect();
        let doc = approxql_query::json::parse(&render_json(&p, Some(&counts))).unwrap();
        assert_eq!(doc.get("v").unwrap().as_uint(), Some(1));
        let fp = doc.get("fingerprint").unwrap().as_str().unwrap().to_owned();
        assert_eq!(fp, format!("{:#018x}", fingerprint(&p)));
        let ops = doc.get("ops").unwrap().as_arr().unwrap();
        assert_eq!(ops.len(), p.ops().len());
        assert_eq!(ops[0].get("op").unwrap().as_str(), Some("fetch"));
        assert!(ops[0]
            .get("params")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("struct"));
        assert_eq!(ops[3].get("entries").unwrap().as_uint(), Some(3));
        assert_eq!(
            doc.get("result").unwrap().as_uint(),
            Some(p.result() as u64)
        );
        // Without counts there is no "entries" member.
        let bare = approxql_query::json::parse(&render_json(&p, None)).unwrap();
        let bare_ops = bare.get("ops").unwrap().as_arr().unwrap();
        assert!(bare_ops.iter().all(|o| o.get("entries").is_none()));
    }

    #[test]
    fn renamings_share_the_inner_subtree() {
        let costs = CostModel::builder()
            .insert_default(1)
            .rename(NodeType::Struct, "a", "x", Cost::finite(2))
            .rename(NodeType::Struct, "a", "y", Cost::finite(3))
            .build();
        let p = plan_for(r#"a[b["w"]]"#, &costs);
        // The child's Join differs per ancestor (a, x, y), but the inner
        // OuterJoin(fetch b, fetch w) subtree is compiled once.
        assert!(p.cse_reuses() > 0, "expected CSE reuses, got 0");
        let outerjoins = p
            .ops()
            .iter()
            .filter(|o| matches!(o, PlanOp::OuterJoin { .. }))
            .count();
        assert_eq!(outerjoins, 1);
        let joins = p
            .ops()
            .iter()
            .filter(|o| matches!(o, PlanOp::Join { .. }))
            .count();
        assert_eq!(joins, 3);
        // `a`'s child under `a`, `x` and `y` meets in one merge.
        let merges: Vec<&PlanOp> = p
            .ops()
            .iter()
            .filter(|o| matches!(o, PlanOp::Merge { .. }))
            .collect();
        assert!(
            matches!(merges[..], [PlanOp::Merge { renamed, .. }] if renamed.len() == 2),
            "{merges:?}"
        );
    }

    #[test]
    fn deletion_bridges_share_the_bridged_child() {
        let costs = CostModel::builder()
            .insert_default(1)
            .delete(NodeType::Struct, "b", Cost::finite(2))
            .build();
        let p = plan_for(r#"a[b["w"]]"#, &costs);
        // Deletion of b: Or(Join(b, leaf-under-b), Shift(leaf-under-a)).
        assert!(p.ops().iter().any(|o| matches!(o, PlanOp::Union { .. })));
        assert!(p.ops().iter().any(|o| matches!(o, PlanOp::Shift { .. })));
        // The leaf's fetch is shared between both branches.
        assert!(p.shared_ops() > 0);
    }

    #[test]
    fn inputs_precede_their_consumers() {
        let costs = CostModel::builder()
            .insert_default(1)
            .rename(NodeType::Struct, "b", "c", Cost::finite(2))
            .delete(NodeType::Struct, "b", Cost::finite(3))
            .delete(NodeType::Text, "w", Cost::finite(1))
            .build();
        // `plan_for` checks the handle order; these cover every operator.
        for q in [
            r#"a[b["w" and "v"]]"#,
            r#"a[b["w" or "v"] and c]"#,
            r#"a[b[c["w"]]]"#,
            "a",
        ] {
            plan_for(q, &costs);
        }
    }

    /// Lists that know which of them are alive: the `n`-th list created
    /// has id `n`, and dropping it takes it out of `alive`. `recycled`
    /// holds the ids handed back, in order.
    #[derive(Default)]
    struct Live {
        created: std::cell::Cell<usize>,
        alive: std::cell::RefCell<std::collections::BTreeSet<usize>>,
        recycled: std::cell::RefCell<Vec<usize>>,
    }

    struct Tracked<'a>(usize, &'a Live);

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            self.1.alive.borrow_mut().remove(&self.0);
        }
    }

    struct Counting<'a>(&'a Live);

    impl<'a> Counting<'a> {
        fn list(&self) -> Tracked<'a> {
            let id = self.0.created.get();
            self.0.created.set(id + 1);
            self.0.alive.borrow_mut().insert(id);
            Tracked(id, self.0)
        }
    }

    impl<'a> PlanAlgebra for Counting<'a> {
        type L = Tracked<'a>;
        fn empty(&self) -> Tracked<'a> {
            self.list()
        }
        fn fetch(&self, _: &str, _: NodeType, _: bool) -> Tracked<'a> {
            self.list()
        }
        fn shift(&self, _: &Tracked<'a>, _: Cost) -> Tracked<'a> {
            self.list()
        }
        fn merge(&self, _: &Tracked<'a>, _: &[(&Tracked<'a>, Cost)]) -> Tracked<'a> {
            self.list()
        }
        fn join(&self, _: &Tracked<'a>, _: &Tracked<'a>) -> Tracked<'a> {
            self.list()
        }
        fn outerjoin(&self, _: &Tracked<'a>, _: &Tracked<'a>, _: Cost) -> Tracked<'a> {
            self.list()
        }
        fn intersect(&self, _: &Tracked<'a>, _: &Tracked<'a>) -> Tracked<'a> {
            self.list()
        }
        fn union(&self, _: &Tracked<'a>, _: &Tracked<'a>) -> Tracked<'a> {
            self.list()
        }
        fn recycle(&self, l: Tracked<'a>) {
            self.0.recycled.borrow_mut().push(l.0);
        }
    }

    #[test]
    fn outputs_are_dropped_after_their_last_consumer() {
        let costs = CostModel::builder()
            .insert_default(1)
            .rename(NodeType::Struct, "a", "x", Cost::finite(2))
            .rename(NodeType::Struct, "b", "c", Cost::finite(2))
            .delete(NodeType::Struct, "b", Cost::finite(3))
            .delete(NodeType::Text, "w", Cost::finite(1))
            .build();
        let p = plan_for(r#"a[b["w" or "v"] and c]"#, &costs);
        assert!(p.shared_ops() > 0, "the plan shares no output");
        // The handle of each operator's last consumer (`SortBest` for the
        // root list); `None` for the terminal `SortBest` itself.
        let mut last = vec![None; p.ops().len()];
        for (h, op) in p.ops().iter().enumerate() {
            for i in op.inputs() {
                last[i] = Some(h);
            }
        }
        let live = Live::default();
        let root = execute(&p, &Counting(&live), |h, out| {
            // Operators run in handle order, one list each.
            assert_eq!(out.0, h);
            // Alive: this output, and every earlier one whose last
            // consumer is this operator or still to run.
            let want: std::collections::BTreeSet<usize> = (0..=h)
                .filter(|&j| j == h || last[j].is_some_and(|c| c >= h))
                .collect();
            assert_eq!(*live.alive.borrow(), want, "at operator {h}");
            // Every output dropped so far went through `recycle`, once.
            let mut recycled = live.recycled.borrow().clone();
            recycled.sort_unstable();
            let dropped: Vec<usize> = (0..=h).filter(|j| !want.contains(j)).collect();
            assert_eq!(recycled, dropped, "at operator {h}");
        });
        let root = root.expect("the root list is returned");
        assert_eq!(root.0, p.root_list());
        assert_eq!(*live.alive.borrow(), [p.root_list()].into());
        // Every output but the root list was recycled, each once.
        let mut recycled = live.recycled.borrow().clone();
        recycled.sort_unstable();
        let others: Vec<usize> = (0..live.created.get())
            .filter(|&j| j != p.root_list())
            .collect();
        assert_eq!(recycled, others);
        assert_eq!(live.created.get(), p.ops().len() - 1);
        drop(root);
        assert!(live.alive.borrow().is_empty());
    }

    #[test]
    fn non_selector_root_is_an_error() {
        let query = parse_query(r#"a["w"]"#).unwrap();
        let mut ex = ExpandedQuery::build(&query, &CostModel::new());
        // Corrupt the arena: point the root at the And/Or-free leaf's
        // position and splice in an And root.
        let leaf = 0;
        ex.nodes.push(ExpandedNode::And {
            left: leaf,
            right: leaf,
        });
        ex.root = ex.nodes.len() - 1;
        assert!(matches!(compile(&ex), Err(PlanError::NonSelectorRoot)));
    }

    #[test]
    fn render_marks_shared_nodes_once() {
        let costs = CostModel::builder()
            .insert_default(1)
            .rename(NodeType::Struct, "a", "x", Cost::finite(2))
            .build();
        let p = plan_for(r#"a[b["w"]]"#, &costs);
        let text = render(&p, None);
        assert!(text.contains("shared ×"), "no sharing annotation:\n{text}");
        // Every operator prints its full line exactly once; repeat visits
        // collapse to back-references.
        let first_prints = text.lines().filter(|l| !l.contains("(see above)")).count();
        assert_eq!(first_prints, p.ops().len());
    }
}
