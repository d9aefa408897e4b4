//! The approXQL evaluation algorithms — the paper's primary contribution.
//!
//! * [`list`] — the list algebra of Sections 6.3/6.4 (`fetch`, `merge`,
//!   `join`, `outerjoin`, `intersect`, `union`, `sort`) over
//!   preorder-sorted lists, generic over what a list keeps per node (a
//!   [`list::CostDomain`]); [`list::Algebra`] is what a compiled plan
//!   executes against. Its data-list value is the two-channel minimum of
//!   the leaf rule below.
//! * [`direct`] — algorithm `primary` (Section 6.5, Figure 4): direct
//!   evaluation of an expanded query against the data-tree indexes,
//!   finding the images of *all* approximate embeddings bottom-up, with
//!   memoization of shared (deletion-bridged) subtrees.
//! * [`topk`] — the schema-list value of Section 7.2: the best *k*
//!   embeddings per node, with which the same algebra, run against the
//!   *schema*, produces the best *k* second-level queries.
//! * [`secondary`] — algorithm `secondary` (Section 7.3, Figure 5):
//!   executing second-level queries against the path-dependent index.
//! * [`schema_eval`] — the incremental best-n driver (Section 7.4,
//!   Figure 6) combining the two.
//! * [`mod@reference`] — a deliberately naive oracle evaluator (explicit
//!   closure enumeration + brute-force embedding search) used by the
//!   property-test suite to validate both fast paths.
//! * [`Database`] — the user-facing facade tying documents, cost model,
//!   indexes, and schema together.
//!
//! ## The leaf rule
//!
//! Definition 4 restricts leaf deletions; the paper's "full version" of
//! `primary` enforces it by rejecting "data subtrees that do not contain
//! matches of any query leaf". We implement exactly that rule: every
//! data-list value carries two cost channels ([`list::Channels`]) — the
//! best embedding cost overall (`any`) and the best cost among embeddings
//! that match at least one original query leaf (`leaf`) — and results are
//! ranked by `leaf` unless [`EvalOptions::enforce_leaf_match`] is switched
//! off. A schema-list candidate is one embedding, so there the rule is a
//! flag (`has_leaf`).

// No panics outside tests: every failure is a typed error or a documented
// exit code (DESIGN.md §11).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
// No silently dropped `Result` outside tests (DESIGN.md §11).
#![cfg_attr(
    not(test),
    deny(clippy::let_underscore_must_use, clippy::unused_result_ok)
)]

pub mod database;
pub mod dbfile;
pub mod direct;
pub mod list;
pub mod reference;
pub mod schema_eval;
pub mod secondary;
pub mod topk;

pub use approxql_query::{QueryInput, Surface};
pub use approxql_storage::CheckReport;
pub use database::{Database, DatabaseError, InsertCostChanged, MutationDelta, NamedHit, QueryHit};
pub use dbfile::DbFile;
pub use direct::{DirectStats, EvalOptions};
pub use reference::ReferenceEvaluator;
pub use schema_eval::{EvalStats, ResultStream, SchemaEvalConfig};
