//! The approXQL query language (Section 3 of the paper) and its
//! representations.
//!
//! The syntactical subset used throughout the paper consists of
//!
//! 1. **name selectors** (`cd`, `title`, …),
//! 2. **text selectors** (`"piano"`, `'concerto'`),
//! 3. the **containment operator** `[…]`,
//! 4. the **Boolean operators** `and` and `or` (with `and` binding tighter,
//!    parentheses for grouping).
//!
//! Example: `cd[title["piano" and "concerto"] and composer["rachmaninov"]]`.
//!
//! That grammar is the **classic surface**, one of the two spellings of
//! the language ([`surface`]):
//!
//! * **classic** — the bracket syntax above ([`parse_query`]),
//! * **json** — a versioned machine-friendly JSON query-IR,
//!   `{"v":1,"query":…}` ([`json_ir`], [`parse_json_query`]).
//!
//! The first character decides the spelling (`{` is JSON-IR), so there
//! is no surface to pin. Both parse to the same [`Query`] AST, are
//! normalized ([`Query::normalize`]) and lower through one shared path to
//! the physical plan, so equivalent queries produce byte-identical plans
//! and share a plan-cache entry whichever way they are spelled. Any
//! accepted query renders canonically into either surface
//! ([`Surface::render`], [`Query::to_json_ir`]). A query nests at most
//! 256 levels in either spelling, and has at most [`MAX_SELECTORS`]
//! selectors, checked where the two parses meet ([`Surface::parse`]).
//!
//! Three representations are provided:
//!
//! * the parsed **AST** ([`Query`] / [`QueryNode`]),
//! * the **separated representation** ([`ConjunctiveQuery`]): every `or`
//!   expanded away, one labeled typed tree per conjunct (Section 3),
//! * the **expanded representation** ([`expand::ExpandedQuery`]): a DAG of
//!   `node` / `leaf` / `and` / `or` representation-type nodes that encodes
//!   *all* semi-transformed queries — every combination of deletions and
//!   renamings — in linear space (Section 6.1).

mod ast;
mod conjunctive;
pub mod expand;
pub mod json;
pub mod json_ir;
mod lexer;
mod parser;
pub mod surface;

pub use ast::{Query, QueryNode};
pub use conjunctive::{ConjunctiveNode, ConjunctiveQuery};
pub use json_ir::{parse_json_query, JSON_IR_VERSION};
pub use parser::{parse_query, ParseError, MAX_SELECTORS};
pub use surface::{QueryInput, Surface};
