//! Synthetic data and query generation (Section 8.1 of the paper).
//!
//! The paper evaluates on collections produced by the XML data generator
//! of Aboulnaga, Naughton, and Zhang (WebDB'01) and on approXQL queries
//! produced by a pattern-driven query generator. Neither tool is publicly
//! available, so this crate reimplements the functionality the experiments
//! depend on:
//!
//! * [`DataGenerator`] — synthetic collections controlled by the same
//!   knobs the paper varies: the number of elements, the element-name pool
//!   size, the term vocabulary, the total number of word occurrences, and
//!   a Zipfian term-frequency distribution. A random recursive "DTD"
//!   (each element name gets a fixed small set of allowed child names)
//!   gives the data the regularity that makes a DataGuide-style schema
//!   much smaller than the data — the property the schema-driven
//!   evaluation exploits.
//! * [`QueryGenerator`] — fills the paper's query patterns (`name` /
//!   `term` templates connected by `and`, `or`, and containment) with
//!   labels drawn from the database indexes, and emits the per-query cost
//!   tables (insert/delete costs and 0/5/10 renamings per label, rename
//!   targets drawn from the indexes).
//!
//! Determinism: both generators are seeded ([`rand::rngs::StdRng`]), so
//! every experiment is reproducible from its configuration.

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

mod data;
mod query;
mod zipf;

pub use data::{DataGenConfig, DataGenerator};
pub use query::{GeneratedQuery, QueryGenConfig, QueryGenerator, PATTERN_1, PATTERN_2, PATTERN_3};
pub use zipf::Zipf;
