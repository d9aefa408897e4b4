//! # approxql — approximate tree-pattern queries over XML
//!
//! A complete reproduction of Torsten Schlieder, *"Schema-Driven Evaluation
//! of Approximate Tree-Pattern Queries"* (EDBT 2002): the approXQL query
//! language, its cost-based transformation semantics, the direct evaluation
//! algorithm (`primary`), and the schema-driven best-*n* evaluation built on
//! a DataGuide-style structural summary.
//!
//! This facade crate re-exports the public API of every subsystem crate.
//! Most users only need [`Database`]:
//!
//! ```
//! use approxql::{Database, CostModel, NodeType, Cost};
//!
//! let xml = r#"<catalog>
//!   <cd><title>piano concerto</title><composer>rachmaninov</composer></cd>
//!   <cd><title>piano sonata</title><composer>brahms</composer></cd>
//! </catalog>"#;
//!
//! let costs = CostModel::builder()
//!     .delete(NodeType::Text, "concerto", Cost::finite(6))
//!     .build();
//! let db = Database::from_xml_str(xml, costs).unwrap();
//! let hits = db.query_direct(r#"cd[title["piano" and "concerto"]]"#, Some(10)).unwrap();
//! assert_eq!(hits.len(), 2); // exact match + match with "concerto" deleted
//! assert_eq!(hits[0].cost, Cost::ZERO);
//! ```

pub use approxql_core::{
    Database, DatabaseError, DbFile, EvalOptions, EvalStats, MutationDelta, QueryHit,
    ReferenceEvaluator,
};
pub use approxql_metrics::{
    reset as reset_metrics, snapshot as metrics_snapshot, Metric, MetricsSnapshot, TimerMetric,
};

pub use approxql_cost::{
    parse_cost_file, tables, write_cost_file, Cost, CostFileError, CostModel, CostModelBuilder,
    NodeType,
};
pub use approxql_query::{
    expand::{ExpandedNode, ExpandedQuery, RepType},
    parse_query, ConjunctiveNode, ConjunctiveQuery, ParseError, Query, QueryInput, QueryNode,
    Surface,
};
pub use approxql_tree::{DataTree, DataTreeBuilder, NodeId, TreeError};
pub use approxql_xml::{parse_document, Document, XmlError, XmlEvent, XmlReader};

/// Re-export of the whole subsystem crates for advanced use.
pub mod crates {
    pub use approxql_core as core;
    pub use approxql_cost as cost;
    pub use approxql_gen as gen;
    pub use approxql_index as index;
    pub use approxql_metrics as metrics;
    pub use approxql_plan as plan;
    pub use approxql_query as query;
    pub use approxql_schema as schema;
    pub use approxql_storage as storage;
    pub use approxql_tree as tree;
    pub use approxql_xml as xml;
}
