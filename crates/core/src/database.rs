//! The user-facing facade: documents + cost model + indexes + schema.

use crate::direct::{self, DirectStats, EvalOptions};
use crate::schema_eval::{self, EvalStats, SchemaEvalConfig};
use approxql_cost::{parse_cost_file, write_cost_file, Cost, CostFileError, CostModel, NodeType};
use approxql_index::persist::{
    load_blob, load_label_index, load_secondary_index, save_blob, save_label_index,
    save_secondary_index, PersistError,
};
use approxql_index::{LabelIndex, Posting};
use approxql_metrics::Metric;
use approxql_plan::{self as plan, Plan, PlanOp};
use approxql_query::expand::ExpandedQuery;
use approxql_query::{ParseError, Query, QueryInput};
use approxql_schema::{Schema, SchemaAssembleError, SchemaDelta};
use approxql_storage::{CheckReport, StorageError, Store};
use approxql_tree::{
    decode_doc_segment, decode_docmap, decode_interner, encode_docmap, encode_interner, DataTree,
    DataTreeBuilder, DocSpan, LabelId, NodeId, TreeDecodeError, TreeError,
};
use approxql_xml::{parse_document, Document, Element, XmlError};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Errors raised by [`Database`] operations.
#[derive(Debug)]
pub enum DatabaseError {
    /// Malformed XML input.
    Xml(XmlError),
    /// Malformed approXQL query.
    Query(ParseError),
    /// Tree-level failure (e.g. materializing a text node).
    Tree(TreeError),
    /// Storage-layer failure.
    Storage(StorageError),
    /// Index (de)serialization failure.
    Persist(PersistError),
    /// Serialized tree decoding failure.
    TreeDecode(TreeDecodeError),
    /// Stored cost file failed to parse.
    CostFile(CostFileError),
    /// The persisted schema parts contradict the data tree.
    Schema(SchemaAssembleError),
}

impl fmt::Display for DatabaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatabaseError::Xml(e) => write!(f, "{e}"),
            DatabaseError::Query(e) => write!(f, "{e}"),
            DatabaseError::Tree(e) => write!(f, "{e}"),
            DatabaseError::Storage(e) => write!(f, "{e}"),
            DatabaseError::Persist(e) => write!(f, "{e}"),
            DatabaseError::TreeDecode(e) => write!(f, "{e}"),
            DatabaseError::CostFile(e) => write!(f, "{e}"),
            DatabaseError::Schema(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DatabaseError {}

macro_rules! from_error {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for DatabaseError {
            fn from(e: $ty) -> Self {
                DatabaseError::$variant(e)
            }
        }
    };
}

from_error!(Xml, XmlError);
from_error!(Query, ParseError);
from_error!(Tree, TreeError);
from_error!(Storage, StorageError);
from_error!(Persist, PersistError);
from_error!(TreeDecode, TreeDecodeError);
from_error!(CostFile, CostFileError);
from_error!(Schema, SchemaAssembleError);

/// One result of a query: the embedding root and its cost (Definition 11's
/// root–cost pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryHit {
    /// Root of the result subtree.
    pub root: NodeId,
    /// Embedding cost (0 = exact match).
    pub cost: Cost,
}

/// Capacity of the per-database compiled-plan LRU cache. Production
/// workloads repeat a small set of query shapes (the ROADMAP's serving
/// scenario); 32 plans cover them while bounding memory.
const PLAN_CACHE_CAP: usize = 32;

/// The keyed plan cache: most-recently-used first. Keys pair the
/// normalized query text (the parsed query's canonical rendering) with
/// the cost-model fingerprint, so a plan is only reused when both the
/// structure *and* the expansion-driving costs are unchanged. Each entry
/// records the set of labels its plan fetches so mutations can evict
/// exactly the plans whose inputs they touched (DESIGN.md §15).
struct PlanCache {
    entries: Vec<PlanCacheEntry>,
}

/// One cache entry: `(cost fingerprint, normalized query)` key, the
/// compiled plan, and its fetch-label invalidation footprint.
type PlanCacheEntry = ((u64, String), Arc<Plan>, HashSet<String>);

/// The labels a compiled plan reads from the label indexes — the entry's
/// invalidation footprint.
fn fetch_labels(plan: &Plan) -> HashSet<String> {
    plan.ops()
        .iter()
        .filter_map(|op| match op {
            PlanOp::Fetch { label, .. } => Some(label.clone()),
            _ => None,
        })
        .collect()
}

impl PlanCache {
    fn get(&mut self, key: &(u64, String)) -> Option<Arc<Plan>> {
        let pos = self.entries.iter().position(|(k, _, _)| k == key)?;
        let hit = self.entries.remove(pos);
        let plan = Arc::clone(&hit.1);
        self.entries.insert(0, hit);
        Some(plan)
    }

    fn insert(&mut self, key: (u64, String), plan: Arc<Plan>) {
        self.entries.retain(|(k, _, _)| *k != key);
        let labels = fetch_labels(&plan);
        self.entries.insert(0, (key, plan, labels));
        self.entries.truncate(PLAN_CACHE_CAP);
    }

    /// Drops every entry whose fetch set intersects `touched`; returns the
    /// eviction count.
    fn invalidate_touching(&mut self, touched: &HashSet<String>) -> u64 {
        let before = self.entries.len();
        self.entries
            .retain(|(_, _, labels)| labels.is_disjoint(touched));
        (before - self.entries.len()) as u64
    }
}

/// FNV-1a over the canonical cost-file rendering: a stable fingerprint of
/// everything that influences query expansion.
fn cost_fingerprint(costs: &CostModel) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in write_cost_file(costs).as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What one document mutation changed, at the granularity the
/// persistence layer writes: the affected preorder span, the data-level
/// label postings rewritten or emptied, the schema-side delta, and
/// whether the mutation interned new labels. Produced by
/// [`Database::insert_document`] / [`Database::delete_document`] and
/// consumed by [`crate::DbFile`] to persist only the changed keys.
#[derive(Debug)]
pub struct MutationDelta {
    /// Preorder range of the inserted or tombstoned document.
    pub span: DocSpan,
    /// Label postings whose block lists changed (rewrite their keys).
    pub touched_labels: Vec<(NodeType, LabelId)>,
    /// Label postings that emptied entirely (delete their keys).
    pub removed_labels: Vec<(NodeType, LabelId)>,
    /// Schema-side changes (secondary postings, structural rebuild flag).
    pub schema: SchemaDelta,
    /// `true` when the mutation added strings to the interner.
    pub interner_changed: bool,
}

/// An approXQL database: the data tree with its label indexes, schema, and
/// cost model. See the crate docs for an end-to-end example.
pub struct Database {
    tree: DataTree,
    costs: CostModel,
    labels: LabelIndex,
    schema: Schema,
    /// Fingerprint of `costs` (part of every plan-cache key).
    costs_fp: u64,
    /// Bumped once per document mutation: external caches keyed on query
    /// results (anything outside the plan cache) compare stamps to detect
    /// staleness.
    generation: u64,
    /// Compiled physical plans keyed by (cost fingerprint, query text).
    plan_cache: Mutex<PlanCache>,
}

impl Database {
    fn assemble(tree: DataTree, costs: CostModel, labels: LabelIndex, schema: Schema) -> Database {
        let costs_fp = cost_fingerprint(&costs);
        Database {
            tree,
            costs,
            labels,
            schema,
            costs_fp,
            generation: 0,
            plan_cache: Mutex::new(PlanCache {
                entries: Vec::new(),
            }),
        }
    }

    /// Builds a database from an already-constructed data tree. The tree
    /// must have been encoded with the same cost model.
    pub fn from_tree(tree: DataTree, costs: CostModel) -> Database {
        let labels = LabelIndex::build(&tree);
        let schema = Schema::build(&tree, &costs);
        Database::assemble(tree, costs, labels, schema)
    }

    /// Parses one XML document and builds a database over it.
    pub fn from_xml_str(xml: &str, costs: CostModel) -> Result<Database, DatabaseError> {
        Database::from_xml_strs(&[xml], costs)
    }

    /// Parses several XML documents into one collection (all roots hang
    /// below the virtual super-root).
    pub fn from_xml_strs(xmls: &[&str], costs: CostModel) -> Result<Database, DatabaseError> {
        let docs = xmls
            .iter()
            .map(|x| parse_document(x))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Database::from_documents(&docs, costs))
    }

    /// Builds a database from parsed documents.
    pub fn from_documents(docs: &[Document], costs: CostModel) -> Database {
        let mut b = DataTreeBuilder::new();
        for d in docs {
            b.add_document(d);
        }
        let tree = b.build(&costs);
        Database::from_tree(tree, costs)
    }

    /// The data tree.
    pub fn tree(&self) -> &DataTree {
        &self.tree
    }

    /// The cost model.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// The label indexes `I_struct`/`I_text`.
    pub fn labels(&self) -> &LabelIndex {
        &self.labels
    }

    /// The schema with its indexes.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The mutation generation stamp: starts at 0 and increments once per
    /// [`Database::insert_document`] / [`Database::delete_document`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Appends one document to the collection, incrementally maintaining
    /// the label indexes, secondary index, and schema (DESIGN.md §15).
    /// The new document's nodes take fresh preorder numbers past the
    /// current maximum; no existing node is relabelled. Cached plans that
    /// fetch any label occurring in the document are evicted.
    pub fn insert_document(&mut self, doc: &Document) -> MutationDelta {
        let interner_before = self.tree.interner().len();
        let span = self.tree.append_document(doc, &self.costs);
        let mut grouped: HashMap<(NodeType, LabelId), Vec<Posting>> = HashMap::new();
        for pre in span.start..=span.bound {
            let n = NodeId(pre);
            grouped
                .entry((self.tree.node_type(n), self.tree.label_id(n)))
                .or_default()
                .push(Posting::from_node(&self.tree, n));
        }
        let mut touched_labels: Vec<(NodeType, LabelId)> = grouped.keys().copied().collect();
        for (&(ty, label), posting) in &grouped {
            // Preorder iteration above leaves each group pre-sorted.
            self.labels.append_postings(ty, label, posting);
        }
        // The virtual root's bound just grew: rewrite its one-entry
        // posting so the index stays identical to a batch rebuild.
        let root = NodeId(0);
        let root_label = self.tree.label_id(root);
        self.labels.insert_posting(
            NodeType::Struct,
            root_label,
            vec![Posting::from_node(&self.tree, root)],
        );
        touched_labels.push((NodeType::Struct, root_label));
        touched_labels.sort_unstable_by_key(|&(t, l)| (t as u8, l.index()));
        touched_labels.dedup();
        let schema = self.schema.insert_range(&self.tree, span, &self.costs);
        self.after_mutation(&touched_labels);
        MutationDelta {
            span,
            touched_labels,
            removed_labels: Vec::new(),
            schema,
            interner_changed: self.tree.interner().len() != interner_before,
        }
    }

    /// Tombstones the document rooted at `root` (a top-level document
    /// root, as listed by the tree's document map), removing its nodes
    /// from every index. Preorder numbers of other documents are
    /// untouched; the gap is never reused. Returns `None` when `root` is
    /// not a live document root.
    pub fn delete_document(&mut self, root: NodeId) -> Option<MutationDelta> {
        let span = self.tree.delete_document(root)?;
        let mut keys: Vec<(NodeType, LabelId)> = (span.start..=span.bound)
            .map(|pre| {
                let n = NodeId(pre);
                (self.tree.node_type(n), self.tree.label_id(n))
            })
            .collect();
        keys.sort_unstable_by_key(|&(t, l)| (t as u8, l.index()));
        keys.dedup();
        let mut touched_labels = Vec::new();
        let mut removed_labels = Vec::new();
        for &(ty, label) in &keys {
            let removed = self.labels.remove_range(ty, label, span.start, span.bound);
            debug_assert!(removed > 0, "tombstoned node missing from label index");
            if self.labels.blocks(ty, label).is_some() {
                touched_labels.push((ty, label));
            } else {
                removed_labels.push((ty, label));
            }
        }
        let schema = self.schema.delete_range(&self.tree, span);
        self.after_mutation(&keys);
        Some(MutationDelta {
            span,
            touched_labels,
            removed_labels,
            schema,
            interner_changed: false,
        })
    }

    /// Post-mutation bookkeeping: evict cached plans that fetch a touched
    /// label (counted by `plan.cache_invalidations`) and bump the
    /// generation stamp.
    fn after_mutation(&mut self, touched: &[(NodeType, LabelId)]) {
        let names: HashSet<String> = touched
            .iter()
            .map(|&(_, l)| self.tree.interner().resolve(l).to_string())
            .collect();
        let mut cache = self
            .plan_cache
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let evicted = cache.invalidate_touching(&names);
        drop(cache);
        if evicted > 0 {
            Metric::PlanCacheInvalidations.add(evicted);
        }
        self.generation += 1;
    }

    /// Parses, normalizes, and expands a query against this database's
    /// cost model. Accepts any query surface: a plain `&str` auto-detects
    /// (classic / JSON query-IR / XPath-lite), a [`QueryInput`] pins one.
    /// Normalization makes the returned `Query` — and so its canonical
    /// rendering, the plan-cache key — surface-independent: equivalent
    /// queries from different surfaces share one cached plan.
    pub fn compile<'a>(
        &self,
        query: impl Into<QueryInput<'a>>,
    ) -> Result<(Query, ExpandedQuery), DatabaseError> {
        let q = query.into().parse()?;
        let ex = ExpandedQuery::build(&q, &self.costs);
        Ok((q, ex))
    }

    /// The compiled physical plan for a parsed query, through the keyed
    /// LRU cache: a hit skips compilation entirely (`plan.cache_hits`),
    /// a miss compiles from `ex` and caches the result. `None` only for
    /// expanded queries that do not compile (not producible by the
    /// parser).
    pub fn plan_for(&self, q: &Query, ex: &ExpandedQuery) -> Option<Arc<Plan>> {
        let key = (self.costs_fp, q.to_string());
        {
            let mut cache = self
                .plan_cache
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if let Some(hit) = cache.get(&key) {
                Metric::PlanCacheHits.incr();
                return Some(hit);
            }
        }
        // Compile outside the lock: concurrent misses may both compile,
        // but queries never serialize behind a compilation.
        Metric::PlanCacheMisses.incr();
        let compiled = Arc::new(plan::compile(ex).ok()?);
        let mut cache = self
            .plan_cache
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        cache.insert(key, Arc::clone(&compiled));
        Some(compiled)
    }

    /// Direct evaluation (Section 6): finds **all** approximate results,
    /// sorts them by cost, prunes after `n` (`None` = return everything).
    pub fn query_direct<'a>(
        &self,
        query: impl Into<QueryInput<'a>>,
        n: Option<usize>,
    ) -> Result<Vec<QueryHit>, DatabaseError> {
        Ok(self.query_direct_with(query, n, EvalOptions::default())?.0)
    }

    /// Direct evaluation with explicit options; also returns counters.
    pub fn query_direct_with<'a>(
        &self,
        query: impl Into<QueryInput<'a>>,
        n: Option<usize>,
        opts: EvalOptions,
    ) -> Result<(Vec<QueryHit>, DirectStats), DatabaseError> {
        let (q, ex) = self.compile(query)?;
        let (pairs, stats) = match self.plan_for(&q, &ex) {
            Some(p) => direct::best_n_plan(&p, &self.labels, self.tree.interner(), n, opts),
            None => (Vec::new(), DirectStats::default()),
        };
        Ok((
            pairs
                .into_iter()
                .map(|(pre, cost)| QueryHit {
                    root: NodeId(pre),
                    cost,
                })
                .collect(),
            stats,
        ))
    }

    /// Schema-driven evaluation (Section 7): finds the best `n` results by
    /// generating and executing second-level queries incrementally.
    pub fn query_schema<'a>(
        &self,
        query: impl Into<QueryInput<'a>>,
        n: usize,
    ) -> Result<Vec<QueryHit>, DatabaseError> {
        Ok(self
            .query_schema_with(
                query,
                n,
                EvalOptions::default(),
                SchemaEvalConfig::default(),
            )?
            .0)
    }

    /// Schema-driven evaluation with explicit options; also returns
    /// counters.
    pub fn query_schema_with<'a>(
        &self,
        query: impl Into<QueryInput<'a>>,
        n: usize,
        opts: EvalOptions,
        cfg: SchemaEvalConfig,
    ) -> Result<(Vec<QueryHit>, EvalStats), DatabaseError> {
        let (q, ex) = self.compile(query)?;
        let plan = self.plan_for(&q, &ex);
        let (pairs, stats) = schema_eval::best_n_schema_with_plan(
            &ex,
            plan,
            &self.schema,
            self.tree.interner(),
            n,
            opts,
            cfg,
        );
        Ok((
            pairs
                .into_iter()
                .map(|(pre, cost)| QueryHit {
                    root: NodeId(pre),
                    cost,
                })
                .collect(),
            stats,
        ))
    }

    /// Opens a lazy result stream (incremental retrieval, Section 9):
    /// hits arrive in nondecreasing cost order as second-level queries are
    /// generated and executed on demand.
    ///
    /// ```
    /// # use approxql_core::Database;
    /// # use approxql_cost::CostModel;
    /// # let db = Database::from_xml_str("<a><b>x</b></a>", CostModel::new()).unwrap();
    /// let mut stream = db.query_schema_stream(r#"a[b["x"]]"#).unwrap();
    /// let first = stream.next();
    /// assert!(first.is_some());
    /// ```
    pub fn query_schema_stream<'a>(
        &self,
        query: impl Into<QueryInput<'a>>,
    ) -> Result<crate::schema_eval::ResultStream<'_>, DatabaseError> {
        let (q, ex) = self.compile(query)?;
        let plan = self.plan_for(&q, &ex);
        Ok(crate::schema_eval::ResultStream::with_plan(
            &ex,
            plan,
            &self.schema,
            self.tree.interner(),
            EvalOptions::default(),
            SchemaEvalConfig::default(),
        ))
    }

    /// The cached plan of a query and its per-operator output entry
    /// counts from one direct execution, through `render` (`no_plan` when
    /// the query has no executable plan).
    fn explain_with<'a>(
        &self,
        query: impl Into<QueryInput<'a>>,
        n: Option<usize>,
        opts: EvalOptions,
        render: fn(&Plan, Option<&[u64]>) -> String,
        no_plan: &str,
    ) -> Result<String, DatabaseError> {
        let (q, ex) = self.compile(query)?;
        let Some(p) = self.plan_for(&q, &ex) else {
            return Ok(no_plan.to_owned());
        };
        let interner = self.tree.interner();
        let (_, _, counts) = direct::best_n_plan_counted(&p, &self.labels, interner, n, opts);
        Ok(render(&p, Some(&counts)))
    }

    /// Renders the compiled physical plan of a query — with per-operator
    /// output entry counts from one direct execution — for
    /// `approxql query --explain`. Goes through the plan cache like any
    /// other query.
    pub fn explain_direct<'a>(
        &self,
        query: impl Into<QueryInput<'a>>,
        n: Option<usize>,
        opts: EvalOptions,
    ) -> Result<String, DatabaseError> {
        let no_plan = "(query has no executable plan)\n";
        self.explain_with(query, n, opts, plan::render, no_plan)
    }

    /// [`Self::explain_direct`] as a JSON document: the plan DAG, its
    /// shape fingerprint, and per-operator entry counts — the machine
    /// face of `--explain`, for diffing plans across query surfaces.
    pub fn explain_direct_json<'a>(
        &self,
        query: impl Into<QueryInput<'a>>,
        n: Option<usize>,
        opts: EvalOptions,
    ) -> Result<String, DatabaseError> {
        self.explain_with(query, n, opts, plan::render_json, "{\"v\":1,\"ops\":[]}")
    }

    /// Materializes the result subtree of a hit as an XML element
    /// (the "additional step" after Definition 12).
    pub fn result_element(&self, hit: QueryHit) -> Result<Element, DatabaseError> {
        Ok(self.tree.subtree_element(hit.root)?)
    }

    /// Persists the database into a single store file using the segmented
    /// layout (DESIGN.md §15): cost model, interner, document map, one
    /// segment per live document, both label indexes, the secondary
    /// index with its class numbering, and the schema tree. The schema is
    /// persisted — not rebuilt on open — so class ids and schema preorder
    /// numbers (which tie-break equal-cost second-level queries) survive a
    /// save/open cycle bit-for-bit.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DatabaseError> {
        let mut store = Store::create_file(path)?;
        write_full_image(&mut store, self)?;
        store.commit()?;
        Ok(())
    }

    /// Opens a database saved with [`Database::save`] (or grown through
    /// [`crate::DbFile`] mutations), validating the persisted parts
    /// against each other.
    pub fn open(path: impl AsRef<Path>) -> Result<Database, DatabaseError> {
        let mut store = Store::open_file(path)?;
        load_from_store(&mut store)
    }

    /// Verifies the on-disk integrity of a database file: opens the store
    /// (recovering to the newest intact commit if needed), walks every
    /// page, checksum, and B+-tree invariant, validates every compressed
    /// posting list (skip-header monotonicity, per-frame entry counts,
    /// decode round-trip — see DESIGN.md §14), and then performs a full
    /// decode so cross-structure corruption (docmap partition, segment
    /// columns, schema/secondary consistency, every live node standing in
    /// the instance list of its class) also surfaces. Returns the
    /// storage layer's [`CheckReport`] on success.
    pub fn check_file(path: impl AsRef<Path>) -> Result<CheckReport, DatabaseError> {
        let mut store = Store::open_file(path)?;
        let report = store.check()?;
        approxql_index::persist::check_posting_blocks(&mut store)?;
        let db = load_from_store(&mut store)?;
        db.schema.check_instances(&db.tree)?;
        Ok(report)
    }
}

/// The store key of a live document's column segment: `doc#` + the
/// big-endian start preorder (big-endian so a prefix scan yields
/// documents in preorder).
pub(crate) fn doc_key(start: u32) -> Vec<u8> {
    let mut k = b"doc#".to_vec();
    k.extend_from_slice(&start.to_be_bytes());
    k
}

/// Writes every key of the segmented layout into `store` (no commit).
/// Shared by [`Database::save`] and [`crate::DbFile`]'s full rewrites.
pub(crate) fn write_full_image(store: &mut Store, db: &Database) -> Result<(), DatabaseError> {
    save_blob(store, "costs", write_cost_file(&db.costs).as_bytes())?;
    save_blob(store, "interner", &encode_interner(db.tree.interner()))?;
    save_blob(
        store,
        "docmap",
        &encode_docmap(db.tree.len() as u32, db.tree.documents()),
    )?;
    for &span in db.tree.documents() {
        if span.alive {
            store.put(&doc_key(span.start), &db.tree.doc_segment_bytes(span))?;
        }
    }
    save_label_index(store, &db.labels, db.tree.interner())?;
    save_secondary_index(store, db.schema.secondary(), db.tree.interner())?;
    save_blob(store, "schema", &db.schema.tree().to_bytes())?;
    Ok(())
}

/// Reassembles a database from a store holding the segmented layout,
/// validating the parts against each other (segment spans vs. the
/// document map, labels vs. the interner, the class numbering and the
/// secondary keys vs. the schema tree).
pub(crate) fn load_from_store(store: &mut Store) -> Result<Database, DatabaseError> {
    let cost_bytes = load_blob(store, "costs")?;
    let costs = parse_cost_file(&String::from_utf8_lossy(&cost_bytes))?;
    let interner = decode_interner(&load_blob(store, "interner")?)?;
    let (total_len, docs) = decode_docmap(&load_blob(store, "docmap")?)?;
    let mut segments = Vec::new();
    for &span in &docs {
        if !span.alive {
            continue;
        }
        let bytes = store
            .get(&doc_key(span.start))?
            .ok_or(PersistError::MissingBlob("document segment"))?;
        let seg = decode_doc_segment(&bytes, span, interner.len())?;
        segments.push((span, seg));
    }
    let tree = DataTree::from_doc_segments(interner, total_len, docs, &segments, &costs)?;
    let labels = load_label_index(store, tree.interner())?;
    let secondary = load_secondary_index(store, tree.interner())?;
    let schema_tree = DataTree::from_bytes(&load_blob(store, "schema")?)?;
    let schema = Schema::assemble(&tree, schema_tree, secondary)?;
    Ok(Database::assemble(tree, costs, labels, schema))
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxql_cost::tables::paper_section6_costs;
    use approxql_query::Surface;

    const CATALOG: &str = r#"<catalog>
        <cd><title>Piano Concerto</title><composer>Rachmaninov</composer></cd>
        <cd><title>Kinderszenen</title>
            <tracks><track><title>Vivace piano</title></track></tracks></cd>
    </catalog>"#;

    #[test]
    fn end_to_end_direct_query() {
        let db = Database::from_xml_str(CATALOG, paper_section6_costs()).unwrap();
        let hits = db.query_direct(r#"cd[title["piano"]]"#, None).unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].cost, Cost::ZERO);
        let el = db.result_element(hits[0]).unwrap();
        assert_eq!(el.name, "cd");
        assert_eq!(
            el.find_child("title").unwrap().text_content(),
            "piano concerto"
        );
    }

    #[test]
    fn schema_and_direct_agree_end_to_end() {
        let db = Database::from_xml_str(CATALOG, paper_section6_costs()).unwrap();
        let direct = db
            .query_direct(r#"cd[title["piano" and "concerto"]]"#, None)
            .unwrap();
        let schema = db
            .query_schema(r#"cd[title["piano" and "concerto"]]"#, direct.len())
            .unwrap();
        assert_eq!(direct, schema);
    }

    #[test]
    fn query_errors_surface() {
        let db = Database::from_xml_str(CATALOG, CostModel::new()).unwrap();
        assert!(matches!(
            db.query_direct("cd[", None),
            Err(DatabaseError::Query(_))
        ));
    }

    #[test]
    fn xml_errors_surface() {
        assert!(matches!(
            Database::from_xml_str("<broken", CostModel::new()),
            Err(DatabaseError::Xml(_))
        ));
    }

    #[test]
    fn save_and_open_roundtrip() {
        let dir = std::env::temp_dir().join(format!("axql-db-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.axql");
        let db = Database::from_xml_str(CATALOG, paper_section6_costs()).unwrap();
        let before = db.query_direct(r#"cd[title["piano"]]"#, None).unwrap();
        db.save(&path).unwrap();
        let db2 = Database::open(&path).unwrap();
        let after = db2.query_direct(r#"cd[title["piano"]]"#, None).unwrap();
        assert_eq!(before, after);
        let via_schema = db2.query_schema(r#"cd[title["piano"]]"#, 2).unwrap();
        assert_eq!(before, via_schema);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repeated_queries_hit_the_plan_cache() {
        let db = Database::from_xml_str(CATALOG, paper_section6_costs()).unwrap();
        let before = approxql_metrics::snapshot();
        let first = db.query_direct(r#"cd[title["piano"]]"#, None).unwrap();
        let mid = approxql_metrics::snapshot().diff(&before);
        assert_eq!(mid.get(Metric::PlanCacheMisses), 1);
        assert_eq!(mid.get(Metric::PlanCacheHits), 0);
        // Same query again — and via the schema evaluator, which shares
        // the cache: no further compilation.
        let second = db.query_direct(r#"cd[title["piano"]]"#, None).unwrap();
        let via_schema = db
            .query_schema(r#"cd[title["piano"]]"#, first.len())
            .unwrap();
        let after = approxql_metrics::snapshot().diff(&before);
        assert_eq!(after.get(Metric::PlanCacheMisses), 1);
        assert_eq!(after.get(Metric::PlanCacheHits), 2);
        assert_eq!(after.get(Metric::PlanCompile), 1);
        assert_eq!(first, second);
        assert_eq!(first, via_schema);
        // Whitespace-insensitive: normalization maps to the same key.
        let _ = db.query_direct(r#"cd[ title [ "piano" ] ]"#, None).unwrap();
        let norm = approxql_metrics::snapshot().diff(&before);
        assert_eq!(norm.get(Metric::PlanCacheHits), 3);
    }

    #[test]
    fn surfaces_share_one_plan_cache_entry() {
        let db = Database::from_xml_str(CATALOG, paper_section6_costs()).unwrap();
        let classic = r#"cd[title["piano"]]"#;
        let json =
            r#"{"v":1,"query":{"name":"cd","child":{"name":"title","child":{"text":"piano"}}}}"#;
        let xpath = r#"/cd//title["piano"]"#;
        let before = approxql_metrics::snapshot();
        let first = db.query_direct(classic, None).unwrap();
        // The other two surfaces auto-detect and hit the classic entry:
        // one compile total, cross-surface cache hits.
        let via_json = db.query_direct(json, None).unwrap();
        let via_xpath = db.query_direct(xpath, None).unwrap();
        let delta = approxql_metrics::snapshot().diff(&before);
        assert_eq!(delta.get(Metric::PlanCacheMisses), 1);
        assert_eq!(delta.get(Metric::PlanCacheHits), 2);
        assert_eq!(delta.get(Metric::PlanCompile), 1);
        assert_eq!(first, via_json);
        assert_eq!(first, via_xpath);
        // Pinning the surface explicitly works too.
        let pinned = db
            .query_direct(QueryInput::with_surface(json, Surface::Json), None)
            .unwrap();
        assert_eq!(first, pinned);
    }

    #[test]
    fn explain_json_carries_the_fingerprint() {
        let db = Database::from_xml_str(CATALOG, paper_section6_costs()).unwrap();
        let opts = EvalOptions::default();
        let doc = db
            .explain_direct_json(r#"cd[title["piano"]]"#, Some(10), opts)
            .unwrap();
        let parsed = approxql_query::json::parse(&doc).unwrap();
        let fp = parsed.get("fingerprint").unwrap().as_str().unwrap();
        assert!(fp.starts_with("0x"), "{fp}");
        // Same fingerprint for the equivalent XPath-lite spelling.
        let other = db
            .explain_direct_json(r#"/cd//title["piano"]"#, Some(10), opts)
            .unwrap();
        assert_eq!(doc, other, "explain JSON must be surface-independent");
    }

    #[test]
    fn explain_goes_through_the_cache() {
        let db = Database::from_xml_str(CATALOG, paper_section6_costs()).unwrap();
        let text = db
            .explain_direct(r#"cd[title["piano"]]"#, Some(10), EvalOptions::default())
            .unwrap();
        assert!(text.contains("sort_best"), "missing root op:\n{text}");
        assert!(text.contains("entries"), "missing counts:\n{text}");
        let before = approxql_metrics::snapshot();
        let _ = db
            .explain_direct(r#"cd[title["piano"]]"#, Some(10), EvalOptions::default())
            .unwrap();
        let delta = approxql_metrics::snapshot().diff(&before);
        assert_eq!(delta.get(Metric::PlanCacheHits), 1);
    }

    #[test]
    fn incremental_insert_matches_batch_build() {
        let docs = [
            "<cd><title>piano concerto</title></cd>",
            "<cd><title>cello suite</title><composer>Bach</composer></cd>",
            "<mc><title>piano</title><track>allegro</track></mc>",
        ];
        let mut grown = Database::from_xml_str(docs[0], paper_section6_costs()).unwrap();
        for d in &docs[1..] {
            grown.insert_document(&parse_document(d).unwrap());
        }
        let batch = Database::from_xml_strs(&docs, paper_section6_costs()).unwrap();
        // Same tree bytes, same postings, same schema parts.
        assert_eq!(grown.tree().to_bytes(), batch.tree().to_bytes());
        assert_eq!(grown.generation(), 2);
        for q in [r#"cd[title["piano"]]"#, r#"mc[track]"#, r#"cd[composer]"#] {
            assert_eq!(
                grown.query_direct(q, None).unwrap(),
                batch.query_direct(q, None).unwrap()
            );
            assert_eq!(
                grown.query_schema(q, 5).unwrap(),
                batch.query_schema(q, 5).unwrap()
            );
        }
        let posting_dump = |db: &Database| {
            let mut v: Vec<_> = db
                .labels()
                .iter()
                .map(|((ty, l), blocks)| (ty as u8, l.index(), blocks.to_bytes()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(posting_dump(&grown), posting_dump(&batch));
    }

    #[test]
    fn delete_hides_document_and_invalidates_plans() {
        let docs = [
            "<cd><title>piano</title></cd>",
            "<cd><title>cello</title></cd>",
        ];
        let mut db = Database::from_xml_strs(&docs, paper_section6_costs()).unwrap();
        let before = approxql_metrics::snapshot();
        // Warm the cache, then mutate a touched label: the entry must go.
        let all = db.query_direct(r#"cd[title]"#, None).unwrap();
        assert_eq!(all.len(), 2);
        let first = db.tree().documents()[0];
        let delta = db.delete_document(NodeId(first.start)).expect("live root");
        assert_eq!(delta.span.start, first.start);
        let d = approxql_metrics::snapshot().diff(&before);
        assert_eq!(d.get(Metric::PlanCacheInvalidations), 1);
        let left = db.query_direct(r#"cd[title]"#, None).unwrap();
        assert_eq!(left.len(), 1);
        assert!(left[0].root.0 > first.bound);
        // Double delete is a no-op.
        assert!(db.delete_document(NodeId(first.start)).is_none());
        assert_eq!(db.generation(), 1);
    }

    #[test]
    fn multiple_documents_form_one_collection() {
        let db = Database::from_xml_strs(
            &[
                "<cd><title>piano</title></cd>",
                "<mc><title>piano</title></mc>",
            ],
            CostModel::new(),
        )
        .unwrap();
        assert_eq!(
            db.query_direct(r#"cd[title["piano"]]"#, None)
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            db.query_direct(r#"mc[title["piano"]]"#, None)
                .unwrap()
                .len(),
            1
        );
    }
}
