//! The user-facing facade: documents + cost model + indexes + schema.
//!
//! A database built in memory (or by [`crate::DbFile`]) holds all of its
//! parts. One opened from a file with [`Database::open`] holds only the
//! store's catalogue — cost model, interner, document map, schema tree and
//! class numbering — and each query fetches the lists of its own plan's
//! labels, and the segments of its hits' documents, from the store
//! (DESIGN.md §10).

use crate::direct::{self, DirectStats, EvalOptions};
use crate::schema_eval::{self, EvalStats, SchemaEvalConfig};
use approxql_cost::{parse_cost_file, write_cost_file, Cost, CostFileError, CostModel, NodeType};
use approxql_index::persist::{
    load_blob, load_class_numbering, load_label_index, load_label_list, load_secondary_index,
    load_secondary_lists, save_blob, save_label_index, save_secondary_index, PersistError,
    MAX_LABEL_LEN,
};
use approxql_index::{LabelIndex, Posting, SecondaryIndex};
use approxql_metrics::Metric;
use approxql_plan::{self as plan, Plan, PlanOp};
use approxql_query::expand::ExpandedQuery;
use approxql_query::{ParseError, Query, QueryInput};
use approxql_schema::{Schema, SchemaAssembleError, SchemaDelta};
use approxql_storage::{CheckReport, StorageError, Store};
use approxql_tree::{
    decode_doc_segment, decode_docmap, decode_interner, encode_docmap, encode_interner,
    live_doc_of, DataTree, DataTreeBuilder, DocSegment, DocSpan, Interner, LabelId, NodeId,
    TreeDecodeError, TreeError, VIRTUAL_ROOT_LABEL,
};
use approxql_xml::{parse_document, Document, Element, XmlError};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Errors raised by [`Database`] operations.
#[derive(Debug, Clone)]
pub enum DatabaseError {
    /// Malformed XML input.
    Xml(XmlError),
    /// Malformed approXQL query.
    Query(ParseError),
    /// Tree-level failure (e.g. materializing a text node).
    Tree(TreeError),
    /// Storage-layer failure.
    Storage(StorageError),
    /// Index (de)serialization failure. A storage failure under it is
    /// [`DatabaseError::Storage`].
    Persist(PersistError),
    /// Serialized tree decoding failure.
    TreeDecode(TreeDecodeError),
    /// Stored cost file failed to parse.
    CostFile(CostFileError),
    /// The persisted schema parts contradict the data tree.
    Schema(SchemaAssembleError),
    /// A label of this many bytes is too long to be stored: its keys
    /// would exceed the store's key limit ([`MAX_LABEL_LEN`] bytes).
    LabelTooLong(usize),
    /// A [`crate::DbFile`] mutation failed before its commit, so the file
    /// refuses further mutations: the store still holds its last commit,
    /// which a reopen reads.
    Interrupted,
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
            DatabaseError::LabelTooLong(len) => write!(
                f,
                "a label of {len} bytes exceeds the {MAX_LABEL_LEN}-byte limit of a store"
            ),
            DatabaseError::Interrupted => write!(f, "an earlier mutation failed; reopen the store"),
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
from_error!(TreeDecode, TreeDecodeError);
from_error!(CostFile, CostFileError);
from_error!(Schema, SchemaAssembleError);

/// A storage failure met under an index load is reported as the storage
/// error itself, so a caller matches one shape whichever layer met it.
impl From<PersistError> for DatabaseError {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Storage(e) => DatabaseError::Storage(e),
            e => DatabaseError::Persist(e),
        }
    }
}

/// Why [`Database::set_query_costs`] refused a cost model: it changes an
/// insert cost, which the stored encoding has baked into every `pathcost`
/// and every posting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertCostChanged {
    /// The label whose insert cost changes; `None` for the default.
    pub label: Option<(NodeType, String)>,
    /// The insert cost the database was built with.
    pub was: Cost,
    /// The insert cost of the refused model.
    pub now: Cost,
}

impl fmt::Display for InsertCostChanged {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (was, now) = (self.was, self.now);
        match &self.label {
            None => write!(
                f,
                "changes the default insert cost ({was} at build time, {now} now)"
            ),
            Some((ty, label)) => write!(
                f,
                "changes the insert cost of {ty} `{label}` ({was} at build time, {now} now)"
            ),
        }
    }
}

impl std::error::Error for InsertCostChanged {}

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
/// structure *and* the expansion-driving costs are unchanged. Those are
/// all a plan depends on — its fetches name labels by text, resolved when
/// it runs — so no mutation evicts an entry (DESIGN.md §15.4).
struct PlanCache {
    entries: Vec<PlanCacheEntry>,
}

/// One cache entry: `(cost fingerprint, normalized query)` key and the
/// compiled plan.
type PlanCacheEntry = ((u64, String), Arc<Plan>);

/// The `(type, label)` of every fetch of `plan`: the only lists either
/// evaluator reads when it runs the plan.
fn fetches(plan: &Plan) -> impl Iterator<Item = (NodeType, &str)> {
    plan.ops().iter().filter_map(|op| match op {
        PlanOp::Fetch { label, ty, .. } => Some((*ty, label.as_str())),
        _ => None,
    })
}

impl PlanCache {
    fn get(&mut self, key: &(u64, String)) -> Option<Arc<Plan>> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let hit = self.entries.remove(pos);
        let plan = Arc::clone(&hit.1);
        self.entries.insert(0, hit);
        Some(plan)
    }

    fn insert(&mut self, key: (u64, String), plan: Arc<Plan>) {
        self.entries.retain(|(k, _)| *k != key);
        self.entries.insert(0, (key, plan));
        self.entries.truncate(PLAN_CACHE_CAP);
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
/// label postings it changed, and the schema-side delta. Produced by
/// [`Database::insert_document`] / [`Database::delete_document`] and
/// consumed by [`crate::DbFile`] to persist only the changed keys.
#[derive(Debug)]
pub struct MutationDelta {
    /// Preorder range of the inserted or tombstoned document.
    pub span: DocSpan,
    /// Label postings whose block lists changed, sorted, each once: a
    /// list that still exists is rewritten, one that emptied is gone.
    pub changed_labels: Vec<(NodeType, LabelId)>,
    /// Schema-side changes (secondary postings, structural rebuild flag).
    pub schema: SchemaDelta,
}

impl MutationDelta {
    /// What a mutation that changed nothing reports: a span that is not
    /// alive, and nothing touched.
    fn unchanged() -> MutationDelta {
        MutationDelta {
            span: DocSpan {
                start: 0,
                bound: 0,
                alive: false,
            },
            changed_labels: Vec::new(),
            schema: SchemaDelta::default(),
        }
    }
}

/// What a query reads and a mutation changes, all in memory: the data
/// tree, its label indexes and the schema.
struct Resident {
    tree: DataTree,
    labels: LabelIndex,
    schema: Schema,
}

impl Resident {
    fn build(tree: DataTree, costs: &CostModel) -> Resident {
        let labels = LabelIndex::build(&tree);
        let schema = Schema::build(&tree, costs);
        Resident {
            tree,
            labels,
            schema,
        }
    }

    /// The empty collection: what the accessors that cannot report an
    /// error show of a database whose store does not decode.
    fn empty() -> &'static Resident {
        static EMPTY: OnceLock<Resident> = OnceLock::new();
        EMPTY.get_or_init(|| {
            let costs = CostModel::new();
            Resident::build(DataTreeBuilder::new().build(&costs), &costs)
        })
    }
}

/// The catalogue of a store — what [`Database::open`] reads, beside the
/// cost model: the `interner`, `docmap`, `schema` and `classes` blobs,
/// decoded and checked against each other.
struct Catalogue {
    interner: Interner,
    total_len: u32,
    docs: Vec<DocSpan>,
    schema_tree: DataTree,
    /// The class numbering: a secondary index without lists.
    numbering: SecondaryIndex,
}

/// A database opened from a file: its catalogue and the store everything
/// else is read from.
struct Stored {
    /// Locked while a query fetches its lists or a hit its segment, never
    /// while anything evaluates.
    store: Mutex<Store>,
    catalogue: Catalogue,
    /// Every part decoded, for the callers that want the whole collection
    /// (`tree`, `labels`, `schema`, `result_element`, the result stream);
    /// filled on first use.
    resident: OnceLock<Resident>,
}

impl Stored {
    /// The store. Storage code does not panic (DESIGN.md §11), and a
    /// holder only reads through it, so a lock poisoned by a panic
    /// elsewhere in the holder's thread guards a store that is whole.
    fn lock(&self) -> MutexGuard<'_, Store> {
        self.store
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn resident(&self) -> Result<&Resident, DatabaseError> {
        if let Some(resident) = self.resident.get() {
            return Ok(resident);
        }
        let (_, resident) = load_resident(&mut self.lock())?;
        Ok(self.resident.get_or_init(|| resident))
    }

    /// Every part, decoded if no caller has decoded them yet, for a
    /// mutation to change from here on.
    fn take_resident(&mut self) -> Result<Resident, DatabaseError> {
        if let Some(resident) = self.resident.take() {
            return Ok(resident);
        }
        let store = self
            .store
            .get_mut()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        Ok(load_resident(store)?.1)
    }

    /// The label index a direct evaluation of `plan` reads: the stored
    /// lists of its fetches, one point get each.
    fn labels_for(&self, plan: &Plan) -> Result<LabelIndex, DatabaseError> {
        let mut wanted: Vec<(NodeType, &str)> = fetches(plan).collect();
        wanted.sort_unstable();
        wanted.dedup();
        let mut index = LabelIndex::default();
        let mut store = self.lock();
        for (ty, label) in wanted {
            load_label_list(&mut store, &self.catalogue.interner, &mut index, ty, label)?;
        }
        Ok(index)
    }

    /// The schema view a schema-driven evaluation of `plan` reads: the
    /// `sec#` lists of its labels, one prefix scan each.
    fn schema_for(&self, plan: Option<&Plan>) -> Result<Schema, DatabaseError> {
        let mut wanted: Vec<&str> = plan.into_iter().flat_map(fetches).map(|f| f.1).collect();
        wanted.sort_unstable();
        wanted.dedup();
        let catalogue = &self.catalogue;
        let mut secondary = catalogue.numbering.clone();
        let mut store = self.lock();
        for label in wanted {
            load_secondary_lists(&mut store, &catalogue.interner, &mut secondary, label)?;
        }
        drop(store);
        Ok(Schema::view(catalogue.schema_tree.clone(), secondary))
    }

    /// The names of `nodes`, each from the segment of its own document;
    /// a document several of them share is read once.
    fn element_names(&self, nodes: &[NodeId]) -> Result<Vec<&str>, DatabaseError> {
        let interner = &self.catalogue.interner;
        let mut segments: HashMap<u32, DocSegment> = HashMap::new();
        let mut store = self.lock();
        let mut names = Vec::with_capacity(nodes.len());
        for &n in nodes {
            if n.0 == 0 {
                names.push(VIRTUAL_ROOT_LABEL);
                continue;
            }
            let span = live_doc_of(&self.catalogue.docs, n.0).ok_or(TreeError::InvalidNode(n))?;
            let segment = match segments.entry(span.start) {
                Entry::Occupied(read) => read.into_mut(),
                Entry::Vacant(slot) => slot.insert(read_segment(&mut store, span, interner.len())?),
            };
            let i = (n.0 - span.start) as usize;
            match (segment.types.get(i), segment.labels.get(i)) {
                (Some(NodeType::Struct), Some(&label)) => names.push(interner.resolve(label)),
                _ => return Err(TreeError::NotAStructNode(n).into()),
            }
        }
        Ok(names)
    }
}

/// Where the parts of a [`Database`] are.
enum Parts {
    /// All in memory: a database built in memory or by [`crate::DbFile`],
    /// or opened from a file and mutated since.
    Resident(Box<Resident>),
    /// Opened from a file: the catalogue, and the store the rest is read
    /// from.
    Stored(Box<Stored>),
    /// Opened from a file that a mutation could not decode. The mutation
    /// changed nothing; every later read fails with this error.
    Undecodable(DatabaseError),
}

/// An approXQL database: the data tree with its label indexes, schema, and
/// cost model. See the crate docs for an end-to-end example.
pub struct Database {
    parts: Parts,
    costs: CostModel,
    /// Fingerprint of `costs` (part of every plan-cache key).
    costs_fp: u64,
    /// Compiled physical plans keyed by (cost fingerprint, query text).
    plan_cache: Mutex<PlanCache>,
}

/// The parts a mutation changes, decoding a stored database once and for
/// all; `None` if it does not decode, which leaves it
/// [`Parts::Undecodable`]. A free function so that the caller keeps the
/// other fields of its [`Database`].
fn resident_mut(parts: &mut Parts) -> Option<&mut Resident> {
    if let Parts::Stored(stored) = parts {
        *parts = match stored.take_resident() {
            Ok(resident) => Parts::Resident(Box::new(resident)),
            Err(e) => Parts::Undecodable(e),
        };
    }
    match parts {
        Parts::Resident(resident) => Some(&mut **resident),
        Parts::Stored(_) | Parts::Undecodable(_) => None,
    }
}

impl Database {
    fn assemble(parts: Parts, costs: CostModel) -> Database {
        let costs_fp = cost_fingerprint(&costs);
        Database {
            parts,
            costs,
            costs_fp,
            plan_cache: Mutex::new(PlanCache {
                entries: Vec::new(),
            }),
        }
    }

    /// Builds a database from an already-constructed data tree. The tree
    /// must have been encoded with the same cost model.
    pub fn from_tree(tree: DataTree, costs: CostModel) -> Database {
        Database::assemble(
            Parts::Resident(Box::new(Resident::build(tree, &costs))),
            costs,
        )
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

    /// Every part in memory. A database opened from a file decodes its
    /// store on first use and keeps the result.
    fn resident(&self) -> Result<&Resident, DatabaseError> {
        match &self.parts {
            Parts::Resident(resident) => Ok(&**resident),
            Parts::Stored(stored) => stored.resident(),
            Parts::Undecodable(e) => Err(e.clone()),
        }
    }

    fn resident_or_empty(&self) -> &Resident {
        self.resident().unwrap_or_else(|_| Resident::empty())
    }

    /// Decodes and validates everything a database opened from a file
    /// has not read yet — every document segment, every posting list and
    /// the classification of every node — and keeps it. The first
    /// corruption is a typed error. [`Database::tree`], [`Database::labels`]
    /// and [`Database::schema`] decode on first use too, but cannot report
    /// one: call this first where a store may be damaged. A database
    /// built in memory has nothing to decode. After a mutation found the
    /// store undecodable, this returns that error.
    pub fn materialize(&self) -> Result<(), DatabaseError> {
        self.resident().map(drop)
    }

    /// The data tree. A database opened from a file decodes its store on
    /// first use (see [`Database::materialize`]); if the store does not
    /// decode, this is the empty collection, and the error is reported by
    /// every fallible method that needs the tree.
    pub fn tree(&self) -> &DataTree {
        &self.resident_or_empty().tree
    }

    /// The cost model.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// The label interner: the data tree's, or for a database opened
    /// from a file the catalogue's, which needs no decode.
    pub fn interner(&self) -> &Interner {
        match &self.parts {
            Parts::Stored(stored) => &stored.catalogue.interner,
            Parts::Resident(_) | Parts::Undecodable(_) => self.tree().interner(),
        }
    }

    /// The label indexes `I_struct`/`I_text` (decoded on first use, as
    /// [`Database::tree`]).
    pub fn labels(&self) -> &LabelIndex {
        &self.resident_or_empty().labels
    }

    /// The schema with its indexes (decoded on first use, as
    /// [`Database::tree`]).
    pub fn schema(&self) -> &Schema {
        &self.resident_or_empty().schema
    }

    /// From here on, queries expand with `costs` — how `approxql query
    /// --costs FILE` changes rename and delete costs. Nothing is rebuilt:
    /// those costs enter only through query expansion, so the model and
    /// its plan-cache fingerprint are all that change, and class ids and
    /// schema preorder numbers stay as they are. Insert costs are baked
    /// into every posting (the stored tree derives its own from the
    /// build-time model when it loads), so a model that changes the
    /// insert cost of a label of the collection, or the default, is
    /// refused and nothing changes.
    pub fn set_query_costs(&mut self, costs: CostModel) -> Result<(), InsertCostChanged> {
        let built = &self.costs;
        let (was, now) = (built.insert_default(), costs.insert_default());
        if was != now {
            return Err(InsertCostChanged {
                label: None,
                was,
                now,
            });
        }
        for (_, label) in self.interner().iter() {
            for ty in [NodeType::Struct, NodeType::Text] {
                let (was, now) = (built.insert_cost(ty, label), costs.insert_cost(ty, label));
                if was != now {
                    let label = Some((ty, label.to_owned()));
                    return Err(InsertCostChanged { label, was, now });
                }
            }
        }
        self.costs_fp = cost_fingerprint(&costs);
        self.costs = costs;
        Ok(())
    }

    /// Appends one document to the collection, incrementally maintaining
    /// the label indexes, secondary index, and schema (DESIGN.md §15).
    /// The new document's nodes take fresh preorder numbers past the
    /// current maximum; no existing node is relabelled. A database
    /// opened from a file is decoded first, and holds its parts from then
    /// on. If its store does not decode, nothing changes — the delta's
    /// span is not alive and it touches nothing — and every later query,
    /// [`Database::materialize`] and [`Database::save`] fails with the
    /// decode error (call [`Database::materialize`] first to see it here).
    pub fn insert_document(&mut self, doc: &Document) -> MutationDelta {
        let costs = &self.costs;
        let Some(Resident {
            tree,
            labels,
            schema,
        }) = resident_mut(&mut self.parts)
        else {
            return MutationDelta::unchanged();
        };
        let span = tree.append_document(doc, costs);
        let nodes = (span.start..=span.bound).map(NodeId);
        labels.append_nodes(tree, nodes.clone());
        // The virtual root's bound just grew: rewrite its one-entry
        // posting so the index stays identical to a batch rebuild.
        let root = NodeId(0);
        labels.insert_posting(
            NodeType::Struct,
            tree.label_id(root),
            vec![Posting::from_node(tree, root)],
        );
        MutationDelta {
            span,
            changed_labels: label_keys(tree, std::iter::once(root).chain(nodes)),
            schema: schema.insert_range(tree, span, costs),
        }
    }

    /// Tombstones the document rooted at `root` (a top-level document
    /// root, as listed by the tree's document map), removing its nodes
    /// from every index. Preorder numbers of other documents are
    /// untouched; the gap is never reused. Returns `None` when `root` is
    /// not a live document root. A database opened from a file is decoded
    /// first, as for [`Database::insert_document`]; if it does not decode,
    /// this is `None` too.
    pub fn delete_document(&mut self, root: NodeId) -> Option<MutationDelta> {
        let Resident {
            tree,
            labels,
            schema,
        } = resident_mut(&mut self.parts)?;
        let span = tree.delete_document(root)?;
        let changed_labels = label_keys(tree, (span.start..=span.bound).map(NodeId));
        for &(ty, label) in &changed_labels {
            let removed = labels.remove_range(ty, label, span.start, span.bound);
            debug_assert!(removed > 0, "tombstoned node missing from label index");
        }
        Some(MutationDelta {
            span,
            changed_labels,
            schema: schema.delete_range(tree, span),
        })
    }

    /// Parses, normalizes, and expands a query against this database's
    /// cost model. Accepts either query surface, classic or JSON query-IR,
    /// detected from the text ([`QueryInput`]). Normalization makes the
    /// returned `Query` — and so its canonical rendering, the plan-cache
    /// key — surface-independent: equivalent queries in either spelling
    /// share one cached plan.
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

    /// The label index a direct evaluation of `plan` reads: the resident
    /// one, or for a database opened from a file the lists of the plan's
    /// fetches, read from the store for this query.
    fn labels_for(&self, plan: &Plan) -> Result<Cow<'_, LabelIndex>, DatabaseError> {
        match &self.parts {
            Parts::Stored(stored) => Ok(Cow::Owned(stored.labels_for(plan)?)),
            Parts::Resident(_) | Parts::Undecodable(_) => {
                Ok(Cow::Borrowed(&self.resident()?.labels))
            }
        }
    }

    /// The schema a schema-driven evaluation of `plan` reads: the resident
    /// one, or for a database opened from a file a view holding the `sec#`
    /// lists of the plan's labels, read from the store for this query.
    fn schema_for(&self, plan: Option<&Plan>) -> Result<Cow<'_, Schema>, DatabaseError> {
        match &self.parts {
            Parts::Stored(stored) => Ok(Cow::Owned(stored.schema_for(plan)?)),
            Parts::Resident(_) | Parts::Undecodable(_) => {
                Ok(Cow::Borrowed(&self.resident()?.schema))
            }
        }
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
            Some(p) => {
                let labels = self.labels_for(&p)?;
                direct::best_n_plan(&p, &labels, self.interner(), n, opts)
            }
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
        let schema = self.schema_for(plan.as_deref())?;
        let (pairs, stats) =
            schema_eval::best_n_schema_with_plan(&ex, plan, &schema, self.interner(), n, opts, cfg);
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
    /// generated and executed on demand. The stream borrows the whole
    /// schema, so a database opened from a file decodes it first.
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
        let resident = self.resident()?;
        Ok(crate::schema_eval::ResultStream::with_plan(
            &ex,
            plan,
            &resident.schema,
            resident.tree.interner(),
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
        let labels = self.labels_for(&p)?;
        let (_, _, counts) = direct::best_n_plan_counted(&p, &labels, self.interner(), n, opts);
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

    /// The names of the live struct nodes `nodes` — the elements hits
    /// root, as `approxql query` prints them. A database opened from a file
    /// reads them from the segments of the nodes' own documents, each once,
    /// and decodes nothing else.
    pub fn element_names(&self, nodes: &[NodeId]) -> Result<Vec<&str>, DatabaseError> {
        match &self.parts {
            Parts::Stored(stored) => stored.element_names(nodes),
            Parts::Resident(_) | Parts::Undecodable(_) => {
                let tree = &self.resident()?.tree;
                let name = |&n: &NodeId| Ok(tree.element_name(n)?);
                nodes.iter().map(name).collect()
            }
        }
    }

    /// Materializes the result subtree of a hit as an XML element
    /// (the "additional step" after Definition 12). A database opened from
    /// a file decodes its tree for this.
    pub fn result_element(&self, hit: QueryHit) -> Result<Element, DatabaseError> {
        Ok(self.resident()?.tree.subtree_element(hit.root)?)
    }

    /// Persists the database into a single store file using the segmented
    /// layout (DESIGN.md §15): cost model, interner, document map, one
    /// segment per live document, both label indexes, the secondary
    /// index with its class numbering, and the schema tree. The schema is
    /// persisted — not rebuilt on open — so class ids and schema preorder
    /// numbers (which tie-break equal-cost second-level queries) survive a
    /// save/open cycle bit-for-bit. The file is written beside `path` and
    /// renamed onto it ([`Store::replace_file`]), so saving a database
    /// opened from `path` back to `path` reads the old file while it
    /// writes the new one, and other readers of the old file read on.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DatabaseError> {
        Store::replace_file(path, |store| write_full_image(store, self))?;
        Ok(())
    }

    /// Opens a database saved with [`Database::save`] (or grown through
    /// [`crate::DbFile`] mutations) by reading its catalogue: the cost
    /// model, the interner, the document map, the schema tree and the
    /// class numbering, validated against each other. Each query then
    /// reads the lists it needs, validated when read; the rest of the
    /// store is decoded only by the callers that want it whole (see
    /// [`Database::materialize`]). The database reads the commit that was
    /// current at open for its whole life.
    pub fn open(path: impl AsRef<Path>) -> Result<Database, DatabaseError> {
        let mut store = Store::open_file(path)?;
        let (costs, catalogue) = read_catalogue(&mut store)?;
        let stored = Stored {
            store: Mutex::new(store),
            catalogue,
            resident: OnceLock::new(),
        };
        Ok(Database::assemble(Parts::Stored(Box::new(stored)), costs))
    }

    /// Verifies the on-disk integrity of a database file: opens the store
    /// (recovering to the newest intact commit if needed), walks every
    /// page, checksum, and B+-tree invariant, validates every compressed
    /// posting list (the checked decode of its run and its canonical
    /// re-encoding — see DESIGN.md §14), and then performs a full
    /// decode so cross-structure corruption (docmap partition, segment
    /// columns, schema/secondary consistency, every live node standing in
    /// the instance list of its class) also surfaces. Returns the
    /// storage layer's [`CheckReport`] on success.
    pub fn check_file(path: impl AsRef<Path>) -> Result<CheckReport, DatabaseError> {
        let mut store = Store::open_file(path)?;
        let report = store.check()?;
        approxql_index::persist::check_posting_blocks(&mut store)?;
        let (_, resident) = load_resident(&mut store)?;
        resident.schema.check_instances(&resident.tree)?;
        Ok(report)
    }

    /// A database over the parts [`load_resident`] decoded, for
    /// [`crate::DbFile`], which keeps them in memory.
    pub(crate) fn from_store(store: &mut Store) -> Result<Database, DatabaseError> {
        let (costs, resident) = load_resident(store)?;
        Ok(Database::assemble(
            Parts::Resident(Box::new(resident)),
            costs,
        ))
    }
}

/// The `(type, label)` keys of `nodes`, sorted, each once: the label
/// lists a mutation of those nodes changes.
fn label_keys(tree: &DataTree, nodes: impl Iterator<Item = NodeId>) -> Vec<(NodeType, LabelId)> {
    let mut keys: Vec<_> = nodes
        .map(|n| (tree.node_type(n), tree.label_id(n)))
        .collect();
    keys.sort_unstable_by_key(|&(t, l)| (t as u8, l.index()));
    keys.dedup();
    keys
}

/// The store key of a live document's column segment: `doc#` + the
/// big-endian start preorder (big-endian so a prefix scan yields
/// documents in preorder).
pub(crate) fn doc_key(start: u32) -> Vec<u8> {
    let mut k = b"doc#".to_vec();
    k.extend_from_slice(&start.to_be_bytes());
    k
}

/// Fails with [`DatabaseError::LabelTooLong`] when a label of `len` bytes
/// does not fit a store key.
pub(crate) fn check_label_len(len: usize) -> Result<(), DatabaseError> {
    if len > MAX_LABEL_LEN {
        return Err(DatabaseError::LabelTooLong(len));
    }
    Ok(())
}

/// Writes every key of the segmented layout into `store` (no commit).
/// Shared by [`Database::save`] and [`crate::DbFile`]'s full rewrites.
pub(crate) fn write_full_image(store: &mut Store, db: &Database) -> Result<(), DatabaseError> {
    let Resident {
        tree,
        labels,
        schema,
    } = db.resident()?;
    let longest = labels
        .iter()
        .map(|((_, l), _)| tree.interner().resolve(l).len());
    check_label_len(longest.max().unwrap_or(0))?;
    save_blob(store, "costs", write_cost_file(&db.costs).as_bytes())?;
    save_blob(store, "interner", &encode_interner(tree.interner()))?;
    save_blob(
        store,
        "docmap",
        &encode_docmap(tree.len() as u32, tree.documents()),
    )?;
    for &span in tree.documents() {
        if span.alive {
            store.put(&doc_key(span.start), &tree.doc_segment_bytes(span))?;
        }
    }
    save_label_index(store, labels, tree.interner())?;
    save_secondary_index(store, schema.secondary(), tree.interner())?;
    save_blob(store, "schema", &schema.tree().to_bytes())?;
    Ok(())
}

/// Reads the catalogue and the cost model: five `meta#` blobs, decoded and
/// validated against each other (the document map partitions the tree,
/// the class numbering covers the schema tree, whose paths are distinct
/// and whose names are in the interner).
fn read_catalogue(store: &mut Store) -> Result<(CostModel, Catalogue), DatabaseError> {
    let cost_bytes = load_blob(store, "costs")?;
    let costs = parse_cost_file(&String::from_utf8_lossy(&cost_bytes))?;
    let interner = decode_interner(&load_blob(store, "interner")?)?;
    let (total_len, docs) = decode_docmap(&load_blob(store, "docmap")?)?;
    let schema_tree = DataTree::from_bytes(&load_blob(store, "schema")?)?;
    let numbering = load_class_numbering(store)?;
    Schema::check_tree(&schema_tree, &interner, &numbering)?;
    let catalogue = Catalogue {
        interner,
        total_len,
        docs,
        schema_tree,
        numbering,
    };
    Ok((costs, catalogue))
}

/// The segment of the live document `span`, validated against the span
/// and the interner size `nlabels`.
fn read_segment(
    store: &mut Store,
    span: DocSpan,
    nlabels: usize,
) -> Result<DocSegment, DatabaseError> {
    let bytes = store
        .get(&doc_key(span.start))?
        .ok_or(PersistError::MissingBlob("document segment"))?;
    Ok(decode_doc_segment(&bytes, span, nlabels)?)
}

/// Decodes a whole store: the catalogue, then every live document
/// segment, both label indexes and every `sec#` list, validated as one
/// collection (segment spans vs. the document map, labels vs. the
/// interner, the secondary keys vs. the class numbering, every live node
/// vs. a class of the schema tree).
fn load_resident(store: &mut Store) -> Result<(CostModel, Resident), DatabaseError> {
    let (costs, catalogue) = read_catalogue(store)?;
    let Catalogue {
        interner,
        total_len,
        docs,
        schema_tree,
        ..
    } = catalogue;
    let mut segments = Vec::new();
    for &span in docs.iter().filter(|d| d.alive) {
        segments.push((span, read_segment(store, span, interner.len())?));
    }
    let tree = DataTree::from_doc_segments(interner, total_len, docs, &segments, &costs)?;
    let labels = load_label_index(store, tree.interner())?;
    let secondary = load_secondary_index(store, tree.interner())?;
    let schema = Schema::assemble(&tree, schema_tree, secondary)?;
    Ok((
        costs,
        Resident {
            tree,
            labels,
            schema,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxql_cost::tables::paper_section6_costs;

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
    fn a_database_is_shared_across_threads() {
        fn shared<T: Send + Sync>() {}
        shared::<Database>();
    }

    #[test]
    fn save_rejects_a_label_too_long_to_store_and_writes_nothing() {
        let name = "e".repeat(MAX_LABEL_LEN + 1);
        let xml = format!("<cd><{name}>piano</{name}></cd>");
        let db = Database::from_xml_str(&xml, CostModel::new()).unwrap();
        let dir = std::env::temp_dir().join(format!("axql-db-long-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = db.save(dir.join("long.axql")).unwrap_err();
        assert!(matches!(err, DatabaseError::LabelTooLong(n) if n == MAX_LABEL_LEN + 1));
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
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
        // Hit names come from the hits' own segments; the tree is never
        // decoded for them.
        let roots: Vec<NodeId> = after.iter().map(|h| h.root).collect();
        assert_eq!(db2.element_names(&roots).unwrap(), ["cd", "cd"]);
        let Parts::Stored(stored) = &db2.parts else {
            panic!("an opened database holds its store");
        };
        assert!(stored.resident.get().is_none());
        let word = NodeId(roots[0].0 + 2);
        assert!(matches!(
            db2.element_names(&[roots[0], word]),
            Err(DatabaseError::Tree(TreeError::NotAStructNode(_)))
        ));
        let root = [NodeId(0)];
        let names = [db2.element_names(&root), db.element_names(&root)];
        assert_eq!(names[0].as_ref().unwrap(), names[1].as_ref().unwrap());
        assert_eq!(
            db2.result_element(after[0]).unwrap(),
            db.result_element(before[0]).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A generated collection of a few hundred documents (a store of many
    /// leaves) and the name of its first document's root.
    fn generated(seed: u64) -> (Database, String) {
        let mut cfg = approxql_gen::DataGenConfig::paper_scale_divided(1000);
        cfg.seed = seed;
        let tree = approxql_gen::DataGenerator::new(cfg).generate_tree(&CostModel::new());
        let db = Database::from_tree(tree, CostModel::new());
        let first = NodeId(db.tree().documents()[0].start);
        let name = db.tree().element_name(first).unwrap().to_owned();
        (db, name)
    }

    #[test]
    fn an_opened_store_saves_back_to_its_own_path() {
        let dir = std::env::temp_dir().join(format!("axql-db-resave-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.axql");
        let (db, name) = generated(11);
        db.save(&path).unwrap();
        let image = std::fs::read(&path).unwrap();
        assert!(image.len() > 64 * 4096, "{} bytes", image.len());
        let want = db.query_direct(name.as_str(), None).unwrap();
        // Reads the file it replaces while it writes the new one.
        let opened = Database::open(&path).unwrap();
        assert_eq!(opened.query_direct(name.as_str(), None).unwrap(), want);
        opened.save(&path).unwrap();
        assert!(std::fs::read(&path).unwrap() == image);
        // A reader keeps reading the file it opened when another writer
        // rebuilds the path, also lists it had not read before.
        let reader = Database::open(&path).unwrap();
        let (other, other_name) = generated(12);
        other.save(&path).unwrap();
        let want_schema = db.query_schema(name.as_str(), 10).unwrap();
        assert_eq!(reader.query_direct(name.as_str(), None).unwrap(), want);
        assert_eq!(reader.query_schema(name.as_str(), 10).unwrap(), want_schema);
        reader.materialize().unwrap();
        assert_eq!(reader.tree().to_bytes(), db.tree().to_bytes());
        let rebuilt = Database::open(&path).unwrap();
        assert_eq!(
            rebuilt.query_direct(other_name.as_str(), None).unwrap(),
            other.query_direct(other_name.as_str(), None).unwrap()
        );
        // Nothing is left beside the store.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_mutation_of_an_undecodable_store_changes_nothing() {
        let dir = std::env::temp_dir().join(format!("axql-db-undecodable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.axql");
        let db = Database::from_xml_strs(
            &[
                "<cd><title>piano</title></cd>",
                "<mc><title>cello</title></mc>",
            ],
            CostModel::new(),
        )
        .unwrap();
        db.save(&path).unwrap();
        // A checksum-valid commit that damages the second document's
        // segment, which `open` does not read.
        let second = db.tree().documents()[1];
        let mut store = Store::open_file(&path).unwrap();
        store.put(&doc_key(second.start), b"not a segment").unwrap();
        store.commit().unwrap();
        drop(store);
        let damaged = std::fs::read(&path).unwrap();

        let mut opened = Database::open(&path).unwrap();
        assert_eq!(opened.query_direct("cd[title]", None).unwrap().len(), 1);
        let delta =
            opened.insert_document(&parse_document("<cd><title>harp</title></cd>").unwrap());
        assert!(!delta.span.alive && delta.changed_labels.is_empty());
        assert!(opened.delete_document(NodeId(1)).is_none());
        let decode = |r: Result<(), DatabaseError>| matches!(r, Err(DatabaseError::TreeDecode(_)));
        assert!(decode(opened.materialize()));
        assert!(decode(opened.save(&path)));
        assert!(decode(opened.save(dir.join("copy.axql"))));
        // Queries that read nothing damaged fail too: the collection they
        // would answer from is not the one the caller mutated.
        assert!(decode(opened.query_direct("cd[title]", None).map(drop)));
        assert!(decode(opened.query_schema("cd[title]", 5).map(drop)));
        assert!(decode(opened.element_names(&[NodeId(1)]).map(drop)));
        assert_eq!(opened.tree().len(), 1, "the empty collection");
        // The file is the damaged store it was, and nothing lies beside it.
        assert!(std::fs::read(&path).unwrap() == damaged);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
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
        let before = approxql_metrics::snapshot();
        let first = db.query_direct(classic, None).unwrap();
        // The JSON-IR spelling is detected and hits the classic entry:
        // one compile total, a cross-surface cache hit.
        let via_json = db.query_direct(json, None).unwrap();
        let delta = approxql_metrics::snapshot().diff(&before);
        assert_eq!(delta.get(Metric::PlanCacheMisses), 1);
        assert_eq!(delta.get(Metric::PlanCacheHits), 1);
        assert_eq!(delta.get(Metric::PlanCompile), 1);
        assert_eq!(first, via_json);
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
        // Same fingerprint for the equivalent JSON-IR spelling.
        let other = db
            .explain_direct_json(
                r#"{"v":1,"query":{"name":"cd","child":{"name":"title","child":{"text":"piano"}}}}"#,
                Some(10),
                opts,
            )
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
    fn delete_hides_document_and_keeps_cached_plans() {
        let docs = [
            "<cd><title>piano</title></cd>",
            "<cd><title>cello</title></cd>",
        ];
        let mut db = Database::from_xml_strs(&docs, paper_section6_costs()).unwrap();
        // Warm the cache, then delete a document the plan's labels occur
        // in: the plan is reused, and it answers from what is left.
        let all = db.query_direct(r#"cd[title]"#, None).unwrap();
        assert_eq!(all.len(), 2);
        let first = db.tree().documents()[0];
        let before = approxql_metrics::snapshot();
        let delta = db.delete_document(NodeId(first.start)).expect("live root");
        assert_eq!(delta.span.start, first.start);
        let left = db.query_direct(r#"cd[title]"#, None).unwrap();
        let d = approxql_metrics::snapshot().diff(&before);
        assert_eq!(d.get(Metric::PlanCacheMisses), 0);
        assert_eq!(d.get(Metric::PlanCacheHits), 1);
        assert_eq!(d.get(Metric::PlanCacheInvalidations), 0);
        assert_eq!(left, all[1..]);
        let fresh = Database::from_xml_strs(&docs[1..], paper_section6_costs()).unwrap();
        let fresh_hits = fresh.query_direct(r#"cd[title]"#, None).unwrap();
        assert_eq!(left.len(), fresh_hits.len());
        assert_eq!(left[0].cost, fresh_hits[0].cost);
        assert!(left[0].root.0 > first.bound);
        // Double delete is a no-op.
        assert!(db.delete_document(NodeId(first.start)).is_none());
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
