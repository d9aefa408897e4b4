//! Binary (de)serialization of [`DataTree`], used by the storage layer to
//! persist a database image.
//!
//! Three body codecs are written once: the per-node **columns** of a
//! preorder range (`put_columns` / `take_columns`), the interner
//! **strings** (`put_strings` / `take_strings`) and the document **spans**
//! (`put_spans` / `take_spans`). Every structural rule a hostile blob can
//! break is checked in exactly one of the three `take_*` functions. Two
//! families of formats frame those bodies with a magic and their counts:
//!
//! * the whole-tree dump ([`DataTree::to_bytes`] / [`DataTree::from_bytes`]):
//!   magic, version, strings, node count, columns, spans. Any other
//!   version (including the pre-registry version 1, which nothing writes
//!   any more) is a typed `BadVersion`.
//! * the segmented layout used by mutable stores: a standalone interner
//!   blob (magic, strings), a document map (magic, total length, spans),
//!   and one self-contained segment per live document (magic, node count,
//!   columns; [`DataTree::doc_segment_bytes`] /
//!   [`DataTree::from_doc_segments`]), so an insert or delete rewrites
//!   O(document) bytes instead of the whole collection.

use crate::builder::VIRTUAL_ROOT_LABEL;
use crate::interner::{Interner, LabelId};
use crate::tree::{DataTree, DocSpan};
use approxql_cost::{Cost, CostModel, NodeType};
use std::fmt;
use std::ops::Range;

const MAGIC: &[u8; 8] = b"AXQLTREE";
const SEGMENT_MAGIC: &[u8; 8] = b"AXQLDSEG";
const DOCMAP_MAGIC: &[u8; 8] = b"AXQLDMAP";
const INTERNER_MAGIC: &[u8; 8] = b"AXQLINTR";
const VERSION: u32 = 2;

/// Errors raised while decoding a serialized tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeDecodeError {
    /// The byte stream does not start with the tree magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The stream ended prematurely or contains inconsistent lengths.
    Truncated,
    /// A string is not valid UTF-8.
    BadString,
    /// A structural invariant does not hold (e.g. a parent id out of range).
    Corrupt(&'static str),
}

impl fmt::Display for TreeDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeDecodeError::BadMagic => write!(f, "not a serialized data tree (bad magic)"),
            TreeDecodeError::BadVersion(v) => write!(f, "unsupported tree format version {v}"),
            TreeDecodeError::Truncated => write!(f, "serialized tree is truncated"),
            TreeDecodeError::BadString => write!(f, "serialized tree contains invalid UTF-8"),
            TreeDecodeError::Corrupt(what) => write!(f, "serialized tree is corrupt: {what}"),
        }
    }
}

impl std::error::Error for TreeDecodeError {}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading `data` behind its 8-byte `magic`.
    fn open(data: &'a [u8], magic: &[u8; 8]) -> Result<Cursor<'a>, TreeDecodeError> {
        let mut cur = Cursor { data, pos: 0 };
        if cur.take(8)? != magic {
            return Err(TreeDecodeError::BadMagic);
        }
        Ok(cur)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TreeDecodeError> {
        if n > self.data.len() - self.pos {
            return Err(TreeDecodeError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, TreeDecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, TreeDecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, TreeDecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Bounds a decoded element count before it sizes an allocation: `n`
    /// entries of at least `per` bytes each must still fit in the input.
    /// A hostile header claiming billions of entries in a 20-byte blob is
    /// rejected here instead of driving `Vec::with_capacity` into an
    /// allocation-sized-by-attacker abort.
    fn claim(&self, n: usize, per: usize) -> Result<(), TreeDecodeError> {
        match n.checked_mul(per) {
            Some(need) if need <= self.data.len() - self.pos => Ok(()),
            _ => Err(TreeDecodeError::Truncated),
        }
    }

    /// Every blob ends where its body ends.
    fn end(self) -> Result<(), TreeDecodeError> {
        if self.pos != self.data.len() {
            return Err(TreeDecodeError::Corrupt("trailing bytes"));
        }
        Ok(())
    }
}

/// The decoded node columns of one preorder range (absolute preorder
/// addressing, ready to splice into a [`DataTree`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocSegment {
    /// Label ids, resolved against the standalone interner blob.
    pub labels: Vec<LabelId>,
    /// Node types.
    pub types: Vec<NodeType>,
    /// Absolute parent preorder numbers (the document root's parent is 0).
    pub parents: Vec<u32>,
    /// Absolute subtree bounds.
    pub bounds: Vec<u32>,
    /// Insert costs.
    pub inscosts: Vec<Cost>,
    /// Root-path costs.
    pub pathcosts: Vec<Cost>,
}

/// Writes the six node columns of the preorder range `r`, one column after
/// the other.
fn put_columns(out: &mut Vec<u8>, t: &DataTree, r: Range<usize>) {
    for &l in &t.labels[r.clone()] {
        out.extend_from_slice(&l.0.to_le_bytes());
    }
    for &ty in &t.types[r.clone()] {
        out.push(match ty {
            NodeType::Struct => 0,
            NodeType::Text => 1,
        });
    }
    for &p in &t.parents[r.clone()] {
        out.extend_from_slice(&p.to_le_bytes());
    }
    for &b in &t.bounds[r.clone()] {
        out.extend_from_slice(&b.to_le_bytes());
    }
    for &c in t.inscosts[r.clone()].iter().chain(&t.pathcosts[r]) {
        out.extend_from_slice(&c.raw().to_le_bytes());
    }
}

/// Reads the columns of the `n` nodes with preorder numbers `base..base + n`
/// and checks that they form one subtree: the first node hangs off
/// `root_parent` and spans the whole range, every other node's parent is an
/// earlier structural node of the range, and its interval nests in its
/// parent's. Label ids must be below `nlabels`.
fn take_columns(
    cur: &mut Cursor<'_>,
    n: usize,
    base: usize,
    root_parent: u32,
    nlabels: usize,
) -> Result<DocSegment, TreeDecodeError> {
    use TreeDecodeError::Corrupt;
    if n == 0 {
        return Err(Corrupt("empty node range"));
    }
    // 29 B/node floor: label 4 + type 1 + parent 4 + bound 4 + two costs 16.
    cur.claim(n, 29)?;
    let last = base + n - 1;
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let l = cur.u32()?;
        if l as usize >= nlabels {
            return Err(Corrupt("label id out of range"));
        }
        labels.push(LabelId(l));
    }
    let mut types = Vec::with_capacity(n);
    for _ in 0..n {
        types.push(match cur.u8()? {
            0 => NodeType::Struct,
            1 => NodeType::Text,
            _ => return Err(Corrupt("invalid node type")),
        });
    }
    let mut parents = Vec::with_capacity(n);
    for pre in base..=last {
        let p = cur.u32()?;
        if pre == base {
            if p != root_parent {
                return Err(Corrupt("root of the range has the wrong parent"));
            }
        } else if (p as usize) < base || p as usize >= pre {
            return Err(Corrupt("parent must precede child"));
        } else if types[p as usize - base] == NodeType::Text {
            return Err(Corrupt("text node used as a parent"));
        }
        parents.push(p);
    }
    let mut bounds: Vec<u32> = Vec::with_capacity(n);
    for pre in base..=last {
        let b = cur.u32()?;
        if (b as usize) < pre || b as usize > last {
            return Err(Corrupt("bound out of range"));
        }
        if pre == base {
            if b as usize != last {
                return Err(Corrupt("root bound must equal the range bound"));
            }
        } else if b > bounds[parents[pre - base] as usize - base] {
            return Err(Corrupt("child bound exceeds its parent's"));
        }
        bounds.push(b);
    }
    let mut costs = || -> Result<Vec<Cost>, TreeDecodeError> {
        let mut column = Vec::with_capacity(n);
        for _ in 0..n {
            column.push(Cost::from_raw(cur.u64()?));
        }
        Ok(column)
    };
    Ok(DocSegment {
        labels,
        types,
        parents,
        bounds,
        inscosts: costs()?,
        pathcosts: costs()?,
    })
}

/// Writes the interner's strings in id order.
fn put_strings(out: &mut Vec<u8>, interner: &Interner) {
    out.extend_from_slice(&(interner.len() as u32).to_le_bytes());
    for (_, s) in interner.iter() {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
}

fn take_strings(cur: &mut Cursor<'_>) -> Result<Interner, TreeDecodeError> {
    let nstrings = cur.u32()?;
    let mut interner = Interner::new();
    for i in 0..nstrings {
        let len = cur.u32()? as usize;
        let s = std::str::from_utf8(cur.take(len)?).map_err(|_| TreeDecodeError::BadString)?;
        if interner.intern(s) != LabelId(i) {
            return Err(TreeDecodeError::Corrupt("duplicate interned string"));
        }
    }
    Ok(interner)
}

/// Writes every document span, tombstones included.
fn put_spans(out: &mut Vec<u8>, docs: &[DocSpan]) {
    out.extend_from_slice(&(docs.len() as u32).to_le_bytes());
    for d in docs {
        out.extend_from_slice(&d.start.to_le_bytes());
        out.extend_from_slice(&d.bound.to_le_bytes());
        out.push(u8::from(d.alive));
    }
}

/// Reads the spans and checks that they contiguously partition
/// `1..total_len`.
fn take_spans(cur: &mut Cursor<'_>, total_len: usize) -> Result<Vec<DocSpan>, TreeDecodeError> {
    use TreeDecodeError::Corrupt;
    const NO_PARTITION: TreeDecodeError = Corrupt("doc spans must partition the tree");
    let ndocs = cur.u32()? as usize;
    // 9 B/span floor: start 4 + bound 4 + liveness 1.
    cur.claim(ndocs, 9)?;
    let mut docs = Vec::with_capacity(ndocs);
    let mut expect = 1;
    for _ in 0..ndocs {
        let start = cur.u32()?;
        let bound = cur.u32()?;
        let alive = match cur.u8()? {
            0 => false,
            1 => true,
            _ => return Err(Corrupt("invalid doc liveness flag")),
        };
        if start as usize != expect || bound < start || bound as usize >= total_len {
            return Err(NO_PARTITION);
        }
        expect = bound as usize + 1;
        docs.push(DocSpan {
            start,
            bound,
            alive,
        });
    }
    if expect != total_len {
        return Err(NO_PARTITION);
    }
    Ok(docs)
}

impl DataTree {
    /// Serializes the tree to a byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.labels.len();
        let mut out = Vec::with_capacity(32 + n * 29);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        put_strings(&mut out, &self.interner);
        out.extend_from_slice(&(n as u64).to_le_bytes());
        put_columns(&mut out, self, 0..n);
        put_spans(&mut out, &self.docs);
        out
    }

    /// Decodes a tree serialized by [`DataTree::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<DataTree, TreeDecodeError> {
        let mut cur = Cursor::open(data, MAGIC)?;
        let version = cur.u32()?;
        if version != VERSION {
            return Err(TreeDecodeError::BadVersion(version));
        }
        let interner = take_strings(&mut cur)?;
        let n = cur.u64()? as usize;
        let columns = take_columns(&mut cur, n, 0, u32::MAX, interner.len())?;
        let docs = take_spans(&mut cur, n)?;
        cur.end()?;
        Ok(DataTree::from_columns(columns, interner, docs))
    }

    /// A tree is the columns of its whole preorder range plus the interner
    /// and the document registry.
    fn from_columns(columns: DocSegment, interner: Interner, docs: Vec<DocSpan>) -> DataTree {
        DataTree {
            labels: columns.labels,
            types: columns.types,
            parents: columns.parents,
            bounds: columns.bounds,
            inscosts: columns.inscosts,
            pathcosts: columns.pathcosts,
            interner,
            docs,
        }
    }

    /// Serializes the document `span` as a self-contained segment
    /// (absolute preorder addressing; decoded by [`decode_doc_segment`]).
    pub fn doc_segment_bytes(&self, span: DocSpan) -> Vec<u8> {
        let r = span.start as usize..span.bound as usize + 1;
        let mut out = Vec::with_capacity(12 + r.len() * 29);
        out.extend_from_slice(SEGMENT_MAGIC);
        out.extend_from_slice(&(r.len() as u32).to_le_bytes());
        put_columns(&mut out, self, r);
        out
    }

    /// Reassembles a tree from the segmented layout: the standalone
    /// interner, the document map (`total_len` + spans), and one decoded
    /// segment per *live* document. Tombstoned ranges become inert filler
    /// nodes that the liveness checks hide; the virtual root is
    /// reconstructed from `costs`.
    pub fn from_doc_segments(
        interner: Interner,
        total_len: u32,
        docs: Vec<DocSpan>,
        segments: &[(DocSpan, DocSegment)],
        costs: &CostModel,
    ) -> Result<DataTree, TreeDecodeError> {
        let n = total_len as usize;
        if n == 0 {
            return Err(TreeDecodeError::Corrupt("empty docmap"));
        }
        let Some(root_label) = interner.get(VIRTUAL_ROOT_LABEL) else {
            return Err(TreeDecodeError::Corrupt(
                "interner lacks the virtual root label",
            ));
        };
        // No blob bounds `n`: a tombstoned span stores nothing, so a
        // two-span document map may claim 2³² − 1 nodes. A column that
        // does not fit in memory is an error, not an abort.
        fn column<T: Clone>(n: usize, fill: T) -> Result<Vec<T>, TreeDecodeError> {
            let mut column = Vec::new();
            column.try_reserve_exact(n).map_err(|_| {
                TreeDecodeError::Corrupt("document map claims more nodes than fit in memory")
            })?;
            column.resize(n, fill);
            Ok(column)
        }
        let mut all = DocSegment {
            labels: column(n, root_label)?,
            types: column(n, NodeType::Struct)?,
            parents: column(n, 0)?,
            bounds: column(n, 0)?,
            inscosts: column(n, Cost::ZERO)?,
            pathcosts: column(n, Cost::ZERO)?,
        };
        all.parents[0] = u32::MAX;
        all.bounds[0] = total_len - 1;
        all.inscosts[0] = costs.insert_cost(NodeType::Struct, VIRTUAL_ROOT_LABEL);
        // Filler for tombstoned ranges: point every bound at the doc bound
        // so the child iterator's jump clears the gap in one step.
        for d in &docs {
            if !d.alive {
                for b in &mut all.bounds[d.start as usize..=d.bound as usize] {
                    *b = d.bound;
                }
            }
        }
        let mut seg_iter = segments.iter();
        for d in docs.iter().filter(|d| d.alive) {
            let Some((span, seg)) = seg_iter.next() else {
                return Err(TreeDecodeError::Corrupt("missing segment for live doc"));
            };
            if *span != *d {
                return Err(TreeDecodeError::Corrupt(
                    "segment does not match its doc span",
                ));
            }
            let lo = d.start as usize;
            let hi = d.bound as usize + 1;
            if seg.labels.len() != hi - lo {
                return Err(TreeDecodeError::Corrupt("segment length mismatch"));
            }
            all.labels[lo..hi].copy_from_slice(&seg.labels);
            all.types[lo..hi].copy_from_slice(&seg.types);
            all.parents[lo..hi].copy_from_slice(&seg.parents);
            all.bounds[lo..hi].copy_from_slice(&seg.bounds);
            all.inscosts[lo..hi].copy_from_slice(&seg.inscosts);
            all.pathcosts[lo..hi].copy_from_slice(&seg.pathcosts);
        }
        if seg_iter.next().is_some() {
            return Err(TreeDecodeError::Corrupt("extra segment without a live doc"));
        }
        for label in all.labels.iter().skip(1) {
            if label.index() >= interner.len() {
                return Err(TreeDecodeError::Corrupt("label id out of range"));
            }
        }
        Ok(DataTree::from_columns(all, interner, docs))
    }
}

/// Decodes a segment written by [`DataTree::doc_segment_bytes`],
/// validating its structure against the expected `span` and the interner
/// size `nlabels`.
pub fn decode_doc_segment(
    data: &[u8],
    span: DocSpan,
    nlabels: usize,
) -> Result<DocSegment, TreeDecodeError> {
    let mut cur = Cursor::open(data, SEGMENT_MAGIC)?;
    let n = cur.u32()? as usize;
    if span.start as usize + n != span.bound as usize + 1 {
        return Err(TreeDecodeError::Corrupt("segment length mismatch"));
    }
    let segment = take_columns(&mut cur, n, span.start as usize, 0, nlabels)?;
    cur.end()?;
    Ok(segment)
}

/// Serializes an interner as a standalone blob (strings in id order).
pub fn encode_interner(interner: &Interner) -> Vec<u8> {
    let mut out = INTERNER_MAGIC.to_vec();
    put_strings(&mut out, interner);
    out
}

/// Decodes a blob written by [`encode_interner`].
pub fn decode_interner(data: &[u8]) -> Result<Interner, TreeDecodeError> {
    let mut cur = Cursor::open(data, INTERNER_MAGIC)?;
    let interner = take_strings(&mut cur)?;
    cur.end()?;
    Ok(interner)
}

/// Serializes the document map: total preorder length plus every span,
/// tombstones included.
pub fn encode_docmap(total_len: u32, docs: &[DocSpan]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + docs.len() * 9);
    out.extend_from_slice(DOCMAP_MAGIC);
    out.extend_from_slice(&total_len.to_le_bytes());
    put_spans(&mut out, docs);
    out
}

/// Decodes a blob written by [`encode_docmap`], checking that the spans
/// contiguously partition `1..total_len`.
pub fn decode_docmap(data: &[u8]) -> Result<(u32, Vec<DocSpan>), TreeDecodeError> {
    let mut cur = Cursor::open(data, DOCMAP_MAGIC)?;
    let total_len = cur.u32()?;
    if total_len == 0 {
        return Err(TreeDecodeError::Corrupt("empty docmap"));
    }
    let docs = take_spans(&mut cur, total_len as usize)?;
    cur.end()?;
    Ok((total_len, docs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DataTreeBuilder;
    use crate::tree::NodeId;
    use approxql_cost::CostModel;

    fn sample() -> DataTree {
        let mut b = DataTreeBuilder::new();
        b.begin_struct("cd");
        b.begin_struct("title");
        b.add_text("piano concerto");
        b.end();
        b.end();
        b.build(&CostModel::new())
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let bytes = t.to_bytes();
        let t2 = DataTree::from_bytes(&bytes).unwrap();
        assert_eq!(t2.len(), t.len());
        for n in t.nodes() {
            assert_eq!(t2.label(n), t.label(n));
            assert_eq!(t2.node_type(n), t.node_type(n));
            assert_eq!(t2.parent(n), t.parent(n));
            assert_eq!(t2.bound(n), t.bound(n));
            assert_eq!(t2.inscost(n), t.inscost(n));
            assert_eq!(t2.pathcost(n), t.pathcost(n));
        }
    }

    #[test]
    fn rejects_bad_magic() {
        assert_eq!(
            DataTree::from_bytes(b"NOTATREE????").unwrap_err(),
            TreeDecodeError::BadMagic
        );
    }

    /// Every proper prefix of a blob must fail to decode.
    fn every_prefix_fails<T>(
        kind: &str,
        blob: &[u8],
        decode: impl Fn(&[u8]) -> Result<T, TreeDecodeError>,
    ) {
        assert!(decode(blob).is_ok(), "{kind}: the whole blob must decode");
        for cut in 0..blob.len() {
            assert!(
                decode(&blob[..cut]).is_err(),
                "{kind}: prefix of {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn every_blob_kind_rejects_truncation_anywhere() {
        let t = sample();
        let d = t.documents()[0];
        let nlabels = t.interner().len();
        every_prefix_fails("dump", &t.to_bytes(), DataTree::from_bytes);
        every_prefix_fails("segment", &t.doc_segment_bytes(d), |b| {
            decode_doc_segment(b, d, nlabels)
        });
        every_prefix_fails("interner", &encode_interner(t.interner()), decode_interner);
        every_prefix_fails(
            "docmap",
            &encode_docmap(t.len() as u32, t.documents()),
            decode_docmap,
        );
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert_eq!(
            DataTree::from_bytes(&bytes).unwrap_err(),
            TreeDecodeError::Corrupt("trailing bytes")
        );
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = sample().to_bytes();
        bytes[8] = 99;
        assert_eq!(
            DataTree::from_bytes(&bytes).unwrap_err(),
            TreeDecodeError::BadVersion(99)
        );
    }

    #[test]
    fn decoded_tree_answers_queries() {
        let t = DataTree::from_bytes(&sample().to_bytes()).unwrap();
        assert!(t.is_ancestor(NodeId(1), NodeId(3)));
        assert_eq!(t.distance(NodeId(1), NodeId(3)), Cost::finite(1));
    }

    #[test]
    fn roundtrip_preserves_tombstones() {
        let mut t = {
            let mut b = DataTreeBuilder::new();
            b.begin_struct("a");
            b.add_text("one");
            b.end();
            b.begin_struct("b");
            b.add_text("two");
            b.end();
            b.build(&CostModel::new())
        };
        let first = t.documents()[0];
        t.delete_document(NodeId(first.start)).unwrap();
        let t2 = DataTree::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(t2.documents(), t.documents());
        assert!(!t2.is_live(NodeId(first.start)));
    }

    #[test]
    fn rejects_version_one_input() {
        // A v1 blob is a v2 blob minus the docs section, with version 1.
        // Nothing writes it and store format v3 cannot contain it.
        let t = sample();
        let mut bytes = t.to_bytes();
        let docs_bytes = 4 + t.documents().len() * 9;
        bytes.truncate(bytes.len() - docs_bytes);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            DataTree::from_bytes(&bytes).unwrap_err(),
            TreeDecodeError::BadVersion(1)
        );
    }

    #[test]
    fn segmented_layout_roundtrips() {
        let costs = CostModel::new();
        let mut t = {
            let mut b = DataTreeBuilder::new();
            b.begin_struct("a");
            b.add_text("one");
            b.end();
            b.begin_struct("b");
            b.begin_struct("c");
            b.add_text("two three");
            b.end();
            b.end();
            b.build(&costs)
        };
        t.delete_document(NodeId(t.documents()[0].start)).unwrap();

        let interner_blob = encode_interner(t.interner());
        let docmap_blob = encode_docmap(t.len() as u32, t.documents());
        let segments: Vec<_> = t
            .documents()
            .iter()
            .filter(|d| d.alive)
            .map(|&d| {
                let blob = t.doc_segment_bytes(d);
                (d, decode_doc_segment(&blob, d, t.interner().len()).unwrap())
            })
            .collect();

        let interner = decode_interner(&interner_blob).unwrap();
        let (total_len, docs) = decode_docmap(&docmap_blob).unwrap();
        let t2 = DataTree::from_doc_segments(interner, total_len, docs, &segments, &costs).unwrap();

        assert_eq!(t2.len(), t.len());
        assert_eq!(t2.documents(), t.documents());
        for n in t.live_nodes() {
            assert_eq!(t2.label(n), t.label(n), "label of {n}");
            assert_eq!(t2.node_type(n), t.node_type(n));
            assert_eq!(t2.parent(n), t.parent(n));
            assert_eq!(t2.bound(n), t.bound(n), "bound of {n}");
            assert_eq!(t2.inscost(n), t.inscost(n));
            assert_eq!(t2.pathcost(n), t.pathcost(n));
        }
        // The gap is skipped identically.
        let kids: Vec<_> = t2.children(t2.root()).collect();
        assert_eq!(kids, t.children(t.root()).collect::<Vec<_>>());
    }

    #[test]
    fn segment_decode_rejects_corruption() {
        let t = sample();
        let d = t.documents()[0];
        let blob = t.doc_segment_bytes(d);
        assert_eq!(
            decode_doc_segment(b"NOTASEG?", d, t.interner().len()).unwrap_err(),
            TreeDecodeError::BadMagic
        );
        // A wrong span is rejected up front.
        let wrong = DocSpan {
            start: d.start,
            bound: d.bound + 1,
            alive: true,
        };
        assert!(decode_doc_segment(&blob, wrong, t.interner().len()).is_err());
    }

    /// A checksum-valid blob whose columns do not describe one subtree must
    /// not decode into a tree: each violation is planted in the dump and in
    /// the segment of the same document and hits the same check.
    #[test]
    fn both_framings_reject_columns_that_are_not_a_subtree() {
        // 0 root, 1 cd, 2 title, 3 "piano", 4 "concerto", 5 composer, 6 "rachmaninov"
        let t = {
            let mut b = DataTreeBuilder::new();
            b.begin_struct("cd");
            b.begin_struct("title");
            b.add_text("piano concerto");
            b.end();
            b.begin_struct("composer");
            b.add_text("rachmaninov");
            b.end();
            b.end();
            b.build(&CostModel::new())
        };
        let d = t.documents()[0];
        let (dump, segment) = (t.to_bytes(), t.doc_segment_bytes(d));
        // Columns: labels 4 B, types 1 B, parents 4 B, bounds 4 B per node.
        // The dump's columns end 13 B (one span) before its end, 29 B per node.
        let dump_columns = dump.len() - 13 - 29 * t.len();
        let plant = |blob: &[u8], columns: usize, n: usize, column: usize, at: usize, v: u32| {
            let mut bad = blob.to_vec();
            let pos = columns + (5 + 4 * column) * n + 4 * at;
            bad[pos..pos + 4].copy_from_slice(&v.to_le_bytes());
            bad
        };
        const PARENTS: usize = 0;
        const BOUNDS: usize = 1;
        let nlabels = t.interner().len();
        for (what, column, node, value) in [
            ("parent must precede child", PARENTS, 2, 2),
            ("text node used as a parent", PARENTS, 4, 3),
            ("bound out of range", BOUNDS, 6, 7),
            ("bound out of range", BOUNDS, 4, 3),
            ("child bound exceeds its parent's", BOUNDS, 4, 6),
        ] {
            let bad = plant(&dump, dump_columns, t.len(), column, node, value);
            assert_eq!(
                DataTree::from_bytes(&bad).unwrap_err(),
                TreeDecodeError::Corrupt(what),
                "dump: node {node}"
            );
            let bad = plant(&segment, 12, t.len() - 1, column, node - 1, value);
            assert_eq!(
                decode_doc_segment(&bad, d, nlabels).unwrap_err(),
                TreeDecodeError::Corrupt(what),
                "segment: node {node}"
            );
        }
        // The first node of either range must span all of it.
        let short_root = TreeDecodeError::Corrupt("root bound must equal the range bound");
        let bad = plant(&dump, dump_columns, t.len(), BOUNDS, 0, 5);
        assert_eq!(DataTree::from_bytes(&bad).unwrap_err(), short_root);
        let bad = plant(&segment, 12, t.len() - 1, BOUNDS, 0, 5);
        assert_eq!(
            decode_doc_segment(&bad, d, nlabels).unwrap_err(),
            short_root
        );
    }

    #[test]
    fn docmap_decode_rejects_non_partitions() {
        let t = sample();
        let mut docs = t.documents().to_vec();
        docs[0].start = 2;
        let blob = encode_docmap(t.len() as u32, &docs);
        assert!(decode_docmap(&blob).is_err());
    }
    /// The stored bytes of all four blob kinds (tree dump version 2, store
    /// format v3) for a three-document tree with one tombstone. The dump and
    /// the segmented blobs share their bodies: strings, columns, spans.
    #[test]
    fn blob_bytes_are_the_v2_v3_layout() {
        let mut t = {
            let mut b = DataTreeBuilder::new();
            b.begin_struct("a");
            b.add_text("x");
            b.end();
            b.begin_struct("b");
            b.end();
            b.begin_struct("c");
            b.add_text("y");
            b.end();
            b.build(&CostModel::new())
        };
        t.delete_document(NodeId(3)).unwrap();

        #[rustfmt::skip]
        let strings: &[u8] = &[
            6, 0, 0, 0, // count, then (len, bytes) in id order
            5, 0, 0, 0, 0, b'r', b'o', b'o', b't',
            1, 0, 0, 0, b'a',
            1, 0, 0, 0, b'x',
            1, 0, 0, 0, b'b',
            1, 0, 0, 0, b'c',
            1, 0, 0, 0, b'y',
        ];
        #[rustfmt::skip]
        let spans: &[u8] = &[
            3, 0, 0, 0, // count, then (start, bound, alive)
            1, 0, 0, 0, 2, 0, 0, 0, 1,
            3, 0, 0, 0, 3, 0, 0, 0, 0,
            4, 0, 0, 0, 5, 0, 0, 0, 1,
        ];
        #[rustfmt::skip]
        let all_columns: &[u8] = &[
            0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 5, 0, 0, 0, // labels
            0, 0, 1, 0, 0, 1, // types: struct 0, text 1
            255, 255, 255, 255, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, // parents
            5, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 5, 0, 0, 0, 5, 0, 0, 0, // bounds
            1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, // inscosts
            1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, // pathcosts
            1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,
        ];
        #[rustfmt::skip]
        let doc_columns: &[u8] = &[
            4, 0, 0, 0, 5, 0, 0, 0, // labels
            0, 1, // types
            0, 0, 0, 0, 4, 0, 0, 0, // parents, absolute
            5, 0, 0, 0, 5, 0, 0, 0, // bounds, absolute
            1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, // inscosts
            1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, // pathcosts
        ];

        // dump: magic, version u32, strings, node count u64, columns, spans
        let node_count: &[u8] = &[6, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(
            t.to_bytes(),
            [
                b"AXQLTREE",
                &[2, 0, 0, 0][..],
                strings,
                node_count,
                all_columns,
                spans
            ]
            .concat()
        );
        // segment: magic, node count u32, columns of the range
        assert_eq!(
            t.doc_segment_bytes(t.documents()[2]),
            [b"AXQLDSEG", &[2, 0, 0, 0][..], doc_columns].concat()
        );
        // interner: magic, strings
        assert_eq!(
            encode_interner(t.interner()),
            [b"AXQLINTR", strings].concat()
        );
        // docmap: magic, total length u32, spans
        assert_eq!(
            encode_docmap(t.len() as u32, t.documents()),
            [b"AXQLDMAP", &[6, 0, 0, 0][..], spans].concat()
        );
    }
}
