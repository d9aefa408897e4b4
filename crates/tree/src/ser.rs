//! Binary (de)serialization of [`DataTree`], used by the storage layer to
//! persist a database image.
//!
//! Two families of formats live here:
//!
//! * the whole-tree dump ([`DataTree::to_bytes`] / [`DataTree::from_bytes`]):
//!   magic, version, interner strings, per-node column arrays, and the
//!   document registry. Any other version (including the pre-registry
//!   version 1, which nothing writes any more) is a typed `BadVersion`.
//! * the segmented layout used by mutable stores: a standalone interner
//!   blob, a document map, and one self-contained segment per live
//!   document ([`DataTree::doc_segment_bytes`] /
//!   [`DataTree::from_doc_segments`]), so an insert or delete rewrites
//!   O(document) bytes instead of the whole collection.

use crate::builder::VIRTUAL_ROOT_LABEL;
use crate::interner::{Interner, LabelId};
use crate::tree::{DataTree, DocSpan};
use approxql_cost::{Cost, CostModel, NodeType};
use std::fmt;

const MAGIC: &[u8; 8] = b"AXQLTREE";
const SEGMENT_MAGIC: &[u8; 8] = b"AXQLDSEG";
const DOCMAP_MAGIC: &[u8; 8] = b"AXQLDMAP";
const INTERNER_MAGIC: &[u8; 8] = b"AXQLINTR";
const VERSION: u32 = 2;

/// Errors raised while decoding a serialized tree.
#[derive(Debug, PartialEq, Eq)]
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
    fn take(&mut self, n: usize) -> Result<&'a [u8], TreeDecodeError> {
        if self.pos + n > self.data.len() {
            return Err(TreeDecodeError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
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
}

impl DataTree {
    /// Serializes the tree to a byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.labels.len();
        let mut out = Vec::with_capacity(32 + n * 25);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.interner.len() as u32).to_le_bytes());
        for (_, s) in self.interner.iter() {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        out.extend_from_slice(&(n as u64).to_le_bytes());
        for &l in &self.labels {
            out.extend_from_slice(&l.0.to_le_bytes());
        }
        for &t in &self.types {
            out.push(match t {
                NodeType::Struct => 0,
                NodeType::Text => 1,
            });
        }
        for &p in &self.parents {
            out.extend_from_slice(&p.to_le_bytes());
        }
        for &b in &self.bounds {
            out.extend_from_slice(&b.to_le_bytes());
        }
        for &c in &self.inscosts {
            out.extend_from_slice(&c.raw().to_le_bytes());
        }
        for &c in &self.pathcosts {
            out.extend_from_slice(&c.raw().to_le_bytes());
        }
        out.extend_from_slice(&(self.docs.len() as u32).to_le_bytes());
        for d in &self.docs {
            out.extend_from_slice(&d.start.to_le_bytes());
            out.extend_from_slice(&d.bound.to_le_bytes());
            out.push(u8::from(d.alive));
        }
        out
    }

    /// Decodes a tree serialized by [`DataTree::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<DataTree, TreeDecodeError> {
        let mut cur = Cursor { data, pos: 0 };
        if cur.take(8)? != MAGIC {
            return Err(TreeDecodeError::BadMagic);
        }
        let version = cur.u32()?;
        if version != VERSION {
            return Err(TreeDecodeError::BadVersion(version));
        }
        let nstrings = cur.u32()? as usize;
        let mut interner = Interner::new();
        for i in 0..nstrings {
            let len = cur.u32()? as usize;
            let s = std::str::from_utf8(cur.take(len)?).map_err(|_| TreeDecodeError::BadString)?;
            let id = interner.intern(s);
            if id != LabelId(i as u32) {
                return Err(TreeDecodeError::Corrupt("duplicate interned string"));
            }
        }
        let n = cur.u64()? as usize;
        // 29 B/node floor: label 4 + type 1 + parent 4 + bound 4 + two costs 16.
        cur.claim(n, 29)?;
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let l = cur.u32()?;
            if l as usize >= nstrings {
                return Err(TreeDecodeError::Corrupt("label id out of range"));
            }
            labels.push(LabelId(l));
        }
        let mut types = Vec::with_capacity(n);
        for _ in 0..n {
            types.push(match cur.take(1)?[0] {
                0 => NodeType::Struct,
                1 => NodeType::Text,
                _ => return Err(TreeDecodeError::Corrupt("invalid node type")),
            });
        }
        let mut parents = Vec::with_capacity(n);
        for i in 0..n {
            let p = cur.u32()?;
            if i == 0 {
                if p != u32::MAX {
                    return Err(TreeDecodeError::Corrupt("root must have no parent"));
                }
            } else if p as usize >= i {
                return Err(TreeDecodeError::Corrupt("parent must precede child"));
            }
            parents.push(p);
        }
        let mut bounds = Vec::with_capacity(n);
        for i in 0..n {
            let b = cur.u32()?;
            if (b as usize) < i || b as usize >= n {
                return Err(TreeDecodeError::Corrupt("bound out of range"));
            }
            bounds.push(b);
        }
        let mut inscosts = Vec::with_capacity(n);
        for _ in 0..n {
            inscosts.push(Cost::from_raw(cur.u64()?));
        }
        let mut pathcosts = Vec::with_capacity(n);
        for _ in 0..n {
            pathcosts.push(Cost::from_raw(cur.u64()?));
        }
        let ndocs = cur.u32()? as usize;
        // 9 B/span floor: start 4 + bound 4 + liveness 1.
        cur.claim(ndocs, 9)?;
        let mut docs = Vec::with_capacity(ndocs);
        let mut expect = 1u32;
        for _ in 0..ndocs {
            let start = cur.u32()?;
            let bound = cur.u32()?;
            let alive = match cur.take(1)?[0] {
                0 => false,
                1 => true,
                _ => return Err(TreeDecodeError::Corrupt("invalid doc liveness flag")),
            };
            if start != expect || bound < start || bound as usize >= n {
                return Err(TreeDecodeError::Corrupt(
                    "doc spans must partition the tree",
                ));
            }
            expect = bound + 1;
            docs.push(DocSpan {
                start,
                bound,
                alive,
            });
        }
        if expect as usize != n.max(1) {
            return Err(TreeDecodeError::Corrupt(
                "doc spans must partition the tree",
            ));
        }
        if cur.pos != data.len() {
            return Err(TreeDecodeError::Corrupt("trailing bytes"));
        }
        Ok(DataTree {
            labels,
            types,
            parents,
            bounds,
            inscosts,
            pathcosts,
            interner,
            docs,
        })
    }
}

/// The decoded node columns of one document segment (absolute preorder
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

impl DataTree {
    /// Serializes the document `span` as a self-contained segment
    /// (absolute preorder addressing; decoded by [`decode_doc_segment`]).
    pub fn doc_segment_bytes(&self, span: DocSpan) -> Vec<u8> {
        let lo = span.start as usize;
        let hi = span.bound as usize + 1;
        let n = hi - lo;
        let mut out = Vec::with_capacity(24 + n * 29);
        out.extend_from_slice(SEGMENT_MAGIC);
        out.extend_from_slice(&(n as u32).to_le_bytes());
        for &l in &self.labels[lo..hi] {
            out.extend_from_slice(&l.0.to_le_bytes());
        }
        for &t in &self.types[lo..hi] {
            out.push(match t {
                NodeType::Struct => 0,
                NodeType::Text => 1,
            });
        }
        for &p in &self.parents[lo..hi] {
            out.extend_from_slice(&p.to_le_bytes());
        }
        for &b in &self.bounds[lo..hi] {
            out.extend_from_slice(&b.to_le_bytes());
        }
        for &c in &self.inscosts[lo..hi] {
            out.extend_from_slice(&c.raw().to_le_bytes());
        }
        for &c in &self.pathcosts[lo..hi] {
            out.extend_from_slice(&c.raw().to_le_bytes());
        }
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
        let mut labels = vec![root_label; n];
        let mut types = vec![NodeType::Struct; n];
        let mut parents = vec![0u32; n];
        let mut bounds = vec![0u32; n];
        let mut inscosts = vec![Cost::ZERO; n];
        let mut pathcosts = vec![Cost::ZERO; n];
        parents[0] = u32::MAX;
        bounds[0] = total_len - 1;
        inscosts[0] = costs.insert_cost(NodeType::Struct, VIRTUAL_ROOT_LABEL);
        // Filler for tombstoned ranges: point every bound at the doc bound
        // so the child iterator's jump clears the gap in one step.
        for d in &docs {
            if !d.alive {
                for b in &mut bounds[d.start as usize..=d.bound as usize] {
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
            labels[lo..hi].copy_from_slice(&seg.labels);
            types[lo..hi].copy_from_slice(&seg.types);
            parents[lo..hi].copy_from_slice(&seg.parents);
            bounds[lo..hi].copy_from_slice(&seg.bounds);
            inscosts[lo..hi].copy_from_slice(&seg.inscosts);
            pathcosts[lo..hi].copy_from_slice(&seg.pathcosts);
        }
        if seg_iter.next().is_some() {
            return Err(TreeDecodeError::Corrupt("extra segment without a live doc"));
        }
        for label in labels.iter().take(n).skip(1) {
            if label.index() >= interner.len() {
                return Err(TreeDecodeError::Corrupt("label id out of range"));
            }
        }
        Ok(DataTree {
            labels,
            types,
            parents,
            bounds,
            inscosts,
            pathcosts,
            interner,
            docs,
        })
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
    let mut cur = Cursor { data, pos: 0 };
    if cur.take(8)? != SEGMENT_MAGIC {
        return Err(TreeDecodeError::BadMagic);
    }
    let n = cur.u32()? as usize;
    if n != (span.bound - span.start) as usize + 1 {
        return Err(TreeDecodeError::Corrupt("segment length mismatch"));
    }
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let l = cur.u32()?;
        if l as usize >= nlabels {
            return Err(TreeDecodeError::Corrupt("label id out of range"));
        }
        labels.push(LabelId(l));
    }
    let mut types = Vec::with_capacity(n);
    for _ in 0..n {
        types.push(match cur.take(1)?[0] {
            0 => NodeType::Struct,
            1 => NodeType::Text,
            _ => return Err(TreeDecodeError::Corrupt("invalid node type")),
        });
    }
    let mut parents = Vec::with_capacity(n);
    for i in 0..n {
        let p = cur.u32()?;
        let pre = span.start + i as u32;
        if i == 0 {
            if p != 0 {
                return Err(TreeDecodeError::Corrupt(
                    "doc root must hang off the virtual root",
                ));
            }
        } else if p < span.start || p >= pre {
            return Err(TreeDecodeError::Corrupt(
                "parent must precede child within the doc",
            ));
        }
        parents.push(p);
    }
    let mut bounds = Vec::with_capacity(n);
    for i in 0..n {
        let b = cur.u32()?;
        let pre = span.start + i as u32;
        if b < pre || b > span.bound {
            return Err(TreeDecodeError::Corrupt("bound out of range"));
        }
        bounds.push(b);
    }
    if bounds[0] != span.bound {
        return Err(TreeDecodeError::Corrupt(
            "doc root bound must equal the span bound",
        ));
    }
    let mut inscosts = Vec::with_capacity(n);
    for _ in 0..n {
        inscosts.push(Cost::from_raw(cur.u64()?));
    }
    let mut pathcosts = Vec::with_capacity(n);
    for _ in 0..n {
        pathcosts.push(Cost::from_raw(cur.u64()?));
    }
    if cur.pos != data.len() {
        return Err(TreeDecodeError::Corrupt("trailing bytes"));
    }
    Ok(DocSegment {
        labels,
        types,
        parents,
        bounds,
        inscosts,
        pathcosts,
    })
}

/// Serializes an interner as a standalone blob (strings in id order).
pub fn encode_interner(interner: &Interner) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(INTERNER_MAGIC);
    out.extend_from_slice(&(interner.len() as u32).to_le_bytes());
    for (_, s) in interner.iter() {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    out
}

/// Decodes a blob written by [`encode_interner`].
pub fn decode_interner(data: &[u8]) -> Result<Interner, TreeDecodeError> {
    let mut cur = Cursor { data, pos: 0 };
    if cur.take(8)? != INTERNER_MAGIC {
        return Err(TreeDecodeError::BadMagic);
    }
    let nstrings = cur.u32()? as usize;
    let mut interner = Interner::new();
    for i in 0..nstrings {
        let len = cur.u32()? as usize;
        let s = std::str::from_utf8(cur.take(len)?).map_err(|_| TreeDecodeError::BadString)?;
        let id = interner.intern(s);
        if id != LabelId(i as u32) {
            return Err(TreeDecodeError::Corrupt("duplicate interned string"));
        }
    }
    if cur.pos != data.len() {
        return Err(TreeDecodeError::Corrupt("trailing bytes"));
    }
    Ok(interner)
}

/// Serializes the document map: total preorder length plus every span,
/// tombstones included.
pub fn encode_docmap(total_len: u32, docs: &[DocSpan]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + docs.len() * 9);
    out.extend_from_slice(DOCMAP_MAGIC);
    out.extend_from_slice(&total_len.to_le_bytes());
    out.extend_from_slice(&(docs.len() as u32).to_le_bytes());
    for d in docs {
        out.extend_from_slice(&d.start.to_le_bytes());
        out.extend_from_slice(&d.bound.to_le_bytes());
        out.push(u8::from(d.alive));
    }
    out
}

/// Decodes a blob written by [`encode_docmap`], checking that the spans
/// contiguously partition `1..total_len`.
pub fn decode_docmap(data: &[u8]) -> Result<(u32, Vec<DocSpan>), TreeDecodeError> {
    let mut cur = Cursor { data, pos: 0 };
    if cur.take(8)? != DOCMAP_MAGIC {
        return Err(TreeDecodeError::BadMagic);
    }
    let total_len = cur.u32()?;
    if total_len == 0 {
        return Err(TreeDecodeError::Corrupt("empty docmap"));
    }
    let ndocs = cur.u32()? as usize;
    // 9 B/span floor: start 4 + bound 4 + liveness 1.
    cur.claim(ndocs, 9)?;
    let mut docs = Vec::with_capacity(ndocs);
    let mut expect = 1u32;
    for _ in 0..ndocs {
        let start = cur.u32()?;
        let bound = cur.u32()?;
        let alive = match cur.take(1)?[0] {
            0 => false,
            1 => true,
            _ => return Err(TreeDecodeError::Corrupt("invalid doc liveness flag")),
        };
        if start != expect || bound < start || bound >= total_len {
            return Err(TreeDecodeError::Corrupt(
                "doc spans must partition the tree",
            ));
        }
        expect = bound + 1;
        docs.push(DocSpan {
            start,
            bound,
            alive,
        });
    }
    if expect != total_len.max(1) {
        return Err(TreeDecodeError::Corrupt(
            "doc spans must partition the tree",
        ));
    }
    if cur.pos != data.len() {
        return Err(TreeDecodeError::Corrupt("trailing bytes"));
    }
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

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                DataTree::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
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
        for cut in 0..blob.len() {
            assert!(
                decode_doc_segment(&blob[..cut], d, t.interner().len()).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
        // A wrong span is rejected up front.
        let wrong = DocSpan {
            start: d.start,
            bound: d.bound + 1,
            alive: true,
        };
        assert!(decode_doc_segment(&blob, wrong, t.interner().len()).is_err());
    }

    #[test]
    fn docmap_decode_rejects_non_partitions() {
        let t = sample();
        let mut docs = t.documents().to_vec();
        docs[0].start = 2;
        let blob = encode_docmap(t.len() as u32, &docs);
        assert!(decode_docmap(&blob).is_err());
    }
}
