//! Binary (de)serialization of [`DataTree`], used by the storage layer to
//! persist a database image.
//!
//! Three body codecs are written once: the structural **columns** of a
//! preorder range (`put_columns` / `take_columns`), the interner
//! **strings** (`put_strings` / `take_strings`) and the document **spans**
//! (`put_spans` / `take_spans`). A node's columns are two varints,
//! `label << 1 | type` and its subtree size `bound − pre` (the region
//! encoding of Section 6.2 with `pre` implicit); its parent follows from
//! the sizes (`link`) and its costs from the cost model
//! ([`DataTree::seal`]). Every structural rule a hostile blob can
//! break is checked in exactly one of `take_columns`, `link`,
//! `take_strings` and `take_spans`. Two families of formats frame those
//! bodies with a magic and their counts:
//!
//! * the whole-tree dump ([`DataTree::to_bytes`] / [`DataTree::from_bytes`]):
//!   magic, version, strings, node count, columns, the `inscost` and
//!   `pathcost` columns (`u64` each: the dump is read without a cost
//!   model), spans. Any other version (including 1 and 2, which nothing
//!   writes any more) is a typed `BadVersion`.
//! * the segmented layout used by mutable stores: a standalone interner
//!   blob (magic, strings), a document map (magic, total length, spans),
//!   and one self-contained segment per live document (magic, node count,
//!   columns; [`DataTree::doc_segment_bytes`] /
//!   [`DataTree::from_doc_segments`]), so an insert or delete rewrites
//!   O(document) bytes instead of the whole collection.

use crate::builder::VIRTUAL_ROOT_LABEL;
use crate::interner::{Interner, LabelId};
use crate::tree::{DataTree, DocSpan};
use crate::varint::{read_varint, write_varint, VarintError};
use approxql_cost::{Cost, CostModel, NodeType};
use std::fmt;
use std::ops::Range;

const MAGIC: &[u8; 8] = b"AXQLTREE";
const SEGMENT_MAGIC: &[u8; 8] = b"AXQLDSEG";
const DOCMAP_MAGIC: &[u8; 8] = b"AXQLDMAP";
const INTERNER_MAGIC: &[u8; 8] = b"AXQLINTR";
const VERSION: u32 = 3;

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
    /// A structural invariant does not hold (e.g. a subtree size out of
    /// range).
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

    fn varint(&mut self) -> Result<u64, TreeDecodeError> {
        read_varint(self.data, &mut self.pos).map_err(|e| match e {
            VarintError::RunsPast => TreeDecodeError::Truncated,
            VarintError::Overlong => TreeDecodeError::Corrupt("varint exceeds 64 bits"),
        })
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

/// The decoded columns of one preorder range (absolute preorder
/// addressing, ready to splice into a [`DataTree`]). Parents and costs are
/// not stored: [`DataTree::from_doc_segments`] derives them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocSegment {
    /// Label ids, resolved against the standalone interner blob.
    pub labels: Vec<LabelId>,
    /// Node types.
    pub types: Vec<NodeType>,
    /// Absolute subtree bounds.
    pub bounds: Vec<u32>,
}

/// Writes the columns of the preorder range `r`: per node, in preorder,
/// `varint(label << 1 | type)` and `varint(bound − pre)`.
fn put_columns(out: &mut Vec<u8>, t: &DataTree, r: Range<usize>) {
    for pre in r {
        let text = u64::from(t.types[pre] == NodeType::Text);
        write_varint(out, u64::from(t.labels[pre].0) << 1 | text);
        write_varint(out, u64::from(t.bounds[pre]) - pre as u64);
    }
}

/// Reads the columns of the `n` nodes with preorder numbers
/// `base..base + n`: label ids below `nlabels`, subtree sizes that fit in
/// the range, and no subtree below a text node. Whether the subtrees nest
/// is [`link`]'s check.
fn take_columns(
    cur: &mut Cursor<'_>,
    n: usize,
    base: usize,
    nlabels: usize,
) -> Result<DocSegment, TreeDecodeError> {
    use TreeDecodeError::Corrupt;
    if n == 0 {
        return Err(Corrupt("empty node range"));
    }
    // 2 B/node floor: two varints of at least one byte each.
    cur.claim(n, 2)?;
    let last = base + n - 1;
    let mut seg = DocSegment {
        labels: Vec::with_capacity(n),
        types: Vec::with_capacity(n),
        bounds: Vec::with_capacity(n),
    };
    for pre in base..=last {
        let tagged = cur.varint()?;
        let label = match u32::try_from(tagged >> 1) {
            Ok(l) if (l as usize) < nlabels => LabelId(l),
            _ => return Err(Corrupt("label id out of range")),
        };
        let ty = [NodeType::Struct, NodeType::Text][(tagged & 1) as usize];
        let size = cur.varint()?;
        let bound = (pre as u64)
            .checked_add(size)
            .filter(|&b| b <= last as u64)
            .and_then(|b| u32::try_from(b).ok())
            .ok_or(Corrupt("subtree size out of range"))?;
        if ty == NodeType::Text && size != 0 {
            return Err(Corrupt("text node has a subtree"));
        }
        seg.labels.push(label);
        seg.types.push(ty);
        seg.bounds.push(bound);
    }
    Ok(seg)
}

/// Derives the parents of the preorder range `base..base + bounds.len()`
/// from its subtree bounds and checks that they describe one subtree: the
/// first node spans the range, and every other nests in its parent, the
/// nearest earlier node whose subtree holds it. `parent` receives the
/// parent of every node but the first, in preorder.
fn link(bounds: &[u32], base: u32, mut parent: impl FnMut(u32)) -> Result<(), TreeDecodeError> {
    use TreeDecodeError::Corrupt;
    let Some((&root, rest)) = bounds.split_first() else {
        return Err(Corrupt("empty node range"));
    };
    if root as usize != base as usize + rest.len() {
        return Err(Corrupt("root must span the range"));
    }
    // The nodes below the root whose subtrees are still open, innermost
    // last, as (pre, bound); the root's stays open to the end.
    let mut open: Vec<(u32, u32)> = Vec::new();
    for (i, &bound) in rest.iter().enumerate() {
        let pre = base + 1 + i as u32;
        while open.last().is_some_and(|&(_, b)| b < pre) {
            open.pop();
        }
        let (p, b) = open.last().copied().unwrap_or((base, root));
        if bound > b {
            return Err(Corrupt("subtree exceeds its parent's"));
        }
        parent(p);
        open.push((pre, bound));
    }
    Ok(())
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
    // Every string takes at least its 4-byte length.
    cur.claim(nstrings as usize, 4)?;
    let mut interner = Interner::with_capacity(nstrings as usize);
    for _ in 0..nstrings {
        let len = cur.u32()? as usize;
        let s = std::str::from_utf8(cur.take(len)?).map_err(|_| TreeDecodeError::BadString)?;
        if interner.intern_new(s).is_none() {
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
        let mut out = Vec::with_capacity(32 + n * 20);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        put_strings(&mut out, &self.interner);
        out.extend_from_slice(&(n as u64).to_le_bytes());
        put_columns(&mut out, self, 0..n);
        for c in self.inscosts.iter().chain(&self.pathcosts) {
            out.extend_from_slice(&c.raw().to_le_bytes());
        }
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
        let DocSegment {
            labels,
            types,
            bounds,
        } = take_columns(&mut cur, n, 0, interner.len())?;
        let mut parents = Vec::with_capacity(n);
        parents.push(u32::MAX);
        link(&bounds, 0, |p| parents.push(p))?;
        // 16 B/node: the two cost columns.
        cur.claim(n, 16)?;
        let mut costs = || -> Result<Vec<Cost>, TreeDecodeError> {
            (0..n).map(|_| Ok(Cost::from_raw(cur.u64()?))).collect()
        };
        let (inscosts, pathcosts) = (costs()?, costs()?);
        let docs = take_spans(&mut cur, n)?;
        cur.end()?;
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

    /// Serializes the document `span` as a self-contained segment
    /// (absolute preorder addressing; decoded by [`decode_doc_segment`]).
    pub fn doc_segment_bytes(&self, span: DocSpan) -> Vec<u8> {
        let r = span.start as usize..span.bound as usize + 1;
        let mut out = Vec::with_capacity(12 + r.len() * 4);
        out.extend_from_slice(SEGMENT_MAGIC);
        out.extend_from_slice(&(r.len() as u32).to_le_bytes());
        put_columns(&mut out, self, r);
        out
    }

    /// Reassembles a tree from the segmented layout: the standalone
    /// interner, the document map (`total_len` + spans), and one decoded
    /// segment per *live* document. Parents follow from the segments'
    /// bounds, `inscost` and `pathcost` from `costs`. Tombstoned ranges
    /// become inert filler nodes below the virtual root that the liveness
    /// checks hide.
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
        let mut t = DataTree {
            labels: column(n, root_label)?,
            types: column(n, NodeType::Struct)?,
            parents: column(n, 0)?,
            bounds: column(n, 0)?,
            inscosts: column(n, Cost::ZERO)?,
            pathcosts: column(n, Cost::ZERO)?,
            interner,
            docs: Vec::new(),
        };
        t.parents[0] = u32::MAX;
        // Filler for tombstoned ranges: point every bound at the doc bound
        // so the child iterator's jump clears the gap in one step.
        for d in docs.iter().filter(|d| !d.alive) {
            t.bounds[d.start as usize..=d.bound as usize].fill(d.bound);
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
            let r = d.start as usize..d.bound as usize + 1;
            if [seg.labels.len(), seg.types.len(), seg.bounds.len()] != [r.len(); 3] {
                return Err(TreeDecodeError::Corrupt("segment length mismatch"));
            }
            if seg.labels.iter().any(|l| l.index() >= t.interner.len()) {
                return Err(TreeDecodeError::Corrupt("label id out of range"));
            }
            t.labels[r.clone()].copy_from_slice(&seg.labels);
            t.types[r.clone()].copy_from_slice(&seg.types);
            t.bounds[r.clone()].copy_from_slice(&seg.bounds);
            let mut below = t.parents[r.start + 1..r.end].iter_mut();
            link(&seg.bounds, d.start, |p| {
                if let Some(slot) = below.next() {
                    *slot = p;
                }
            })?;
        }
        if seg_iter.next().is_some() {
            return Err(TreeDecodeError::Corrupt("extra segment without a live doc"));
        }
        t.docs = docs;
        t.seal(0, costs);
        Ok(t)
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
    let segment = take_columns(&mut cur, n, span.start as usize, nlabels)?;
    link(&segment.bounds, span.start, |_| {})?;
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
    use approxql_xml::parse_document;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn an_interner_blob_rejects_a_duplicate_string_and_an_impossible_count() {
        let mut interner = Interner::new();
        for s in ["cd", "title", "piano"] {
            interner.intern(s);
        }
        let good = encode_interner(&interner);
        let decoded = decode_interner(&good).unwrap();
        assert_eq!(
            decoded.iter().collect::<Vec<_>>(),
            interner.iter().collect::<Vec<_>>()
        );
        // magic 8 | count u32 | (length u32, bytes)*: spell `title` as `cd…`.
        let mut dup = good.clone();
        let title = 12 + 4 + 2;
        dup[title..title + 4].copy_from_slice(&2u32.to_le_bytes());
        dup.splice(title + 4..title + 4 + 5, *b"cd");
        assert_eq!(
            decode_interner(&dup).unwrap_err(),
            TreeDecodeError::Corrupt("duplicate interned string")
        );
        // A count the blob cannot hold reserves nothing and is truncation.
        let mut huge = good;
        huge[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_interner(&huge).unwrap_err(),
            TreeDecodeError::Truncated
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
    fn rejects_older_dump_versions() {
        // Version 1 had no docs section, version 2 fixed-width columns
        // with parents. Nothing writes either, and no store can hold one.
        for v in [1u32, 2] {
            let mut bytes = sample().to_bytes();
            bytes[8..12].copy_from_slice(&v.to_le_bytes());
            assert_eq!(
                DataTree::from_bytes(&bytes).unwrap_err(),
                TreeDecodeError::BadVersion(v)
            );
        }
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

    /// The stored columns of `nodes`: `(label << 1 | type, subtree size)`
    /// per node.
    fn columns(nodes: &[(u64, u64)]) -> Vec<u8> {
        let mut out = Vec::new();
        for &(tagged, size) in nodes {
            write_varint(&mut out, tagged);
            write_varint(&mut out, size);
        }
        out
    }

    /// The column pairs of every node of `t`, as `put_columns` writes them.
    fn column_pairs(t: &DataTree) -> Vec<(u64, u64)> {
        t.nodes()
            .map(|n| {
                let text = u64::from(t.node_type(n) == NodeType::Text);
                (
                    u64::from(t.label_id(n).0) << 1 | text,
                    u64::from(t.bound(n) - n.0),
                )
            })
            .collect()
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
        let good = column_pairs(&t);
        let good_len = columns(&good).len();
        // The dump's columns end before its two 8-byte cost columns and
        // its one 9-byte span behind a 4-byte count.
        let dump_at = dump.len() - 13 - 16 * t.len() - good_len;
        assert_eq!(&dump[dump_at..dump_at + good_len], columns(&good));
        assert_eq!(&segment[12..], columns(&good[1..]));
        let nlabels = t.interner().len();
        let plant = |node: usize, column: (u64, u64)| {
            let mut nodes = good.clone();
            nodes[node] = column;
            let dump = [
                &dump[..dump_at],
                &columns(&nodes),
                &dump[dump_at + good_len..],
            ]
            .concat();
            let segment = [&segment[..12], &columns(&nodes[1..])].concat();
            (dump, segment)
        };
        let nlabels_tag = (nlabels as u64) << 1;
        for (what, node, column) in [
            ("label id out of range", 2, (nlabels_tag, 2)),
            // composer's subtree would end past "rachmaninov", the last node.
            ("subtree size out of range", 5, (good[5].0, 2)),
            ("text node has a subtree", 3, (good[3].0, 1)),
            // title's subtree would hold composer's first node, not its last.
            ("subtree exceeds its parent's", 2, (good[2].0, 3)),
        ] {
            let (bad_dump, bad_segment) = plant(node, column);
            assert_eq!(
                DataTree::from_bytes(&bad_dump).unwrap_err(),
                TreeDecodeError::Corrupt(what),
                "dump: node {node}"
            );
            assert_eq!(
                decode_doc_segment(&bad_segment, d, nlabels).unwrap_err(),
                TreeDecodeError::Corrupt(what),
                "segment: node {node}"
            );
        }
        // The first node of either range must span all of it.
        let short_root = TreeDecodeError::Corrupt("root must span the range");
        let (bad_dump, _) = plant(0, (good[0].0, 5));
        assert_eq!(DataTree::from_bytes(&bad_dump).unwrap_err(), short_root);
        let (_, bad_segment) = plant(1, (good[1].0, 4));
        assert_eq!(
            decode_doc_segment(&bad_segment, d, nlabels).unwrap_err(),
            short_root
        );
    }

    /// A random document: elements from a small name pool, words from a
    /// small vocabulary that shares `title` with the names.
    fn random_xml(rng: &mut StdRng, depth: usize) -> String {
        const NAMES: [&str; 4] = ["a", "b", "title", "c"];
        const WORDS: [&str; 4] = ["x", "title", "y", "z"];
        let name = NAMES[rng.gen_range(0..NAMES.len())];
        let mut xml = format!("<{name}");
        if rng.gen_bool(0.3) {
            xml += &format!(r#" k="{} {}""#, WORDS[0], WORDS[rng.gen_range(0..4usize)]);
        }
        xml += ">";
        for _ in 0..rng.gen_range(0..4usize) {
            if depth < 4 && rng.gen_bool(0.5) {
                xml += &random_xml(rng, depth + 1);
            } else {
                xml += &format!(" {} ", WORDS[rng.gen_range(0..WORDS.len())]);
            }
        }
        xml + &format!("</{name}>")
    }

    /// The live documents' segments of `t`, each written and decoded.
    fn decoded_segments(t: &DataTree) -> Vec<(DocSpan, DocSegment)> {
        let nlabels = t.interner().len();
        t.documents()
            .iter()
            .filter(|d| d.alive)
            .map(|&d| {
                (
                    d,
                    decode_doc_segment(&t.doc_segment_bytes(d), d, nlabels).unwrap(),
                )
            })
            .collect()
    }

    /// Parents, `inscost` and `pathcost` derived from decoded segments are
    /// the columns the builder and `append_document` computed, under a
    /// model whose insert costs depend on label and type, with appended
    /// and tombstoned documents.
    #[test]
    fn segments_derive_the_in_memory_columns_exactly() {
        let costs = CostModel::builder()
            .insert_default(2)
            .insert(NodeType::Struct, VIRTUAL_ROOT_LABEL, Cost::finite(4))
            .insert(NodeType::Struct, "a", Cost::finite(3))
            .insert(NodeType::Struct, "title", Cost::finite(5))
            .insert(NodeType::Text, "title", Cost::finite(7))
            .insert(NodeType::Text, "x", Cost::ZERO)
            .build();
        let mut rng = StdRng::seed_from_u64(38);
        for _ in 0..64 {
            let mut b = DataTreeBuilder::new();
            for _ in 0..rng.gen_range(1..4usize) {
                b.add_document(&parse_document(&random_xml(&mut rng, 0)).unwrap());
            }
            let mut t = b.build(&costs);
            for _ in 0..rng.gen_range(0..3usize) {
                t.append_document(&parse_document(&random_xml(&mut rng, 0)).unwrap(), &costs);
            }
            for d in t.documents().to_vec() {
                if rng.gen_bool(0.3) {
                    t.delete_document(NodeId(d.start)).unwrap();
                }
            }
            let u = DataTree::from_doc_segments(
                t.interner().clone(),
                t.len() as u32,
                t.documents().to_vec(),
                &decoded_segments(&t),
                &costs,
            )
            .unwrap();
            let live: Vec<usize> = t.live_nodes().map(NodeId::index).collect();
            fn at<T: Copy>(column: &[T], live: &[usize]) -> Vec<T> {
                live.iter().map(|&i| column[i]).collect()
            }
            assert_eq!(u.len(), t.len());
            assert_eq!(u.documents(), t.documents());
            assert_eq!(at(&u.labels, &live), at(&t.labels, &live));
            assert_eq!(at(&u.types, &live), at(&t.types, &live));
            assert_eq!(at(&u.parents, &live), at(&t.parents, &live));
            assert_eq!(at(&u.bounds, &live), at(&t.bounds, &live));
            assert_eq!(at(&u.inscosts, &live), at(&t.inscosts, &live));
            assert_eq!(at(&u.pathcosts, &live), at(&t.pathcosts, &live));
            // And both are the model's, not merely each other's.
            for n in u.live_nodes() {
                let own = costs.insert_cost(u.node_type(n), u.label(n));
                assert_eq!(u.inscost(n), own, "inscost of {n}");
                let mut above = Cost::ZERO;
                let mut cur = n;
                while let Some(p) = u.parent(cur) {
                    above += costs.insert_cost(u.node_type(p), u.label(p));
                    cur = p;
                }
                assert_eq!(u.pathcost(n), above, "pathcost of {n}");
            }
        }
    }

    /// A damaged segment is a typed error or the segment of a tree whose
    /// columns hold the §6.2 invariants: every single-byte XOR of every
    /// segment of a three-document collection.
    #[test]
    fn every_single_byte_xor_of_a_segment_is_an_error_or_a_tree() {
        let costs = CostModel::new();
        let mut b = DataTreeBuilder::new();
        for xml in [
            r#"<cd year="1901"><title>piano concerto</title></cd>"#,
            "<mc><track><title>allegro</title></track><track/></mc>",
            "<cd><composer>rachmaninov</composer></cd>",
        ] {
            b.add_document(&parse_document(xml).unwrap());
        }
        let t = b.build(&costs);
        let nlabels = t.interner().len();
        let mut decoded = 0;
        for (i, &(d, _)) in decoded_segments(&t).iter().enumerate() {
            let blob = t.doc_segment_bytes(d);
            for at in 0..blob.len() {
                for mask in 1..=255u8 {
                    let mut bad = blob.clone();
                    bad[at] ^= mask;
                    let Ok(seg) = decode_doc_segment(&bad, d, nlabels) else {
                        continue;
                    };
                    decoded += 1;
                    let mut segments = decoded_segments(&t);
                    segments[i].1 = seg;
                    let u = DataTree::from_doc_segments(
                        t.interner().clone(),
                        t.len() as u32,
                        t.documents().to_vec(),
                        &segments,
                        &costs,
                    )
                    .unwrap();
                    for n in u.live_nodes().skip(1) {
                        let p = u.parent(n).unwrap();
                        assert!(u.is_ancestor(p, n), "{n} under {p}");
                        assert!(u.bound(n) <= u.bound(p), "{n} nests in {p}");
                        assert_eq!(u.node_type(p), NodeType::Struct);
                        if u.node_type(n) == NodeType::Text {
                            assert_eq!(u.bound(n), n.0);
                        }
                        assert_eq!(u.pathcost(n), u.pathcost(p) + u.inscost(p));
                        assert!(u.children(p).any(|c| c == n), "{n} is a child of {p}");
                    }
                }
            }
        }
        // Relabelled nodes and reshaped subtrees decode: the check ran.
        assert!(decoded > 0);
    }

    #[test]
    fn docmap_decode_rejects_non_partitions() {
        let t = sample();
        let mut docs = t.documents().to_vec();
        docs[0].start = 2;
        let blob = encode_docmap(t.len() as u32, &docs);
        assert!(decode_docmap(&blob).is_err());
    }
    /// The stored bytes of all four blob kinds (tree dump version 3, store
    /// format 8) for a three-document tree with one tombstone. The dump and
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
        // Per node: varint(label << 1 | type), varint(bound − pre), with
        // struct 0 and text 1.
        #[rustfmt::skip]
        let all_columns: &[u8] = &[
            0, 5, // root: label 0, struct; subtree of 5 nodes below it
            2, 1, // a
            5, 0, // "x": label 2, text
            6, 0, // b (tombstoned: the dump keeps its columns)
            8, 1, // c
            11, 0, // "y"
        ];
        #[rustfmt::skip]
        let costs: &[u8] = &[
            1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, // inscosts
            1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, // pathcosts
            1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,
        ];

        // dump: magic, version u32, strings, node count u64, columns, the
        // cost columns, spans
        let node_count: &[u8] = &[6, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(
            t.to_bytes(),
            [
                b"AXQLTREE",
                &[3, 0, 0, 0][..],
                strings,
                node_count,
                all_columns,
                costs,
                spans
            ]
            .concat()
        );
        // segment: magic, node count u32, columns of the range
        assert_eq!(
            t.doc_segment_bytes(t.documents()[2]),
            [b"AXQLDSEG", &[2, 0, 0, 0][..], &[8, 1, 11, 0][..]].concat()
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
