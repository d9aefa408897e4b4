//! The byte encoding of posting lists (DESIGN.md §14).
//!
//! Every posting list the store holds — `ls#`/`lt#` label postings and
//! `sec#` instance lists alike — is one [`BlockList`]: delta-encoded
//! varint frames of up to [`BLOCK_SIZE`] entries, each fronted by a
//! header (`min_pre`/`max_pre`/`max_bound`/count/byte offset).
//! The headers serve decoding — a frame's first `pre`, its entry count
//! and where its bytes start — and validation: a loaded list is held
//! against them frame by frame ([`BlockList::validate`]). The codec is
//! generic over the entry type ([`FrameEntry`]): an entry is `pre`,
//! `bound` and whatever extra varint columns its type adds (two costs for
//! [`Posting`], none for [`InstancePosting`]).

use crate::{InstancePosting, Posting};
use approxql_metrics::Metric;
use approxql_tree::Cost;
use std::fmt;
use std::marker::PhantomData;

/// Decode errors for serialized postings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostingDecodeError(pub &'static str);

impl fmt::Display for PostingDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "posting decode error: {}", self.0)
    }
}

impl std::error::Error for PostingDecodeError {}

/// Entries per compressed frame (the last frame of a list may be shorter).
pub const BLOCK_SIZE: usize = 128;

/// Bytes one serialized `BlockHeader` occupies in [`BlockList::to_bytes`].
const HEADER_BYTES: usize = 20;

/// Header of one compressed frame. `min_pre`/`max_pre` bound the
/// preorder numbers inside the frame (frames partition a strictly
/// pre-sorted list, so ranges of consecutive frames are disjoint and
/// increasing); `max_bound` is the largest subtree bound in the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockHeader {
    /// Smallest preorder number in the frame (= the first entry's `pre`).
    min_pre: u32,
    /// Largest preorder number in the frame (= the last entry's `pre`).
    max_pre: u32,
    /// Largest subtree bound of any entry in the frame (≥ `max_pre`).
    max_bound: u32,
    /// Number of entries in the frame (1..=[`BLOCK_SIZE`]).
    count: u32,
    /// Byte offset of the frame inside the payload.
    offset: u32,
}

// The frame loops are generic, so an optimized build instantiates them in
// each crate that decodes a list; the varint and cost helpers they call
// per entry must be inlinable from there.

/// Unsigned LEB128.
#[inline]
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

#[inline]
fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64, PostingDecodeError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = data.get(*pos) else {
            return Err(PostingDecodeError("varint runs past the frame"));
        };
        *pos += 1;
        if shift == 63 && b & 0x7e != 0 {
            return Err(PostingDecodeError("varint exceeds 64 bits"));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(PostingDecodeError("varint exceeds 64 bits"));
        }
    }
}

/// Bijection that keeps the (frequent, small) finite costs one byte wide:
/// infinity maps to 0, a finite raw value `v` to `v + 1`. Safe because
/// infinity is the reserved `u64::MAX` raw value.
#[inline]
fn encode_cost(c: Cost) -> u64 {
    match c.value() {
        None => 0,
        Some(v) => v + 1,
    }
}

#[inline]
fn decode_cost(v: u64) -> Cost {
    match v {
        0 => Cost::INFINITY,
        v => Cost::from_raw(v - 1),
    }
}

/// An entry type the frame codec can store. The codec itself writes the
/// `pre` delta and `varint(bound − pre)`; the entry type adds its extra
/// columns after them.
pub trait FrameEntry: Copy + PartialEq + fmt::Debug {
    /// Varints one entry occupies in a frame: pre delta, bound delta and
    /// the extra columns. Every varint is ≥ 1 byte, so this is the
    /// per-entry byte floor [`BlockList::from_bytes`] holds each frame's
    /// entry count against.
    const VARINTS: usize;

    /// Preorder number of the entry's node.
    fn pre(&self) -> u32;

    /// Largest preorder number in the node's subtree.
    fn bound(&self) -> u32;

    /// Appends the extra columns.
    fn write_columns(&self, out: &mut Vec<u8>);

    /// Reads the extra columns at `pos` and assembles the entry.
    fn read_columns(
        pre: u32,
        bound: u32,
        frame: &[u8],
        pos: &mut usize,
    ) -> Result<Self, PostingDecodeError>;
}

/// Two extra columns: `varint(cost(pathcost))`, `varint(cost(inscost))`
/// under the infinity-to-0 cost bijection.
impl FrameEntry for Posting {
    const VARINTS: usize = 4;

    fn pre(&self) -> u32 {
        self.pre
    }

    fn bound(&self) -> u32 {
        self.bound
    }

    #[inline]
    fn write_columns(&self, out: &mut Vec<u8>) {
        write_varint(out, encode_cost(self.pathcost));
        write_varint(out, encode_cost(self.inscost));
    }

    #[inline]
    fn read_columns(
        pre: u32,
        bound: u32,
        frame: &[u8],
        pos: &mut usize,
    ) -> Result<Posting, PostingDecodeError> {
        Ok(Posting {
            pre,
            bound,
            pathcost: decode_cost(read_varint(frame, pos)?),
            inscost: decode_cost(read_varint(frame, pos)?),
        })
    }
}

/// No extra columns.
impl FrameEntry for InstancePosting {
    const VARINTS: usize = 2;

    fn pre(&self) -> u32 {
        self.pre
    }

    fn bound(&self) -> u32 {
        self.bound
    }

    fn write_columns(&self, _: &mut Vec<u8>) {}

    fn read_columns(
        pre: u32,
        bound: u32,
        _: &[u8],
        _: &mut usize,
    ) -> Result<InstancePosting, PostingDecodeError> {
        Ok(InstancePosting { pre, bound })
    }
}

/// A posting list stored as delta-compressed varint frames with skip
/// headers. `BlockList` without a parameter is the label-posting
/// instantiation the list algebra consumes; `BlockList<InstancePosting>`
/// is the stored form of a `sec#` instance list. Construct with
/// [`BlockList::from_entries`] (input must be strictly pre-sorted);
/// persist with [`BlockList::to_bytes`] / [`BlockList::from_bytes`].
///
/// Frame layout (per entry, in entry order): the first entry's `pre` is
/// the header's `min_pre` (not stored); later entries store
/// `varint(pre − prev_pre)`. Every entry stores `varint(bound − pre)`
/// followed by its [`FrameEntry::write_columns`]. Deltas use wrapping
/// arithmetic so no input can make the decoder panic.
///
/// Every list this codec builds or mutates is in *canonical form* — each
/// frame but the last is full — so equal entry sequences have equal bytes
/// however the list was grown ([`BlockList::check_integrity`] demands it
/// of stored bytes too).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockList<E = Posting> {
    headers: Vec<BlockHeader>,
    payload: Vec<u8>,
    entries: usize,
    entry: PhantomData<E>,
}

impl<E> Default for BlockList<E> {
    fn default() -> Self {
        BlockList {
            headers: Vec::new(),
            payload: Vec::new(),
            entries: 0,
            entry: PhantomData,
        }
    }
}

impl<E: FrameEntry> BlockList<E> {
    /// Compresses a strictly pre-sorted list into frames.
    pub fn from_entries(entries: &[E]) -> Self {
        let mut list = Self::default();
        list.encode_frames(entries);
        list
    }

    /// Total number of entries across all frames.
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Size of the serialized representation ([`BlockList::to_bytes`]).
    pub fn byte_len(&self) -> usize {
        4 + self.headers.len() * HEADER_BYTES + self.payload.len()
    }

    /// The payload byte range of frame `i`.
    fn frame_range(&self, i: usize) -> (usize, usize) {
        let start = self.headers[i].offset as usize;
        let end = self
            .headers
            .get(i + 1)
            .map(|h| h.offset as usize)
            .unwrap_or(self.payload.len());
        (start, end)
    }

    /// Entries in frames `from..`, each frame's count clamped to what a
    /// frame can hold — the allocation bound of every decode below.
    fn capacity_from(&self, from: usize) -> usize {
        self.headers[from..]
            .iter()
            .map(|h| (h.count as usize).min(BLOCK_SIZE))
            .sum()
    }

    fn decode_frame_into(&self, i: usize, out: &mut Vec<E>) -> Result<(), PostingDecodeError> {
        let h = self.headers[i];
        let (start, end) = self.frame_range(i);
        let Some(frame) = self.payload.get(start..end) else {
            return Err(PostingDecodeError("frame offset outside payload"));
        };
        let mut pos = 0usize;
        let mut pre = h.min_pre;
        for k in 0..h.count {
            if k > 0 {
                pre = pre.wrapping_add(read_varint(frame, &mut pos)? as u32);
            }
            let bound = pre.wrapping_add(read_varint(frame, &mut pos)? as u32);
            out.push(E::read_columns(pre, bound, frame, &mut pos)?);
        }
        if pos != frame.len() {
            return Err(PostingDecodeError("trailing bytes in frame"));
        }
        Ok(())
    }

    /// Decodes every frame at query time, recording the query-time decode
    /// metrics (`postings.blocks_decoded`, `postings.bytes`) per frame. A
    /// corrupt frame — impossible for lists built by
    /// [`BlockList::from_entries`] or loaded and checked by
    /// [`BlockList::validate`] — contributes nothing instead of panicking.
    pub fn decode_all(&self) -> Vec<E> {
        let mut out = Vec::with_capacity(self.capacity_from(0));
        for i in 0..self.headers.len() {
            Metric::PostingsBlocksDecoded.incr();
            let (start, end) = self.frame_range(i);
            Metric::PostingsBytes.add(end.saturating_sub(start) as u64);
            let before = out.len();
            let r = self.decode_frame_into(i, &mut out);
            debug_assert!(r.is_ok(), "frame {i} failed to decode: {r:?}");
            if r.is_err() {
                out.truncate(before);
            }
        }
        out
    }

    /// Decodes every frame off the query path — load, mutation and
    /// integrity check — so the `postings.*` counters stay untouched, and
    /// fails on the first frame that does not decode.
    pub fn try_decode(&self) -> Result<Vec<E>, PostingDecodeError> {
        self.decode_from(0)
    }

    /// Decodes every frame off the query path and holds it against its
    /// header: strictly increasing `pre` from `min_pre` to `max_pre`, and
    /// `max_bound`. (The entry count is what the decode reads, and a frame
    /// with bytes left over fails.) Fails on the first frame that does not
    /// decode or contradicts its header.
    pub fn validate(&self) -> Result<(), PostingDecodeError> {
        self.decode_checked().map(drop)
    }

    fn decode_checked(&self) -> Result<Vec<E>, PostingDecodeError> {
        let mut all = Vec::with_capacity(self.capacity_from(0));
        for (i, h) in self.headers.iter().enumerate() {
            let start = all.len();
            self.decode_frame_into(i, &mut all)?;
            let frame = &all[start..];
            let max_bound = frame.iter().map(|e| e.bound()).max().unwrap_or(0);
            let sorted = frame.windows(2).all(|w| w[0].pre() < w[1].pre());
            if !sorted
                || frame.first().map(|e| e.pre()) != Some(h.min_pre)
                || frame.last().map(|e| e.pre()) != Some(h.max_pre)
                || max_bound != h.max_bound
            {
                return Err(PostingDecodeError("frame contents contradict skip header"));
            }
        }
        Ok(all)
    }

    fn decode_from(&self, from: usize) -> Result<Vec<E>, PostingDecodeError> {
        let mut out = Vec::with_capacity(self.capacity_from(from));
        for i in from..self.headers.len() {
            self.decode_frame_into(i, &mut out)?;
        }
        Ok(out)
    }

    /// Serializes headers + payload: `u32` frame count, then per frame
    /// `min_pre, max_pre, max_bound, count, offset` (little-endian u32s),
    /// then the payload bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        out.extend_from_slice(&(self.headers.len() as u32).to_le_bytes());
        for h in &self.headers {
            out.extend_from_slice(&h.min_pre.to_le_bytes());
            out.extend_from_slice(&h.max_pre.to_le_bytes());
            out.extend_from_slice(&h.max_bound.to_le_bytes());
            out.extend_from_slice(&h.count.to_le_bytes());
            out.extend_from_slice(&h.offset.to_le_bytes());
        }
        out.extend_from_slice(&self.payload);
        out
    }

    /// Deserializes [`BlockList::to_bytes`] output, validating the frame
    /// headers structurally (monotone offsets and pre ranges, entry counts
    /// in range) without decoding the frames. Every frame must span at
    /// least `E::VARINTS × count − 1` payload bytes (the first entry's pre
    /// delta is elided), which caps the decoded `entries` total by the
    /// input length: a hostile header cannot claim counts the payload
    /// could never hold. Records the persistence-side
    /// `index.bytes_decoded` metric; the full decode round-trip check is
    /// [`BlockList::check_integrity`].
    pub fn from_bytes(data: &[u8]) -> Result<Self, PostingDecodeError> {
        Metric::IndexBytesDecoded.add(data.len() as u64);
        let Some(n_bytes) = data.first_chunk::<4>() else {
            return Err(PostingDecodeError("block list shorter than its header"));
        };
        let n = u32::from_le_bytes(*n_bytes) as usize;
        let Some(header_bytes) = data.get(4..4 + n.saturating_mul(HEADER_BYTES)) else {
            return Err(PostingDecodeError("skip headers truncated"));
        };
        let payload = data[4 + n * HEADER_BYTES..].to_vec();
        let too_short = |h: &BlockHeader, end: usize| {
            (end - h.offset as usize) + 1 < E::VARINTS * h.count as usize
        };
        let mut headers: Vec<BlockHeader> = Vec::with_capacity(n);
        let mut entries = 0usize;
        let (header_words, _) = header_bytes.as_chunks::<4>();
        for words in header_words.chunks_exact(HEADER_BYTES / 4) {
            let h = BlockHeader {
                min_pre: u32::from_le_bytes(words[0]),
                max_pre: u32::from_le_bytes(words[1]),
                max_bound: u32::from_le_bytes(words[2]),
                count: u32::from_le_bytes(words[3]),
                offset: u32::from_le_bytes(words[4]),
            };
            if h.count == 0 || h.count as usize > BLOCK_SIZE {
                return Err(PostingDecodeError("frame entry count out of range"));
            }
            if h.min_pre > h.max_pre || h.max_bound < h.max_pre {
                return Err(PostingDecodeError("skip header pre range inverted"));
            }
            if let Some(prev) = headers.last() {
                if h.offset <= prev.offset || prev.max_pre >= h.min_pre {
                    return Err(PostingDecodeError("skip headers not monotone"));
                }
                if too_short(prev, h.offset as usize) {
                    return Err(PostingDecodeError("frame too short for its entry count"));
                }
            } else if h.offset != 0 {
                return Err(PostingDecodeError("first frame must start at offset 0"));
            }
            if h.offset as usize > payload.len() {
                return Err(PostingDecodeError("frame offset outside payload"));
            }
            entries += h.count as usize;
            headers.push(h);
        }
        if headers.last().is_some_and(|h| too_short(h, payload.len())) {
            return Err(PostingDecodeError("frame too short for its entry count"));
        }
        if n == 0 && !payload.is_empty() {
            return Err(PostingDecodeError("payload without frames"));
        }
        Ok(BlockList {
            headers,
            payload,
            entries,
            entry: PhantomData,
        })
    }

    /// Appends strictly pre-sorted entries whose preorder numbers all
    /// exceed the list's current maximum (document inserts allocate fresh
    /// preorder numbers past the end, so this is the only append shape the
    /// mutation path needs).
    ///
    /// Full frames are kept as they are; a partial tail frame is decoded
    /// and re-chunked together with the new entries, so the result is
    /// byte-identical to [`BlockList::from_entries`] over the concatenated
    /// list.
    pub fn append(&mut self, new: &[E]) {
        if new.is_empty() {
            return;
        }
        debug_assert!(
            self.headers.last().is_none_or(|h| h.max_pre < new[0].pre()),
            "appended entries must start past the current maximum"
        );
        // Only the tail frame can be partial in canonical form.
        let keep = self
            .headers
            .iter()
            .position(|h| (h.count as usize) < BLOCK_SIZE)
            .unwrap_or(self.headers.len());
        let mut pending = self.decode_for_mutation(keep);
        pending.extend_from_slice(new);
        self.truncate_frames(keep);
        self.encode_frames(&pending);
    }

    /// Removes every entry with `pre` in `[lo, hi]`, returning the number
    /// removed. Frames entirely below `lo` are kept untouched; the list is
    /// re-chunked from the first affected frame, so the result stays a
    /// canonical encoding.
    pub fn remove_range(&mut self, lo: u32, hi: u32) -> usize {
        let Some(keep) = self.headers.iter().position(|h| h.max_pre >= lo) else {
            return 0;
        };
        let mut tail = self.decode_for_mutation(keep);
        let before = tail.len();
        tail.retain(|p| p.pre() < lo || p.pre() > hi);
        let removed = before - tail.len();
        if removed > 0 {
            self.truncate_frames(keep);
            self.encode_frames(&tail);
        }
        removed
    }

    /// Frames `from..` decoded for re-chunking. A frame that does not
    /// decode — impossible for a list that was built here or passed
    /// [`BlockList::validate`] on load — drops the re-chunked tail instead
    /// of panicking.
    fn decode_for_mutation(&self, from: usize) -> Vec<E> {
        let r = self.decode_from(from);
        debug_assert!(r.is_ok(), "frames {from}.. failed to decode: {r:?}");
        r.unwrap_or_default()
    }

    /// Drops frames `from..` (headers and payload).
    fn truncate_frames(&mut self, from: usize) {
        let cut = self
            .headers
            .get(from)
            .map(|h| h.offset as usize)
            .unwrap_or(self.payload.len());
        let dropped: usize = self.headers[from..].iter().map(|h| h.count as usize).sum();
        self.payload.truncate(cut);
        self.headers.truncate(from);
        self.entries -= dropped;
    }

    /// The one encode loop: appends `entries` as frames after the existing
    /// ones. Callers guarantee the existing frames are all full and the
    /// new entries start past the current maximum.
    fn encode_frames(&mut self, entries: &[E]) {
        debug_assert!(
            entries.windows(2).all(|w| w[0].pre() < w[1].pre()),
            "entries must have strictly increasing preorder numbers"
        );
        for frame in entries.chunks(BLOCK_SIZE) {
            let offset = self.payload.len() as u32;
            let mut prev_pre = frame[0].pre();
            let mut max_bound = 0u32;
            for (k, e) in frame.iter().enumerate() {
                let (pre, bound) = (e.pre(), e.bound());
                if k > 0 {
                    write_varint(&mut self.payload, u64::from(pre.wrapping_sub(prev_pre)));
                    prev_pre = pre;
                }
                write_varint(&mut self.payload, u64::from(bound.wrapping_sub(pre)));
                e.write_columns(&mut self.payload);
                max_bound = max_bound.max(bound);
            }
            self.headers.push(BlockHeader {
                min_pre: frame[0].pre(),
                max_pre: prev_pre,
                max_bound,
                count: frame.len() as u32,
                offset,
            });
        }
        self.entries += entries.len();
    }

    /// Full integrity check used by `approxql check`: [`BlockList::validate`],
    /// and re-encoding the decoded list must reproduce this representation
    /// byte for byte.
    pub fn check_integrity(&self) -> Result<(), PostingDecodeError> {
        let all = self.decode_checked()?;
        if Self::from_entries(&all) != *self {
            return Err(PostingDecodeError("block list is not a canonical encoding"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_postings(n: u32) -> Vec<Posting> {
        (0..n)
            .map(|i| Posting {
                pre: i * 3 + 1,
                bound: i * 3 + 2 + (i % 5),
                pathcost: Cost::finite(u64::from(i % 7)),
                inscost: if i % 11 == 0 {
                    Cost::INFINITY
                } else {
                    Cost::finite(1)
                },
            })
            .collect()
    }

    fn sample_instances(n: u32) -> Vec<InstancePosting> {
        sample_postings(n)
            .iter()
            .map(|p| InstancePosting {
                pre: p.pre,
                bound: p.bound,
            })
            .collect()
    }

    fn roundtrips<E: FrameEntry + Eq>(entries: &[E]) {
        let bl = BlockList::from_entries(entries);
        assert_eq!(bl.entry_count(), entries.len());
        assert_eq!(bl.decode_all(), entries);
        assert_eq!(bl.try_decode().unwrap(), entries);
        assert_eq!(bl.byte_len(), bl.to_bytes().len());
        let loaded = BlockList::<E>::from_bytes(&bl.to_bytes()).unwrap();
        assert_eq!(loaded, bl);
        loaded.check_integrity().unwrap();
    }

    #[test]
    fn block_list_roundtrips_across_frame_boundaries() {
        for n in [0u32, 1, 127, 128, 129, 300] {
            roundtrips(&sample_postings(n));
            roundtrips(&sample_instances(n));
        }
    }

    /// The v3 value bytes, spelled out: any change here is a format change.
    #[test]
    fn frame_bytes_are_the_v3_layout() {
        let postings = [
            Posting {
                pre: 1,
                bound: 9,
                pathcost: Cost::finite(3),
                inscost: Cost::INFINITY,
            },
            Posting {
                pre: 300,
                bound: 300,
                pathcost: Cost::ZERO,
                inscost: Cost::finite(200),
            },
        ];
        let header = |max_bound: u8| {
            let mut h = vec![1, 0, 0, 0]; // one frame
            h.extend([1, 0, 0, 0, 44, 1, 0, 0, max_bound, 1, 0, 0]); // pre 1..=300
            h.extend([2, 0, 0, 0, 0, 0, 0, 0]); // 2 entries at offset 0
            h
        };
        let mut want = header(44);
        // bound−pre, pathcost+1, ∞→0 | pre delta 299, bound−pre, 0+1, 200+1
        want.extend([8, 4, 0, 0xab, 0x02, 0, 1, 0xc9, 0x01]);
        assert_eq!(BlockList::from_entries(&postings).to_bytes(), want);

        let instances = [
            InstancePosting { pre: 1, bound: 9 },
            InstancePosting {
                pre: 300,
                bound: 301,
            },
        ];
        let mut want = header(45);
        want.extend([8, 0xab, 0x02, 1]);
        assert_eq!(BlockList::from_entries(&instances).to_bytes(), want);
    }

    #[test]
    fn block_list_is_smaller_than_fixed_width_entries() {
        let ps = sample_postings(1000);
        let bl = BlockList::from_entries(&ps);
        // pre, bound: u32; two u64 costs.
        let flat = ps.len() * 24;
        assert!(
            bl.byte_len() * 2 < flat,
            "compressed {} vs flat {flat}",
            bl.byte_len()
        );
    }

    #[test]
    fn block_headers_describe_their_frames() {
        let bl = BlockList::from_entries(&sample_postings(300));
        assert_eq!(bl.headers.len(), 3);
        assert_eq!(
            bl.headers.iter().map(|h| h.count).collect::<Vec<_>>(),
            [128, 128, 44]
        );
        bl.validate().unwrap();
    }

    #[test]
    fn corrupt_block_bytes_are_rejected() {
        let bl = BlockList::from_entries(&sample_postings(200));
        let bytes = bl.to_bytes();
        // Truncations of the header region fail structurally.
        assert!(BlockList::<Posting>::from_bytes(&bytes[..3]).is_err());
        assert!(BlockList::<Posting>::from_bytes(&bytes[..10]).is_err());
        // A header monotonicity violation: swap the two frame headers.
        let mut swapped = bytes.clone();
        let (a, b) = (4, 4 + HEADER_BYTES);
        for k in 0..HEADER_BYTES {
            swapped.swap(a + k, b + k);
        }
        assert!(BlockList::<Posting>::from_bytes(&swapped).is_err());
        // A header that contradicts the payload passes the structural
        // check but fails the decode round-trip: shrink the last frame's
        // entry count so decoding leaves trailing bytes.
        let mut garbled = bytes.clone();
        let count_at = 4 + HEADER_BYTES + 12;
        garbled[count_at] -= 1;
        let loaded = BlockList::<Posting>::from_bytes(&garbled).unwrap();
        assert!(loaded.check_integrity().is_err());
        assert!(loaded.try_decode().is_err());
        assert!(loaded.validate().is_err());
        // A last varint that claims a next byte: the headers hold, the
        // last frame does not decode.
        let mut cut = bytes.clone();
        *cut.last_mut().unwrap() |= 0x80;
        let loaded = BlockList::<Posting>::from_bytes(&cut).unwrap();
        assert_eq!(
            loaded.validate(),
            Err(PostingDecodeError("varint runs past the frame"))
        );
        // A header whose `max_bound` no entry reaches.
        let mut wide = bytes.clone();
        let max_bound_at = 4 + 8;
        wide[max_bound_at..max_bound_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let loaded = BlockList::<Posting>::from_bytes(&wide).unwrap();
        assert_eq!(loaded.try_decode().unwrap(), sample_postings(200));
        assert_eq!(
            loaded.validate(),
            Err(PostingDecodeError("frame contents contradict skip header"))
        );
        BlockList::<Posting>::from_bytes(&bytes)
            .unwrap()
            .validate()
            .unwrap();
    }

    #[test]
    fn entry_byte_floor_follows_the_entry_type() {
        // 100 instance entries fit 199 payload bytes; the same header over
        // the same payload cannot hold 100 four-varint postings.
        let bytes = BlockList::from_entries(&sample_instances(100)).to_bytes();
        assert!(BlockList::<InstancePosting>::from_bytes(&bytes).is_ok());
        assert_eq!(
            BlockList::<Posting>::from_bytes(&bytes),
            Err(PostingDecodeError("frame too short for its entry count"))
        );
    }

    #[test]
    fn fragmented_lists_decode_but_are_not_canonical() {
        // Two half-full frames: what a store fragmented by the retired
        // tail-buffer codec holds. It must still load and decode; only
        // the integrity check objects.
        let ps = sample_instances(10);
        let (a, b) = ps.split_at(5);
        let mut list = BlockList::from_entries(a);
        list.encode_frames(b);
        let loaded = BlockList::<InstancePosting>::from_bytes(&list.to_bytes()).unwrap();
        assert_eq!(loaded.try_decode().unwrap(), ps);
        assert_eq!(
            loaded.check_integrity(),
            Err(PostingDecodeError("block list is not a canonical encoding"))
        );
    }

    #[test]
    fn append_matches_batch_encoding() {
        for base in [0u32, 1, 127, 128, 129, 300] {
            for added in [1u32, 5, 127, 128, 200] {
                let mut ps = sample_postings(base);
                let start = ps.last().map(|p| p.pre + 1).unwrap_or(0);
                let new: Vec<Posting> = (0..added)
                    .map(|i| Posting {
                        pre: start + i * 2,
                        bound: start + i * 2 + 1,
                        pathcost: Cost::finite(u64::from(i)),
                        inscost: Cost::finite(1),
                    })
                    .collect();
                let mut bl = BlockList::from_entries(&ps);
                bl.append(&new);
                ps.extend_from_slice(&new);
                assert_eq!(bl, BlockList::from_entries(&ps), "base {base} + {added}");
                bl.check_integrity().unwrap();
            }
        }
    }

    #[test]
    fn remove_range_matches_filtered_batch_encoding() {
        let ps = sample_postings(300);
        for (lo, hi) in [(0u32, 0u32), (1, 400), (390, 600), (0, 10_000), (880, 905)] {
            let mut bl = BlockList::from_entries(&ps);
            let removed = bl.remove_range(lo, hi);
            let kept: Vec<Posting> = ps
                .iter()
                .filter(|p| p.pre < lo || p.pre > hi)
                .copied()
                .collect();
            assert_eq!(removed, ps.len() - kept.len(), "range {lo}..={hi}");
            assert_eq!(bl, BlockList::from_entries(&kept), "range {lo}..={hi}");
            bl.check_integrity().unwrap();
        }
        // Removing everything leaves the canonical empty list.
        let mut bl = BlockList::from_entries(&ps);
        bl.remove_range(0, u32::MAX);
        assert_eq!(bl, BlockList::default());
        assert_eq!(bl.remove_range(0, u32::MAX), 0);
    }

    #[test]
    fn varints_roundtrip() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }
}
