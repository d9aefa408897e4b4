//! The byte encoding of posting lists (DESIGN.md §14).
//!
//! Every posting list the store holds — `ls#`/`lt#` label postings and
//! `sec#` instance lists alike — is one [`BlockList`]: a `u32` entry count
//! and one delta/varint run of the entries, read whole from its first
//! byte. One checked decode loop serves every reader — `fetch`, load and
//! `approxql check` — and rejects any run that is not a strictly
//! pre-sorted list of exactly that many entries. The codec is generic over
//! the entry type ([`FrameEntry`]): an entry is `pre`, `bound` and
//! whatever extra varint columns its type adds (two costs for
//! [`Posting`], none for [`InstancePosting`]).

use crate::{InstancePosting, Posting};
use approxql_metrics::Metric;
use approxql_tree::{read_varint, write_varint, Cost, VarintError};
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

// The run loops are generic, so an optimized build instantiates them in
// each crate that decodes a list; the varint and cost helpers they call
// per entry must be inlinable from there.

/// The one varint codec of the workspace, with the list's words for its
/// two failures.
impl From<VarintError> for PostingDecodeError {
    fn from(e: VarintError) -> Self {
        PostingDecodeError(match e {
            VarintError::RunsPast => "varint runs past the list",
            VarintError::Overlong => "varint exceeds 64 bits",
        })
    }
}

/// `base + delta` if it fits a `u32`.
#[inline]
fn add_delta(base: u32, delta: u64) -> Option<u32> {
    u64::from(base)
        .checked_add(delta)
        .and_then(|v| u32::try_from(v).ok())
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

/// An entry type the run codec can store. The codec itself writes the
/// `pre` delta and `varint(bound − pre)`; the entry type adds its extra
/// columns after them.
pub trait FrameEntry: Copy + PartialEq + fmt::Debug {
    /// Varints one entry occupies in a run: pre delta, bound delta and the
    /// extra columns. Every varint is ≥ 1 byte, so this is the per-entry
    /// byte floor the decode holds a list's entry count against.
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
        run: &[u8],
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
        run: &[u8],
        pos: &mut usize,
    ) -> Result<Posting, PostingDecodeError> {
        Ok(Posting {
            pre,
            bound,
            pathcost: decode_cost(read_varint(run, pos)?),
            inscost: decode_cost(read_varint(run, pos)?),
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

/// A posting list stored as one delta/varint run. `BlockList` without a
/// parameter is the label-posting instantiation the list algebra
/// consumes; `BlockList<InstancePosting>` is the stored form of a `sec#`
/// instance list. Construct with [`BlockList::from_entries`] (input must
/// be strictly pre-sorted); persist with [`BlockList::to_bytes`] /
/// [`BlockList::from_bytes`].
///
/// Stored layout: a `u32 LE` entry count, then per entry
/// `varint(pre − previous pre)` (the first entry's from 0),
/// `varint(bound − pre)` and its [`FrameEntry::write_columns`]. Varints
/// are minimal, so equal entry sequences have equal bytes however the list
/// was grown ([`BlockList::check_integrity`] demands it of stored bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockList<E = Posting> {
    /// The entries' varints, without the count.
    run: Vec<u8>,
    entries: usize,
    /// The last entry's `pre` (0 while the list is empty): where
    /// [`BlockList::append`] continues the run.
    last_pre: u32,
    entry: PhantomData<E>,
}

impl<E> Default for BlockList<E> {
    fn default() -> Self {
        BlockList {
            run: Vec::new(),
            entries: 0,
            last_pre: 0,
            entry: PhantomData,
        }
    }
}

impl<E: FrameEntry> BlockList<E> {
    /// Compresses a strictly pre-sorted list.
    pub fn from_entries(entries: &[E]) -> Self {
        let mut list = Self::default();
        list.append(entries);
        list
    }

    /// Number of entries.
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Size of the serialized representation ([`BlockList::to_bytes`]).
    pub fn byte_len(&self) -> usize {
        4 + self.run.len()
    }

    /// The one decode loop: `count` entries from `run`. Fails unless the
    /// run holds exactly `count` entries (at least [`FrameEntry::VARINTS`]
    /// bytes each, checked before anything is allocated, and no byte left
    /// over) with strictly increasing `pre`s, `bound ≥ pre` and both in
    /// `u32`.
    fn decode_run(count: usize, run: &[u8]) -> Result<Vec<E>, PostingDecodeError> {
        if count.saturating_mul(E::VARINTS) > run.len() {
            return Err(PostingDecodeError(
                "entry count exceeds what the list holds",
            ));
        }
        let mut out = Vec::with_capacity(count);
        let mut pos = 0usize;
        let mut pre = 0u32;
        for k in 0..count {
            let delta = read_varint(run, &mut pos)?;
            if k > 0 && delta == 0 {
                return Err(PostingDecodeError("pre not strictly increasing"));
            }
            pre = add_delta(pre, delta).ok_or(PostingDecodeError("pre overflows u32"))?;
            let bound = add_delta(pre, read_varint(run, &mut pos)?)
                .ok_or(PostingDecodeError("bound overflows u32"))?;
            out.push(E::read_columns(pre, bound, run, &mut pos)?);
        }
        if pos != run.len() {
            return Err(PostingDecodeError("trailing bytes after the last entry"));
        }
        Ok(out)
    }

    /// Decodes the list at query time, recording the query-time decode
    /// metrics (`postings.blocks_decoded` once, `postings.bytes` the run's
    /// bytes). A list that does not decode — impossible for one built by
    /// [`BlockList::from_entries`] or loaded by [`BlockList::from_bytes`] —
    /// comes out empty instead of panicking.
    pub fn decode_all(&self) -> Vec<E> {
        Metric::PostingsBlocksDecoded.incr();
        Metric::PostingsBytes.add(self.run.len() as u64);
        let r = self.try_decode();
        debug_assert!(r.is_ok(), "list failed to decode: {r:?}");
        r.unwrap_or_default()
    }

    /// Decodes the list off the query path — mutation and integrity check
    /// — so the `postings.*` counters stay untouched.
    pub fn try_decode(&self) -> Result<Vec<E>, PostingDecodeError> {
        Self::decode_run(self.entries, &self.run)
    }

    /// Serializes the list: the `u32` entry count, then the run.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        out.extend_from_slice(&(self.entries as u32).to_le_bytes());
        out.extend_from_slice(&self.run);
        out
    }

    /// Decodes a stored value ([`BlockList::to_bytes`] output) with the
    /// checked decode loop, recording the persistence-side
    /// `index.bytes_decoded` metric.
    pub fn decode(data: &[u8]) -> Result<Vec<E>, PostingDecodeError> {
        Metric::IndexBytesDecoded.add(data.len() as u64);
        let Some((count, run)) = data.split_first_chunk::<4>() else {
            return Err(PostingDecodeError(
                "list too short for its entry count field",
            ));
        };
        Self::decode_run(u32::from_le_bytes(*count) as usize, run)
    }

    /// Loads a stored value: [`BlockList::decode`], keeping the bytes as
    /// they are, so a list that loads is one that
    /// [`BlockList::decode_all`] decodes in full. Canonical form is left
    /// to [`BlockList::check_integrity`].
    pub fn from_bytes(data: &[u8]) -> Result<Self, PostingDecodeError> {
        let entries = Self::decode(data)?;
        Ok(BlockList {
            run: data[4..].to_vec(),
            entries: entries.len(),
            last_pre: entries.last().map_or(0, E::pre),
            entry: PhantomData,
        })
    }

    /// Appends strictly pre-sorted entries whose preorder numbers all
    /// exceed the list's current maximum (document inserts allocate fresh
    /// preorder numbers past the end, so this is the only append shape the
    /// mutation path needs). This is the one encode loop: it continues the
    /// run from the last `pre`, so the result is byte-identical to
    /// [`BlockList::from_entries`] over the concatenated list.
    pub fn append(&mut self, new: &[E]) {
        debug_assert!(
            new.first()
                .is_none_or(|e| self.entries == 0 || self.last_pre < e.pre()),
            "appended entries must start past the current maximum"
        );
        debug_assert!(
            new.windows(2).all(|w| w[0].pre() < w[1].pre()),
            "entries must have strictly increasing preorder numbers"
        );
        for e in new {
            let (pre, bound) = (e.pre(), e.bound());
            write_varint(&mut self.run, u64::from(pre.wrapping_sub(self.last_pre)));
            write_varint(&mut self.run, u64::from(bound.wrapping_sub(pre)));
            e.write_columns(&mut self.run);
            self.last_pre = pre;
        }
        self.entries += new.len();
    }

    /// Removes every entry with `pre` in `[lo, hi]`, returning the number
    /// removed: decodes the list, filters it and re-encodes what is left.
    pub fn remove_range(&mut self, lo: u32, hi: u32) -> usize {
        if self.entries == 0 || self.last_pre < lo {
            return 0;
        }
        let r = self.try_decode();
        debug_assert!(r.is_ok(), "list failed to decode: {r:?}");
        let Ok(mut kept) = r else {
            return 0;
        };
        kept.retain(|e| e.pre() < lo || e.pre() > hi);
        let removed = self.entries - kept.len();
        if removed > 0 {
            *self = Self::from_entries(&kept);
        }
        removed
    }

    /// Full integrity check used by `approxql check`: the list decodes,
    /// and re-encoding its entries reproduces its bytes (so a non-minimal
    /// varint fails here, and only here).
    pub fn check_integrity(&self) -> Result<(), PostingDecodeError> {
        if Self::from_entries(&self.try_decode()?) != *self {
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
        assert_eq!(BlockList::<E>::decode(&bl.to_bytes()).unwrap(), entries);
        let loaded = BlockList::<E>::from_bytes(&bl.to_bytes()).unwrap();
        assert_eq!(loaded, bl);
        loaded.check_integrity().unwrap();
    }

    #[test]
    fn block_list_roundtrips() {
        for n in [0u32, 1, 2, 300] {
            roundtrips(&sample_postings(n));
            roundtrips(&sample_instances(n));
        }
        // A list may start at the root, pre 0.
        roundtrips(&[InstancePosting { pre: 0, bound: 9 }]);
    }

    /// The v7 value bytes, spelled out: any change here is a format change.
    #[test]
    fn run_bytes_are_the_v7_layout() {
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
        // 2 entries | pre delta 1, bound−pre 8, pathcost 3+1, ∞→0 |
        // pre delta 299, bound−pre 0, 0+1, 200+1
        let want = [2, 0, 0, 0, 1, 8, 4, 0, 0xab, 0x02, 0, 1, 0xc9, 0x01];
        assert_eq!(BlockList::from_entries(&postings).to_bytes(), want);

        let instances = [
            InstancePosting { pre: 1, bound: 9 },
            InstancePosting {
                pre: 300,
                bound: 301,
            },
        ];
        let want = [2, 0, 0, 0, 1, 8, 0xab, 0x02, 1];
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
    fn every_malformed_run_is_rejected() {
        let load = BlockList::<InstancePosting>::from_bytes;
        let cases: [(&str, &[u8], &str); 9] = [
            (
                "no count",
                &[1, 0],
                "list too short for its entry count field",
            ),
            (
                "count over the byte floor",
                &[3, 0, 0, 0, 1, 8, 0xab, 0x02, 1],
                "entry count exceeds what the list holds",
            ),
            (
                "count u32::MAX",
                &[0xff, 0xff, 0xff, 0xff, 1, 8],
                "entry count exceeds what the list holds",
            ),
            (
                "zero pre delta",
                &[2, 0, 0, 0, 1, 8, 0, 0],
                "pre not strictly increasing",
            ),
            (
                "pre overflow",
                &[1, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 0],
                "pre overflows u32",
            ),
            (
                "bound overflow",
                &[1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 1],
                "bound overflows u32",
            ),
            (
                "trailing bytes",
                &[1, 0, 0, 0, 1, 0, 5],
                "trailing bytes after the last entry",
            ),
            (
                "varint past the end",
                &[1, 0, 0, 0, 1, 0x80],
                "varint runs past the list",
            ),
            (
                "varint over 64 bits",
                &[
                    1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,
                ],
                "varint exceeds 64 bits",
            ),
        ];
        for (what, bytes, error) in cases {
            assert_eq!(load(bytes), Err(PostingDecodeError(error)), "{what}");
        }
        // A non-minimal varint (a bound delta of 0 spelled in two bytes)
        // decodes and loads; only the integrity check objects.
        let loaded = load(&[1, 0, 0, 0, 1, 0x80, 0x00]).unwrap();
        assert_eq!(
            loaded.try_decode().unwrap(),
            [InstancePosting { pre: 1, bound: 1 }]
        );
        assert_eq!(
            loaded.check_integrity(),
            Err(PostingDecodeError("block list is not a canonical encoding"))
        );
    }

    #[test]
    fn entry_byte_floor_follows_the_entry_type() {
        // 100 instance entries fit 200 run bytes; the same count over the
        // same run cannot hold 100 four-varint postings.
        let bytes = BlockList::from_entries(&sample_instances(100)).to_bytes();
        assert!(BlockList::<InstancePosting>::from_bytes(&bytes).is_ok());
        assert_eq!(
            BlockList::<Posting>::from_bytes(&bytes),
            Err(PostingDecodeError(
                "entry count exceeds what the list holds"
            ))
        );
    }

    #[test]
    fn append_matches_batch_encoding() {
        for base in [0u32, 1, 300] {
            for added in [1u32, 5, 200] {
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
}
