//! Page-granular I/O: the pages of the open transaction, per-page trailer
//! checksums, and pluggable backends.
//!
//! The [`Pager`] holds in memory exactly the pages the open transaction
//! allocated or wrote. Every other read goes to the backend, into one
//! reusable buffer, and is verified there: no clean page is kept, so what
//! the pager holds is what the next commit writes, and damage done to the
//! backing store is reported on the next read of the page.
//!
//! Every page that goes through [`Pager::flush`] carries an 8-byte
//! [`page_checksum`] trailer over its first [`PAGE_DATA`] bytes. The trailer is
//! stamped when a dirty page is written back and verified on every backend
//! read, so a torn write or a flipped bit on the backing store surfaces as
//! [`StorageError::CorruptPage`] instead of silently feeding garbage to
//! the B+-tree.
//!
//! The pager also tracks the **committed extent**: the page count recorded
//! by the last successful store commit. Pages below the extent belong to
//! the committed state and are treated as immutable by the layers above
//! (copy-on-write); [`Pager::flush`] asserts that no dirty page ever sits
//! below the extent, which is the invariant that makes header-slot
//! rollback recovery sound.

use crate::{Result, StorageError};
use approxql_metrics::Metric;
use std::collections::hash_map::{Entry, HashMap};
use std::ffi::OsString;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// The fixed page size of the store.
pub const PAGE_SIZE: usize = 4096;

/// Bytes of checksum trailer at the end of every page.
pub const PAGE_TRAILER: usize = 8;

/// Usable payload bytes per page (the trailer is pager-owned).
pub const PAGE_DATA: usize = PAGE_SIZE - PAGE_TRAILER;

/// The five odd 64-bit primes of XXH64. [`page_checksum`] multiplies by
/// the first in every step, starts its lanes from the other four and ends
/// with the second and third, as XXH64's avalanche does. Any odd
/// constants keep the guarantee below; these are known to mix well.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Absorbs one word into a running state. For a fixed `word` this is a
/// bijection of `state`, and for a fixed `state` a bijection of `word`:
/// xor with a constant, multiplication by an odd number modulo 2⁶⁴ and a
/// rotation are each invertible.
#[inline(always)]
fn absorb(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(P1).rotate_left(31)
}

/// The 64-bit checksum of a page payload — the one sum behind every page
/// trailer and both header slots. Not cryptographic: it has to catch torn
/// writes and media bit rot, and it has to cost about what reading the
/// page costs, because the pager runs it on every backend read.
///
/// The payload is read as little-endian `u64` words in 32-byte stripes;
/// word *i* of a stripe is absorbed into lane *i* (`absorb`: xor, odd
/// multiply, rotate), so the four multiply chains are independent and
/// overlap in the pipeline (the stripe loop of XXH64). The lanes, started
/// from distinct non-zero seeds, are then absorbed one after the other
/// into a single state that starts as the payload length; the words
/// behind the last stripe follow into the same state (three of them in a
/// [`PAGE_DATA`]-byte payload; a last partial word, which a page does not
/// have, zero-padded), and an xor-shift / multiply avalanche ends it.
///
/// **Guarantee.** Two payloads of one length that differ only inside one
/// aligned 8-byte word — every single-bit flip is such a pair — have
/// different sums. Proof: the changed word enters exactly one `absorb`. If
/// it is a stripe word, that lane's state differs after the step (`absorb`
/// is injective in `word`) and after every later step of the lane
/// (injective in `state`), so the lane ends different while the other
/// lanes and the length do not; folding the lanes absorbs the changed
/// lane as a *word* into a state that only unchanged values have touched,
/// and every step after that is injective in `state`. If it is a word
/// behind the stripes the same holds from its own step on. The avalanche
/// composes `x ^= x >> s` (invertible) with odd multiplications. ∎
/// Changes that span several words — a torn write mixes old and new
/// sectors — are caught with probability ≈ 1 − 2⁻⁶⁴, and an all-zero
/// page does not verify (its sum is non-zero; pinned by a test).
pub fn page_checksum(payload: &[u8]) -> u64 {
    let word = |w: &[u8; 8]| u64::from_le_bytes(*w);
    let (stripes, rest) = payload.as_chunks::<32>();
    let mut lanes = [P2, P3, P4, P5];
    for stripe in stripes {
        let (words, _) = stripe.as_chunks::<8>();
        for (lane, w) in lanes.iter_mut().zip(words) {
            *lane = absorb(*lane, word(w));
        }
    }
    let mut h = payload.len() as u64;
    for lane in lanes {
        h = absorb(h, lane);
    }
    let (words, bytes) = rest.as_chunks::<8>();
    for w in words {
        h = absorb(h, word(w));
    }
    if !bytes.is_empty() {
        let mut last = [0u8; 8];
        last[..bytes.len()].copy_from_slice(bytes);
        h = absorb(h, word(&last));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Writes the [`page_checksum`] of `page[..PAGE_DATA]` into the trailer —
/// what [`Pager::flush`] does to every dirty page and `Store::commit` to
/// the header slot. Public so that tests and fuzzers can forge pages that
/// pass verification and reach the structural checks behind it.
pub fn seal_page(page: &mut [u8; PAGE_SIZE]) {
    let sum = page_checksum(&page[..PAGE_DATA]);
    page[PAGE_DATA..].copy_from_slice(&sum.to_le_bytes());
}

/// Checks the trailer checksum of a page read from a backend.
pub(crate) fn trailer_ok(buf: &[u8; PAGE_SIZE]) -> bool {
    let stored = u64::from_le_bytes(crate::le_array(&buf[PAGE_DATA..]));
    stored == page_checksum(&buf[..PAGE_DATA])
}

/// A page number within the store file. Pages 0 and 1 are the header slots.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PageId(pub u32);

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Raw page storage: a file or an in-memory vector. `Send`, so that a
/// store can sit behind a lock in a database that queries share across
/// threads.
pub trait Backend: Send {
    /// Reads page `id` into `buf` (the page must exist).
    fn read_page(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()>;
    /// Writes `buf` to page `id`, growing the backend if needed.
    fn write_page(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()>;
    /// Number of pages currently stored.
    fn page_count(&self) -> u32;
    /// Flushes any buffered writes to durable storage.
    fn sync(&mut self) -> Result<()>;
}

/// A backend over a real file.
pub struct FileBackend {
    file: File,
    pages: u32,
}

impl FileBackend {
    /// Creates a new (truncated) store file.
    pub fn create(path: &Path) -> Result<FileBackend> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileBackend { file, pages: 0 })
    }

    /// Creates a (truncated) store file beside `path` that is to replace
    /// it (see [`FileBackend::move_into_place`]), and returns it with its
    /// own path. The name starts with a dot and carries the process id,
    /// so two processes rebuilding one store do not share it.
    pub(crate) fn create_beside(path: &Path) -> Result<(FileBackend, PathBuf)> {
        let name = path.file_name().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "a store path must name a file")
        })?;
        let mut staged = OsString::from(".");
        staged.push(name);
        staged.push(format!(".{}.tmp", std::process::id()));
        let staged = path.with_file_name(staged);
        Ok((FileBackend::create(&staged)?, staged))
    }

    /// Renames the file `staged` onto `path`. Whatever file `path` named
    /// before keeps its bytes: a reader that has it open reads on.
    pub(crate) fn move_into_place(staged: &Path, path: &Path) -> Result<()> {
        Ok(std::fs::rename(staged, path)?)
    }

    /// Removes `staged`, a file whose store never moved into place. The
    /// error that stopped the store is the one its caller reports, so a
    /// failure to remove the file as well is dropped.
    pub(crate) fn discard(staged: &Path) {
        drop(std::fs::remove_file(staged));
    }

    /// Opens an existing store file.
    pub fn open(path: &Path) -> Result<FileBackend> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StorageError::NotAStore);
        }
        Ok(FileBackend {
            file,
            pages: (len / PAGE_SIZE as u64) as u32,
        })
    }
}

impl Backend for FileBackend {
    fn read_page(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        self.file
            .read_exact_at(buf, id.0 as u64 * PAGE_SIZE as u64)?;
        Ok(())
    }

    fn write_page(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        self.file
            .write_all_at(buf, id.0 as u64 * PAGE_SIZE as u64)?;
        if id.0 >= self.pages {
            self.pages = id.0 + 1;
        }
        Ok(())
    }

    fn page_count(&self) -> u32 {
        self.pages
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// An in-memory backend (tests, ephemeral stores).
#[derive(Default, Clone)]
pub struct MemBackend {
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
}

impl MemBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> MemBackend {
        MemBackend::default()
    }
}

impl Backend for MemBackend {
    fn read_page(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        match self.pages.get(id.0 as usize) {
            Some(p) => {
                buf.copy_from_slice(&p[..]);
                Ok(())
            }
            None => Err(StorageError::CorruptPage(id, "page does not exist")),
        }
    }

    fn write_page(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        let idx = id.0 as usize;
        while self.pages.len() <= idx {
            self.pages.push(Box::new([0u8; PAGE_SIZE]));
        }
        self.pages[idx].copy_from_slice(buf);
        Ok(())
    }

    fn page_count(&self) -> u32 {
        self.pages.len() as u32
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
}

/// The pages the open transaction allocated or wrote, in front of a
/// [`Backend`] that serves, verified, every other read.
///
/// [`Pager::flush`] seals and writes the pages back, syncs, and only then
/// drops them, so a failed write or sync leaves every page of the batch
/// dirty and the flush retryable.
pub struct Pager {
    backend: Box<dyn Backend>,
    dirty: HashMap<PageId, Box<[u8; PAGE_SIZE]>>,
    /// Where [`Pager::read`] puts a page the backend serves.
    scratch: Box<[u8; PAGE_SIZE]>,
    next_page: u32,
    /// Pages `< committed` belong to the last committed state and must
    /// never be rewritten in place (copy-on-write discipline).
    committed: u32,
}

impl Pager {
    /// Creates a pager over `backend`.
    pub fn new(backend: Box<dyn Backend>) -> Pager {
        let next_page = backend.page_count();
        Pager {
            backend,
            dirty: HashMap::new(),
            scratch: Box::new([0u8; PAGE_SIZE]),
            next_page,
            committed: next_page,
        }
    }

    /// Number of pages the raw backend currently holds.
    pub fn backend_pages(&self) -> u32 {
        self.backend.page_count()
    }

    /// The committed extent: pages below it are immutable (copy-on-write).
    pub fn committed(&self) -> u32 {
        self.committed
    }

    /// `true` if `id` is part of the last committed state and must be
    /// relocated (not rewritten in place) on modification.
    pub fn is_committed(&self, id: PageId) -> bool {
        id.0 < self.committed
    }

    /// Advances the committed extent to cover every allocated page. Called
    /// by the store after a commit becomes durable.
    pub fn mark_committed(&mut self) {
        self.committed = self.next_page;
    }

    /// `true` if any page holds unflushed data.
    pub fn has_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Rewinds the allocation cursor to `pages` (recovery rollback: pages
    /// at or beyond the last committed extent are logically discarded and
    /// will be overwritten by future allocations).
    pub fn truncate_to(&mut self, pages: u32) {
        self.next_page = pages;
        self.dirty.retain(|id, _| id.0 < pages);
    }

    /// Allocates a fresh page (zero-filled) and returns its id.
    pub fn allocate(&mut self) -> PageId {
        Metric::PagerPageAllocs.incr();
        let id = PageId(self.next_page);
        self.next_page += 1;
        self.dirty.insert(id, Box::new([0u8; PAGE_SIZE]));
        id
    }

    /// Allocates `n` consecutive pages, returning the first id.
    pub fn allocate_run(&mut self, n: u32) -> PageId {
        let first = PageId(self.next_page);
        for _ in 0..n {
            self.allocate();
        }
        first
    }

    /// Total pages (allocated or on the backend).
    pub fn page_count(&self) -> u32 {
        self.next_page
    }

    /// Reads page `id` from the backend into `buf`, verifying the trailer
    /// checksum.
    fn fetch_checked(
        backend: &mut dyn Backend,
        id: PageId,
        buf: &mut [u8; PAGE_SIZE],
    ) -> Result<()> {
        Metric::PagerCacheMisses.incr();
        backend.read_page(id, buf)?;
        if !trailer_ok(buf) {
            Metric::PagerChecksumFailures.incr();
            return Err(StorageError::CorruptPage(
                id,
                "page trailer checksum mismatch",
            ));
        }
        Ok(())
    }

    /// Reads page `id`: the transaction's copy if it wrote the page,
    /// otherwise the backend's, verified.
    pub fn read(&mut self, id: PageId) -> Result<&[u8; PAGE_SIZE]> {
        Metric::PagerPageReads.incr();
        if let Some(buf) = self.dirty.get(&id) {
            return Ok(buf);
        }
        Pager::fetch_checked(self.backend.as_mut(), id, &mut self.scratch)?;
        Ok(&self.scratch)
    }

    /// Returns a mutable view of page `id`, marking it dirty.
    pub fn write(&mut self, id: PageId) -> Result<&mut [u8; PAGE_SIZE]> {
        Metric::PagerPageWrites.incr();
        let buf = match self.dirty.entry(id) {
            Entry::Occupied(page) => page.into_mut(),
            Entry::Vacant(slot) => {
                let mut buf = Box::new([0u8; PAGE_SIZE]);
                if id.0 < self.backend.page_count() {
                    Pager::fetch_checked(self.backend.as_mut(), id, &mut buf)?;
                }
                slot.insert(buf)
            }
        };
        Ok(buf)
    }

    /// Writes all dirty pages back (stamping their checksum trailers) and
    /// syncs the backend. Pages are only dropped after the sync succeeds:
    /// a failed backend write or sync leaves every page of the batch
    /// dirty, so the whole flush is retryable and nothing is lost.
    pub fn flush(&mut self) -> Result<()> {
        let mut pages: Vec<_> = self.dirty.iter_mut().collect();
        pages.sort_unstable_by_key(|&(&id, _)| id);
        Metric::PagerFlushes.incr();
        for (&id, buf) in pages {
            // Copy-on-write invariant: committed pages are immutable, so a
            // crash mid-flush can only tear pages the committed header
            // never references.
            debug_assert!(
                id.0 >= self.committed,
                "flush would overwrite committed page {id}"
            );
            seal_page(buf);
            self.backend.write_page(id, buf)?;
            Metric::PagerBackendWrites.incr();
        }
        self.backend.sync()?;
        self.dirty.clear();
        Ok(())
    }

    /// Writes one page straight to the backend, bypassing the dirty map
    /// (used for the atomic header-slot write of the commit protocol). Any
    /// dirty copy of the page is dropped so it never shadows the slot.
    pub fn write_direct(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        self.dirty.remove(&id);
        self.backend.write_page(id, buf)?;
        if id.0 >= self.next_page {
            self.next_page = id.0 + 1;
        }
        Ok(())
    }

    /// Syncs the backend (a durability barrier, no page writes).
    pub fn sync(&mut self) -> Result<()> {
        self.backend.sync()
    }

    /// Reads one page straight from the backend without trailer
    /// verification (header-slot parsing and integrity scans do their own
    /// validation).
    pub fn read_raw(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        self.backend.read_page(id, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_read_write() {
        let mut b = MemBackend::new();
        let page = [7u8; PAGE_SIZE];
        b.write_page(PageId(2), &page).unwrap();
        assert_eq!(b.page_count(), 3);
        let mut out = [0u8; PAGE_SIZE];
        b.read_page(PageId(2), &mut out).unwrap();
        assert_eq!(out[100], 7);
        // Intermediate pages exist and are zeroed.
        b.read_page(PageId(1), &mut out).unwrap();
        assert_eq!(out[0], 0);
    }

    #[test]
    fn mem_backend_missing_page_errors() {
        let mut b = MemBackend::new();
        let mut out = [0u8; PAGE_SIZE];
        assert!(b.read_page(PageId(0), &mut out).is_err());
    }

    #[test]
    fn pager_allocate_and_rw() {
        let mut p = Pager::new(Box::new(MemBackend::new()));
        let a = p.allocate();
        let b = p.allocate();
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(1));
        p.write(a).unwrap()[0] = 42;
        p.write(b).unwrap()[0] = 43;
        assert_eq!(p.read(a).unwrap()[0], 42);
        assert_eq!(p.read(b).unwrap()[0], 43);
    }

    #[test]
    fn pager_flush_persists_to_backend() {
        let mut p = Pager::new(Box::new(MemBackend::new()));
        let a = p.allocate();
        p.write(a).unwrap()[10] = 9;
        p.flush().unwrap();
        assert_eq!(p.read(a).unwrap()[10], 9);
    }

    #[test]
    fn a_flush_drops_every_page_and_the_next_read_goes_to_the_backend() {
        let mut p = Pager::new(Box::new(MemBackend::new()));
        let a = p.allocate();
        p.write(a).unwrap()[0] = 5;
        let before = approxql_metrics::snapshot();
        assert_eq!(p.read(a).unwrap()[0], 5);
        let delta = approxql_metrics::snapshot().diff(&before);
        assert_eq!(
            delta.get(Metric::PagerCacheMisses),
            0,
            "a dirty page is the pager's"
        );
        p.flush().unwrap();
        assert!(p.dirty.is_empty(), "a flushed page stays in the pager");
        let before = approxql_metrics::snapshot();
        assert_eq!(p.read(a).unwrap()[0], 5);
        let delta = approxql_metrics::snapshot().diff(&before);
        assert_eq!(delta.get(Metric::PagerPageReads), 1);
        assert_eq!(delta.get(Metric::PagerCacheMisses), 1);
        assert!(p.dirty.is_empty(), "a read keeps no page");
    }

    #[test]
    fn write_direct_and_truncate_drop_dirty_pages() {
        let mut p = Pager::new(Box::new(MemBackend::new()));
        let ids: Vec<PageId> = (0..4).map(|_| p.allocate()).collect();
        p.flush().unwrap();
        assert!(!p.has_dirty());
        // `write_direct` drops a dirty copy (the commit header path), so
        // it never shadows what went to the backend.
        p.write(ids[1]).unwrap()[0] = 2;
        assert!(p.has_dirty());
        p.write_direct(ids[1], &[9u8; PAGE_SIZE]).unwrap();
        assert!(!p.has_dirty());
        let mut raw = [0u8; PAGE_SIZE];
        p.read_raw(ids[1], &mut raw).unwrap();
        assert_eq!(raw[0], 9);
        // A recovery rollback drops the dirty pages past the extent and
        // keeps the ones below it.
        p.write(ids[2]).unwrap()[0] = 3;
        p.write(ids[3]).unwrap()[0] = 4;
        p.truncate_to(3);
        assert_eq!(p.dirty.len(), 1);
        assert_eq!(p.read(ids[2]).unwrap()[0], 3);
        p.truncate_to(0);
        assert!(!p.has_dirty());
    }

    #[test]
    fn flushed_pages_carry_valid_trailers() {
        let mut p = Pager::new(Box::new(MemBackend::new()));
        let a = p.allocate();
        p.write(a).unwrap()[0] = 0xAA;
        p.flush().unwrap();
        let mut raw = [0u8; PAGE_SIZE];
        p.read_raw(a, &mut raw).unwrap();
        assert!(trailer_ok(&raw));
        assert_eq!(raw[0], 0xAA);
    }

    /// A payload that exercises every byte value.
    fn counting_payload() -> Vec<u8> {
        (0..PAGE_DATA).map(|i| i as u8).collect()
    }

    #[test]
    fn checksum_golden_values_are_pinned() {
        // The sum is part of the file format: a change here is a new
        // `FORMAT_VERSION`, not a refactor.
        assert_eq!(page_checksum(&[0u8; PAGE_DATA]), 0x5089_2070_DE9B_9331);
        assert_eq!(page_checksum(&counting_payload()), 0x4138_FF8C_7B00_2DBE);
        // Commit 1 of an empty store: magic, version 8, root 2, csn 1,
        // 3 pages — and its trailer is that sum (re-pinned with the
        // version field: 0xDF70_AD59_9C42_B335 at version 7).
        let shared = crate::SharedMemBackend::new();
        drop(crate::Store::create(Box::new(shared.clone())).unwrap());
        let mut slot = [0u8; PAGE_SIZE];
        shared.snapshot().read_page(PageId(1), &mut slot).unwrap();
        assert_eq!(page_checksum(&slot[..PAGE_DATA]), 0xB5D6_F3C9_5612_53E8);
        assert!(trailer_ok(&slot));
    }

    #[test]
    fn payloads_of_any_length_keep_the_guarantee() {
        // Lengths around the stripe and word boundaries, which a page
        // payload never has: every bit still counts, and so does the
        // length of a run of zeros.
        let mut zero_sums = std::collections::HashSet::new();
        for len in 0..=72 {
            let mut payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let sum = page_checksum(&payload);
            for bit in 0..len * 8 {
                payload[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(page_checksum(&payload), sum, "len {len}, bit {bit}");
                payload[bit / 8] ^= 1 << (bit % 8);
            }
            assert!(zero_sums.insert(page_checksum(&vec![0; len])), "len {len}");
        }
    }

    #[test]
    fn all_zero_page_does_not_verify() {
        assert!(!trailer_ok(&[0u8; PAGE_SIZE]));
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        let mut payload = counting_payload();
        let sum = page_checksum(&payload);
        for bit in 0..PAGE_DATA * 8 {
            payload[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(page_checksum(&payload), sum, "flip of bit {bit}");
            payload[bit / 8] ^= 1 << (bit % 8);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The guarantee of [`page_checksum`]'s doc comment, on random
        /// pages: no rewrite of one aligned word, and so no bit flip,
        /// keeps the sum.
        #[test]
        fn one_word_changes_always_change_the_checksum(
            page in proptest::collection::vec(proptest::prelude::any::<u8>(), PAGE_DATA),
            word in 0..PAGE_DATA / 8,
            value in proptest::prelude::any::<u64>(),
            bit in 0..PAGE_DATA * 8,
        ) {
            let sum = page_checksum(&page);
            let mut rewritten = page.clone();
            rewritten[word * 8..][..8].copy_from_slice(&value.to_le_bytes());
            if rewritten != page {
                proptest::prop_assert_ne!(page_checksum(&rewritten), sum);
            }
            let mut flipped = page;
            flipped[bit / 8] ^= 1 << (bit % 8);
            proptest::prop_assert_ne!(page_checksum(&flipped), sum);
        }
    }

    #[test]
    fn corrupted_backend_page_fails_checksum_on_read() {
        let mut backend = MemBackend::new();
        // A page that never went through flush has no valid trailer.
        backend.write_page(PageId(0), &[3u8; PAGE_SIZE]).unwrap();
        let mut p = Pager::new(Box::new(backend));
        let before = approxql_metrics::snapshot();
        assert!(matches!(
            p.read(PageId(0)),
            Err(StorageError::CorruptPage(PageId(0), _))
        ));
        let delta = approxql_metrics::snapshot().diff(&before);
        assert_eq!(delta.get(Metric::PagerChecksumFailures), 1);
    }

    #[test]
    fn single_flipped_bit_is_detected() {
        let mut shared = MemBackend::new();
        {
            let mut p = Pager::new(Box::new(shared.clone()));
            let a = p.allocate();
            p.write(a).unwrap()[100] = 5;
            p.flush().unwrap();
            // Pull the flushed page out of the pager's backend.
            let mut raw = [0u8; PAGE_SIZE];
            p.read_raw(a, &mut raw).unwrap();
            shared.write_page(a, &raw).unwrap();
        }
        for &bit in &[0usize, 100 * 8, PAGE_DATA * 8 - 1, PAGE_SIZE * 8 - 1] {
            let mut corrupted = shared.clone();
            let mut raw = [0u8; PAGE_SIZE];
            corrupted.read_page(PageId(0), &mut raw).unwrap();
            raw[bit / 8] ^= 1 << (bit % 8);
            corrupted.write_page(PageId(0), &raw).unwrap();
            let mut p = Pager::new(Box::new(corrupted));
            assert!(
                matches!(p.read(PageId(0)), Err(StorageError::CorruptPage(_, _))),
                "flip of bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn failed_write_leaves_all_pages_dirty_and_retryable() {
        /// Fails the Nth write_page call, then heals.
        struct FailNth {
            inner: MemBackend,
            writes: u32,
            fail_at: Option<u32>,
        }
        impl Backend for FailNth {
            fn read_page(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
                self.inner.read_page(id, buf)
            }
            fn write_page(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
                if self.fail_at == Some(self.writes) {
                    self.fail_at = None;
                    return Err(StorageError::Io(std::io::Error::other("injected")));
                }
                self.writes += 1;
                self.inner.write_page(id, buf)
            }
            fn page_count(&self) -> u32 {
                self.inner.page_count()
            }
            fn sync(&mut self) -> Result<()> {
                Ok(())
            }
        }
        let mut p = Pager::new(Box::new(FailNth {
            inner: MemBackend::new(),
            writes: 0,
            fail_at: Some(2),
        }));
        let ids: Vec<PageId> = (0..4).map(|_| p.allocate()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.write(id).unwrap()[0] = i as u8 + 1;
        }
        assert!(p.flush().is_err());
        // Every page of the failed batch must still be dirty (retryable),
        // including the ones whose backend write succeeded before the
        // failure: nothing was synced, so nothing may be forgotten.
        assert_eq!(p.dirty.len(), 4);
        p.flush().unwrap();
        assert!(!p.has_dirty());
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.read(id).unwrap()[0], i as u8 + 1);
        }
    }

    #[test]
    fn failed_sync_leaves_pages_dirty() {
        struct FailSync {
            inner: MemBackend,
            fail_next_sync: bool,
        }
        impl Backend for FailSync {
            fn read_page(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
                self.inner.read_page(id, buf)
            }
            fn write_page(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
                self.inner.write_page(id, buf)
            }
            fn page_count(&self) -> u32 {
                self.inner.page_count()
            }
            fn sync(&mut self) -> Result<()> {
                if self.fail_next_sync {
                    self.fail_next_sync = false;
                    return Err(StorageError::Io(std::io::Error::other("fsync lost")));
                }
                Ok(())
            }
        }
        let mut p = Pager::new(Box::new(FailSync {
            inner: MemBackend::new(),
            fail_next_sync: true,
        }));
        let a = p.allocate();
        p.write(a).unwrap()[0] = 7;
        assert!(p.flush().is_err());
        // After a failed fsync the OS may have dropped the write; the page
        // must stay dirty so the retry rewrites it.
        assert!(p.has_dirty());
        p.flush().unwrap();
        assert!(!p.has_dirty());
    }

    #[test]
    fn allocate_run_is_contiguous() {
        let mut p = Pager::new(Box::new(MemBackend::new()));
        let first = p.allocate_run(3);
        assert_eq!(first, PageId(0));
        assert_eq!(p.page_count(), 3);
        let next = p.allocate();
        assert_eq!(next, PageId(3));
    }

    #[test]
    fn committed_extent_tracking() {
        let mut p = Pager::new(Box::new(MemBackend::new()));
        let a = p.allocate();
        assert!(!p.is_committed(a));
        p.write(a).unwrap()[0] = 1;
        p.flush().unwrap();
        p.mark_committed();
        assert!(p.is_committed(a));
        let b = p.allocate();
        assert!(!p.is_committed(b));
        // Rollback: the allocation cursor rewinds and the next allocation
        // reuses the discarded page id.
        p.truncate_to(1);
        let c = p.allocate();
        assert_eq!(c, b);
    }

    #[test]
    fn file_backend_roundtrip() {
        let dir = std::env::temp_dir().join(format!("axql-pager-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.db");
        {
            let mut b = FileBackend::create(&path).unwrap();
            let mut page = [0u8; PAGE_SIZE];
            page[0] = 1;
            b.write_page(PageId(0), &page).unwrap();
            page[0] = 2;
            b.write_page(PageId(1), &page).unwrap();
            b.sync().unwrap();
        }
        {
            let mut b = FileBackend::open(&path).unwrap();
            assert_eq!(b.page_count(), 2);
            let mut out = [0u8; PAGE_SIZE];
            b.read_page(PageId(1), &mut out).unwrap();
            assert_eq!(out[0], 2);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_backend_rejects_non_page_aligned_files() {
        let dir = std::env::temp_dir().join(format!("axql-pager2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.db");
        std::fs::write(&path, b"not pages").unwrap();
        assert!(matches!(
            FileBackend::open(&path),
            Err(StorageError::NotAStore)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
