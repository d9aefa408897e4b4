//! Page-granular I/O with a write-back cache, per-page trailer checksums,
//! and pluggable backends.
//!
//! Every page that goes through [`Pager::flush`] carries an 8-byte
//! [`page_checksum`] trailer over its first [`PAGE_DATA`] bytes. The trailer is
//! stamped when a dirty page is written back and verified on every cache
//! miss, so a torn write or a flipped bit on the backing store surfaces as
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
use std::collections::HashMap;
use std::ffi::OsString;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
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
/// page costs, because the pager runs it on every cache miss.
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

/// The cached frame for `id`, which the caller has just ensured is present.
/// A missing frame is an internal invariant failure; the storage layer
/// promises typed errors, never a panic, so it surfaces as a corrupt-page
/// error instead of an `unwrap`. Free function (not a method) so callers
/// keep field-level borrows on the rest of the pager.
fn frame_mut(cache: &mut HashMap<PageId, Frame>, id: PageId) -> Result<&mut Frame> {
    cache.get_mut(&id).ok_or(StorageError::CorruptPage(
        id,
        "page frame missing from cache",
    ))
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
            .seek(SeekFrom::Start(id.0 as u64 * PAGE_SIZE as u64))?;
        self.file.read_exact(buf)?;
        Ok(())
    }

    fn write_page(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        self.file
            .seek(SeekFrom::Start(id.0 as u64 * PAGE_SIZE as u64))?;
        self.file.write_all(buf)?;
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

/// Default cache capacity in pages (16 MiB at the 4 KiB page size) —
/// large enough that index builds and the regression workloads never
/// evict, small enough to bound memory on big stores.
pub const DEFAULT_CACHE_PAGES: usize = 4096;

/// One cached page.
struct Frame {
    buf: Box<[u8; PAGE_SIZE]>,
    dirty: bool,
    /// Second-chance bit: set on access, cleared (once) by the clock hand
    /// before the frame becomes an eviction candidate.
    referenced: bool,
}

/// A write-back page cache in front of a [`Backend`].
///
/// All reads and writes go through the cache; [`Pager::flush`] writes every
/// dirty page back. The cache is *bounded*: when it reaches its capacity, a
/// clock (second-chance) sweep evicts clean pages to make room. Dirty pages
/// are never evicted — they hold unflushed data — so a burst of allocations
/// may temporarily exceed the capacity until the next [`Pager::flush`]
/// makes the pages clean (and thus evictable) again. The `dirty` counter
/// keeps that burst O(1) per touch: when no clean page exists the sweep is
/// skipped entirely instead of scanning the whole (all-dirty) ring on
/// every insertion — without it, one large uncommitted transaction
/// degrades to a quadratic number of futile clock steps.
pub struct Pager {
    backend: Box<dyn Backend>,
    cache: HashMap<PageId, Frame>,
    /// Clock ring over the cached page ids. May contain stale ids (pages
    /// evicted through [`Pager::evict_clean`]); the hand removes them
    /// lazily as it passes.
    ring: Vec<PageId>,
    hand: usize,
    capacity: usize,
    /// Number of cached frames with `dirty == true` (maintained on every
    /// dirty-flag transition; only clean frames are eviction candidates).
    dirty: usize,
    next_page: u32,
    /// Pages `< committed` belong to the last committed state and must
    /// never be rewritten in place (copy-on-write discipline).
    committed: u32,
}

impl Pager {
    /// Creates a pager over `backend` with the default cache capacity.
    pub fn new(backend: Box<dyn Backend>) -> Pager {
        Pager::with_capacity(backend, DEFAULT_CACHE_PAGES)
    }

    /// Creates a pager whose cache holds at most `capacity` clean pages.
    pub fn with_capacity(backend: Box<dyn Backend>, capacity: usize) -> Pager {
        let next_page = backend.page_count();
        Pager {
            backend,
            cache: HashMap::new(),
            ring: Vec::new(),
            hand: 0,
            capacity: capacity.max(1),
            dirty: 0,
            next_page,
            committed: next_page,
        }
    }

    /// The configured cache capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pages currently held in the cache.
    pub fn cached_pages(&self) -> usize {
        self.cache.len()
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

    /// `true` if any cached page holds unflushed data.
    pub fn has_dirty(&self) -> bool {
        self.dirty > 0
    }

    /// Rewinds the allocation cursor to `pages` (recovery rollback: pages
    /// at or beyond the last committed extent are logically discarded and
    /// will be overwritten by future allocations).
    pub fn truncate_to(&mut self, pages: u32) {
        self.next_page = pages;
        self.cache.retain(|id, _| id.0 < pages);
        let cache = &self.cache;
        self.ring.retain(|id| cache.contains_key(id));
        self.hand = 0;
        self.dirty = self.cache.values().filter(|f| f.dirty).count();
    }

    /// Evicts one clean page via the clock sweep. Returns `false` when
    /// nothing is evictable (every cached page is dirty).
    fn evict_one(&mut self) -> bool {
        // At most two passes: the first clears second-chance bits, the
        // second then finds a victim — unless everything is dirty.
        let mut scanned = 0;
        while !self.ring.is_empty() && scanned < 2 * self.ring.len() {
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let id = self.ring[self.hand];
            match self.cache.get_mut(&id) {
                // Stale ring entry (page already gone): drop it in place.
                // `swap_remove` moves the tail here, so the hand stays.
                None => {
                    self.ring.swap_remove(self.hand);
                }
                Some(frame) if frame.dirty => {
                    self.hand += 1;
                    scanned += 1;
                }
                Some(frame) if frame.referenced => {
                    frame.referenced = false;
                    self.hand += 1;
                    scanned += 1;
                }
                Some(_) => {
                    self.cache.remove(&id);
                    self.ring.swap_remove(self.hand);
                    Metric::PagerEvictions.incr();
                    return true;
                }
            }
        }
        false
    }

    /// Inserts a page, evicting first so the new page itself can never be
    /// the victim (callers hand out references to it immediately).
    fn insert_frame(&mut self, id: PageId, frame: Frame) {
        while self.cache.len() >= self.capacity && self.cache.len() > self.dirty && self.evict_one()
        {
        }
        if frame.dirty {
            self.dirty += 1;
        }
        self.cache.insert(id, frame);
        self.ring.push(id);
    }

    /// Shrinks an over-budget cache (e.g. after a flush turned a burst of
    /// dirty allocations clean) back under its capacity.
    fn enforce_budget(&mut self) {
        while self.cache.len() > self.capacity && self.cache.len() > self.dirty && self.evict_one()
        {
        }
    }

    /// Allocates a fresh page (zero-filled) and returns its id.
    pub fn allocate(&mut self) -> PageId {
        Metric::PagerPageAllocs.incr();
        let id = PageId(self.next_page);
        self.next_page += 1;
        self.insert_frame(
            id,
            Frame {
                buf: Box::new([0u8; PAGE_SIZE]),
                dirty: true,
                referenced: false,
            },
        );
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

    /// Reads a page from the backend into a fresh frame buffer, verifying
    /// the trailer checksum.
    fn fetch_checked(&mut self, id: PageId) -> Result<Box<[u8; PAGE_SIZE]>> {
        Metric::PagerCacheMisses.incr();
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        self.backend.read_page(id, &mut buf)?;
        if !trailer_ok(&buf) {
            Metric::PagerChecksumFailures.incr();
            return Err(StorageError::CorruptPage(
                id,
                "page trailer checksum mismatch",
            ));
        }
        Ok(buf)
    }

    /// Reads page `id` (through the cache).
    pub fn read(&mut self, id: PageId) -> Result<&[u8; PAGE_SIZE]> {
        Metric::PagerPageReads.incr();
        self.enforce_budget();
        if !self.cache.contains_key(&id) {
            let buf = self.fetch_checked(id)?;
            self.insert_frame(
                id,
                Frame {
                    buf,
                    dirty: false,
                    referenced: false,
                },
            );
        }
        let frame = frame_mut(&mut self.cache, id)?;
        frame.referenced = true;
        Ok(&frame.buf)
    }

    /// Returns a mutable view of page `id`, marking it dirty.
    pub fn write(&mut self, id: PageId) -> Result<&mut [u8; PAGE_SIZE]> {
        Metric::PagerPageWrites.incr();
        self.enforce_budget();
        if !self.cache.contains_key(&id) {
            let buf = if id.0 < self.backend.page_count() {
                self.fetch_checked(id)?
            } else {
                Metric::PagerCacheMisses.incr();
                Box::new([0u8; PAGE_SIZE])
            };
            self.insert_frame(
                id,
                Frame {
                    buf,
                    dirty: false,
                    referenced: false,
                },
            );
        }
        let frame = frame_mut(&mut self.cache, id)?;
        if !frame.dirty {
            self.dirty += 1;
            frame.dirty = true;
        }
        frame.referenced = true;
        Ok(&mut frame.buf)
    }

    /// Writes all dirty pages back (stamping their checksum trailers) and
    /// syncs the backend. Pages are only marked clean after the sync
    /// succeeds: a failed backend write or sync leaves every page of the
    /// batch dirty, so the whole flush is retryable and nothing is lost
    /// from the cache.
    pub fn flush(&mut self) -> Result<()> {
        let mut dirty: Vec<PageId> = self
            .cache
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(&id, _)| id)
            .collect();
        dirty.sort();
        Metric::PagerFlushes.incr();
        for &id in &dirty {
            // Copy-on-write invariant: committed pages are immutable, so a
            // crash mid-flush can only tear pages the committed header
            // never references.
            debug_assert!(
                !self.is_committed(id),
                "flush would overwrite committed page {id}"
            );
            let frame = frame_mut(&mut self.cache, id)?;
            seal_page(&mut frame.buf);
            self.backend.write_page(id, &frame.buf)?;
            Metric::PagerBackendWrites.incr();
        }
        self.backend.sync()?;
        for id in dirty {
            frame_mut(&mut self.cache, id)?.dirty = false;
        }
        self.dirty = 0;
        Ok(())
    }

    /// Writes one page straight to the backend, bypassing the write-back
    /// cache (used for the atomic header-slot write of the commit
    /// protocol). Any cached copy of the page is dropped so the cache never
    /// shadows the slot.
    pub fn write_direct(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        if self.cache.remove(&id).is_some_and(|f| f.dirty) {
            self.dirty -= 1;
        }
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
    /// verification or caching (header-slot parsing and integrity scans do
    /// their own validation).
    pub fn read_raw(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        self.backend.read_page(id, buf)
    }

    /// Drops the cached copy of committed page `id` once copy-on-write has
    /// relocated it: no structure of the transaction reads it again, and
    /// were it read, the backend holds it as committed. A writer's cache
    /// would otherwise keep every page it ever relocated.
    pub fn discard(&mut self, id: PageId) {
        if self.is_committed(id) && self.cache.get(&id).is_some_and(|f| !f.dirty) {
            self.cache.remove(&id);
            // The clock ring keeps the id until its hand passes, which it
            // never does while the cache is under budget: drop stale ids
            // once they are half the ring.
            if self.ring.len() > 2 * self.cache.len() {
                let cache = &self.cache;
                self.ring.retain(|id| cache.contains_key(id));
                self.hand = 0;
            }
        }
    }

    /// Drops the clean cache contents (testing aid to force re-reads).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn evict_clean(&mut self) {
        self.cache.retain(|_, f| f.dirty);
        let cache = &self.cache;
        self.ring.retain(|id| cache.contains_key(id));
        self.hand = 0;
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
    fn discard_drops_only_committed_clean_pages() {
        let mut p = Pager::new(Box::new(MemBackend::new()));
        let old = p.allocate();
        p.write(old).unwrap()[0] = 7;
        p.flush().unwrap();
        p.mark_committed();
        let fresh = p.allocate();
        p.discard(fresh);
        assert_eq!(p.cached_pages(), 2, "an uncommitted page stays");
        p.discard(old);
        assert_eq!(p.cached_pages(), 1);
        // Read again, it comes back from the backend, verified.
        assert_eq!(p.read(old).unwrap()[0], 7);
        // A writer that relocates page after page keeps a bounded ring.
        for _ in 0..1000 {
            let id = p.allocate();
            p.flush().unwrap();
            p.mark_committed();
            p.read(id).unwrap();
            p.discard(id);
        }
        assert!(p.ring.len() <= 2 * p.cached_pages() + 1, "{}", p.ring.len());
    }

    #[test]
    fn pager_flush_persists_to_backend() {
        let mut p = Pager::new(Box::new(MemBackend::new()));
        let a = p.allocate();
        p.write(a).unwrap()[10] = 9;
        p.flush().unwrap();
        p.evict_clean();
        assert_eq!(p.read(a).unwrap()[10], 9);
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
        assert!(p.has_dirty());
        let dirty_count = ids.iter().filter(|_| true).count();
        assert_eq!(dirty_count, 4);
        p.flush().unwrap();
        assert!(!p.has_dirty());
        p.evict_clean();
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
    fn scan_larger_than_cache_stays_within_budget() {
        const CAPACITY: usize = 8;
        const PAGES: u32 = 64;
        let mut p = Pager::with_capacity(Box::new(MemBackend::new()), CAPACITY);
        assert_eq!(p.capacity(), CAPACITY);
        for i in 0..PAGES {
            let id = p.allocate();
            p.write(id).unwrap()[0] = i as u8;
        }
        // Unflushed pages are all dirty: the cache must hold every one.
        assert_eq!(p.cached_pages(), PAGES as usize);
        p.flush().unwrap();
        let before = approxql_metrics::snapshot();
        // Two full scans over a store 8x the cache: every page comes back
        // intact and the cache never exceeds its budget.
        for _ in 0..2 {
            for i in 0..PAGES {
                assert_eq!(p.read(PageId(i)).unwrap()[0], i as u8);
                assert!(
                    p.cached_pages() <= CAPACITY,
                    "cache exceeded budget: {} > {CAPACITY}",
                    p.cached_pages()
                );
            }
        }
        let delta = approxql_metrics::snapshot().diff(&before);
        assert!(
            delta.get(Metric::PagerEvictions) >= (PAGES as u64 - CAPACITY as u64),
            "expected clock evictions, got {}",
            delta.get(Metric::PagerEvictions)
        );
        assert!(delta.get(Metric::PagerCacheMisses) > 0);
    }

    #[test]
    fn dirty_pages_survive_cache_pressure() {
        let mut p = Pager::with_capacity(Box::new(MemBackend::new()), 4);
        let ids: Vec<PageId> = (0..16).map(|_| p.allocate()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.write(id).unwrap()[7] = i as u8 + 1;
        }
        // Nothing has been flushed: every page is dirty and must still be
        // cached (the budget yields rather than lose data).
        assert_eq!(p.cached_pages(), 16);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.read(id).unwrap()[7], i as u8 + 1);
        }
        // After a flush the pages are clean; new traffic shrinks the
        // cache back under its capacity.
        p.flush().unwrap();
        for &id in &ids {
            let _ = p.read(id).unwrap();
            assert!(p.cached_pages() <= 16);
        }
        assert!(p.cached_pages() <= 4 + 1);
    }

    #[test]
    fn dirty_counter_tracks_every_transition() {
        let mut p = Pager::with_capacity(Box::new(MemBackend::new()), 4);
        let ids: Vec<PageId> = (0..16).map(|_| p.allocate()).collect();
        // Re-marking an already-dirty page must not double-count.
        for &id in &ids {
            p.write(id).unwrap()[0] = 1;
        }
        assert!(p.has_dirty());
        assert_eq!(p.cached_pages(), 16);
        p.flush().unwrap();
        assert!(!p.has_dirty());
        // Clean pages are evictable again: the next touch shrinks the
        // over-budget cache.
        let _ = p.read(ids[0]).unwrap();
        assert!(p.cached_pages() <= 4 + 1);
        // `write_direct` drops a dirty cached copy without leaking the
        // counter (the commit header path).
        p.write(ids[1]).unwrap()[0] = 2;
        assert!(p.has_dirty());
        p.write_direct(ids[1], &[0u8; PAGE_SIZE]).unwrap();
        assert!(!p.has_dirty());
        // A recovery rollback recomputes the counter over the survivors.
        p.write(ids[2]).unwrap()[0] = 3;
        assert!(p.has_dirty());
        p.truncate_to(0);
        assert!(!p.has_dirty());
    }

    #[test]
    fn clock_gives_rereferenced_pages_a_second_chance() {
        let mut p = Pager::with_capacity(Box::new(MemBackend::new()), 4);
        for i in 0..6u32 {
            let id = p.allocate();
            p.write(id).unwrap()[0] = i as u8;
        }
        p.flush().unwrap();
        p.evict_clean();
        for i in 0..4u32 {
            let _ = p.read(PageId(i)).unwrap();
        }
        // The first eviction sweeps the reference bits of pages 1..=3.
        let _ = p.read(PageId(4)).unwrap();
        // Re-reference page 1: the next sweep must skip it (second
        // chance) and evict one of the untouched pages instead.
        let _ = p.read(PageId(1)).unwrap();
        let _ = p.read(PageId(5)).unwrap();
        let before = approxql_metrics::snapshot();
        let _ = p.read(PageId(1)).unwrap();
        let delta = approxql_metrics::snapshot().diff(&before);
        assert_eq!(
            delta.get(Metric::PagerCacheMisses),
            0,
            "re-referenced page 1 was evicted despite its second chance"
        );
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
