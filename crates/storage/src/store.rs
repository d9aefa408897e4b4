//! The public store facade: dual-slot header management + B+-tree +
//! value heap. [`Store::put`] decides where a value lives: up to
//! `INLINE_MAX` bytes inside its leaf entry, anything longer in an
//! out-of-line run.
//!
//! ## Header slots
//!
//! Pages 0 and 1 each hold one header slot (separate pages, so a single
//! torn 4 KiB write can never destroy both):
//!
//! ```text
//! offset  size  field
//!      0     8  magic "AXQLSTOR"
//!      8     4  format version (little-endian u32, currently 6)
//!     12     4  B+-tree root page
//!     16     8  commit sequence number (monotone, starts at 1)
//!     24     4  committed page count (the extent the commit spans)
//!     28     …  zero padding
//!   4088     8  `page_checksum` of bytes [0, 4088)
//! ```
//!
//! Commit `n` writes slot `n % 2`, so the previous commit's slot is never
//! overwritten. [`Store::open`] takes the valid slot with the highest
//! sequence number; a torn newest slot therefore rolls back to the
//! previous commit instead of erroring.

use crate::btree::{BTree, Cursor, Value, INLINE_MAX};
use crate::check::CheckReport;
use crate::heap::write_value;
use crate::pager::PAGE_SIZE;
use crate::pager::{seal_page, trailer_ok, Backend, FileBackend, MemBackend, PageId, Pager};
use crate::{Result, StorageError};
use approxql_metrics::{time, Metric, TimerMetric};
use std::path::Path;

const MAGIC: &[u8; 8] = b"AXQLSTOR";

/// On-disk format version. Version 2 added page-trailer checksums and
/// dual-slot crash-safe commits; version 3 moved values of up to 480
/// bytes into their leaf entry; version 4 changed no page layout but the
/// meaning of the `sec#` keys above it (class ids, numbered by a
/// `meta#classes` blob), which a version-3 reader would misread as schema
/// preorder numbers; version 5 replaced the byte-serial FNV-1a sum in the
/// page trailers by the word-wise [`page_checksum`](crate::page_checksum),
/// so no trailer of an older file verifies; version 6 again changed no
/// page but the order of a `sec#` key above it (label first, then class
/// id, so one prefix scan finds every list of a label), which a version-5
/// reader would split in the wrong place; version 7 changed no page but
/// the value of every `ls#`/`lt#`/`sec#` key above it (one delta/varint
/// run behind an entry count, where version 6 had 128-entry frames behind
/// 20-byte skip headers); version 8 changed no page but the value of every
/// `doc#` key (two varints per node, label with type and subtree size,
/// where version 7 had 29 bytes of six fixed-width columns) and of
/// `meta#schema` (the same two varints plus the two cost columns). Files
/// of any other version are rejected with
/// [`StorageError::BadVersion`] — there is one reader, so an older store
/// is rebuilt from its XML, not converted.
pub const FORMAT_VERSION: u32 = 8;

/// First page a B+-tree node or value run may occupy (0 and 1 are the
/// header slots).
pub(crate) const FIRST_DATA_PAGE: u32 = 2;

/// A decoded, validated header slot.
#[derive(Clone, Copy, Debug)]
struct Header {
    root: u32,
    csn: u64,
    pages: u32,
}

/// Classification of one header slot during recovery.
enum SlotState {
    /// The page is beyond the end of the file.
    Missing,
    /// No store magic — this was never a header.
    BadMagic,
    /// Magic present but a different format version.
    WrongVersion(u32),
    /// A current-version slot whose checksum or fields do not validate (torn
    /// write or corruption).
    Corrupt,
    /// A validly checksummed slot claiming more pages than the file holds.
    Truncated {
        claimed: u32,
    },
    Valid(Header),
}

fn read_slot(pager: &mut Pager, index: u32, backend_pages: u32) -> Result<SlotState> {
    if index >= backend_pages {
        return Ok(SlotState::Missing);
    }
    let mut buf = [0u8; PAGE_SIZE];
    pager.read_raw(PageId(index), &mut buf)?;
    if &buf[0..8] != MAGIC {
        return Ok(SlotState::BadMagic);
    }
    let version = u32::from_le_bytes(crate::le_array(&buf[8..12]));
    if version != FORMAT_VERSION {
        return Ok(SlotState::WrongVersion(version));
    }
    if !trailer_ok(&buf) {
        return Ok(SlotState::Corrupt);
    }
    let root = u32::from_le_bytes(crate::le_array(&buf[12..16]));
    let csn = u64::from_le_bytes(crate::le_array(&buf[16..24]));
    let pages = u32::from_le_bytes(crate::le_array(&buf[24..28]));
    if pages > backend_pages {
        return Ok(SlotState::Truncated { claimed: pages });
    }
    if pages < FIRST_DATA_PAGE + 1 || root < FIRST_DATA_PAGE || root >= pages || csn == 0 {
        return Ok(SlotState::Corrupt);
    }
    Ok(SlotState::Valid(Header { root, csn, pages }))
}

/// An ordered, persistent key/value store. See the crate docs for the
/// durability and space model.
///
/// ```
/// use approxql_storage::Store;
/// let mut s = Store::in_memory().unwrap();
/// s.put(b"title#piano", b"posting bytes").unwrap();
/// assert_eq!(s.get(b"title#piano").unwrap().as_deref(), Some(&b"posting bytes"[..]));
/// ```
pub struct Store {
    pub(crate) pager: Pager,
    pub(crate) tree: BTree,
    csn: u64,
}

impl Store {
    /// Creates a store over a fresh backend (and commits the empty state,
    /// so a crash right after creation still leaves an openable file).
    pub fn create(backend: Box<dyn Backend>) -> Result<Store> {
        let mut pager = Pager::new(backend);
        let slot0 = pager.allocate();
        let slot1 = pager.allocate();
        debug_assert_eq!((slot0, slot1), (PageId(0), PageId(1)));
        let tree = BTree::create(&mut pager)?;
        let mut store = Store {
            pager,
            tree,
            csn: 0,
        };
        store.commit()?;
        Ok(store)
    }

    /// Opens a store from an existing backend, recovering to the newest
    /// commit whose header slot validates.
    pub fn open(backend: Box<dyn Backend>) -> Result<Store> {
        let mut pager = Pager::new(backend);
        let backend_pages = pager.backend_pages();
        let mut best: Option<Header> = None;
        let mut rejected_real_slot = false;
        let mut truncated_claim: Option<u32> = None;
        let mut other_version: Option<u32> = None;
        for index in [0, 1] {
            match read_slot(&mut pager, index, backend_pages)? {
                SlotState::Valid(h) => {
                    if best.is_none_or(|b| h.csn > b.csn) {
                        best = Some(h);
                    }
                }
                SlotState::Truncated { claimed } => {
                    rejected_real_slot = true;
                    truncated_claim = Some(claimed);
                }
                // A version-1 file carries its only header at page 0; a
                // freshly created version-2 file its only one at page 1.
                SlotState::WrongVersion(v) => {
                    rejected_real_slot = true;
                    other_version = Some(v);
                }
                SlotState::Corrupt => rejected_real_slot = true,
                SlotState::Missing | SlotState::BadMagic => {}
            }
        }

        let header = match best {
            Some(h) => {
                if rejected_real_slot {
                    // The newer commit attempt was torn or damaged: we are
                    // falling back to the previous durable commit.
                    Metric::StoreRecoveryRollbacks.incr();
                }
                h
            }
            None => {
                return Err(match (truncated_claim, other_version) {
                    (Some(claimed), _) => StorageError::Truncated {
                        claimed_pages: claimed,
                        actual_pages: backend_pages,
                    },
                    (None, Some(v)) => StorageError::BadVersion(v),
                    (None, None) if rejected_real_slot => StorageError::CorruptHeader,
                    (None, None) => StorageError::NotAStore,
                });
            }
        };

        // Discard everything past the committed extent (pages written by
        // a commit that never completed) and freeze the extent.
        pager.truncate_to(header.pages);
        pager.mark_committed();
        Ok(Store {
            pager,
            tree: BTree::open(PageId(header.root)),
            csn: header.csn,
        })
    }

    /// Creates a store file at `path` (truncating any existing file).
    pub fn create_file(path: impl AsRef<Path>) -> Result<Store> {
        Store::create(Box::new(FileBackend::create(path.as_ref())?))
    }

    /// Writes a new store file for `path`: creates it beside `path`, lets
    /// `fill` put its keys, commits, and only then renames it onto `path`.
    /// The file `path` named before is never written, so a reader that
    /// has it open goes on reading its own commit, and a `fill` that fails
    /// leaves `path` as it was.
    pub fn replace_file<E: From<StorageError>>(
        path: impl AsRef<Path>,
        fill: impl FnOnce(&mut Store) -> std::result::Result<(), E>,
    ) -> std::result::Result<Store, E> {
        let path = path.as_ref();
        let (backend, staged) = FileBackend::create_beside(path)?;
        let built = Store::create(Box::new(backend))
            .map_err(E::from)
            .and_then(|mut store| {
                fill(&mut store)?;
                store.commit()?;
                FileBackend::move_into_place(&staged, path)?;
                Ok(store)
            });
        if built.is_err() {
            FileBackend::discard(&staged);
        }
        built
    }

    /// Opens an existing store file.
    pub fn open_file(path: impl AsRef<Path>) -> Result<Store> {
        Store::open(Box::new(FileBackend::open(path.as_ref())?))
    }

    /// Creates an ephemeral in-memory store.
    pub fn in_memory() -> Result<Store> {
        Store::create(Box::new(MemBackend::new()))
    }

    /// Inserts or replaces `key`. The old value's pages (if any) are
    /// leaked until the file is rewritten ([`Store::replace_file`]).
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        let value = if value.len() <= INLINE_MAX {
            Value::Inline(value)
        } else {
            Value::Run(write_value(&mut self.pager, value)?)
        };
        self.tree.insert(&mut self.pager, key, value)
    }

    /// Looks up `key`.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match self.tree.get(&mut self.pager, key)? {
            Some(value) => Ok(Some(value.into_bytes(&mut self.pager)?)),
            None => Ok(None),
        }
    }

    /// `true` if `key` is present (no value read).
    pub fn contains(&mut self, key: &[u8]) -> Result<bool> {
        Ok(self.tree.get(&mut self.pager, key)?.is_some())
    }

    /// Removes `key`; returns whether it existed.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool> {
        self.tree.delete(&mut self.pager, key)
    }

    /// Iterates over all entries with keys in `[start, end)` (unbounded
    /// above when `end` is `None`).
    pub fn scan_range(&mut self, start: &[u8], end: Option<&[u8]>) -> Result<StoreIter<'_>> {
        let cursor = self.tree.seek(&mut self.pager, start)?;
        Ok(StoreIter {
            store: self,
            cursor,
            end: end.map(<[u8]>::to_vec),
        })
    }

    /// Iterates over all entries whose key starts with `prefix`.
    pub fn scan_prefix(&mut self, prefix: &[u8]) -> Result<StoreIter<'_>> {
        // The exclusive upper bound is the prefix with its last byte
        // incremented (carrying); a prefix of all-0xFF bytes has no upper
        // bound.
        let mut end = prefix.to_vec();
        let mut bounded = false;
        while let Some(last) = end.last_mut() {
            if *last < 0xFF {
                *last += 1;
                bounded = true;
                break;
            }
            end.pop();
        }
        let cursor = self.tree.seek(&mut self.pager, prefix)?;
        Ok(StoreIter {
            store: self,
            cursor,
            end: bounded.then_some(end),
        })
    }

    /// Iterates over the whole store in key order.
    pub fn iter_all(&mut self) -> Result<StoreIter<'_>> {
        self.scan_range(b"", None)
    }

    /// Durably commits the current state.
    ///
    /// Ordering: flush dirty data pages → sync → write the alternate
    /// header slot with the next commit sequence number → sync. The slot
    /// write is the commit point; the previous commit's slot is left
    /// untouched, so a crash anywhere in this sequence recovers to either
    /// the previous or (once the slot is durable) the new commit — never
    /// a mixture. A failed commit leaves the store retryable: dirty pages
    /// stay dirty and the sequence number does not advance.
    pub fn commit(&mut self) -> Result<()> {
        let _timer = time(TimerMetric::StoreCommit);
        self.pager.flush()?;
        let next_csn = self.csn + 1;
        let mut buf = [0u8; PAGE_SIZE];
        buf[0..8].copy_from_slice(MAGIC);
        buf[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf[12..16].copy_from_slice(&self.tree.root.0.to_le_bytes());
        buf[16..24].copy_from_slice(&next_csn.to_le_bytes());
        buf[24..28].copy_from_slice(&self.pager.page_count().to_le_bytes());
        seal_page(&mut buf);
        let slot = PageId((next_csn % 2) as u32);
        self.pager.write_direct(slot, &buf)?;
        self.pager.sync()?;
        self.csn = next_csn;
        self.pager.mark_committed();
        Metric::StoreCommits.incr();
        Ok(())
    }

    /// The sequence number of the last durable commit (starts at 1 for a
    /// freshly created store).
    pub fn commit_sequence(&self) -> u64 {
        self.csn
    }

    /// Total pages in the store (a size/fragmentation metric).
    pub fn page_count(&self) -> u32 {
        self.pager.page_count()
    }

    /// Verifies the integrity of the committed state: every page checksum,
    /// every B+-tree invariant, every out-of-line value run. See
    /// [`CheckReport`].
    pub fn check(&mut self) -> Result<CheckReport> {
        crate::check::run_check(&mut self.pager, self.tree.root, self.csn)
    }
}

/// A key with its value if the value is stored inside the leaf
/// ([`StoreIter::next_inline`]).
pub type KeyInline = (Vec<u8>, Option<Vec<u8>>);

/// A forward iterator over store entries. Call
/// [`StoreIter::next_entry`] until it yields `None`.
pub struct StoreIter<'a> {
    store: &'a mut Store,
    cursor: Cursor,
    end: Option<Vec<u8>>,
}

impl StoreIter<'_> {
    /// Returns the next `(key, value)` pair in key order.
    pub fn next_entry(&mut self) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        match self.cursor.next(&mut self.store.pager)? {
            None => Ok(None),
            Some((key, value)) => {
                if let Some(end) = &self.end {
                    if key.as_slice() >= end.as_slice() {
                        return Ok(None);
                    }
                }
                Ok(Some((key, value.into_bytes(&mut self.store.pager)?)))
            }
        }
    }

    /// Returns the next key in key order with its value if the value is
    /// stored inside the leaf, `None` for an out-of-line value, whose
    /// pages are not read.
    pub fn next_inline(&mut self) -> Result<Option<KeyInline>> {
        let Some((key, value)) = self.cursor.next(&mut self.store.pager)? else {
            return Ok(None);
        };
        if self.end.as_deref().is_some_and(|end| key.as_slice() >= end) {
            return Ok(None);
        }
        let inline = match value {
            Value::Inline(bytes) => Some(bytes),
            Value::Run(_) => None,
        };
        Ok(Some((key, inline)))
    }

    /// Collects the remaining entries (convenience for tests/examples).
    pub fn collect_all(mut self) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        while let Some(e) = self.next_entry()? {
            out.push(e);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::SharedMemBackend;
    use crate::pager::PAGE_DATA;

    /// Commits `entries` into a fresh store (they must fit the root leaf),
    /// lets `damage` edit that leaf's page, re-stamps its trailer so only
    /// the parser can object, and reopens the result.
    fn reopen_with_damaged_root_leaf(
        entries: &[(impl AsRef<[u8]>, Vec<u8>)],
        damage: impl FnOnce(&mut [u8; PAGE_SIZE], u32),
    ) -> Store {
        let shared = SharedMemBackend::new();
        let mut s = Store::create(Box::new(shared.clone())).unwrap();
        for (k, v) in entries {
            s.put(k.as_ref(), v).unwrap();
        }
        s.commit().unwrap();
        let (root, pages) = (s.tree.root, s.page_count());
        drop(s);
        let mut disk = shared.snapshot();
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(root, &mut buf).unwrap();
        assert_eq!(buf[0], 2, "the root is not a leaf");
        damage(&mut buf, pages);
        seal_page(&mut buf);
        disk.write_page(root, &buf).unwrap();
        Store::open(Box::new(disk)).unwrap()
    }

    /// A point read, a prefix scan and `check` must all refuse the leaf
    /// with the same typed error.
    fn assert_every_reader_rejects(s: &mut Store, key: &[u8], what: &str) {
        let is_it = |e: StorageError| match e {
            StorageError::CorruptPage(_, w) => assert_eq!(w, what),
            other => panic!("expected CorruptPage(_, {what:?}), got {other:?}"),
        };
        is_it(s.get(key).unwrap_err());
        is_it(
            s.scan_prefix(key)
                .and_then(StoreIter::collect_all)
                .unwrap_err(),
        );
        is_it(s.check().unwrap_err());
    }

    // In the three tests below the leaf starts `tag | count u16`, so the
    // first entry's `klen u16 | key` sits at byte 3 and, with a one-byte
    // key, its `vlen u32` at bytes 6..10.

    #[test]
    fn inline_length_above_inline_max_is_rejected() {
        let mut s = reopen_with_damaged_root_leaf(&[(b"k", b"abc".to_vec())], |leaf, _| {
            assert_eq!(leaf[6..10], (1u32 << 31 | 3).to_le_bytes());
            let too_long = 1u32 << 31 | (INLINE_MAX as u32 + 1);
            leaf[6..10].copy_from_slice(&too_long.to_le_bytes());
        });
        assert_every_reader_rejects(&mut s, b"k", "inline value too long");
    }

    #[test]
    fn inline_value_overrunning_the_page_is_rejected() {
        // Eight maximal values and a short ninth: 3 + 8 * (2 + 2 + 4 + 480)
        // = 3907 bytes, then `klen | "k8" | vlen` with `vlen` at 3911.
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = (0..8)
            .map(|i| (format!("k{i}").into_bytes(), vec![i; INLINE_MAX]))
            .collect();
        entries.push((b"k8".to_vec(), vec![8; 100]));
        let mut s = reopen_with_damaged_root_leaf(&entries, |leaf, _| {
            assert_eq!(leaf[3911..3915], (1u32 << 31 | 100).to_le_bytes());
            // A legal inline length — that would end past PAGE_DATA here.
            const { assert!(3915 + INLINE_MAX > PAGE_DATA) };
            let legal = 1u32 << 31 | INLINE_MAX as u32;
            leaf[3911..3915].copy_from_slice(&legal.to_le_bytes());
        });
        assert_every_reader_rejects(&mut s, b"k8", "page overrun");
    }

    #[test]
    fn value_run_leaving_the_store_is_rejected_before_it_is_read() {
        let value = vec![7u8; INLINE_MAX + 1];
        // A length just under 2 GiB: the reader must not allocate for it.
        let mut s = reopen_with_damaged_root_leaf(&[(b"k", value.clone())], |leaf, _| {
            assert_eq!(leaf[6..10], (INLINE_MAX as u32 + 1).to_le_bytes());
            leaf[6..10].copy_from_slice(&(i32::MAX as u32).to_le_bytes());
        });
        assert_every_reader_rejects(&mut s, b"k", "value run outside the data extent");
        // An honest length on a run that starts behind the last page, and
        // one that starts in a header slot.
        for first_page in [None, Some(1u32)] {
            let mut s = reopen_with_damaged_root_leaf(&[(b"k", value.clone())], |leaf, pages| {
                leaf[10..14].copy_from_slice(&first_page.unwrap_or(pages).to_le_bytes());
            });
            assert_every_reader_rejects(&mut s, b"k", "value run outside the data extent");
        }
    }

    #[test]
    fn put_get_delete() {
        let mut s = Store::in_memory().unwrap();
        s.put(b"a", b"1").unwrap();
        s.put(b"b", b"2").unwrap();
        assert_eq!(s.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert!(s.contains(b"b").unwrap());
        assert!(s.delete(b"a").unwrap());
        assert_eq!(s.get(b"a").unwrap(), None);
        assert!(!s.delete(b"a").unwrap());
    }

    #[test]
    fn empty_and_large_values() {
        let mut s = Store::in_memory().unwrap();
        s.put(b"empty", b"").unwrap();
        let big: Vec<u8> = (0..100_000).map(|i| (i % 256) as u8).collect();
        s.put(b"big", &big).unwrap();
        assert_eq!(s.get(b"empty").unwrap(), Some(Vec::new()));
        assert_eq!(s.get(b"big").unwrap(), Some(big));
    }

    #[test]
    fn scan_prefix_selects_only_prefix() {
        let mut s = Store::in_memory().unwrap();
        for k in ["a#1", "a#2", "b#1", "aa#1", "a\u{7f}x"] {
            s.put(k.as_bytes(), k.as_bytes()).unwrap();
        }
        let keys: Vec<String> = s
            .scan_prefix(b"a#")
            .unwrap()
            .collect_all()
            .unwrap()
            .into_iter()
            .map(|(k, _)| String::from_utf8(k).unwrap())
            .collect();
        assert_eq!(keys, vec!["a#1", "a#2"]);
    }

    #[test]
    fn next_inline_reads_no_out_of_line_value() {
        let mut s = Store::in_memory().unwrap();
        s.put(b"a#big", &[7u8; 3 * PAGE_SIZE]).unwrap();
        s.put(b"a#small", b"x").unwrap();
        s.put(b"b#1", b"y").unwrap();
        fn keys(s: &mut Store) -> Vec<KeyInline> {
            let mut scan = s.scan_prefix(b"a#").unwrap();
            let mut keys = Vec::new();
            while let Some(entry) = scan.next_inline().unwrap() {
                keys.push(entry);
            }
            keys
        }
        let reads = |s: &mut Store, f: fn(&mut Store)| {
            let before = approxql_metrics::snapshot();
            f(s);
            approxql_metrics::snapshot()
                .diff(&before)
                .get(Metric::PagerPageReads)
        };
        let want = [
            (b"a#big".to_vec(), None),
            (b"a#small".to_vec(), Some(b"x".to_vec())),
        ];
        assert_eq!(keys(&mut s), want);
        let key_scan = reads(&mut s, |s| drop(keys(s)));
        let value_scan = reads(&mut s, |s| {
            drop(s.scan_prefix(b"a#").unwrap().collect_all().unwrap())
        });
        assert_eq!(value_scan, key_scan + 4, "the big value's four pages");
    }

    #[test]
    fn scan_prefix_with_trailing_0xff() {
        let mut s = Store::in_memory().unwrap();
        s.put(&[0xFF, 0xFF, 1], b"x").unwrap();
        s.put(&[0xFF, 0xFF], b"y").unwrap();
        let got = s.scan_prefix(&[0xFF, 0xFF]).unwrap().collect_all().unwrap();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn scan_range_is_half_open() {
        let mut s = Store::in_memory().unwrap();
        for k in ["a", "b", "c", "d"] {
            s.put(k.as_bytes(), b"").unwrap();
        }
        let keys: Vec<Vec<u8>> = s
            .scan_range(b"b", Some(b"d"))
            .unwrap()
            .collect_all()
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, vec![b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn commit_and_reopen_file() {
        let dir = std::env::temp_dir().join(format!("axql-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.db");
        {
            let mut s = Store::create_file(&path).unwrap();
            for i in 0..2000u32 {
                s.put(format!("key{i:05}").as_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
            s.commit().unwrap();
            assert_eq!(s.commit_sequence(), 2); // create + this commit
        }
        {
            let mut s = Store::open_file(&path).unwrap();
            assert_eq!(s.commit_sequence(), 2);
            assert_eq!(
                s.get(b"key01234").unwrap(),
                Some(1234u32.to_le_bytes().to_vec())
            );
            assert_eq!(s.iter_all().unwrap().collect_all().unwrap().len(), 2000);
            s.check().unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_replaced_file_leaves_its_open_reader_alone() {
        let dir = std::env::temp_dir().join(format!("axql-store-replace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.db");
        let fill = |value: &'static [u8]| {
            move |s: &mut Store| {
                for i in 0..2000u32 {
                    s.put(format!("key{i:05}").as_bytes(), value)?;
                }
                Ok::<(), StorageError>(())
            }
        };
        drop(Store::replace_file(&path, fill(b"old")).unwrap());
        let mut reader = Store::open_file(&path).unwrap();
        let mut writer = Store::replace_file(&path, fill(b"new")).unwrap();
        // The writer's store is the file at `path` now; the reader still
        // reads the old one, page by page, as long as it keeps it open.
        writer.put(b"more", b"x").unwrap();
        writer.commit().unwrap();
        drop(writer);
        assert_eq!(
            reader.get(b"key01999").unwrap().as_deref(),
            Some(&b"old"[..])
        );
        assert_eq!(reader.get(b"more").unwrap(), None);
        let mut reopened = Store::open_file(&path).unwrap();
        assert_eq!(
            reopened.get(b"key01999").unwrap().as_deref(),
            Some(&b"new"[..])
        );
        assert_eq!(reopened.get(b"more").unwrap().as_deref(), Some(&b"x"[..]));
        // A fill that fails leaves `path` as it was, and no file beside it.
        let failed = Store::replace_file(&path, |s| {
            s.put(b"k", b"v")?;
            Err(StorageError::NotAStore)
        });
        assert!(matches!(failed, Err(StorageError::NotAStore)));
        let mut kept = Store::open_file(&path).unwrap();
        assert_eq!(kept.get(b"more").unwrap().as_deref(), Some(&b"x"[..]));
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("axql-store2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.db");
        std::fs::write(&path, vec![0u8; PAGE_SIZE * 2]).unwrap();
        assert!(matches!(
            Store::open_file(&path),
            Err(StorageError::NotAStore)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_version_1_files() {
        let dir = std::env::temp_dir().join(format!("axql-store5-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v1.db");
        // A version-1 header: magic, version, root. Its checksum (of the
        // first 16 bytes, at offset 16) is left out: the version is
        // rejected before any sum is looked at.
        let mut bytes = vec![0u8; PAGE_SIZE * 2];
        bytes[0..8].copy_from_slice(MAGIC);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        bytes[12..16].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(
            Store::open_file(&path),
            Err(StorageError::BadVersion(1))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_version_7_files() {
        // Two commits fill both header slots; a version-7 binary would
        // have written the same pages with 7 in the version field. The
        // trailers are left as they are: whether they verify must not
        // matter, the version is read first.
        let shared = SharedMemBackend::new();
        let mut s = Store::create(Box::new(shared.clone())).unwrap();
        s.put(b"k", b"v").unwrap();
        s.commit().unwrap();
        drop(s);
        let mut disk = shared.snapshot();
        for slot in [PageId(0), PageId(1)] {
            let mut buf = [0u8; PAGE_SIZE];
            disk.read_page(slot, &mut buf).unwrap();
            assert_eq!(buf[8..12], FORMAT_VERSION.to_le_bytes());
            buf[8..12].copy_from_slice(&7u32.to_le_bytes());
            disk.write_page(slot, &buf).unwrap();
        }
        assert!(matches!(
            Store::open(Box::new(disk)),
            Err(StorageError::BadVersion(7))
        ));
    }

    #[test]
    fn corrupt_header_in_both_slots_detected() {
        let dir = std::env::temp_dir().join(format!("axql-store3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.db");
        {
            let mut s = Store::create_file(&path).unwrap();
            s.put(b"k", b"v").unwrap();
            s.commit().unwrap();
        }
        // Damage both header slots (flip a checksummed byte in each).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[13] ^= 0xFF;
        bytes[PAGE_SIZE + 13] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(
            Store::open_file(&path),
            Err(StorageError::CorruptHeader)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_newest_slot_rolls_back_to_previous_commit() {
        let dir = std::env::temp_dir().join(format!("axql-store6-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.db");
        {
            let mut s = Store::create_file(&path).unwrap();
            s.put(b"old", b"1").unwrap();
            s.commit().unwrap(); // csn 2 -> slot 0
            s.put(b"new", b"2").unwrap();
            s.commit().unwrap(); // csn 3 -> slot 1
        }
        // Tear the newest slot (slot 1).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[PAGE_SIZE + 20] ^= 0x5A;
        std::fs::write(&path, bytes).unwrap();
        let before = approxql_metrics::snapshot();
        let mut s = Store::open_file(&path).unwrap();
        let delta = approxql_metrics::snapshot().diff(&before);
        assert_eq!(delta.get(Metric::StoreRecoveryRollbacks), 1);
        assert_eq!(s.commit_sequence(), 2);
        assert_eq!(s.get(b"old").unwrap(), Some(b"1".to_vec()));
        assert_eq!(s.get(b"new").unwrap(), None, "rolled-back key visible");
        s.check().unwrap();
        // The recovered store must be writable again.
        s.put(b"after", b"3").unwrap();
        s.commit().unwrap();
        drop(s);
        let mut s = Store::open_file(&path).unwrap();
        assert_eq!(s.get(b"after").unwrap(), Some(b"3".to_vec()));
        s.check().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_changes_are_lost_on_reopen() {
        let dir = std::env::temp_dir().join(format!("axql-store4-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("u.db");
        {
            let mut s = Store::create_file(&path).unwrap();
            s.put(b"committed", b"1").unwrap();
            s.commit().unwrap();
            s.put(b"uncommitted", b"2").unwrap();
            // no commit
        }
        {
            let mut s = Store::open_file(&path).unwrap();
            assert_eq!(s.get(b"committed").unwrap(), Some(b"1".to_vec()));
            // Recovery is exact: the uncommitted key must be invisible.
            assert_eq!(s.get(b"uncommitted").unwrap(), None);
            s.check().unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
