//! A small single-file key/value store with ordered range scans and
//! crash-safe commits.
//!
//! The paper's system was "implemented in C++ on top of the Berkeley DB"
//! (Section 8.1), which it used as a persistent store for its index
//! postings. This crate is the reproduction's stand-in substrate: a
//! page-based **B+-tree** over a single file, with
//!
//! * arbitrary byte-string keys (≤ [`MAX_KEY_LEN`] bytes) mapping to
//!   arbitrary byte-string values,
//! * ordered iteration (`scan_prefix`, `scan_range`) — the operation the
//!   indexes actually need,
//! * values of up to 480 bytes stored inside their leaf entry — the
//!   indexes keep tens of thousands of posting lists of a few bytes each
//!   (the paper's `pre(u)#label(u)` keys, §7.3), and a page apiece would
//!   make the file a hundred times its input — and longer values
//!   out-of-line in contiguous page runs, so multi-megabyte posting lists
//!   are fine too,
//! * a pluggable [`Backend`]: a real file or an in-memory page vector
//!   (useful for tests and ephemeral databases).
//!
//! ## Durability model
//!
//! The store is crash-safe at commit granularity (format version 8; a file
//! of another version is a typed [`StorageError::BadVersion`] and is
//! rebuilt from its XML — there is one reader):
//! reopening a store after a crash — at *any* backend write — yields
//! exactly the state of the last durable [`Store::commit`], never a torn
//! mixture. Three mechanisms cooperate:
//!
//! * **Page-trailer checksums.** Every page reserves its last 8 bytes
//!   ([`PAGE_SIZE`] − [`PAGE_DATA`]) for the [`page_checksum`] of the
//!   preceding payload — a word-wise, four-lane sum that costs about what
//!   reading the page costs — stamped when the page is flushed and
//!   verified on every read from the backend. A torn 4 KiB write or a
//!   flipped bit surfaces as [`StorageError::CorruptPage`] (and a
//!   `pager.checksum_failures` metric), never as silently wrong query
//!   results.
//!
//! * **Copy-on-write pages.** Pages covered by the last commit are
//!   immutable; modifying one relocates it to a freshly allocated page,
//!   and the new id propagates up the B+-tree. A commit therefore only
//!   ever *appends* pages the previous commit's header does not
//!   reference, so no crash can damage committed state.
//!
//! * **Dual header slots.** Pages 0 and 1 each hold a checksummed header
//!   (root page, committed page count, monotone commit sequence number).
//!   [`Store::commit`] orders: flush data pages → sync → write the
//!   *alternate* slot with the next sequence number → sync. [`Store::open`]
//!   picks the newest slot that validates and rolls back to the other —
//!   counting a `store.recovery_rollbacks` metric — when the newest write
//!   was torn. The commit point is thus a single page write that never
//!   overwrites the previous commit's slot.
//!
//! A failed flush or sync leaves the affected pages dirty in the pager, so
//! a commit that returned an error can simply be retried. Integrity of an
//! existing file can be audited offline with [`Store::check`] (exposed as
//! `approxql check <db>`), which re-walks every B+-tree invariant, value
//! run, and page checksum. Deterministic crash and corruption scenarios
//! are injectable via [`FaultBackend`]. Full write-ahead logging remains
//! out of scope — commits are coarse (one per bulk build), so shadow
//! paging is the better fit.
//!
//! ## Space model
//!
//! A leaf entry is `klen u16 | key | vlen u32 | payload`: the value bytes
//! themselves when they are at most 480 (bit 31 of `vlen` set), else the
//! first page of a run of `ceil(vlen / PAGE_DATA)` pages. 480 is derived
//! from the page, not tunable: a maximal entry is 2 + 512 + 4 + 480 = 998
//! bytes, so four always fit a leaf. A full leaf splits at its byte
//! midpoint — or, when the new key lands behind the last key of the
//! tree, at the insertion point, so that loading keys in ascending order
//! (what `build` does) leaves full leaves behind, not half-empty ones.
//!
//! Pages are never reclaimed (there is no free list); deleting or
//! overwriting keys leaks the old value runs until the file is rewritten
//! whole: `Database::save` writes a fresh store beside the file and
//! renames it into place ([`Store::replace_file`]). Copy-on-write relocation adds to the
//! leak, which matches the access pattern of the reproduction: indexes are
//! bulk-built once and then read.

// No panics outside tests: every failure is a typed error or a documented
// exit code (DESIGN.md §11).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
// No silently dropped `Result` outside tests (DESIGN.md §11).
#![cfg_attr(
    not(test),
    deny(clippy::let_underscore_must_use, clippy::unused_result_ok)
)]

mod btree;
mod check;
mod fault;
mod heap;
mod pager;
mod store;

pub use check::CheckReport;
pub use fault::{CrashMode, FaultBackend, FaultConfig, OpCounter, SharedMemBackend};
pub use pager::{
    page_checksum, seal_page, Backend, FileBackend, MemBackend, PageId, Pager, PAGE_DATA, PAGE_SIZE,
};
pub use store::{KeyInline, Store, StoreIter, FORMAT_VERSION};

use std::fmt;

/// Maximum key length in bytes (keys must fit several times into a page).
pub const MAX_KEY_LEN: usize = 512;

/// Errors raised by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O error.
    Io(std::io::Error),
    /// The file is not a store created by this crate.
    NotAStore,
    /// Unsupported on-disk format version.
    BadVersion(u32),
    /// No header slot validates (both torn or corrupt).
    CorruptHeader,
    /// A page contains inconsistent data.
    CorruptPage(PageId, &'static str),
    /// The newest valid header claims more pages than the file holds.
    Truncated {
        /// Pages the header says the committed state spans.
        claimed_pages: u32,
        /// Pages actually present in the file.
        actual_pages: u32,
    },
    /// The key exceeds [`MAX_KEY_LEN`].
    KeyTooLong(usize),
    /// The value exceeds the format's 2 GiB-per-value limit.
    ValueTooLarge(usize),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::NotAStore => write!(f, "not an approxql store file"),
            StorageError::BadVersion(v) => write!(
                f,
                "unsupported store version {v} (this build reads version {FORMAT_VERSION}): \
                 rebuild with `approxql build`"
            ),
            StorageError::CorruptHeader => write!(f, "store header is corrupt in both slots"),
            StorageError::CorruptPage(p, what) => write!(f, "page {p} is corrupt: {what}"),
            StorageError::Truncated {
                claimed_pages,
                actual_pages,
            } => write!(
                f,
                "store file is truncated: header claims {claimed_pages} pages but only \
                 {actual_pages} are present"
            ),
            StorageError::KeyTooLong(n) => {
                write!(f, "key of {n} bytes exceeds the {MAX_KEY_LEN}-byte limit")
            }
            StorageError::ValueTooLarge(n) => {
                write!(f, "value of {n} bytes exceeds the 2 GiB per-value limit")
            }
        }
    }
}

/// A copy of an I/O error keeps its kind and its message, not the OS error
/// value behind them, which `std::io::Error` does not let one copy.
impl Clone for StorageError {
    fn clone(&self) -> Self {
        match self {
            StorageError::Io(e) => StorageError::Io(std::io::Error::new(e.kind(), e.to_string())),
            StorageError::NotAStore => StorageError::NotAStore,
            StorageError::BadVersion(v) => StorageError::BadVersion(*v),
            StorageError::CorruptHeader => StorageError::CorruptHeader,
            StorageError::CorruptPage(p, what) => StorageError::CorruptPage(*p, what),
            StorageError::Truncated {
                claimed_pages,
                actual_pages,
            } => StorageError::Truncated {
                claimed_pages: *claimed_pages,
                actual_pages: *actual_pages,
            },
            StorageError::KeyTooLong(n) => StorageError::KeyTooLong(*n),
            StorageError::ValueTooLarge(n) => StorageError::ValueTooLarge(*n),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Copies the first `N` bytes of `s` into a fixed array, zero-padding when
/// `s` is shorter. Deserialization callers always pass exactly `N` bytes
/// (their `take(N)` already bounds-checked); this helper just expresses
/// that without a panicking `try_into().unwrap()`.
pub(crate) fn le_array<const N: usize>(s: &[u8]) -> [u8; N] {
    let mut a = [0u8; N];
    for (d, b) in a.iter_mut().zip(s) {
        *d = *b;
    }
    a
}
