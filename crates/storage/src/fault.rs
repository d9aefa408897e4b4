//! Deterministic fault injection for crash-safety tests.
//!
//! [`FaultBackend`] wraps any [`Backend`] and simulates a process kill (or
//! power loss) at an exact backend-operation index, optionally mangling
//! the in-flight write the way real storage does: dropping it, tearing it
//! (a prefix lands, the rest does not), or flipping one bit — or, as a
//! device with a write cache does, losing any write no `fsync` has made
//! durable yet. It can also fail an `fsync` without crashing, which
//! exercises the retry path.
//!
//! Tests pair it with [`SharedMemBackend`] so the "disk" survives the
//! simulated crash: the backend handed to the store and the handle kept by
//! the test share one page vector, and [`SharedMemBackend::snapshot`]
//! captures what a post-crash reopen would see.

use crate::pager::{Backend, MemBackend, PageId, PAGE_SIZE};
use crate::{Result, StorageError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// What happens to the write at the crash point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashMode {
    /// The write is lost entirely (never reached the device).
    DropWrite,
    /// A torn 4 KiB write: a random-length prefix lands over the old page
    /// content, the tail does not.
    TornWrite,
    /// The write lands with a single bit flipped (media corruption that
    /// only checksums can catch).
    BitFlip,
    /// The write lands intact; the crash hits immediately after.
    AfterWrite,
    /// Power loss under a volatile write cache: every page write since the
    /// last completed sync — the crashing one included, and all of them
    /// when the crash hits a sync — independently lands or is lost, with
    /// seeded choices. This is the device the two sync barriers of a
    /// commit exist for: without them a header slot can land while the
    /// pages it references do not, or an acknowledged commit can vanish.
    LoseUnsynced,
}

/// Configuration for a [`FaultBackend`].
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Crash on the operation with this index (writes and syncs share one
    /// 0-based counter). `None` never crashes.
    pub crash_after_ops: Option<u64>,
    /// How the crashing write is mangled (ignored when the crashing
    /// operation is a sync).
    pub mode: CrashMode,
    /// Fail the Nth sync (0-based, counted separately) with an I/O error
    /// *without* crashing — the backend stays usable, so the caller can
    /// retry. `None` never fails a sync.
    pub fail_sync_at: Option<u64>,
    /// Seed for torn-write lengths, bit-flip positions and which unsynced
    /// writes survive.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            crash_after_ops: None,
            mode: CrashMode::AfterWrite,
            fail_sync_at: None,
            seed: 0,
        }
    }
}

/// A [`MemBackend`] behind a shared handle, so a test can inspect the
/// "disk" after the store (which owns a clone of the handle) crashed.
#[derive(Clone, Default)]
pub struct SharedMemBackend {
    pages: Arc<Mutex<MemBackend>>,
}

impl SharedMemBackend {
    /// Creates an empty shared backend.
    pub fn new() -> SharedMemBackend {
        SharedMemBackend::default()
    }

    /// A point-in-time copy of the persisted pages — what a reopen after
    /// the crash would read.
    pub fn snapshot(&self) -> MemBackend {
        self.pages().clone()
    }

    /// The page vector. A panic while it was held (a failed test) leaves
    /// whole pages behind, so a poisoned lock is taken over as it is.
    fn pages(&self) -> MutexGuard<'_, MemBackend> {
        self.pages
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl From<MemBackend> for SharedMemBackend {
    /// Wraps an existing page vector (e.g. a [`SharedMemBackend::snapshot`])
    /// so it can be reopened and written again.
    fn from(pages: MemBackend) -> SharedMemBackend {
        SharedMemBackend {
            pages: Arc::new(Mutex::new(pages)),
        }
    }
}

impl Backend for SharedMemBackend {
    fn read_page(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        self.pages().read_page(id, buf)
    }

    fn write_page(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        self.pages().write_page(id, buf)
    }

    fn page_count(&self) -> u32 {
        self.pages().page_count()
    }

    fn sync(&mut self) -> Result<()> {
        self.pages().sync()
    }
}

fn crashed_err() -> StorageError {
    StorageError::Io(std::io::Error::other("simulated crash: device gone"))
}

/// The number of operations a [`FaultBackend`] completed, readable after
/// the backend moved into a store.
#[derive(Clone, Default)]
pub struct OpCounter(Arc<AtomicU64>);

impl OpCounter {
    /// Completed operations so far.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

type Page = Box<[u8; PAGE_SIZE]>;

/// A fault-injecting wrapper around a [`Backend`]. See the module docs.
pub struct FaultBackend {
    inner: Box<dyn Backend>,
    cfg: FaultConfig,
    /// Completed operations (shared so the test can read the count after
    /// the backend moved into a store).
    ops: OpCounter,
    syncs: u64,
    crashed: bool,
    /// [`CrashMode::LoseUnsynced`] only: the page writes since the last
    /// completed sync, in issue order — page, content before, content
    /// written.
    unsynced: Vec<(PageId, Page, Page)>,
}

impl FaultBackend {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: Box<dyn Backend>, cfg: FaultConfig) -> FaultBackend {
        FaultBackend {
            inner,
            cfg,
            ops: OpCounter::default(),
            syncs: 0,
            crashed: false,
            unsynced: Vec::new(),
        }
    }

    /// Handle to the operation counter (clone it before boxing the backend
    /// into a store).
    pub fn op_counter(&self) -> OpCounter {
        self.ops.clone()
    }

    fn check_alive(&self) -> Result<()> {
        if self.crashed {
            Err(crashed_err())
        } else {
            Ok(())
        }
    }

    fn crash_now(&self) -> bool {
        self.cfg.crash_after_ops == Some(self.ops.get())
    }

    /// The choices of the crash: they vary per crash point but stay
    /// reproducible.
    fn crash_rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.cfg.seed ^ self.ops.get().wrapping_mul(0x9E37_79B9))
    }

    /// The crash of [`CrashMode::LoseUnsynced`]: undoes every write since
    /// the last completed sync, then lets each land again with
    /// probability ½, in issue order.
    fn lose_unsynced(&mut self) -> Result<()> {
        let mut rng = self.crash_rng();
        let unsynced = std::mem::take(&mut self.unsynced);
        for (id, before, _) in unsynced.iter().rev() {
            self.inner.write_page(*id, before)?;
        }
        for (id, _, written) in &unsynced {
            if rng.gen_bool(0.5) {
                self.inner.write_page(*id, written)?;
            }
        }
        Ok(())
    }
}

impl Backend for FaultBackend {
    fn read_page(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        self.check_alive()?;
        self.inner.read_page(id, buf)
    }

    fn write_page(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        self.check_alive()?;
        if self.cfg.mode == CrashMode::LoseUnsynced {
            // A page past the end reads back as zeros once its write is lost.
            let mut before = Box::new([0u8; PAGE_SIZE]);
            if id.0 < self.inner.page_count() {
                self.inner.read_page(id, &mut before)?;
            }
            self.unsynced.push((id, before, Box::new(*buf)));
        }
        if self.crash_now() {
            self.crashed = true;
            let mut rng = self.crash_rng();
            match self.cfg.mode {
                CrashMode::DropWrite => {}
                CrashMode::TornWrite => {
                    let mut torn = [0u8; PAGE_SIZE];
                    if id.0 < self.inner.page_count() {
                        self.inner.read_page(id, &mut torn)?;
                    }
                    let keep = rng.gen_range(1..PAGE_SIZE);
                    torn[..keep].copy_from_slice(&buf[..keep]);
                    self.inner.write_page(id, &torn)?;
                }
                CrashMode::BitFlip => {
                    let mut flipped = *buf;
                    let bit = rng.gen_range(0..PAGE_SIZE * 8);
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    self.inner.write_page(id, &flipped)?;
                }
                CrashMode::AfterWrite => {
                    self.inner.write_page(id, buf)?;
                }
                CrashMode::LoseUnsynced => self.lose_unsynced()?,
            }
            return Err(crashed_err());
        }
        self.inner.write_page(id, buf)?;
        self.ops.incr();
        Ok(())
    }

    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn sync(&mut self) -> Result<()> {
        self.check_alive()?;
        if self.cfg.fail_sync_at == Some(self.syncs) {
            self.syncs += 1;
            return Err(StorageError::Io(std::io::Error::other(
                "injected fsync failure",
            )));
        }
        self.syncs += 1;
        if self.crash_now() {
            // A sync has no payload to tear: the crash simply means the
            // barrier never completed.
            self.crashed = true;
            if self.cfg.mode == CrashMode::LoseUnsynced {
                self.lose_unsynced()?;
            }
            return Err(crashed_err());
        }
        self.inner.sync()?;
        self.unsynced.clear();
        self.ops.incr();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_ops_without_faults() {
        let mut fb = FaultBackend::new(Box::new(MemBackend::new()), FaultConfig::default());
        let ops = fb.op_counter();
        fb.write_page(PageId(0), &[1u8; PAGE_SIZE]).unwrap();
        fb.sync().unwrap();
        fb.write_page(PageId(1), &[2u8; PAGE_SIZE]).unwrap();
        assert_eq!(ops.get(), 3);
    }

    #[test]
    fn crash_kills_all_later_operations() {
        let mut fb = FaultBackend::new(
            Box::new(MemBackend::new()),
            FaultConfig {
                crash_after_ops: Some(1),
                ..FaultConfig::default()
            },
        );
        fb.write_page(PageId(0), &[1u8; PAGE_SIZE]).unwrap();
        assert!(fb.write_page(PageId(1), &[2u8; PAGE_SIZE]).is_err());
        let mut buf = [0u8; PAGE_SIZE];
        assert!(fb.read_page(PageId(0), &mut buf).is_err());
        assert!(fb.sync().is_err());
        assert!(fb.write_page(PageId(2), &[3u8; PAGE_SIZE]).is_err());
    }

    #[test]
    fn torn_write_keeps_a_prefix_over_old_content() {
        let shared = SharedMemBackend::new();
        let mut seeder = shared.clone();
        seeder.write_page(PageId(0), &[0xAAu8; PAGE_SIZE]).unwrap();
        let mut fb = FaultBackend::new(
            Box::new(shared.clone()),
            FaultConfig {
                crash_after_ops: Some(0),
                mode: CrashMode::TornWrite,
                seed: 7,
                ..FaultConfig::default()
            },
        );
        assert!(fb.write_page(PageId(0), &[0xBBu8; PAGE_SIZE]).is_err());
        let mut snap = shared.snapshot();
        let mut buf = [0u8; PAGE_SIZE];
        snap.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[0], 0xBB, "no prefix of the new write landed");
        assert_eq!(
            buf[PAGE_SIZE - 1],
            0xAA,
            "the whole write landed — not torn"
        );
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let shared = SharedMemBackend::new();
        let mut fb = FaultBackend::new(
            Box::new(shared.clone()),
            FaultConfig {
                crash_after_ops: Some(0),
                mode: CrashMode::BitFlip,
                seed: 3,
                ..FaultConfig::default()
            },
        );
        let page = [0u8; PAGE_SIZE];
        assert!(fb.write_page(PageId(0), &page).is_err());
        let mut snap = shared.snapshot();
        let mut buf = [0u8; PAGE_SIZE];
        snap.read_page(PageId(0), &mut buf).unwrap();
        let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
    }

    #[test]
    fn a_crash_keeps_synced_writes_and_a_seeded_subset_of_the_rest() {
        // Per page: (value before the unsynced write, value written).
        let pages = [(1u8, 2u8), (0, 3)];
        let mut seen = [[false; 2]; 2];
        for seed in 0..16 {
            let shared = SharedMemBackend::new();
            let mut fb = FaultBackend::new(
                Box::new(shared.clone()),
                FaultConfig {
                    crash_after_ops: Some(4),
                    mode: CrashMode::LoseUnsynced,
                    seed,
                    ..FaultConfig::default()
                },
            );
            fb.write_page(PageId(0), &[1u8; PAGE_SIZE]).unwrap();
            fb.sync().unwrap();
            fb.write_page(PageId(0), &[2u8; PAGE_SIZE]).unwrap();
            fb.write_page(PageId(1), &[3u8; PAGE_SIZE]).unwrap();
            assert!(fb.sync().is_err(), "the barrier completed");
            let mut snap = shared.snapshot();
            for (i, (before, written)) in pages.into_iter().enumerate() {
                let mut buf = [0u8; PAGE_SIZE];
                snap.read_page(PageId(i as u32), &mut buf).unwrap();
                assert!(buf.iter().all(|&b| b == buf[0]), "page {i} is torn");
                assert!([before, written].contains(&buf[0]), "page {i}: {}", buf[0]);
                seen[i][usize::from(buf[0] == written)] = true;
            }
        }
        assert_eq!(seen, [[true; 2]; 2], "some write always landed or was lost");
    }

    #[test]
    fn failed_sync_does_not_crash_the_backend() {
        let mut fb = FaultBackend::new(
            Box::new(MemBackend::new()),
            FaultConfig {
                fail_sync_at: Some(0),
                ..FaultConfig::default()
            },
        );
        fb.write_page(PageId(0), &[1u8; PAGE_SIZE]).unwrap();
        assert!(fb.sync().is_err());
        // Still alive: the retry succeeds.
        fb.sync().unwrap();
        fb.write_page(PageId(1), &[2u8; PAGE_SIZE]).unwrap();
    }
}
