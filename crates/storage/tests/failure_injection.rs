//! Failure injection: the store must surface backend I/O errors as
//! `Err` values — never panic, never corrupt previously committed state.

use approxql_storage::{Backend, MemBackend, PageId, StorageError, Store, PAGE_SIZE};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// A backend that starts failing every operation once the fuse burns.
struct FlakyBackend {
    inner: MemBackend,
    remaining: Arc<AtomicI64>,
}

impl FlakyBackend {
    fn tick(&self) -> Result<(), StorageError> {
        let left = self.remaining.load(Ordering::Relaxed);
        if left <= 0 {
            return Err(StorageError::Io(std::io::Error::other("injected failure")));
        }
        self.remaining.store(left - 1, Ordering::Relaxed);
        Ok(())
    }
}

impl Backend for FlakyBackend {
    fn read_page(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
        self.tick()?;
        self.inner.read_page(id, buf)
    }

    fn write_page(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<(), StorageError> {
        self.tick()?;
        self.inner.write_page(id, buf)
    }

    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.tick()?;
        self.inner.sync()
    }
}

fn flaky(budget: i64) -> (Box<dyn Backend>, Arc<AtomicI64>) {
    let remaining = Arc::new(AtomicI64::new(budget));
    (
        Box::new(FlakyBackend {
            inner: MemBackend::new(),
            remaining: Arc::clone(&remaining),
        }),
        remaining,
    )
}

#[test]
fn operations_fail_gracefully_once_the_backend_dies() {
    let (backend, fuse) = flaky(i64::MAX);
    let mut store = Store::create(backend).unwrap();
    for i in 0..200u32 {
        store
            .put(format!("key{i:04}").as_bytes(), &i.to_le_bytes())
            .unwrap();
    }
    store.commit().unwrap();

    // Kill the backend: every operation that needs it must return Err
    // rather than panic. A commit syncs, so it fails.
    fuse.store(0, Ordering::Relaxed);
    assert!(store.commit().is_err());
    // The pager holds only the pages the open transaction wrote, and the
    // last commit left it none: every read of a committed page goes to the
    // dead backend, so lookups and scans fail too.
    let _ = store.put(b"late", b"value");
    assert!(store.get(b"key0007").is_err());
    let _ = store.delete(b"key0001");
    assert!(store
        .scan_prefix(b"key")
        .and_then(|it| it.collect_all())
        .is_err());
    assert!(store.commit().is_err());
}

#[test]
fn every_failure_point_is_an_error_not_a_panic() {
    // Burn the fuse at every possible point of a fixed workload and check
    // that the store only ever reports errors.
    for budget in 0..60 {
        let (backend, _fuse) = flaky(budget);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut store = match Store::create(backend) {
                Ok(s) => s,
                Err(_) => return,
            };
            for i in 0..20u32 {
                if store.put(format!("k{i}").as_bytes(), &[0u8; 100]).is_err() {
                    return;
                }
            }
            let _ = store.get(b"k3");
            let _ = store.commit();
            let _ = store.scan_prefix(b"k").and_then(|it| it.collect_all());
        }));
        assert!(result.is_ok(), "panicked with failure budget {budget}");
    }
}

#[test]
fn committed_data_survives_partial_later_failures() {
    let (backend, fuse) = flaky(i64::MAX);
    let mut store = Store::create(backend).unwrap();
    store.put(b"stable", b"yes").unwrap();
    store.commit().unwrap();
    // Allow a couple more operations, then fail.
    fuse.store(2, Ordering::Relaxed);
    let _ = store.put(b"doomed", &[1u8; PAGE_SIZE * 4]);
    // The committed key is still readable (from cache or backend).
    assert_eq!(store.get(b"stable").unwrap(), Some(b"yes".to_vec()));
}
