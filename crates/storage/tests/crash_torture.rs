//! Crash torture: replay a multi-commit workload, crash at *every* backend
//! operation index (in every crash mode), reopen, and require the store to
//! equal the oracle of the commit it recovered to — byte for byte, with
//! zero panics.
//!
//! The sweep is seeded and fully deterministic. `APPROXQL_TORTURE_SCALE`
//! multiplies the number of commits (CI runs a larger sweep in release
//! mode).

use approxql_metrics::Metric;
use approxql_storage::{
    CrashMode, FaultBackend, FaultConfig, SharedMemBackend, Store, PAGE_DATA, PAGE_SIZE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

#[derive(Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
}

fn scale() -> usize {
    std::env::var("APPROXQL_TORTURE_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// The store's inline threshold (`btree::INLINE_MAX`, crate-private):
/// values up to it live in their leaf entry, longer ones in a page run.
const INLINE_MAX: usize = 480;

/// A deterministic workload of `commits` batches mixing fresh keys,
/// overwrites, deletes, and values from empty to multi-page — on both
/// sides of the inline threshold, so every commit carries leaf pages with
/// inline values *and* out-of-line runs, and overwrites move keys between
/// the two representations.
fn workload(seed: u64, commits: usize) -> Vec<Vec<Op>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..commits)
        .map(|c| {
            let mut batch = Vec::new();
            for _ in 0..(24 + 6 * c) {
                let key = format!("key{:03}", rng.gen_range(0..120u32)).into_bytes();
                if rng.gen_bool(0.2) {
                    batch.push(Op::Delete(key));
                } else {
                    let len = match rng.gen_range(0..6u32) {
                        0 => 0,
                        1 => rng.gen_range(1..64usize),
                        2 => rng.gen_range(64..900usize),
                        // The longest inline value or the shortest run.
                        3 => INLINE_MAX + rng.gen_range(0..2usize),
                        4 => PAGE_DATA, // exactly one payload page
                        _ => rng.gen_range(PAGE_SIZE..3 * PAGE_SIZE),
                    };
                    let fill = rng.gen_range(0..=255u8);
                    let value = (0..len).map(|j| fill.wrapping_add(j as u8)).collect();
                    batch.push(Op::Put(key, value));
                }
            }
            batch
        })
        .collect()
}

fn apply_store(store: &mut Store, batch: &[Op]) -> approxql_storage::Result<()> {
    for op in batch {
        match op {
            Op::Put(k, v) => store.put(k, v)?,
            Op::Delete(k) => {
                store.delete(k)?;
            }
        }
    }
    Ok(())
}

fn apply_model(model: &mut Model, batch: &[Op]) {
    for op in batch {
        match op {
            Op::Put(k, v) => {
                model.insert(k.clone(), v.clone());
            }
            Op::Delete(k) => {
                model.remove(k);
            }
        }
    }
}

/// Runs the workload against a backend that crashes at `crash_at`, reopens
/// from the surviving pages, and verifies recovery. Returns the number of
/// header-slot rollbacks the reopen performed.
fn run_crash_case(batches: &[Vec<Op>], models: &[Model], mode: CrashMode, crash_at: u64) -> u64 {
    let shared = SharedMemBackend::new();
    let fb = FaultBackend::new(
        Box::new(shared.clone()),
        FaultConfig {
            crash_after_ops: Some(crash_at),
            mode,
            fail_sync_at: None,
            seed: crash_at ^ 0x5EED,
        },
    );

    // Replay until the crash; track the highest *acknowledged* commit.
    let mut acked: u64 = 0;
    'run: {
        let mut store = match Store::create(Box::new(fb)) {
            Ok(s) => s,
            Err(_) => break 'run,
        };
        acked = store.commit_sequence();
        for batch in batches {
            if apply_store(&mut store, batch).is_err() {
                break 'run;
            }
            if store.commit().is_err() {
                break 'run;
            }
            acked = store.commit_sequence();
        }
    }

    // "Power back on": reopen from what actually reached the disk.
    let disk = SharedMemBackend::from(shared.snapshot());
    let before = approxql_metrics::snapshot();
    let mut store = match Store::open(Box::new(disk.clone())) {
        Ok(s) => s,
        Err(e) => {
            // Only a store whose very creation was interrupted may fail
            // to open — and then with a typed error, which `match`ing on
            // the Result already proved.
            assert_eq!(acked, 0, "acknowledged commit {acked} lost entirely: {e}");
            return 0;
        }
    };
    let rollbacks = approxql_metrics::snapshot()
        .diff(&before)
        .get(Metric::StoreRecoveryRollbacks);

    // Durability: everything acknowledged must still be there; the
    // recovered commit may at most be the one in flight at the crash.
    let csn = store.commit_sequence();
    assert!(
        csn >= acked,
        "crash@{crash_at} {mode:?}: acknowledged commit {acked} rolled back to {csn}"
    );
    assert!(
        (csn as usize) < models.len(),
        "crash@{crash_at} {mode:?}: recovered to impossible commit {csn}"
    );

    // Exactness: the recovered state equals the oracle of that commit.
    let got: Model = store
        .iter_all()
        .unwrap()
        .collect_all()
        .unwrap()
        .into_iter()
        .collect();
    assert!(
        got == models[csn as usize],
        "crash@{crash_at} {mode:?}: recovered state diverges from the commit-{csn} oracle"
    );

    // Integrity: the full checker passes on every recovered store.
    store
        .check()
        .unwrap_or_else(|e| panic!("crash@{crash_at} {mode:?}: check failed: {e}"));

    // Livability: the recovered store accepts and persists new commits.
    store.put(b"post-recovery", b"back in business").unwrap();
    store.commit().unwrap();
    drop(store);
    let mut store = Store::open(Box::new(disk)).unwrap();
    assert_eq!(
        store.get(b"post-recovery").unwrap(),
        Some(b"back in business".to_vec())
    );
    store.check().unwrap();
    rollbacks
}

#[test]
fn crash_at_every_write_index_recovers_exactly_the_last_commit() {
    let commits = 3 * scale();
    let batches = workload(0xC0FFEE, commits);

    // Clean run: build the per-commit oracle and count backend operations.
    let shared = SharedMemBackend::new();
    let fb = FaultBackend::new(Box::new(shared.clone()), FaultConfig::default());
    let ops_counter = fb.op_counter();
    let mut store = Store::create(Box::new(fb)).unwrap();
    // models[csn] = expected contents after commit `csn`; csn 1 is the
    // empty store committed by create (index 0 is a placeholder).
    let mut models: Vec<Model> = vec![Model::new(), Model::new()];
    let mut model = Model::new();
    for batch in &batches {
        apply_store(&mut store, batch).unwrap();
        apply_model(&mut model, batch);
        store.commit().unwrap();
        models.push(model.clone());
    }
    assert_eq!(store.commit_sequence() as usize, commits + 1);
    drop(store);
    let total_ops = ops_counter.get();
    eprintln!("sweeping {total_ops} backend ops per crash mode");
    assert!(
        total_ops > 40,
        "workload too small: {total_ops} backend ops"
    );

    let mut rollbacks = 0u64;
    for mode in [
        CrashMode::AfterWrite,
        CrashMode::TornWrite,
        CrashMode::DropWrite,
        CrashMode::LoseUnsynced,
    ] {
        for crash_at in 0..total_ops {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_crash_case(&batches, &models, mode, crash_at)
            }));
            match outcome {
                Ok(n) => rollbacks += n,
                Err(_) => panic!("panicked at crash index {crash_at} in mode {mode:?}"),
            }
        }
    }
    // The sweep must have crossed the dual-slot fallback path: crashes
    // during the header-slot write of later commits tear the newest slot.
    assert!(rollbacks > 0, "sweep never exercised a header rollback");
}

#[test]
fn every_data_page_bit_flip_is_caught_by_check() {
    // Build and commit a store with a multi-level tree and value runs.
    let shared = SharedMemBackend::new();
    let mut store = Store::create(Box::new(shared.clone())).unwrap();
    let mut rng = StdRng::seed_from_u64(0xB17F11B);
    for i in 0..400u32 {
        let len = rng.gen_range(0..2 * PAGE_SIZE);
        let v: Vec<u8> = (0..len).map(|j| (i as usize + j) as u8).collect();
        store.put(format!("key{i:04}").as_bytes(), &v).unwrap();
    }
    store.commit().unwrap();
    drop(store);

    let base = shared.snapshot();
    let pages = {
        let mut probe = Store::open(Box::new(base.clone())).unwrap();
        probe.check().unwrap().committed_pages
    };
    assert!(pages > 10);

    // Flip one random bit per trial, anywhere in the data pages (page 2
    // onward — header-slot damage is open()'s job, exercised elsewhere).
    let trials = 60 * scale() as u64;
    for trial in 0..trials {
        let mut rng = StdRng::seed_from_u64(trial.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let page = rng.gen_range(2..pages);
        let bit = rng.gen_range(0..PAGE_SIZE * 8);
        let mut corrupted = base.clone();
        let mut buf = [0u8; PAGE_SIZE];
        use approxql_storage::{Backend, PageId};
        corrupted.read_page(PageId(page), &mut buf).unwrap();
        buf[bit / 8] ^= 1 << (bit % 8);
        corrupted.write_page(PageId(page), &buf).unwrap();
        // Open succeeds (only the header slots are read eagerly) …
        let mut store = Store::open(Box::new(corrupted)).unwrap();
        // … but the checker must spot the flip, wherever it landed.
        assert!(
            store.check().is_err(),
            "flip of page {page} bit {bit} went undetected"
        );
    }
}

#[test]
fn failed_sync_makes_commit_retryable() {
    // An fsync failure mid-commit must leave the store consistent and the
    // commit repeatable — the fsyncgate scenario.
    let shared = SharedMemBackend::new();
    let fb = FaultBackend::new(
        Box::new(shared.clone()),
        FaultConfig {
            // Syncs 0 and 1 belong to create's commit; fail the first sync
            // of the *second* commit (the data-page barrier).
            fail_sync_at: Some(2),
            ..FaultConfig::default()
        },
    );
    let mut store = Store::create(Box::new(fb)).unwrap();
    for i in 0..50u32 {
        store
            .put(format!("k{i:02}").as_bytes(), &[i as u8; 300])
            .unwrap();
    }
    assert!(
        store.commit().is_err(),
        "commit swallowed the fsync failure"
    );
    assert_eq!(store.commit_sequence(), 1, "failed commit advanced the csn");
    // Retry: the pages are still dirty, so this rewrites and re-syncs.
    store.commit().unwrap();
    assert_eq!(store.commit_sequence(), 2);
    drop(store);
    let mut store = Store::open(Box::new(SharedMemBackend::from(shared.snapshot()))).unwrap();
    assert_eq!(store.commit_sequence(), 2);
    for i in 0..50u32 {
        assert_eq!(
            store.get(format!("k{i:02}").as_bytes()).unwrap(),
            Some(vec![i as u8; 300])
        );
    }
    store.check().unwrap();
}
