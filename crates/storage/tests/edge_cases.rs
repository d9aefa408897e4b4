//! Storage edge cases: maximum-length keys, prefix scans crossing leaf
//! splits, multi-page out-of-line value runs, and the open-path failure
//! matrix — torn headers, zero-length/truncated files, over-claiming
//! headers. Every bad input must yield a
//! typed error (or a clean rollback), never a panic.

use approxql_metrics::Metric;
use approxql_storage::{seal_page, StorageError, Store, MAX_KEY_LEN, PAGE_SIZE};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("axql-edge-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Re-seals the page at the front of `page` through the crate's own sum,
/// so tests can forge validly-checksummed (but hostile) header slots.
fn restamp_trailer(page: &mut [u8]) {
    seal_page((&mut page[..PAGE_SIZE]).try_into().unwrap());
}

#[test]
fn max_key_len_keys_are_stored_and_ordered() {
    let mut s = Store::in_memory().unwrap();
    // Keys of exactly MAX_KEY_LEN bytes round-trip; one byte more errors.
    for i in 0..20u8 {
        let mut k = vec![i; MAX_KEY_LEN];
        *k.last_mut().unwrap() = 19 - i; // distinct tails, reversed order
        s.put(&k, &[i]).unwrap();
    }
    let too_long = vec![0xAB; MAX_KEY_LEN + 1];
    assert!(matches!(
        s.put(&too_long, b"v"),
        Err(StorageError::KeyTooLong(n)) if n == MAX_KEY_LEN + 1
    ));
    assert_eq!(s.get(&too_long).unwrap(), None);
    let all = s.iter_all().unwrap().collect_all().unwrap();
    assert_eq!(all.len(), 20);
    // Key order is byte order, independent of insertion order.
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    for (k, v) in &all {
        assert_eq!(k.len(), MAX_KEY_LEN);
        assert_eq!(k[0], v[0]);
    }
}

#[test]
fn prefix_scan_spans_leaf_splits() {
    let baseline = approxql_metrics::snapshot();
    let mut s = Store::in_memory().unwrap();
    // Interleave three prefixes so the splits happen mid-prefix; enough
    // entries that the shared "b#" range is forced across several leaves.
    for i in 0..1500u32 {
        for p in ["a", "b", "c"] {
            s.put(format!("{p}#{i:06}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
    }
    let splits = approxql_metrics::snapshot()
        .diff(&baseline)
        .get(Metric::BtreeNodeSplits);
    assert!(splits > 0, "expected leaf splits, counted {splits}");
    let hits = s.scan_prefix(b"b#").unwrap().collect_all().unwrap();
    assert_eq!(hits.len(), 1500);
    assert!(hits.windows(2).all(|w| w[0].0 < w[1].0));
    assert!(hits.iter().all(|(k, _)| k.starts_with(b"b#")));
    // The scan crossed leaves: count its cursor steps for good measure.
    let before = approxql_metrics::snapshot();
    let again = s.scan_prefix(b"b#").unwrap().collect_all().unwrap();
    let steps = approxql_metrics::snapshot()
        .diff(&before)
        .get(Metric::BtreeScanSteps);
    assert_eq!(again.len(), 1500);
    assert!(steps >= 1500, "scan yielded {steps} steps");
}

#[test]
fn out_of_line_value_runs_survive_reopen() {
    let dir = tmpdir("runs");
    let path = dir.join("runs.db");
    // Values from sub-page to several pages, including exact multiples.
    let sizes = [
        1,
        PAGE_SIZE - 1,
        PAGE_SIZE,
        PAGE_SIZE + 1,
        3 * PAGE_SIZE,
        5 * PAGE_SIZE + 17,
    ];
    {
        let mut s = Store::create_file(&path).unwrap();
        for (i, &sz) in sizes.iter().enumerate() {
            let v: Vec<u8> = (0..sz).map(|j| ((i * 31 + j) % 251) as u8).collect();
            s.put(format!("val{i}").as_bytes(), &v).unwrap();
        }
        s.commit().unwrap();
    }
    {
        let mut s = Store::open_file(&path).unwrap();
        for (i, &sz) in sizes.iter().enumerate() {
            let want: Vec<u8> = (0..sz).map(|j| ((i * 31 + j) % 251) as u8).collect();
            assert_eq!(
                s.get(format!("val{i}").as_bytes()).unwrap(),
                Some(want),
                "value {i} ({sz} bytes) corrupted across reopen"
            );
        }
        s.check().unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_header_write_rolls_back_to_previous_commit() {
    let dir = tmpdir("torn");
    let path = dir.join("torn.db");
    // Commit A: just the seed key. Commit B: enough inserts that the root
    // moves. Then mangle commit B's header slot the way a torn write
    // does: one field reverted, checksum inconsistent.
    {
        let mut s = Store::create_file(&path).unwrap(); // csn 1 -> slot 1
        s.put(b"seed", b"v").unwrap();
        s.commit().unwrap(); // csn 2 -> slot 0
        for i in 0..2000u32 {
            s.put(format!("key{i:06}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        s.commit().unwrap(); // csn 3 -> slot 1 (the newest)
    }
    let mut bytes = std::fs::read(&path).unwrap();
    let newest = PAGE_SIZE..2 * PAGE_SIZE;
    bytes[newest.clone()][12..16].copy_from_slice(&0u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let before = approxql_metrics::snapshot();
    let mut s = Store::open_file(&path).unwrap();
    assert_eq!(
        approxql_metrics::snapshot()
            .diff(&before)
            .get(Metric::StoreRecoveryRollbacks),
        1
    );
    // Recovered to commit A: the seed is there, the 2000 keys are not.
    assert_eq!(s.commit_sequence(), 2);
    assert_eq!(s.get(b"seed").unwrap(), Some(b"v".to_vec()));
    assert_eq!(s.get(b"key000000").unwrap(), None);
    assert_eq!(s.iter_all().unwrap().collect_all().unwrap().len(), 1);
    s.check().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn zero_length_file_is_not_a_store() {
    let dir = tmpdir("zero");
    let path = dir.join("zero.db");
    std::fs::write(&path, b"").unwrap();
    assert!(matches!(
        Store::open_file(&path),
        Err(StorageError::NotAStore)
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_file_is_an_io_error() {
    let dir = tmpdir("missing");
    assert!(matches!(
        Store::open_file(dir.join("nope.db")),
        Err(StorageError::Io(_))
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncation_of_uncommitted_tail_rolls_back() {
    let dir = tmpdir("trunc-tail");
    let path = dir.join("t.db");
    {
        let mut s = Store::create_file(&path).unwrap(); // csn 1, 3 pages
        s.put(b"k", &vec![7u8; PAGE_SIZE * 3]).unwrap();
        s.commit().unwrap(); // csn 2, more pages
    }
    // Chop the file back to the extent of commit 1 (both header slots plus
    // the original empty root): commit 2's slot now over-claims, so open
    // must fall back to commit 1.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..3 * PAGE_SIZE]).unwrap();
    let mut s = Store::open_file(&path).unwrap();
    assert_eq!(s.commit_sequence(), 1);
    assert_eq!(s.get(b"k").unwrap(), None);
    assert_eq!(s.iter_all().unwrap().collect_all().unwrap().len(), 0);
    s.check().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncation_below_every_commit_is_a_typed_error() {
    let dir = tmpdir("trunc-hard");
    let path = dir.join("t.db");
    {
        let mut s = Store::create_file(&path).unwrap();
        s.put(b"k", &vec![7u8; PAGE_SIZE * 4]).unwrap();
        s.commit().unwrap();
    }
    // Two pages left: both slots survive, but each claims more pages than
    // the file holds — mid-page-run truncation with no commit to fall
    // back to.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..2 * PAGE_SIZE]).unwrap();
    match Store::open_file(&path) {
        Err(StorageError::Truncated {
            claimed_pages,
            actual_pages,
        }) => {
            assert_eq!(actual_pages, 2);
            assert!(claimed_pages > actual_pages);
        }
        Err(other) => panic!("expected Truncated, got {other:?}"),
        Ok(_) => panic!("expected Truncated, but the store opened"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn header_claiming_more_pages_than_the_file_holds() {
    let dir = tmpdir("overclaim");
    let path = dir.join("o.db");
    {
        let mut s = Store::create_file(&path).unwrap();
        s.put(b"k", b"v").unwrap();
        s.commit().unwrap(); // csn 2 -> slot 0 is now the newest
    }
    // Forge slot 0 to claim a giant extent, with a *valid* checksum, so
    // only the page-count sanity check can reject it. Recovery must fall
    // back to slot 1 (commit 1: the empty store).
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
    restamp_trailer(&mut bytes[..PAGE_SIZE]);
    std::fs::write(&path, &bytes).unwrap();
    let mut s = Store::open_file(&path).unwrap();
    assert_eq!(s.commit_sequence(), 1);
    assert_eq!(s.get(b"k").unwrap(), None);
    s.check().unwrap();

    // Forge both slots the same way: now there is nothing to fall back
    // to, and the error must name the truncation.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[PAGE_SIZE..][24..28].copy_from_slice(&u32::MAX.to_le_bytes());
    restamp_trailer(&mut bytes[PAGE_SIZE..2 * PAGE_SIZE]);
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        Store::open_file(&path),
        Err(StorageError::Truncated { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}
