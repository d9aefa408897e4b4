//! Model-based property test: the store must behave exactly like a
//! `BTreeMap<Vec<u8>, Vec<u8>>` under arbitrary operation sequences —
//! wherever a value lives (inside its leaf entry up to `INLINE_MAX`
//! bytes, in an out-of-line run above), and across a commit + reopen.

use approxql_storage::{SharedMemBackend, Store, PAGE_DATA};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The store's inline threshold (`btree::INLINE_MAX`, crate-private; its
/// value is pinned by `btree::tests::leaf_bytes_are_the_v3_layout`).
const INLINE_MAX: usize = 480;

/// Value lengths on both sides of every boundary of the layout: the
/// inline threshold and the payload capacity of a run page.
const EDGE_LENGTHS: [usize; 9] = [
    0,
    1,
    INLINE_MAX - 1,
    INLINE_MAX,
    INLINE_MAX + 1,
    PAGE_DATA - 1,
    PAGE_DATA,
    PAGE_DATA + 1,
    3 * PAGE_DATA + 17,
];

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn entries(model: &Model) -> Vec<(Vec<u8>, Vec<u8>)> {
    model.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
}

/// Commits `store`, reopens what reached `disk`, and requires the reopened
/// store to pass `check` and to hold exactly `model`.
fn assert_reopens_as(mut store: Store, disk: &SharedMemBackend, model: &Model) {
    store.commit().unwrap();
    drop(store);
    let mut reopened = Store::open(Box::new(disk.snapshot())).unwrap();
    reopened.check().unwrap();
    let got = reopened.iter_all().unwrap().collect_all().unwrap();
    assert!(
        got == entries(model),
        "reopened store diverges from the model"
    );
}

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Get(Vec<u8>),
    Delete(Vec<u8>),
    ScanPrefix(Vec<u8>),
    ScanRange(Vec<u8>, Vec<u8>),
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Small alphabet so operations collide often.
    proptest::collection::vec(
        proptest::sample::select(vec![b'a', b'b', b'c', 0u8, 0xFF]),
        0..6,
    )
}

fn value_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..40),
        (proptest::sample::select(EDGE_LENGTHS.to_vec()), any::<u8>())
            .prop_map(|(len, fill)| (0..len).map(|i| fill.wrapping_add(i as u8)).collect()),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (key_strategy(), value_strategy()).prop_map(|(k, v)| Op::Put(k, v)),
        key_strategy().prop_map(Op::Get),
        key_strategy().prop_map(Op::Delete),
        key_strategy().prop_map(Op::ScanPrefix),
        (key_strategy(), key_strategy()).prop_map(|(a, b)| Op::ScanRange(a, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn store_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let disk = SharedMemBackend::new();
        let mut store = Store::create(Box::new(disk.clone())).unwrap();
        let mut model = Model::new();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    store.put(&k, &v).unwrap();
                    model.insert(k, v);
                }
                Op::Get(k) => {
                    prop_assert_eq!(store.get(&k).unwrap(), model.get(&k).cloned());
                }
                Op::Delete(k) => {
                    let existed = store.delete(&k).unwrap();
                    prop_assert_eq!(existed, model.remove(&k).is_some());
                }
                Op::ScanPrefix(p) => {
                    let got = store.scan_prefix(&p).unwrap().collect_all().unwrap();
                    let want: Vec<(Vec<u8>, Vec<u8>)> = model
                        .iter()
                        .filter(|(k, _)| k.starts_with(&p))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, want);
                }
                Op::ScanRange(a, b) => {
                    let got = store.scan_range(&a, Some(&b)).unwrap().collect_all().unwrap();
                    let want: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range(a.clone()..)
                        .take_while(|(k, _)| k.as_slice() < b.as_slice())
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
        // Final full scan agrees, before and after commit + reopen.
        let got = store.iter_all().unwrap().collect_all().unwrap();
        prop_assert_eq!(got, entries(&model));
        assert_reopens_as(store, &disk, &model);
    }

    #[test]
    fn bulk_sorted_and_reverse_loads(n in 1usize..800) {
        let mut store = Store::in_memory().unwrap();
        for i in (0..n).rev() {
            store.put(format!("{i:08}").as_bytes(), &i.to_le_bytes()).unwrap();
        }
        let all = store.iter_all().unwrap().collect_all().unwrap();
        prop_assert_eq!(all.len(), n);
        for (i, (k, v)) in all.into_iter().enumerate() {
            prop_assert_eq!(k, format!("{i:08}").into_bytes());
            prop_assert_eq!(v, i.to_le_bytes().to_vec());
        }
    }
}

/// Every key is overwritten across the inline threshold in both
/// directions: for each ordered pair of edge lengths one key goes
/// `a → b → a` (so inline → run → inline and run → inline → run both
/// occur, next to same-side overwrites), the old representation leaks, and
/// the final state must survive commit + reopen.
#[test]
fn overwrites_across_the_inline_threshold_survive_reopen() {
    let disk = SharedMemBackend::new();
    let mut store = Store::create(Box::new(disk.clone())).unwrap();
    let mut model = Model::new();
    let value = |len: usize, round: u8| -> Vec<u8> {
        (0..len).map(|i| round.wrapping_add(i as u8)).collect()
    };
    for round in 0..3u8 {
        for (ai, &a) in EDGE_LENGTHS.iter().enumerate() {
            for (bi, &b) in EDGE_LENGTHS.iter().enumerate() {
                let key = format!("k{ai}{bi}").into_bytes();
                let v = value(if round == 1 { b } else { a }, round);
                store.put(&key, &v).unwrap();
                assert_eq!(store.get(&key).unwrap().as_ref(), Some(&v));
                model.insert(key, v);
            }
        }
        if round == 0 {
            // Round 1 then overwrites committed entries (copy-on-write).
            store.commit().unwrap();
        }
    }
    assert_reopens_as(store, &disk, &model);
}
