//! Property tests for the posting-run codec (DESIGN.md §14): arbitrary
//! preorder-sorted lists must encode → serialize → deserialize → decode
//! byte-identically, any interleaving of appends and range removals must
//! leave the list byte-identical to a batch build over a `Vec` model, and
//! no truncation or single-byte change of a stored list loads as anything
//! but a strictly pre-sorted list. Every property is one generic body, run
//! for both entry types — label postings (`ls#`/`lt#` values) and instance
//! postings (`sec#` values).

use approxql::crates::index::codec::{BlockList, FrameEntry};
use approxql::crates::index::{InstancePosting, Posting};
use approxql::Cost;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A cost that is infinite often enough to exercise the 0-byte encoding.
fn gen_cost() -> impl Strategy<Value = Cost> {
    prop_oneof![
        (0u64..100_000).prop_map(Cost::finite),
        (0u64..100_000).prop_map(Cost::finite),
        (0u64..1).prop_map(|_| Cost::INFINITY),
    ]
}

/// One drawn entry: preorder gap to its predecessor, subtree span, and the
/// two costs (which instance entries drop).
type Raw = (u32, u32, Cost, Cost);

/// Zero to several hundred entries with irregular gaps.
fn gen_raw(
    max_gap: u32,
    max_span: u32,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<Raw>> {
    proptest::collection::vec((1..max_gap, 0..max_span, gen_cost(), gen_cost()), len)
}

/// An entry type the properties can draw.
trait Drawn: FrameEntry + Eq {
    fn drawn(pre: u32, bound: u32, pathcost: Cost, inscost: Cost) -> Self;
}

impl Drawn for Posting {
    fn drawn(pre: u32, bound: u32, pathcost: Cost, inscost: Cost) -> Posting {
        Posting {
            pre,
            bound,
            pathcost,
            inscost,
        }
    }
}

impl Drawn for InstancePosting {
    fn drawn(pre: u32, bound: u32, _: Cost, _: Cost) -> InstancePosting {
        InstancePosting { pre, bound }
    }
}

/// Turns drawn gaps into a strictly pre-sorted list starting past `after`.
fn entries<E: Drawn>(after: u32, raw: &[Raw]) -> Vec<E> {
    let mut pre = after;
    raw.iter()
        .map(|&(gap, span, pathcost, inscost)| {
            pre += gap;
            E::drawn(pre, pre + span, pathcost, inscost)
        })
        .collect()
}

/// One step of a randomized mutation sequence: a batch append (gaps are
/// relative to the list's running maximum, keeping preorders strictly
/// increasing) or a range tombstone.
#[derive(Clone, Debug)]
enum MutOp {
    Append(Vec<Raw>),
    Remove(u32, u32),
}

fn gen_mut_ops() -> impl Strategy<Value = Vec<MutOp>> {
    proptest::collection::vec(
        prop_oneof![
            gen_raw(500, 1_000, 1..60).prop_map(MutOp::Append),
            (0u32..600_000, 0u32..50_000)
                .prop_map(|(lo, span)| MutOp::Remove(lo, lo.saturating_add(span))),
        ],
        1..12,
    )
}

/// encode → to_bytes → from_bytes → decode is the identity, on the query
/// path (`decode_all`) and off it (`try_decode`); the integrity check
/// accepts every well-formed list, and `byte_len` matches the serialized
/// size.
fn roundtrips<E: Drawn>(raw: &[Raw]) -> Result<(), TestCaseError> {
    let list: Vec<E> = entries(0, raw);
    let blocks = BlockList::from_entries(&list);
    prop_assert_eq!(blocks.entry_count(), list.len());
    prop_assert_eq!(blocks.decode_all(), list.clone());
    let bytes = blocks.to_bytes();
    prop_assert_eq!(bytes.len(), blocks.byte_len());
    let loaded = BlockList::<E>::from_bytes(&bytes).unwrap();
    prop_assert_eq!(&loaded, &blocks);
    loaded.check_integrity().unwrap();
    prop_assert_eq!(loaded.try_decode().unwrap(), list);
    Ok(())
}

/// Incremental maintenance: after any interleaving of batch appends and
/// range removals, the list stays integrity-clean and byte-identical to a
/// batch build over a `Vec` model (the canonical form `check_integrity`
/// demands).
fn mutations_match_vec_model<E: Drawn>(
    initial: &[Raw],
    ops: &[MutOp],
) -> Result<(), TestCaseError> {
    let mut model: Vec<E> = entries(0, initial);
    let mut blocks = BlockList::from_entries(&model);
    for op in ops {
        match op {
            MutOp::Append(raw) => {
                let batch: Vec<E> = entries(model.last().map_or(0, |e| e.pre()), raw);
                blocks.append(&batch);
                model.extend(batch);
            }
            MutOp::Remove(lo, hi) => {
                let removed = blocks.remove_range(*lo, *hi);
                let before = model.len();
                model.retain(|e| e.pre() < *lo || e.pre() > *hi);
                prop_assert_eq!(removed, before - model.len());
            }
        }
        prop_assert_eq!(blocks.entry_count(), model.len());
        prop_assert!(
            blocks.check_integrity().is_ok(),
            "integrity lost after mutation"
        );
        prop_assert_eq!(
            blocks.to_bytes(),
            BlockList::from_entries(&model).to_bytes()
        );
    }
    prop_assert_eq!(blocks.decode_all(), model);
    Ok(())
}

/// Every truncation of a valid list, and the list with each byte in turn
/// XORed with `mask`, either fails to load or loads — and decodes, on and
/// off the query path — to a strictly pre-sorted list with `bound ≥ pre`.
/// Nothing panics.
fn damage_fails_or_loads_an_ordered_list<E: Drawn>(
    raw: &[Raw],
    mask: u8,
) -> Result<(), TestCaseError> {
    let bytes = BlockList::from_entries(&entries::<E>(0, raw)).to_bytes();
    let changed = (0..bytes.len()).map(|at| {
        let mut changed = bytes.clone();
        changed[at] ^= mask;
        changed
    });
    let truncated = (0..bytes.len()).map(|len| bytes[..len].to_vec());
    for damaged in truncated.chain(changed) {
        let Ok(loaded) = BlockList::<E>::from_bytes(&damaged) else {
            continue;
        };
        let list = loaded.try_decode().unwrap();
        prop_assert!(list.windows(2).all(|w| w[0].pre() < w[1].pre()));
        prop_assert!(list.iter().all(|e| e.bound() >= e.pre()));
        prop_assert_eq!(loaded.entry_count(), list.len());
        prop_assert_eq!(loaded.decode_all(), list);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn damaged_lists_fail_or_load_ordered(
        raw in gen_raw(5_000, 10_000, 0..40),
        mask in 1u8..=255,
    ) {
        damage_fails_or_loads_an_ordered_list::<Posting>(&raw, mask)?;
        damage_fails_or_loads_an_ordered_list::<InstancePosting>(&raw, mask)?;
    }

    #[test]
    fn block_list_roundtrips(raw in gen_raw(5_000, 10_000, 0..400)) {
        roundtrips::<Posting>(&raw)?;
    }

    #[test]
    fn instance_blocks_roundtrip(raw in gen_raw(5_000, 10_000, 0..400)) {
        roundtrips::<InstancePosting>(&raw)?;
    }

    #[test]
    fn block_list_mutations_match_vec_model(
        initial in gen_raw(5_000, 10_000, 0..400),
        ops in gen_mut_ops(),
    ) {
        mutations_match_vec_model::<Posting>(&initial, &ops)?;
    }

    #[test]
    fn instance_blocks_mutations_match_vec_model(
        initial in gen_raw(5_000, 10_000, 0..400),
        ops in gen_mut_ops(),
    ) {
        mutations_match_vec_model::<InstancePosting>(&initial, &ops)?;
    }
}
