//! Persisting indexes in an [`approxql_storage::Store`].
//!
//! Key layout (all keys are byte strings):
//!
//! * `meta#<name>` — named blobs: `costs`, `interner`, `docmap`, the
//!   `schema` tree and `classes`, the `class id → schema pre` numbering
//!   (one little-endian `u32` per schema node, indexed by class id)
//! * `doc#<start, big-endian u32>` — one live document's column segment
//!   (written by `approxql-core`)
//! * `ls#<label>` / `lt#<label>` — `I_struct` / `I_text` postings
//! * `sec#<label>#<class id, big-endian u32>` — path-dependent postings.
//!   The paper keys them `pre(u)#label(u)`; here the class's stable id
//!   stands in for its schema preorder number, so that when the schema
//!   tree grows only the `classes` blob moves and no `sec#` key does, and
//!   the label comes first, so that one prefix scan finds every list of a
//!   label — what a query that reads only its own labels fetches
//!   (DESIGN.md §6). The class id is the key's last four bytes.
//!
//! Every `ls#`/`lt#`/`sec#` value is one [`BlockList`] run in canonical
//! form (DESIGN.md §14), and every writer puts its keys in sorted order,
//! so the same collection always produces the same store file.
//!
//! Labels are stored as strings; on load they are resolved against the
//! interner of the (already loaded) data tree, so label ids stay consistent.
//! Every loader validates what it reads, whether it reads a whole keyspace
//! ([`load_label_index`], [`load_secondary_index`]), the lists of one
//! label ([`load_label_list`], [`load_secondary_lists`]), the keys of one
//! label ([`secondary_keys`]) or one list ([`load_secondary_list`]).

use crate::codec::{BlockList, FrameEntry, PostingDecodeError};
use crate::{InstancePosting, LabelIndex, Posting, SecondaryIndex};
use approxql_storage::{StorageError, Store, MAX_KEY_LEN};
use approxql_tree::{Interner, LabelId, NodeType};
use std::fmt;

/// Errors raised while saving or loading indexes.
#[derive(Debug, Clone)]
pub enum PersistError {
    /// Underlying storage failure.
    Storage(StorageError),
    /// A posting value failed to decode.
    Decode(PostingDecodeError),
    /// A stored key is malformed.
    BadKey(String),
    /// A stored label does not exist in the tree's interner.
    UnknownLabel(String),
    /// A required `meta#` blob is missing.
    MissingBlob(&'static str),
    /// The `meta#classes` numbering is not a permutation of the schema
    /// nodes that keeps the root in place.
    BadNumbering(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Storage(e) => write!(f, "{e}"),
            PersistError::Decode(e) => write!(f, "{e}"),
            PersistError::BadKey(k) => write!(f, "malformed index key `{k}`"),
            PersistError::UnknownLabel(l) => {
                write!(f, "stored label `{l}` is not in the tree's interner")
            }
            PersistError::MissingBlob(b) => write!(f, "missing stored blob `{b}`"),
            PersistError::BadNumbering(why) => write!(f, "bad class numbering: {why}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<StorageError> for PersistError {
    fn from(e: StorageError) -> Self {
        PersistError::Storage(e)
    }
}

impl From<PostingDecodeError> for PersistError {
    fn from(e: PostingDecodeError) -> Self {
        PersistError::Decode(e)
    }
}

/// The store key of a label posting: `ls#<label>` / `lt#<label>`.
pub fn label_key(ty: NodeType, label: &str) -> Vec<u8> {
    let mut k = match ty {
        NodeType::Struct => b"ls#".to_vec(),
        NodeType::Text => b"lt#".to_vec(),
    };
    k.extend_from_slice(label.as_bytes());
    k
}

/// The longest label, in bytes, whose keys fit [`MAX_KEY_LEN`]: its
/// longest key is the [`sec_key`] `sec#<label>#` plus four bytes.
pub const MAX_LABEL_LEN: usize = MAX_KEY_LEN - b"sec##".len() - 4;

/// The store key of a secondary posting:
/// `sec#<label>#<class id, big-endian u32>`.
pub fn sec_key(class: u32, label: &str) -> Vec<u8> {
    let mut k = sec_prefix(label);
    k.extend_from_slice(&class.to_be_bytes());
    k
}

/// What every `sec#` key of `label` starts with: `sec#<label>#`.
fn sec_prefix(label: &str) -> Vec<u8> {
    let mut k = b"sec#".to_vec();
    k.extend_from_slice(label.as_bytes());
    k.push(b'#');
    k
}

/// Saves a named blob under `meta#<name>`.
pub fn save_blob(store: &mut Store, name: &str, data: &[u8]) -> Result<(), PersistError> {
    let mut k = b"meta#".to_vec();
    k.extend_from_slice(name.as_bytes());
    store.put(&k, data)?;
    Ok(())
}

/// Loads a named blob saved with [`save_blob`].
pub fn load_blob(store: &mut Store, name: &'static str) -> Result<Vec<u8>, PersistError> {
    let mut k = b"meta#".to_vec();
    k.extend_from_slice(name.as_bytes());
    store.get(&k)?.ok_or(PersistError::MissingBlob(name))
}

/// The one save routine: puts `lists` (store key, encoded value) in sorted
/// key order. The order a B+-tree is filled in decides its page layout,
/// so sorted puts are what makes equal collections equal files.
pub fn put_lists(
    store: &mut Store,
    lists: impl Iterator<Item = (Vec<u8>, Vec<u8>)>,
) -> Result<(), PersistError> {
    let mut lists: Vec<_> = lists.collect();
    lists.sort_unstable();
    for (key, value) in lists {
        store.put(&key, &value)?;
    }
    Ok(())
}

/// The one load routine: every list stored under `prefix` goes to
/// `insert` as (the key's fixed part, its label, the value bytes).
/// `split_key` is the key codec: it cuts the key after the prefix into
/// the fixed part and the label's name.
fn load_lists<K>(
    store: &mut Store,
    interner: &Interner,
    prefix: &[u8],
    split_key: impl Fn(&[u8]) -> Option<(K, &[u8])>,
    mut insert: impl FnMut(K, LabelId, &[u8]) -> Result<(), PostingDecodeError>,
) -> Result<(), PersistError> {
    let mut lists = store.scan_prefix(prefix)?;
    while let Some((key, value)) = lists.next_entry()? {
        let bad_key = || PersistError::BadKey(String::from_utf8_lossy(&key).into_owned());
        let (fixed, name) = split_key(&key[prefix.len()..]).ok_or_else(bad_key)?;
        let name = std::str::from_utf8(name).map_err(|_| bad_key())?;
        let label = interner
            .get(name)
            .ok_or_else(|| PersistError::UnknownLabel(name.to_owned()))?;
        insert(fixed, label, &value)?;
    }
    Ok(())
}

/// The one check routine: the checked decode and the canonical-form check
/// for every list under `prefix`.
fn check_lists<E: FrameEntry>(store: &mut Store, prefix: &[u8]) -> Result<(), PersistError> {
    let mut lists = store.scan_prefix(prefix)?;
    while let Some((_, value)) = lists.next_entry()? {
        BlockList::<E>::from_bytes(&value)?.check_integrity()?;
    }
    Ok(())
}

const LABEL_PREFIXES: [(&[u8], NodeType); 2] =
    [(b"ls#", NodeType::Struct), (b"lt#", NodeType::Text)];

/// The part of a `sec#` key after the prefix: label name, `#`, big-endian
/// class id.
fn split_sec_key(rest: &[u8]) -> Option<(u32, &[u8])> {
    let (rest, class) = rest.split_last_chunk::<4>()?;
    Some((u32::from_be_bytes(*class), rest.strip_suffix(b"#")?))
}

/// Saves a label index; labels are resolved through `interner`.
pub fn save_label_index(
    store: &mut Store,
    index: &LabelIndex,
    interner: &Interner,
) -> Result<(), PersistError> {
    put_lists(
        store,
        index
            .iter()
            .map(|((ty, label), list)| (label_key(ty, interner.resolve(label)), list.to_bytes())),
    )
}

/// Loads a label index saved with [`save_label_index`].
pub fn load_label_index(
    store: &mut Store,
    interner: &Interner,
) -> Result<LabelIndex, PersistError> {
    let mut index = LabelIndex::default();
    for (prefix, ty) in LABEL_PREFIXES {
        load_lists(
            store,
            interner,
            prefix,
            |name| Some(((), name)),
            |(), label, value| index.insert_bytes(ty, label, value),
        )?;
    }
    Ok(index)
}

/// Loads the stored list of `(ty, label)` into `index` with one point
/// get, validated as [`load_label_index`] validates it; a label with no
/// list of that type, or none in `interner`, loads nothing.
pub fn load_label_list(
    store: &mut Store,
    interner: &Interner,
    index: &mut LabelIndex,
    ty: NodeType,
    label: &str,
) -> Result<(), PersistError> {
    let Some(id) = interner.get(label) else {
        return Ok(());
    };
    if let Some(value) = store.get(&label_key(ty, label))? {
        index.insert_bytes(ty, id, &value)?;
    }
    Ok(())
}

/// Saves a secondary index — its `sec#` lists and its class numbering;
/// labels are resolved through `interner`.
pub fn save_secondary_index(
    store: &mut Store,
    index: &SecondaryIndex,
    interner: &Interner,
) -> Result<(), PersistError> {
    put_lists(
        store,
        index.iter().map(|((class, label), list)| {
            let value = SecondaryIndex::list_bytes(list);
            (sec_key(class, interner.resolve(label)), value)
        }),
    )?;
    save_class_numbering(store, index)
}

/// Saves the `class id → schema pre` numbering of `index` as
/// `meta#classes`: the one value a structural schema extension rewrites
/// (together with the `schema` tree blob).
pub fn save_class_numbering(store: &mut Store, index: &SecondaryIndex) -> Result<(), PersistError> {
    let blob: Vec<u8> = index
        .numbering()
        .iter()
        .flat_map(|pre| pre.to_le_bytes())
        .collect();
    save_blob(store, "classes", &blob)
}

/// Loads a secondary index saved with [`save_secondary_index`]: its
/// numbering ([`load_class_numbering`]), then every `sec#` list. A key
/// naming a class past the numbering is a [`PersistError::BadKey`].
pub fn load_secondary_index(
    store: &mut Store,
    interner: &Interner,
) -> Result<SecondaryIndex, PersistError> {
    let mut index = load_class_numbering(store)?;
    let classes = index.numbering().len();
    load_lists(
        store,
        interner,
        b"sec#",
        |rest| split_sec_key(rest).filter(|&(class, _)| (class as usize) < classes),
        |class, label, value| index.insert_bytes(class, label, value),
    )?;
    Ok(index)
}

/// Loads the `meta#classes` numbering into an index without lists. It is
/// validated as a permutation before anything reads it.
pub fn load_class_numbering(store: &mut Store) -> Result<SecondaryIndex, PersistError> {
    let blob = load_blob(store, "classes")?;
    let (words, rest) = blob.as_chunks::<4>();
    if !rest.is_empty() {
        return Err(PersistError::BadNumbering("truncated blob"));
    }
    let mut index = SecondaryIndex::new();
    index
        .set_numbering(words.iter().map(|w| u32::from_le_bytes(*w)).collect())
        .map_err(PersistError::BadNumbering)?;
    Ok(index)
}

/// Walks the `sec#` keys of `label` with one prefix scan — the label
/// leads the key — and hands `each` the class id of every key of `label`
/// with its value: every value when `runs` is set, else only one stored
/// inline (`None` for the others, whose pages are not read). Class ids are
/// validated against a numbering of `classes` classes; a key under the
/// prefix that is no key of `label` must be one of a longer label of
/// `interner`, or it is a [`PersistError::BadKey`].
fn walk_secondary_keys(
    store: &mut Store,
    interner: &Interner,
    classes: usize,
    label: &str,
    runs: bool,
    mut each: impl FnMut(u32, Option<Vec<u8>>) -> Result<(), PersistError>,
) -> Result<(), PersistError> {
    let prefix = sec_prefix(label);
    let mut lists = store.scan_prefix(&prefix)?;
    loop {
        let entry = if runs {
            lists.next_entry()?.map(|(key, value)| (key, Some(value)))
        } else {
            lists.next_inline()?
        };
        let Some((key, value)) = entry else {
            return Ok(());
        };
        let bad_key = || PersistError::BadKey(String::from_utf8_lossy(&key).into_owned());
        let Ok(class) = <[u8; 4]>::try_from(&key[prefix.len()..]) else {
            // The keys of a longer label that starts with `label#` sort
            // among these; they are that label's to load, and have to be
            // keys of a label of the interner.
            let longer = split_sec_key(&key[b"sec#".len()..])
                .and_then(|(_, name)| std::str::from_utf8(name).ok())
                .and_then(|name| interner.get(name));
            longer.ok_or_else(bad_key)?;
            continue;
        };
        let class = u32::from_be_bytes(class);
        if class as usize >= classes {
            return Err(bad_key());
        }
        each(class, value)?;
    }
}

/// Loads every `sec#` list of `label` into `index` with one prefix scan,
/// validated as [`load_secondary_index`] validates them, class ids
/// against `index`'s numbering (see `walk_secondary_keys`). A label not
/// in `interner` loads nothing.
pub fn load_secondary_lists(
    store: &mut Store,
    interner: &Interner,
    index: &mut SecondaryIndex,
    label: &str,
) -> Result<(), PersistError> {
    let Some(id) = interner.get(label) else {
        return Ok(());
    };
    let classes = index.numbering().len();
    walk_secondary_keys(store, interner, classes, label, true, |class, value| {
        let value = value.unwrap_or_default();
        Ok(index.insert_bytes(class, id, &value)?)
    })
}

/// A `sec#` key's class id with its value if the value is stored inline
/// ([`secondary_keys`]).
pub type ClassInline = (u32, Option<Vec<u8>>);

/// The class ids of the `sec#` lists of `label`, in ascending order, each
/// with its value if the value is stored inline, from one prefix scan
/// that reads no out-of-line value and decodes no list. The keys are
/// validated as by [`load_secondary_lists`], against `numbering`. A label
/// not in `interner` has none.
pub fn secondary_keys(
    store: &mut Store,
    interner: &Interner,
    numbering: &SecondaryIndex,
    label: &str,
) -> Result<Vec<ClassInline>, PersistError> {
    let mut keys = Vec::new();
    if interner.get(label).is_some() {
        let n = numbering.numbering().len();
        walk_secondary_keys(store, interner, n, label, false, |class, inline| {
            keys.push((class, inline));
            Ok(())
        })?;
    }
    Ok(keys)
}

/// The instances of `(class, label)` with one point get, through the
/// checked decode ([`BlockList::decode`]); empty if the store has no
/// such list.
pub fn load_secondary_list(
    store: &mut Store,
    class: u32,
    label: &str,
) -> Result<Vec<InstancePosting>, PersistError> {
    match store.get(&sec_key(class, label))? {
        Some(value) => Ok(BlockList::decode(&value)?),
        None => Ok(Vec::new()),
    }
}

/// Walks every stored posting list (`ls#`/`lt#`/`sec#` values) and runs
/// the full integrity check. Used by `approxql check` (DESIGN.md §14);
/// any failure means a run does not decode to a strictly pre-sorted list
/// of its entry count, or is not the canonical encoding of its entries.
pub fn check_posting_blocks(store: &mut Store) -> Result<(), PersistError> {
    for (prefix, _) in LABEL_PREFIXES {
        check_lists::<Posting>(store, prefix)?;
    }
    check_lists::<InstancePosting>(store, b"sec#")
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxql_cost::CostModel;
    use approxql_tree::{Cost, DataTree, DataTreeBuilder};

    fn tree() -> DataTree {
        let mut b = DataTreeBuilder::new();
        b.begin_struct("cd");
        b.begin_struct("title");
        b.add_text("piano concerto");
        b.end();
        b.end();
        b.build(&CostModel::new())
    }

    #[test]
    fn label_index_roundtrip() {
        let t = tree();
        let idx = LabelIndex::build(&t);
        let mut store = Store::in_memory().unwrap();
        save_label_index(&mut store, &idx, t.interner()).unwrap();
        let loaded = load_label_index(&mut store, t.interner()).unwrap();
        assert_eq!(loaded.len(), idx.len());
        assert_eq!(loaded.entry_count(), idx.entry_count());
        let cd = t.lookup_label("cd").unwrap();
        assert_eq!(
            loaded.fetch(NodeType::Struct, cd),
            idx.fetch(NodeType::Struct, cd)
        );
        let piano = t.lookup_label("piano").unwrap();
        assert_eq!(
            loaded.fetch(NodeType::Text, piano),
            idx.fetch(NodeType::Text, piano)
        );
    }

    #[test]
    fn secondary_index_roundtrip() {
        let t = tree();
        let mut idx = SecondaryIndex::new();
        let cd = t.lookup_label("cd").unwrap();
        let piano = t.lookup_label("piano").unwrap();
        idx.push(1, cd, InstancePosting { pre: 1, bound: 4 });
        idx.push(3, piano, InstancePosting { pre: 3, bound: 3 });
        idx.push(3, piano, InstancePosting { pre: 9, bound: 9 });
        // Class 3 was discovered last but stands second in the tree.
        idx.set_numbering(vec![0, 1, 3, 2]).unwrap();
        let mut store = Store::in_memory().unwrap();
        save_secondary_index(&mut store, &idx, t.interner()).unwrap();
        let loaded = load_secondary_index(&mut store, t.interner()).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.numbering(), idx.numbering());
        assert_eq!(loaded.get(3, piano), idx.get(3, piano));
        assert_eq!(loaded.fetch(2, piano).len(), 2, "fetch speaks schema pre");
        assert_eq!(loaded.fetch(1, cd), idx.fetch(1, cd));
        assert!(store
            .get(&sec_key(3, "piano"))
            .unwrap()
            .is_some_and(|v| !v.is_empty()));
    }

    #[test]
    fn one_label_loads_by_itself() {
        // `cd#x` is no XML name, but a store may hold any label: its keys
        // fall in the prefix scan of `cd`, which passes over them.
        let mut b = DataTreeBuilder::new();
        for name in ["cd", "cd#x", "title"] {
            b.begin_struct(name);
            b.end();
        }
        let t = b.build(&CostModel::new());
        let [cd, cdx, title] = ["cd", "cd#x", "title"].map(|l| t.lookup_label(l).unwrap());
        let mut idx = SecondaryIndex::new();
        idx.push(1, cd, InstancePosting { pre: 1, bound: 1 });
        idx.push(3, cd, InstancePosting { pre: 9, bound: 9 });
        idx.push(2, cdx, InstancePosting { pre: 2, bound: 2 });
        idx.push(4, title, InstancePosting { pre: 3, bound: 3 });
        idx.set_numbering(vec![0, 1, 2, 3, 4]).unwrap();
        let mut store = Store::in_memory().unwrap();
        save_secondary_index(&mut store, &idx, t.interner()).unwrap();
        assert_eq!(sec_key(3, "cd"), b"sec#cd#\0\0\0\x03");
        let mut one = load_class_numbering(&mut store).unwrap();
        load_secondary_lists(&mut store, t.interner(), &mut one, "cd").unwrap();
        assert_eq!(one.len(), 2);
        assert_eq!(
            (one.get(1, cd), one.get(3, cd)),
            (idx.get(1, cd), idx.get(3, cd))
        );
        // The same keys with their inline values, and one list by itself.
        let keys = secondary_keys(&mut store, t.interner(), &one, "cd").unwrap();
        let mut list = |class| Some(store.get(&sec_key(class, "cd")).unwrap().unwrap());
        assert_eq!(keys, [(1, list(1)), (3, list(3))]);
        assert_eq!(
            load_secondary_list(&mut store, 3, "cd").unwrap(),
            idx.get(3, cd).unwrap()
        );
        assert!(load_secondary_list(&mut store, 2, "cd").unwrap().is_empty());
        // A class past the numbering is a bad key here too.
        one.set_numbering(vec![0, 1, 2]).unwrap();
        assert!(matches!(
            load_secondary_lists(&mut store, t.interner(), &mut one, "cd"),
            Err(PersistError::BadKey(_))
        ));
        // So is a key under the prefix of `cd` that is neither a key of
        // `cd` nor one of a longer label the interner knows.
        let cd_list = store.get(&sec_key(1, "cd")).unwrap().unwrap();
        for planted in [&b"sec#cd#\0\x01"[..], b"sec#cd#y#\0\0\0\x01"] {
            let mut store = Store::in_memory().unwrap();
            save_secondary_index(&mut store, &idx, t.interner()).unwrap();
            store.put(planted, &cd_list).unwrap();
            let mut one = load_class_numbering(&mut store).unwrap();
            let loaded = load_secondary_lists(&mut store, t.interner(), &mut one, "cd");
            let whole = load_secondary_index(&mut store, t.interner());
            let keys = secondary_keys(&mut store, t.interner(), &one, "cd");
            assert!(
                matches!(loaded, Err(PersistError::BadKey(_))),
                "{planted:?}"
            );
            assert!(matches!(keys, Err(PersistError::BadKey(_))), "{planted:?}");
            assert!(whole.is_err(), "{planted:?}");
        }
        let mut labels = LabelIndex::default();
        save_label_index(&mut store, &LabelIndex::build(&t), t.interner()).unwrap();
        for (ty, label) in [
            (NodeType::Struct, "cd"),
            (NodeType::Text, "cd"),
            (NodeType::Struct, "lp"),
        ] {
            load_label_list(&mut store, t.interner(), &mut labels, ty, label).unwrap();
        }
        assert_eq!(labels.len(), 1);
        assert_eq!(labels.fetch(NodeType::Struct, cd).len(), 1);
    }

    #[test]
    fn classes_blob_bytes_are_pinned() {
        let mut idx = SecondaryIndex::new();
        idx.set_numbering(vec![0, 2, 1]).unwrap();
        let mut store = Store::in_memory().unwrap();
        save_class_numbering(&mut store, &idx).unwrap();
        assert_eq!(
            load_blob(&mut store, "classes").unwrap(),
            [0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0]
        );
    }

    #[test]
    fn a_bad_class_numbering_is_a_typed_error() {
        let t = tree();
        let load = |blob: Option<&[u8]>| {
            let mut store = Store::in_memory().unwrap();
            if let Some(blob) = blob {
                save_blob(&mut store, "classes", blob).unwrap();
            }
            load_secondary_index(&mut store, t.interner())
        };
        let words = |ws: &[u32]| ws.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();
        assert!(load(Some(&words(&[0, 2, 1]))).is_ok());
        assert!(matches!(
            load(None),
            Err(PersistError::MissingBlob("classes"))
        ));
        for (blob, why) in [
            (words(&[0, 2, 1])[..11].to_vec(), "truncated"),
            (Vec::new(), "empty"),
            (words(&[0, 1, 1]), "duplicate pre"),
            (words(&[0, 1, 3]), "pre out of range"),
            (words(&[0, 1, u32::MAX]), "pre far out of range"),
            (words(&[1, 0, 2]), "root moved"),
        ] {
            assert!(
                matches!(load(Some(&blob)), Err(PersistError::BadNumbering(_))),
                "{why}"
            );
        }
    }

    #[test]
    fn a_sec_key_past_the_numbering_is_a_bad_key() {
        let t = tree();
        let cd = t.lookup_label("cd").unwrap();
        let mut idx = SecondaryIndex::new();
        idx.push(2, cd, InstancePosting { pre: 1, bound: 4 });
        idx.set_numbering(vec![0, 1, 2]).unwrap();
        let mut store = Store::in_memory().unwrap();
        save_secondary_index(&mut store, &idx, t.interner()).unwrap();
        load_secondary_index(&mut store, t.interner()).unwrap();
        // The same list, with the table one class shorter.
        idx.set_numbering(vec![0, 1]).unwrap();
        save_class_numbering(&mut store, &idx).unwrap();
        assert!(matches!(
            load_secondary_index(&mut store, t.interner()),
            Err(PersistError::BadKey(_))
        ));
    }

    #[test]
    fn blob_roundtrip_and_missing() {
        let mut store = Store::in_memory().unwrap();
        save_blob(&mut store, "tree", b"bytes").unwrap();
        assert_eq!(load_blob(&mut store, "tree").unwrap(), b"bytes");
        assert!(matches!(
            load_blob(&mut store, "nope"),
            Err(PersistError::MissingBlob("nope"))
        ));
    }

    #[test]
    fn unknown_label_on_load_is_an_error() {
        let t = tree();
        let idx = LabelIndex::build(&t);
        let mut store = Store::in_memory().unwrap();
        save_label_index(&mut store, &idx, t.interner()).unwrap();
        // A different tree without those labels.
        let other = DataTreeBuilder::new().build(&CostModel::new());
        assert!(matches!(
            load_label_index(&mut store, other.interner()),
            Err(PersistError::UnknownLabel(_))
        ));
    }

    #[test]
    fn check_posting_blocks_flags_a_count_the_run_does_not_hold() {
        let t = tree();
        let idx = LabelIndex::build(&t);
        let mut store = Store::in_memory().unwrap();
        save_label_index(&mut store, &idx, t.interner()).unwrap();
        check_posting_blocks(&mut store).unwrap();
        // Bump the entry count: the run holds one entry fewer than the
        // count claims, which the check and every load report.
        let key = label_key(NodeType::Struct, "cd");
        let mut bad = store.get(&key).unwrap().unwrap();
        bad[0] = bad[0].wrapping_add(1);
        store.put(&key, &bad).unwrap();
        assert!(matches!(
            check_posting_blocks(&mut store),
            Err(PersistError::Decode(_))
        ));
        assert!(matches!(
            load_label_index(&mut store, t.interner()),
            Err(PersistError::Decode(_))
        ));
    }

    #[test]
    fn postings_with_infinite_costs_survive() {
        let t = tree();
        let mut idx = LabelIndex::build(&t);
        let cd = t.lookup_label("cd").unwrap();
        idx.insert_posting(
            NodeType::Struct,
            cd,
            vec![Posting {
                pre: 1,
                bound: 2,
                pathcost: Cost::INFINITY,
                inscost: Cost::finite(1),
            }],
        );
        let mut store = Store::in_memory().unwrap();
        save_label_index(&mut store, &idx, t.interner()).unwrap();
        let loaded = load_label_index(&mut store, t.interner()).unwrap();
        assert_eq!(
            loaded.fetch(NodeType::Struct, cd)[0].pathcost,
            Cost::INFINITY
        );
    }
}
