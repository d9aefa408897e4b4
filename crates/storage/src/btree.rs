//! The B+-tree over pages: variable-length keys, small values inside the
//! leaf entry, large values out of line, copy-on-write node updates.
//!
//! ## Leaf entry layout (since format version 3)
//!
//! ```text
//! klen u16 | key | vlen u32 | payload
//! ```
//!
//! Bit 31 of `vlen` set: the `vlen & 0x7fff_ffff` (≤ [`INLINE_MAX`]) value
//! bytes follow inline. Bit 31 clear: the value is `vlen` (> `INLINE_MAX`)
//! bytes long and `payload` is the `first_page u32` of its out-of-line run
//! (see [`crate::heap`]). Every value has exactly one encoding.
//!
//! Pages covered by the last commit are immutable (see the crate-level
//! durability model): modifying a committed node writes the new version to
//! a freshly allocated page and the new id propagates up to the root. This
//! is why leaves carry **no** sibling links — a relocated leaf could not
//! update the `next` pointer of its left neighbour without rewriting it
//! too. Range scans instead use a [`Cursor`] that owns the unvisited part
//! of the root-to-leaf path and descends into the next leaf when one runs
//! out.
//!
//! A node that overflows splits at its **byte** midpoint (entries differ
//! in size by two orders of magnitude, so an entry-count midpoint could
//! leave one half over a page) — except when the new entry lands behind
//! the last entry of the rightmost node of its level: then the full node
//! stays as it is and the new sibling starts with the new entry, so loads
//! in ascending key order leave full leaves behind instead of half-empty
//! ones.
//!
//! Deletion removes the entry from its leaf without rebalancing (empty
//! leaves simply stay in the tree) — adequate for the reproduction's
//! bulk-build-then-read workload and documented in the crate docs.

use crate::heap::{read_value, run_in_extent, ValueRef};
use crate::pager::{PageId, Pager, PAGE_DATA, PAGE_SIZE};
use crate::{Result, StorageError, MAX_KEY_LEN};
use approxql_metrics::Metric;

const TAG_INTERNAL: u8 = 1;
const TAG_LEAF: u8 = 2;

/// Longest value stored inside its leaf entry. Derived from the page: a
/// maximal entry is `2 + MAX_KEY_LEN + 4 + INLINE_MAX = 998` bytes, so
/// four of them always fit one leaf (`3 + 4 * 998 <= PAGE_DATA`) and a
/// split can always find a cut that leaves both halves within a page.
pub(crate) const INLINE_MAX: usize = 480;
const _: () = assert!(LEAF_HEADER + 4 * (2 + MAX_KEY_LEN + 4 + INLINE_MAX) <= PAGE_DATA);

/// Flag bit of a leaf entry's `vlen`: the value bytes follow inline.
const INLINE_FLAG: u32 = 1 << 31;

/// Node tag + entry count.
const LEAF_HEADER: usize = 1 + 2;
/// Node tag + key count + leftmost child.
const INTERNAL_HEADER: usize = 1 + 2 + 4;

/// Upper bound on tree depth; a descent deeper than this can only mean a
/// page cycle in a corrupt file, so it errors instead of looping forever.
const MAX_DEPTH: usize = 64;

/// A value as its leaf entry holds it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Value {
    /// The bytes themselves (at most [`INLINE_MAX`]).
    Inline(Vec<u8>),
    /// An out-of-line run of more than [`INLINE_MAX`] bytes.
    Run(ValueRef),
}

impl Value {
    /// The value's bytes: moved out of the entry, or read from the run.
    pub(crate) fn into_bytes(self, pager: &mut Pager) -> Result<Vec<u8>> {
        match self {
            Value::Inline(bytes) => Ok(bytes),
            Value::Run(vref) => read_value(pager, vref),
        }
    }
}

/// A leaf entry: key and value.
pub(crate) type Entry = (Vec<u8>, Value);

fn leaf_entry_size((key, value): &Entry) -> usize {
    2 + key.len()
        + 4
        + match value {
            Value::Inline(bytes) => bytes.len(),
            Value::Run(_) => 4,
        }
}

fn leaf_size(entries: &[Entry]) -> usize {
    LEAF_HEADER + entries.iter().map(leaf_entry_size).sum::<usize>()
}

fn separator_size(key: &[u8]) -> usize {
    2 + key.len() + 4
}

fn internal_size(keys: &[Vec<u8>]) -> usize {
    INTERNAL_HEADER + keys.iter().map(|k| separator_size(k)).sum::<usize>()
}

/// The cut `i` (`lo <= i <= hi`) at which `sizes[..i]` first reaches half
/// of the total: both `sizes[..i]` and `sizes[i..]` then stay within half
/// the total plus one item.
fn byte_midpoint(sizes: impl Iterator<Item = usize> + Clone, lo: usize, hi: usize) -> usize {
    let half = sizes.clone().sum::<usize>() / 2;
    let mut acc = 0;
    let cut = sizes
        .take_while(|s| {
            let below = acc < half;
            acc += s;
            below
        })
        .count();
    cut.clamp(lo, hi)
}

/// Parsed form of a tree page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Routing node: `children.len() == keys.len() + 1`; keys separate the
    /// children (`< key` goes left of it, `>= key` right).
    Internal {
        keys: Vec<Vec<u8>>,
        children: Vec<PageId>,
    },
    /// Data node: sorted `(key, value)` entries.
    Leaf { entries: Vec<Entry> },
}

impl Node {
    pub(crate) fn serialized_size(&self) -> usize {
        match self {
            Node::Internal { keys, .. } => internal_size(keys),
            Node::Leaf { entries } => leaf_size(entries),
        }
    }

    fn serialize_into(&self, buf: &mut [u8; PAGE_SIZE]) {
        debug_assert!(self.serialized_size() <= PAGE_DATA);
        buf.fill(0);
        let mut pos = 0;
        let mut put = |bytes: &[u8], pos: &mut usize| {
            buf[*pos..*pos + bytes.len()].copy_from_slice(bytes);
            *pos += bytes.len();
        };
        match self {
            Node::Internal { keys, children } => {
                put(&[TAG_INTERNAL], &mut pos);
                put(&(keys.len() as u16).to_le_bytes(), &mut pos);
                put(&children[0].0.to_le_bytes(), &mut pos);
                for (k, c) in keys.iter().zip(&children[1..]) {
                    put(&(k.len() as u16).to_le_bytes(), &mut pos);
                    put(k, &mut pos);
                    put(&c.0.to_le_bytes(), &mut pos);
                }
            }
            Node::Leaf { entries } => {
                put(&[TAG_LEAF], &mut pos);
                put(&(entries.len() as u16).to_le_bytes(), &mut pos);
                for (k, v) in entries {
                    put(&(k.len() as u16).to_le_bytes(), &mut pos);
                    put(k, &mut pos);
                    match v {
                        Value::Inline(bytes) => {
                            debug_assert!(bytes.len() <= INLINE_MAX);
                            put(&(INLINE_FLAG | bytes.len() as u32).to_le_bytes(), &mut pos);
                            put(bytes, &mut pos);
                        }
                        Value::Run(vref) => {
                            debug_assert!(vref.len as usize > INLINE_MAX && vref.len < INLINE_FLAG);
                            put(&vref.len.to_le_bytes(), &mut pos);
                            put(&vref.first_page.0.to_le_bytes(), &mut pos);
                        }
                    }
                }
            }
        }
    }

    /// Parses page `id` of a store of `page_count` pages. Every stored
    /// length is bounded here, before anything is allocated for it: keys
    /// by [`MAX_KEY_LEN`], inline values by [`INLINE_MAX`], both by the
    /// page, and a run by the store's extent — so no reader ever sizes a
    /// buffer from an unchecked field.
    pub(crate) fn parse(id: PageId, buf: &[u8; PAGE_SIZE], page_count: u32) -> Result<Node> {
        let corrupt = |what| StorageError::CorruptPage(id, what);
        let mut pos = 0usize;
        let take = |n: usize, pos: &mut usize| -> Result<&[u8]> {
            if *pos + n > PAGE_DATA {
                return Err(StorageError::CorruptPage(id, "page overrun"));
            }
            let s = &buf[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let take_u16 = |pos: &mut usize| -> Result<usize> {
            Ok(u16::from_le_bytes(crate::le_array(take(2, pos)?)) as usize)
        };
        let take_u32 = |pos: &mut usize| -> Result<u32> {
            Ok(u32::from_le_bytes(crate::le_array(take(4, pos)?)))
        };
        let take_key = |pos: &mut usize| -> Result<Vec<u8>> {
            let klen = take_u16(pos)?;
            if klen > MAX_KEY_LEN {
                return Err(StorageError::CorruptPage(id, "key too long"));
            }
            Ok(take(klen, pos)?.to_vec())
        };
        let tag = take(1, &mut pos)?[0];
        let n = take_u16(&mut pos)?;
        match tag {
            TAG_INTERNAL => {
                let mut children = Vec::with_capacity(n + 1);
                children.push(PageId(take_u32(&mut pos)?));
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    keys.push(take_key(&mut pos)?);
                    children.push(PageId(take_u32(&mut pos)?));
                }
                Ok(Node::Internal { keys, children })
            }
            TAG_LEAF => {
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let key = take_key(&mut pos)?;
                    let vlen = take_u32(&mut pos)?;
                    let value = if vlen & INLINE_FLAG != 0 {
                        let len = (vlen & !INLINE_FLAG) as usize;
                        if len > INLINE_MAX {
                            return Err(corrupt("inline value too long"));
                        }
                        Value::Inline(take(len, &mut pos)?.to_vec())
                    } else {
                        let vref = ValueRef {
                            first_page: PageId(take_u32(&mut pos)?),
                            len: vlen,
                        };
                        if vlen as usize <= INLINE_MAX {
                            return Err(corrupt("value run short enough to be inline"));
                        }
                        if !run_in_extent(vref, page_count) {
                            return Err(corrupt("value run outside the data extent"));
                        }
                        Value::Run(vref)
                    };
                    entries.push((key, value));
                }
                Ok(Node::Leaf { entries })
            }
            _ => Err(corrupt("unknown node tag")),
        }
    }
}

pub(crate) fn read_node(pager: &mut Pager, id: PageId) -> Result<Node> {
    Metric::BtreeNodeReads.incr();
    let page_count = pager.page_count();
    Node::parse(id, pager.read(id)?, page_count)
}

fn write_node(pager: &mut Pager, id: PageId, node: &Node) -> Result<()> {
    node.serialize_into(pager.write(id)?);
    Ok(())
}

/// Writes `node` copy-on-write: in place when `id` is uncommitted,
/// otherwise to a freshly allocated page. Returns the id that now holds
/// the node.
fn write_node_cow(pager: &mut Pager, id: PageId, node: &Node) -> Result<PageId> {
    if pager.is_committed(id) {
        let fresh = pager.allocate();
        write_node(pager, fresh, node)?;
        Ok(fresh)
    } else {
        write_node(pager, id, node)?;
        Ok(id)
    }
}

/// Writes `node` to a freshly allocated page and returns its id.
fn write_node_fresh(pager: &mut Pager, node: &Node) -> Result<PageId> {
    let id = pager.allocate();
    write_node(pager, id, node)?;
    Ok(id)
}

fn too_deep(page: PageId) -> StorageError {
    StorageError::CorruptPage(page, "tree deeper than MAX_DEPTH")
}

/// The B+-tree handle; the root page id lives in the store header.
pub struct BTree {
    /// Current root page.
    pub root: PageId,
}

enum InsertResult {
    /// The subtree now lives at `id` (unchanged unless relocated).
    Done { id: PageId },
    /// The child split: `sep` separates `id` from the new right sibling.
    Split {
        id: PageId,
        sep: Vec<u8>,
        right: PageId,
    },
}

impl BTree {
    /// Creates an empty tree (a single empty leaf).
    pub fn create(pager: &mut Pager) -> Result<BTree> {
        let root = write_node_fresh(
            pager,
            &Node::Leaf {
                entries: Vec::new(),
            },
        )?;
        Ok(BTree { root })
    }

    /// Opens a tree whose root is `root`.
    pub fn open(root: PageId) -> BTree {
        BTree { root }
    }

    /// Looks up `key`.
    pub fn get(&self, pager: &mut Pager, key: &[u8]) -> Result<Option<Value>> {
        Metric::BtreeGets.incr();
        let mut page = self.root;
        for _ in 0..MAX_DEPTH {
            match read_node(pager, page)? {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k.as_slice() <= key);
                    page = children[idx];
                }
                Node::Leaf { mut entries } => {
                    return Ok(entries
                        .binary_search_by(|(k, _)| k.as_slice().cmp(key))
                        .ok()
                        .map(|i| entries.swap_remove(i).1));
                }
            }
        }
        Err(too_deep(page))
    }

    /// Inserts or replaces `key`.
    pub fn insert(&mut self, pager: &mut Pager, key: &[u8], value: Value) -> Result<()> {
        if key.len() > MAX_KEY_LEN {
            return Err(StorageError::KeyTooLong(key.len()));
        }
        Metric::BtreeInserts.incr();
        match self.insert_rec(pager, self.root, key, value, 0, true)? {
            InsertResult::Done { id } => self.root = id,
            InsertResult::Split { id, sep, right } => {
                self.root = write_node_fresh(
                    pager,
                    &Node::Internal {
                        keys: vec![sep],
                        children: vec![id, right],
                    },
                )?;
            }
        }
        Ok(())
    }

    /// `is_rightmost`: `page` is the last node of its level, so a key that
    /// lands behind its last entry is an append to the whole tree.
    fn insert_rec(
        &mut self,
        pager: &mut Pager,
        page: PageId,
        key: &[u8],
        value: Value,
        depth: usize,
        is_rightmost: bool,
    ) -> Result<InsertResult> {
        if depth >= MAX_DEPTH {
            return Err(too_deep(page));
        }
        match read_node(pager, page)? {
            Node::Leaf { mut entries } => {
                let appended = match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(i) => {
                        entries[i].1 = value;
                        false
                    }
                    Err(i) => {
                        entries.insert(i, (key.to_vec(), value));
                        is_rightmost && i + 1 == entries.len()
                    }
                };
                if leaf_size(&entries) <= PAGE_DATA {
                    let id = write_node_cow(pager, page, &Node::Leaf { entries })?;
                    return Ok(InsertResult::Done { id });
                }
                Metric::BtreeNodeSplits.incr();
                let mid = if appended {
                    entries.len() - 1
                } else {
                    byte_midpoint(entries.iter().map(leaf_entry_size), 1, entries.len() - 1)
                };
                let right_entries = entries.split_off(mid);
                let sep = right_entries[0].0.clone();
                let right = write_node_fresh(
                    pager,
                    &Node::Leaf {
                        entries: right_entries,
                    },
                )?;
                // After an append the page as stored is the left half.
                let id = if appended {
                    page
                } else {
                    write_node_cow(pager, page, &Node::Leaf { entries })?
                };
                Ok(InsertResult::Split { id, sep, right })
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let idx = keys.partition_point(|k| k.as_slice() <= key);
                let last = idx + 1 == children.len();
                match self.insert_rec(
                    pager,
                    children[idx],
                    key,
                    value,
                    depth + 1,
                    is_rightmost && last,
                )? {
                    InsertResult::Done { id } => {
                        if id == children[idx] {
                            // Child updated in place: this node is untouched.
                            return Ok(InsertResult::Done { id: page });
                        }
                        children[idx] = id;
                        let new_id =
                            write_node_cow(pager, page, &Node::Internal { keys, children })?;
                        Ok(InsertResult::Done { id: new_id })
                    }
                    InsertResult::Split { id, sep, right } => {
                        children[idx] = id;
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                        if internal_size(&keys) <= PAGE_DATA {
                            let new_id =
                                write_node_cow(pager, page, &Node::Internal { keys, children })?;
                            return Ok(InsertResult::Done { id: new_id });
                        }
                        Metric::BtreeNodeSplits.incr();
                        // Key `mid` moves up; the right sibling takes what
                        // lies behind it. An append keeps the full node
                        // (less its last separator) and gives the sibling
                        // the new separator alone.
                        let mid = if is_rightmost && last {
                            keys.len() - 2
                        } else {
                            byte_midpoint(keys.iter().map(|k| separator_size(k)), 1, keys.len() - 2)
                        };
                        let up = keys.remove(mid);
                        let right_keys = keys.split_off(mid);
                        let right_children = children.split_off(mid + 1);
                        let right_page = write_node_fresh(
                            pager,
                            &Node::Internal {
                                keys: right_keys,
                                children: right_children,
                            },
                        )?;
                        let new_id =
                            write_node_cow(pager, page, &Node::Internal { keys, children })?;
                        Ok(InsertResult::Split {
                            id: new_id,
                            sep: up,
                            right: right_page,
                        })
                    }
                }
            }
        }
    }

    /// Removes `key`, returning whether it was present. Leaves are not
    /// rebalanced.
    pub fn delete(&mut self, pager: &mut Pager, key: &[u8]) -> Result<bool> {
        Metric::BtreeDeletes.incr();
        let (existed, new_root) = self.delete_rec(pager, self.root, key, 0)?;
        if let Some(id) = new_root {
            self.root = id;
        }
        Ok(existed)
    }

    /// Returns `(key_existed, Some(new_page_id) if the node relocated)`.
    fn delete_rec(
        &self,
        pager: &mut Pager,
        page: PageId,
        key: &[u8],
        depth: usize,
    ) -> Result<(bool, Option<PageId>)> {
        if depth >= MAX_DEPTH {
            return Err(too_deep(page));
        }
        match read_node(pager, page)? {
            Node::Leaf { mut entries } => {
                match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(i) => {
                        entries.remove(i);
                        let id = write_node_cow(pager, page, &Node::Leaf { entries })?;
                        Ok((true, (id != page).then_some(id)))
                    }
                    Err(_) => Ok((false, None)),
                }
            }
            Node::Internal { keys, mut children } => {
                let idx = keys.partition_point(|k| k.as_slice() <= key);
                let (existed, relocated) = self.delete_rec(pager, children[idx], key, depth + 1)?;
                match relocated {
                    None => Ok((existed, None)),
                    Some(child) => {
                        children[idx] = child;
                        let id = write_node_cow(pager, page, &Node::Internal { keys, children })?;
                        Ok((existed, (id != page).then_some(id)))
                    }
                }
            }
        }
    }

    /// Positions a cursor at the first entry with key `>= start`.
    pub fn seek(&self, pager: &mut Pager, start: &[u8]) -> Result<Cursor> {
        let mut cursor = Cursor {
            ancestors: Vec::new(),
            leaf: Vec::new().into_iter(),
        };
        cursor.descend(pager, self.root, Some(start))?;
        Ok(cursor)
    }
}

/// A forward cursor over leaf entries.
///
/// Owns what is left to visit: the remaining entries of the leaf it stands
/// on and, per ancestor, the children to the right of the path. Every node
/// is therefore read and parsed once per visit, and entries are handed out
/// by move. When a leaf runs out the cursor takes the next child of the
/// nearest ancestor that has one and descends to its leftmost leaf. The
/// store is borrowed mutably for as long as a cursor lives, so the tree
/// cannot change under it.
pub struct Cursor {
    ancestors: Vec<std::vec::IntoIter<PageId>>,
    leaf: std::vec::IntoIter<Entry>,
}

impl Cursor {
    /// Returns the next entry, advancing the cursor.
    pub fn next(&mut self, pager: &mut Pager) -> Result<Option<Entry>> {
        loop {
            if let Some(entry) = self.leaf.next() {
                Metric::BtreeScanSteps.incr();
                return Ok(Some(entry));
            }
            // Leaf exhausted (possibly empty after deletions): move to the
            // next leaf in key order.
            let Some(siblings) = self.ancestors.last_mut() else {
                return Ok(None);
            };
            match siblings.next() {
                Some(child) => self.descend(pager, child, None)?,
                None => {
                    self.ancestors.pop();
                }
            }
        }
    }

    /// Pushes the path from `page` down to a leaf: towards `start` when
    /// given (the leaf's entries `< start` are skipped), else leftmost.
    fn descend(&mut self, pager: &mut Pager, mut page: PageId, start: Option<&[u8]>) -> Result<()> {
        loop {
            if self.ancestors.len() >= MAX_DEPTH {
                return Err(too_deep(page));
            }
            match read_node(pager, page)? {
                Node::Internal { keys, mut children } => {
                    let idx = start.map_or(0, |s| keys.partition_point(|k| k.as_slice() <= s));
                    self.ancestors.push(children.split_off(idx + 1).into_iter());
                    page = children[idx];
                }
                Node::Leaf { mut entries } => {
                    if let Some(s) = start {
                        let idx = entries.partition_point(|(k, _)| k.as_slice() < s);
                        entries.drain(..idx);
                    }
                    self.leaf = entries.into_iter();
                    return Ok(());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemBackend;

    fn setup() -> (Pager, BTree) {
        let mut pager = Pager::new(Box::new(MemBackend::new()));
        pager.allocate(); // stand-in for header slot 0
        pager.allocate(); // stand-in for header slot 1
        let tree = BTree::create(&mut pager).unwrap();
        (pager, tree)
    }

    /// A small (inline) marker value.
    fn vr(n: u32) -> Value {
        Value::Inline(n.to_le_bytes().to_vec())
    }

    /// Every leaf of the tree in key order, as `(page, node)`, plus the
    /// number of internal nodes above them.
    fn leaves(p: &mut Pager, t: &BTree) -> (Vec<(PageId, Node)>, u64) {
        let (mut out, mut internal, mut todo) = (Vec::new(), 0, vec![t.root]);
        while let Some(page) = todo.pop() {
            match read_node(p, page).unwrap() {
                Node::Internal { children, .. } => {
                    internal += 1;
                    todo.extend(children.into_iter().rev());
                }
                leaf => out.push((page, leaf)),
            }
        }
        (out, internal)
    }

    #[test]
    fn empty_tree_has_no_entries() {
        let (mut p, t) = setup();
        assert_eq!(t.get(&mut p, b"x").unwrap(), None);
        let mut c = t.seek(&mut p, b"").unwrap();
        assert_eq!(c.next(&mut p).unwrap(), None);
    }

    #[test]
    fn insert_get_roundtrip() {
        let (mut p, mut t) = setup();
        t.insert(&mut p, b"beta", vr(2)).unwrap();
        t.insert(&mut p, b"alpha", vr(1)).unwrap();
        assert_eq!(t.get(&mut p, b"alpha").unwrap(), Some(vr(1)));
        assert_eq!(t.get(&mut p, b"beta").unwrap(), Some(vr(2)));
        assert_eq!(t.get(&mut p, b"gamma").unwrap(), None);
    }

    #[test]
    fn overwrite_replaces() {
        let (mut p, mut t) = setup();
        t.insert(&mut p, b"k", vr(1)).unwrap();
        t.insert(&mut p, b"k", vr(9)).unwrap();
        assert_eq!(t.get(&mut p, b"k").unwrap(), Some(vr(9)));
    }

    #[test]
    fn delete_removes() {
        let (mut p, mut t) = setup();
        t.insert(&mut p, b"k", vr(1)).unwrap();
        assert!(t.delete(&mut p, b"k").unwrap());
        assert!(!t.delete(&mut p, b"k").unwrap());
        assert_eq!(t.get(&mut p, b"k").unwrap(), None);
    }

    #[test]
    fn many_inserts_force_splits_and_stay_sorted() {
        let (mut p, mut t) = setup();
        let n = 5000u32;
        for i in 0..n {
            // interleaved order
            let k = format!("key{:06}", (i.wrapping_mul(2654435761_u32)) % n);
            t.insert(&mut p, k.as_bytes(), vr(i)).unwrap();
        }
        // The root must have split at least once.
        assert_ne!(t.root, PageId(2));
        // All keys retrievable.
        for i in 0..n {
            let k = format!("key{:06}", (i.wrapping_mul(2654435761_u32)) % n);
            assert!(t.get(&mut p, k.as_bytes()).unwrap().is_some(), "lost {k}");
        }
        // Full scan yields sorted unique keys.
        let mut c = t.seek(&mut p, b"").unwrap();
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0;
        while let Some((k, _)) = c.next(&mut p).unwrap() {
            if let Some(pv) = &prev {
                assert!(pv < &k, "scan out of order");
            }
            prev = Some(k);
            count += 1;
        }
        // The multiplier is odd and n divides 2^32, so i -> i*m % n is a
        // bijection for n a power of two; it is not here, so dedupe happens.
        let distinct: std::collections::HashSet<u32> = (0..n)
            .map(|i| (i.wrapping_mul(2654435761_u32)) % n)
            .collect();
        assert_eq!(count, distinct.len());
    }

    #[test]
    fn cow_relocates_committed_pages() {
        let (mut p, mut t) = setup();
        for i in 0..200u32 {
            t.insert(&mut p, format!("k{i:04}").as_bytes(), vr(i))
                .unwrap();
        }
        p.flush().unwrap();
        p.mark_committed();
        let committed_root = t.root;
        let extent = p.committed();
        // Modifying the committed tree must not dirty any committed page.
        t.insert(&mut p, b"k0100", vr(9999)).unwrap();
        assert_ne!(t.root, committed_root, "root not relocated by CoW");
        assert!(
            t.root.0 >= extent,
            "CoW root landed inside the committed extent"
        );
        // The old tree is still fully intact under its old root.
        let old = BTree::open(committed_root);
        assert_eq!(old.get(&mut p, b"k0100").unwrap(), Some(vr(100)));
        assert_eq!(t.get(&mut p, b"k0100").unwrap(), Some(vr(9999)));
        // Deletes relocate too.
        let root_before = t.root;
        p.flush().unwrap();
        p.mark_committed();
        assert!(t.delete(&mut p, b"k0000").unwrap());
        assert_ne!(t.root, root_before);
        assert_eq!(old.get(&mut p, b"k0000").unwrap(), Some(vr(0)));
    }

    #[test]
    fn scan_spans_leaves_after_cow_relocation() {
        let (mut p, mut t) = setup();
        for i in 0..1000u32 {
            t.insert(&mut p, format!("k{i:04}").as_bytes(), vr(i))
                .unwrap();
        }
        p.flush().unwrap();
        p.mark_committed();
        // Relocate a handful of leaves via overwrites.
        for i in (0..1000u32).step_by(97) {
            t.insert(&mut p, format!("k{i:04}").as_bytes(), vr(i + 10_000))
                .unwrap();
        }
        let mut c = t.seek(&mut p, b"").unwrap();
        let mut count = 0u32;
        let mut prev: Option<Vec<u8>> = None;
        while let Some((k, v)) = c.next(&mut p).unwrap() {
            if let Some(pv) = &prev {
                assert!(pv < &k);
            }
            let i: u32 = String::from_utf8_lossy(&k[1..]).parse().unwrap();
            let expect = if i.is_multiple_of(97) { i + 10_000 } else { i };
            assert_eq!(v, vr(expect), "wrong value at {i}");
            prev = Some(k);
            count += 1;
        }
        assert_eq!(count, 1000);
    }

    #[test]
    fn seek_starts_mid_range() {
        let (mut p, mut t) = setup();
        for i in 0..100u32 {
            t.insert(&mut p, format!("k{i:03}").as_bytes(), vr(i))
                .unwrap();
        }
        let mut c = t.seek(&mut p, b"k050").unwrap();
        let (k, v) = c.next(&mut p).unwrap().unwrap();
        assert_eq!(k, b"k050");
        assert_eq!(v, vr(50));
        let (k, _) = c.next(&mut p).unwrap().unwrap();
        assert_eq!(k, b"k051");
    }

    #[test]
    fn seek_between_keys_lands_on_next() {
        let (mut p, mut t) = setup();
        t.insert(&mut p, b"a", vr(1)).unwrap();
        t.insert(&mut p, b"c", vr(3)).unwrap();
        let mut cur = t.seek(&mut p, b"b").unwrap();
        assert_eq!(cur.next(&mut p).unwrap().unwrap().0, b"c");
    }

    #[test]
    fn scan_skips_leaves_emptied_by_deletes() {
        let (mut p, mut t) = setup();
        for i in 0..2000u32 {
            t.insert(&mut p, format!("k{i:04}").as_bytes(), vr(i))
                .unwrap();
        }
        // Empty out a contiguous stretch of keys (several whole leaves).
        for i in 400..1200u32 {
            assert!(t.delete(&mut p, format!("k{i:04}").as_bytes()).unwrap());
        }
        let mut c = t.seek(&mut p, b"k0399").unwrap();
        assert_eq!(c.next(&mut p).unwrap().unwrap().0, b"k0399");
        assert_eq!(c.next(&mut p).unwrap().unwrap().0, b"k1200");
    }

    #[test]
    fn rejects_oversized_keys() {
        let (mut p, mut t) = setup();
        let k = vec![b'x'; MAX_KEY_LEN + 1];
        assert!(matches!(
            t.insert(&mut p, &k, vr(0)),
            Err(StorageError::KeyTooLong(_))
        ));
    }

    #[test]
    fn max_len_keys_work() {
        let (mut p, mut t) = setup();
        for i in 0..50u8 {
            let mut k = vec![i; MAX_KEY_LEN];
            k[0] = i;
            t.insert(&mut p, &k, vr(i as u32)).unwrap();
        }
        for i in 0..50u8 {
            let k = vec![i; MAX_KEY_LEN];
            assert_eq!(t.get(&mut p, &k).unwrap(), Some(vr(i as u32)));
        }
    }

    #[test]
    fn node_page_roundtrip() {
        let internal = Node::Internal {
            keys: vec![b"m".to_vec()],
            children: vec![PageId(3), PageId(4)],
        };
        let mut buf = [0u8; PAGE_SIZE];
        internal.serialize_into(&mut buf);
        assert_eq!(Node::parse(PageId(9), &buf, 10).unwrap(), internal);

        let leaf = Node::Leaf {
            entries: vec![(b"a".to_vec(), vr(7))],
        };
        leaf.serialize_into(&mut buf);
        assert_eq!(Node::parse(PageId(9), &buf, 10).unwrap(), leaf);
    }

    #[test]
    fn leaf_bytes_are_the_v3_layout() {
        let long = vec![0xAB; INLINE_MAX];
        let leaf = Node::Leaf {
            entries: vec![
                (b"e".to_vec(), Value::Inline(Vec::new())),
                (b"in".to_vec(), Value::Inline(b"xyz".to_vec())),
                (b"max".to_vec(), Value::Inline(long.clone())),
                (
                    b"run".to_vec(),
                    Value::Run(ValueRef {
                        first_page: PageId(7),
                        len: 5000,
                    }),
                ),
            ],
        };
        let mut want = vec![TAG_LEAF, 4, 0];
        // klen | key | vlen with bit 31 set | no payload
        want.extend([1, 0, b'e', 0, 0, 0, 0x80]);
        // … | the three value bytes
        want.extend([2, 0, b'i', b'n', 3, 0, 0, 0x80, b'x', b'y', b'z']);
        // 480 = 0x1E0
        want.extend([3, 0, b'm', b'a', b'x', 0xE0, 0x01, 0, 0x80]);
        want.extend(&long);
        // klen | key | vlen = 5000 = 0x1388, bit 31 clear | first page
        want.extend([3, 0, b'r', b'u', b'n', 0x88, 0x13, 0, 0, 7, 0, 0, 0]);
        assert_eq!(leaf.serialized_size(), want.len());
        let mut buf = [0xFFu8; PAGE_SIZE];
        leaf.serialize_into(&mut buf);
        assert_eq!(&buf[..want.len()], &want[..]);
        assert!(buf[want.len()..].iter().all(|&b| b == 0), "tail not zeroed");
        // Page 7 + ceil(5000 / PAGE_DATA) = 2 pages needs a 9-page store.
        assert_eq!(Node::parse(PageId(2), &buf, 9).unwrap(), leaf);
        assert!(matches!(
            Node::parse(PageId(2), &buf, 8),
            Err(StorageError::CorruptPage(
                PageId(2),
                "value run outside the data extent"
            ))
        ));
    }

    #[test]
    fn four_maximal_entries_fit_a_leaf_and_the_fifth_splits_it() {
        let (mut p, mut t) = setup();
        let before = approxql_metrics::snapshot();
        for i in 0..5u8 {
            if i == 4 {
                let (all, _) = leaves(&mut p, &t);
                assert_eq!(all.len(), 1, "four maximal entries must share a leaf");
                assert_eq!(all[0].1.serialized_size(), LEAF_HEADER + 4 * 998);
            }
            let value = Value::Inline(vec![i; INLINE_MAX]);
            // Descending keys: no insert is an append.
            t.insert(&mut p, &[4 - i; MAX_KEY_LEN], value).unwrap();
        }
        let splits = approxql_metrics::snapshot()
            .diff(&before)
            .get(Metric::BtreeNodeSplits);
        assert_eq!(splits, 1);
        // `leaves` re-parses both halves from their serialized pages.
        let (all, internal) = leaves(&mut p, &t);
        assert_eq!((all.len(), internal), (2, 1));
        let sizes: Vec<usize> = all.iter().map(|(_, n)| n.serialized_size()).collect();
        assert_eq!(sizes, [LEAF_HEADER + 3 * 998, LEAF_HEADER + 2 * 998]);
        for i in 0..5u8 {
            assert_eq!(
                t.get(&mut p, &[4 - i; MAX_KEY_LEN]).unwrap(),
                Some(Value::Inline(vec![i; INLINE_MAX]))
            );
        }
    }

    #[test]
    fn ascending_inserts_leave_full_leaves_behind() {
        let (mut p, mut t) = setup();
        for i in 0..10_000u32 {
            let value = Value::Inline(vec![i as u8; (i % 400) as usize]);
            t.insert(&mut p, format!("key{i:06}").as_bytes(), value)
                .unwrap();
        }
        let (all, internal) = leaves(&mut p, &t);
        // Enough leaves that the root split too (the internal append path).
        assert!(all.len() > 500 && internal > 1);
        // Every leaf but the one still being filled is full up to the
        // entry that did not fit any more.
        for (page, leaf) in &all[..all.len() - 1] {
            let used = leaf.serialized_size();
            assert!(used * 10 >= PAGE_DATA * 9, "leaf {page} holds {used} bytes");
        }
        let report = crate::check::run_check(&mut p, t.root, 1).unwrap();
        assert_eq!(report.entries, 10_000);
        assert_eq!(report.tree_pages as u64, all.len() as u64 + internal);
    }

    #[test]
    fn random_order_inserts_split_at_the_byte_midpoint() {
        let (mut p, mut t) = setup();
        // Stretches of 50 keys with empty values alternate with stretches
        // of 50 keys with maximal ones, filled in a scattered order: a leaf
        // that straddles a boundary holds dozens of 12-byte entries beside
        // a few 492-byte ones, and an entry-count midpoint would push the
        // half with the large ones over a page.
        let n = 4000u32;
        for i in 0..n {
            let k = i * 1237 % 4001; // 4001 is prime: no key repeats
            let value = Value::Inline(vec![k as u8; (k / 50 % 2) as usize * INLINE_MAX]);
            t.insert(&mut p, format!("k{k:05}").as_bytes(), value)
                .unwrap();
        }
        let (all, _) = leaves(&mut p, &t);
        // A split leaves each half at least half a page minus one entry and
        // later inserts only add to it — but for the rightmost leaf, which
        // a new largest key starts afresh.
        for (page, leaf) in &all[..all.len() - 1] {
            let used = leaf.serialized_size();
            assert!(
                (PAGE_DATA / 2 - 500..=PAGE_DATA).contains(&used),
                "leaf {page} holds {used} bytes"
            );
        }
        let report = crate::check::run_check(&mut p, t.root, 1).unwrap();
        assert_eq!(report.entries, n as u64);
    }

    #[test]
    fn full_scan_reads_every_node_once() {
        let (mut p, mut t) = setup();
        for i in 0..3000u32 {
            t.insert(&mut p, format!("k{i:04}").as_bytes(), vr(i))
                .unwrap();
        }
        let (all, internal) = leaves(&mut p, &t);
        assert!(all.len() > 5);
        let before = approxql_metrics::snapshot();
        let mut c = t.seek(&mut p, b"").unwrap();
        let mut count = 0;
        while c.next(&mut p).unwrap().is_some() {
            count += 1;
        }
        let delta = approxql_metrics::snapshot().diff(&before);
        assert_eq!(count, 3000);
        assert_eq!(delta.get(Metric::BtreeScanSteps), 3000);
        assert_eq!(
            delta.get(Metric::BtreeNodeReads),
            all.len() as u64 + internal,
            "a scan must read each leaf and each internal node exactly once"
        );
    }

    #[test]
    fn parse_rejects_unknown_tag() {
        let buf = [9u8; PAGE_SIZE];
        assert!(Node::parse(PageId(0), &buf, 1).is_err());
    }

    #[test]
    fn cyclic_tree_errors_instead_of_looping() {
        // A root that points at itself must surface as CorruptPage.
        let mut p = Pager::new(Box::new(MemBackend::new()));
        let root = p.allocate();
        let node = Node::Internal {
            keys: vec![b"m".to_vec()],
            children: vec![root, root],
        };
        write_node(&mut p, root, &node).unwrap();
        let t = BTree::open(root);
        assert!(matches!(
            t.get(&mut p, b"q"),
            Err(StorageError::CorruptPage(_, "tree deeper than MAX_DEPTH"))
        ));
        let err = t.seek(&mut p, b"");
        assert!(matches!(err, Err(StorageError::CorruptPage(_, _))));
    }
}
