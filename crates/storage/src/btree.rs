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
//! (see [`crate::heap`]). Every value has exactly one encoding. Entries
//! are packed behind the node header and the rest of the page is zero.
//!
//! A [`NodeView`] checks every length and extent of a page once and keeps
//! only where each entry starts; lookups binary-search those offsets
//! against the key bytes in the page. A put or delete edits a copy of its
//! node's bytes: it shifts the entries behind its position and writes its
//! one entry there, and the copy goes back to the page (or to its
//! copy-on-write relocation) exactly as a fresh encoding would.
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
const _: () = assert!(LEAF_HEADER + 4 * MAX_ENTRY <= PAGE_DATA);

/// The largest entry: a maximal key with a maximal inline value.
const MAX_ENTRY: usize = 2 + MAX_KEY_LEN + 4 + INLINE_MAX;

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

fn u16_at(page: &[u8], at: usize) -> usize {
    u16::from_le_bytes(crate::le_array(&page[at..at + 2])) as usize
}

/// The key of the entry that starts at `at`.
fn key_at(page: &[u8], at: usize) -> &[u8] {
    &page[at + 2..at + 2 + u16_at(page, at)]
}

fn u32_at(page: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(crate::le_array(&page[at..at + 4]))
}

/// A node page checked for use: the bytes, and where each entry starts
/// followed by where the last one ends. Every offset and every length
/// field behind one has been bounded by [`NodeView::parse`], so reading an
/// entry only slices; an owned view (`P = Vec<u8>`) holds the used bytes
/// alone and is what an edit changes.
pub(crate) struct NodeView<P> {
    page: P,
    offs: Vec<usize>,
}

impl<'a> NodeView<&'a [u8; PAGE_SIZE]> {
    /// Checks page `id` of a store of `page_count` pages. Every stored
    /// length is bounded here: keys by [`MAX_KEY_LEN`], inline values by
    /// [`INLINE_MAX`], all of them by the page, and a run by the store's
    /// extent — so no reader ever sizes a buffer from an unchecked field.
    fn parse(id: PageId, page: &'a [u8; PAGE_SIZE], page_count: u32) -> Result<Self> {
        let corrupt = |what| StorageError::CorruptPage(id, what);
        let take = |n: usize, pos: &mut usize| {
            *pos += n;
            (*pos <= PAGE_DATA)
                .then_some(*pos - n)
                .ok_or(corrupt("page overrun"))
        };
        let leaf = match page[0] {
            TAG_INTERNAL => false,
            TAG_LEAF => true,
            _ => return Err(corrupt("unknown node tag")),
        };
        let n = u16_at(page, 1);
        let mut pos = if leaf { LEAF_HEADER } else { INTERNAL_HEADER };
        // An entry takes at least six bytes.
        let mut offs = Vec::with_capacity(1 + n.min(PAGE_DATA / 6));
        for _ in 0..n {
            offs.push(pos);
            let klen = u16_at(page, take(2, &mut pos)?);
            if klen > MAX_KEY_LEN {
                return Err(corrupt("key too long"));
            }
            take(klen, &mut pos)?;
            let field = take(4, &mut pos)?;
            if !leaf {
                continue;
            }
            let len = u32_at(page, field);
            if len & INLINE_FLAG != 0 {
                if (len & !INLINE_FLAG) as usize > INLINE_MAX {
                    return Err(corrupt("inline value too long"));
                }
                take((len & !INLINE_FLAG) as usize, &mut pos)?;
            } else {
                let first_page = PageId(u32_at(page, take(4, &mut pos)?));
                if len as usize <= INLINE_MAX {
                    return Err(corrupt("value run short enough to be inline"));
                }
                if !run_in_extent(ValueRef { first_page, len }, page_count) {
                    return Err(corrupt("value run outside the data extent"));
                }
            }
        }
        offs.push(pos);
        Ok(NodeView { page, offs })
    }

    /// A copy of the node's used bytes, with room for one more entry.
    pub(crate) fn into_owned(self) -> NodeView<Vec<u8>> {
        let mut page = Vec::with_capacity(PAGE_DATA + MAX_ENTRY);
        page.extend_from_slice(&self.page[..self.end()]);
        let offs = self.offs;
        NodeView { page, offs }
    }
}

impl<P: AsRef<[u8]>> NodeView<P> {
    fn bytes(&self) -> &[u8] {
        self.page.as_ref()
    }

    pub(crate) fn is_leaf(&self) -> bool {
        self.bytes()[0] == TAG_LEAF
    }

    /// Entries (leaf) or separators (internal node).
    pub(crate) fn len(&self) -> usize {
        self.offs.len() - 1
    }

    /// The bytes the node uses, header included.
    pub(crate) fn end(&self) -> usize {
        self.offs[self.len()]
    }

    fn sizes(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        self.offs.windows(2).map(|w| w[1] - w[0])
    }

    pub(crate) fn key(&self, i: usize) -> &[u8] {
        key_at(self.bytes(), self.offs[i])
    }

    /// Child `i` of an internal node: the four bytes in front of entry
    /// `i`, which close the header (the leftmost child) or separator `i - 1`.
    pub(crate) fn child(&self, i: usize) -> PageId {
        PageId(u32_at(self.bytes(), self.offs[i] - 4))
    }

    /// The value of leaf entry `i`.
    pub(crate) fn value(&self, i: usize) -> Value {
        let at = self.offs[i] + 2 + self.key(i).len();
        let len = u32_at(self.bytes(), at);
        if len & INLINE_FLAG != 0 {
            Value::Inline(self.bytes()[at + 4..self.offs[i + 1]].to_vec())
        } else {
            let first_page = PageId(u32_at(self.bytes(), at + 4));
            Value::Run(ValueRef { first_page, len })
        }
    }

    /// The number of leading keys `k` with `before(k)`.
    fn partition_point(&self, before: impl Fn(&[u8]) -> bool) -> usize {
        self.offs[..self.len()].partition_point(|&at| before(key_at(self.bytes(), at)))
    }

    /// Where `key` is in a leaf, or where it would go.
    fn search(&self, key: &[u8]) -> std::result::Result<usize, usize> {
        let i = self.partition_point(|k| k < key);
        (i < self.len() && self.key(i) == key).then_some(i).ok_or(i)
    }

    /// The child of an internal node that holds `key`: the one behind
    /// every separator `<= key`.
    fn route(&self, key: &[u8]) -> usize {
        self.partition_point(|k| k <= key)
    }
}

impl NodeView<Vec<u8>> {
    /// Replaces entries `i..i + removed` by the one entry `parts` spell
    /// out, or by none when `parts` is empty: the bytes behind move once.
    fn splice(&mut self, i: usize, removed: usize, parts: &[&[u8]]) {
        let (start, old_end) = (self.offs[i], self.offs[i + removed]);
        let len: usize = parts.iter().map(|p| p.len()).sum();
        self.page
            .splice(start..old_end, std::iter::repeat_n(0, len));
        put_parts(&mut self.page[start..], parts);
        let entry = (!parts.is_empty()).then_some(start);
        self.offs.splice(i..i + removed, entry);
        for off in &mut self.offs[i + usize::from(entry.is_some())..] {
            *off = *off + start + len - old_end;
        }
        self.set_count();
    }

    /// Drops entries `n..`.
    fn truncate(&mut self, n: usize) {
        self.page.truncate(self.offs[n]);
        self.offs.truncate(n + 1);
        self.set_count();
    }

    fn set_count(&mut self) {
        let count = count(self.len());
        self.page[1..3].copy_from_slice(&count);
    }

    fn set_child(&mut self, i: usize, child: PageId) {
        let at = self.offs[i] - 4;
        self.page[at..at + 4].copy_from_slice(&child.0.to_le_bytes());
    }

    /// Writes the node to page `id` copy-on-write. A node over a page is
    /// cut first, at its byte midpoint or, after an append to the whole
    /// tree (`appended`), behind its old entries; the right half goes to a
    /// fresh page, and an appended leaf's left half is the page as stored.
    fn store(mut self, pager: &mut Pager, id: PageId, appended: bool) -> Result<InsertResult> {
        if self.end() <= PAGE_DATA {
            let id = write_node(pager, id, &[&self.page])?;
            return Ok(InsertResult::Done { id });
        }
        Metric::BtreeNodeSplits.incr();
        // An internal node's separator `mid` moves up, and the child behind
        // it leads the right sibling.
        let (n, up) = (self.len(), usize::from(!self.is_leaf()));
        let mid = if appended {
            n - 1 - up
        } else {
            byte_midpoint(self.sizes(), 1, n - 1 - up)
        };
        let sep = self.key(mid).to_vec();
        let [lo, hi] = count(n - mid - up);
        let body = &self.page[self.offs[mid + up] - 4 * up..];
        let right = pager.allocate();
        write_node(pager, right, &[&[self.page[0], lo, hi], body])?;
        let id = if appended && up == 0 {
            id
        } else {
            self.truncate(mid);
            write_node(pager, id, &[&self.page])?
        };
        Ok(InsertResult::Split { id, sep, right })
    }
}

pub(crate) fn read_node(pager: &mut Pager, id: PageId) -> Result<NodeView<&[u8; PAGE_SIZE]>> {
    Metric::BtreeNodeReads.incr();
    let page_count = pager.page_count();
    NodeView::parse(id, pager.read(id)?, page_count)
}

/// Copies `parts` one behind the other to the front of `buf`; returns
/// where they end.
fn put_parts(buf: &mut [u8], parts: &[&[u8]]) -> usize {
    parts.iter().fold(0, |at, part| {
        buf[at..at + part.len()].copy_from_slice(part);
        at + part.len()
    })
}

/// Writes the node `parts` spell out and zeroes the rest of its page:
/// to page `id` when it is uncommitted, otherwise to a freshly allocated
/// page (copy-on-write). Returns the id that now holds the node.
fn write_node(pager: &mut Pager, id: PageId, parts: &[&[u8]]) -> Result<PageId> {
    let id = if pager.is_committed(id) {
        pager.allocate()
    } else {
        id
    };
    let buf = pager.write(id)?;
    let end = put_parts(buf, parts);
    buf[end..].fill(0);
    Ok(id)
}

fn count(n: usize) -> [u8; 2] {
    (n as u16).to_le_bytes()
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
        let root = pager.allocate();
        write_node(pager, root, &[&[TAG_LEAF, 0, 0]])?;
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
            let node = read_node(pager, page)?;
            if node.is_leaf() {
                return Ok(node.search(key).ok().map(|i| node.value(i)));
            }
            page = node.child(node.route(key));
        }
        Err(too_deep(page))
    }

    /// Inserts or replaces `key`.
    pub fn insert(&mut self, pager: &mut Pager, key: &[u8], value: Value) -> Result<()> {
        if key.len() > MAX_KEY_LEN {
            return Err(StorageError::KeyTooLong(key.len()));
        }
        Metric::BtreeInserts.incr();
        match self.insert_rec(pager, self.root, key, &value, 0, true)? {
            InsertResult::Done { id } => self.root = id,
            InsertResult::Split { id, sep, right } => {
                let (left, klen, right) =
                    (id.0.to_le_bytes(), count(sep.len()), right.0.to_le_bytes());
                self.root = pager.allocate();
                let parts: [&[u8]; 5] = [&[TAG_INTERNAL, 1, 0], &left, &klen, &sep, &right];
                write_node(pager, self.root, &parts)?;
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
        value: &Value,
        depth: usize,
        is_rightmost: bool,
    ) -> Result<InsertResult> {
        if depth >= MAX_DEPTH {
            return Err(too_deep(page));
        }
        let view = read_node(pager, page)?;
        if view.is_leaf() {
            let (i, replaced) = match view.search(key) {
                Ok(i) => (i, 1),
                Err(i) => (i, 0),
            };
            let mut node = view.into_owned();
            let run;
            let (len, payload) = match value {
                Value::Inline(bytes) => (INLINE_FLAG | bytes.len() as u32, bytes.as_slice()),
                Value::Run(vref) => {
                    run = vref.first_page.0.to_le_bytes();
                    (vref.len, &run[..])
                }
            };
            let entry = [&count(key.len()), key, &len.to_le_bytes(), payload];
            node.splice(i, replaced, &entry);
            let appended = is_rightmost && replaced == 0 && i + 1 == node.len();
            return node.store(pager, page, appended);
        }
        let idx = view.route(key);
        let (child, last) = (view.child(idx), idx == view.len());
        let mut node = view.into_owned();
        match self.insert_rec(pager, child, key, value, depth + 1, is_rightmost && last)? {
            // Child updated in place: this node is untouched.
            InsertResult::Done { id } if id == child => Ok(InsertResult::Done { id: page }),
            InsertResult::Done { id } => {
                node.set_child(idx, id);
                node.store(pager, page, false)
            }
            InsertResult::Split { id, sep, right } => {
                node.set_child(idx, id);
                node.splice(idx, 0, &[&count(sep.len()), &sep, &right.0.to_le_bytes()]);
                node.store(pager, page, is_rightmost && last)
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
        let view = read_node(pager, page)?;
        let (mut node, existed);
        if view.is_leaf() {
            let Ok(i) = view.search(key) else {
                return Ok((false, None));
            };
            node = view.into_owned();
            node.splice(i, 1, &[]);
            existed = true;
        } else {
            let idx = view.route(key);
            let child = view.child(idx);
            node = view.into_owned();
            let (found, relocated) = self.delete_rec(pager, child, key, depth + 1)?;
            let Some(moved) = relocated else {
                return Ok((found, None));
            };
            node.set_child(idx, moved);
            existed = found;
        }
        let id = write_node(pager, page, &[&node.page])?;
        Ok((existed, (id != page).then_some(id)))
    }

    /// Positions a cursor at the first entry with key `>= start`.
    pub fn seek(&self, pager: &mut Pager, start: &[u8]) -> Result<Cursor> {
        let mut ancestors = Vec::new();
        let (leaf, at) = descend(&mut ancestors, pager, self.root, Some(start))?;
        Ok(Cursor {
            ancestors,
            leaf,
            at,
        })
    }
}

/// A forward cursor over leaf entries.
///
/// Owns what is left to visit: a copy of the leaf it stands on with the
/// position of its next entry and, per ancestor, the children to the right
/// of the path. Every node is therefore read once per visit, and an entry
/// is copied out only when it is handed out. When a leaf runs out the
/// cursor takes the next child of the nearest ancestor that has one and
/// descends to its leftmost leaf. The store is borrowed mutably for as
/// long as a cursor lives, so the tree cannot change under it.
pub struct Cursor {
    ancestors: Vec<std::vec::IntoIter<PageId>>,
    leaf: NodeView<Vec<u8>>,
    at: usize,
}

impl Cursor {
    /// Returns the next entry, advancing the cursor.
    pub fn next(&mut self, pager: &mut Pager) -> Result<Option<(Vec<u8>, Value)>> {
        loop {
            if self.at < self.leaf.len() {
                let i = self.at;
                self.at += 1;
                Metric::BtreeScanSteps.incr();
                return Ok(Some((self.leaf.key(i).to_vec(), self.leaf.value(i))));
            }
            // Leaf exhausted (possibly empty after deletions): move to the
            // next leaf in key order.
            let Some(siblings) = self.ancestors.last_mut() else {
                return Ok(None);
            };
            match siblings.next() {
                Some(child) => {
                    (self.leaf, self.at) = descend(&mut self.ancestors, pager, child, None)?;
                }
                None => {
                    self.ancestors.pop();
                }
            }
        }
    }
}

/// Pushes the path from `page` down to a leaf onto `ancestors` (each
/// ancestor's children right of the path) and returns the leaf with the
/// position to read from: towards `start` when given (the leaf's entries
/// `< start` are skipped), else leftmost.
fn descend(
    ancestors: &mut Vec<std::vec::IntoIter<PageId>>,
    pager: &mut Pager,
    mut page: PageId,
    start: Option<&[u8]>,
) -> Result<(NodeView<Vec<u8>>, usize)> {
    loop {
        if ancestors.len() >= MAX_DEPTH {
            return Err(too_deep(page));
        }
        let node = read_node(pager, page)?;
        if node.is_leaf() {
            let at = start.map_or(0, |s| node.partition_point(|k| k < s));
            return Ok((node.into_owned(), at));
        }
        let idx = start.map_or(0, |s| node.route(s));
        let right: Vec<PageId> = (idx + 1..=node.len()).map(|i| node.child(i)).collect();
        ancestors.push(right.into_iter());
        page = node.child(idx);
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

    type Leaves = Vec<(PageId, NodeView<Vec<u8>>)>;

    /// Every leaf of the tree in key order, as `(page, node)`, plus the
    /// number of internal nodes above them.
    fn leaves(p: &mut Pager, t: &BTree) -> (Leaves, u64) {
        let (mut out, mut internal, mut todo) = (Vec::new(), 0, vec![t.root]);
        while let Some(page) = todo.pop() {
            let node = read_node(p, page).unwrap().into_owned();
            if node.is_leaf() {
                out.push((page, node));
            } else {
                internal += 1;
                todo.extend((0..=node.len()).rev().map(|i| node.child(i)));
            }
        }
        (out, internal)
    }

    /// A copy of page `id` as the tree left it.
    fn page_bytes(p: &mut Pager, id: PageId) -> [u8; PAGE_SIZE] {
        *p.read(id).unwrap()
    }

    /// The page a fresh encoding of the entries `node` reads back gives:
    /// header, entries packed behind it, the rest zero — what the tree
    /// wrote when it decoded every node and encoded it whole.
    fn reference_page(node: &NodeView<&[u8; PAGE_SIZE]>) -> Vec<u8> {
        let mut out = vec![if node.is_leaf() {
            TAG_LEAF
        } else {
            TAG_INTERNAL
        }];
        out.extend((node.len() as u16).to_le_bytes());
        if !node.is_leaf() {
            out.extend(node.child(0).0.to_le_bytes());
        }
        for i in 0..node.len() {
            out.extend((node.key(i).len() as u16).to_le_bytes());
            out.extend(node.key(i));
            if !node.is_leaf() {
                out.extend(node.child(i + 1).0.to_le_bytes());
                continue;
            }
            match node.value(i) {
                Value::Inline(bytes) => {
                    out.extend((INLINE_FLAG | bytes.len() as u32).to_le_bytes());
                    out.extend(bytes);
                }
                Value::Run(vref) => {
                    out.extend(vref.len.to_le_bytes());
                    out.extend(vref.first_page.0.to_le_bytes());
                }
            }
        }
        out.resize(PAGE_DATA, 0);
        out
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
    fn internal_node_view_reads_what_was_written() {
        let mut p = Pager::new(Box::new(MemBackend::new()));
        let id = p.allocate();
        let parts: [&[u8]; 5] = [
            &[TAG_INTERNAL, 1, 0],
            &3u32.to_le_bytes(),
            &[1, 0],
            b"m",
            &4u32.to_le_bytes(),
        ];
        write_node(&mut p, id, &parts).unwrap();
        let node = read_node(&mut p, id).unwrap();
        assert!(!node.is_leaf());
        assert_eq!((node.len(), node.key(0)), (1, &b"m"[..]));
        assert_eq!((node.child(0), node.child(1)), (PageId(3), PageId(4)));
        assert_eq!(
            (node.route(b"a"), node.route(b"m"), node.route(b"z")),
            (0, 1, 1)
        );
    }

    #[test]
    fn leaf_bytes_are_the_v3_layout() {
        let long = vec![0xAB; INLINE_MAX];
        let run = Value::Run(ValueRef {
            first_page: PageId(7),
            len: 5000,
        });
        let (mut p, mut t) = setup();
        // Out of key order, and one replaced: every entry is written into
        // the page between the ones already there.
        t.insert(&mut p, b"run", vr(1)).unwrap();
        t.insert(&mut p, b"in", Value::Inline(b"xyz".to_vec()))
            .unwrap();
        t.insert(&mut p, b"max", Value::Inline(long.clone()))
            .unwrap();
        t.insert(&mut p, b"e", Value::Inline(Vec::new())).unwrap();
        t.insert(&mut p, b"run", run.clone()).unwrap();
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
        let buf = page_bytes(&mut p, t.root);
        assert_eq!(&buf[..want.len()], &want[..]);
        assert!(buf[want.len()..].iter().all(|&b| b == 0), "tail not zeroed");
        // Page 7 + ceil(5000 / PAGE_DATA) = 2 pages needs a 9-page store.
        let node = NodeView::parse(PageId(2), &buf, 9).unwrap();
        assert_eq!(node.end(), want.len());
        assert_eq!(node.value(3), run);
        assert!(matches!(
            NodeView::parse(PageId(2), &buf, 8),
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
                assert_eq!(all[0].1.end(), LEAF_HEADER + 4 * 998);
            }
            let value = Value::Inline(vec![i; INLINE_MAX]);
            // Descending keys: no insert is an append.
            t.insert(&mut p, &[4 - i; MAX_KEY_LEN], value).unwrap();
        }
        let splits = approxql_metrics::snapshot()
            .diff(&before)
            .get(Metric::BtreeNodeSplits);
        assert_eq!(splits, 1);
        // `leaves` reads both halves back from their pages.
        let (all, internal) = leaves(&mut p, &t);
        assert_eq!((all.len(), internal), (2, 1));
        let sizes: Vec<usize> = all.iter().map(|(_, n)| n.end()).collect();
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
            let used = leaf.end();
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
            let used = leaf.end();
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
        assert!(NodeView::parse(PageId(0), &buf, 1).is_err());
    }

    #[test]
    fn cyclic_tree_errors_instead_of_looping() {
        // A root that points at itself must surface as CorruptPage.
        let mut p = Pager::new(Box::new(MemBackend::new()));
        let root = p.allocate();
        let id = root.0.to_le_bytes();
        write_node(
            &mut p,
            root,
            &[&[TAG_INTERNAL, 1, 0], &id, &[1, 0], b"m", &id],
        )
        .unwrap();
        let t = BTree::open(root);
        assert!(matches!(
            t.get(&mut p, b"q"),
            Err(StorageError::CorruptPage(_, "tree deeper than MAX_DEPTH"))
        ));
        let err = t.seek(&mut p, b"");
        assert!(matches!(err, Err(StorageError::CorruptPage(_, _))));
    }
    /// Every node page reachable from `t`'s root equals the reference
    /// encoding of the entries its view reads back.
    fn assert_pages_canonical(p: &mut Pager, t: &BTree) {
        let mut todo = vec![t.root];
        while let Some(id) = todo.pop() {
            let buf = page_bytes(p, id);
            let node = NodeView::parse(id, &buf, p.page_count()).unwrap();
            assert_eq!(&buf[..PAGE_DATA], &reference_page(&node)[..], "page {id}");
            if !node.is_leaf() {
                todo.extend((0..=node.len()).map(|i| node.child(i)));
            }
        }
    }

    #[test]
    fn random_puts_and_deletes_leave_canonical_pages() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Most keys are short; some run up to the limit, so a leaf
            // holds from four entries to hundreds.
            let keys: Vec<Vec<u8>> = (0..400)
                .map(|_| {
                    let len = match rng.gen_range(0..10u32) {
                        0 => rng.gen_range(0..=MAX_KEY_LEN),
                        _ => rng.gen_range(0..12),
                    };
                    (0..len).map(|_| rng.gen_range(b'a'..=b'd')).collect()
                })
                .collect();
            let (mut p, mut t) = setup();
            let mut model = BTreeMap::new();
            for op in 0..1_500 {
                let key = &keys[rng.gen_range(0..keys.len())];
                if rng.gen_range(0..4u32) == 0 {
                    assert_eq!(t.delete(&mut p, key).unwrap(), model.remove(key).is_some());
                } else {
                    // Values on both sides of the inline limit.
                    let len = match rng.gen_range(0..8u32) {
                        0 => rng.gen_range(INLINE_MAX + 1..3 * PAGE_DATA),
                        1 => INLINE_MAX,
                        _ => rng.gen_range(0..64),
                    };
                    let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
                    let value = if len <= INLINE_MAX {
                        Value::Inline(bytes.clone())
                    } else {
                        Value::Run(crate::heap::write_value(&mut p, &bytes).unwrap())
                    };
                    t.insert(&mut p, key, value).unwrap();
                    model.insert(key.clone(), bytes);
                }
                if op % 100 == 99 {
                    // Commit, so that the next edits relocate their pages.
                    p.flush().unwrap();
                    p.mark_committed();
                    assert_pages_canonical(&mut p, &t);
                }
            }
            assert_pages_canonical(&mut p, &t);
            let mut cursor = t.seek(&mut p, b"").unwrap();
            let mut stored = Vec::new();
            while let Some((key, value)) = cursor.next(&mut p).unwrap() {
                stored.push((key, value));
            }
            let stored: Vec<(Vec<u8>, Vec<u8>)> = stored
                .into_iter()
                .map(|(k, v)| (k, v.into_bytes(&mut p).unwrap()))
                .collect();
            assert!(
                stored.iter().eq(model
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>()
                    .iter()),
                "seed {seed}"
            );
            for (key, bytes) in &model {
                let value = t.get(&mut p, key).unwrap().unwrap();
                assert_eq!(&value.into_bytes(&mut p).unwrap(), bytes);
            }
        }
    }
}
