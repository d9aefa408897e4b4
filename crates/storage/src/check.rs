//! Offline integrity verification (`approxql check`).
//!
//! [`run_check`] re-establishes every invariant the store relies on:
//!
//! * every page of the committed extent has a valid trailer checksum
//!   (catches silent bit rot in *leaked* pages too, which no tree walk
//!   would visit),
//! * the B+-tree is acyclic, its leaves sit at one uniform depth, keys
//!   are strictly sorted and consistent with every separator on the path,
//!   and no page is reachable twice,
//! * every stored length is honest (parsing a leaf bounds inline values by
//!   the page and out-of-line runs by the store's extent), no run overlaps
//!   a live tree page, and every run is readable end to end.
//!
//! Header slots are deliberately *not* re-validated beyond what
//! [`Store::open`](crate::Store::open) already did: after a crash the
//! inactive slot legitimately holds the torn remains of the interrupted
//! commit, and a recovered store must still pass `check`.

use crate::btree::{read_node, Value};
use crate::heap::read_value;
use crate::pager::{trailer_ok, PageId, Pager, PAGE_SIZE};
use crate::store::FIRST_DATA_PAGE;
use crate::{Result, StorageError};
use approxql_metrics::Metric;
use std::collections::HashSet;
use std::fmt;

/// Statistics gathered by a successful [`Store::check`](crate::Store::check).
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Sequence number of the commit that was verified.
    pub commit_sequence: u64,
    /// Pages the committed state spans (including the two header slots).
    pub committed_pages: u32,
    /// Live B+-tree pages.
    pub tree_pages: u32,
    /// Tree levels (1 = a single leaf).
    pub tree_depth: u32,
    /// Live key/value entries.
    pub entries: u64,
    /// Entries whose value is stored inside the leaf (no value pages).
    pub inline_entries: u64,
    /// Pages occupied by live out-of-line values.
    pub value_pages: u64,
    /// Pages referenced by no live structure (leaked until the file is
    /// rewritten).
    pub leaked_pages: u64,
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ok: commit #{}, {} entries ({} inline), depth {}, {} pages ({} tree, {} value, \
             {} leaked)",
            self.commit_sequence,
            self.entries,
            self.inline_entries,
            self.tree_depth,
            self.committed_pages,
            self.tree_pages,
            self.value_pages,
            self.leaked_pages,
        )
    }
}

/// Walks the whole store; returns the first violated invariant as a
/// [`StorageError`].
pub(crate) fn run_check(pager: &mut Pager, root: PageId, csn: u64) -> Result<CheckReport> {
    const MAX_DEPTH: usize = 64;
    let total_pages = pager.page_count();
    let extent = pager.committed();
    let corrupt = |p, what| Err(StorageError::CorruptPage(p, what));

    if root.0 < FIRST_DATA_PAGE || root.0 >= total_pages {
        return corrupt(root, "root outside the data extent");
    }

    struct Frame {
        page: PageId,
        depth: usize,
        /// Inclusive lower bound inherited from ancestor separators.
        lo: Option<Vec<u8>>,
        /// Exclusive upper bound inherited from ancestor separators.
        hi: Option<Vec<u8>>,
    }
    let in_bounds = |k: &[u8], lo: &Option<Vec<u8>>, hi: &Option<Vec<u8>>| {
        lo.as_ref().is_none_or(|l| k >= l.as_slice())
            && hi.as_ref().is_none_or(|h| k < h.as_slice())
    };

    let mut visited: HashSet<u32> = HashSet::new();
    let mut leaf_depth: Option<usize> = None;
    let mut entries = 0u64;
    let mut inline_entries = 0u64;
    let mut value_pages = 0u64;
    let mut value_runs: Vec<(PageId, u32)> = Vec::new();
    let mut stack = vec![Frame {
        page: root,
        depth: 0,
        lo: None,
        hi: None,
    }];

    while let Some(Frame {
        page,
        depth,
        lo,
        hi,
    }) = stack.pop()
    {
        if depth >= MAX_DEPTH {
            return corrupt(page, "tree deeper than MAX_DEPTH");
        }
        if page.0 < FIRST_DATA_PAGE || page.0 >= total_pages {
            return corrupt(page, "child pointer outside the data extent");
        }
        if !visited.insert(page.0) {
            return corrupt(page, "page reachable via two tree paths");
        }
        // An owned copy: reading a value run below needs the pager.
        let node = read_node(pager, page)?.into_owned();
        let n = node.len();
        if !node.is_leaf() {
            if n == 0 {
                return corrupt(page, "internal node without separators");
            }
            if (1..n).any(|i| node.key(i - 1) >= node.key(i)) {
                return corrupt(page, "separators out of order");
            }
            if (0..n).any(|i| !in_bounds(node.key(i), &lo, &hi)) {
                return corrupt(page, "separator violates ancestor bounds");
            }
            for i in 0..=n {
                stack.push(Frame {
                    page: node.child(i),
                    depth: depth + 1,
                    lo: if i == 0 {
                        lo.clone()
                    } else {
                        Some(node.key(i - 1).to_vec())
                    },
                    hi: if i == n {
                        hi.clone()
                    } else {
                        Some(node.key(i).to_vec())
                    },
                });
            }
            continue;
        }
        match leaf_depth {
            None => leaf_depth = Some(depth),
            Some(d) if d != depth => {
                return corrupt(page, "leaves at unequal depths");
            }
            Some(_) => {}
        }
        if (1..n).any(|i| node.key(i - 1) >= node.key(i)) {
            return corrupt(page, "leaf keys out of order");
        }
        for i in 0..n {
            if !in_bounds(node.key(i), &lo, &hi) {
                return corrupt(page, "leaf key violates ancestor bounds");
            }
            entries += 1;
            match node.value(i) {
                Value::Inline(_) => inline_entries += 1,
                // `read_node` placed the run inside the store; reading it
                // verifies the trailer of every page.
                Value::Run(vref) => {
                    let span = vref.page_span();
                    value_pages += span as u64;
                    value_runs.push((vref.first_page, span));
                    read_value(pager, vref)?;
                }
            }
        }
    }

    for (first, span) in &value_runs {
        for i in 0..*span {
            if visited.contains(&(first.0 + i)) {
                return corrupt(PageId(first.0 + i), "value run overlaps a tree page");
            }
        }
    }

    // Full trailer sweep of the committed extent: catches bit rot even in
    // leaked pages that no live structure references.
    let mut buf = [0u8; PAGE_SIZE];
    for i in FIRST_DATA_PAGE..extent {
        pager.read_raw(PageId(i), &mut buf)?;
        if !trailer_ok(&buf) {
            Metric::PagerChecksumFailures.incr();
            return corrupt(PageId(i), "page trailer checksum mismatch");
        }
    }

    let tree_pages = visited.len() as u32;
    Ok(CheckReport {
        commit_sequence: csn,
        committed_pages: extent,
        tree_pages,
        tree_depth: leaf_depth.map_or(0, |d| d as u32 + 1),
        entries,
        inline_entries,
        value_pages,
        leaked_pages: (total_pages as u64)
            .saturating_sub(FIRST_DATA_PAGE as u64)
            .saturating_sub(tree_pages as u64)
            .saturating_sub(value_pages),
    })
}

#[cfg(test)]
mod tests {
    use crate::Store;

    #[test]
    fn check_passes_on_live_store() {
        let mut s = Store::in_memory().unwrap();
        for i in 0..500u32 {
            s.put(
                format!("k{i:04}").as_bytes(),
                &vec![i as u8; (i % 9000) as usize],
            )
            .unwrap();
        }
        for i in (0..500u32).step_by(7) {
            s.delete(format!("k{i:04}").as_bytes()).unwrap();
        }
        s.commit().unwrap();
        let report = s.check().unwrap();
        assert_eq!(report.entries, 500 - 500u64.div_ceil(7));
        assert!(report.tree_depth >= 2);
        assert!(report.tree_pages > 1);
        assert!(report.value_pages > 0);
        assert_eq!(report.commit_sequence, s.commit_sequence());
        // The report's page partition accounts for every data page.
        assert!(report.to_string().starts_with("ok: commit #"));
    }

    #[test]
    fn check_passes_on_empty_store() {
        let mut s = Store::in_memory().unwrap();
        let report = s.check().unwrap();
        assert_eq!(report.entries, 0);
        assert_eq!(report.tree_depth, 1);
        assert_eq!(report.tree_pages, 1);
    }
}
