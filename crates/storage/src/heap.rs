//! Out-of-line value storage in contiguous page runs.
//!
//! Values too long for their leaf entry (more than `INLINE_MAX` bytes, see
//! [`crate::btree`]) live here. A value of `len` bytes is stored as
//! `ceil(len / PAGE_DATA)` consecutive pages (the last 8 bytes of every
//! page belong to the pager's checksum trailer); the B+-tree leaf
//! remembers `(len, first_page)`. Values are immutable once written —
//! overwriting a key writes a fresh run.

use crate::pager::{PageId, Pager, PAGE_DATA};
use crate::store::FIRST_DATA_PAGE;
use crate::{Result, StorageError};

/// Location of a stored value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ValueRef {
    /// First page of the run.
    pub first_page: PageId,
    /// Value length in bytes.
    pub len: u32,
}

impl ValueRef {
    /// Pages the run occupies.
    pub(crate) fn page_span(&self) -> u32 {
        (self.len as usize).div_ceil(PAGE_DATA) as u32
    }
}

/// `true` if the run lies inside the data pages of a store of `page_count`
/// pages. A `(first_page, len)` read from a leaf is tested with this
/// before any buffer is sized from it.
pub(crate) fn run_in_extent(vref: ValueRef, page_count: u32) -> bool {
    vref.first_page.0 >= FIRST_DATA_PAGE
        && vref.first_page.0 as u64 + vref.page_span() as u64 <= page_count as u64
}

/// Writes `value` into freshly allocated pages.
pub fn write_value(pager: &mut Pager, value: &[u8]) -> Result<ValueRef> {
    // Bit 31 of a leaf entry's length word is the inline flag.
    let len = match u32::try_from(value.len()) {
        Ok(len) if len < 1 << 31 => len,
        _ => return Err(StorageError::ValueTooLarge(value.len())),
    };
    let npages = value.len().div_ceil(PAGE_DATA) as u32;
    let first = pager.allocate_run(npages);
    for (i, chunk) in value.chunks(PAGE_DATA).enumerate() {
        let page = pager.write(PageId(first.0 + i as u32))?;
        page[..chunk.len()].copy_from_slice(chunk);
    }
    Ok(ValueRef {
        first_page: first,
        len,
    })
}

/// Reads a value previously written with [`write_value`]. `vref` comes
/// from `write_value` or from a parsed leaf, which has bounded it with
/// [`run_in_extent`].
pub fn read_value(pager: &mut Pager, vref: ValueRef) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(vref.len as usize);
    let mut remaining = vref.len as usize;
    let mut page = vref.first_page;
    while remaining > 0 {
        let data = pager.read(page)?;
        let take = remaining.min(PAGE_DATA);
        out.extend_from_slice(&data[..take]);
        remaining -= take;
        page = PageId(page.0 + 1);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemBackend;

    fn pager() -> Pager {
        let mut p = Pager::new(Box::new(MemBackend::new()));
        p.allocate(); // reserve page 0 like the store header does
        p
    }

    #[test]
    fn empty_value() {
        let mut p = pager();
        let r = write_value(&mut p, b"").unwrap();
        assert_eq!(r.len, 0);
        assert_eq!(read_value(&mut p, r).unwrap(), b"");
    }

    #[test]
    fn small_value_roundtrip() {
        let mut p = pager();
        let r = write_value(&mut p, b"hello world").unwrap();
        assert_eq!(read_value(&mut p, r).unwrap(), b"hello world");
    }

    #[test]
    fn exactly_one_page_of_payload() {
        let mut p = pager();
        let v = [0xAB; PAGE_DATA].to_vec();
        let r = write_value(&mut p, &v).unwrap();
        assert_eq!(read_value(&mut p, r).unwrap(), v);
        assert_eq!(p.page_count(), 2); // header + 1 value page
        assert_eq!(r.page_span(), 1);
    }

    #[test]
    fn one_byte_over_a_page_spills() {
        let mut p = pager();
        let v = vec![0xCD; PAGE_DATA + 1];
        let r = write_value(&mut p, &v).unwrap();
        assert_eq!(read_value(&mut p, r).unwrap(), v);
        assert_eq!(p.page_count(), 3); // header + 2 value pages
        assert_eq!(r.page_span(), 2);
    }

    #[test]
    fn multi_page_value_roundtrip() {
        let mut p = pager();
        let v: Vec<u8> = (0..PAGE_DATA * 3 + 17).map(|i| (i % 251) as u8).collect();
        let r = write_value(&mut p, &v).unwrap();
        assert_eq!(read_value(&mut p, r).unwrap(), v);
        assert_eq!(p.page_count(), 1 + 4);
        assert_eq!(r.page_span(), 4);
    }

    #[test]
    fn values_do_not_clobber_each_other() {
        let mut p = pager();
        let a = write_value(&mut p, &vec![1u8; PAGE_DATA + 1]).unwrap();
        let b = write_value(&mut p, &[2u8; 10]).unwrap();
        assert_eq!(read_value(&mut p, a).unwrap(), vec![1u8; PAGE_DATA + 1]);
        assert_eq!(read_value(&mut p, b).unwrap(), vec![2u8; 10]);
    }
}
