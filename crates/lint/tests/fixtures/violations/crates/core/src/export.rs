//! fs-outside-pager positive: a store-state crate writing a file behind
//! the pager's back.

pub fn dump(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    std::fs::write(path, bytes)
}
