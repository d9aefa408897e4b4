//! fs-outside-pager negatives: a justified site carries its allow, and
//! test code may touch the filesystem freely.

pub fn dump(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    // lint:allow(fs-outside-pager) debug dump of one page, not store state
    std::fs::write(path, bytes)
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        std::fs::remove_file("scratch.db").unwrap();
    }
}
