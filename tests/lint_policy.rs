//! Two source policies, checked by reading the workspace:
//!
//! * The workspace lint policy is total: the root package and every crate
//!   under `crates/` inherit `[workspace.lints]`. A new crate without the
//!   table would silently lose `forbid(unsafe_code)` — nothing else
//!   notices, since the per-crate `#![forbid(unsafe_code)]` attributes are
//!   gone.
//! * Only the pager writes the disk: in the crates that hold store state
//!   (storage, index, tree, schema, core) no live code outside
//!   `pager.rs` and `fault.rs` creates, renames, removes, truncates or
//!   syncs a file, or writes a backend page. Every page of the store goes
//!   through `Pager::flush` / `Pager::write_direct`, which stamp its
//!   checksum and order it before the commit's header slot (DESIGN.md §10).

use std::path::{Path, PathBuf};

/// `true` when the manifest has a `[lints]` table containing
/// `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    manifest
        .split("\n[")
        .any(|table| table.starts_with("lints]") && table.lines().any(|l| l == "workspace = true"))
}

#[test]
fn every_manifest_inherits_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    assert!(
        root_manifest.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""),
        "the workspace no longer forbids unsafe code"
    );
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        manifests.push(entry.unwrap().path().join("Cargo.toml"));
    }
    assert!(manifests.len() > 15, "crates/ not found: {manifests:?}");
    for path in manifests {
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            inherits_workspace_lints(&text),
            "{} lacks `[lints] workspace = true`",
            path.display()
        );
    }
}

/// Calls that change what is on disk: the `std::fs` mutators, opening a
/// file for writing, and the write and sync entry points of a file or a
/// `Backend`.
const DISK_WRITES: &[&str] = &[
    "fs::write",
    "fs::create_dir",
    "fs::remove_file",
    "fs::remove_dir",
    "fs::rename",
    "fs::copy",
    "fs::hard_link",
    "fs::set_permissions",
    "File::create",
    "File::options",
    "OpenOptions",
    ".set_len(",
    ".sync_all(",
    ".sync_data(",
    ".write_page(",
    ".write_all_at(",
];

/// The live lines of a Rust source, numbered from 1, with `//` comments
/// cut off: everything above its first top-level `#[cfg(test)]`. Every
/// top-level item below that line must be a `#[cfg(test)]` item as well,
/// or the cut would hide live code from the scan.
fn live_lines(path: &Path, source: &str) -> Vec<(usize, String)> {
    let lines: Vec<&str> = source.lines().collect();
    let cut = lines
        .iter()
        .position(|&l| l == "#[cfg(test)]")
        .unwrap_or(lines.len());
    let mut depth = 0i64;
    for (i, line) in lines.iter().enumerate().skip(cut) {
        let top_level = depth == 0 && !line.trim().is_empty() && !line.starts_with("//");
        assert!(
            !top_level || *line == "#[cfg(test)]" || lines[i - 1] == "#[cfg(test)]",
            "{}:{}: live code below the tests",
            path.display(),
            i + 1
        );
        depth += line.matches('{').count() as i64 - line.matches('}').count() as i64;
    }
    lines[..cut]
        .iter()
        .enumerate()
        .map(|(i, line)| (i + 1, line.split("//").next().unwrap_or("").to_owned()))
        .collect()
}

/// The disk writes of the live lines of `path`: line number and call.
fn disk_writes(path: &Path) -> Vec<(usize, &'static str)> {
    let source = std::fs::read_to_string(path).unwrap();
    let mut found = Vec::new();
    for (number, line) in live_lines(path, &source) {
        found.extend(
            DISK_WRITES
                .iter()
                .filter(|call| line.contains(*call))
                .map(|&call| (number, call)),
        );
    }
    found
}

/// Every `.rs` file under `dir`.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files
}

#[test]
fn only_the_pager_writes_the_disk() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // The scan must see what the pager does, or it proves nothing.
    let pager = disk_writes(&root.join("crates/storage/src/pager.rs"));
    for known in [
        "OpenOptions",
        "fs::rename",
        "fs::remove_file",
        ".sync_data(",
        ".write_page(",
        ".write_all_at(",
    ] {
        assert!(
            pager.iter().any(|&(_, call)| call == known),
            "the scan does not find `{known}` in pager.rs: {pager:?}"
        );
    }
    let mut scanned = 0;
    let mut outside = Vec::new();
    for krate in ["storage", "index", "tree", "schema", "core"] {
        for path in rust_files(&root.join("crates").join(krate).join("src")) {
            if path.ends_with("pager.rs") || path.ends_with("fault.rs") {
                continue;
            }
            scanned += 1;
            for (line, call) in disk_writes(&path) {
                outside.push(format!("{}:{line}: `{call}`", path.display()));
            }
        }
    }
    assert!(scanned > 20, "only {scanned} files scanned");
    assert!(
        outside.is_empty(),
        "store state written outside the pager:\n{}",
        outside.join("\n")
    );
}
