//! The workspace lint policy is total: the root package and every crate
//! under `crates/` inherit `[workspace.lints]`. A new crate without the
//! table would silently lose `forbid(unsafe_code)` — nothing else notices,
//! since the per-crate `#![forbid(unsafe_code)]` attributes are gone.

use std::path::Path;

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
