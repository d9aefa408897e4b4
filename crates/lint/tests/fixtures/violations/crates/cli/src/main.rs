// Not a finding: the CLI holds no store state, so a report written
// straight to disk is outside fs-outside-pager's scope.
fn main() {
    let _ = std::fs::write("out.txt", b"x");
}
