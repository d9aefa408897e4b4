//! `approxql-lint` — machine-checked project invariants.
//!
//! Some of this project's cross-cutting invariants are beyond what rustc
//! or clippy can express: the metric registry, DESIGN.md and the pin tests
//! naming exactly the same counters; store state written only through the
//! pager; disk-decoded lengths bounded before they size an allocation; the
//! flush → header → sync order of a commit. This crate encodes those four
//! as a dependency-free static-analysis pass — a small Rust token lexer
//! ([`lexer`]), an item/statement parser ([`ast`]), per-function CFGs
//! ([`mod@cfg`]) with a may-dataflow solver ([`flow`]), and a rule engine
//! ([`rules`]) with inline `lint:allow(rule-id)` suppressions.
//!
//! Surfaces: `cargo run -p approxql-lint -- --workspace`, and a CI `lint`
//! job that fails on any finding. Exit codes are stable: `0` clean, `3`
//! findings, `2` usage error, `1` internal error.
//!
//! The rule catalogue lives in [`rules::RULES`]; DESIGN.md §11 documents
//! each rule, how to suppress a finding, and which invariants the
//! toolchain checks instead.

pub mod ast;
pub mod cfg;
pub mod flow;
pub mod lexer;
pub mod rules;

use lexer::{lex, Allow, Token};
use std::fmt;
use std::path::Path;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (e.g. `commit-protocol`).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// One lexed source file plus the derived facts the rules consume.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    pub tokens: Vec<Token>,
    pub allows: Vec<Allow>,
    /// `true` when the whole file is test code (under a `tests/` or
    /// `benches/` directory).
    pub test_path: bool,
    /// Every `fn` item parsed from the token stream ([`ast::parse_fns`]),
    /// the input to the per-function dataflow rules.
    pub fns: Vec<ast::FnDef>,
    /// Line ranges covered by `#[cfg(test)]` items.
    test_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Builds a source file from raw text.
    pub fn parse(rel_path: String, src: &str) -> SourceFile {
        let lexed = lex(src);
        let test_path = rel_path
            .split('/')
            .any(|c| c == "tests" || c == "benches" || c == "examples");
        let test_ranges = cfg_test_ranges(&lexed.tokens);
        let fns = ast::parse_fns(&lexed.tokens);
        SourceFile {
            rel_path,
            tokens: lexed.tokens,
            allows: lexed.allows,
            test_path,
            fns,
            test_ranges,
        }
    }

    /// `true` when `line` is test code (test file or `#[cfg(test)]` item).
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_path
            || self
                .test_ranges
                .iter()
                .any(|&(a, b)| a <= line && line <= b)
    }

    /// `true` when findings of `rule` on `line` are suppressed by a
    /// `lint:allow` directive trailing the same line, or standing on its
    /// own on the preceding line.
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && (a.line == line || (a.own_line && a.line + 1 == line)))
    }

    /// Emits a finding unless the line is allowed.
    pub fn finding(&self, rule: &'static str, line: u32, message: String, out: &mut Vec<Finding>) {
        if self.is_allowed(rule, line) {
            return;
        }
        out.push(Finding {
            rule,
            path: self.rel_path.clone(),
            line,
            message,
        });
    }
}

/// Finds the line ranges of `#[cfg(test)]`-gated items by scanning the
/// token stream: after the attribute, subsequent attributes are skipped,
/// then the item's brace block is matched. `cfg` groups that contain a
/// `not` (e.g. `cfg(not(test))`) are ignored.
fn cfg_test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
            && tokens.get(i + 2).and_then(Token::ident) == Some("cfg")
            && tokens.get(i + 3).is_some_and(|t| t.is_punct('('))
        {
            // Collect the cfg group up to its matching ']'.
            let mut j = i + 4;
            let mut depth = 1usize; // inside the '[' group's '(' … we track both
            let mut has_test = false;
            let mut has_not = false;
            while j < tokens.len() && depth > 0 {
                let t = &tokens[j];
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if t.ident() == Some("test") {
                    has_test = true;
                } else if t.ident() == Some("not") {
                    has_not = true;
                }
                j += 1;
            }
            // j is past the ')' of cfg(…); skip to past the attribute's ']'.
            while j < tokens.len() && !tokens[j].is_punct(']') {
                j += 1;
            }
            j += 1;
            if has_test && !has_not {
                let start_line = tokens[i].line;
                // Skip any further attributes before the item.
                while j < tokens.len() && tokens[j].is_punct('#') {
                    while j < tokens.len() && !tokens[j].is_punct(']') {
                        j += 1;
                    }
                    j += 1;
                }
                // Find the item's opening brace (or a terminating ';' for
                // `mod name;` forms, which gate a separate file).
                while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                    j += 1;
                }
                if j < tokens.len() && tokens[j].is_punct('{') {
                    let mut braces = 1usize;
                    j += 1;
                    while j < tokens.len() && braces > 0 {
                        if tokens[j].is_punct('{') {
                            braces += 1;
                        } else if tokens[j].is_punct('}') {
                            braces -= 1;
                        }
                        j += 1;
                    }
                    let end_line = tokens.get(j.saturating_sub(1)).map_or(u32::MAX, |t| t.line);
                    ranges.push((start_line, end_line));
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    ranges
}

/// The loaded workspace: every lexed `.rs` file plus the documentation
/// files the cross-check rules need.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    /// Raw text of `DESIGN.md`, if present.
    pub design_md: Option<String>,
}

impl Workspace {
    /// Loads every `.rs` file under `root`, skipping `target/`, hidden
    /// directories, and `fixtures/` trees (the linter's own test corpus of
    /// seeded violations must not lint the real workspace red).
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        walk(root, root, &mut files)?;
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        let design_md = std::fs::read_to_string(root.join("DESIGN.md")).ok();
        Ok(Workspace { files, design_md })
    }

    /// The file with exactly this workspace-relative path.
    pub fn file(&self, rel_path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel_path == rel_path)
    }

    /// Runs the full rule set. Findings are sorted by path, line, rule.
    pub fn run_rules(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        for rule in rules::RULES {
            (rule.run)(self, &mut out);
        }
        out.sort_by(|a, b| {
            (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
        });
        out
    }
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<SourceFile>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, files)?;
        } else if name.ends_with(".rs") {
            let src = std::fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push(SourceFile::parse(rel, &src));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_region_detection() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { y.unwrap(); }\n\
                   }\n\
                   fn live2() {}\n";
        let f = SourceFile::parse("crates/a/src/lib.rs".into(), src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nmod live { fn f() {} }\nfn g() {}\n";
        let f = SourceFile::parse("crates/a/src/lib.rs".into(), src);
        assert!(!f.is_test_line(2));
    }

    #[test]
    fn test_directories_are_test_code() {
        let f = SourceFile::parse("crates/a/tests/x.rs".into(), "fn t() {}");
        assert!(f.is_test_line(1));
        let e = SourceFile::parse("examples/demo.rs".into(), "fn main() {}");
        assert!(e.is_test_line(1));
    }

    #[test]
    fn allow_covers_same_and_next_line() {
        let src = "// lint:allow(untrusted-length) justified\nv.reserve(a);\nv.reserve(b); // lint:allow(untrusted-length)\nv.reserve(c);\n";
        let f = SourceFile::parse("crates/storage/src/x.rs".into(), src);
        assert!(f.is_allowed("untrusted-length", 2));
        assert!(f.is_allowed("untrusted-length", 3));
        assert!(!f.is_allowed("untrusted-length", 4));
        assert!(!f.is_allowed("commit-protocol", 2));
    }
}
