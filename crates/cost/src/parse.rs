//! Textual cost files.
//!
//! The paper's query generator emits, next to each query, "a file that
//! contains the insert costs, the delete costs, and the renamings of the
//! query selectors". We fix a simple line-oriented format for those files:
//!
//! ```text
//! # comment
//! default insert 1
//! insert name title 3
//! insert term piano 2
//! delete name track 3
//! delete term concerto 6
//! rename name cd dvd 6
//! rename term concerto sonata 3
//! ```
//!
//! Labels containing whitespace are not supported (the data model splits
//! text into single words, and XML names contain no spaces).

use crate::{Cost, CostModel, NodeType};
use std::fmt;

/// Errors raised while parsing a cost file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostFileError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for CostFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cost file line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CostFileError {}

fn parse_type(word: &str, line: usize) -> Result<NodeType, CostFileError> {
    match word {
        "name" => Ok(NodeType::Struct),
        "term" => Ok(NodeType::Text),
        other => Err(CostFileError {
            line,
            message: format!("expected `name` or `term`, found `{other}`"),
        }),
    }
}

fn parse_cost(word: &str, line: usize) -> Result<Cost, CostFileError> {
    word.parse::<Cost>().map_err(|_| CostFileError {
        line,
        message: format!("invalid cost `{word}`"),
    })
}

/// Parses a cost file into a [`CostModel`].
pub fn parse_cost_file(text: &str) -> Result<CostModel, CostFileError> {
    let mut builder = CostModel::builder();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let words: Vec<&str> = content.split_ascii_whitespace().collect();
        builder = match words.as_slice() {
            ["default", "insert", cost] => {
                let c = parse_cost(cost, line)?;
                let v = c.value().ok_or_else(|| CostFileError {
                    line,
                    message: "default insert cost must be finite".to_owned(),
                })?;
                builder.insert_default(v)
            }
            ["insert", ty, label, cost] => {
                let c = parse_cost(cost, line)?;
                if !c.is_finite() {
                    return Err(CostFileError {
                        line,
                        message: format!("insert cost for `{label}` must be finite"),
                    });
                }
                builder.insert(parse_type(ty, line)?, label, c)
            }
            ["delete", ty, label, cost] => {
                builder.delete(parse_type(ty, line)?, label, parse_cost(cost, line)?)
            }
            ["rename", ty, from, to, cost] => {
                if from == to {
                    return Err(CostFileError {
                        line,
                        message: format!("rename of `{from}` to itself is not allowed"),
                    });
                }
                builder.rename(parse_type(ty, line)?, from, to, parse_cost(cost, line)?)
            }
            _ => {
                return Err(CostFileError {
                    line,
                    message: format!("unrecognized directive `{content}`"),
                })
            }
        };
    }
    Ok(builder.build())
}

/// Serializes a [`CostModel`] in the cost-file format, deterministically
/// sorted so output is diff-friendly. `parse_cost_file` of the output
/// reproduces the model.
pub fn write_cost_file(model: &CostModel) -> String {
    let mut out = String::new();
    out.push_str(&format!("default insert {}\n", model.insert_default()));
    let mut inserts: Vec<_> = model.listed_inserts().collect();
    inserts.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    for (ty, label, cost) in inserts {
        out.push_str(&format!("insert {} {} {}\n", ty.keyword(), label, cost));
    }
    let mut deletes: Vec<_> = model.listed_deletes().collect();
    deletes.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    for (ty, label, cost) in deletes {
        out.push_str(&format!("delete {} {} {}\n", ty.keyword(), label, cost));
    }
    let mut renames: Vec<_> = model.listed_renames().collect();
    renames.sort_by(|a, b| (a.0, a.1, a.2).cmp(&(b.0, b.1, b.2)));
    for (ty, from, to, cost) in renames {
        out.push_str(&format!(
            "rename {} {} {} {}\n",
            ty.keyword(),
            from,
            to,
            cost
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# Section 6 example (excerpt)
default insert 1
insert name title 3
insert name cd 2
delete name track 3
delete term concerto 6
rename name cd dvd 6
rename name cd mc 4
rename term concerto sonata 3
"#;

    #[test]
    fn parses_sample() {
        let m = parse_cost_file(SAMPLE).unwrap();
        assert_eq!(m.insert_cost(NodeType::Struct, "title"), Cost::finite(3));
        assert_eq!(m.insert_cost(NodeType::Struct, "other"), Cost::finite(1));
        assert_eq!(m.delete_cost(NodeType::Struct, "track"), Cost::finite(3));
        assert_eq!(m.rename_cost(NodeType::Struct, "cd", "mc"), Cost::finite(4));
        assert_eq!(
            m.rename_cost(NodeType::Text, "concerto", "sonata"),
            Cost::finite(3)
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let m = parse_cost_file("\n  # only comments\n\n").unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn trailing_comment_on_directive() {
        let m = parse_cost_file("delete name a 5 # why not\n").unwrap();
        assert_eq!(m.delete_cost(NodeType::Struct, "a"), Cost::finite(5));
    }

    #[test]
    fn infinite_delete_is_allowed_explicitly() {
        let m = parse_cost_file("delete name a inf\n").unwrap();
        assert_eq!(m.delete_cost(NodeType::Struct, "a"), Cost::INFINITY);
    }

    #[test]
    fn rejects_infinite_insert() {
        let err = parse_cost_file("insert name a inf\n").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn rejects_unknown_directive() {
        let err = parse_cost_file("frobnicate name a 1\n").unwrap_err();
        assert!(err.message.contains("unrecognized"));
    }

    #[test]
    fn rejects_bad_type() {
        let err = parse_cost_file("delete widget a 1\n").unwrap_err();
        assert!(err.message.contains("expected `name` or `term`"));
    }

    #[test]
    fn rejects_self_rename() {
        let err = parse_cost_file("rename name a a 1\n").unwrap_err();
        assert!(err.message.contains("itself"));
    }

    #[test]
    fn reports_line_numbers() {
        let err = parse_cost_file("default insert 1\nbogus\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn write_then_parse_roundtrips() {
        let m = parse_cost_file(SAMPLE).unwrap();
        let text = write_cost_file(&m);
        let m2 = parse_cost_file(&text).unwrap();
        assert_eq!(write_cost_file(&m2), text);
        assert_eq!(m2.len(), m.len());
        assert_eq!(
            m2.rename_cost(NodeType::Struct, "cd", "dvd"),
            Cost::finite(6)
        );
    }
}
