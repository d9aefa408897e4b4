//! The parsed form of an approXQL query.

use std::fmt;

/// A node of the query AST.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryNode {
    /// A name selector, optionally with a containment expression:
    /// `cd` or `cd[…]`.
    Name {
        /// The element name searched for.
        label: String,
        /// The bracketed sub-expression, if any.
        child: Option<Box<QueryNode>>,
    },
    /// A text selector for one normalized word. Multi-word string literals
    /// are split by the parser into `and`-connected single-word selectors
    /// (mirroring the word splitting of the data model, Section 4).
    Text {
        /// The normalized (lowercased) word.
        word: String,
    },
    /// Conjunction of two sub-expressions.
    And(Box<QueryNode>, Box<QueryNode>),
    /// Disjunction of two sub-expressions.
    Or(Box<QueryNode>, Box<QueryNode>),
}

impl QueryNode {
    /// Number of selectors (name + text) in this subexpression.
    pub fn selector_count(&self) -> usize {
        match self {
            QueryNode::Name { child, .. } => 1 + child.as_ref().map_or(0, |c| c.selector_count()),
            QueryNode::Text { .. } => 1,
            QueryNode::And(l, r) | QueryNode::Or(l, r) => l.selector_count() + r.selector_count(),
        }
    }

    /// Number of `or` operators in this subexpression.
    pub fn or_count(&self) -> usize {
        match self {
            QueryNode::Name { child, .. } => child.as_ref().map_or(0, |c| c.or_count()),
            QueryNode::Text { .. } => 0,
            QueryNode::And(l, r) => l.or_count() + r.or_count(),
            QueryNode::Or(l, r) => 1 + l.or_count() + r.or_count(),
        }
    }

    /// Canonicalizes operator shape: nested `and`/`or` chains are flattened
    /// and re-folded **left-associatively**, recursively at every level.
    ///
    /// `Display` already renders `a and (b and c)` and `(a and b) and c`
    /// identically, so two surfaces producing either shape must also compile
    /// to the same plan — normalization is what makes the plan-cache key
    /// (the canonical rendering) honest. The classic parser always builds
    /// left-associated chains, so this is the identity on its output; the
    /// JSON query-IR's n-ary `and`/`or` arrays lower through the same fold.
    pub fn normalize(self) -> QueryNode {
        match self {
            QueryNode::Name { label, child } => QueryNode::Name {
                label,
                child: child.map(|c| Box::new(c.normalize())),
            },
            QueryNode::Text { .. } => self,
            QueryNode::And(..) => {
                let mut parts = Vec::new();
                self.flatten_into(true, &mut parts);
                fold_left(parts, QueryNode::And)
            }
            QueryNode::Or(..) => {
                let mut parts = Vec::new();
                self.flatten_into(false, &mut parts);
                fold_left(parts, QueryNode::Or)
            }
        }
    }

    /// Appends the operands of a maximal same-operator chain, normalized,
    /// in left-to-right source order.
    fn flatten_into(self, chain_is_and: bool, out: &mut Vec<QueryNode>) {
        match self {
            QueryNode::And(l, r) if chain_is_and => {
                l.flatten_into(true, out);
                r.flatten_into(true, out);
            }
            QueryNode::Or(l, r) if !chain_is_and => {
                l.flatten_into(false, out);
                r.flatten_into(false, out);
            }
            other => out.push(other.normalize()),
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent_is_and: bool) -> fmt::Result {
        match self {
            QueryNode::Name { label, child } => {
                write!(f, "{label}")?;
                if let Some(c) = child {
                    write!(f, "[")?;
                    c.fmt_prec(f, false)?;
                    write!(f, "]")?;
                }
                Ok(())
            }
            QueryNode::Text { word } => write!(f, "\"{word}\""),
            QueryNode::And(l, r) => {
                l.fmt_prec(f, true)?;
                write!(f, " and ")?;
                r.fmt_prec(f, true)
            }
            QueryNode::Or(l, r) => {
                if parent_is_and {
                    write!(f, "(")?;
                }
                l.fmt_prec(f, false)?;
                write!(f, " or ")?;
                r.fmt_prec(f, false)?;
                if parent_is_and {
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
    }
}

/// Left-folds `parts` (at least one element) with `op`.
fn fold_left(
    parts: Vec<QueryNode>,
    op: fn(Box<QueryNode>, Box<QueryNode>) -> QueryNode,
) -> QueryNode {
    let mut iter = parts.into_iter();
    let first = iter.next().expect("operator chains have operands");
    iter.fold(first, |acc, next| op(Box::new(acc), Box::new(next)))
}

/// A complete approXQL query. The root is always a name selector: the paper
/// gives the query root the role of defining the *scope* of the search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The root name selector.
    pub root: QueryNode,
}

impl Query {
    /// Root label of the query.
    pub fn root_label(&self) -> &str {
        match &self.root {
            QueryNode::Name { label, .. } => label,
            _ => unreachable!("parser guarantees a name-selector root"),
        }
    }

    /// Number of selectors in the query.
    pub fn selector_count(&self) -> usize {
        self.root.selector_count()
    }

    /// Number of `or` operators in the query.
    pub fn or_count(&self) -> usize {
        self.root.or_count()
    }

    /// Canonical operator shape; see [`QueryNode::normalize`]. Every
    /// surface's output is normalized before compilation, so equivalent
    /// queries share one plan-cache entry regardless of how they were
    /// spelled.
    pub fn normalize(self) -> Query {
        Query {
            root: self.root.normalize(),
        }
    }
}

impl fmt::Display for Query {
    /// Renders a canonical form that reparses to the same AST.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.root.fmt_prec(f, false)
    }
}

impl fmt::Display for QueryNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(label: &str, child: Option<QueryNode>) -> QueryNode {
        QueryNode::Name {
            label: label.into(),
            child: child.map(Box::new),
        }
    }

    fn text(w: &str) -> QueryNode {
        QueryNode::Text { word: w.into() }
    }

    #[test]
    fn selector_count_counts_names_and_texts() {
        let q = name(
            "cd",
            Some(QueryNode::And(
                Box::new(name("title", Some(text("piano")))),
                Box::new(text("rachmaninov")),
            )),
        );
        assert_eq!(q.selector_count(), 4);
        assert_eq!(q.or_count(), 0);
    }

    #[test]
    fn normalize_left_folds_operator_chains() {
        // a and (b and (c and d))  →  ((a and b) and c) and d
        let right = QueryNode::And(
            Box::new(text("a")),
            Box::new(QueryNode::And(
                Box::new(text("b")),
                Box::new(QueryNode::And(Box::new(text("c")), Box::new(text("d")))),
            )),
        );
        let left = QueryNode::And(
            Box::new(QueryNode::And(
                Box::new(QueryNode::And(Box::new(text("a")), Box::new(text("b")))),
                Box::new(text("c")),
            )),
            Box::new(text("d")),
        );
        assert_eq!(right.clone().normalize(), left.clone().normalize());
        assert_eq!(left.clone().normalize(), left);
    }

    #[test]
    fn normalize_recurses_and_keeps_distinct_operators_apart() {
        // x[a or (b or c)] normalizes inside the brackets but an Or chain
        // never merges into an enclosing And chain.
        let q = name(
            "x",
            Some(QueryNode::And(
                Box::new(text("k")),
                Box::new(QueryNode::Or(
                    Box::new(text("a")),
                    Box::new(QueryNode::Or(Box::new(text("b")), Box::new(text("c")))),
                )),
            )),
        );
        let n = q.normalize();
        match &n {
            QueryNode::Name { child: Some(c), .. } => match c.as_ref() {
                QueryNode::And(_, r) => match r.as_ref() {
                    QueryNode::Or(l, _) => assert!(matches!(l.as_ref(), QueryNode::Or(_, _))),
                    other => panic!("expected left-folded Or, got {other:?}"),
                },
                other => panic!("expected And, got {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn or_count_counts_ors() {
        let q = QueryNode::Or(
            Box::new(text("a")),
            Box::new(QueryNode::Or(Box::new(text("b")), Box::new(text("c")))),
        );
        assert_eq!(q.or_count(), 2);
    }
}
