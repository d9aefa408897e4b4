//! What one run of one workload reports, and its one-line JSON form.

use crate::catalog::{END_TO_END, PER_LAYER};
use approxql_query::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Outcome of one workload run. `attempted`/`failed` count operations; an
/// operation fails on an error, a non-zero exit, or a wrong result.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks beyond single operations (digest, agreement, store
    /// verification) — each message is one failed check.
    pub check_failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }

    /// The metrics of one mode in catalog order, as `(name, unit, value)`.
    /// Every end-to-end metric must have been measured; a per-layer metric
    /// the workload does not exercise reads 0.
    pub fn rows(&self, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
        if trace {
            PER_LAYER
                .iter()
                .map(|m| {
                    let v = self.metrics.get(m.name).copied().unwrap_or(0.0);
                    (m.name, m.unit, v)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let v = *self
                        .metrics
                        .get(m.name)
                        .unwrap_or_else(|| panic!("end-to-end metric {} was not measured", m.name));
                    (m.name, m.unit, v)
                })
                .collect()
        }
    }

    /// The contract's result line.
    pub fn to_json_line(&self, trace: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit, value)) in self.rows(trace).into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// A result line read back: `(correct, attempted, failed, name → value)`.
pub struct ParsedRun {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

pub fn parse_result_line(line: &str) -> Result<ParsedRun, String> {
    let doc = json::parse(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    let num = |j: Option<&Json>| match j {
        Some(Json::Num(n)) => Ok(*n),
        other => Err(format!("expected a number, found {other:?}")),
    };
    let mut metrics = BTreeMap::new();
    for (name, entry) in doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics object")?
    {
        metrics.insert(name.clone(), num(entry.get("value"))?);
    }
    Ok(ParsedRun {
        correct: doc.get("correct") == Some(&Json::Bool(true)),
        attempted: num(doc.get("attempted"))? as u64,
        failed: num(doc.get("failed"))? as u64,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut r = Report {
            attempted: 7,
            ..Report::default()
        };
        for m in &END_TO_END {
            r.set(m.name, 1.25);
        }
        let parsed = parse_result_line(&r.to_json_line(false)).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (7, 0));
        assert_eq!(parsed.metrics.len(), END_TO_END.len());
        assert_eq!(parsed.metrics["setup_s"], 1.25);
        r.check(false, || String::from("digest"));
        assert!(!parse_result_line(&r.to_json_line(false)).unwrap().correct);
        let traced = parse_result_line(&r.to_json_line(true)).unwrap();
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
    }
}
