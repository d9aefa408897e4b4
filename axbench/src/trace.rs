//! In-memory spans recorded from the benchmark's side of each layer
//! boundary, written out as JSON lines when the run ends.
//!
//! A span's *self time* is its duration minus its child spans; the spans
//! of one operation share a `trace_id` (the operation's index). Everything
//! runs on the driver thread, so children never overlap.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub trace_id: u32,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace_id: u32,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace_id: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; a span opened with
    /// nothing open starts the next operation (a new `trace_id`).
    pub fn enter(&mut self, name: &'static str) -> usize {
        if self.open.is_empty() {
            self.trace_id += 1;
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            trace_id: self.trace_id,
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records a child of the innermost open span whose duration was
    /// measured elsewhere (a registry timer diff): it is placed at the
    /// current end of the parent's interval.
    pub fn synthetic(&mut self, name: &'static str, duration_ns: u64) {
        let now = self.now_ns();
        self.spans.push(Span {
            trace_id: self.trace_id,
            name,
            parent: self.open.last().copied(),
            start_ns: now.saturating_sub(duration_ns),
            end_ns: now,
        });
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Mean duration of the spans called `name`, in milliseconds.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let d = self.durations_ms(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    }

    /// Duration of the (closed) span `id`, in milliseconds.
    pub fn duration_ms(&self, id: usize) -> f64 {
        self.spans[id].duration_ns() as f64 / 1e6
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_sum = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_sum[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_sum)
            .map(|(s, children)| s.duration_ns().saturating_sub(children))
            .collect()
    }

    /// Self time per span name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0) += self_ns;
        }
        out
    }

    /// Σ self time of the layer spans ÷ Σ wall of the operations (root
    /// spans): what is left is time the driver spent between stages.
    pub fn layer_sum_share(&self) -> f64 {
        let mut wall = 0u64;
        let mut layers = 0u64;
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            if s.parent.is_none() {
                wall += s.duration_ns();
            } else {
                layers += self_ns;
            }
        }
        if wall == 0 {
            0.0
        } else {
            layers as f64 / wall as f64
        }
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"trace_id\":{},\"span\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace_id, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let op = t.enter("op");
        t.timed("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.timed("b", || ());
        t.exit(op);
        let selfs = t.self_times();
        let total: u64 = selfs.values().sum();
        assert_eq!(total, t.spans[0].duration_ns());
        assert!(selfs["a"] >= 2_000_000);
        assert!(t.layer_sum_share() > 0.5 && t.layer_sum_share() <= 1.0);
        assert_eq!(t.spans[1].trace_id, t.spans[0].trace_id);
        let next = t.enter("op");
        t.exit(next);
        assert_eq!(t.spans[3].trace_id, t.spans[0].trace_id + 1);
    }
}
