//! In-memory spans and counters for the traced run.
//!
//! Every span records its name, start, end, parent span and operation
//! id.  Spans stay in memory while the run measures and are written out
//! as JSON lines when it ends ([`Tracer::write_jsonl`]); past
//! [`MAX_KEPT_SPANS`] they are only aggregated, so a long run cannot
//! grow without bound.  Counters are exact work counts recorded at the
//! same layer boundaries as the spans.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Spans kept for the span file; later ones are aggregated only.
pub const MAX_KEPT_SPANS: usize = 200_000;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer metric name the span feeds (e.g. `faults.first_detect`), or
    /// an operation kind (`op.grade`, `op.wave`, `op.call`).
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span among the tracer's kept spans.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start_ns: u64,
    kept: Option<usize>,
    child_ns: u64,
}

/// Collects spans and counters for one caller thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<Open>,
    op: u64,
    counters: BTreeMap<&'static str, u64>,
    /// Inclusive nanoseconds per span name, plus derived sums that are
    /// not spans (e.g. wire transport, a remainder).
    totals: BTreeMap<&'static str, u64>,
    last: BTreeMap<&'static str, u64>,
    op_ns: u64,
    op_uncovered_ns: u64,
}

impl Tracer {
    /// A tracer whose span clock starts at `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counters: BTreeMap::new(),
            totals: BTreeMap::new(),
            last: BTreeMap::new(),
            op_ns: 0,
            op_uncovered_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let start_ns = self.now_ns();
        let kept = (self.spans.len() < MAX_KEPT_SPANS).then(|| {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().and_then(|o| o.kept),
                op: self.op,
            });
            self.spans.len() - 1
        });
        self.open.push(Open {
            name,
            start_ns,
            kept,
            child_ns: 0,
        });
        let out = f(self);
        let end_ns = self.now_ns();
        let closed = self.open.pop().expect("span stack");
        let ns = end_ns - closed.start_ns;
        if let Some(i) = closed.kept {
            self.spans[i].end_ns = end_ns;
        }
        *self.totals.entry(closed.name).or_insert(0) += ns;
        self.last.insert(closed.name, ns);
        match self.open.last_mut() {
            Some(parent) => parent.child_ns += ns,
            None => {
                self.op_ns += ns;
                self.op_uncovered_ns += ns.saturating_sub(closed.child_ns);
            }
        }
        out
    }

    /// Runs one operation `id` as a top-level span named `kind`.
    pub fn op<T>(&mut self, kind: &'static str, id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        self.op = id;
        self.span(kind, f)
    }

    /// Duration of the most recently closed span named `name`, in ns.
    #[must_use]
    pub fn last_ns(&self, name: &str) -> u64 {
        self.last.get(name).copied().unwrap_or(0)
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&mut self, name: &'static str, value: u64) {
        *self.counters.entry(name).or_insert(0) += value;
    }

    /// Adds a derived duration to the total `name`.
    pub fn add_ns(&mut self, name: &'static str, ns: u64) {
        *self.totals.entry(name).or_insert(0) += ns;
    }

    /// The exact counters.
    #[must_use]
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// Total inclusive nanoseconds per span name, plus the derived sums.
    #[must_use]
    pub fn totals_ns(&self) -> &BTreeMap<&'static str, u64> {
        &self.totals
    }

    /// `(Σ top-level op spans, Σ of their uncovered time)` in ns: an op
    /// span's uncovered time is its duration minus its direct children.
    #[must_use]
    pub fn op_coverage_ns(&self) -> (u64, u64) {
        (self.op_ns, self.op_uncovered_ns)
    }

    /// Folds `other` (another thread's tracer) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        let room = MAX_KEPT_SPANS.saturating_sub(offset);
        self.spans
            .extend(other.spans.into_iter().take(room).map(|mut s| {
                s.parent = s.parent.map(|p| p + offset);
                s.start_ns += shift;
                s.end_ns += shift;
                s
            }));
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.totals {
            *self.totals.entry(k).or_insert(0) += v;
        }
        self.op_ns += other.op_ns;
        self.op_uncovered_ns += other.op_uncovered_ns;
    }

    /// Writes every kept span as one JSON object per line.
    ///
    /// # Errors
    /// Propagates write errors.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_uncovered_time() {
        let mut t = Tracer::new(Instant::now());
        t.op("op.x", 7, |t| {
            t.span("a", |_| std::hint::black_box(1 + 1));
            t.span("b", |t| t.span("c", |_| ()));
        });
        let spans = &t.spans;
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.op == 7));
        let op_ns = spans[0].end_ns - spans[0].start_ns;
        let (total, uncovered) = t.op_coverage_ns();
        assert_eq!(total, op_ns);
        assert!(uncovered <= total);
        assert_eq!(t.totals_ns()["op.x"], op_ns);
        assert_eq!(t.last_ns("op.x"), op_ns);
    }
}
