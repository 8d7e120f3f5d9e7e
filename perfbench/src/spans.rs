//! In-memory span recorder for the traced run.
//!
//! Each span has a name, start, end, parent and the id of the
//! operation it belongs to. Spans are kept in memory while the run
//! measures and written out as JSON lines when it ends. A disabled
//! recorder makes `begin`/`end` no-ops (no clock reads), so the same
//! operation code serves the traced and the untraced run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// The name of the root span of one operation.
pub const OP: &str = "op";

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals folded from the recorded spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Sum of span durations.
    pub total: Duration,
    /// Sum of durations minus the time covered by direct children.
    pub self_time: Duration,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), op: 0, spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Starts the next operation: spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let idx = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(idx);
        SpanId(idx)
    }

    pub fn end(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        self.spans[id.0].end = self.epoch.elapsed();
        if let Some(pos) = self.open.iter().rposition(|&i| i == id.0) {
            self.open.truncate(pos);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Totals per span name, with self time = duration minus the
    /// durations of direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_time) {
            let t = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            t.total += dur;
            t.self_time += dur.saturating_sub(child);
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{},\"end_us\":{}}}",
                s.name,
                s.op,
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.next_op();
        let op = t.begin(OP);
        t.span("child", || std::thread::sleep(Duration::from_millis(5)));
        t.end(op);
        let totals = t.totals();
        let op = totals[OP];
        let child = totals["child"];
        assert!(child.total >= Duration::from_millis(5));
        assert_eq!(op.self_time, op.total - child.total);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", || ());
        assert!(t.totals().is_empty());
    }
}
