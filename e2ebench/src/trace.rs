//! The benchmark's own span recorder.
//!
//! Spans are opened and closed around calls into the program's layers
//! and kept in memory; nothing is written until the run ends. Every span
//! carries the id of the operation (dataset fit or served step) it
//! belongs to and the index of the span that caused it, so self time is
//! exact: a span's duration minus the part of its interval covered by
//! its children. With tracing off, [`Tracer::enter`] only reads the
//! clock, so traced and untraced runs time operations the same way.

use eadrl_obs::{Event, EventKind, Level};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Layer name, e.g. `core.predict_next`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span opened by [`Tracer::enter`]; close it with [`Tracer::exit`].
#[must_use = "close the span with Tracer::exit"]
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

/// Aggregate of every span at one `/`-joined path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathStats {
    /// Number of spans.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    origin_epoch_us: u64,
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recorder; with `enabled == false` it only times operations.
    pub fn new(enabled: bool) -> Tracer {
        let origin_epoch_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        Tracer {
            enabled,
            origin: Instant::now(),
            origin_epoch_us,
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// True when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens the root span of a new operation.
    pub fn begin_op(&mut self, name: &'static str) -> Open {
        self.op += 1;
        self.enter(name)
    }

    /// The id of the current (last begun) operation.
    pub fn op(&self) -> u64 {
        self.op
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        if !self.enabled {
            return Open { start, index: None };
        }
        let at = self.ns_since_origin(start);
        let index = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            parent: self.stack.last().copied(),
            op: self.op,
            start_ns: at,
            end_ns: at,
        });
        self.stack.push(index);
        Open {
            start,
            index: Some(index),
        }
    }

    /// Closes a span and returns its duration in nanoseconds (measured
    /// the same way whether or not recording is on).
    pub fn exit(&mut self, open: Open) -> u64 {
        let end = Instant::now();
        if let Some(index) = open.index {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(index), "spans must close innermost first");
            self.spans[index].end_ns = self.ns_since_origin(end);
        }
        end.duration_since(open.start).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let result = f();
        self.exit(open);
        result
    }

    fn ns_since_origin(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// `(op, duration_ns)` of every span named `name`, in opening order.
    pub fn durations(&self, name: &str) -> Vec<(u64, u64)> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.op, s.duration_ns()))
            .collect()
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals clipped to its own. Never negative, even for
    /// children that overlap each other or stick out of the parent.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// `/`-joined path of span `index` (root first).
    pub fn path(&self, index: usize) -> String {
        let mut names = vec![self.spans[index].name];
        let mut at = self.spans[index].parent;
        while let Some(p) = at {
            names.push(self.spans[p].name);
            at = self.spans[p].parent;
        }
        names.reverse();
        names.join("/")
    }

    /// Count, total and self time per path.
    pub fn by_path(&self) -> BTreeMap<String, PathStats> {
        let self_ns = self.self_ns();
        let mut out: BTreeMap<String, PathStats> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let entry = out.entry(self.path(i)).or_default();
            entry.count += 1;
            entry.total_ns += s.duration_ns();
            entry.self_ns += self_ns[i];
        }
        out
    }

    /// Writes every span as one line of the `eadrl-obs` JSONL span
    /// format (`/`-joined path, `duration_us` and `op` fields), so the
    /// workspace's `obs_report tree` can aggregate it.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let mut event = Event::new(self.path(i), EventKind::Span, Level::Info)
                .field("duration_us", s.duration_ns() / 1_000)
                .field("op", s.op);
            event.ts_us = self.origin_epoch_us + s.start_ns / 1_000;
            event.thread = 0;
            writeln!(out, "{}", event.to_json_line())?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use std::time::Duration;

    fn spin(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            black_box(0u64);
        }
    }

    fn record(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            parent,
            op: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_never_negative() {
        let mut tracer = Tracer::new(true);
        tracer.spans = vec![
            record("op", None, 100, 200),
            // Overlapping children and one sticking out of the parent.
            record("a", Some(0), 110, 160),
            record("b", Some(0), 150, 190),
            record("c", Some(0), 180, 260),
            // A child longer than its parent.
            record("wide", None, 300, 310),
            record("inner", Some(4), 290, 330),
        ];
        let self_ns = tracer.self_ns();
        // op covers [110, 200) through its children: 10 ns of self time.
        assert_eq!(self_ns[0], 10);
        assert_eq!(self_ns[4], 0);
        assert_eq!(self_ns, vec![10, 50, 40, 80, 0, 40]);
    }

    #[test]
    fn layers_sum_to_the_operation_within_the_trace_overhead() {
        let layer = Duration::from_micros(300);
        let ops = 20;
        let mut untraced = Tracer::new(false);
        let mut untraced_ns = 0;
        for _ in 0..ops {
            let op = untraced.begin_op("op");
            untraced.span("layer.a", || spin(layer));
            untraced.span("layer.b", || spin(layer));
            untraced_ns += untraced.exit(op);
        }
        assert!(untraced.spans().is_empty(), "untraced runs record nothing");

        let mut traced = Tracer::new(true);
        let mut traced_ns = 0;
        for _ in 0..ops {
            let op = traced.begin_op("op");
            traced.span("layer.a", || spin(layer));
            traced.span("layer.b", || spin(layer));
            traced_ns += traced.exit(op);
        }
        let paths = traced.by_path();
        let op = paths["op"];
        let a = paths["op/layer.a"];
        let b = paths["op/layer.b"];
        assert_eq!((op.count, a.count, b.count), (ops, ops, ops));
        // Self times of the tree add up to the root exactly.
        assert_eq!(op.self_ns + a.self_ns + b.self_ns, op.total_ns);
        assert_eq!(op.total_ns, traced_ns);
        // What the layers do not cover is the bookkeeping between them,
        // bounded by what tracing added to the operation (plus timer
        // noise on a shared machine).
        let overhead = traced_ns.abs_diff(untraced_ns);
        let slack = untraced_ns / 10;
        assert!(
            op.self_ns <= overhead + slack,
            "self {} vs overhead {overhead}",
            op.self_ns
        );
        assert!(a.total_ns + b.total_ns <= op.total_ns);
        // Ops are numbered and shared by their spans.
        assert!(traced.spans().iter().all(|s| (1..=ops).contains(&s.op)));
        assert_eq!(traced.path(2), "op/layer.b");
    }

    #[test]
    fn jsonl_round_trips_through_the_obs_parser() {
        let mut tracer = Tracer::new(true);
        let op = tracer.begin_op("op");
        tracer.span("layer", || spin(Duration::from_micros(50)));
        tracer.exit(op);
        let dir = std::env::temp_dir().join(format!("e2ebench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let file = dir.join("spans.jsonl");
        tracer.write_jsonl(&file).expect("write spans");
        let text = std::fs::read_to_string(&file).expect("read spans");
        std::fs::remove_dir_all(&dir).expect("clean temp dir");
        let events: Vec<Event> = text
            .lines()
            .map(|l| Event::from_json_line(l).expect("valid span line"))
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "op");
        assert_eq!(events[1].name, "op/layer");
        assert!(events.iter().all(|e| e.kind == EventKind::Span));
    }
}
