//! In-memory wall-clock spans recorded around the benchmark's calls into
//! each layer's public functions.
//!
//! A span has a name (the layer call it wraps), a start and an end on the
//! wall clock, the span that encloses it and the op it belongs to. Spans of
//! one op nest under that op's root span. When an op ends, each of its
//! spans' self time (its duration minus the part its child spans cover) is
//! added to the per-name totals. The first [`SPAN_CAP`] spans are kept for
//! export as JSON lines when the run ends.
//!
//! A disabled tracer records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Spans kept for export; later spans still count in the aggregates.
pub const SPAN_CAP: usize = 200_000;

/// Name of the root span of every op.
pub const OP: &str = "op";

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

const NO_SPAN: SpanId = SpanId(usize::MAX);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    /// Index of the enclosing span within the op, `None` for the root.
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Aggregates of every span with one name.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    /// Each span's wall duration, in nanoseconds.
    pub durations_ns: Vec<u64>,
    /// Sum of the spans' self time, in nanoseconds.
    pub self_ns: u64,
}

/// Span recorder (see the module docs).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    /// Spans of the op in progress, in the order they opened.
    current: Vec<Span>,
    /// Open spans of the op in progress (indices into `current`).
    stack: Vec<usize>,
    kept: Vec<Span>,
    totals: BTreeMap<&'static str, SpanTotals>,
}

impl Tracer {
    /// A tracer that starts disabled.
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            op: 0,
            current: Vec::new(),
            stack: Vec::new(),
            kept: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Turn recording on or off (between ops).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the root span of op `op`.
    pub fn begin_op(&mut self, op: u64) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        self.op = op;
        self.current.clear();
        self.stack.clear();
        self.begin(OP)
    }

    /// Close the op's root span and fold the op's spans into the totals.
    pub fn end_op(&mut self, root: SpanId) {
        if !self.enabled || root.0 == NO_SPAN.0 {
            return;
        }
        self.end(root);
        let mut child_ns = vec![0u64; self.current.len()];
        for span in &self.current {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        for (span, children) in self.current.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let totals = self.totals.entry(span.name).or_default();
            totals.durations_ns.push(duration);
            totals.self_ns += duration.saturating_sub(children);
        }
        let room = SPAN_CAP.saturating_sub(self.kept.len());
        self.kept.extend(self.current.drain(..).take(room));
    }

    /// Open a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let index = self.current.len();
        let start_ns = self.now_ns();
        self.current.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(index);
        SpanId(index)
    }

    /// Close span `id` (and any span still open inside it).
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled || id.0 == NO_SPAN.0 {
            return;
        }
        let end_ns = self.now_ns();
        while let Some(open) = self.stack.pop() {
            self.current[open].end_ns = end_ns;
            if open == id.0 {
                break;
            }
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let result = f();
        self.end(id);
        result
    }

    /// Aggregates per span name.
    pub fn totals(&self) -> &BTreeMap<&'static str, SpanTotals> {
        &self.totals
    }

    /// Write the kept spans as JSON lines: one object per span with its
    /// name, op id, index within the op, parent index and wall-clock start
    /// and end in nanoseconds since the tracer was created.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let mut index_in_op = 0usize;
        let mut last_op = None;
        for span in &self.kept {
            if last_op != Some(span.op) {
                index_in_op = 0;
                last_op = Some(span.op);
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.op, index_in_op, parent, span.start_ns, span.end_ns
            )?;
            index_in_op += 1;
        }
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}
