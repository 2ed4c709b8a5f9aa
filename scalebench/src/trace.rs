//! Spans for the traced run. Each load thread owns a [`Tracer`]; a
//! span is opened around every call the benchmark makes into a layer,
//! inside a root span for the operation it belongs to. Spans stay in
//! memory until the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NONE: u32 = u32::MAX;
/// Spans kept per tracer.
pub const SPAN_CAP: usize = 1 << 20;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. While off, `begin`/`end` record nothing and read
/// no clock, so an operation can run traced and untraced through the
/// same code and the difference is the tracing overhead.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
    next_op: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

impl Tracer {
    /// `thread` keeps op ids of different threads apart.
    pub fn new(origin: Instant, thread: u64) -> Self {
        Tracer {
            origin,
            on: true,
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: thread << 40,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open the root span of a new operation. Past [`SPAN_CAP`] spans
    /// the tracer turns itself off, bounding memory on tiny graphs.
    pub fn begin_op(&mut self, name: &'static str) -> Open {
        debug_assert!(self.stack.is_empty(), "operations do not nest");
        self.on &= self.spans.len() < SPAN_CAP;
        self.next_op += 1;
        self.begin(name)
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NONE);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op: self.next_op,
            parent: self.stack.last().copied().unwrap_or(NONE),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn end(&mut self, open: Open) {
        if open.0 == NONE {
            return;
        }
        let now = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close in LIFO order");
        self.spans[open.0 as usize].end_ns = now;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Spans of several threads, with parent indices rebased.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for part in parts {
        let base = all.len() as u32;
        all.extend(part.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
    }
    all
}

/// Per-layer summary of a span set.
#[derive(Debug, Default)]
pub struct Layers {
    /// Durations in µs, per span name.
    pub total_us: BTreeMap<&'static str, Vec<f64>>,
    /// Self times (span minus its children) in µs, summed per name.
    pub self_us: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn of(spans: &[Span]) -> Self {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut l = Layers::default();
        for (s, c) in spans.iter().zip(child_ns) {
            l.total_us
                .entry(s.name)
                .or_default()
                .push(s.dur_ns() as f64 / 1e3);
            *l.self_us.entry(s.name).or_default() += s.dur_ns().saturating_sub(c) as f64 / 1e3;
        }
        l
    }

    /// Durations of `name` in µs (empty when the layer never ran).
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.total_us.get(name).cloned().unwrap_or_default()
    }
}

/// Write `spans` to `path` and summarise them in `notes`: the span
/// count, then each layer's self time, largest first, with its share of
/// all traced time.
pub fn finish(path: &Path, spans: &[Span], notes: &mut Vec<String>) -> Layers {
    if let Err(e) = write(path, spans) {
        eprintln!("could not write spans to {}: {e}", path.display());
    }
    notes.push(format!(
        "spans: {} written to {}",
        spans.len(),
        path.display()
    ));
    let layers = Layers::of(spans);
    let total: f64 = layers.self_us.values().sum();
    let mut by_self: Vec<(&&str, &f64)> = layers.self_us.iter().collect();
    by_self.sort_by(|a, b| b.1.total_cmp(a.1));
    for (name, self_us) in by_self {
        notes.push(format!(
            "self time {name}: {:.1} ms ({:.1} %)",
            self_us / 1e3,
            100.0 * self_us / total.max(f64::MIN_POSITIVE)
        ));
    }
    layers
}

/// Write spans as JSON lines: op, name, parent index, start, end.
fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NONE {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
