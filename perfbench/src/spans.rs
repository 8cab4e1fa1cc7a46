//! Benchmark-side spans: recorded in memory around the benchmark's own
//! calls into each layer, analysed per op, written out at exit.
//!
//! A span has a name (the layer), start, end, the span that caused it,
//! and the trace (op) it belongs to. Fan-out spans on worker threads name
//! their stage span as parent explicitly; spans opened on a thread that
//! already has an open span nest under it.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The op this span belongs to.
    pub trace: u64,
    /// Layer name, e.g. `graph.apt`.
    pub name: &'static str,
    /// Start, ns since the tracer origin.
    pub start: u64,
    /// End, ns since the tracer origin.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

thread_local! {
    /// The innermost open span on this thread: `(trace, span)`.
    static CURRENT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a root span of a new trace (one per op).
    pub fn root(&self, name: &'static str) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.open(name, id, id, None)
    }

    /// Opens a span under this thread's innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let (trace, parent) = CURRENT.with(Cell::get).unwrap_or((0, 0));
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.open(name, id, trace, (parent != 0).then_some(parent))
    }

    /// Opens a span with an explicit parent — the hop a fan-out closure
    /// makes onto a worker thread.
    pub fn child_of(&self, name: &'static str, parent: Link) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.open(name, id, parent.trace, Some(parent.span))
    }

    fn open(&self, name: &'static str, id: u64, trace: u64, parent: Option<u64>) -> SpanGuard<'_> {
        let prev = CURRENT.with(|c| c.replace(Some((trace, id))));
        SpanGuard {
            tracer: self,
            name,
            id,
            trace,
            parent,
            start: self.now(),
            prev,
        }
    }

    /// Every span recorded so far, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The spans of one trace.
    pub fn trace_spans(&self, trace: u64) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|s| s.trace == trace)
            .cloned()
            .collect()
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True before the first span closes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.id, parent, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Where a fan-out closure attaches its spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// Trace id.
    pub trace: u64,
    /// Parent span id.
    pub span: u64,
}

/// An open span; records itself when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    id: u64,
    trace: u64,
    parent: Option<u64>,
    start: u64,
    prev: Option<(u64, u64)>,
}

impl SpanGuard<'_> {
    /// This span as a parent for spans on other threads.
    pub fn link(&self) -> Link {
        Link {
            trace: self.trace,
            span: self.id,
        }
    }

    /// The trace this span belongs to.
    pub fn trace(&self) -> u64 {
        self.trace
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now();
        CURRENT.with(|c| c.set(self.prev));
        self.tracer
            .spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Span {
                id: self.id,
                parent: self.parent,
                trace: self.trace,
                name: self.name,
                start: self.start,
                end,
            });
    }
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

/// Total length covered by the union of `[start, end)` intervals.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per-span accounting of one trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanTimes {
    /// Self (thread) time: duration minus the union of the children's
    /// intervals, clipped to this span. Overlapping worker children
    /// count once.
    pub self_ns: u64,
    /// This span's share of the root's wall clock, in ns. A span's
    /// allotted wall is split between its own self time and its
    /// children; the children's covered part is divided among them in
    /// proportion to their durations, so concurrent worker spans share
    /// the wall they overlap on. The self-walls of a tree sum to the
    /// root's duration.
    pub self_wall_ns: f64,
}

/// Computes [`SpanTimes`] for every span of one trace. Spans whose
/// parent is not in `spans` are roots and get their full duration as
/// allotted wall.
pub fn analyse(spans: &[Span]) -> HashMap<u64, SpanTimes> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    let mut roots = Vec::new();
    for s in spans {
        match s.parent.filter(|p| by_id.contains_key(p)) {
            Some(p) => children.entry(p).or_default().push(s),
            None => roots.push(s),
        }
    }
    let mut out = HashMap::new();
    // Iterative walk: (span, allotted wall ns).
    let mut stack: Vec<(&Span, f64)> = roots.iter().map(|s| (*s, s.dur() as f64)).collect();
    while let Some((s, wall)) = stack.pop() {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let mut iv: Vec<(u64, u64)> = kids
            .iter()
            .map(|c| (c.start.max(s.start), c.end.min(s.end)))
            .filter(|(a, b)| b > a)
            .collect();
        let covered = union_len(&mut iv);
        let dur = s.dur();
        let self_ns = dur.saturating_sub(covered);
        // Wall per ns of this span's own duration.
        let factor = if dur > 0 { wall / dur as f64 } else { 0.0 };
        out.insert(
            s.id,
            SpanTimes {
                self_ns,
                self_wall_ns: self_ns as f64 * factor,
            },
        );
        let kid_total: u64 = kids.iter().map(|c| c.dur()).sum();
        for c in kids {
            let share = if kid_total > 0 {
                covered as f64 * factor * c.dur() as f64 / kid_total as f64
            } else {
                0.0
            };
            stack.push((c, share));
        }
    }
    out
}
