//! The span recorder of the traced pass.
//!
//! Spans are recorded from the benchmark's own files around the public calls it makes
//! into the library crates; nothing inside the libraries is instrumented. Each thread
//! of the benchmark owns one [`Recorder`] — a fixed-capacity in-memory buffer — and
//! the buffers are merged and written as JSONL when the workload ends. A span carries
//! its name, start, end, parent span and an operation id shared by every span of one
//! training step or one request.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::json::Json;

/// Index of "no parent".
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, `<crate>.<module>.<what>`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Operation (step or request) this span belongs to.
    pub op: u64,
    /// Benchmark thread that recorded it.
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span, returned by [`Recorder::enter`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// A per-thread span buffer. A disabled recorder records nothing and costs one branch
/// per call, so the same driver loop serves the traced and the untraced pass.
pub struct Recorder {
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    capacity: usize,
    stack: Vec<u32>,
    dropped: u64,
    enabled: bool,
}

impl Recorder {
    /// A recorder holding at most `capacity` spans; later spans are counted as dropped.
    /// Every recorder of a run shares one `origin` so their times are comparable.
    pub fn new(origin: Instant, thread: u32, capacity: usize) -> Self {
        Self {
            origin,
            thread,
            spans: Vec::with_capacity(capacity),
            capacity,
            stack: Vec::new(),
            dropped: 0,
            enabled: true,
        }
    }

    /// A recorder that records nothing (the untraced pass).
    pub fn disabled() -> Self {
        Self {
            origin: Instant::now(),
            thread: 0,
            spans: Vec::new(),
            capacity: 0,
            stack: Vec::new(),
            dropped: 0,
            enabled: false,
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return Open(NO_PARENT);
        }
        let index = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op, thread: self.thread });
        self.stack.push(index);
        Open(index)
    }

    /// Closes a span opened by [`Recorder::enter`]. Spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, op);
        let out = f();
        self.exit(open);
        out
    }

    /// Records a span whose boundaries were stamped elsewhere (a wait that began on
    /// another thread), as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op,
            thread: self.thread,
        });
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Merges per-thread buffers into one span list, re-basing parent indices.
pub fn merge(recorders: Vec<Recorder>) -> (Vec<Span>, u64) {
    let mut all = Vec::with_capacity(recorders.iter().map(Recorder::len).sum());
    let mut dropped = 0;
    for rec in recorders {
        let base = all.len() as u32;
        dropped += rec.dropped;
        all.extend(rec.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
    (all, dropped)
}

/// Self time of every span: its duration minus the part of its interval that its
/// child spans cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals of a span list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Aggregate {
    /// Durations of every span of this name, in milliseconds, in recording order.
    pub durations_ms: Vec<f64>,
    /// Summed self time in milliseconds.
    pub self_ms: f64,
}

/// Groups spans by name.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Aggregate> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let agg = out.entry(s.name).or_default();
        agg.durations_ms.push(s.duration_ns() as f64 / 1e6);
        agg.self_ms += self_ns as f64 / 1e6;
    }
    out
}

/// Writes one JSON object per span, one per line.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    let selfs = self_times(spans);
    for (index, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = if s.parent == NO_PARENT { Json::Null } else { Json::Int(s.parent.into()) };
        let line = Json::obj([
            ("id", Json::count(index as u64)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::count(s.start_ns)),
            ("end_ns", Json::count(s.end_ns)),
            ("self_ns", Json::count(self_ns)),
            ("parent", parent),
            ("op", Json::count(s.op)),
            ("thread", Json::Int(s.thread.into())),
        ]);
        writeln!(out, "{}", line.compact())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, op: 1, thread: 0 }
    }

    /// step [0, 100) ─ forward [10, 50) ─ attention [20, 30), gemm [25, 45) (overlapping)
    ///               └ backward [50, 90) └ a child leaking past its parent [80, 120)
    fn tree() -> Vec<Span> {
        vec![
            span("step", 0, 100, NO_PARENT),
            span("forward", 10, 50, 0),
            span("attention", 20, 30, 1),
            span("gemm", 25, 45, 1),
            span("backward", 50, 90, 0),
            span("leak", 80, 120, 4),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let selfs = self_times(&tree());
        // step: 100 − (forward 40 + backward 40) = 20.
        assert_eq!(selfs[0], 20);
        // forward: children cover [20, 45) once, not 10 + 20 = 30 twice over.
        assert_eq!(selfs[1], 40 - 25);
        assert_eq!(selfs[2], 10);
        assert_eq!(selfs[3], 20);
        // backward: the leaking child only counts inside [50, 90).
        assert_eq!(selfs[4], 40 - 10);
        assert_eq!(selfs[5], 40);
    }

    #[test]
    fn aggregate_groups_by_name() {
        let mut spans = tree();
        spans.push(span("step", 200, 260, NO_PARENT));
        let agg = aggregate(&spans);
        assert_eq!(agg["step"].durations_ms, vec![100e-6, 60e-6]);
        assert!((agg["step"].self_ms - 80e-6).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_respects_capacity() {
        let mut rec = Recorder::new(Instant::now(), 3, 2);
        let outer = rec.enter("outer", 7);
        let inner = rec.enter("inner", 7);
        let lost = rec.enter("lost", 7);
        rec.exit(lost);
        rec.exit(inner);
        rec.exit(outer);
        assert_eq!(rec.len(), 2);
        let (spans, dropped) = merge(vec![rec]);
        assert_eq!(dropped, 1);
        assert_eq!((spans[0].parent, spans[1].parent), (NO_PARENT, 0));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!((spans[1].op, spans[1].thread), (7, 3));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::disabled();
        assert_eq!(rec.span("x", 0, || 5), 5);
        rec.record("y", 0, Instant::now(), Instant::now());
        assert_eq!(merge(vec![rec]), (Vec::new(), 0));
    }

    #[test]
    fn merge_rebases_parents() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin, 0, 8);
        a.span("a", 0, || ());
        let mut b = Recorder::new(origin, 1, 8);
        let outer = b.enter("b.outer", 1);
        b.span("b.inner", 1, || ());
        b.exit(outer);
        let (spans, _) = merge(vec![a, b]);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, 1);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut buf = Vec::new();
        write_jsonl(&tree(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        assert_eq!(
            lines[1],
            "{\"id\":1,\"name\":\"forward\",\"start_ns\":10,\"end_ns\":50,\"self_ns\":15,\
             \"parent\":0,\"op\":1,\"thread\":0}"
        );
        assert!(lines[0].contains("\"parent\":null"));
    }
}
