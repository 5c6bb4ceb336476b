//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer. The recorder is off in the untraced run (a span then costs
//! one thread-local branch), kept in memory while on, and written out as a
//! chrome-trace file when the process ends. The process is single-threaded,
//! so one thread-local recorder sees every span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Span id 0 means "no parent".
pub const NO_PARENT: u32 = 0;
/// Op id of spans recorded outside any timed op (set-up).
pub const NO_OP: u32 = u32::MAX;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    pub parent: u32,
    /// Index of the timed op the span belongs to, [`NO_OP`] during set-up.
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    on: bool,
    base: Instant,
    next_id: u32,
    op: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        base: Instant::now(),
        next_id: 1,
        op: NO_OP,
        stack: Vec::new(),
        spans: Vec::new(),
    });
}

/// Starts recording a fresh pass.
pub fn start() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.on = true;
        r.base = Instant::now();
        r.next_id = 1;
        r.op = NO_OP;
        r.stack.clear();
        r.spans.clear();
    });
}

/// Stops recording and hands back the pass's spans.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.on = false;
        std::mem::take(&mut r.spans)
    })
}

/// Tags the spans that follow with timed-op index `op`.
pub fn set_op(op: u32) {
    RECORDER.with(|r| r.borrow_mut().op = op);
}

/// Open span; closes (and is recorded) on drop.
pub struct Guard {
    open: Option<(&'static str, u64, u32, u32, u32)>,
}

/// Opens a span named `layer.what` under whichever span is open now.
pub fn span(name: &'static str) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard { open: None };
        }
        let id = r.next_id;
        r.next_id += 1;
        let parent = r.stack.last().copied().unwrap_or(NO_PARENT);
        r.stack.push(id);
        let op = r.op;
        let start = r.base.elapsed().as_nanos() as u64;
        Guard {
            open: Some((name, start, id, parent, op)),
        }
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((name, start_ns, id, parent, op)) = self.open.take() else {
            return;
        };
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end_ns = r.base.elapsed().as_nanos() as u64;
            r.stack.pop();
            r.spans.push(Span {
                name,
                start_ns,
                end_ns,
                id,
                parent,
                op,
            });
        });
    }
}

/// Per-name totals of one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the part their direct children cover.
    pub self_ns: u64,
}

/// Totals by span name: a span's self time is its duration minus the sum of
/// its direct children's durations (children never overlap: one thread).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// The layer of a span name: the part before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Sum over the names that start with `prefix` (a name or a `layer.what.`
/// family).
pub fn sum_prefix(
    totals: &BTreeMap<&'static str, NameTotal>,
    prefix: &str,
    pick: fn(&NameTotal) -> u64,
) -> u64 {
    totals
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, t)| pick(t))
        .sum()
}

/// Serialises spans as a chrome-trace (`chrome://tracing`, Perfetto) file.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 32);
    out.push_str("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            layer_of(s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent,
            if s.op == NO_OP { -1 } else { i64::from(s.op) },
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: u64, end: u64, id: u32, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            id,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // op [0,100) { a [10,40) { b [15,25) }, a [50,90) }
        let spans = [
            s("x.b", 15, 25, 3, 2),
            s("x.a", 10, 40, 2, 1),
            s("x.a", 50, 90, 4, 1),
            s("op", 0, 100, 1, NO_PARENT),
        ];
        let t = totals(&spans);
        assert_eq!(t["op"].self_ns, 30, "100 - (30 + 40)");
        assert_eq!(t["x.a"].total_ns, 70);
        assert_eq!(t["x.a"].self_ns, 60, "grandchild only leaves its parent");
        assert_eq!(t["x.b"].self_ns, 10);
        assert_eq!(t["x.a"].count, 2);
        // Self times of a tree sum to the root's duration.
        let all: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(all, 100);
        assert_eq!(sum_prefix(&t, "x.", |n| n.total_ns), 80);
    }

    #[test]
    fn recorder_nests_and_tags_ops() {
        start();
        set_op(7);
        {
            let _outer = span("l.outer");
            let _inner = span("l.inner");
        }
        let spans = finish();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "l.inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "l.outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, NO_PARENT);
        assert_eq!(inner.op, 7);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        // Off: nothing is recorded.
        drop(span("l.ignored"));
        assert!(finish().is_empty());
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let text = chrome_trace(&[s("a.b", 1_000, 3_000, 1, NO_PARENT)]);
        assert!(text.contains("\"name\":\"a.b\""));
        assert!(text.contains("\"cat\":\"a\""));
        assert!(text.contains("\"ts\":1.000"));
        assert!(text.contains("\"dur\":2.000"));
        assert_eq!(layer_of("scbr.route"), "scbr");
    }
}
