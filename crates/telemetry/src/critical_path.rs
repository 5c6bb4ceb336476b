//! Critical-path analysis: folds finished causal traces into per-subsystem
//! latency attribution.
//!
//! The analyzer consumes the trace buffer and reconstructs span trees from
//! causal ids: `Begin`/`End` pairs match by `span_id` (never by stack
//! nesting — causal spans from different subsystems interleave freely in
//! the single emission stream), and `Instant` events carrying a `dur_ms`
//! arg act as retroactive leaf spans covering `[ts - dur, ts]` (the shape
//! queue-wait emits at ack time, when the wait is finally known). A span's
//! **self time** is its duration minus the summed durations of its causal
//! children; self time is attributed to the span's category, which is how
//! "where did the publish spend its time" decomposes into enclave
//! transition vs. crypto vs. queueing vs. quorum wait.
//!
//! Everything here is a pure function of the event buffer, so equal-seed
//! runs produce byte-identical rendered reports.

use crate::trace::{Phase, TraceEvent};
use std::collections::BTreeMap;

/// One reconstructed span.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SpanRec {
    trace_id: u64,
    span_id: u64,
    parent_span_id: u64,
    category: &'static str,
    name: String,
    start_ms: u64,
    end_ms: u64,
}

impl SpanRec {
    fn duration_ms(&self) -> u64 {
        self.end_ms.saturating_sub(self.start_ms)
    }
}

/// Self-time attribution for one subsystem category.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoryAttribution {
    /// The span taxonomy category (e.g. `"replica"`, `"service"`).
    pub category: String,
    /// Total self time attributed to the category, virtual ms.
    pub self_ms: u64,
    /// Number of spans contributing.
    pub spans: u64,
}

/// The folded critical-path report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CriticalPathReport {
    /// Per-category self-time attribution, sorted by descending self time
    /// (category name breaks ties) — the flame summary's top level.
    pub categories: Vec<CategoryAttribution>,
    /// Flame-folded lines (`cat:name;cat:name self_ms`), one per distinct
    /// root-to-leaf path with positive self time, in lexicographic order.
    pub folded: Vec<String>,
    /// Number of distinct traces that contributed at least one span.
    pub traces: u64,
    /// Total self time across every category, virtual ms.
    pub total_self_ms: u64,
}

impl CriticalPathReport {
    /// Renders the report as a deterministic flame-style text document.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path: {} trace(s), {} ms total self time",
            self.traces, self.total_self_ms
        );
        let _ = writeln!(out, "per-subsystem attribution:");
        for attribution in &self.categories {
            let pct = (attribution.self_ms * 100)
                .checked_div(self.total_self_ms)
                .unwrap_or(0);
            let _ = writeln!(
                out,
                "  {:<12} {:>8} ms  {:>3}%  ({} spans)",
                attribution.category, attribution.self_ms, pct, attribution.spans
            );
        }
        let _ = writeln!(out, "flame (folded):");
        for line in &self.folded {
            let _ = writeln!(out, "  {line}");
        }
        out
    }
}

/// Extracts the `dur_ms` arg of an instant event, if present and numeric.
fn instant_duration(event: &TraceEvent) -> Option<u64> {
    event
        .args
        .iter()
        .find(|(k, _)| *k == "dur_ms")
        .and_then(|(_, v)| v.parse().ok())
}

/// Reconstructs causal spans from the event stream.
fn collect_spans(events: &[TraceEvent]) -> Vec<SpanRec> {
    let mut open: BTreeMap<u64, SpanRec> = BTreeMap::new();
    let mut spans = Vec::new();
    for event in events {
        if event.trace_id == 0 || event.span_id == 0 {
            continue;
        }
        match event.phase {
            Phase::Begin => {
                open.insert(
                    event.span_id,
                    SpanRec {
                        trace_id: event.trace_id,
                        span_id: event.span_id,
                        parent_span_id: event.parent_span_id,
                        category: event.category,
                        name: event.name.clone(),
                        start_ms: event.ts_ms,
                        end_ms: event.ts_ms,
                    },
                );
            }
            Phase::End => {
                if let Some(mut span) = open.remove(&event.span_id) {
                    span.end_ms = event.ts_ms;
                    spans.push(span);
                }
            }
            Phase::Instant => {
                if let Some(dur) = instant_duration(event) {
                    spans.push(SpanRec {
                        trace_id: event.trace_id,
                        span_id: event.span_id,
                        parent_span_id: event.parent_span_id,
                        category: event.category,
                        name: event.name.clone(),
                        start_ms: event.ts_ms.saturating_sub(dur),
                        end_ms: event.ts_ms,
                    });
                }
            }
            Phase::FlowStart | Phase::FlowFinish => {}
        }
    }
    // Emission order is deterministic, but sort by (trace, start, span) so
    // the report is stable even if instrumentation reorders emissions.
    spans.sort_by_key(|s| (s.trace_id, s.start_ms, s.span_id));
    spans
}

/// Folds finished traces into a [`CriticalPathReport`].
#[must_use]
pub fn analyze(events: &[TraceEvent]) -> CriticalPathReport {
    let spans = collect_spans(events);
    if spans.is_empty() {
        return CriticalPathReport::default();
    }

    // Children's summed durations per parent span, for self-time.
    let mut child_ms: BTreeMap<u64, u64> = BTreeMap::new();
    for span in &spans {
        if span.parent_span_id != 0 {
            *child_ms.entry(span.parent_span_id).or_default() += span.duration_ms();
        }
    }

    let index: BTreeMap<u64, &SpanRec> = spans.iter().map(|s| (s.span_id, s)).collect();
    let path_of = |span: &SpanRec| -> String {
        // Walk ancestors (bounded against malformed cycles).
        let mut parts = vec![format!("{}:{}", span.category, span.name)];
        let mut cursor = span.parent_span_id;
        for _ in 0..64 {
            let Some(parent) = (cursor != 0).then(|| index.get(&cursor)).flatten() else {
                break;
            };
            parts.push(format!("{}:{}", parent.category, parent.name));
            cursor = parent.parent_span_id;
        }
        parts.reverse();
        parts.join(";")
    };

    let mut traces: Vec<u64> = spans.iter().map(|s| s.trace_id).collect();
    traces.sort_unstable();
    traces.dedup();

    let mut per_category: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut per_path: BTreeMap<String, u64> = BTreeMap::new();
    let mut total_self_ms = 0u64;
    for span in &spans {
        let self_ms = span
            .duration_ms()
            .saturating_sub(child_ms.get(&span.span_id).copied().unwrap_or(0));
        let slot = per_category.entry(span.category).or_default();
        slot.0 += self_ms;
        slot.1 += 1;
        total_self_ms += self_ms;
        if self_ms > 0 {
            *per_path.entry(path_of(span)).or_default() += self_ms;
        }
    }

    let mut categories: Vec<CategoryAttribution> = per_category
        .into_iter()
        .map(|(category, (self_ms, spans))| CategoryAttribution {
            category: category.to_string(),
            self_ms,
            spans,
        })
        .collect();
    categories.sort_by(|a, b| {
        b.self_ms
            .cmp(&a.self_ms)
            .then_with(|| a.category.cmp(&b.category))
    });

    CriticalPathReport {
        categories,
        folded: per_path
            .into_iter()
            .map(|(path, ms)| format!("{path} {ms}"))
            .collect(),
        traces: traces.len() as u64,
        total_self_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Telemetry, TraceContext};

    #[test]
    fn self_time_subtracts_children_and_attributes_per_category() {
        let t = Telemetry::new();
        t.set_trace_seed(1);
        let root = t.mint_root();
        let child = t.mint_child(root);
        {
            let _outer = t.span("bus", "publish_to_ack", vec![], root);
            t.clock().set_at_least_ms(10);
            {
                let _inner = t.span("replica", "quorum_write", vec![], child);
                t.clock().set_at_least_ms(40);
            }
            t.clock().set_at_least_ms(50);
        }
        let report = analyze(&t.trace_events());
        assert_eq!(report.traces, 1);
        assert_eq!(report.total_self_ms, 50);
        assert_eq!(report.categories.len(), 2);
        // replica: 30ms leaf; bus: 50 total - 30 child = 20 self.
        assert_eq!(report.categories[0].category, "replica");
        assert_eq!(report.categories[0].self_ms, 30);
        assert_eq!(report.categories[1].category, "bus");
        assert_eq!(report.categories[1].self_ms, 20);
        assert_eq!(
            report.folded,
            vec![
                "bus:publish_to_ack 20".to_string(),
                "bus:publish_to_ack;replica:quorum_write 30".to_string(),
            ]
        );
        assert!(report.render().contains("replica"));
    }

    #[test]
    fn instants_with_dur_ms_act_as_retroactive_leaf_spans() {
        let t = Telemetry::new();
        t.set_trace_seed(2);
        let root = t.mint_root();
        let leaf = t.mint_child(root);
        t.clock().set_at_least_ms(100);
        t.event("queue", "wait", vec![("dur_ms", "40".to_string())], leaf);
        let report = analyze(&t.trace_events());
        assert_eq!(report.total_self_ms, 40);
        assert_eq!(report.categories[0].category, "queue");
    }

    #[test]
    fn untraced_events_and_unmatched_begins_are_ignored() {
        let t = Telemetry::new();
        t.event("bus", "plain", vec![], TraceContext::none());
        let report = analyze(&t.trace_events());
        assert_eq!(report, CriticalPathReport::default());
    }
}
