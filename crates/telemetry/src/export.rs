//! Exporters: Prometheus-style text snapshot, JSONL trace, and
//! chrome://tracing (`trace_event`) JSON.
//!
//! All output is hand-rendered (no serde in this workspace) and fully
//! deterministic: metric order comes from the registry's `BTreeMap`, trace
//! order from the emission order of the buffer.

use crate::metrics::{Histogram, Metric, Registry};
use crate::trace::{Phase, TraceEvent};
use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Escapes a label value per the Prometheus exposition format: backslash,
/// double quote, and line feed must be escaped inside `label="..."`.
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Renders the registry as a Prometheus-style text snapshot.
///
/// Histograms are rendered with cumulative `_bucket{le="..."}` series (one
/// per non-empty log₂ bucket, plus `+Inf`), `_sum`, and `_count`.
#[must_use]
pub fn prometheus_text(registry: &Registry) -> String {
    let mut out = String::new();
    let mut last_name: Option<String> = None;
    for (key, metric) in registry.snapshot() {
        if last_name.as_deref() != Some(key.name.as_str()) {
            let kind = match metric {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# TYPE {} {kind}", key.name);
            last_name = Some(key.name.clone());
        }
        match metric {
            Metric::Counter(c) => {
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    key.name,
                    label_block(&key.labels, None),
                    c.value()
                );
            }
            Metric::Gauge(g) => {
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    key.name,
                    label_block(&key.labels, None),
                    g.value()
                );
            }
            Metric::Histogram(h) => {
                let buckets = h.bucket_counts();
                let mut cumulative = 0u64;
                for (i, &count) in buckets.iter().enumerate() {
                    cumulative += count;
                    if count == 0 {
                        continue;
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {cumulative}",
                        key.name,
                        label_block(
                            &key.labels,
                            Some(("le", Histogram::bucket_upper_bound(i).to_string()))
                        ),
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_bucket{} {cumulative}",
                    key.name,
                    label_block(&key.labels, Some(("le", "+Inf".to_string()))),
                );
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    key.name,
                    label_block(&key.labels, None),
                    h.sum()
                );
                let _ = writeln!(
                    out,
                    "{}_count{} {}",
                    key.name,
                    label_block(&key.labels, None),
                    h.count()
                );
            }
        }
    }
    out
}

fn event_args_json(event: &TraceEvent) -> String {
    let mut args = String::new();
    for (i, (k, v)) in event.args.iter().enumerate() {
        if i > 0 {
            args.push(',');
        }
        let _ = write!(args, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
    }
    args
}

/// The causal-id suffix shared by both trace exporters: absent (empty) for
/// untraced events, so pre-causal traces render byte-identically to before.
fn causal_suffix(event: &TraceEvent) -> String {
    if event.trace_id == 0 {
        return String::new();
    }
    format!(
        ",\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\"",
        event.trace_id, event.span_id, event.parent_span_id
    )
}

/// Renders trace events as JSON Lines: one event object per line. Events
/// carrying a causal context get `trace`/`span`/`parent` hex-id fields.
#[must_use]
pub fn trace_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        let _ = writeln!(
            out,
            "{{\"ts_ms\":{},\"ph\":\"{}\",\"cat\":\"{}\",\"name\":\"{}\",\"args\":{{{}}}{}}}",
            event.ts_ms,
            event.phase.code(),
            json_escape(event.category),
            json_escape(&event.name),
            event_args_json(event),
            causal_suffix(event),
        );
    }
    out
}

/// Renders trace events as a chrome://tracing `trace_event` JSON document
/// (timestamps in microseconds, as the format requires).
///
/// Flow events (`ph:"s"`/`ph:"f"`) carry the chrome-required `id` field
/// (the trace id), with `bp:"e"` on the finish so the arrow binds to the
/// enclosing slice; other causal events carry the same ids as custom
/// `trace`/`span`/`parent` fields, which chrome ignores but the
/// critical-path tooling reads.
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, event) in events.iter().enumerate() {
        let flow = match event.phase {
            Phase::FlowStart => format!(",\"id\":\"{:016x}\"", event.trace_id),
            Phase::FlowFinish => format!(",\"id\":\"{:016x}\",\"bp\":\"e\"", event.trace_id),
            _ => causal_suffix(event),
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":1,\"args\":{{{}}}{}}}",
            json_escape(&event.name),
            json_escape(event.category),
            event.phase.code(),
            event.ts_ms * 1_000,
            event_args_json(event),
            flow,
        );
        out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::trace::Phase;

    fn untraced(ts_ms: u64, phase: Phase, category: &'static str, name: &str) -> TraceEvent {
        TraceEvent {
            ts_ms,
            phase,
            category,
            name: name.to_string(),
            args: vec![],
            trace_id: 0,
            span_id: 0,
            parent_span_id: 0,
        }
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                args: vec![("container", "c1".to_string())],
                ..untraced(100, Phase::Begin, "containers", "restart")
            },
            untraced(130, Phase::End, "containers", "restart"),
            TraceEvent {
                args: vec![("topic", "alerts \"hot\"".to_string())],
                ..untraced(150, Phase::Instant, "bus", "dead_letter")
            },
        ]
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn prometheus_golden() {
        let r = Registry::new();
        r.counter("securecloud_bus_published_total", &[]).add(3);
        r.gauge("securecloud_bus_dead_letter_depth", &[]).set(2);
        let h = r.histogram("securecloud_latency_ms", &[("kind", "ack")]);
        h.observe(0);
        h.observe(3);
        h.observe(3);
        h.observe(900);
        let text = prometheus_text(&r);
        let expected = "\
# TYPE securecloud_bus_dead_letter_depth gauge
securecloud_bus_dead_letter_depth 2
# TYPE securecloud_bus_published_total counter
securecloud_bus_published_total 3
# TYPE securecloud_latency_ms histogram
securecloud_latency_ms_bucket{kind=\"ack\",le=\"0\"} 1
securecloud_latency_ms_bucket{kind=\"ack\",le=\"3\"} 3
securecloud_latency_ms_bucket{kind=\"ack\",le=\"1023\"} 4
securecloud_latency_ms_bucket{kind=\"ack\",le=\"+Inf\"} 4
securecloud_latency_ms_sum{kind=\"ack\"} 906
securecloud_latency_ms_count{kind=\"ack\"} 4
";
        assert_eq!(text, expected);
    }

    #[test]
    fn prometheus_le_bounds_cover_u64_extremes() {
        // Zero observations must render under le="0" (bucket 0) and
        // u64::MAX under its exact final-bucket bound — not shifted into a
        // neighbouring bucket or collapsed into +Inf only.
        let r = Registry::new();
        let h = r.histogram("securecloud_extreme_ms", &[]);
        h.observe(0);
        h.observe(u64::MAX);
        let text = prometheus_text(&r);
        let expected = "\
# TYPE securecloud_extreme_ms histogram
securecloud_extreme_ms_bucket{le=\"0\"} 1
securecloud_extreme_ms_bucket{le=\"18446744073709551615\"} 2
securecloud_extreme_ms_bucket{le=\"+Inf\"} 2
securecloud_extreme_ms_sum 18446744073709551615
securecloud_extreme_ms_count 2
";
        assert_eq!(text, expected);
    }

    #[test]
    fn jsonl_golden() {
        let text = trace_jsonl(&sample_events());
        let expected = "\
{\"ts_ms\":100,\"ph\":\"B\",\"cat\":\"containers\",\"name\":\"restart\",\"args\":{\"container\":\"c1\"}}
{\"ts_ms\":130,\"ph\":\"E\",\"cat\":\"containers\",\"name\":\"restart\",\"args\":{}}
{\"ts_ms\":150,\"ph\":\"I\",\"cat\":\"bus\",\"name\":\"dead_letter\",\"args\":{\"topic\":\"alerts \\\"hot\\\"\"}}
";
        assert_eq!(text, expected);
    }

    #[test]
    fn chrome_trace_golden() {
        let text = chrome_trace_json(&sample_events()[..1]);
        let expected = "{\"traceEvents\":[\n{\"name\":\"restart\",\"cat\":\"containers\",\"ph\":\"B\",\"ts\":100000,\"pid\":1,\"tid\":1,\"args\":{\"container\":\"c1\"}}\n]}\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn chrome_trace_empty_is_valid() {
        assert_eq!(chrome_trace_json(&[]), "{\"traceEvents\":[\n]}\n");
    }

    #[test]
    fn prometheus_escapes_hostile_label_values() {
        // Backslash, double quote, and newline must all be escaped per the
        // exposition format, or one hostile topic name corrupts the whole
        // snapshot.
        let r = Registry::new();
        r.counter(
            "securecloud_hostile_total",
            &[("topic", "a\\b\"c\nd"), ("ok", "plain")],
        )
        .inc();
        let text = prometheus_text(&r);
        let expected = "\
# TYPE securecloud_hostile_total counter
securecloud_hostile_total{ok=\"plain\",topic=\"a\\\\b\\\"c\\nd\"} 1
";
        assert_eq!(text, expected);
    }

    #[test]
    fn jsonl_renders_causal_ids_only_when_present() {
        let traced = TraceEvent {
            trace_id: 0xAB,
            span_id: 0xCD,
            parent_span_id: 0,
            ..untraced(5, Phase::Begin, "replica", "quorum_write")
        };
        let text = trace_jsonl(&[traced, untraced(6, Phase::Instant, "bus", "tick")]);
        let expected = "\
{\"ts_ms\":5,\"ph\":\"B\",\"cat\":\"replica\",\"name\":\"quorum_write\",\"args\":{},\"trace\":\"00000000000000ab\",\"span\":\"00000000000000cd\",\"parent\":\"0000000000000000\"}
{\"ts_ms\":6,\"ph\":\"I\",\"cat\":\"bus\",\"name\":\"tick\",\"args\":{}}
";
        assert_eq!(text, expected);
    }

    #[test]
    fn chrome_flow_events_bind_by_trace_id() {
        let start = TraceEvent {
            trace_id: 0x11,
            ..untraced(1, Phase::FlowStart, "bus", "publish \"q\"")
        };
        let finish = TraceEvent {
            trace_id: 0x11,
            ..untraced(2, Phase::FlowFinish, "bus", "ack")
        };
        let text = chrome_trace_json(&[start, finish]);
        let expected = "{\"traceEvents\":[\n\
{\"name\":\"publish \\\"q\\\"\",\"cat\":\"bus\",\"ph\":\"s\",\"ts\":1000,\"pid\":1,\"tid\":1,\"args\":{},\"id\":\"0000000000000011\"},\n\
{\"name\":\"ack\",\"cat\":\"bus\",\"ph\":\"f\",\"ts\":2000,\"pid\":1,\"tid\":1,\"args\":{},\"id\":\"0000000000000011\",\"bp\":\"e\"}\n\
]}\n";
        assert_eq!(text, expected);
    }
}
