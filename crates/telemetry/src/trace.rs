//! Structured tracing: spans and instant events stamped with the virtual
//! clock.
//!
//! Events accumulate in the [`Telemetry`](crate::Telemetry) bundle in
//! emission order. Because timestamps come from the deterministic
//! simulation clock and instrumented code runs single-threaded (background
//! helper threads are deliberately never instrumented), two equal-seed runs
//! produce identical buffers and therefore byte-identical exported traces.
//!
//! Events may carry causal identity (`trace_id`/`span_id`/
//! `parent_span_id`, see [`crate::context::TraceContext`]); `0` means
//! "no id", which keeps uninstrumented call sites and pre-existing
//! exporters unchanged.

/// The phase of a trace event, mirroring the chrome `trace_event` phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`B`).
    Begin,
    /// Span end (`E`).
    End,
    /// Instant event (`I`).
    Instant,
    /// Flow start (`s`): the producer side of a cross-subsystem edge
    /// (e.g. a bus publish whose ack lands in another span tree).
    FlowStart,
    /// Flow finish (`f`): the consumer side of a cross-subsystem edge.
    FlowFinish,
}

impl Phase {
    /// The single-letter chrome `trace_event` phase code.
    #[must_use]
    pub fn code(self) -> char {
        match self {
            Phase::Begin => 'B',
            Phase::End => 'E',
            Phase::Instant => 'I',
            Phase::FlowStart => 's',
            Phase::FlowFinish => 'f',
        }
    }
}

/// One trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual-clock timestamp, milliseconds.
    pub ts_ms: u64,
    /// Begin / End / Instant / FlowStart / FlowFinish.
    pub phase: Phase,
    /// Span taxonomy category, e.g. `"containers"` or `"scbr"`.
    pub category: &'static str,
    /// Event name, e.g. `"restart"`.
    pub name: String,
    /// Key/value annotations.
    pub args: Vec<(&'static str, String)>,
    /// Causal trace the event belongs to (`0` = untraced).
    pub trace_id: u64,
    /// The event's own span id (`0` = not a span).
    pub span_id: u64,
    /// The parent span within the same trace (`0` = root).
    pub parent_span_id: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceContext;

    #[test]
    fn buffer_keeps_emission_order() {
        let telemetry = crate::Telemetry::new();
        for i in 0..3u64 {
            telemetry.clock().set_at_least_ms(i);
            telemetry.event("test", &format!("e{i}"), vec![], TraceContext::none());
        }
        let events = telemetry.trace_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "e0");
        assert_eq!((events[2].phase, events[2].ts_ms), (Phase::Instant, 2));
    }

    #[test]
    fn flow_phases_have_chrome_codes() {
        assert_eq!(Phase::FlowStart.code(), 's');
        assert_eq!(Phase::FlowFinish.code(), 'f');
    }
}
