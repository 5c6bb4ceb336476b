//! Keyed windowed aggregation as a micro-service.
//!
//! A [`WindowedAggregator`] consumes events from one bus topic, folds them
//! into per-(window, key) accumulators held in tiered state, and — once
//! the watermark (max observed event time) passes a window's end plus the
//! allowed lateness — drains the window and emits one result event per
//! key, in ascending key order. Results are normal stream events (key,
//! window-start timestamp, sum) plus rollup attributes, so operators
//! compose: a downstream join or aggregator re-windows them like any
//! other input.
//!
//! End-of-stream is a *flush token* on a control topic: the operator
//! closes everything still open, emits the results, and then (if
//! configured) forwards an end-of-stream marker downstream. The marker is
//! an [`ATTR_EOS`]-tagged publication, and `flush_out` should name the
//! operator's own *output* topic: because the bus is FIFO per topic, a
//! marker riding the data topic can never overtake the flushed results —
//! whereas a token on a separate control topic can, since the host
//! delivers each subscription in bounded batches. Downstream operators
//! treat an in-band marker on a data topic exactly like a flush token.

use securecloud_eventbus::bus::Message;
use securecloud_eventbus::service::{MicroService, ServiceCtx};
use securecloud_scbr::types::{Publication, Subscription, Value};
use std::collections::BTreeSet;

use crate::state::SharedState;
use crate::window::WindowSpec;
use crate::StreamError;

/// Attribute carrying the logical stream id (routing key on the secure
/// router's partitioned index).
pub const ATTR_STREAM: &str = "stream";
/// Attribute carrying the event key.
pub const ATTR_KEY: &str = "k";
/// Attribute carrying the event time, milliseconds.
pub const ATTR_TIME: &str = "t";
/// Attribute carrying the event value.
pub const ATTR_VALUE: &str = "v";
/// Result attribute: observation count in the window.
pub const ATTR_COUNT: &str = "n";
/// Result attribute: minimum value in the window.
pub const ATTR_MIN: &str = "min";
/// Result attribute: maximum value in the window.
pub const ATTR_MAX: &str = "max";
/// Marker attribute: the publication is an end-of-stream token, not an
/// event (sent in-band on data topics so it cannot overtake results).
pub const ATTR_EOS: &str = "eos";

/// An end-of-stream marker publication.
#[must_use]
pub fn eos_marker() -> Publication {
    Publication::new().with(ATTR_EOS, Value::Int(1))
}

/// Whether a publication is an end-of-stream marker.
#[must_use]
pub fn is_eos(p: &Publication) -> bool {
    p.attrs.contains_key(ATTR_EOS)
}

/// One decoded stream event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamEvent {
    /// Grouping key (meter id, feeder id, ...).
    pub key: u64,
    /// Event time, milliseconds (sealed in the batch frame).
    pub t_ms: u64,
    /// Measured value.
    pub value: f64,
}

impl StreamEvent {
    /// Encodes the event as publication attributes for stream `stream`.
    #[must_use]
    pub fn publication(&self, stream: i64) -> Publication {
        Publication::new()
            .with(ATTR_STREAM, Value::Int(stream))
            .with(ATTR_KEY, Value::Int(self.key as i64))
            .with(ATTR_TIME, Value::Int(self.t_ms as i64))
            .with(ATTR_VALUE, Value::Float(self.value))
    }

    /// Decodes an event from publication attributes, reading the grouping
    /// key from `key_attr` (e.g. `"k"` for per-meter, `"feeder"` for
    /// per-feeder grouping of the same readings).
    ///
    /// # Errors
    ///
    /// [`StreamError::MalformedEvent`] on a missing or mistyped attribute.
    pub fn from_publication(p: &Publication, key_attr: &str) -> Result<Self, StreamError> {
        let int = |attr: &str, why: &'static str| match p.attrs.get(attr) {
            Some(Value::Int(v)) if *v >= 0 => Ok(*v as u64),
            _ => Err(StreamError::MalformedEvent(why)),
        };
        let value = match p.attrs.get(ATTR_VALUE) {
            Some(Value::Float(v)) => *v,
            Some(Value::Int(v)) => *v as f64,
            _ => return Err(StreamError::MalformedEvent("missing numeric value")),
        };
        Ok(StreamEvent {
            key: int(key_attr, "missing non-negative int key")?,
            t_ms: int(ATTR_TIME, "missing non-negative int time")?,
            value,
        })
    }
}

/// Configuration for a [`WindowedAggregator`].
#[derive(Debug, Clone)]
pub struct AggregatorConfig {
    /// Operator name (state namespace and diagnostics).
    pub name: String,
    /// Bus topic consumed.
    pub input: String,
    /// Bus topic results are emitted to.
    pub output: String,
    /// Stream id stamped on results (router routing for egress).
    pub output_stream: i64,
    /// Attribute holding the grouping key on input events.
    pub key_attr: String,
    /// Window shape.
    pub windows: WindowSpec,
    /// Control topic whose messages force-close all open windows.
    pub flush_in: String,
    /// Topic the end-of-stream marker is forwarded to after closing
    /// (`None` for operators with no downstream stage). Use the
    /// operator's own output topic so the marker stays behind the
    /// results it flushed.
    pub flush_out: Option<String>,
}

const STATE_LANE: &str = "a";

/// The keyed windowed-aggregation micro-service.
pub struct WindowedAggregator {
    cfg: AggregatorConfig,
    state: SharedState,
    watermark_ms: u64,
    open: BTreeSet<u64>,
}

impl WindowedAggregator {
    /// Builds the operator over shared tiered state.
    #[must_use]
    pub fn new(cfg: AggregatorConfig, state: SharedState) -> Self {
        WindowedAggregator {
            cfg,
            state,
            watermark_ms: 0,
            open: BTreeSet::new(),
        }
    }

    /// Current watermark (max observed event time; `u64::MAX` after flush).
    #[must_use]
    pub fn watermark_ms(&self) -> u64 {
        self.watermark_ms
    }

    fn close_ready(&mut self, ctx: &mut ServiceCtx) {
        let closed: Vec<u64> = self
            .open
            .iter()
            .copied()
            .filter(|&w| self.cfg.windows.is_closed(w, self.watermark_ms))
            .collect();
        for window_start in closed {
            self.open.remove(&window_start);
            let drained = {
                let mut state = self.state.lock();
                match state.drain(STATE_LANE, window_start) {
                    Ok(drained) => drained,
                    Err(_) => {
                        state.metrics.malformed += 1;
                        continue;
                    }
                }
            };
            for (key, agg) in drained {
                ctx.emit(
                    &self.cfg.output,
                    Vec::new(),
                    Publication::new()
                        .with(ATTR_STREAM, Value::Int(self.cfg.output_stream))
                        .with(ATTR_KEY, Value::Int(key as i64))
                        .with(ATTR_TIME, Value::Int(window_start as i64))
                        .with(ATTR_VALUE, Value::Float(agg.sum))
                        .with(ATTR_COUNT, Value::Int(agg.count as i64))
                        .with(ATTR_MIN, Value::Float(agg.min))
                        .with(ATTR_MAX, Value::Float(agg.max)),
                );
            }
        }
    }
}

impl MicroService for WindowedAggregator {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn subscriptions(&self) -> Vec<(String, Option<Subscription>)> {
        vec![
            (self.cfg.input.clone(), None),
            (self.cfg.flush_in.clone(), None),
        ]
    }

    fn handle(&mut self, message: &Message, ctx: &mut ServiceCtx) {
        if *message.topic == *self.cfg.flush_in || is_eos(&message.attributes) {
            self.watermark_ms = u64::MAX;
            self.close_ready(ctx);
            if let Some(downstream) = &self.cfg.flush_out {
                ctx.emit(downstream, Vec::new(), eos_marker());
            }
            return;
        }
        let event = match StreamEvent::from_publication(&message.attributes, &self.cfg.key_attr) {
            Ok(event) => event,
            Err(_) => {
                self.state.lock().metrics.malformed += 1;
                return;
            }
        };
        if self.cfg.windows.is_late(event.t_ms, self.watermark_ms) {
            self.state.lock().metrics.late_dropped += 1;
            return;
        }
        for window_start in self.cfg.windows.assign(event.t_ms) {
            // A closed (already-drained) window never reopens: lateness
            // was checked against the youngest window, older assignments
            // may still individually be closed.
            if self.cfg.windows.is_closed(window_start, self.watermark_ms) {
                continue;
            }
            let mut state = self.state.lock();
            if state
                .observe(STATE_LANE, window_start, event.key, event.value)
                .is_err()
            {
                state.metrics.malformed += 1;
                continue;
            }
            drop(state);
            self.open.insert(window_start);
        }
        self.watermark_ms = self.watermark_ms.max(event.t_ms);
        self.close_ready(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::OperatorState;
    use securecloud_eventbus::service::ServiceHost;
    use securecloud_sgx::costs::MemoryGeometry;

    fn aggregator(windows: WindowSpec) -> (WindowedAggregator, SharedState) {
        let state = OperatorState::shared(
            "agg",
            MemoryGeometry::sgx_v1(),
            OperatorState::default_storage(),
        );
        let cfg = AggregatorConfig {
            name: "agg".into(),
            input: "in".into(),
            output: "out".into(),
            output_stream: 9,
            key_attr: ATTR_KEY.into(),
            windows,
            flush_in: "flush".into(),
            flush_out: None,
        };
        (WindowedAggregator::new(cfg, state.clone()), state)
    }

    fn event(key: u64, t_ms: u64, value: f64) -> Publication {
        StreamEvent { key, t_ms, value }.publication(1)
    }

    #[test]
    fn tumbling_sums_per_key_and_emits_on_close() {
        let (agg, state) = aggregator(WindowSpec::tumbling(60_000).unwrap());
        let mut host = ServiceHost::new(60_000);
        host.register(Box::new(agg));
        let results = host.bus_mut().subscribe("out", None);
        for (k, t, v) in [(1, 1_000, 2.0), (2, 5_000, 3.0), (1, 30_000, 4.0)] {
            host.bus_mut().publish("in", Vec::new(), event(k, t, v));
        }
        host.pump_switchless(64);
        assert!(
            host.bus_mut().fetch_batch(results, 16).is_empty(),
            "still open"
        );
        // An event past the window end closes it.
        host.bus_mut()
            .publish("in", Vec::new(), event(7, 61_000, 1.0));
        host.pump_switchless(64);
        let out = host.bus_mut().fetch_batch(results, 16);
        assert_eq!(out.len(), 2, "two keys in window 0");
        let sums: Vec<(i64, f64)> = out
            .iter()
            .map(|m| {
                let k = match m.attributes.attrs[ATTR_KEY] {
                    Value::Int(k) => k,
                    _ => panic!("int key"),
                };
                let v = match m.attributes.attrs[ATTR_VALUE] {
                    Value::Float(v) => v,
                    _ => panic!("float value"),
                };
                (k, v)
            })
            .collect();
        assert_eq!(sums, vec![(1, 6.0), (2, 3.0)], "key-ordered sums");
        assert_eq!(state.lock().metrics.events, 4);
        assert_eq!(state.lock().metrics.results, 2);
    }

    #[test]
    fn flush_closes_open_windows() {
        let (agg, _state) = aggregator(WindowSpec::tumbling(60_000).unwrap());
        let mut host = ServiceHost::new(60_000);
        host.register(Box::new(agg));
        let results = host.bus_mut().subscribe("out", None);
        host.bus_mut()
            .publish("in", Vec::new(), event(4, 10_000, 5.0));
        host.pump_switchless(64);
        host.bus_mut()
            .publish("flush", Vec::new(), Publication::new());
        host.pump_switchless(64);
        let out = host.bus_mut().fetch_batch(results, 16);
        assert_eq!(out.len(), 1, "flush emitted the open window");
    }

    #[test]
    fn late_events_are_dropped_not_reopened() {
        let (agg, state) = aggregator(WindowSpec::tumbling(60_000).unwrap());
        let mut host = ServiceHost::new(60_000);
        host.register(Box::new(agg));
        let results = host.bus_mut().subscribe("out", None);
        host.bus_mut()
            .publish("in", Vec::new(), event(1, 1_000, 1.0));
        host.bus_mut()
            .publish("in", Vec::new(), event(1, 61_000, 1.0));
        // Window 0 closed by the second event; this one is too late.
        host.bus_mut()
            .publish("in", Vec::new(), event(1, 2_000, 50.0));
        host.pump_switchless(64);
        assert_eq!(state.lock().metrics.late_dropped, 1);
        let out = host.bus_mut().fetch_batch(results, 16);
        assert_eq!(out.len(), 1);
        match out[0].attributes.attrs[ATTR_VALUE] {
            Value::Float(v) => assert!((v - 1.0).abs() < 1e-12, "late value excluded"),
            _ => panic!("float value"),
        }
    }

    #[test]
    fn malformed_events_counted_not_panicking() {
        let (agg, state) = aggregator(WindowSpec::tumbling(60_000).unwrap());
        let mut host = ServiceHost::new(60_000);
        host.register(Box::new(agg));
        host.bus_mut().publish(
            "in",
            Vec::new(),
            Publication::new().with(ATTR_KEY, Value::Str("not an int".into())),
        );
        host.pump_switchless(64);
        assert_eq!(state.lock().metrics.malformed, 1);
    }
}
