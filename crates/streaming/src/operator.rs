//! Keyed windowed operators as micro-services.
//!
//! A [`WindowedAggregator`] consumes one or two bus topics, its *lanes*,
//! folds each lane's events into per-(window, key) accumulators held in
//! tiered state, and drains a window once the watermark passes its end
//! plus the allowed lateness. What a closed window emits, in ascending key
//! order, is all that the lane count changes:
//!
//! * one lane ([`AggregatorConfig`]): one rollup per key (sum, count, min,
//!   max);
//! * two lanes ([`JoinConfig`], built by [`TwoStreamJoin::new`]): an inner
//!   join, one delta per key present on both lanes; unmatched keys are
//!   dropped.
//!
//! Results are normal stream events (key, window-start timestamp, value)
//! plus their own attributes, so operators compose: a downstream join or
//! aggregator re-windows them like any other input.
//!
//! ## Watermarks
//!
//! Each lane's watermark is the largest event time it has seen, and the
//! operator's watermark is the **minimum** over its lanes. A join's inputs
//! are usually results of upstream aggregators, whose timestamps are
//! window starts. The two upstreams advance in lockstep over the same
//! ingested data, but within one pump round the bus may deliver one side's
//! results for window *w + size* before the other side's results for *w*.
//! Under the minimum, a window seals only once every lane has passed its
//! end, and since each upstream emits windows in ascending order over a
//! FIFO bus, every lane's data for the window has been folded in. Arrival
//! interleaving therefore cannot change results: the determinism argument
//! of [`crate::window`] extends through the join.
//!
//! ## End of stream
//!
//! * An in-band `ATTR_EOS` marker on a lane's topic seals that lane.
//! * Tokens on the `flush_in` control topic seal every lane once
//!   `flush_fan_in` of them have arrived (one for an aggregator).
//! * A sealed lane's watermark is the end of time; once every lane is
//!   sealed, every window has closed and the operator forwards one marker
//!   to `flush_out`.
//!
//! ## Durability
//!
//! Every fold and drain stages its state write. The operator holds the ack
//! of each message it handles ([`ServiceCtx::hold_ack`]) and commits the
//! staged writes once, on the last message of each delivery batch
//! ([`ServiceCtx::end_of_batch`]); the host then releases the held acks,
//! so no message is acked before the write it caused is durable.
//!
//! `flush_out` should name the operator's own *output* topic: because the
//! bus is FIFO per topic, a marker riding the data topic can never
//! overtake the flushed results, whereas a token on a separate control
//! topic can, since the host delivers each subscription in bounded
//! batches.

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
/// Joined-result attribute: left-side window sum.
pub const ATTR_LEFT: &str = "l";
/// Joined-result attribute: right-side window sum.
pub const ATTR_RIGHT: &str = "r";
/// Marker attribute: the publication is an end-of-stream token, not an
/// event (sent in-band on data topics so it cannot overtake results).
const ATTR_EOS: &str = "eos";

/// An end-of-stream marker publication.
#[must_use]
fn eos_marker() -> Publication {
    Publication::new().with(ATTR_EOS, Value::Int(1))
}

/// Whether a publication is an end-of-stream marker.
#[must_use]
fn is_eos(p: &Publication) -> bool {
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

/// Configuration for a one-lane [`WindowedAggregator`].
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

/// Configuration for a two-lane [`WindowedAggregator`], the inner join
/// that [`TwoStreamJoin::new`] builds. Both inputs are keyed by
/// [`ATTR_KEY`].
#[derive(Debug, Clone)]
pub struct JoinConfig {
    /// Operator name (state namespace and diagnostics).
    pub name: String,
    /// Bus topic of the left input.
    pub left: String,
    /// Bus topic of the right input.
    pub right: String,
    /// Bus topic joined results are emitted to.
    pub output: String,
    /// Stream id stamped on results.
    pub output_stream: i64,
    /// Window shape (use a tumbling window of the upstream stride to pair
    /// upstream windows one-to-one).
    pub windows: WindowSpec,
    /// Control topic that force-closes all open windows (in-band
    /// end-of-stream markers on the data topics are the overtaking-safe
    /// alternative).
    pub flush_in: String,
    /// Flush tokens to await before closing (one per upstream feeding
    /// `flush_in`).
    pub flush_fan_in: usize,
    /// Topic the end-of-stream marker is forwarded to after closing.
    pub flush_out: Option<String>,
}

/// One input of the operator.
struct Lane {
    /// Bus topic the lane consumes.
    topic: String,
    /// State lane its accumulators live under (a byte of every storage
    /// key).
    state: &'static str,
    /// Largest event time seen on the lane; `u64::MAX` once sealed.
    watermark_ms: u64,
}

impl Lane {
    fn new(topic: String, state: &'static str) -> Self {
        Lane {
            topic,
            state,
            watermark_ms: 0,
        }
    }
}

/// The keyed windowed micro-service: aggregation over one lane, inner
/// join over two.
pub struct WindowedAggregator {
    name: String,
    lanes: Vec<Lane>,
    key_attr: String,
    output: String,
    output_stream: i64,
    windows: WindowSpec,
    flush_in: String,
    flush_fan_in: usize,
    flush_out: Option<String>,
    state: SharedState,
    flushes_seen: usize,
    eos_forwarded: bool,
    open: BTreeSet<u64>,
}

impl WindowedAggregator {
    /// Builds the one-lane aggregator over shared tiered state.
    #[must_use]
    pub fn new(cfg: AggregatorConfig, state: SharedState) -> Self {
        WindowedAggregator {
            name: cfg.name,
            lanes: vec![Lane::new(cfg.input, "a")],
            key_attr: cfg.key_attr,
            output: cfg.output,
            output_stream: cfg.output_stream,
            windows: cfg.windows,
            flush_in: cfg.flush_in,
            flush_fan_in: 1,
            flush_out: cfg.flush_out,
            state,
            flushes_seen: 0,
            eos_forwarded: false,
            open: BTreeSet::new(),
        }
    }

    /// Current watermark: the minimum over the lanes of the largest event
    /// time each has seen (`u64::MAX` once every lane is sealed).
    #[must_use]
    pub fn watermark_ms(&self) -> u64 {
        self.lanes
            .iter()
            .map(|lane| lane.watermark_ms)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Seals `lanes`, closes every window that closes, and forwards the
    /// end-of-stream marker once all lanes are sealed.
    fn seal(&mut self, lanes: std::ops::Range<usize>, ctx: &mut ServiceCtx) {
        for lane in &mut self.lanes[lanes] {
            lane.watermark_ms = u64::MAX;
        }
        self.close_ready(ctx);
        if !self.eos_forwarded && self.watermark_ms() == u64::MAX {
            self.eos_forwarded = true;
            if let Some(downstream) = &self.flush_out {
                ctx.emit(downstream, Vec::new(), eos_marker());
            }
        }
    }

    /// The attributes every result starts with.
    fn result(&self, key: u64, window_start: u64) -> Publication {
        Publication::new()
            .with(ATTR_STREAM, Value::Int(self.output_stream))
            .with(ATTR_KEY, Value::Int(key as i64))
            .with(ATTR_TIME, Value::Int(window_start as i64))
    }

    fn close_ready(&mut self, ctx: &mut ServiceCtx) {
        let watermark = self.watermark_ms();
        let closed: Vec<u64> = self
            .open
            .iter()
            .copied()
            .filter(|&w| self.windows.is_closed(w, watermark))
            .collect();
        for window_start in closed {
            self.open.remove(&window_start);
            let drained = {
                let mut state = self.state.lock();
                // Every lane drains, even after another fails, so no lane
                // keeps the closed window's accumulators.
                let drained: Vec<_> = self
                    .lanes
                    .iter()
                    .map(|lane| state.drain(lane.state, window_start))
                    .collect();
                match drained.into_iter().collect::<Result<Vec<_>, _>>() {
                    Ok(drained) => drained,
                    Err(_) => {
                        state.metrics.malformed += 1;
                        continue;
                    }
                }
            };
            match drained.as_slice() {
                [rollup] => {
                    for &(key, agg) in rollup {
                        let result = self
                            .result(key, window_start)
                            .with(ATTR_VALUE, Value::Float(agg.sum))
                            .with(ATTR_COUNT, Value::Int(agg.count as i64))
                            .with(ATTR_MIN, Value::Float(agg.min))
                            .with(ATTR_MAX, Value::Float(agg.max));
                        ctx.emit(&self.output, Vec::new(), result);
                    }
                }
                [left, right] => {
                    // Both lanes drain in ascending key order.
                    for &(key, left) in left {
                        let Ok(at) = right.binary_search_by_key(&key, |&(k, _)| k) else {
                            continue;
                        };
                        let right = right[at].1;
                        let result = self
                            .result(key, window_start)
                            .with(ATTR_LEFT, Value::Float(left.sum))
                            .with(ATTR_RIGHT, Value::Float(right.sum))
                            // The delta convention: positive when the right
                            // side exceeds the left (e.g. metered-actual
                            // minus customer-reported = unbilled loss).
                            .with(ATTR_VALUE, Value::Float(right.sum - left.sum))
                            .with(ATTR_COUNT, Value::Int((left.count + right.count) as i64));
                        ctx.emit(&self.output, Vec::new(), result);
                    }
                }
                _ => unreachable!("an operator has one or two lanes"),
            }
        }
    }

    /// Folds one message into state, closing every window it closes.
    fn apply(&mut self, message: &Message, ctx: &mut ServiceCtx) {
        if *message.topic == *self.flush_in {
            self.flushes_seen += 1;
            if self.flushes_seen >= self.flush_fan_in {
                self.seal(0..self.lanes.len(), ctx);
            }
            return;
        }
        let lane = self
            .lanes
            .iter()
            .position(|lane| *message.topic == *lane.topic)
            .unwrap_or(self.lanes.len() - 1);
        if is_eos(&message.attributes) {
            // The other lane's events may still be queued behind its own
            // marker; the minimum watermark keeps windows open for them.
            self.seal(lane..lane + 1, ctx);
            return;
        }
        let event = match StreamEvent::from_publication(&message.attributes, &self.key_attr) {
            Ok(event) => event,
            Err(_) => {
                self.state.lock().metrics.malformed += 1;
                return;
            }
        };
        let watermark = self.watermark_ms();
        if self.windows.is_late(event.t_ms, watermark) {
            self.state.lock().metrics.late_dropped += 1;
            return;
        }
        for window_start in self.windows.assign(event.t_ms) {
            // A closed (already-drained) window never reopens: lateness
            // was checked against the youngest window, older assignments
            // may still individually be closed.
            if self.windows.is_closed(window_start, watermark) {
                continue;
            }
            let mut state = self.state.lock();
            if state
                .observe(self.lanes[lane].state, window_start, event.key, event.value)
                .is_err()
            {
                state.metrics.malformed += 1;
                continue;
            }
            drop(state);
            self.open.insert(window_start);
        }
        let lane = &mut self.lanes[lane];
        lane.watermark_ms = lane.watermark_ms.max(event.t_ms);
        self.close_ready(ctx);
    }
}

/// The two-lane [`WindowedAggregator`], built under its own name.
pub enum TwoStreamJoin {}

impl TwoStreamJoin {
    /// Builds the windowed inner join of `cfg.left` and `cfg.right` over
    /// shared tiered state.
    #[must_use]
    #[allow(clippy::new_ret_no_self)] // the one windowed operator type
    pub fn new(cfg: JoinConfig, state: SharedState) -> WindowedAggregator {
        WindowedAggregator {
            name: cfg.name,
            lanes: vec![Lane::new(cfg.left, "l"), Lane::new(cfg.right, "r")],
            key_attr: ATTR_KEY.into(),
            output: cfg.output,
            output_stream: cfg.output_stream,
            windows: cfg.windows,
            flush_in: cfg.flush_in,
            flush_fan_in: cfg.flush_fan_in,
            flush_out: cfg.flush_out,
            state,
            flushes_seen: 0,
            eos_forwarded: false,
            open: BTreeSet::new(),
        }
    }
}

impl MicroService for WindowedAggregator {
    fn name(&self) -> &str {
        &self.name
    }

    fn subscriptions(&self) -> Vec<(String, Option<Subscription>)> {
        self.lanes
            .iter()
            .map(|lane| &lane.topic)
            .chain([&self.flush_in])
            .map(|topic| (topic.clone(), None))
            .collect()
    }

    fn handle(&mut self, message: &Message, ctx: &mut ServiceCtx) {
        ctx.hold_ack();
        self.apply(message, ctx);
        if ctx.end_of_batch() {
            let mut state = self.state.lock();
            if state.commit().is_err() {
                state.metrics.malformed += 1;
            }
        }
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
    fn state_commits_once_per_delivery_batch() {
        for (batch, writes) in [(1, 8), (3, 3), (8, 1)] {
            let (agg, state) = aggregator(WindowSpec::tumbling(60_000).unwrap());
            let mut host = ServiceHost::new(60_000);
            host.set_delivery_batch(batch);
            host.register(Box::new(agg));
            for key in 0..8 {
                host.bus_mut()
                    .publish("in", Vec::new(), event(key, 1_000, 1.0));
            }
            host.pump_switchless(64);
            let state = state.lock();
            assert_eq!(state.metrics.events, 8);
            assert_eq!(state.mem_stats().host_writes, writes, "batch {batch}");
            assert_eq!(host.bus().stats().acked, 8);
        }
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

    fn join_host() -> (
        ServiceHost,
        securecloud_eventbus::bus::SubscriberId,
        SharedState,
    ) {
        let state = OperatorState::shared(
            "join",
            MemoryGeometry::sgx_v1(),
            OperatorState::default_storage(),
        );
        let cfg = JoinConfig {
            name: "join".into(),
            left: "left".into(),
            right: "right".into(),
            output: "joined".into(),
            output_stream: 30,
            windows: WindowSpec::tumbling(60_000).unwrap(),
            flush_in: "flush".into(),
            flush_fan_in: 1,
            flush_out: None,
        };
        let mut host = ServiceHost::new(60_000);
        host.register(Box::new(TwoStreamJoin::new(cfg, state.clone())));
        let results = host.bus_mut().subscribe("joined", None);
        (host, results, state)
    }

    #[test]
    fn inner_join_pairs_keys_and_emits_delta() {
        let (mut host, results, _state) = join_host();
        host.bus_mut()
            .publish("left", Vec::new(), event(1, 0, 10.0));
        host.bus_mut()
            .publish("right", Vec::new(), event(1, 0, 14.0));
        host.bus_mut().publish("left", Vec::new(), event(2, 0, 5.0));
        // Key 2 has no right side; key 3 has no left side.
        host.bus_mut()
            .publish("right", Vec::new(), event(3, 0, 7.0));
        host.pump_switchless(64);
        host.bus_mut()
            .publish("flush", Vec::new(), Publication::new());
        host.pump_switchless(64);
        let out = host.bus_mut().fetch_batch(results, 16);
        assert_eq!(out.len(), 1, "only key 1 matches both sides");
        match out[0].attributes.attrs[ATTR_VALUE] {
            Value::Float(delta) => assert!((delta - 4.0).abs() < 1e-12),
            _ => panic!("float delta"),
        }
    }

    #[test]
    fn min_watermark_waits_for_the_slow_side() {
        let (mut host, results, _state) = join_host();
        // The left side races two windows ahead; the right side has not
        // produced anything past window 0, so nothing may close yet.
        host.bus_mut().publish("left", Vec::new(), event(1, 0, 1.0));
        host.bus_mut()
            .publish("left", Vec::new(), event(1, 130_000, 1.0));
        host.bus_mut()
            .publish("right", Vec::new(), event(1, 0, 2.0));
        host.pump_switchless(64);
        assert!(host.bus_mut().fetch_batch(results, 16).is_empty());
        // The right side catching up closes window 0 with both sides in.
        host.bus_mut()
            .publish("right", Vec::new(), event(9, 130_000, 2.0));
        host.pump_switchless(64);
        let out = host.bus_mut().fetch_batch(results, 16);
        assert_eq!(out.len(), 1, "window 0 joined after both sides passed it");
        match out[0].attributes.attrs[ATTR_VALUE] {
            Value::Float(delta) => assert!((delta - 1.0).abs() < 1e-12),
            _ => panic!("float delta"),
        }
    }

    #[test]
    fn in_band_eos_cannot_overtake_queued_results() {
        // Regression: with batched delivery, a flush token on a separate
        // control topic is delivered after only `batch` messages of each
        // data topic — closing windows with partial state. The in-band
        // marker rides the data topic itself, so every queued result is
        // folded in before its lane seals.
        let (mut host, results, state) = join_host();
        host.set_delivery_batch(2);
        let keys = 16u64;
        for key in 0..keys {
            host.bus_mut()
                .publish("left", Vec::new(), event(key, 0, 1.0));
        }
        host.bus_mut().publish("left", Vec::new(), eos_marker());
        for key in 0..keys {
            host.bus_mut()
                .publish("right", Vec::new(), event(key, 0, 2.0));
        }
        host.bus_mut().publish("right", Vec::new(), eos_marker());
        host.pump_switchless(10_000);
        let out = host.bus_mut().fetch_batch(results, 64);
        assert_eq!(
            out.len(),
            keys as usize,
            "every key must survive batched delivery"
        );
        assert_eq!(state.lock().metrics.late_dropped, 0);
    }

    #[test]
    fn flush_fan_in_waits_for_every_upstream() {
        let state = OperatorState::shared(
            "join2",
            MemoryGeometry::sgx_v1(),
            OperatorState::default_storage(),
        );
        let cfg = JoinConfig {
            name: "join2".into(),
            left: "left".into(),
            right: "right".into(),
            output: "joined".into(),
            output_stream: 30,
            windows: WindowSpec::tumbling(60_000).unwrap(),
            flush_in: "flush".into(),
            flush_fan_in: 2,
            flush_out: None,
        };
        let mut host = ServiceHost::new(60_000);
        host.register(Box::new(TwoStreamJoin::new(cfg, state)));
        let results = host.bus_mut().subscribe("joined", None);
        host.bus_mut().publish("left", Vec::new(), event(1, 0, 1.0));
        host.bus_mut()
            .publish("right", Vec::new(), event(1, 0, 3.0));
        host.bus_mut()
            .publish("flush", Vec::new(), Publication::new());
        host.pump_switchless(64);
        assert!(
            host.bus_mut().fetch_batch(results, 16).is_empty(),
            "one token of two must not close"
        );
        host.bus_mut()
            .publish("flush", Vec::new(), Publication::new());
        host.pump_switchless(64);
        assert_eq!(host.bus_mut().fetch_batch(results, 16).len(), 1);
    }

    #[test]
    fn aggregator_forwards_its_marker_once() {
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
            windows: WindowSpec::tumbling(60_000).unwrap(),
            flush_in: "flush".into(),
            flush_out: Some("out".into()),
        };
        let mut host = ServiceHost::new(60_000);
        host.register(Box::new(WindowedAggregator::new(cfg, state)));
        let results = host.bus_mut().subscribe("out", None);
        host.bus_mut()
            .publish("in", Vec::new(), event(4, 10_000, 5.0));
        for _ in 0..2 {
            host.bus_mut()
                .publish("flush", Vec::new(), Publication::new());
        }
        host.bus_mut().publish("in", Vec::new(), eos_marker());
        host.pump_switchless(64);
        let out = host.bus_mut().fetch_batch(results, 16);
        let markers: Vec<bool> = out.iter().map(|m| is_eos(&m.attributes)).collect();
        assert_eq!(markers, [false, true], "the result, then one marker");
    }
}
