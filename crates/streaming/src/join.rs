//! Two-stream windowed inner join.
//!
//! [`TwoStreamJoin`] consumes two bus topics, accumulates each side into
//! its own state lane keyed by `(window, key)`, and — when a window
//! closes — pairs keys present on both sides and emits one joined result
//! per key. Unmatched keys are dropped (inner-join semantics).
//!
//! ## Why per-lane watermarks
//!
//! The join's inputs are usually *results* of upstream aggregators, whose
//! timestamps are window starts. The two upstreams advance in lockstep
//! over the same ingested data, but within one pump round the bus may
//! deliver one side's results for window *w + size* before the other
//! side's results for *w* (service registration order decides). Closing
//! on the *combined* max watermark could therefore seal a window with one
//! side missing. The join instead tracks one watermark per lane and
//! closes on their **minimum**: a window seals only once *both* sides
//! have produced results past its end, and since each side emits windows
//! in ascending order over a FIFO bus, both sides' data for the sealed
//! window has necessarily been folded in. Arrival interleaving therefore
//! cannot change results — the determinism argument of [`crate::window`]
//! extends through the join.
//!
//! End-of-stream: each upstream forwards an [`crate::operator::ATTR_EOS`]
//! marker **in-band on its own output topic**, behind its flushed
//! results. An in-band marker seals only its lane's watermark — the
//! min-closing rule above then guarantees no window seals before both
//! lanes' results are folded in. (A token on a separate control topic
//! cannot give that guarantee: the host delivers each subscription in
//! bounded batches, so a control-topic token can overtake data still
//! queued on the data topics. The `flush_in` topic remains for
//! force-closing a join directly, with `flush_fan_in` counting tokens.)

use securecloud_eventbus::bus::Message;
use securecloud_eventbus::service::{MicroService, ServiceCtx};
use securecloud_scbr::types::{Publication, Subscription, Value};
use std::collections::{BTreeMap, BTreeSet};

use crate::operator::{
    eos_marker, is_eos, StreamEvent, ATTR_COUNT, ATTR_KEY, ATTR_STREAM, ATTR_TIME, ATTR_VALUE,
};
use crate::state::SharedState;
use crate::window::WindowSpec;

/// Joined-result attribute: left-side window sum.
pub const ATTR_LEFT: &str = "l";
/// Joined-result attribute: right-side window sum.
pub const ATTR_RIGHT: &str = "r";

/// Configuration for a [`TwoStreamJoin`].
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

const LEFT_LANE: &str = "l";
const RIGHT_LANE: &str = "r";

/// The windowed inner-join micro-service.
pub struct TwoStreamJoin {
    cfg: JoinConfig,
    state: SharedState,
    watermark_left_ms: u64,
    watermark_right_ms: u64,
    flushes_seen: usize,
    eos_forwarded: bool,
    open: BTreeSet<u64>,
}

impl TwoStreamJoin {
    /// Builds the join over shared tiered state.
    #[must_use]
    pub fn new(cfg: JoinConfig, state: SharedState) -> Self {
        TwoStreamJoin {
            cfg,
            state,
            watermark_left_ms: 0,
            watermark_right_ms: 0,
            flushes_seen: 0,
            eos_forwarded: false,
            open: BTreeSet::new(),
        }
    }

    fn forward_eos_once(&mut self, ctx: &mut ServiceCtx) {
        if self.eos_forwarded {
            return;
        }
        if self.watermark_left_ms == u64::MAX && self.watermark_right_ms == u64::MAX {
            self.eos_forwarded = true;
            if let Some(downstream) = &self.cfg.flush_out {
                ctx.emit(downstream, Vec::new(), eos_marker());
            }
        }
    }

    fn watermark_ms(&self) -> u64 {
        self.watermark_left_ms.min(self.watermark_right_ms)
    }

    fn close_ready(&mut self, ctx: &mut ServiceCtx) {
        let watermark = self.watermark_ms();
        let closed: Vec<u64> = self
            .open
            .iter()
            .copied()
            .filter(|&w| self.cfg.windows.is_closed(w, watermark))
            .collect();
        for window_start in closed {
            self.open.remove(&window_start);
            let (left, right) = {
                let mut state = self.state.lock();
                let left = state.drain(LEFT_LANE, window_start);
                let right = state.drain(RIGHT_LANE, window_start);
                match (left, right) {
                    (Ok(left), Ok(right)) => (left, right),
                    _ => {
                        state.metrics.malformed += 1;
                        continue;
                    }
                }
            };
            let right: BTreeMap<u64, crate::state::Aggregate> = right.into_iter().collect();
            for (key, left_agg) in left {
                let Some(right_agg) = right.get(&key) else {
                    continue;
                };
                ctx.emit(
                    &self.cfg.output,
                    Vec::new(),
                    Publication::new()
                        .with(ATTR_STREAM, Value::Int(self.cfg.output_stream))
                        .with(ATTR_KEY, Value::Int(key as i64))
                        .with(ATTR_TIME, Value::Int(window_start as i64))
                        .with(ATTR_LEFT, Value::Float(left_agg.sum))
                        .with(ATTR_RIGHT, Value::Float(right_agg.sum))
                        // The delta convention: positive when the right
                        // side exceeds the left (e.g. metered-actual minus
                        // customer-reported = unbilled loss).
                        .with(ATTR_VALUE, Value::Float(right_agg.sum - left_agg.sum))
                        .with(
                            ATTR_COUNT,
                            Value::Int((left_agg.count + right_agg.count) as i64),
                        ),
                );
            }
        }
    }
}

impl MicroService for TwoStreamJoin {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn subscriptions(&self) -> Vec<(String, Option<Subscription>)> {
        vec![
            (self.cfg.left.clone(), None),
            (self.cfg.right.clone(), None),
            (self.cfg.flush_in.clone(), None),
        ]
    }

    fn handle(&mut self, message: &Message, ctx: &mut ServiceCtx) {
        if *message.topic == *self.cfg.flush_in {
            self.flushes_seen += 1;
            if self.flushes_seen < self.cfg.flush_fan_in {
                return;
            }
            self.watermark_left_ms = u64::MAX;
            self.watermark_right_ms = u64::MAX;
            self.close_ready(ctx);
            self.forward_eos_once(ctx);
            return;
        }
        let lane = if *message.topic == *self.cfg.left {
            LEFT_LANE
        } else {
            RIGHT_LANE
        };
        if is_eos(&message.attributes) {
            // In-band end-of-stream: seals this lane only. The other
            // lane's results may still be queued behind its own marker,
            // and the min-watermark rule keeps windows open for them.
            if lane == LEFT_LANE {
                self.watermark_left_ms = u64::MAX;
            } else {
                self.watermark_right_ms = u64::MAX;
            }
            self.close_ready(ctx);
            self.forward_eos_once(ctx);
            return;
        }
        let event = match StreamEvent::from_publication(&message.attributes, ATTR_KEY) {
            Ok(event) => event,
            Err(_) => {
                self.state.lock().metrics.malformed += 1;
                return;
            }
        };
        if self.cfg.windows.is_late(event.t_ms, self.watermark_ms()) {
            self.state.lock().metrics.late_dropped += 1;
            return;
        }
        for window_start in self.cfg.windows.assign(event.t_ms) {
            if self
                .cfg
                .windows
                .is_closed(window_start, self.watermark_ms())
            {
                continue;
            }
            let mut state = self.state.lock();
            if state
                .observe(lane, window_start, event.key, event.value)
                .is_err()
            {
                state.metrics.malformed += 1;
                continue;
            }
            drop(state);
            self.open.insert(window_start);
        }
        if lane == LEFT_LANE {
            self.watermark_left_ms = self.watermark_left_ms.max(event.t_ms);
        } else {
            self.watermark_right_ms = self.watermark_right_ms.max(event.t_ms);
        }
        self.close_ready(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::OperatorState;
    use securecloud_eventbus::service::ServiceHost;
    use securecloud_sgx::costs::MemoryGeometry;

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

    fn event(key: u64, t_ms: u64, value: f64) -> Publication {
        StreamEvent { key, t_ms, value }.publication(1)
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
}
