//! The event bus: topics, content filters, leases, and redelivery.
//!
//! The bus implements *at-least-once* delivery with a lease/ack protocol:
//! a fetched message is leased to the subscriber; if it is not acknowledged
//! before the lease expires (crash, slow consumer), the bus redelivers it.
//! Subscribers may attach an SCBR [`Subscription`] as a content filter, so
//! the bus doubles as the "secure hook-up" between micro-services (§V-B).
//!
//! Time is virtual: the application (or the simulation harness) advances it
//! with [`EventBus::advance`].
//!
//! Two robustness features bound the at-least-once loop:
//!
//! * a **retry budget** ([`EventBus::set_max_attempts`]): a message that has
//!   been delivered that many times and still comes back (nack or lease
//!   expiry) is moved to a per-bus **dead-letter queue**
//!   ([`EventBus::dead_letters`]) instead of being requeued forever;
//! * an optional **fault injector** ([`EventBus::set_fault_injector`]):
//!   fetched deliveries may be lost (the lease still starts, so expiry
//!   redelivers — losses never violate at-least-once) or duplicated
//!   (consumers dedup by [`MessageId`]).

use securecloud_faults::{FaultInjector, MessageFate};
use securecloud_scbr::types::{Publication, Subscription};
use securecloud_telemetry::{Telemetry, TraceContext};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// Registry name of the backpressure counter. The bus admits every
/// publication and never adds to it; a load driver reports overload here,
/// and scaling policies look up the live handle by this name.
pub const METRIC_BACKPRESSURED: &str = "securecloud_bus_backpressured_total";
/// Registry name of the dead-letter-queue depth gauge.
pub const METRIC_DEAD_LETTER_DEPTH: &str = "securecloud_bus_dead_letter_depth";
/// Registry name of the publish→ack latency histogram (virtual ms).
pub const METRIC_PUBLISH_TO_ACK_MS: &str = "securecloud_bus_publish_to_ack_ms";

/// Bus-assigned message identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId(pub u64);

/// Bus-assigned subscriber identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriberId(pub u64);

/// A message in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Unique id (stable across redeliveries).
    pub id: MessageId,
    /// Topic it was published to, interned once per topic at subscribe.
    pub topic: Arc<str>,
    /// Payload bytes (opaque to the bus; typically sealed).
    pub payload: Vec<u8>,
    /// Routable attributes evaluated against content filters.
    pub attributes: Publication,
    /// Delivery attempt counter (1 on first delivery).
    pub attempt: u32,
    /// Virtual time at which the message was published (for publish→ack
    /// latency accounting).
    pub published_at_ms: u64,
    /// Causal trace context minted at publish (all-zero when the bus has
    /// no telemetry attached). Stable across redeliveries, so every retry
    /// of a request folds into the same trace.
    pub ctx: TraceContext,
}

securecloud_telemetry::metric_set! {
    /// The bus's live metric handles, behind [`EventBus::stats`].
    struct BusMetrics {
        /// Messages published.
        published: Counter = "securecloud_bus_published_total",
        /// Deliveries (including redeliveries).
        delivered: Counter = "securecloud_bus_delivered_total",
        /// Redeliveries after lease expiry or nack.
        redelivered: Counter = "securecloud_bus_redelivered_total",
        /// Acknowledgements.
        acked: Counter = "securecloud_bus_acked_total",
        /// Publications that matched no subscriber.
        dropped: Counter = "securecloud_bus_dropped_total",
        /// Messages moved to the dead-letter queue after exhausting their
        /// retry budget.
        dead_lettered: Counter = "securecloud_bus_dead_lettered_total",
        /// Negative acknowledgements received.
        nacked: Counter = "securecloud_bus_nacked_total",
        /// Overload reported by load drivers; the bus itself never refuses.
        backpressured: Counter = METRIC_BACKPRESSURED,
        /// Fetches that polled an empty queue (event-driven consumers keep
        /// this at zero by consulting [`EventBus::ready_subscribers`]).
        wasted_fetches: Counter = "securecloud_bus_wasted_fetches_total",
        dead_letter_depth: Gauge = METRIC_DEAD_LETTER_DEPTH,
        publish_to_ack_ms: Histogram = METRIC_PUBLISH_TO_ACK_MS,
    }
    /// Bus statistics snapshot. All counters saturate at `u64::MAX` — a
    /// runaway counter pegs rather than wrapping back to small values.
    pub struct BusStats;
}

/// A message that exhausted its retry budget, parked for inspection.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadLetter {
    /// The subscriber that kept failing it.
    pub subscriber: SubscriberId,
    /// The message as of its final attempt.
    pub message: Message,
    /// Why it was parked (`"nack"` or `"lease-expired"`).
    pub reason: &'static str,
}

#[derive(Debug)]
struct SubscriberState {
    filter: Option<Subscription>,
    queue: VecDeque<Message>,
    leased: BTreeMap<MessageId, (Message, u64)>, // message, lease expiry
}

/// One delivery of a leased batch. Its consumer borrows the message from
/// the lease table, unless the delivery owns a copy because a duplicate
/// twin leased in the same batch displaced its entry.
pub(crate) type Delivery = (MessageId, Option<Message>);

/// The event bus connecting micro-services (paper Figure 1).
#[derive(Debug)]
pub struct EventBus {
    subscribers: BTreeMap<SubscriberId, SubscriberState>,
    by_topic: HashMap<Arc<str>, Vec<SubscriberId>>,
    /// Subscribers with at least one waiting (not leased) message. Kept
    /// exact at every queue mutation so event-driven consumers can ask
    /// "who has work?" without polling every queue; BTreeSet iteration
    /// order (ascending id) keeps the answer deterministic.
    ready: BTreeSet<SubscriberId>,
    now_ms: u64,
    lease_ms: u64,
    next_subscriber: u64,
    next_message: u64,
    metrics: BusMetrics,
    max_attempts: Option<u32>,
    dead: Vec<DeadLetter>,
    injector: Option<Arc<FaultInjector>>,
    telemetry: Option<Arc<Telemetry>>,
}

impl EventBus {
    /// Creates a bus with the given lease duration.
    #[must_use]
    pub fn new(lease_ms: u64) -> Self {
        EventBus {
            subscribers: BTreeMap::new(),
            by_topic: HashMap::new(),
            ready: BTreeSet::new(),
            now_ms: 0,
            lease_ms,
            next_subscriber: 1,
            next_message: 1,
            metrics: BusMetrics::default(),
            max_attempts: None,
            dead: Vec::new(),
            injector: None,
            telemetry: None,
        }
    }

    /// Attaches shared telemetry: the bus's live counters are adopted into
    /// the registry, dead-letter events become trace events, and
    /// [`EventBus::advance`] publishes the bus clock to the virtual clock.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.metrics.adopt_into(telemetry.registry(), &[]);
        self.telemetry = Some(telemetry);
    }

    /// Sets the per-message retry budget. A message whose `attempt` count
    /// has reached `max_attempts` when it comes back (nack or lease expiry)
    /// is dead-lettered instead of requeued. `None` (the default) retries
    /// forever.
    pub fn set_max_attempts(&mut self, max_attempts: Option<u32>) {
        self.max_attempts = max_attempts;
    }

    /// Attaches a fault injector that decides the fate of each fetched
    /// delivery (lose / duplicate / deliver).
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.injector = Some(injector);
    }

    /// The dead-letter queue, in parking order.
    #[must_use]
    pub fn dead_letters(&self) -> &[DeadLetter] {
        &self.dead
    }

    /// Parks a message in the dead-letter queue, with metrics and a trace
    /// event.
    fn dead_letter(
        subscriber: SubscriberId,
        message: Message,
        metrics: &BusMetrics,
        dead: &mut Vec<DeadLetter>,
        telemetry: Option<&Telemetry>,
        reason: &'static str,
    ) {
        metrics.dead_lettered.inc();
        metrics.dead_letter_depth.add(1);
        if let Some(t) = telemetry {
            t.event(
                "eventbus",
                "dead_letter",
                vec![
                    ("message", format!("m{}", message.id.0)),
                    ("subscriber", format!("s{}", subscriber.0)),
                    ("reason", reason.to_string()),
                ],
                TraceContext::none(),
            );
        }
        dead.push(DeadLetter {
            subscriber,
            message,
            reason,
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn park_or_requeue(
        state: &mut SubscriberState,
        ready: &mut BTreeSet<SubscriberId>,
        subscriber: SubscriberId,
        message: Message,
        max_attempts: Option<u32>,
        metrics: &BusMetrics,
        dead: &mut Vec<DeadLetter>,
        telemetry: Option<&Telemetry>,
        reason: &'static str,
    ) {
        if max_attempts.is_some_and(|max| message.attempt >= max) {
            Self::dead_letter(subscriber, message, metrics, dead, telemetry, reason);
        } else {
            metrics.redelivered.inc();
            // Requeue at the back: a message the consumer keeps rejecting
            // must not starve the rest of the queue.
            state.queue.push_back(message);
            ready.insert(subscriber);
        }
    }

    /// Current virtual time in milliseconds.
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Bus statistics, snapshotted from the live metric handles.
    #[must_use]
    pub fn stats(&self) -> BusStats {
        self.metrics.snapshot()
    }

    /// Subscribes to `topic`, optionally with a content filter evaluated
    /// against message attributes.
    pub fn subscribe(&mut self, topic: &str, filter: Option<Subscription>) -> SubscriberId {
        let id = SubscriberId(self.next_subscriber);
        self.next_subscriber += 1;
        let topic = match self.by_topic.get_key_value(topic) {
            Some((interned, _)) => Arc::clone(interned),
            None => Arc::from(topic),
        };
        self.by_topic.entry(topic).or_default().push(id);
        self.subscribers.insert(
            id,
            SubscriberState {
                filter,
                queue: VecDeque::new(),
                leased: BTreeMap::new(),
            },
        );
        id
    }

    /// Subscribers with at least one waiting (not leased) message, in
    /// ascending id order. Event-driven delivery loops iterate this instead
    /// of polling every subscriber's queue.
    #[must_use]
    pub fn ready_subscribers(&self) -> Vec<SubscriberId> {
        self.ready.iter().copied().collect()
    }

    /// Whether any subscriber has a waiting message.
    #[must_use]
    pub fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Publishes to `topic` under a fresh root context (when telemetry is
    /// attached), fanning out to every subscriber whose filter accepts
    /// `attributes`. Returns the message id.
    pub fn publish(&mut self, topic: &str, payload: Vec<u8>, attributes: Publication) -> MessageId {
        let ctx = self
            .telemetry
            .as_deref()
            .map_or_else(TraceContext::none, Telemetry::mint_root);
        self.publish_with_ctx(topic, payload, attributes, ctx)
    }

    /// The fan-out every publication goes through: enqueues one message
    /// under the caller's causal context and opens its flow. The bus admits
    /// every publication, so neither publish verb can fail;
    /// `benchmark/src/workloads/plane.rs:186,316` pins both signatures.
    /// Each accepting subscriber stores one copy: all but the last get a
    /// clone, and the last takes the message itself.
    pub fn publish_with_ctx(
        &mut self,
        topic: &str,
        payload: Vec<u8>,
        attributes: Publication,
        ctx: TraceContext,
    ) -> MessageId {
        let id = MessageId(self.next_message);
        self.next_message += 1;
        self.metrics.published.inc();
        if let Some(t) = &self.telemetry {
            if !ctx.is_none() {
                t.flow_start("eventbus", "publish", ctx);
            }
        }
        let Some((topic, subscriber_ids)) = self.by_topic.get_key_value(topic) else {
            self.metrics.dropped.inc();
            return id;
        };
        let message = Message {
            id,
            topic: Arc::clone(topic),
            payload,
            attributes,
            attempt: 0,
            published_at_ms: self.now_ms,
            ctx,
        };
        let (attrs, mut last) = (&message.attributes, None);
        for &sub_id in subscriber_ids {
            let Some(state) = self.subscribers.get(&sub_id) else {
                continue;
            };
            if state.filter.as_ref().is_none_or(|f| f.matches(attrs)) {
                self.ready.insert(sub_id);
                let earlier = last.replace(sub_id);
                if let Some(state) = earlier.and_then(|s| self.subscribers.get_mut(&s)) {
                    state.queue.push_back(message.clone());
                }
            }
        }
        match last.and_then(|s| self.subscribers.get_mut(&s)) {
            Some(state) => state.queue.push_back(message),
            None => self.metrics.dropped.inc(),
        }
        id
    }

    /// The one lease step of every delivery path: pops, bumps the attempt,
    /// draws the injector's fate, keeps the ready set exact and moves the
    /// message into the lease table uncopied. `None` if nothing waits; else
    /// the id, whether the delivery goes through (a lost one's lease expiry
    /// redelivers it), and the displaced entry of a duplicate's twin.
    fn lease(&mut self, subscriber: SubscriberId) -> Option<(MessageId, bool, Option<Message>)> {
        let lease_until = self.now_ms + self.lease_ms;
        let state = self.subscribers.get_mut(&subscriber)?;
        let Some(mut message) = state.queue.pop_front() else {
            // Polled an empty queue: harmless, but the event-driven loop
            // exists precisely so this never happens.
            self.metrics.wasted_fetches.inc();
            return None;
        };
        message.attempt += 1;
        let fate = self
            .injector
            .as_ref()
            .map_or(MessageFate::Deliver, |i| i.message_fate(message.id.0));
        if fate == MessageFate::Duplicate {
            state.queue.push_back(message.clone());
        }
        if state.queue.is_empty() {
            self.ready.remove(&subscriber);
        }
        let id = message.id;
        let displaced = state.leased.insert(id, (message, lease_until));
        Some((id, fate != MessageFate::Lose, displaced.map(|e| e.0)))
    }

    fn leased(&self, subscriber: SubscriberId, id: MessageId) -> Option<&Message> {
        Some(&self.subscribers.get(&subscriber)?.leased.get(&id)?.0)
    }

    /// Hands one delivery to its consumer and counts it as delivered: the
    /// owned copy if it has one, else the message borrowed from its lease.
    pub(crate) fn hand_over<'a>(
        &'a self,
        subscriber: SubscriberId,
        (id, owned): &'a Delivery,
    ) -> Option<&'a Message> {
        let message = owned.as_ref().or_else(|| self.leased(subscriber, *id))?;
        self.metrics.delivered.inc();
        Some(message)
    }

    /// Fetches the next message for `subscriber`, leasing it until acked or
    /// the lease expires. It returns a copy; the lease keeps the original.
    ///
    /// With a fault injector attached the delivery may be *lost* — the
    /// lease still starts, so the message comes back via lease expiry (an
    /// at-least-once loss, never a silent drop) — or *duplicated*, leaving
    /// an extra copy in the queue for a later fetch.
    pub fn fetch(&mut self, subscriber: SubscriberId) -> Option<Message> {
        let (id, delivered, _) = self.lease(subscriber)?;
        if !delivered {
            return None;
        }
        self.hand_over(subscriber, &(id, None)).cloned()
    }

    /// Leases up to `max` messages as [`EventBus::fetch_batch`] does, but
    /// copies none: each stays in the lease table for the consumer to
    /// borrow. Twin rule: when an injected duplicate's lease displaces its
    /// twin leased earlier in this batch, both deliveries own a copy, each
    /// as it was when leased, just as two fetches would have returned.
    pub(crate) fn lease_batch(&mut self, subscriber: SubscriberId, max: usize) -> Vec<Delivery> {
        let mut batch: Vec<Delivery> = Vec::new();
        for _ in 0..max {
            if self.backlog(subscriber) == 0 {
                break;
            }
            let Some((id, delivered, displaced)) = self.lease(subscriber) else {
                continue;
            };
            let owned = displaced.and_then(|twin| {
                let earlier = batch.iter_mut().find(|(d, o)| *d == id && o.is_none());
                if let Some((_, slot)) = earlier {
                    *slot = Some(twin);
                }
                self.leased(subscriber, id).cloned()
            });
            if delivered {
                batch.push((id, owned));
            }
        }
        batch
    }

    /// Puts deliveries their consumer never saw back at the front of the
    /// queue, in batch order (the order they were waiting in) and with their
    /// attempt restored, as if they had never been leased. Nothing is
    /// counted: not as nacked, redelivered or delivered.
    pub(crate) fn release(&mut self, subscriber: SubscriberId, rest: &[Delivery]) {
        let Some(state) = self.subscribers.get_mut(&subscriber) else {
            return;
        };
        for (id, _) in rest.iter().rev() {
            if let Some((mut message, _)) = state.leased.remove(id) {
                message.attempt -= 1;
                state.queue.push_front(message);
                self.ready.insert(subscriber);
            }
        }
    }

    /// Fetches up to `max` messages for `subscriber` in one call, leasing
    /// each exactly as [`EventBus::fetch`] would. Returns fewer than `max`
    /// when the queue drains first. Injected fates still apply per message
    /// (a lost delivery occupies a slot of the batch but is not returned —
    /// its lease expiry redelivers it later), so the loop always terminates
    /// after at most `max` fetch attempts.
    pub fn fetch_batch(&mut self, subscriber: SubscriberId, max: usize) -> Vec<Message> {
        let mut out = Vec::new();
        for _ in 0..max {
            if self.backlog(subscriber) == 0 {
                break;
            }
            if let Some(message) = self.fetch(subscriber) {
                out.push(message);
            }
        }
        out
    }

    /// Acknowledges a leased message; returns whether it was leased.
    pub fn ack(&mut self, subscriber: SubscriberId, message: MessageId) -> bool {
        let now_ms = self.now_ms;
        let Some(state) = self.subscribers.get_mut(&subscriber) else {
            return false;
        };
        match state.leased.remove(&message) {
            Some((msg, _)) => {
                self.metrics.acked.inc();
                let wait_ms = now_ms.saturating_sub(msg.published_at_ms);
                self.metrics.publish_to_ack_ms.observe(wait_ms);
                if let Some(t) = &self.telemetry {
                    if !msg.ctx.is_none() {
                        // Retroactive leaf span covering publish→ack: the
                        // wait is only known now, at settlement.
                        let leaf = t.mint_child(msg.ctx);
                        t.event(
                            "eventbus",
                            "publish_to_ack",
                            vec![
                                ("message", format!("m{}", msg.id.0)),
                                ("dur_ms", wait_ms.to_string()),
                            ],
                            leaf,
                        );
                        t.flow_finish("eventbus", "publish", msg.ctx);
                        t.note_exemplar("publish_to_ack", msg.ctx.trace_id, wait_ms);
                    }
                }
                true
            }
            None => false,
        }
    }

    /// Negative-acknowledges a leased message: immediate requeue, or
    /// dead-lettering once the retry budget is spent.
    pub fn nack(&mut self, subscriber: SubscriberId, message: MessageId) -> bool {
        let max_attempts = self.max_attempts;
        let Some(state) = self.subscribers.get_mut(&subscriber) else {
            return false;
        };
        match state.leased.remove(&message) {
            Some((msg, _)) => {
                self.metrics.nacked.inc();
                Self::park_or_requeue(
                    state,
                    &mut self.ready,
                    subscriber,
                    msg,
                    max_attempts,
                    &self.metrics,
                    &mut self.dead,
                    self.telemetry.as_deref(),
                    "nack",
                );
                true
            }
            None => false,
        }
    }

    /// Advances virtual time; expired leases are requeued for redelivery
    /// (or dead-lettered once the retry budget is spent).
    ///
    /// Redelivered messages are merged back into the queue in **original
    /// publish order** (ascending [`MessageId`] — ids are assigned
    /// monotonically at publish time): an expired message slots in ahead of
    /// every later-published message still waiting, so a crashed consumer's
    /// batch does not jump behind messages published after it. Only an
    /// explicit nack sends a message to the back of the queue
    /// (anti-starvation for poison messages).
    pub fn advance(&mut self, ms: u64) {
        self.now_ms += ms;
        let now = self.now_ms;
        if let Some(t) = &self.telemetry {
            t.clock().set_at_least_ms(now);
        }
        let max_attempts = self.max_attempts;
        for (&sub_id, state) in &mut self.subscribers {
            let expired: Vec<MessageId> = state
                .leased
                .iter()
                .filter(|(_, (_, expiry))| *expiry <= now)
                .map(|(&id, _)| id)
                .collect();
            if expired.is_empty() {
                continue;
            }
            // `expired` is in ascending id order (BTreeMap iteration), which
            // is publish order; keep that order through the partition below.
            let mut redeliver: Vec<Message> = Vec::new();
            for id in expired {
                let (message, _) = state.leased.remove(&id).expect("listed above");
                if max_attempts.is_some_and(|max| message.attempt >= max) {
                    Self::dead_letter(
                        sub_id,
                        message,
                        &self.metrics,
                        &mut self.dead,
                        self.telemetry.as_deref(),
                        "lease-expired",
                    );
                } else {
                    self.metrics.redelivered.inc();
                    redeliver.push(message);
                }
            }
            if redeliver.is_empty() {
                continue;
            }
            // Stable merge by ascending id: each redelivered message goes in
            // front of the first queued message published after it.
            let waiting = std::mem::take(&mut state.queue);
            let mut redeliver = redeliver.into_iter().peekable();
            for queued in waiting {
                while redeliver.peek().is_some_and(|m| m.id < queued.id) {
                    state.queue.push_back(redeliver.next().expect("peeked"));
                }
                state.queue.push_back(queued);
            }
            state.queue.extend(redeliver);
            self.ready.insert(sub_id);
        }
    }

    /// Messages waiting (not leased) for `subscriber`.
    #[must_use]
    pub fn backlog(&self, subscriber: SubscriberId) -> usize {
        self.subscribers
            .get(&subscriber)
            .map_or(0, |s| s.queue.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use securecloud_scbr::types::{Op, Predicate, Value};

    fn attrs(kind: &str, severity: i64) -> Publication {
        Publication::new()
            .with("kind", Value::Str(kind.into()))
            .with("severity", Value::Int(severity))
    }

    #[test]
    fn fan_out_and_ack() {
        let mut bus = EventBus::new(1000);
        let a = bus.subscribe("alerts", None);
        let b = bus.subscribe("alerts", None);
        let other = bus.subscribe("metrics", None);
        bus.publish("alerts", b"overvoltage".to_vec(), attrs("pq", 3));
        assert_eq!(bus.backlog(a), 1);
        assert_eq!(bus.backlog(b), 1);
        assert_eq!(bus.backlog(other), 0);
        let msg = bus.fetch(a).unwrap();
        assert_eq!(msg.payload, b"overvoltage");
        assert_eq!(msg.attempt, 1);
        assert!(bus.ack(a, msg.id));
        assert!(!bus.ack(a, msg.id), "double ack rejected");
        assert_eq!(bus.stats().acked, 1);
    }

    #[test]
    fn publish_stores_one_copy_per_accepting_subscriber() {
        let mut bus = EventBus::new(1000);
        let a = bus.subscribe("alerts", None);
        let filtered_out = bus.subscribe(
            "alerts",
            Some(Subscription::new(vec![Predicate::new(
                "severity",
                Op::Ge,
                Value::Int(4),
            )])),
        );
        let b = bus.subscribe("alerts", None);
        let original = attrs("pq", 3);
        bus.publish("alerts", b"sag".to_vec(), original.clone());
        let queued = |id| &bus.subscribers[&id].queue;
        assert_eq!((queued(a).len(), queued(b).len()), (1, 1));
        assert!(queued(filtered_out).is_empty());
        assert_eq!(queued(a)[0].attributes, original);
        assert_eq!(queued(b)[0].attributes, original);
        assert!(Arc::ptr_eq(&queued(a)[0].topic, &queued(b)[0].topic));
    }

    #[test]
    fn content_filter_selects() {
        let mut bus = EventBus::new(1000);
        let critical_only = bus.subscribe(
            "alerts",
            Some(Subscription::new(vec![Predicate::new(
                "severity",
                Op::Ge,
                Value::Int(4),
            )])),
        );
        bus.publish("alerts", b"minor".to_vec(), attrs("pq", 1));
        bus.publish("alerts", b"major".to_vec(), attrs("pq", 5));
        assert_eq!(bus.backlog(critical_only), 1);
        assert_eq!(bus.fetch(critical_only).unwrap().payload, b"major");
        assert_eq!(bus.stats().dropped, 1, "unmatched publication dropped");
    }

    #[test]
    fn lease_expiry_redelivers() {
        let mut bus = EventBus::new(500);
        let s = bus.subscribe("t", None);
        bus.publish("t", b"x".to_vec(), Publication::new());
        let m1 = bus.fetch(s).unwrap();
        assert_eq!(m1.attempt, 1);
        // Subscriber "crashes" — no ack. Lease expires.
        bus.advance(499);
        assert_eq!(bus.backlog(s), 0);
        bus.advance(1);
        assert_eq!(bus.backlog(s), 1);
        let m2 = bus.fetch(s).unwrap();
        assert_eq!(m2.id, m1.id);
        assert_eq!(m2.attempt, 2);
        assert!(bus.ack(s, m2.id));
        bus.advance(10_000);
        assert_eq!(bus.backlog(s), 0, "acked message never redelivered");
        assert_eq!(bus.stats().redelivered, 1);
    }

    #[test]
    fn nack_requeues_immediately() {
        let mut bus = EventBus::new(1000);
        let s = bus.subscribe("t", None);
        bus.publish("t", b"x".to_vec(), Publication::new());
        let m = bus.fetch(s).unwrap();
        assert!(bus.nack(s, m.id));
        assert_eq!(bus.backlog(s), 1);
        assert!(!bus.nack(s, m.id));
    }

    #[test]
    fn ordering_preserved_within_subscriber() {
        let mut bus = EventBus::new(1000);
        let s = bus.subscribe("t", None);
        for i in 0..5u8 {
            bus.publish("t", vec![i], Publication::new());
        }
        for i in 0..5u8 {
            let m = bus.fetch(s).unwrap();
            assert_eq!(m.payload, vec![i]);
            bus.ack(s, m.id);
        }
    }

    #[test]
    fn retry_budget_dead_letters_on_nack() {
        let mut bus = EventBus::new(1000);
        bus.set_max_attempts(Some(3));
        let s = bus.subscribe("t", None);
        bus.publish("t", b"poison".to_vec(), Publication::new());
        for expected_attempt in 1..=3 {
            let m = bus.fetch(s).unwrap();
            assert_eq!(m.attempt, expected_attempt);
            assert!(bus.nack(s, m.id));
        }
        // Third nack exhausted the budget: parked, not requeued.
        assert_eq!(bus.backlog(s), 0);
        assert_eq!(bus.fetch(s), None);
        let dead = bus.dead_letters();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].subscriber, s);
        assert_eq!(dead[0].message.payload, b"poison");
        assert_eq!(dead[0].message.attempt, 3);
        assert_eq!(dead[0].reason, "nack");
        assert_eq!(bus.stats().dead_lettered, 1);
        assert_eq!(bus.stats().redelivered, 2, "only the first two requeued");
    }

    #[test]
    fn retry_budget_dead_letters_on_lease_expiry() {
        let mut bus = EventBus::new(100);
        bus.set_max_attempts(Some(2));
        let s = bus.subscribe("t", None);
        bus.publish("t", b"x".to_vec(), Publication::new());
        bus.fetch(s).unwrap();
        bus.advance(100); // attempt 1 expires -> requeue
        bus.fetch(s).unwrap();
        bus.advance(100); // attempt 2 expires -> budget spent -> DLQ
        assert_eq!(bus.backlog(s), 0);
        assert_eq!(bus.dead_letters().len(), 1);
        assert_eq!(bus.dead_letters()[0].reason, "lease-expired");
    }

    #[test]
    fn injected_loss_recovers_via_lease_expiry() {
        use securecloud_faults::{FaultInjector, FaultRates};
        let mut bus = EventBus::new(100);
        let injector = std::sync::Arc::new(FaultInjector::new(11));
        injector.set_rates(FaultRates {
            message_loss_permille: 1000, // lose every delivery
            ..FaultRates::default()
        });
        bus.set_fault_injector(injector.clone());
        let s = bus.subscribe("t", None);
        bus.publish("t", b"x".to_vec(), Publication::new());
        assert_eq!(bus.fetch(s), None, "delivery lost in flight");
        assert_eq!(bus.backlog(s), 0, "but leased, not dropped");
        bus.advance(100);
        assert_eq!(bus.backlog(s), 1, "lease expiry recovers the loss");
        injector.set_rates(FaultRates::default());
        let m = bus.fetch(s).unwrap();
        assert_eq!(m.attempt, 2);
        assert!(bus.ack(s, m.id));
    }

    #[test]
    fn expired_redelivery_keeps_publish_order() {
        // Regression: interleave fetch / expire / fetch. m1 is fetched and
        // its lease expires while m2, m3 (published before the crash) and
        // m4 (published after) are still waiting. Redelivery must slot m1
        // back in front of them — the old push_back requeue yielded
        // m2, m3, m4, m1.
        let mut bus = EventBus::new(100);
        let s = bus.subscribe("t", None);
        bus.publish("t", b"m1".to_vec(), Publication::new());
        bus.publish("t", b"m2".to_vec(), Publication::new());
        bus.publish("t", b"m3".to_vec(), Publication::new());
        let m1 = bus.fetch(s).unwrap();
        assert_eq!(m1.payload, b"m1");
        bus.publish("t", b"m4".to_vec(), Publication::new());
        bus.advance(100); // m1's lease expires
        let mut order: Vec<Vec<u8>> = Vec::new();
        while let Some(m) = bus.fetch(s) {
            bus.ack(s, m.id);
            order.push(m.payload);
        }
        assert_eq!(
            order,
            vec![
                b"m1".to_vec(),
                b"m2".to_vec(),
                b"m3".to_vec(),
                b"m4".to_vec()
            ],
            "expired lease redelivers in original publish order"
        );
    }

    #[test]
    fn expired_batch_merges_between_waiting_messages() {
        // A leased batch (m1, m3) expires while m2 was never fetched and m4
        // arrived later: the merged queue is m1, m2, m3, m4.
        let mut bus = EventBus::new(100);
        let s = bus.subscribe("t", None);
        bus.publish("t", b"m1".to_vec(), Publication::new());
        bus.publish("t", b"m2".to_vec(), Publication::new());
        bus.publish("t", b"m3".to_vec(), Publication::new());
        let m1 = bus.fetch(s).unwrap();
        let m2 = bus.fetch(s).unwrap();
        let m3 = bus.fetch(s).unwrap();
        assert_eq!((&m1.payload[..], &m3.payload[..]), (&b"m1"[..], &b"m3"[..]));
        bus.ack(s, m2.id); // only the middle one was processed
        bus.publish("t", b"m4".to_vec(), Publication::new());
        bus.advance(100);
        let mut order: Vec<Vec<u8>> = Vec::new();
        while let Some(m) = bus.fetch(s) {
            bus.ack(s, m.id);
            order.push(m.payload);
        }
        assert_eq!(
            order,
            vec![b"m1".to_vec(), b"m3".to_vec(), b"m4".to_vec()],
            "expired batch keeps relative publish order around fresh messages"
        );
    }

    #[test]
    fn fetch_batch_leases_and_ack_batch_settles() {
        let mut bus = EventBus::new(1000);
        let s = bus.subscribe("t", None);
        for i in 0..5u8 {
            bus.publish("t", vec![i], Publication::new());
        }
        let first = bus.fetch_batch(s, 3);
        assert_eq!(first.len(), 3);
        assert_eq!(bus.backlog(s), 2);
        assert!(first.iter().all(|m| bus.ack(s, m.id)));
        assert!(
            !first.iter().any(|m| bus.ack(s, m.id)),
            "double ack rejected"
        );
        let rest = bus.fetch_batch(s, 10);
        assert_eq!(rest.len(), 2, "short batch when the queue drains");
        assert_eq!(bus.stats().delivered, 5);
    }

    #[test]
    fn publish_mints_context_and_ack_folds_wait_into_trace() {
        let mut bus = EventBus::new(1000);
        let telemetry = Arc::new(Telemetry::new());
        telemetry.set_trace_seed(7);
        bus.set_telemetry(Arc::clone(&telemetry));
        let s = bus.subscribe("t", None);
        bus.publish("t", b"x".to_vec(), Publication::new());
        bus.advance(25);
        let m = bus.fetch(s).unwrap();
        assert!(!m.ctx.is_none(), "telemetry-attached bus mints a root");
        assert!(bus.ack(s, m.id));
        assert_eq!(
            telemetry.exemplars("publish_to_ack"),
            vec![m.ctx.trace_id],
            "the acked trace becomes a cause-chain exemplar"
        );
        let report = telemetry.critical_path();
        assert_eq!(report.traces, 1);
        assert_eq!(report.total_self_ms, 25, "queue wait attributed causally");
        assert_eq!(report.categories[0].category, "eventbus");
        // A caller's context is kept, not replaced by a fresh root.
        let child = telemetry.mint_child(m.ctx);
        bus.publish_with_ctx("t", b"y".to_vec(), Publication::new(), child);
        assert_eq!(bus.fetch(s).unwrap().ctx, child);
    }

    #[test]
    fn untraced_bus_mints_nothing() {
        let mut bus = EventBus::new(1000);
        let s = bus.subscribe("t", None);
        bus.publish("t", b"x".to_vec(), Publication::new());
        let m = bus.fetch(s).unwrap();
        assert!(m.ctx.is_none());
        assert!(bus.ack(s, m.id));
    }

    #[test]
    fn ready_set_tracks_every_queue_mutation() {
        let mut bus = EventBus::new(100);
        let a = bus.subscribe("t", None);
        let b = bus.subscribe("t", None);
        assert!(!bus.has_ready());

        // Publish marks every matching subscriber ready, in id order.
        bus.publish("t", b"x".to_vec(), Publication::new());
        assert_eq!(bus.ready_subscribers(), vec![a, b]);

        // Draining a queue clears readiness for that subscriber only.
        let m = bus.fetch(a).unwrap();
        assert_eq!(bus.ready_subscribers(), vec![b]);

        // A nack requeues and restores readiness.
        assert!(bus.nack(a, m.id));
        assert_eq!(bus.ready_subscribers(), vec![a, b]);

        // Lease expiry re-readies the subscriber it redelivers to.
        let m = bus.fetch(a).unwrap();
        let _ = bus.fetch(b).unwrap();
        assert!(!bus.has_ready());
        drop(m);
        bus.advance(100);
        assert_eq!(bus.ready_subscribers(), vec![a, b]);
    }

    #[test]
    fn empty_fetch_counts_as_wasted() {
        let mut bus = EventBus::new(100);
        let s = bus.subscribe("t", None);
        assert_eq!(bus.fetch(s), None);
        assert_eq!(bus.stats().wasted_fetches, 1);
        bus.publish("t", b"x".to_vec(), Publication::new());
        let m = bus.fetch(s).unwrap();
        bus.ack(s, m.id);
        assert_eq!(bus.stats().wasted_fetches, 1, "useful fetches not counted");
        // An event-driven consumer checks readiness first and never polls dry.
        if bus.has_ready() {
            bus.fetch(s);
        }
        assert_eq!(bus.stats().wasted_fetches, 1);
    }

    #[test]
    fn injected_duplicate_delivers_same_id_twice() {
        use securecloud_faults::{FaultInjector, FaultRates};
        let mut bus = EventBus::new(1000);
        let injector = std::sync::Arc::new(FaultInjector::new(12));
        injector.set_rates(FaultRates {
            message_duplication_permille: 1000,
            ..FaultRates::default()
        });
        bus.set_fault_injector(injector.clone());
        let s = bus.subscribe("t", None);
        bus.publish("t", b"x".to_vec(), Publication::new());
        let first = bus.fetch(s).unwrap();
        assert_eq!(bus.backlog(s), 1, "duplicate queued");
        bus.ack(s, first.id);
        injector.set_rates(FaultRates::default());
        let dup = bus.fetch(s).unwrap();
        assert_eq!(dup.id, first.id, "consumers dedup by MessageId");
    }
}
