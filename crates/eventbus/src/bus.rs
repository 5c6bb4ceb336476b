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
use securecloud_telemetry::{Counter, Gauge, Histogram, Telemetry, TraceContext};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Registry name of the backpressure-refusal counter. Exported so scaling
/// policies can look up the bus's live handle instead of repeating the
/// string.
pub const METRIC_BACKPRESSURED: &str = "securecloud_bus_backpressured_total";
/// Registry name of the dead-letter-queue depth gauge.
pub const METRIC_DEAD_LETTER_DEPTH: &str = "securecloud_bus_dead_letter_depth";
/// Registry name of the publish→ack latency histogram (virtual ms).
pub const METRIC_PUBLISH_TO_ACK_MS: &str = "securecloud_bus_publish_to_ack_ms";
/// Registry name of the wasted-fetch counter: fetches that polled an empty
/// queue. The switchless delivery loop ([`crate::service::ServiceHost`])
/// consults the bus's ready set instead of polling, so this stays ~0 there.
pub const METRIC_WASTED_FETCHES: &str = "securecloud_bus_wasted_fetches_total";

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
    /// Topic it was published to.
    pub topic: String,
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

/// Why a publication (or batch) was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PublishError {
    /// Admitting the publication would push a matching subscriber's queue
    /// past its configured depth limit. Nothing was enqueued — admission is
    /// all-or-nothing, so the publisher can retry the whole batch after
    /// draining.
    Backpressure {
        /// The subscriber whose queue is full.
        subscriber: SubscriberId,
        /// Its current queue depth.
        depth: usize,
        /// The configured limit it would exceed.
        limit: usize,
    },
}

impl fmt::Display for PublishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PublishError::Backpressure {
                subscriber,
                depth,
                limit,
            } => write!(
                f,
                "backpressure: subscriber s{} queue depth {depth} would exceed limit {limit}",
                subscriber.0
            ),
        }
    }
}

impl std::error::Error for PublishError {}

/// Bus statistics snapshot. All counters saturate at `u64::MAX` — a
/// runaway counter pegs rather than wrapping back to small values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Messages published.
    pub published: u64,
    /// Deliveries (including redeliveries).
    pub delivered: u64,
    /// Redeliveries after lease expiry or nack.
    pub redelivered: u64,
    /// Acknowledgements.
    pub acked: u64,
    /// Publications that matched no subscriber.
    pub dropped: u64,
    /// Messages moved to the dead-letter queue after exhausting their
    /// retry budget.
    pub dead_lettered: u64,
    /// Negative acknowledgements received.
    pub nacked: u64,
    /// Publications (or whole batches) refused for backpressure.
    pub backpressured: u64,
    /// Fetches that polled an empty queue (event-driven consumers keep
    /// this at zero by consulting [`EventBus::ready_subscribers`]).
    pub wasted_fetches: u64,
}

/// The bus's live metric handles. These are the single source of truth:
/// [`EventBus::stats`] reads them, and [`EventBus::set_telemetry`] adopts
/// the very same handles into the shared registry for export.
#[derive(Debug, Clone, Default)]
struct BusMetrics {
    published: Counter,
    delivered: Counter,
    redelivered: Counter,
    acked: Counter,
    dropped: Counter,
    dead_lettered: Counter,
    nacked: Counter,
    backpressured: Counter,
    wasted_fetches: Counter,
    dead_letter_depth: Gauge,
    publish_to_ack_ms: Histogram,
}

impl BusMetrics {
    fn adopt_into(&self, telemetry: &Telemetry) {
        let registry = telemetry.registry();
        registry.adopt_counter("securecloud_bus_published_total", &[], &self.published);
        registry.adopt_counter("securecloud_bus_delivered_total", &[], &self.delivered);
        registry.adopt_counter("securecloud_bus_redelivered_total", &[], &self.redelivered);
        registry.adopt_counter("securecloud_bus_acked_total", &[], &self.acked);
        registry.adopt_counter("securecloud_bus_dropped_total", &[], &self.dropped);
        registry.adopt_counter(
            "securecloud_bus_dead_lettered_total",
            &[],
            &self.dead_lettered,
        );
        registry.adopt_counter("securecloud_bus_nacked_total", &[], &self.nacked);
        registry.adopt_counter(METRIC_BACKPRESSURED, &[], &self.backpressured);
        registry.adopt_counter(METRIC_WASTED_FETCHES, &[], &self.wasted_fetches);
        registry.adopt_gauge(METRIC_DEAD_LETTER_DEPTH, &[], &self.dead_letter_depth);
        registry.adopt_histogram(METRIC_PUBLISH_TO_ACK_MS, &[], &self.publish_to_ack_ms);
    }
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
    topic: String,
    filter: Option<Subscription>,
    queue: VecDeque<Message>,
    leased: BTreeMap<MessageId, (Message, u64)>, // message, lease expiry
    /// Per-subscriber queue-depth cap; overrides the bus-wide default.
    queue_limit: Option<usize>,
}

/// The event bus connecting micro-services (paper Figure 1).
#[derive(Debug)]
pub struct EventBus {
    subscribers: BTreeMap<SubscriberId, SubscriberState>,
    by_topic: HashMap<String, Vec<SubscriberId>>,
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
    /// Bus-wide default queue-depth limit enforced by `publish_batch`'s
    /// admission check. `None` = unbounded.
    queue_limit: Option<usize>,
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
            queue_limit: None,
            dead: Vec::new(),
            injector: None,
            telemetry: None,
        }
    }

    /// Attaches shared telemetry: the bus's live counters are adopted into
    /// the registry, dead-letter events become trace events, and
    /// [`EventBus::advance`] publishes the bus clock to the virtual clock.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.metrics.adopt_into(&telemetry);
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

    /// Sets the bus-wide default queue-depth limit [`EventBus::publish_batch`]
    /// enforces. `None` (the default) admits everything.
    pub fn set_queue_limit(&mut self, limit: Option<usize>) {
        self.queue_limit = limit;
    }

    /// Overrides the queue-depth limit for one subscriber (takes precedence
    /// over the bus-wide default). Returns whether the subscriber exists.
    pub fn set_subscriber_queue_limit(
        &mut self,
        subscriber: SubscriberId,
        limit: Option<usize>,
    ) -> bool {
        match self.subscribers.get_mut(&subscriber) {
            Some(state) => {
                state.queue_limit = limit;
                true
            }
            None => false,
        }
    }

    /// The dead-letter queue, in parking order.
    #[must_use]
    pub fn dead_letters(&self) -> &[DeadLetter] {
        &self.dead
    }

    /// Drains the dead-letter queue (e.g. to reprocess after a fix).
    pub fn take_dead_letters(&mut self) -> Vec<DeadLetter> {
        self.metrics.dead_letter_depth.set(0);
        std::mem::take(&mut self.dead)
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
        BusStats {
            published: self.metrics.published.value(),
            delivered: self.metrics.delivered.value(),
            redelivered: self.metrics.redelivered.value(),
            acked: self.metrics.acked.value(),
            dropped: self.metrics.dropped.value(),
            dead_lettered: self.metrics.dead_lettered.value(),
            nacked: self.metrics.nacked.value(),
            backpressured: self.metrics.backpressured.value(),
            wasted_fetches: self.metrics.wasted_fetches.value(),
        }
    }

    /// Subscribes to `topic`, optionally with a content filter evaluated
    /// against message attributes.
    pub fn subscribe(&mut self, topic: &str, filter: Option<Subscription>) -> SubscriberId {
        let id = SubscriberId(self.next_subscriber);
        self.next_subscriber += 1;
        self.subscribers.insert(
            id,
            SubscriberState {
                topic: topic.to_string(),
                filter,
                queue: VecDeque::new(),
                leased: BTreeMap::new(),
                queue_limit: None,
            },
        );
        self.by_topic.entry(topic.to_string()).or_default().push(id);
        id
    }

    /// Removes a subscriber; its queued and leased messages are dropped.
    pub fn unsubscribe(&mut self, id: SubscriberId) {
        if let Some(state) = self.subscribers.remove(&id) {
            if let Some(list) = self.by_topic.get_mut(&state.topic) {
                list.retain(|&s| s != id);
            }
        }
        self.ready.remove(&id);
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
    /// `attributes`. Returns the message id. No admission control: see
    /// [`EventBus::publish_with_ctx`].
    pub fn publish(&mut self, topic: &str, payload: Vec<u8>, attributes: Publication) -> MessageId {
        let ctx = self
            .telemetry
            .as_deref()
            .map_or_else(TraceContext::none, Telemetry::mint_root);
        self.publish_with_ctx(topic, payload, attributes, ctx)
    }

    /// Publishes a batch of `(payload, attributes)` pairs to `topic` with
    /// all-or-nothing admission: either every message is enqueued (ids
    /// returned in batch order, assigned consecutively) or — if admitting
    /// the whole batch would push any matching subscriber past its
    /// queue-depth limit — nothing is, and the publisher gets a typed
    /// backpressure error to retry after draining. A single message is a
    /// batch of one.
    ///
    /// With `ctx` the messages join the caller's trace (a service reacting
    /// to a delivery publishes downstream work under a child context);
    /// without, each message starts a trace of its own. Once admitted, a
    /// batch of N is observably identical to N [`EventBus::publish`] (or
    /// [`EventBus::publish_with_ctx`]) calls: same fan-out, same
    /// per-message published/dropped accounting, same ordering.
    ///
    /// # Errors
    /// [`PublishError::Backpressure`] when a matching subscriber cannot
    /// absorb its share of the batch.
    pub fn publish_batch(
        &mut self,
        topic: &str,
        batch: Vec<(Vec<u8>, Publication)>,
        ctx: Option<TraceContext>,
    ) -> Result<Vec<MessageId>, PublishError> {
        let attrs: Vec<&Publication> = batch.iter().map(|(_, a)| a).collect();
        self.admit(topic, &attrs)?;
        Ok(batch
            .into_iter()
            .map(|(payload, attributes)| match ctx {
                Some(ctx) => self.publish_with_ctx(topic, payload, attributes, ctx),
                None => self.publish(topic, payload, attributes),
            })
            .collect())
    }

    /// Checks that every matching subscriber can absorb its share of a
    /// batch with the given attribute sets, against its queue-depth limit
    /// (per-subscriber override, else the bus-wide default). Charges the
    /// backpressure counter on refusal.
    fn admit(&self, topic: &str, batch: &[&Publication]) -> Result<(), PublishError> {
        let Some(sub_ids) = self.by_topic.get(topic) else {
            return Ok(());
        };
        for &sub_id in sub_ids {
            let Some(state) = self.subscribers.get(&sub_id) else {
                continue;
            };
            let Some(limit) = state.queue_limit.or(self.queue_limit) else {
                continue;
            };
            let incoming = batch
                .iter()
                .filter(|attrs| state.filter.as_ref().is_none_or(|f| f.matches(attrs)))
                .count();
            if incoming > 0 && state.queue.len() + incoming > limit {
                self.metrics.backpressured.inc();
                return Err(PublishError::Backpressure {
                    subscriber: sub_id,
                    depth: state.queue.len(),
                    limit,
                });
            }
        }
        Ok(())
    }

    /// The fan-out every publication goes through: enqueues one message
    /// under the caller's causal context and opens its flow. Like
    /// [`EventBus::publish`] it admits unconditionally and cannot fail;
    /// `benchmark/src/workloads/plane.rs:186,316` pins both signatures.
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
        let mut matched = false;
        let subscriber_ids = self.by_topic.get(topic).cloned().unwrap_or_default();
        for sub_id in subscriber_ids {
            let Some(state) = self.subscribers.get_mut(&sub_id) else {
                continue;
            };
            let accepts = state.filter.as_ref().is_none_or(|f| f.matches(&attributes));
            if accepts {
                matched = true;
                self.ready.insert(sub_id);
                state.queue.push_back(Message {
                    id,
                    topic: topic.to_string(),
                    payload: payload.clone(),
                    attributes: attributes.clone(),
                    attempt: 0,
                    published_at_ms: self.now_ms,
                    ctx,
                });
            }
        }
        if !matched {
            self.metrics.dropped.inc();
        }
        id
    }

    /// Fetches the next message for `subscriber`, leasing it until acked or
    /// the lease expires.
    ///
    /// With a fault injector attached the delivery may be *lost* — the
    /// lease still starts, so the message comes back via lease expiry (an
    /// at-least-once loss, never a silent drop) — or *duplicated*, leaving
    /// an extra copy in the queue for a later fetch.
    pub fn fetch(&mut self, subscriber: SubscriberId) -> Option<Message> {
        let lease_until = self.now_ms + self.lease_ms;
        let fate = |id: MessageId, injector: &Option<Arc<FaultInjector>>| {
            injector
                .as_ref()
                .map_or(MessageFate::Deliver, |i| i.message_fate(id.0))
        };
        let injector = self.injector.clone();
        let state = self.subscribers.get_mut(&subscriber)?;
        let Some(mut message) = state.queue.pop_front() else {
            // Polled an empty queue: harmless, but the event-driven loop
            // exists precisely so this never happens.
            self.metrics.wasted_fetches.inc();
            return None;
        };
        message.attempt += 1;
        state
            .leased
            .insert(message.id, (message.clone(), lease_until));
        match fate(message.id, &injector) {
            MessageFate::Deliver => {}
            MessageFate::Lose => {
                // In-flight loss: the subscriber never sees this attempt;
                // the lease we just took expires and redelivers.
                if state.queue.is_empty() {
                    self.ready.remove(&subscriber);
                }
                return None;
            }
            MessageFate::Duplicate => {
                state.queue.push_back(message.clone());
            }
        }
        if state.queue.is_empty() {
            self.ready.remove(&subscriber);
        }
        self.metrics.delivered.inc();
        Some(message)
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

    /// Acknowledges a batch of leased messages; returns how many were
    /// actually leased (each ack is identical to [`EventBus::ack`]).
    pub fn ack_batch(&mut self, subscriber: SubscriberId, messages: &[MessageId]) -> usize {
        messages
            .iter()
            .filter(|&&id| self.ack(subscriber, id))
            .count()
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
                        t.event_ctx(
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
    fn unsubscribe_stops_delivery() {
        let mut bus = EventBus::new(1000);
        let s = bus.subscribe("t", None);
        bus.unsubscribe(s);
        bus.publish("t", b"x".to_vec(), Publication::new());
        assert_eq!(bus.fetch(s), None);
        assert_eq!(bus.stats().dropped, 1);
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
        assert_eq!(bus.take_dead_letters().len(), 1);
        assert!(bus.dead_letters().is_empty());
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
    fn publish_batch_matches_n_single_publishes() {
        // Same inputs through publish_batch and N publishes: identical
        // fan-out, ids, delivery order, contexts and stats — whether each
        // message roots its own trace or all join the caller's.
        let filter = Subscription::new(vec![Predicate::new("severity", Op::Ge, Value::Int(3))]);
        let inputs: Vec<(Vec<u8>, Publication)> =
            (0..6).map(|i| (vec![i as u8], attrs("pq", i))).collect();
        let traced_bus = || {
            let mut bus = EventBus::new(1000);
            let telemetry = Arc::new(Telemetry::new());
            telemetry.set_trace_seed(7);
            bus.set_telemetry(telemetry);
            bus
        };
        let parent = TraceContext {
            trace_id: 0xfeed,
            span_id: 0xbeef,
            parent_span_id: 0,
        };
        for ctx in [None, Some(parent)] {
            let mut single = traced_bus();
            let s1 = single.subscribe("t", Some(filter.clone()));
            let mut single_ids = Vec::new();
            for (payload, attributes) in inputs.clone() {
                single_ids.push(match ctx {
                    Some(ctx) => single.publish_with_ctx("t", payload, attributes, ctx),
                    None => single.publish("t", payload, attributes),
                });
            }

            let mut batched = traced_bus();
            let s2 = batched.subscribe("t", Some(filter.clone()));
            let batch_ids = batched.publish_batch("t", inputs.clone(), ctx).unwrap();

            assert_eq!(single_ids, batch_ids);
            assert_eq!(single.stats(), batched.stats());
            assert_eq!(single.backlog(s1), batched.backlog(s2));
            loop {
                let a = single.fetch(s1);
                let b = batched.fetch(s2);
                assert_eq!(a, b);
                let Some(m) = a else { break };
                assert_eq!(ctx.is_some(), m.ctx == parent, "caller's context kept");
                assert_eq!(single.ack(s1, m.id), batched.ack(s2, m.id));
            }
            assert_eq!(single.stats(), batched.stats());
        }
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
        let ids: Vec<MessageId> = first.iter().map(|m| m.id).collect();
        assert_eq!(bus.ack_batch(s, &ids), 3);
        assert_eq!(bus.ack_batch(s, &ids), 0, "double ack rejected");
        let rest = bus.fetch_batch(s, 10);
        assert_eq!(rest.len(), 2, "short batch when the queue drains");
        assert_eq!(bus.stats().delivered, 5);
    }

    #[test]
    fn backpressure_refuses_whole_batch() {
        let mut bus = EventBus::new(1000);
        bus.set_queue_limit(Some(4));
        let s = bus.subscribe("t", None);
        bus.publish("t", b"seed".to_vec(), Publication::new());
        let batch: Vec<(Vec<u8>, Publication)> =
            (0..4).map(|i| (vec![i], Publication::new())).collect();
        let err = bus.publish_batch("t", batch.clone(), None).unwrap_err();
        assert_eq!(
            err,
            PublishError::Backpressure {
                subscriber: s,
                depth: 1,
                limit: 4
            }
        );
        assert_eq!(bus.backlog(s), 1, "all-or-nothing: nothing was enqueued");
        assert_eq!(bus.stats().published, 1, "refused batch not counted");
        assert_eq!(bus.stats().backpressured, 1);
        assert!(err.to_string().contains("backpressure"));
        // Drain one message and the same batch fits exactly.
        let m = bus.fetch(s).unwrap();
        bus.ack(s, m.id);
        assert_eq!(bus.publish_batch("t", batch, None).unwrap().len(), 4);
        assert_eq!(bus.backlog(s), 4);
    }

    #[test]
    fn publish_batch_enforces_per_subscriber_override() {
        let one = |payload: &[u8], attributes| vec![(payload.to_vec(), attributes)];
        let mut bus = EventBus::new(1000);
        bus.set_queue_limit(Some(10));
        let tight = bus.subscribe("t", None);
        let roomy = bus.subscribe("t", None);
        assert!(bus.set_subscriber_queue_limit(tight, Some(1)));
        assert!(!bus.set_subscriber_queue_limit(SubscriberId(99), Some(1)));
        bus.publish_batch("t", one(b"a", Publication::new()), None)
            .unwrap();
        let err = bus
            .publish_batch("t", one(b"b", Publication::new()), None)
            .unwrap_err();
        assert!(matches!(
            err,
            PublishError::Backpressure {
                subscriber,
                depth: 1,
                limit: 1
            } if subscriber == tight
        ));
        assert_eq!(bus.backlog(roomy), 1, "refusal enqueues to no one");
        // A filtered-out subscriber at its limit never backpressures.
        let mut filtered_bus = EventBus::new(1000);
        let filtered = filtered_bus.subscribe(
            "t",
            Some(Subscription::new(vec![Predicate::new(
                "severity",
                Op::Ge,
                Value::Int(4),
            )])),
        );
        filtered_bus.set_subscriber_queue_limit(filtered, Some(0));
        filtered_bus
            .publish_batch("t", one(b"minor", attrs("pq", 1)), None)
            .unwrap();
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

        // Unsubscribing removes the subscriber from the ready set.
        bus.unsubscribe(b);
        assert_eq!(bus.ready_subscribers(), vec![a]);
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
