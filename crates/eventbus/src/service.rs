//! The micro-service framework: services wired together by the event bus
//! (paper Figure 1: "applications consist of a set of micro-services
//! connected by an event bus").
//!
//! Service handlers are isolated: a panicking handler is caught, its
//! message is nacked (so the bus redelivers or dead-letters it — never
//! acked as if handled), and its emitted events are discarded. A service
//! that panics on several consecutive deliveries is **quarantined** — it
//! stops receiving messages until an operator intervenes, the same
//! containment the container engine applies to crash-looping enclaves.

use crate::bus::{EventBus, Message, SubscriberId};
use securecloud_faults::FaultInjector;
use securecloud_scbr::types::{Publication, Subscription};
use securecloud_telemetry::{Telemetry, TraceContext};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Context handed to a service while handling a message.
#[derive(Debug, Default)]
pub struct ServiceCtx {
    outbox: Vec<(String, Vec<u8>, Publication)>,
}

impl ServiceCtx {
    /// Emits a new event to `topic`.
    pub fn emit(&mut self, topic: &str, payload: Vec<u8>, attributes: Publication) {
        self.outbox.push((topic.to_string(), payload, attributes));
    }
}

/// A micro-service: declares its subscriptions and handles messages.
pub trait MicroService {
    /// Service name (diagnostics).
    fn name(&self) -> &str;
    /// Topics (with optional content filters) this service consumes.
    fn subscriptions(&self) -> Vec<(String, Option<Subscription>)>;
    /// Handles one delivered message; emitted events go through `ctx`.
    fn handle(&mut self, message: &Message, ctx: &mut ServiceCtx);
}

struct Registered {
    service: Box<dyn MicroService>,
    subscriber_ids: Vec<SubscriberId>,
    consecutive_panics: u32,
    panic_next: bool,
    quarantined: bool,
}

/// Default number of consecutive handler panics before quarantine.
pub const DEFAULT_QUARANTINE_AFTER: u32 = 3;

/// Hosts a set of micro-services on one bus, pumping deliveries.
pub struct ServiceHost {
    bus: EventBus,
    services: Vec<Registered>,
    quarantine_after: u32,
    /// Messages fetched per ready subscription per pump round (1 = one at
    /// a time; larger values opt into batch delivery).
    delivery_batch: usize,
    injector: Option<Arc<FaultInjector>>,
    telemetry: Option<Arc<Telemetry>>,
}

impl std::fmt::Debug for ServiceHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHost")
            .field("services", &self.services.len())
            .finish_non_exhaustive()
    }
}

impl ServiceHost {
    /// Creates a host over a fresh bus with the given lease duration.
    #[must_use]
    pub fn new(lease_ms: u64) -> Self {
        ServiceHost {
            bus: EventBus::new(lease_ms),
            services: Vec::new(),
            quarantine_after: DEFAULT_QUARANTINE_AFTER,
            delivery_batch: 1,
            injector: None,
            telemetry: None,
        }
    }

    /// Opts services into batch delivery: each pump round fetches up to
    /// `batch` messages per ready subscription (clamped to at least one)
    /// instead of a single message. Per-message ack/nack/panic semantics
    /// are unchanged — a batch is simply the same messages with fewer
    /// pump rounds.
    pub fn set_delivery_batch(&mut self, batch: usize) {
        self.delivery_batch = batch.max(1);
    }

    /// The current batch-delivery size (1 = classic single delivery).
    #[must_use]
    pub fn delivery_batch(&self) -> usize {
        self.delivery_batch
    }

    /// Attaches shared telemetry to the host and its bus: handler panics
    /// and quarantines become counted trace events.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.bus.set_telemetry(telemetry.clone());
        self.telemetry = Some(telemetry);
    }

    /// Registers a service and subscribes it to its declared topics.
    pub fn register(&mut self, service: Box<dyn MicroService>) {
        let subscriber_ids = service
            .subscriptions()
            .into_iter()
            .map(|(topic, filter)| self.bus.subscribe(&topic, filter))
            .collect();
        self.services.push(Registered {
            service,
            subscriber_ids,
            consecutive_panics: 0,
            panic_next: false,
            quarantined: false,
        });
    }

    /// Sets how many consecutive panics quarantine a service.
    pub fn set_quarantine_after(&mut self, panics: u32) {
        self.quarantine_after = panics.max(1);
    }

    /// Attaches a fault injector: the bus consults it for message fates and
    /// the host records panic/quarantine events into its trace.
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.bus.set_fault_injector(injector.clone());
        self.injector = Some(injector);
    }

    /// Arms a one-shot injected panic in the named service's next delivery.
    /// Returns whether the service exists.
    pub fn inject_panic_next(&mut self, service: &str) -> bool {
        for registered in &mut self.services {
            if registered.service.name() == service {
                registered.panic_next = true;
                return true;
            }
        }
        false
    }

    /// Names of currently quarantined services, in registration order.
    #[must_use]
    pub fn quarantined_services(&self) -> Vec<&str> {
        self.services
            .iter()
            .filter(|r| r.quarantined)
            .map(|r| r.service.name())
            .collect()
    }

    /// Lifts a service's quarantine (operator intervention); returns
    /// whether the service existed and was quarantined.
    pub fn release_quarantine(&mut self, service: &str) -> bool {
        for registered in &mut self.services {
            if registered.service.name() == service && registered.quarantined {
                registered.quarantined = false;
                registered.consecutive_panics = 0;
                return true;
            }
        }
        false
    }

    /// Direct bus access (publishing external events, reading stats).
    pub fn bus_mut(&mut self) -> &mut EventBus {
        &mut self.bus
    }

    /// The bus, read-only.
    #[must_use]
    pub fn bus(&self) -> &EventBus {
        &self.bus
    }

    /// Delivers up to [`ServiceHost::delivery_batch`] messages to one
    /// `(service, subscription)` pair; returns the number processed
    /// (including attempts whose handler panicked).
    ///
    /// A message is acked only if its handler returns normally; a panic is
    /// caught, the message nacked (redelivery or dead-letter per the bus's
    /// retry budget), and the handler's emitted events discarded. If a
    /// service trips quarantine mid-batch, the rest of its batch is nacked
    /// back to the queue immediately rather than waiting out the lease.
    fn deliver_one_subscription(
        &mut self,
        service_idx: usize,
        sub_pos: usize,
        outbox: &mut Vec<(String, Vec<u8>, Publication, TraceContext)>,
    ) -> usize {
        let mut processed = 0;
        let batch_size = self.delivery_batch;
        let registered = &mut self.services[service_idx];
        if registered.quarantined {
            return 0;
        }
        let sub_id = registered.subscriber_ids[sub_pos];
        let mut batch = self.bus.fetch_batch(sub_id, batch_size).into_iter();
        for message in batch.by_ref() {
            processed += 1;
            let mut ctx = ServiceCtx::default();
            let force_panic = std::mem::take(&mut registered.panic_next);
            let service_name = registered.service.name().to_string();
            let service = &mut registered.service;
            // Traced deliveries get a handler span as a causal child
            // of the message's publish context; untraced messages
            // stay byte-identical to the pre-tracing stream.
            let span = match self.telemetry.as_deref() {
                Some(t) if !message.ctx.is_none() => Some(t.span(
                    "service",
                    "deliver",
                    vec![
                        ("service", service_name.clone()),
                        ("message", format!("m{}", message.id.0)),
                    ],
                    t.mint_child(message.ctx),
                )),
                _ => None,
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if force_panic {
                    panic!("injected service panic");
                }
                service.handle(&message, &mut ctx);
            }));
            drop(span);
            match outcome {
                Ok(()) => {
                    registered.consecutive_panics = 0;
                    self.bus.ack(sub_id, message.id);
                    outbox.extend(
                        ctx.outbox
                            .drain(..)
                            .map(|(topic, payload, attrs)| (topic, payload, attrs, message.ctx)),
                    );
                }
                Err(_) => {
                    registered.consecutive_panics += 1;
                    self.bus.nack(sub_id, message.id);
                    let name = registered.service.name();
                    if let Some(injector) = &self.injector {
                        injector.record(format!(
                            "service {name} panicked on m{} attempt {}",
                            message.id.0, message.attempt
                        ));
                    }
                    if let Some(t) = &self.telemetry {
                        t.registry()
                            .counter("securecloud_service_panics_total", &[("service", name)])
                            .inc();
                        t.event(
                            "eventbus",
                            "service_panic",
                            vec![
                                ("service", name.to_string()),
                                ("message", format!("m{}", message.id.0)),
                                ("attempt", message.attempt.to_string()),
                            ],
                            TraceContext::none(),
                        );
                    }
                    if registered.consecutive_panics >= self.quarantine_after {
                        registered.quarantined = true;
                        if let Some(injector) = &self.injector {
                            injector.record(format!("service {name} quarantined"));
                        }
                        if let Some(t) = &self.telemetry {
                            t.registry()
                                .counter(
                                    "securecloud_service_quarantines_total",
                                    &[("service", name)],
                                )
                                .inc();
                            t.event(
                                "eventbus",
                                "service_quarantined",
                                vec![("service", name.to_string())],
                                TraceContext::none(),
                            );
                        }
                    }
                }
            }
            if registered.quarantined {
                break;
            }
        }
        // A quarantine tripped mid-batch: hand the unprocessed rest
        // of the batch straight back to the queue.
        for rest in batch {
            self.bus.nack(sub_id, rest.id);
        }
        processed
    }

    /// Republishes handler emissions collected during a pump pass.
    fn flush_outbox(&mut self, outbox: Vec<(String, Vec<u8>, Publication, TraceContext)>) {
        for (topic, payload, attributes, parent) in outbox {
            // Downstream work a handler emitted in reaction to a traced
            // delivery continues that trace; everything else starts fresh.
            match self.telemetry.as_deref() {
                Some(t) if !parent.is_none() => {
                    let child = t.mint_child(parent);
                    self.bus
                        .publish_with_ctx(&topic, payload, attributes, child);
                }
                _ => {
                    self.bus.publish(&topic, payload, attributes);
                }
            }
        }
    }

    /// Finds which registered service owns a bus subscription.
    fn locate(&self, sub_id: SubscriberId) -> Option<(usize, usize)> {
        for (service_idx, registered) in self.services.iter().enumerate() {
            if let Some(sub_pos) = registered.subscriber_ids.iter().position(|&s| s == sub_id) {
                return Some((service_idx, sub_pos));
            }
        }
        None
    }

    /// The delivery loop: each round asks the bus which subscribers have
    /// waiting messages ([`EventBus::ready_subscribers`], ascending id, i.e.
    /// registration order) and delivers one batch to each — the host-side
    /// analogue of the switchless syscall plane, where completions wake
    /// exactly the parked task instead of every poller — then republishes
    /// what the handlers emitted. Runs until the ready set drains or
    /// `max_rounds` is reached; returns total messages processed.
    /// `pump_switchless(1)` is one delivery step.
    pub fn pump_switchless(&mut self, max_rounds: usize) -> usize {
        let mut total = 0;
        for _ in 0..max_rounds {
            let ready = self.bus.ready_subscribers();
            if ready.is_empty() {
                break;
            }
            let mut outbox = Vec::new();
            let mut round = 0;
            for sub_id in ready {
                let Some((service_idx, sub_pos)) = self.locate(sub_id) else {
                    continue;
                };
                round += self.deliver_one_subscription(service_idx, sub_pos, &mut outbox);
            }
            self.flush_outbox(outbox);
            total += round;
            // A round that moved nothing means every ready subscriber
            // belongs to a quarantined service: stop rather than spin.
            if round == 0 {
                break;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use securecloud_scbr::types::{Op, Predicate, Value};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Doubles every reading and republishes it.
    struct Doubler;
    impl MicroService for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }
        fn subscriptions(&self) -> Vec<(String, Option<Subscription>)> {
            vec![("readings".into(), None)]
        }
        fn handle(&mut self, message: &Message, ctx: &mut ServiceCtx) {
            let v = u64::from_le_bytes(message.payload[..8].try_into().unwrap());
            ctx.emit(
                "doubled",
                (v * 2).to_le_bytes().to_vec(),
                Publication::new().with("value", Value::Int((v * 2) as i64)),
            );
        }
    }

    /// Counts messages it receives.
    struct Counter {
        seen: Arc<AtomicU64>,
        filter: Option<Subscription>,
        topic: String,
    }
    impl MicroService for Counter {
        fn name(&self) -> &str {
            "counter"
        }
        fn subscriptions(&self) -> Vec<(String, Option<Subscription>)> {
            vec![(self.topic.clone(), self.filter.clone())]
        }
        fn handle(&mut self, _message: &Message, _ctx: &mut ServiceCtx) {
            self.seen.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn pipeline_of_services() {
        let mut host = ServiceHost::new(1000);
        let seen = Arc::new(AtomicU64::new(0));
        host.register(Box::new(Doubler));
        host.register(Box::new(Counter {
            seen: seen.clone(),
            filter: None,
            topic: "doubled".into(),
        }));
        host.bus_mut()
            .publish("readings", 21u64.to_le_bytes().to_vec(), Publication::new());
        let processed = host.pump_switchless(10);
        assert_eq!(processed, 2, "doubler then counter");
        assert_eq!(seen.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn filtered_service_sees_subset() {
        let mut host = ServiceHost::new(1000);
        let seen = Arc::new(AtomicU64::new(0));
        host.register(Box::new(Counter {
            seen: seen.clone(),
            filter: Some(Subscription::new(vec![Predicate::new(
                "value",
                Op::Ge,
                Value::Int(100),
            )])),
            topic: "doubled".into(),
        }));
        host.register(Box::new(Doubler));
        // 21*2=42 filtered out; 60*2=120 accepted.
        host.bus_mut()
            .publish("readings", 21u64.to_le_bytes().to_vec(), Publication::new());
        host.bus_mut()
            .publish("readings", 60u64.to_le_bytes().to_vec(), Publication::new());
        host.pump_switchless(10);
        assert_eq!(seen.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn batch_delivery_is_observably_single_delivery() {
        // The same workload at batch sizes 1, 8, 64 processes the same
        // messages with the same terminal stats — batching only collapses
        // pump iterations.
        let run = |batch: usize| {
            let mut host = ServiceHost::new(1000);
            let seen = Arc::new(AtomicU64::new(0));
            host.set_delivery_batch(batch);
            assert_eq!(host.delivery_batch(), batch.max(1));
            host.register(Box::new(Doubler));
            host.register(Box::new(Counter {
                seen: seen.clone(),
                filter: None,
                topic: "doubled".into(),
            }));
            for i in 0..10u64 {
                host.bus_mut()
                    .publish("readings", i.to_le_bytes().to_vec(), Publication::new());
            }
            let processed = host.pump_switchless(100);
            (processed, seen.load(Ordering::Relaxed), host.bus().stats())
        };
        let single = run(1);
        assert_eq!(single.1, 10);
        assert_eq!(single.2.wasted_fetches, 0, "the pump never polls dry");
        for batch in [8usize, 64] {
            assert_eq!(run(batch), single, "batch size {batch} diverged");
        }
    }

    #[test]
    fn quiet_host_stops() {
        let mut host = ServiceHost::new(1000);
        host.register(Box::new(Doubler));
        assert_eq!(host.pump_switchless(100), 0);
    }

    /// Panics on the first `failures` deliveries, then succeeds.
    struct Flaky {
        failures: u32,
        seen: Arc<AtomicU64>,
    }
    impl MicroService for Flaky {
        fn name(&self) -> &str {
            "flaky"
        }
        fn subscriptions(&self) -> Vec<(String, Option<Subscription>)> {
            vec![("work".into(), None)]
        }
        fn handle(&mut self, _message: &Message, ctx: &mut ServiceCtx) {
            ctx.emit("done", vec![], Publication::new());
            if self.failures > 0 {
                self.failures -= 1;
                panic!("flaky failure");
            }
            self.seen.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn silence_panics() {
        // catch_unwind still runs the global hook; keep test output clean.
        std::panic::set_hook(Box::new(|_| {}));
    }

    #[test]
    fn panicking_handler_is_nacked_and_retried() {
        silence_panics();
        let mut host = ServiceHost::new(1000);
        let seen = Arc::new(AtomicU64::new(0));
        host.register(Box::new(Flaky {
            failures: 1,
            seen: seen.clone(),
        }));
        host.bus_mut().publish("work", vec![], Publication::new());
        let processed = host.pump_switchless(10);
        // Attempt 1 panics (nack -> requeue), attempt 2 succeeds.
        assert_eq!(processed, 2);
        assert_eq!(seen.load(Ordering::Relaxed), 1);
        assert_eq!(host.bus().stats().acked, 1);
        assert_eq!(host.bus().stats().redelivered, 1);
        // The panicked attempt's emissions were discarded: only the
        // successful attempt published to "done" (which has no subscriber).
        assert_eq!(host.bus().stats().published, 2);
        assert!(host.quarantined_services().is_empty());
    }

    #[test]
    fn repeated_panics_quarantine_service() {
        silence_panics();
        let mut host = ServiceHost::new(1000);
        let seen = Arc::new(AtomicU64::new(0));
        host.register(Box::new(Flaky {
            failures: u32::MAX,
            seen: seen.clone(),
        }));
        host.bus_mut().set_max_attempts(Some(10));
        host.bus_mut().publish("work", vec![], Publication::new());
        let processed = host.pump_switchless(50);
        assert_eq!(processed, 3, "quarantined after 3 consecutive panics");
        assert_eq!(host.quarantined_services(), vec!["flaky"]);
        // The message stays queued for when the service is released.
        host.bus_mut().publish("work", vec![], Publication::new());
        assert_eq!(host.pump_switchless(10), 0, "quarantined service skipped");
        assert!(host.release_quarantine("flaky"));
        assert!(!host.release_quarantine("flaky"), "already released");
        assert!(host.pump_switchless(50) > 0);
    }

    #[test]
    fn switchless_pump_skips_quarantined_ready_subscribers() {
        silence_panics();
        let mut host = ServiceHost::new(1000);
        host.register(Box::new(Flaky {
            failures: u32::MAX,
            seen: Arc::new(AtomicU64::new(0)),
        }));
        host.bus_mut().publish("work", vec![], Publication::new());
        let processed = host.pump_switchless(100);
        assert_eq!(processed, 3, "quarantined after 3 consecutive panics");
        assert_eq!(host.quarantined_services(), vec!["flaky"]);
        // The message is still ready (requeued by the nacks) but its only
        // consumer is quarantined: the pump must terminate, not spin.
        assert!(host.bus().has_ready());
        assert_eq!(host.pump_switchless(100), 0);
    }

    #[test]
    fn injected_panic_and_budget_exhaustion_dead_letter() {
        silence_panics();
        let mut host = ServiceHost::new(1000);
        host.register(Box::new(Flaky {
            failures: u32::MAX,
            seen: Arc::new(AtomicU64::new(0)),
        }));
        host.set_quarantine_after(10);
        host.bus_mut().set_max_attempts(Some(2));
        assert!(host.inject_panic_next("flaky"));
        assert!(!host.inject_panic_next("nonexistent"));
        host.bus_mut()
            .publish("work", b"bad".to_vec(), Publication::new());
        host.pump_switchless(50);
        let dead = host.bus().dead_letters();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].message.payload, b"bad");
        assert_eq!(dead[0].message.attempt, 2);
    }
}
