//! Property tests for the event bus's at-least-once delivery contract.

use proptest::prelude::*;
use securecloud_eventbus::bus::{EventBus, Message, SubscriberId};
use securecloud_eventbus::service::{MicroService, ServiceCtx, ServiceHost};
use securecloud_faults::{FaultInjector, FaultRates};
use securecloud_scbr::types::{Op, Predicate, Publication, Subscription, Value};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, Once};

/// What handlers saw, in order: (service, message id, attempt, attributes).
type Seen = Vec<(&'static str, u64, u32, Publication)>;

/// The payload of a handler's deliberate panic; the panic hook stays quiet
/// for it and reports every other panic as usual.
struct InjectedPanic;

fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let report = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<InjectedPanic>() {
                report(info);
            }
        }));
    });
}

/// Records every delivery, then panics on the chosen `(id, attempt)` pairs.
struct Recorder {
    name: &'static str,
    filter: Option<Subscription>,
    panic_on: Arc<BTreeSet<(u64, u32)>>,
    seen: Arc<Mutex<Seen>>,
}

impl MicroService for Recorder {
    fn name(&self) -> &str {
        self.name
    }

    fn subscriptions(&self) -> Vec<(String, Option<Subscription>)> {
        vec![("t".into(), self.filter.clone())]
    }

    fn handle(&mut self, message: &Message, _ctx: &mut ServiceCtx) {
        self.seen.lock().unwrap().push((
            self.name,
            message.id.0,
            message.attempt,
            message.attributes.clone(),
        ));
        if self.panic_on.contains(&(message.id.0, message.attempt)) {
            std::panic::panic_any(InjectedPanic);
        }
    }
}

/// `ServiceHost::pump_switchless` written from the public fetch/ack/nack
/// surface: each round fetches one batch per ready subscriber and settles
/// it message by message (quarantine never trips in the property below).
fn reference_pump(
    bus: &mut EventBus,
    services: &[(SubscriberId, &'static str)],
    batch: usize,
    max_rounds: usize,
    panic_on: &BTreeSet<(u64, u32)>,
    seen: &mut Seen,
) {
    for _ in 0..max_rounds {
        let ready = bus.ready_subscribers();
        if ready.is_empty() {
            break;
        }
        let mut round = 0;
        for subscriber in ready {
            let Some(&(_, name)) = services.iter().find(|(s, _)| *s == subscriber) else {
                continue;
            };
            for message in bus.fetch_batch(subscriber, batch) {
                round += 1;
                seen.push((name, message.id.0, message.attempt, message.attributes));
                if panic_on.contains(&(message.id.0, message.attempt)) {
                    bus.nack(subscriber, message.id);
                } else {
                    bus.ack(subscriber, message.id);
                }
            }
        }
        if round == 0 {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// The host's delivery loop is the fetch loop: under injected loss and
    /// duplication, handler panics, lease expiry and any batch size, the
    /// handlers see the same `(service, id, attempt, attributes)` sequence
    /// a reference pump over `fetch_batch`/`ack`/`nack` sees, and the bus
    /// ends with the same stats, dead letters and backlogs.
    #[test]
    fn host_delivery_equals_fetch_loop(
        waves in prop::collection::vec(1u64..6, 1..5),
        (loss, duplication) in (0u16..300, 0u16..400),
        batch in prop_oneof![Just(1usize), Just(2usize), Just(8usize), Just(64usize)],
        panic_on in prop::collection::vec((1u64..24, 1u32..4), 0..10),
        (max_attempts, threshold, max_rounds, seed) in
            (prop::option::of(1u32..5), 0i64..12, 1usize..6, any::<u64>()),
    ) {
        quiet_injected_panics();
        let lease = 100;
        let panic_on: Arc<BTreeSet<(u64, u32)>> = Arc::new(panic_on.into_iter().collect());
        let filter = Subscription::new(vec![Predicate::new("n", Op::Ge, Value::Int(threshold))]);
        let injector = || {
            let injector = Arc::new(FaultInjector::new(seed));
            injector.set_rates(FaultRates {
                message_loss_permille: loss,
                message_duplication_permille: duplication,
                ..FaultRates::default()
            });
            injector
        };

        let host_seen = Arc::new(Mutex::new(Seen::new()));
        let mut host = ServiceHost::new(lease);
        host.set_delivery_batch(batch);
        host.set_quarantine_after(u32::MAX);
        host.set_fault_injector(injector());
        host.bus_mut().set_max_attempts(max_attempts);
        for (name, filter) in [("all", None), ("filtered", Some(filter.clone()))] {
            host.register(Box::new(Recorder {
                name,
                filter,
                panic_on: Arc::clone(&panic_on),
                seen: Arc::clone(&host_seen),
            }));
        }

        let mut bus = EventBus::new(lease);
        bus.set_fault_injector(injector());
        bus.set_max_attempts(max_attempts);
        let services = [
            (bus.subscribe("t", None), "all"),
            (bus.subscribe("t", Some(filter)), "filtered"),
        ];
        let mut reference_seen = Seen::new();

        let mut n = 0i64;
        for wave in waves {
            for _ in 0..wave {
                let attributes = Publication::new().with("n", Value::Int(n));
                host.bus_mut().publish("t", vec![n as u8], attributes.clone());
                bus.publish("t", vec![n as u8], attributes);
                n += 1;
            }
            host.pump_switchless(max_rounds);
            reference_pump(&mut bus, &services, batch, max_rounds, &panic_on, &mut reference_seen);
            host.bus_mut().advance(lease);
            bus.advance(lease);
        }
        host.pump_switchless(usize::MAX);
        reference_pump(&mut bus, &services, batch, usize::MAX, &panic_on, &mut reference_seen);

        prop_assert_eq!(&*host_seen.lock().unwrap(), &reference_seen);
        prop_assert_eq!(host.bus().stats(), bus.stats());
        prop_assert_eq!(host.bus().dead_letters(), bus.dead_letters());
        for (subscriber, _) in services {
            prop_assert_eq!(host.bus().backlog(subscriber), bus.backlog(subscriber));
        }
    }
}

proptest! {
    /// Every published message is eventually delivered at least once to a
    /// single unfiltered subscriber, in publish order, regardless of an
    /// arbitrary ack/nack/crash pattern — and acked messages stop.
    #[test]
    fn at_least_once_under_arbitrary_consumer(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..16), 1..25),
        // 0 = ack, 1 = nack, 2 = drop (crash, lease expires)
        behaviours in prop::collection::vec(0u8..3, 1..25),
    ) {
        let lease = 100;
        let mut bus = EventBus::new(lease);
        let subscriber = bus.subscribe("t", None);
        for (i, payload) in payloads.iter().enumerate() {
            // Prefix the index so deliveries can be tracked even when the
            // generated payloads collide.
            let mut framed = (i as u64).to_le_bytes().to_vec();
            framed.extend_from_slice(payload);
            bus.publish("t", framed, Publication::new());
        }
        let mut delivered_at_least_once = vec![0u32; payloads.len()];
        let mut next_expected = 0usize;
        // Drive until everything is acked (bounded by a generous budget).
        let mut budget = payloads.len() * 20 + 50;
        let mut acked = 0usize;
        while acked < payloads.len() && budget > 0 {
            budget -= 1;
            match bus.fetch(subscriber) {
                Some(message) => {
                    let index =
                        u64::from_le_bytes(message.payload[..8].try_into().unwrap()) as usize;
                    prop_assert_eq!(&message.payload[8..], &payloads[index][..]);
                    delivered_at_least_once[index] += 1;
                    // First deliveries arrive in publish order.
                    if message.attempt == 1 {
                        prop_assert!(index >= next_expected);
                        next_expected = next_expected.max(index);
                    }
                    let behaviour = behaviours[index % behaviours.len()];
                    match behaviour {
                        0 => {
                            prop_assert!(bus.ack(subscriber, message.id));
                            acked += 1;
                        }
                        1 => {
                            prop_assert!(bus.nack(subscriber, message.id));
                        }
                        _ => { /* crash: no ack; lease will expire */ }
                    }
                }
                None => bus.advance(lease + 1),
            }
        }
        // Whatever the consumer did, every message was delivered at least
        // once (at-least-once), and permanently-unacked ones simply keep
        // their redelivery eligibility.
        for (index, &count) in delivered_at_least_once.iter().enumerate() {
            prop_assert!(
                count >= 1,
                "message {index} was never delivered (budget exhausted)"
            );
        }
        let stats = bus.stats();
        prop_assert_eq!(stats.published, payloads.len() as u64);
        prop_assert!(stats.delivered >= stats.acked);
    }

    /// A crashed consumer (fetch, never ack) gets every message back after
    /// the lease expires: one redelivery per message, nothing lost.
    #[test]
    fn lease_expiry_redelivers_everything(
        count in 1usize..30,
        lease in 1u64..1_000,
        overshoot in 0u64..100,
    ) {
        let mut bus = EventBus::new(lease);
        let subscriber = bus.subscribe("t", None);
        for i in 0..count {
            bus.publish("t", vec![i as u8], Publication::new());
        }
        // Consumer takes everything, then crashes before acking.
        let mut first_ids = Vec::new();
        while let Some(message) = bus.fetch(subscriber) {
            prop_assert_eq!(message.attempt, 1);
            first_ids.push(message.id);
        }
        prop_assert_eq!(first_ids.len(), count);
        prop_assert_eq!(bus.backlog(subscriber), 0);
        // Advancing to just before expiry redelivers nothing...
        if lease > 1 {
            bus.advance(lease - 1);
            prop_assert_eq!(bus.backlog(subscriber), 0);
            prop_assert_eq!(bus.stats().redelivered, 0);
        }
        // ...and past it, everything comes back exactly once, attempt 2.
        bus.advance(if lease > 1 { 1 + overshoot } else { lease + overshoot });
        prop_assert_eq!(bus.backlog(subscriber), count);
        prop_assert_eq!(bus.stats().redelivered, count as u64);
        let mut redelivered_ids = Vec::new();
        while let Some(message) = bus.fetch(subscriber) {
            prop_assert_eq!(message.attempt, 2);
            redelivered_ids.push(message.id);
            prop_assert!(bus.ack(subscriber, message.id));
        }
        redelivered_ids.sort();
        first_ids.sort();
        prop_assert_eq!(redelivered_ids, first_ids, "no loss, no spurious ids");
        prop_assert_eq!(bus.stats().acked, count as u64);
    }

    /// Nacked messages requeue (to the back) and redeliver with a bumped
    /// attempt counter until acked; within the retry budget nothing is
    /// lost, and beyond it everything lands in the dead-letter queue.
    #[test]
    fn nack_requeues_until_budget(
        count in 1usize..20,
        nacks_before_ack in 1u32..6,
        budget in 1u32..8,
    ) {
        let mut bus = EventBus::new(1_000);
        bus.set_max_attempts(Some(budget));
        let subscriber = bus.subscribe("t", None);
        for i in 0..count {
            bus.publish("t", vec![i as u8], Publication::new());
        }
        // Nack every message `nacks_before_ack` times, then ack.
        let mut acked = 0u64;
        let mut steps = count as u32 * (nacks_before_ack + 1) + 10;
        while let Some(message) = bus.fetch(subscriber) {
            prop_assert!(message.attempt <= budget);
            if message.attempt > nacks_before_ack {
                prop_assert!(bus.ack(subscriber, message.id));
                acked += 1;
            } else {
                prop_assert!(bus.nack(subscriber, message.id));
            }
            steps -= 1;
            prop_assert!(steps > 0, "bus kept redelivering past any budget");
        }
        let stats = bus.stats();
        if nacks_before_ack < budget {
            // Budget never bites: everything eventually acked, DLQ empty.
            prop_assert_eq!(acked, count as u64);
            prop_assert!(bus.dead_letters().is_empty());
            prop_assert_eq!(stats.redelivered, (count as u32 * nacks_before_ack) as u64);
        } else {
            // Budget exhausted before the consumer relented: every message
            // is parked in the DLQ at exactly `budget` attempts — none lost.
            prop_assert_eq!(acked, 0);
            prop_assert_eq!(bus.dead_letters().len(), count);
            prop_assert_eq!(stats.dead_lettered, count as u64);
            for dead in bus.dead_letters() {
                prop_assert_eq!(dead.message.attempt, budget);
                prop_assert_eq!(dead.reason, "nack");
            }
        }
        prop_assert_eq!(stats.acked, acked);
    }

    /// Virtual time only moves forward and redelivery counts are sane.
    #[test]
    fn stats_invariants(
        publishes in 0u8..20,
        advances in prop::collection::vec(1u64..500, 0..10),
    ) {
        let mut bus = EventBus::new(50);
        let subscriber = bus.subscribe("t", None);
        for i in 0..publishes {
            bus.publish("t", vec![i], Publication::new());
        }
        // Fetch everything, ack nothing.
        while bus.fetch(subscriber).is_some() {}
        let mut last = bus.now_ms();
        for a in advances {
            bus.advance(a);
            prop_assert!(bus.now_ms() >= last);
            last = bus.now_ms();
        }
        let stats = bus.stats();
        prop_assert_eq!(stats.acked, 0);
        prop_assert!(stats.delivered <= stats.published + stats.redelivered);
    }
}
