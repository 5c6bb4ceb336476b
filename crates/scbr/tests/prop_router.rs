//! The sealed router has one publish path, and a single publication is a
//! batch of one. Batching changes what a frame carries and what the
//! enclave is charged, never what is delivered: twin routers holding the
//! same subscriptions, one sent N publications as one batch and the other
//! as N batches of one, hand every owner the same deliveries in the same
//! order, and the deliveries a subscriber's views count are the engine's
//! matches.
//!
//! Contents are compared as wire bytes: `Value::Float(NaN)` is not equal to
//! itself, but its encoding is.

mod common;

use common::arb_value;
use proptest::prelude::*;
use securecloud_crypto::wire::Wire;
use securecloud_scbr::secure::{ClientId, RouterClient, SecureRouter};
use securecloud_scbr::types::{Op, Predicate, Publication, Subscription};
use securecloud_sgx::enclave::{EnclaveConfig, Platform};

const OWNERS: usize = 3;

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    let op = prop_oneof![Just(Op::Eq), Just(Op::Lt), Just(Op::Ge)];
    (prop_oneof!["a", "b"], op, arb_value())
        .prop_map(|(attr, op, value)| Predicate::new(&attr, op, value))
}

/// Several subscriptions per owner over two attributes, so an owner's
/// subscriptions overlap.
fn arb_owner_subscriptions() -> impl Strategy<Value = Vec<Subscription>> {
    prop::collection::vec(
        prop::collection::vec(arb_predicate(), 1..3).prop_map(Subscription::new),
        2..6,
    )
}

fn arb_publication() -> impl Strategy<Value = Publication> {
    let value = || prop::option::of(arb_value());
    (value(), value()).prop_map(|(a, b)| {
        let mut publication = Publication::new();
        for (attr, value) in [("a", a), ("b", b)] {
            if let Some(value) = value {
                publication = publication.with(attr, value);
            }
        }
        publication
    })
}

/// Routes `publications` in batches of `batch` through a fresh router
/// holding `subscriptions`. Returns each owner's deliveries as wire bytes,
/// the deliveries its views counted, the engine's match count, and whether
/// some frame carried a publication more than once.
fn route(
    subscriptions: &[Vec<Subscription>],
    publications: &[Publication],
    batch: usize,
) -> ([Vec<Vec<u8>>; OWNERS], usize, u64, bool) {
    let enclave = Platform::new()
        .launch(EnclaveConfig::new("scbr", b"router code"))
        .unwrap();
    let mut router = SecureRouter::new(enclave, Some("a"));
    let mut register = || {
        let mut client = RouterClient::new();
        let id = router.register(&client.public_key());
        client.complete_exchange(&router.public_key());
        (id, client)
    };
    let (publisher_id, mut publisher) = register();
    let mut owners: Vec<(ClientId, RouterClient)> = (0..OWNERS).map(|_| register()).collect();
    for ((id, client), subscriptions) in owners.iter_mut().zip(subscriptions) {
        for subscription in subscriptions {
            let sealed = client.seal_subscription(subscription).unwrap();
            router.subscribe_sealed(*id, &sealed).unwrap();
        }
    }

    let matches_before = router.stats().matches;
    let mut deliveries: [Vec<Vec<u8>>; OWNERS] = Default::default();
    let (mut counted, mut repeats) = (0, false);
    for chunk in publications.chunks(batch) {
        let sealed = publisher.seal_publication_batch(chunk).unwrap();
        for (owner, frame) in router.publish_sealed_batch(publisher_id, &sealed).unwrap() {
            let at = owners.iter().position(|(id, _)| *id == owner).unwrap();
            let view = owners[at].1.open_notification_batch(&frame).unwrap();
            counted += view.len();
            repeats |= view.len() > view.distinct();
            deliveries[at].extend(view.into_iter().map(|p| p.to_wire()));
        }
    }
    let matches = router.stats().matches - matches_before;
    (deliveries, counted, matches, repeats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Each owner's subscriptions are random and overlap. Owner 0 also
    /// holds two subscriptions without predicates, which match every
    /// publication, so each of its frames carries multiplicities of 2 or
    /// more.
    #[test]
    fn batch_matching_equals_single_matching(
        (mut first, second, third) in (
            arb_owner_subscriptions(),
            arb_owner_subscriptions(),
            arb_owner_subscriptions(),
        ),
        publications in prop::collection::vec(arb_publication(), 1..12),
    ) {
        first.extend([Subscription::new(Vec::new()), Subscription::new(Vec::new())]);
        let subscriptions = [first, second, third];

        let (batched, batch_counted, batch_matches, batch_repeats) =
            route(&subscriptions, &publications, publications.len());
        let (singles, single_counted, single_matches, single_repeats) =
            route(&subscriptions, &publications, 1);
        prop_assert!(batch_repeats && single_repeats);
        prop_assert_eq!(&batched, &singles);
        prop_assert_eq!(batch_counted as u64, batch_matches);
        prop_assert_eq!(single_counted as u64, single_matches);
        prop_assert_eq!(batch_matches, single_matches);
    }
}
