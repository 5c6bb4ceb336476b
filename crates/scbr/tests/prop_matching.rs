//! Property-based tests for SCBR's core invariants: covering soundness,
//! index equivalence, and overlay location-transparency.

use proptest::prelude::*;
use securecloud_scbr::broker::{BrokerId, Overlay};
use securecloud_scbr::index::{MatchScratch, NaiveIndex, PosetIndex, SubscriptionIndex, VisitInfo};
use securecloud_scbr::types::{Op, Predicate, Publication, SubId, Subscription, Value};

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Eq),
        Just(Op::Lt),
        Just(Op::Le),
        Just(Op::Gt),
        Just(Op::Ge),
    ]
}

/// Values from every corner predicates compare over: small integers (so
/// predicates and publications collide), integers `f64` cannot tell apart,
/// floats including NaN, the infinities and the signed zeros, and strings.
fn arb_value() -> impl Strategy<Value = Value> {
    const TWO_53: i64 = 1 << 53;
    prop_oneof![
        (-20i64..20).prop_map(Value::Int),
        (-20i64..20).prop_map(Value::Int),
        (-3i64..4).prop_map(|d| Value::Int(TWO_53 + d)),
        (-3i64..4).prop_map(|d| Value::Int(-TWO_53 + d)),
        (0i64..3).prop_map(|d| Value::Int(i64::MAX - d)),
        (0i64..3).prop_map(|d| Value::Int(i64::MIN + d)),
        (-40i64..40).prop_map(|v| Value::Float(v as f64 / 2.0)),
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0),
            Just(0.0),
            Just((1u64 << 53) as f64),
        ]
        .prop_map(Value::Float),
        "[a-c]{0,2}".prop_map(Value::Str),
    ]
}

/// Predicates over `a`–`d`; several of one subscription may name the same
/// attribute, and no publication carries `d`.
fn arb_predicate() -> impl Strategy<Value = Predicate> {
    (prop_oneof!["a", "b", "c", "d"], arb_op(), arb_value())
        .prop_map(|(attr, op, value)| Predicate::new(&attr, op, value))
}

fn arb_subscription() -> impl Strategy<Value = Subscription> {
    prop::collection::vec(arb_predicate(), 0..5).prop_map(Subscription::new)
}

/// Publications over `a`–`c` and `e`: each attribute is missing one time in
/// four, and no subscription names `e`.
fn arb_publication() -> impl Strategy<Value = Publication> {
    prop::array::uniform4(prop::option::of(arb_value())).prop_map(|values| {
        let mut publication = Publication::new();
        for (attr, value) in ["a", "b", "c", "e"].into_iter().zip(values) {
            if let Some(value) = value {
                publication = publication.with(attr, value);
            }
        }
        publication
    })
}

/// One matching pass: the visit trace and the match list.
fn visit(
    index: &impl SubscriptionIndex,
    publication: &Publication,
) -> (Vec<VisitInfo>, Vec<SubId>) {
    let mut scratch = MatchScratch::default();
    index.match_publication(publication, &mut scratch);
    (scratch.trace, scratch.matched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Covering soundness: if `x` covers `y`, every publication matching
    /// `y` must match `x`. (The converse need not hold — covers() is
    /// conservative.)
    #[test]
    fn covers_implies_match_implication(
        x in arb_subscription(),
        y in arb_subscription(),
        publications in prop::collection::vec(arb_publication(), 0..30),
    ) {
        if x.covers(&y) {
            for publication in &publications {
                if y.matches(publication) {
                    prop_assert!(
                        x.matches(publication),
                        "covering violated: {x:?} claims to cover {y:?} but misses {publication:?}"
                    );
                }
            }
        }
    }

    /// Covering is transitive, and reflexive except over string ranges,
    /// which are opaque to it (they neither cover nor are covered).
    #[test]
    fn covers_is_a_preorder(
        x in arb_subscription(),
        y in arb_subscription(),
        z in arb_subscription(),
    ) {
        let string_range = |p: &Predicate| matches!(p.value, Value::Str(_)) && p.op != Op::Eq;
        if !x.predicates.iter().any(string_range) {
            prop_assert!(x.covers(&x), "reflexivity");
        }
        if x.covers(&y) && y.covers(&z) {
            prop_assert!(x.covers(&z), "transitivity");
        }
    }

    /// The compiled containment forest against the oracle, with and without
    /// partition groups: every node it visits reports exactly what the
    /// linear scan computed on the original `Subscription` — address, size,
    /// match and short-circuit predicate count — and its match set is the
    /// oracle's.
    #[test]
    fn poset_equals_naive(
        subs in prop::collection::vec(arb_subscription(), 0..60),
        publications in prop::collection::vec(arb_publication(), 0..20),
    ) {
        let mut naive = NaiveIndex::new();
        let mut posets = [PosetIndex::new(), PosetIndex::with_partition_attr("a")];
        for (i, sub) in subs.iter().enumerate() {
            let sub = sub.clone().with_payload(vec![0; i % 7]);
            naive.insert(SubId(i as u64), sub.clone(), i as u64 * 256);
            for poset in &mut posets {
                poset.insert(SubId(i as u64), sub.clone(), i as u64 * 256);
            }
        }
        for publication in &publications {
            let (oracle, mut want) = visit(&naive, publication);
            want.sort();
            for poset in &posets {
                let (trace, mut got) = visit(poset, publication);
                for node in &trace {
                    prop_assert_eq!(node, &oracle[(node.offset / 256) as usize]);
                }
                let mut visited: Vec<u64> = trace.iter().map(|node| node.offset).collect();
                visited.sort();
                visited.dedup();
                prop_assert_eq!(visited.len(), trace.len(), "a node is visited at most once");
                got.sort();
                prop_assert_eq!(&got, &want);
            }
        }
    }

    /// The broker overlay is location-transparent: wherever subscriptions
    /// live and wherever a publication enters, delivery equals flat
    /// matching.
    #[test]
    fn overlay_equals_flat(
        placements in prop::collection::vec((arb_subscription(), 0usize..5), 0..40),
        publications in prop::collection::vec((arb_publication(), 0usize..5), 0..10),
    ) {
        // 5-broker tree: 0 root; 1,2 under 0; 3,4 under 1.
        let mut overlay = Overlay::new(&[None, Some(0), Some(0), Some(1), Some(1)]);
        let mut flat = Vec::new();
        for (sub, broker) in &placements {
            let id = overlay.subscribe(BrokerId(*broker), sub.clone());
            flat.push((id, sub.clone()));
        }
        for (publication, entry) in &publications {
            let mut got = overlay.publish(BrokerId(*entry), publication);
            got.sort();
            let mut want: Vec<SubId> = flat
                .iter()
                .filter(|(_, s)| s.matches(publication))
                .map(|(id, _)| *id)
                .collect();
            want.sort();
            prop_assert_eq!(got, want);
        }
    }

    /// Wire roundtrips for the SCBR message types never lose information
    /// (compared as bytes: a NaN value does not equal itself).
    #[test]
    fn scbr_wire_roundtrips(
        sub in arb_subscription(),
        publication in arb_publication(),
    ) {
        use securecloud_crypto::wire::Wire;
        let (sub, publication) = (sub.to_wire(), publication.to_wire());
        prop_assert_eq!(Subscription::from_wire(&sub).unwrap().to_wire(), sub);
        prop_assert_eq!(Publication::from_wire(&publication).unwrap().to_wire(), publication);
    }
}
