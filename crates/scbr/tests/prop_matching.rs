//! Property-based tests for SCBR's core invariants: covering soundness,
//! index equivalence, and lossless wire encoding.

mod common;

use common::arb_value;
use proptest::prelude::*;
use securecloud_crypto::wire::Wire;
use securecloud_scbr::index::{MatchScratch, NaiveIndex, PosetIndex, SubscriptionIndex, VisitInfo};
use securecloud_scbr::notify::PublicationRef;
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

/// One matching pass over the view of the publication's encoding: the
/// visit trace and the match list.
fn visit(
    index: &mut impl SubscriptionIndex,
    publication: &Publication,
) -> (Vec<VisitInfo>, Vec<SubId>) {
    let encoded = publication.to_wire();
    let mut scratch = MatchScratch::default();
    index.match_publication(PublicationRef::parse(&encoded).unwrap(), &mut scratch);
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
    /// match and short-circuit predicate count — and reads the header plus
    /// 16 bytes and a string operand per evaluated predicate of its
    /// compiled record, which overlaps no other visited record; its match
    /// set is the oracle's.
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
            let (oracle, mut want) = visit(&mut naive, publication);
            want.sort();
            for poset in &mut posets {
                let (trace, mut got) = visit(poset, publication);
                for node in &trace {
                    let at = (node.offset / 256) as usize;
                    prop_assert_eq!(&VisitInfo { record: 0, read: 0, ..*node }, &oracle[at]);
                    let evaluated = &subs[at].predicates[..node.predicates_evaluated as usize];
                    let read = evaluated.iter().map(|p| match &p.value {
                        Value::Str(s) => 16 + s.len() as u32,
                        _ => 16,
                    });
                    prop_assert_eq!(node.read, 32 + read.sum::<u32>());
                }
                let mut records: Vec<_> = trace.iter().map(|n| (n.record, n.record + n.read)).collect();
                records.sort();
                prop_assert!(records.windows(2).all(|w| w[0].1 <= w[1].0), "{:?}", records);
                let mut visited: Vec<u64> = trace.iter().map(|node| node.offset).collect();
                visited.sort();
                visited.dedup();
                prop_assert_eq!(visited.len(), trace.len(), "a node is visited at most once");
                got.sort();
                prop_assert_eq!(&got, &want);
            }
        }
    }

    /// Matching between inserts changes nothing: an index that matched after
    /// every chunk of inserts and its twin that matches only after the last
    /// insert visit the same nodes in the same order and match the same
    /// subscriptions in the same order, and the match set is the oracle's.
    /// An index that matched over a layout left from before an insert would
    /// miss the nodes inserted since.
    #[test]
    fn relayout_after_insert_keeps_the_trace(
        subs in prop::collection::vec(arb_subscription(), 1..60),
        chunk in 1usize..8,
        probes in prop::collection::vec(arb_publication(), 1..4),
        publications in prop::collection::vec(arb_publication(), 1..10),
    ) {
        let mut naive = NaiveIndex::new();
        let twins = || [PosetIndex::new(), PosetIndex::with_partition_attr("a")];
        let (mut eager, mut lazy) = (twins(), twins());
        for (i, sub) in subs.iter().enumerate() {
            naive.insert(SubId(i as u64), sub.clone(), i as u64 * 256);
            for poset in eager.iter_mut().chain(&mut lazy) {
                poset.insert(SubId(i as u64), sub.clone(), i as u64 * 256);
            }
            if (i + 1) % chunk == 0 {
                for poset in &mut eager {
                    visit(poset, &probes[i % probes.len()]);
                }
            }
        }
        for publication in &publications {
            let (_, mut want) = visit(&mut naive, publication);
            want.sort();
            for (eager, lazy) in eager.iter_mut().zip(&mut lazy) {
                let (trace, matched) = visit(eager, publication);
                prop_assert_eq!(&(trace, matched.clone()), &visit(lazy, publication));
                let mut got = matched;
                got.sort();
                prop_assert_eq!(&got, &want);
            }
        }
    }

    /// Wire roundtrips for the SCBR message types never lose information
    /// (compared as bytes: a NaN value does not equal itself).
    #[test]
    fn scbr_wire_roundtrips(
        sub in arb_subscription(),
        publication in arb_publication(),
    ) {
        let (sub, publication) = (sub.to_wire(), publication.to_wire());
        prop_assert_eq!(Subscription::from_wire(&sub).unwrap().to_wire(), sub);
        prop_assert_eq!(Publication::from_wire(&publication).unwrap().to_wire(), publication);
    }
}
