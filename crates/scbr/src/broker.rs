//! A multi-broker routing overlay.
//!
//! SCBR routers are deployed as an overlay of brokers; subscriptions
//! propagate toward the root and publications are routed along the reverse
//! paths. The covering relation earns its keep here: a broker forwards a
//! subscription upstream **only if no already-forwarded subscription
//! covers it** — covered subscriptions ride on existing routing state, so
//! control traffic shrinks (the classic Siena/SCBR optimisation).
//!
//! The overlay is a tree (each broker has at most one parent). A
//! publication may enter at any broker: it is delivered to local matching
//! subscribers, routed down into every child subtree whose forwarded
//! interests match, and routed up to the parent (which repeats the
//! process, excluding the subtree it came from).

use crate::types::{covers_normalised, Normalised, Publication, SubId, Subscription};
use securecloud_telemetry::{Telemetry, TraceContext};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of a broker in the overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BrokerId(pub usize);

/// Rejected overlay topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum OverlayError {
    /// `parent_of[broker]` points past the end of the vector.
    ParentOutOfRange {
        /// The offending broker.
        broker: usize,
        /// Its out-of-range parent index.
        parent: usize,
    },
    /// A broker listed itself as its parent.
    SelfParent {
        /// The offending broker.
        broker: usize,
    },
    /// The parent vector contains a cycle (no path to a root).
    Cycle {
        /// A broker on the cycle.
        broker: usize,
    },
}

impl fmt::Display for OverlayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverlayError::ParentOutOfRange { broker, parent } => {
                write!(f, "broker {broker}: parent {parent} out of range")
            }
            OverlayError::SelfParent { broker } => {
                write!(f, "broker {broker} cannot be its own parent")
            }
            OverlayError::Cycle { broker } => {
                write!(f, "broker {broker} is on a parent cycle")
            }
        }
    }
}

impl std::error::Error for OverlayError {}

securecloud_telemetry::metric_set! {
    /// Live metric handles behind [`OverlayStats`].
    struct OverlayMetrics {
        /// Subscription-forward messages sent between brokers.
        subscription_forwards: Counter = "securecloud_scbr_subscription_forwards_total",
        /// Subscription forwards suppressed because a covering subscription
        /// had already been forwarded.
        forwards_suppressed: Counter = "securecloud_scbr_forwards_suppressed_total",
        /// Publication messages sent between brokers.
        publication_hops: Counter = "securecloud_scbr_publication_hops_total",
        /// Subscription forwards re-sent while recovering from a broker
        /// failure (re-parenting orphaned subtrees).
        recovery_forwards: Counter = "securecloud_scbr_recovery_forwards_total",
    }
    /// Overlay-wide statistics snapshot. All counters saturate at `u64::MAX`
    /// instead of wrapping.
    pub struct OverlayStats;
}

#[derive(Debug)]
struct Interest {
    sub: Subscription,
    norm: Normalised,
}

#[derive(Debug)]
struct BrokerNode {
    parent: Option<usize>,
    children: Vec<usize>,
    /// Subscriptions registered by local clients.
    local: Vec<(SubId, Interest)>,
    /// Interests forwarded to us by each child (aggregate of its subtree).
    child_interest: HashMap<usize, Vec<Interest>>,
    /// Interests we forwarded to our parent.
    forwarded_up: Vec<Interest>,
    /// Failed brokers are detached from the tree and route nothing.
    failed: bool,
}

/// A tree overlay of content-based routers.
#[derive(Debug)]
pub struct Overlay {
    brokers: Vec<BrokerNode>,
    next_sub: u64,
    metrics: OverlayMetrics,
    telemetry: Option<Arc<Telemetry>>,
}

impl Overlay {
    /// Builds an overlay from a parent vector. `parent_of[i]` is the parent
    /// of broker `i` (`None` for the root).
    ///
    /// # Errors
    ///
    /// [`OverlayError`] if a parent index is out of range, a broker is its
    /// own parent, or the parent vector contains a cycle.
    pub fn try_new(parent_of: &[Option<usize>]) -> Result<Self, OverlayError> {
        for (i, &parent) in parent_of.iter().enumerate() {
            if let Some(p) = parent {
                if p >= parent_of.len() {
                    return Err(OverlayError::ParentOutOfRange {
                        broker: i,
                        parent: p,
                    });
                }
                if p == i {
                    return Err(OverlayError::SelfParent { broker: i });
                }
            }
        }
        // Every broker must reach a root in at most `len` hops; a longer
        // walk means the parent pointers loop (routing would recurse
        // forever).
        for start in 0..parent_of.len() {
            let mut current = start;
            let mut hops = 0;
            while let Some(p) = parent_of[current] {
                current = p;
                hops += 1;
                if hops > parent_of.len() {
                    return Err(OverlayError::Cycle { broker: start });
                }
            }
        }
        let mut brokers: Vec<BrokerNode> = parent_of
            .iter()
            .map(|&parent| BrokerNode {
                parent,
                children: Vec::new(),
                local: Vec::new(),
                child_interest: HashMap::new(),
                forwarded_up: Vec::new(),
                failed: false,
            })
            .collect();
        for (i, parent) in parent_of.iter().enumerate() {
            if let Some(p) = parent {
                brokers[*p].children.push(i);
            }
        }
        Ok(Overlay {
            brokers,
            next_sub: 0,
            metrics: OverlayMetrics::default(),
            telemetry: None,
        })
    }

    /// Attaches shared telemetry: routing counters are adopted into the
    /// registry and broker failures / publication routing emit spans.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.metrics.adopt_into(telemetry.registry(), &[]);
        self.telemetry = Some(telemetry);
    }

    /// Builds an overlay from a parent vector, panicking on an invalid
    /// topology. Prefer [`Overlay::try_new`].
    ///
    /// # Panics
    ///
    /// Panics if a parent index is out of range, a broker is its own
    /// parent, or the parent vector contains a cycle.
    #[must_use]
    pub fn new(parent_of: &[Option<usize>]) -> Self {
        Self::try_new(parent_of).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A chain of `n` brokers: 0 is the root, each `i` hangs under `i-1`.
    #[must_use]
    pub fn chain(n: usize) -> Self {
        let parents: Vec<Option<usize>> = (0..n).map(|i| i.checked_sub(1)).collect();
        Self::new(&parents)
    }

    /// Number of brokers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.brokers.len()
    }

    /// Whether the overlay is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.brokers.is_empty()
    }

    /// Accumulated statistics, snapshotted from the live metric handles.
    #[must_use]
    pub fn stats(&self) -> OverlayStats {
        self.metrics.snapshot()
    }

    /// Fails a broker: its local subscriptions are lost with it, its
    /// children are re-parented (to its parent, or — for a failed root —
    /// under the first child, which is promoted to root), and each orphaned
    /// subtree's forwarded interests are re-propagated up the new path with
    /// the usual covering suppression. Re-sent forwards are counted in
    /// [`OverlayStats::recovery_forwards`]. Publications keep flowing:
    /// every surviving local subscription remains reachable from every
    /// surviving broker. Failing an already-failed broker is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `broker` is out of range.
    pub fn fail_broker(&mut self, broker: BrokerId) {
        let failed = broker.0;
        assert!(failed < self.brokers.len(), "broker {failed} out of range");
        if self.brokers[failed].failed {
            return;
        }
        let telemetry = self.telemetry.clone();
        let _recovery_span = telemetry.as_ref().map(|t| {
            t.event(
                "scbr",
                "broker_failed",
                vec![("broker", format!("b{failed}"))],
                TraceContext::none(),
            );
            t.span("scbr", "recovery", vec![], TraceContext::none())
        });
        self.brokers[failed].failed = true;
        let parent = self.brokers[failed].parent.take();
        let children = std::mem::take(&mut self.brokers[failed].children);
        self.brokers[failed].local.clear();
        self.brokers[failed].child_interest.clear();
        self.brokers[failed].forwarded_up.clear();
        if let Some(p) = parent {
            self.brokers[p].children.retain(|&c| c != failed);
            self.brokers[p].child_interest.remove(&failed);
        }
        let (new_parent, orphans) = match parent {
            Some(p) => (Some(p), children),
            None => {
                // Root failure: promote the first child.
                let mut rest = children.into_iter();
                match rest.next() {
                    Some(promoted) => {
                        self.brokers[promoted].parent = None;
                        self.brokers[promoted].forwarded_up.clear();
                        (Some(promoted), rest.collect())
                    }
                    None => (None, Vec::new()),
                }
            }
        };
        let Some(new_parent) = new_parent else {
            return;
        };
        for orphan in orphans {
            self.brokers[orphan].parent = Some(new_parent);
            self.brokers[new_parent].children.push(orphan);
            // The orphan's aggregated subtree interest must reach the new
            // path toward the root; nothing above knows about it any more.
            let interests: Vec<(Subscription, Normalised)> = self.brokers[orphan]
                .forwarded_up
                .iter()
                .map(|i| (i.sub.clone(), i.norm.clone()))
                .collect();
            for (sub, norm) in interests {
                self.repropagate(orphan, sub, norm);
            }
        }
    }

    /// Re-sends one already-forwarded interest of `from` up its (new)
    /// parent path, installing routing state and stopping at the root or
    /// at the first covering forward.
    fn repropagate(&mut self, from: usize, sub: Subscription, norm: Normalised) {
        let mut current = from;
        while let Some(parent) = self.brokers[current].parent {
            self.metrics.recovery_forwards.inc();
            self.brokers[parent]
                .child_interest
                .entry(current)
                .or_default()
                .push(Interest {
                    sub: sub.clone(),
                    norm: norm.clone(),
                });
            let covered = self.brokers[parent]
                .forwarded_up
                .iter()
                .any(|f| covers_normalised(&f.norm, &norm));
            if covered {
                self.metrics.forwards_suppressed.inc();
                return;
            }
            if self.brokers[parent].parent.is_some() {
                self.brokers[parent].forwarded_up.push(Interest {
                    sub: sub.clone(),
                    norm: norm.clone(),
                });
            }
            current = parent;
        }
    }

    /// Registers a client subscription at `broker` and propagates it
    /// toward the root (with covering-based suppression).
    ///
    /// # Panics
    ///
    /// Panics if `broker` is out of range or has failed.
    pub fn subscribe(&mut self, broker: BrokerId, sub: Subscription) -> SubId {
        assert!(
            !self.brokers[broker.0].failed,
            "broker {} has failed",
            broker.0
        );
        let id = SubId(self.next_sub);
        self.next_sub += 1;
        let norm = sub.normalised();
        self.brokers[broker.0].local.push((
            id,
            Interest {
                sub: sub.clone(),
                norm: norm.clone(),
            },
        ));
        // Propagate up the chain until covered or at the root.
        let mut current = broker.0;
        let mut carried = Interest { sub, norm };
        while let Some(parent) = self.brokers[current].parent {
            let covered = self.brokers[current]
                .forwarded_up
                .iter()
                .any(|f| covers_normalised(&f.norm, &carried.norm));
            if covered {
                self.metrics.forwards_suppressed.inc();
                return id;
            }
            self.metrics.subscription_forwards.inc();
            self.brokers[current].forwarded_up.push(Interest {
                sub: carried.sub.clone(),
                norm: carried.norm.clone(),
            });
            self.brokers[parent]
                .child_interest
                .entry(current)
                .or_default()
                .push(Interest {
                    sub: carried.sub.clone(),
                    norm: carried.norm.clone(),
                });
            current = parent;
            carried = Interest {
                sub: carried.sub,
                norm: carried.norm,
            };
        }
        id
    }

    /// Publishes at `broker`; returns every matching subscription id in the
    /// overlay (in delivery order).
    ///
    /// # Panics
    ///
    /// Panics if `broker` is out of range or has failed.
    pub fn publish(&mut self, broker: BrokerId, publication: &Publication) -> Vec<SubId> {
        assert!(
            !self.brokers[broker.0].failed,
            "broker {} has failed",
            broker.0
        );
        let telemetry = self.telemetry.clone();
        let span = telemetry.as_ref().map(|t| {
            t.span(
                "scbr",
                "publish",
                vec![("entry_broker", format!("b{}", broker.0))],
                TraceContext::none(),
            )
        });
        let mut delivered = Vec::new();
        self.route(broker.0, None, publication, &mut delivered);
        drop(span);
        delivered
    }

    fn route(
        &mut self,
        at: usize,
        came_from: Option<usize>,
        publication: &Publication,
        delivered: &mut Vec<SubId>,
    ) {
        // Local deliveries.
        for (id, interest) in &self.brokers[at].local {
            if interest.sub.matches(publication) {
                delivered.push(*id);
            }
        }
        // Downward: only into children whose forwarded interests match.
        let children: Vec<usize> = self.brokers[at].children.clone();
        for child in children {
            if Some(child) == came_from {
                continue;
            }
            let interested = self.brokers[at]
                .child_interest
                .get(&child)
                .is_some_and(|interests| interests.iter().any(|i| i.sub.matches(publication)));
            if interested {
                self.metrics.publication_hops.inc();
                self.route(child, Some(at), publication, delivered);
            }
        }
        // Upward: the parent may have interested subtrees elsewhere.
        if let Some(parent) = self.brokers[at].parent {
            if Some(parent) != came_from {
                self.metrics.publication_hops.inc();
                self.route(parent, Some(at), publication, delivered);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Op, Predicate, Value};

    fn sub(attr: &str, lo: i64) -> Subscription {
        Subscription::new(vec![Predicate::new(attr, Op::Ge, Value::Int(lo))])
    }

    fn publication(attr: &str, v: i64) -> Publication {
        Publication::new().with(attr, Value::Int(v))
    }

    /// root(0) - mid(1) - leaf(2); plus a second leaf(3) under root.
    fn overlay() -> Overlay {
        Overlay::new(&[None, Some(0), Some(1), Some(0)])
    }

    #[test]
    fn delivery_is_location_transparent() {
        let mut o = overlay();
        let s_leaf = o.subscribe(BrokerId(2), sub("x", 10));
        let s_other = o.subscribe(BrokerId(3), sub("x", 50));
        // Publish from every broker: the same subscribers match.
        for b in 0..4 {
            let mut got = o.publish(BrokerId(b), &publication("x", 60));
            got.sort();
            assert_eq!(got, vec![s_leaf, s_other], "published at broker {b}");
            let got = o.publish(BrokerId(b), &publication("x", 20));
            assert_eq!(got, vec![s_leaf]);
            assert!(o.publish(BrokerId(b), &publication("x", 5)).is_empty());
        }
    }

    #[test]
    fn covering_suppresses_upstream_forwards() {
        let mut o = Overlay::chain(3);
        // Broad subscription at the leaf propagates 2 hops.
        o.subscribe(BrokerId(2), sub("x", 0));
        assert_eq!(o.stats().subscription_forwards, 2);
        // A narrower subscription at the same leaf is covered: no forwards.
        o.subscribe(BrokerId(2), sub("x", 100));
        assert_eq!(o.stats().subscription_forwards, 2);
        assert_eq!(o.stats().forwards_suppressed, 1);
        // It still receives matching publications from the root.
        let got = o.publish(BrokerId(0), &publication("x", 500));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn publications_do_not_flood_uninterested_subtrees() {
        let mut o = overlay();
        o.subscribe(BrokerId(2), sub("x", 0));
        // Nothing under broker 3: publishing at root routes only to the
        // interested subtree.
        let before = o.stats().publication_hops;
        o.publish(BrokerId(0), &publication("x", 1));
        let hops = o.stats().publication_hops - before;
        assert_eq!(hops, 2, "root->mid->leaf only, not root->leaf3");
    }

    #[test]
    fn agrees_with_flat_matching_on_random_workload() {
        use securecloud_telemetry::rng::SeededRng;
        let mut rng = SeededRng::new(21);
        // A 7-broker binary tree.
        let mut o = Overlay::new(&[None, Some(0), Some(0), Some(1), Some(1), Some(2), Some(2)]);
        let mut flat: Vec<(SubId, Subscription)> = Vec::new();
        for _ in 0..200 {
            let s = sub("x", rng.gen_range(0..100));
            let broker = BrokerId(rng.gen_range(0..7));
            let id = o.subscribe(broker, s.clone());
            flat.push((id, s));
        }
        for _ in 0..100 {
            let p = publication("x", rng.gen_range(0..120));
            let entry = BrokerId(rng.gen_range(0..7));
            let mut got = o.publish(entry, &p);
            got.sort();
            let mut want: Vec<SubId> = flat
                .iter()
                .filter(|(_, s)| s.matches(&p))
                .map(|(id, _)| *id)
                .collect();
            want.sort();
            assert_eq!(got, want);
        }
        assert!(o.stats().forwards_suppressed > 0, "some covering expected");
    }

    #[test]
    fn chain_construction() {
        let o = Overlay::chain(5);
        assert_eq!(o.len(), 5);
        assert!(!o.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot be its own parent")]
    fn self_parent_rejected() {
        let _ = Overlay::new(&[Some(0)]);
    }

    #[test]
    fn try_new_rejects_bad_topologies() {
        assert_eq!(
            Overlay::try_new(&[None, Some(9)]).unwrap_err(),
            OverlayError::ParentOutOfRange {
                broker: 1,
                parent: 9
            }
        );
        assert_eq!(
            Overlay::try_new(&[Some(0)]).unwrap_err(),
            OverlayError::SelfParent { broker: 0 }
        );
        // Two brokers pointing at each other: no root, infinite routing.
        assert_eq!(
            Overlay::try_new(&[Some(1), Some(0)]).unwrap_err(),
            OverlayError::Cycle { broker: 0 }
        );
        assert!(Overlay::try_new(&[None, Some(0), Some(1)]).is_ok());
        // Error messages are non-empty and distinct.
        let errors = [
            OverlayError::ParentOutOfRange {
                broker: 1,
                parent: 9,
            },
            OverlayError::SelfParent { broker: 0 },
            OverlayError::Cycle { broker: 0 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn mid_broker_failure_reparents_and_keeps_delivering() {
        // root(0) - mid(1) - leaf(2); second leaf(3) under root.
        let mut o = overlay();
        let s_leaf = o.subscribe(BrokerId(2), sub("x", 10));
        let s_other = o.subscribe(BrokerId(3), sub("x", 50));
        assert_eq!(o.stats().recovery_forwards, 0);

        o.fail_broker(BrokerId(1));
        assert!(o.brokers[1].failed);
        // Leaf 2 is re-parented under the root; its interest was re-sent.
        assert!(o.stats().recovery_forwards > 0);

        // Publications keep flowing from every surviving broker to every
        // surviving subscription.
        for b in [0usize, 2, 3] {
            let mut got = o.publish(BrokerId(b), &publication("x", 60));
            got.sort();
            assert_eq!(got, vec![s_leaf, s_other], "published at broker {b}");
            assert_eq!(o.publish(BrokerId(b), &publication("x", 20)), vec![s_leaf]);
        }
        // New subscriptions through the repaired tree still work.
        let s_new = o.subscribe(BrokerId(2), sub("y", 0));
        assert_eq!(o.publish(BrokerId(3), &publication("y", 1)), vec![s_new]);
        // Failing the same broker again is a no-op.
        let stats = o.stats();
        o.fail_broker(BrokerId(1));
        assert_eq!(o.stats(), stats);
    }

    #[test]
    fn root_failure_promotes_a_child() {
        // root(0) with children 1 and 2; subscriber on each child.
        let mut o = Overlay::new(&[None, Some(0), Some(0)]);
        let s1 = o.subscribe(BrokerId(1), sub("x", 10));
        let s2 = o.subscribe(BrokerId(2), sub("x", 20));
        o.fail_broker(BrokerId(0));
        // Broker 1 is promoted to root, broker 2 re-parented under it.
        for b in [1usize, 2] {
            let mut got = o.publish(BrokerId(b), &publication("x", 30));
            got.sort();
            assert_eq!(got, vec![s1, s2], "published at broker {b}");
        }
        assert_eq!(o.publish(BrokerId(2), &publication("x", 15)), vec![s1]);
        assert!(o.stats().recovery_forwards > 0);
    }

    #[test]
    fn failed_broker_loses_its_local_subscriptions() {
        let mut o = Overlay::chain(3);
        let s_mid = o.subscribe(BrokerId(1), sub("x", 0));
        let s_leaf = o.subscribe(BrokerId(2), sub("x", 0));
        let got = o.publish(BrokerId(0), &publication("x", 1));
        assert_eq!(got.len(), 2);
        o.fail_broker(BrokerId(1));
        let got = o.publish(BrokerId(0), &publication("x", 1));
        assert_eq!(got, vec![s_leaf], "mid's local sub died with it: {s_mid:?}");
    }

    #[test]
    #[should_panic(expected = "has failed")]
    fn publish_at_failed_broker_panics() {
        let mut o = Overlay::chain(2);
        o.fail_broker(BrokerId(1));
        let _ = o.publish(BrokerId(1), &publication("x", 1));
    }
}
