//! Deterministic workload generation for the SCBR experiments.
//!
//! The paper evaluates SCBR "with several workloads to observe the sources
//! of performance overheads" (§V-B); Figure 3 sweeps the subscription
//! database from small sizes past the 128 MiB EPC. This module generates
//! reproducible subscription databases of a target byte size and matching
//! publication streams.

use crate::types::{Op, Predicate, Publication, Subscription, Value};
use securecloud_telemetry::rng::SeededRng;

/// Parameters of a generated workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Cardinality of the `topic` partition attribute.
    pub topics: i64,
    /// Numeric attributes (beyond `topic`) predicates may constrain.
    pub extra_attrs: u32,
    /// Probability that a subscription constrains a given extra attribute.
    pub predicate_density: f64,
    /// Values are drawn uniformly from `0..value_range`.
    pub value_range: i64,
    /// Opaque subscriber payload bytes attached to each subscription.
    pub payload_bytes: usize,
    /// RNG seed (workloads are fully deterministic given the spec).
    pub seed: u64,
}

impl WorkloadSpec {
    /// The spec used to regenerate Figure 3: ~256-byte subscriptions,
    /// 64 topics, three numeric attributes.
    #[must_use]
    pub fn fig3() -> Self {
        WorkloadSpec {
            topics: 64,
            extra_attrs: 3,
            predicate_density: 0.75,
            value_range: 1000,
            payload_bytes: 160,
            seed: 42,
        }
    }

    fn attr_name(i: u32) -> String {
        format!("a{i}")
    }

    fn generate_subscription(&self, rng: &mut SeededRng) -> Subscription {
        let mut predicates = vec![Predicate::new(
            "topic",
            Op::Eq,
            Value::Int(rng.gen_range(0..self.topics)),
        )];
        for i in 0..self.extra_attrs {
            if rng.gen_bool(self.predicate_density) {
                let op = if rng.gen_bool(0.5) { Op::Ge } else { Op::Le };
                predicates.push(Predicate::new(
                    &Self::attr_name(i),
                    op,
                    Value::Int(rng.gen_range(0..self.value_range)),
                ));
            }
        }
        Subscription::new(predicates).with_payload(vec![0xa5; self.payload_bytes])
    }

    /// Generates exactly `n` subscriptions.
    #[must_use]
    pub fn subscriptions(&self, n: usize) -> Vec<Subscription> {
        let mut rng = SeededRng::new(self.seed);
        (0..n)
            .map(|_| self.generate_subscription(&mut rng))
            .collect()
    }

    /// Generates subscriptions until their combined footprint reaches
    /// `target_bytes` (the Figure 3 x-axis).
    #[must_use]
    pub fn subscriptions_for_db_size(&self, target_bytes: u64) -> Vec<Subscription> {
        let mut rng = SeededRng::new(self.seed);
        let mut out = Vec::new();
        let mut total = 0u64;
        while total < target_bytes {
            let sub = self.generate_subscription(&mut rng);
            total += sub.footprint() as u64;
            out.push(sub);
        }
        out
    }

    /// Generates `n` publications carrying every attribute (a different
    /// seed stream from the subscriptions).
    #[must_use]
    pub fn publications(&self, n: usize) -> Vec<Publication> {
        let mut rng = SeededRng::new(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        (0..n)
            .map(|_| {
                let mut publication =
                    Publication::new().with("topic", Value::Int(rng.gen_range(0..self.topics)));
                for i in 0..self.extra_attrs {
                    publication = publication.with(
                        &Self::attr_name(i),
                        Value::Int(rng.gen_range(0..self.value_range)),
                    );
                }
                publication
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let spec = WorkloadSpec::fig3();
        assert_eq!(spec.subscriptions(50), spec.subscriptions(50));
        assert_eq!(spec.publications(50), spec.publications(50));
        let other = WorkloadSpec {
            seed: 43,
            ..WorkloadSpec::fig3()
        };
        assert_ne!(spec.subscriptions(50), other.subscriptions(50));
    }

    #[test]
    fn db_size_targeting() {
        let spec = WorkloadSpec::fig3();
        let target = 1 << 20;
        let subs = spec.subscriptions_for_db_size(target);
        let total: u64 = subs.iter().map(|s| s.footprint() as u64).sum();
        assert!(total >= target);
        assert!(total < target + 1024, "overshoot bounded by one sub");
    }

    #[test]
    fn every_subscription_has_a_topic() {
        let spec = WorkloadSpec::fig3();
        for sub in spec.subscriptions(100) {
            assert!(sub
                .predicates
                .iter()
                .any(|p| p.attr == "topic" && p.op == Op::Eq));
        }
    }

    #[test]
    fn publications_carry_all_attrs() {
        let spec = WorkloadSpec::fig3();
        for publication in spec.publications(20) {
            assert!(publication.attrs.contains_key("topic"));
            for i in 0..spec.extra_attrs {
                assert!(publication.attrs.contains_key(&format!("a{i}")));
            }
        }
    }

    #[test]
    fn workload_produces_matches() {
        use crate::index::{MatchScratch, NaiveIndex, SubscriptionIndex};
        use crate::notify::PublicationRef;
        use crate::types::SubId;
        use securecloud_crypto::wire::Wire;
        let spec = WorkloadSpec::fig3();
        let mut index = NaiveIndex::new();
        for (i, sub) in spec.subscriptions(2000).into_iter().enumerate() {
            index.insert(SubId(i as u64), sub, i as u64 * 256);
        }
        let encoded: Vec<Vec<u8>> = spec.publications(50).iter().map(Wire::to_wire).collect();
        let mut scratch = MatchScratch::default();
        for publication in &encoded {
            index.match_publication(PublicationRef::parse(publication).unwrap(), &mut scratch);
        }
        let total_matches = scratch.matched.len();
        // ~2000/64 subs per topic, ~30-50% match within topic.
        assert!(
            total_matches > 100,
            "workload too sparse: {total_matches} matches"
        );
    }

    #[test]
    fn mean_footprint_reasonable() {
        let spec = WorkloadSpec::fig3();
        let sample = spec.subscriptions(256);
        let mean = sample.iter().map(|s| s.footprint() as f64).sum::<f64>() / sample.len() as f64;
        assert!(mean > 200.0 && mean < 400.0, "mean footprint {mean}");
    }
}
