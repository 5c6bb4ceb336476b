//! The matching engine with a simulated memory layout.
//!
//! The engine stores subscriptions in a bump-allocated arena of simulated
//! memory and charges every node visit of a match to the [`MemorySim`]:
//! cache, MEE, and EPC-paging costs. Running the *same* engine code against
//! a native-domain and an enclave-domain simulator is how benchmark E1
//! regenerates the paper's Figure 3.
//!
//! Two [`Layout`] policies are available. [`Layout::ArrivalOrder`] packs
//! subscriptions in arrival order — a topic's subscribers end up scattered
//! across the whole arena, so a matching pass touches many pages.
//! [`Layout::Clustered`] implements the paper's stated future work ("we
//! intend to optimise our data structures to avoid paging and cache
//! misses"): subscriptions sharing an equality value on the cluster
//! attribute are packed into dedicated chunks, so a matching pass touches
//! a compact page range. Benchmark E8 quantifies the effect.

use crate::index::{MatchScratch, SubscriptionIndex};
use crate::types::{Op, Publication, SubId, Subscription, Value};
use securecloud_sgx::mem::{Arena, MemorySim};
use securecloud_telemetry::{Counter, Telemetry};
use std::collections::HashMap;

/// Arena chunk size: subscriptions are packed into these.
const ARENA_CHUNK_BYTES: u64 = 1 << 20;

/// Per-cluster arena chunk size (smaller, to bound waste across many
/// clusters).
const CLUSTER_CHUNK_BYTES: u64 = 128 << 10;

/// Memory layout policy for the subscription arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layout {
    /// Pack subscriptions in arrival order (the baseline the paper
    /// measured).
    ArrivalOrder,
    /// Pack subscriptions clustered by their equality predicate on the
    /// given attribute (the paper's proposed paging optimisation).
    Clustered(String),
}

/// Bytes of a node actually read while evaluating its predicates (header +
/// predicate block; the payload is not touched during matching).
const MATCH_READ_BYTES: u32 = 128;

/// Counters accumulated by a [`MatchEngine`] (snapshot; the live handles
/// saturate rather than wrap).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Publications processed.
    pub publications: u64,
    /// Total subscription matches produced.
    pub matches: u64,
    /// Index nodes visited.
    pub nodes_visited: u64,
    /// Predicates evaluated.
    pub predicates_evaluated: u64,
}

/// Live metric handles behind [`EngineStats`].
#[derive(Debug, Clone, Default)]
struct EngineMetrics {
    publications: Counter,
    matches: Counter,
    nodes_visited: Counter,
    predicates_evaluated: Counter,
}

/// A content-based matching engine over an index `I`.
///
/// The engine does not own a memory simulator; callers pass the domain they
/// run in (`MemorySim::native` baseline or an enclave's memory).
#[derive(Debug)]
pub struct MatchEngine<I> {
    index: I,
    layout: Layout,
    arena: Arena,
    cluster_arenas: HashMap<ClusterKey, Arena>,
    db_bytes: u64,
    next_id: u64,
    metrics: EngineMetrics,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ClusterKey {
    Int(i64),
    Str(String),
    General,
}

impl<I: SubscriptionIndex> MatchEngine<I> {
    /// Creates an engine over `index` with arrival-order layout.
    #[must_use]
    pub fn new(index: I) -> Self {
        Self::with_layout(index, Layout::ArrivalOrder)
    }

    /// Creates an engine with an explicit arena [`Layout`].
    #[must_use]
    pub fn with_layout(index: I, layout: Layout) -> Self {
        MatchEngine {
            index,
            layout,
            arena: Arena::new(ARENA_CHUNK_BYTES),
            cluster_arenas: HashMap::new(),
            db_bytes: 0,
            next_id: 0,
            metrics: EngineMetrics::default(),
        }
    }

    /// Adopts this engine's counters into the shared registry, labeled with
    /// the memory `domain` it runs against (`"native"` / `"enclave"`), so a
    /// Figure 3 run exports both sides distinctly.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry, domain: &str) {
        let labels: [(&str, &str); 1] = [("domain", domain)];
        let registry = telemetry.registry();
        registry.adopt_counter(
            "securecloud_scbr_publications_total",
            &labels,
            &self.metrics.publications,
        );
        registry.adopt_counter(
            "securecloud_scbr_matches_total",
            &labels,
            &self.metrics.matches,
        );
        registry.adopt_counter(
            "securecloud_scbr_nodes_visited_total",
            &labels,
            &self.metrics.nodes_visited,
        );
        registry.adopt_counter(
            "securecloud_scbr_predicates_evaluated_total",
            &labels,
            &self.metrics.predicates_evaluated,
        );
    }

    fn cluster_key(&self, sub: &Subscription) -> ClusterKey {
        let Layout::Clustered(attr) = &self.layout else {
            return ClusterKey::General;
        };
        for p in &sub.predicates {
            if &p.attr == attr && p.op == Op::Eq {
                match &p.value {
                    Value::Int(v) => return ClusterKey::Int(*v),
                    Value::Str(s) => return ClusterKey::Str(s.clone()),
                    Value::Float(_) => {}
                }
            }
        }
        ClusterKey::General
    }

    /// The subscription database footprint in bytes.
    #[must_use]
    pub fn db_bytes(&self) -> u64 {
        self.db_bytes
    }

    /// Number of stored subscriptions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the engine holds no subscriptions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Accumulated counters, snapshotted from the live metric handles.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            publications: self.metrics.publications.value(),
            matches: self.metrics.matches.value(),
            nodes_visited: self.metrics.nodes_visited.value(),
            predicates_evaluated: self.metrics.predicates_evaluated.value(),
        }
    }

    /// The underlying index (diagnostics).
    #[must_use]
    pub fn index(&self) -> &I {
        &self.index
    }

    /// Stores a subscription, charging the write into the arena.
    pub fn subscribe(&mut self, mem: &mut MemorySim, sub: Subscription) -> SubId {
        let bytes = sub.footprint() as u64;
        let arena = match self.layout {
            Layout::ArrivalOrder => &mut self.arena,
            Layout::Clustered(_) => self
                .cluster_arenas
                .entry(self.cluster_key(&sub))
                .or_insert_with(|| Arena::new(CLUSTER_CHUNK_BYTES)),
        };
        let offset = arena.alloc(mem, bytes);
        mem.touch(offset, bytes as usize);
        mem.charge_ops(sub.predicates.len() as u64 + 4);
        self.db_bytes += bytes;
        let id = SubId(self.next_id);
        self.next_id += 1;
        self.index.insert(id, sub, offset);
        id
    }

    /// Matches a publication against the database, charging every node
    /// visit (memory reads and predicate evaluations).
    pub fn publish(&mut self, mem: &mut MemorySim, publication: &Publication) -> Vec<SubId> {
        let mut scratch = MatchScratch::default();
        self.publish_with(mem, publication, &mut scratch);
        scratch.matched
    }

    /// [`Self::publish`] for a batch: appends the matching ids to
    /// `scratch.matched` and reuses the scratch's working memory, so a
    /// publication allocates nothing once the scratch has grown.
    ///
    /// The index first records the visit trace, then the trace is charged:
    /// the same [`MemorySim::touch`] calls in the same order as if each
    /// visit were charged on the spot (a touch never steers the walk), while
    /// the index and the simulator's tables stop evicting each other from
    /// the host's cache.
    pub fn publish_with<'p>(
        &mut self,
        mem: &mut MemorySim,
        publication: &'p Publication,
        scratch: &mut MatchScratch<'p>,
    ) {
        scratch.trace.clear();
        let matched_before = scratch.matched.len();
        self.index.match_publication(publication, scratch);
        let mut predicates = 0u64;
        for visit in &scratch.trace {
            predicates += u64::from(visit.predicates_evaluated);
            mem.touch(visit.offset, visit.size.min(MATCH_READ_BYTES) as usize);
        }
        mem.charge_ops(predicates);
        self.metrics.publications.inc();
        self.metrics
            .matches
            .add((scratch.matched.len() - matched_before) as u64);
        self.metrics.nodes_visited.add(scratch.trace.len() as u64);
        self.metrics.predicates_evaluated.add(predicates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{NaiveIndex, PosetIndex};
    use crate::types::{Op, Predicate, Value};
    use securecloud_sgx::costs::{CostModel, MemoryGeometry};
    use securecloud_sgx::mem::MemStats;

    fn native_mem() -> MemorySim {
        MemorySim::native(MemoryGeometry::sgx_v1(), CostModel::sgx_v1())
    }

    fn enclave_mem() -> MemorySim {
        MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::sgx_v1())
    }

    fn sub(topic: i64, lo: i64) -> Subscription {
        Subscription::new(vec![
            Predicate::new("topic", Op::Eq, Value::Int(topic)),
            Predicate::new("v", Op::Ge, Value::Int(lo)),
        ])
        .with_payload(vec![0u8; 128])
    }

    #[test]
    fn subscribe_and_publish() {
        let mut mem = native_mem();
        let mut engine = MatchEngine::new(PosetIndex::with_partition_attr("topic"));
        let id1 = engine.subscribe(&mut mem, sub(1, 10));
        let id2 = engine.subscribe(&mut mem, sub(1, 50));
        let _id3 = engine.subscribe(&mut mem, sub(2, 0));
        let p = Publication::new()
            .with("topic", Value::Int(1))
            .with("v", Value::Int(30));
        let mut matches = engine.publish(&mut mem, &p);
        matches.sort();
        assert_eq!(matches, vec![id1]);
        let p2 = Publication::new()
            .with("topic", Value::Int(1))
            .with("v", Value::Int(60));
        let mut matches = engine.publish(&mut mem, &p2);
        matches.sort();
        assert_eq!(matches, vec![id1, id2]);
        let s = engine.stats();
        assert_eq!(s.publications, 2);
        assert_eq!(s.matches, 3);
        assert!(s.nodes_visited >= 3);
        assert!(s.predicates_evaluated > 0);
        assert_eq!(engine.len(), 3);
    }

    #[test]
    fn db_bytes_tracks_footprints() {
        let mut mem = native_mem();
        let mut engine = MatchEngine::new(NaiveIndex::new());
        assert!(engine.is_empty());
        let s = sub(0, 0);
        let expected = s.footprint() as u64;
        engine.subscribe(&mut mem, s);
        assert_eq!(engine.db_bytes(), expected);
    }

    #[test]
    fn arena_spans_chunks() {
        let mut mem = native_mem();
        let mut engine = MatchEngine::new(NaiveIndex::new());
        // ~2.5 MiB of subscriptions across 1 MiB chunks.
        for i in 0..1000 {
            engine.subscribe(
                &mut mem,
                Subscription::new(vec![Predicate::new("v", Op::Ge, Value::Int(i))])
                    .with_payload(vec![0u8; 2500]),
            );
        }
        assert!(engine.db_bytes() > 2 << 20);
        // All offsets distinct and non-overlapping: match everything and
        // check visit count equals subscription count.
        let p = Publication::new().with("v", Value::Int(1_000_000));
        let matches = engine.publish(&mut mem, &p);
        assert_eq!(matches.len(), 1000);
    }

    #[test]
    fn clustered_layout_matches_same_results() {
        let mut mem_a = native_mem();
        let mut mem_b = native_mem();
        let mut arrival = MatchEngine::new(PosetIndex::with_partition_attr("topic"));
        let mut clustered = MatchEngine::with_layout(
            PosetIndex::with_partition_attr("topic"),
            Layout::Clustered("topic".into()),
        );
        for i in 0..300 {
            arrival.subscribe(&mut mem_a, sub(i % 7, i));
            clustered.subscribe(&mut mem_b, sub(i % 7, i));
        }
        for v in [5i64, 100, 250] {
            let p = Publication::new()
                .with("topic", Value::Int(2))
                .with("v", Value::Int(v));
            let mut a = arrival.publish(&mut mem_a, &p);
            let mut b = clustered.publish(&mut mem_b, &p);
            a.sort();
            b.sort();
            assert_eq!(a, b, "layout must not change matching semantics");
        }
    }

    #[test]
    fn oversized_subscription_gets_a_region_of_its_own() {
        for layout in [Layout::ArrivalOrder, Layout::Clustered("topic".into())] {
            let mut mem = native_mem();
            let mut engine =
                MatchEngine::with_layout(PosetIndex::with_partition_attr("topic"), layout.clone());
            // 1.5 MiB: larger than a chunk of either layout.
            engine.subscribe(&mut mem, sub(1, 0).with_payload(vec![0u8; 3 << 19]));
            engine.subscribe(&mut mem, sub(1, 5));
            let p = Publication::new()
                .with("topic", Value::Int(1))
                .with("v", Value::Int(9));
            let mut scratch = MatchScratch::default();
            engine.publish_with(&mut mem, &p, &mut scratch);
            assert_eq!(scratch.matched.len(), 2);
            let spans: Vec<_> = scratch
                .trace
                .iter()
                .map(|v| v.offset..v.offset + u64::from(v.size))
                .collect();
            let (a, b) = (&spans[0], &spans[1]);
            assert!(
                a.end <= b.start || b.end <= a.start,
                "{layout:?}: {a:?} meets {b:?}"
            );
        }
    }

    #[test]
    fn clustered_layout_reduces_epc_faults() {
        // A DB larger than a tiny EPC: matching one topic touches scattered
        // pages under arrival order but a compact range under clustering.
        let geometry = securecloud_sgx::costs::MemoryGeometry {
            line_bytes: 64,
            llc_bytes: 64 << 10,
            page_bytes: 4096,
            epc_total_bytes: 1 << 20,
            epc_reserved_bytes: 256 << 10,
        };
        let run = |layout: Layout| -> u64 {
            let mut mem = MemorySim::enclave(geometry, CostModel::sgx_v1());
            let mut engine =
                MatchEngine::with_layout(PosetIndex::with_partition_attr("topic"), layout);
            for i in 0..8_000i64 {
                engine.subscribe(&mut mem, sub(i % 16, i));
            }
            // High values match (and therefore traverse) the entire
            // containment chain of the topic.
            let pubs: Vec<Publication> = (0..24)
                .map(|i| {
                    Publication::new()
                        .with("topic", Value::Int(i % 16))
                        .with("v", Value::Int(1_000_000))
                })
                .collect();
            for p in &pubs {
                engine.publish(&mut mem, p);
            }
            mem.reset_metrics();
            for p in &pubs {
                engine.publish(&mut mem, p);
            }
            mem.stats().epc_faults
        };
        let arrival_faults = run(Layout::ArrivalOrder);
        let clustered_faults = run(Layout::Clustered("topic".into()));
        assert!(
            clustered_faults * 3 < arrival_faults,
            "clustering should cut faults: arrival {arrival_faults}, clustered {clustered_faults}"
        );
    }

    /// 2 000 subscriptions (fig3 database plus string-keyed, float and
    /// general-group ones) and 64 publications (fig3 stream plus string
    /// topics, unmatched topics and publications without a topic, which
    /// visit every group). Returns an FNV-1a digest of the match lists in
    /// the order `publish` returned them.
    fn replay_fixed_trace(mem: &mut MemorySim) -> (EngineStats, u64) {
        use crate::workload::WorkloadSpec;
        let spec = WorkloadSpec::fig3();
        let mut engine = MatchEngine::new(PosetIndex::with_partition_attr("topic"));
        for (i, s) in spec.subscriptions(1_900).into_iter().enumerate() {
            engine.subscribe(mem, s);
            if i % 19 != 0 {
                continue;
            }
            let i = i as i64;
            let lo = Predicate::new("a0", Op::Ge, Value::Int(i % 700));
            let preds = match i % 3 {
                0 => {
                    let city = Value::Str(format!("city-{}", i % 7));
                    vec![Predicate::new("topic", Op::Eq, city), lo]
                }
                1 => vec![
                    lo,
                    Predicate::new("a1", Op::Lt, Value::Float(i as f64 / 2.0)),
                ],
                _ => vec![
                    Predicate::new("topic", Op::Eq, Value::Int(i % 5)),
                    Predicate::new("a0", Op::Ge, Value::Int(0)),
                    Predicate::new("a2", Op::Le, Value::Float(900.5)),
                    lo,
                ],
            };
            engine.subscribe(mem, Subscription::new(preds).with_payload(vec![0; 64]));
        }
        assert_eq!(engine.len(), 2_000);
        let mut publications = spec.publications(52);
        for i in 0..12i64 {
            let base = Publication::new()
                .with("a0", Value::Int(650 + i))
                .with("a1", Value::Float(40.25 * i as f64))
                .with("a2", Value::Int(i * 90));
            publications.push(match i % 3 {
                0 => base.with("topic", Value::Str(format!("city-{}", i % 7))),
                1 => base,
                _ => base.with("topic", Value::Int(1_000 + i)),
            });
        }
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for publication in &publications {
            for id in engine.publish(mem, publication) {
                digest = (digest ^ id.0).wrapping_mul(0x0000_0100_0000_01b3);
            }
            digest = (digest ^ u64::MAX).wrapping_mul(0x0000_0100_0000_01b3);
        }
        (engine.stats(), digest)
    }

    /// Zero-drift pin: simulated charges, engine counters and match order of
    /// [`replay_fixed_trace`], captured at the commit before the compiled
    /// index and the "trace, then charge" publish. A change to any literal is
    /// a change to the cost model or to the traversal order.
    #[test]
    fn fixed_trace_charges_are_pinned() {
        // Usable EPC (384 KiB) below the ~570 KiB database, so matching pages.
        let geometry = MemoryGeometry {
            line_bytes: 64,
            llc_bytes: 64 << 10,
            page_bytes: 4096,
            epc_total_bytes: 512 << 10,
            epc_reserved_bytes: 128 << 10,
        };
        let pin = |epc_faults, epc_evictions| MemStats {
            line_accesses: 25_504,
            cache_hits: 6_586,
            llc_misses: 18_918,
            epc_faults,
            epc_evictions,
            compute_ops: 21_998,
            bytes_allocated: 1 << 20,
            ..MemStats::default()
        };
        for (mut mem, cycles, mem_stats) in [
            (
                MemorySim::native(geometry, CostModel::sgx_v1()),
                4_716_208,
                pin(0, 0),
            ),
            (
                MemorySim::enclave(geometry, CostModel::sgx_v1()),
                38_081_608,
                pin(1_420, 1_324),
            ),
        ] {
            let (engine_stats, digest) = replay_fixed_trace(&mut mem);
            assert_eq!(
                engine_stats,
                EngineStats {
                    publications: 64,
                    matches: 1_222,
                    nodes_visited: 4_571,
                    predicates_evaluated: 7_535,
                }
            );
            assert_eq!(digest, 0x39be_76c8_37b5_ed16, "match order");
            assert_eq!(mem.cycles(), cycles);
            assert_eq!(mem.stats(), mem_stats);
        }
    }

    #[test]
    fn enclave_costs_exceed_native_for_identical_workload() {
        let mut native = native_mem();
        let mut enclave = enclave_mem();
        let mut engine_native = MatchEngine::new(PosetIndex::with_partition_attr("topic"));
        let mut engine_enclave = MatchEngine::new(PosetIndex::with_partition_attr("topic"));
        for i in 0..500 {
            engine_native.subscribe(&mut native, sub(i % 10, i));
            engine_enclave.subscribe(&mut enclave, sub(i % 10, i));
        }
        let p = Publication::new()
            .with("topic", Value::Int(3))
            .with("v", Value::Int(1_000));
        let native_before = native.cycles();
        let enclave_before = enclave.cycles();
        let m1 = engine_native.publish(&mut native, &p);
        let m2 = engine_enclave.publish(&mut enclave, &p);
        assert_eq!(m1, m2, "domains must agree on matching results");
        let native_cost = native.cycles() - native_before;
        let enclave_cost = enclave.cycles() - enclave_before;
        assert!(enclave_cost >= native_cost);
    }
}
