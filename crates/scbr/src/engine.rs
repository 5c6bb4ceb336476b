//! The matching engine with a simulated memory layout.
//!
//! The engine stores subscriptions in simulated memory and charges every
//! node visit of a match to the [`MemorySim`]: cache, MEE, and EPC-paging
//! costs. Running the *same* engine code against a native-domain and an
//! enclave-domain simulator is how benchmark E1 regenerates the paper's
//! Figure 3.
//!
//! Two [`Layout`] policies are available. [`Layout::Inline`] stores each
//! subscription's wire record in one piece in a bump-allocated arena, in
//! arrival order, and charges a visit as a read of the record's first 128
//! bytes: the baseline the paper measured, and what [`MatchEngine::new`]
//! builds. [`Layout::Split`] implements the paper's stated future work ("we
//! intend to optimise our data structures to avoid paging and cache
//! misses"): the simulated match memory is the index's compiled image, in
//! visit order, written whenever the index lays it out anew; a visit is
//! charged the bytes of it the walk read; payloads, which matching never
//! reads, sit in an arena of their own, and the wire record is not stored.
//! The sealed router builds its engine with it. Benchmark E8 quantifies the
//! effect.

use crate::index::{MatchScratch, SubscriptionIndex};
use crate::notify::PublicationRef;
use crate::types::{Publication, SubId, Subscription};
use securecloud_crypto::wire::Wire;
use securecloud_sgx::mem::{Arena, MemorySim, Region};
use securecloud_telemetry::Telemetry;

/// Arena chunk size: subscriptions are packed into these.
const ARENA_CHUNK_BYTES: u64 = 1 << 20;

/// Memory layout policy for the subscription database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Each subscription's wire record, payload included, in one piece in
    /// arrival order (the baseline the paper measured).
    Inline,
    /// The index's compiled image in visit order, rewritten after inserts,
    /// each visit charged the bytes of it the walk read; payloads in an
    /// arena of their own; no wire record. (`NaiveIndex` has no image.)
    Split,
}

/// Under [`Layout::Inline`], the bytes of a wire record a visit is charged
/// for (header and predicates; matching never reads the payload).
const MATCH_READ_BYTES: u32 = 128;

securecloud_telemetry::metric_set! {
    /// Live metric handles behind [`EngineStats`].
    struct EngineMetrics {
        /// Publications processed.
        publications: Counter = "securecloud_scbr_publications_total",
        /// Total subscription matches produced.
        matches: Counter = "securecloud_scbr_matches_total",
        /// Index nodes visited.
        nodes_visited: Counter = "securecloud_scbr_nodes_visited_total",
        /// Predicates evaluated.
        predicates_evaluated: Counter = "securecloud_scbr_predicates_evaluated_total",
    }
    /// Counters accumulated by a [`MatchEngine`] (snapshot; the live handles
    /// saturate rather than wrap).
    pub struct EngineStats;
}

/// A content-based matching engine over an index `I`.
///
/// The engine does not own a memory simulator; callers pass the domain they
/// run in (`MemorySim::native` baseline or an enclave's memory).
#[derive(Debug)]
pub struct MatchEngine<I> {
    index: I,
    layout: Layout,
    /// What `subscribe` stores: whole wire records under
    /// [`Layout::Inline`], payloads under [`Layout::Split`].
    arena: Arena,
    /// Under [`Layout::Split`], the region holding the compiled image.
    compiled: Option<Region>,
    db_bytes: u64,
    next_id: u64,
    metrics: EngineMetrics,
}

impl<I: SubscriptionIndex> MatchEngine<I> {
    /// Creates an engine over `index` with the [`Layout::Inline`] baseline.
    #[must_use]
    pub fn new(index: I) -> Self {
        Self::with_layout(index, Layout::Inline)
    }

    /// Creates an engine with an explicit arena [`Layout`].
    #[must_use]
    pub fn with_layout(index: I, layout: Layout) -> Self {
        MatchEngine {
            index,
            layout,
            arena: Arena::new(ARENA_CHUNK_BYTES),
            compiled: None,
            db_bytes: 0,
            next_id: 0,
            metrics: EngineMetrics::default(),
        }
    }

    /// Adopts this engine's counters into the shared registry, labeled with
    /// the memory `domain` it runs against (`"native"` / `"enclave"`), so a
    /// Figure 3 run exports both sides distinctly.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry, domain: &str) {
        self.metrics
            .adopt_into(telemetry.registry(), &[("domain", domain)]);
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
        self.metrics.snapshot()
    }

    /// Stores a subscription, charging the write of what the layout keeps
    /// of it: the wire record under [`Layout::Inline`], the payload under
    /// [`Layout::Split`] (the next match writes the compiled image).
    pub fn subscribe(&mut self, mem: &mut MemorySim, mut sub: Subscription) -> SubId {
        let bytes = sub.footprint() as u64;
        let stored = match self.layout {
            Layout::Inline => bytes,
            Layout::Split => std::mem::take(&mut sub.payload).len() as u64,
        };
        let offset = if stored > 0 {
            self.arena.alloc(mem, stored)
        } else {
            0
        };
        mem.touch(offset, stored as usize);
        mem.charge_ops(sub.predicates.len() as u64 + 4);
        self.db_bytes += bytes;
        let id = SubId(self.next_id);
        self.next_id += 1;
        self.index.insert(id, sub, offset);
        id
    }

    /// Matches a publication against the database, charging every node
    /// visit (memory reads and predicate evaluations). The index matches
    /// over the view of the publication's own encoding.
    pub fn publish(&mut self, mem: &mut MemorySim, publication: &Publication) -> Vec<SubId> {
        let encoded = publication.to_wire();
        let view = PublicationRef::parse(&encoded).expect("an encoded publication is canonical");
        let mut scratch = MatchScratch::default();
        self.publish_with(mem, view, &mut scratch);
        scratch.matched
    }

    /// [`Self::publish`] over a validated view, for a batch: appends the
    /// matching ids to `scratch.matched` and reuses the scratch's working
    /// memory, so a publication allocates nothing once the scratch has grown.
    ///
    /// The index first records the visit trace, then the trace is charged:
    /// the same [`MemorySim::touch`] calls in the same order as if each
    /// visit were charged on the spot (a touch never steers the walk), while
    /// the index and the simulator's tables stop evicting each other from
    /// the host's cache. Under [`Layout::Split`] a re-layout comes first,
    /// charged as the write of the whole compiled image.
    pub fn publish_with<'p>(
        &mut self,
        mem: &mut MemorySim,
        publication: PublicationRef<'p>,
        scratch: &mut MatchScratch<'p>,
    ) {
        scratch.trace.clear();
        let matched_before = scratch.matched.len();
        self.index.match_publication(publication, scratch);
        if let (Layout::Split, Some(bytes)) = (self.layout, scratch.laid_out.take()) {
            // A re-layout writes a fresh image and frees the old one.
            let image = mem.alloc(bytes.into());
            if let Some(old) = self.compiled.replace(image) {
                mem.free(old);
            }
            mem.touch(image.base(), bytes as usize);
        }
        let image = self.compiled.map_or(0, |image| image.base());
        let mut predicates = 0u64;
        for visit in &scratch.trace {
            predicates += u64::from(visit.predicates_evaluated);
            match self.layout {
                Layout::Inline => {
                    mem.touch(visit.offset, visit.size.min(MATCH_READ_BYTES) as usize)
                }
                Layout::Split => mem.touch(image + u64::from(visit.record), visit.read as usize),
            }
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
    use crate::index::{NaiveIndex, PosetIndex, VisitInfo};
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
    fn split_layout_matches_inline() {
        let (inline_stats, inline) = replay_fixed_trace(&mut native_mem(), Layout::Inline);
        let (split_stats, split) = replay_fixed_trace(&mut native_mem(), Layout::Split);
        assert_eq!(
            split, inline,
            "layout must not change matches or their order"
        );
        assert_eq!(split_stats, inline_stats);
    }

    #[test]
    fn oversized_subscription_gets_a_region_of_its_own() {
        for layout in [Layout::Inline, Layout::Split] {
            let mut mem = native_mem();
            let mut engine =
                MatchEngine::with_layout(PosetIndex::with_partition_attr("topic"), layout);
            // 1.5 MiB: larger than a chunk (of the payload arena when split).
            engine.subscribe(&mut mem, sub(1, 0).with_payload(vec![0u8; 3 << 19]));
            engine.subscribe(&mut mem, sub(1, 5));
            let p = Publication::new()
                .with("topic", Value::Int(1))
                .with("v", Value::Int(9));
            let encoded = p.to_wire();
            let mut scratch = MatchScratch::default();
            engine.publish_with(
                &mut mem,
                PublicationRef::parse(&encoded).unwrap(),
                &mut scratch,
            );
            assert_eq!(scratch.matched.len(), 2);
            let spans: Vec<_> = scratch
                .trace
                .iter()
                .map(|v| match layout {
                    Layout::Inline => v.offset..v.offset + u64::from(v.size),
                    Layout::Split => u64::from(v.record)..u64::from(v.record + v.read),
                })
                .collect();
            let (a, b) = (&spans[0], &spans[1]);
            assert!(
                a.end <= b.start || b.end <= a.start,
                "{layout:?}: {a:?} meets {b:?}"
            );
        }
    }

    /// Cache lines of `[record, record + read)` in an image whose region
    /// starts on a page, and so on a line.
    fn lines(visit: &VisitInfo) -> u64 {
        let (start, end) = (
            u64::from(visit.record),
            u64::from(visit.record + visit.read),
        );
        (end - 1) / 64 - start / 64 + 1
    }

    /// Under [`Layout::Split`], `c` (no partition attribute: one forest)
    /// is a root, `a` a root covering `b`, so the walk visits `c`, `a`,
    /// `b` and lays out `c` (48 bytes), `a` (48) and `b` (32 + 16 + 16 +
    /// the 6 bytes of its string operand) in that order.
    fn split_engine(mem: &mut MemorySim) -> MatchEngine<PosetIndex> {
        let mut engine = MatchEngine::with_layout(PosetIndex::new(), Layout::Split);
        let a = Subscription::new(vec![Predicate::new("x", Op::Ge, Value::Int(0))]);
        let b = Subscription::new(vec![
            Predicate::new("x", Op::Ge, Value::Int(10)),
            Predicate::new("name", Op::Eq, Value::Str("abcdef".into())),
        ]);
        let c = Subscription::new(vec![Predicate::new("y", Op::Le, Value::Int(5))]);
        for s in [a, b, c] {
            engine.subscribe(mem, s.with_payload(vec![0u8; 64]));
        }
        engine
    }

    /// Publishes `p` and returns the visits with the line accesses charged.
    fn charged(
        engine: &mut MatchEngine<PosetIndex>,
        mem: &mut MemorySim,
        p: &Publication,
    ) -> (Vec<VisitInfo>, u64) {
        let encoded = p.to_wire();
        let mut scratch = MatchScratch::default();
        let before = mem.stats().line_accesses;
        engine.publish_with(mem, PublicationRef::parse(&encoded).unwrap(), &mut scratch);
        (scratch.trace, mem.stats().line_accesses - before)
    }

    #[test]
    fn split_visit_is_charged_the_bytes_the_walk_read() {
        let mut mem = native_mem();
        let mut engine = split_engine(&mut mem);
        let every = Publication::new()
            .with("x", Value::Int(20))
            .with("y", Value::Int(1))
            .with("name", Value::Str("abcdef".into()));
        // The first match lays out the 166-byte image: three lines.
        let (visits, lines_charged) = charged(&mut engine, &mut mem, &every);
        let at = |v: &VisitInfo| (v.record, v.read, v.predicates_evaluated);
        let all: Vec<_> = visits.iter().map(at).collect();
        assert_eq!(all, [(0, 48, 1), (48, 48, 1), (96, 70, 2)]);
        assert_eq!(lines_charged, 3 + visits.iter().map(lines).sum::<u64>());
        // `a` fails its one test, so `b` is pruned: neither visited nor
        // charged.
        let pruned = every.clone().with("x", Value::Int(-1));
        let (visits, lines_charged) = charged(&mut engine, &mut mem, &pruned);
        let all: Vec<_> = visits.iter().map(at).collect();
        assert_eq!(all, [(0, 48, 1), (48, 48, 1)]);
        assert_eq!(lines_charged, visits.iter().map(lines).sum::<u64>());
        // A failed string test still reads its operand.
        let other_name = every.with("name", Value::Str("zz".into()));
        let (visits, _) = charged(&mut engine, &mut mem, &other_name);
        assert_eq!(at(&visits[2]), (96, 32 + 16 + 16 + 6, 2));
        // The three records, packed in visit order, are all the image.
        let image = engine.compiled.expect("laid out");
        assert_eq!(image.len(), 166);
    }

    #[test]
    fn a_subscribe_after_a_publish_charges_one_re_layout() {
        let mut mem = native_mem();
        let mut engine = split_engine(&mut mem);
        let p = Publication::new()
            .with("x", Value::Int(20))
            .with("y", Value::Int(1));
        let visits_only = |visits: &[VisitInfo]| visits.iter().map(lines).sum::<u64>();
        let (visits, first) = charged(&mut engine, &mut mem, &p);
        assert_eq!(first, 3 + visits_only(&visits), "the 166-byte image");
        let (visits, again) = charged(&mut engine, &mut mem, &p);
        assert_eq!(again, visits_only(&visits), "no insert, no re-layout");
        // One more 48-byte root: a fresh 214-byte image.
        let d = Subscription::new(vec![Predicate::new("z", Op::Lt, Value::Int(3))]);
        engine.subscribe(&mut mem, d);
        let (visits, relaid) = charged(&mut engine, &mut mem, &p);
        assert_eq!(relaid, 4 + visits_only(&visits), "the 214-byte image");
        assert_eq!(engine.compiled.map(|r| r.len()), Some(214));
        let (visits, again) = charged(&mut engine, &mut mem, &p);
        assert_eq!(again, visits_only(&visits));
    }

    #[test]
    fn split_layout_cuts_epc_faults() {
        // A DB larger than a tiny EPC whose compiled image alone fits it:
        // matching pages under the inline layout and not once split.
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
            for i in 0..5_000i64 {
                engine.subscribe(&mut mem, sub(i % 16, i).with_payload(vec![0u8; 256]));
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
        let inline_faults = run(Layout::Inline);
        let split_faults = run(Layout::Split);
        assert!(
            split_faults * 10 < inline_faults,
            "splitting should cut faults: inline {inline_faults}, split {split_faults}"
        );
    }

    /// 2 000 subscriptions (fig3 database plus string-keyed, float and
    /// general-group ones) and 64 publications (fig3 stream plus string
    /// topics, unmatched topics and publications without a topic, which
    /// visit every group), under `layout`. Returns the match lists in the
    /// order `publish` returned them.
    fn replay_fixed_trace(mem: &mut MemorySim, layout: Layout) -> (EngineStats, Vec<Vec<SubId>>) {
        use crate::workload::WorkloadSpec;
        let spec = WorkloadSpec::fig3();
        let mut engine = MatchEngine::with_layout(PosetIndex::with_partition_attr("topic"), layout);
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
        let matches = publications
            .iter()
            .map(|publication| engine.publish(mem, publication))
            .collect();
        (engine.stats(), matches)
    }

    /// FNV-1a over the match lists, each closed by a `u64::MAX` marker.
    fn match_digest(matches: &[Vec<SubId>]) -> u64 {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for ids in matches {
            for id in ids {
                digest = (digest ^ id.0).wrapping_mul(0x0000_0100_0000_01b3);
            }
            digest = (digest ^ u64::MAX).wrapping_mul(0x0000_0100_0000_01b3);
        }
        digest
    }

    /// Replays the fixed trace under `layout` on a geometry whose usable EPC
    /// (384 KiB) is below the ~570 KiB database, and checks the pinned
    /// charges of the native and the enclave run. The engine counters and
    /// the match order are the same under every layout.
    fn check_fixed_trace(layout: Layout, native: (u64, MemStats), enclave: (u64, MemStats)) {
        let geometry = MemoryGeometry {
            line_bytes: 64,
            llc_bytes: 64 << 10,
            page_bytes: 4096,
            epc_total_bytes: 512 << 10,
            epc_reserved_bytes: 128 << 10,
        };
        for (mut mem, (cycles, mem_stats)) in [
            (MemorySim::native(geometry, CostModel::sgx_v1()), native),
            (MemorySim::enclave(geometry, CostModel::sgx_v1()), enclave),
        ] {
            let (engine_stats, matches) = replay_fixed_trace(&mut mem, layout);
            assert_eq!(
                engine_stats,
                EngineStats {
                    publications: 64,
                    matches: 1_222,
                    nodes_visited: 4_571,
                    predicates_evaluated: 7_535,
                }
            );
            assert_eq!(match_digest(&matches), 0x39be_76c8_37b5_ed16, "match order");
            assert_eq!(mem.cycles(), cycles, "{layout:?}");
            assert_eq!(mem.stats(), mem_stats, "{layout:?}");
        }
    }

    /// Zero-drift pin: simulated charges, engine counters and match order of
    /// [`replay_fixed_trace`], captured at the commit before the compiled
    /// index and the "trace, then charge" publish. A change to any literal is
    /// a change to the cost model or to the traversal order.
    #[test]
    fn fixed_trace_charges_are_pinned() {
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
        check_fixed_trace(
            Layout::Inline,
            (4_716_208, pin(0, 0)),
            (38_081_608, pin(1_420, 1_324)),
        );
    }

    /// The same trace under [`Layout::Split`], captured when a visit began
    /// to be charged the bytes of the compiled image it read: the same
    /// visits, plus one write of the 167 612-byte image, touch about two
    /// thirds of the lines and fault on a twelfth of the pages that
    /// [`Layout::Inline`] faults on in the enclave. The payload arena is
    /// the other megabyte allocated.
    #[test]
    fn split_fixed_trace_charges_are_pinned() {
        let pin = |epc_faults, epc_evictions| MemStats {
            line_accesses: 16_520,
            cache_hits: 7_690,
            llc_misses: 8_830,
            epc_faults,
            epc_evictions,
            compute_ops: 21_998,
            bytes_allocated: (1 << 20) + 167_612,
            ..MemStats::default()
        };
        check_fixed_trace(
            Layout::Split,
            (2_707_440, pin(0, 0)),
            (7_637_940, pin(117, 21)),
        );
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
