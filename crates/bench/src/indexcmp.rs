//! E6: the SCBR containment index versus naive linear matching — "a
//! reduced number of comparisons is required whenever a message must be
//! matched" (§V-B).

use securecloud_scbr::engine::MatchEngine;
use securecloud_scbr::index::{MatchScratch, NaiveIndex, PosetIndex, SubscriptionIndex};
use securecloud_scbr::types::{Op, Predicate, Publication, SubId, Subscription, Value};
use securecloud_scbr::workload::WorkloadSpec;
use securecloud_sgx::costs::{CostModel, MemoryGeometry};
use securecloud_sgx::mem::MemorySim;

use crate::report::Cell::Fixed;
use crate::report::{Column, Ctx, Report};

/// One subscription-count point comparing the two indexes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexPoint {
    /// Number of subscriptions.
    pub subs: usize,
    /// Nodes visited per publication, naive index.
    pub naive_visits: u64,
    /// Nodes visited per publication, containment index.
    pub poset_visits: u64,
    /// Predicates evaluated per publication, naive index.
    pub naive_predicates: u64,
    /// Predicates evaluated per publication, containment index.
    pub poset_predicates: u64,
    /// Simulated matching time per publication, naive, microseconds.
    pub naive_us: f64,
    /// Simulated matching time per publication, containment, microseconds.
    pub poset_us: f64,
}

fn run_index<I: SubscriptionIndex>(
    index: I,
    subs: &[Subscription],
    publications: usize,
) -> (u64, u64, f64) {
    let spec = WorkloadSpec::fig3();
    let mut mem = MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::sgx_v1());
    let mut engine = MatchEngine::new(index);
    for sub in subs {
        engine.subscribe(&mut mem, sub.clone());
    }
    let pubs = spec.publications(publications);
    for publication in &pubs {
        engine.publish(&mut mem, publication);
    }
    mem.reset_metrics();
    let before = engine.stats();
    for publication in &pubs {
        engine.publish(&mut mem, publication);
    }
    let after = engine.stats();
    let n = publications as u64;
    (
        (after.nodes_visited - before.nodes_visited) / n,
        (after.predicates_evaluated - before.predicates_evaluated) / n,
        mem.elapsed().as_micros() as f64 / publications as f64,
    )
}

/// Compares both indexes at one database size (uniform fig3 workload).
#[must_use]
pub fn run_point(subs: usize, publications: usize) -> IndexPoint {
    let spec = WorkloadSpec::fig3();
    let database = spec.subscriptions(subs);
    let (naive_visits, naive_predicates, naive_us) =
        run_index(NaiveIndex::new(), &database, publications);
    let (poset_visits, poset_predicates, poset_us) = run_index(
        PosetIndex::with_partition_attr("topic"),
        &database,
        publications,
    );
    IndexPoint {
        subs,
        naive_visits,
        poset_visits,
        naive_predicates,
        poset_predicates,
        naive_us,
        poset_us,
    }
}

/// Sweep over database sizes.
#[must_use]
pub fn sweep(sub_counts: &[usize], publications: usize) -> Vec<IndexPoint> {
    sub_counts
        .iter()
        .map(|&n| run_point(n, publications))
        .collect()
}

/// A containment-heavy workload: range subscriptions nested inside each
/// other (the structure the forest prunes best). Returns visits per
/// publication for naive vs poset *without* topic partitioning, isolating
/// the containment effect itself.
#[must_use]
pub fn containment_heavy_point(chains: usize, depth: usize, publications: usize) -> (u64, u64) {
    let mut database = Vec::new();
    for chain in 0..chains {
        let base = (chain as i64) * 1000;
        for level in 0..depth {
            // Deeper levels are narrower intervals: [base+level, base+1000-level).
            database.push(Subscription::new(vec![
                Predicate::new("x", Op::Ge, Value::Int(base + level as i64)),
                Predicate::new("x", Op::Lt, Value::Int(base + 1000 - level as i64)),
            ]));
        }
    }
    // Publications that miss every chain (x = -1): the poset visits only
    // the chain heads, the naive index visits everything.
    let publication = Publication::new().with("x", Value::Int(-1));
    let visits = |index: &mut dyn SubscriptionIndex| {
        for (i, sub) in database.iter().enumerate() {
            index.insert(SubId(i as u64), sub.clone(), i as u64 * 256);
        }
        let mut scratch = MatchScratch::default();
        let mut visits = 0u64;
        for _ in 0..publications {
            scratch.trace.clear();
            index.match_publication(&publication, &mut scratch);
            visits += scratch.trace.len() as u64;
        }
        visits / publications as u64
    };
    (
        visits(&mut NaiveIndex::new()),
        visits(&mut PosetIndex::new()),
    )
}

/// The E6 table plus the containment-heavy comparison.
pub fn report(ctx: &Ctx) -> Vec<Report> {
    let (sub_counts, pubs) = ctx.pick(
        (&[1_000, 10_000][..], 10),
        (&[1_000, 10_000, 50_000, 100_000][..], 30),
    );
    let points = sweep(sub_counts, pubs);
    let report = Report::new(
        "index",
        "== E6: containment index vs naive matching (§V-B) ==",
        &points,
        [
            Column::new("subs", 8, |p| p.subs.into()),
            Column::new("naive visit", 12, |p| p.naive_visits.into()),
            Column::new("poset visit", 12, |p| p.poset_visits.into()),
            Column::new("naive pred", 11, |p| p.naive_predicates.into()),
            Column::new("poset pred", 11, |p| p.poset_predicates.into()),
            Column::new("naive us", 10, |p| Fixed(p.naive_us, 1)),
            Column::new("poset us", 10, |p| Fixed(p.poset_us, 1)),
        ],
    );
    let (naive, poset) = containment_heavy_point(50, 50, 10);
    vec![Report {
        meta: vec![
            ("containment_heavy_naive_visits", naive.into()),
            ("containment_heavy_poset_visits", poset.into()),
        ],
        footer: format!(
            "containment-heavy workload (50 chains x 50 nested ranges, non-matching pubs):
  naive visits/pub: {naive}, poset visits/pub: {poset} ({}x fewer)",
            naive / poset.max(1)
        ),
        ..report
    }]
}
