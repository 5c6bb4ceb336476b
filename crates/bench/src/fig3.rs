//! E1 (Figure 3) and E2 (cache misses vs memory swapping).
//!
//! The same SCBR matching engine runs against a native-domain and an
//! enclave-domain memory simulator over subscription databases of growing
//! size; the enclave/native time ratio reproduces Figure 3's "effect of
//! memory swapping".

use securecloud_scbr::engine::{Layout, MatchEngine};
use securecloud_scbr::index::PosetIndex;
use securecloud_scbr::workload::WorkloadSpec;
use securecloud_sgx::costs::{CostModel, MemoryGeometry};
use securecloud_sgx::mem::MemorySim;
use securecloud_telemetry::{Telemetry, TraceContext};

use crate::pool;
use crate::report::Cell::{Fixed, Unit};
use crate::report::{Column, Ctx, Report};

/// The database sizes swept for Figure 3 (MiB). The vertical line of the
/// paper's figure sits at 128 MiB.
const PAPER_DB_SIZES_MB: &[u64] = &[
    8, 16, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224,
];

/// One point of the Figure 3 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Point {
    /// Subscription database size in MiB.
    pub db_mb: u64,
    /// Steady-state native matching time per publication, microseconds.
    pub native_us: f64,
    /// Steady-state in-enclave matching time per publication, microseconds.
    pub enclave_us: f64,
    /// enclave / native ratio (the y-axis of Figure 3).
    pub ratio: f64,
    /// Index nodes visited per publication.
    pub visits_per_pub: u64,
    /// EPC page faults per publication (enclave run).
    pub faults_per_pub: u64,
    /// LLC misses per publication (enclave run).
    pub llc_misses_per_pub: u64,
}

struct DomainRun {
    us_per_pub: f64,
    visits_per_pub: u64,
    faults_per_pub: u64,
    llc_misses_per_pub: u64,
}

#[allow(clippy::too_many_arguments)]
fn run_domain(
    spec: &WorkloadSpec,
    db_bytes: u64,
    publications: usize,
    geometry: MemoryGeometry,
    costs: CostModel,
    enclave: bool,
    layout: Layout,
    telemetry: Option<&Telemetry>,
) -> DomainRun {
    let domain = if enclave { "enclave" } else { "native" };
    let _span = telemetry.map(|t| {
        t.span(
            "bench",
            "fig3_domain",
            vec![
                ("domain", domain.to_string()),
                ("db_mb", (db_bytes >> 20).to_string()),
            ],
            TraceContext::none(),
        )
    });
    let mut mem = if enclave {
        MemorySim::enclave(geometry, costs)
    } else {
        MemorySim::native(geometry, costs)
    };
    let mut engine = MatchEngine::with_layout(PosetIndex::with_partition_attr("topic"), layout);
    if let Some(t) = telemetry {
        mem.set_telemetry(t);
        engine.set_telemetry(t, domain);
    }
    for sub in spec.subscriptions_for_db_size(db_bytes) {
        engine.subscribe(&mut mem, sub);
    }
    let pubs = spec.publications(publications);
    // Warm-up pass (cold-start faults excluded), then the measured pass.
    for publication in &pubs {
        engine.publish(&mut mem, publication);
    }
    mem.reset_metrics();
    let visits_before = engine.stats().nodes_visited;
    for publication in &pubs {
        engine.publish(&mut mem, publication);
    }
    let visits = engine.stats().nodes_visited - visits_before;
    let n = publications as u64;
    DomainRun {
        us_per_pub: mem.elapsed().as_micros() as f64 / publications as f64,
        visits_per_pub: visits / n,
        faults_per_pub: mem.stats().epc_faults / n,
        llc_misses_per_pub: mem.stats().llc_misses / n,
    }
}

/// Runs one database size in both domains with SGX1 defaults, optionally
/// recording per-domain sgx/scbr metrics and a `bench/fig3_domain` span
/// pair into `telemetry`.
#[must_use]
pub fn run_point(db_mb: u64, publications: usize, telemetry: Option<&Telemetry>) -> Fig3Point {
    let spec = WorkloadSpec::fig3();
    let run = |enclave: bool| {
        run_domain(
            &spec,
            db_mb << 20,
            publications,
            MemoryGeometry::sgx_v1(),
            CostModel::sgx_v1(),
            enclave,
            Layout::Inline,
            telemetry,
        )
    };
    let native = run(false);
    let enclave = run(true);
    Fig3Point {
        db_mb,
        native_us: native.us_per_pub,
        enclave_us: enclave.us_per_pub,
        ratio: enclave.us_per_pub / native.us_per_pub,
        visits_per_pub: enclave.visits_per_pub,
        faults_per_pub: enclave.faults_per_pub,
        llc_misses_per_pub: enclave.llc_misses_per_pub,
    }
}

/// Figure 3 sweep fanned across up to `jobs` worker threads.
///
/// Every sweep point is independent (own simulator, own engine, own virtual
/// time base), so points run concurrently and are collected in input order.
/// With `telemetry`, every point records its memory-simulator and
/// matching-engine metrics (labeled by domain) and a span per domain run
/// through [`pool::run_ordered`], so results *and* telemetry exports
/// are byte-identical for any job count.
#[must_use]
pub fn sweep(
    db_sizes_mb: &[u64],
    publications: usize,
    jobs: usize,
    telemetry: Option<&Telemetry>,
) -> Vec<Fig3Point> {
    pool::run_ordered(db_sizes_mb.to_vec(), jobs, telemetry, |mb, local| {
        run_point(mb, publications, local)
    })
}

/// The Figure 3 table.
pub fn report(ctx: &Ctx) -> Vec<Report> {
    // Few sizes under --smoke, but enough publications that the 160 MiB
    // point still pages (too few and the touched set fits the EPC after
    // warm-up).
    let (sizes, pubs) = ctx.pick((&[8, 64, 128, 160][..], 20), (PAPER_DB_SIZES_MB, 30));
    let points = sweep(sizes, pubs, ctx.jobs, Some(ctx.telemetry));
    vec![Report::new(
        "fig3",
        "== E1 / Figure 3: effect of memory swapping ==
(paper: ratio ~1 below EPC, degradation before the 128 MiB line,
 ~18x at a 200 MiB subscription database)",
        &points,
        [
            Column::new("DB MiB", 6, |p| p.db_mb.into()),
            Column::new("native us/p", 12, |p| Fixed(p.native_us, 1)),
            Column::new("enclave us/p", 13, |p| Fixed(p.enclave_us, 1)),
            Column::new("ratio", 7, |p| Unit(p.ratio, 1, "x")),
            Column::new("faults/pub", 11, |p| p.faults_per_pub.into()),
            Column::new("visits/pub", 11, |p| p.visits_per_pub.into()),
            Column::table("", 0, |p| {
                if p.db_mb == 128 { " <-- EPC size" } else { "" }.into()
            }),
        ],
    )]
}

/// E8: one Figure 3 point under the paper's proposed optimisations.
#[derive(Debug, Clone, PartialEq)]
struct OptimisedPoint {
    /// Variant label.
    pub variant: &'static str,
    /// Database size, MiB.
    pub db_mb: u64,
    /// In-enclave matching time per publication, microseconds.
    pub enclave_us: f64,
    /// enclave / native ratio against the shared native baseline.
    pub ratio: f64,
    /// EPC faults per publication.
    pub faults_per_pub: u64,
}

/// E8: the paper's future-work directions quantified — matching over the
/// compiled index in visit order, apart from the payloads ("optimise our
/// data structures to avoid paging", [`Layout::Split`]) and a
/// larger-EPC platform (SGX2-class hardware) — against the measured
/// baseline, at one past-EPC database size.
#[must_use]
fn optimisations(db_mb: u64, publications: usize) -> Vec<OptimisedPoint> {
    let spec = WorkloadSpec::fig3();
    let costs = CostModel::sgx_v1();
    let run = |geometry: MemoryGeometry, enclave: bool, layout: Layout| {
        let costs = costs.clone();
        run_domain(
            &spec,
            db_mb << 20,
            publications,
            geometry,
            costs,
            enclave,
            layout,
            None,
        )
    };
    // Each variant is compared against a native run on the *same*
    // geometry, so larger-LLC platforms do not skew the ratio.
    let native_v1 = run(MemoryGeometry::sgx_v1(), false, Layout::Inline);
    let native_v2 = run(MemoryGeometry::sgx_v2(), false, Layout::Inline);
    let variants: Vec<(&'static str, MemoryGeometry, Layout)> = vec![
        (
            "baseline (inline, SGX1)",
            MemoryGeometry::sgx_v1(),
            Layout::Inline,
        ),
        (
            "split layout, SGX1",
            MemoryGeometry::sgx_v1(),
            Layout::Split,
        ),
        ("inline, SGX2 EPC", MemoryGeometry::sgx_v2(), Layout::Inline),
        (
            "split layout, SGX2 EPC",
            MemoryGeometry::sgx_v2(),
            Layout::Split,
        ),
    ];
    variants
        .into_iter()
        .map(|(variant, geometry, layout)| {
            let run = run(geometry, true, layout);
            let native_us = if geometry == MemoryGeometry::sgx_v2() {
                native_v2.us_per_pub
            } else {
                native_v1.us_per_pub
            };
            OptimisedPoint {
                variant,
                db_mb,
                enclave_us: run.us_per_pub,
                ratio: run.us_per_pub / native_us,
                faults_per_pub: run.faults_per_pub,
            }
        })
        .collect()
}

/// The E8 table, at the 160 MiB past-EPC point. The smoke run replays the
/// full publication count: with fewer, the baseline's touched set fits the
/// EPC after warm-up and every row reads 1.0× and 0 faults.
pub fn optimisations_report(_ctx: &Ctx) -> Vec<Report> {
    let points = optimisations(160, 30);
    vec![Report::new(
        "fig3opt",
        "== E8: paging optimisations (paper's future work, quantified) ==
(\"we intend to optimise our data structures to avoid paging and
 cache misses ... to further decrease the overhead\", 160 MiB DB)",
        &points,
        [
            Column::new("variant", 32, |p| p.variant.into()),
            Column::json("db_mib", |p| p.db_mb.into()),
            Column::new("enclave us/p", 13, |p| Fixed(p.enclave_us, 1)),
            Column::new("ratio", 7, |p| Unit(p.ratio, 1, "x")),
            Column::new("faults/pub", 11, |p| p.faults_per_pub.into()),
        ],
    )]
}

/// E2: the three memory-pressure regimes of §V-B.
#[derive(Debug, Clone, PartialEq)]
struct CacheRegime {
    /// Regime label.
    pub regime: &'static str,
    /// Database size, MiB.
    pub db_mb: u64,
    /// The measured point.
    pub point: Fig3Point,
}

/// Runs the cache-vs-swap comparison: a working set inside the LLC, one
/// inside the EPC but beyond the LLC (MEE overhead only — "limited"), and
/// one beyond the EPC (paging — "more critical").
#[must_use]
fn cache_vs_swap(publications: usize) -> Vec<CacheRegime> {
    [
        ("fits LLC", 4u64),
        ("fits EPC, misses LLC", 48),
        ("exceeds EPC (swapping)", 160),
    ]
    .into_iter()
    .map(|(regime, db_mb)| CacheRegime {
        regime,
        db_mb,
        point: run_point(db_mb, publications, None),
    })
    .collect()
}

/// The E2 table.
pub fn cache_report(ctx: &Ctx) -> Vec<Report> {
    let regimes = cache_vs_swap(ctx.pick(30, 200));
    vec![Report::new(
        "cache",
        "== E2: cache misses vs memory swapping (§V-B) ==
(paper: cache misses impose limited overhead; swapping is worse)",
        &regimes,
        [
            Column::new("regime", 24, |r| r.regime.into()),
            Column::new("DB MiB", 6, |r| r.db_mb.into()),
            Column::new("native us/p", 12, |r| Fixed(r.point.native_us, 1)),
            Column::new("enclave us/p", 13, |r| Fixed(r.point.enclave_us, 1)),
            Column::new("ratio", 7, |r| Unit(r.point.ratio, 1, "x")),
            Column::new("misses/pub", 11, |r| r.point.llc_misses_per_pub.into()),
            Column::new("faults/pub", 11, |r| r.point.faults_per_pub.into()),
        ],
    )]
}
