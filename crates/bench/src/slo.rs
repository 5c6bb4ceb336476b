//! E13: end-to-end causal tracing, critical-path attribution, and SLO
//! burn-rate alerting under a seeded fault schedule.
//!
//! Each cell runs the full platform loop on the virtual clock in traced
//! mode: every bus publish mints a root trace that the service host,
//! replica quorum writes, and container restart chains join; a seeded
//! schedule aborts a supervised secure container (twice), panics the
//! consuming micro-service (nack + retry churn on the bus), and
//! partitions a shard group (refusing writes unacknowledged), while a
//! consumer-stall window backs up deliveries until publish-to-ack
//! latency spikes past the objective. A declarative [`SloEngine`]
//! watches the live latency histogram and write counters through
//! multi-window burn rates; the cell *asserts* that the schedule drew at
//! least one burn-rate alert and that the folded critical path
//! attributes self time to at least four distinct subsystems.
//!
//! Everything runs on virtual time with deterministic causal-id minting,
//! so equal seeds produce byte-identical critical-path reports and alert
//! streams at any `--jobs N` (pinned by
//! `crates/bench/tests/parallel_determinism.rs` and the recorded `*_fnv`
//! digests in `BENCH_slo.json`).

use securecloud::cluster::ScalingPolicy;
use securecloud::containers::build::SecureImageBuilder;
use securecloud::containers::engine::{RestartPolicy, SupervisionConfig};
use securecloud::eventbus::bus::{Message, METRIC_BACKPRESSURED, METRIC_PUBLISH_TO_ACK_MS};
use securecloud::eventbus::service::{MicroService, ServiceCtx};
use securecloud::faults::{FaultInjector, FaultKind, FaultPlan};
use securecloud::replica::{ReplicaConfig, ReplicationFactor, WriteQuorum};
use securecloud::scbr::types::{Publication, Subscription};
use securecloud::telemetry::{fnv1a, CategoryAttribution, SloEngine, SloSpec, FNV_OFFSET};
use securecloud::SecureCloud;
use std::sync::Arc;

use crate::report::Cell::{Hex, List, Map, Str};
use crate::report::{Column, Ctx, Report};

/// Sizing knobs for the SLO sweep.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Fault-schedule seeds; each also seeds the causal-id minter, so
    /// different seeds produce distinct trace-id streams.
    pub seeds: Vec<u64>,
    /// Platform ticks per cell (one [`SecureCloud::advance`] each).
    pub ticks: u64,
    /// Virtual milliseconds per tick.
    pub tick_ms: u64,
    /// Bus publications per tick (each mints a root trace).
    pub publishes_per_tick: u64,
    /// Traced quorum writes per tick.
    pub writes_per_tick: u64,
    /// Leading ticks with sustained bus backpressure (drives the
    /// controller's scale-ups, whose cause chains cite ack exemplars).
    pub overload_ticks: u64,
    /// Ticks during which the consumer does not run: published messages
    /// queue up and ack with multi-tick waits once the stall lifts — the
    /// latency regression the latency SLO catches.
    pub stall_ticks: std::ops::Range<u64>,
}

impl SloConfig {
    /// Full-size run: four seeds.
    #[must_use]
    pub fn full() -> Self {
        SloConfig {
            seeds: vec![0x510_0001, 0x510_0002, 0x510_0003, 0x510_0004],
            ticks: 40,
            tick_ms: 250,
            publishes_per_tick: 8,
            writes_per_tick: 8,
            overload_ticks: 10,
            stall_ticks: 6..9,
        }
    }

    /// CI-sized run with the same shape (only the seed count shrinks).
    #[must_use]
    pub fn smoke() -> Self {
        SloConfig {
            seeds: vec![0x510_0001, 0x510_0002],
            ..SloConfig::full()
        }
    }
}

/// One seed cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SloPoint {
    /// Fault-schedule and trace seed.
    pub seed: u64,
    /// Bus publications attempted.
    pub published: u64,
    /// Traced quorum writes acknowledged.
    pub acked: u64,
    /// Writes refused unacknowledged (partition window).
    pub rejected: u64,
    /// Burn-rate alerts fired — asserted ≥ 1.
    pub alerts: u64,
    /// Supervised container restarts (the traced restart chains).
    pub restarts: u64,
    /// Distinct subsystem categories in the critical path — asserted ≥ 4.
    pub subsystems: u64,
    /// Distinct causal traces that contributed spans.
    pub traces: u64,
    /// Total self time attributed across subsystems, virtual ms.
    pub total_self_ms: u64,
    /// Controller decision lines (SLO alerts appear here too).
    pub decisions: u64,
    /// Per-subsystem attribution, heaviest first.
    pub categories: Vec<CategoryAttribution>,
    /// The rendered critical-path report — a byte-identical determinism
    /// artifact (digested as `critical_path_fnv`).
    pub critical_path_text: String,
    /// The alert stream, one line per alert (digested as `alert_fnv`).
    pub alert_stream: String,
    /// The controller decision trace (digested as `decision_fnv`).
    pub decision_trace: String,
    /// FNV digest of the full trace-event export. Unlike the aggregate
    /// critical-path render (which can coincide when two seeds land
    /// faults in the same tick windows), this covers every minted causal
    /// id, so it is distinct across seeds by construction.
    pub trace_events_fnv: u64,
}

/// The consuming micro-service: aggregates meter readings and
/// republishes every fourth one downstream under a child context (the
/// causally-linked republish path).
struct MeterAggregator {
    seen: u64,
}

impl MicroService for MeterAggregator {
    fn name(&self) -> &str {
        "meter-agg"
    }
    fn subscriptions(&self) -> Vec<(String, Option<Subscription>)> {
        vec![("meter/readings".into(), None)]
    }
    fn handle(&mut self, message: &Message, ctx: &mut ServiceCtx) {
        self.seen += 1;
        if self.seen.is_multiple_of(4) {
            ctx.emit("meter/rollups", message.payload.clone(), Publication::new());
        }
    }
}

/// The seeded fault schedule: two enclave aborts against the supervised
/// container (each becomes a traced restart chain), two service panics
/// (nack + retry churn on the bus), and a shard-group partition (refused
/// writes burn the durability budget).
/// The jitter moves fire times by whole tick windows plus a sub-tick
/// offset, so different seeds interleave observably differently.
fn plan_for(seed: u64, tick_ms: u64) -> FaultPlan {
    let mix = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let jitter = |k: u32, windows: u64| {
        let bits = mix.rotate_left(k);
        (bits % windows) * tick_ms + bits % (tick_ms - 1) + 1
    };
    FaultPlan::new()
        .at(
            3 * tick_ms + jitter(3, 2),
            FaultKind::EnclaveAbort { container: 1 },
        )
        .at(
            6 * tick_ms + jitter(9, 2),
            FaultKind::ServicePanic {
                service: "meter-agg".into(),
            },
        )
        .at(
            9 * tick_ms + jitter(15, 2),
            FaultKind::ServicePanic {
                service: "meter-agg".into(),
            },
        )
        .at(
            12 * tick_ms + jitter(21, 2),
            FaultKind::EnclaveAbort { container: 1 },
        )
        .at(
            16 * tick_ms + jitter(27, 2),
            FaultKind::NetworkPartition {
                group: 0,
                heal_after_ms: 2 * tick_ms + jitter(31, 2),
            },
        )
}

fn run_cell(seed: u64, config: &SloConfig) -> SloPoint {
    let mut cloud = SecureCloud::new();
    cloud.set_trace_seed(seed);
    let injector = Arc::new(FaultInjector::with_plan(
        seed,
        plan_for(seed, config.tick_ms),
    ));
    cloud.set_fault_injector(Arc::clone(&injector));

    let id = cloud
        .deploy_replicated_kv(ReplicaConfig {
            shards: 2,
            replication: ReplicationFactor(3),
            write_quorum: WriteQuorum(2),
            ..ReplicaConfig::default()
        })
        .expect("valid replica config");
    cloud
        .attach_cluster_controller(id, ScalingPolicy::default(), 8)
        .expect("valid default policy");

    // The declarative objectives over live metric handles: a latency SLO
    // on the bus publish-to-ack histogram (normal acks wait one tick;
    // lease-expiry redeliveries land far above 500 ms), and a durability
    // SLO on traced write admissions (partition refusals burn it).
    let telemetry = Arc::clone(cloud.telemetry());
    let writes_total = telemetry
        .registry()
        .counter("securecloud_slo_writes_total", &[]);
    let writes_refused = telemetry
        .registry()
        .counter("securecloud_slo_writes_refused_total", &[]);
    let mut engine = SloEngine::new(Arc::clone(&telemetry));
    engine.add(SloSpec {
        fast_window_ticks: 2,
        slow_window_ticks: 6,
        ..SloSpec::latency(
            "publish_to_ack_latency",
            telemetry
                .registry()
                .histogram(METRIC_PUBLISH_TO_ACK_MS, &[]),
            500,
            10_000,
        )
    });
    engine.add(SloSpec {
        fast_window_ticks: 2,
        slow_window_ticks: 6,
        ..SloSpec::error_ratio(
            "write_durability",
            writes_total.clone(),
            writes_refused.clone(),
            10_000,
        )
    });
    assert!(cloud.set_slo_engine(engine), "controller attached above");

    // One supervised secure container: the schedule's enclave aborts turn
    // into traced restart chains (engine container id 1, the first run).
    let image = cloud.deploy_image(
        SecureImageBuilder::new("meter", "v1", b"meter service binary")
            .protect_file("/data/keys", b"secret key material")
            .build()
            .expect("valid secure image"),
    );
    cloud
        .engine_mut()
        .run_supervised(
            image,
            SupervisionConfig {
                policy: RestartPolicy::OnFailure,
                jitter_ms: 0,
                ..SupervisionConfig::default()
            },
        )
        .expect("supervised container starts");

    cloud.register_service(Box::new(MeterAggregator { seen: 0 }));

    let backpressured = telemetry.registry().counter(METRIC_BACKPRESSURED, &[]);
    let mut published = 0u64;
    let mut acked = 0u64;
    let mut rejected = 0u64;
    for tick in 0..config.ticks {
        for i in 0..config.publishes_per_tick {
            let payload = (tick * config.publishes_per_tick + i)
                .to_le_bytes()
                .to_vec();
            cloud
                .services_mut()
                .bus_mut()
                .publish("meter/readings", payload, Publication::new());
            published += 1;
        }
        for i in 0..config.writes_per_tick {
            let key = format!("meter/{tick}/{i}");
            let root = telemetry.mint_root();
            writes_total.inc();
            match cloud
                .replicated_kv_mut(id)
                .expect("deployment exists")
                .put_traced(key.as_bytes(), &tick.to_le_bytes(), root)
            {
                Ok(()) => acked += 1,
                Err(_) => {
                    writes_refused.inc();
                    rejected += 1;
                }
            }
        }
        if tick < config.overload_ticks {
            backpressured.add(20);
        }
        cloud.advance(config.tick_ms);
        if !config.stall_ticks.contains(&tick) {
            cloud.run_services(256);
        }
    }

    let report = telemetry.critical_path();
    let trace_events_fnv = fnv1a(FNV_OFFSET, telemetry.trace_jsonl().as_bytes());
    let alerts = cloud
        .cluster_controller()
        .expect("controller attached")
        .slo_engine()
        .expect("slo engine attached")
        .alerts()
        .len() as u64;
    let alert_stream = cloud
        .cluster_controller()
        .expect("controller attached")
        .slo_engine()
        .expect("slo engine attached")
        .alert_stream();
    let decision_trace = cloud
        .cluster_controller()
        .expect("controller attached")
        .decision_trace();
    let restarts = telemetry
        .registry()
        .counter("securecloud_containers_restarts_total", &[])
        .value();

    assert!(
        alerts >= 1,
        "seed {seed:#x}: fault schedule must draw at least one burn-rate alert"
    );
    assert!(
        report.categories.len() >= 4,
        "seed {seed:#x}: critical path must span >= 4 subsystems, got {:?}",
        report.categories
    );
    assert!(
        restarts >= 1,
        "seed {seed:#x}: the aborted container must have restarted"
    );

    SloPoint {
        seed,
        published,
        acked,
        rejected,
        alerts,
        restarts,
        subsystems: report.categories.len() as u64,
        traces: report.traces,
        total_self_ms: report.total_self_ms,
        decisions: decision_trace.lines().count() as u64,
        categories: report.categories.clone(),
        critical_path_text: report.render(),
        alert_stream,
        decision_trace,
        trace_events_fnv,
    }
}

/// Runs every seed cell fanned across `jobs` worker threads. Cells are
/// independent virtual-clock simulations with deterministic id minting,
/// so results — critical-path reports and alert streams included — are
/// byte-identical for any job count, in seed order.
#[must_use]
pub fn sweep(config: &SloConfig, jobs: usize) -> SloReport {
    let points = crate::pool::run_ordered(config.seeds.clone(), jobs, None, |seed, _| {
        run_cell(seed, config)
    });
    SloReport {
        ticks: config.ticks,
        tick_ms: config.tick_ms,
        points,
    }
}

/// The whole sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Platform ticks per cell.
    pub ticks: u64,
    /// Virtual milliseconds per tick.
    pub tick_ms: u64,
    /// One point per seed, in seed order.
    pub points: Vec<SloPoint>,
}

impl SloReport {
    /// The concatenated critical-path reports and alert streams, one
    /// section per seed — the human-readable artifact CI uploads.
    #[must_use]
    fn critical_path_document(&self) -> String {
        let mut out = String::new();
        for p in &self.points {
            out.push_str(&format!("== seed {:#x} ==\n", p.seed));
            out.push_str(&p.critical_path_text);
            out.push_str("burn-rate alerts:\n");
            if p.alert_stream.is_empty() {
                out.push_str("  (none)\n");
            } else {
                for line in p.alert_stream.lines() {
                    out.push_str("  ");
                    out.push_str(line);
                    out.push('\n');
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Declares the E13 table over a finished sweep. Texts are recorded as
/// FNV-1a digests plus counts, enough to diff two runs for determinism; the
/// first seed's critical path is printed under the table and every seed's
/// goes into `critical_path.txt`.
fn declare(swept: &SloReport) -> Report {
    let report = Report::new(
        "slo",
        "== E13: causal tracing, critical path, and SLO burn rates ==
(every publish mints a root trace; aborts, a consumer stall, and
 a partition draw burn-rate alerts; the critical path attributes
 self time per subsystem — byte-identical at any --jobs)",
        &swept.points,
        [
            Column::table("seed", 10, |p| Hex(p.seed)),
            Column::json("seed", |p| p.seed.into()),
            Column::json("published", |p| p.published.into()),
            Column::new("acked", 6, |p| p.acked.into()),
            Column::keyed("reject", 6, "rejected", |p| p.rejected.into()),
            Column::new("alerts", 7, |p| p.alerts.into()),
            Column::keyed("restart", 7, "restarts", |p| p.restarts.into()),
            Column::keyed("subsystem", 9, "subsystems", |p| p.subsystems.into()),
            Column::json("traces", |p| p.traces.into()),
            Column::keyed("self ms", 11, "total_self_ms", |p| p.total_self_ms.into()),
            Column::table("traces", 7, |p| p.traces.into()),
            Column::new("decisions", 9, |p| p.decisions.into()),
            Column::json("critical_path_fnv", |p| {
                fnv1a(FNV_OFFSET, p.critical_path_text.as_bytes()).into()
            }),
            Column::json("alert_fnv", |p| {
                fnv1a(FNV_OFFSET, p.alert_stream.as_bytes()).into()
            }),
            Column::json("decision_fnv", |p| {
                fnv1a(FNV_OFFSET, p.decision_trace.as_bytes()).into()
            }),
            Column::table("trace fnv", 18, |p| Hex(p.trace_events_fnv)),
            Column::json("trace_events_fnv", |p| p.trace_events_fnv.into()),
            Column::json("categories", |p| {
                let category = |c: &CategoryAttribution| {
                    Map(vec![
                        ("category", Str(c.category.clone())),
                        ("self_ms", c.self_ms.into()),
                        ("spans", c.spans.into()),
                    ])
                };
                List(p.categories.iter().map(category).collect())
            }),
        ],
    );
    let footer = swept.points.first().map_or(String::new(), |point| {
        let indented = point.critical_path_text.trim_end().replace('\n', "\n  ");
        format!("critical path, seed {:#x}:\n  {indented}", point.seed)
    });
    Report {
        summary: format!(
            "{} tick(s) x {} ms virtual per cell",
            swept.ticks, swept.tick_ms
        ),
        meta: vec![
            ("ticks", swept.ticks.into()),
            ("tick_ms", swept.tick_ms.into()),
        ],
        footer,
        attachments: vec![(
            "critical-path",
            "critical_path.txt",
            swept.critical_path_document(),
        )],
        announce: true,
        ..report
    }
}

/// Runs E13 at the context's size.
pub fn report(ctx: &Ctx) -> Vec<Report> {
    let config = ctx.pick(SloConfig::smoke(), SloConfig::full());
    // The schedule panics the aggregator on purpose; keep the injected
    // backtraces quiet for the sweep, then restore normal reporting.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let swept = sweep(&config, ctx.jobs);
    std::panic::set_hook(hook);
    vec![declare(&swept)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SloConfig {
        SloConfig {
            seeds: vec![0x510_0001],
            ..SloConfig::full()
        }
    }

    #[test]
    fn slo_cell_alerts_and_attributes_latency() {
        let report = sweep(&tiny(), 1);
        let point = &report.points[0];
        // run_cell asserted the acceptance invariants; pin the evidence.
        assert!(point.alerts >= 1, "{point:?}");
        assert!(point.subsystems >= 4, "{point:?}");
        assert!(point.restarts >= 1, "{point:?}");
        assert!(point.rejected > 0, "partition refused some writes");
        assert!(point.total_self_ms > 0, "acks folded real queue wait");
        let cats: Vec<&str> = point
            .categories
            .iter()
            .map(|c| c.category.as_str())
            .collect();
        for expected in ["eventbus", "service", "replica", "containers"] {
            assert!(cats.contains(&expected), "missing {expected}: {cats:?}");
        }
        // Both objectives fired: the consumer stall burned the latency
        // budget, the partition burned the durability budget.
        assert!(
            point.alert_stream.contains("slo=publish_to_ack_latency"),
            "{}",
            point.alert_stream
        );
        assert!(
            point.alert_stream.contains("slo=write_durability"),
            "{}",
            point.alert_stream
        );
        assert!(
            point
                .critical_path_text
                .contains("per-subsystem attribution"),
            "{}",
            point.critical_path_text
        );
    }

    #[test]
    fn report_serialises_with_digests() {
        let report = sweep(&tiny(), 1);
        let json = declare(&report).to_json();
        assert!(json.contains("\"bench\": \"slo\""));
        assert!(json.contains("\"critical_path_fnv\": "));
        assert!(json.contains("\"alert_fnv\": "));
        assert!(json.contains("\"trace_events_fnv\": "));
        assert!(json.ends_with("}\n"));
        let doc = report.critical_path_document();
        assert!(doc.contains("== seed 0x5100001 =="));
        assert!(doc.contains("burn-rate alerts:"));
    }
}
