//! Chaos-recovery harness: drives a smart-grid pipeline through a seeded
//! fault schedule and checks the platform's recovery guarantees end to end.
//!
//! The pipeline scenario exercises:
//!
//! * random **message loss and duplication** on the event bus — billing
//!   must still charge every reading exactly once (at-least-once delivery,
//!   consumer-side dedup by [`MessageId`]);
//! * a planned **enclave abort** — the supervised container must come back
//!   with a *fresh*, re-attested enclave within its backoff schedule;
//! * a planned **service panic** — the delivery is nacked and retried, the
//!   pipeline keeps going;
//! * planned **syscall failures** — armed on the injector and observable
//!   through a [`FaultyHost`];
//! * a poison message whose handler always panics — after the retry budget
//!   it lands in the bus's inspectable dead-letter queue.
//!
//! Everything is driven by virtual time and one `u64` seed: the same seed
//! must produce a byte-identical fault/recovery trace across runs.

use securecloud::containers::build::SecureImageBuilder;
use securecloud::containers::engine::{ContainerHealth, RestartPolicy, SupervisionConfig};
use securecloud::eventbus::bus::Message;
use securecloud::eventbus::service::{MicroService, ServiceCtx};
use securecloud::faults::{FaultInjector, FaultKind, FaultPlan, FaultRates};
use securecloud::scbr::types::{Publication, Subscription, Value};
use securecloud::scone::hostos::{FaultyHost, HostOs, MemHost, Syscall, SyscallRet};
use securecloud::SecureCloud;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

const READINGS: u64 = 40;
const RETRY_BUDGET: u32 = 6;

/// Shared pipeline state the micro-services fold their effects into.
#[derive(Debug, Default)]
struct Ledger {
    /// Raw-reading message ids the validator has handled (dedup set).
    validated_ids: HashSet<u64>,
    /// Deliveries the validator skipped as duplicates (same message id).
    duplicate_deliveries: u64,
    /// Billable message ids billing has handled (dedup set).
    billed_ids: HashSet<u64>,
    /// Reading indexes billed so far.
    billed_readings: HashSet<u64>,
    /// Whether any reading was ever billed twice (must stay false).
    double_billed: bool,
    /// Total energy billed, kWh.
    billed_kwh: u64,
}

/// Validates raw meter readings and forwards them to billing. Dedups by
/// message id so bus-injected duplicates have no downstream effect.
struct MeterValidator {
    ledger: Arc<Mutex<Ledger>>,
}

impl MicroService for MeterValidator {
    fn name(&self) -> &str {
        "meter-validator"
    }

    fn subscriptions(&self) -> Vec<(String, Option<Subscription>)> {
        vec![("grid/readings".into(), None)]
    }

    fn handle(&mut self, message: &Message, ctx: &mut ServiceCtx) {
        let mut ledger = self.ledger.lock().unwrap();
        if !ledger.validated_ids.insert(message.id.0) {
            ledger.duplicate_deliveries += 1;
            return;
        }
        ctx.emit(
            "grid/billable",
            message.payload.clone(),
            message.attributes.clone(),
        );
    }
}

/// Charges each validated reading exactly once.
struct BillingService {
    ledger: Arc<Mutex<Ledger>>,
}

impl MicroService for BillingService {
    fn name(&self) -> &str {
        "billing"
    }

    fn subscriptions(&self) -> Vec<(String, Option<Subscription>)> {
        vec![("grid/billable".into(), None)]
    }

    fn handle(&mut self, message: &Message, _ctx: &mut ServiceCtx) {
        let mut ledger = self.ledger.lock().unwrap();
        if !ledger.billed_ids.insert(message.id.0) {
            ledger.duplicate_deliveries += 1;
            return;
        }
        let index = u64::from_le_bytes(message.payload[..8].try_into().unwrap());
        let kwh = u64::from_le_bytes(message.payload[8..16].try_into().unwrap());
        if ledger.billed_readings.insert(index) {
            ledger.billed_kwh += kwh;
        } else {
            ledger.double_billed = true;
        }
    }
}

/// A handler that can never process its message.
struct PoisonService;

impl MicroService for PoisonService {
    fn name(&self) -> &str {
        "poison"
    }

    fn subscriptions(&self) -> Vec<(String, Option<Subscription>)> {
        vec![("grid/poison".into(), None)]
    }

    fn handle(&mut self, _message: &Message, _ctx: &mut ServiceCtx) {
        panic!("cannot parse reading");
    }
}

fn reading_payload(index: u64) -> Vec<u8> {
    let kwh = 3 + (index % 7);
    let mut payload = index.to_le_bytes().to_vec();
    payload.extend_from_slice(&kwh.to_le_bytes());
    payload
}

fn expected_total_kwh() -> u64 {
    (0..READINGS).map(|i| 3 + (i % 7)).sum()
}

/// Everything a scenario run exposes for assertions.
struct Outcome {
    trace: Vec<String>,
    ledger: Ledger,
    old_enclave: securecloud::sgx::enclave::EnclaveId,
    new_enclave: securecloud::sgx::enclave::EnclaveId,
    restarts: u32,
    health: ContainerHealth,
    keys_after_restart: Vec<u8>,
    dead_payloads: Vec<(Vec<u8>, u32, &'static str)>,
    forced_syscall_outcomes: Vec<bool>,
}

/// Runs the full chaos scenario for `seed` and returns what happened.
fn run_scenario(seed: u64) -> Outcome {
    let mut cloud = SecureCloud::new();
    cloud.engine_mut().set_supervision_seed(seed);

    // A supervised secure container (the meter gateway).
    let built = SecureImageBuilder::new("meter-gw", "v1", b"meter gateway code")
        .protect_file("/data/keys", b"meter-fleet-master-key")
        .build()
        .unwrap();
    let image = cloud.deploy_image(built);
    let container = cloud
        .engine_mut()
        .run_supervised(
            image,
            SupervisionConfig {
                policy: RestartPolicy::OnFailure,
                backoff_base_ms: 100,
                backoff_cap_ms: 2_000,
                jitter_ms: 25,
                max_restarts: 5,
            },
        )
        .unwrap();
    let old_enclave = cloud
        .with_runtime(container, |rt| rt.enclave().id())
        .unwrap();

    // The fault schedule, all in virtual milliseconds.
    let plan = FaultPlan::new()
        .at(
            500,
            FaultKind::EnclaveAbort {
                container: container.0,
            },
        )
        .at(
            900,
            FaultKind::ServicePanic {
                service: "meter-validator".into(),
            },
        )
        .at(1_700, FaultKind::SyscallFail { count: 2 });
    let injector = Arc::new(FaultInjector::with_plan(seed, plan));
    injector.set_rates(FaultRates {
        message_loss_permille: 120,
        message_duplication_permille: 80,
        syscall_failure_permille: 0,
    });
    cloud.set_fault_injector(Arc::clone(&injector));

    // Pipeline services and the retry budget.
    cloud.services_mut().set_quarantine_after(10);
    cloud
        .services_mut()
        .bus_mut()
        .set_max_attempts(Some(RETRY_BUDGET));
    let ledger = Arc::new(Mutex::new(Ledger::default()));
    cloud.register_service(Box::new(MeterValidator {
        ledger: Arc::clone(&ledger),
    }));
    cloud.register_service(Box::new(BillingService {
        ledger: Arc::clone(&ledger),
    }));
    cloud.register_service(Box::new(PoisonService));

    // First half of the night's readings, plus one poison message.
    for index in 0..READINGS / 2 {
        cloud.services_mut().bus_mut().publish(
            "grid/readings",
            reading_payload(index),
            Publication::new().with("feeder", Value::Int((index % 3) as i64)),
        );
    }
    cloud.services_mut().bus_mut().publish(
        "grid/poison",
        b"malformed reading".to_vec(),
        Publication::new(),
    );

    // Drive the platform: pump deliveries, then advance virtual time so
    // leases expire, backoffs elapse, and planned faults fire.
    for round in 0..24 {
        if round == 4 {
            // Second half lands after the validator panic is armed, so the
            // injected panic is guaranteed a delivery to hit.
            for index in READINGS / 2..READINGS {
                cloud.services_mut().bus_mut().publish(
                    "grid/readings",
                    reading_payload(index),
                    Publication::new().with("feeder", Value::Int((index % 3) as i64)),
                );
            }
        }
        cloud.run_services(512);
        cloud.advance(250);
    }

    // The armed syscall failures, observed through a faulty host.
    let spool = FaultyHost::new(MemHost::new(), Arc::clone(&injector));
    let forced_syscall_outcomes = (0..3)
        .map(|_| {
            matches!(
                spool.execute(&Syscall::Open {
                    path: "/spool/readings".into(),
                    create: true,
                }),
                SyscallRet::Error(_)
            )
        })
        .collect();

    let new_enclave = cloud
        .with_runtime(container, |rt| rt.enclave().id())
        .unwrap();
    let keys_after_restart = cloud
        .with_runtime(container, |rt| rt.read_file("/data/keys", 0, 64))
        .unwrap()
        .unwrap();
    let engine_container = cloud.engine().container(container).unwrap();
    let restarts = engine_container.restarts();
    let health = engine_container.health();
    let dead_payloads = cloud
        .services_mut()
        .bus_mut()
        .dead_letters()
        .iter()
        .map(|d| (d.message.payload.clone(), d.message.attempt, d.reason))
        .collect();

    let ledger = std::mem::take(&mut *ledger.lock().unwrap());
    Outcome {
        trace: injector.trace(),
        ledger,
        old_enclave,
        new_enclave,
        restarts,
        health,
        keys_after_restart,
        dead_payloads,
        forced_syscall_outcomes,
    }
}

/// Runs `f` with the global panic hook silenced: `catch_unwind` still runs
/// the hook, and the poison service panics a lot. The hook is restored
/// before returning so real test failures still print.
fn with_silent_panics<T>(f: impl FnOnce() -> T) -> T {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = f();
    std::panic::set_hook(previous);
    result
}

fn trace_has(trace: &[String], needle: &str) -> bool {
    trace.iter().any(|line| line.contains(needle))
}

#[test]
fn chaos_pipeline_survives_seeded_faults() {
    let outcome = with_silent_panics(|| run_scenario(0xC0FFEE));

    // At-least-once + dedup by message id: every reading billed exactly
    // once despite injected loss, duplication, a panic, and an abort.
    assert_eq!(outcome.ledger.billed_readings.len(), READINGS as usize);
    assert!(!outcome.ledger.double_billed);
    assert_eq!(outcome.ledger.billed_kwh, expected_total_kwh());
    // The fault rates actually bit: the bus lost and duplicated messages,
    // and dedup absorbed at least one duplicate delivery.
    assert!(
        trace_has(&outcome.trace, "lost"),
        "no message loss injected"
    );
    assert!(
        trace_has(&outcome.trace, "duplicated"),
        "no duplication injected"
    );
    assert!(outcome.ledger.duplicate_deliveries > 0);

    // The aborted container is back: fresh enclave, same protected state,
    // restarted on schedule (abort at t=500, backoff in [600, 625), so the
    // t=750 tick restarts it — attempt 1, no quarantine).
    assert_eq!(outcome.health, ContainerHealth::Running);
    assert_eq!(outcome.restarts, 1);
    assert_ne!(outcome.new_enclave, outcome.old_enclave);
    assert_eq!(outcome.keys_after_restart, b"meter-fleet-master-key");
    assert!(trace_has(&outcome.trace, "fire enclave-abort c1"));
    assert!(trace_has(
        &outcome.trace,
        "container c1 aborted: injected enclave abort"
    ));
    assert!(
        outcome
            .trace
            .iter()
            .any(|l| l.starts_with("t=750 ") && l.contains("container c1 restarted attempt 1")),
        "restart not at the first tick after backoff: {:?}",
        outcome.trace
    );

    // The injected service panic was caught, nacked, and retried.
    assert!(trace_has(
        &outcome.trace,
        "service meter-validator panicked"
    ));
    assert!(!trace_has(
        &outcome.trace,
        "service meter-validator quarantined"
    ));

    // The two armed syscall failures hit the next two host calls.
    assert_eq!(outcome.forced_syscall_outcomes, vec![true, true, false]);

    // Retry-budget exhaustion: only the poison message dead-lettered, at
    // exactly the budget, and inspectable after the fact. The final straw
    // is a nack — or a lease expiry when the injector "lost" the last
    // delivery attempt.
    assert!(!outcome.dead_payloads.is_empty());
    for (payload, attempt, reason) in &outcome.dead_payloads {
        assert_eq!(payload, b"malformed reading");
        assert_eq!(*attempt, RETRY_BUDGET);
        assert!(*reason == "nack" || *reason == "lease-expired");
    }
}

/// What the replica-kill chaos scenario exposes for assertions.
struct ReplicaOutcome {
    trace: Vec<String>,
    telemetry_jsonl: String,
    prometheus: String,
    chrome: String,
    stats: securecloud::replica::cluster::ReplicaStats,
    lost_any_acked_write: bool,
}

/// Drives a replicated KV deployment through a seeded replica-kill
/// schedule: three kills across two shards (one slot hit twice), writes
/// acknowledged between every fault, every fault auto-failed-over by
/// [`SecureCloud::advance`].
fn run_replica_scenario(seed: u64) -> ReplicaOutcome {
    use securecloud::replica::{ReplicaConfig, ReplicationFactor, WriteQuorum};

    let mut cloud = SecureCloud::new();
    let plan = FaultPlan::new()
        .at(300, FaultKind::ReplicaKill { shard: 0, slot: 1 })
        .at(700, FaultKind::ReplicaKill { shard: 1, slot: 0 })
        .at(1_100, FaultKind::ReplicaKill { shard: 0, slot: 1 });
    let injector = Arc::new(FaultInjector::with_plan(seed, plan));
    cloud.set_fault_injector(Arc::clone(&injector));
    let id = cloud
        .deploy_replicated_kv(ReplicaConfig {
            shards: 2,
            replication: ReplicationFactor(3),
            write_quorum: WriteQuorum(2),
            ..ReplicaConfig::default()
        })
        .unwrap();

    // Interleave acknowledged writes with the fault schedule.
    let mut acked = Vec::new();
    for round in 0..6u64 {
        for meter in 0..5u64 {
            let key = format!("meter/{round}/{meter}");
            cloud
                .replicated_kv_mut(id)
                .unwrap()
                .put(key.as_bytes(), &round.to_le_bytes())
                .expect("acknowledged write");
            acked.push((key, round));
        }
        cloud.advance(250);
    }

    let kv = cloud.replicated_kv_mut(id).unwrap();
    let lost_any_acked_write = acked.iter().any(|(key, round)| {
        kv.get(key.as_bytes()).expect("read quorum") != Some(round.to_le_bytes().to_vec())
    });
    let stats = kv.stats();
    ReplicaOutcome {
        trace: injector.trace(),
        telemetry_jsonl: cloud.telemetry().trace_jsonl(),
        prometheus: cloud.telemetry().prometheus(),
        chrome: cloud.telemetry().chrome_trace_json(),
        stats,
        lost_any_acked_write,
    }
}

/// FNV-1a of an export; pinned beside its length below.
fn fnv1a(text: &str) -> u64 {
    securecloud::telemetry::fnv1a(securecloud::telemetry::FNV_OFFSET, text.as_bytes())
}

/// The replica run's Prometheus text, JSONL trace and chrome trace, pinned
/// as `(length, FNV-1a)`: the replica counters, the shard-labelled cycle
/// histograms, the lag gauge and the admissions all export into them, so
/// a refactor of any metric set that moves one series, label or value
/// fails here; the chrome trace also pins how spans pair their
/// `Begin`/`End` events.
#[test]
fn replica_run_exports_are_pinned() {
    let outcome = run_replica_scenario(0xFA11);
    let (prometheus, jsonl) = (&outcome.prometheus, &outcome.telemetry_jsonl);
    assert_eq!(
        (prometheus.len(), fnv1a(prometheus)),
        (5027, 0x3938_dbce_d332_4048)
    );
    assert_eq!((jsonl.len(), fnv1a(jsonl)), (9650, 0xebd9_cda1_2235_0005));
    let chrome = &outcome.chrome;
    assert_eq!(
        (chrome.len(), fnv1a(chrome)),
        (11781, 0xa850_38ec_8918_1c21)
    );
}

#[test]
fn replica_kill_schedule_never_loses_acked_writes() {
    let outcome = run_replica_scenario(0xFA11);

    assert!(
        !outcome.lost_any_acked_write,
        "an acknowledged write disappeared across replica kills"
    );
    assert_eq!(outcome.stats.replicas_killed, 3);
    assert_eq!(outcome.stats.replicas_replaced, 3, "every kill failed over");
    assert_eq!(
        outcome.stats.live_replicas, 6,
        "groups back at full strength"
    );
    assert_eq!(outcome.stats.quorum_failures, 0);
    // Shard 0 lost a replica twice, shard 1 once: epochs 1+2 and 1+1.
    assert_eq!(outcome.stats.epochs, vec![3, 2]);

    // The deterministic trace tells the whole story: fault fired, replica
    // killed, snapshot streamed, replacement re-attested.
    assert!(trace_has(&outcome.trace, "fire replica-kill s0/r1"));
    assert!(trace_has(&outcome.trace, "fire replica-kill s1/r0"));
    assert!(trace_has(&outcome.trace, "replica s0/r1 killed"));
    assert!(trace_has(&outcome.trace, "snapshot v"));
    assert!(trace_has(&outcome.trace, "re-attested and admitted"));
    assert!(
        outcome
            .trace
            .iter()
            .any(|l| l.starts_with("t=300 ") && l.contains("replica-kill")),
        "kill not stamped with its virtual time: {:?}",
        outcome.trace
    );
}

#[test]
fn same_seed_gives_byte_identical_failover_telemetry() {
    let first = run_replica_scenario(0x7EE0);
    let second = run_replica_scenario(0x7EE0);
    assert!(!first.telemetry_jsonl.is_empty());
    assert_eq!(
        first.telemetry_jsonl, second.telemetry_jsonl,
        "failover telemetry must be byte-identical for equal seeds"
    );
    assert_eq!(first.trace, second.trace);
    assert!(
        first
            .telemetry_jsonl
            .lines()
            .any(|l| l.contains("failover")),
        "telemetry trace should contain failover events"
    );
}

/// What the elastic-controller chaos scenario exposes for assertions.
struct ElasticOutcome {
    trace: Vec<String>,
    decisions: String,
    stats: securecloud::replica::cluster::ReplicaStats,
    epoch_rollback: bool,
    lost_any_acked_write: bool,
    unhealthy_groups: usize,
    acked: usize,
    rejected_writes: u64,
}

/// Drives the attached [`securecloud::cluster::ClusterController`] through
/// a fault schedule interleaved with its own scaling decisions: sustained
/// bus backpressure forces scale-ups, and the plan kills exactly the
/// replicas those scale-ups admit (slot 3 right after n goes to 4, slot 4
/// right after n goes to 5), stalls a replica so the controller's repair
/// phase has to fence-kill it, and partitions a whole group mid-run.
fn run_elastic_scenario(seed: u64) -> ElasticOutcome {
    use securecloud::cluster::ScalingPolicy;
    use securecloud::eventbus::bus::METRIC_BACKPRESSURED;
    use securecloud::replica::{ReplicaConfig, ReplicationFactor, ShardId, WriteQuorum};

    let mut cloud = SecureCloud::new();
    let plan = FaultPlan::new()
        .at(600, FaultKind::ReplicaKill { shard: 0, slot: 3 })
        .at(1_100, FaultKind::ReplicaStall { shard: 1, slot: 1 })
        .at(2_600, FaultKind::ReplicaKill { shard: 0, slot: 4 })
        .at(
            3_100,
            FaultKind::NetworkPartition {
                group: 1,
                heal_after_ms: 700,
            },
        );
    let injector = Arc::new(FaultInjector::with_plan(seed, plan));
    cloud.set_fault_injector(Arc::clone(&injector));
    let id = cloud
        .deploy_replicated_kv(ReplicaConfig {
            shards: 2,
            replication: ReplicationFactor(3),
            write_quorum: WriteQuorum(2),
            ..ReplicaConfig::default()
        })
        .unwrap();
    cloud
        .attach_cluster_controller(id, ScalingPolicy::default(), 8)
        .unwrap();

    let backpressured = cloud
        .telemetry()
        .registry()
        .counter(METRIC_BACKPRESSURED, &[]);
    let mut acked = Vec::new();
    let mut rejected_writes = 0u64;
    let mut epoch_rollback = false;
    let mut last_epochs: Vec<u64> = Vec::new();
    for round in 0..44u64 {
        for meter in 0..4u64 {
            let key = format!("meter/{round}/{meter}");
            // A write refused by a partitioned or draining group was never
            // acknowledged, so it carries no durability guarantee.
            match cloud
                .replicated_kv_mut(id)
                .unwrap()
                .put(key.as_bytes(), &round.to_le_bytes())
            {
                Ok(()) => acked.push((key, round)),
                Err(_) => rejected_writes += 1,
            }
        }
        if round < 11 {
            // Sustained bus overload: the controller sees a backpressure
            // delta of 20 per tick and ramps replicas up; from round 11
            // on the signals go calm and it drains back down.
            backpressured.add(20);
        }
        cloud.advance(250);
        let epochs = cloud.replicated_kv_mut(id).unwrap().stats().epochs;
        if !last_epochs.is_empty()
            && epochs
                .iter()
                .zip(&last_epochs)
                .any(|(now, then)| now < then)
        {
            epoch_rollback = true;
        }
        last_epochs = epochs;
    }

    let kv = cloud.replicated_kv_mut(id).unwrap();
    let lost_any_acked_write = acked.iter().any(|(key, round)| {
        kv.get(key.as_bytes()).expect("read quorum") != Some(round.to_le_bytes().to_vec())
    });
    let unhealthy_groups = (0..2)
        .filter(|&index| {
            let group = kv.group(ShardId(index)).unwrap();
            group.is_degraded() || group.is_partitioned() || !group.stalled_replicas().is_empty()
        })
        .count();
    let stats = kv.stats();
    ElasticOutcome {
        trace: injector.trace(),
        decisions: cloud.cluster_controller().unwrap().decision_trace(),
        stats,
        epoch_rollback,
        lost_any_acked_write,
        unhealthy_groups,
        acked: acked.len(),
        rejected_writes,
    }
}

#[test]
fn elastic_controller_survives_kills_and_stall_mid_scale_up() {
    let outcome = run_elastic_scenario(0xE1A5);

    // The headline invariant: whatever the schedule did to the membership,
    // no acknowledged write is lost and quorum epochs never roll back.
    assert!(
        !outcome.lost_any_acked_write,
        "an acknowledged write disappeared across the fault schedule"
    );
    assert!(!outcome.epoch_rollback, "a quorum epoch rolled back");
    assert!(outcome.acked > 100, "most writes acked: {}", outcome.acked);
    assert!(
        outcome.rejected_writes > 0,
        "the partition window should refuse (not silently ack) some writes"
    );

    // The schedule interleaved with scaling as designed: both shards
    // ramped up under backpressure, the kills landed on freshly admitted
    // replicas, and the calm tail drained both groups back to the floor.
    assert!(outcome.decisions.contains("scale-up shard s0 -> n=4"));
    assert!(outcome.decisions.contains("scale-up shard s0 -> n=5"));
    assert!(trace_has(&outcome.trace, "fire replica-kill s0/r3"));
    assert!(trace_has(&outcome.trace, "fire replica-kill s0/r4"));
    assert!(trace_has(&outcome.trace, "fire replica-stall s1/r1"));
    assert!(trace_has(&outcome.trace, "fire network-partition s1"));
    assert!(outcome
        .decisions
        .contains("repair shard s1: killed stalled replica s1/r1"));
    assert!(outcome.decisions.contains("hold shard s1: partitioned"));
    assert!(outcome.decisions.contains("scale-down shard s0"));

    // Converged: healthy groups at full strength, nothing stalled or
    // partitioned, and the controller actually exercised both directions.
    assert_eq!(outcome.unhealthy_groups, 0);
    assert_eq!(
        outcome.stats.live_replicas, 6,
        "both groups drained back to min_replicas"
    );
    assert_eq!(outcome.stats.scale_ups, 4, "two ramps per shard");
    assert!(outcome.stats.scale_downs >= 2);
    assert!(outcome.stats.replicas_killed >= 3);
}

#[test]
fn elastic_controller_decision_trace_is_deterministic() {
    let first = run_elastic_scenario(0xE1A5);
    let second = run_elastic_scenario(0xE1A5);
    assert!(!first.decisions.is_empty());
    assert_eq!(
        first.decisions, second.decisions,
        "controller decisions must be byte-identical for equal seeds"
    );
    assert_eq!(first.trace, second.trace);
}

#[test]
fn armed_syscall_failures_hit_the_shield_layer() {
    // Regression: `SyscallFail` used to be dropped on the floor by
    // `SecureCloud::advance` — the injector armed itself, but no container
    // host ever consulted it, so shielded runtimes never saw the fault.
    // With the injector attached before the container starts, its runtime
    // talks to the host through a FaultyHost and the armed failure
    // surfaces as a shield-layer error.
    let mut cloud = SecureCloud::new();
    let plan = FaultPlan::new().at(100, FaultKind::SyscallFail { count: 1 });
    let injector = Arc::new(FaultInjector::with_plan(0xFA17, plan));
    cloud.set_fault_injector(Arc::clone(&injector));

    let built = SecureImageBuilder::new("spool-gw", "v1", b"spool gateway code")
        .protect_file("/data/keys", b"spool-master-key")
        .build()
        .unwrap();
    let image = cloud.deploy_image(built);
    let container = cloud.run_container(image).unwrap();

    // Before the fault fires, shielded reads work.
    let read = |cloud: &mut SecureCloud| {
        cloud
            .with_runtime(container, |rt| rt.read_file("/data/keys", 0, 64))
            .unwrap()
    };
    assert_eq!(read(&mut cloud).unwrap(), b"spool-master-key");

    let events = cloud.advance(150);
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::SyscallFail { count: 1 })),
        "the planned fault fired"
    );

    // The armed failure hits the very next host syscall the runtime makes,
    // and the shield layer refuses the read instead of masking it.
    assert!(
        read(&mut cloud).is_err(),
        "armed syscall failure must surface through the shielded runtime"
    );
    // The window closed: the following read succeeds again.
    assert_eq!(read(&mut cloud).unwrap(), b"spool-master-key");

    // The arming is recorded in both traces.
    assert!(trace_has(&injector.trace(), "fire syscall-fail x1"));
    assert!(cloud
        .telemetry()
        .trace_jsonl()
        .contains("syscall_failures_armed"));
}

#[test]
fn same_seed_gives_identical_traces() {
    let (first, second) = with_silent_panics(|| (run_scenario(0x5EED), run_scenario(0x5EED)));
    assert!(!first.trace.is_empty());
    assert_eq!(first.trace, second.trace, "trace must be reproducible");

    let other = with_silent_panics(|| run_scenario(0xD15EA5E));
    assert_ne!(
        first.trace, other.trace,
        "different seeds should explore different schedules"
    );
}
