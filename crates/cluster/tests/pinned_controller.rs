//! Pins the elastic controller's decisions over one scripted schedule.
//!
//! A [`ClusterController`] with the default policy and 8 servers drives a
//! 2-shard, 3-replica [`ReplicatedKv`] for 48 ticks of 700 ms. The tick is
//! shorter than the 2 s scale-up cooldown, so a breach streak reaches its
//! length on ticks the cooldown blocks and has to carry over to the next
//! tick. The schedule:
//!
//! * ticks 0–11: backpressure breaches on every tick, so both shards scale
//!   up to the ceiling of 5 replicas and the service fleet to its ceiling
//!   of 4, each step spaced by the cooldown; before tick 5 replica 1 of
//!   shard 1 stalls, and that tick's repair kills and replaces it;
//! * ticks 12–15: backpressure in the dead band, neither breach nor calm,
//!   while shard 0 is partitioned until tick 14, so its scaling is held;
//! * ticks 16–47: calm, so both shards drain back to 3 replicas and the
//!   service fleet back to 1.
//!
//! Every tick first writes four keys. The pins are the controller's
//! decision trace, the fault injector's trace (which interleaves the replica
//! groups' membership lines with the decisions), the telemetry trace, the
//! tick reports summed field by field, and the final deployment state.

use securecloud_cluster::{ClusterController, ControllerReport, ScalingPolicy};
use securecloud_eventbus::bus::METRIC_BACKPRESSURED;
use securecloud_faults::FaultInjector;
use securecloud_kvstore::CounterService;
use securecloud_replica::{ReplicaConfig, ReplicatedKv, ReplicationFactor, ShardId, WriteQuorum};
use securecloud_sgx::enclave::Platform;
use securecloud_telemetry::{fnv1a, Telemetry, FNV_OFFSET};
use std::sync::Arc;

const TICK_MS: u64 = 700;
const TICKS: u64 = 48;

/// Length and FNV-1a digest of a text artifact.
fn digest(text: &str) -> (usize, u64) {
    (text.len(), fnv1a(FNV_OFFSET, text.as_bytes()))
}

/// Everything the scripted run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    decisions: usize,
    decision_trace: (usize, u64),
    injector_trace: (usize, u64),
    telemetry_trace: (usize, u64),
    totals: ControllerReport,
    replication: Vec<usize>,
    desired_services: u32,
    epochs: Vec<u64>,
    puts: u64,
    replicas_killed: u64,
    replicas_replaced: u64,
    scale_ups: u64,
    scale_downs: u64,
}

fn run() -> Outcome {
    let telemetry = Arc::new(Telemetry::new());
    telemetry.set_trace_seed(35);
    let injector = Arc::new(FaultInjector::new(35));
    let mut kv = ReplicatedKv::deploy_with(
        ReplicaConfig {
            shards: 2,
            replication: ReplicationFactor(3),
            write_quorum: WriteQuorum(2),
            virtual_nodes: 8,
            ..ReplicaConfig::default()
        },
        &Platform::new(),
        &CounterService::new(),
        Some(&telemetry),
        Some(&injector),
    )
    .unwrap();
    let mut controller = ClusterController::new(ScalingPolicy::default(), &telemetry, 8).unwrap();
    controller.set_fault_injector(Arc::clone(&injector));
    let backpressured = telemetry.registry().counter(METRIC_BACKPRESSURED, &[]);

    let mut totals = ControllerReport::default();
    for tick in 0..TICKS {
        let now = tick * TICK_MS;
        injector.advance_to(now);
        kv.advance_to(now);
        for i in 0..4 {
            // Writes to a partitioned shard are refused; that is part of
            // the schedule, not a failure of the run.
            let _ = kv.put(format!("meter/{tick}/{i}").as_bytes(), &now.to_le_bytes());
        }
        match tick {
            0..=11 => backpressured.add(20),
            12..=15 => backpressured.add(5),
            _ => {}
        }
        if tick == 5 {
            kv.stall_replica(ShardId(1), 1).unwrap();
        }
        if tick == 12 {
            assert!(kv.partition_shard(ShardId(0), 14 * TICK_MS));
        }
        let report = controller.tick(now, &mut kv);
        totals = ControllerReport {
            now_ms: report.now_ms,
            scaled_up: totals.scaled_up + report.scaled_up,
            scaled_down: totals.scaled_down + report.scaled_down,
            drains_refused: totals.drains_refused + report.drains_refused,
            stalled_killed: totals.stalled_killed + report.stalled_killed,
            failovers: totals.failovers + report.failovers,
            desired_service_replicas: totals.desired_service_replicas
                + report.desired_service_replicas,
            migrations: totals.migrations + report.migrations,
            parked: totals.parked + report.parked,
        };
    }

    let stats = kv.stats();
    Outcome {
        decisions: controller.decisions().len(),
        decision_trace: digest(&controller.decision_trace()),
        injector_trace: digest(&injector.trace().join("\n")),
        telemetry_trace: digest(&telemetry.trace_jsonl()),
        totals,
        replication: (0..2)
            .map(|shard| kv.group(ShardId(shard)).unwrap().replication_factor())
            .collect(),
        desired_services: controller.desired_service_replicas(),
        epochs: stats.epochs,
        puts: stats.puts,
        replicas_killed: stats.replicas_killed,
        replicas_replaced: stats.replicas_replaced,
        scale_ups: stats.scale_ups,
        scale_downs: stats.scale_downs,
    }
}

#[test]
fn scripted_schedule_is_pinned() {
    let expected = Outcome {
        decisions: 34,
        decision_trace: (1_590, 2_385_650_081_690_017_643),
        injector_trace: (2_984, 7_712_775_903_497_281_960),
        telemetry_trace: (33_391, 17_616_327_031_815_580_032),
        totals: ControllerReport {
            now_ms: 32_900,
            scaled_up: 4,
            scaled_down: 4,
            drains_refused: 0,
            stalled_killed: 1,
            failovers: 1,
            desired_service_replicas: 117,
            migrations: 20,
            parked: 10,
        },
        replication: vec![3, 3],
        desired_services: 1,
        epochs: vec![5, 6],
        puts: 190,
        replicas_killed: 1,
        replicas_replaced: 1,
        scale_ups: 4,
        scale_downs: 4,
    };
    assert_eq!(run(), expected);
}
