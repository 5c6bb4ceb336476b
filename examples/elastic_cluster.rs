//! The elastic cluster controller: telemetry-driven autoscaling of
//! attested replicas that rides out a fault schedule. Bus backpressure
//! forces scale-ups, the schedule kills a freshly admitted replica and
//! stalls another, and the calm tail drains everything back to the
//! policy floor — with every acknowledged write intact and every
//! decision on a deterministic `t=<ms>` trace.
//!
//! Run with: `cargo run --release --example elastic_cluster`

use securecloud::cluster::ScalingPolicy;
use securecloud::eventbus::bus::METRIC_BACKPRESSURED;
use securecloud::faults::{FaultInjector, FaultKind, FaultPlan};
use securecloud::replica::{ReplicaConfig, ReplicationFactor, WriteQuorum};
use securecloud::SecureCloud;
use std::sync::Arc;

fn main() {
    println!("== Elastic cluster controller: scale, survive, converge ==\n");

    let mut cloud = SecureCloud::new();
    // The schedule aims at the controller's own actions: the kill lands
    // on the very replica the backpressure ramp makes it admit (shard 0
    // grows to slot 3 at t=500), and the stall fences a quorum member
    // until the controller's repair phase kill-and-replaces it.
    let plan = FaultPlan::new()
        .at(600, FaultKind::ReplicaKill { shard: 0, slot: 3 })
        .at(1_100, FaultKind::ReplicaStall { shard: 1, slot: 1 });
    let injector = Arc::new(FaultInjector::with_plan(7, plan));
    cloud.set_fault_injector(Arc::clone(&injector));

    let id = cloud
        .deploy_replicated_kv(ReplicaConfig {
            shards: 2,
            replication: ReplicationFactor(3),
            write_quorum: WriteQuorum(2),
            ..ReplicaConfig::default()
        })
        .expect("deploy replicated kv");
    cloud
        .attach_cluster_controller(id, ScalingPolicy::default(), 8)
        .expect("default policy is valid");
    println!("deployed 2 shards x 3 replicas; controller attached (min 3, max 5 per shard)");

    // Drive the loop: writes every tick, sustained bus backpressure for
    // the first 10 ticks, then calm. One controller tick per advance.
    let backpressured = cloud
        .telemetry()
        .registry()
        .counter(METRIC_BACKPRESSURED, &[]);
    let mut acked = Vec::new();
    for tick in 0..40u64 {
        for i in 0..4u64 {
            let key = format!("meter/{tick}/{i}");
            if cloud
                .replicated_kv_mut(id)
                .unwrap()
                .put(key.as_bytes(), &tick.to_le_bytes())
                .is_ok()
            {
                acked.push((key, tick));
            }
        }
        if tick < 10 {
            backpressured.add(20); // the bus is rejecting batches
        }
        cloud.advance(250);
    }

    let kv = cloud.replicated_kv_mut(id).unwrap();
    let lost = acked
        .iter()
        .filter(|(key, tick)| {
            kv.get(key.as_bytes()).expect("read quorum") != Some(tick.to_le_bytes().to_vec())
        })
        .count();
    let stats = kv.stats();
    println!(
        "\n{} writes acknowledged, {} lost; {} scale-ups, {} scale-downs,",
        acked.len(),
        lost,
        stats.scale_ups,
        stats.scale_downs
    );
    println!(
        "{} replicas killed, {} re-attested replacements, {} live at the end (epochs {:?})",
        stats.replicas_killed, stats.replicas_replaced, stats.live_replicas, stats.epochs
    );
    assert_eq!(lost, 0, "no acknowledged write may be lost");

    println!("\ncontroller decision trace (deterministic for equal seeds):");
    for line in cloud.cluster_controller().unwrap().decisions() {
        println!("  {line}");
    }
}
