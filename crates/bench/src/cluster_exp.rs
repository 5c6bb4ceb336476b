//! E12: elastic cluster controller under a seeded fault schedule.
//!
//! Each cell runs the full platform loop on the virtual clock: a load
//! ramp drives bus backpressure until the attached
//! [`securecloud::cluster::ClusterController`] scales the replicated KV
//! and the schedule kills exactly the replicas those scale-ups admit,
//! stalls another, and partitions a whole group; the calm tail then
//! drains everything back to the policy floor. The cell *asserts* the
//! headline robustness invariants — zero acknowledged writes lost, no
//! quorum-epoch rollback — and records what the controller did.
//!
//! Everything runs on virtual time, so every number is deterministic:
//! equal seeds produce byte-identical decision traces at any `--jobs N`
//! (pinned by `tests/parallel_determinism.rs` and the recorded
//! `trace_fnv` digests in `BENCH_cluster.json`).

use securecloud::cluster::ScalingPolicy;
use securecloud::eventbus::bus::METRIC_BACKPRESSURED;
use securecloud::faults::{FaultInjector, FaultKind, FaultPlan};
use securecloud::replica::{ReplicaConfig, ReplicationFactor, WriteQuorum};
use securecloud::SecureCloud;
use std::sync::Arc;

use crate::pool;
use crate::report::Cell::{Hex, List};
use crate::report::{Column, Ctx, Report};

/// Sizing knobs for the chaos sweep.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Fault-schedule seeds; each jitters the fire times differently
    /// against the fixed controller tick grid.
    pub seeds: Vec<u64>,
    /// Load levels: acknowledged-write attempts per tick.
    pub writes_per_tick: Vec<u64>,
    /// Controller ticks per cell (one per [`SecureCloud::advance`]).
    pub ticks: u64,
    /// Virtual milliseconds per tick.
    pub tick_ms: u64,
    /// Leading ticks with sustained bus backpressure (the ramp the
    /// controller scales up under; the remainder is the calm tail).
    pub overload_ticks: u64,
}

impl ClusterConfig {
    /// Full-size run: four schedules at two load levels.
    #[must_use]
    pub fn full() -> Self {
        ClusterConfig {
            seeds: vec![0xE1A5_0001, 0x5EED_0002, 0xC0FF_0003, 0xFA11_0004],
            writes_per_tick: vec![4, 12],
            ticks: 44,
            tick_ms: 250,
            overload_ticks: 11,
        }
    }

    /// CI-sized run with the same shape (the schedule still lands its
    /// kills mid-scale-up; only the cell count shrinks).
    #[must_use]
    pub fn smoke() -> Self {
        ClusterConfig {
            seeds: vec![0xE1A5_0001, 0x5EED_0002],
            writes_per_tick: vec![4],
            ticks: 44,
            tick_ms: 250,
            overload_ticks: 11,
        }
    }
}

/// One (seed, load) cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPoint {
    /// Fault-schedule seed.
    pub seed: u64,
    /// Write attempts per tick.
    pub writes_per_tick: u64,
    /// Writes acknowledged at quorum.
    pub acked: u64,
    /// Writes refused unacknowledged (partition window, drains).
    pub rejected: u64,
    /// Acknowledged writes unreadable at the end — asserted zero.
    pub acked_lost: u64,
    /// Quorum-epoch rollbacks observed across ticks — asserted zero.
    pub epoch_rollbacks: u64,
    /// Replicas admitted by controller scale-ups.
    pub scale_ups: u64,
    /// Replicas drained by controller scale-downs.
    pub scale_downs: u64,
    /// Replicas killed (schedule kills + controller fence-kills).
    pub replicas_killed: u64,
    /// Replicas re-admitted through attested failover.
    pub replicas_replaced: u64,
    /// Live replicas after the calm tail (back at the policy floor).
    pub final_live: u64,
    /// Final trusted epoch per shard group.
    pub epochs: Vec<u64>,
    /// Controller decision lines emitted.
    pub decisions: u64,
    /// The full decision trace — the byte-identical determinism
    /// artifact (digested as `trace_fnv` in the JSON report).
    pub decision_trace: String,
}

/// FNV-1a digest of a decision trace, recorded so two report files can
/// be compared for determinism without shipping the full traces.
#[must_use]
pub fn trace_fnv(trace: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in trace.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The seeded fault schedule: kills aimed at the very replicas the load
/// ramp's scale-ups admit (slot 3 right after n reaches 4, slot 4 right
/// after n reaches 5), a grey-failure stall, a whole-group partition,
/// and a late kill during the drain era. The jitter moves each fire
/// time by whole controller-tick windows (plus a sub-tick offset), so
/// different seeds interleave the same faults *observably* differently
/// against the controller's decisions — sub-tick movement alone would
/// be invisible to a controller that only looks at tick boundaries.
fn plan_for(seed: u64, tick_ms: u64) -> FaultPlan {
    let mix = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let jitter = |k: u32, windows: u64| {
        let bits = mix.rotate_left(k);
        (bits % windows) * tick_ms + bits % (tick_ms - 1) + 1
    };
    FaultPlan::new()
        .at(
            2 * tick_ms + jitter(1, 3),
            FaultKind::ReplicaKill { shard: 0, slot: 3 },
        )
        .at(
            4 * tick_ms + jitter(7, 4),
            FaultKind::ReplicaStall { shard: 1, slot: 1 },
        )
        .at(
            10 * tick_ms + jitter(13, 3),
            FaultKind::ReplicaKill { shard: 0, slot: 4 },
        )
        .at(
            12 * tick_ms + jitter(19, 3),
            FaultKind::NetworkPartition {
                group: 1,
                heal_after_ms: tick_ms + jitter(23, 3),
            },
        )
        .at(
            20 * tick_ms + jitter(29, 4),
            FaultKind::ReplicaKill { shard: 1, slot: 0 },
        )
}

fn run_cell(seed: u64, writes_per_tick: u64, config: &ClusterConfig) -> ClusterPoint {
    let mut cloud = SecureCloud::new();
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

    let backpressured = cloud
        .telemetry()
        .registry()
        .counter(METRIC_BACKPRESSURED, &[]);
    let mut acked: Vec<(String, u64)> = Vec::new();
    let mut rejected = 0u64;
    let mut epoch_rollbacks = 0u64;
    let mut last_epochs: Vec<u64> = Vec::new();
    for tick in 0..config.ticks {
        for i in 0..writes_per_tick {
            let key = format!("meter/{tick}/{i}");
            match cloud
                .replicated_kv_mut(id)
                .expect("deployment exists")
                .put(key.as_bytes(), &tick.to_le_bytes())
            {
                Ok(()) => acked.push((key, tick)),
                Err(_) => rejected += 1,
            }
        }
        if tick < config.overload_ticks {
            backpressured.add(20);
        }
        cloud.advance(config.tick_ms);
        let epochs = cloud
            .replicated_kv_mut(id)
            .expect("deployment exists")
            .stats()
            .epochs;
        epoch_rollbacks += epochs
            .iter()
            .zip(&last_epochs)
            .filter(|(now, then)| now < then)
            .count() as u64;
        last_epochs = epochs;
    }

    let kv = cloud.replicated_kv_mut(id).expect("deployment exists");
    let acked_lost = acked
        .iter()
        .filter(|(key, tick)| {
            kv.get(key.as_bytes()).expect("read quorum at the end")
                != Some(tick.to_le_bytes().to_vec())
        })
        .count() as u64;
    assert_eq!(
        acked_lost, 0,
        "seed {seed:#x} load {writes_per_tick}: acknowledged writes lost"
    );
    assert_eq!(
        epoch_rollbacks, 0,
        "seed {seed:#x} load {writes_per_tick}: a quorum epoch rolled back"
    );
    let stats = kv.stats();
    let decision_trace = cloud
        .cluster_controller()
        .expect("controller attached")
        .decision_trace();
    ClusterPoint {
        seed,
        writes_per_tick,
        acked: acked.len() as u64,
        rejected,
        acked_lost,
        epoch_rollbacks,
        scale_ups: stats.scale_ups,
        scale_downs: stats.scale_downs,
        replicas_killed: stats.replicas_killed,
        replicas_replaced: stats.replicas_replaced,
        final_live: stats.live_replicas as u64,
        epochs: stats.epochs,
        decisions: decision_trace.lines().count() as u64,
        decision_trace,
    }
}

/// Runs the (seed, load) grid fanned across `jobs` worker threads. Cells
/// are independent virtual-clock simulations, so results — decision
/// traces included — are byte-identical for any job count, in seed-major
/// order.
#[must_use]
pub fn sweep(config: &ClusterConfig, jobs: usize) -> ClusterReport {
    let cells = pool::grid(&config.seeds, &config.writes_per_tick);
    let points = pool::run_ordered(cells, jobs, None, |(seed, writes), _| {
        run_cell(seed, writes, config)
    });
    ClusterReport {
        ticks: config.ticks,
        tick_ms: config.tick_ms,
        points,
    }
}

/// The whole sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Controller ticks per cell.
    pub ticks: u64,
    /// Virtual milliseconds per tick.
    pub tick_ms: u64,
    /// One point per (seed, load) cell, seed-major.
    pub points: Vec<ClusterPoint>,
}

/// Runs E12 at the context's size and declares its table. Decision traces
/// are recorded as FNV-1a digests plus line counts, which is enough to diff
/// two runs for determinism.
pub fn report(ctx: &Ctx) -> Vec<Report> {
    let config = ctx.pick(ClusterConfig::smoke(), ClusterConfig::full());
    let swept = sweep(&config, ctx.jobs);
    let report = Report::new(
        "cluster",
        "== E12: elastic cluster controller under a seeded fault schedule ==
(load ramp forces scale-ups; the schedule kills the replicas they
 admit, stalls one, partitions a group — zero acked writes lost,
 no epoch rollback, byte-identical decisions at any --jobs)",
        &swept.points,
        [
            Column::table("seed", 10, |p| Hex(p.seed)),
            Column::json("seed", |p| p.seed.into()),
            Column::keyed("wr/tick", 7, "writes_per_tick", |p| {
                p.writes_per_tick.into()
            }),
            Column::new("acked", 6, |p| p.acked.into()),
            Column::keyed("reject", 6, "rejected", |p| p.rejected.into()),
            Column::json("acked_lost", |p| p.acked_lost.into()),
            Column::json("epoch_rollbacks", |p| p.epoch_rollbacks.into()),
            Column::keyed("ups", 5, "scale_ups", |p| p.scale_ups.into()),
            Column::keyed("downs", 7, "scale_downs", |p| p.scale_downs.into()),
            Column::keyed("kills", 6, "replicas_killed", |p| p.replicas_killed.into()),
            Column::keyed("repl", 6, "replicas_replaced", |p| {
                p.replicas_replaced.into()
            }),
            Column::keyed("live", 5, "final_live", |p| p.final_live.into()),
            Column::json("epochs", |p| {
                List(p.epochs.iter().map(|&e| e.into()).collect())
            }),
            Column::new("decisions", 9, |p| p.decisions.into()),
            Column::table("trace fnv", 18, |p| Hex(trace_fnv(&p.decision_trace))),
            Column::json("trace_fnv", |p| trace_fnv(&p.decision_trace).into()),
        ],
    );
    vec![Report {
        summary: format!(
            "{} tick(s) x {} ms virtual per cell",
            swept.ticks, swept.tick_ms
        ),
        meta: vec![
            ("ticks", swept.ticks.into()),
            ("tick_ms", swept.tick_ms.into()),
        ],
        announce: true,
        ..report
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ClusterConfig {
        ClusterConfig {
            seeds: vec![0xE1A5_0001],
            writes_per_tick: vec![4],
            ticks: 44,
            tick_ms: 250,
            overload_ticks: 11,
        }
    }

    #[test]
    fn chaos_cell_scales_survives_and_converges() {
        let report = sweep(&tiny(), 1);
        let point = &report.points[0];
        // run_cell already asserted the invariants; pin the recorded
        // evidence that the schedule actually exercised the controller.
        assert_eq!(point.acked_lost, 0);
        assert_eq!(point.epoch_rollbacks, 0);
        assert!(point.scale_ups >= 2, "ramp scaled up: {point:?}");
        assert!(point.scale_downs >= 2, "calm tail drained: {point:?}");
        assert!(point.replicas_killed >= 3);
        assert_eq!(point.replicas_killed, point.replicas_replaced);
        assert_eq!(point.final_live, 6, "back at the policy floor");
        assert!(point.rejected > 0, "partition refused some writes");
        assert!(point.decision_trace.contains("scale-up shard s0"));
        assert!(point.decision_trace.contains("scale-down shard"));
    }

    #[test]
    fn report_serialises_with_trace_digests() {
        let telemetry = securecloud_telemetry::Telemetry::new();
        let ctx = Ctx {
            smoke: true,
            jobs: 2,
            telemetry: &telemetry,
        };
        let json = report(&ctx)[0].to_json();
        assert!(json.contains("\"bench\": \"cluster\""));
        assert!(json.contains("\"acked_lost\": 0"));
        assert!(json.contains("\"trace_fnv\": "));
        assert!(json.ends_with("}\n"));
    }
}
