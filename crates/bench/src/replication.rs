//! E9: replicated KV scaling — shard count x replication factor.
//!
//! Sweeps a [`ReplicatedKv`] deployment over the (shards, replication
//! factor) grid with a deliberately small per-replica EPC, so the sweep
//! shows both effects the design trades off:
//!
//! * **sharding** splits the working set — one shard pages hard past the
//!   EPC knee, while enough shards keep every replica's slice resident
//!   (Figure 3's cliff, avoided by partitioning instead of optimisation);
//! * **replication** multiplies write work by `n` (every live replica
//!   applies every write) and buys fault tolerance, paid for again at
//!   failover time when a snapshot is sealed, streamed, and restored.
//!
//! Durations are simulated (cost-model cycles), so results are
//! deterministic and hardware-independent.

use securecloud::replica::{
    ReplicaConfig, ReplicatedKv, ReplicationFactor, ShardId, StorageConfig, WriteQuorum,
};
use securecloud_kvstore::CounterService;
use securecloud_sgx::costs::{CostModel, MemoryGeometry};
use securecloud_sgx::enclave::Platform;

use crate::pool;
use crate::report::Cell::Fixed;
use crate::report::{Column, Ctx, Report};
use crate::small_epc;

/// One cell of the shards x replication grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationPoint {
    /// Shard groups in the deployment.
    pub shards: u32,
    /// Replicas per shard.
    pub replication_factor: u32,
    /// Write quorum used (smallest majority of the replication factor).
    pub write_quorum: u32,
    /// Simulated microseconds per acknowledged quorum write.
    pub put_us: f64,
    /// Simulated microseconds per quorum read.
    pub get_us: f64,
    /// Acknowledged writes per simulated second.
    pub put_kops_s: f64,
    /// EPC faults per read during the re-read pass, summed over the read
    /// quorum's replicas. The paging indicator: first-touch faults during
    /// the load are compulsory either way, but re-reads only fault when a
    /// shard's slice exceeds the EPC (~0 once sharding makes it fit).
    pub faults_per_get: f64,
    /// Simulated milliseconds to recover from one replica kill (seal a
    /// snapshot, re-attest a replacement, stream + restore). Zero when
    /// `replication_factor == 1` (no survivor: failover impossible).
    pub failover_ms: f64,
}

/// Workload knobs for the sweep.
#[derive(Debug, Clone)]
pub struct ReplicationWorkload {
    /// Distinct keys written (then read back).
    pub keys: usize,
    /// Value size in bytes.
    pub value_bytes: usize,
    /// Per-replica memory geometry (small EPC so sharding matters).
    pub geometry: MemoryGeometry,
}

impl ReplicationWorkload {
    /// Full-size workload: a 16 MiB dataset against a 6 MiB-usable EPC, so
    /// one shard pages heavily and four shards fit entirely.
    #[must_use]
    pub fn full() -> Self {
        ReplicationWorkload {
            keys: 4_096,
            value_bytes: 4_096,
            geometry: small_epc(8 << 20, 2 << 20),
        }
    }

    /// CI-sized workload with the same shape: a 1 MiB dataset against a
    /// 384 KiB-usable EPC.
    #[must_use]
    pub fn smoke() -> Self {
        ReplicationWorkload {
            keys: 1_024,
            value_bytes: 1_024,
            geometry: small_epc(512 << 10, 128 << 10),
        }
    }
}

/// Runs the grid — every `shards` value against every `replication` value —
/// fanned across up to `jobs` worker threads. Each cell deploys its own
/// platform and replica set, so cells are independent and deterministic;
/// results come back in row-major order for any job count.
#[must_use]
pub fn sweep(
    shards: &[u32],
    replication: &[u32],
    workload: &ReplicationWorkload,
    jobs: usize,
) -> Vec<ReplicationPoint> {
    let cells = pool::grid(shards, replication);
    pool::run_ordered(cells, jobs, None, |(s, n), _| run_cell(s, n, workload))
}

fn run_cell(shards: u32, replication: u32, workload: &ReplicationWorkload) -> ReplicationPoint {
    let costs = CostModel::sgx_v1();
    let config = ReplicaConfig {
        shards,
        replication: ReplicationFactor(replication),
        write_quorum: WriteQuorum::majority(ReplicationFactor(replication)),
        geometry: workload.geometry,
        costs: costs.clone(),
        ..ReplicaConfig::default()
    };
    let write_quorum = config.write_quorum.0;
    let platform = Platform::new();
    let counters = CounterService::new();
    let mut kv = ReplicatedKv::deploy(config, &platform, &counters).expect("valid config");

    let value = vec![0xa5u8; workload.value_bytes];
    let keys: Vec<Vec<u8>> = (0..workload.keys)
        .map(|i| format!("grid/meter/{i:08}").into_bytes())
        .collect();

    let before_puts = kv.total_cycles();
    for key in &keys {
        kv.put(key, &value).expect("quorum write");
    }
    let put_cycles = kv.total_cycles() - before_puts;
    let faults_after_puts = epc_faults(&kv);

    let before_gets = kv.total_cycles();
    for key in &keys {
        kv.get(key).expect("quorum read");
    }
    let get_cycles = kv.total_cycles() - before_gets;
    let get_faults = epc_faults(&kv) - faults_after_puts;

    // One replica kill + full recovery, timed in simulated cycles.
    let failover_ms = if replication > 1 {
        let before = kv.total_cycles();
        kv.kill_replica(securecloud::replica::ShardId(0), 0);
        kv.fail_over().expect("failover with survivors");
        costs
            .cycles_to_duration(kv.total_cycles() - before)
            .as_secs_f64()
            * 1e3
    } else {
        0.0
    };

    let ops = workload.keys as f64;
    let put_secs = costs.cycles_to_duration(put_cycles).as_secs_f64();
    let get_secs = costs.cycles_to_duration(get_cycles).as_secs_f64();
    ReplicationPoint {
        shards,
        replication_factor: replication,
        write_quorum,
        put_us: put_secs * 1e6 / ops,
        get_us: get_secs * 1e6 / ops,
        put_kops_s: if put_secs > 0.0 {
            ops / put_secs / 1e3
        } else {
            0.0
        },
        faults_per_get: get_faults as f64 / ops,
        failover_ms,
    }
}

/// E9b: bytes streamed to catch a replacement up after one replica kill,
/// whole-store snapshot (in-memory deployment) vs incremental manifest
/// (tiered deployment), at the same workload.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverStreamComparison {
    /// Keys loaded before the kill.
    pub keys: usize,
    /// Value size, bytes.
    pub value_bytes: usize,
    /// Bytes streamed when the group seals and ships the whole store.
    pub whole_bytes: u64,
    /// Trusted bytes streamed when the group ships an incremental
    /// manifest (manifest + WAL tail; sealed segments are already on the
    /// replacement's untrusted host path and self-authenticate).
    pub incremental_bytes: u64,
}

impl FailoverStreamComparison {
    /// whole / incremental stream-size ratio.
    #[must_use]
    pub fn shrink_factor(&self) -> f64 {
        self.whole_bytes as f64 / self.incremental_bytes.max(1) as f64
    }
}

/// Runs the same kill-plus-failover against an in-memory and a tiered
/// single-shard deployment and compares the bytes each streamed.
#[must_use]
pub fn failover_stream_comparison(workload: &ReplicationWorkload) -> FailoverStreamComparison {
    let streamed = |storage: Option<StorageConfig>| -> u64 {
        let config = ReplicaConfig {
            shards: 1,
            replication: ReplicationFactor(3),
            write_quorum: WriteQuorum(2),
            geometry: workload.geometry,
            storage,
            ..ReplicaConfig::default()
        };
        let platform = Platform::new();
        let counters = CounterService::new();
        let mut kv = ReplicatedKv::deploy(config, &platform, &counters).expect("valid config");
        let value = vec![0xa5u8; workload.value_bytes];
        for i in 0..workload.keys {
            kv.put(format!("grid/meter/{i:08}").as_bytes(), &value)
                .expect("quorum write");
        }
        kv.kill_replica(ShardId(0), 0);
        kv.fail_over().expect("failover with survivors");
        kv.stats().snapshot_stream_bytes
    };
    FailoverStreamComparison {
        keys: workload.keys,
        value_bytes: workload.value_bytes,
        whole_bytes: streamed(None),
        incremental_bytes: streamed(Some(StorageConfig {
            block_bytes: 4096,
            flush_bytes: 64 << 10,
            cache_blocks: 8,
            compact_at_segments: 8,
        })),
    }
}

/// The E9 table plus the E9b failover-stream comparison.
pub fn report(ctx: &Ctx) -> Vec<Report> {
    let (shards, replication, workload) = ctx.pick(
        (&[1, 4][..], &[1, 3][..], ReplicationWorkload::smoke()),
        (
            &[1, 2, 4, 8][..],
            &[1, 3, 5][..],
            ReplicationWorkload::full(),
        ),
    );
    let points = sweep(shards, replication, &workload, ctx.jobs);
    let report = Report::new(
        "replication",
        "== E9: replicated KV — shards x replication factor ==
(sharding splits the working set below the EPC knee; replication
 multiplies write work and buys attested failover)",
        &points,
        [
            Column::new("shards", 7, |p| p.shards.into()),
            Column::new("rf", 4, |p| p.replication_factor.into()),
            Column::new("w", 3, |p| p.write_quorum.into()),
            Column::new("put us", 10, |p| Fixed(p.put_us, 1)),
            Column::new("get us", 10, |p| Fixed(p.get_us, 1)),
            Column::new("put kops/s", 11, |p| Fixed(p.put_kops_s, 1)),
            Column::new("faults/get", 11, |p| Fixed(p.faults_per_get, 2)),
            Column::new("failover ms", 12, |p| Fixed(p.failover_ms, 2)),
        ],
    );
    let stream = failover_stream_comparison(&workload);
    vec![Report {
        meta: vec![
            ("keys", stream.keys.into()),
            ("value_bytes", stream.value_bytes.into()),
            ("failover_whole_bytes", stream.whole_bytes.into()),
            (
                "failover_incremental_bytes",
                stream.incremental_bytes.into(),
            ),
        ],
        footer: format!(
            "failover catch-up stream ({} keys x {} B): whole snapshot {} B,
incremental manifest {} B ({:.1}x smaller)",
            stream.keys,
            stream.value_bytes,
            stream.whole_bytes,
            stream.incremental_bytes,
            stream.shrink_factor()
        ),
        ..report
    }]
}

/// Total EPC faults charged across the deployment's live replicas.
fn epc_faults(kv: &ReplicatedKv) -> u64 {
    (0..kv.shard_map().shards())
        .filter_map(|s| kv.group(securecloud::replica::ShardId(s)))
        .map(securecloud::replica::ShardGroup::epc_faults)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_relieves_paging_and_replication_costs_writes() {
        let workload = ReplicationWorkload::smoke();
        let grid = sweep(&[1, 4], &[1, 3], &workload, 1);
        assert_eq!(grid.len(), 4);
        let cell = |s: u32, n: u32| {
            grid.iter()
                .find(|p| p.shards == s && p.replication_factor == n)
                .unwrap()
        };
        // One shard can't hold the dataset in EPC, so re-reads page; four
        // shards fit and re-reads stay resident.
        assert!(
            cell(1, 1).faults_per_get > cell(4, 1).faults_per_get,
            "1 shard: {} faults/get, 4 shards: {} faults/get",
            cell(1, 1).faults_per_get,
            cell(4, 1).faults_per_get
        );
        // Triple replication makes each write do more total work.
        assert!(cell(4, 3).put_us > cell(4, 1).put_us);
        // Failover is measured only where a survivor exists.
        assert!(cell(4, 1).failover_ms == 0.0);
        assert!(cell(4, 3).failover_ms > 0.0);
    }

    #[test]
    fn incremental_manifest_streams_fewer_bytes_than_whole_snapshot() {
        let comparison = failover_stream_comparison(&ReplicationWorkload::smoke());
        assert!(comparison.whole_bytes > 0, "whole-store path streamed");
        assert!(
            comparison.incremental_bytes > 0,
            "incremental path streamed"
        );
        assert!(
            comparison.incremental_bytes < comparison.whole_bytes,
            "incremental manifest ({} B) must undercut the whole snapshot ({} B)",
            comparison.incremental_bytes,
            comparison.whole_bytes
        );
    }
}
