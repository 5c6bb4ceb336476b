//! The cluster handle: shard routing + quorum groups + failover policy.
//!
//! [`ReplicatedKv`] is what deployments interact with: it owns one
//! [`ShardGroup`] per shard, routes keys through the consistent-hash
//! [`ShardMap`], gates membership behind one [`ProvisioningService`], and
//! translates fault-injector events into recovery actions:
//! [`FaultKind::ReplicaKill`] becomes kill + re-attested failover,
//! [`FaultKind::ReplicaStall`] fences a replica out of quorums (grey
//! failure), [`FaultKind::NetworkPartition`] cuts a shard group off
//! from its clients until the heal deadline passes on the virtual clock
//! ([`ReplicatedKv::advance_to`]), and [`FaultKind::StoreRefusesWrite`]
//! arms a replica's sealed tier to refuse a host write. Events whose
//! target no longer exists report as [`FaultApplication::Unroutable`] so
//! the platform can count them instead of panicking or dropping them
//! silently.

use crate::group::ShardGroup;
use crate::provision::ProvisioningService;
use crate::shard::ShardMap;
use crate::{ReplicaError, ReplicaId, ShardId};
use securecloud_faults::{FaultInjector, FaultKind};
use securecloud_kvstore::{CounterService, StorageConfig};
use securecloud_sgx::costs::{CostModel, MemoryGeometry};
use securecloud_sgx::enclave::{Measurement, Platform};
use securecloud_telemetry::{Telemetry, TraceContext};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The code every shard replica runs (its measurement is what the
/// provisioning service allowlists by default).
const DEFAULT_SHARD_CODE: &[u8] = b"securecloud replica kv shard v1";

/// How many replicas each shard group runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReplicationFactor(pub u32);

/// How many replicas must be live for a write to be acknowledged.
///
/// Writes go to *every* live replica; the quorum is the liveness floor
/// under which writes are refused. Keeping `w > n/2` guarantees every
/// acknowledged write survives any minority of replica crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct WriteQuorum(pub u32);

impl WriteQuorum {
    /// The smallest majority quorum for `replication` replicas.
    #[must_use]
    pub fn majority(replication: ReplicationFactor) -> Self {
        WriteQuorum(replication.0 / 2 + 1)
    }
}

/// Deployment shape of a replicated store.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Number of shard groups (consistent-hash ring partitions).
    pub shards: u32,
    /// Replicas per shard group.
    pub replication: ReplicationFactor,
    /// Liveness floor for acknowledging writes.
    pub write_quorum: WriteQuorum,
    /// Virtual nodes per shard on the hash ring.
    pub virtual_nodes: u32,
    /// The enclave code every replica runs (measured for attestation).
    pub code: Vec<u8>,
    /// Memory geometry of each replica enclave.
    pub geometry: MemoryGeometry,
    /// Cycle-cost model of each replica enclave.
    pub costs: CostModel,
    /// Sealed storage tier per replica (`Some` makes every replica a
    /// tiered store: in-EPC memtable over sealed host segments, with
    /// incremental-manifest failover instead of whole-store streaming).
    pub storage: Option<StorageConfig>,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            shards: 4,
            replication: ReplicationFactor(3),
            write_quorum: WriteQuorum(2),
            virtual_nodes: 16,
            code: DEFAULT_SHARD_CODE.to_vec(),
            geometry: MemoryGeometry::sgx_v1(),
            costs: CostModel::sgx_v1(),
            storage: None,
        }
    }
}

impl ReplicaConfig {
    /// Checks the deployment shape.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::InvalidConfig`] when a dimension is zero, the write
    /// quorum exceeds the replication factor, or the quorum is not a
    /// majority (`2w <= n` would let an acknowledged write die with a
    /// minority of crashes).
    pub fn validate(&self) -> Result<(), ReplicaError> {
        if self.shards == 0 {
            return Err(ReplicaError::InvalidConfig("shards must be >= 1".into()));
        }
        if self.virtual_nodes == 0 {
            return Err(ReplicaError::InvalidConfig(
                "virtual_nodes must be >= 1".into(),
            ));
        }
        let n = self.replication.0;
        let w = self.write_quorum.0;
        if n == 0 {
            return Err(ReplicaError::InvalidConfig(
                "replication factor must be >= 1".into(),
            ));
        }
        if w == 0 || w > n {
            return Err(ReplicaError::InvalidConfig(format!(
                "write quorum {w} must be in 1..={n}"
            )));
        }
        if 2 * w <= n {
            return Err(ReplicaError::InvalidConfig(format!(
                "write quorum {w} of {n} is not a majority; acknowledged \
                 writes could be lost to a minority of crashes"
            )));
        }
        if self.code.is_empty() {
            return Err(ReplicaError::InvalidConfig(
                "shard code must not be empty".into(),
            ));
        }
        Ok(())
    }
}

/// How a deployment handled one fault-injection event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultApplication {
    /// The event addressed this deployment and was applied.
    Applied,
    /// The event addressed the replica subsystem but its target no longer
    /// exists here (shard out of range, or a vacant/already-stalled slot)
    /// — a counted no-op, never a panic or a silent drop.
    Unroutable,
    /// The event addresses another subsystem entirely.
    Ignored,
}

securecloud_telemetry::metric_set! {
    /// Cluster-wide operation counters (standalone when no telemetry).
    struct ClusterMetrics {
        puts: Counter = "securecloud_replica_puts_total",
        gets: Counter = "securecloud_replica_gets_total",
        quorum_failures: Counter = "securecloud_replica_quorum_failures_total",
        replicas_killed: Counter = "securecloud_replica_killed_total",
        failovers: Counter = "securecloud_replica_failovers_total",
        stalls: Counter = "securecloud_replica_stalled_total",
        partitions: Counter = "securecloud_replica_partitions_total",
        scale_ups: Counter = "securecloud_replica_scale_ups_total",
        scale_downs: Counter = "securecloud_replica_scale_downs_total",
        storage_corruptions: Counter = "securecloud_replica_storage_corruptions_total",
    }
}

/// A point-in-time view of a replicated deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use]
pub struct ReplicaStats {
    /// Shard groups in the deployment.
    pub shards: u32,
    /// Configured replicas per shard.
    pub replication_factor: u32,
    /// Configured write quorum.
    pub write_quorum: u32,
    /// Replicas currently live across all shards.
    pub live_replicas: usize,
    /// Replica slots currently deployed across all shards (scaling moves
    /// this away from `shards * replication_factor`).
    pub total_replicas: usize,
    /// Acknowledged quorum writes.
    pub puts: u64,
    /// Served quorum reads.
    pub gets: u64,
    /// Operations refused for lack of quorum.
    pub quorum_failures: u64,
    /// Replicas killed (by fault injection or direct calls).
    pub replicas_killed: u64,
    /// Replicas re-admitted through failover.
    pub replicas_replaced: u64,
    /// Replicas currently stalled (resident but fenced out of quorums).
    pub replicas_stalled: usize,
    /// Scale-up operations performed (one admitted replica each).
    pub scale_ups: u64,
    /// Scale-down operations performed (one drained replica each).
    pub scale_downs: u64,
    /// Host-storage corruptions detected (integrity-tree hits from
    /// [`FaultKind::StorageCorruptBlock`] events).
    pub storage_corruptions: u64,
    /// Cumulative bytes streamed over the trusted failover channel across
    /// all shards (incremental manifests keep this far below data size
    /// for tiered deployments).
    pub snapshot_stream_bytes: u64,
    /// Current trusted epoch of each shard group, by shard index.
    pub epochs: Vec<u64>,
}

/// The group serving `shard`, or [`ReplicaError::UnknownShard`].
fn group_mut(groups: &mut [ShardGroup], shard: ShardId) -> Result<&mut ShardGroup, ReplicaError> {
    groups
        .get_mut(shard.0 as usize)
        .ok_or(ReplicaError::UnknownShard(shard))
}

/// A sharded, quorum-replicated secure KV store.
///
/// ```
/// use securecloud_kvstore::CounterService;
/// use securecloud_replica::{ReplicaConfig, ReplicatedKv};
/// use securecloud_sgx::enclave::Platform;
///
/// let platform = Platform::new();
/// let counters = CounterService::new();
/// let mut kv = ReplicatedKv::deploy(ReplicaConfig::default(), &platform, &counters).unwrap();
/// kv.put(b"meter/0042", b"17.3 kWh").unwrap();
/// assert_eq!(kv.get(b"meter/0042").unwrap(), Some(b"17.3 kWh".to_vec()));
/// ```
#[derive(Debug)]
pub struct ReplicatedKv {
    map: ShardMap,
    groups: Vec<ShardGroup>,
    provisioning: ProvisioningService,
    replication_factor: u32,
    write_quorum: u32,
    /// Virtual-time heal deadline per partitioned shard index; drained by
    /// [`ReplicatedKv::advance_to`]. `BTreeMap` keeps heal order (and the
    /// resulting trace) deterministic.
    partition_heals: BTreeMap<u32, u64>,
    telemetry: Option<Arc<Telemetry>>,
    metrics: ClusterMetrics,
}

impl ReplicatedKv {
    /// Deploys the store without telemetry or fault-injection wiring.
    ///
    /// # Errors
    ///
    /// Configuration ([`ReplicaError::InvalidConfig`]) or admission errors
    /// while bootstrapping the shard groups.
    pub fn deploy(
        config: ReplicaConfig,
        platform: &Platform,
        counters: &CounterService,
    ) -> Result<Self, ReplicaError> {
        Self::deploy_with(config, platform, counters, None, None)
    }

    /// Deploys the store, instrumenting with `telemetry` and recording
    /// membership events through `injector`'s deterministic trace.
    ///
    /// # Errors
    ///
    /// Configuration ([`ReplicaError::InvalidConfig`]) or admission errors
    /// while bootstrapping the shard groups.
    pub fn deploy_with(
        config: ReplicaConfig,
        platform: &Platform,
        counters: &CounterService,
        telemetry: Option<&Arc<Telemetry>>,
        injector: Option<&Arc<FaultInjector>>,
    ) -> Result<Self, ReplicaError> {
        config.validate()?;
        let mut provisioning =
            ProvisioningService::new(platform, Measurement::of_code(&config.code));
        if let Some(t) = telemetry {
            provisioning.set_telemetry(t);
        }
        let mut groups = Vec::with_capacity(config.shards as usize);
        for shard in 0..config.shards {
            groups.push(ShardGroup::new(
                ShardId(shard),
                &config,
                platform,
                counters,
                &mut provisioning,
                telemetry,
                injector,
            )?);
        }
        Ok(ReplicatedKv {
            map: ShardMap::new(config.shards, config.virtual_nodes),
            groups,
            provisioning,
            replication_factor: config.replication.0,
            write_quorum: config.write_quorum.0,
            partition_heals: BTreeMap::new(),
            telemetry: telemetry.cloned(),
            metrics: telemetry.map_or_else(ClusterMetrics::default, |t| {
                ClusterMetrics::shared(t.registry(), &[])
            }),
        })
    }

    /// The shard `key` routes to.
    #[must_use]
    pub fn shard_of(&self, key: &[u8]) -> ShardId {
        self.map.shard_for(key)
    }

    /// The consistent-hash ring in use.
    #[must_use]
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// The shard group serving `shard`, if it exists.
    #[must_use]
    pub fn group(&self, shard: ShardId) -> Option<&ShardGroup> {
        self.groups.get(shard.0 as usize)
    }

    /// Replicas currently live across every shard.
    #[must_use]
    pub fn live_replicas(&self) -> usize {
        self.groups.iter().map(ShardGroup::live).sum()
    }

    /// Total simulated cycles charged across every replica that ever ran
    /// (monotone across kills and failovers).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.groups.iter().map(ShardGroup::cycles).sum()
    }

    /// Quorum write to the shard owning `key`.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::QuorumLost`] when the owning shard has fewer live
    /// replicas than the write quorum (the write is applied nowhere), plus
    /// the per-replica error cases of [`ShardGroup::put`].
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), ReplicaError> {
        self.put_traced(key, value, TraceContext::none())
    }

    /// [`ReplicatedKv::put`] under a causal parent context: the routing
    /// span and the shard group's quorum/replica spans all join the
    /// parent's trace. With an absent parent this is exactly
    /// [`ReplicatedKv::put`].
    ///
    /// # Errors
    ///
    /// Same as [`ReplicatedKv::put`].
    pub fn put_traced(
        &mut self,
        key: &[u8],
        value: &[u8],
        parent: TraceContext,
    ) -> Result<(), ReplicaError> {
        let shard = self.map.shard_for(key);
        let telemetry = self.telemetry.clone();
        let ctx = telemetry
            .as_ref()
            .map_or_else(TraceContext::none, |t| t.mint_child(parent));
        let _span = telemetry.as_ref().map(|t| {
            t.span(
                "replica",
                "quorum_put",
                vec![("shard", shard.to_string())],
                ctx,
            )
        });
        let group = group_mut(&mut self.groups, shard)?;
        let live = group.live();
        let result = group.put_traced(key, value, ctx);
        // A replica whose store refused the write was retired by the group.
        let retired = live - group.live();
        self.metrics.replicas_killed.add(retired as u64);
        match &result {
            Ok(()) => self.metrics.puts.inc(),
            Err(ReplicaError::QuorumLost { .. }) => self.metrics.quorum_failures.inc(),
            Err(_) => {}
        }
        result
    }

    /// Quorum read from the shard owning `key`, returning the freshest
    /// copy among the read quorum.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::QuorumLost`] when the owning shard has fewer live
    /// replicas than the read quorum, plus the per-replica error cases of
    /// [`ShardGroup::get`].
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, ReplicaError> {
        let shard = self.map.shard_for(key);
        let telemetry = self.telemetry.clone();
        let _span = telemetry.as_ref().map(|t| {
            t.span(
                "replica",
                "quorum_get",
                vec![("shard", shard.to_string())],
                TraceContext::none(),
            )
        });
        let result = group_mut(&mut self.groups, shard)?.get(key);
        match &result {
            Ok(_) => self.metrics.gets.inc(),
            Err(ReplicaError::QuorumLost { .. }) => self.metrics.quorum_failures.inc(),
            Err(_) => {}
        }
        result
    }

    /// Kills one replica (its enclave aborts, the slot goes vacant) without
    /// repairing the group. Returns the killed replica's id, or `None` when
    /// the shard/slot does not address a live replica.
    pub fn kill_replica(&mut self, shard: ShardId, slot: u32) -> Option<ReplicaId> {
        let group = self.groups.get_mut(shard.0 as usize)?;
        let killed = group.kill(slot as usize, "fault injection")?;
        self.metrics.replicas_killed.inc();
        Some(killed)
    }

    /// Repairs every degraded shard group: re-attests replacements and
    /// streams them snapshots. Returns how many replicas were replaced.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::NoSurvivors`] when a shard lost every replica, or
    /// admission/restore errors from the replacement path.
    pub fn fail_over(&mut self) -> Result<u32, ReplicaError> {
        let mut replaced = 0;
        for group in &mut self.groups {
            if group.is_degraded() {
                let n = group.failover(&mut self.provisioning)?;
                self.metrics.failovers.add(u64::from(n));
                replaced += n;
            }
        }
        Ok(replaced)
    }

    /// Adds one attested replica to `shard`'s group, re-deriving the write
    /// quorum as the smallest majority of the new size.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::UnknownShard`] when `shard` is outside this
    /// deployment, [`ReplicaError::NoSurvivors`] when no responsive replica
    /// remains to snapshot from, or admission/restore errors from the
    /// provisioning path.
    pub fn scale_up(&mut self, shard: ShardId) -> Result<ReplicaId, ReplicaError> {
        let admitted = group_mut(&mut self.groups, shard)?.expand(&mut self.provisioning)?;
        self.metrics.scale_ups.inc();
        Ok(admitted)
    }

    /// Drains and decommissions the last replica slot of `shard`'s group,
    /// shrinking the write quorum to the majority of the new size. Returns
    /// the drained replica's id (`None` when the retired slot was vacant).
    ///
    /// # Errors
    ///
    /// [`ReplicaError::UnknownShard`] when `shard` is outside this
    /// deployment, or [`ReplicaError::DrainRefused`] when removing the slot
    /// would leave fewer responsive replicas than the post-drain majority —
    /// the group is left untouched, so no acknowledged write is put at risk.
    pub fn scale_down(&mut self, shard: ShardId) -> Result<Option<ReplicaId>, ReplicaError> {
        let drained = group_mut(&mut self.groups, shard)?.decommission_last()?;
        self.metrics.scale_downs.inc();
        Ok(drained)
    }

    /// Stalls one replica (grey failure): it stays resident but is fenced
    /// out of every quorum until a kill + failover replaces it. Returns the
    /// stalled replica's id, or `None` when the shard/slot does not address
    /// a responsive replica.
    pub fn stall_replica(&mut self, shard: ShardId, slot: u32) -> Option<ReplicaId> {
        let group = self.groups.get_mut(shard.0 as usize)?;
        let stalled = group.stall(slot as usize)?;
        self.metrics.stalls.inc();
        Some(stalled)
    }

    /// Partitions `shard`'s group from its clients until the virtual clock
    /// reaches `heal_at_ms` (see [`ReplicatedKv::advance_to`]). Overlapping
    /// partitions extend the existing heal deadline; returns `false` when
    /// the shard does not exist.
    pub fn partition_shard(&mut self, shard: ShardId, heal_at_ms: u64) -> bool {
        let Some(group) = self.groups.get_mut(shard.0 as usize) else {
            return false;
        };
        if group.partition() {
            self.metrics.partitions.inc();
        }
        let heal = self.partition_heals.entry(shard.0).or_insert(0);
        *heal = (*heal).max(heal_at_ms);
        true
    }

    /// Advances the deployment's virtual clock, healing every partition
    /// whose deadline has passed. Returns how many shards healed.
    pub fn advance_to(&mut self, now_ms: u64) -> u32 {
        let due: Vec<u32> = self
            .partition_heals
            .iter()
            .filter(|&(_, &deadline)| deadline <= now_ms)
            .map(|(&shard, _)| shard)
            .collect();
        let mut healed = 0;
        for shard in due {
            self.partition_heals.remove(&shard);
            if let Some(group) = self.groups.get_mut(shard as usize) {
                if group.heal_partition() {
                    healed += 1;
                }
            }
        }
        healed
    }

    /// Applies a fault-injection event to the deployment at virtual time
    /// `now_ms`.
    ///
    /// * [`FaultKind::ReplicaKill`] — the replica is killed and the group
    ///   immediately fails over to a re-attested replacement;
    /// * [`FaultKind::ReplicaStall`] — the replica is fenced out of quorums
    ///   but stays resident (grey failure);
    /// * [`FaultKind::NetworkPartition`] — the shard group refuses client
    ///   quorum operations until `now_ms + heal_after_ms` on the virtual
    ///   clock;
    /// * [`FaultKind::StorageCorruptBlock`] — a seeded bit flips in one
    ///   sealed block on the replica's untrusted host disk; the integrity
    ///   scrub detects it, quarantines the segment, and the replica is
    ///   killed and failed over (survivors hold every acknowledged write);
    /// * [`FaultKind::StoreRefusesWrite`] — the replica's sealed tier
    ///   refuses the host write after the next `after_writes`; the write
    ///   that meets the refusal retires the replica as a kill would.
    ///
    /// Replica-family events whose target no longer exists (shard out of
    /// range, vacant or already-stalled slot, or an untiered group for the
    /// storage kinds) report
    /// [`FaultApplication::Unroutable`] — a counted no-op. Events for other
    /// subsystems report [`FaultApplication::Ignored`].
    ///
    /// # Errors
    ///
    /// Failover errors from [`ReplicatedKv::fail_over`] after a kill.
    pub fn apply_fault(
        &mut self,
        fault: &FaultKind,
        now_ms: u64,
    ) -> Result<FaultApplication, ReplicaError> {
        match fault {
            FaultKind::ReplicaKill { shard, slot } => {
                if self.kill_replica(ShardId(*shard), *slot).is_none() {
                    return Ok(FaultApplication::Unroutable);
                }
                self.fail_over()?;
                Ok(FaultApplication::Applied)
            }
            FaultKind::ReplicaStall { shard, slot } => {
                match self.stall_replica(ShardId(*shard), *slot) {
                    Some(_) => Ok(FaultApplication::Applied),
                    None => Ok(FaultApplication::Unroutable),
                }
            }
            FaultKind::NetworkPartition {
                group,
                heal_after_ms,
            } => {
                let heal_at = now_ms.saturating_add(*heal_after_ms);
                if self.partition_shard(ShardId(*group), heal_at) {
                    Ok(FaultApplication::Applied)
                } else {
                    Ok(FaultApplication::Unroutable)
                }
            }
            FaultKind::StorageCorruptBlock { shard, slot } => {
                let Some(group) = self.groups.get_mut(*shard as usize) else {
                    return Ok(FaultApplication::Unroutable);
                };
                // No sealed blocks to hit (vacant slot, untiered group, or
                // nothing flushed yet): a counted no-op.
                if group.corrupt_storage_block(*slot as usize).is_none() {
                    return Ok(FaultApplication::Unroutable);
                }
                // The scrub detects the flipped bit via the integrity tree
                // and quarantines the segment; the damaged replica is then
                // retired and a replacement caught up from a survivor.
                let quarantined = group.scrub_storage(*slot as usize)?;
                self.metrics
                    .storage_corruptions
                    .add(quarantined.len().max(1) as u64);
                self.kill_replica(ShardId(*shard), *slot);
                self.fail_over()?;
                Ok(FaultApplication::Applied)
            }
            FaultKind::StoreRefusesWrite {
                shard,
                slot,
                after_writes,
            } => {
                let armed = self
                    .groups
                    .get_mut(*shard as usize)
                    .is_some_and(|group| group.fail_store_after(*slot as usize, *after_writes));
                if armed {
                    Ok(FaultApplication::Applied)
                } else {
                    Ok(FaultApplication::Unroutable)
                }
            }
            FaultKind::EnclaveAbort { .. }
            | FaultKind::ServicePanic { .. }
            | FaultKind::BrokerFail { .. }
            | FaultKind::SyscallFail { .. }
            | FaultKind::MapTaskFail { .. } => Ok(FaultApplication::Ignored),
        }
    }

    /// Point-in-time deployment statistics.
    pub fn stats(&self) -> ReplicaStats {
        ReplicaStats {
            shards: self.map.shards(),
            replication_factor: self.replication_factor,
            write_quorum: self.write_quorum,
            live_replicas: self.live_replicas(),
            total_replicas: self.groups.iter().map(ShardGroup::replication_factor).sum(),
            puts: self.metrics.puts.value(),
            gets: self.metrics.gets.value(),
            quorum_failures: self.metrics.quorum_failures.value(),
            replicas_killed: self.metrics.replicas_killed.value(),
            replicas_replaced: self.metrics.failovers.value(),
            replicas_stalled: self.groups.iter().map(|g| g.stalled_replicas().len()).sum(),
            scale_ups: self.metrics.scale_ups.value(),
            scale_downs: self.metrics.scale_downs.value(),
            storage_corruptions: self.metrics.storage_corruptions.value(),
            snapshot_stream_bytes: self
                .groups
                .iter()
                .map(ShardGroup::streamed_snapshot_bytes)
                .sum(),
            epochs: self.groups.iter().map(ShardGroup::epoch).collect(),
        }
    }

    /// The provisioning service guarding this deployment's membership.
    #[must_use]
    pub fn provisioning(&self) -> &ProvisioningService {
        &self.provisioning
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ReplicaConfig {
        ReplicaConfig {
            shards: 2,
            replication: ReplicationFactor(3),
            write_quorum: WriteQuorum(2),
            virtual_nodes: 8,
            ..ReplicaConfig::default()
        }
    }

    fn deploy() -> ReplicatedKv {
        ReplicatedKv::deploy(tiny_config(), &Platform::new(), &CounterService::new()).unwrap()
    }

    #[test]
    fn traced_quorum_write_has_rf_replica_spans_under_one_parent() {
        use securecloud_telemetry::Phase;
        let telemetry = Arc::new(Telemetry::new());
        telemetry.set_trace_seed(42);
        let mut kv = ReplicatedKv::deploy_with(
            tiny_config(),
            &Platform::new(),
            &CounterService::new(),
            Some(&telemetry),
            None,
        )
        .unwrap();
        let root = telemetry.mint_root();
        kv.put_traced(b"k", b"v", root).unwrap();
        let events = telemetry.trace_events();
        let quorum: Vec<_> = events
            .iter()
            .filter(|e| e.phase == Phase::Begin && e.name == "quorum_write")
            .collect();
        assert_eq!(quorum.len(), 1, "one quorum_write span");
        assert_eq!(quorum[0].trace_id, root.trace_id);
        let fanout: Vec<_> = events
            .iter()
            .filter(|e| e.phase == Phase::Begin && e.name == "replica_put")
            .collect();
        assert_eq!(fanout.len(), 3, "exactly rf replica spans");
        assert!(fanout.iter().all(|e| e.parent_span_id == quorum[0].span_id));
        assert!(fanout.iter().all(|e| e.trace_id == root.trace_id));
        // An untraced put emits no causal fan-out spans.
        kv.put(b"k2", b"v2").unwrap();
        let events = telemetry.trace_events();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.phase == Phase::Begin && e.name == "replica_put")
                .count(),
            3,
            "untraced puts stay untraced"
        );
    }

    #[test]
    fn majority_quorum_helper() {
        assert_eq!(WriteQuorum::majority(ReplicationFactor(3)), WriteQuorum(2));
        assert_eq!(WriteQuorum::majority(ReplicationFactor(4)), WriteQuorum(3));
        assert_eq!(WriteQuorum::majority(ReplicationFactor(5)), WriteQuorum(3));
    }

    #[test]
    fn config_validation_rejects_bad_shapes() {
        let reject = |config: ReplicaConfig| {
            assert!(matches!(
                config.validate(),
                Err(ReplicaError::InvalidConfig(_))
            ));
        };
        reject(ReplicaConfig {
            shards: 0,
            ..ReplicaConfig::default()
        });
        reject(ReplicaConfig {
            virtual_nodes: 0,
            ..ReplicaConfig::default()
        });
        reject(ReplicaConfig {
            write_quorum: WriteQuorum(4),
            ..ReplicaConfig::default()
        });
        reject(ReplicaConfig {
            // 1-of-3 is not a majority: acked writes could be lost.
            write_quorum: WriteQuorum(1),
            ..ReplicaConfig::default()
        });
        reject(ReplicaConfig {
            code: Vec::new(),
            ..ReplicaConfig::default()
        });
        assert!(ReplicaConfig::default().validate().is_ok());
    }

    #[test]
    fn routes_and_replicates_across_shards() {
        let mut kv = deploy();
        for i in 0..40u32 {
            let key = format!("meter/{i:04}");
            kv.put(key.as_bytes(), &i.to_le_bytes()).unwrap();
        }
        for i in 0..40u32 {
            let key = format!("meter/{i:04}");
            assert_eq!(
                kv.get(key.as_bytes()).unwrap(),
                Some(i.to_le_bytes().to_vec())
            );
        }
        let stats = kv.stats();
        assert_eq!(stats.puts, 40);
        assert_eq!(stats.gets, 40);
        assert_eq!(stats.live_replicas, 6);
        assert_eq!(stats.epochs, vec![1, 1]);
        // Both shards saw traffic (consistent hashing spreads 40 keys).
        let spread: Vec<u64> = kv
            .map
            .distribution(
                (0..40u32)
                    .map(|i| format!("meter/{i:04}").into_bytes())
                    .collect::<Vec<_>>()
                    .iter()
                    .map(Vec::as_slice),
            )
            .into_iter()
            .collect();
        assert!(spread.iter().all(|&n| n > 0), "{spread:?}");
    }

    #[test]
    fn replica_kill_fault_triggers_attested_failover() {
        let mut kv = deploy();
        kv.put(b"acked", b"survives").unwrap();
        let admitted_before = kv.provisioning().admitted();
        let handled = kv
            .apply_fault(&FaultKind::ReplicaKill { shard: 0, slot: 1 }, 0)
            .unwrap();
        assert_eq!(handled, FaultApplication::Applied);
        assert_eq!(kv.live_replicas(), 6, "failover restored the group");
        assert_eq!(kv.provisioning().admitted(), admitted_before + 1);
        assert_eq!(kv.get(b"acked").unwrap(), Some(b"survives".to_vec()));
        let stats = kv.stats();
        assert_eq!(stats.replicas_killed, 1);
        assert_eq!(stats.replicas_replaced, 1);
        assert_eq!(stats.epochs[0], 2, "membership change bumped the epoch");
        assert_eq!(stats.epochs[1], 1, "other shard untouched");
    }

    #[test]
    fn storage_corruption_fault_is_scrubbed_and_failed_over() {
        let mut kv = ReplicatedKv::deploy(
            ReplicaConfig {
                storage: Some(StorageConfig {
                    block_bytes: 256,
                    flush_bytes: 1024,
                    cache_blocks: 2,
                    compact_at_segments: 4,
                }),
                ..tiny_config()
            },
            &Platform::new(),
            &CounterService::new(),
        )
        .unwrap();
        // Enough acknowledged writes that both shards flush sealed segments.
        for i in 0..60u32 {
            kv.put(format!("sensor/{i:03}").as_bytes(), &[0xAB; 40])
                .unwrap();
        }
        let handled = kv
            .apply_fault(&FaultKind::StorageCorruptBlock { shard: 0, slot: 1 }, 0)
            .unwrap();
        assert_eq!(handled, FaultApplication::Applied);
        let stats = kv.stats();
        assert!(stats.storage_corruptions >= 1, "scrub quarantined the flip");
        assert!(
            stats.snapshot_stream_bytes > 0,
            "failover streamed an incremental manifest"
        );
        assert_eq!(kv.live_replicas(), 6, "damaged replica was replaced");
        for i in 0..60u32 {
            assert_eq!(
                kv.get(format!("sensor/{i:03}").as_bytes()).unwrap(),
                Some(vec![0xAB; 40]),
                "acked write survived the corruption"
            );
        }
        // Untiered deployments have no sealed blocks to flip.
        let mut plain = deploy();
        let unroutable = plain
            .apply_fault(&FaultKind::StorageCorruptBlock { shard: 0, slot: 0 }, 0)
            .unwrap();
        assert_eq!(unroutable, FaultApplication::Unroutable);
    }

    #[test]
    fn a_store_that_refuses_a_write_counts_as_a_killed_replica() {
        let mut kv = ReplicatedKv::deploy(
            ReplicaConfig {
                storage: Some(StorageConfig {
                    block_bytes: 256,
                    flush_bytes: 1024,
                    cache_blocks: 2,
                    compact_at_segments: 4,
                }),
                ..tiny_config()
            },
            &Platform::new(),
            &CounterService::new(),
        )
        .unwrap();
        let key = (0..64u32)
            .map(|i| format!("probe/{i:03}").into_bytes())
            .find(|k| kv.shard_of(k) == ShardId(0))
            .expect("some probe key routes to shard 0");
        let refusal = FaultKind::StoreRefusesWrite {
            shard: 0,
            slot: 1,
            after_writes: 0,
        };
        assert_eq!(
            kv.apply_fault(&refusal, 0).unwrap(),
            FaultApplication::Applied
        );
        kv.put(&key, b"acked").unwrap();
        let stats = kv.stats();
        assert_eq!(stats.replicas_killed, 1);
        assert_eq!(stats.live_replicas, 5);
        assert_eq!(kv.get(&key).unwrap(), Some(b"acked".to_vec()));
    }

    #[test]
    fn foreign_faults_are_ignored_and_unroutable_targets_counted() {
        let mut kv = deploy();
        let handled = kv
            .apply_fault(
                &FaultKind::ServicePanic {
                    service: "other".into(),
                },
                0,
            )
            .unwrap();
        assert_eq!(handled, FaultApplication::Ignored);
        let handled = kv
            .apply_fault(&FaultKind::MapTaskFail { task: 0, times: 1 }, 0)
            .unwrap();
        assert_eq!(handled, FaultApplication::Ignored);
        // Unknown shard: a counted no-op, not an error or a panic.
        let unroutable = kv
            .apply_fault(&FaultKind::ReplicaKill { shard: 9, slot: 0 }, 0)
            .unwrap();
        assert_eq!(unroutable, FaultApplication::Unroutable);
        let unroutable = kv
            .apply_fault(&FaultKind::ReplicaStall { shard: 0, slot: 7 }, 0)
            .unwrap();
        assert_eq!(unroutable, FaultApplication::Unroutable);
        let unroutable = kv
            .apply_fault(
                &FaultKind::NetworkPartition {
                    group: 9,
                    heal_after_ms: 10,
                },
                0,
            )
            .unwrap();
        assert_eq!(unroutable, FaultApplication::Unroutable);
        // A store refusal needs a sealed tier on an existing shard: neither
        // a missing shard nor this untiered group can arm one.
        for shard in [9, 0] {
            let unroutable = kv
                .apply_fault(
                    &FaultKind::StoreRefusesWrite {
                        shard,
                        slot: 0,
                        after_writes: 0,
                    },
                    0,
                )
                .unwrap();
            assert_eq!(unroutable, FaultApplication::Unroutable, "shard {shard}");
        }
        kv.put(b"after", b"refusals").unwrap();
        assert_eq!(kv.stats().replicas_killed, 0, "nothing was actually hit");
    }

    #[test]
    fn stall_fault_fences_the_replica_until_failover_replaces_it() {
        let mut kv = deploy();
        kv.put(b"acked", b"survives").unwrap();
        let handled = kv
            .apply_fault(&FaultKind::ReplicaStall { shard: 0, slot: 2 }, 0)
            .unwrap();
        assert_eq!(handled, FaultApplication::Applied);
        assert_eq!(kv.stats().replicas_stalled, 1);
        // Stalling the same slot again is unroutable: it already left quorum.
        let again = kv
            .apply_fault(&FaultKind::ReplicaStall { shard: 0, slot: 2 }, 0)
            .unwrap();
        assert_eq!(again, FaultApplication::Unroutable);
        // Kill + failover retires the stalled replica and restores health.
        kv.kill_replica(ShardId(0), 2);
        kv.fail_over().unwrap();
        assert_eq!(kv.stats().replicas_stalled, 0);
        assert_eq!(kv.get(b"acked").unwrap(), Some(b"survives".to_vec()));
    }

    #[test]
    fn partition_fault_heals_on_the_virtual_clock() {
        let mut kv = deploy();
        // Find a key owned by shard 0 so the partition is observable.
        let key = (0..64u32)
            .map(|i| format!("probe/{i:03}").into_bytes())
            .find(|k| kv.shard_of(k) == ShardId(0))
            .expect("some probe key routes to shard 0");
        kv.put(&key, b"before").unwrap();
        let epoch_before = kv.stats().epochs[0];
        let handled = kv
            .apply_fault(
                &FaultKind::NetworkPartition {
                    group: 0,
                    heal_after_ms: 500,
                },
                1_000,
            )
            .unwrap();
        assert_eq!(handled, FaultApplication::Applied);
        let err = kv.put(&key, b"during").unwrap_err();
        assert!(matches!(err, ReplicaError::Partitioned { shard } if shard == ShardId(0)));
        // Not yet due: still partitioned.
        assert_eq!(kv.advance_to(1_400), 0);
        assert!(kv.put(&key, b"during").is_err());
        // Deadline passed: partition heals, data intact, epoch untouched.
        assert_eq!(kv.advance_to(1_500), 1);
        assert_eq!(kv.get(&key).unwrap(), Some(b"before".to_vec()));
        assert_eq!(kv.stats().epochs[0], epoch_before);
    }

    #[test]
    fn scaling_bumps_epochs_and_keeps_majority_quorums() {
        let mut kv = deploy();
        kv.put(b"acked", b"survives").unwrap();
        let admitted = kv.scale_up(ShardId(0)).unwrap();
        assert_eq!(admitted.shard, ShardId(0));
        let group = kv.group(ShardId(0)).unwrap();
        assert_eq!(group.replication_factor(), 4);
        assert_eq!(group.write_quorum(), 3, "majority of 4");
        let drained = kv.scale_down(ShardId(0)).unwrap();
        assert!(drained.is_some());
        let group = kv.group(ShardId(0)).unwrap();
        assert_eq!(group.replication_factor(), 3);
        assert_eq!(group.write_quorum(), 2, "majority of 3");
        let stats = kv.stats();
        assert_eq!(stats.scale_ups, 1);
        assert_eq!(stats.scale_downs, 1);
        assert_eq!(stats.epochs[0], 3, "two membership changes");
        assert_eq!(kv.get(b"acked").unwrap(), Some(b"survives".to_vec()));
        assert!(matches!(
            kv.scale_up(ShardId(9)),
            Err(ReplicaError::UnknownShard(ShardId(9)))
        ));
    }

    #[test]
    fn stats_report_the_configured_factor_after_scaling_shard_zero() {
        let mut kv = deploy();
        kv.scale_up(ShardId(0)).unwrap();
        let stats = kv.stats();
        assert_eq!(
            stats.replication_factor, 3,
            "configured, not shard 0's size"
        );
        assert_eq!(stats.total_replicas, 7, "current slots: 4 + 3");
    }
}
