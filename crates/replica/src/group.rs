//! One shard group: `n` enclave replicas, quorum writes/reads, epoch
//! discipline, and snapshot-streaming failover.
//!
//! Every replica is its own enclave with its own [`MemorySim`], so a group's
//! working set pages independently of its siblings — the sharding story of
//! Göttel et al.'s memory-protection trade-off study: keep each working set
//! under the EPC knee and the paging cliff never fires.
//!
//! ## Quorum rules
//!
//! A write goes to **every** live replica and is acknowledged only when at
//! least [`WriteQuorum`](crate::cluster::WriteQuorum) replicas are live to
//! take it; with `w > n/2` this means every acknowledged write is on a
//! majority, so it survives any minority of replica crashes. A read
//! requires `n - w + 1` live replicas (the read quorum overlapping every
//! write quorum) and returns the freshest copy.
//!
//! ## Epochs and rollback protection
//!
//! The group's membership epoch and snapshot version both live in the
//! trusted [`CounterService`]. The epoch bumps on every failover; a
//! replica holding a stale epoch refuses writes
//! ([`ReplicaError::StaleEpoch`]). Snapshots seal the store under the
//! group key and record their version in the counter, so an untrusted
//! host serving an *old* snapshot during failover is caught by
//! [`SecureKv::restore`]'s freshness check.

use crate::cluster::ReplicaConfig;
use crate::provision::ProvisioningService;
use crate::{ReplicaError, ReplicaId, ShardId};
use securecloud_faults::FaultInjector;
use securecloud_kvstore::{
    CounterService, IncrementalSnapshot, KvError, SecureKv, Snapshot, StorageConfig, StoreKeys,
};
use securecloud_sgx::costs::{CostModel, MemoryGeometry};
use securecloud_sgx::enclave::{Enclave, EnclaveConfig, Platform};
use securecloud_sgx::mem::MemorySim;
use securecloud_telemetry::{Counter, Gauge, Histogram, Telemetry, TraceContext};
use std::sync::Arc;

/// What failover streams to a replacement over the trusted channel.
///
/// In-memory groups stream the whole sealed store. Tiered groups stream
/// only the sealed manifest and WAL tail ([`IncrementalSnapshot`]): the
/// sealed segments are immutable and self-authenticating against the
/// manifest's integrity roots, so a replacement can fetch them from any
/// untrusted mirror — the trusted stream shrinks from O(data) to
/// O(metadata + recent writes).
#[derive(Debug, Clone)]
pub enum SnapshotStream {
    /// A whole-store sealed snapshot (in-memory groups).
    Whole(Snapshot),
    /// Sealed manifest + WAL tail; segments travel out-of-band (tiered
    /// groups).
    Incremental(IncrementalSnapshot),
}

impl SnapshotStream {
    /// Store version the stream captures.
    #[must_use]
    pub fn version(&self) -> u64 {
        match self {
            SnapshotStream::Whole(snapshot) => snapshot.version,
            SnapshotStream::Incremental(snapshot) => snapshot.version,
        }
    }

    /// Bytes that must travel through the trusted failover channel.
    #[must_use]
    pub fn trusted_bytes(&self) -> u64 {
        match self {
            SnapshotStream::Whole(snapshot) => snapshot.sealed.len() as u64,
            SnapshotStream::Incremental(snapshot) => snapshot.trusted_bytes(),
        }
    }
}

/// One enclave-resident replica of a shard's keyspace.
#[derive(Debug)]
struct Replica {
    id: ReplicaId,
    enclave: Enclave,
    kv: SecureKv,
    group_key: [u8; 16],
    epoch: u64,
    /// A stalled replica is resident but degraded: it takes no writes,
    /// serves no reads, and does not count toward any quorum. Its version
    /// falls behind (visible on the replication-lag gauge) until a
    /// controller kills and replaces it. There is deliberately no
    /// "unstall" path: epochs move on without it, so a silently
    /// resurrected stalled replica is fenced by the stale-epoch check.
    stalled: bool,
}

impl Replica {
    /// Runs one store operation inside the replica's enclave; an enclave
    /// failure surfaces as [`ReplicaError::Sgx`], a store failure (a sealed
    /// block the host corrupted, a stale snapshot) as [`ReplicaError::Store`].
    fn call<R>(
        &mut self,
        op: impl FnOnce(&mut SecureKv, &mut MemorySim) -> Result<R, KvError>,
    ) -> Result<R, ReplicaError> {
        let (replica, kv) = (self.id, &mut self.kv);
        self.enclave
            .ecall(|mem| op(kv, mem))
            .map_err(|source| ReplicaError::Sgx { replica, source })?
            .map_err(|source| ReplicaError::Store { replica, source })
    }
}

/// Per-group metric handles; standalone when no telemetry is attached.
#[derive(Debug)]
struct GroupMetrics {
    put_cycles: Histogram,
    get_cycles: Histogram,
    replication_lag: Gauge,
    snapshot_stream_bytes: Counter,
}

impl GroupMetrics {
    fn new(shard: ShardId, telemetry: Option<&Arc<Telemetry>>) -> Self {
        match telemetry {
            Some(t) => {
                let label = shard.to_string();
                let labels: &[(&str, &str)] = &[("shard", label.as_str())];
                GroupMetrics {
                    put_cycles: t.histogram_with("securecloud_replica_put_cycles", labels),
                    get_cycles: t.histogram_with("securecloud_replica_get_cycles", labels),
                    replication_lag: t.gauge_with("securecloud_replica_replication_lag", labels),
                    snapshot_stream_bytes: t
                        .counter_with("securecloud_replica_snapshot_stream_bytes_total", labels),
                }
            }
            None => GroupMetrics {
                put_cycles: Histogram::new(),
                get_cycles: Histogram::new(),
                replication_lag: Gauge::new(),
                snapshot_stream_bytes: Counter::new(),
            },
        }
    }
}

/// A quorum-replicated shard group over enclave-resident stores.
#[derive(Debug)]
pub struct ShardGroup {
    shard: ShardId,
    slots: Vec<Option<Replica>>,
    write_quorum: usize,
    counters: CounterService,
    epoch_counter: String,
    version_counter: String,
    platform: Platform,
    code: Vec<u8>,
    geometry: MemoryGeometry,
    costs: CostModel,
    /// Sealed-tier configuration; `Some` makes every replica tiered.
    storage: Option<StorageConfig>,
    /// Counter namespace the replicas' storage engines share — one floor
    /// per shard, since replicas apply identical acknowledged histories.
    storage_counter_base: String,
    /// Cumulative bytes streamed over the trusted failover channel.
    streamed_snapshot_bytes: u64,
    /// Cycles spent by replicas that have since been killed, so
    /// [`ShardGroup::cycles`] stays monotone across failovers.
    retired_cycles: u64,
    /// EPC faults charged by replicas that have since been killed.
    retired_epc_faults: u64,
    incarnations: u32,
    /// While `true` the group is cut off from its clients: quorum
    /// operations are refused outright, so writes fail *unacknowledged*
    /// and nothing acknowledged can be lost to the partition.
    partitioned: bool,
    telemetry: Option<Arc<Telemetry>>,
    injector: Option<Arc<FaultInjector>>,
    metrics: GroupMetrics,
}

impl ShardGroup {
    /// Builds the group: launches `replication_factor` enclaves and admits
    /// each through the provisioning service (attestation-gated).
    ///
    /// Most deployments go through
    /// [`ReplicatedKv::deploy`](crate::cluster::ReplicatedKv::deploy); a
    /// bare group is useful for tests and single-shard setups.
    ///
    /// # Errors
    ///
    /// Admission errors ([`ReplicaError::AdmissionDenied`] /
    /// [`ReplicaError::Channel`]) or enclave-launch failures
    /// ([`ReplicaError::Sgx`]).
    pub fn new(
        shard: ShardId,
        config: &ReplicaConfig,
        platform: &Platform,
        counters: &CounterService,
        provisioning: &mut ProvisioningService,
        telemetry: Option<&Arc<Telemetry>>,
        injector: Option<&Arc<FaultInjector>>,
    ) -> Result<Self, ReplicaError> {
        let n = config.replication.0 as usize;
        let mut group = ShardGroup {
            shard,
            slots: Vec::new(),
            write_quorum: config.write_quorum.0 as usize,
            counters: counters.clone(),
            epoch_counter: format!("replica/{shard}/epoch"),
            version_counter: format!("replica/{shard}/version"),
            platform: platform.clone(),
            code: config.code.clone(),
            geometry: config.geometry,
            costs: config.costs.clone(),
            storage: config.storage.clone(),
            storage_counter_base: format!("replica/{shard}/storage"),
            streamed_snapshot_bytes: 0,
            retired_cycles: 0,
            retired_epc_faults: 0,
            incarnations: 0,
            partitioned: false,
            telemetry: telemetry.cloned(),
            injector: injector.cloned(),
            metrics: GroupMetrics::new(shard, telemetry),
        };
        // Epoch 1: the founding membership.
        group.counters.increment(&group.epoch_counter);
        for slot in 0..n {
            let replica = group.launch_admitted(slot as u32, provisioning)?;
            group.slots.push(Some(replica));
        }
        Ok(group)
    }

    /// The shard this group serves.
    #[must_use]
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// The group's current trusted epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.counters.read(&self.epoch_counter)
    }

    /// Configured replication factor.
    #[must_use]
    pub fn replication_factor(&self) -> usize {
        self.slots.len()
    }

    /// Live replicas in the group (resident, including stalled ones).
    #[must_use]
    pub fn live(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Replicas that count toward quorums: live and not stalled.
    #[must_use]
    pub fn responsive(&self) -> usize {
        self.slots.iter().flatten().filter(|r| !r.stalled).count()
    }

    /// Ids of every resident replica in slot order, stalled ones included
    /// (they still occupy a slot and placement capacity until killed).
    #[must_use]
    pub fn live_replica_ids(&self) -> Vec<ReplicaId> {
        self.slots.iter().flatten().map(|r| r.id).collect()
    }

    /// Ids of the currently stalled replicas, in slot order.
    #[must_use]
    pub fn stalled_replicas(&self) -> Vec<ReplicaId> {
        self.slots
            .iter()
            .flatten()
            .filter(|r| r.stalled)
            .map(|r| r.id)
            .collect()
    }

    /// The current write quorum (maintained as the smallest majority of
    /// the group size across scale-up/scale-down).
    #[must_use]
    pub fn write_quorum(&self) -> usize {
        self.write_quorum
    }

    /// Whether the group is currently partitioned from its clients.
    #[must_use]
    pub fn is_partitioned(&self) -> bool {
        self.partitioned
    }

    /// Whether any slot is vacant (a replica was killed and not replaced).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.live() < self.slots.len()
    }

    /// Store versions of the live replicas, by slot order.
    #[must_use]
    pub fn replica_versions(&self) -> Vec<u64> {
        self.slots
            .iter()
            .flatten()
            .map(|r| r.kv.version())
            .collect()
    }

    /// Total simulated cycles charged by this group's replicas, including
    /// replicas retired by failover (monotone).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.retired_cycles
            + self
                .slots
                .iter()
                .flatten()
                .map(|r| r.enclave.memory_view().cycles())
                .sum::<u64>()
    }

    /// Total EPC faults charged by this group's replicas, including
    /// replicas retired by failover (monotone). The paging indicator for
    /// the sharding sweep: ~0 once each shard's slice fits the EPC.
    #[must_use]
    pub fn epc_faults(&self) -> u64 {
        self.retired_epc_faults
            + self
                .slots
                .iter()
                .flatten()
                .map(|r| r.enclave.memory_view().stats().epc_faults)
                .sum::<u64>()
    }

    /// Quorum write: every live replica takes the write; acknowledged only
    /// if at least the write quorum is live.
    ///
    /// # Errors
    ///
    /// * [`ReplicaError::QuorumLost`] — fewer live replicas than the write
    ///   quorum; the write is not applied anywhere.
    /// * [`ReplicaError::StaleEpoch`] — a replica missed a membership
    ///   change (defensive; the group keeps epochs in lockstep).
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), ReplicaError> {
        self.put_traced(key, value, TraceContext::none())
    }

    /// [`ShardGroup::put`] under a causal parent: the quorum write becomes
    /// a `quorum_write` span with one `replica_put` child span per live
    /// participating replica, so a trace shows exactly which replicas the
    /// write fanned out to. With an absent context (or no telemetry) this
    /// is byte-identical to the untraced path.
    ///
    /// # Errors
    ///
    /// Same as [`ShardGroup::put`].
    pub fn put_traced(
        &mut self,
        key: &[u8],
        value: &[u8],
        parent: TraceContext,
    ) -> Result<(), ReplicaError> {
        let tracer = match &self.telemetry {
            Some(t) if !parent.is_none() => Some(Arc::clone(t)),
            None | Some(_) => None,
        };
        let quorum_ctx = tracer
            .as_ref()
            .map_or_else(TraceContext::none, |t| t.mint_child(parent));
        let _span = tracer.as_ref().map(|t| {
            t.span_ctx(
                "replica",
                "quorum_write",
                vec![("shard", self.shard.to_string())],
                quorum_ctx,
            )
        });
        if self.partitioned {
            return Err(ReplicaError::Partitioned { shard: self.shard });
        }
        let responsive = self.responsive();
        if responsive < self.write_quorum {
            return Err(ReplicaError::QuorumLost {
                shard: self.shard,
                needed: self.write_quorum,
                live: responsive,
            });
        }
        let epoch = self.epoch();
        let before = self.cycles();
        for replica in self.slots.iter_mut().flatten().filter(|r| !r.stalled) {
            if replica.epoch != epoch {
                return Err(ReplicaError::StaleEpoch {
                    replica: replica.id,
                    have: replica.epoch,
                    want: epoch,
                });
            }
            let _replica_span = tracer.as_ref().map(|t| {
                t.span_ctx(
                    "replica",
                    "replica_put",
                    vec![("replica", replica.id.to_string())],
                    t.mint_child(quorum_ctx),
                )
            });
            replica.call(|kv, mem| kv.try_put(mem, key, value))?;
        }
        self.metrics.put_cycles.observe(self.cycles() - before);
        self.update_replication_lag();
        Ok(())
    }

    /// Quorum read: requires the read quorum (`n - w + 1`) live so it
    /// overlaps every write quorum, and returns the freshest copy.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::QuorumLost`] — fewer live replicas than the read
    /// quorum.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, ReplicaError> {
        if self.partitioned {
            return Err(ReplicaError::Partitioned { shard: self.shard });
        }
        let read_quorum = self.slots.len() - self.write_quorum + 1;
        let responsive = self.responsive();
        if responsive < read_quorum {
            return Err(ReplicaError::QuorumLost {
                shard: self.shard,
                needed: read_quorum,
                live: responsive,
            });
        }
        let before = self.cycles();
        let mut freshest: Option<(u64, Option<Vec<u8>>)> = None;
        for replica in self
            .slots
            .iter_mut()
            .flatten()
            .filter(|r| !r.stalled)
            .take(read_quorum)
        {
            let version = replica.kv.version();
            if freshest.as_ref().is_none_or(|(v, _)| version > *v) {
                let value =
                    replica.call(|kv, mem| Ok(kv.try_get_ref(mem, key)?.map(<[u8]>::to_vec)))?;
                freshest = Some((version, value));
            } else {
                // This replica cannot win the freshness race; read it for
                // the quorum (same simulated cost) without copying its value.
                replica.call(|kv, mem| kv.try_get_ref(mem, key).map(drop))?;
            }
        }
        self.metrics.get_cycles.observe(self.cycles() - before);
        Ok(freshest.expect("read quorum is at least one replica").1)
    }

    /// Kills the replica in `slot`: its enclave aborts and the slot goes
    /// vacant. Returns the killed replica's id, or `None` if the slot is
    /// already vacant or out of range.
    pub fn kill(&mut self, slot: usize, reason: &str) -> Option<ReplicaId> {
        let mut replica = self.slots.get_mut(slot)?.take()?;
        replica.enclave.abort(reason);
        self.retired_cycles += replica.enclave.memory_view().cycles();
        self.retired_epc_faults += replica.enclave.memory_view().stats().epc_faults;
        self.record(format!("replica {} killed: {reason}", replica.id));
        if let Some(t) = &self.telemetry {
            t.event(
                "replica",
                "replica_killed",
                vec![("replica", replica.id.to_string())],
            );
        }
        self.update_replication_lag();
        Some(replica.id)
    }

    /// Stalls the replica in `slot`: it stays resident but stops taking
    /// writes, serving reads, or counting toward quorums. Returns the
    /// stalled replica's id, or `None` if the slot is vacant, out of
    /// range, or already stalled.
    pub fn stall(&mut self, slot: usize) -> Option<ReplicaId> {
        let replica = self.slots.get_mut(slot)?.as_mut()?;
        if replica.stalled {
            return None;
        }
        replica.stalled = true;
        let id = replica.id;
        self.record(format!(
            "replica {id} stalled: degraded, fenced out of quorums"
        ));
        if let Some(t) = &self.telemetry {
            t.event(
                "replica",
                "replica_stalled",
                vec![("replica", id.to_string())],
            );
        }
        Some(id)
    }

    /// Partitions the group from its clients: [`ShardGroup::put`] and
    /// [`ShardGroup::get`] refuse with [`ReplicaError::Partitioned`] until
    /// [`ShardGroup::heal_partition`]. Returns `false` if already
    /// partitioned. The epoch is untouched — membership did not change,
    /// and epochs only ever move through the trusted counter.
    pub fn partition(&mut self) -> bool {
        if self.partitioned {
            return false;
        }
        self.partitioned = true;
        self.record(format!("shard {} partitioned from clients", self.shard));
        if let Some(t) = &self.telemetry {
            t.event(
                "replica",
                "partitioned",
                vec![("shard", self.shard.to_string())],
            );
        }
        true
    }

    /// Heals a partition; returns `false` if the group was not partitioned.
    pub fn heal_partition(&mut self) -> bool {
        if !self.partitioned {
            return false;
        }
        self.partitioned = false;
        self.record(format!("shard {} partition healed", self.shard));
        if let Some(t) = &self.telemetry {
            t.event(
                "replica",
                "partition_healed",
                vec![("shard", self.shard.to_string())],
            );
        }
        true
    }

    /// Scale-up: appends one slot, bumps the trusted epoch (a membership
    /// change), and admits a re-attested newcomer caught up from a sealed
    /// snapshot of the freshest survivor. The write quorum is re-derived
    /// as the smallest majority of the new size, so `w > n/2` holds at
    /// every size.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::NoSurvivors`] when no replica can seal a snapshot,
    /// or admission/restore errors from [`ShardGroup::adopt_replacement`]
    /// (the new slot then stays vacant for a later failover to repair).
    pub fn expand(
        &mut self,
        provisioning: &mut ProvisioningService,
    ) -> Result<ReplicaId, ReplicaError> {
        // Membership change: bump the trusted epoch before the newcomer
        // joins, exactly as failover does.
        let epoch = self.counters.increment(&self.epoch_counter);
        let snapshot = self.seal_snapshot()?;
        let slot = self.slots.len();
        self.slots.push(None);
        let id = self.adopt_replacement(slot, provisioning, &snapshot)?;
        self.write_quorum = self.slots.len() / 2 + 1;
        for replica in self.slots.iter_mut().flatten().filter(|r| !r.stalled) {
            replica.epoch = epoch;
        }
        self.record(format!(
            "shard {} scale-up epoch {epoch}: replica {id} admitted, n={} w={}",
            self.shard,
            self.slots.len(),
            self.write_quorum
        ));
        if let Some(t) = &self.telemetry {
            t.event(
                "replica",
                "scale_up",
                vec![
                    ("shard", self.shard.to_string()),
                    ("epoch", epoch.to_string()),
                    ("replicas", self.slots.len().to_string()),
                ],
            );
        }
        self.update_replication_lag();
        Ok(id)
    }

    /// Scale-down with drain: removes the highest slot. Because every
    /// acknowledged write was applied to *every* responsive replica, each
    /// remaining responsive replica already holds the full acknowledged
    /// history — the "drain" needs no data movement, only the refusal
    /// check below. Bumps the trusted epoch (membership change), so the
    /// drained replica is fenced out even if the host resurrects it, and
    /// re-derives the write quorum as the smallest majority of the new
    /// size. Returns the drained replica's id (`None` if the slot was
    /// already vacant).
    ///
    /// # Errors
    ///
    /// [`ReplicaError::DrainRefused`] when removal would leave fewer
    /// responsive replicas than the post-drain majority quorum (the group
    /// keeps serving instead of scaling into unavailability).
    pub fn decommission_last(&mut self) -> Result<Option<ReplicaId>, ReplicaError> {
        let new_n = self.slots.len().saturating_sub(1);
        let new_w = new_n / 2 + 1;
        let remaining = self.slots[..new_n]
            .iter()
            .flatten()
            .filter(|r| !r.stalled)
            .count();
        if new_n == 0 || remaining < new_w {
            return Err(ReplicaError::DrainRefused {
                shard: self.shard,
                live: remaining,
                needed: new_w,
            });
        }
        let removed = self
            .slots
            .pop()
            .expect("decommission checked the group is non-empty");
        // Membership change: the epoch fences the drained replica out.
        let epoch = self.counters.increment(&self.epoch_counter);
        self.write_quorum = new_w;
        let id = removed.map(|mut replica| {
            replica.enclave.abort("decommissioned (drained)");
            self.retired_cycles += replica.enclave.memory_view().cycles();
            self.retired_epc_faults += replica.enclave.memory_view().stats().epc_faults;
            replica.id
        });
        for replica in self.slots.iter_mut().flatten().filter(|r| !r.stalled) {
            replica.epoch = epoch;
        }
        match id {
            Some(id) => self.record(format!(
                "shard {} scale-down epoch {epoch}: replica {id} drained and \
                 decommissioned, n={} w={}",
                self.shard,
                self.slots.len(),
                self.write_quorum
            )),
            None => self.record(format!(
                "shard {} scale-down epoch {epoch}: vacant slot retired, n={} w={}",
                self.shard,
                self.slots.len(),
                self.write_quorum
            )),
        }
        if let Some(t) = &self.telemetry {
            t.event(
                "replica",
                "scale_down",
                vec![
                    ("shard", self.shard.to_string()),
                    ("epoch", epoch.to_string()),
                    ("replicas", self.slots.len().to_string()),
                ],
            );
        }
        self.update_replication_lag();
        Ok(id)
    }

    /// Repairs every vacant slot: bumps the trusted epoch, streams a
    /// sealed snapshot from a surviving replica, and admits a re-attested
    /// replacement per vacancy. Returns the number of replicas replaced.
    ///
    /// # Errors
    ///
    /// * [`ReplicaError::NoSurvivors`] — every replica is gone; only
    ///   sealed state (outside this group) could recover the shard.
    /// * Admission/restore errors from [`ShardGroup::adopt_replacement`].
    pub fn failover(
        &mut self,
        provisioning: &mut ProvisioningService,
    ) -> Result<u32, ReplicaError> {
        let vacant: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect();
        if vacant.is_empty() {
            return Ok(0);
        }
        // Membership change: bump the trusted epoch before anyone rejoins.
        let epoch = self.counters.increment(&self.epoch_counter);
        let snapshot = self.seal_snapshot()?;
        let kind = match &snapshot {
            SnapshotStream::Whole(_) => "whole snapshot",
            SnapshotStream::Incremental(_) => "incremental manifest",
        };
        self.record(format!(
            "shard {} failover epoch {epoch}: {kind} v{} ({} trusted bytes) streamed to {} replacement(s)",
            self.shard,
            snapshot.version(),
            snapshot.trusted_bytes(),
            vacant.len()
        ));
        let mut replaced = 0;
        for slot in vacant {
            self.adopt_replacement(slot, provisioning, &snapshot)?;
            replaced += 1;
        }
        // Stalled replicas are deliberately left on the old epoch: they
        // take no writes anyway, and the stale-epoch check fences them if
        // anything ever tries to resurrect one without re-admission.
        for replica in self.slots.iter_mut().flatten().filter(|r| !r.stalled) {
            replica.epoch = epoch;
        }
        if let Some(t) = &self.telemetry {
            t.event(
                "replica",
                "failover",
                vec![
                    ("shard", self.shard.to_string()),
                    ("epoch", epoch.to_string()),
                    ("replaced", replaced.to_string()),
                ],
            );
        }
        self.update_replication_lag();
        Ok(replaced)
    }

    /// The failover install step, split out so the stream can come from
    /// the *untrusted host*: launches and admits (re-attests) a fresh
    /// enclave for `slot`, then restores the stream inside it with the
    /// trusted-counter freshness check. A stale-but-validly-sealed
    /// whole snapshot fails with [`KvError::RollbackDetected`], a stale
    /// incremental manifest with
    /// [`StorageError::Rollback`](securecloud_kvstore::StorageError::Rollback)
    /// — both wrapped in [`ReplicaError::Store`] — and the slot stays
    /// vacant.
    ///
    /// # Errors
    ///
    /// Admission ([`ReplicaError::AdmissionDenied`] /
    /// [`ReplicaError::Channel`]), enclave ([`ReplicaError::Sgx`]), or
    /// restore ([`ReplicaError::Store`]) failures.
    ///
    /// [`KvError::RollbackDetected`]: securecloud_kvstore::KvError::RollbackDetected
    pub fn adopt_replacement(
        &mut self,
        slot: usize,
        provisioning: &mut ProvisioningService,
        stream: &SnapshotStream,
    ) -> Result<ReplicaId, ReplicaError> {
        let mut replica = self.launch_admitted(slot as u32, provisioning)?;
        let counters = self.counters.clone();
        let key = replica.group_key;
        let id = replica.id;
        let kv = match stream {
            SnapshotStream::Whole(snapshot) => {
                let counter_name = self.version_counter.clone();
                replica.call(|_, mem| {
                    SecureKv::restore(mem, &key, &snapshot.sealed, &counters, &counter_name)
                })
            }
            SnapshotStream::Incremental(snapshot) => {
                let config = self.storage.clone().ok_or_else(|| {
                    ReplicaError::InvalidConfig(format!(
                        "shard {}: incremental stream offered to a group without \
                         a storage tier",
                        self.shard
                    ))
                })?;
                let base = self.storage_counter_base.clone();
                let snapshot = snapshot.clone();
                replica.call(move |_, mem| {
                    SecureKv::restore_incremental(
                        mem,
                        config,
                        StoreKeys::new(key),
                        counters,
                        base,
                        snapshot,
                    )
                })
            }
        }?;
        replica.kv = kv;
        self.record(format!(
            "replica {id} re-attested and admitted at epoch {}",
            replica.epoch
        ));
        let (shard, slots) = (self.shard, self.slots.len());
        let entry = self.slots.get_mut(slot).ok_or_else(|| {
            ReplicaError::InvalidConfig(format!(
                "shard {shard}: replacement slot {slot} out of range ({slots} slots)"
            ))
        })?;
        *entry = Some(replica);
        let bytes = stream.trusted_bytes();
        self.streamed_snapshot_bytes += bytes;
        self.metrics.snapshot_stream_bytes.add(bytes);
        Ok(id)
    }

    /// Seals a failover stream of the shard from the *freshest* surviving
    /// replica (highest store version, responsive preferred on ties): the
    /// artefact failover hands to replacements, also useful as an off-group
    /// backup. Every responsive replica holds all acknowledged writes, so
    /// the max-version survivor always does — a stalled replica can only be
    /// behind, never ahead, and is never chosen over a fresh one. Tiered
    /// replicas export an incremental manifest; in-memory replicas seal the
    /// whole store and record the captured version in the trusted counter,
    /// fencing any older copy the host may keep around.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::NoSurvivors`] when no replica is live, or
    /// [`ReplicaError::Sgx`] when the survivor's enclave call fails.
    pub fn seal_snapshot(&mut self) -> Result<SnapshotStream, ReplicaError> {
        let counters = self.counters.clone();
        let counter_name = self.version_counter.clone();
        let survivor = self
            .slots
            .iter_mut()
            .flatten()
            .max_by_key(|r| (r.kv.version(), !r.stalled))
            .ok_or(ReplicaError::NoSurvivors { shard: self.shard })?;
        let key = survivor.group_key;
        survivor.call(|kv, _mem| {
            Ok(if kv.is_tiered() {
                SnapshotStream::Incremental(kv.incremental_snapshot())
            } else {
                SnapshotStream::Whole(kv.snapshot(&key, &counters, &counter_name))
            })
        })
    }

    /// Cumulative bytes this group has pushed through the *trusted*
    /// failover channel. Tiered groups stream incremental manifests, so
    /// this grows by metadata + WAL tail per replacement instead of the
    /// whole store.
    #[must_use]
    pub fn streamed_snapshot_bytes(&self) -> u64 {
        self.streamed_snapshot_bytes
    }

    fn launch_admitted(
        &mut self,
        slot: u32,
        provisioning: &mut ProvisioningService,
    ) -> Result<Replica, ReplicaError> {
        let id = ReplicaId {
            shard: self.shard,
            slot,
        };
        let name = format!("{id}-i{}", self.incarnations);
        self.incarnations += 1;
        let mut enclave = self
            .platform
            .launch(EnclaveConfig {
                name,
                code: self.code.clone(),
                geometry: self.geometry,
                costs: self.costs.clone(),
                debug: false,
            })
            .map_err(|source| ReplicaError::Sgx {
                replica: id,
                source,
            })?;
        if let Some(t) = &self.telemetry {
            enclave.set_telemetry(t);
        }
        let admission = provisioning.admit(self.shard, &enclave, self.epoch())?;
        // Tiered groups derive each replica's storage keys from the group
        // key, and share one counter namespace: replicas apply identical
        // acknowledged histories, and the shared segment-id counter keeps
        // every sealed segment's nonce domain unique across the group.
        let kv = match &self.storage {
            Some(config) => SecureKv::tiered(
                config.clone(),
                StoreKeys::new(admission.group_key),
                self.counters.clone(),
                self.storage_counter_base.clone(),
            ),
            None => SecureKv::new(),
        };
        Ok(Replica {
            id,
            enclave,
            kv,
            group_key: admission.group_key,
            epoch: admission.epoch,
            stalled: false,
        })
    }

    /// Flips one seeded-random bit in one sealed block on `slot`'s host
    /// disk (the [`FaultKind::StorageCorruptBlock`] payload). Returns the
    /// `(segment, block)` hit, or `None` when the slot is vacant, the
    /// group has no storage tier, or the replica holds no sealed blocks
    /// yet.
    ///
    /// [`FaultKind::StorageCorruptBlock`]: securecloud_faults::FaultKind::StorageCorruptBlock
    pub fn corrupt_storage_block(&mut self, slot: usize) -> Option<(u64, u32)> {
        let pick = self
            .injector
            .as_ref()
            .map_or(0x9E37_79B9_7F4A_7C15, |i| i.draw_below(u64::MAX));
        let replica = self.slots.get_mut(slot)?.as_mut()?;
        let id = replica.id;
        let hit = replica.kv.storage_mut()?.corrupt_block(pick)?;
        self.record(format!(
            "replica {id} host storage corrupted: segment {} block {}",
            hit.0, hit.1
        ));
        if let Some(t) = &self.telemetry {
            t.event(
                "replica",
                "storage_corrupted",
                vec![("replica", id.to_string()), ("segment", hit.0.to_string())],
            );
        }
        Some(hit)
    }

    /// Integrity-scrubs `slot`'s sealed tier: every segment is re-verified
    /// against its Merkle root and failing segments are quarantined
    /// (dropped from the manifest so no read ever trusts them again).
    /// Returns the quarantined segment ids — empty for a vacant slot, an
    /// untiered group, or a clean disk.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Sgx`] when the enclave call fails, or
    /// [`ReplicaError::Store`] when re-committing the manifest fails.
    pub fn scrub_storage(&mut self, slot: usize) -> Result<Vec<u64>, ReplicaError> {
        let Some(replica) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return Ok(Vec::new());
        };
        let id = replica.id;
        let quarantined = replica.call(|kv, mem| match kv.storage_mut() {
            Some(engine) => engine.scrub(mem).map_err(KvError::Storage),
            None => Ok(Vec::new()),
        })?;
        if !quarantined.is_empty() {
            self.record(format!(
                "replica {id} scrub quarantined segment(s) {quarantined:?}"
            ));
            if let Some(t) = &self.telemetry {
                t.event(
                    "replica",
                    "storage_quarantined",
                    vec![
                        ("replica", id.to_string()),
                        ("segments", quarantined.len().to_string()),
                    ],
                );
            }
        }
        Ok(quarantined)
    }

    fn update_replication_lag(&self) {
        let versions = self.replica_versions();
        let lag = match (versions.iter().max(), versions.iter().min()) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        };
        self.metrics.replication_lag.set(lag as i64);
    }

    fn record(&self, line: String) {
        if let Some(injector) = &self.injector {
            injector.record(line);
        }
    }

    #[cfg(test)]
    fn force_epoch(&mut self, slot: usize, epoch: u64) {
        if let Some(replica) = self.slots.get_mut(slot).and_then(Option::as_mut) {
            replica.epoch = epoch;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ReplicaConfig, ReplicationFactor, WriteQuorum};
    use crate::provision::ProvisioningService;
    use securecloud_kvstore::KvError;
    use securecloud_sgx::enclave::Measurement;

    fn small_config() -> ReplicaConfig {
        ReplicaConfig {
            shards: 1,
            replication: ReplicationFactor(3),
            write_quorum: WriteQuorum(2),
            ..ReplicaConfig::default()
        }
    }

    fn group() -> (ShardGroup, ProvisioningService, CounterService) {
        let platform = Platform::new();
        let config = small_config();
        let mut provisioning =
            ProvisioningService::new(&platform, Measurement::of_code(&config.code));
        let counters = CounterService::new();
        let group = ShardGroup::new(
            ShardId(0),
            &config,
            &platform,
            &counters,
            &mut provisioning,
            None,
            None,
        )
        .unwrap();
        (group, provisioning, counters)
    }

    #[test]
    fn quorum_write_read_roundtrip() {
        let (mut g, _prov, _counters) = group();
        assert_eq!(g.live(), 3);
        assert_eq!(g.epoch(), 1);
        g.put(b"k", b"v1").unwrap();
        g.put(b"k", b"v2").unwrap();
        assert_eq!(g.get(b"k").unwrap(), Some(b"v2".to_vec()));
        assert_eq!(g.get(b"missing").unwrap(), None);
        // All replicas applied both writes: identical versions, zero lag.
        let versions = g.replica_versions();
        assert!(versions.windows(2).all(|w| w[0] == w[1]), "{versions:?}");
    }

    #[test]
    fn writes_survive_minority_crash_and_fail_past_quorum() {
        let (mut g, _prov, _counters) = group();
        g.put(b"acked", b"before crash").unwrap();
        assert!(g.kill(1, "test kill").is_some());
        assert!(g.kill(1, "double kill is a no-op").is_none());
        // 2 of 3 live: writes and reads still meet quorum.
        g.put(b"acked2", b"after crash").unwrap();
        assert_eq!(g.get(b"acked").unwrap(), Some(b"before crash".to_vec()));
        // Losing the majority loses the write quorum.
        g.kill(0, "second kill");
        let err = g.put(b"x", b"y").unwrap_err();
        assert!(
            matches!(
                err,
                ReplicaError::QuorumLost {
                    needed: 2,
                    live: 1,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn failover_readmits_and_catches_up() {
        let (mut g, mut prov, _counters) = group();
        for i in 0..10u32 {
            g.put(&i.to_be_bytes(), b"payload").unwrap();
        }
        g.kill(2, "chaos");
        g.put(b"while degraded", b"still acked").unwrap();
        assert!(g.is_degraded());
        let replaced = g.failover(&mut prov).unwrap();
        assert_eq!(replaced, 1);
        assert_eq!(g.live(), 3);
        assert_eq!(g.epoch(), 2, "failover bumps the trusted epoch");
        assert_eq!(prov.admitted(), 4, "replacement was re-attested");
        // The replacement holds every acknowledged write.
        assert_eq!(
            g.get(b"while degraded").unwrap(),
            Some(b"still acked".to_vec())
        );
        g.put(b"after failover", b"ok").unwrap();
        assert!(g.failover(&mut prov).unwrap() == 0, "nothing vacant");
    }

    #[test]
    fn stale_snapshot_during_failover_is_detected() {
        let (mut g, mut prov, _counters) = group();
        g.put(b"balance", b"100").unwrap();
        // The untrusted host keeps an old snapshot around...
        let stale = g.seal_snapshot().unwrap();
        g.put(b"balance", b"10").unwrap();
        // ...the group moves on (a fresh snapshot bumps the counter)...
        let _fresh = g.seal_snapshot().unwrap();
        g.kill(0, "chaos");
        g.counters.increment("replica/s0/epoch");
        // ...and serves the stale one during failover: detected.
        let err = g.adopt_replacement(0, &mut prov, &stale).unwrap_err();
        match err {
            ReplicaError::Store {
                replica,
                source: KvError::RollbackDetected { .. },
            } => assert_eq!(replica.slot, 0),
            other => panic!("expected rollback detection, got {other}"),
        }
        assert!(g.is_degraded(), "rejected replacement must not join");
    }

    #[test]
    fn stale_epoch_replica_refuses_writes() {
        let (mut g, _prov, _counters) = group();
        g.put(b"a", b"1").unwrap();
        g.force_epoch(1, 0);
        let err = g.put(b"b", b"2").unwrap_err();
        assert!(
            matches!(
                err,
                ReplicaError::StaleEpoch {
                    have: 0,
                    want: 1,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn stalled_replica_is_fenced_out_of_quorums() {
        let (mut g, _prov, _counters) = group();
        g.put(b"before", b"stall").unwrap();
        assert_eq!(g.stall(1).map(|id| id.slot), Some(1));
        assert!(g.stall(1).is_none(), "double stall is a no-op");
        assert_eq!(g.live(), 3, "stalled replica stays resident");
        assert_eq!(g.responsive(), 2, "but no longer counts toward quorum");
        // Writes still ack on the responsive majority and skip the
        // stalled replica, whose version falls behind.
        g.put(b"during", b"stall").unwrap();
        g.put(b"during2", b"stall").unwrap();
        let versions = g.replica_versions();
        let (max, min) = (
            versions.iter().max().unwrap(),
            versions.iter().min().unwrap(),
        );
        assert!(max > min, "stalled replica lags: {versions:?}");
        assert_eq!(g.get(b"during").unwrap(), Some(b"stall".to_vec()));
        // One more stall drops the group below the write quorum.
        g.stall(0);
        let err = g.put(b"x", b"y").unwrap_err();
        assert!(
            matches!(err, ReplicaError::QuorumLost { live: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn failover_snapshots_from_the_freshest_survivor_not_a_stalled_one() {
        let (mut g, mut prov, _counters) = group();
        g.put(b"k", b"old").unwrap();
        // Slot 0 (the would-be "first survivor") stalls and misses writes.
        g.stall(0);
        g.put(b"k", b"new").unwrap();
        // Crash a fresh replica; the replacement must catch up from the
        // other *fresh* one, not from the stale stalled slot 0.
        g.kill(2, "chaos");
        g.failover(&mut prov).unwrap();
        assert_eq!(g.get(b"k").unwrap(), Some(b"new".to_vec()));
    }

    #[test]
    fn partition_refuses_quorum_ops_until_healed() {
        let (mut g, _prov, _counters) = group();
        g.put(b"acked", b"pre-partition").unwrap();
        let epoch_before = g.epoch();
        assert!(g.partition());
        assert!(!g.partition(), "double partition is a no-op");
        assert!(g.is_partitioned());
        let put_err = g.put(b"lost?", b"never acked").unwrap_err();
        assert!(
            matches!(put_err, ReplicaError::Partitioned { .. }),
            "{put_err}"
        );
        let get_err = g.get(b"acked").unwrap_err();
        assert!(
            matches!(get_err, ReplicaError::Partitioned { .. }),
            "{get_err}"
        );
        assert!(g.heal_partition());
        assert!(!g.heal_partition(), "double heal is a no-op");
        assert_eq!(g.epoch(), epoch_before, "partitions never move the epoch");
        assert_eq!(g.get(b"acked").unwrap(), Some(b"pre-partition".to_vec()));
        assert_eq!(
            g.get(b"lost?").unwrap(),
            None,
            "refused write left no trace"
        );
    }

    #[test]
    fn expand_and_decommission_keep_majority_quorums_and_acked_writes() {
        let (mut g, mut prov, _counters) = group();
        g.put(b"acked", b"v1").unwrap();
        // Scale up 3 -> 4: quorum becomes the majority of 4.
        let id = g.expand(&mut prov).unwrap();
        assert_eq!(id.slot, 3);
        assert_eq!(g.replication_factor(), 4);
        assert_eq!(g.write_quorum(), 3);
        assert_eq!(g.epoch(), 2, "scale-up is a membership change");
        assert_eq!(g.get(b"acked").unwrap(), Some(b"v1".to_vec()));
        g.put(b"acked", b"v2").unwrap();
        // Scale down 4 -> 3: drained without data movement, still readable.
        let drained = g.decommission_last().unwrap();
        assert_eq!(drained.map(|id| id.slot), Some(3));
        assert_eq!(g.replication_factor(), 3);
        assert_eq!(g.write_quorum(), 2);
        assert_eq!(g.epoch(), 3);
        assert_eq!(g.get(b"acked").unwrap(), Some(b"v2".to_vec()));
        // A scale-down that would break the post-drain quorum is refused.
        g.kill(0, "chaos");
        let err = g.decommission_last().unwrap_err();
        assert!(
            matches!(
                err,
                ReplicaError::DrainRefused {
                    live: 1,
                    needed: 2,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(g.replication_factor(), 3, "refused drain changes nothing");
        assert_eq!(g.get(b"acked").unwrap(), Some(b"v2".to_vec()));
    }

    fn tiered_config() -> ReplicaConfig {
        ReplicaConfig {
            storage: Some(StorageConfig {
                block_bytes: 256,
                flush_bytes: 1024,
                cache_blocks: 2,
                compact_at_segments: 4,
            }),
            ..small_config()
        }
    }

    fn tiered_group() -> (ShardGroup, ProvisioningService, CounterService) {
        let platform = Platform::new();
        let config = tiered_config();
        let mut provisioning =
            ProvisioningService::new(&platform, Measurement::of_code(&config.code));
        let counters = CounterService::new();
        let group = ShardGroup::new(
            ShardId(0),
            &config,
            &platform,
            &counters,
            &mut provisioning,
            None,
            None,
        )
        .unwrap();
        (group, provisioning, counters)
    }

    #[test]
    fn tiered_failover_streams_incremental_manifest() {
        let (mut g, mut prov, _counters) = tiered_group();
        for i in 0..60u32 {
            g.put(format!("key{i:04}").as_bytes(), &[7u8; 50]).unwrap();
        }
        let data_bytes: u64 = 60 * (7 + 50);
        g.kill(1, "chaos");
        g.put(b"while degraded", b"still acked").unwrap();
        assert_eq!(g.failover(&mut prov).unwrap(), 1);
        // The replacement caught up through manifest + WAL tail only.
        let streamed = g.streamed_snapshot_bytes();
        assert!(streamed > 0, "trusted stream is accounted");
        assert!(
            streamed < data_bytes,
            "incremental stream ({streamed} B) must be smaller than the \
             store's data ({data_bytes} B)"
        );
        assert_eq!(
            g.get(b"while degraded").unwrap(),
            Some(b"still acked".to_vec())
        );
        assert_eq!(g.get(b"key0000").unwrap(), Some(vec![7u8; 50]));
        // The group keeps taking and serving writes after the failover.
        g.put(b"after", b"ok").unwrap();
        assert_eq!(g.get(b"after").unwrap(), Some(b"ok".to_vec()));
    }

    #[test]
    fn tiered_stale_incremental_stream_is_rejected() {
        let (mut g, mut prov, _counters) = tiered_group();
        for i in 0..40u32 {
            g.put(format!("key{i:04}").as_bytes(), &[1u8; 50]).unwrap();
        }
        let stale = g.seal_snapshot().unwrap();
        assert!(matches!(stale, SnapshotStream::Incremental(_)));
        g.put(b"newer", b"write").unwrap();
        let _fresh = g.seal_snapshot().unwrap();
        g.kill(0, "chaos");
        g.counters.increment("replica/s0/epoch");
        let err = g.adopt_replacement(0, &mut prov, &stale).unwrap_err();
        match err {
            ReplicaError::Store {
                source: KvError::Storage(securecloud_kvstore::StorageError::Rollback { .. }),
                ..
            } => {}
            other => panic!("expected storage rollback detection, got {other}"),
        }
        assert!(g.is_degraded(), "rejected replacement must not join");
    }

    #[test]
    fn tiered_corrupt_block_is_quarantined_and_failover_recovers() {
        let (mut g, mut prov, _counters) = tiered_group();
        for i in 0..60u32 {
            g.put(format!("key{i:04}").as_bytes(), &[3u8; 50]).unwrap();
        }
        // Flip a bit in slot 2's sealed host storage.
        let hit = g.corrupt_storage_block(2).expect("blocks exist to corrupt");
        // The scrub detects it via the integrity tree and quarantines.
        let quarantined = g.scrub_storage(2).unwrap();
        assert_eq!(quarantined, vec![hit.0], "the hit segment is quarantined");
        // A clean replica scrubs clean.
        assert!(g.scrub_storage(0).unwrap().is_empty());
        // Kill the damaged replica and fail over: every acknowledged write
        // is still served (survivors hold the full history).
        g.kill(2, "storage corruption");
        g.failover(&mut prov).unwrap();
        for i in 0..60u32 {
            assert_eq!(
                g.get(format!("key{i:04}").as_bytes()).unwrap(),
                Some(vec![3u8; 50]),
                "key{i:04}"
            );
        }
    }

    #[test]
    fn tiered_corrupt_block_fails_the_read_without_a_scrub() {
        let (mut g, _prov, _counters) = tiered_group();
        for i in 0..60u32 {
            g.put(format!("key{i:04}").as_bytes(), &[3u8; 50]).unwrap();
        }
        // Slot 0 votes in every quorum read; nobody scrubs before reading.
        g.corrupt_storage_block(0).expect("blocks exist to corrupt");
        let mut refused = 0;
        for i in 0..60u32 {
            match g.get(format!("key{i:04}").as_bytes()) {
                Ok(value) => assert_eq!(value, Some(vec![3u8; 50]), "key{i:04}"),
                Err(ReplicaError::Store {
                    replica,
                    source: KvError::Storage(_),
                }) => {
                    assert_eq!(replica.slot, 0);
                    refused += 1;
                }
                Err(other) => panic!("expected a store error, got {other}"),
            }
        }
        assert!(refused > 0, "some key lives in the flipped block");
    }

    #[test]
    fn cycles_are_monotone_across_kill_and_failover() {
        let (mut g, mut prov, _counters) = group();
        g.put(b"k", b"v").unwrap();
        let before_kill = g.cycles();
        g.kill(0, "chaos");
        assert!(g.cycles() >= before_kill, "retired cycles must be kept");
        g.failover(&mut prov).unwrap();
        assert!(g.cycles() > before_kill, "failover work is charged");
    }
}
