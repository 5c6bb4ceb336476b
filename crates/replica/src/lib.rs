//! # securecloud-replica
//!
//! The attested shard/replication layer over the secure KV store.
//!
//! The paper positions SecureCloud as a platform for dependable big-data
//! micro-services, but a single enclave-resident [`SecureKv`] is one crash
//! away from losing its dataset and one hot shard away from thrashing the
//! EPC (the 128 MiB knee of Figure 3). This crate distributes the store the
//! way ReplicaTEE distributes enclaves:
//!
//! * [`shard::ShardMap`] — a consistent-hash ring routing keys to shard
//!   groups, so each replica's working set stays below the paging cliff;
//! * [`provision::ProvisioningService`] — membership is *attestation
//!   gated*: a replica joins a group only after the provisioning service
//!   verifies a quote from the (simulated) quoting enclave, and the group's
//!   sealing key is installed exclusively over a mutually-authenticated
//!   [`SecureChannel`](securecloud_crypto::channel::SecureChannel);
//! * [`group::ShardGroup`] — quorum writes/reads over `n` enclave replicas
//!   (configurable [`ReplicationFactor`]/[`WriteQuorum`]) with
//!   rollback-protected epoch numbers backed by the trusted
//!   [`CounterService`](securecloud_kvstore::CounterService);
//! * failover — when a replica is killed (e.g. by a
//!   [`FaultKind::ReplicaKill`](securecloud_faults::FaultKind) event), the
//!   group re-attests a replacement, streams an encrypted snapshot to it,
//!   and resumes without losing acknowledged writes; serving a *stale*
//!   snapshot during failover is detected by the trusted counter.
//!
//! [`cluster::ReplicatedKv`] assembles all of this into one handle; the
//! `securecloud` facade deploys it via `deploy_replicated_kv(...)`.
//!
//! [`SecureKv`]: securecloud_kvstore::SecureKv

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod group;
pub mod provision;
pub mod shard;

pub use cluster::{
    FaultApplication, ReplicaConfig, ReplicaStats, ReplicatedKv, ReplicationFactor, WriteQuorum,
};
pub use group::{ShardGroup, SnapshotStream, METRIC_REPLICATION_LAG};
pub use provision::ProvisioningService;
pub use securecloud_kvstore::StorageConfig;
pub use shard::ShardMap;

use securecloud_crypto::CryptoError;
use securecloud_kvstore::KvError;
use securecloud_sgx::SgxError;
use std::error::Error as StdError;
use std::fmt;

/// A shard group's identity within a replicated store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardId(pub u32);

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A replica's identity: the shard it serves plus its slot in the group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplicaId {
    /// The shard group the replica belongs to.
    pub shard: ShardId,
    /// The replica's slot index within the group (`0..replication_factor`).
    pub slot: u32,
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/r{}", self.shard, self.slot)
    }
}

/// Errors surfaced by the replication layer, carrying the shard/replica
/// context that plain [`KvError`]s lack.
#[derive(Debug)]
#[non_exhaustive]
pub enum ReplicaError {
    /// A store-level failure on a specific replica (snapshot crypto,
    /// rollback detection, unknown counter).
    Store {
        /// The replica whose store operation failed.
        replica: ReplicaId,
        /// The underlying store error.
        source: KvError,
    },
    /// Too few live replicas to satisfy the configured quorum.
    QuorumLost {
        /// The shard whose quorum degraded.
        shard: ShardId,
        /// Live replicas required for the operation.
        needed: usize,
        /// Live replicas currently in the group.
        live: usize,
    },
    /// The provisioning service refused to admit a candidate replica.
    AdmissionDenied {
        /// The shard the candidate tried to join.
        shard: ShardId,
        /// The attestation failure that blocked admission.
        source: SgxError,
    },
    /// A secure-channel failure during provisioning.
    Channel {
        /// The shard whose provisioning channel failed.
        shard: ShardId,
        /// The underlying channel error.
        source: CryptoError,
    },
    /// An enclave-level failure on a specific replica.
    Sgx {
        /// The replica whose enclave call failed.
        replica: ReplicaId,
        /// The underlying SGX error.
        source: SgxError,
    },
    /// A replica observed an epoch older than the group's trusted epoch
    /// counter — it missed a membership change and must not serve writes.
    StaleEpoch {
        /// The out-of-date replica.
        replica: ReplicaId,
        /// The epoch the replica holds.
        have: u64,
        /// The group's current trusted epoch.
        want: u64,
    },
    /// No live replica remains to stream a snapshot from.
    NoSurvivors {
        /// The shard that lost every replica.
        shard: ShardId,
    },
    /// The shard group is partitioned from its clients: quorum operations
    /// are refused outright, so a write fails *unacknowledged* rather than
    /// being acknowledged on an unreachable quorum.
    Partitioned {
        /// The isolated shard.
        shard: ShardId,
    },
    /// A scale-down was refused: draining the targeted replica would drop
    /// the group below the majority quorum of its post-drain size.
    DrainRefused {
        /// The shard whose scale-down was refused.
        shard: ShardId,
        /// Responsive replicas that would remain.
        live: usize,
        /// The post-drain majority quorum they must still meet.
        needed: usize,
    },
    /// The deployment configuration is invalid.
    InvalidConfig(String),
    /// The addressed shard does not exist in this deployment.
    UnknownShard(ShardId),
}

impl fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaError::Store { replica, source } => {
                write!(f, "replica {replica}: store failure: {source}")
            }
            ReplicaError::QuorumLost {
                shard,
                needed,
                live,
            } => write!(
                f,
                "shard {shard}: quorum lost ({live} live, {needed} required)"
            ),
            ReplicaError::AdmissionDenied { shard, source } => {
                write!(f, "shard {shard}: admission denied: {source}")
            }
            ReplicaError::Channel { shard, source } => {
                write!(f, "shard {shard}: provisioning channel failure: {source}")
            }
            ReplicaError::Sgx { replica, source } => {
                write!(f, "replica {replica}: enclave failure: {source}")
            }
            ReplicaError::StaleEpoch {
                replica,
                have,
                want,
            } => write!(
                f,
                "replica {replica}: stale epoch {have} (group epoch is {want})"
            ),
            ReplicaError::NoSurvivors { shard } => {
                write!(f, "shard {shard}: no surviving replica to recover from")
            }
            ReplicaError::Partitioned { shard } => {
                write!(
                    f,
                    "shard {shard}: partitioned from clients; quorum operations refused"
                )
            }
            ReplicaError::DrainRefused {
                shard,
                live,
                needed,
            } => write!(
                f,
                "shard {shard}: scale-down refused ({live} responsive would remain, \
                 post-drain quorum needs {needed})"
            ),
            ReplicaError::InvalidConfig(why) => write!(f, "invalid replica config: {why}"),
            ReplicaError::UnknownShard(shard) => write!(f, "unknown shard {shard}"),
        }
    }
}

impl StdError for ReplicaError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            ReplicaError::Store { source, .. } => Some(source),
            ReplicaError::AdmissionDenied { source, .. } | ReplicaError::Sgx { source, .. } => {
                Some(source)
            }
            ReplicaError::Channel { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_carries_shard_and_replica_context() {
        let replica = ReplicaId {
            shard: ShardId(3),
            slot: 1,
        };
        let err = ReplicaError::Store {
            replica,
            source: KvError::RollbackDetected {
                snapshot_version: 4,
                counter_version: 9,
            },
        };
        let text = err.to_string();
        assert!(text.contains("s3/r1"), "missing replica context: {text}");
        assert!(text.contains("rollback"), "missing cause: {text}");
    }

    #[test]
    fn error_source_chains_to_the_underlying_layer() {
        let err = ReplicaError::AdmissionDenied {
            shard: ShardId(0),
            source: SgxError::AttestationFailed("bad quote".into()),
        };
        let source = err.source().expect("source present");
        assert!(source.to_string().contains("bad quote"));

        let quorum = ReplicaError::QuorumLost {
            shard: ShardId(1),
            needed: 2,
            live: 1,
        };
        assert!(quorum.source().is_none());
        assert!(quorum.to_string().contains("s1"));
    }
}
