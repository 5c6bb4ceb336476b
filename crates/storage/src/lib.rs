//! Encrypted persistent storage beyond the EPC: sealed log-structured
//! segments on the untrusted host.
//!
//! The paper's secure stores must serve working sets far larger than the
//! ~128 MiB EPC, so hot state lives in enclave memory while the bulk is
//! spilled to *host* storage the enclave does not trust. This crate is
//! that bottom tier, shaped after Occlum's encrypted FS image
//! (integrity-protected + encrypted layers) and tgcryptfs's key hierarchy
//! (per-chunk keys derived from one master key):
//!
//! * [`engine::StorageEngine`] — an append-only, log-structured segment
//!   store. Writes land in a sealed write-ahead log; a flush packs them
//!   into fixed-size blocks, seals each block with AES-GCM under a
//!   per-segment key ([`StoreKeys`]), and commits a sealed manifest.
//! * **Integrity tree** — a Merkle root over each segment's block MACs
//!   lives in the manifest; paging a block in verifies it against the
//!   root, so a flipped bit anywhere on the host is detected
//!   ([`StorageError::Integrity`]) and the segment can be quarantined.
//! * **Rollback protection** — the manifest's version is floored by a
//!   trusted monotonic counter ([`CounterService`]); every WAL append
//!   advances the same floor, so serving a stale manifest *or* dropping
//!   the WAL tail surfaces as [`StorageError::Rollback`].
//! * **Cost accounting** — every host transfer is charged through
//!   [`MemorySim`](securecloud_sgx::mem::MemorySim)'s host-IO cost domain,
//!   so EPC-paging vs host-IO trade-offs show up in cycles and telemetry.

pub mod disk;
pub mod engine;
pub mod layout;
pub mod tree;

pub use disk::{HostDisk, HostSegment, SealedWalRecord};
pub use engine::{IncrementalSnapshot, ReplayReport, StorageEngine, StorageStats};
pub use layout::{Block, BlockMeta, Manifest, Record, RecordRef, SegmentMeta};

use parking_lot::Mutex;
use securecloud_crypto::hmac::hkdf;
use securecloud_crypto::CryptoError;
use std::collections::HashMap;
use std::error::Error as StdError;
use std::fmt;
use std::sync::Arc;

/// Errors from the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageError {
    /// A sealed block, WAL record, or manifest failed to decrypt or decode.
    Crypto(CryptoError),
    /// The recovered state is older than the trusted counter: the host
    /// served a stale manifest or dropped the WAL tail.
    Rollback {
        /// Version reconstructed from the manifest plus the WAL tail.
        recovered_version: u64,
        /// Version floor recorded by the trusted counter.
        counter_version: u64,
    },
    /// A segment's on-host bytes disagree with the integrity tree root
    /// recorded in the manifest.
    Integrity {
        /// Segment whose verification failed.
        segment: u64,
        /// Block index, when the failure localises to one block.
        block: Option<u32>,
    },
    /// The on-host structure is malformed (truncated WAL, missing segment,
    /// out-of-order sequence numbers).
    Corrupt(String),
    /// A test-armed crash point fired mid-operation (see
    /// [`StorageEngine::fail_after_host_writes`]); the in-memory store must
    /// be discarded and reopened from the host disk.
    CrashInjected,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Crypto(e) => write!(f, "storage cryptographic failure: {e}"),
            StorageError::Rollback {
                recovered_version,
                counter_version,
            } => write!(
                f,
                "storage rollback detected: recovered v{recovered_version} older than \
                 counter v{counter_version}"
            ),
            StorageError::Integrity { segment, block } => match block {
                Some(b) => write!(f, "integrity failure in segment {segment} block {b}"),
                None => write!(f, "integrity-tree mismatch over segment {segment}"),
            },
            StorageError::Corrupt(what) => write!(f, "corrupt host structure: {what}"),
            StorageError::CrashInjected => write!(f, "injected crash point fired"),
        }
    }
}

impl StdError for StorageError {}

impl From<CryptoError> for StorageError {
    fn from(e: CryptoError) -> Self {
        StorageError::Crypto(e)
    }
}

/// A trusted monotonic counter service (stands in for SGX monotonic
/// counters / a replicated counter service). Shared between store
/// instances via `Clone`.
#[derive(Debug, Clone, Default)]
pub struct CounterService {
    counters: Arc<Mutex<HashMap<String, u64>>>,
}

impl CounterService {
    /// Creates an empty counter service.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a counter (0 if never bumped).
    #[must_use]
    pub fn read(&self, name: &str) -> u64 {
        *self.counters.lock().get(name).unwrap_or(&0)
    }

    /// Increments and returns the new value.
    pub fn increment(&self, name: &str) -> u64 {
        self.update(name, |v| v + 1)
    }

    /// Advances a counter to `value` if that moves it forward, returning
    /// the resulting value. Monotone: a lagging writer (e.g. a replica
    /// sealing an older snapshot than a sibling already recorded) can
    /// never roll the counter back.
    pub fn advance_to(&self, name: &str, value: u64) -> u64 {
        self.update(name, |v| v.max(value))
    }

    /// Applies `f` to the counter (0 if never bumped) and returns the
    /// result; only a counter's first update allocates its name.
    fn update(&self, name: &str, f: impl FnOnce(u64) -> u64) -> u64 {
        let mut counters = self.counters.lock();
        match counters.get_mut(name) {
            Some(v) => {
                *v = f(*v);
                *v
            }
            None => {
                let v = f(0);
                counters.insert(name.to_string(), v);
                v
            }
        }
    }
}

/// The tgcryptfs-style key hierarchy: one 128-bit store master key, with
/// per-segment, WAL, and manifest keys derived from it by HKDF under
/// distinct info strings. Compromise of any derived key exposes only its
/// own domain; the master key never touches the host.
#[derive(Debug, Clone)]
pub struct StoreKeys {
    master: [u8; 16],
}

/// HKDF salt binding every derivation to this engine's format version.
const KEY_SALT: &[u8] = b"securecloud-storage-v1";

impl StoreKeys {
    /// Wraps a store master key.
    #[must_use]
    pub fn new(master: [u8; 16]) -> Self {
        StoreKeys { master }
    }

    /// The per-segment sealing key. Segment ids come from a trusted
    /// counter and are never reused, so (key, block-nonce) pairs are
    /// unique even across crash-discarded flush attempts.
    #[must_use]
    pub fn segment_key(&self, segment: u64) -> [u8; 16] {
        let mut info = Vec::with_capacity(16);
        info.extend_from_slice(b"segment\0");
        info.extend_from_slice(&segment.to_le_bytes());
        hkdf(KEY_SALT, &self.master, &info)
    }

    /// The write-ahead-log sealing key.
    #[must_use]
    pub fn wal_key(&self) -> [u8; 16] {
        hkdf(KEY_SALT, &self.master, b"wal")
    }

    /// The manifest sealing key.
    #[must_use]
    pub fn manifest_key(&self) -> [u8; 16] {
        hkdf(KEY_SALT, &self.master, b"manifest")
    }
}

/// Shape of the on-host tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageConfig {
    /// Plaintext capacity of one sealed block, in bytes.
    pub block_bytes: usize,
    /// Memtable size at which the owning store flushes a segment, in
    /// bytes of live key+value data.
    pub flush_bytes: u64,
    /// Decrypted blocks cached in enclave memory (small by design: the
    /// cache competes with the memtable for EPC).
    pub cache_blocks: usize,
    /// Live segment count that triggers a full deterministic compaction
    /// (merge every segment, drop shadowed records and tombstones).
    pub compact_at_segments: usize,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            block_bytes: 4096,
            flush_bytes: 256 << 10,
            cache_blocks: 8,
            compact_at_segments: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_service_behaviour() {
        let counters = CounterService::new();
        assert_eq!(counters.read("x"), 0);
        assert_eq!(counters.increment("x"), 1);
        assert_eq!(counters.increment("x"), 2);
        assert_eq!(counters.read("x"), 2);
        assert_eq!(counters.read("y"), 0);
        // Clones share state.
        let clone = counters.clone();
        clone.increment("x");
        assert_eq!(counters.read("x"), 3);
        // advance_to is monotone in both directions of use.
        assert_eq!(counters.advance_to("x", 10), 10);
        assert_eq!(counters.advance_to("x", 5), 10);
    }

    #[test]
    fn key_hierarchy_is_domain_separated() {
        let keys = StoreKeys::new([9u8; 16]);
        let s0 = keys.segment_key(0);
        let s1 = keys.segment_key(1);
        assert_ne!(s0, s1, "per-segment keys differ");
        assert_ne!(keys.wal_key(), keys.manifest_key());
        assert_ne!(keys.wal_key(), s0);
        // Deterministic: the same master re-derives the same keys.
        assert_eq!(StoreKeys::new([9u8; 16]).segment_key(1), s1);
        // A different master yields an unrelated hierarchy.
        assert_ne!(StoreKeys::new([10u8; 16]).segment_key(1), s1);
    }
}
