//! The enclave-resident ordered KV store.
//!
//! A [`SecureKv`] is either purely in-memory (everything in the EPC, the
//! seed behaviour) or *tiered* ([`SecureKv::tiered`]): an in-EPC memtable
//! over a [`StorageEngine`] of sealed log-structured segments on the
//! untrusted host. In tiered mode every mutation is WAL-logged before it
//! touches the memtable, full memtables flush to sealed segments, and
//! reads fall through to verified block page-ins — so working sets far
//! beyond the EPC stay serviceable at honest simulated cost.
//!
//! A caller that applies many mutations at once can open a *write group*
//! ([`SecureKv::open_group`]): its mutations seal and stage their WAL
//! records, and [`SecureKv::commit_group`] writes them to the host in one
//! transfer. Outside a group every mutation is its own host write.

use securecloud_crypto::gcm::AesGcm;
use securecloud_crypto::wire::Wire;
use securecloud_crypto::CryptoError;
use securecloud_sgx::mem::{Arena, MemorySim};
use securecloud_storage::{
    HostDisk, IncrementalSnapshot, RecordRef, ReplayReport, StorageConfig, StorageEngine,
    StorageError, StoreKeys,
};
use securecloud_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::error::Error as StdError;
use std::fmt;
use std::ops::Bound;

// The trusted counter service now lives in `securecloud-storage` (the
// storage engine binds manifests to it); re-exported here so existing
// `securecloud_kvstore::CounterService` paths keep working.
pub use securecloud_storage::CounterService;

/// Errors from the secure KV store.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum KvError {
    /// A snapshot failed to decrypt or decode.
    Crypto(CryptoError),
    /// The snapshot is older than the trusted counter: a rollback attack.
    RollbackDetected {
        /// Version found in the snapshot.
        snapshot_version: u64,
        /// Version recorded by the trusted counter.
        counter_version: u64,
    },
    /// The named trusted counter does not exist.
    UnknownCounter(String),
    /// The sealed storage tier failed (integrity, rollback, crash, or
    /// host corruption).
    Storage(StorageError),
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::Crypto(e) => write!(f, "snapshot cryptographic failure: {e}"),
            KvError::RollbackDetected {
                snapshot_version,
                counter_version,
            } => write!(
                f,
                "rollback detected: snapshot v{snapshot_version} older than counter v{counter_version}"
            ),
            KvError::UnknownCounter(name) => write!(f, "unknown trusted counter: {name}"),
            KvError::Storage(e) => write!(f, "storage tier failure: {e}"),
        }
    }
}

impl StdError for KvError {}

impl From<CryptoError> for KvError {
    fn from(e: CryptoError) -> Self {
        KvError::Crypto(e)
    }
}

impl From<StorageError> for KvError {
    fn from(e: StorageError) -> Self {
        KvError::Storage(e)
    }
}

/// A key-value pair as stored in snapshots.
type Pair = (Vec<u8>, Vec<u8>);

securecloud_telemetry::metric_set! {
    /// Live operation counters behind [`KvStats`].
    struct KvMetrics {
        /// Keys inserted or updated.
        puts: Counter = "securecloud_kv_puts_total",
        /// Point lookups served.
        gets: Counter = "securecloud_kv_gets_total",
        /// Deletes applied, each a tombstone in a tiered store.
        deletes: Counter = "securecloud_kv_deletes_total",
        /// Entries returned by range scans.
        scanned: Counter = "securecloud_kv_scanned_total",
    }
    /// Operation counters for a [`SecureKv`].
    pub struct KvStats;
}

#[derive(Debug, Clone)]
struct Entry {
    value: Vec<u8>,
    offset: u64,
    footprint: u32,
    /// Tombstone marker (tiered mode): the key is deleted, masking any
    /// older sealed record; a flush seals it, and compaction drops both.
    dead: bool,
}

impl Entry {
    /// The value, unless the entry is a tombstone.
    fn live(&self) -> Option<&[u8]> {
        (!self.dead).then_some(&self.value)
    }
}

/// A sealed, versioned snapshot of the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Store version at snapshot time.
    pub version: u64,
    /// Sealed bytes for untrusted storage.
    pub sealed: Vec<u8>,
}

/// The enclave-resident ordered KV store. Callers pass the enclave's
/// [`MemorySim`] so accesses are charged to the right domain.
#[derive(Debug)]
pub struct SecureKv {
    map: BTreeMap<Vec<u8>, Entry>,
    version: u64,
    bytes: u64,
    metrics: KvMetrics,
    /// The memtable's simulated memory; a tiered flush releases it.
    arena: Arena,
    /// The sealed on-host tier (tiered mode only).
    storage: Option<Box<StorageEngine>>,
    /// Whether the caller's write group is open: mutations stage their WAL
    /// records until [`SecureKv::commit_group`].
    group_open: bool,
}

const ARENA_CHUNK: u64 = 1 << 20;

/// Associated data of a sealed whole-store snapshot.
const SNAPSHOT_AAD: &[u8] = b"securecloud kv snapshot";

impl Default for SecureKv {
    fn default() -> Self {
        SecureKv {
            map: BTreeMap::new(),
            version: 0,
            bytes: 0,
            metrics: KvMetrics::default(),
            arena: Arena::new(ARENA_CHUNK),
            storage: None,
            group_open: false,
        }
    }
}

impl SecureKv {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty *tiered* store: an in-EPC memtable over a sealed
    /// log-structured segment store on the untrusted host. `counter_base`
    /// scopes the trusted counters binding the host state (use the same
    /// base and [`CounterService`] when reopening after a restart).
    #[must_use]
    pub fn tiered(
        config: StorageConfig,
        keys: StoreKeys,
        counters: CounterService,
        counter_base: impl Into<String>,
    ) -> Self {
        let mut kv = SecureKv::new();
        kv.storage = Some(Box::new(StorageEngine::create(
            config,
            keys,
            counters,
            counter_base,
        )));
        kv
    }

    /// Recovers a tiered store from untrusted host bytes: verifies the
    /// manifest epoch and version floor, replays only the WAL tail, and
    /// rebuilds the memtable from it.
    ///
    /// # Errors
    ///
    /// [`KvError::Storage`] — rollback, integrity, or corruption detected
    /// in the host bytes.
    pub fn reopen(
        mem: &mut MemorySim,
        config: StorageConfig,
        keys: StoreKeys,
        counters: CounterService,
        counter_base: impl Into<String>,
        disk: HostDisk,
    ) -> Result<(Self, ReplayReport), KvError> {
        let (engine, report) =
            StorageEngine::open(mem, config, keys, counters, counter_base, disk)?;
        let mut kv = SecureKv::new();
        kv.storage = Some(Box::new(engine));
        for record in &report.tail {
            kv.memtable_put(mem, record.key(), record.value());
        }
        kv.version = report.recovered_version;
        Ok((kv, report))
    }

    /// Adopts an [`IncrementalSnapshot`] streamed from a surviving
    /// replica (see [`SecureKv::incremental_snapshot`]).
    ///
    /// # Errors
    ///
    /// As [`SecureKv::reopen`] — notably [`KvError::Storage`] with
    /// [`StorageError::Rollback`] if the snapshot is older than the
    /// trusted counters have seen.
    pub fn restore_incremental(
        mem: &mut MemorySim,
        config: StorageConfig,
        keys: StoreKeys,
        counters: CounterService,
        counter_base: impl Into<String>,
        snapshot: IncrementalSnapshot,
    ) -> Result<Self, KvError> {
        Ok(Self::reopen(mem, config, keys, counters, counter_base, snapshot.disk)?.0)
    }

    /// Whether this store has a sealed on-host tier.
    #[must_use]
    pub fn is_tiered(&self) -> bool {
        self.storage.is_some()
    }

    /// The storage engine under a tiered store (bench introspection).
    #[must_use]
    pub fn storage(&self) -> Option<&StorageEngine> {
        self.storage.as_deref()
    }

    /// Mutable access to the storage engine (fault injection: corrupt a
    /// host block, scrub, arm crash points).
    pub fn storage_mut(&mut self) -> Option<&mut StorageEngine> {
        self.storage.as_deref_mut()
    }

    /// Number of in-EPC entries. For a tiered store this counts only the
    /// memtable (including tombstones); flushed keys live in sealed
    /// segments and are not enumerated without IO.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total bytes of keys and values.
    #[must_use]
    pub fn data_bytes(&self) -> u64 {
        self.bytes
    }

    /// Monotone store version (bumped on every mutation). A tiered store's
    /// engine counts WAL positions instead, which skip the seqs a failed
    /// commit spent: the two differ only after a failed commit and a reopen.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Operation counters.
    #[must_use]
    pub fn stats(&self) -> KvStats {
        self.metrics.snapshot()
    }

    /// Adopts the store's operation counters into `telemetry`'s registry.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics.adopt_into(telemetry.registry(), &[]);
    }

    fn footprint(key: &[u8], value: &[u8]) -> u32 {
        (48 + key.len() + value.len()) as u32
    }

    /// Raw memtable insert (`value` of `None` plants a tombstone):
    /// allocation, touch, and byte accounting, but no version bump, metrics,
    /// WAL, or flush. Returns the previous *live* value (a shadowed tombstone
    /// reads as absent).
    fn memtable_put(
        &mut self,
        mem: &mut MemorySim,
        key: &[u8],
        value: Option<&[u8]>,
    ) -> Option<Vec<u8>> {
        let dead = value.is_none();
        let value = value.unwrap_or_default();
        let footprint = Self::footprint(key, value);
        let offset = self.arena.alloc(mem, u64::from(footprint));
        mem.touch(offset, footprint as usize);
        mem.charge_ops(2 + (key.len() as u64) / 8);
        self.bytes += (key.len() + value.len()) as u64;
        let entry = Entry {
            value: value.to_vec(),
            offset,
            footprint,
            dead,
        };
        // An overwrite keeps the key the map already owns.
        let previous = match self.map.get_mut(key) {
            Some(slot) => std::mem::replace(slot, entry),
            None => {
                self.map.insert(key.to_vec(), entry);
                return None;
            }
        };
        self.bytes -= (key.len() + previous.value.len()) as u64;
        (!previous.dead).then_some(previous.value)
    }

    /// Opens a write group: until [`SecureKv::commit_group`], each put and
    /// delete of a tiered store seals its WAL record and stages it in
    /// enclave memory instead of writing it to the host. Reads see staged
    /// mutations at once; none is durable, or counted by the trusted version
    /// floor, before the commit. A memtable flush commits what is staged
    /// before it. Opening an open group does nothing.
    pub fn open_group(&mut self) {
        self.group_open = true;
    }

    /// Writes every staged WAL record to the host in one transfer, advances
    /// the trusted version floor past them, and closes the group.
    ///
    /// # Errors
    ///
    /// [`KvError::Storage`] — the host write failed, losing the whole group;
    /// the store must then be discarded and reopened from its disk.
    pub fn commit_group(&mut self, mem: &mut MemorySim) -> Result<(), KvError> {
        self.group_open = false;
        if let Some(engine) = self.storage.as_mut() {
            engine.commit(mem)?;
        }
        Ok(())
    }

    /// WAL-logs one mutation of a tiered store: staged in an open group,
    /// written at once outside one.
    fn log(&mut self, mem: &mut MemorySim, record: RecordRef<'_>) -> Result<(), KvError> {
        match self.storage.as_mut() {
            Some(engine) if self.group_open => engine.stage(mem, record)?,
            Some(engine) => engine.append(mem, record)?,
            None => {}
        }
        Ok(())
    }

    /// [`SecureKv::try_put`], panicking on a storage-tier failure. Pinned by
    /// `benchmark/src/probes.rs:145`; product code calls `try_put`.
    pub fn put(&mut self, mem: &mut MemorySim, key: &[u8], value: &[u8]) -> Option<Vec<u8>> {
        self.try_put(mem, key, value)
            .expect("tiered storage failure on put; reopen the store")
    }

    /// Inserts or updates `key`: WAL-logs first (tiered mode; staged in an
    /// open write group), then updates the memtable, flushing it to a
    /// sealed segment when full. Returns the previous value *from the in-EPC
    /// tier* — a key only present in sealed segments reads back as `None`
    /// here, keeping the write path free of host IO.
    ///
    /// # Errors
    ///
    /// [`KvError::Storage`] — the sealed tier rejected the write (after
    /// which the store must be discarded and reopened from its disk).
    pub fn try_put(
        &mut self,
        mem: &mut MemorySim,
        key: &[u8],
        value: &[u8],
    ) -> Result<Option<Vec<u8>>, KvError> {
        let value = Some(value);
        self.log(mem, RecordRef { key, value })?;
        let previous = self.memtable_put(mem, key, value);
        self.version += 1;
        self.metrics.puts.inc();
        self.maybe_flush(mem)?;
        Ok(previous)
    }

    /// [`SecureKv::try_get_ref`], panicking on a storage-tier failure. Pinned
    /// by `benchmark/src/probes.rs:140`; product code calls `try_get_ref`.
    pub fn get_ref(&mut self, mem: &mut MemorySim, key: &[u8]) -> Option<&[u8]> {
        self.try_get_ref(mem, key)
            .expect("tiered storage failure on get; scrub or reopen the store")
    }

    /// Point lookup falling through the memtable to sealed segments,
    /// borrowing the value (callers copy it out only if they keep it). A
    /// memtable tombstone masks older sealed records.
    ///
    /// # Errors
    ///
    /// [`KvError::Storage`] — a sealed block failed verification while
    /// paging in.
    pub fn try_get_ref(
        &mut self,
        mem: &mut MemorySim,
        key: &[u8],
    ) -> Result<Option<&[u8]>, KvError> {
        self.metrics.gets.inc();
        // B-tree descent: log(n) comparisons.
        mem.charge_ops(2 + (self.map.len().max(2) as f64).log2() as u64);
        if let Some(entry) = self.map.get(key) {
            mem.touch(entry.offset, entry.footprint as usize);
            return Ok(entry.live());
        }
        match self.storage.as_mut() {
            None => Ok(None),
            Some(engine) => Ok(engine.lookup_ref(mem, key)?.flatten()),
        }
    }

    /// [`SecureKv::try_delete`], panicking on a storage-tier failure. Pinned
    /// by `benchmark/src/probes.rs:158`; product code calls `try_delete`.
    pub fn delete(&mut self, mem: &mut MemorySim, key: &[u8]) {
        self.try_delete(mem, key)
            .expect("tiered storage failure on delete; reopen the store");
    }

    /// Removes `key` without reading it. In tiered mode a delete is a blind
    /// LSM tombstone, logged and planted as a put of no value: it WAL-logs a
    /// tombstone (staged in an open write group) and plants it in the
    /// memtable, where it masks any sealed record of the key until
    /// compaction drops both. It never pages a block in, so the host sees
    /// one WAL record per delete whether or not the key existed. In-memory
    /// mode removes the entry. In both modes every delete bumps the version
    /// once, even of a key that is absent.
    ///
    /// # Errors
    ///
    /// [`KvError::Storage`] — the sealed tier failed to log the tombstone.
    pub fn try_delete(&mut self, mem: &mut MemorySim, key: &[u8]) -> Result<(), KvError> {
        mem.charge_ops(2 + (self.map.len().max(2) as f64).log2() as u64);
        if self.storage.is_none() {
            if let Some(entry) = self.map.remove(key) {
                self.bytes -= (key.len() + entry.value.len()) as u64;
            }
        } else {
            // Overwriting the key's memtable slot, if it has one, touches its lines.
            if let Some(entry) = self.map.get(key) {
                mem.touch(entry.offset, entry.footprint as usize);
            }
            self.log(mem, RecordRef { key, value: None })?;
            self.memtable_put(mem, key, None);
        }
        self.version += 1;
        self.metrics.deletes.inc();
        self.maybe_flush(mem)
    }

    /// [`SecureKv::try_scan`], panicking on a storage-tier failure. Pinned by
    /// `benchmark/src/probes.rs:154`; product code calls `try_scan`.
    pub fn scan(&mut self, mem: &mut MemorySim, from: &[u8], to: &[u8]) -> Vec<Pair> {
        self.try_scan(mem, from, to)
            .expect("tiered storage failure on scan; scrub or reopen the store")
    }

    /// Ordered scan of `[from, to)` merging sealed segments (oldest first)
    /// under the memtable; memtable tombstones suppress sealed records.
    ///
    /// # Errors
    ///
    /// [`KvError::Storage`] — a sealed block failed verification while
    /// paging in.
    pub fn try_scan(
        &mut self,
        mem: &mut MemorySim,
        from: &[u8],
        to: &[u8],
    ) -> Result<Vec<Pair>, KvError> {
        let mut out = Vec::new();
        if from >= to {
            return Ok(out); // empty or inverted range
        }
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        if let Some(engine) = self.storage.as_mut() {
            engine.scan_into(mem, from, Some(to), &mut merged)?;
        }
        for (key, entry) in self
            .map
            .range::<[u8], _>((Bound::Included(from), Bound::Excluded(to)))
        {
            mem.touch(entry.offset, entry.footprint as usize);
            mem.charge_ops(1);
            let value = entry.live();
            RecordRef { key, value }.merge_into(&mut merged); // the memtable is newest
        }
        for (k, v) in merged {
            if let Some(v) = v {
                self.metrics.scanned.inc();
                out.push((k, v));
            }
        }
        Ok(out)
    }

    /// Flushes the memtable into a sealed segment when it has outgrown the
    /// configured budget.
    fn maybe_flush(&mut self, mem: &mut MemorySim) -> Result<(), KvError> {
        let Some(engine) = self.storage.as_ref() else {
            return Ok(());
        };
        if self.bytes < engine.config().flush_bytes || self.map.is_empty() {
            return Ok(());
        }
        self.flush_memtable(mem)
    }

    /// Flushes the memtable (live entries and tombstones) into one sealed
    /// segment, commits the manifest, truncates the WAL, and releases the
    /// memtable's EPC arena. A no-op for in-memory stores and empty
    /// memtables.
    ///
    /// # Errors
    ///
    /// [`KvError::Storage`] — the segment write or manifest commit failed.
    pub fn flush_memtable(&mut self, mem: &mut MemorySim) -> Result<(), KvError> {
        let Some(engine) = self.storage.as_mut() else {
            return Ok(());
        };
        if self.map.is_empty() {
            return Ok(());
        }
        engine.flush(
            mem,
            self.map.iter().map(|(key, entry)| RecordRef {
                key,
                value: entry.live(),
            }),
        )?;
        self.map.clear();
        self.bytes = 0;
        self.arena.release(mem);
        Ok(())
    }

    /// Exports the sealed host state for handing to a new replica: the
    /// manifest and WAL tail travel over a trusted channel; sealed segments
    /// are self-authenticating. Every commit advanced the trusted version
    /// floor past it, so older exports are fenced.
    ///
    /// # Panics
    ///
    /// If the store is not tiered.
    pub fn incremental_snapshot(&self) -> IncrementalSnapshot {
        self.storage
            .as_ref()
            .expect("incremental snapshots require a tiered store")
            .export()
    }

    /// Serialises and seals the store under `key`, advancing the trusted
    /// counter `counter_name` to the snapshot's version.
    ///
    /// The snapshot version is the store's mutation version at seal time
    /// (sealing itself is not a mutation): replicas applying the same
    /// writes seal interchangeable snapshots, whichever of them does the
    /// sealing.
    ///
    /// # Panics
    ///
    /// If the store is tiered — whole-store snapshots would re-upload data
    /// already sealed on the host; use [`SecureKv::incremental_snapshot`].
    pub fn snapshot(
        &mut self,
        key: &[u8; 16],
        counters: &CounterService,
        counter_name: &str,
    ) -> Snapshot {
        assert!(
            self.storage.is_none(),
            "whole-store snapshots are for in-memory stores; tiered stores use incremental_snapshot()"
        );
        // The wire body is encoded straight from the map (no intermediate
        // Vec<Pair> clone). The layout must stay byte-identical to
        // `(self.version, pairs).to_wire()` — `restore` decodes it as
        // `(u64, Vec<Pair>)`.
        let nonce = securecloud_crypto::random_array();
        let body_len = 12 + self.bytes as usize + 8 * self.map.len();
        let sealed = AesGcm::new(key).seal_envelope(&nonce, SNAPSHOT_AAD, body_len, |out| {
            self.version.encode(out);
            (self.map.len() as u32).encode(out);
            for (k, e) in &self.map {
                (k.len() as u32).encode(out);
                out.extend_from_slice(k);
                (e.value.len() as u32).encode(out);
                out.extend_from_slice(&e.value);
            }
        });
        // Record the snapshot version in the trusted counter (monotone, so
        // a lagging replica cannot regress a sibling's newer record).
        counters.advance_to(counter_name, self.version);
        Snapshot {
            version: self.version,
            sealed,
        }
    }

    /// Restores a store from a sealed snapshot, verifying freshness against
    /// the trusted counter.
    ///
    /// # Errors
    ///
    /// * [`KvError::Crypto`] — tampered or wrong-key snapshot,
    /// * [`KvError::RollbackDetected`] — the snapshot predates the counter.
    pub fn restore(
        mem: &mut MemorySim,
        key: &[u8; 16],
        sealed: &[u8],
        counters: &CounterService,
        counter_name: &str,
    ) -> Result<Self, KvError> {
        let plain = AesGcm::new(key).open_envelope(sealed, SNAPSHOT_AAD)?;
        let (version, pairs): (u64, Vec<Pair>) = Wire::from_wire(&plain)?;
        let expected = counters.read(counter_name);
        if version < expected {
            return Err(KvError::RollbackDetected {
                snapshot_version: version,
                counter_version: expected,
            });
        }
        let mut kv = SecureKv::new();
        for (k, v) in pairs {
            kv.try_put(mem, &k, &v)?;
        }
        kv.version = version;
        Ok(kv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use securecloud_sgx::costs::{CostModel, MemoryGeometry};
    use securecloud_sgx::mem::{MemStats, Region};
    use securecloud_storage::StorageStats;

    fn mem() -> MemorySim {
        MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::sgx_v1())
    }

    /// An owned copy of what `try_get_ref` finds.
    fn get(kv: &mut SecureKv, mem: &mut MemorySim, key: &[u8]) -> Option<Vec<u8>> {
        kv.try_get_ref(mem, key).unwrap().map(<[u8]>::to_vec)
    }

    #[test]
    fn put_get_delete() {
        let mut mem = mem();
        let mut kv = SecureKv::new();
        assert!(kv.is_empty());
        assert_eq!(kv.try_put(&mut mem, b"a", b"1").unwrap(), None);
        assert_eq!(
            kv.try_put(&mut mem, b"a", b"2").unwrap(),
            Some(b"1".to_vec())
        );
        assert_eq!(get(&mut kv, &mut mem, b"a"), Some(b"2".to_vec()));
        assert_eq!(get(&mut kv, &mut mem, b"missing"), None);
        kv.try_delete(&mut mem, b"a").unwrap();
        assert_eq!(get(&mut kv, &mut mem, b"a"), None);
        // A delete of an absent key still counts, and bumps the version once.
        let v = kv.version();
        kv.try_delete(&mut mem, b"a").unwrap();
        assert_eq!(kv.version(), v + 1);
        assert_eq!(kv.len(), 0);
        assert_eq!(kv.data_bytes(), 0);
        let s = kv.stats();
        assert_eq!((s.puts, s.gets, s.deletes), (2, 3, 2));
    }

    #[test]
    fn range_scan_ordered_half_open() {
        let mut mem = mem();
        let mut kv = SecureKv::new();
        for k in ["b", "a", "d", "c", "e"] {
            kv.try_put(&mut mem, k.as_bytes(), k.as_bytes()).unwrap();
        }
        let hits = kv.try_scan(&mut mem, b"b", b"e").unwrap();
        let keys: Vec<&[u8]> = hits.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, [b"b", b"c", b"d"]);
        assert_eq!(kv.stats().scanned, 3);
    }

    #[test]
    fn memory_charged_per_access() {
        let mut mem = mem();
        let mut kv = SecureKv::new();
        let c0 = mem.cycles();
        kv.try_put(&mut mem, b"key", &vec![0u8; 1000]).unwrap();
        let after_put = mem.cycles();
        assert!(after_put > c0);
        get(&mut kv, &mut mem, b"key");
        assert!(mem.cycles() > after_put);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut m = mem();
        let counters = CounterService::new();
        let key = [7u8; 16];
        let mut kv = SecureKv::new();
        kv.try_put(&mut m, b"x", b"1").unwrap();
        kv.try_put(&mut m, b"y", b"2").unwrap();
        let snapshot = kv.snapshot(&key, &counters, "store-A");
        let mut restored =
            SecureKv::restore(&mut m, &key, &snapshot.sealed, &counters, "store-A").unwrap();
        assert_eq!(get(&mut restored, &mut m, b"x"), Some(b"1".to_vec()));
        assert_eq!(get(&mut restored, &mut m, b"y"), Some(b"2".to_vec()));
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.version(), snapshot.version);
    }

    #[test]
    fn snapshot_body_layout_matches_wire_tuple() {
        // `snapshot` hand-encodes the body straight from the map; pin it to
        // the generic `(u64, Vec<Pair>)` wire layout `restore` decodes.
        let mut m = mem();
        let counters = CounterService::new();
        let key = [3u8; 16];
        let mut kv = SecureKv::new();
        kv.try_put(&mut m, b"zeta", b"26").unwrap();
        kv.try_put(&mut m, b"alpha", b"1").unwrap();
        kv.try_put(&mut m, b"", b"empty key").unwrap();
        kv.try_put(&mut m, b"mid", b"").unwrap();
        let snapshot = kv.snapshot(&key, &counters, "layout");
        assert_eq!(snapshot.sealed.capacity(), snapshot.sealed.len());
        let plain = AesGcm::new(&key)
            .open_envelope(&snapshot.sealed, SNAPSHOT_AAD)
            .unwrap();
        let pairs: Vec<Pair> = kv
            .map
            .iter()
            .map(|(k, e)| (k.clone(), e.value.clone()))
            .collect();
        assert_eq!(plain, (kv.version, pairs).to_wire());
    }

    #[test]
    fn snapshot_tampering_detected() {
        let mut m = mem();
        let counters = CounterService::new();
        let key = [7u8; 16];
        let mut kv = SecureKv::new();
        kv.try_put(&mut m, b"x", b"1").unwrap();
        let snapshot = kv.snapshot(&key, &counters, "c");
        // A ciphertext byte, past the 12-byte nonce.
        let mut bad = snapshot.sealed.clone();
        bad[14] ^= 1;
        assert!(matches!(
            SecureKv::restore(&mut m, &key, &bad, &counters, "c"),
            Err(KvError::Crypto(_))
        ));
        // Wrong key fails too.
        assert!(SecureKv::restore(&mut m, &[8u8; 16], &snapshot.sealed, &counters, "c").is_err());
    }

    #[test]
    fn rollback_attack_detected() {
        let mut m = mem();
        let counters = CounterService::new();
        let key = [7u8; 16];
        let mut kv = SecureKv::new();
        kv.try_put(&mut m, b"balance", b"100").unwrap();
        let old_snapshot = kv.snapshot(&key, &counters, "bank");
        kv.try_put(&mut m, b"balance", b"50").unwrap();
        let _new_snapshot = kv.snapshot(&key, &counters, "bank");
        // The untrusted host serves the old (validly sealed!) snapshot.
        let err = SecureKv::restore(&mut m, &key, &old_snapshot.sealed, &counters, "bank");
        assert!(matches!(err, Err(KvError::RollbackDetected { .. })));
    }

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
    }

    #[test]
    fn large_store_exceeding_epc_pays_paging() {
        // A store bigger than the (tiny) EPC faults on scans; the same
        // store in native memory does not.
        let geometry = MemoryGeometry {
            line_bytes: 64,
            llc_bytes: 64 * 64,
            page_bytes: 4096,
            epc_total_bytes: 4096 * 16,
            epc_reserved_bytes: 4096 * 4,
        };
        let costs = CostModel::sgx_v1();
        let mut enclave_mem = MemorySim::enclave(geometry, costs.clone());
        let mut native_mem = MemorySim::native(geometry, costs);
        let mut kv_e = SecureKv::new();
        let mut kv_n = SecureKv::new();
        for i in 0..200u32 {
            let key = i.to_be_bytes();
            let value = vec![0u8; 1024];
            kv_e.try_put(&mut enclave_mem, &key, &value).unwrap();
            kv_n.try_put(&mut native_mem, &key, &value).unwrap();
        }
        enclave_mem.reset_metrics();
        native_mem.reset_metrics();
        kv_e.try_scan(&mut enclave_mem, &0u32.to_be_bytes(), &200u32.to_be_bytes())
            .unwrap();
        kv_n.try_scan(&mut native_mem, &0u32.to_be_bytes(), &200u32.to_be_bytes())
            .unwrap();
        assert!(enclave_mem.stats().epc_faults > 0);
        assert!(enclave_mem.cycles() > native_mem.cycles());
    }

    fn tiny_config() -> StorageConfig {
        StorageConfig {
            block_bytes: 256,
            flush_bytes: 1024,
            cache_blocks: 2,
            compact_at_segments: 4,
        }
    }

    fn tiered_kv(counters: &CounterService) -> SecureKv {
        SecureKv::tiered(
            tiny_config(),
            StoreKeys::new([5u8; 16]),
            counters.clone(),
            "test/tier",
        )
    }

    #[test]
    fn tiered_put_get_across_flush() {
        let mut m = mem();
        let counters = CounterService::new();
        let mut kv = tiered_kv(&counters);
        assert!(kv.is_tiered());
        for i in 0..40u32 {
            kv.try_put(&mut m, format!("key{i:04}").as_bytes(), &[i as u8; 50])
                .unwrap();
        }
        let engine = kv.storage().expect("tiered");
        assert!(engine.segment_count() > 0, "memtable should have flushed");
        // Keys from flushed segments and from the live memtable both read.
        for i in 0..40u32 {
            assert_eq!(
                get(&mut kv, &mut m, format!("key{i:04}").as_bytes()),
                Some(vec![i as u8; 50]),
                "key{i:04}"
            );
        }
        assert_eq!(kv.version(), 40);
    }

    #[test]
    fn tiered_delete_masks_sealed_records() {
        let mut m = mem();
        let counters = CounterService::new();
        let mut kv = tiered_kv(&counters);
        for i in 0..30u32 {
            kv.try_put(&mut m, format!("key{i:04}").as_bytes(), &[1u8; 50])
                .unwrap();
        }
        kv.flush_memtable(&mut m).unwrap();
        assert_eq!(kv.len(), 0, "memtable drained");
        let keys_around = |kv: &mut SecureKv, m: &mut MemorySim| -> Vec<Vec<u8>> {
            let hits = kv.try_scan(m, b"key0006", b"key0009").unwrap();
            hits.into_iter().map(|(k, _)| k).collect()
        };
        let survivors = [b"key0006".to_vec(), b"key0008".to_vec()];
        // A memtable tombstone masks the flushed key from gets and scans...
        kv.try_delete(&mut m, b"key0007").unwrap();
        assert_eq!(get(&mut kv, &mut m, b"key0007"), None);
        assert_eq!(keys_around(&mut kv, &mut m), survivors);
        // ...and, sealed in a newer segment, after its own flush.
        kv.flush_memtable(&mut m).unwrap();
        assert_eq!(kv.len(), 0, "memtable drained");
        assert_eq!(get(&mut kv, &mut m, b"key0007"), None);
        assert_eq!(keys_around(&mut kv, &mut m), survivors);
        assert_eq!(get(&mut kv, &mut m, b"key0008"), Some(vec![1u8; 50]));
    }

    /// A tiered delete is a blind tombstone: it pages no block in, logs one
    /// WAL record and bumps the version once whether or not the key exists,
    /// and compaction drops the tombstone together with the record it masks.
    #[test]
    fn a_delete_never_reads() {
        let mut m = mem();
        let counters = CounterService::new();
        let mut kv = tiered_kv(&counters);
        for i in 0..30u32 {
            kv.try_put(&mut m, format!("key{i:04}").as_bytes(), &[1u8; 50])
                .unwrap();
        }
        kv.flush_memtable(&mut m).unwrap();
        let reads = |kv: &SecureKv, m: &MemorySim| {
            let (host, engine) = (m.stats(), kv.storage().expect("tiered").stats());
            (
                host.host_reads,
                host.host_read_bytes,
                engine.blocks_read,
                engine.cache_hits,
            )
        };
        let appends = |kv: &SecureKv| kv.storage().expect("tiered").stats().wal_appends;
        let before = reads(&kv, &m);

        // A flushed key: no host read, no block paged in or found cached.
        kv.try_delete(&mut m, b"key0007").unwrap();
        assert_eq!(reads(&kv, &m), before);

        // A key absent everywhere: one tombstone, one version, no read.
        let (version, logged) = (kv.version(), appends(&kv));
        kv.try_delete(&mut m, b"nope").unwrap();
        assert_eq!(kv.version(), version + 1);
        assert_eq!(appends(&kv), logged + 1);
        assert_eq!(reads(&kv, &m), before);
        assert_eq!(get(&mut kv, &mut m, b"nope"), None);

        // Flushing the tombstones and one more put reaches
        // `compact_at_segments` (4): the merge keeps neither a tombstone nor
        // the record it masked.
        kv.flush_memtable(&mut m).unwrap();
        kv.try_put(&mut m, b"key9999", b"late").unwrap();
        kv.flush_memtable(&mut m).unwrap();
        let engine = kv.storage_mut().expect("tiered");
        assert_eq!((engine.stats().compactions, engine.segment_count()), (1, 1));
        assert_eq!(engine.lookup(&mut m, b"key0007").unwrap(), None);
        assert_eq!(engine.lookup(&mut m, b"nope").unwrap(), None);
        assert_eq!(
            engine.lookup(&mut m, b"key0008").unwrap(),
            Some(Some(vec![1u8; 50]))
        );
    }

    #[test]
    fn tiered_scan_merges_tiers() {
        let mut m = mem();
        let counters = CounterService::new();
        let mut kv = tiered_kv(&counters);
        for i in 0..20u32 {
            kv.try_put(&mut m, format!("key{i:04}").as_bytes(), b"old")
                .unwrap();
        }
        kv.flush_memtable(&mut m).unwrap();
        kv.try_put(&mut m, b"key0003", b"new").unwrap(); // memtable shadows segment
        kv.try_delete(&mut m, b"key0005").unwrap(); // tombstone hides segment record
        let hits = kv.try_scan(&mut m, b"key0002", b"key0007").unwrap();
        let got: Vec<(&[u8], &[u8])> = hits
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        assert_eq!(
            got,
            vec![
                (&b"key0002"[..], &b"old"[..]),
                (b"key0003", b"new"),
                (b"key0004", b"old"),
                (b"key0006", b"old"),
            ]
        );
    }

    #[test]
    fn tiered_reopen_recovers_both_tiers() {
        let mut m = mem();
        let counters = CounterService::new();
        let keys = StoreKeys::new([5u8; 16]);
        let mut kv = tiered_kv(&counters);
        for i in 0..35u32 {
            kv.try_put(&mut m, format!("key{i:04}").as_bytes(), &[2u8; 50])
                .unwrap();
        }
        kv.try_delete(&mut m, b"key0001").unwrap();
        let version = kv.version();
        let disk = kv.storage().unwrap().disk().clone();
        drop(kv);

        let (mut revived, report) = SecureKv::reopen(
            &mut m,
            tiny_config(),
            keys,
            counters.clone(),
            "test/tier",
            disk,
        )
        .unwrap();
        assert_eq!(revived.version(), version);
        assert!(
            report.wal_replayed < 36,
            "only the WAL tail replays, not the whole history"
        );
        assert_eq!(get(&mut revived, &mut m, b"key0001"), None);
        assert_eq!(get(&mut revived, &mut m, b"key0002"), Some(vec![2u8; 50]));
        assert_eq!(get(&mut revived, &mut m, b"key0034"), Some(vec![2u8; 50]));
    }

    #[test]
    fn tiered_incremental_snapshot_restores_and_fences() {
        let mut m = mem();
        let counters = CounterService::new();
        let keys = StoreKeys::new([5u8; 16]);
        let mut kv = tiered_kv(&counters);
        for i in 0..25u32 {
            kv.try_put(&mut m, format!("key{i:04}").as_bytes(), b"value")
                .unwrap();
        }
        let stale = kv.incremental_snapshot();
        kv.try_put(&mut m, b"key9999", b"late").unwrap();
        let fresh = kv.incremental_snapshot();
        assert!(fresh.version > stale.version);

        let mut restored = SecureKv::restore_incremental(
            &mut m,
            tiny_config(),
            keys.clone(),
            counters.clone(),
            "test/tier",
            fresh,
        )
        .unwrap();
        assert_eq!(
            get(&mut restored, &mut m, b"key9999"),
            Some(b"late".to_vec())
        );
        assert_eq!(
            get(&mut restored, &mut m, b"key0000"),
            Some(b"value".to_vec())
        );

        // The stale export is fenced by the version floor.
        let err = SecureKv::restore_incremental(
            &mut m,
            tiny_config(),
            keys,
            counters.clone(),
            "test/tier",
            stale,
        );
        assert!(matches!(
            err,
            Err(KvError::Storage(StorageError::Rollback { .. }))
        ));
    }

    #[test]
    #[should_panic(expected = "incremental_snapshot")]
    fn tiered_store_rejects_whole_snapshot() {
        let counters = CounterService::new();
        let mut kv = tiered_kv(&counters);
        let _ = kv.snapshot(&[0u8; 16], &counters, "nope");
    }

    #[test]
    fn tiered_flush_releases_memtable_epc() {
        let mut m = mem();
        let counters = CounterService::new();
        let mut kv = tiered_kv(&counters);
        kv.try_put(&mut m, b"a", &[0u8; 100]).unwrap();
        let offset = kv.map.get(b"a".as_slice()).unwrap().offset;
        // Probe with LLC-cold lines of the arena's (page-aligned) first
        // page: while the page is EPC-resident a cold line misses without
        // faulting...
        let f0 = m.stats().epc_faults;
        m.touch(offset + 512, 64);
        assert_eq!(m.stats().epc_faults, f0);
        kv.flush_memtable(&mut m).unwrap();
        // ...but after the flush frees the arena, the page is gone and the
        // next cold line faults it back in.
        m.touch(offset + 1024, 64);
        assert_eq!(m.stats().epc_faults, f0 + 1);
        assert_eq!(kv.data_bytes(), 0);
    }

    #[test]
    fn oversized_entries_get_regions_of_their_own() {
        // A 64 KiB LLC, so the probes below find the lines of both values cold.
        let geometry = MemoryGeometry {
            llc_bytes: 64 << 10,
            ..MemoryGeometry::sgx_v1()
        };
        let mut m = MemorySim::enclave(geometry, CostModel::sgx_v1());
        let config = StorageConfig {
            flush_bytes: 8 << 20,
            ..tiny_config()
        };
        let keys = StoreKeys::new([5u8; 16]);
        let mut kv = SecureKv::tiered(config, keys, CounterService::new(), "test/big");
        let big = vec![7u8; 3 << 19]; // 1.5 MiB: larger than an arena chunk
        kv.try_put(&mut m, b"a", &big).unwrap();
        kv.try_put(&mut m, b"b", &big).unwrap();
        let span = |key: &[u8]| {
            let entry = &kv.map[key];
            entry.offset..entry.offset + u64::from(entry.footprint)
        };
        let (a, b) = (span(b"a"), span(b"b"));
        assert!(a.end <= b.start || b.end <= a.start, "{a:?} meets {b:?}");
        for span in [&a, &b] {
            let inside = |r: &Region| r.base() <= span.start && span.end <= r.base() + r.len();
            assert!(
                kv.arena.chunks().iter().any(inside),
                "{span:?} leaves its region"
            );
        }
        // The flush frees both regions whole: a line past the first MiB of
        // either faults its page back in.
        kv.flush_memtable(&mut m).unwrap();
        assert!(kv.arena.chunks().is_empty());
        let faults = m.stats().epc_faults;
        m.touch(a.start + (1 << 20) + 4096, 64);
        m.touch(b.start + (1 << 20) + 4096, 64);
        assert_eq!(m.stats().epc_faults, faults + 2);
    }

    use securecloud_telemetry::{fnv1a, FNV_OFFSET};

    /// FNV-1a over `bytes`, then a separator so adjacent items cannot merge.
    fn fnv(digest: &mut u64, bytes: &[u8]) {
        *digest = fnv1a(fnv1a(*digest, bytes), &[0xff]);
    }

    /// FNV digest of everything the host holds: manifest, WAL, sealed blocks.
    fn disk_digest(disk: &HostDisk) -> u64 {
        let mut digest = FNV_OFFSET;
        fnv(&mut digest, disk.manifest.as_deref().unwrap_or_default());
        for record in &disk.wal {
            fnv(&mut digest, &record.seq.to_le_bytes());
            fnv(&mut digest, &record.sealed);
        }
        for (id, segment) in &disk.segments {
            fnv(&mut digest, &id.to_le_bytes());
            for block in &segment.blocks {
                fnv(&mut digest, block);
            }
        }
        digest
    }

    /// Drives a fixed schedule of 4 000 puts, gets, deletes and scans over a
    /// 400-key space through a tiny tiered store (256-byte blocks, 1 KiB
    /// memtable, 2-block cache, compaction at 4 segments), so the run flushes
    /// and compacts many times, scans evict cached blocks mid-scan, and
    /// tombstones shadow sealed keys. Returns the store and an FNV digest of
    /// every value a put, get or scan returned, with a fixed marker for each
    /// delete.
    fn replay_fixed_trace(mem: &mut MemorySim) -> (SecureKv, u64) {
        let mut kv = tiered_kv(&CounterService::new());
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        let key = |n: u64| format!("meter/{:04}", n % 400).into_bytes();
        let mut digest = FNV_OFFSET;
        let mut returned = |value: Option<&[u8]>| match value {
            Some(v) => fnv(&mut digest, v),
            None => fnv(&mut digest, b"\0absent"),
        };
        for _ in 0..4_000 {
            match next() % 10 {
                0..=4 => {
                    let value = vec![next() as u8; 8 + (next() % 56) as usize];
                    returned(kv.try_put(mem, &key(next()), &value).unwrap().as_deref());
                }
                5..=6 => returned(kv.try_get_ref(mem, &key(next())).unwrap()),
                7 => {
                    kv.try_delete(mem, &key(next())).unwrap();
                    returned(Some(b"\0deleted"));
                }
                _ => {
                    let from = next() % 400;
                    let to = format!("meter/{:04}", from + 1 + next() % 40).into_bytes();
                    for (k, v) in kv.try_scan(mem, &key(from), &to).unwrap() {
                        returned(Some(&k));
                        returned(Some(&v));
                    }
                }
            }
        }
        // A tombstone in a newer segment shadows the sealed key beneath it.
        kv.try_put(mem, b"meter/9999", b"sealed").unwrap();
        kv.flush_memtable(mem).unwrap();
        kv.try_delete(mem, b"meter/9999").unwrap();
        returned(Some(b"\0deleted"));
        kv.flush_memtable(mem).unwrap();
        returned(kv.try_get_ref(mem, b"meter/9999").unwrap());
        (kv, digest)
    }

    /// Zero-drift pin: simulated charges, engine and store counters, every
    /// returned value and every sealed host byte of [`replay_fixed_trace`],
    /// captured at the commit before the borrowed record path; the cycles
    /// and host transfer counts were re-captured when a sealed segment came
    /// to move in one host transfer, every literal when a delete became a
    /// blind tombstone, and the charges and `blocks_read` when a sequential
    /// walk of point lookups began paging runs of blocks. A change to any
    /// literal is a change to the cost model, to the block visit order or
    /// to the sealed format.
    #[test]
    fn fixed_trace_charges_are_pinned() {
        // One usable EPC page and a 1 KiB LLC: the block cache and the
        // memtable arena evict each other.
        let geometry = MemoryGeometry {
            line_bytes: 64,
            llc_bytes: 1 << 10,
            page_bytes: 4096,
            epc_total_bytes: 8 << 10,
            epc_reserved_bytes: 4 << 10,
        };
        let mut mem = MemorySim::enclave(geometry, CostModel::sgx_v1());
        let (kv, returned) = replay_fixed_trace(&mut mem);
        let engine = kv.storage().expect("tiered");
        assert_eq!(mem.cycles(), 247_118_728);
        assert_eq!(
            mem.stats(),
            MemStats {
                line_accesses: 26_669,
                cache_hits: 21_086,
                llc_misses: 5_583,
                epc_faults: 509,
                epc_evictions: 422,
                compute_ops: 76_476,
                bytes_allocated: 91_226_624,
                host_reads: 2_647,
                host_writes: 2_780,
                host_read_bytes: 1_755_019,
                host_write_bytes: 1_063_913,
            }
        );
        assert_eq!(
            engine.stats(),
            StorageStats {
                wal_appends: 2_435,
                wal_replayed: 0,
                flushes: 87,
                compactions: 28,
                segments_written: 115,
                blocks_written: 2_426,
                blocks_read: 4_806,
                cache_hits: 130,
                quarantined_segments: 0,
            }
        );
        assert_eq!(
            kv.stats(),
            KvStats {
                puts: 2_013,
                gets: 831,
                deletes: 422,
                scanned: 10_274,
            }
        );
        assert_eq!(returned, 0xf0e6_aa4a_0643_8ecb, "returned values");
        assert_eq!(disk_digest(engine.disk()), 0x37da_8585_b5f6_0d63);
        assert_eq!((kv.version(), engine.segment_count()), (2_435, 3));
    }

    #[test]
    fn version_monotone() {
        let mut m = mem();
        let mut kv = SecureKv::new();
        let v0 = kv.version();
        kv.try_put(&mut m, b"a", b"1").unwrap();
        let v1 = kv.version();
        kv.try_delete(&mut m, b"a").unwrap();
        let v2 = kv.version();
        assert!(v0 < v1 && v1 < v2);
    }
}
