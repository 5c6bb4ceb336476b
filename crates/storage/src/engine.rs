//! The log-structured storage engine.
//!
//! A [`StorageEngine`] owns one store's untrusted [`HostDisk`] plus the
//! small amount of trusted state needed to use it safely: the live
//! segment metadata (from the last sealed manifest), the WAL chain head,
//! and a block cache in enclave memory. All host transfers are charged
//! through [`MemorySim::charge_host_read`]/[`MemorySim::charge_host_write`]
//! and all enclave-side staging through `touch`, so the EPC-vs-host-IO
//! trade-off is visible in cycles and telemetry.
//!
//! # Crash safety
//!
//! Host writes happen in a fixed order (WAL append; segment blocks; then
//! the manifest as the single atomic commit point; then WAL truncation
//! and segment GC). A crash at any point leaves either the old manifest
//! (plus a longer WAL and possibly orphan segments, both handled at
//! [`StorageEngine::open`]) or the new manifest (plus stale WAL records
//! below `wal_start_seq`, which open skips). The test hook
//! [`StorageEngine::fail_after_host_writes`] fires a deterministic
//! [`StorageError::CrashInjected`] before the Nth host write to drive the
//! crash-recovery property tests.

use crate::disk::{HostDisk, HostSegment, SealedWalRecord};
use crate::layout::{
    block_tag, open_block, open_manifest, open_wal_record, seal_block, seal_manifest,
    seal_wal_record, wal_tag, Block, BlockMeta, Manifest, Record, RecordRef, SegmentMeta,
    WAL_GENESIS_TAG,
};
use crate::tree::merkle_root;
use crate::{CounterService, StorageConfig, StorageError, StoreKeys};
use securecloud_crypto::gcm::{AesGcm, TAG_LEN};
use securecloud_sgx::mem::{MemorySim, Region};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Counters accumulated by a [`StorageEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Records appended to the WAL.
    pub wal_appends: u64,
    /// WAL records replayed at the last [`StorageEngine::open`].
    pub wal_replayed: u64,
    /// Memtable flushes committed.
    pub flushes: u64,
    /// Compactions committed.
    pub compactions: u64,
    /// Segments written (flush + compaction).
    pub segments_written: u64,
    /// Blocks sealed and written to the host.
    pub blocks_written: u64,
    /// Blocks paged in from the host.
    pub blocks_read: u64,
    /// Lookups served from the in-enclave block cache.
    pub cache_hits: u64,
    /// Segments quarantined after integrity failures.
    pub quarantined_segments: u64,
}

/// What [`StorageEngine::open`] recovered.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The WAL tail, in append order — the memtable delta the owner must
    /// re-apply to reconstruct its in-EPC state.
    pub tail: Vec<Record>,
    /// Number of WAL records replayed (only the tail, never the world).
    pub wal_replayed: u64,
    /// Store version after replay, already checked against the trusted
    /// version floor.
    pub recovered_version: u64,
}

/// A consistent copy of the store for streaming to a new replica.
///
/// Only [`IncrementalSnapshot::trusted_bytes`] (manifest + WAL tail) must
/// cross a trusted channel; the sealed segments are self-authenticating
/// against the manifest's integrity roots and can come from any untrusted
/// mirror. Exporting advances the trusted version floor so an older
/// export can no longer be adopted.
#[derive(Debug, Clone)]
pub struct IncrementalSnapshot {
    /// Store version captured by the snapshot.
    pub version: u64,
    /// The host disk image (sealed segments + WAL tail + manifest).
    pub disk: HostDisk,
}

impl IncrementalSnapshot {
    /// Bytes that must travel through a trusted, ordered channel.
    #[must_use]
    pub fn trusted_bytes(&self) -> u64 {
        self.disk.trusted_stream_bytes()
    }

    /// Total sealed bytes including segments.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.disk.bytes()
    }
}

/// One live segment: manifest metadata plus the sealing cipher and, once
/// the integrity tree has been checked, the verified block tags.
#[derive(Debug)]
struct LiveSegment {
    meta: SegmentMeta,
    cipher: AesGcm,
    /// Block tags verified against `meta.root`; `None` until first use
    /// (or after the host bytes may have changed).
    tags: Option<Vec<[u8; TAG_LEN]>>,
}

/// A decrypted block held in enclave memory.
#[derive(Debug)]
struct CachedBlock {
    segment: u64,
    index: u32,
    /// Which slot of the cache region this block occupies (for `touch`).
    slot: usize,
    block: Block,
}

/// The log-structured segment store under one `SecureKv`.
#[derive(Debug)]
pub struct StorageEngine {
    config: StorageConfig,
    keys: StoreKeys,
    wal_cipher: AesGcm,
    counters: CounterService,
    /// Names of the trusted version-floor, commit-epoch and segment-id
    /// counters under this store's counter base.
    version_counter: String,
    commit_counter: String,
    segment_counter: String,
    disk: HostDisk,
    /// Live segments, oldest first (manifest order).
    segments: Vec<LiveSegment>,
    manifest_version: u64,
    manifest_epoch: u64,
    wal_start_seq: u64,
    wal_next_seq: u64,
    /// Chain tag of the last appended WAL record.
    wal_prev_tag: [u8; TAG_LEN],
    /// Chain anchor for `wal_start_seq` (tag of the last *folded* record).
    wal_anchor_tag: [u8; TAG_LEN],
    /// Decrypted-block cache, least recently used first.
    cache: Vec<CachedBlock>,
    free_slots: Vec<usize>,
    cache_region: Option<Region>,
    stats: StorageStats,
    /// Test hook: `Some(n)` makes the (n+1)-th host write fail with
    /// [`StorageError::CrashInjected`] before any bytes land.
    fail_after_host_writes: Option<u64>,
}

impl StorageEngine {
    /// Creates a fresh, empty store. For recovery from existing host
    /// bytes use [`StorageEngine::open`], which performs the rollback and
    /// integrity checks a fresh create skips.
    #[must_use]
    pub fn create(
        config: StorageConfig,
        keys: StoreKeys,
        counters: CounterService,
        counter_base: impl Into<String>,
    ) -> Self {
        let cap = config.cache_blocks.max(1);
        let [version_counter, commit_counter, segment_counter] =
            counter_names(&counter_base.into());
        StorageEngine {
            wal_cipher: AesGcm::new(&keys.wal_key()),
            config,
            keys,
            counters,
            version_counter,
            commit_counter,
            segment_counter,
            disk: HostDisk::new(),
            segments: Vec::new(),
            manifest_version: 0,
            manifest_epoch: 0,
            wal_start_seq: 0,
            wal_next_seq: 0,
            wal_prev_tag: WAL_GENESIS_TAG,
            wal_anchor_tag: WAL_GENESIS_TAG,
            cache: Vec::new(),
            free_slots: (0..cap).rev().collect(),
            cache_region: None,
            stats: StorageStats::default(),
            fail_after_host_writes: None,
        }
    }

    /// Recovers a store from untrusted host bytes: opens the sealed
    /// manifest, discards orphan segments and stale WAL records from
    /// interrupted commits, replays (only) the WAL tail along its MAC
    /// chain, and checks the recovered version against the trusted floor.
    ///
    /// # Errors
    ///
    /// [`StorageError::Rollback`] if the host served older state than the
    /// trusted counter has seen; [`StorageError::Corrupt`] /
    /// [`StorageError::Crypto`] if the structure is malformed or fails
    /// authentication.
    pub fn open(
        mem: &mut MemorySim,
        config: StorageConfig,
        keys: StoreKeys,
        counters: CounterService,
        counter_base: impl Into<String>,
        mut disk: HostDisk,
    ) -> Result<(Self, ReplayReport), StorageError> {
        let [version_counter, commit_counter, segment_counter] =
            counter_names(&counter_base.into());
        let version_floor = counters.read(&version_counter);
        let commit_floor = counters.read(&commit_counter);

        let manifest = match &disk.manifest {
            None => Manifest {
                version: 0,
                epoch: 0,
                wal_start_seq: 0,
                wal_anchor_tag: WAL_GENESIS_TAG,
                segments: Vec::new(),
            },
            Some(sealed) => {
                mem.charge_host_read(sealed.len() as u64);
                let manifest = open_manifest(&keys, sealed)?;
                if manifest.epoch > commit_floor {
                    return Err(StorageError::Corrupt(format!(
                        "manifest epoch {} ahead of trusted commit counter {commit_floor}",
                        manifest.epoch
                    )));
                }
                manifest
            }
        };

        // Discard orphan segments from interrupted flushes/compactions.
        let live: BTreeSet<u64> = manifest.segments.iter().map(|s| s.id).collect();
        disk.segments.retain(|id, _| live.contains(id));

        let mut segments = Vec::with_capacity(manifest.segments.len());
        for meta in &manifest.segments {
            let host = disk.segments.get(&meta.id).ok_or_else(|| {
                StorageError::Corrupt(format!(
                    "manifest lists segment {} but host lacks it",
                    meta.id
                ))
            })?;
            if host.blocks.len() != meta.blocks.len() {
                return Err(StorageError::Corrupt(format!(
                    "segment {}: host has {} blocks, manifest {}",
                    meta.id,
                    host.blocks.len(),
                    meta.blocks.len()
                )));
            }
            segments.push(LiveSegment {
                cipher: AesGcm::new(&keys.segment_key(meta.id)),
                meta: meta.clone(),
                tags: None,
            });
        }

        // Replay the WAL tail along its MAC chain. Records below
        // `wal_start_seq` are leftovers of a commit that crashed before
        // truncation; skip them.
        let wal_cipher = AesGcm::new(&keys.wal_key());
        let mut tail = Vec::new();
        let mut prev_tag = manifest.wal_anchor_tag;
        let mut next_seq = manifest.wal_start_seq;
        for rec in &disk.wal {
            if rec.seq < manifest.wal_start_seq {
                continue;
            }
            if rec.seq != next_seq {
                return Err(StorageError::Corrupt(format!(
                    "WAL gap: expected seq {next_seq}, found {}",
                    rec.seq
                )));
            }
            mem.charge_host_read(8 + rec.sealed.len() as u64);
            mem.charge_ops(2 + rec.sealed.len() as u64 / 64);
            let record = open_wal_record(&wal_cipher, rec.seq, &prev_tag, &rec.sealed)?;
            prev_tag = wal_tag(&rec.sealed)?;
            tail.push(record);
            next_seq += 1;
        }
        disk.wal.retain(|r| r.seq >= manifest.wal_start_seq);

        let recovered_version = manifest.version + tail.len() as u64;
        if recovered_version < version_floor {
            return Err(StorageError::Rollback {
                recovered_version,
                counter_version: version_floor,
            });
        }
        // Re-advance counters that may lag the host after a crash between
        // a host write and the corresponding counter bump.
        counters.advance_to(&version_counter, recovered_version);

        let cap = config.cache_blocks.max(1);
        let wal_replayed = tail.len() as u64;
        let engine = StorageEngine {
            wal_cipher,
            config,
            keys,
            counters,
            version_counter,
            commit_counter,
            segment_counter,
            disk,
            segments,
            manifest_version: manifest.version,
            manifest_epoch: manifest.epoch,
            wal_start_seq: manifest.wal_start_seq,
            wal_next_seq: next_seq,
            wal_prev_tag: prev_tag,
            wal_anchor_tag: manifest.wal_anchor_tag,
            cache: Vec::new(),
            free_slots: (0..cap).rev().collect(),
            cache_region: None,
            stats: StorageStats {
                wal_replayed,
                ..StorageStats::default()
            },
            fail_after_host_writes: None,
        };
        Ok((
            engine,
            ReplayReport {
                tail,
                wal_replayed,
                recovered_version,
            },
        ))
    }

    /// Store version: mutations folded into segments plus the WAL tail.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.manifest_version + (self.wal_next_seq - self.wal_start_seq)
    }

    /// WAL records not yet folded into a segment.
    #[must_use]
    pub fn wal_pending(&self) -> u64 {
        self.wal_next_seq - self.wal_start_seq
    }

    /// Live segment count.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total sealed blocks across live segments.
    #[must_use]
    pub fn block_count(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| s.meta.blocks.len() as u64)
            .sum()
    }

    /// Engine counters.
    #[must_use]
    pub fn stats(&self) -> StorageStats {
        self.stats
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    /// The untrusted host disk (for persistence across a simulated
    /// restart: clone it, drop the engine, [`StorageEngine::open`]).
    #[must_use]
    pub fn disk(&self) -> &HostDisk {
        &self.disk
    }

    /// The trusted counter service backing rollback protection. A restart
    /// must reopen against the same service (or a replica of it) for the
    /// version and epoch floors to mean anything.
    #[must_use]
    pub fn counters(&self) -> &CounterService {
        &self.counters
    }

    /// Arms (or disarms) the crash hook: with `Some(n)`, the `n+1`-th
    /// subsequent host write fails with [`StorageError::CrashInjected`]
    /// before any bytes land. After a crash fires the engine must be
    /// discarded and reopened from a clone of the disk.
    pub fn fail_after_host_writes(&mut self, writes: Option<u64>) {
        self.fail_after_host_writes = writes;
    }

    fn maybe_crash(&mut self) -> Result<(), StorageError> {
        if let Some(n) = &mut self.fail_after_host_writes {
            if *n == 0 {
                return Err(StorageError::CrashInjected);
            }
            *n -= 1;
        }
        Ok(())
    }

    /// Appends one mutation to the sealed WAL (the durability point of a
    /// put/delete) and advances the trusted version floor.
    ///
    /// # Errors
    ///
    /// [`StorageError::CrashInjected`] if the crash hook fires.
    pub fn append<'a>(
        &mut self,
        mem: &mut MemorySim,
        record: impl Into<RecordRef<'a>>,
    ) -> Result<(), StorageError> {
        let seq = self.wal_next_seq;
        let sealed = seal_wal_record(&self.wal_cipher, seq, &self.wal_prev_tag, record.into());
        let tag = wal_tag(&sealed)?;
        mem.charge_ops(2 + sealed.len() as u64 / 64);
        self.maybe_crash()?;
        mem.charge_host_write(8 + sealed.len() as u64);
        self.disk.wal.push(SealedWalRecord { seq, sealed });
        self.wal_next_seq = seq + 1;
        self.wal_prev_tag = tag;
        self.stats.wal_appends += 1;
        self.counters
            .advance_to(&self.version_counter, self.version());
        Ok(())
    }

    /// Seals `records` (the drained memtable: sorted, unique keys, with
    /// tombstones) into a new segment, commits a manifest folding in the
    /// WAL, then compacts if the segment count crossed the threshold.
    ///
    /// # Errors
    ///
    /// [`StorageError::CrashInjected`] mid-commit (the engine must then
    /// be discarded), or an integrity error surfaced by a triggered
    /// compaction.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if `records` is not sorted by unique key.
    pub fn flush<'a, I>(&mut self, mem: &mut MemorySim, records: I) -> Result<(), StorageError>
    where
        I: IntoIterator,
        I::Item: Into<RecordRef<'a>>,
    {
        let records: Vec<RecordRef<'a>> = records.into_iter().map(Into::into).collect();
        debug_assert!(
            records.windows(2).all(|w| w[0].key < w[1].key),
            "flush records must be sorted by unique key"
        );
        if records.is_empty() {
            return Ok(());
        }
        let new_segment = self.write_segment(mem, &records)?;
        let mut segments: Vec<SegmentMeta> = self.segments.iter().map(|s| s.meta.clone()).collect();
        segments.push(new_segment.meta.clone());
        self.segments.push(new_segment);
        self.commit_manifest(
            mem,
            segments,
            self.version(),
            self.wal_next_seq,
            self.wal_prev_tag,
        )?;
        self.stats.flushes += 1;
        if self.segments.len() >= self.config.compact_at_segments.max(2) {
            self.compact(mem)?;
        }
        Ok(())
    }

    /// Deterministically merges every live segment into one, dropping
    /// shadowed records and tombstones. A segment that fails its
    /// integrity check during the merge is quarantined (its records are
    /// lost) rather than wedging the store.
    ///
    /// # Errors
    ///
    /// [`StorageError::CrashInjected`] mid-commit, or a non-integrity
    /// error reading the host.
    pub fn compact(&mut self, mem: &mut MemorySim) -> Result<(), StorageError> {
        if self.segments.len() < 2 {
            return Ok(());
        }
        let mut blocks = Vec::new();
        for si in 0..self.segments.len() {
            match self.read_segment_blocks(mem, si) {
                Ok(segment) => blocks.extend(segment),
                Err(StorageError::Integrity { .. }) => {
                    self.stats.quarantined_segments += 1;
                }
                Err(e) => return Err(e),
            }
        }
        // Every segment is a key-sorted run, oldest first: a stable sort
        // merges the runs and leaves each key's newest version last.
        let mut merged: Vec<RecordRef<'_>> = blocks.iter().flat_map(Block::iter).collect();
        merged.sort_by_key(|r| r.key);
        merged.dedup_by(|newer, kept| {
            let shadows = newer.key == kept.key;
            if shadows {
                *kept = *newer;
            }
            shadows
        });
        merged.retain(|r| r.value.is_some());
        let mut segments = Vec::new();
        let mut metas = Vec::new();
        if !merged.is_empty() {
            let segment = self.write_segment(mem, &merged)?;
            metas.push(segment.meta.clone());
            segments.push(segment);
        }
        self.segments = segments;
        self.commit_manifest(
            mem,
            metas,
            self.manifest_version,
            self.wal_start_seq,
            self.wal_anchor_tag,
        )?;
        self.stats.compactions += 1;
        Ok(())
    }

    /// Seals `records` into a fresh segment on the host. The segment id
    /// comes from a trusted counter and is never reused, so per-block
    /// nonces stay unique even across crash-discarded attempts.
    fn write_segment(
        &mut self,
        mem: &mut MemorySim,
        records: &[RecordRef<'_>],
    ) -> Result<LiveSegment, StorageError> {
        let seg_id = self.counters.increment(&self.segment_counter);
        let cipher = AesGcm::new(&self.keys.segment_key(seg_id));
        self.disk.segments.insert(seg_id, HostSegment::default());
        let mut tags = Vec::new();
        let mut blocks = Vec::new();
        let mut bytes = 0u64;
        for (index, chunk) in pack_blocks(records, self.config.block_bytes)
            .into_iter()
            .enumerate()
        {
            let chunk = &records[chunk.0..chunk.1];
            let sealed = seal_block(&cipher, seg_id, index as u32, chunk);
            mem.charge_ops(2 + sealed.len() as u64 / 64);
            self.maybe_crash()?;
            mem.charge_host_write(sealed.len() as u64);
            bytes += sealed.len() as u64;
            tags.push(block_tag(&sealed)?);
            blocks.push(BlockMeta {
                first_key: chunk[0].key.to_vec(),
                last_key: chunk[chunk.len() - 1].key.to_vec(),
                records: chunk.len() as u32,
            });
            self.disk
                .segments
                .get_mut(&seg_id)
                .expect("segment entry created above")
                .blocks
                .push(sealed);
            self.stats.blocks_written += 1;
        }
        self.stats.segments_written += 1;
        Ok(LiveSegment {
            meta: SegmentMeta {
                id: seg_id,
                root: merkle_root(&tags),
                records: records.len() as u64,
                bytes,
                blocks,
            },
            cipher,
            tags: Some(tags),
        })
    }

    /// Seals and writes a manifest — the atomic commit point — then
    /// truncates folded WAL records and GCs unreferenced host segments.
    /// `self.segments` must already reflect `segments`.
    fn commit_manifest(
        &mut self,
        mem: &mut MemorySim,
        segments: Vec<SegmentMeta>,
        version: u64,
        wal_start_seq: u64,
        wal_anchor_tag: [u8; TAG_LEN],
    ) -> Result<(), StorageError> {
        let epoch = self.counters.increment(&self.commit_counter);
        let manifest = Manifest {
            version,
            epoch,
            wal_start_seq,
            wal_anchor_tag,
            segments,
        };
        let sealed = seal_manifest(&self.keys, &manifest);
        mem.charge_ops(2 + sealed.len() as u64 / 64);
        self.maybe_crash()?;
        mem.charge_host_write(sealed.len() as u64);
        self.disk.manifest = Some(sealed);
        self.manifest_version = version;
        self.manifest_epoch = epoch;
        self.wal_start_seq = wal_start_seq;
        self.wal_anchor_tag = wal_anchor_tag;
        self.counters
            .advance_to(&self.version_counter, self.version());
        // Post-commit cleanup; a crash here only leaves garbage that the
        // next open discards.
        let live: BTreeSet<u64> = manifest.segments.iter().map(|s| s.id).collect();
        self.maybe_crash()?;
        mem.charge_host_write(8);
        self.disk.wal.retain(|r| r.seq >= wal_start_seq);
        self.disk.segments.retain(|id, _| live.contains(id));
        self.purge_cache(|c| live.contains(&c.segment));
        Ok(())
    }

    /// Drops cache entries failing `keep`, returning their slots.
    fn purge_cache(&mut self, keep: impl Fn(&CachedBlock) -> bool) {
        let mut kept = Vec::with_capacity(self.cache.len());
        for block in self.cache.drain(..) {
            if keep(&block) {
                kept.push(block);
            } else {
                self.free_slots.push(block.slot);
            }
        }
        self.cache = kept;
    }

    /// Looks up `key` in the sealed segments, newest first. Returns
    /// `None` if no segment holds the key, `Some(None)` for a tombstone,
    /// and `Some(Some(value))` for a live record (borrowed from the
    /// in-enclave block cache).
    ///
    /// # Errors
    ///
    /// [`StorageError::Integrity`] if a required block fails
    /// verification; [`StorageError::Corrupt`] if the host lost it.
    pub fn lookup_ref(
        &mut self,
        mem: &mut MemorySim,
        key: &[u8],
    ) -> Result<Option<Option<&[u8]>>, StorageError> {
        let Some((cache_pos, record_pos)) = self.locate(mem, key)? else {
            return Ok(None);
        };
        Ok(Some(self.cache[cache_pos].block.get(record_pos).value))
    }

    /// Owned-value variant of [`StorageEngine::lookup_ref`].
    ///
    /// # Errors
    ///
    /// As [`StorageEngine::lookup_ref`].
    pub fn lookup(
        &mut self,
        mem: &mut MemorySim,
        key: &[u8],
    ) -> Result<Option<Option<Vec<u8>>>, StorageError> {
        Ok(self.lookup_ref(mem, key)?.map(|v| v.map(<[u8]>::to_vec)))
    }

    /// Finds `key`'s newest record as (cache position, record position).
    fn locate(
        &mut self,
        mem: &mut MemorySim,
        key: &[u8],
    ) -> Result<Option<(usize, usize)>, StorageError> {
        for si in (0..self.segments.len()).rev() {
            let Some(bi) = block_for_key(&self.segments[si].meta, key) else {
                continue;
            };
            let cache_pos = self.ensure_cached(mem, si, bi)?;
            if let Some(ri) = self.cache[cache_pos].block.position(key) {
                return Ok(Some((cache_pos, ri)));
            }
        }
        Ok(None)
    }

    /// Merges segment records in `[lo, hi)` (unbounded above when `hi` is
    /// `None`) into `out`, newest record winning; tombstones surface as
    /// `None` values so the caller can mask deleted keys.
    ///
    /// # Errors
    ///
    /// As [`StorageEngine::lookup_ref`], for any block in range.
    pub fn scan_into(
        &mut self,
        mem: &mut MemorySim,
        lo: &[u8],
        hi: Option<&[u8]>,
        out: &mut BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    ) -> Result<(), StorageError> {
        for si in 0..self.segments.len() {
            for bi in blocks_in_range(&self.segments[si].meta, lo, hi) {
                let cache_pos = self.ensure_cached(mem, si, bi)?;
                for record in self.cache[cache_pos].block.iter() {
                    if record.key >= lo && hi.is_none_or(|h| record.key < h) {
                        record.merge_into(out);
                    }
                }
            }
        }
        Ok(())
    }

    /// Verifies segment `si`'s integrity tree against the host's current
    /// block tags, caching the verified tag list.
    fn ensure_verified(&mut self, mem: &mut MemorySim, si: usize) -> Result<(), StorageError> {
        if self.segments[si].tags.is_some() {
            return Ok(());
        }
        let seg_id = self.segments[si].meta.id;
        let expected_root = self.segments[si].meta.root;
        let expected_blocks = self.segments[si].meta.blocks.len();
        let host = self
            .disk
            .segments
            .get(&seg_id)
            .ok_or_else(|| StorageError::Corrupt(format!("host lost segment {seg_id}")))?;
        if host.blocks.len() != expected_blocks {
            return Err(StorageError::Corrupt(format!(
                "segment {seg_id}: host has {} blocks, manifest {expected_blocks}",
                host.blocks.len()
            )));
        }
        // One pass over 16 bytes per block, not the blocks themselves.
        mem.charge_host_read((TAG_LEN * host.blocks.len()) as u64);
        let tags = host
            .blocks
            .iter()
            .map(|b| block_tag(b))
            .collect::<Result<Vec<_>, _>>()?;
        mem.charge_ops(1 + tags.len() as u64);
        if merkle_root(&tags) != expected_root {
            return Err(StorageError::Integrity {
                segment: seg_id,
                block: None,
            });
        }
        self.segments[si].tags = Some(tags);
        Ok(())
    }

    /// Ensures block `bi` of segment `si` is decrypted in the cache,
    /// paging it in (with verification) on a miss. Returns its position
    /// in `self.cache`.
    fn ensure_cached(
        &mut self,
        mem: &mut MemorySim,
        si: usize,
        bi: usize,
    ) -> Result<usize, StorageError> {
        let seg_id = self.segments[si].meta.id;
        if let Some(pos) = self
            .cache
            .iter()
            .position(|c| c.segment == seg_id && c.index == bi as u32)
        {
            // Move to most-recently-used; charge the staging touch.
            let block = self.cache.remove(pos);
            let slot = block.slot;
            self.cache.push(block);
            self.stats.cache_hits += 1;
            mem.charge_ops(1);
            self.touch_slot(mem, slot);
            return Ok(self.cache.len() - 1);
        }
        self.ensure_verified(mem, si)?;
        let block = self.read_block(mem, si, bi)?;
        let cap = self.config.cache_blocks.max(1);
        if self.cache.len() >= cap {
            let evicted = self.cache.remove(0);
            self.free_slots.push(evicted.slot);
        }
        let slot = self.free_slots.pop().expect("slot freed or available");
        self.touch_slot(mem, slot);
        self.cache.push(CachedBlock {
            segment: seg_id,
            index: bi as u32,
            slot,
            block,
        });
        self.stats.blocks_read += 1;
        Ok(self.cache.len() - 1)
    }

    /// Charges the enclave-memory cost of staging a block in cache slot
    /// `slot` (the cache competes with the memtable for EPC).
    fn touch_slot(&mut self, mem: &mut MemorySim, slot: usize) {
        let cap = self.config.cache_blocks.max(1);
        let region = match self.cache_region {
            Some(region) => region,
            None => {
                let region = mem.alloc((cap * self.config.block_bytes) as u64);
                self.cache_region = Some(region);
                region
            }
        };
        mem.touch_region(
            region,
            (slot * self.config.block_bytes) as u64,
            self.config.block_bytes,
        );
    }

    /// Reads and authenticates every block of segment `si`, in index order
    /// (used by compaction and scrubbing; bypasses the cache).
    fn read_segment_blocks(
        &mut self,
        mem: &mut MemorySim,
        si: usize,
    ) -> Result<Vec<Block>, StorageError> {
        self.ensure_verified(mem, si)?;
        (0..self.segments[si].meta.blocks.len())
            .map(|bi| self.read_block(mem, si, bi))
            .collect()
    }

    /// Reads block `bi` of the verified segment `si` off the host, checks
    /// its tag against the integrity tree and opens it. The host's bytes are
    /// borrowed, not cloned: the only copy is the buffer `open_block`
    /// decrypts in.
    fn read_block(&self, mem: &mut MemorySim, si: usize, bi: usize) -> Result<Block, StorageError> {
        let segment = &self.segments[si];
        let seg_id = segment.meta.id;
        let sealed = self
            .disk
            .segments
            .get(&seg_id)
            .and_then(|s| s.blocks.get(bi))
            .ok_or_else(|| {
                StorageError::Corrupt(format!("host lost segment {seg_id} block {bi}"))
            })?;
        mem.charge_host_read(sealed.len() as u64);
        let verified = segment.tags.as_ref().expect("verified by the caller");
        if block_tag(sealed)? != verified[bi] {
            return Err(StorageError::Integrity {
                segment: seg_id,
                block: Some(bi as u32),
            });
        }
        mem.charge_ops(2 + sealed.len() as u64 / 64);
        open_block(&segment.cipher, seg_id, bi as u32, sealed)
    }

    /// Re-verifies every live segment against the host's *current* bytes
    /// (integrity tree plus full per-block authentication), quarantines
    /// any that fail, and commits a manifest without them. Returns the
    /// quarantined segment ids — their records are lost locally and must
    /// be recovered from a replica.
    ///
    /// # Errors
    ///
    /// [`StorageError::CrashInjected`] mid-commit, or a non-integrity
    /// host error.
    pub fn scrub(&mut self, mem: &mut MemorySim) -> Result<Vec<u64>, StorageError> {
        let mut quarantined = Vec::new();
        for si in 0..self.segments.len() {
            self.segments[si].tags = None;
            match self.read_segment_blocks(mem, si) {
                Ok(_) => {}
                Err(StorageError::Integrity { segment, .. }) => quarantined.push(segment),
                Err(e) => return Err(e),
            }
        }
        if quarantined.is_empty() {
            return Ok(quarantined);
        }
        self.stats.quarantined_segments += quarantined.len() as u64;
        self.segments.retain(|s| !quarantined.contains(&s.meta.id));
        let metas: Vec<SegmentMeta> = self.segments.iter().map(|s| s.meta.clone()).collect();
        self.commit_manifest(
            mem,
            metas,
            self.manifest_version,
            self.wal_start_seq,
            self.wal_anchor_tag,
        )?;
        Ok(quarantined)
    }

    /// Deterministically flips one bit of one sealed block on the host
    /// (fault injection: `pick` selects block and bit). Returns the
    /// `(segment, block)` hit, or `None` if no blocks exist. The damage
    /// is to *untrusted* bytes only; the next verified access or
    /// [`StorageEngine::scrub`] detects it.
    pub fn corrupt_block(&mut self, pick: u64) -> Option<(u64, u32)> {
        let total = self.block_count();
        if total == 0 {
            return None;
        }
        let mut idx = pick % total;
        let mut target = None;
        for (si, seg) in self.segments.iter().enumerate() {
            let n = seg.meta.blocks.len() as u64;
            if idx < n {
                target = Some((si, seg.meta.id, idx as u32));
                break;
            }
            idx -= n;
        }
        let (si, seg_id, bi) = target?;
        let block = self
            .disk
            .segments
            .get_mut(&seg_id)?
            .blocks
            .get_mut(bi as usize)?;
        let pos = (pick as usize) % block.len();
        block[pos] ^= 1 << (pick % 8);
        // Invalidate trusted copies of the now-stale host bytes so the
        // corruption is observable.
        self.segments[si].tags = None;
        self.purge_cache(|c| c.segment != seg_id);
        Some((seg_id, bi))
    }

    /// Captures a consistent copy of the store for streaming to a new
    /// replica and advances the trusted version floor to fence out any
    /// older export.
    #[must_use]
    pub fn export(&self) -> IncrementalSnapshot {
        self.counters
            .advance_to(&self.version_counter, self.version());
        IncrementalSnapshot {
            version: self.version(),
            disk: self.disk.clone(),
        }
    }
}

/// Greedily packs sorted records into `(start, end)` runs whose encoded
/// size fits `block_bytes` (always at least one record per block).
fn pack_blocks(records: &[RecordRef<'_>], block_bytes: usize) -> Vec<(usize, usize)> {
    let mut chunks = Vec::new();
    let mut start = 0;
    let mut used = 0usize;
    for (i, record) in records.iter().enumerate() {
        let len = record.encoded_len();
        if i > start && used + len > block_bytes {
            chunks.push((start, i));
            start = i;
            used = 0;
        }
        used += len;
    }
    if start < records.len() {
        chunks.push((start, records.len()));
    }
    chunks
}

/// Binary-searches a segment's block index for the block whose key range
/// could contain `key`.
fn block_for_key(meta: &SegmentMeta, key: &[u8]) -> Option<usize> {
    let idx = meta.blocks.partition_point(|b| b.last_key.as_slice() < key);
    (idx < meta.blocks.len() && meta.blocks[idx].first_key.as_slice() <= key).then_some(idx)
}

/// The (contiguous) run of a segment's blocks whose key range meets
/// `[lo, hi)`, unbounded above when `hi` is `None`.
fn blocks_in_range(meta: &SegmentMeta, lo: &[u8], hi: Option<&[u8]>) -> Range<usize> {
    let start = meta.blocks.partition_point(|b| b.last_key.as_slice() < lo);
    let end = meta
        .blocks
        .partition_point(|b| hi.is_none_or(|h| b.first_key.as_slice() < h));
    start..end
}

/// The trusted version-floor, commit-epoch and segment-id counter names
/// under `base`.
fn counter_names(base: &str) -> [String; 3] {
    ["version", "commit", "segment"].map(|what| format!("{base}/storage-{what}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use securecloud_sgx::costs::{CostModel, MemoryGeometry};

    fn mem() -> MemorySim {
        MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::sgx_v1())
    }

    fn engine(counters: &CounterService, base: &str) -> StorageEngine {
        StorageEngine::create(
            StorageConfig {
                block_bytes: 256,
                flush_bytes: 1 << 10,
                cache_blocks: 2,
                compact_at_segments: 4,
            },
            StoreKeys::new([1u8; 16]),
            counters.clone(),
            base,
        )
    }

    fn put(i: u32) -> Record {
        Record::Put {
            key: format!("key{i:04}").into_bytes(),
            value: vec![i as u8; 40],
        }
    }

    fn sorted_puts(range: std::ops::Range<u32>) -> Vec<Record> {
        range.map(put).collect()
    }

    #[test]
    fn flush_then_lookup_pages_blocks_in() {
        let counters = CounterService::new();
        let mut e = engine(&counters, "t1");
        let mut m = mem();
        for i in 0..50 {
            e.append(&mut m, &put(i)).unwrap();
        }
        e.flush(&mut m, &sorted_puts(0..50)).unwrap();
        assert_eq!(e.version(), 50);
        assert_eq!(e.wal_pending(), 0);
        assert_eq!(e.segment_count(), 1);
        assert!(e.block_count() > 1, "multiple blocks at 256 B blocks");
        let host_reads_before = m.stats().host_reads;
        assert_eq!(
            e.lookup(&mut m, b"key0007").unwrap(),
            Some(Some(vec![7u8; 40]))
        );
        assert!(m.stats().host_reads > host_reads_before, "paged from host");
        assert_eq!(e.lookup(&mut m, b"nope").unwrap(), None);
        // Cache hit on re-read.
        let reads = e.stats().blocks_read;
        assert_eq!(
            e.lookup(&mut m, b"key0007").unwrap(),
            Some(Some(vec![7u8; 40]))
        );
        assert_eq!(e.stats().blocks_read, reads);
        assert!(e.stats().cache_hits >= 1);
    }

    #[test]
    fn newest_segment_wins_and_tombstones_shadow() {
        let counters = CounterService::new();
        let mut e = engine(&counters, "t2");
        let mut m = mem();
        e.flush(&mut m, &sorted_puts(0..10)).unwrap();
        let newer = vec![
            Record::Put {
                key: b"key0003".to_vec(),
                value: b"new".to_vec(),
            },
            Record::Tombstone {
                key: b"key0004".to_vec(),
            },
        ];
        e.flush(&mut m, &newer).unwrap();
        assert_eq!(
            e.lookup(&mut m, b"key0003").unwrap(),
            Some(Some(b"new".to_vec()))
        );
        assert_eq!(e.lookup(&mut m, b"key0004").unwrap(), Some(None));
        assert_eq!(
            e.lookup(&mut m, b"key0005").unwrap(),
            Some(Some(vec![5u8; 40]))
        );
    }

    #[test]
    fn compaction_merges_and_drops_tombstones() {
        let counters = CounterService::new();
        let mut e = engine(&counters, "t3");
        let mut m = mem();
        e.flush(&mut m, &sorted_puts(0..10)).unwrap();
        e.flush(
            &mut m,
            &[Record::Tombstone {
                key: b"key0001".to_vec(),
            }],
        )
        .unwrap();
        e.compact(&mut m).unwrap();
        assert_eq!(e.segment_count(), 1);
        // The tombstone is gone entirely, not just shadowing.
        assert_eq!(e.lookup(&mut m, b"key0001").unwrap(), None);
        assert_eq!(
            e.lookup(&mut m, b"key0002").unwrap(),
            Some(Some(vec![2u8; 40]))
        );
        assert_eq!(e.stats().compactions, 1);
        // Old segments were GCed from the host.
        assert_eq!(e.disk().segments.len(), 1);
    }

    #[test]
    fn auto_compaction_bounds_segment_count() {
        let counters = CounterService::new();
        let mut e = engine(&counters, "t4");
        let mut m = mem();
        for round in 0..10u32 {
            let batch = sorted_puts(round * 5..round * 5 + 5);
            for r in &batch {
                e.append(&mut m, r).unwrap();
            }
            e.flush(&mut m, &batch).unwrap();
        }
        assert!(
            e.segment_count() < 4,
            "auto-compaction kept segments bounded"
        );
        assert!(e.stats().compactions >= 1);
        assert_eq!(e.version(), 50);
        for i in [0u32, 17, 49] {
            assert_eq!(
                e.lookup(&mut m, format!("key{i:04}").as_bytes()).unwrap(),
                Some(Some(vec![i as u8; 40]))
            );
        }
    }

    #[test]
    fn reopen_replays_only_wal_tail() {
        let counters = CounterService::new();
        let mut e = engine(&counters, "t5");
        let mut m = mem();
        for i in 0..30 {
            e.append(&mut m, &put(i)).unwrap();
        }
        e.flush(&mut m, &sorted_puts(0..30)).unwrap();
        for i in 30..33 {
            e.append(&mut m, &put(i)).unwrap();
        }
        let disk = e.disk().clone();
        drop(e);
        let mut m2 = mem();
        let (mut e2, report) = StorageEngine::open(
            &mut m2,
            StorageConfig {
                block_bytes: 256,
                flush_bytes: 1 << 10,
                cache_blocks: 2,
                compact_at_segments: 4,
            },
            StoreKeys::new([1u8; 16]),
            counters.clone(),
            "t5",
            disk,
        )
        .unwrap();
        assert_eq!(report.wal_replayed, 3, "only the tail, not all 33");
        assert_eq!(report.recovered_version, 33);
        assert_eq!(report.tail.len(), 3);
        assert_eq!(report.tail[0], put(30));
        assert_eq!(
            e2.lookup(&mut m2, b"key0012").unwrap(),
            Some(Some(vec![12u8; 40]))
        );
    }

    #[test]
    fn stale_disk_is_rejected_as_rollback() {
        let counters = CounterService::new();
        let mut e = engine(&counters, "t6");
        let mut m = mem();
        for i in 0..10 {
            e.append(&mut m, &put(i)).unwrap();
        }
        e.flush(&mut m, &sorted_puts(0..10)).unwrap();
        let stale = e.disk().clone(); // version 10
        for i in 10..15 {
            e.append(&mut m, &put(i)).unwrap();
        }
        drop(e); // version floor is now 15
        let err = StorageEngine::open(
            &mut mem(),
            StorageConfig::default(),
            StoreKeys::new([1u8; 16]),
            counters.clone(),
            "t6",
            stale,
        )
        .unwrap_err();
        assert_eq!(
            err,
            StorageError::Rollback {
                recovered_version: 10,
                counter_version: 15
            }
        );
        // An empty disk (host "lost" everything) is also a rollback.
        let err = StorageEngine::open(
            &mut mem(),
            StorageConfig::default(),
            StoreKeys::new([1u8; 16]),
            counters.clone(),
            "t6",
            HostDisk::new(),
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::Rollback { .. }));
    }

    #[test]
    fn corrupt_block_is_detected_and_quarantined() {
        let counters = CounterService::new();
        let mut e = engine(&counters, "t7");
        let mut m = mem();
        e.flush(&mut m, &sorted_puts(0..40)).unwrap();
        let blocks = e.block_count();
        let (seg, _block) = e.corrupt_block(12345).unwrap();
        let quarantined = e.scrub(&mut m).unwrap();
        assert_eq!(quarantined, vec![seg]);
        assert_eq!(e.segment_count(), 0);
        assert_eq!(e.stats().quarantined_segments, 1);
        assert!(blocks > 0);
        // The store still works after quarantine (data lost locally).
        assert_eq!(e.lookup(&mut m, b"key0001").unwrap(), None);
        e.flush(&mut m, &sorted_puts(0..5)).unwrap();
        assert_eq!(
            e.lookup(&mut m, b"key0001").unwrap(),
            Some(Some(vec![1u8; 40]))
        );
    }

    #[test]
    fn lookup_detects_corruption_without_scrub() {
        let counters = CounterService::new();
        let mut e = engine(&counters, "t8");
        let mut m = mem();
        e.flush(&mut m, &sorted_puts(0..40)).unwrap();
        e.corrupt_block(7).unwrap();
        // Some key in the corrupted segment must fail with Integrity.
        let mut saw_integrity = false;
        for i in 0..40 {
            match e.lookup(&mut m, format!("key{i:04}").as_bytes()) {
                Ok(_) => {}
                Err(StorageError::Integrity { .. }) => {
                    saw_integrity = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(saw_integrity);
    }

    #[test]
    fn scan_merges_segments_newest_wins() {
        let counters = CounterService::new();
        let mut e = engine(&counters, "t9");
        let mut m = mem();
        e.flush(&mut m, &sorted_puts(0..10)).unwrap();
        e.flush(
            &mut m,
            &[
                Record::Put {
                    key: b"key0002".to_vec(),
                    value: b"v2".to_vec(),
                },
                Record::Tombstone {
                    key: b"key0003".to_vec(),
                },
            ],
        )
        .unwrap();
        let mut out = BTreeMap::new();
        e.scan_into(&mut m, b"key0001", Some(b"key0005"), &mut out)
            .unwrap();
        assert_eq!(out.len(), 4); // key0001..key0004
        assert_eq!(out[&b"key0002".to_vec()], Some(b"v2".to_vec()));
        assert_eq!(out[&b"key0003".to_vec()], None, "tombstone surfaces");
        assert_eq!(out[&b"key0001".to_vec()], Some(vec![1u8; 40]));
    }

    #[test]
    fn export_fences_older_snapshots() {
        let counters = CounterService::new();
        let mut e = engine(&counters, "t10");
        let mut m = mem();
        for i in 0..8 {
            e.append(&mut m, &put(i)).unwrap();
        }
        e.flush(&mut m, &sorted_puts(0..8)).unwrap();
        let old = e.export();
        for i in 8..12 {
            e.append(&mut m, &put(i)).unwrap();
        }
        let new = e.export();
        assert!(new.version > old.version);
        assert!(new.trusted_bytes() < new.total_bytes());
        // The old export is now below the floor.
        let err = StorageEngine::open(
            &mut mem(),
            StorageConfig::default(),
            StoreKeys::new([1u8; 16]),
            counters.clone(),
            "t10",
            old.disk,
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::Rollback { .. }));
        // The fresh export adopts cleanly.
        let (e2, report) = StorageEngine::open(
            &mut mem(),
            StorageConfig::default(),
            StoreKeys::new([1u8; 16]),
            counters.clone(),
            "t10",
            new.disk,
        )
        .unwrap();
        assert_eq!(report.recovered_version, 12);
        assert_eq!(e2.version(), 12);
    }

    #[test]
    fn crash_hook_fires_before_the_write() {
        let counters = CounterService::new();
        let mut e = engine(&counters, "t11");
        let mut m = mem();
        e.fail_after_host_writes(Some(0));
        let err = e.append(&mut m, &put(0)).unwrap_err();
        assert_eq!(err, StorageError::CrashInjected);
        assert!(e.disk().wal.is_empty(), "crash fires before bytes land");
        // Recovery from the (empty) disk sees version 0, floor 0: clean.
        let (e2, report) = StorageEngine::open(
            &mut mem(),
            StorageConfig::default(),
            StoreKeys::new([1u8; 16]),
            counters.clone(),
            "t11",
            e.disk().clone(),
        )
        .unwrap();
        assert_eq!(report.recovered_version, 0);
        assert_eq!(e2.version(), 0);
    }

    proptest::proptest! {
        /// The two `partition_point`s pick exactly the blocks the linear
        /// filter they replaced picked, in the same order.
        #[test]
        fn blocks_in_range_equals_the_linear_filter(
            keys in proptest::collection::btree_map(0u8..40, 1usize..4, 0..12),
            lo in 0u8..44,
            hi in proptest::option::of(0u8..44),
        ) {
            // Consecutive runs of the sorted keys; 41..44 lie past the last.
            let keys: Vec<u8> = keys.keys().copied().collect();
            let mut blocks = Vec::new();
            let mut rest = keys.as_slice();
            while let Some((&first, _)) = rest.split_first() {
                let (block, tail) = rest.split_at((1 + usize::from(first) % 3).min(rest.len()));
                blocks.push(BlockMeta {
                    first_key: vec![first],
                    last_key: vec![block[block.len() - 1]],
                    records: block.len() as u32,
                });
                rest = tail;
            }
            let meta = SegmentMeta { id: 1, root: [0; 32], records: 0, bytes: 0, blocks };
            let (lo, hi) = ([lo], hi.map(|h| [h]));
            let hi = hi.as_ref().map(<[u8; 1]>::as_slice);
            let linear: Vec<usize> = (0..meta.blocks.len())
                .filter(|&i| {
                    let b = &meta.blocks[i];
                    b.last_key.as_slice() >= &lo[..] && hi.is_none_or(|h| b.first_key.as_slice() < h)
                })
                .collect();
            let picked: Vec<usize> = blocks_in_range(&meta, &lo, hi).collect();
            proptest::prop_assert_eq!(picked, linear);
        }
    }

    #[test]
    fn pack_blocks_respects_budget() {
        let records = sorted_puts(0..20);
        let refs: Vec<RecordRef<'_>> = records.iter().map(RecordRef::from).collect();
        let chunks = pack_blocks(&refs, 128);
        assert!(chunks.len() > 1);
        assert_eq!(chunks[0].0, 0);
        assert_eq!(chunks.last().unwrap().1, 20);
        for w in chunks.windows(2) {
            assert_eq!(w[0].1, w[1].0, "contiguous");
        }
        // A record larger than the budget still lands alone.
        let big = RecordRef {
            key: b"k",
            value: Some(&[0u8; 4096]),
        };
        assert_eq!(pack_blocks(&[big], 128), vec![(0, 1)]);
    }
}
