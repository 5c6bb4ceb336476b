//! On-host wire layout: records, block/segment metadata, the manifest,
//! and the sealing helpers that pin how each structure is encrypted.
//!
//! Everything the host stores is sealed AES-128-GCM. Nonces are derived
//! deterministically from trusted, never-reused sequence numbers
//! ([`nonce_from_seq`] with a per-structure domain), so no randomness is
//! needed on the write path and results stay byte-identical across runs.
//! The exact layouts are pinned by `tests/wire_layout.rs` — change them
//! only with a format-version bump in [`crate::StoreKeys`]'s salt.

use crate::{StorageError, StoreKeys};
use securecloud_crypto::gcm::{nonce_from_seq, AesGcm, TAG_LEN};
use securecloud_crypto::impl_wire_struct;
use securecloud_crypto::wire::{encode_seq, Reader, Wire};
use securecloud_crypto::CryptoError;
use std::collections::BTreeMap;

/// Nonce domain for sealed segment blocks (`seq` = block index; uniqueness
/// comes from the per-segment key).
const BLOCK_NONCE_DOMAIN: u32 = 0x5343_4201; // "SCB" 1
/// Nonce domain for sealed WAL records (`seq` = WAL sequence number).
const WAL_NONCE_DOMAIN: u32 = 0x5343_4202;
/// Nonce domain for sealed manifests (`seq` = manifest epoch).
const MANIFEST_NONCE_DOMAIN: u32 = 0x5343_4203;

/// AAD prefix for sealed blocks (followed by the `(segment, block)` wire
/// tuple so a block can't be replayed at another position).
const BLOCK_AAD: &[u8] = b"securecloud storage block";
/// AAD prefix for sealed WAL records (followed by the sequence number and
/// the previous record's tag, forming a MAC chain).
const WAL_AAD: &[u8] = b"securecloud storage wal";
/// AAD for sealed manifests.
const MANIFEST_AAD: &[u8] = b"securecloud storage manifest";

/// The MAC-chain anchor before any WAL record exists.
pub const WAL_GENESIS_TAG: [u8; TAG_LEN] = [0u8; TAG_LEN];

/// One logical mutation, as stored in WAL records and segment blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// Bind `key` to `value`.
    Put {
        /// The key.
        key: Vec<u8>,
        /// The value.
        value: Vec<u8>,
    },
    /// Delete `key`, shadowing any older segment holding it.
    Tombstone {
        /// The key.
        key: Vec<u8>,
    },
}

impl Record {
    /// The record's key.
    #[must_use]
    pub fn key(&self) -> &[u8] {
        RecordRef::from(self).key
    }

    /// The record's value (`None` for a tombstone).
    #[must_use]
    pub fn value(&self) -> Option<&[u8]> {
        RecordRef::from(self).value
    }
}

impl Wire for Record {
    fn encode(&self, out: &mut Vec<u8>) {
        RecordRef::from(self).encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        match u8::decode(r)? {
            0 => Ok(Record::Put {
                key: Vec::<u8>::decode(r)?,
                value: Vec::<u8>::decode(r)?,
            }),
            1 => Ok(Record::Tombstone {
                key: Vec::<u8>::decode(r)?,
            }),
            other => Err(CryptoError::Malformed(format!("record tag {other}"))),
        }
    }
}

/// One mutation borrowed from wherever it already lives — a caller's
/// slices, a memtable entry, an opened [`Block`], a [`Record`] — so sealing,
/// flushing and merging never own one. The only record encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// The key.
    pub key: &'a [u8],
    /// The value; `None` for a tombstone.
    pub value: Option<&'a [u8]>,
}

impl<'a> From<&'a Record> for RecordRef<'a> {
    fn from(record: &'a Record) -> Self {
        match record {
            Record::Put { key, value } => RecordRef {
                key,
                value: Some(value),
            },
            Record::Tombstone { key } => RecordRef { key, value: None },
        }
    }
}

impl RecordRef<'_> {
    /// Exact encoded size (tag byte + one or two length-prefixed strings),
    /// used for block packing and buffer sizing.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        1 + 4 + self.key.len() + self.value.map_or(0, |v| 4 + v.len())
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.value.is_none()));
        encode_seq(self.key, out);
        if let Some(value) = self.value {
            encode_seq(value, out);
        }
    }

    /// Binds the key to this (newer) version in a scan's merge map,
    /// overwriting a shadowed version's buffer in place.
    pub fn merge_into(&self, out: &mut BTreeMap<Vec<u8>, Option<Vec<u8>>>) {
        match (out.get_mut(self.key), self.value) {
            (Some(Some(old)), Some(value)) => {
                old.clear();
                old.extend_from_slice(value);
            }
            (Some(old), value) => *old = value.map(<[u8]>::to_vec),
            (None, value) => {
                out.insert(self.key.to_vec(), value.map(<[u8]>::to_vec));
            }
        }
    }
}

/// Where one record sits in a [`Block`]'s plaintext.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key_at: u32,
    key_len: u32,
    /// [`TOMBSTONE`] when the record has no value.
    value_at: u32,
    value_len: u32,
}

/// No value starts at offset 0: the record count does.
const TOMBSTONE: u32 = 0;

/// An opened block: the decrypted plaintext and one slot per record, so a
/// lookup binary-searches and borrows without decoding a record. The only
/// block decoder; accepts exactly what `Vec::<Record>::from_wire` accepts.
#[derive(Debug)]
pub struct Block {
    plain: Vec<u8>,
    slots: Vec<Slot>,
}

impl Block {
    /// Indexes a block's plaintext, validating every length once.
    ///
    /// # Errors
    ///
    /// [`StorageError::Crypto`] with [`CryptoError::Malformed`] on a
    /// truncated, over-long or mis-tagged encoding;
    /// [`StorageError::Corrupt`] if the plaintext exceeds the slots' `u32`
    /// offsets.
    pub fn parse(plain: Vec<u8>) -> Result<Self, StorageError> {
        if u32::try_from(plain.len()).is_err() {
            return Err(StorageError::Corrupt(format!(
                "block plaintext of {} bytes exceeds u32 offsets",
                plain.len()
            )));
        }
        let mut r = Reader::new(&plain);
        // The span of a length-prefixed string, as `Vec::<u8>::decode` reads it.
        let span = |r: &mut Reader<'_>| -> Result<(u32, u32), CryptoError> {
            let len = r.length()?;
            let at = plain.len() - r.remaining();
            r.take(len)?;
            Ok((at as u32, len as u32))
        };
        let count = r.length()?;
        // A record takes at least five bytes; bound allocation by input.
        let mut slots = Vec::with_capacity(count.min(r.remaining() / 5));
        for _ in 0..count {
            let tag = u8::decode(&mut r)?;
            let (key_at, key_len) = span(&mut r)?;
            let (value_at, value_len) = match tag {
                0 => span(&mut r)?,
                1 => (TOMBSTONE, 0),
                other => return Err(CryptoError::Malformed(format!("record tag {other}")).into()),
            };
            slots.push(Slot {
                key_at,
                key_len,
                value_at,
                value_len,
            });
        }
        if r.remaining() != 0 {
            return Err(CryptoError::Malformed(format!(
                "{} trailing bytes after decode",
                r.remaining()
            ))
            .into());
        }
        Ok(Block { plain, slots })
    }

    /// The `i`-th record, borrowed from the plaintext.
    ///
    /// # Panics
    ///
    /// If `i` is out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> RecordRef<'_> {
        let slot = self.slots[i];
        RecordRef {
            key: self.bytes(slot.key_at, slot.key_len),
            value: (slot.value_at != TOMBSTONE).then(|| self.bytes(slot.value_at, slot.value_len)),
        }
    }

    /// The records in stored order.
    pub fn iter(&self) -> impl Iterator<Item = RecordRef<'_>> {
        (0..self.slots.len()).map(|i| self.get(i))
    }

    /// Binary-searches the (key-sorted) block for `key`.
    #[must_use]
    pub fn position(&self, key: &[u8]) -> Option<usize> {
        self.slots
            .binary_search_by(|s| self.bytes(s.key_at, s.key_len).cmp(key))
            .ok()
    }

    /// A span `parse` validated.
    fn bytes(&self, at: u32, len: u32) -> &[u8] {
        &self.plain[at as usize..][..len as usize]
    }
}

/// Key range and cardinality of one sealed block, kept in the manifest so
/// lookups can binary-search without touching the host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta {
    /// Smallest key in the block.
    pub first_key: Vec<u8>,
    /// Largest key in the block.
    pub last_key: Vec<u8>,
    /// Records in the block.
    pub records: u32,
}

impl_wire_struct!(BlockMeta {
    first_key,
    last_key,
    records
});

/// One immutable sealed segment as described by the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Segment id: drawn from a trusted counter, never reused (this is
    /// what makes per-block nonces safe across crash-discarded flushes).
    pub id: u64,
    /// Merkle root over the segment's block MACs (the integrity tree).
    pub root: [u8; 32],
    /// Records across all blocks.
    pub records: u64,
    /// Sealed bytes across all blocks.
    pub bytes: u64,
    /// Per-block key ranges, in key order.
    pub blocks: Vec<BlockMeta>,
}

impl_wire_struct!(SegmentMeta {
    id,
    root,
    records,
    bytes,
    blocks
});

/// The store's root of trust on the host: which segments are live, how far
/// the WAL had been folded in, and where the WAL MAC chain resumes. Sealed
/// under the manifest key with its epoch bound into the nonce, and the
/// epoch + version floor checked against [`crate::CounterService`] at open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Store version as of this manifest (mutations folded into segments).
    pub version: u64,
    /// Commit epoch from the trusted commit counter; strictly increasing,
    /// also the manifest nonce sequence.
    pub epoch: u64,
    /// First WAL sequence number NOT folded into the segments.
    pub wal_start_seq: u64,
    /// GCM tag of the last folded WAL record: the MAC-chain anchor for the
    /// live WAL tail ([`WAL_GENESIS_TAG`] if none was ever folded).
    pub wal_anchor_tag: [u8; TAG_LEN],
    /// Live segments, oldest first.
    pub segments: Vec<SegmentMeta>,
}

impl_wire_struct!(Manifest {
    version,
    epoch,
    wal_start_seq,
    wal_anchor_tag,
    segments
});

/// AAD binding a block to its `(segment, index)` position: the prefix,
/// then the `(u64, u32)` wire tuple.
#[must_use]
fn block_aad(segment: u64, index: u32) -> [u8; BLOCK_AAD.len() + 12] {
    let mut aad = [0u8; BLOCK_AAD.len() + 12];
    aad[..BLOCK_AAD.len()].copy_from_slice(BLOCK_AAD);
    aad[BLOCK_AAD.len()..][..8].copy_from_slice(&segment.to_le_bytes());
    aad[BLOCK_AAD.len() + 8..].copy_from_slice(&index.to_le_bytes());
    aad
}

/// Seals one block of records under the segment key. The ciphertext is
/// `ct || tag` — the nonce is derived from the block index, not stored.
#[must_use]
pub fn seal_block(cipher: &AesGcm, segment: u64, index: u32, records: &[RecordRef<'_>]) -> Vec<u8> {
    // Sized exactly: the sealed block lives on the host disk as it is.
    let body: usize = records.iter().map(RecordRef::encoded_len).sum();
    let mut buf = Vec::with_capacity(4 + body + TAG_LEN);
    (records.len() as u32).encode(&mut buf);
    for record in records {
        record.encode(&mut buf);
    }
    let nonce = nonce_from_seq(BLOCK_NONCE_DOMAIN, u64::from(index));
    cipher.seal_in_place(&nonce, &mut buf, &block_aad(segment, index));
    buf
}

/// Opens a sealed block into its slot-indexed view, decrypting in the one
/// buffer the view keeps. Auth failure maps to [`StorageError::Integrity`]:
/// the bytes on the host do not match what was sealed at this position.
pub fn open_block(
    cipher: &AesGcm,
    segment: u64,
    index: u32,
    sealed: &[u8],
) -> Result<Block, StorageError> {
    let nonce = nonce_from_seq(BLOCK_NONCE_DOMAIN, u64::from(index));
    let mut buf = sealed.to_vec();
    cipher
        .open_in_place(&nonce, &mut buf, &block_aad(segment, index))
        .map_err(|_| StorageError::Integrity {
            segment,
            block: Some(index),
        })?;
    Block::parse(buf)
}

/// The GCM tag of a sealed block (its trailing [`TAG_LEN`] bytes) — the
/// leaf the integrity tree is built over.
pub fn block_tag(sealed: &[u8]) -> Result<[u8; TAG_LEN], StorageError> {
    sealed
        .split_last_chunk::<TAG_LEN>()
        .map(|(_, tag)| *tag)
        .ok_or_else(|| StorageError::Corrupt("sealed block shorter than tag".into()))
}

/// AAD chaining a WAL record to its predecessor's tag.
#[must_use]
fn wal_aad(seq: u64, prev_tag: &[u8; TAG_LEN]) -> [u8; WAL_AAD.len() + 8 + TAG_LEN] {
    let mut aad = [0u8; WAL_AAD.len() + 8 + TAG_LEN];
    aad[..WAL_AAD.len()].copy_from_slice(WAL_AAD);
    aad[WAL_AAD.len()..][..8].copy_from_slice(&seq.to_le_bytes());
    aad[WAL_AAD.len() + 8..].copy_from_slice(prev_tag);
    aad
}

/// Seals one WAL record, returning `ct || tag`. The trailing tag is the
/// next record's chain link.
#[must_use]
pub fn seal_wal_record(
    cipher: &AesGcm,
    seq: u64,
    prev_tag: &[u8; TAG_LEN],
    record: RecordRef<'_>,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(record.encoded_len() + TAG_LEN);
    record.encode(&mut buf);
    let nonce = nonce_from_seq(WAL_NONCE_DOMAIN, seq);
    cipher.seal_in_place(&nonce, &mut buf, &wal_aad(seq, prev_tag));
    buf
}

/// Opens one WAL record against the expected chain tag. A record that was
/// reordered, replaced, or spliced from another history fails here.
pub fn open_wal_record(
    cipher: &AesGcm,
    seq: u64,
    prev_tag: &[u8; TAG_LEN],
    sealed: &[u8],
) -> Result<Record, StorageError> {
    let nonce = nonce_from_seq(WAL_NONCE_DOMAIN, seq);
    let mut buf = sealed.to_vec();
    cipher
        .open_in_place(&nonce, &mut buf, &wal_aad(seq, prev_tag))
        .map_err(|_| StorageError::Corrupt(format!("WAL record {seq} fails its chain check")))?;
    Record::from_wire(&buf).map_err(StorageError::Crypto)
}

/// The chain tag of a sealed WAL record (its trailing [`TAG_LEN`] bytes).
pub fn wal_tag(sealed: &[u8]) -> Result<[u8; TAG_LEN], StorageError> {
    sealed
        .split_last_chunk::<TAG_LEN>()
        .map(|(_, tag)| *tag)
        .ok_or_else(|| StorageError::Corrupt("sealed WAL record shorter than tag".into()))
}

/// Seals the manifest under the manifest key: `nonce || ct || tag`, with
/// the nonce derived from the (never reused) commit epoch.
#[must_use]
pub fn seal_manifest(keys: &StoreKeys, manifest: &Manifest) -> Vec<u8> {
    let body = manifest.to_wire();
    let nonce = nonce_from_seq(MANIFEST_NONCE_DOMAIN, manifest.epoch);
    AesGcm::new(&keys.manifest_key()).seal_envelope(&nonce, MANIFEST_AAD, body.len(), |out| {
        out.extend_from_slice(&body);
    })
}

/// Opens a sealed manifest blob.
pub fn open_manifest(keys: &StoreKeys, sealed: &[u8]) -> Result<Manifest, StorageError> {
    let body = AesGcm::new(&keys.manifest_key()).open_envelope(sealed, MANIFEST_AAD)?;
    Manifest::from_wire(&body).map_err(StorageError::Crypto)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> StoreKeys {
        StoreKeys::new([7u8; 16])
    }

    #[test]
    fn record_roundtrip_and_tags() {
        let put = Record::Put {
            key: b"k".to_vec(),
            value: b"v".to_vec(),
        };
        let tomb = Record::Tombstone { key: b"k".to_vec() };
        assert_eq!(Record::from_wire(&put.to_wire()).unwrap(), put);
        assert_eq!(Record::from_wire(&tomb.to_wire()).unwrap(), tomb);
        for record in [&put, &tomb] {
            let len = RecordRef::from(record).encoded_len();
            assert_eq!(len, record.to_wire().len());
        }
        assert!(Record::from_wire(&[2]).is_err(), "unknown tag rejected");
        assert_eq!(put.value(), Some(&b"v"[..]));
        assert_eq!(tomb.value(), None);
    }

    #[test]
    fn block_binds_position() {
        let cipher = AesGcm::new(&keys().segment_key(3));
        let records = [RecordRef {
            key: b"a",
            value: Some(b"1"),
        }];
        let sealed = seal_block(&cipher, 3, 0, &records);
        let opened = open_block(&cipher, 3, 0, &sealed).unwrap();
        assert!(opened.iter().eq(records));
        // Same bytes at a different index or segment fail.
        assert!(matches!(
            open_block(&cipher, 3, 1, &sealed),
            Err(StorageError::Integrity {
                segment: 3,
                block: Some(1)
            })
        ));
        assert!(open_block(&cipher, 4, 0, &sealed).is_err());
        // A flipped ciphertext bit fails.
        let mut bad = sealed.clone();
        bad[0] ^= 1;
        assert!(open_block(&cipher, 3, 0, &bad).is_err());
    }

    #[test]
    fn wal_chain_rejects_splices() {
        let cipher = AesGcm::new(&keys().wal_key());
        let r0 = Record::Put {
            key: b"a".to_vec(),
            value: b"1".to_vec(),
        };
        let r1 = Record::Tombstone { key: b"a".to_vec() };
        let s0 = seal_wal_record(&cipher, 0, &WAL_GENESIS_TAG, (&r0).into());
        let t0 = wal_tag(&s0).unwrap();
        let s1 = seal_wal_record(&cipher, 1, &t0, (&r1).into());
        assert_eq!(
            open_wal_record(&cipher, 0, &WAL_GENESIS_TAG, &s0).unwrap(),
            r0
        );
        assert_eq!(open_wal_record(&cipher, 1, &t0, &s1).unwrap(), r1);
        // Replaying record 1 without its predecessor's tag fails.
        assert!(open_wal_record(&cipher, 1, &WAL_GENESIS_TAG, &s1).is_err());
        // Reordering fails: record 0 does not chain after record 1.
        let t1 = wal_tag(&s1).unwrap();
        assert!(open_wal_record(&cipher, 2, &t1, &s0).is_err());
    }

    #[test]
    fn manifest_seals_and_detects_tamper() {
        let m = Manifest {
            version: 5,
            epoch: 2,
            wal_start_seq: 5,
            wal_anchor_tag: [9u8; 16],
            segments: vec![SegmentMeta {
                id: 1,
                root: [3u8; 32],
                records: 10,
                bytes: 400,
                blocks: vec![BlockMeta {
                    first_key: b"a".to_vec(),
                    last_key: b"z".to_vec(),
                    records: 10,
                }],
            }],
        };
        let sealed = seal_manifest(&keys(), &m);
        assert_eq!(open_manifest(&keys(), &sealed).unwrap(), m);
        let mut bad = sealed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x80;
        assert!(open_manifest(&keys(), &bad).is_err());
        // Shorter than a nonce plus a tag: unauthenticated, like any damage.
        assert_eq!(
            open_manifest(&keys(), &sealed[..27]),
            Err(StorageError::Crypto(CryptoError::AuthenticationFailed))
        );
    }
}
