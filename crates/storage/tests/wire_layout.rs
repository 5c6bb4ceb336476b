//! Pins the on-host wire layout byte-for-byte: plaintext record encoding,
//! sealed segment blocks, sealed WAL records, and the sealed manifest.
//!
//! These blobs live on the untrusted host and must stay readable across
//! releases (a restarted enclave replays them). If any assertion here
//! fails, the format changed: either revert the change or bump the format
//! version in the `StoreKeys` HKDF salt *and* re-pin these constants with
//! an explicit migration note.

use securecloud_crypto::gcm::AesGcm;
use securecloud_crypto::wire::Wire;
use securecloud_storage::layout::{
    block_tag, open_block, open_manifest, open_wal_record, seal_block, seal_manifest,
    seal_wal_record, wal_tag, BlockMeta, Manifest, Record, RecordRef, SegmentMeta, WAL_GENESIS_TAG,
};
use securecloud_storage::StoreKeys;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn keys() -> StoreKeys {
    StoreKeys::new([0x42; 16])
}

fn sample_records() -> Vec<Record> {
    vec![
        Record::Put {
            key: b"meter/001".to_vec(),
            value: b"1337 W".to_vec(),
        },
        Record::Tombstone {
            key: b"meter/002".to_vec(),
        },
    ]
}

/// The borrowed form every sealing helper takes.
fn refs(records: &[Record]) -> Vec<RecordRef<'_>> {
    records.iter().map(RecordRef::from).collect()
}

fn sample_manifest() -> Manifest {
    Manifest {
        epoch: 3,
        wal_start_seq: 5,
        wal_anchor_tag: [0xAA; 16],
        segments: vec![SegmentMeta {
            id: 2,
            root: [0x5C; 32],
            records: 2,
            bytes: 96,
            blocks: vec![BlockMeta {
                first_key: b"meter/001".to_vec(),
                last_key: b"meter/002".to_vec(),
                records: 2,
            }],
        }],
    }
}

/// The plaintext record encoding: tag byte, then `u32`-LE length-prefixed
/// byte strings. This is what sits inside sealed blocks and WAL records.
#[test]
fn record_encoding_is_pinned() {
    let [put, tomb]: [Record; 2] = sample_records().try_into().unwrap();
    assert_eq!(
        hex(&put.to_wire()),
        concat!(
            "00",                 // tag 0 = Put
            "09000000",           // key length, u32 LE
            "6d657465722f303031", // "meter/001"
            "06000000",           // value length
            "313333372057",       // "1337 W"
        )
    );
    assert_eq!(
        hex(&tomb.to_wire()),
        concat!(
            "01",                 // tag 1 = Tombstone
            "09000000",           // key length
            "6d657465722f303032", // "meter/002"
        )
    );
}

/// A sealed segment block: AES-128-GCM over the record vector, nonce
/// derived from the block index, `(segment, index)` bound via AAD, tag
/// appended. Stored as `ct || tag` — the nonce is never written.
#[test]
fn sealed_block_is_pinned() {
    let cipher = AesGcm::new(&keys().segment_key(2));
    let sealed = seal_block(&cipher, 2, 0, &refs(&sample_records()));
    assert_eq!(hex(&sealed), SEALED_BLOCK_HEX);
    // The trailing 16 bytes are the GCM tag — the integrity-tree leaf.
    assert_eq!(
        hex(&block_tag(&sealed).unwrap()),
        &SEALED_BLOCK_HEX[SEALED_BLOCK_HEX.len() - 32..]
    );
    let opened = open_block(&cipher, 2, 0, &sealed).unwrap();
    assert_eq!(opened.iter().collect::<Vec<_>>(), refs(&sample_records()));
}

/// A sealed WAL record: AES-128-GCM over one record, nonce derived from
/// the WAL sequence number, predecessor tag chained through the AAD.
#[test]
fn sealed_wal_records_are_pinned() {
    let cipher = AesGcm::new(&keys().wal_key());
    let records = sample_records();
    let s0 = seal_wal_record(&cipher, 0, &WAL_GENESIS_TAG, (&records[0]).into());
    let t0 = wal_tag(&s0).unwrap();
    let s1 = seal_wal_record(&cipher, 1, &t0, (&records[1]).into());
    assert_eq!(hex(&s0), SEALED_WAL_0_HEX);
    assert_eq!(hex(&s1), SEALED_WAL_1_HEX);
    assert_eq!(
        open_wal_record(&cipher, 0, &WAL_GENESIS_TAG, &s0).unwrap(),
        records[0]
    );
    assert_eq!(open_wal_record(&cipher, 1, &t0, &s1).unwrap(), records[1]);
}

/// The sealed manifest: `nonce || ct || tag`, nonce derived from the
/// commit epoch (the only sealed structure that stores its nonce).
#[test]
fn sealed_manifest_is_pinned() {
    let sealed = seal_manifest(&keys(), &sample_manifest());
    assert_eq!(hex(&sealed), SEALED_MANIFEST_HEX);
    assert_eq!(open_manifest(&keys(), &sealed).unwrap(), sample_manifest());
}

/// Key derivation is pinned transitively by the sealed blobs above, but a
/// direct check localises a regression to HKDF rather than GCM.
#[test]
fn derived_keys_are_pinned() {
    let k = keys();
    assert_eq!(hex(&k.segment_key(2)), SEGMENT_KEY_2_HEX);
    assert_eq!(hex(&k.wal_key()), WAL_KEY_HEX);
    assert_eq!(hex(&k.manifest_key()), MANIFEST_KEY_HEX);
    // Distinct domains: no derived key collides with another.
    assert_ne!(k.segment_key(2), k.segment_key(3));
    assert_ne!(k.wal_key(), k.manifest_key());
}

#[test]
#[ignore = "generator: run with --ignored --nocapture to re-pin constants"]
fn print_constants() {
    let cipher = AesGcm::new(&keys().segment_key(2));
    println!(
        "SEALED_BLOCK_HEX = {}",
        hex(&seal_block(&cipher, 2, 0, &refs(&sample_records())))
    );
    let wal = AesGcm::new(&keys().wal_key());
    let records = sample_records();
    let s0 = seal_wal_record(&wal, 0, &WAL_GENESIS_TAG, (&records[0]).into());
    println!("SEALED_WAL_0_HEX = {}", hex(&s0));
    let t0 = wal_tag(&s0).unwrap();
    println!(
        "SEALED_WAL_1_HEX = {}",
        hex(&seal_wal_record(&wal, 1, &t0, (&records[1]).into()))
    );
    println!(
        "SEALED_MANIFEST_HEX = {}",
        hex(&seal_manifest(&keys(), &sample_manifest()))
    );
    let k = keys();
    println!("SEGMENT_KEY_2_HEX = {}", hex(&k.segment_key(2)));
    println!("WAL_KEY_HEX = {}", hex(&k.wal_key()));
    println!("MANIFEST_KEY_HEX = {}", hex(&k.manifest_key()));
}

const SEALED_BLOCK_HEX: &str = "b13298a9b187e893350bd12f8582d8596bd4fe4b4f5a85b722497c94f66b478ba60a67f0ef14550bef1985c997cad87f4329b768dfcefe88b61a";
const SEALED_WAL_0_HEX: &str =
    "9e55c10bd18baf7414c0277f5a208778b0cf5e1ce4e06e7b1ba8ac5905ee5b0736a7e6a6c685aa06";
const SEALED_WAL_1_HEX: &str = "5f1d24f5c11fc16ece80849f4c1ed4f63a50ac34fe80af4241abb8452736";
const SEALED_MANIFEST_HEX: &str = "53434203000000000000000370898986ef14c1c8c4e53227456d0a78c85a9e18cc823a9bf8d671b28d84b91b1c732c4c801cd70f45b81f99e80193db351c4089dc581cee9d679b049d55e1f5a31a309f9b7178a9eb332a24dc3df5b7b2f1c55d627ac8f9c3147615ca30149aa37a615b554a4118b52901409df6e6982bab23838d5d13cf0cc595fde9eb4a0b698ef44165afbbe20fac01cd585a";
const SEGMENT_KEY_2_HEX: &str = "4a4e3562c3879f1cd56feabaf6420ae5";
const WAL_KEY_HEX: &str = "80756328ab6a165ac1b8dc4b8a4c7ca3";
const MANIFEST_KEY_HEX: &str = "d6afbd575c8be8b5c256838242c7a15d";
