//! `Block`, the slot-indexed view a sealed block opens into, is the only
//! block decoder. It must accept exactly the plaintexts the owned decoder
//! `Vec::<Record>::from_wire` accepts, with the same contents, and reject
//! the rest without panicking — block plaintext is authenticated, but a
//! decoder reachable from host bytes does not get to rely on that.

use proptest::prelude::*;
use securecloud_crypto::gcm::AesGcm;
use securecloud_crypto::wire::Wire;
use securecloud_storage::layout::{open_block, seal_block};
use securecloud_storage::{Block, Record, RecordRef};

fn arb_record() -> impl Strategy<Value = Record> {
    // Short strings from a small alphabet: empty keys, empty values and
    // duplicate keys all occur.
    let bytes = || prop::collection::vec(0u8..4, 0..6);
    prop_oneof![
        (bytes(), bytes()).prop_map(|(key, value)| Record::Put { key, value }),
        bytes().prop_map(|key| Record::Tombstone { key }),
    ]
}

/// Same `Ok` contents as the owned decoder, or both `Err`.
fn assert_block_matches_owned_decoder(plain: &[u8]) {
    let owned = Vec::<Record>::from_wire(plain);
    match (Block::parse(plain.to_vec()), &owned) {
        (Ok(block), Ok(records)) => {
            assert!(block.iter().eq(records.iter().map(RecordRef::from)));
            for (i, record) in records.iter().enumerate() {
                assert_eq!(block.get(i), RecordRef::from(record));
            }
        }
        (Err(_), Err(_)) => {}
        (block, _) => panic!("Block {block:?} but Vec<Record> {owned:?} on {plain:02x?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn block_equals_owned_decoder_on_record_lists(
        records in prop::collection::vec(arb_record(), 0..24),
    ) {
        let plain = records.to_wire();
        assert_block_matches_owned_decoder(&plain);
        let block = Block::parse(plain).expect("an encoded record list parses");
        prop_assert!(block.iter().eq(records.iter().map(RecordRef::from)));
    }

    #[test]
    fn position_finds_exactly_the_stored_keys(
        records in prop::collection::btree_map(
            prop::collection::vec(0u8..4, 0..4),
            prop::option::of(prop::collection::vec(any::<u8>(), 0..6)),
            0..24,
        ),
        probe in prop::collection::vec(0u8..4, 0..4),
    ) {
        let refs: Vec<RecordRef<'_>> = records
            .iter()
            .map(|(key, value)| RecordRef { key, value: value.as_deref() })
            .collect();
        let cipher = AesGcm::new(&[3u8; 16]);
        let block = open_block(&cipher, 9, 4, &seal_block(&cipher, 9, 4, &refs)).unwrap();
        for (i, record) in refs.iter().enumerate() {
            prop_assert_eq!(block.position(record.key), Some(i));
            prop_assert_eq!(block.get(i), *record);
        }
        let want = refs.iter().position(|r| r.key == probe.as_slice());
        prop_assert_eq!(block.position(&probe), want);
    }

    #[test]
    fn block_equals_owned_decoder_on_damaged_plaintexts(
        records in prop::collection::vec(arb_record(), 0..12),
        edits in prop::collection::vec((any::<u16>(), any::<u8>()), 1..4),
        keep in any::<u16>(),
        extra in prop::collection::vec(any::<u8>(), 0..3),
    ) {
        let mut plain = records.to_wire();
        for (at, byte) in edits {
            let at = usize::from(at) % plain.len();
            plain[at] = byte;
        }
        assert_block_matches_owned_decoder(&plain);
        plain.truncate(usize::from(keep) % (plain.len() + 1));
        assert_block_matches_owned_decoder(&plain);
        plain.extend_from_slice(&extra);
        assert_block_matches_owned_decoder(&plain);
    }
}
