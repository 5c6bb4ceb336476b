//! A sealed WAL record is `ct ‖ tag`, its nonce taken from the sequence
//! number and its AAD chaining the predecessor's tag. The host serves these
//! bytes back at replay, so `open_wal_record` and `wal_tag` must refuse any
//! damage, or a record moved to another seq or chain position, with an
//! error and never a panic.

use proptest::prelude::*;
use securecloud_crypto::gcm::{AesGcm, TAG_LEN};
use securecloud_storage::layout::{open_wal_record, seal_wal_record, wal_tag, Record};
use securecloud_storage::StorageError;

proptest! {
    #[test]
    fn wal_record_roundtrips_and_rejects_damage(
        key in prop::array::uniform16(any::<u8>()),
        record_key in prop::collection::vec(any::<u8>(), 0..65),
        value in prop::option::of(prop::collection::vec(any::<u8>(), 0..513)),
        seq in any::<u64>(),
        seq_delta in 1..u64::MAX,
        prev_tag in prop::array::uniform16(any::<u8>()),
        prev_flip in (0usize..TAG_LEN, 0u8..8),
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 1..17),
    ) {
        let record = match value {
            Some(value) => Record::Put { key: record_key, value },
            None => Record::Tombstone { key: record_key },
        };
        let cipher = AesGcm::new(&key);
        let sealed = seal_wal_record(&cipher, seq, &prev_tag, (&record).into());
        prop_assert_eq!(open_wal_record(&cipher, seq, &prev_tag, &sealed), Ok(record));
        let tag = wal_tag(&sealed).unwrap();
        prop_assert_eq!(&tag[..], &sealed[sealed.len() - TAG_LEN..]);

        let refused = |seq, prev: &[u8; TAG_LEN], bytes: &[u8]| {
            matches!(open_wal_record(&cipher, seq, prev, bytes), Err(StorageError::Corrupt(_)))
        };
        prop_assert!(refused(seq.wrapping_add(seq_delta), &prev_tag, &sealed));
        let mut other_prev = prev_tag;
        other_prev[prev_flip.0] ^= 1 << prev_flip.1;
        prop_assert!(refused(seq, &other_prev, &sealed));
        for cut in 0..sealed.len() {
            prop_assert!(refused(seq, &prev_tag, &sealed[..cut]));
            prop_assert_eq!(wal_tag(&sealed[..cut]).is_ok(), cut >= TAG_LEN);
        }
        let mut longer = sealed.clone();
        longer.push(0);
        prop_assert!(refused(seq, &prev_tag, &longer));
        for (at, bit) in flips {
            let mut bad = sealed.clone();
            bad[at % sealed.len()] ^= 1 << bit;
            prop_assert!(refused(seq, &prev_tag, &bad));
        }
    }
}
