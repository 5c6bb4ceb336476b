//! `Notifications`, the view a sealed notification batch opens into, is the
//! only notification-batch decoder. It must accept exactly the plaintexts
//! the owned decoder `Vec::<Publication>::from_wire` accepts *and* that are
//! already in the canonical form the router writes (strictly ascending keys
//! per publication), with the same contents, and reject the rest without
//! panicking — batch plaintext is authenticated, but a decoder reachable
//! from host bytes does not get to rely on that.
//!
//! Contents are compared as wire bytes: `Value::Float(NaN)` is not equal to
//! itself, but its encoding is.

mod common;

use common::arb_value;
use proptest::prelude::*;
use securecloud_crypto::wire::Wire;
use securecloud_scbr::notify::{Notifications, PublicationRef};
use securecloud_scbr::types::{Publication, Value};

/// Keys from a small alphabet with multi-byte characters: empty keys,
/// shared prefixes and keys whose byte order differs from their first
/// character's all occur.
fn arb_key() -> impl Strategy<Value = String> {
    "[aéz日]{0,3}"
}

fn arb_publication() -> impl Strategy<Value = Publication> {
    prop::collection::btree_map(arb_key(), arb_value(), 0..5)
        .prop_map(|attrs| Publication { attrs })
}

/// One publication encoded with its pairs in the given order, duplicates
/// and all.
fn encode_pairs(pairs: &[(String, Value)], out: &mut Vec<u8>) {
    (pairs.len() as u32).encode(out);
    for (key, value) in pairs {
        key.encode(out);
        value.encode(out);
    }
}

/// `Ok` exactly when the owned decoder accepts `plain` and re-encodes it to
/// the same bytes, with the same contents through both the borrowed and
/// the owned side of the view.
fn assert_view_matches_owned_decoder(plain: &[u8]) {
    let owned = Vec::<Publication>::from_wire(plain);
    let canonical = owned.as_ref().is_ok_and(|owned| owned.to_wire() == plain);
    match (Notifications::parse(plain.to_vec()), &owned) {
        (Ok(view), Ok(owned)) => {
            assert!(
                canonical,
                "view accepted a non-canonical batch {plain:02x?}"
            );
            assert_eq!(view.len(), owned.len());
            let borrowed: Vec<Publication> =
                view.iter().map(PublicationRef::to_publication).collect();
            assert_eq!(borrowed.to_wire(), plain);
            for (publication, want) in view.iter().zip(owned) {
                for (key, value) in &want.attrs {
                    let got = publication.get(key).map(|v| v.to_value().to_wire());
                    assert_eq!(got, Some(value.to_wire()));
                }
                assert!(publication.get("absent").is_none());
            }
            let materialised: Vec<Publication> = view.into_iter().collect();
            assert_eq!(materialised.to_wire(), plain);
        }
        (Err(_), Ok(_)) => assert!(!canonical, "view rejected a canonical batch {plain:02x?}"),
        (Err(_), Err(_)) => {}
        (Ok(_), Err(e)) => {
            panic!("view accepted what the owned decoder rejects ({e}): {plain:02x?}")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn view_equals_owned_decoder_on_canonical_batches(
        publications in prop::collection::vec(arb_publication(), 0..12),
    ) {
        let plain = publications.to_wire();
        assert_view_matches_owned_decoder(&plain);
        let view = Notifications::parse(plain).expect("an encoded batch parses");
        let materialised: Vec<Publication> = view.into_iter().collect();
        prop_assert_eq!(materialised.to_wire(), publications.to_wire());
    }

    #[test]
    fn view_equals_owned_decoder_on_damaged_plaintexts(
        publications in prop::collection::vec(arb_publication(), 1..8),
        edits in prop::collection::vec((any::<u16>(), any::<u8>()), 1..4),
        keep in any::<u16>(),
        extra in prop::collection::vec(any::<u8>(), 0..3),
    ) {
        let mut plain = publications.to_wire();
        for (at, byte) in edits {
            let at = usize::from(at) % plain.len();
            plain[at] = byte;
        }
        assert_view_matches_owned_decoder(&plain);
        plain.truncate(usize::from(keep) % (plain.len() + 1));
        assert_view_matches_owned_decoder(&plain);
        plain.extend_from_slice(&extra);
        assert_view_matches_owned_decoder(&plain);
    }

    #[test]
    fn unsorted_or_duplicated_keys_are_rejected(
        pairs in prop::collection::vec((arb_key(), arb_value()), 1..5),
        duplicate in any::<u16>(),
    ) {
        let ascending = pairs.windows(2).all(|w| w[0].0 < w[1].0);
        let mut plain = Vec::new();
        1u32.encode(&mut plain);
        encode_pairs(&pairs, &mut plain);
        assert_view_matches_owned_decoder(&plain);
        prop_assert_eq!(Notifications::parse(plain).is_ok(), ascending);

        // Any key repeated anywhere in a publication is out of order.
        let mut repeated = pairs.clone();
        let again = repeated[usize::from(duplicate) % pairs.len()].clone();
        repeated.insert(usize::from(duplicate) % (pairs.len() + 1), again);
        let mut plain = Vec::new();
        1u32.encode(&mut plain);
        encode_pairs(&repeated, &mut plain);
        prop_assert!(Vec::<Publication>::from_wire(&plain).is_ok());
        prop_assert!(Notifications::parse(plain).is_err());
    }
}
