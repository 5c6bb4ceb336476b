//! `PublicationRef` and `Notifications` are the only decoders of the
//! publication format outside tests: the router parses sealed publications
//! with them, and a subscriber its notifications. Each must accept exactly
//! the plaintexts the owned decoder (`Publication::from_wire`, or
//! `Vec::<Publication>::from_wire` for a batch) accepts *and* that are
//! already in canonical form (strictly ascending keys per publication), with
//! the same contents, and reject the rest without panicking — the plaintext
//! is authenticated, but a decoder reachable from host bytes does not get to
//! rely on that. The one frame `Notifications` accepts beyond the owned
//! decoder is a canonical batch followed by a canonical multiplicity list:
//! four bytes per publication, none 0, not all 1.
//!
//! Contents are compared as wire bytes: `Value::Float(NaN)` is not equal to
//! itself, but its encoding is.

mod common;

use common::arb_value;
use proptest::prelude::*;
use securecloud_crypto::wire::Wire;
use securecloud_crypto::CryptoError;
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

/// Every attribute of `want` reads back through `view`, and nothing else.
fn assert_same_contents(view: PublicationRef<'_>, want: &Publication) {
    for (key, value) in &want.attrs {
        let got = view.get(key).map(|v| v.to_value().to_wire());
        assert_eq!(got, Some(value.to_wire()));
    }
    assert!(view.get("absent").is_none());
}

/// `Ok` exactly when the owned decoder accepts one publication's `bytes`
/// and re-encodes it to the same bytes, with the same contents through the
/// view, which hands back exactly those bytes.
fn assert_single_view_matches_owned_decoder(bytes: &[u8]) {
    let owned = Publication::from_wire(bytes);
    let canonical = owned.as_ref().is_ok_and(|owned| owned.to_wire() == bytes);
    match (PublicationRef::parse(bytes), &owned) {
        (Ok(view), Ok(owned)) => {
            assert!(
                canonical,
                "view accepted a non-canonical publication {bytes:02x?}"
            );
            assert_eq!(view.as_bytes(), bytes);
            assert_eq!(view.to_publication().to_wire(), bytes);
            assert_same_contents(view, owned);
        }
        (Err(_), Ok(_)) => assert!(
            !canonical,
            "view rejected a canonical publication {bytes:02x?}"
        ),
        (Err(_), Err(_)) => {}
        (Ok(_), Err(e)) => {
            panic!("view accepted what the owned decoder rejects ({e}): {bytes:02x?}")
        }
    }
}

/// `Ok` exactly when the owned decoder accepts `plain` and re-encodes it to
/// the same bytes, with the same contents through both the borrowed and
/// the owned side of the view. The one frame the view accepts beyond the
/// owned decoder is such a batch followed by a canonical multiplicity list.
fn assert_view_matches_owned_decoder(plain: &[u8]) {
    let owned = Vec::<Publication>::from_wire(plain);
    let canonical = owned.as_ref().is_ok_and(|owned| owned.to_wire() == plain);
    match (Notifications::parse(plain.to_vec()), &owned) {
        (Ok(view), Ok(owned)) => {
            assert!(
                canonical,
                "view accepted a non-canonical batch {plain:02x?}"
            );
            assert_delivers(view, owned, &vec![1; owned.len()]);
        }
        (Err(_), Ok(_)) => assert!(!canonical, "view rejected a canonical batch {plain:02x?}"),
        (Err(_), Err(_)) => {}
        (Ok(view), Err(e)) => {
            let list_at = plain.len().checked_sub(4 * view.distinct());
            let Some((batch, list)) = list_at.map(|at| plain.split_at(at)) else {
                panic!("view accepted what the owned decoder rejects ({e}): {plain:02x?}")
            };
            let copies: Vec<u32> = list
                .chunks(4)
                .map(|bytes| u32::from_wire(bytes).unwrap())
                .collect();
            let owned = Vec::<Publication>::from_wire(batch)
                .ok()
                .filter(|owned| owned.to_wire() == batch)
                .filter(|_| copies.iter().all(|&c| c >= 1) && copies.iter().any(|&c| c >= 2));
            let Some(owned) = owned else {
                panic!("view accepted what the owned decoder rejects ({e}): {plain:02x?}")
            };
            assert_delivers(view, &owned, &copies);
        }
    }
}

/// `view` holds the distinct publications `owned` with multiplicities
/// `copies`: it counts their sum, borrows each once with its multiplicity,
/// and materialises each once per delivery.
fn assert_delivers(view: Notifications, owned: &[Publication], copies: &[u32]) {
    let deliveries: u32 = copies.iter().sum();
    assert_eq!(view.len(), deliveries as usize);
    assert_eq!(view.distinct(), owned.len());
    assert_eq!(view.iter().len(), owned.len());
    for ((publication, got), (want, &copies)) in view.iter().zip(owned.iter().zip(copies)) {
        assert_eq!(got, copies);
        assert_eq!(publication.as_bytes(), want.to_wire());
        assert_same_contents(publication, want);
    }
    let repeated: Vec<Publication> = owned
        .iter()
        .zip(copies)
        .flat_map(|(publication, &copies)| std::iter::repeat_n(publication, copies as usize))
        .cloned()
        .collect();
    let materialised = view.into_iter();
    assert_eq!(materialised.len(), repeated.len());
    assert_eq!(
        materialised.collect::<Vec<_>>().to_wire(),
        repeated.to_wire()
    );
}

/// `publications` with `copies` appended as a multiplicity list.
fn with_list(publications: &[Publication], copies: &[u32]) -> Vec<u8> {
    let mut plain = publications.to_vec().to_wire();
    for copies in copies {
        copies.encode(&mut plain);
    }
    plain
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn view_equals_owned_decoder_on_canonical_batches(
        publications in prop::collection::vec(arb_publication(), 0..12),
    ) {
        for publication in &publications {
            assert_single_view_matches_owned_decoder(&publication.to_wire());
        }
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
        // The whole batch, and its first publication on its own.
        let batch = (publications.to_wire(), assert_view_matches_owned_decoder as fn(&[u8]));
        let single = (
            publications[0].to_wire(),
            assert_single_view_matches_owned_decoder as fn(&[u8]),
        );
        for (mut plain, check) in [batch, single] {
            for &(at, byte) in &edits {
                let at = usize::from(at) % plain.len();
                plain[at] = byte;
            }
            check(&plain);
            plain.truncate(usize::from(keep) % (plain.len() + 1));
            check(&plain);
            plain.extend_from_slice(&extra);
            check(&plain);
        }
    }

    #[test]
    fn multiplicities_round_trip_as_deliveries(
        entries in prop::collection::vec((arb_publication(), 1u32..4), 0..8),
    ) {
        let (publications, copies): (Vec<Publication>, Vec<u32>) = entries.into_iter().unzip();
        // The list is written only when some publication repeats.
        let repeats = copies.iter().any(|&c| c > 1);
        let plain = with_list(&publications, if repeats { &copies } else { &[] });
        let view = Notifications::parse(plain.clone()).expect("a canonical frame parses");
        assert_delivers(view, &publications, &copies);
        assert_view_matches_owned_decoder(&plain);
        prop_assert_eq!(Vec::<Publication>::from_wire(&plain).is_ok(), !repeats);
    }

    #[test]
    fn a_non_canonical_multiplicity_list_is_rejected(
        entries in prop::collection::vec((arb_publication(), 1u32..4), 1..8),
        at in any::<u16>(),
        cut in any::<u16>(),
        extra in prop::collection::vec(any::<u8>(), 1..8),
    ) {
        let (publications, mut copies): (Vec<Publication>, Vec<u32>) = entries.into_iter().unzip();
        let n = publications.len();
        let at = usize::from(at) % n;
        let rejected = |plain: Vec<u8>| {
            assert_view_matches_owned_decoder(&plain);
            matches!(Notifications::parse(plain), Err(CryptoError::Malformed(_)))
        };
        prop_assert!(rejected(with_list(&publications, &vec![1; n])));
        let mut zeroed = copies.clone();
        zeroed[at] = 0;
        prop_assert!(rejected(with_list(&publications, &zeroed)));

        // A canonical list, then cut short or extended.
        copies[at] = copies[at].max(2);
        let plain = with_list(&publications, &copies);
        prop_assert!(Notifications::parse(plain.clone()).is_ok());
        let mut truncated = plain.clone();
        truncated.truncate(plain.len() - 1 - usize::from(cut) % (4 * n - 1));
        prop_assert!(rejected(truncated));
        let mut longer = plain;
        longer.extend_from_slice(&extra);
        prop_assert!(rejected(longer));
    }

    #[test]
    fn unsorted_or_duplicated_keys_are_rejected(
        pairs in prop::collection::vec((arb_key(), arb_value()), 1..5),
        duplicate in any::<u16>(),
    ) {
        let ascending = pairs.windows(2).all(|w| w[0].0 < w[1].0);
        let mut single = Vec::new();
        encode_pairs(&pairs, &mut single);
        assert_single_view_matches_owned_decoder(&single);
        prop_assert_eq!(PublicationRef::parse(&single).is_ok(), ascending);
        let mut plain = Vec::new();
        1u32.encode(&mut plain);
        plain.extend_from_slice(&single);
        assert_view_matches_owned_decoder(&plain);
        prop_assert_eq!(Notifications::parse(plain).is_ok(), ascending);

        // Any key repeated anywhere in a publication is out of order.
        let mut repeated = pairs.clone();
        let again = repeated[usize::from(duplicate) % pairs.len()].clone();
        repeated.insert(usize::from(duplicate) % (pairs.len() + 1), again);
        let mut single = Vec::new();
        encode_pairs(&repeated, &mut single);
        prop_assert!(Publication::from_wire(&single).is_ok());
        prop_assert!(PublicationRef::parse(&single).is_err());
        let mut plain = Vec::new();
        1u32.encode(&mut plain);
        plain.extend_from_slice(&single);
        prop_assert!(Vec::<Publication>::from_wire(&plain).is_ok());
        prop_assert!(Notifications::parse(plain).is_err());
    }
}
