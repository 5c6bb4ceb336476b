//! Property-based tests for the crypto crate's core invariants.

use proptest::prelude::*;
use securecloud_crypto::gcm::AesGcm;
use securecloud_crypto::hmac::HmacSha256;
use securecloud_crypto::sha256::Sha256;
use securecloud_crypto::wire::Wire;
use securecloud_crypto::{ct_eq, hex, unhex, CryptoError};

proptest! {
    /// Sealing then opening under the same key/nonce/aad is the identity.
    #[test]
    fn gcm_seal_open_roundtrip(
        key in prop::array::uniform16(any::<u8>()),
        nonce in prop::array::uniform12(any::<u8>()),
        plaintext in prop::collection::vec(any::<u8>(), 0..512),
        aad in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let cipher = AesGcm::new(&key);
        let sealed = cipher.seal(&nonce, &plaintext, &aad);
        prop_assert_eq!(sealed.len(), plaintext.len() + 16);
        let opened = cipher.open(&nonce, &sealed, &aad).unwrap();
        prop_assert_eq!(opened, plaintext);
    }

    /// Any single-bit flip anywhere in the sealed blob is detected.
    #[test]
    fn gcm_bitflip_detected(
        key in prop::array::uniform16(any::<u8>()),
        plaintext in prop::collection::vec(any::<u8>(), 1..128),
        flip_byte in 0usize..144,
        flip_bit in 0u8..8,
    ) {
        let cipher = AesGcm::new(&key);
        let nonce = [0u8; 12];
        let mut sealed = cipher.seal(&nonce, &plaintext, b"");
        let idx = flip_byte % sealed.len();
        sealed[idx] ^= 1 << flip_bit;
        prop_assert!(cipher.open(&nonce, &sealed, b"").is_err());
    }

    /// The one decoder of self-describing `nonce || ct || tag` blobs (the
    /// sealed manifest, protection file, snapshot, bus payload and enclave
    /// seal): it returns the body, the sealer fills an exactly-sized buffer,
    /// and every truncation, an appended byte, or a flipped bit is an
    /// authentication failure, never a panic.
    #[test]
    fn envelope_roundtrips_and_rejects_damage(
        key in prop::array::uniform16(any::<u8>()),
        nonce in prop::array::uniform12(any::<u8>()),
        aad in prop::collection::vec(any::<u8>(), 0..65),
        body in prop::collection::vec(any::<u8>(), 0..1101),
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 1..17),
    ) {
        let cipher = AesGcm::new(&key);
        let sealed = cipher.seal_envelope(&nonce, &aad, body.len(), |out| {
            out.extend_from_slice(&body);
        });
        prop_assert_eq!(sealed.len(), 12 + body.len() + 16);
        prop_assert_eq!(sealed.capacity(), sealed.len());
        prop_assert_eq!(cipher.open_envelope(&sealed, &aad), Ok(body));

        let refused = Err(CryptoError::AuthenticationFailed);
        for cut in 0..sealed.len() {
            prop_assert_eq!(cipher.open_envelope(&sealed[..cut], &aad), refused.clone());
        }
        let mut longer = sealed.clone();
        longer.push(0);
        prop_assert_eq!(cipher.open_envelope(&longer, &aad), refused.clone());
        for (at, bit) in flips {
            let mut bad = sealed.clone();
            bad[at % sealed.len()] ^= 1 << bit;
            prop_assert_eq!(cipher.open_envelope(&bad, &aad), refused.clone());
        }
    }

    /// Incremental hashing over arbitrary splits equals one-shot hashing.
    #[test]
    fn sha256_split_invariance(
        data in prop::collection::vec(any::<u8>(), 0..1024),
        split in 0usize..1024,
    ) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    /// HMAC verification accepts exactly the matching tag.
    #[test]
    fn hmac_verify_consistent(
        key in prop::collection::vec(any::<u8>(), 0..100),
        msg in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let tag = HmacSha256::mac(&key, &msg);
        prop_assert!(HmacSha256::verify(&key, &msg, &tag));
        let mut bad = tag;
        bad[31] ^= 0x80;
        prop_assert!(!HmacSha256::verify(&key, &msg, &bad));
    }

    /// Hex encode/decode is a bijection on byte strings.
    #[test]
    fn hex_bijection(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(unhex(&hex(&bytes)).unwrap(), bytes);
    }

    /// ct_eq agrees with ==.
    #[test]
    fn ct_eq_agrees_with_eq(
        a in prop::collection::vec(any::<u8>(), 0..64),
        b in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assert_eq!(ct_eq(&a, &b), a == b);
    }

    /// Wire roundtrips for a compound type.
    #[test]
    fn wire_compound_roundtrip(
        n in any::<u64>(),
        s in "\\PC{0,50}",
        v in prop::collection::vec(any::<u32>(), 0..50),
        opt in prop::option::of(any::<i64>()),
    ) {
        let value = (n, s, (v, opt));
        let encoded = value.to_wire();
        let decoded = <(u64, String, (Vec<u32>, Option<i64>))>::from_wire(&encoded).unwrap();
        prop_assert_eq!(decoded, value);
    }

    /// The wire decoder never panics on arbitrary input bytes.
    #[test]
    fn wire_decoder_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = <(u64, String, Vec<u32>)>::from_wire(&bytes);
        let _ = String::from_wire(&bytes);
        let _ = Vec::<Vec<u8>>::from_wire(&bytes);
        let _ = Option::<(bool, u16)>::from_wire(&bytes);
    }

    /// X25519: derived shared secrets agree for random key pairs.
    #[test]
    fn x25519_dh_agreement(
        a in prop::array::uniform32(any::<u8>()),
        b in prop::array::uniform32(any::<u8>()),
    ) {
        use securecloud_crypto::x25519::{diffie_hellman, public_key};
        let pa = public_key(&a);
        let pb = public_key(&b);
        prop_assert_eq!(diffie_hellman(&a, &pb), diffie_hellman(&b, &pa));
    }
}

mod handshake_robustness {
    use proptest::prelude::*;
    use securecloud_crypto::channel::{
        memory_pair, ChannelConfig, Identity, SecureChannel, Transport,
    };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A responder fed arbitrary bytes as a ClientHello errors cleanly
        /// (no panic, no channel).
        #[test]
        fn responder_survives_garbage_hello(garbage in prop::collection::vec(any::<u8>(), 0..200)) {
            let (attacker, server_side) = memory_pair();
            attacker.send_frame(garbage).unwrap();
            drop(attacker);
            let id = Identity::generate("server");
            let result = SecureChannel::respond(server_side, &id, ChannelConfig::default());
            prop_assert!(result.is_err());
        }

        /// A MITM flipping one bit of any server->client handshake frame
        /// (hello or finished MAC) aborts the initiator's handshake.
        #[test]
        fn initiator_rejects_tampered_handshake_frames(
            which_frame in 0usize..2,
            flip_byte in 0usize..64,
            flip_bit in 0u8..8,
        ) {
            struct Mitm {
                inner: securecloud_crypto::channel::MemoryTransport,
                recv_count: std::cell::Cell<usize>,
                target: usize,
                flip_byte: usize,
                flip_bit: u8,
            }
            impl Transport for Mitm {
                fn send_frame(&self, frame: Vec<u8>) -> Result<(), securecloud_crypto::CryptoError> {
                    self.inner.send_frame(frame)
                }
                fn recv_frame(&self) -> Result<Vec<u8>, securecloud_crypto::CryptoError> {
                    let mut frame = self.inner.recv_frame()?;
                    let n = self.recv_count.get();
                    self.recv_count.set(n + 1);
                    if n == self.target && !frame.is_empty() {
                        let idx = self.flip_byte % frame.len();
                        frame[idx] ^= 1 << self.flip_bit;
                    }
                    Ok(frame)
                }
            }
            let (client_side, server_side) = memory_pair();
            let client_id = Identity::generate("client");
            let server_id = Identity::generate("server");
            let server = std::thread::spawn(move || {
                SecureChannel::respond(server_side, &server_id, ChannelConfig::default())
            });
            let mitm = Mitm {
                inner: client_side,
                recv_count: std::cell::Cell::new(0),
                target: which_frame,
                flip_byte,
                flip_bit,
            };
            let result = SecureChannel::initiate(mitm, &client_id, ChannelConfig::default());
            prop_assert!(result.is_err(), "tampered handshake must fail");
            let _ = server.join();
        }
    }
}
