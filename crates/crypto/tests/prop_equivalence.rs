//! Property tests pinning every AES-GCM kernel to the reference oracle.
//!
//! `AesGcm` runs on one of two kernels — hardware (AES-NI + PCLMULQDQ) or
//! portable (T-table AES, windowed GHASH) — and both must be byte-for-byte
//! interchangeable with the textbook implementations retained in
//! `securecloud_crypto::reference`, on arbitrary inputs and on the NIST
//! vectors. Every property below therefore runs once per kernel this host can
//! run. Message lengths run 0..=1100 so every batching boundary of both
//! kernels (empty input, partial block, partial 128-byte batch, several
//! batches plus a ragged tail) is exercised.

use std::io::Write;
use std::sync::Once;

use proptest::prelude::*;
use securecloud_crypto::gcm::{AesGcm, Kernel, TAG_LEN};
use securecloud_crypto::{hex, reference, unhex, CryptoError};

/// One cipher per kernel this host can run. A host without the hardware
/// features says so on the real stderr (once per test binary, past libtest's
/// capture) instead of letting the hardware cases pass silently.
fn kernels(key: &[u8; 16]) -> Vec<AesGcm> {
    static SKIPPED: Once = Once::new();
    [Kernel::Hardware, Kernel::Portable]
        .into_iter()
        .filter_map(|kernel| {
            let cipher = AesGcm::with_kernel(key, kernel);
            if cipher.is_none() {
                SKIPPED.call_once(|| {
                    let _ = writeln!(
                        std::io::stderr(),
                        "skipped: no aes/pclmulqdq — {} kernel cases not run on this host",
                        kernel.name()
                    );
                });
            }
            cipher
        })
        .collect()
}

/// A fixed, patterned byte string for the deterministic sweeps.
fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i.wrapping_mul(131) >> 3) as u8 ^ salt)
        .collect()
}

proptest! {
    /// Table-driven AES block encryption equals the byte-wise rounds.
    #[test]
    fn aes_table_rounds_match_reference(
        key in prop::array::uniform16(any::<u8>()),
        block in prop::array::uniform16(any::<u8>()),
    ) {
        let aes = securecloud_crypto::aes::Aes128::new(&key);
        let mut fast = block;
        aes.encrypt_block(&mut fast);
        let mut scalar = block;
        reference::aes_encrypt_block(&aes, &mut scalar);
        prop_assert_eq!(fast, scalar);
    }

    /// GHASH on every kernel equals the 128-iteration bit-loop GHASH.
    #[test]
    fn ghash_matches_reference(
        key in prop::array::uniform16(any::<u8>()),
        aad in prop::collection::vec(any::<u8>(), 0..65),
        data in prop::collection::vec(any::<u8>(), 0..1101),
    ) {
        let slow = reference::ghash(&key, &aad, &data);
        for cipher in kernels(&key) {
            prop_assert_eq!(cipher.ghash(&aad, &data), slow, "{:?}", cipher.kernel());
        }
    }

    /// Seal on every kernel produces the reference `ciphertext || tag`, in
    /// place and allocating, and open restores the plaintext.
    #[test]
    fn seal_matches_reference(
        key in prop::array::uniform16(any::<u8>()),
        nonce in prop::array::uniform12(any::<u8>()),
        plaintext in prop::collection::vec(any::<u8>(), 0..1101),
        aad in prop::collection::vec(any::<u8>(), 0..65),
    ) {
        let slow = reference::seal(&key, &nonce, &plaintext, &aad);
        for cipher in kernels(&key) {
            prop_assert_eq!(&cipher.seal(&nonce, &plaintext, &aad), &slow, "{:?}", cipher.kernel());
            let mut buf = plaintext.clone();
            cipher.seal_in_place(&nonce, &mut buf, &aad);
            prop_assert_eq!(&buf, &slow, "{:?} in place", cipher.kernel());
            prop_assert_eq!(buf.len(), plaintext.len() + TAG_LEN);
            cipher.open_in_place(&nonce, &mut buf, &aad).unwrap();
            prop_assert_eq!(&buf, &plaintext, "{:?} open in place", cipher.kernel());
        }
    }

    /// Open on every kernel accepts exactly what the reference open accepts.
    #[test]
    fn open_matches_reference(
        key in prop::array::uniform16(any::<u8>()),
        nonce in prop::array::uniform12(any::<u8>()),
        plaintext in prop::collection::vec(any::<u8>(), 0..1101),
        aad in prop::collection::vec(any::<u8>(), 0..65),
        corrupt in any::<bool>(),
        flip_byte in any::<usize>(),
    ) {
        let mut sealed = reference::seal(&key, &nonce, &plaintext, &aad);
        if corrupt {
            let idx = flip_byte % sealed.len();
            sealed[idx] ^= 0x01;
        }
        let slow = reference::open(&key, &nonce, &sealed, &aad);
        prop_assert_eq!(slow.is_err(), corrupt);
        for cipher in kernels(&key) {
            prop_assert_eq!(&cipher.open(&nonce, &sealed, &aad), &slow, "{:?}", cipher.kernel());
        }
    }

    /// Any single flipped bit — in the ciphertext, the tag or the AAD — is
    /// rejected on every kernel, and the failed open leaves the caller's
    /// buffer exactly as it was handed in.
    #[test]
    fn single_bit_flip_rejected_buffer_untouched(
        key in prop::array::uniform16(any::<u8>()),
        nonce in prop::array::uniform12(any::<u8>()),
        plaintext in prop::collection::vec(any::<u8>(), 0..1101),
        aad in prop::collection::vec(any::<u8>(), 0..65),
        flip_bit in any::<usize>(),
    ) {
        for cipher in kernels(&key) {
            let mut sealed = plaintext.clone();
            cipher.seal_in_place(&nonce, &mut sealed, &aad);
            let mut aad = aad.clone();
            let bit = flip_bit % ((sealed.len() + aad.len()) * 8);
            let (byte, mask) = (bit / 8, 1u8 << (bit % 8));
            match byte.checked_sub(sealed.len()) {
                None => sealed[byte] ^= mask,
                Some(in_aad) => aad[in_aad] ^= mask,
            }
            let handed_in = sealed.clone();
            prop_assert_eq!(
                cipher.open_in_place(&nonce, &mut sealed, &aad),
                Err(CryptoError::AuthenticationFailed),
                "{:?}, bit {}", cipher.kernel(), bit
            );
            prop_assert_eq!(&sealed, &handed_in, "{:?}, bit {}", cipher.kernel(), bit);
        }
    }
}

/// Every message length from empty to past eight 128-byte batches, so that no
/// boundary of either kernel depends on what the random cases happen to draw.
#[test]
fn every_length_matches_reference() {
    let key: [u8; 16] = pattern(16, 0x5a).try_into().unwrap();
    let nonce: [u8; 12] = pattern(12, 0xc3).try_into().unwrap();
    let message = pattern(1100, 0);
    let ciphers = kernels(&key);
    for len in 0..=message.len() {
        let aad = pattern(len % 65, 0x77);
        let sealed = reference::seal(&key, &nonce, &message[..len], &aad);
        let ghash = reference::ghash(&key, &aad, &message[..len]);
        for cipher in &ciphers {
            let kernel = cipher.kernel();
            assert_eq!(
                cipher.seal(&nonce, &message[..len], &aad),
                sealed,
                "{kernel:?}, {len} B"
            );
            assert_eq!(
                cipher.ghash(&aad, &message[..len]),
                ghash,
                "{kernel:?}, {len} B"
            );
            assert_eq!(
                cipher.open(&nonce, &sealed, &aad).as_deref(),
                Ok(&message[..len]),
                "{kernel:?}, {len} B"
            );
        }
    }
}

/// NIST GCM test cases 1–4 (McGrew & Viega, AES-128), once per kernel.
#[test]
fn nist_vectors_on_every_kernel() {
    const KEY_3_4: &str = "feffe9928665731c6d6a8f9467308308";
    const NONCE_3_4: &str = "cafebabefacedbaddecaf888";
    const PLAIN_3: &str = concat!(
        "d9313225f88406e5a55909c5aff5269a",
        "86a7a9531534f7da2e4c303d8a318a72",
        "1c3c0c95956809532fcf0e2449a6b525",
        "b16aedf5aa0de657ba637b391aafd255"
    );
    // (key, nonce, plaintext, aad, ciphertext || tag)
    let cases = [
        (
            "00000000000000000000000000000000",
            "000000000000000000000000",
            "",
            "",
            "58e2fccefa7e3061367f1d57a4e7455a",
        ),
        (
            "00000000000000000000000000000000",
            "000000000000000000000000",
            "00000000000000000000000000000000",
            "",
            "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf",
        ),
        (
            KEY_3_4,
            NONCE_3_4,
            PLAIN_3,
            "",
            concat!(
                "42831ec2217774244b7221b784d0d49c",
                "e3aa212f2c02a4e035c17e2329aca12e",
                "21d514b25466931c7d8f6a5aac84aa05",
                "1ba30b396a0aac973d58e091473f5985",
                "4d5c2af327cd64a62cf35abd2ba6fab4"
            ),
        ),
        (
            KEY_3_4,
            NONCE_3_4,
            &PLAIN_3[..120],
            "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            concat!(
                "42831ec2217774244b7221b784d0d49c",
                "e3aa212f2c02a4e035c17e2329aca12e",
                "21d514b25466931c7d8f6a5aac84aa05",
                "1ba30b396a0aac973d58e091",
                "5bc94fbc3221a5db94fae95ae7121a47"
            ),
        ),
    ];
    for (case, (key, nonce, plain, aad, sealed)) in cases.into_iter().enumerate() {
        let key: [u8; 16] = unhex(key).unwrap().try_into().unwrap();
        let nonce: [u8; 12] = unhex(nonce).unwrap().try_into().unwrap();
        let plain = unhex(plain).unwrap();
        let aad = unhex(aad).unwrap();
        for cipher in kernels(&key) {
            let kernel = cipher.kernel();
            let out = cipher.seal(&nonce, &plain, &aad);
            assert_eq!(hex(&out), sealed, "case {}, {kernel:?}", case + 1);
            assert_eq!(
                cipher.open(&nonce, &out, &aad).unwrap(),
                plain,
                "case {}, {kernel:?}",
                case + 1
            );
        }
    }
}

/// `Debug` names the kernel and nothing else: no round key, no hash key.
#[test]
fn debug_prints_no_key_material() {
    for cipher in kernels(&[0xa7; 16]) {
        let kernel = cipher.kernel();
        assert_eq!(
            format!("{cipher:?}"),
            format!("AesGcm {{ kernel: {kernel:?}, .. }}")
        );
    }
}

/// `AesGcm::new` takes the hardware kernel exactly when the host can run it.
#[test]
fn new_selects_hardware_when_available() {
    let key = [1u8; 16];
    let expected = match AesGcm::with_kernel(&key, Kernel::Hardware) {
        Some(_) => Kernel::Hardware,
        None => Kernel::Portable,
    };
    assert_eq!(AesGcm::new(&key).kernel(), expected);
}
