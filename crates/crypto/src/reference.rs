//! Textbook reference implementations: the oracle both AES-GCM kernels are
//! checked against.
//!
//! The production paths — the hardware kernel (AES-NI + PCLMULQDQ) and the
//! portable one in [`crate::aes`] (T-table rounds, batched CTR) and
//! [`crate::gcm`] (windowed GHASH) — replaced byte-wise loops. Those
//! originals live on here, verbatim in behaviour, for two reasons:
//!
//! * **equivalence testing** — property tests assert each kernel is
//!   byte-identical to these on arbitrary inputs, on top of the NIST vectors;
//! * **perf trajectory** — the `repro -- crypto` microbenchmark reports
//!   reference, portable and hardware throughput side by side, so a
//!   regression in any of them is visible in `BENCH_crypto.json`.
//!
//! Nothing outside tests and the benchmark should call into this module.

use crate::aes::Aes128;
use crate::gcm::{NONCE_LEN, TAG_LEN};
use crate::CryptoError;

/// Encrypts one block with the byte-wise AES rounds
/// (`sub_bytes`/`shift_rows`/`mix_columns` applied per byte, no T-tables).
pub fn aes_encrypt_block(aes: &Aes128, block: &mut [u8; 16]) {
    aes.encrypt_block_scalar(block);
}

/// Carry-less multiplication in GF(2^128) with GCM's reflected bit order,
/// one shift/XOR iteration per bit (the loop the windowed table replaces).
#[must_use]
pub fn gf128_mul(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    let mut z = 0u128;
    let mut v = y;
    for i in 0..128 {
        if (x >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
    }
    z
}

fn block_to_u128(block: &[u8]) -> u128 {
    let mut buf = [0u8; 16];
    buf[..block.len()].copy_from_slice(block);
    u128::from_be_bytes(buf)
}

fn hash_key(key: &[u8; 16]) -> u128 {
    let mut h = [0u8; 16];
    Aes128::new(key).encrypt_block_scalar(&mut h);
    u128::from_be_bytes(h)
}

/// GHASH of `aad || ciphertext || lengths` under the hash key derived from
/// `key`, using the bit-by-bit [`gf128_mul`].
#[must_use]
pub fn ghash(key: &[u8; 16], aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
    let h = hash_key(key);
    let mut y = 0u128;
    for chunk in aad.chunks(16) {
        y = gf128_mul(y ^ block_to_u128(chunk), h);
    }
    for chunk in ciphertext.chunks(16) {
        y = gf128_mul(y ^ block_to_u128(chunk), h);
    }
    let lengths = ((aad.len() as u128 * 8) << 64) | (ciphertext.len() as u128 * 8);
    y = gf128_mul(y ^ lengths, h);
    y.to_be_bytes()
}

fn j0(nonce: &[u8; NONCE_LEN]) -> [u8; 16] {
    let mut j0 = [0u8; 16];
    j0[..12].copy_from_slice(nonce);
    j0[15] = 1;
    j0
}

/// Unbatched GCTR: one scalar block encryption and a byte-wise XOR per
/// 16-byte chunk.
fn gctr(aes: &Aes128, j0: &[u8; 16], buf: &mut [u8]) {
    let mut counter = u32::from_be_bytes(j0[12..16].try_into().expect("ctr"));
    let mut block = *j0;
    for chunk in buf.chunks_mut(16) {
        counter = counter.wrapping_add(1);
        block[12..16].copy_from_slice(&counter.to_be_bytes());
        let mut keystream = block;
        aes.encrypt_block_scalar(&mut keystream);
        for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
            *b ^= k;
        }
    }
}

fn tag(key: &[u8; 16], j0: &[u8; 16], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
    let s = ghash(key, aad, ciphertext);
    let mut tag = *j0;
    Aes128::new(key).encrypt_block_scalar(&mut tag);
    for (t, s) in tag.iter_mut().zip(s.iter()) {
        *t ^= s;
    }
    tag
}

/// AES-128-GCM seal built entirely from the reference kernels; returns
/// `ciphertext || tag`, byte-identical to [`crate::gcm::AesGcm::seal`].
#[must_use]
pub fn seal(key: &[u8; 16], nonce: &[u8; NONCE_LEN], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
    let aes = Aes128::new(key);
    let j0 = j0(nonce);
    let mut out = plaintext.to_vec();
    gctr(&aes, &j0, &mut out);
    let tag = tag(key, &j0, aad, &out);
    out.extend_from_slice(&tag);
    out
}

/// AES-128-GCM open built entirely from the reference kernels.
///
/// # Errors
///
/// [`CryptoError::AuthenticationFailed`] if the input is shorter than a tag
/// or the tag does not verify.
pub fn open(
    key: &[u8; 16],
    nonce: &[u8; NONCE_LEN],
    sealed: &[u8],
    aad: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    if sealed.len() < TAG_LEN {
        return Err(CryptoError::AuthenticationFailed);
    }
    let (ciphertext, expect_tag) = sealed.split_at(sealed.len() - TAG_LEN);
    let j0 = j0(nonce);
    let tag = tag(key, &j0, aad, ciphertext);
    if !crate::ct_eq(&tag, expect_tag) {
        return Err(CryptoError::AuthenticationFailed);
    }
    let mut out = ciphertext.to_vec();
    gctr(&Aes128::new(key), &j0, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unhex;

    #[test]
    fn reference_seal_matches_nist_case_2() {
        let sealed = seal(&[0u8; 16], &[0u8; 12], &[0u8; 16], b"");
        assert_eq!(
            crate::hex(&sealed),
            "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"
        );
    }

    #[test]
    fn reference_roundtrip_and_reject() {
        let key = [0x11u8; 16];
        let nonce = [0x22u8; 12];
        let sealed = seal(&key, &nonce, b"reference payload", b"aad");
        assert_eq!(
            open(&key, &nonce, &sealed, b"aad").unwrap(),
            b"reference payload"
        );
        assert!(open(&key, &nonce, &sealed, b"bad").is_err());
        assert!(open(&key, &nonce, &sealed[..TAG_LEN - 1], b"aad").is_err());
    }

    #[test]
    fn gf128_mul_field_laws() {
        // In GCM's reflected bit order the multiplicative identity (x^0) is
        // the block with only its first bit set.
        const ONE: u128 = 1 << 127;
        let a = u128::from_be_bytes(
            unhex("66e94bd4ef8a2c3b884cfa59ca342b2e").unwrap()[..16]
                .try_into()
                .unwrap(),
        );
        let b = u128::from_be_bytes(
            unhex("0388dace60b6a392f328c2b971b2fe78").unwrap()[..16]
                .try_into()
                .unwrap(),
        );
        let c = 0x0123_4567_89ab_cdef_u128 | (1 << 127);
        assert_eq!(gf128_mul(ONE, a), a);
        assert_eq!(gf128_mul(a, ONE), a);
        assert_eq!(gf128_mul(a, 0), 0);
        assert_eq!(gf128_mul(a, b), gf128_mul(b, a));
        assert_eq!(
            gf128_mul(a ^ b, c),
            gf128_mul(a, c) ^ gf128_mul(b, c),
            "multiplication distributes over XOR (field addition)"
        );
        assert_eq!(
            gf128_mul(gf128_mul(a, b), c),
            gf128_mul(a, gf128_mul(b, c)),
            "multiplication is associative"
        );
    }
}
