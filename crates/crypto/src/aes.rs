//! AES-128 block cipher (FIPS 197).
//!
//! The S-box is derived at first use from its algebraic definition
//! (multiplicative inverse in GF(2^8) followed by the affine transform)
//! rather than being transcribed, and the implementation is validated against
//! the FIPS-197 known-answer vector.
//!
//! Encryption runs table-driven: the classic four T-tables (each entry packs
//! `SubBytes` + `MixColumns` for one state byte) are precomputed from the
//! derived S-box, so a round is 16 lookups and a handful of XORs instead of
//! byte-wise `sub_bytes`/`shift_rows`/`mix_columns` passes. The byte-wise
//! round functions are retained as the reference path (see
//! [`crate::reference`]) and the two are property-tested for equivalence.
//! Table lookups are *not* constant-time. [`crate::gcm::AesGcm`] uses this
//! cipher only on its portable fallback kernel — hosts with AES-NI never run
//! it on the data path; see DESIGN.md §9.

use std::sync::OnceLock;

/// Number of 32-bit words in an AES-128 key.
const NK: usize = 4;
/// Number of rounds for AES-128.
const NR: usize = 10;

struct Tables {
    sbox: [u8; 256],
    inv_sbox: [u8; 256],
    /// Encryption T-tables. `te[0][x]` packs `(2s, s, s, 3s)` big-endian for
    /// `s = sbox[x]`; `te[1..4]` are byte rotations so each state byte indexes
    /// its own table.
    te: [[u32; 256]; 4],
}

fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80 != 0;
        a <<= 1;
        if hi {
            a ^= 0x1b; // x^8 + x^4 + x^3 + x + 1
        }
        b >>= 1;
    }
    p
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        // Multiplicative inverses by brute force (256*256 is trivial).
        let mut inv = [0u8; 256];
        for a in 1..=255u8 {
            for b in 1..=255u8 {
                if gf_mul(a, b) == 1 {
                    inv[a as usize] = b;
                    break;
                }
            }
        }
        let mut sbox = [0u8; 256];
        let mut inv_sbox = [0u8; 256];
        for x in 0..256usize {
            let i = inv[x];
            let s = i
                ^ i.rotate_left(1)
                ^ i.rotate_left(2)
                ^ i.rotate_left(3)
                ^ i.rotate_left(4)
                ^ 0x63;
            sbox[x] = s;
            inv_sbox[s as usize] = x as u8;
        }
        let mut te = [[0u32; 256]; 4];
        for x in 0..256usize {
            let s = sbox[x];
            let s2 = gf_mul(s, 2);
            let s3 = s2 ^ s;
            let word = u32::from_be_bytes([s2, s, s, s3]);
            te[0][x] = word;
            te[1][x] = word.rotate_right(8);
            te[2][x] = word.rotate_right(16);
            te[3][x] = word.rotate_right(24);
        }
        Tables { sbox, inv_sbox, te }
    })
}

/// An expanded AES-128 key, usable for block encryption and decryption.
///
/// ```
/// use securecloud_crypto::aes::Aes128;
///
/// let aes = Aes128::new(&[0u8; 16]);
/// let mut block = *b"0123456789abcdef";
/// let original = block;
/// aes.encrypt_block(&mut block);
/// aes.decrypt_block(&mut block);
/// assert_eq!(block, original);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; NR + 1],
    /// The same schedule as big-endian column words, so the table-driven
    /// rounds XOR whole words instead of bytes.
    round_words: [[u32; 4]; NR + 1],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

impl Aes128 {
    /// Expands `key` into the round-key schedule.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        let t = tables();
        let mut w = [[0u8; 4]; 4 * (NR + 1)];
        for i in 0..NK {
            w[i].copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        let mut rcon = 1u8;
        for i in NK..4 * (NR + 1) {
            let mut temp = w[i - 1];
            if i % NK == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = t.sbox[*b as usize];
                }
                temp[0] ^= rcon;
                rcon = gf_mul(rcon, 2);
            }
            for j in 0..4 {
                w[i][j] = w[i - NK][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; NR + 1];
        let mut round_words = [[0u32; 4]; NR + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
                round_words[r][c] = u32::from_be_bytes(w[4 * r + c]);
            }
        }
        Aes128 {
            round_keys,
            round_words,
        }
    }

    /// Encrypts one 16-byte block in place (table-driven fast path).
    ///
    /// The state is held as four big-endian column words; each round is 16
    /// T-table lookups and the final round applies the S-box alone. Verified
    /// byte-for-byte against `Aes128::encrypt_block_scalar` by property
    /// tests and against the FIPS-197 / NIST vectors.
    #[inline]
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let t = tables();
        let rk = &self.round_words;
        let mut s0 = u32::from_be_bytes([block[0], block[1], block[2], block[3]]) ^ rk[0][0];
        let mut s1 = u32::from_be_bytes([block[4], block[5], block[6], block[7]]) ^ rk[0][1];
        let mut s2 = u32::from_be_bytes([block[8], block[9], block[10], block[11]]) ^ rk[0][2];
        let mut s3 = u32::from_be_bytes([block[12], block[13], block[14], block[15]]) ^ rk[0][3];
        for round in rk.iter().take(NR).skip(1) {
            // ShiftRows moves row r of output column c from input column
            // (c + r) mod 4, hence the rotating source words per table.
            let t0 = t.te[0][(s0 >> 24) as usize]
                ^ t.te[1][((s1 >> 16) & 0xff) as usize]
                ^ t.te[2][((s2 >> 8) & 0xff) as usize]
                ^ t.te[3][(s3 & 0xff) as usize]
                ^ round[0];
            let t1 = t.te[0][(s1 >> 24) as usize]
                ^ t.te[1][((s2 >> 16) & 0xff) as usize]
                ^ t.te[2][((s3 >> 8) & 0xff) as usize]
                ^ t.te[3][(s0 & 0xff) as usize]
                ^ round[1];
            let t2 = t.te[0][(s2 >> 24) as usize]
                ^ t.te[1][((s3 >> 16) & 0xff) as usize]
                ^ t.te[2][((s0 >> 8) & 0xff) as usize]
                ^ t.te[3][(s1 & 0xff) as usize]
                ^ round[2];
            let t3 = t.te[0][(s3 >> 24) as usize]
                ^ t.te[1][((s0 >> 16) & 0xff) as usize]
                ^ t.te[2][((s1 >> 8) & 0xff) as usize]
                ^ t.te[3][(s2 & 0xff) as usize]
                ^ round[3];
            s0 = t0;
            s1 = t1;
            s2 = t2;
            s3 = t3;
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        let sb = |b: u32| u32::from(t.sbox[(b & 0xff) as usize]);
        let o0 = (sb(s0 >> 24) << 24 | sb(s1 >> 16) << 16 | sb(s2 >> 8) << 8 | sb(s3)) ^ rk[NR][0];
        let o1 = (sb(s1 >> 24) << 24 | sb(s2 >> 16) << 16 | sb(s3 >> 8) << 8 | sb(s0)) ^ rk[NR][1];
        let o2 = (sb(s2 >> 24) << 24 | sb(s3 >> 16) << 16 | sb(s0 >> 8) << 8 | sb(s1)) ^ rk[NR][2];
        let o3 = (sb(s3 >> 24) << 24 | sb(s0 >> 16) << 16 | sb(s1 >> 8) << 8 | sb(s2)) ^ rk[NR][3];
        block[0..4].copy_from_slice(&o0.to_be_bytes());
        block[4..8].copy_from_slice(&o1.to_be_bytes());
        block[8..12].copy_from_slice(&o2.to_be_bytes());
        block[12..16].copy_from_slice(&o3.to_be_bytes());
    }

    /// Encrypts one 16-byte block in place with the byte-wise reference
    /// rounds. Kept as the equivalence baseline for the table-driven path;
    /// exposed through [`crate::reference`].
    pub(crate) fn encrypt_block_scalar(&self, block: &mut [u8; 16]) {
        let t = tables();
        add_round_key(block, &self.round_keys[0]);
        for round in 1..NR {
            sub_bytes(block, &t.sbox);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[round]);
        }
        sub_bytes(block, &t.sbox);
        shift_rows(block);
        add_round_key(block, &self.round_keys[NR]);
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        let t = tables();
        add_round_key(block, &self.round_keys[NR]);
        inv_shift_rows(block);
        sub_bytes(block, &t.inv_sbox);
        for round in (1..NR).rev() {
            add_round_key(block, &self.round_keys[round]);
            inv_mix_columns(block);
            inv_shift_rows(block);
            sub_bytes(block, &t.inv_sbox);
        }
        add_round_key(block, &self.round_keys[0]);
    }

    /// Encrypts `buf` in CTR mode with the given 16-byte initial counter
    /// block; the same call decrypts.
    ///
    /// The counter is incremented over the full 128 bits, big-endian.
    /// Keystream blocks are generated `CTR_BATCH` at a time and XORed in as
    /// whole words.
    pub fn ctr_xor(&self, counter0: &[u8; 16], buf: &mut [u8]) {
        let mut counter = *counter0;
        ctr_stream(self, buf, move || {
            let block = counter;
            increment_be(&mut counter);
            block
        });
    }
}

/// Keystream blocks generated per batch before XORing into the message.
pub(crate) const CTR_BATCH: usize = 8;

/// Shared CTR engine: `next_counter` yields successive counter blocks (the
/// increment rule differs between raw CTR and GCM's 32-bit GCTR), and the
/// keystream is produced in batches of [`CTR_BATCH`] encryptions then XORed
/// into `buf` word-wise.
#[inline]
pub(crate) fn ctr_stream(aes: &Aes128, buf: &mut [u8], mut next_counter: impl FnMut() -> [u8; 16]) {
    let mut ks = [0u8; 16 * CTR_BATCH];
    let mut chunks = buf.chunks_exact_mut(16 * CTR_BATCH);
    for chunk in &mut chunks {
        for block in ks.chunks_exact_mut(16) {
            block.copy_from_slice(&next_counter());
            aes.encrypt_block(block.try_into().expect("16-byte keystream block"));
        }
        xor_words(chunk, &ks);
    }
    let tail = chunks.into_remainder();
    for chunk in tail.chunks_mut(16) {
        let mut keystream = next_counter();
        aes.encrypt_block(&mut keystream);
        for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
            *b ^= k;
        }
    }
}

/// XORs `src` into `dst` sixteen bytes (one `u128`) at a time.
/// `dst.len()` must equal `src.len()` and be a multiple of 16.
#[inline]
pub(crate) fn xor_words(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    debug_assert_eq!(dst.len() % 16, 0);
    for (d, s) in dst.chunks_exact_mut(16).zip(src.chunks_exact(16)) {
        let x = u128::from_ne_bytes(d.as_ref().try_into().expect("16-byte lane"))
            ^ u128::from_ne_bytes(s.try_into().expect("16-byte lane"));
        d.copy_from_slice(&x.to_ne_bytes());
    }
}

#[inline]
fn increment_be(counter: &mut [u8; 16]) {
    for byte in counter.iter_mut().rev() {
        *byte = byte.wrapping_add(1);
        if *byte != 0 {
            break;
        }
    }
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

fn sub_bytes(state: &mut [u8; 16], sbox: &[u8; 256]) {
    for b in state.iter_mut() {
        *b = sbox[*b as usize];
    }
}

// State is column-major: state[4*c + r] is row r, column c.
fn shift_rows(state: &mut [u8; 16]) {
    for r in 1..4 {
        let row = [state[r], state[4 + r], state[8 + r], state[12 + r]];
        for c in 0..4 {
            state[4 * c + r] = row[(c + r) % 4];
        }
    }
}

fn inv_shift_rows(state: &mut [u8; 16]) {
    for r in 1..4 {
        let row = [state[r], state[4 + r], state[8 + r], state[12 + r]];
        for c in 0..4 {
            state[4 * c + r] = row[(c + 4 - r) % 4];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col: [u8; 4] = state[4 * c..4 * c + 4].try_into().expect("column");
        state[4 * c] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
        state[4 * c + 3] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
    }
}

fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col: [u8; 4] = state[4 * c..4 * c + 4].try_into().expect("column");
        state[4 * c] =
            gf_mul(col[0], 14) ^ gf_mul(col[1], 11) ^ gf_mul(col[2], 13) ^ gf_mul(col[3], 9);
        state[4 * c + 1] =
            gf_mul(col[0], 9) ^ gf_mul(col[1], 14) ^ gf_mul(col[2], 11) ^ gf_mul(col[3], 13);
        state[4 * c + 2] =
            gf_mul(col[0], 13) ^ gf_mul(col[1], 9) ^ gf_mul(col[2], 14) ^ gf_mul(col[3], 11);
        state[4 * c + 3] =
            gf_mul(col[0], 11) ^ gf_mul(col[1], 13) ^ gf_mul(col[2], 9) ^ gf_mul(col[3], 14);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hex, unhex};

    #[test]
    fn fips197_known_answer() {
        let key: [u8; 16] = unhex("000102030405060708090a0b0c0d0e0f")
            .unwrap()
            .try_into()
            .unwrap();
        let mut block: [u8; 16] = unhex("00112233445566778899aabbccddeeff")
            .unwrap()
            .try_into()
            .unwrap();
        let aes = Aes128::new(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(hex(&block), "69c4e0d86a7b0430d8cdb78070b4c55a");
        aes.decrypt_block(&mut block);
        assert_eq!(hex(&block), "00112233445566778899aabbccddeeff");
    }

    #[test]
    fn sbox_spot_checks() {
        let t = tables();
        assert_eq!(t.sbox[0x00], 0x63);
        assert_eq!(t.sbox[0x01], 0x7c);
        assert_eq!(t.sbox[0x53], 0xed);
        assert_eq!(t.sbox[0xff], 0x16);
        for x in 0..256 {
            assert_eq!(t.inv_sbox[t.sbox[x] as usize] as usize, x);
        }
    }

    #[test]
    fn nist_sp800_38a_ctr_f51() {
        let key: [u8; 16] = unhex("2b7e151628aed2a6abf7158809cf4f3c")
            .unwrap()
            .try_into()
            .unwrap();
        let counter: [u8; 16] = unhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
            .unwrap()
            .try_into()
            .unwrap();
        let mut data = unhex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710"
        ))
        .unwrap();
        Aes128::new(&key).ctr_xor(&counter, &mut data);
        assert_eq!(
            hex(&data),
            concat!(
                "874d6191b620e3261bef6864990db6ce",
                "9806f66b7970fdff8617187bb9fffdff",
                "5ae4df3edbd5d35e5b4f09020db03eab",
                "1e031dda2fbe03d1792170a0f3009cee"
            )
        );
    }

    #[test]
    fn ctr_roundtrip_odd_sizes() {
        let aes = Aes128::new(&[7u8; 16]);
        for len in [0usize, 1, 15, 16, 17, 100] {
            let mut data: Vec<u8> = (0..len as u8).collect();
            let original = data.clone();
            aes.ctr_xor(&[0u8; 16], &mut data);
            if len > 0 {
                assert_ne!(data, original);
            }
            aes.ctr_xor(&[0u8; 16], &mut data);
            assert_eq!(data, original, "length {len}");
        }
    }

    #[test]
    fn counter_increment_carries() {
        let mut c = [0xffu8; 16];
        increment_be(&mut c);
        assert_eq!(c, [0u8; 16]);
        let mut c = [0u8; 16];
        c[15] = 0xff;
        increment_be(&mut c);
        assert_eq!(c[15], 0);
        assert_eq!(c[14], 1);
    }

    #[test]
    fn table_path_matches_scalar_path() {
        let aes = Aes128::new(&[0x5au8; 16]);
        let mut block = [0u8; 16];
        for trial in 0..64u8 {
            for (i, b) in block.iter_mut().enumerate() {
                *b = b.wrapping_mul(31).wrapping_add(trial ^ i as u8);
            }
            let mut fast = block;
            let mut scalar = block;
            aes.encrypt_block(&mut fast);
            aes.encrypt_block_scalar(&mut scalar);
            assert_eq!(fast, scalar, "trial {trial}");
            block = fast;
        }
    }

    #[test]
    fn debug_hides_keys() {
        let aes = Aes128::new(&[9u8; 16]);
        let s = format!("{aes:?}");
        assert!(s.contains("Aes128"));
        assert!(!s.contains('9'));
    }
}
