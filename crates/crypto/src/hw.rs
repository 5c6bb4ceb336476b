//! Hardware AES-128-GCM kernel for x86_64: AES-NI rounds and PCLMULQDQ
//! GHASH.
//!
//! The round keys and the hash-key powers `H¹…H⁸` live in `__m128i`. GCTR
//! keeps eight counter blocks in flight per `aesenc` round; GHASH multiplies
//! eight blocks against descending powers of `H` and reduces once per 128
//! bytes (a shorter AAD or tail is one smaller group against `Hⁿ…H¹`, the
//! length block a group of one). Nothing here indexes memory or branches on
//! key, plaintext or hash state — the only data-dependent control flow is on
//! *lengths* — which is the property the table-driven portable kernel lacks.
//!
//! This is the only module of the crate that contains `unsafe`: the unaligned
//! vector loads/stores, and the calls from the safe wrappers into the
//! `#[target_feature]` routines. Those calls are sound because a [`HwGcm`] can
//! only be obtained from [`HwGcm::new`], which returns `None` unless the CPU
//! reports every feature the routines are compiled for.

#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_aeskeygenassist_si128,
    _mm_clmulepi64_si128, _mm_loadu_si128, _mm_or_si128, _mm_set_epi32, _mm_set_epi64x,
    _mm_set_epi8, _mm_setzero_si128, _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_slli_epi64,
    _mm_slli_si128, _mm_srli_epi64, _mm_srli_si128, _mm_storeu_si128, _mm_xor_si128,
};

/// Blocks per GCTR / GHASH batch.
const BATCH: usize = 8;
const BLOCK: usize = 16;

/// Key-dependent state of the hardware kernel.
#[derive(Clone)]
pub(crate) struct HwGcm {
    round_keys: [__m128i; 11],
    /// Descending powers of the hash key, byte-reflected: `h_pow[i]` is
    /// `H^(BATCH - i)`, so a group of `n` blocks multiplies, block by block,
    /// the suffix `h_pow[BATCH - n..]`, which always ends in `H` itself.
    h_pow: [__m128i; BATCH],
}

impl std::fmt::Debug for HwGcm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("HwGcm").finish_non_exhaustive()
    }
}

impl HwGcm {
    /// The CPU features the kernel is compiled for, each with whether this
    /// CPU reports it.
    pub(crate) fn features() -> [(&'static str, bool); 3] {
        [
            ("aes", is_x86_feature_detected!("aes")),
            ("pclmulqdq", is_x86_feature_detected!("pclmulqdq")),
            ("ssse3", is_x86_feature_detected!("ssse3")),
        ]
    }

    /// Expands `key`, or returns `None` on a CPU without AES-NI, PCLMULQDQ
    /// and SSSE3. The only place features are detected: the other methods
    /// rely on holding a `HwGcm` as the proof.
    pub(crate) fn new(key: &[u8; 16]) -> Option<Self> {
        let available = Self::features().iter().all(|&(_, detected)| detected);
        // SAFETY: every feature `expand` is compiled with — the list in
        // `features` — was detected on this CPU on the line above.
        available.then(|| unsafe { Self::expand(key) })
    }

    /// Encrypts one block in place.
    pub(crate) fn encrypt_block(&self, block: &mut [u8; 16]) {
        // SAFETY: `self` exists, so `new` detected the features.
        unsafe { self.encrypt_block_hw(block) }
    }

    /// GCM's GCTR over `buf`: the counter starts at inc32(`j0`) and wraps in
    /// its low 32 bits only.
    pub(crate) fn gctr(&self, j0: &[u8; 16], buf: &mut [u8]) {
        // SAFETY: `self` exists, so `new` detected the features.
        unsafe { self.gctr_hw(j0, buf) }
    }

    /// GHASH of `aad || ciphertext || lengths`.
    pub(crate) fn ghash(&self, aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        // SAFETY: `self` exists, so `new` detected the features.
        unsafe { self.ghash_hw(aad, ciphertext) }
    }

    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn expand(key: &[u8; 16]) -> Self {
        let mut round_keys = [load(key); 11];
        round_keys[1] = next_round_key::<0x01>(round_keys[0]);
        round_keys[2] = next_round_key::<0x02>(round_keys[1]);
        round_keys[3] = next_round_key::<0x04>(round_keys[2]);
        round_keys[4] = next_round_key::<0x08>(round_keys[3]);
        round_keys[5] = next_round_key::<0x10>(round_keys[4]);
        round_keys[6] = next_round_key::<0x20>(round_keys[5]);
        round_keys[7] = next_round_key::<0x40>(round_keys[6]);
        round_keys[8] = next_round_key::<0x80>(round_keys[7]);
        round_keys[9] = next_round_key::<0x1b>(round_keys[8]);
        round_keys[10] = next_round_key::<0x36>(round_keys[9]);

        let h = reflect(encrypt(&round_keys, _mm_setzero_si128()));
        let mut h_pow = [h; BATCH];
        for i in (0..BATCH - 1).rev() {
            h_pow[i] = gf_mul(h_pow[i + 1], h);
        }
        HwGcm { round_keys, h_pow }
    }

    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn encrypt_block_hw(&self, block: &mut [u8; 16]) {
        store(block, encrypt(&self.round_keys, load(block)));
    }

    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn gctr_hw(&self, j0: &[u8; 16], buf: &mut [u8]) {
        let rk = &self.round_keys;
        // Byte-reflected, the big-endian counter word is the low 32-bit lane,
        // so inc32 is a lane-wise add that cannot carry into the nonce.
        let one = _mm_set_epi32(0, 0, 0, 1);
        let mut counter = reflect(load(j0));

        let mut batches = buf.chunks_exact_mut(BATCH * BLOCK);
        for batch in &mut batches {
            let mut ks = [_mm_setzero_si128(); BATCH];
            for k in &mut ks {
                counter = _mm_add_epi32(counter, one);
                *k = _mm_xor_si128(reflect(counter), rk[0]);
            }
            for round_key in &rk[1..10] {
                for k in &mut ks {
                    *k = _mm_aesenc_si128(*k, *round_key);
                }
            }
            for (block, k) in batch.chunks_exact_mut(BLOCK).zip(ks) {
                let block: &mut [u8; 16] = block.try_into().expect("16-byte block");
                let k = _mm_aesenclast_si128(k, rk[10]);
                store(block, _mm_xor_si128(load(block), k));
            }
        }

        let mut blocks = batches.into_remainder().chunks_exact_mut(BLOCK);
        for block in &mut blocks {
            let block: &mut [u8; 16] = block.try_into().expect("16-byte block");
            counter = _mm_add_epi32(counter, one);
            let masked = _mm_xor_si128(load(block), encrypt(rk, reflect(counter)));
            store(block, masked);
        }
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            let mut padded = [0u8; 16];
            padded[..tail.len()].copy_from_slice(tail);
            counter = _mm_add_epi32(counter, one);
            let masked = _mm_xor_si128(load(&padded), encrypt(rk, reflect(counter)));
            store(&mut padded, masked);
            tail.copy_from_slice(&padded[..tail.len()]);
        }
    }

    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn ghash_hw(&self, aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        let y = self.absorb(_mm_setzero_si128(), aad);
        let y = self.absorb(y, ciphertext);
        // Reflected, the block `aad bits (BE u64) || ciphertext bits (BE u64)`
        // is just the two counts as lanes.
        let lengths = _mm_set_epi64x(aad.len() as i64 * 8, ciphertext.len() as i64 * 8);
        let y = gf_mul(_mm_xor_si128(y, lengths), self.h_pow[BATCH - 1]);
        let mut out = [0u8; 16];
        store(&mut out, reflect(y));
        out
    }

    /// Folds `data` (zero-padded to whole blocks) into the hash state `y`,
    /// eight blocks per reduction and the remainder in one more.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn absorb(&self, mut y: __m128i, data: &[u8]) -> __m128i {
        let mut batches = data.chunks_exact(BATCH * BLOCK);
        for batch in &mut batches {
            y = fold(y, batch, &self.h_pow);
        }
        let rest = batches.remainder();
        if !rest.is_empty() {
            y = fold(y, rest, &self.h_pow[BATCH - rest.len().div_ceil(BLOCK)..]);
        }
        y
    }
}

/// One GHASH step over the `n ≤ 8` blocks of `group` (the last zero-padded),
/// with `h_pow` holding `Hⁿ…H¹`: `(y ^ x0)·Hⁿ ^ x1·Hⁿ⁻¹ ^ … ^ xₙ₋₁·H` as
/// independent multiplies into one unreduced product, then one reduction.
#[inline]
#[target_feature(enable = "pclmulqdq,ssse3")]
fn fold(mut y: __m128i, group: &[u8], h_pow: &[__m128i]) -> __m128i {
    let mut product = Product::zero();
    for (chunk, h) in group.chunks(BLOCK).zip(h_pow) {
        let x = match <&[u8; 16]>::try_from(chunk) {
            Ok(block) => load(block),
            Err(_) => {
                let mut padded = [0u8; 16];
                padded[..chunk.len()].copy_from_slice(chunk);
                load(&padded)
            }
        };
        // The running hash folds into the first block only.
        product.add_mul(_mm_xor_si128(reflect(x), y), *h);
        y = _mm_setzero_si128();
    }
    product.reduce()
}

#[inline]
fn load(block: &[u8; 16]) -> __m128i {
    // SAFETY: `block` is 16 readable bytes and `loadu` has no alignment
    // requirement.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

#[inline]
fn store(block: &mut [u8; 16], v: __m128i) {
    // SAFETY: `block` is 16 writable bytes and `storeu` has no alignment
    // requirement.
    unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), v) }
}

/// Reverses the 16 bytes of `v`. GCM numbers bits from the most significant
/// bit of byte 0; reversed, a block is a plain little-endian 128-bit integer
/// whose bit `127 - i` is the coefficient of `xⁱ`.
#[inline]
#[target_feature(enable = "ssse3")]
fn reflect(v: __m128i) -> __m128i {
    _mm_shuffle_epi8(
        v,
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    )
}

/// One step of the AES-128 key schedule (FIPS 197 §5.2) on whole round keys.
#[inline]
#[target_feature(enable = "aes")]
fn next_round_key<const RCON: i32>(key: __m128i) -> __m128i {
    // SubWord(RotWord(w3)) ^ rcon, broadcast to all four words.
    let t = _mm_shuffle_epi32::<0xff>(_mm_aeskeygenassist_si128::<RCON>(key));
    // Prefix-XOR of the four words: w0, w0^w1, w0^w1^w2, w0^w1^w2^w3.
    let key = _mm_xor_si128(key, _mm_slli_si128::<4>(key));
    let key = _mm_xor_si128(key, _mm_slli_si128::<8>(key));
    _mm_xor_si128(key, t)
}

#[inline]
#[target_feature(enable = "aes")]
fn encrypt(rk: &[__m128i; 11], block: __m128i) -> __m128i {
    let mut state = _mm_xor_si128(block, rk[0]);
    for round_key in &rk[1..10] {
        state = _mm_aesenc_si128(state, *round_key);
    }
    _mm_aesenclast_si128(state, rk[10])
}

/// An unreduced 256-bit carry-less product, kept as the three partial
/// products of the schoolbook multiply so that several can be summed before
/// the single reduction.
struct Product {
    lo: __m128i,
    mid: __m128i,
    hi: __m128i,
}

impl Product {
    #[inline]
    #[target_feature(enable = "sse2")]
    fn zero() -> Self {
        let zero = _mm_setzero_si128();
        Product {
            lo: zero,
            mid: zero,
            hi: zero,
        }
    }

    /// Adds `a · b` (reflected operands).
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn add_mul(&mut self, a: __m128i, b: __m128i) {
        self.lo = _mm_xor_si128(self.lo, _mm_clmulepi64_si128::<0x00>(a, b));
        self.hi = _mm_xor_si128(self.hi, _mm_clmulepi64_si128::<0x11>(a, b));
        self.mid = _mm_xor_si128(
            self.mid,
            _mm_xor_si128(
                _mm_clmulepi64_si128::<0x10>(a, b),
                _mm_clmulepi64_si128::<0x01>(a, b),
            ),
        );
    }

    /// Reduces modulo `x¹²⁸ + x⁷ + x² + x + 1`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn reduce(self) -> __m128i {
        let lo = _mm_xor_si128(self.lo, _mm_slli_si128::<8>(self.mid));
        let hi = _mm_xor_si128(self.hi, _mm_srli_si128::<8>(self.mid));

        // The product of two reflected 128-bit operands has its 255
        // coefficients in bits 254..0; shift the 256-bit value left by one so
        // that `hi` holds x⁰…x¹²⁷ and `lo` holds x¹²⁸…x²⁵⁴, both reflected.
        let lo_carry = _mm_srli_epi64::<63>(lo);
        let hi_carry = _mm_srli_epi64::<63>(hi);
        let lo = _mm_or_si128(_mm_slli_epi64::<1>(lo), _mm_slli_si128::<8>(lo_carry));
        let hi = _mm_or_si128(
            _mm_or_si128(_mm_slli_epi64::<1>(hi), _mm_slli_si128::<8>(hi_carry)),
            _mm_srli_si128::<8>(lo_carry),
        );

        // hi ^= lo · (1 + x + x² + x⁷); multiplying by xᵏ is a right shift
        // by k here. `dropped` is what each 64-bit lane loses to the three
        // shifts: the upper lane's bits carry into the lower lane, the lower
        // lane's bits overflow x¹²⁸ and fold back in at the top of `lo`.
        let dropped = _mm_xor_si128(
            _mm_xor_si128(_mm_slli_epi64::<63>(lo), _mm_slli_epi64::<62>(lo)),
            _mm_slli_epi64::<57>(lo),
        );
        let lo = _mm_xor_si128(lo, _mm_slli_si128::<8>(dropped));
        let shifted = _mm_xor_si128(
            _mm_xor_si128(_mm_srli_epi64::<1>(lo), _mm_srli_epi64::<2>(lo)),
            _mm_xor_si128(_mm_srli_epi64::<7>(lo), _mm_srli_si128::<8>(dropped)),
        );
        _mm_xor_si128(hi, _mm_xor_si128(lo, shifted))
    }
}

/// `a · b` in GF(2¹²⁸), reflected operands and result.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn gf_mul(a: __m128i, b: __m128i) -> __m128i {
    let mut product = Product::zero();
    product.add_mul(a, b);
    product.reduce()
}
