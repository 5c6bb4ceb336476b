//! AES-128-GCM authenticated encryption (NIST SP 800-38D).
//!
//! One cipher type, two kernels behind it, chosen once per cipher in
//! [`AesGcm::new`] from what the CPU reports:
//!
//! * **hardware** (`hw.rs`, x86_64 with AES-NI, PCLMULQDQ and SSSE3): eight
//!   counter blocks in flight per `aesenc` round, GHASH by carry-less
//!   multiplication against `H¹…H⁸` with one reduction per 128 bytes. No
//!   lookup table, no secret-dependent load or branch.
//! * **portable** (this file and [`crate::aes`], everywhere else): T-table
//!   AES rounds and windowed GHASH (Shoup's 8-bit table method, one table per
//!   byte position — 16 tables of 256 multiples of the hash key `H`, so one
//!   block costs 16 *independent* lookups XORed together). Table lookups are
//!   *not* constant-time; see DESIGN.md §9.
//!
//! Both are byte-identical to the bit-by-bit [`crate::reference`] oracle,
//! which the property tests pin on arbitrary inputs.
//!
//! Sealing is zero-copy at the core: [`AesGcm::seal_in_place_detached`] and
//! its opening counterpart transform a caller-owned buffer, and the
//! allocating [`AesGcm::seal`]/[`AesGcm::open`] are thin wrappers.

use std::sync::OnceLock;

use crate::aes::{ctr_stream, Aes128};
use crate::CryptoError;

/// Length in bytes of the GCM authentication tag.
pub const TAG_LEN: usize = 16;
/// Length in bytes of the GCM nonce (96-bit IVs only).
pub const NONCE_LEN: usize = 12;

/// The implementation an [`AesGcm`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// AES-NI and PCLMULQDQ instructions (x86_64 CPUs that have them).
    Hardware,
    /// T-table AES and windowed GHASH in plain Rust.
    Portable,
}

impl Kernel {
    /// Lower-case name, as printed by the crypto microbenchmark.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Hardware => "hardware",
            Kernel::Portable => "portable",
        }
    }
}

/// AES-128-GCM AEAD cipher.
///
/// ```
/// use securecloud_crypto::gcm::AesGcm;
///
/// let cipher = AesGcm::new(&[1u8; 16]);
/// let sealed = cipher.seal(&[2u8; 12], b"secret", b"assoc");
/// assert_eq!(cipher.open(&[2u8; 12], &sealed, b"assoc").unwrap(), b"secret");
/// assert!(cipher.open(&[2u8; 12], &sealed, b"tampered").is_err());
/// ```
#[derive(Clone)]
pub struct AesGcm(State);

/// Key-dependent state of whichever kernel [`AesGcm::new`] selected.
#[derive(Clone)]
enum State {
    #[cfg(target_arch = "x86_64")]
    Hardware(crate::hw::HwGcm),
    Portable(Portable),
}

impl std::fmt::Debug for AesGcm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("AesGcm")
            .field("kernel", &self.kernel())
            .finish_non_exhaustive()
    }
}

/// The portable kernel's state.
#[derive(Clone)]
struct Portable {
    aes: Aes128,
    /// Per-byte-position window tables: `tables[j][b]` is the product of the
    /// field element whose byte `j` (big-endian) is `b` with the hash key
    /// `H`, in GCM's reflected bit order. A block's GHASH multiply is then
    /// the XOR of 16 independent lookups. Boxed: 64 KiB per cipher instance.
    tables: Box<[[u128; 256]; 16]>,
}

/// The GCM reduction polynomial bit pattern, already reflected: x^128 =
/// x^7 + x^2 + x + 1 lands in the top byte when bit 0 is the highest power.
const R: u128 = 0xe1 << 120;

/// Multiplies a field element by x (one bit shift toward the low end in
/// GCM's reflected order), folding the dropped bit back with `R`.
#[inline]
fn gf_shift1(v: u128) -> u128 {
    let carry = v & 1;
    let shifted = v >> 1;
    if carry == 1 {
        shifted ^ R
    } else {
        shifted
    }
}

/// H-independent reduction table: `rtab[b]` is `b` (as the *low* byte of a
/// field element) multiplied by x^8, i.e. what falls out when a product is
/// shifted down one byte. Shared by every cipher instance.
fn rtab() -> &'static [u128; 256] {
    static RTAB: OnceLock<[u128; 256]> = OnceLock::new();
    RTAB.get_or_init(|| {
        let mut rtab = [0u128; 256];
        for (b, entry) in rtab.iter_mut().enumerate() {
            let mut v = b as u128;
            for _ in 0..8 {
                v = gf_shift1(v);
            }
            *entry = v;
        }
        rtab
    })
}

/// Builds the per-byte-position window tables. Table 0 holds the 256 `H`
/// multiples for the top byte — powers of x by repeated halving from
/// `table[0x80] = H`, composites by XOR — and each following table is the
/// previous one multiplied by x^8 (one byte-shift down, via [`rtab`]).
fn window_tables(h: u128) -> Box<[[u128; 256]; 16]> {
    let rtab = rtab();
    let mut tables = Box::new([[0u128; 256]; 16]);
    let top = &mut tables[0];
    top[0x80] = h;
    let mut bit = 0x40usize;
    while bit > 0 {
        top[bit] = gf_shift1(top[bit << 1]);
        bit >>= 1;
    }
    for i in [2usize, 4, 8, 16, 32, 64, 128] {
        for j in 1..i {
            top[i + j] = top[i] ^ top[j];
        }
    }
    for j in 1..16 {
        for b in 0..256 {
            let v = tables[j - 1][b];
            tables[j][b] = (v >> 8) ^ rtab[(v & 0xff) as usize];
        }
    }
    tables
}

fn block_to_u128(block: &[u8]) -> u128 {
    let mut buf = [0u8; 16];
    buf[..block.len()].copy_from_slice(block);
    u128::from_be_bytes(buf)
}

impl Portable {
    fn new(key: &[u8; 16]) -> Self {
        let aes = Aes128::new(key);
        let mut h_block = [0u8; 16];
        aes.encrypt_block(&mut h_block);
        Portable {
            aes,
            tables: window_tables(u128::from_be_bytes(h_block)),
        }
    }

    /// Multiplies `y` by the hash key `H`: one lookup per byte of `y` in
    /// that byte position's table, all independent, XORed together.
    #[inline]
    fn mul_h(&self, y: u128) -> u128 {
        let bytes = y.to_be_bytes();
        let mut z = 0u128;
        for (table, &b) in self.tables.iter().zip(bytes.iter()) {
            z ^= table[b as usize];
        }
        z
    }

    fn ghash(&self, aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        let mut y = 0u128;
        for chunk in aad.chunks(16) {
            y = self.mul_h(y ^ block_to_u128(chunk));
        }
        for chunk in ciphertext.chunks(16) {
            y = self.mul_h(y ^ block_to_u128(chunk));
        }
        let lengths = ((aad.len() as u128 * 8) << 64) | (ciphertext.len() as u128 * 8);
        y = self.mul_h(y ^ lengths);
        y.to_be_bytes()
    }

    fn gctr(&self, j0: &[u8; 16], buf: &mut [u8]) {
        let mut counter = u32::from_be_bytes(j0[12..16].try_into().expect("ctr"));
        let mut block = *j0;
        ctr_stream(&self.aes, buf, move || {
            counter = counter.wrapping_add(1);
            block[12..16].copy_from_slice(&counter.to_be_bytes());
            block
        });
    }
}

impl AesGcm {
    /// Creates a GCM cipher from a 16-byte key, on the hardware kernel where
    /// the CPU has AES-NI, PCLMULQDQ and SSSE3 and on the portable kernel
    /// everywhere else. The choice is made here, once; no later call
    /// re-detects.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        Self::with_kernel(key, Kernel::Hardware)
            .unwrap_or_else(|| AesGcm(State::Portable(Portable::new(key))))
    }

    /// Creates a cipher on a named kernel, or `None` if this host cannot run
    /// it. For the equivalence tests and the crypto microbenchmark, which
    /// must reach the fallback on hosts where [`AesGcm::new`] never picks it.
    #[doc(hidden)]
    #[must_use]
    pub fn with_kernel(key: &[u8; 16], kernel: Kernel) -> Option<Self> {
        match kernel {
            #[cfg(target_arch = "x86_64")]
            Kernel::Hardware => crate::hw::HwGcm::new(key).map(|hw| AesGcm(State::Hardware(hw))),
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Hardware => None,
            Kernel::Portable => Some(AesGcm(State::Portable(Portable::new(key)))),
        }
    }

    /// The CPU features the hardware kernel needs, each with whether this
    /// CPU reports it (empty off x86_64). For the crypto microbenchmark's
    /// host fingerprint.
    #[doc(hidden)]
    #[must_use]
    pub fn hardware_features() -> Vec<(&'static str, bool)> {
        #[cfg(target_arch = "x86_64")]
        return crate::hw::HwGcm::features().to_vec();
        #[cfg(not(target_arch = "x86_64"))]
        Vec::new()
    }

    /// The kernel this cipher runs on.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        match &self.0 {
            #[cfg(target_arch = "x86_64")]
            State::Hardware(_) => Kernel::Hardware,
            State::Portable(_) => Kernel::Portable,
        }
    }

    /// The GHASH of `aad || ciphertext || lengths` under this cipher's hash
    /// key. Exposed for the crypto microbenchmark and equivalence tests; the
    /// AEAD entry points are [`AesGcm::seal`]/[`AesGcm::open`] and their
    /// in-place variants.
    #[must_use]
    pub fn ghash(&self, aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        match &self.0 {
            #[cfg(target_arch = "x86_64")]
            State::Hardware(hw) => hw.ghash(aad, ciphertext),
            State::Portable(p) => p.ghash(aad, ciphertext),
        }
    }

    /// CTR over the message area: counter starts at inc32(J0) and increments
    /// only in the low 32 bits, per the GCM spec.
    fn gctr(&self, j0: &[u8; 16], buf: &mut [u8]) {
        match &self.0 {
            #[cfg(target_arch = "x86_64")]
            State::Hardware(hw) => hw.gctr(j0, buf),
            State::Portable(p) => p.gctr(j0, buf),
        }
    }

    fn encrypt_block(&self, block: &mut [u8; 16]) {
        match &self.0 {
            #[cfg(target_arch = "x86_64")]
            State::Hardware(hw) => hw.encrypt_block(block),
            State::Portable(p) => p.aes.encrypt_block(block),
        }
    }

    fn j0(nonce: &[u8; NONCE_LEN]) -> [u8; 16] {
        let mut j0 = [0u8; 16];
        j0[..12].copy_from_slice(nonce);
        j0[15] = 1;
        j0
    }

    /// Computes the tag for `ciphertext` under `aad`: `E(J0) ^ GHASH`.
    fn tag(&self, j0: &[u8; 16], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let s = self.ghash(aad, ciphertext);
        let mut tag = *j0;
        self.encrypt_block(&mut tag);
        for (t, s) in tag.iter_mut().zip(s.iter()) {
            *t ^= s;
        }
        tag
    }

    /// Encrypts `buf` in place and returns the detached authentication tag.
    ///
    /// Zero-copy core of [`AesGcm::seal`]: the caller owns the buffer and
    /// decides where the tag goes.
    #[must_use]
    pub fn seal_in_place_detached(
        &self,
        nonce: &[u8; NONCE_LEN],
        buf: &mut [u8],
        aad: &[u8],
    ) -> [u8; TAG_LEN] {
        let j0 = Self::j0(nonce);
        self.gctr(&j0, buf);
        self.tag(&j0, aad, buf)
    }

    /// Verifies the detached `tag` over the ciphertext in `buf`, then
    /// decrypts `buf` in place.
    ///
    /// # Errors
    ///
    /// [`CryptoError::AuthenticationFailed`] if the tag does not verify; the
    /// buffer is left encrypted (no plaintext is released).
    fn open_in_place_detached(
        &self,
        nonce: &[u8; NONCE_LEN],
        buf: &mut [u8],
        tag: &[u8; TAG_LEN],
        aad: &[u8],
    ) -> Result<(), CryptoError> {
        let j0 = Self::j0(nonce);
        let expect = self.tag(&j0, aad, buf);
        if !crate::ct_eq(&expect, tag) {
            return Err(CryptoError::AuthenticationFailed);
        }
        self.gctr(&j0, buf);
        Ok(())
    }

    /// Encrypts the contents of `buf` in place and appends the 16-byte tag,
    /// so `buf` ends up holding `ciphertext || tag` — the same layout
    /// [`AesGcm::seal`] returns, without the extra allocation.
    pub fn seal_in_place(&self, nonce: &[u8; NONCE_LEN], buf: &mut Vec<u8>, aad: &[u8]) {
        let tag = self.seal_in_place_detached(nonce, buf, aad);
        buf.extend_from_slice(&tag);
    }

    /// Verifies and decrypts `buf` (holding `ciphertext || tag`) in place,
    /// truncating the tag so `buf` ends up holding the plaintext.
    ///
    /// # Errors
    ///
    /// [`CryptoError::AuthenticationFailed`] if the input is shorter than a
    /// tag or the tag does not verify; `buf` is left unmodified in that case.
    pub fn open_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        buf: &mut Vec<u8>,
        aad: &[u8],
    ) -> Result<(), CryptoError> {
        let (ciphertext, tag) = buf
            .split_last_chunk_mut::<TAG_LEN>()
            .ok_or(CryptoError::AuthenticationFailed)?;
        self.open_in_place_detached(nonce, ciphertext, tag, aad)?;
        buf.truncate(buf.len() - TAG_LEN);
        Ok(())
    }

    /// Encrypts `plaintext` and returns `ciphertext || tag`.
    ///
    /// Thin wrapper over [`AesGcm::seal_in_place`] that pays one allocation
    /// for the output buffer.
    #[must_use]
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        self.seal_in_place(nonce, &mut out, aad);
        out
    }

    /// Decrypts `sealed` (as produced by [`AesGcm::seal`]) and returns the
    /// plaintext.
    ///
    /// Thin wrapper over the in-place open that pays one allocation for the
    /// output buffer.
    ///
    /// # Errors
    ///
    /// [`CryptoError::AuthenticationFailed`] if the input is shorter than a
    /// tag or the tag does not verify; no plaintext is released in that case.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        sealed: &[u8],
        aad: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let (ciphertext, tag) = sealed
            .split_last_chunk::<TAG_LEN>()
            .ok_or(CryptoError::AuthenticationFailed)?;
        let mut out = ciphertext.to_vec();
        self.open_in_place_detached(nonce, &mut out, tag, aad)?;
        Ok(out)
    }

    /// Seals a self-describing envelope, `nonce || ciphertext || tag`, for
    /// blobs whose reader cannot derive the nonce (random or committed). One
    /// exactly-sized buffer: `fill` appends the `body_len` plaintext bytes,
    /// which are then sealed in place.
    #[must_use]
    pub fn seal_envelope(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        body_len: usize,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(NONCE_LEN + body_len + TAG_LEN);
        out.extend_from_slice(nonce);
        fill(&mut out);
        let tag = self.seal_in_place_detached(nonce, &mut out[NONCE_LEN..], aad);
        out.extend_from_slice(&tag);
        out
    }

    /// Opens an envelope sealed by [`AesGcm::seal_envelope`].
    ///
    /// # Errors
    ///
    /// [`CryptoError::AuthenticationFailed`] if `sealed` is shorter than a
    /// nonce plus a tag or does not verify.
    pub fn open_envelope(&self, sealed: &[u8], aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let (nonce, body) = sealed
            .split_first_chunk::<NONCE_LEN>()
            .ok_or(CryptoError::AuthenticationFailed)?;
        self.open(nonce, body, aad)
    }
}

/// Builds a deterministic 12-byte nonce from a 4-byte domain and an 8-byte
/// sequence number. Callers must never reuse a (key, domain, seq) triple.
#[must_use]
pub fn nonce_from_seq(domain: u32, seq: u64) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..4].copy_from_slice(&domain.to_be_bytes());
    nonce[4..].copy_from_slice(&seq.to_be_bytes());
    nonce
}

/// One direction of a sequence-numbered stream: a cipher, a nonce domain and
/// the count of records sealed (or opened) so far. The only place such a
/// stream spends a sequence number: every seal derives
/// `nonce_from_seq(domain, seq)` and advances, and an open advances only once
/// the tag has verified, so a forged record does not desynchronise the peers.
#[derive(Debug, Clone)]
pub struct SealCtx {
    cipher: AesGcm,
    domain: u32,
    seq: u64,
}

impl SealCtx {
    /// A stream at sequence number zero.
    #[must_use]
    pub fn new(cipher: AesGcm, domain: u32) -> Self {
        SealCtx {
            cipher,
            domain,
            seq: 0,
        }
    }

    /// Records sealed (or opened) so far, i.e. the next sequence number.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The nonce of the next record.
    fn next_nonce(&self) -> [u8; NONCE_LEN] {
        nonce_from_seq(self.domain, self.seq)
    }

    /// [`AesGcm::seal_in_place`] under the next sequence number.
    pub fn seal_in_place(&mut self, buf: &mut Vec<u8>, aad: &[u8]) {
        let tag = self.seal_in_place_detached(buf, aad);
        buf.extend_from_slice(&tag);
    }

    /// [`AesGcm::seal_in_place_detached`] under the next sequence number.
    #[must_use]
    pub fn seal_in_place_detached(&mut self, buf: &mut [u8], aad: &[u8]) -> [u8; TAG_LEN] {
        let nonce = self.next_nonce();
        self.seq += 1;
        self.cipher.seal_in_place_detached(&nonce, buf, aad)
    }

    /// [`AesGcm::open_in_place`] under the next sequence number, which is
    /// spent only if the tag verifies.
    ///
    /// # Errors
    ///
    /// [`CryptoError::AuthenticationFailed`] on a tampered, replayed or
    /// reordered record; `buf` is left unmodified.
    pub fn open_in_place(&mut self, buf: &mut Vec<u8>, aad: &[u8]) -> Result<(), CryptoError> {
        self.cipher.open_in_place(&self.next_nonce(), buf, aad)?;
        self.seq += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    // The NIST vectors and the per-kernel equivalence properties live in
    // `tests/prop_equivalence.rs`; these cover the API shapes on whichever
    // kernel `AesGcm::new` selects.
    use super::*;

    #[test]
    fn open_rejects_tampering() {
        let cipher = AesGcm::new(&[3u8; 16]);
        let nonce = [5u8; 12];
        let sealed = cipher.seal(&nonce, b"payload", b"aad");
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x01;
            assert_eq!(
                cipher.open(&nonce, &bad, b"aad"),
                Err(CryptoError::AuthenticationFailed),
                "flip at byte {i} must be detected"
            );
        }
        assert!(cipher.open(&[6u8; 12], &sealed, b"aad").is_err());
        assert!(cipher.open(&nonce, &sealed[..8], b"aad").is_err());
    }

    #[test]
    fn in_place_matches_allocating_api() {
        let cipher = AesGcm::new(&[0x42u8; 16]);
        let nonce = [9u8; 12];
        for len in [0usize, 1, 15, 16, 17, 100, 1000] {
            let plain: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let sealed = cipher.seal(&nonce, &plain, b"aad");

            let mut buf = plain.clone();
            cipher.seal_in_place(&nonce, &mut buf, b"aad");
            assert_eq!(buf, sealed, "seal_in_place, length {len}");

            cipher.open_in_place(&nonce, &mut buf, b"aad").unwrap();
            assert_eq!(buf, plain, "open_in_place, length {len}");
        }
    }

    #[test]
    fn open_in_place_leaves_buffer_on_failure() {
        let cipher = AesGcm::new(&[0x42u8; 16]);
        let nonce = [9u8; 12];
        let mut buf = b"payload".to_vec();
        cipher.seal_in_place(&nonce, &mut buf, b"aad");
        let sealed = buf.clone();
        assert_eq!(
            cipher.open_in_place(&nonce, &mut buf, b"wrong aad"),
            Err(CryptoError::AuthenticationFailed)
        );
        assert_eq!(buf, sealed, "failed open must not alter the buffer");
        let mut short = vec![0u8; TAG_LEN - 1];
        assert!(cipher.open_in_place(&nonce, &mut short, b"aad").is_err());
    }

    #[test]
    fn seal_ctx_spends_one_sequence_number_per_record() {
        let cipher = AesGcm::new(&[0x11u8; 16]);
        let mut send = SealCtx::new(cipher.clone(), 0xabcd);
        let mut recv = SealCtx::new(cipher.clone(), 0xabcd);
        let mut first = b"first".to_vec();
        send.seal_in_place(&mut first, b"aad");
        assert_eq!(
            first,
            cipher.seal(&nonce_from_seq(0xabcd, 0), b"first", b"aad")
        );
        assert_eq!(send.next_nonce(), nonce_from_seq(0xabcd, 1));
        let mut second = *b"second";
        let tag = send.seal_in_place_detached(&mut second, b"");
        let mut second = [&second[..], &tag[..]].concat();
        assert_eq!(send.seq(), 2);
        // Out of order: refused, buffer intact, no sequence number spent.
        let sealed = second.clone();
        assert!(recv.open_in_place(&mut second, b"").is_err());
        assert_eq!((recv.seq(), &second), (0, &sealed));
        recv.open_in_place(&mut first, b"aad").unwrap();
        recv.open_in_place(&mut second, b"").unwrap();
        assert_eq!((&first[..], &second[..]), (&b"first"[..], &b"second"[..]));
        // Replay of an opened record is refused too.
        assert!(recv.open_in_place(&mut sealed.clone(), b"").is_err());
    }

    #[test]
    fn detached_tag_roundtrip() {
        let cipher = AesGcm::new(&[7u8; 16]);
        let nonce = [1u8; 12];
        let mut buf = *b"0123456789abcdef_tail";
        let tag = cipher.seal_in_place_detached(&nonce, &mut buf, b"");
        assert_ne!(&buf, b"0123456789abcdef_tail");
        cipher
            .open_in_place_detached(&nonce, &mut buf, &tag, b"")
            .unwrap();
        assert_eq!(&buf, b"0123456789abcdef_tail");
        let bad = [0u8; TAG_LEN];
        assert!(cipher
            .open_in_place_detached(&nonce, &mut buf, &bad, b"")
            .is_err());
    }

    #[test]
    fn nonce_from_seq_unique() {
        let a = nonce_from_seq(1, 1);
        let b = nonce_from_seq(1, 2);
        let c = nonce_from_seq(2, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
