//! Cryptographic primitives for the SecureCloud stack.
//!
//! Everything in this crate is implemented from scratch so that the rest of
//! the workspace has no external cryptographic dependencies, and in safe Rust
//! with one exception: the x86_64 AES-NI/PCLMULQDQ kernel behind [`gcm`]
//! (`src/hw.rs`) needs `unsafe` for its vector loads, stores and
//! feature-guarded calls. The crate denies `unsafe_code` everywhere else.
//!
//! * [`sha256`] — SHA-256 hashing,
//! * [`hmac`] — HMAC-SHA256 and HKDF key derivation,
//! * [`aes`] — the AES-128 block cipher (portable, table-driven),
//! * [`gcm`] — AES-128-GCM authenticated encryption, on the hardware kernel
//!   where the CPU has one and on the portable kernel elsewhere,
//! * [`x25519`] — Curve25519 Diffie-Hellman,
//! * [`channel`] — a mutually-authenticated secure channel (Noise-KK-like)
//!   used for SCF provisioning and inter-service communication,
//! * [`wire`] — a compact binary codec used across the workspace in place of
//!   a serde format crate.
//!
//! # Security note
//!
//! The algorithms are implemented faithfully and verified against the
//! standard test vectors (FIPS-197, RFC 4231, RFC 5869, RFC 7748, NIST GCM).
//! Comparisons of secrets are constant-time ([`ct_eq`]), and so is AES-GCM
//! on the hardware kernel. The rest — the portable AES-GCM fallback included —
//! is *reference grade*: it favours clarity over side-channel hardening and
//! must not be used outside this research prototype.
//!
//! # Example
//!
//! ```
//! use securecloud_crypto::{gcm::AesGcm, sha256::Sha256};
//!
//! let key: [u8; 16] = Sha256::digest(b"my password")[..16].try_into().unwrap();
//! let cipher = AesGcm::new(&key);
//! let sealed = cipher.seal(&[0u8; 12], b"meter reading 42 kWh", b"header");
//! let plain = cipher.open(&[0u8; 12], &sealed, b"header").unwrap();
//! assert_eq!(plain, b"meter reading 42 kWh");
//! ```

#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod aes;
pub mod channel;
pub mod gcm;
pub mod hmac;
#[cfg(target_arch = "x86_64")]
mod hw;
pub mod reference;
mod rng;
pub mod sha256;
pub mod wire;
pub mod x25519;

use rng::Generator;
use std::error::Error as StdError;
use std::fmt;
use std::sync::{Mutex, PoisonError};

/// Errors produced by cryptographic operations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// An authentication tag or MAC failed to verify.
    AuthenticationFailed,
    /// An encoded structure could not be decoded.
    Malformed(String),
    /// A handshake failed (wrong peer, bad transcript, transport closed).
    Handshake(String),
    /// The underlying transport was closed.
    TransportClosed,
    /// A key had the wrong length or was otherwise unusable.
    InvalidKey(String),
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::AuthenticationFailed => write!(f, "authentication failed"),
            CryptoError::Malformed(what) => write!(f, "malformed encoding: {what}"),
            CryptoError::Handshake(why) => write!(f, "handshake failed: {why}"),
            CryptoError::TransportClosed => write!(f, "transport closed"),
            CryptoError::InvalidKey(why) => write!(f, "invalid key: {why}"),
        }
    }
}

impl StdError for CryptoError {}

/// Constant-time equality over byte slices.
///
/// Returns `false` for slices of unequal length without inspecting contents;
/// for equal lengths the comparison time does not depend on where the slices
/// differ.
///
/// ```
/// assert!(securecloud_crypto::ct_eq(b"tag", b"tag"));
/// assert!(!securecloud_crypto::ct_eq(b"tag", b"tab"));
/// ```
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Hex-encodes a byte slice (lowercase). Used pervasively in logs and tests.
#[must_use]
pub fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use fmt::Write;
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// Decodes a lowercase/uppercase hex string into bytes.
///
/// # Errors
///
/// Returns [`CryptoError::Malformed`] on odd length or non-hex characters.
pub fn unhex(s: &str) -> Result<Vec<u8>, CryptoError> {
    if !s.len().is_multiple_of(2) {
        return Err(CryptoError::Malformed("odd-length hex string".into()));
    }
    let digit = |c: u8| -> Result<u8, CryptoError> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(CryptoError::Malformed(format!("non-hex byte {c:#x}"))),
        }
    };
    s.as_bytes()
        .chunks(2)
        .map(|pair| Ok(digit(pair[0])? << 4 | digit(pair[1])?))
        .collect()
}

/// Returns a fresh array of bytes from the process-wide generator: AES-128
/// in counter mode, keyed once per process from 32 bytes of `/dev/urandom`
/// and re-keyed from its own output after every draw.
///
/// # Panics
///
/// If `/dev/urandom` cannot be read.
#[must_use]
pub fn random_array<const N: usize>() -> [u8; N] {
    static GENERATOR: Mutex<Option<Generator>> = Mutex::new(None);
    let mut out = [0u8; N];
    let mut generator = GENERATOR.lock().unwrap_or_else(PoisonError::into_inner);
    generator
        .get_or_insert_with(Generator::from_os)
        .fill(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
    }

    #[test]
    fn hex_roundtrip() {
        let bytes = [0x00, 0x01, 0xab, 0xff];
        let s = hex(&bytes);
        assert_eq!(s, "0001abff");
        assert_eq!(unhex(&s).unwrap(), bytes);
        assert_eq!(unhex("ABFF").unwrap(), vec![0xab, 0xff]);
    }

    #[test]
    fn unhex_rejects_bad_input() {
        assert!(unhex("abc").is_err());
        assert!(unhex("zz").is_err());
    }

    #[test]
    fn random_arrays_differ() {
        let a: [u8; 32] = random_array();
        let b: [u8; 32] = random_array();
        assert_ne!(a, b, "256-bit collision is vanishingly unlikely");
    }

    /// Set in the children that [`first_draw_differs_across_processes`]
    /// starts; a plain test run never sets it.
    const CHILD_MARKER: &str = "SECURECLOUD_CRYPTO_FIRST_DRAW_CHILD";

    #[test]
    fn first_draw_differs_across_processes() {
        let name = "tests::first_draw_differs_across_processes";
        if std::env::var_os(CHILD_MARKER).is_some() {
            println!("first-draw={}", hex(&random_array::<16>()));
            return;
        }
        let exe = std::env::current_exe().unwrap();
        let draw = || {
            let output = std::process::Command::new(&exe)
                .args([name, "--exact", "--nocapture", "--test-threads=1"])
                .env(CHILD_MARKER, "1")
                .output()
                .unwrap();
            assert!(output.status.success(), "child test run failed");
            let stdout = String::from_utf8(output.stdout).unwrap();
            // libtest prints the test's name on the same line, before it.
            let (_, drawn) = stdout
                .split_once("first-draw=")
                .expect("child printed its draw");
            drawn[..32].to_string()
        };
        let (first, second) = (draw(), draw());
        assert_ne!(first, second, "two processes drew the same first 16 bytes");
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            CryptoError::AuthenticationFailed,
            CryptoError::Malformed("x".into()),
            CryptoError::Handshake("y".into()),
            CryptoError::TransportClosed,
            CryptoError::InvalidKey("z".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
