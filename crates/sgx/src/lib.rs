//! A behavioural simulator of Intel SGX for the SecureCloud stack.
//!
//! The SecureCloud paper (DSN'18) builds everything on SGX enclaves; this
//! crate substitutes the hardware with a simulator that reproduces the
//! *performance mechanisms* the paper's evaluation depends on:
//!
//! * **EPC paging** ([`mem`]) — the enclave page cache is limited
//!   (128 MiB on SGX1, ~93.5 MiB usable after SGX metadata); touching a
//!   non-resident page pays an OS-serviced fault, which is the cause of the
//!   paper's Figure 3 "memory swapping" cliff.
//! * **MEE overhead** — LLC misses inside an enclave pay memory
//!   encryption-engine decryption and integrity checking, a milder, bounded
//!   overhead (§V-B "cache misses ... less critical than memory swapping").
//! * **Enclave transitions** ([`enclave::Enclave::ecall`]) — entering and
//!   leaving costs thousands of cycles, which is why SCONE batches system
//!   calls asynchronously.
//! * **Measurement, sealing, attestation** ([`enclave`], [`attest`]) — the
//!   trust bootstrap used by SCONE's startup configuration flow.
//!
//! Time is *simulated*: components report their memory accesses and compute
//! operations, and the simulator accumulates cycles from a calibrated
//! [`costs::CostModel`]. Benchmarks read simulated durations, so results are
//! deterministic and hardware-independent.
//!
//! # Example
//!
//! ```
//! use securecloud_sgx::enclave::{EnclaveConfig, Platform};
//!
//! let platform = Platform::new();
//! let mut enclave = platform.launch(EnclaveConfig::new("worker", b"code")).unwrap();
//! let region = enclave.memory().alloc(1 << 20);
//! enclave.ecall(|mem| {
//!     mem.touch_region(region, 0, 4096);
//!     mem.charge_ops(100);
//! }).unwrap();
//! assert!(enclave.memory().cycles() > 0);
//! ```

pub mod attest;
pub mod costs;
pub mod enclave;
pub mod lru;
pub mod mem;

use std::error::Error as StdError;
use std::fmt;

/// Errors from the SGX simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SgxError {
    /// The enclave has been destroyed.
    Destroyed,
    /// A launch or decode argument was invalid.
    InvalidConfig(String),
    /// Attestation verification failed.
    AttestationFailed(String),
    /// A service refused to release a secret to an attested enclave.
    Refused(String),
    /// A cryptographic operation (seal/unseal) failed.
    Crypto(securecloud_crypto::CryptoError),
}

impl fmt::Display for SgxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SgxError::Destroyed => write!(f, "enclave has been destroyed"),
            SgxError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            SgxError::AttestationFailed(why) => write!(f, "attestation failed: {why}"),
            SgxError::Refused(why) => write!(f, "secret release refused: {why}"),
            SgxError::Crypto(e) => write!(f, "cryptographic failure: {e}"),
        }
    }
}

impl StdError for SgxError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            SgxError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<securecloud_crypto::CryptoError> for SgxError {
    fn from(e: securecloud_crypto::CryptoError) -> Self {
        SgxError::Crypto(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = SgxError::Crypto(securecloud_crypto::CryptoError::AuthenticationFailed);
        assert!(e.to_string().contains("cryptographic"));
        assert!(e.source().is_some());
        assert!(SgxError::Destroyed.source().is_none());
    }
}
