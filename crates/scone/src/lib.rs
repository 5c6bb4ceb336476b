//! A SCONE-like secure container runtime (paper §IV, §V-A).
//!
//! SCONE ("Secure Linux Containers with Intel SGX", OSDI'16) is the
//! foundation of the SecureCloud micro-service layer: it runs unmodified
//! application logic inside an enclave and shields its interaction with the
//! untrusted world. This crate reproduces its architecture:
//!
//! * [`syscall`] — the *external system call interface*: arguments are
//!   copied out, results sanity-checked against an in-enclave pending
//!   table and copied in. One [`syscall::Shield`]; its constructor picks
//!   the transport — a transition pair per call, or SCONE's asynchronous
//!   rings.
//! * [`fshield`] — transparent encryption/authentication of file data with
//!   an *FS protection file* holding per-file keys and chunk MACs.
//! * [`stdio`] — encrypted standard I/O streams.
//! * [`rings`] — shared-memory submission/completion rings: the switchless
//!   transport, SPSC slots in untrusted memory serviced by the host
//!   without any enclave transition.
//! * [`executor`] — SCONE's "tailored threading", the one in-enclave
//!   scheduler: a cooperative futures executor (wakers, a ready queue, and
//!   a parking path that blocks on completions instead of busy-polling)
//!   multiplexing application coroutines over the shield.
//! * [`scf`] — the startup configuration file and the attested provisioning
//!   flow that releases it only to verified enclaves.
//! * [`runtime`] — the assembled secure-container runtime.
//! * [`hostos`] — the untrusted host interface (with adversarial test
//!   hooks: corruption and rollback).

pub mod executor;
pub mod fshield;
pub mod hostos;
pub mod rings;
pub mod runtime;
pub mod scf;
pub mod stdio;
pub mod syscall;

use securecloud_crypto::CryptoError;
use securecloud_sgx::SgxError;
use std::error::Error as StdError;
use std::fmt;

/// Errors from the SCONE runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SconeError {
    /// The untrusted host violated the syscall protocol (Iago-style).
    HostViolation(String),
    /// Shielded data failed authentication: tampered, rolled back, or lost.
    Tampered(String),
    /// A shielded path does not exist.
    NotFound(String),
    /// A shielded path already exists.
    AlreadyExists(String),
    /// The async syscall engine has stopped or has nothing in flight.
    ShieldStopped,
    /// Configuration / provisioning failure.
    Config(String),
    /// Underlying cryptographic failure.
    Crypto(CryptoError),
    /// Underlying enclave failure.
    Sgx(SgxError),
}

impl fmt::Display for SconeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SconeError::HostViolation(why) => write!(f, "host protocol violation: {why}"),
            SconeError::Tampered(why) => write!(f, "shield integrity failure: {why}"),
            SconeError::NotFound(path) => write!(f, "shielded file not found: {path}"),
            SconeError::AlreadyExists(path) => write!(f, "shielded file exists: {path}"),
            SconeError::ShieldStopped => write!(f, "async syscall engine stopped"),
            SconeError::Config(why) => write!(f, "configuration failure: {why}"),
            SconeError::Crypto(e) => write!(f, "cryptographic failure: {e}"),
            SconeError::Sgx(e) => write!(f, "enclave failure: {e}"),
        }
    }
}

impl StdError for SconeError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            SconeError::Crypto(e) => Some(e),
            SconeError::Sgx(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CryptoError> for SconeError {
    fn from(e: CryptoError) -> Self {
        SconeError::Crypto(e)
    }
}

impl From<SgxError> for SconeError {
    fn from(e: SgxError) -> Self {
        SconeError::Sgx(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        let errors = [
            SconeError::HostViolation("x".into()),
            SconeError::Tampered("y".into()),
            SconeError::NotFound("/p".into()),
            SconeError::AlreadyExists("/p".into()),
            SconeError::ShieldStopped,
            SconeError::Config("z".into()),
            SconeError::Crypto(CryptoError::TransportClosed),
            SconeError::Sgx(SgxError::Destroyed),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn conversions() {
        use std::error::Error;
        let e: SconeError = CryptoError::AuthenticationFailed.into();
        assert!(e.source().is_some());
        let e: SconeError = SgxError::Destroyed.into();
        assert!(e.source().is_some());
    }
}
