//! Secure content-based routing (SCBR, paper §V-B).
//!
//! Content-based routing decouples producers from consumers and routes
//! messages on their *content*; doing this efficiently requires the router
//! to see plaintext, which SCBR solves by matching inside an SGX enclave:
//!
//! * [`types`] — the subscription language (typed predicates, publications,
//!   and the containment/covering relation),
//! * [`index`] — the containment-forest index exploiting covering relations
//!   plus a naive linear-scan baseline,
//! * [`engine`] — the matching engine with a simulated memory layout (the
//!   substrate of the Figure 3 reproduction),
//! * [`secure`] — the enclave-hosted router with encrypted subscriptions,
//!   publications, and per-subscriber notifications,
//! * [`notify`] — the one publication parser: the validated view the router
//!   matches over and a subscriber opens its notifications into,
//! * [`workload`] — deterministic workload generation for the benchmarks.
//!
//! # Example
//!
//! ```
//! use securecloud_scbr::engine::MatchEngine;
//! use securecloud_scbr::index::PosetIndex;
//! use securecloud_scbr::types::{Op, Predicate, Publication, Subscription, Value};
//! use securecloud_sgx::costs::{CostModel, MemoryGeometry};
//! use securecloud_sgx::mem::MemorySim;
//!
//! let mut mem = MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::sgx_v1());
//! let mut engine = MatchEngine::new(PosetIndex::with_partition_attr("topic"));
//! let sub = Subscription::new(vec![
//!     Predicate::new("topic", Op::Eq, Value::Int(7)),
//!     Predicate::new("load", Op::Ge, Value::Int(100)),
//! ]);
//! let id = engine.subscribe(&mut mem, sub);
//! let event = Publication::new()
//!     .with("topic", Value::Int(7))
//!     .with("load", Value::Int(250));
//! assert_eq!(engine.publish(&mut mem, &event), vec![id]);
//! ```

pub mod broker;
pub mod engine;
pub mod index;
pub mod notify;
pub mod secure;
pub mod types;
pub mod workload;

use secure::ClientId;
use securecloud_crypto::CryptoError;
use securecloud_sgx::SgxError;
use std::error::Error as StdError;
use std::fmt;
use types::SubId;

/// Errors from the SCBR router.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScbrError {
    /// The client id is not registered with the router.
    UnknownClient(ClientId),
    /// The client has not completed the key exchange.
    ExchangeIncomplete,
    /// Decryption/authentication failure (tampering or replay).
    Crypto(CryptoError),
    /// The router's enclave refused the call (destroyed/aborted).
    Enclave(SgxError),
    /// The match engine returned a subscription the router has no owner for.
    UnknownSubscription(SubId),
}

impl fmt::Display for ScbrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScbrError::UnknownClient(id) => write!(f, "unknown client {}", id.0),
            ScbrError::ExchangeIncomplete => write!(f, "key exchange not completed"),
            ScbrError::Crypto(e) => write!(f, "cryptographic failure: {e}"),
            ScbrError::Enclave(e) => write!(f, "enclave failure: {e}"),
            ScbrError::UnknownSubscription(id) => write!(f, "subscription {} has no owner", id.0),
        }
    }
}

impl StdError for ScbrError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            ScbrError::Crypto(e) => Some(e),
            ScbrError::Enclave(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CryptoError> for ScbrError {
    fn from(e: CryptoError) -> Self {
        ScbrError::Crypto(e)
    }
}

impl From<SgxError> for ScbrError {
    fn from(e: SgxError) -> Self {
        ScbrError::Enclave(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(!ScbrError::UnknownClient(ClientId(3)).to_string().is_empty());
        assert!(!ScbrError::ExchangeIncomplete.to_string().is_empty());
        assert!(ScbrError::UnknownSubscription(SubId(9))
            .to_string()
            .contains('9'));
        let e: ScbrError = CryptoError::AuthenticationFailed.into();
        assert!(!e.to_string().is_empty());
    }
}
