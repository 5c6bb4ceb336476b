//! Per-topic payload encryption with attestation-gated key release.
//!
//! Payloads on the bus are sealed end-to-end between micro-services: the
//! bus (which may run on untrusted infrastructure) only ever sees
//! ciphertext plus the routable attributes. Topic keys are released by the
//! [`TopicKeyService`] exclusively to enclaves whose quote verifies and
//! whose measurement is on the topic's ACL.

use securecloud_crypto::gcm::AesGcm;
use securecloud_crypto::CryptoError;
use securecloud_sgx::attest::{AttestationService, Quote};
use securecloud_sgx::enclave::Measurement;
use securecloud_sgx::SgxError;
use std::collections::{HashMap, HashSet};
use std::error::Error as StdError;
use std::fmt;

/// Errors from the key service.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum KeyServiceError {
    /// Attestation of the requesting enclave failed.
    Attestation(SgxError),
    /// The measurement is not authorised for the topic.
    NotAuthorised {
        /// Requested topic.
        topic: String,
    },
}

impl fmt::Display for KeyServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyServiceError::Attestation(e) => write!(f, "attestation failed: {e}"),
            KeyServiceError::NotAuthorised { topic } => {
                write!(f, "measurement not authorised for topic {topic}")
            }
        }
    }
}

impl StdError for KeyServiceError {}

/// Attestation-gated distribution of per-topic payload keys.
#[derive(Debug)]
pub struct TopicKeyService {
    attestation: AttestationService,
    keys: HashMap<String, [u8; 16]>,
    acl: HashMap<String, HashSet<Measurement>>,
}

impl TopicKeyService {
    /// Creates a key service verifying quotes with `attestation`.
    #[must_use]
    pub fn new(attestation: AttestationService) -> Self {
        TopicKeyService {
            attestation,
            keys: HashMap::new(),
            acl: HashMap::new(),
        }
    }

    /// Grants `measurement` access to `topic` (creating the topic key on
    /// first grant).
    pub fn grant(&mut self, topic: &str, measurement: Measurement) {
        self.keys
            .entry(topic.to_string())
            .or_insert_with(securecloud_crypto::random_array);
        self.acl
            .entry(topic.to_string())
            .or_default()
            .insert(measurement);
    }

    /// Releases the key for `topic` to the attested enclave behind `quote`.
    ///
    /// # Errors
    ///
    /// [`KeyServiceError::Attestation`] if the quote does not verify,
    /// [`KeyServiceError::NotAuthorised`] if the measurement is not on the
    /// topic's ACL.
    pub fn key_for(&self, topic: &str, quote: &Quote) -> Result<[u8; 16], KeyServiceError> {
        let report = self
            .attestation
            .verify(quote)
            .map_err(KeyServiceError::Attestation)?;
        let allowed = self
            .acl
            .get(topic)
            .is_some_and(|acl| acl.contains(&report.measurement));
        if !allowed {
            return Err(KeyServiceError::NotAuthorised {
                topic: topic.to_string(),
            });
        }
        Ok(self.keys[topic])
    }
}

/// Associated data of every sealed bus payload.
const PAYLOAD_AAD: &[u8] = b"securecloud bus payload";

/// Seals a payload under a topic key (random nonce prefix).
#[must_use]
pub fn seal_payload(key: &[u8; 16], payload: &[u8]) -> Vec<u8> {
    let nonce = securecloud_crypto::random_array();
    AesGcm::new(key).seal_envelope(&nonce, PAYLOAD_AAD, payload.len(), |out| {
        out.extend_from_slice(payload);
    })
}

/// Opens a payload sealed with [`seal_payload`].
///
/// # Errors
///
/// [`CryptoError::AuthenticationFailed`] on tampering or a wrong key.
pub fn open_payload(key: &[u8; 16], sealed: &[u8]) -> Result<Vec<u8>, CryptoError> {
    AesGcm::new(key).open_envelope(sealed, PAYLOAD_AAD)
}

#[cfg(test)]
mod tests {
    use super::*;
    use securecloud_sgx::enclave::{EnclaveConfig, Platform};

    fn world() -> (Platform, TopicKeyService, Measurement) {
        let platform = Platform::new();
        let enclave = platform
            .launch(EnclaveConfig::new("svc", b"service code"))
            .unwrap();
        let measurement = enclave.measurement();
        let mut attestation = AttestationService::new();
        attestation.register_platform(&platform);
        attestation.allow_measurement(measurement);
        let service = TopicKeyService::new(attestation);
        (platform, service, measurement)
    }

    #[test]
    fn grant_and_release() {
        let (platform, mut service, measurement) = world();
        service.grant("meters", measurement);
        let enclave = platform
            .launch(EnclaveConfig::new("svc", b"service code"))
            .unwrap();
        let key = service.key_for("meters", &enclave.quote(b"")).unwrap();
        // Stable across requests.
        assert_eq!(key, service.key_for("meters", &enclave.quote(b"")).unwrap());
    }

    #[test]
    fn unauthorised_measurement_denied() {
        let (platform, mut service, measurement) = world();
        service.grant("meters", measurement);
        let rogue = platform
            .launch(EnclaveConfig::new("rogue", b"other code"))
            .unwrap();
        // Attested (allow it) but not on the topic ACL.
        let mut attestation = AttestationService::new();
        attestation.register_platform(&platform);
        attestation.allow_measurement(rogue.measurement());
        let mut service2 = TopicKeyService::new(attestation);
        service2.grant("meters", measurement);
        assert!(matches!(
            service2.key_for("meters", &rogue.quote(b"")),
            Err(KeyServiceError::NotAuthorised { .. })
        ));
        // Unattested quote is rejected outright.
        let unknown_platform = Platform::new();
        let impostor = unknown_platform
            .launch(EnclaveConfig::new("svc", b"service code"))
            .unwrap();
        assert!(matches!(
            service.key_for("meters", &impostor.quote(b"")),
            Err(KeyServiceError::Attestation(_))
        ));
    }

    #[test]
    fn debug_enclave_denied() {
        let (platform, mut service, measurement) = world();
        service.grant("meters", measurement);
        // Same code, so the measurement is attested and on the topic's ACL.
        let debug = platform
            .launch(EnclaveConfig {
                debug: true,
                ..EnclaveConfig::new("svc", b"service code")
            })
            .unwrap();
        assert_eq!(debug.measurement(), measurement);
        assert!(matches!(
            service.key_for("meters", &debug.quote(b"")),
            Err(KeyServiceError::Attestation(SgxError::AttestationFailed(_)))
        ));
    }

    #[test]
    fn payload_roundtrip_and_tampering() {
        let key = [3u8; 16];
        let sealed = seal_payload(&key, b"reading: 42");
        assert_eq!(open_payload(&key, &sealed).unwrap(), b"reading: 42");
        // The first ciphertext byte, past the 12-byte nonce.
        let mut bad = sealed.clone();
        bad[12] ^= 1;
        assert!(open_payload(&key, &bad).is_err());
        assert!(open_payload(&[4u8; 16], &sealed).is_err());
        assert!(open_payload(&key, &sealed[..4]).is_err());
    }

    #[test]
    fn distinct_topics_distinct_keys() {
        let (platform, mut service, measurement) = world();
        service.grant("a", measurement);
        service.grant("b", measurement);
        let enclave = platform
            .launch(EnclaveConfig::new("svc", b"service code"))
            .unwrap();
        let quote = enclave.quote(b"");
        assert_ne!(
            service.key_for("a", &quote).unwrap(),
            service.key_for("b", &quote).unwrap()
        );
    }
}
