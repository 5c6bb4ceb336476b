//! Per-topic payload encryption with attestation-gated key release.
//!
//! Payloads on the bus are sealed end-to-end between micro-services: the
//! bus (which may run on untrusted infrastructure) only ever sees
//! ciphertext plus the routable attributes. The [`TopicKeyService`]
//! releases a topic key over the attested secret release of `sgx::attest`,
//! exclusively to enclaves whose quote verifies and binds, for
//! [`Purpose::TopicKey`], the channel key the topic key travels over, and
//! whose measurement is on the topic's ACL.

use securecloud_crypto::channel::{Identity, Transport};
use securecloud_crypto::gcm::AesGcm;
use securecloud_crypto::x25519::PublicKey;
use securecloud_crypto::CryptoError;
use securecloud_sgx::attest::{release_secret, request_secret, AttestationService, Purpose};
use securecloud_sgx::enclave::{Enclave, Measurement};
use securecloud_sgx::SgxError;
use std::collections::{HashMap, HashSet};
use std::error::Error as StdError;
use std::fmt;

/// Errors from the key service.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum KeyServiceError {
    /// The attested release failed: the handshake, or the requesting
    /// enclave's quote or its channel binding.
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
    identity: Identity,
    attestation: AttestationService,
    keys: HashMap<String, [u8; 16]>,
    acl: HashMap<String, HashSet<Measurement>>,
}

impl TopicKeyService {
    /// Creates a key service with a fresh channel identity, verifying
    /// quotes with `attestation`.
    #[must_use]
    pub fn new(attestation: AttestationService) -> Self {
        TopicKeyService {
            identity: Identity::generate("topic-key-service"),
            attestation,
            keys: HashMap::new(),
            acl: HashMap::new(),
        }
    }

    /// The service's channel public key, pinned by clients.
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.identity.public_key()
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

    /// Serves one request for `topic`'s key over `transport`. The answer
    /// names the topic, so [`fetch_topic_key`] refuses another topic's key.
    ///
    /// # Errors
    ///
    /// [`KeyServiceError::Attestation`] if the handshake, the quote or its
    /// binding fails, [`KeyServiceError::NotAuthorised`] if the measurement
    /// is not on the topic's ACL.
    pub fn serve_one<T: Transport>(
        &self,
        topic: &str,
        transport: T,
    ) -> Result<Measurement, KeyServiceError> {
        release_secret(
            transport,
            &self.identity,
            &self.attestation,
            Purpose::TopicKey,
            |report| match (self.keys.get(topic), self.acl.get(topic)) {
                (Some(key), Some(acl)) if acl.contains(&report.measurement) => {
                    Ok([&key[..], topic.as_bytes()].concat())
                }
                _ => Err(format!("measurement not authorised for topic {topic}")),
            },
        )
        .map(|report| report.measurement)
        .map_err(|e| key_service_error(topic, e))
    }
}

/// Enclave-side topic-key fetch: attests over `transport` to the key
/// service pinned by `service_key` and returns `topic`'s key.
///
/// # Errors
///
/// [`KeyServiceError::NotAuthorised`] if the service refuses,
/// [`KeyServiceError::Attestation`] if the handshake fails or the answer is
/// not `topic`'s key.
pub fn fetch_topic_key<T: Transport>(
    enclave: &Enclave,
    topic: &str,
    transport: T,
    service_key: PublicKey,
) -> Result<[u8; 16], KeyServiceError> {
    let secret = request_secret(enclave, Purpose::TopicKey, transport, service_key)
        .map_err(|e| key_service_error(topic, e))?;
    secret
        .strip_suffix(topic.as_bytes())
        .and_then(|key| key.try_into().ok())
        .ok_or_else(|| {
            KeyServiceError::Attestation(SgxError::Crypto(CryptoError::Malformed(format!(
                "the service did not answer with topic {topic}'s key"
            ))))
        })
}

fn key_service_error(topic: &str, e: SgxError) -> KeyServiceError {
    match e {
        SgxError::Refused(_) => KeyServiceError::NotAuthorised {
            topic: topic.to_string(),
        },
        e => KeyServiceError::Attestation(e),
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
    use securecloud_crypto::channel::memory_pair;
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

    /// `enclave` asks for `asked`'s key; the service serves `served`.
    fn fetch(
        service: &TopicKeyService,
        served: &str,
        enclave: &Enclave,
        asked: &str,
    ) -> (
        Result<[u8; 16], KeyServiceError>,
        Result<Measurement, KeyServiceError>,
    ) {
        let (client_t, server_t) = memory_pair();
        std::thread::scope(|scope| {
            let server = scope.spawn(|| service.serve_one(served, server_t));
            let key = fetch_topic_key(enclave, asked, client_t, service.public_key());
            (key, server.join().unwrap())
        })
    }

    #[test]
    fn grant_and_release() {
        let (platform, mut service, measurement) = world();
        service.grant("meters", measurement);
        let enclave = platform
            .launch(EnclaveConfig::new("svc", b"service code"))
            .unwrap();
        let (key, served) = fetch(&service, "meters", &enclave, "meters");
        assert_eq!(served.unwrap(), measurement);
        // Stable across requests.
        let again = fetch(&service, "meters", &enclave, "meters").0;
        assert_eq!(key.unwrap(), again.unwrap());
    }

    #[test]
    fn unauthorised_measurement_denied() {
        let (platform, mut service, measurement) = world();
        service.grant("meters", measurement);
        let rogue = platform
            .launch(EnclaveConfig::new("rogue", b"other code"))
            .unwrap();
        // Attested (allow it) but not on the topic ACL.
        service.attestation.allow_measurement(rogue.measurement());
        let (key, served) = fetch(&service, "meters", &rogue, "meters");
        assert!(matches!(key, Err(KeyServiceError::NotAuthorised { .. })));
        assert!(matches!(served, Err(KeyServiceError::NotAuthorised { .. })));
        // Unattested quote is rejected outright.
        let unknown_platform = Platform::new();
        let impostor = unknown_platform
            .launch(EnclaveConfig::new("svc", b"service code"))
            .unwrap();
        let (key, served) = fetch(&service, "meters", &impostor, "meters");
        assert!(key.is_err());
        assert!(matches!(served, Err(KeyServiceError::Attestation(_))));
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
        let (key, served) = fetch(&service, "meters", &debug, "meters");
        assert!(key.is_err());
        assert!(matches!(
            served,
            Err(KeyServiceError::Attestation(SgxError::AttestationFailed(_)))
        ));
    }

    #[test]
    fn another_topics_key_is_refused() {
        // The request does not name its topic; the answer does, so a host
        // that wires a request for "meters" to the service call for
        // "meter" cannot hand the enclave the wrong key.
        let (platform, mut service, measurement) = world();
        service.grant("meters", measurement);
        service.grant("meter", measurement);
        let enclave = platform
            .launch(EnclaveConfig::new("svc", b"service code"))
            .unwrap();
        let (key, served) = fetch(&service, "meter", &enclave, "meters");
        assert!(served.is_ok());
        assert!(matches!(key, Err(KeyServiceError::Attestation(_))));
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
        assert_ne!(
            fetch(&service, "a", &enclave, "a").0.unwrap(),
            fetch(&service, "b", &enclave, "b").0.unwrap()
        );
    }
}
