//! Remote attestation: reports, quotes, and a verification service.
//!
//! In production SGX, an enclave's report is signed by the platform's
//! quoting enclave and the resulting quote is verified by Intel's
//! attestation service (IAS). Here the [`AttestationService`] plays the
//! role of IAS for a set of registered platforms: it shares each platform's
//! quote key (as Intel shares EPID group keys) and applies one fixed
//! policy: the measurement must be on the allowlist, and debug enclaves are
//! refused. Neither check can be switched off.
//!
//! Every secret the stack hands to an enclave (a startup configuration, a
//! shard group's sealing key, a topic key) is released by one handshake:
//! [`request_secret`] on the enclave's side, [`release_secret`] on the
//! service's. The enclave quotes a [`Purpose`]-labelled hash of its channel
//! key, so a quote read off one session, or made for another purpose, is
//! refused; the service keeps only its policy.

use crate::enclave::{Enclave, Measurement, Platform};
use crate::SgxError;
use securecloud_crypto::channel::{ChannelConfig, Identity, SecureChannel, Transport};
use securecloud_crypto::hmac::HmacSha256;
use securecloud_crypto::sha256::Sha256;
use securecloud_crypto::x25519::PublicKey;
use securecloud_crypto::CryptoError;
use std::collections::HashSet;

/// Length of the user-data field in a report (matches SGX's 64 bytes).
pub const REPORT_DATA_LEN: usize = 64;

/// An enclave-signed statement of identity, bound to caller-chosen data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The enclave's measurement.
    pub measurement: Measurement,
    /// Whether the enclave runs in debug mode.
    pub debug: bool,
    /// Caller data bound into the report (e.g. a channel key hash).
    pub report_data: [u8; REPORT_DATA_LEN],
}

impl Report {
    /// Canonical byte encoding signed by the quoting enclave.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + 1 + REPORT_DATA_LEN);
        out.extend_from_slice(&self.measurement.0);
        out.push(u8::from(self.debug));
        out.extend_from_slice(&self.report_data);
        out
    }

    /// Decodes the canonical encoding.
    ///
    /// # Errors
    ///
    /// [`SgxError::InvalidConfig`] on wrong length.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SgxError> {
        if bytes.len() != 32 + 1 + REPORT_DATA_LEN {
            return Err(SgxError::InvalidConfig(format!(
                "report must be {} bytes, got {}",
                32 + 1 + REPORT_DATA_LEN,
                bytes.len()
            )));
        }
        let measurement = Measurement(bytes[..32].try_into().expect("sized"));
        let debug = bytes[32] != 0;
        let report_data = bytes[33..].try_into().expect("sized");
        Ok(Report {
            measurement,
            debug,
            report_data,
        })
    }
}

/// A report signed by a platform's quoting enclave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// The signed report.
    pub report: Report,
    /// The quoting enclave's signature over [`Report::to_bytes`].
    pub signature: [u8; 32],
}

impl Quote {
    /// Serializes the quote for transmission inside a handshake payload.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.report.to_bytes();
        out.extend_from_slice(&self.signature);
        out
    }

    /// Parses a serialized quote.
    ///
    /// # Errors
    ///
    /// [`SgxError::InvalidConfig`] on wrong length.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SgxError> {
        let report_len = 32 + 1 + REPORT_DATA_LEN;
        if bytes.len() != report_len + 32 {
            return Err(SgxError::InvalidConfig(format!(
                "quote must be {} bytes, got {}",
                report_len + 32,
                bytes.len()
            )));
        }
        Ok(Quote {
            report: Report::from_bytes(&bytes[..report_len])?,
            signature: bytes[report_len..].try_into().expect("sized"),
        })
    }
}

/// Verification policy and trusted-platform registry (the "IAS" of the
/// simulation).
///
/// ```
/// use securecloud_sgx::attest::AttestationService;
/// use securecloud_sgx::enclave::{EnclaveConfig, Platform};
///
/// let platform = Platform::new();
/// let enclave = platform.launch(EnclaveConfig::new("svc", b"code")).unwrap();
///
/// let mut service = AttestationService::new();
/// service.register_platform(&platform);
/// service.allow_measurement(enclave.measurement());
///
/// let quote = enclave.quote(b"nonce");
/// let report = service.verify(&quote).unwrap();
/// assert_eq!(report.measurement, enclave.measurement());
/// ```
#[derive(Debug, Default)]
pub struct AttestationService {
    platform_keys: Vec<[u8; 32]>,
    allowed: HashSet<Measurement>,
}

impl AttestationService {
    /// Creates an empty service: no platforms, no allowed measurements,
    /// debug enclaves rejected.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a platform whose quotes this service can verify.
    pub fn register_platform(&mut self, platform: &Platform) {
        self.platform_keys.push(platform.quote_key());
    }

    /// Adds `measurement` to the allowlist.
    pub fn allow_measurement(&mut self, measurement: Measurement) {
        self.allowed.insert(measurement);
    }

    /// Verifies a quote: signature against every registered platform,
    /// then the debug check and the measurement allowlist.
    ///
    /// # Errors
    ///
    /// [`SgxError::AttestationFailed`] describing the first failed check.
    pub fn verify(&self, quote: &Quote) -> Result<Report, SgxError> {
        let body = quote.report.to_bytes();
        let signed_by_known_platform = self
            .platform_keys
            .iter()
            .any(|key| HmacSha256::verify(key, &body, &quote.signature));
        if !signed_by_known_platform {
            return Err(SgxError::AttestationFailed(
                "quote not signed by a registered platform".into(),
            ));
        }
        if quote.report.debug {
            return Err(SgxError::AttestationFailed(
                "debug enclaves are not accepted".into(),
            ));
        }
        if !self.allowed.contains(&quote.report.measurement) {
            return Err(SgxError::AttestationFailed(format!(
                "measurement {} is not in the allowlist",
                quote.report.measurement.to_hex()
            )));
        }
        Ok(quote.report.clone())
    }
}

/// What a quote's report data binds a channel key to. A quote bound for
/// one purpose is refused by the services of the other two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Purpose {
    /// A secure container's startup configuration (`scone::scf`).
    Scf,
    /// A shard group's sealing key and epoch (`replica::provision`).
    ReplicaAdmission,
    /// A topic's payload key (`eventbus::keys`).
    TopicKey,
}

impl Purpose {
    /// The report data an enclave quotes to receive a secret for this
    /// purpose over a channel keyed by `channel_key`.
    fn binding(self, channel_key: &PublicKey) -> [u8; 32] {
        let label: &[u8] = match self {
            Purpose::Scf => b"securecloud scf channel binding v1",
            Purpose::ReplicaAdmission => b"securecloud replica admission binding v1",
            Purpose::TopicKey => b"securecloud topic key binding v1",
        };
        let mut h = Sha256::new();
        h.update(label);
        h.update(channel_key);
        h.finalize()
    }
}

/// Enclave side of an attested secret release: quotes `purpose`'s binding
/// of a fresh channel key, runs the handshake against the service pinned
/// by `service_key`, and returns the secret the service released.
///
/// # Errors
///
/// [`SgxError::Crypto`] if the handshake fails (a responder that does not
/// hold `service_key` fails it before any secret moves) or the answer is
/// malformed; [`SgxError::Refused`] with the service's reason.
pub fn request_secret<T: Transport>(
    enclave: &Enclave,
    purpose: Purpose,
    transport: T,
    service_key: PublicKey,
) -> Result<Vec<u8>, SgxError> {
    let identity = Identity::generate(enclave.name());
    let quote = enclave.quote(&purpose.binding(&identity.public_key()));
    let config = ChannelConfig {
        expected_peer: Some(service_key),
        attestation_payload: quote.to_bytes(),
    };
    let mut channel = SecureChannel::initiate(transport, &identity, config)?;
    let mut frame = channel.recv()?;
    match frame.first() {
        Some(1) => {
            frame.remove(0);
            Ok(frame)
        }
        Some(0) => Err(SgxError::Refused(
            String::from_utf8_lossy(&frame[1..]).into_owned(),
        )),
        _ => Err(CryptoError::Malformed("empty release frame".into()).into()),
    }
}

/// Service side of an attested secret release: runs the handshake over
/// `transport` as `identity`, verifies the peer's quote under
/// `attestation` and its binding of the peer's channel key for `purpose`,
/// and asks `policy` for the verified enclave's secret. Sends `1‖secret`,
/// or `0‖reason` when any step refuses.
///
/// # Errors
///
/// [`SgxError::Crypto`] if the handshake or the send fails;
/// [`SgxError::InvalidConfig`] for a malformed quote;
/// [`SgxError::AttestationFailed`] for a quote that does not verify or
/// does not bind the channel key for `purpose` (`policy` is not asked);
/// [`SgxError::Refused`] with `policy`'s reason.
pub fn release_secret<T: Transport>(
    transport: T,
    identity: &Identity,
    attestation: &AttestationService,
    purpose: Purpose,
    policy: impl FnOnce(&Report) -> Result<Vec<u8>, String>,
) -> Result<Report, SgxError> {
    let mut channel = SecureChannel::respond(transport, identity, ChannelConfig::default())?;
    let binding = purpose.binding(&channel.peer_static_key());
    let outcome = Quote::from_bytes(channel.peer_attestation())
        .and_then(|quote| attestation.verify(&quote))
        .and_then(|report| {
            if !securecloud_crypto::ct_eq(&report.report_data[..32], &binding) {
                return Err(SgxError::AttestationFailed(format!(
                    "quote does not bind the requesting channel key for {purpose:?} \
                     (relayed, or made for another purpose)"
                )));
            }
            let secret = policy(&report).map_err(SgxError::Refused)?;
            Ok((report, secret))
        });
    match outcome {
        Ok((report, secret)) => {
            let mut frame = Vec::with_capacity(1 + secret.len());
            frame.push(1);
            frame.extend_from_slice(&secret);
            channel.send(&frame)?;
            Ok(report)
        }
        Err(e) => {
            let mut frame = vec![0u8];
            frame.extend_from_slice(e.to_string().as_bytes());
            let _ = channel.send(&frame);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::EnclaveConfig;
    use securecloud_crypto::channel::memory_pair;

    fn setup() -> (Platform, crate::enclave::Enclave, AttestationService) {
        let platform = Platform::new();
        let enclave = platform
            .launch(EnclaveConfig::new("svc", b"trusted code"))
            .unwrap();
        let mut service = AttestationService::new();
        service.register_platform(&platform);
        service.allow_measurement(enclave.measurement());
        (platform, enclave, service)
    }

    #[test]
    fn valid_quote_verifies() {
        let (_platform, enclave, service) = setup();
        let quote = enclave.quote(b"binding");
        let report = service.verify(&quote).unwrap();
        assert_eq!(report.measurement, enclave.measurement());
        assert_eq!(&report.report_data[..7], b"binding");
    }

    #[test]
    fn quote_serialization_roundtrip() {
        let (_platform, enclave, _service) = setup();
        let quote = enclave.quote(b"data");
        let parsed = Quote::from_bytes(&quote.to_bytes()).unwrap();
        assert_eq!(parsed, quote);
        assert!(Quote::from_bytes(&quote.to_bytes()[..10]).is_err());
    }

    #[test]
    fn forged_signature_rejected() {
        let (_platform, enclave, service) = setup();
        let mut quote = enclave.quote(b"");
        quote.signature[0] ^= 1;
        assert!(matches!(
            service.verify(&quote),
            Err(SgxError::AttestationFailed(_))
        ));
    }

    #[test]
    fn tampered_report_rejected() {
        let (_platform, enclave, service) = setup();
        let mut quote = enclave.quote(b"original");
        quote.report.report_data[0] ^= 1;
        assert!(service.verify(&quote).is_err());
    }

    #[test]
    fn unknown_platform_rejected() {
        let (_platform, enclave, _service) = setup();
        let mut fresh = AttestationService::new();
        fresh.allow_measurement(enclave.measurement());
        let quote = enclave.quote(b"");
        assert!(fresh.verify(&quote).is_err());
    }

    #[test]
    fn unlisted_measurement_rejected() {
        let (platform, _enclave, service) = setup();
        let other = platform
            .launch(EnclaveConfig::new("other", b"other code"))
            .unwrap();
        assert!(matches!(
            service.verify(&other.quote(b"")),
            Err(SgxError::AttestationFailed(_))
        ));
    }

    #[test]
    fn debug_enclave_refused_even_when_allowlisted() {
        let (platform, enclave, service) = setup();
        // Same code, so the same measurement `setup` put on the allowlist.
        let debug_enclave = platform
            .launch(EnclaveConfig {
                debug: true,
                ..EnclaveConfig::new("dbg", b"trusted code")
            })
            .unwrap();
        assert_eq!(debug_enclave.measurement(), enclave.measurement());
        assert!(matches!(
            service.verify(&debug_enclave.quote(b"")),
            Err(SgxError::AttestationFailed(_))
        ));
    }

    #[test]
    fn multiple_platforms_supported() {
        let (_p1, e1, mut service) = setup();
        let p2 = Platform::new();
        let e2 = p2
            .launch(EnclaveConfig::new("svc2", b"trusted code"))
            .unwrap();
        service.register_platform(&p2);
        assert!(service.verify(&e1.quote(b"")).is_ok());
        assert!(service.verify(&e2.quote(b"")).is_ok());
    }

    /// Serves one release of `b"secret"` to `payload`'s sender over a
    /// channel keyed by `identity`; returns the service's outcome and the
    /// frame the sender received.
    fn serve_payload(
        service: &AttestationService,
        identity: &Identity,
        payload: Vec<u8>,
    ) -> (Result<Report, SgxError>, Vec<u8>) {
        let (client_t, server_t) = memory_pair();
        let service_identity = Identity::generate("service");
        let config = ChannelConfig {
            expected_peer: Some(service_identity.public_key()),
            attestation_payload: payload,
        };
        let identity = identity.clone();
        let client = std::thread::spawn(move || {
            SecureChannel::initiate(client_t, &identity, config)
                .unwrap()
                .recv()
                .unwrap()
        });
        let served = release_secret(server_t, &service_identity, service, Purpose::Scf, |_| {
            Ok(b"secret".to_vec())
        });
        (served, client.join().unwrap())
    }

    #[test]
    fn bound_quote_receives_the_secret() {
        let (_platform, enclave, service) = setup();
        let identity = Identity::generate("enclave");
        let quote = enclave.quote(&Purpose::Scf.binding(&identity.public_key()));
        let (served, frame) = serve_payload(&service, &identity, quote.to_bytes());
        assert_eq!(served.unwrap().measurement, enclave.measurement());
        assert_eq!(frame, b"\x01secret");
    }

    #[test]
    fn relayed_quote_is_refused() {
        // The attacker owns the channel but presents an honest enclave's
        // quote that is bound to a *different* channel key.
        let (_platform, enclave, service) = setup();
        let honest = Identity::generate("honest");
        let quote = enclave.quote(&Purpose::Scf.binding(&honest.public_key()));
        let attacker = Identity::generate("attacker");
        let (served, frame) = serve_payload(&service, &attacker, quote.to_bytes());
        assert!(matches!(served, Err(SgxError::AttestationFailed(_))));
        assert_eq!(frame[0], 0, "service must refuse the relayed quote");
    }

    #[test]
    fn quote_for_another_purpose_is_refused() {
        let (_platform, enclave, service) = setup();
        let identity = Identity::generate("enclave");
        for purpose in [Purpose::ReplicaAdmission, Purpose::TopicKey] {
            let quote = enclave.quote(&purpose.binding(&identity.public_key()));
            let (served, frame) = serve_payload(&service, &identity, quote.to_bytes());
            assert!(matches!(served, Err(SgxError::AttestationFailed(_))));
            assert_eq!(frame[0], 0);
        }
    }
}
