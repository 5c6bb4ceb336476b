//! Remote attestation: reports, quotes, and a verification service.
//!
//! In production SGX, an enclave's report is signed by the platform's
//! quoting enclave and the resulting quote is verified by Intel's
//! attestation service (IAS). Here the [`AttestationService`] plays the
//! role of IAS for a set of registered platforms: it shares each platform's
//! quote key (as Intel shares EPID group keys) and applies one fixed
//! policy: the measurement must be on the allowlist, and debug enclaves are
//! refused. Neither check can be switched off.

use crate::enclave::{Measurement, Platform};
use crate::SgxError;
use securecloud_crypto::hmac::HmacSha256;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::EnclaveConfig;

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
}
