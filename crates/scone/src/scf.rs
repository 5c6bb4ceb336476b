//! Startup configuration files (SCF) and the configuration service.
//!
//! Per §V-A: *"Each secure container requires a startup configuration file
//! (SCF). The SCF contains keys to encrypt standard I/O streams, the hash
//! and encryption key of the FS protection file, application arguments, as
//! well as environment variables. Only an enclave whose identity has been
//! verified can access the SCF, which is received through a TLS-protected
//! connection that is established during enclave startup."*
//! No workload here shields its standard I/O, so [`Scf`] carries no stream
//! keys.
//!
//! The [`ConfigService`] holds SCFs keyed by enclave measurement and
//! releases one over the attested secret release of `sgx::attest`: only to
//! an enclave whose quote verifies and binds, for [`Purpose::Scf`], the
//! channel key the SCF travels over.

use crate::SconeError;
use securecloud_crypto::channel::{Identity, Transport};
use securecloud_crypto::impl_wire_struct;
use securecloud_crypto::wire::Wire;
use securecloud_crypto::x25519::PublicKey;
use securecloud_sgx::attest::{release_secret, request_secret, AttestationService, Purpose};
use securecloud_sgx::enclave::{Enclave, Measurement};
use securecloud_sgx::SgxError;
use std::collections::{BTreeMap, HashMap};

/// A startup configuration file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scf {
    /// Application arguments.
    pub args: Vec<String>,
    /// Environment variables.
    pub env: BTreeMap<String, String>,
    /// Key decrypting the FS protection file.
    pub fs_protection_key: [u8; 16],
    /// Expected hash of the sealed FS protection file (integrity pin).
    pub fs_protection_digest: [u8; 32],
}

impl_wire_struct!(Scf {
    args,
    env,
    fs_protection_key,
    fs_protection_digest
});

/// The trusted configuration service releasing SCFs to attested enclaves.
#[derive(Debug)]
pub struct ConfigService {
    identity: Identity,
    attestation: AttestationService,
    scfs: HashMap<Measurement, Scf>,
}

impl ConfigService {
    /// Creates a service with a fresh channel identity and the given
    /// attestation verifier.
    #[must_use]
    pub fn new(attestation: AttestationService) -> Self {
        ConfigService {
            identity: Identity::generate("scone-config-service"),
            attestation,
            scfs: HashMap::new(),
        }
    }

    /// The service's channel public key, pinned by clients.
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.identity.public_key()
    }

    /// Registers the SCF to release to enclaves measuring `measurement`.
    pub fn register(&mut self, measurement: Measurement, scf: Scf) {
        self.scfs.insert(measurement, scf);
    }

    /// Mutable access to the attestation policy.
    pub fn attestation_mut(&mut self) -> &mut AttestationService {
        &mut self.attestation
    }

    /// Serves one SCF request over `transport`: releases the SCF registered
    /// for the requesting enclave's measurement.
    ///
    /// # Errors
    ///
    /// [`SconeError`] describing the failed step. On failure an error
    /// marker is sent to the client instead of the SCF.
    pub fn serve_one<T: Transport>(&self, transport: T) -> Result<Measurement, SconeError> {
        let report = release_secret(
            transport,
            &self.identity,
            &self.attestation,
            Purpose::Scf,
            |report| {
                self.scfs
                    .get(&report.measurement)
                    .map(Wire::to_wire)
                    .ok_or_else(|| {
                        format!(
                            "no SCF registered for measurement {}",
                            report.measurement.to_hex()
                        )
                    })
            },
        )
        .map_err(scone_error)?;
        Ok(report.measurement)
    }
}

/// Enclave-side SCF fetch: attests over `transport` to the pinned config
/// service and returns the provisioned SCF.
///
/// Charges the enclave for the handshake's public-key cryptography.
///
/// # Errors
///
/// [`SconeError::Crypto`] on handshake failure or a malformed SCF,
/// [`SconeError::Config`] if the service refuses.
pub fn fetch_scf<T: Transport>(
    enclave: &mut Enclave,
    transport: T,
    service_key: PublicKey,
) -> Result<Scf, SconeError> {
    // Four X25519 operations plus AEAD: ~600k cycles inside the enclave.
    enclave.memory().charge_cycles(600_000);
    let body =
        request_secret(enclave, Purpose::Scf, transport, service_key).map_err(scone_error)?;
    Scf::from_wire(&body).map_err(SconeError::Crypto)
}

fn scone_error(e: SgxError) -> SconeError {
    match e {
        SgxError::Crypto(e) => SconeError::Crypto(e),
        SgxError::Refused(why) => SconeError::Config(why),
        e => SconeError::Sgx(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use securecloud_crypto::channel::{memory_pair, ChannelConfig, SecureChannel};
    use securecloud_sgx::enclave::{EnclaveConfig, Platform};
    use securecloud_sgx::SgxError;
    use std::thread;

    fn scf_fixture() -> Scf {
        Scf {
            args: vec!["meter-analytics".into(), "--window=60".into()],
            env: BTreeMap::from([("REGION".to_string(), "eu-central".to_string())]),
            fs_protection_key: securecloud_crypto::random_array(),
            fs_protection_digest: [7u8; 32],
        }
    }

    struct Setup {
        platform: Platform,
        enclave: Enclave,
        service: ConfigService,
    }

    fn setup() -> Setup {
        let platform = Platform::new();
        let enclave = platform
            .launch(EnclaveConfig::new("app", b"application code"))
            .unwrap();
        let mut attestation = AttestationService::new();
        attestation.register_platform(&platform);
        attestation.allow_measurement(enclave.measurement());
        let mut service = ConfigService::new(attestation);
        service.register(enclave.measurement(), scf_fixture());
        Setup {
            platform,
            enclave,
            service,
        }
    }

    #[test]
    fn scf_wire_roundtrip() {
        let scf = scf_fixture();
        assert_eq!(Scf::from_wire(&scf.to_wire()).unwrap(), scf);
    }

    #[test]
    fn provisioning_happy_path() {
        let Setup {
            mut enclave,
            service,
            ..
        } = setup();
        let (client_t, server_t) = memory_pair();
        let service_key = service.public_key();
        let server = thread::spawn(move || service.serve_one(server_t));
        let scf = fetch_scf(&mut enclave, client_t, service_key).unwrap();
        assert_eq!(scf, scf_fixture_normalized(&scf));
        assert_eq!(server.join().unwrap().unwrap(), enclave.measurement());
        assert!(enclave.memory().cycles() > 0, "handshake must be charged");
    }

    // The fixture has random keys; compare the stable fields.
    fn scf_fixture_normalized(scf: &Scf) -> Scf {
        Scf {
            args: vec!["meter-analytics".into(), "--window=60".into()],
            env: BTreeMap::from([("REGION".to_string(), "eu-central".to_string())]),
            fs_protection_key: scf.fs_protection_key,
            fs_protection_digest: [7u8; 32],
        }
    }

    #[test]
    fn unregistered_measurement_is_refused() {
        let Setup {
            platform, service, ..
        } = setup();
        let mut other = platform
            .launch(EnclaveConfig::new("other", b"different code"))
            .unwrap();
        // Allow the measurement at the attestation layer but register no SCF.
        let mut service = service;
        service
            .attestation_mut()
            .allow_measurement(other.measurement());
        let (client_t, server_t) = memory_pair();
        let key = service.public_key();
        let server = thread::spawn(move || service.serve_one(server_t));
        let err = fetch_scf(&mut other, client_t, key);
        assert!(matches!(err, Err(SconeError::Config(_))));
        assert!(server.join().unwrap().is_err());
    }

    #[test]
    fn unattested_measurement_is_refused() {
        let Setup {
            platform,
            mut service,
            ..
        } = setup();
        let mut rogue = platform
            .launch(EnclaveConfig::new("rogue", b"malicious code"))
            .unwrap();
        service.register(rogue.measurement(), scf_fixture());
        // Attestation allowlist does NOT include the rogue measurement.
        let (client_t, server_t) = memory_pair();
        let key = service.public_key();
        let server = thread::spawn(move || service.serve_one(server_t));
        let err = fetch_scf(&mut rogue, client_t, key);
        assert!(err.is_err());
        assert!(server.join().unwrap().is_err());
    }

    #[test]
    fn debug_enclave_is_refused() {
        let Setup {
            platform,
            enclave,
            service,
        } = setup();
        // Same code, so its measurement is allowlisted and has an SCF.
        let mut debug = platform
            .launch(EnclaveConfig {
                debug: true,
                ..EnclaveConfig::new("app", b"application code")
            })
            .unwrap();
        assert_eq!(debug.measurement(), enclave.measurement());
        let (client_t, server_t) = memory_pair();
        let key = service.public_key();
        let server = thread::spawn(move || service.serve_one(server_t));
        let err = fetch_scf(&mut debug, client_t, key);
        assert!(matches!(err, Err(SconeError::Config(_))));
        assert!(matches!(
            server.join().unwrap(),
            Err(SconeError::Sgx(SgxError::AttestationFailed(_)))
        ));
    }

    #[test]
    fn garbage_attestation_payload_is_refused() {
        let Setup { service, .. } = setup();
        let (client_t, server_t) = memory_pair();
        let key = service.public_key();
        let server = thread::spawn(move || service.serve_one(server_t));
        let identity = Identity::generate("garbage");
        let config = ChannelConfig {
            expected_peer: Some(key),
            attestation_payload: b"not a quote".to_vec(),
        };
        let mut channel = SecureChannel::initiate(client_t, &identity, config).unwrap();
        let frame = channel.recv().unwrap();
        assert_eq!(frame[0], 0);
        assert!(server.join().unwrap().is_err());
    }

    #[test]
    fn wrong_service_key_aborts_client() {
        let Setup {
            mut enclave,
            service,
            ..
        } = setup();
        let (client_t, server_t) = memory_pair();
        let server = thread::spawn(move || service.serve_one(server_t));
        let wrong_key = Identity::generate("imposter").public_key();
        let err = fetch_scf(&mut enclave, client_t, wrong_key);
        assert!(matches!(err, Err(SconeError::Crypto(_))));
        drop(server); // server thread errors out when the client hangs up
    }
}
