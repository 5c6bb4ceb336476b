//! Attestation-gated replica provisioning.
//!
//! This is the reproduction of ReplicaTEE's provisioning service: a
//! replica may join a shard group **only** after the service has verified
//! a quote from the platform's (simulated) quoting enclave, and the
//! group's sealing key travels exclusively over the attested secret
//! release of `sgx::attest`. The candidate pins the service's channel key,
//! and its quote binds, for [`Purpose::ReplicaAdmission`], the channel key
//! it receives the group key on, so a man-in-the-middle with a stolen
//! quote cannot complete admission.
//!
//! One [`ProvisioningService::admit`] call runs both ends in process: the
//! candidate's [`request_secret`] and the service's
//! [`ProvisioningService::serve_one`], which releases the group sealing key
//! and the group's current epoch once the quote verifies under its
//! [`AttestationService`] policy (registered platforms, measurement
//! allowlist, no debug enclaves) and binds the channel key.

use crate::{ReplicaError, ShardId};
use securecloud_crypto::channel::{memory_pair, Identity, Transport};
use securecloud_crypto::x25519::PublicKey;
use securecloud_sgx::attest::{release_secret, request_secret, AttestationService, Purpose};
use securecloud_sgx::enclave::{Enclave, Measurement, Platform};
use securecloud_sgx::SgxError;
use securecloud_telemetry::{Counter, Metric, Telemetry};
use std::collections::HashMap;

/// What an admitted replica walks away with: the group's sealing key and
/// the epoch it was admitted under, exactly as received over the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// The shard group's sealing key (snapshots are sealed under it).
    pub group_key: [u8; 16],
    /// The group epoch at admission time.
    pub epoch: u64,
}

/// The provisioning service gating shard-group membership on attestation.
#[derive(Debug)]
pub struct ProvisioningService {
    attestation: AttestationService,
    identity: Identity,
    group_keys: HashMap<u32, [u8; 16]>,
    admitted: Counter,
    rejected: Counter,
}

impl ProvisioningService {
    /// A service trusting `platform`'s quoting enclave and admitting only
    /// enclaves measuring `allowed`.
    #[must_use]
    pub fn new(platform: &Platform, allowed: Measurement) -> Self {
        let mut attestation = AttestationService::new();
        attestation.register_platform(platform);
        attestation.allow_measurement(allowed);
        ProvisioningService {
            attestation,
            identity: Identity::generate("replica-provisioning"),
            group_keys: HashMap::new(),
            admitted: Counter::new(),
            rejected: Counter::new(),
        }
    }

    /// Adds another acceptable measurement (e.g. a new shard binary
    /// version during a rolling upgrade).
    pub fn allow_measurement(&mut self, measurement: Measurement) {
        self.attestation.allow_measurement(measurement);
    }

    /// The service's channel public key, pinned by candidates.
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.identity.public_key()
    }

    /// Adopts the admission counters into a shared telemetry registry.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        let registry = telemetry.registry();
        registry.adopt(
            "securecloud_replica_admissions_total",
            &[("outcome", "admitted")],
            Metric::Counter(self.admitted.clone()),
        );
        registry.adopt(
            "securecloud_replica_admissions_total",
            &[("outcome", "rejected")],
            Metric::Counter(self.rejected.clone()),
        );
    }

    /// Replicas admitted so far.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.admitted.value()
    }

    /// Admission attempts rejected so far.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected.value()
    }

    /// Runs the full admission flow for `candidate` joining `shard` at
    /// `epoch`. On success the candidate holds the group sealing key; on
    /// failure nothing secret was released.
    ///
    /// # Errors
    ///
    /// See [`ProvisioningService::serve_one`].
    pub fn admit(
        &mut self,
        shard: ShardId,
        candidate: &Enclave,
        epoch: u64,
    ) -> Result<Admission, ReplicaError> {
        let (candidate_end, service_end) = memory_pair();
        let service_key = self.public_key();
        // Both handshake halves block on each other, so the service side
        // runs on its own thread (the simulator's "network" is in-memory).
        let (served, received) = std::thread::scope(|scope| {
            let service = scope.spawn(|| self.serve_one(shard, epoch, service_end));
            let received = request_secret(
                candidate,
                Purpose::ReplicaAdmission,
                candidate_end,
                service_key,
            );
            let served = service.join().unwrap_or_else(|_| {
                panic!("shard {shard}: provisioning responder thread panicked during admission")
            });
            (served, received)
        });
        served?;
        let payload = received.map_err(|source| admission_error(shard, source))?;
        let Ok(payload) = <[u8; 24]>::try_from(payload.as_slice()) else {
            return Err(ReplicaError::InvalidConfig(format!(
                "shard {shard}: admission payload is {} bytes, not 24 \
                 (16-byte group key + 8-byte epoch)",
                payload.len()
            )));
        };
        let (group_key, epoch) = payload.split_at(16);
        Ok(Admission {
            group_key: group_key.try_into().expect("16 of 24 bytes"),
            epoch: u64::from_le_bytes(epoch.try_into().expect("8 of 24 bytes")),
        })
    }

    /// Serves one admission request for `shard` over `transport`: releases
    /// the group's sealing key (created on the first admission) and
    /// `epoch`. A refused request changes nothing but the rejected counter.
    ///
    /// # Errors
    ///
    /// * [`ReplicaError::AdmissionDenied`] — the quote failed verification
    ///   (unknown platform, unlisted measurement, debug enclave, or a quote
    ///   that does not bind the channel key for replica admission);
    /// * [`ReplicaError::Channel`] — the secure-channel handshake failed.
    pub fn serve_one<T: Transport>(
        &mut self,
        shard: ShardId,
        epoch: u64,
        transport: T,
    ) -> Result<(), ReplicaError> {
        let group_keys = &mut self.group_keys;
        let served = release_secret(
            transport,
            &self.identity,
            &self.attestation,
            Purpose::ReplicaAdmission,
            |_| {
                let key = group_keys
                    .entry(shard.0)
                    .or_insert_with(securecloud_crypto::random_array);
                Ok([&key[..], &epoch.to_le_bytes()].concat())
            },
        );
        match served {
            Ok(_) => {
                self.admitted.inc();
                Ok(())
            }
            Err(source @ SgxError::Crypto(_)) => Err(admission_error(shard, source)),
            Err(source) => {
                self.rejected.inc();
                Err(admission_error(shard, source))
            }
        }
    }
}

fn admission_error(shard: ShardId, source: SgxError) -> ReplicaError {
    match source {
        SgxError::Crypto(source) => ReplicaError::Channel { shard, source },
        source => ReplicaError::AdmissionDenied { shard, source },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use securecloud_crypto::channel::{ChannelConfig, SecureChannel};
    use securecloud_sgx::enclave::EnclaveConfig;

    const SHARD_CODE: &[u8] = b"replica shard code";

    fn setup() -> (Platform, ProvisioningService) {
        let platform = Platform::new();
        let allowed = Measurement::of_code(SHARD_CODE);
        let service = ProvisioningService::new(&platform, allowed);
        (platform, service)
    }

    #[test]
    fn valid_replica_admitted_with_stable_group_key() {
        let (platform, mut service) = setup();
        let a = platform
            .launch(EnclaveConfig::new("r0", SHARD_CODE))
            .unwrap();
        let b = platform
            .launch(EnclaveConfig::new("r1", SHARD_CODE))
            .unwrap();
        let first = service.admit(ShardId(0), &a, 1).unwrap();
        let second = service.admit(ShardId(0), &b, 1).unwrap();
        assert_eq!(first.group_key, second.group_key, "one key per group");
        assert_eq!(first.epoch, 1);
        let other_shard = service.admit(ShardId(1), &a, 1).unwrap();
        assert_ne!(first.group_key, other_shard.group_key);
        assert_eq!(service.admitted(), 3);
        assert_eq!(service.rejected(), 0);
    }

    #[test]
    fn unlisted_measurement_rejected() {
        let (platform, mut service) = setup();
        let rogue = platform
            .launch(EnclaveConfig::new("rogue", b"tampered shard code"))
            .unwrap();
        let err = service.admit(ShardId(0), &rogue, 1).unwrap_err();
        assert!(matches!(err, ReplicaError::AdmissionDenied { .. }), "{err}");
        assert_eq!(service.rejected(), 1);
    }

    #[test]
    fn unknown_platform_rejected() {
        let (_platform, mut service) = setup();
        let foreign = Platform::new();
        let candidate = foreign
            .launch(EnclaveConfig::new("r0", SHARD_CODE))
            .unwrap();
        let err = service.admit(ShardId(0), &candidate, 1).unwrap_err();
        assert!(matches!(err, ReplicaError::AdmissionDenied { .. }), "{err}");
    }

    #[test]
    fn debug_enclave_rejected() {
        let (platform, mut service) = setup();
        let debug = platform
            .launch(EnclaveConfig {
                debug: true,
                ..EnclaveConfig::new("dbg", SHARD_CODE)
            })
            .unwrap();
        let err = service.admit(ShardId(0), &debug, 1).unwrap_err();
        assert!(matches!(err, ReplicaError::AdmissionDenied { .. }), "{err}");
    }

    #[test]
    fn quote_must_bind_the_channel_key() {
        // A valid quote bound to the WRONG data (e.g. replayed from another
        // session) fails the binding check even though it verifies.
        let (platform, mut service) = setup();
        let enclave = platform
            .launch(EnclaveConfig::new("r0", SHARD_CODE))
            .unwrap();
        let (a, b) = memory_pair();
        let replayed = enclave.quote(b"someone else's channel key hash");
        let config = ChannelConfig {
            expected_peer: Some(service.public_key()),
            attestation_payload: replayed.to_bytes(),
        };
        let mitm = std::thread::spawn(move || {
            let mut channel = SecureChannel::initiate(a, &Identity::generate("mitm"), config)?;
            channel.recv()
        });
        let err = service.serve_one(ShardId(0), 1, b).unwrap_err();
        assert!(matches!(err, ReplicaError::AdmissionDenied { .. }), "{err}");
        assert!(err.to_string().contains("bind"), "{err}");
        assert_eq!(mitm.join().unwrap().unwrap()[0], 0, "refusal frame only");
        assert_eq!((service.admitted(), service.rejected()), (0, 1));
    }
}
