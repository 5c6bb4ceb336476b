//! Attestation-gated replica provisioning.
//!
//! This is the reproduction of ReplicaTEE's provisioning service: a
//! replica may join a shard group **only** after the service has verified
//! a quote from the platform's (simulated) quoting enclave, and the
//! group's sealing key travels exclusively over a mutually-authenticated
//! [`SecureChannel`]. The quote binds the candidate's channel public key
//! (its SHA-256 lands in the report's user data), so the service knows the
//! channel terminates *inside* the attested enclave — a man-in-the-middle
//! with a stolen quote cannot complete admission.
//!
//! Admission flow (one [`ProvisioningService::admit`] call):
//!
//! 1. the candidate enclave generates a channel identity and quotes the
//!    hash of its public key;
//! 2. candidate and service run the channel handshake, the quote riding in
//!    the candidate's authenticated attestation payload;
//! 3. the service parses the quote, verifies it against its
//!    [`AttestationService`] policy (registered platforms, measurement
//!    allowlist, no debug enclaves), and checks the channel-key binding;
//! 4. only then does the service release the group sealing key and the
//!    group's current epoch over the channel.

use crate::{ReplicaError, ShardId};
use securecloud_crypto::channel::{
    memory_pair, ChannelConfig, Identity, MemoryTransport, SecureChannel,
};
use securecloud_crypto::sha256::Sha256;
use securecloud_sgx::attest::{AttestationService, Quote};
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

    /// The sealing key for `shard`, created on first use. Internal: the
    /// only way the key leaves the service is over an admission channel.
    pub(crate) fn group_key(&mut self, shard: ShardId) -> [u8; 16] {
        *self
            .group_keys
            .entry(shard.0)
            .or_insert_with(securecloud_crypto::random_array)
    }

    /// Runs the full admission flow for `candidate` joining `shard` at
    /// `epoch`. On success the candidate holds the group sealing key; on
    /// failure nothing secret was released.
    ///
    /// # Errors
    ///
    /// * [`ReplicaError::AdmissionDenied`] — the quote failed verification
    ///   (unknown platform, unlisted measurement, debug enclave, or a quote
    ///   that does not bind the channel key);
    /// * [`ReplicaError::Channel`] — the secure-channel handshake failed.
    pub fn admit(
        &mut self,
        shard: ShardId,
        candidate: &Enclave,
        epoch: u64,
    ) -> Result<Admission, ReplicaError> {
        let (candidate_end, service_end) = memory_pair();
        let candidate_identity = Identity::generate(&format!("replica-{shard}"));
        let mut binding = Sha256::new();
        binding.update(&candidate_identity.public_key());
        let quote = candidate.quote(&binding.finalize());

        // Both handshake halves block on each other, so the service side
        // runs on its own thread (the simulator's "network" is in-memory).
        let service_identity = self.identity.clone();
        let responder = std::thread::spawn(move || {
            SecureChannel::respond(service_end, &service_identity, ChannelConfig::default())
        });
        let candidate_channel = SecureChannel::initiate(
            candidate_end,
            &candidate_identity,
            ChannelConfig {
                attestation_payload: quote.to_bytes(),
                ..ChannelConfig::default()
            },
        );
        let service_channel = responder.join().unwrap_or_else(|_| {
            panic!("shard {shard}: provisioning responder thread panicked during admission")
        });
        let mut candidate_channel =
            candidate_channel.map_err(|source| ReplicaError::Channel { shard, source })?;
        let mut service_channel =
            service_channel.map_err(|source| ReplicaError::Channel { shard, source })?;

        // Service side: verify the (handshake-authenticated) quote before
        // releasing anything.
        if let Err(source) = self.verify_candidate(&service_channel) {
            self.rejected.inc();
            return Err(ReplicaError::AdmissionDenied { shard, source });
        }

        let key = self.group_key(shard);
        let mut payload = key.to_vec();
        payload.extend_from_slice(&epoch.to_le_bytes());
        service_channel
            .send(&payload)
            .map_err(|source| ReplicaError::Channel { shard, source })?;

        // Candidate side: receive the key over the channel.
        let received = candidate_channel
            .recv()
            .map_err(|source| ReplicaError::Channel { shard, source })?;
        if received.len() < 24 {
            return Err(ReplicaError::InvalidConfig(format!(
                "shard {shard}: admission payload truncated ({} bytes, need 24: \
                 16-byte group key + 8-byte epoch)",
                received.len()
            )));
        }
        let group_key: [u8; 16] = received[..16]
            .try_into()
            .unwrap_or_else(|_| panic!("shard {shard}: group-key slice is 16 bytes by check"));
        let epoch = u64::from_le_bytes(
            received[16..24]
                .try_into()
                .unwrap_or_else(|_| panic!("shard {shard}: epoch slice is 8 bytes by check")),
        );
        self.admitted.inc();
        Ok(Admission { group_key, epoch })
    }

    /// The service-side checks: quote parses, verifies under the
    /// attestation policy, and binds the channel's static key.
    fn verify_candidate(&self, channel: &SecureChannel<MemoryTransport>) -> Result<(), SgxError> {
        let quote = Quote::from_bytes(channel.peer_attestation())?;
        let report = self.attestation.verify(&quote)?;
        let mut binding = Sha256::new();
        binding.update(&channel.peer_static_key());
        if report.report_data[..32] != binding.finalize() {
            return Err(SgxError::AttestationFailed(
                "quote does not bind the channel key".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let (platform, service) = setup();
        let enclave = platform
            .launch(EnclaveConfig::new("r0", SHARD_CODE))
            .unwrap();
        let (a, b) = memory_pair();
        let replayed = enclave.quote(b"someone else's channel key hash");
        let initiator_id = Identity::generate("mitm");
        let service_id = service.identity.clone();
        let responder = std::thread::spawn(move || {
            SecureChannel::respond(b, &service_id, ChannelConfig::default())
        });
        let _initiator = SecureChannel::initiate(
            a,
            &initiator_id,
            ChannelConfig {
                attestation_payload: replayed.to_bytes(),
                ..ChannelConfig::default()
            },
        )
        .unwrap();
        let service_channel = responder.join().unwrap().unwrap();
        let err = service.verify_candidate(&service_channel).unwrap_err();
        assert!(err.to_string().contains("bind"), "{err}");
    }
}
