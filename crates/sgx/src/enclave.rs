//! Enclave lifecycle: build, measure, enter/exit, seal, destroy.
//!
//! A [`Platform`] stands in for an SGX-capable CPU package: it holds the
//! per-processor secrets from which sealing keys and attestation (quote)
//! keys are derived. Enclaves are launched on a platform from an
//! [`EnclaveConfig`]; the measurement (`MRENCLAVE`) is the SHA-256 of the
//! supplied code image, so two enclaves built from identical code measure
//! identically — the property the SCONE startup flow relies on when it
//! releases the startup configuration file only to expected measurements.

use crate::attest::{Quote, Report, REPORT_DATA_LEN};
use crate::costs::{CostModel, MemoryGeometry};
use crate::mem::MemorySim;
use crate::SgxError;
use securecloud_crypto::gcm::AesGcm;
use securecloud_crypto::hmac::{hkdf, HmacSha256};
use securecloud_crypto::sha256::Sha256;
use securecloud_telemetry::Telemetry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An enclave measurement (`MRENCLAVE`): SHA-256 over the code image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Measurement(pub [u8; 32]);

impl Measurement {
    /// Computes the measurement of a code image.
    #[must_use]
    pub fn of_code(code: &[u8]) -> Self {
        let mut h = Sha256::new();
        h.update(b"securecloud-enclave-v1");
        h.update(&(code.len() as u64).to_le_bytes());
        h.update(code);
        Measurement(h.finalize())
    }

    /// Hex rendering, for logs and allowlists.
    #[must_use]
    pub fn to_hex(&self) -> String {
        securecloud_crypto::hex(&self.0)
    }
}

/// Configuration for launching an enclave.
#[derive(Debug, Clone)]
pub struct EnclaveConfig {
    /// Human-readable name (diagnostics only; not part of the measurement).
    pub name: String,
    /// The code image to measure.
    pub code: Vec<u8>,
    /// Memory geometry (EPC size, cache sizes).
    pub geometry: MemoryGeometry,
    /// Cycle cost model.
    pub costs: CostModel,
    /// Debug enclaves can be inspected and must be rejected by production
    /// attestation policies.
    pub debug: bool,
}

impl EnclaveConfig {
    /// A config with SGX1 defaults for the given name and code image.
    #[must_use]
    pub fn new(name: &str, code: &[u8]) -> Self {
        EnclaveConfig {
            name: name.to_string(),
            code: code.to_vec(),
            geometry: MemoryGeometry::sgx_v1(),
            costs: CostModel::sgx_v1(),
            debug: false,
        }
    }
}

/// Opaque enclave identifier, unique per platform process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EnclaveId(u64);

#[derive(Debug)]
struct PlatformInner {
    seal_secret: [u8; 32],
    quote_key: [u8; 32],
    next_id: AtomicU64,
}

/// A simulated SGX-capable CPU package.
///
/// Cloning a [`Platform`] handle shares the underlying hardware secrets, as
/// multiple cores of one package would.
#[derive(Debug, Clone)]
pub struct Platform {
    inner: Arc<PlatformInner>,
}

impl Default for Platform {
    fn default() -> Self {
        Self::new()
    }
}

impl Platform {
    /// "Manufactures" a platform with fresh hardware secrets.
    #[must_use]
    pub fn new() -> Self {
        Platform {
            inner: Arc::new(PlatformInner {
                seal_secret: securecloud_crypto::random_array(),
                quote_key: securecloud_crypto::random_array(),
                next_id: AtomicU64::new(1),
            }),
        }
    }

    /// Launches an enclave: measures the code, allocates its simulated
    /// memory system, and charges enclave-creation cost (EADD/EEXTEND over
    /// the code image).
    ///
    /// # Errors
    ///
    /// [`SgxError::InvalidConfig`] if the code image is empty.
    pub fn launch(&self, config: EnclaveConfig) -> Result<Enclave, SgxError> {
        if config.code.is_empty() {
            return Err(SgxError::InvalidConfig("empty code image".into()));
        }
        let measurement = Measurement::of_code(&config.code);
        let mut mem = MemorySim::enclave(config.geometry, config.costs.clone());
        // EADD + EEXTEND measure each 4 KiB page (~26k cycles/page on SGX1).
        let pages = (config.code.len() as u64).div_ceil(config.geometry.page_bytes as u64);
        mem.charge_cycles(pages * 26_000);
        let id = EnclaveId(self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        Ok(Enclave {
            id,
            name: config.name,
            measurement,
            debug: config.debug,
            mem,
            platform: self.clone(),
            destroyed: false,
            abort_reason: None,
            metrics: None,
        })
    }

    /// The quoting enclave: signs `report` with the platform quote key.
    /// In real SGX this is an EPID/ECDSA signature verified by Intel; here
    /// it is an HMAC verified by an [`crate::attest::AttestationService`]
    /// that shares the key (standing in for the attestation authority).
    #[must_use]
    pub fn quote(&self, report: &Report) -> Quote {
        let body = report.to_bytes();
        Quote {
            report: report.clone(),
            signature: HmacSha256::mac(&self.inner.quote_key, &body),
        }
    }

    pub(crate) fn quote_key(&self) -> [u8; 32] {
        self.inner.quote_key
    }

    fn seal_key_for(&self, measurement: &Measurement) -> [u8; 16] {
        hkdf(
            &self.inner.seal_secret,
            &measurement.0,
            b"securecloud seal key v1",
        )
    }
}

/// Registry name of the platform-wide ECALL counter.
pub const METRIC_ECALLS: &str = "securecloud_sgx_ecalls_total";

securecloud_telemetry::metric_set! {
    /// Shared-registry counters for enclave transitions.
    struct EnclaveMetrics {
        ecalls: Counter = METRIC_ECALLS,
        switchless_calls: Counter = "securecloud_sgx_switchless_calls_total",
        transition_cycles: Counter = "securecloud_sgx_transition_cycles_total",
        aborts: Counter = "securecloud_sgx_enclave_aborts_total",
    }
}

/// A running simulated enclave.
#[derive(Debug)]
pub struct Enclave {
    id: EnclaveId,
    name: String,
    measurement: Measurement,
    debug: bool,
    mem: MemorySim,
    platform: Platform,
    destroyed: bool,
    abort_reason: Option<String>,
    metrics: Option<EnclaveMetrics>,
}

impl Enclave {
    /// The enclave's identifier on its platform.
    #[must_use]
    pub fn id(&self) -> EnclaveId {
        self.id
    }

    /// The enclave's name (diagnostics).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The enclave's measurement.
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// The platform this enclave runs on.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Attaches shared telemetry: ECALL transitions and transition
    /// cycles are counted platform-wide, and the enclave's memory simulator
    /// mirrors its paging/decrypt counters into the registry.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = Some(EnclaveMetrics::shared(telemetry.registry(), &[]));
        self.mem.set_telemetry(telemetry);
    }

    /// Enters the enclave, runs `body` with access to the enclave memory
    /// system, and exits, charging one ECALL/EEXIT round trip.
    ///
    /// # Errors
    ///
    /// [`SgxError::Destroyed`] if the enclave has been destroyed.
    pub fn ecall<R>(&mut self, body: impl FnOnce(&mut MemorySim) -> R) -> Result<R, SgxError> {
        if self.destroyed {
            return Err(SgxError::Destroyed);
        }
        let ecall = self.mem.costs().ecall_cycles;
        let pair = self.mem.costs().transition_pair();
        if let Some(m) = &self.metrics {
            m.ecalls.inc();
            m.transition_cycles.add(pair);
        }
        self.mem.charge_cycles(ecall);
        let result = body(&mut self.mem);
        self.mem.charge_cycles(pair - ecall);
        Ok(result)
    }

    /// Runs `body` with access to the enclave memory system **without any
    /// transition**: the request reaches the enclave thread over a
    /// shared-memory ring slot, so only two ring-slot cache-coherency
    /// charges apply (request in, response out). This is the switchless
    /// boundary crossing used by the ring runtime; compare the counters
    /// `securecloud_sgx_ecalls_total` vs
    /// `securecloud_sgx_switchless_calls_total` to see transitions leave
    /// the critical path.
    ///
    /// # Errors
    ///
    /// [`SgxError::Destroyed`] if the enclave has been destroyed.
    pub fn switchless_call<R>(
        &mut self,
        body: impl FnOnce(&mut MemorySim) -> R,
    ) -> Result<R, SgxError> {
        if self.destroyed {
            return Err(SgxError::Destroyed);
        }
        let slot = self.mem.costs().ring_slot_cycles;
        if let Some(m) = &self.metrics {
            m.switchless_calls.inc();
        }
        self.mem.charge_cycles(slot);
        let result = body(&mut self.mem);
        self.mem.charge_cycles(slot);
        Ok(result)
    }

    /// Direct access to the enclave's memory simulator, for long-running
    /// in-enclave components that manage their own entry/exit accounting.
    #[must_use]
    pub fn memory(&mut self) -> &mut MemorySim {
        &mut self.mem
    }

    /// Read-only view of the enclave's memory simulator, for cycle and
    /// paging accounting without entering the enclave.
    #[must_use]
    pub fn memory_view(&self) -> &MemorySim {
        &self.mem
    }

    /// Produces an attestation report binding `report_data` (e.g. the hash
    /// of a channel public key) to this enclave's measurement.
    #[must_use]
    pub fn report(&self, report_data: &[u8]) -> Report {
        let mut data = [0u8; REPORT_DATA_LEN];
        let n = report_data.len().min(REPORT_DATA_LEN);
        data[..n].copy_from_slice(&report_data[..n]);
        Report {
            measurement: self.measurement,
            debug: self.debug,
            report_data: data,
        }
    }

    /// Convenience: report + quote in one step.
    #[must_use]
    pub fn quote(&self, report_data: &[u8]) -> Quote {
        self.platform.quote(&self.report(report_data))
    }

    /// Seals `plaintext` to this enclave's identity: only an enclave with
    /// the same measurement on the same platform can unseal it.
    ///
    /// The output embeds a random nonce; `aad` is authenticated but not
    /// encrypted.
    #[must_use]
    pub fn seal(&self, plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let key = self.platform.seal_key_for(&self.measurement);
        let nonce = securecloud_crypto::random_array();
        AesGcm::new(&key).seal_envelope(&nonce, aad, plaintext.len(), |out| {
            out.extend_from_slice(plaintext);
        })
    }

    /// Unseals data produced by [`Enclave::seal`] under the same identity.
    ///
    /// # Errors
    ///
    /// [`SgxError::Crypto`] if the blob is malformed, was sealed by a
    /// different measurement or platform, or was tampered with.
    pub fn unseal(&self, sealed: &[u8], aad: &[u8]) -> Result<Vec<u8>, SgxError> {
        let key = self.platform.seal_key_for(&self.measurement);
        AesGcm::new(&key)
            .open_envelope(sealed, aad)
            .map_err(SgxError::Crypto)
    }

    /// Destroys the enclave. Further ECALLs fail.
    pub fn destroy(&mut self) {
        self.destroyed = true;
    }

    /// Whether the enclave has been destroyed.
    #[must_use]
    pub fn is_destroyed(&self) -> bool {
        self.destroyed
    }

    /// Aborts the enclave, modelling an unrecoverable fault inside it (the
    /// hardware analogue of an AEX the runtime cannot resume from). The
    /// enclave is destroyed and the reason is kept for diagnostics; enclave
    /// memory is unrecoverable, so only sealed state survives.
    pub fn abort(&mut self, reason: impl Into<String>) {
        if let Some(m) = &self.metrics {
            m.aborts.inc();
        }
        self.abort_reason = Some(reason.into());
        self.destroyed = true;
    }

    /// Whether the enclave terminated via [`Enclave::abort`].
    #[must_use]
    pub fn is_aborted(&self) -> bool {
        self.abort_reason.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config(name: &str, code: &[u8]) -> EnclaveConfig {
        EnclaveConfig {
            costs: CostModel::zero(),
            ..EnclaveConfig::new(name, code)
        }
    }

    #[test]
    fn measurement_is_deterministic_and_code_sensitive() {
        let a = Measurement::of_code(b"binary v1");
        let b = Measurement::of_code(b"binary v1");
        let c = Measurement::of_code(b"binary v2");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.to_hex().len(), 64);
    }

    #[test]
    fn launch_rejects_empty_code() {
        let platform = Platform::new();
        assert!(matches!(
            platform.launch(test_config("x", b"")),
            Err(SgxError::InvalidConfig(_))
        ));
    }

    #[test]
    fn ecall_charges_transitions() {
        let platform = Platform::new();
        let config = EnclaveConfig::new("t", b"code"); // real cost model
        let mut enclave = platform.launch(config).unwrap();
        let before = enclave.memory().cycles();
        enclave.ecall(|_mem| ()).unwrap();
        let cost = enclave.memory().cycles() - before;
        let expected = CostModel::sgx_v1().transition_pair();
        assert_eq!(cost, expected);
    }

    #[test]
    fn switchless_call_charges_ring_slots_not_transitions() {
        let platform = Platform::new();
        let config = EnclaveConfig::new("t", b"code"); // real cost model
        let mut enclave = platform.launch(config).unwrap();
        let before = enclave.memory().cycles();
        enclave.switchless_call(|_mem| ()).unwrap();
        let cost = enclave.memory().cycles() - before;
        let model = CostModel::sgx_v1();
        assert_eq!(cost, 2 * model.ring_slot_cycles);
        assert!(cost < model.transition_pair() / 10);
        enclave.destroy();
        assert!(matches!(
            enclave.switchless_call(|_| ()),
            Err(SgxError::Destroyed)
        ));
    }

    #[test]
    fn destroyed_enclave_rejects_calls() {
        let platform = Platform::new();
        let mut enclave = platform.launch(test_config("t", b"code")).unwrap();
        enclave.destroy();
        assert!(enclave.is_destroyed());
        assert!(matches!(enclave.ecall(|_| ()), Err(SgxError::Destroyed)));
    }

    #[test]
    fn abort_destroys_and_keeps_reason() {
        let platform = Platform::new();
        let mut enclave = platform.launch(test_config("t", b"code")).unwrap();
        assert!(!enclave.is_aborted());
        enclave.abort("fault injection");
        assert!(enclave.is_aborted());
        assert!(enclave.is_destroyed());
        assert_eq!(enclave.abort_reason.as_deref(), Some("fault injection"));
        assert!(matches!(enclave.ecall(|_| ()), Err(SgxError::Destroyed)));
        // A plain destroy is not an abort.
        let mut other = platform.launch(test_config("u", b"code")).unwrap();
        other.destroy();
        assert!(!other.is_aborted());
    }

    #[test]
    fn seal_roundtrip_same_measurement() {
        let platform = Platform::new();
        let e1 = platform.launch(test_config("a", b"same code")).unwrap();
        let e2 = platform.launch(test_config("b", b"same code")).unwrap();
        let sealed = e1.seal(b"db key", b"v1");
        assert_eq!(e2.unseal(&sealed, b"v1").unwrap(), b"db key");
    }

    #[test]
    fn seal_rejects_other_measurement_or_platform() {
        let platform = Platform::new();
        let e1 = platform.launch(test_config("a", b"code A")).unwrap();
        let e2 = platform.launch(test_config("b", b"code B")).unwrap();
        let sealed = e1.seal(b"secret", b"");
        assert!(e2.unseal(&sealed, b"").is_err());

        let other = Platform::new();
        let e3 = other.launch(test_config("c", b"code A")).unwrap();
        assert!(e3.unseal(&sealed, b"").is_err());
        // Wrong AAD also fails.
        assert!(e1.unseal(&sealed, b"v2").is_err());
        // Truncated blob fails cleanly.
        assert!(e1.unseal(&sealed[..4], b"").is_err());
    }

    #[test]
    fn report_binds_data_and_measurement() {
        let platform = Platform::new();
        let enclave = platform.launch(test_config("a", b"code")).unwrap();
        let report = enclave.report(b"channel-key-hash");
        assert_eq!(report.measurement, enclave.measurement());
        assert_eq!(&report.report_data[..16], b"channel-key-hash");
        assert!(report.report_data[16..].iter().all(|&b| b == 0));
    }

    #[test]
    fn enclave_ids_unique_per_platform() {
        let platform = Platform::new();
        let e1 = platform.launch(test_config("a", b"x")).unwrap();
        let e2 = platform.launch(test_config("b", b"x")).unwrap();
        assert_ne!(e1.id(), e2.id());
    }

    #[test]
    fn launch_charges_measurement_cost() {
        let platform = Platform::new();
        let small = platform
            .launch(EnclaveConfig::new("s", &[0u8; 4096]))
            .unwrap();
        let large = platform
            .launch(EnclaveConfig::new("l", &[0u8; 40960]))
            .unwrap();
        let small_cycles = {
            let mut e = small;
            e.memory().cycles()
        };
        let large_cycles = {
            let mut e = large;
            e.memory().cycles()
        };
        assert!(large_cycles > small_cycles);
    }
}
