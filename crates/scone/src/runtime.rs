//! The assembled SCONE runtime: enclave + SCF + shielded file system.
//!
//! [`SconeRuntime::bootstrap`] performs the full secure-container startup
//! sequence of §V-A:
//!
//! 1. the enclave quotes itself, binding the quote to a fresh channel key,
//! 2. the SCF is fetched from the configuration service over an attested
//!    channel,
//! 3. the sealed FS protection file (shipped in the container image) is
//!    verified against the digest pinned in the SCF and decrypted with the
//!    key from the SCF,
//! 4. the shielded file system is mounted over the untrusted host, behind
//!    the [`Shield`] the caller built (which fixes the syscall transport).

use crate::fshield::{FsProtection, ShieldedFs};
use crate::scf::{fetch_scf, Scf};
use crate::stdio::{ShieldedStream, StreamRole};
use crate::syscall::Shield;
use crate::SconeError;
use securecloud_crypto::channel::{Identity, Transport};
use securecloud_crypto::x25519::PublicKey;
use securecloud_sgx::enclave::Enclave;
use std::sync::Arc;
use std::time::Duration;

/// A provisioned secure-container runtime.
#[derive(Debug)]
pub struct SconeRuntime {
    enclave: Enclave,
    scf: Scf,
    fs: ShieldedFs,
}

impl SconeRuntime {
    /// Runs the secure-container startup sequence. See the module docs.
    ///
    /// # Errors
    ///
    /// * [`SconeError::Crypto`] — attested channel failure,
    /// * [`SconeError::Config`] — the config service refused the enclave,
    /// * [`SconeError::Tampered`] — the image's FS protection file does not
    ///   match the digest pinned in the SCF.
    pub fn bootstrap<T: Transport>(
        mut enclave: Enclave,
        transport: T,
        config_service_key: PublicKey,
        shield: Shield,
        sealed_protection: &[u8],
    ) -> Result<Self, SconeError> {
        let channel_identity = Identity::generate(&format!("enclave-{:?}", enclave.id()));
        let scf = fetch_scf(
            &mut enclave,
            &channel_identity,
            transport,
            config_service_key,
        )?;

        let digest = FsProtection::digest(sealed_protection);
        if !securecloud_crypto::ct_eq(&digest, &scf.fs_protection_digest) {
            return Err(SconeError::Tampered(
                "FS protection file does not match the digest in the SCF".into(),
            ));
        }
        let protection = FsProtection::open_sealed(&scf.fs_protection_key, sealed_protection)?;
        let fs = ShieldedFs::mount(shield, protection);
        Ok(SconeRuntime { enclave, scf, fs })
    }

    /// Assembles a runtime directly from parts (used by tests and by the
    /// container engine after it has already run provisioning itself).
    #[must_use]
    pub fn from_parts(enclave: Enclave, scf: Scf, fs: ShieldedFs) -> Self {
        SconeRuntime { enclave, scf, fs }
    }

    /// Application arguments from the SCF.
    #[must_use]
    pub fn args(&self) -> &[String] {
        &self.scf.args
    }

    /// Environment variable lookup from the SCF.
    #[must_use]
    pub fn env(&self, key: &str) -> Option<&str> {
        self.scf.env.get(key).map(String::as_str)
    }

    /// The provisioned SCF.
    #[must_use]
    pub fn scf(&self) -> &Scf {
        &self.scf
    }

    /// The enclave hosting this runtime.
    #[must_use]
    pub fn enclave(&self) -> &Enclave {
        &self.enclave
    }

    /// Mutable enclave access (for applications charging their own work).
    pub fn enclave_mut(&mut self) -> &mut Enclave {
        &mut self.enclave
    }

    /// Instruments the runtime: enclave transition/memory counters and the
    /// file-system shield's syscall telemetry all feed `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: &Arc<securecloud_telemetry::Telemetry>) {
        self.enclave.set_telemetry(telemetry);
        self.fs.set_telemetry(telemetry.clone());
    }

    fn ensure_alive(&self) -> Result<(), SconeError> {
        if self.enclave.is_destroyed() {
            return Err(SconeError::Sgx(securecloud_sgx::SgxError::Destroyed));
        }
        Ok(())
    }

    /// Creates a shielded file.
    ///
    /// # Errors
    ///
    /// See [`ShieldedFs::create`]; fails once the enclave is destroyed.
    pub fn create_file(&mut self, path: &str) -> Result<(), SconeError> {
        self.ensure_alive()?;
        self.fs.create(path)
    }

    /// Writes to a shielded file.
    ///
    /// # Errors
    ///
    /// See [`ShieldedFs::write`].
    pub fn write_file(&mut self, path: &str, offset: u64, data: &[u8]) -> Result<(), SconeError> {
        self.ensure_alive()?;
        self.fs.write(self.enclave.memory(), path, offset, data)
    }

    /// Reads from a shielded file.
    ///
    /// # Errors
    ///
    /// See [`ShieldedFs::read`].
    pub fn read_file(
        &mut self,
        path: &str,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, SconeError> {
        self.ensure_alive()?;
        self.fs.read(self.enclave.memory(), path, offset, len)
    }

    /// The shielded file system.
    #[must_use]
    pub fn fs(&self) -> &ShieldedFs {
        &self.fs
    }

    /// Simulated time consumed by this runtime's enclave so far.
    #[must_use]
    pub fn elapsed(&mut self) -> Duration {
        self.enclave.memory().elapsed()
    }

    /// Wraps `transport` as the container's shielded stdout: everything
    /// written is encrypted under the SCF's stdout key, so the log
    /// collector at the other end must hold the same SCF-provisioned key.
    #[must_use]
    pub fn shielded_stdout<T: Transport>(&self, transport: T) -> ShieldedStream<T> {
        ShieldedStream::new(transport, &self.scf.stdio.stdout, StreamRole::Producer)
    }

    /// Wraps `transport` as the container's shielded stdin (consumer side
    /// inside the enclave).
    #[must_use]
    pub fn shielded_stdin<T: Transport>(&self, transport: T) -> ShieldedStream<T> {
        ShieldedStream::new(transport, &self.scf.stdio.stdin, StreamRole::Consumer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fshield::FsProtection;
    use crate::hostos::MemHost;
    use crate::scf::{ConfigService, StdioKeys};
    use securecloud_crypto::channel::memory_pair;
    use securecloud_sgx::attest::AttestationService;
    use securecloud_sgx::enclave::{EnclaveConfig, Platform};
    use std::collections::BTreeMap;
    use std::thread;

    /// Builds a full fixture: image with one shielded file, config service
    /// with the matching SCF, enclave allowed by attestation.
    fn build_world() -> (Platform, Enclave, ConfigService, Arc<MemHost>, Vec<u8>) {
        let platform = Platform::new();
        let enclave = platform
            .launch(EnclaveConfig::new("app", b"app code v1"))
            .unwrap();

        // "Image build": populate the shielded FS in a trusted environment.
        let host = Arc::new(MemHost::new());
        let mut build_mem = securecloud_sgx::mem::MemorySim::native(
            securecloud_sgx::costs::MemoryGeometry::sgx_v1(),
            securecloud_sgx::costs::CostModel::zero(),
        );
        let mut fs = ShieldedFs::mount(Shield::sync(host.clone()), FsProtection::new());
        fs.create("/app/config.toml").unwrap();
        fs.write(&mut build_mem, "/app/config.toml", 0, b"threshold = 5")
            .unwrap();
        let protection = fs.into_protection();
        let fs_key: [u8; 16] = securecloud_crypto::random_array();
        let sealed_protection = protection.seal(&fs_key);

        let scf = Scf {
            args: vec!["--serve".into()],
            env: BTreeMap::from([("MODE".into(), "prod".into())]),
            fs_protection_key: fs_key,
            fs_protection_digest: FsProtection::digest(&sealed_protection),
            stdio: StdioKeys::generate(),
        };
        let mut attestation = AttestationService::new();
        attestation.register_platform(&platform);
        attestation.allow_measurement(enclave.measurement());
        let mut service = ConfigService::new(attestation);
        service.register(enclave.measurement(), scf);
        (platform, enclave, service, host, sealed_protection)
    }

    #[test]
    fn full_bootstrap_flow() {
        let (_platform, enclave, service, host, sealed_protection) = build_world();
        let (client_t, server_t) = memory_pair();
        let service_key = service.public_key();
        let server = thread::spawn(move || service.serve_one(server_t));
        let shield = Shield::sync(host);
        let mut runtime =
            SconeRuntime::bootstrap(enclave, client_t, service_key, shield, &sealed_protection)
                .unwrap();
        server.join().unwrap().unwrap();

        assert_eq!(runtime.args(), ["--serve"]);
        assert_eq!(runtime.env("MODE"), Some("prod"));
        assert_eq!(runtime.env("MISSING"), None);
        // The image's shielded file is readable after provisioning.
        let content = runtime.read_file("/app/config.toml", 0, 64).unwrap();
        assert_eq!(content, b"threshold = 5");
        // And the runtime can persist new shielded state.
        runtime.create_file("/app/state").unwrap();
        runtime.write_file("/app/state", 0, b"counter=1").unwrap();
        assert_eq!(runtime.read_file("/app/state", 0, 9).unwrap(), b"counter=1");
        assert!(runtime.elapsed() > Duration::ZERO);
    }

    #[test]
    fn shielded_stdio_uses_scf_keys() {
        let (_platform, enclave, service, host, sealed_protection) = build_world();
        let (client_t, server_t) = memory_pair();
        let service_key = service.public_key();
        // Keep a copy of the SCF's stdout key via a second registration
        // path: the collector receives the key out of band (it is the image
        // owner). Here we read it back from the provisioned runtime.
        let server = thread::spawn(move || service.serve_one(server_t));
        let shield = Shield::sync(host);
        let runtime =
            SconeRuntime::bootstrap(enclave, client_t, service_key, shield, &sealed_protection)
                .unwrap();
        server.join().unwrap().unwrap();
        let stdout_key = runtime.scf().stdio.stdout;

        let (enclave_side, collector_side) = memory_pair();
        let mut stdout = runtime.shielded_stdout(enclave_side);
        stdout.write(b"audit: processed 42 readings").unwrap();
        // The host sees ciphertext frames only.
        let raw = collector_side.recv_frame().unwrap();
        assert!(!raw.windows(5).any(|w| w == b"audit"));
        // The collector holding the SCF key decrypts.
        let (enclave_side2, collector_side2) = memory_pair();
        let mut stdout2 = runtime.shielded_stdout(enclave_side2);
        stdout2.write(b"line").unwrap();
        let mut collector = crate::stdio::ShieldedStream::new(
            collector_side2,
            &stdout_key,
            crate::stdio::StreamRole::Consumer,
        );
        assert_eq!(collector.read().unwrap(), b"line");
    }

    #[test]
    fn switchless_bootstrap_serves_the_same_files() {
        let (_platform, enclave, service, host, sealed_protection) = build_world();
        let (client_t, server_t) = memory_pair();
        let service_key = service.public_key();
        let server = thread::spawn(move || service.serve_one(server_t));
        let shield = Shield::switchless(host, crate::rings::DEFAULT_RING_DEPTH);
        let mut runtime =
            SconeRuntime::bootstrap(enclave, client_t, service_key, shield, &sealed_protection)
                .unwrap();
        server.join().unwrap().unwrap();
        let telemetry = Arc::new(securecloud_telemetry::Telemetry::new());
        runtime.set_telemetry(&telemetry);
        let content = runtime.read_file("/app/config.toml", 0, 64).unwrap();
        assert_eq!(content, b"threshold = 5");
        runtime.create_file("/app/state").unwrap();
        runtime.write_file("/app/state", 0, b"counter=2").unwrap();
        assert_eq!(runtime.read_file("/app/state", 0, 9).unwrap(), b"counter=2");
        // Every one of those syscalls rode the rings, none the sync hop.
        let opens = |mode| {
            telemetry
                .counter_with(
                    "securecloud_scone_syscalls_total",
                    &[("kind", "open"), ("mode", mode)],
                )
                .value()
        };
        assert_eq!(opens("async"), 3);
        assert_eq!(opens("sync"), 0);
    }

    #[test]
    fn bootstrap_rejects_swapped_protection_file() {
        let (_platform, enclave, service, host, _sealed) = build_world();
        let (client_t, server_t) = memory_pair();
        let service_key = service.public_key();
        let server = thread::spawn(move || service.serve_one(server_t));
        // The host ships a different (attacker-chosen) protection file.
        let forged = FsProtection::new().seal(&[0u8; 16]);
        let err =
            SconeRuntime::bootstrap(enclave, client_t, service_key, Shield::sync(host), &forged);
        assert!(matches!(err, Err(SconeError::Tampered(_))));
        let _ = server.join().unwrap();
    }

    #[test]
    fn bootstrap_fails_for_unattested_enclave() {
        let (platform, _enclave, service, host, sealed_protection) = build_world();
        let rogue = platform
            .launch(EnclaveConfig::new("rogue", b"evil code"))
            .unwrap();
        let (client_t, server_t) = memory_pair();
        let service_key = service.public_key();
        let server = thread::spawn(move || service.serve_one(server_t));
        let shield = Shield::sync(host);
        let err = SconeRuntime::bootstrap(rogue, client_t, service_key, shield, &sealed_protection);
        assert!(err.is_err());
        assert!(server.join().unwrap().is_err());
    }
}
