//! The SCONE client: secure image build pipeline (paper Figure 2).
//!
//! The image creator works in a *trusted environment* and:
//!
//! 1. statically links the micro-service against the SCONE library, so the
//!    enclave measurement covers all code,
//! 2. encrypts every file that must be protected, producing ciphertext
//!    chunks and the *FS protection file* (keys + MACs),
//! 3. seals the protection file and adds it to the image,
//! 4. emits the SCF (protection key, protection-file digest, stdio keys,
//!    arguments, environment) to be registered with the configuration
//!    service — the SCF is **not** part of the image.

use crate::image::{Image, Layer};
use crate::ContainerError;
use securecloud_scone::fshield::{FsProtection, ShieldedFs};
use securecloud_scone::hostos::MemHost;
use securecloud_scone::scf::{Scf, StdioKeys};
use securecloud_scone::syscall::Shield;
use securecloud_sgx::costs::{CostModel, MemoryGeometry};
use securecloud_sgx::enclave::Measurement;
use securecloud_sgx::mem::MemorySim;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Path of the sealed FS protection file inside every secure image.
pub const PROTECTION_PATH: &str = "/scone/fs.protection";

/// Marker bytes standing in for the statically linked SCONE runtime
/// library; linking them into the entrypoint makes the runtime part of the
/// enclave measurement.
pub const SCONE_LIB: &[u8] = b"\x7fSCONE-STATIC-RUNTIME-v1\x7f";

/// The output of a secure image build.
#[derive(Debug, Clone)]
pub struct BuiltImage {
    /// The publishable image (safe to push to an untrusted registry).
    pub image: Image,
    /// The startup configuration file, to be registered with the
    /// configuration service. Contains key material — never published.
    pub scf: Scf,
    /// The enclave measurement the config service should expect.
    pub measurement: Measurement,
}

/// Builder for secure images.
///
/// ```
/// use securecloud_containers::build::SecureImageBuilder;
///
/// let built = SecureImageBuilder::new("meter-svc", "v1", b"compiled service")
///     .protect_file("/data/keys.db", b"sensitive")
///     .plain_file("/etc/banner", b"public")
///     .arg("--serve")
///     .env("MODE", "prod")
///     .build()
///     .unwrap();
/// assert!(built.image.secure);
/// ```
#[derive(Debug, Clone)]
pub struct SecureImageBuilder {
    name: String,
    tag: String,
    binary: Vec<u8>,
    protected: BTreeMap<String, Vec<u8>>,
    plain: BTreeMap<String, Vec<u8>>,
    args: Vec<String>,
    env: BTreeMap<String, String>,
    base: Option<(Image, FsProtection)>,
}

impl SecureImageBuilder {
    /// Starts a build for `name:tag` from the micro-service binary.
    #[must_use]
    pub fn new(name: &str, tag: &str, binary: &[u8]) -> Self {
        SecureImageBuilder {
            name: name.to_string(),
            tag: tag.to_string(),
            binary: binary.to_vec(),
            protected: BTreeMap::new(),
            plain: BTreeMap::new(),
            args: Vec::new(),
            env: BTreeMap::new(),
            base: None,
        }
    }

    /// Starts a *customisation* build on top of a published base image
    /// whose protection file was **signed** (not sealed) by its creator —
    /// the workflow of paper §V-A: "end-users can customize this image by
    /// adding additional file system layers", with the base's integrity
    /// verified and final confidentiality established when the customiser
    /// finishes the build.
    ///
    /// # Errors
    ///
    /// [`ContainerError::Build`] if the signed protection file does not
    /// verify against `signing_key`.
    pub fn customise(
        name: &str,
        tag: &str,
        base: &Image,
        signing_key: &[u8; 32],
    ) -> Result<Self, ContainerError> {
        let signed_protection = base
            .flatten()
            .remove(PROTECTION_PATH)
            .ok_or_else(|| ContainerError::Build("base image lacks a protection file".into()))?;
        let protection = FsProtection::open_signed(signing_key, &signed_protection)
            .map_err(|e| ContainerError::Build(format!("base image rejected: {e}")))?;
        Ok(SecureImageBuilder {
            name: name.to_string(),
            tag: tag.to_string(),
            binary: base.entrypoint.clone(),
            protected: BTreeMap::new(),
            plain: BTreeMap::new(),
            args: Vec::new(),
            env: BTreeMap::new(),
            base: Some((base.clone(), protection)),
        })
    }

    /// Adds a file that must be confidentiality- and integrity-protected.
    #[must_use]
    pub fn protect_file(mut self, path: &str, content: &[u8]) -> Self {
        self.protected.insert(path.to_string(), content.to_vec());
        self
    }

    /// Adds a public file stored in plaintext.
    #[must_use]
    pub fn plain_file(mut self, path: &str, content: &[u8]) -> Self {
        self.plain.insert(path.to_string(), content.to_vec());
        self
    }

    /// Appends an application argument to the SCF.
    #[must_use]
    pub fn arg(mut self, arg: &str) -> Self {
        self.args.push(arg.to_string());
        self
    }

    /// Sets an environment variable in the SCF.
    #[must_use]
    pub fn env(mut self, key: &str, value: &str) -> Self {
        self.env.insert(key.to_string(), value.to_string());
        self
    }

    /// Builds a *customisable base image*: the protection file is signed
    /// with `signing_key` but left unencrypted, so a downstream customiser
    /// (holding the key) can verify it and extend the image via
    /// [`SecureImageBuilder::customise`]. Per §V-A, "confidentiality can
    /// then only be assured after finishing the customization process" —
    /// a base image is not directly runnable (it has no SCF).
    ///
    /// # Errors
    ///
    /// Same as [`SecureImageBuilder::build`].
    pub fn build_customisable(self, signing_key: &[u8; 32]) -> Result<Image, ContainerError> {
        let signing_key = *signing_key;
        let built = self.build_inner(Some(signing_key))?;
        Ok(built.image)
    }

    /// Runs the build pipeline.
    ///
    /// # Errors
    ///
    /// [`ContainerError::Build`] if the binary is empty or a protected path
    /// collides with a plain path.
    pub fn build(self) -> Result<BuiltImage, ContainerError> {
        self.build_inner(None)
    }

    fn build_inner(self, sign_instead: Option<[u8; 32]>) -> Result<BuiltImage, ContainerError> {
        if self.binary.is_empty() {
            return Err(ContainerError::Build("empty service binary".into()));
        }
        if let Some(path) = self.protected.keys().find(|p| self.plain.contains_key(*p)) {
            return Err(ContainerError::Build(format!(
                "{path} is both protected and plain"
            )));
        }

        // Step 1: static link → measured entrypoint. A customised image
        // keeps the base entrypoint (already linked and measured).
        let mut entrypoint = self.binary.clone();
        if self.base.is_none() {
            entrypoint.extend_from_slice(SCONE_LIB);
        }
        let measurement = Measurement::of_code(&entrypoint);

        // Step 2: encrypt protected files through the FS shield against a
        // staging host; the resulting host files are the ciphertext layer.
        // A customisation build starts from the base image's ciphertext
        // chunks and verified protection metadata.
        let staging = Arc::new(MemHost::new());
        let mut build_mem = MemorySim::native(MemoryGeometry::sgx_v1(), CostModel::zero());
        let initial_protection = match &self.base {
            Some((base_image, base_protection)) => {
                use securecloud_scone::hostos::{HostOs, Syscall};
                for (path, content) in base_image.flatten() {
                    if path == PROTECTION_PATH {
                        continue;
                    }
                    if let securecloud_scone::hostos::SyscallRet::Fd(fd) =
                        staging.execute(&Syscall::Open {
                            path: path.clone(),
                            create: true,
                        })
                    {
                        staging.execute(&Syscall::Pwrite {
                            fd,
                            offset: 0,
                            data: content,
                        });
                        staging.execute(&Syscall::Close { fd });
                    }
                }
                base_protection.clone()
            }
            None => FsProtection::new(),
        };
        let mut fs = ShieldedFs::mount(Shield::sync(staging.clone()), initial_protection);
        for (path, content) in &self.protected {
            fs.create(path)
                .map_err(|e| ContainerError::Build(e.to_string()))?;
            fs.write(&mut build_mem, path, 0, content)
                .map_err(|e| ContainerError::Build(e.to_string()))?;
        }
        let protection = fs.into_protection();

        // Step 3: seal the protection file with a fresh key — or, for a
        // customisable base, sign it in plaintext.
        let fs_protection_key: [u8; 16] = securecloud_crypto::random_array();
        let sealed_protection = match &sign_instead {
            Some(signing_key) => protection.sign(signing_key),
            None => protection.seal(&fs_protection_key),
        };
        let fs_protection_digest = FsProtection::digest(&sealed_protection);

        // Assemble layers: plain files, then ciphertext chunks + the sealed
        // protection file.
        let mut plain_layer = Layer::new();
        for (path, content) in &self.plain {
            plain_layer = plain_layer.with_file(path, content);
        }
        let mut cipher_layer = Layer::new();
        for path in staging.paths() {
            let bytes = staging.raw_file(&path).expect("listed path exists");
            cipher_layer = cipher_layer.with_file(&path, &bytes);
        }
        cipher_layer = cipher_layer.with_file(PROTECTION_PATH, &sealed_protection);

        let mut image = Image::new(&self.name, &self.tag, &entrypoint)
            .with_layer(plain_layer)
            .with_layer(cipher_layer);
        image.secure = true;

        // Step 4: the SCF for the configuration service.
        let scf = Scf {
            args: self.args,
            env: self.env,
            fs_protection_key,
            fs_protection_digest,
            stdio: StdioKeys::generate(),
        };

        Ok(BuiltImage {
            image,
            scf,
            measurement,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BuiltImage {
        SecureImageBuilder::new("svc", "v1", b"service binary")
            .protect_file("/data/secrets", b"api-key=abcd")
            .protect_file("/data/model.bin", &vec![42u8; 10_000])
            .plain_file("/etc/readme", b"public docs")
            .arg("--threads=4")
            .env("LOG", "info")
            .build()
            .unwrap()
    }

    #[test]
    fn secure_image_has_no_plaintext_secrets() {
        let built = sample();
        for (path, content) in built.image.flatten() {
            if path == "/etc/readme" {
                continue;
            }
            assert!(
                !content.windows(7).any(|w| w == b"api-key"),
                "secret leaked into {path}"
            );
        }
    }

    #[test]
    fn image_contains_protection_file_and_chunks() {
        let built = sample();
        let fs = built.image.flatten();
        assert!(fs.contains_key(PROTECTION_PATH));
        assert!(fs.keys().any(|p| p.starts_with("/data/secrets.c")));
        assert!(fs.keys().any(|p| p.starts_with("/data/model.bin.c")));
        assert_eq!(fs.get("/etc/readme").unwrap(), b"public docs");
        assert!(built.image.secure);
    }

    #[test]
    fn measurement_covers_binary_and_runtime() {
        let a = SecureImageBuilder::new("s", "t", b"bin v1")
            .build()
            .unwrap();
        let b = SecureImageBuilder::new("s", "t", b"bin v1")
            .build()
            .unwrap();
        let c = SecureImageBuilder::new("s", "t", b"bin v2")
            .build()
            .unwrap();
        assert_eq!(a.measurement, b.measurement);
        assert_ne!(a.measurement, c.measurement);
        let mut linked = b"bin v1".to_vec();
        linked.extend_from_slice(SCONE_LIB);
        assert_eq!(a.measurement, Measurement::of_code(&linked));
    }

    #[test]
    fn scf_pins_protection_file() {
        let built = sample();
        let sealed = built.image.flatten().remove(PROTECTION_PATH).unwrap();
        assert_eq!(
            FsProtection::digest(&sealed),
            built.scf.fs_protection_digest
        );
        // The SCF key opens it.
        let protection = FsProtection::open_sealed(&built.scf.fs_protection_key, &sealed).unwrap();
        assert_eq!(protection.files.len(), 2);
        assert_eq!(built.scf.args, ["--threads=4"]);
        assert_eq!(built.scf.env.get("LOG").map(String::as_str), Some("info"));
    }

    #[test]
    fn build_validation() {
        assert!(matches!(
            SecureImageBuilder::new("s", "t", b"").build(),
            Err(ContainerError::Build(_))
        ));
        assert!(matches!(
            SecureImageBuilder::new("s", "t", b"bin")
                .protect_file("/f", b"x")
                .plain_file("/f", b"y")
                .build(),
            Err(ContainerError::Build(_))
        ));
    }

    #[test]
    fn builds_are_freshly_keyed() {
        let a = SecureImageBuilder::new("s", "t", b"bin")
            .protect_file("/f", b"same content")
            .build()
            .unwrap();
        let b = SecureImageBuilder::new("s", "t", b"bin")
            .protect_file("/f", b"same content")
            .build()
            .unwrap();
        assert_ne!(a.scf.fs_protection_key, b.scf.fs_protection_key);
        // Fresh keys → different ciphertext → different image ids.
        assert_ne!(a.image.id(), b.image.id());
    }
}

#[cfg(test)]
mod customisation_tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn base_then_customise_then_run() {
        // The base creator publishes a customisable image: signed (not
        // sealed) protection file.
        let signing_key: [u8; 32] = securecloud_crypto::random_array();
        let base = SecureImageBuilder::new("analytics-base", "v1", b"base binary")
            .protect_file("/model/base-weights", &vec![3u8; 5_000])
            .plain_file("/docs/README", b"extend me")
            .build_customisable(&signing_key)
            .unwrap();
        // The registry (untrusted) carries it.
        let registry = Registry::new();
        let base_id = registry.push(base.clone());
        let pulled = registry.pull(base_id).unwrap();

        // A customer verifies and extends it with their own secrets.
        let built = SecureImageBuilder::customise("analytics-acme", "v1", &pulled, &signing_key)
            .unwrap()
            .protect_file("/customer/api-key", b"acme-secret")
            .arg("--tenant=acme")
            .build()
            .unwrap();
        // The customised image keeps the base measurement (same code).
        assert_eq!(built.measurement, Measurement::of_code(&pulled.entrypoint));

        // It runs end to end and serves both base and customer files.
        let platform = securecloud_sgx::enclave::Platform::new();
        let mut attestation = securecloud_sgx::attest::AttestationService::new();
        attestation.register_platform(&platform);
        let config_service = std::sync::Arc::new(parking_lot::RwLock::new(
            securecloud_scone::scf::ConfigService::new(attestation),
        ));
        let mut engine = crate::engine::Engine::new(
            std::sync::Arc::new(Registry::new()),
            platform,
            config_service,
        );
        let image_id = engine.deploy(built);
        let container = engine.run(image_id).unwrap();
        let runtime = engine
            .container_mut(container)
            .unwrap()
            .runtime_mut()
            .unwrap();
        assert_eq!(
            runtime.read_file("/model/base-weights", 0, 5_000).unwrap(),
            vec![3u8; 5_000]
        );
        assert_eq!(
            runtime.read_file("/customer/api-key", 0, 64).unwrap(),
            b"acme-secret"
        );
        assert_eq!(runtime.args(), ["--tenant=acme"]);
    }

    #[test]
    fn customise_rejects_tampered_base() {
        let signing_key: [u8; 32] = securecloud_crypto::random_array();
        let base = SecureImageBuilder::new("base", "v1", b"bin")
            .protect_file("/f", b"x")
            .build_customisable(&signing_key)
            .unwrap();
        // The registry swaps the protection file.
        let mut evil = base.clone();
        evil.layers
            .push(Layer::new().with_file(PROTECTION_PATH, b"forged"));
        assert!(matches!(
            SecureImageBuilder::customise("c", "v1", &evil, &signing_key),
            Err(ContainerError::Build(_))
        ));
        // The wrong key is rejected too.
        let wrong: [u8; 32] = securecloud_crypto::random_array();
        assert!(SecureImageBuilder::customise("c", "v1", &base, &wrong).is_err());
        // Missing protection file.
        let bare = Image::new("bare", "v1", b"bin");
        assert!(SecureImageBuilder::customise("c", "v1", &bare, &signing_key).is_err());
    }
}
