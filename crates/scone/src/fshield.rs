//! The file-system shield.
//!
//! Per §V-A of the paper, the SCONE client encrypts all files that must be
//! protected and creates an *FS protection file* containing the message
//! authentication codes for file chunks as well as the encryption keys; the
//! protection file is itself encrypted.
//!
//! Files are split into 4 KiB chunks, each sealed with AES-128-GCM under a
//! per-file key. The chunk nonce encodes the chunk index and a write
//! version drawn from the file's write counter, which is spent before the
//! host sees the ciphertext — a write the host fails still uses up its
//! nonce. The resulting tag is recorded in the [`FsProtection`] structure —
//! so the untrusted host can neither tamper with a chunk (tag mismatch) nor
//! roll it back to an older version (recorded tag is the newer one).

use crate::hostos::{Syscall, SyscallRet};
use crate::syscall::Shield;
use crate::SconeError;
use securecloud_crypto::gcm::{AesGcm, NONCE_LEN, TAG_LEN};
use securecloud_crypto::sha256::Sha256;
use securecloud_crypto::wire::Wire;
use securecloud_crypto::{impl_wire_struct, CryptoError};
use securecloud_sgx::mem::MemorySim;
use securecloud_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Plaintext bytes per encrypted chunk.
pub const CHUNK_SIZE: usize = 4096;

/// AEAD cost charged per plaintext byte (software AES in-enclave).
const AEAD_CYCLES_PER_BYTE: u64 = 2;

/// Authenticated metadata for one chunk of a shielded file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Write version: the file's [`FileMeta::writes`] when this chunk was
    /// last stored (rollback defence); 0 marks a never-stored hole.
    pub version: u64,
    /// GCM tag of the current chunk ciphertext.
    pub tag: [u8; TAG_LEN],
}

impl_wire_struct!(ChunkMeta { version, tag });

/// Authenticated metadata for one shielded file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// The file's AES-128 key.
    pub key: [u8; 16],
    /// Logical file length in bytes.
    pub len: u64,
    /// Per-chunk versions and tags.
    pub chunks: Vec<ChunkMeta>,
    /// Chunk writes attempted under `key`, acknowledged by the host or
    /// not: the source of chunk versions, so no nonce is sealed twice.
    pub writes: u64,
}

impl_wire_struct!(FileMeta {
    key,
    len,
    chunks,
    writes
});

/// The FS protection file: keys and MACs for every shielded file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsProtection {
    /// Per-path metadata.
    pub files: BTreeMap<String, FileMeta>,
    /// Monotone generation counter, bumped on every flush.
    pub generation: u64,
}

impl_wire_struct!(FsProtection { files, generation });

impl FsProtection {
    /// Creates an empty protection structure.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Encrypts the protection structure under `key` for storage in the
    /// (untrusted) image.
    #[must_use]
    pub fn seal(&self, key: &[u8; 16]) -> Vec<u8> {
        let nonce: [u8; NONCE_LEN] = securecloud_crypto::random_array();
        let mut out = nonce.to_vec();
        out.extend_from_slice(&AesGcm::new(key).seal(
            &nonce,
            &self.to_wire(),
            b"securecloud fs-protection v1",
        ));
        out
    }

    /// Decrypts a sealed protection structure.
    ///
    /// # Errors
    ///
    /// [`SconeError::Crypto`] on tampering or a wrong key.
    pub fn open_sealed(key: &[u8; 16], sealed: &[u8]) -> Result<Self, SconeError> {
        if sealed.len() < NONCE_LEN {
            return Err(SconeError::Crypto(CryptoError::AuthenticationFailed));
        }
        let (nonce, body) = sealed.split_at(NONCE_LEN);
        let nonce: [u8; NONCE_LEN] = nonce.try_into().expect("split size");
        let plain = AesGcm::new(key)
            .open(&nonce, body, b"securecloud fs-protection v1")
            .map_err(SconeError::Crypto)?;
        FsProtection::from_wire(&plain).map_err(SconeError::Crypto)
    }

    /// Hash of a sealed protection blob, as referenced from the SCF.
    #[must_use]
    pub fn digest(sealed: &[u8]) -> [u8; 32] {
        Sha256::digest(sealed)
    }

    /// Signs (but does not encrypt) the protection structure. Per §V-A of
    /// the paper, an image creator who wants to allow further
    /// customisation "would only sign the FS protection file, but not
    /// encrypt it. This way, the image's integrity is ensured" — the
    /// customiser can read and extend the metadata, then seal the final
    /// result themselves.
    #[must_use]
    pub fn sign(&self, key: &[u8; 32]) -> Vec<u8> {
        let body = self.to_wire();
        let tag = securecloud_crypto::hmac::HmacSha256::mac(key, &body);
        let mut out = body;
        out.extend_from_slice(&tag);
        out
    }

    /// Verifies and decodes a signed (plaintext) protection structure.
    ///
    /// # Errors
    ///
    /// [`SconeError::Tampered`] if the signature does not verify,
    /// [`SconeError::Crypto`] if the body does not decode.
    pub fn open_signed(key: &[u8; 32], signed: &[u8]) -> Result<Self, SconeError> {
        if signed.len() < 32 {
            return Err(SconeError::Tampered(
                "signed protection file too short".into(),
            ));
        }
        let (body, tag) = signed.split_at(signed.len() - 32);
        if !securecloud_crypto::hmac::HmacSha256::verify(key, body, tag) {
            return Err(SconeError::Tampered(
                "protection file signature does not verify".into(),
            ));
        }
        FsProtection::from_wire(body).map_err(SconeError::Crypto)
    }
}

fn chunk_nonce(chunk_index: u32, version: u64) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..4].copy_from_slice(&chunk_index.to_be_bytes());
    nonce[4..].copy_from_slice(&version.to_be_bytes());
    nonce
}

fn chunk_path(path: &str, chunk_index: usize) -> String {
    format!("{path}.c{chunk_index}")
}

fn chunk_aad(path: &str, chunk_index: usize, version: u64) -> Vec<u8> {
    let mut aad = Vec::with_capacity(path.len() + 16);
    aad.extend_from_slice(path.as_bytes());
    aad.extend_from_slice(&(chunk_index as u64).to_be_bytes());
    aad.extend_from_slice(&version.to_be_bytes());
    aad
}

/// A shielded view of the untrusted host file system.
///
/// All I/O flows through the shielded syscall interface; plaintext exists
/// only inside the enclave.
#[derive(Debug)]
pub struct ShieldedFs {
    shield: Shield,
    protection: FsProtection,
}

impl ShieldedFs {
    /// Mounts a shielded FS with existing protection metadata; syscalls
    /// travel over whichever transport `shield` was built with.
    #[must_use]
    pub fn mount(shield: Shield, protection: FsProtection) -> Self {
        ShieldedFs { shield, protection }
    }

    /// The current protection metadata (keys + MACs).
    #[must_use]
    pub fn protection(&self) -> &FsProtection {
        &self.protection
    }

    /// Routes the underlying shield's syscall telemetry into `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.shield.set_telemetry(telemetry);
    }

    /// Consumes the FS, returning the protection metadata for sealing.
    #[must_use]
    pub fn into_protection(mut self) -> FsProtection {
        self.protection.generation += 1;
        self.protection
    }

    /// Whether `path` exists in the shielded namespace.
    #[must_use]
    pub fn exists(&self, path: &str) -> bool {
        self.protection.files.contains_key(path)
    }

    /// Logical length of `path`.
    ///
    /// # Errors
    ///
    /// [`SconeError::NotFound`] if the file does not exist.
    pub fn len(&self, path: &str) -> Result<u64, SconeError> {
        self.protection
            .files
            .get(path)
            .map(|m| m.len)
            .ok_or_else(|| SconeError::NotFound(path.to_string()))
    }

    /// Creates an empty shielded file with a fresh key.
    ///
    /// # Errors
    ///
    /// [`SconeError::AlreadyExists`] if the path is taken.
    pub fn create(&mut self, path: &str) -> Result<(), SconeError> {
        if self.protection.files.contains_key(path) {
            return Err(SconeError::AlreadyExists(path.to_string()));
        }
        self.protection.files.insert(
            path.to_string(),
            FileMeta {
                key: securecloud_crypto::random_array(),
                len: 0,
                chunks: Vec::new(),
                writes: 0,
            },
        );
        Ok(())
    }

    /// Writes `data` at `offset`, extending the file as needed. Affected
    /// chunks are re-encrypted under fresh versions.
    ///
    /// # Errors
    ///
    /// [`SconeError::NotFound`] for unknown paths, [`SconeError::Tampered`]
    /// if an existing chunk fails verification during read-modify-write.
    pub fn write(
        &mut self,
        mem: &mut MemorySim,
        path: &str,
        offset: u64,
        data: &[u8],
    ) -> Result<(), SconeError> {
        if data.is_empty() {
            return Ok(());
        }
        if !self.protection.files.contains_key(path) {
            return Err(SconeError::NotFound(path.to_string()));
        }
        let end = offset + data.len() as u64;
        let first_chunk = (offset as usize) / CHUNK_SIZE;
        let last_chunk = (end as usize - 1) / CHUNK_SIZE;
        for chunk_index in first_chunk..=last_chunk {
            let chunk_start = (chunk_index * CHUNK_SIZE) as u64;
            // Plaintext for this chunk: existing content (if any) merged
            // with the overlapping part of `data`.
            let mut plain = if chunk_index
                < self
                    .protection
                    .files
                    .get(path)
                    .expect("checked above")
                    .chunks
                    .len()
            {
                self.read_chunk(mem, path, chunk_index)?
            } else {
                Vec::new()
            };
            let copy_from = offset.max(chunk_start);
            let copy_to = end.min(chunk_start + CHUNK_SIZE as u64);
            let within = (copy_from - chunk_start) as usize;
            let span = (copy_to - copy_from) as usize;
            if plain.len() < within + span {
                plain.resize(within + span, 0);
            }
            let data_off = (copy_from - offset) as usize;
            plain[within..within + span].copy_from_slice(&data[data_off..data_off + span]);
            self.write_chunk(mem, path, chunk_index, &plain)?;
        }
        let meta = self.protection.files.get_mut(path).expect("checked above");
        meta.len = meta.len.max(end);
        Ok(())
    }

    /// Reads `len` bytes at `offset` (short reads at end of file).
    ///
    /// # Errors
    ///
    /// [`SconeError::NotFound`] for unknown paths; [`SconeError::Tampered`]
    /// if any covering chunk fails authentication or was rolled back.
    pub fn read(
        &mut self,
        mem: &mut MemorySim,
        path: &str,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, SconeError> {
        let meta = self
            .protection
            .files
            .get(path)
            .ok_or_else(|| SconeError::NotFound(path.to_string()))?;
        let end = (offset + len as u64).min(meta.len);
        if offset >= end {
            return Ok(Vec::new());
        }
        let first_chunk = (offset as usize) / CHUNK_SIZE;
        let last_chunk = (end as usize - 1) / CHUNK_SIZE;
        let mut out = Vec::with_capacity((end - offset) as usize);
        for chunk_index in first_chunk..=last_chunk {
            let mut plain = self.read_chunk(mem, path, chunk_index)?;
            let chunk_start = (chunk_index * CHUNK_SIZE) as u64;
            let from = offset.max(chunk_start) - chunk_start;
            let to = (end.min(chunk_start + CHUNK_SIZE as u64) - chunk_start) as usize;
            // A chunk may be stored shorter than the logical span covering
            // it (sparse writes): the authenticated content is what was
            // written, the tail is implicit zeros. Host truncation cannot
            // reach here — it fails the GCM tag in read_chunk.
            if plain.len() < to {
                plain.resize(to, 0);
            }
            out.extend_from_slice(&plain[from as usize..to]);
        }
        Ok(out)
    }

    /// Removes `path` from the namespace and deletes its chunks.
    ///
    /// # Errors
    ///
    /// [`SconeError::NotFound`] if the file does not exist.
    pub fn remove(&mut self, mem: &mut MemorySim, path: &str) -> Result<(), SconeError> {
        let meta = self
            .protection
            .files
            .remove(path)
            .ok_or_else(|| SconeError::NotFound(path.to_string()))?;
        for chunk_index in 0..meta.chunks.len() {
            self.shield.call(
                mem,
                Syscall::Unlink {
                    path: chunk_path(path, chunk_index),
                },
            )?;
        }
        Ok(())
    }

    fn read_chunk(
        &mut self,
        mem: &mut MemorySim,
        path: &str,
        chunk_index: usize,
    ) -> Result<Vec<u8>, SconeError> {
        let meta = self
            .protection
            .files
            .get(path)
            .ok_or_else(|| SconeError::NotFound(path.to_string()))?;
        let key = meta.key;
        let chunk_meta = meta.chunks.get(chunk_index).cloned().ok_or_else(|| {
            SconeError::Tampered(format!("missing chunk metadata {chunk_index} for {path}"))
        })?;
        // A version-0 chunk is a hole from a sparse write: it was never
        // materialised on the host and reads as zeros.
        if chunk_meta.version == 0 {
            return Ok(vec![0u8; CHUNK_SIZE]);
        }
        let host_path = chunk_path(path, chunk_index);
        let fd = self.open_host(mem, &host_path, false)?;
        let sealed = match self.shield.call(
            mem,
            Syscall::Pread {
                fd,
                offset: 0,
                len: CHUNK_SIZE + TAG_LEN,
            },
        )? {
            SyscallRet::Data(d) => d,
            other => {
                return Err(SconeError::HostViolation(format!(
                    "pread answered {other:?}"
                )))
            }
        };
        self.close_host(mem, fd)?;
        if sealed.len() < TAG_LEN {
            return Err(SconeError::Tampered(format!(
                "chunk {chunk_index} of {path} truncated"
            )));
        }
        // Rollback defence: the stored tag must be the one we recorded last.
        let stored_tag = &sealed[sealed.len() - TAG_LEN..];
        if !securecloud_crypto::ct_eq(stored_tag, &chunk_meta.tag) {
            return Err(SconeError::Tampered(format!(
                "chunk {chunk_index} of {path} does not match recorded MAC (tampered or rolled back)"
            )));
        }
        let nonce = chunk_nonce(chunk_index as u32, chunk_meta.version);
        let aad = chunk_aad(path, chunk_index, chunk_meta.version);
        mem.charge_cycles(sealed.len() as u64 * AEAD_CYCLES_PER_BYTE);
        AesGcm::new(&key).open(&nonce, &sealed, &aad).map_err(|_| {
            SconeError::Tampered(format!("chunk {chunk_index} of {path} failed to decrypt"))
        })
    }

    fn write_chunk(
        &mut self,
        mem: &mut MemorySim,
        path: &str,
        chunk_index: usize,
        plain: &[u8],
    ) -> Result<(), SconeError> {
        debug_assert!(plain.len() <= CHUNK_SIZE);
        let meta = self
            .protection
            .files
            .get_mut(path)
            .ok_or_else(|| SconeError::NotFound(path.to_string()))?;
        // Spend the version before the host sees anything sealed under it:
        // the host reads the ciphertext even when it then fails the write,
        // and the retry must not seal other plaintext under the same nonce.
        meta.writes += 1;
        let version = meta.writes;
        let nonce = chunk_nonce(chunk_index as u32, version);
        let aad = chunk_aad(path, chunk_index, version);
        mem.charge_cycles(plain.len() as u64 * AEAD_CYCLES_PER_BYTE);
        let sealed = AesGcm::new(&meta.key).seal(&nonce, plain, &aad);
        let tag: [u8; TAG_LEN] = sealed[sealed.len() - TAG_LEN..]
            .try_into()
            .expect("tag length");

        let host_path = chunk_path(path, chunk_index);
        let fd = self.open_host(mem, &host_path, true)?;
        let sealed_len = sealed.len() as u64;
        let pwrite = Syscall::Pwrite {
            fd,
            offset: 0,
            data: sealed,
        };
        let stored = self.shield.call(mem, pwrite).and_then(|ret| match ret {
            SyscallRet::Done(n) if n == sealed_len => Ok(()),
            other => Err(SconeError::HostViolation(format!(
                "pwrite of {sealed_len} bytes answered {other:?}"
            ))),
        });
        if stored.is_err() {
            // Best effort: a failed write must not leak the host descriptor.
            let _ = self.close_host(mem, fd);
            return stored;
        }
        // The host acknowledged the whole chunk: only now does the chunk's
        // (version, tag) move, so a failed write leaves the previous pair
        // over the previous host bytes.
        let chunks = &mut self
            .protection
            .files
            .get_mut(path)
            .expect("looked up above")
            .chunks;
        while chunks.len() <= chunk_index {
            chunks.push(ChunkMeta {
                version: 0,
                tag: [0u8; TAG_LEN],
            });
        }
        chunks[chunk_index] = ChunkMeta { version, tag };
        // Shrink the host file if the chunk got shorter; close either way.
        let shrink = Syscall::Ftruncate {
            fd,
            len: sealed_len,
        };
        let shrunk = self.shield.call(mem, shrink);
        shrunk.and(self.close_host(mem, fd))
    }

    fn open_host(
        &mut self,
        mem: &mut MemorySim,
        path: &str,
        create: bool,
    ) -> Result<u64, SconeError> {
        match self.shield.call(
            mem,
            Syscall::Open {
                path: path.to_string(),
                create,
            },
        )? {
            SyscallRet::Fd(fd) => Ok(fd),
            SyscallRet::Error(e) => Err(SconeError::Tampered(format!(
                "host lost shielded file {path}: {e}"
            ))),
            other => Err(SconeError::HostViolation(format!(
                "open answered {other:?}"
            ))),
        }
    }

    fn close_host(&mut self, mem: &mut MemorySim, fd: u64) -> Result<(), SconeError> {
        self.shield.call(mem, Syscall::Close { fd })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostos::{HostOs, MemHost};
    use securecloud_sgx::costs::{CostModel, MemoryGeometry};
    use std::sync::atomic::{AtomicI64, Ordering::Relaxed};
    use std::sync::{Arc, Mutex};

    fn setup() -> (Arc<MemHost>, ShieldedFs, MemorySim) {
        let host = Arc::new(MemHost::new());
        let fs = ShieldedFs::mount(Shield::sync(host.clone()), FsProtection::new());
        let mem = MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::zero());
        (host, fs, mem)
    }

    #[test]
    fn write_read_roundtrip() {
        let (_host, mut fs, mut mem) = setup();
        fs.create("/secrets.db").unwrap();
        fs.write(&mut mem, "/secrets.db", 0, b"hello shielded world")
            .unwrap();
        assert_eq!(
            fs.read(&mut mem, "/secrets.db", 0, 100).unwrap(),
            b"hello shielded world"
        );
        assert_eq!(fs.read(&mut mem, "/secrets.db", 6, 8).unwrap(), b"shielded");
        assert_eq!(fs.len("/secrets.db").unwrap(), 20);
    }

    #[test]
    fn switchless_mount_matches_sync_byte_for_byte() {
        let run = |switchless: bool| {
            let host = Arc::new(MemHost::new());
            let shield = if switchless {
                Shield::switchless(host.clone(), 8)
            } else {
                Shield::sync(host.clone())
            };
            let mut fs = ShieldedFs::mount(shield, FsProtection::new());
            let mut mem = MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::zero());
            fs.create("/db").unwrap();
            let data: Vec<u8> = (0..2 * CHUNK_SIZE + 77).map(|i| (i % 241) as u8).collect();
            fs.write(&mut mem, "/db", 0, &data).unwrap();
            fs.write(&mut mem, "/db", 100, b"overwrite").unwrap();
            let read = fs.read(&mut mem, "/db", 0, data.len()).unwrap();
            let mut files: Vec<(String, Vec<u8>)> = host
                .paths()
                .into_iter()
                .map(|p| {
                    let raw = host.raw_file(&p).unwrap();
                    (p, raw)
                })
                .collect();
            files.sort();
            (read, files, fs.into_protection())
        };
        let sync = run(false);
        let switchless = run(true);
        assert_eq!(sync.0, switchless.0, "reads must agree");
        assert_eq!(
            sync.2.files.keys().collect::<Vec<_>>(),
            switchless.2.files.keys().collect::<Vec<_>>()
        );
        // Same chunk layout on the host (ciphertext differs only if keys
        // or versions diverged — they must not).
        assert_eq!(
            sync.1
                .iter()
                .map(|(p, d)| (p.clone(), d.len()))
                .collect::<Vec<_>>(),
            switchless
                .1
                .iter()
                .map(|(p, d)| (p.clone(), d.len()))
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn multi_chunk_files() {
        let (_host, mut fs, mut mem) = setup();
        fs.create("/big").unwrap();
        let data: Vec<u8> = (0..3 * CHUNK_SIZE + 100).map(|i| (i % 251) as u8).collect();
        fs.write(&mut mem, "/big", 0, &data).unwrap();
        assert_eq!(fs.read(&mut mem, "/big", 0, data.len()).unwrap(), data);
        // Read spanning a chunk boundary.
        let cross = fs
            .read(&mut mem, "/big", CHUNK_SIZE as u64 - 10, 20)
            .unwrap();
        assert_eq!(cross, data[CHUNK_SIZE - 10..CHUNK_SIZE + 10]);
    }

    #[test]
    fn overwrite_within_chunk() {
        let (_host, mut fs, mut mem) = setup();
        fs.create("/f").unwrap();
        fs.write(&mut mem, "/f", 0, b"aaaaaaaaaa").unwrap();
        fs.write(&mut mem, "/f", 3, b"BBB").unwrap();
        assert_eq!(fs.read(&mut mem, "/f", 0, 10).unwrap(), b"aaaBBBaaaa");
    }

    #[test]
    fn host_sees_only_ciphertext() {
        let (host, mut fs, mut mem) = setup();
        fs.create("/plain").unwrap();
        fs.write(&mut mem, "/plain", 0, b"super secret content")
            .unwrap();
        for path in host.paths() {
            let raw = host.raw_file(&path).unwrap();
            assert!(
                !raw.windows(6).any(|w| w == b"secret"),
                "plaintext leaked into host file {path}"
            );
        }
    }

    #[test]
    fn corruption_detected() {
        let (host, mut fs, mut mem) = setup();
        fs.create("/f").unwrap();
        fs.write(&mut mem, "/f", 0, b"data to protect").unwrap();
        host.corrupt_file("/f.c0", 3);
        assert!(matches!(
            fs.read(&mut mem, "/f", 0, 10),
            Err(SconeError::Tampered(_))
        ));
    }

    #[test]
    fn rollback_detected() {
        let (host, mut fs, mut mem) = setup();
        fs.create("/f").unwrap();
        fs.write(&mut mem, "/f", 0, b"version 1").unwrap();
        host.snapshot_file("/f.c0");
        fs.write(&mut mem, "/f", 0, b"version 2").unwrap();
        host.rollback_file("/f.c0");
        assert!(matches!(
            fs.read(&mut mem, "/f", 0, 9),
            Err(SconeError::Tampered(_))
        ));
    }

    #[test]
    fn deleted_host_chunk_detected() {
        let (host, mut fs, mut mem) = setup();
        fs.create("/f").unwrap();
        fs.write(&mut mem, "/f", 0, b"payload").unwrap();
        host.execute(&Syscall::Unlink {
            path: "/f.c0".into(),
        });
        assert!(matches!(
            fs.read(&mut mem, "/f", 0, 7),
            Err(SconeError::Tampered(_))
        ));
    }

    #[test]
    fn failed_chunk_write_leaves_the_file_readable_and_retryable() {
        use crate::hostos::FaultyHost;
        use securecloud_faults::{FaultInjector, FaultKind, FaultPlan};
        let plan = FaultPlan::new().at(1, FaultKind::SyscallFail { count: 1 });
        let injector = Arc::new(FaultInjector::with_plan(7, plan));
        let host = Arc::new(FaultyHost::new(MemHost::new(), Arc::clone(&injector)));
        let mut fs = ShieldedFs::mount(Shield::sync(host), FsProtection::new());
        let mut mem = MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::zero());
        fs.create("/g").unwrap();
        fs.write(&mut mem, "/g", 0, b"near").unwrap();
        // The host fails the open of the far chunk: nothing was stored, so
        // the metadata must not claim a version the host never saw.
        injector.advance_to(1);
        assert!(fs.write(&mut mem, "/g", 1 << 20, b"far").is_err());
        assert_eq!(fs.read(&mut mem, "/g", 0, 4).unwrap(), b"near");
        // The host is healthy again: the same write goes through.
        fs.write(&mut mem, "/g", 1 << 20, b"far").unwrap();
        assert_eq!(fs.read(&mut mem, "/g", 1 << 20, 3).unwrap(), b"far");
        assert_eq!(fs.read(&mut mem, "/g", 0, 4).unwrap(), b"near");
    }

    /// A host that logs every sealed chunk it is handed and, when armed,
    /// answers the next pwrite with `armed`'s value instead of storing it.
    struct FlakyWrites {
        inner: MemHost,
        armed: Mutex<Option<SyscallRet>>,
        seen: Mutex<Vec<Vec<u8>>>,
        open_fds: AtomicI64,
    }

    impl HostOs for FlakyWrites {
        fn execute(&self, call: &Syscall) -> SyscallRet {
            if let Syscall::Pwrite { data, .. } = call {
                self.seen.lock().unwrap().push(data.clone());
                if let Some(answer) = self.armed.lock().unwrap().take() {
                    return answer;
                }
            }
            let ret = self.inner.execute(call);
            match (call, &ret) {
                (Syscall::Open { .. }, SyscallRet::Fd(_)) => self.open_fds.fetch_add(1, Relaxed),
                (Syscall::Close { .. }, SyscallRet::Done(_)) => self.open_fds.fetch_sub(1, Relaxed),
                _ => 0,
            };
            ret
        }
    }

    fn flaky_setup() -> (Arc<FlakyWrites>, ShieldedFs, MemorySim) {
        let host = Arc::new(FlakyWrites {
            inner: MemHost::new(),
            armed: Mutex::new(None),
            seen: Mutex::new(Vec::new()),
            open_fds: AtomicI64::new(0),
        });
        let fs = ShieldedFs::mount(Shield::sync(host.clone()), FsProtection::new());
        let mem = MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::zero());
        (host, fs, mem)
    }

    #[test]
    fn short_pwrite_ack_is_a_failed_write() {
        let (host, mut fs, mut mem) = flaky_setup();
        fs.create("/f").unwrap();
        fs.write(&mut mem, "/f", 0, b"version 1").unwrap();
        // One byte less than the sealed chunk (9 B + tag) was acknowledged.
        *host.armed.lock().unwrap() = Some(SyscallRet::Done(9 + TAG_LEN as u64 - 1));
        assert!(matches!(
            fs.write(&mut mem, "/f", 0, b"version 2"),
            Err(SconeError::HostViolation(_))
        ));
        // The short write never counted: version 1 is still what the
        // metadata vouches for, and the retry lands.
        assert_eq!(fs.read(&mut mem, "/f", 0, 9).unwrap(), b"version 1");
        fs.write(&mut mem, "/f", 0, b"version 2").unwrap();
        assert_eq!(fs.read(&mut mem, "/f", 0, 9).unwrap(), b"version 2");
        assert_eq!(host.open_fds.load(Relaxed), 0, "failed write leaked a fd");
    }

    #[test]
    fn failed_write_spends_its_nonce() {
        // The host reads the sealed bytes of a write it then fails. The
        // retry carries different plaintext: sealed under the same nonce
        // the two ciphertexts would XOR to the XOR of the plaintexts.
        let (host, mut fs, mut mem) = flaky_setup();
        fs.create("/f").unwrap();
        fs.write(&mut mem, "/f", 0, b"version 1").unwrap();
        *host.armed.lock().unwrap() = Some(SyscallRet::Error("disk full".into()));
        assert!(fs.write(&mut mem, "/f", 0, b"attempt A").is_err());
        assert_eq!(fs.read(&mut mem, "/f", 0, 9).unwrap(), b"version 1");
        fs.write(&mut mem, "/f", 0, b"attempt B").unwrap();
        assert_eq!(fs.read(&mut mem, "/f", 0, 9).unwrap(), b"attempt B");

        let seen = host.seen.lock().unwrap();
        let xor = |a: &[u8], b: &[u8]| -> Vec<u8> { a.iter().zip(b).map(|(x, y)| x ^ y).collect() };
        assert_eq!(seen.len(), 3);
        assert_ne!(
            xor(&seen[1][..9], &seen[2][..9]),
            xor(b"attempt A", b"attempt B"),
            "keystream reused across a failed write and its retry"
        );
        // Versions 1 (stored), 2 (spent on the failed write), 3 (retry).
        let meta = &fs.protection().files["/f"];
        assert_eq!((meta.writes, meta.chunks[0].version), (3, 3));
        assert_eq!(host.open_fds.load(Relaxed), 0, "failed write leaked a fd");
    }

    #[test]
    fn protection_seal_roundtrip() {
        let (_host, mut fs, mut mem) = setup();
        fs.create("/a").unwrap();
        fs.write(&mut mem, "/a", 0, b"x").unwrap();
        let protection = fs.into_protection();
        let key: [u8; 16] = securecloud_crypto::random_array();
        let sealed = protection.seal(&key);
        let reopened = FsProtection::open_sealed(&key, &sealed).unwrap();
        assert_eq!(reopened, protection);
        // Wrong key fails.
        let wrong: [u8; 16] = securecloud_crypto::random_array();
        assert!(FsProtection::open_sealed(&wrong, &sealed).is_err());
        // Tampered blob fails.
        let mut bad = sealed.clone();
        bad[20] ^= 1;
        assert!(FsProtection::open_sealed(&key, &bad).is_err());
    }

    #[test]
    fn signed_protection_supports_customisation() {
        // Base image creator signs (integrity only, readable metadata).
        let (host, mut fs, mut mem) = setup();
        fs.create("/base/app").unwrap();
        fs.write(&mut mem, "/base/app", 0, b"base layer").unwrap();
        let base_protection = fs.into_protection();
        let signing_key: [u8; 32] = securecloud_crypto::random_array();
        let signed = base_protection.sign(&signing_key);

        // The customiser verifies integrity, reads the metadata, and adds
        // their own protected file on top.
        let reopened = FsProtection::open_signed(&signing_key, &signed).unwrap();
        assert_eq!(reopened, base_protection);
        let mut fs2 = ShieldedFs::mount(Shield::sync(host), reopened);
        fs2.create("/custom/extra").unwrap();
        fs2.write(&mut mem, "/custom/extra", 0, b"customised")
            .unwrap();
        // Base content still reads through the customised mount.
        assert_eq!(
            fs2.read(&mut mem, "/base/app", 0, 10).unwrap(),
            b"base layer"
        );
        // The customiser seals the final protection file themselves.
        let final_key: [u8; 16] = securecloud_crypto::random_array();
        let sealed = fs2.into_protection().seal(&final_key);
        assert!(FsProtection::open_sealed(&final_key, &sealed).is_ok());

        // Tampering with the signed blob is caught.
        let mut bad = signed.clone();
        bad[3] ^= 1;
        assert!(matches!(
            FsProtection::open_signed(&signing_key, &bad),
            Err(SconeError::Tampered(_))
        ));
        // Wrong key is caught.
        let wrong: [u8; 32] = securecloud_crypto::random_array();
        assert!(FsProtection::open_signed(&wrong, &signed).is_err());
        assert!(FsProtection::open_signed(&signing_key, &signed[..16]).is_err());
    }

    #[test]
    fn remount_with_protection_reads_existing_data() {
        let (host, mut fs, mut mem) = setup();
        fs.create("/persist").unwrap();
        fs.write(&mut mem, "/persist", 0, b"durable bytes").unwrap();
        let protection = fs.into_protection();
        // A new enclave instance mounts the same host state.
        let mut fs2 = ShieldedFs::mount(Shield::sync(host), protection);
        assert_eq!(
            fs2.read(&mut mem, "/persist", 0, 13).unwrap(),
            b"durable bytes"
        );
    }

    #[test]
    fn create_duplicate_and_missing_ops() {
        let (_host, mut fs, mut mem) = setup();
        fs.create("/f").unwrap();
        assert!(matches!(fs.create("/f"), Err(SconeError::AlreadyExists(_))));
        assert!(matches!(
            fs.read(&mut mem, "/missing", 0, 1),
            Err(SconeError::NotFound(_))
        ));
        assert!(matches!(
            fs.write(&mut mem, "/missing", 0, b"x"),
            Err(SconeError::NotFound(_))
        ));
        assert!(matches!(
            fs.remove(&mut mem, "/missing"),
            Err(SconeError::NotFound(_))
        ));
    }

    #[test]
    fn remove_deletes_chunks() {
        let (host, mut fs, mut mem) = setup();
        fs.create("/f").unwrap();
        fs.write(&mut mem, "/f", 0, &vec![1u8; CHUNK_SIZE * 2])
            .unwrap();
        assert_eq!(host.paths().len(), 2);
        fs.remove(&mut mem, "/f").unwrap();
        assert!(host.paths().is_empty());
        assert!(!fs.exists("/f"));
    }

    #[test]
    fn sparse_write_beyond_end() {
        let (_host, mut fs, mut mem) = setup();
        fs.create("/sparse").unwrap();
        fs.write(&mut mem, "/sparse", 10, b"tail").unwrap();
        let out = fs.read(&mut mem, "/sparse", 0, 14).unwrap();
        assert_eq!(&out[..10], &[0u8; 10]);
        assert_eq!(&out[10..], b"tail");
    }
}
