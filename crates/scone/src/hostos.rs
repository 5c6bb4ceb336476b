//! The untrusted host operating system.
//!
//! Everything in this module lives *outside* the enclave trust boundary: it
//! sees only ciphertext for shielded files and can misbehave arbitrarily.
//! Tests use the adversarial hooks ([`MemHost::corrupt_file`],
//! [`MemHost::rollback_file`]) to verify that the shields detect tampering.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A system call request crossing the enclave boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Syscall {
    /// Opens `path`, creating it if `create` is set; returns a descriptor.
    Open {
        /// Host path.
        path: String,
        /// Create the file if missing.
        create: bool,
    },
    /// Reads up to `len` bytes from `fd` at `offset`.
    Pread {
        /// Descriptor from [`Syscall::Open`].
        fd: u64,
        /// Byte offset.
        offset: u64,
        /// Maximum bytes to return.
        len: usize,
    },
    /// Writes `data` to `fd` at `offset`.
    Pwrite {
        /// Descriptor from [`Syscall::Open`].
        fd: u64,
        /// Byte offset.
        offset: u64,
        /// Bytes to write.
        data: Vec<u8>,
    },
    /// Truncates `fd` to `len` bytes.
    Ftruncate {
        /// Descriptor from [`Syscall::Open`].
        fd: u64,
        /// New length.
        len: u64,
    },
    /// Closes `fd`.
    Close {
        /// Descriptor to close.
        fd: u64,
    },
    /// Removes `path`.
    Unlink {
        /// Host path.
        path: String,
    },
    /// Returns the length of `fd`'s file.
    Fstat {
        /// Descriptor from [`Syscall::Open`].
        fd: u64,
    },
}

impl Syscall {
    /// The syscall's kind name, used as a telemetry label
    /// (`securecloud_scone_syscall_cycles{kind="pread",...}`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Syscall::Open { .. } => "open",
            Syscall::Pread { .. } => "pread",
            Syscall::Pwrite { .. } => "pwrite",
            Syscall::Ftruncate { .. } => "ftruncate",
            Syscall::Close { .. } => "close",
            Syscall::Unlink { .. } => "unlink",
            Syscall::Fstat { .. } => "fstat",
        }
    }
}

/// Result of a host system call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyscallRet {
    /// Open succeeded with a descriptor.
    Fd(u64),
    /// Read returned these bytes.
    Data(Vec<u8>),
    /// Write/truncate/close/unlink succeeded; writes report a byte count.
    Done(u64),
    /// Stat result: file length.
    Len(u64),
    /// The call failed.
    Error(String),
}

/// The untrusted host interface the SCONE runtime issues syscalls against.
pub trait HostOs: Send + Sync {
    /// Executes one raw system call.
    fn execute(&self, call: &Syscall) -> SyscallRet;
}

impl<H: HostOs + ?Sized> HostOs for Arc<H> {
    fn execute(&self, call: &Syscall) -> SyscallRet {
        (**self).execute(call)
    }
}

impl fmt::Debug for dyn HostOs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dyn HostOs")
    }
}

type FileRef = Arc<Mutex<Vec<u8>>>;

#[derive(Debug, Default)]
struct HostState {
    files: HashMap<String, FileRef>,
    fds: HashMap<u64, (String, FileRef)>,
    // Snapshots for the rollback attack hook.
    snapshots: HashMap<String, Vec<u8>>,
}

/// An in-memory host OS with adversarial test hooks.
#[derive(Default)]
pub struct MemHost {
    state: Mutex<HostState>,
    next_fd: AtomicU64,
    calls: AtomicU64,
}

impl fmt::Debug for MemHost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemHost")
            .field("calls", &self.calls.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl MemHost {
    /// Creates an empty host.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total syscalls executed (for tests and benchmarks).
    #[must_use]
    pub fn call_count(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Returns the raw (encrypted, if shielded) bytes of `path`.
    #[must_use]
    pub fn raw_file(&self, path: &str) -> Option<Vec<u8>> {
        let state = self.state.lock();
        state.files.get(path).map(|f| f.lock().clone())
    }

    /// Lists all stored paths.
    #[must_use]
    pub fn paths(&self) -> Vec<String> {
        let state = self.state.lock();
        let mut paths: Vec<String> = state.files.keys().cloned().collect();
        paths.sort();
        paths
    }

    /// Adversarial hook: flips a byte of `path` at `offset`.
    pub fn corrupt_file(&self, path: &str, offset: usize) {
        let state = self.state.lock();
        if let Some(file) = state.files.get(path) {
            let mut bytes = file.lock();
            if offset < bytes.len() {
                bytes[offset] ^= 0xff;
            }
        }
    }

    /// Adversarial hook: snapshots the current content of `path`.
    pub fn snapshot_file(&self, path: &str) {
        let mut state = self.state.lock();
        let content = state.files.get(path).map(|f| f.lock().clone());
        if let Some(content) = content {
            state.snapshots.insert(path.to_string(), content);
        }
    }

    /// Adversarial hook: restores `path` to its snapshot (a rollback attack).
    pub fn rollback_file(&self, path: &str) {
        let state = self.state.lock();
        if let Some(old) = state.snapshots.get(path).cloned() {
            if let Some(file) = state.files.get(path) {
                *file.lock() = old;
            }
        }
    }
}

impl HostOs for MemHost {
    fn execute(&self, call: &Syscall) -> SyscallRet {
        self.calls.fetch_add(1, Ordering::Relaxed);
        match call {
            Syscall::Open { path, create } => {
                let mut state = self.state.lock();
                let file = match state.files.get(path) {
                    Some(f) => f.clone(),
                    None if *create => {
                        let f = Arc::new(Mutex::new(Vec::new()));
                        state.files.insert(path.clone(), f.clone());
                        f
                    }
                    None => return SyscallRet::Error(format!("no such file: {path}")),
                };
                let fd = self.next_fd.fetch_add(1, Ordering::Relaxed) + 3;
                state.fds.insert(fd, (path.clone(), file));
                SyscallRet::Fd(fd)
            }
            Syscall::Pread { fd, offset, len } => {
                let state = self.state.lock();
                let Some((_, file)) = state.fds.get(fd) else {
                    return SyscallRet::Error(format!("bad fd {fd}"));
                };
                let bytes = file.lock();
                let start = (*offset as usize).min(bytes.len());
                let end = (start + len).min(bytes.len());
                SyscallRet::Data(bytes[start..end].to_vec())
            }
            Syscall::Pwrite { fd, offset, data } => {
                let state = self.state.lock();
                let Some((_, file)) = state.fds.get(fd) else {
                    return SyscallRet::Error(format!("bad fd {fd}"));
                };
                let mut bytes = file.lock();
                let end = *offset as usize + data.len();
                if bytes.len() < end {
                    bytes.resize(end, 0);
                }
                bytes[*offset as usize..end].copy_from_slice(data);
                SyscallRet::Done(data.len() as u64)
            }
            Syscall::Ftruncate { fd, len } => {
                let state = self.state.lock();
                let Some((_, file)) = state.fds.get(fd) else {
                    return SyscallRet::Error(format!("bad fd {fd}"));
                };
                file.lock().resize(*len as usize, 0);
                SyscallRet::Done(0)
            }
            Syscall::Close { fd } => {
                let mut state = self.state.lock();
                if state.fds.remove(fd).is_none() {
                    return SyscallRet::Error(format!("bad fd {fd}"));
                }
                SyscallRet::Done(0)
            }
            Syscall::Unlink { path } => {
                let mut state = self.state.lock();
                if state.files.remove(path).is_none() {
                    return SyscallRet::Error(format!("no such file: {path}"));
                }
                SyscallRet::Done(0)
            }
            Syscall::Fstat { fd } => {
                let state = self.state.lock();
                let Some((_, file)) = state.fds.get(fd) else {
                    return SyscallRet::Error(format!("bad fd {fd}"));
                };
                let len = file.lock().len() as u64;
                SyscallRet::Len(len)
            }
        }
    }
}

/// A [`HostOs`] decorator that fails syscalls on command of a
/// [`FaultInjector`](securecloud_faults::FaultInjector).
///
/// The shielded runtime sits above this, so injected failures exercise the
/// shields' error paths exactly as a flaky or malicious host would: the
/// failure surfaces as [`SyscallRet::Error`] and the runtime converts it
/// into a [`crate::SconeError::HostViolation`].
pub struct FaultyHost<H: HostOs> {
    inner: H,
    injector: Arc<securecloud_faults::FaultInjector>,
}

impl<H: HostOs> FaultyHost<H> {
    /// Wraps `inner`, consulting `injector` before every syscall.
    pub fn new(inner: H, injector: Arc<securecloud_faults::FaultInjector>) -> Self {
        FaultyHost { inner, injector }
    }

    /// The wrapped host.
    pub fn inner(&self) -> &H {
        &self.inner
    }
}

impl<H: HostOs> fmt::Debug for FaultyHost<H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyHost").finish_non_exhaustive()
    }
}

impl<H: HostOs> HostOs for FaultyHost<H> {
    fn execute(&self, call: &Syscall) -> SyscallRet {
        if self.injector.syscall_should_fail() {
            return SyscallRet::Error("injected host fault".into());
        }
        self.inner.execute(call)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_write_read_roundtrip() {
        let host = MemHost::new();
        let SyscallRet::Fd(fd) = host.execute(&Syscall::Open {
            path: "/data".into(),
            create: true,
        }) else {
            panic!("open failed");
        };
        host.execute(&Syscall::Pwrite {
            fd,
            offset: 0,
            data: b"hello".to_vec(),
        });
        assert_eq!(
            host.execute(&Syscall::Pread {
                fd,
                offset: 1,
                len: 3
            }),
            SyscallRet::Data(b"ell".to_vec())
        );
        assert_eq!(host.execute(&Syscall::Fstat { fd }), SyscallRet::Len(5));
        assert_eq!(host.execute(&Syscall::Close { fd }), SyscallRet::Done(0));
        assert!(matches!(
            host.execute(&Syscall::Close { fd }),
            SyscallRet::Error(_)
        ));
    }

    #[test]
    fn open_missing_without_create_fails() {
        let host = MemHost::new();
        assert!(matches!(
            host.execute(&Syscall::Open {
                path: "/missing".into(),
                create: false
            }),
            SyscallRet::Error(_)
        ));
    }

    #[test]
    fn sparse_write_zero_fills() {
        let host = MemHost::new();
        let SyscallRet::Fd(fd) = host.execute(&Syscall::Open {
            path: "/sparse".into(),
            create: true,
        }) else {
            panic!()
        };
        host.execute(&Syscall::Pwrite {
            fd,
            offset: 4,
            data: b"x".to_vec(),
        });
        assert_eq!(
            host.execute(&Syscall::Pread {
                fd,
                offset: 0,
                len: 5
            }),
            SyscallRet::Data(vec![0, 0, 0, 0, b'x'])
        );
    }

    #[test]
    fn corrupt_and_rollback_hooks() {
        let host = MemHost::new();
        let SyscallRet::Fd(fd) = host.execute(&Syscall::Open {
            path: "/f".into(),
            create: true,
        }) else {
            panic!()
        };
        host.execute(&Syscall::Pwrite {
            fd,
            offset: 0,
            data: b"v1".to_vec(),
        });
        host.snapshot_file("/f");
        host.execute(&Syscall::Pwrite {
            fd,
            offset: 0,
            data: b"v2".to_vec(),
        });
        assert_eq!(host.raw_file("/f").unwrap(), b"v2");
        host.rollback_file("/f");
        assert_eq!(host.raw_file("/f").unwrap(), b"v1");
        host.corrupt_file("/f", 0);
        assert_ne!(host.raw_file("/f").unwrap(), b"v1");
    }

    #[test]
    fn unlink_removes() {
        let host = MemHost::new();
        host.execute(&Syscall::Open {
            path: "/f".into(),
            create: true,
        });
        assert_eq!(host.paths(), vec!["/f".to_string()]);
        host.execute(&Syscall::Unlink { path: "/f".into() });
        assert!(host.paths().is_empty());
        assert!(matches!(
            host.execute(&Syscall::Unlink { path: "/f".into() }),
            SyscallRet::Error(_)
        ));
    }

    #[test]
    fn call_count_tracks() {
        let host = MemHost::new();
        assert_eq!(host.call_count(), 0);
        host.execute(&Syscall::Open {
            path: "/f".into(),
            create: true,
        });
        host.execute(&Syscall::Unlink { path: "/f".into() });
        assert_eq!(host.call_count(), 2);
    }

    #[test]
    fn faulty_host_injects_failures() {
        use securecloud_faults::{FaultInjector, FaultKind, FaultPlan};
        let plan = FaultPlan::new().at(0, FaultKind::SyscallFail { count: 1 });
        let injector = Arc::new(FaultInjector::with_plan(3, plan));
        injector.advance_to(0);
        let host = FaultyHost::new(MemHost::new(), injector);
        // First call eats the armed failure; the wrapped host never sees it.
        assert!(matches!(
            host.execute(&Syscall::Open {
                path: "/f".into(),
                create: true,
            }),
            SyscallRet::Error(_)
        ));
        assert_eq!(host.inner().call_count(), 0);
        // Subsequent calls pass through.
        assert!(matches!(
            host.execute(&Syscall::Open {
                path: "/f".into(),
                create: true,
            }),
            SyscallRet::Fd(_)
        ));
    }
}
