//! Shielded standard I/O streams.
//!
//! The SCF carries keys "to encrypt standard I/O streams" (§V-A): anything
//! the micro-service writes to stdout/stderr, and anything piped into
//! stdin, crosses the enclave boundary encrypted. A [`ShieldedStream`]
//! wraps a byte-frame transport with AES-128-GCM, sequence-numbered nonces,
//! and strict in-order delivery — reordering or replay by the untrusted
//! host surfaces as an authentication failure.
//!
//! [`SwitchlessLog`] is the ring-backed variant of the producer side:
//! sealed stdout frames stream to a host append-log through the
//! switchless [`Shield`] — writes pipeline without any enclave
//! transition, and [`SwitchlessLog::flush`] reaps the write
//! acknowledgements in one parking pass.

use crate::hostos::{Syscall, SyscallRet};
use crate::syscall::Shield;
use crate::SconeError;
use securecloud_crypto::channel::Transport;
use securecloud_crypto::gcm::{AesGcm, SealCtx, TAG_LEN};
use securecloud_crypto::CryptoError;
use securecloud_sgx::mem::MemorySim;

/// Which end of the stream this endpoint is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamRole {
    /// The side that writes application data first (e.g. the enclave for
    /// stdout).
    Producer,
    /// The consuming side (e.g. the trusted log collector).
    Consumer,
}

const DOMAIN_PRODUCER: u32 = 0x7374_6f31; // "sto1"
const DOMAIN_CONSUMER: u32 = 0x7374_6f32; // "sto2"

/// An encrypted, ordered, authenticated byte-frame stream.
///
/// ```
/// use securecloud_crypto::channel::memory_pair;
/// use securecloud_scone::stdio::{ShieldedStream, StreamRole};
///
/// let key = [9u8; 16];
/// let (a, b) = memory_pair();
/// let mut stdout_enclave = ShieldedStream::new(a, &key, StreamRole::Producer);
/// let mut stdout_collector = ShieldedStream::new(b, &key, StreamRole::Consumer);
/// stdout_enclave.write(b"log line 1").unwrap();
/// assert_eq!(stdout_collector.read().unwrap(), b"log line 1");
/// ```
#[derive(Debug)]
pub struct ShieldedStream<T: Transport> {
    transport: T,
    send: SealCtx,
    recv: SealCtx,
}

impl<T: Transport> ShieldedStream<T> {
    /// Wraps `transport` with the stream key from the SCF.
    #[must_use]
    pub fn new(transport: T, key: &[u8; 16], role: StreamRole) -> Self {
        let (send_domain, recv_domain) = match role {
            StreamRole::Producer => (DOMAIN_PRODUCER, DOMAIN_CONSUMER),
            StreamRole::Consumer => (DOMAIN_CONSUMER, DOMAIN_PRODUCER),
        };
        let cipher = AesGcm::new(key);
        ShieldedStream {
            transport,
            send: SealCtx::new(cipher.clone(), send_domain),
            recv: SealCtx::new(cipher, recv_domain),
        }
    }

    /// Encrypts and sends one frame.
    ///
    /// # Errors
    ///
    /// [`CryptoError::TransportClosed`] if the peer is gone.
    pub fn write(&mut self, data: &[u8]) -> Result<(), CryptoError> {
        self.transport.send_frame(seal_line(&mut self.send, data))
    }

    /// Receives and decrypts the next frame, enforcing order.
    ///
    /// # Errors
    ///
    /// [`CryptoError::AuthenticationFailed`] on tampering, replay, or
    /// reordering; [`CryptoError::TransportClosed`] if the peer is gone.
    pub fn read(&mut self) -> Result<Vec<u8>, CryptoError> {
        let mut frame = self.transport.recv_frame()?;
        open_line(&mut self.recv, &mut frame)?;
        Ok(frame)
    }
}

/// Seals `data` as the stream's next frame; the sequence number is the AAD.
fn seal_line(stream: &mut SealCtx, data: &[u8]) -> Vec<u8> {
    let mut sealed = Vec::with_capacity(data.len() + TAG_LEN);
    sealed.extend_from_slice(data);
    let seq_bytes = stream.seq().to_be_bytes();
    stream.seal_in_place(&mut sealed, &seq_bytes);
    sealed
}

/// Opens the stream's next frame in place.
fn open_line(stream: &mut SealCtx, frame: &mut Vec<u8>) -> Result<(), CryptoError> {
    let seq_bytes = stream.seq().to_be_bytes();
    stream.open_in_place(frame, &seq_bytes)
}

/// Encrypted stdout over the switchless rings: each log line is sealed
/// with the stream cipher (same nonce/sequence discipline as
/// [`ShieldedStream`]) and appended to a host file as a length-prefixed
/// frame. Writes are submitted without waiting — the ring overlaps them —
/// and [`SwitchlessLog::flush`] collects and validates the pending
/// acknowledgements.
#[derive(Debug)]
pub struct SwitchlessLog {
    shield: Shield,
    stream: SealCtx,
    fd: u64,
    offset: u64,
    unflushed: usize,
}

impl SwitchlessLog {
    /// Opens (creating) the host append-log at `path` over `shield`.
    ///
    /// # Errors
    ///
    /// [`SconeError::HostViolation`] if the host refuses the open.
    pub fn create(
        mut shield: Shield,
        mem: &mut MemorySim,
        path: &str,
        key: &[u8; 16],
    ) -> Result<Self, SconeError> {
        let ret = shield.call(
            mem,
            Syscall::Open {
                path: path.to_string(),
                create: true,
            },
        )?;
        let SyscallRet::Fd(fd) = ret else {
            return Err(SconeError::HostViolation(format!(
                "open of log {path} answered {ret:?}"
            )));
        };
        Ok(SwitchlessLog {
            shield,
            stream: SealCtx::new(AesGcm::new(key), DOMAIN_PRODUCER),
            fd,
            offset: 0,
            unflushed: 0,
        })
    }

    /// Seals `line` and submits its append without waiting for the ack.
    ///
    /// # Errors
    ///
    /// [`SconeError::ShieldStopped`] on a ring protocol violation.
    pub fn write(&mut self, mem: &mut MemorySim, line: &[u8]) -> Result<(), SconeError> {
        let sealed = seal_line(&mut self.stream, line);
        let mut frame = Vec::with_capacity(4 + sealed.len());
        frame.extend_from_slice(&(sealed.len() as u32).to_be_bytes());
        frame.extend_from_slice(&sealed);
        let len = frame.len() as u64;
        self.shield.submit(
            mem,
            Syscall::Pwrite {
                fd: self.fd,
                offset: self.offset,
                data: frame,
            },
        )?;
        self.offset += len;
        self.unflushed += 1;
        Ok(())
    }

    /// Reaps every pending write acknowledgement, verifying each one.
    ///
    /// # Errors
    ///
    /// [`SconeError::HostViolation`] if the host failed or short-changed
    /// an append.
    pub fn flush(&mut self, mem: &mut MemorySim) -> Result<(), SconeError> {
        while self.unflushed > 0 {
            let completion = self.shield.complete(mem)?;
            self.unflushed -= 1;
            if !matches!(completion.ret, SyscallRet::Done(_)) {
                return Err(SconeError::HostViolation(format!(
                    "log append answered {:?}",
                    completion.ret
                )));
            }
        }
        Ok(())
    }

    /// Frames written so far.
    #[must_use]
    pub fn frames_written(&self) -> u64 {
        self.stream.seq()
    }

    /// Collector side: decodes a raw host append-log back into plaintext
    /// lines, enforcing the frame order the enclave sealed.
    ///
    /// # Errors
    ///
    /// [`CryptoError::AuthenticationFailed`] on tampering, truncation,
    /// reordering, or replay of any frame.
    pub fn decode_log(key: &[u8; 16], raw: &[u8]) -> Result<Vec<Vec<u8>>, CryptoError> {
        let mut stream = SealCtx::new(AesGcm::new(key), DOMAIN_PRODUCER);
        let mut lines = Vec::new();
        let mut cursor = 0usize;
        while cursor < raw.len() {
            if cursor + 4 > raw.len() {
                return Err(CryptoError::AuthenticationFailed);
            }
            let len =
                u32::from_be_bytes(raw[cursor..cursor + 4].try_into().expect("4 bytes")) as usize;
            cursor += 4;
            if cursor + len > raw.len() {
                return Err(CryptoError::AuthenticationFailed);
            }
            let mut line = raw[cursor..cursor + len].to_vec();
            open_line(&mut stream, &mut line)?;
            cursor += len;
            lines.push(line);
        }
        Ok(lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostos::MemHost;
    use securecloud_crypto::channel::{memory_pair, MemoryTransport};
    use securecloud_sgx::costs::{CostModel, MemoryGeometry};
    use std::sync::Arc;

    fn pair(
        key: &[u8; 16],
    ) -> (
        ShieldedStream<MemoryTransport>,
        ShieldedStream<MemoryTransport>,
    ) {
        let (a, b) = memory_pair();
        (
            ShieldedStream::new(a, key, StreamRole::Producer),
            ShieldedStream::new(b, key, StreamRole::Consumer),
        )
    }

    #[test]
    fn duplex_roundtrip() {
        let key = [1u8; 16];
        let (mut producer, mut consumer) = pair(&key);
        producer.write(b"stdout line").unwrap();
        producer.write(b"another").unwrap();
        assert_eq!(consumer.read().unwrap(), b"stdout line");
        assert_eq!(consumer.read().unwrap(), b"another");
        // stdin flows the other way on the same key without nonce collision.
        consumer.write(b"stdin data").unwrap();
        assert_eq!(producer.read().unwrap(), b"stdin data");
    }

    #[test]
    fn wrong_key_fails() {
        let (a, b) = memory_pair();
        let mut producer = ShieldedStream::new(a, &[1u8; 16], StreamRole::Producer);
        let mut consumer = ShieldedStream::new(b, &[2u8; 16], StreamRole::Consumer);
        producer.write(b"x").unwrap();
        assert!(matches!(
            consumer.read(),
            Err(CryptoError::AuthenticationFailed)
        ));
    }

    #[test]
    fn reordering_detected() {
        let key = [3u8; 16];
        let (raw_a, raw_b) = memory_pair();
        let mut producer = ShieldedStream::new(raw_a, &key, StreamRole::Producer);
        producer.write(b"first").unwrap();
        producer.write(b"second").unwrap();
        // The host drops the first frame: the consumer sees "second" at
        // sequence 0 and must reject it.
        let _stolen = raw_b.recv_frame().unwrap();
        let mut consumer = ShieldedStream::new(raw_b, &key, StreamRole::Consumer);
        assert!(matches!(
            consumer.read(),
            Err(CryptoError::AuthenticationFailed)
        ));
    }

    #[test]
    fn replay_detected() {
        let key = [4u8; 16];
        let (raw_a, raw_b) = memory_pair();
        let mut producer = ShieldedStream::new(raw_a, &key, StreamRole::Producer);
        // Two identical payments: the host captures the first frame and
        // replays it in place of the second.
        producer.write(b"payment: 100 EUR").unwrap();
        producer.write(b"payment: 100 EUR").unwrap();
        let frame0 = raw_b.recv_frame().unwrap();
        let frame1 = raw_b.recv_frame().unwrap();
        // Ciphertexts differ despite equal plaintext (sequence in nonce).
        assert_ne!(frame0, frame1);
        // Decrypting the replayed frame0 at sequence 1 must fail.
        let nonce1 = securecloud_crypto::gcm::nonce_from_seq(DOMAIN_PRODUCER, 1);
        assert!(AesGcm::new(&key)
            .open(&nonce1, &frame0, &1u64.to_be_bytes())
            .is_err());
        // And through the stream API: deliver frame0 twice.
        let (raw_c, raw_d) = memory_pair();
        raw_c.send_frame(frame0.clone()).unwrap();
        raw_c.send_frame(frame0).unwrap();
        let mut consumer = ShieldedStream::new(raw_d, &key, StreamRole::Consumer);
        assert_eq!(consumer.read().unwrap(), b"payment: 100 EUR");
        assert!(matches!(
            consumer.read(),
            Err(CryptoError::AuthenticationFailed)
        ));
    }

    #[test]
    fn switchless_log_roundtrips_without_transitions() {
        let key = [6u8; 16];
        let host = Arc::new(MemHost::new());
        let shield = Shield::switchless(host.clone(), 8);
        let mut mem = MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::sgx_v1());
        let mut log = SwitchlessLog::create(shield, &mut mem, "/stdout.log", &key).unwrap();
        for i in 0..20 {
            log.write(&mut mem, format!("log line {i}").as_bytes())
                .unwrap();
        }
        log.flush(&mut mem).unwrap();
        assert_eq!(log.frames_written(), 20);
        let raw = host.raw_file("/stdout.log").unwrap();
        assert!(
            !raw.windows(8).any(|w| w == b"log line"),
            "plaintext leaked into the host log"
        );
        let lines = SwitchlessLog::decode_log(&key, &raw).unwrap();
        assert_eq!(lines.len(), 20);
        assert_eq!(lines[7], b"log line 7");
        // Far below one transition pair per line: the whole run is
        // switchless.
        assert!(mem.cycles() < 21 * CostModel::sgx_v1().transition_pair());
    }

    #[test]
    fn switchless_log_detects_reordering() {
        let key = [7u8; 16];
        let host = Arc::new(MemHost::new());
        let shield = Shield::switchless(host.clone(), 4);
        let mut mem = MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::zero());
        let mut log = SwitchlessLog::create(shield, &mut mem, "/l", &key).unwrap();
        log.write(&mut mem, b"first").unwrap();
        log.write(&mut mem, b"second").unwrap();
        log.flush(&mut mem).unwrap();
        let raw = host.raw_file("/l").unwrap();
        // The host swaps the two frames: decode must fail.
        let len0 = u32::from_be_bytes(raw[0..4].try_into().unwrap()) as usize;
        let (frame0, frame1) = raw.split_at(4 + len0);
        let mut swapped = frame1.to_vec();
        swapped.extend_from_slice(frame0);
        assert!(matches!(
            SwitchlessLog::decode_log(&key, &swapped),
            Err(CryptoError::AuthenticationFailed)
        ));
    }

    #[test]
    fn empty_frames_allowed() {
        let key = [5u8; 16];
        let (mut producer, mut consumer) = pair(&key);
        producer.write(b"").unwrap();
        assert_eq!(consumer.read().unwrap(), b"");
    }
}
