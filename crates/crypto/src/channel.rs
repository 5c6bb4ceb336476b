//! A mutually-authenticated secure channel.
//!
//! This is the "TLS-protected connection" of the paper's SCF provisioning
//! flow (§V-A) and the transport used between micro-services. The handshake
//! is Noise-KK-flavoured: X25519 ephemeral + static Diffie-Hellman, HKDF key
//! schedule bound to the transcript hash, explicit `Finished` MACs, and an
//! application *attestation payload* carried (and authenticated) in each
//! hello — the enclave quote rides here.
//!
//! ```
//! use securecloud_crypto::channel::{memory_pair, ChannelConfig, Identity, SecureChannel};
//!
//! let (a, b) = memory_pair();
//! let server_id = Identity::generate("config-service");
//! let client_id = Identity::generate("enclave");
//! let server_pub = server_id.public_key();
//!
//! let server = std::thread::spawn(move || {
//!     SecureChannel::respond(b, &server_id, ChannelConfig::default()).unwrap()
//! });
//! let mut client = SecureChannel::initiate(a, &client_id, ChannelConfig {
//!     expected_peer: Some(server_pub),
//!     ..ChannelConfig::default()
//! }).unwrap();
//! let mut server = server.join().unwrap();
//!
//! client.send(b"GET /scf").unwrap();
//! assert_eq!(server.recv().unwrap(), b"GET /scf");
//! ```

use crate::gcm::{AesGcm, SealCtx};
use crate::hmac::{hkdf_expand, hkdf_extract, HmacSha256};
use crate::sha256::Sha256;
use crate::wire::{Reader, Wire};
use crate::x25519::{self, PublicKey, SecretKey};
use crate::CryptoError;
use crossbeam::channel::{unbounded, Receiver, Sender};
use securecloud_telemetry::{TraceContext, CONTEXT_WIRE_LEN};

/// Byte-frame transport under a [`SecureChannel`].
pub trait Transport {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// [`CryptoError::TransportClosed`] if the peer is gone.
    fn send_frame(&self, frame: Vec<u8>) -> Result<(), CryptoError>;
    /// Receives one frame, blocking.
    ///
    /// # Errors
    ///
    /// [`CryptoError::TransportClosed`] if the peer is gone.
    fn recv_frame(&self) -> Result<Vec<u8>, CryptoError>;
}

/// In-memory duplex transport (the simulator's "network").
#[derive(Debug)]
pub struct MemoryTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

/// Creates a connected pair of in-memory transports.
#[must_use]
pub fn memory_pair() -> (MemoryTransport, MemoryTransport) {
    let (tx_ab, rx_ab) = unbounded();
    let (tx_ba, rx_ba) = unbounded();
    (
        MemoryTransport {
            tx: tx_ab,
            rx: rx_ba,
        },
        MemoryTransport {
            tx: tx_ba,
            rx: rx_ab,
        },
    )
}

impl Transport for MemoryTransport {
    fn send_frame(&self, frame: Vec<u8>) -> Result<(), CryptoError> {
        self.tx
            .send(frame)
            .map_err(|_| CryptoError::TransportClosed)
    }
    fn recv_frame(&self) -> Result<Vec<u8>, CryptoError> {
        self.rx.recv().map_err(|_| CryptoError::TransportClosed)
    }
}

/// A long-term X25519 identity for a channel endpoint.
#[derive(Clone)]
pub struct Identity {
    name: String,
    secret: SecretKey,
    public: PublicKey,
}

impl std::fmt::Debug for Identity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Identity")
            .field("name", &self.name)
            .field("public", &crate::hex(&self.public))
            .finish_non_exhaustive()
    }
}

impl Identity {
    /// Generates a fresh identity labelled `name`.
    #[must_use]
    pub fn generate(name: &str) -> Self {
        let (secret, public) = x25519::keypair();
        Identity {
            name: name.to_string(),
            secret,
            public,
        }
    }

    /// Reconstructs an identity from a stored secret key.
    #[must_use]
    pub fn from_secret(name: &str, secret: SecretKey) -> Self {
        let public = x25519::public_key(&secret);
        Identity {
            name: name.to_string(),
            secret,
            public,
        }
    }

    /// The endpoint's label.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The public half of the identity.
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.public
    }
}

/// Handshake configuration.
#[derive(Default)]
pub struct ChannelConfig {
    /// If set, the handshake fails unless the peer's static key matches.
    pub expected_peer: Option<PublicKey>,
    /// Opaque evidence (e.g. an attestation quote) sent to the peer,
    /// authenticated by the handshake transcript.
    pub attestation_payload: Vec<u8>,
    /// Callback validating the peer's static key and attestation payload.
    /// Returning `Err` aborts the handshake. Applied after `expected_peer`.
    #[allow(clippy::type_complexity)]
    pub verify_peer: Option<Box<dyn FnOnce(&PublicKey, &[u8]) -> Result<(), String> + Send>>,
}

impl std::fmt::Debug for ChannelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelConfig")
            .field("expected_peer", &self.expected_peer.map(|k| crate::hex(&k)))
            .field("attestation_payload_len", &self.attestation_payload.len())
            .field("verify_peer", &self.verify_peer.is_some())
            .finish()
    }
}

#[derive(Debug)]
struct Hello {
    ephemeral: [u8; 32],
    static_key: [u8; 32],
    payload: Vec<u8>,
}

impl Wire for Hello {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ephemeral.encode(out);
        self.static_key.encode(out);
        self.payload.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok(Hello {
            ephemeral: Wire::decode(r)?,
            static_key: Wire::decode(r)?,
            payload: Wire::decode(r)?,
        })
    }
}

/// An established, authenticated, encrypted channel.
///
/// Each direction has its own AES-128-GCM key and sequence number; every
/// record is bound to the handshake transcript via the AAD.
pub struct SecureChannel<T: Transport> {
    transport: T,
    send: SealCtx,
    recv: SealCtx,
    transcript: [u8; 32],
    peer_static: PublicKey,
    peer_payload: Vec<u8>,
}

impl<T: Transport> std::fmt::Debug for SecureChannel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureChannel")
            .field("peer", &crate::hex(&self.peer_static))
            .field("send_seq", &self.send.seq())
            .field("recv_seq", &self.recv.seq())
            .finish_non_exhaustive()
    }
}

const DOMAIN_I2R: u32 = 0x6932_7200; // "i2r"
const DOMAIN_R2I: u32 = 0x7232_6900; // "r2i"

struct HandshakeKeys {
    i2r: [u8; 16],
    r2i: [u8; 16],
    finish_i: [u8; 32],
    finish_r: [u8; 32],
}

fn derive_keys(
    transcript: &[u8; 32],
    dh_ee: &[u8; 32],
    dh_es: &[u8; 32],
    dh_se: &[u8; 32],
    dh_ss: &[u8; 32],
) -> HandshakeKeys {
    let mut ikm = Vec::with_capacity(128);
    ikm.extend_from_slice(dh_ee);
    ikm.extend_from_slice(dh_es);
    ikm.extend_from_slice(dh_se);
    ikm.extend_from_slice(dh_ss);
    let prk = hkdf_extract(transcript, &ikm);
    let mut i2r = [0u8; 16];
    let mut r2i = [0u8; 16];
    let mut finish_i = [0u8; 32];
    let mut finish_r = [0u8; 32];
    hkdf_expand(&prk, b"securecloud channel i2r", &mut i2r);
    hkdf_expand(&prk, b"securecloud channel r2i", &mut r2i);
    hkdf_expand(&prk, b"securecloud finished i", &mut finish_i);
    hkdf_expand(&prk, b"securecloud finished r", &mut finish_r);
    HandshakeKeys {
        i2r,
        r2i,
        finish_i,
        finish_r,
    }
}

fn check_peer(
    config: ChannelConfig,
    peer_static: &PublicKey,
    peer_payload: &[u8],
) -> Result<(), CryptoError> {
    if let Some(expected) = config.expected_peer {
        if !crate::ct_eq(&expected, peer_static) {
            return Err(CryptoError::Handshake("unexpected peer static key".into()));
        }
    }
    if let Some(verify) = config.verify_peer {
        verify(peer_static, peer_payload).map_err(CryptoError::Handshake)?;
    }
    Ok(())
}

impl<T: Transport> SecureChannel<T> {
    /// Runs the initiator side of the handshake over `transport`.
    ///
    /// # Errors
    ///
    /// [`CryptoError::Handshake`] if the peer fails authentication or the
    /// transcript MACs do not verify; [`CryptoError::TransportClosed`] if the
    /// peer disappears mid-handshake.
    pub fn initiate(
        transport: T,
        identity: &Identity,
        config: ChannelConfig,
    ) -> Result<Self, CryptoError> {
        let (eph_secret, eph_public) = x25519::keypair();
        let hello_i = Hello {
            ephemeral: eph_public,
            static_key: identity.public,
            payload: config.attestation_payload.clone(),
        };
        let hello_i_bytes = hello_i.to_wire();
        transport.send_frame(hello_i_bytes.clone())?;
        let hello_r_bytes = transport.recv_frame()?;
        let hello_r = Hello::from_wire(&hello_r_bytes)?;

        let mut transcript_hasher = Sha256::new();
        transcript_hasher.update(&hello_i_bytes);
        transcript_hasher.update(&hello_r_bytes);
        let transcript = transcript_hasher.finalize();

        let dh_ee = x25519::diffie_hellman(&eph_secret, &hello_r.ephemeral);
        let dh_es = x25519::diffie_hellman(&eph_secret, &hello_r.static_key);
        let dh_se = x25519::diffie_hellman(&identity.secret, &hello_r.ephemeral);
        let dh_ss = x25519::diffie_hellman(&identity.secret, &hello_r.static_key);
        let keys = derive_keys(&transcript, &dh_ee, &dh_es, &dh_se, &dh_ss);

        // Responder finishes first; its MAC proves it holds the static key.
        let finished_r = transport.recv_frame()?;
        if !crate::ct_eq(&HmacSha256::mac(&keys.finish_r, &transcript), &finished_r) {
            return Err(CryptoError::Handshake("responder finished MAC".into()));
        }
        transport.send_frame(HmacSha256::mac(&keys.finish_i, &transcript).to_vec())?;

        check_peer(config, &hello_r.static_key, &hello_r.payload)?;

        Ok(SecureChannel {
            transport,
            send: SealCtx::new(AesGcm::new(&keys.i2r), DOMAIN_I2R),
            recv: SealCtx::new(AesGcm::new(&keys.r2i), DOMAIN_R2I),
            transcript,
            peer_static: hello_r.static_key,
            peer_payload: hello_r.payload,
        })
    }

    /// Runs the responder side of the handshake over `transport`.
    ///
    /// # Errors
    ///
    /// See [`SecureChannel::initiate`].
    pub fn respond(
        transport: T,
        identity: &Identity,
        config: ChannelConfig,
    ) -> Result<Self, CryptoError> {
        let hello_i_bytes = transport.recv_frame()?;
        let hello_i = Hello::from_wire(&hello_i_bytes)?;
        let (eph_secret, eph_public) = x25519::keypair();
        let hello_r = Hello {
            ephemeral: eph_public,
            static_key: identity.public,
            payload: config.attestation_payload.clone(),
        };
        let hello_r_bytes = hello_r.to_wire();
        transport.send_frame(hello_r_bytes.clone())?;

        let mut transcript_hasher = Sha256::new();
        transcript_hasher.update(&hello_i_bytes);
        transcript_hasher.update(&hello_r_bytes);
        let transcript = transcript_hasher.finalize();

        let dh_ee = x25519::diffie_hellman(&eph_secret, &hello_i.ephemeral);
        let dh_se = x25519::diffie_hellman(&eph_secret, &hello_i.static_key);
        let dh_es = x25519::diffie_hellman(&identity.secret, &hello_i.ephemeral);
        let dh_ss = x25519::diffie_hellman(&identity.secret, &hello_i.static_key);
        let keys = derive_keys(&transcript, &dh_ee, &dh_es, &dh_se, &dh_ss);

        transport.send_frame(HmacSha256::mac(&keys.finish_r, &transcript).to_vec())?;
        let finished_i = transport.recv_frame()?;
        if !crate::ct_eq(&HmacSha256::mac(&keys.finish_i, &transcript), &finished_i) {
            return Err(CryptoError::Handshake("initiator finished MAC".into()));
        }

        check_peer(config, &hello_i.static_key, &hello_i.payload)?;

        Ok(SecureChannel {
            transport,
            send: SealCtx::new(AesGcm::new(&keys.r2i), DOMAIN_R2I),
            recv: SealCtx::new(AesGcm::new(&keys.i2r), DOMAIN_I2R),
            transcript,
            peer_static: hello_i.static_key,
            peer_payload: hello_i.payload,
        })
    }

    /// Encrypts and sends one message.
    ///
    /// # Errors
    ///
    /// [`CryptoError::TransportClosed`] if the peer is gone.
    pub fn send(&mut self, plaintext: &[u8]) -> Result<(), CryptoError> {
        // Single exactly-sized allocation: copy the plaintext in, seal the
        // buffer in place, let the tag land in the reserved suffix.
        let mut sealed = Vec::with_capacity(plaintext.len() + crate::gcm::TAG_LEN);
        sealed.extend_from_slice(plaintext);
        self.send.seal_in_place(&mut sealed, &self.transcript);
        self.transport.send_frame(sealed)
    }

    /// Encrypts and sends one message with a causal [`TraceContext`] carried
    /// *inside* the sealed record: the 24-byte context header is prepended to
    /// the plaintext before sealing, so the trace ids are confidentiality- and
    /// integrity-protected along with the payload. The peer must receive it
    /// with [`SecureChannel::recv_with_ctx`]; traced and plain records may be
    /// interleaved freely since each consumes exactly one sequence number.
    ///
    /// # Errors
    ///
    /// [`CryptoError::TransportClosed`] if the peer is gone.
    pub fn send_with_ctx(
        &mut self,
        plaintext: &[u8],
        ctx: TraceContext,
    ) -> Result<(), CryptoError> {
        let mut sealed =
            Vec::with_capacity(CONTEXT_WIRE_LEN + plaintext.len() + crate::gcm::TAG_LEN);
        sealed.extend_from_slice(&ctx.encode());
        sealed.extend_from_slice(plaintext);
        self.send.seal_in_place(&mut sealed, &self.transcript);
        self.transport.send_frame(sealed)
    }

    /// Receives one record sent by [`SecureChannel::send_with_ctx`] and
    /// returns the authenticated trace context alongside the payload.
    ///
    /// # Errors
    ///
    /// [`CryptoError::AuthenticationFailed`] on tampered or replayed records;
    /// [`CryptoError::Malformed`] if the authenticated plaintext is too short
    /// to carry a context header; [`CryptoError::TransportClosed`] if the
    /// peer is gone.
    pub fn recv_with_ctx(&mut self) -> Result<(TraceContext, Vec<u8>), CryptoError> {
        let mut sealed = self.transport.recv_frame()?;
        self.recv.open_in_place(&mut sealed, &self.transcript)?;
        if sealed.len() < CONTEXT_WIRE_LEN {
            return Err(CryptoError::Malformed(
                "traced record shorter than a context header".into(),
            ));
        }
        let ctx = TraceContext::decode(&sealed[..CONTEXT_WIRE_LEN]).unwrap_or_default();
        Ok((ctx, sealed.split_off(CONTEXT_WIRE_LEN)))
    }

    /// Encrypts and sends a batch of messages as **one** sealed record: the
    /// messages are length-prefix framed together (wire `Vec<Vec<u8>>`
    /// layout) and the concatenation is sealed once — one sequence number,
    /// one nonce, one GHASH/tag pass — so a batch of N costs a single seal
    /// instead of N. The peer must receive it with
    /// [`SecureChannel::recv_batch`]; batch and single records may be
    /// interleaved freely since each consumes exactly one sequence number.
    ///
    /// # Errors
    ///
    /// [`CryptoError::TransportClosed`] if the peer is gone.
    pub fn send_batch(&mut self, messages: &[Vec<u8>]) -> Result<(), CryptoError> {
        let framed: usize = messages.iter().map(|m| 4 + m.len()).sum();
        let mut sealed = Vec::with_capacity(4 + framed + crate::gcm::TAG_LEN);
        (messages.len() as u32).encode(&mut sealed);
        for message in messages {
            (message.len() as u32).encode(&mut sealed);
            sealed.extend_from_slice(message);
        }
        self.send.seal_in_place(&mut sealed, &self.transcript);
        self.transport.send_frame(sealed)
    }

    /// Receives one batch record sent by [`SecureChannel::send_batch`] and
    /// returns its messages in order. The record is opened in place (one
    /// tag check for the whole batch) before the individual messages are
    /// split out.
    ///
    /// # Errors
    ///
    /// [`CryptoError::AuthenticationFailed`] on tampered or replayed
    /// records; [`CryptoError::Malformed`] if the authenticated plaintext
    /// is not a well-formed batch; [`CryptoError::TransportClosed`] if the
    /// peer is gone.
    pub fn recv_batch(&mut self) -> Result<Vec<Vec<u8>>, CryptoError> {
        let mut sealed = self.transport.recv_frame()?;
        self.recv.open_in_place(&mut sealed, &self.transcript)?;
        Vec::<Vec<u8>>::from_wire(&sealed)
    }

    /// Receives and decrypts one message.
    ///
    /// # Errors
    ///
    /// [`CryptoError::AuthenticationFailed`] on tampered or replayed records;
    /// [`CryptoError::TransportClosed`] if the peer is gone.
    pub fn recv(&mut self) -> Result<Vec<u8>, CryptoError> {
        // The transport hands us an owned frame, so decrypting it in place
        // is zero-copy: the ciphertext buffer becomes the plaintext buffer.
        let mut sealed = self.transport.recv_frame()?;
        self.recv.open_in_place(&mut sealed, &self.transcript)?;
        Ok(sealed)
    }

    /// The peer's authenticated static public key.
    #[must_use]
    pub fn peer_static_key(&self) -> PublicKey {
        self.peer_static
    }

    /// The peer's attestation payload, authenticated by the handshake.
    #[must_use]
    pub fn peer_attestation(&self) -> &[u8] {
        &self.peer_payload
    }

    /// The handshake transcript hash (unique per session).
    #[must_use]
    pub fn session_id(&self) -> [u8; 32] {
        self.transcript
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn pair_with(
        client_cfg: ChannelConfig,
        server_cfg: ChannelConfig,
    ) -> (
        Result<SecureChannel<MemoryTransport>, CryptoError>,
        Result<SecureChannel<MemoryTransport>, CryptoError>,
    ) {
        let (a, b) = memory_pair();
        let client_id = Identity::generate("client");
        let server_id = Identity::generate("server");
        let server = thread::spawn(move || SecureChannel::respond(b, &server_id, server_cfg));
        let client = SecureChannel::initiate(a, &client_id, client_cfg);
        (client, server.join().unwrap())
    }

    #[test]
    fn roundtrip_both_directions() {
        let (client, server) = pair_with(ChannelConfig::default(), ChannelConfig::default());
        let mut client = client.unwrap();
        let mut server = server.unwrap();
        client.send(b"hello").unwrap();
        assert_eq!(server.recv().unwrap(), b"hello");
        server.send(b"world").unwrap();
        assert_eq!(client.recv().unwrap(), b"world");
        assert_eq!(client.session_id(), server.session_id());
        // Many messages: sequence numbers advance consistently.
        for i in 0..100u32 {
            client.send(&i.to_le_bytes()).unwrap();
        }
        for i in 0..100u32 {
            assert_eq!(server.recv().unwrap(), i.to_le_bytes());
        }
    }

    #[test]
    fn batch_roundtrip_interleaves_with_singles() {
        let (client, server) = pair_with(ChannelConfig::default(), ChannelConfig::default());
        let mut client = client.unwrap();
        let mut server = server.unwrap();
        let batch: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; i as usize + 1]).collect();
        client.send_batch(&batch).unwrap();
        assert_eq!(server.recv_batch().unwrap(), batch);
        // One batch record consumed exactly one sequence number: plain
        // send/recv keeps working either side of it.
        client.send(b"after").unwrap();
        assert_eq!(server.recv().unwrap(), b"after");
        server.send_batch(&[b"reply".to_vec()]).unwrap();
        assert_eq!(server.send.seq(), 1);
        assert_eq!(client.recv_batch().unwrap(), vec![b"reply".to_vec()]);
        // Empty batches and empty messages are legal frames.
        client.send_batch(&[]).unwrap();
        assert_eq!(client.send.seq(), 3);
        assert!(server.recv_batch().unwrap().is_empty());
        client.send_batch(&[Vec::new(), b"x".to_vec()]).unwrap();
        assert_eq!(
            server.recv_batch().unwrap(),
            vec![Vec::new(), b"x".to_vec()]
        );
    }

    #[test]
    fn traced_roundtrip_interleaves_with_plain() {
        let (client, server) = pair_with(ChannelConfig::default(), ChannelConfig::default());
        let mut client = client.unwrap();
        let mut server = server.unwrap();
        let ctx = TraceContext {
            trace_id: 0x1122_3344_5566_7788,
            span_id: 0x99aa_bbcc_ddee_ff00,
            parent_span_id: 7,
        };
        client.send_with_ctx(b"traced payload", ctx).unwrap();
        let (got_ctx, payload) = server.recv_with_ctx().unwrap();
        assert_eq!(got_ctx, ctx);
        assert_eq!(payload, b"traced payload");
        // A traced record consumed exactly one sequence number, so plain
        // traffic keeps flowing either side of it.
        client.send(b"plain").unwrap();
        assert_eq!(server.recv().unwrap(), b"plain");
        // An absent context survives the trip as `TraceContext::none()`, and
        // empty payloads are legal.
        server.send_with_ctx(b"", TraceContext::none()).unwrap();
        let (none_ctx, empty) = client.recv_with_ctx().unwrap();
        assert!(none_ctx.is_none());
        assert!(empty.is_empty());
    }

    #[test]
    fn traced_record_too_short_is_malformed() {
        let (client, server) = pair_with(ChannelConfig::default(), ChannelConfig::default());
        let mut client = client.unwrap();
        let mut server = server.unwrap();
        client.send(b"short").unwrap();
        assert!(matches!(
            server.recv_with_ctx(),
            Err(CryptoError::Malformed(_))
        ));
    }

    #[test]
    fn tampered_batch_rejected() {
        let (client, server) = pair_with(ChannelConfig::default(), ChannelConfig::default());
        let mut client = client.unwrap();
        let mut server = server.unwrap();
        client.send_batch(&[b"a".to_vec(), b"b".to_vec()]).unwrap();
        let mut frame = server.transport.recv_frame().unwrap();
        frame[1] ^= 0x80;
        server.transport.tx.send(frame).ok(); // reinject toward client; open directly instead
        client.send_batch(&[b"c".to_vec()]).unwrap();
        let mut frame2 = server.transport.recv_frame().unwrap();
        frame2[0] ^= 1;
        assert!(server
            .recv
            .open_in_place(&mut frame2, &server.transcript)
            .is_err());
    }

    #[test]
    fn attestation_payload_delivered() {
        let client_cfg = ChannelConfig {
            attestation_payload: b"quote:client".to_vec(),
            ..ChannelConfig::default()
        };
        let server_cfg = ChannelConfig {
            attestation_payload: b"quote:server".to_vec(),
            ..ChannelConfig::default()
        };
        let (client, server) = pair_with(client_cfg, server_cfg);
        assert_eq!(client.unwrap().peer_attestation(), b"quote:server");
        assert_eq!(server.unwrap().peer_attestation(), b"quote:client");
    }

    #[test]
    fn expected_peer_mismatch_fails() {
        let wrong_key = Identity::generate("other").public_key();
        let client_cfg = ChannelConfig {
            expected_peer: Some(wrong_key),
            ..ChannelConfig::default()
        };
        let (client, _server) = pair_with(client_cfg, ChannelConfig::default());
        assert!(matches!(client, Err(CryptoError::Handshake(_))));
    }

    #[test]
    fn verify_peer_callback_can_reject() {
        let server_cfg = ChannelConfig {
            verify_peer: Some(Box::new(|_, payload| {
                if payload == b"valid quote" {
                    Ok(())
                } else {
                    Err("bad quote".into())
                }
            })),
            ..ChannelConfig::default()
        };
        let client_cfg = ChannelConfig {
            attestation_payload: b"forged".to_vec(),
            ..ChannelConfig::default()
        };
        let (_client, server) = pair_with(client_cfg, server_cfg);
        assert!(matches!(server, Err(CryptoError::Handshake(_))));
    }

    #[test]
    fn tampered_record_rejected() {
        let (client, server) = pair_with(ChannelConfig::default(), ChannelConfig::default());
        let mut client = client.unwrap();
        let mut server = server.unwrap();
        client.send(b"secret").unwrap();
        // Tamper in flight: pull the frame, flip a bit, reinject.
        let frame = server.transport.recv_frame().unwrap();
        let mut bad = frame;
        bad[0] ^= 1;
        server.transport.tx.send(bad).ok();
        // Reinjected frame goes to client side; instead verify directly:
        // decrypting a tampered frame fails.
        client.send(b"second").unwrap();
        let frame2 = server.transport.recv_frame().unwrap();
        let mut bad2 = frame2;
        bad2[3] ^= 0xff;
        assert!(server
            .recv
            .open_in_place(&mut bad2, &server.transcript)
            .is_err());
    }

    #[test]
    fn sessions_have_distinct_keys() {
        let (c1, _s1) = pair_with(ChannelConfig::default(), ChannelConfig::default());
        let (c2, _s2) = pair_with(ChannelConfig::default(), ChannelConfig::default());
        assert_ne!(c1.unwrap().session_id(), c2.unwrap().session_id());
    }

    #[test]
    fn closed_transport_errors() {
        let (a, b) = memory_pair();
        drop(b);
        let id = Identity::generate("x");
        let result = SecureChannel::initiate(a, &id, ChannelConfig::default());
        assert!(matches!(result, Err(CryptoError::TransportClosed)));
    }
}
