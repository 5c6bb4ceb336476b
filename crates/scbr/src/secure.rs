//! The secure router: SCBR's matching engine inside an enclave.
//!
//! "Outside of secure enclaves, both publications and subscriptions are
//! encrypted and signed ... SCBR combines a key exchange protocol and a
//! state-of-the-art routing engine" (§V-B). Clients run an X25519 exchange
//! with the router enclave and then submit sealed subscriptions and
//! publications; the router decrypts them only inside the enclave, matches,
//! and re-encrypts notifications per subscriber.

use crate::engine::MatchEngine;
use crate::index::{MatchScratch, PosetIndex};
use crate::types::{Publication, SubId, Subscription};
use crate::ScbrError;
use securecloud_crypto::gcm::{AesGcm, SealCtx, NONCE_LEN, TAG_LEN};
use securecloud_crypto::hmac::hkdf;
use securecloud_crypto::wire::Wire;
use securecloud_crypto::x25519::{self, PublicKey, SecretKey};
use securecloud_sgx::enclave::Enclave;
use securecloud_telemetry::{Telemetry, TraceContext, CONTEXT_WIRE_LEN};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;

/// Router-assigned client identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClientId(pub u64);

const DOMAIN_TO_ROUTER: u32 = 0x6332_7200; // "c2r"
const DOMAIN_TO_CLIENT: u32 = 0x7232_6300; // "r2c"

/// Cycles charged per byte of in-enclave AEAD work.
const AEAD_CYCLES_PER_BYTE: u64 = 2;

/// Both directions of one client↔router link: one key, and a nonce domain
/// and running counter per direction.
#[derive(Clone)]
struct Link {
    send: SealCtx,
    recv: SealCtx,
}

impl Link {
    fn new(shared: &[u8; 32], client_pub: &PublicKey, send_domain: u32, recv_domain: u32) -> Self {
        let cipher = AesGcm::new(&hkdf(b"scbr client key v1", shared, client_pub));
        Link {
            send: SealCtx::new(cipher.clone(), send_domain),
            recv: SealCtx::new(cipher, recv_domain),
        }
    }

    /// Opens the next sealed record from the peer into a fresh buffer.
    fn open(&mut self, sealed: &[u8], aad: &[u8]) -> Result<Vec<u8>, ScbrError> {
        let mut plain = sealed.to_vec();
        self.recv
            .open_in_place(&mut plain, aad)
            .map_err(ScbrError::Crypto)?;
        Ok(plain)
    }

    /// Seals the next `nonce || ciphertext || tag` frame in one
    /// exactly-sized buffer; `fill` appends the `body_len` plaintext bytes.
    fn seal_frame(
        &mut self,
        body_len: usize,
        aad: &[u8],
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Vec<u8> {
        let mut framed = Vec::with_capacity(NONCE_LEN + body_len + TAG_LEN);
        framed.extend_from_slice(&self.send.next_nonce());
        fill(&mut framed);
        let tag = self
            .send
            .seal_in_place_detached(&mut framed[NONCE_LEN..], aad);
        framed.extend_from_slice(&tag);
        framed
    }

    /// Opens the next frame sealed by the peer's [`Link::seal_frame`].
    fn open_frame(&mut self, framed: &[u8], aad: &[u8]) -> Result<Vec<u8>, ScbrError> {
        if framed.len() < NONCE_LEN
            || !securecloud_crypto::ct_eq(&framed[..NONCE_LEN], &self.recv.next_nonce())
        {
            return Err(ScbrError::Crypto(
                securecloud_crypto::CryptoError::AuthenticationFailed,
            ));
        }
        self.open(&framed[NONCE_LEN..], aad)
    }
}

/// The enclave-hosted secure content-based router.
pub struct SecureRouter {
    enclave: Enclave,
    engine: MatchEngine<PosetIndex>,
    secret: SecretKey,
    public: PublicKey,
    clients: HashMap<ClientId, Link>,
    /// The owner of every subscription, indexed by the engine's dense
    /// [`SubId`]s.
    owners: Vec<ClientId>,
    next_client: u64,
    telemetry: Option<Arc<Telemetry>>,
    switchless: bool,
}

impl std::fmt::Debug for SecureRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureRouter")
            .field("clients", &self.clients.len())
            .field("subscriptions", &self.engine.len())
            .finish_non_exhaustive()
    }
}

impl SecureRouter {
    /// Creates a router inside `enclave`, partitioning its index on
    /// `partition_attr` if given.
    #[must_use]
    pub fn new(enclave: Enclave, partition_attr: Option<&str>) -> Self {
        let (secret, public) = x25519::keypair();
        let index = match partition_attr {
            Some(attr) => PosetIndex::with_partition_attr(attr),
            None => PosetIndex::new(),
        };
        SecureRouter {
            enclave,
            engine: MatchEngine::new(index),
            secret,
            public,
            clients: HashMap::new(),
            owners: Vec::new(),
            next_client: 1,
            telemetry: None,
            switchless: false,
        }
    }

    /// Routes in-enclave matching over the switchless plane: each publish
    /// charges a submission/completion ring-slot pair instead of a full
    /// ECALL/OCALL transition (the enclave thread is assumed resident, as
    /// under SCONE's asynchronous syscall threads).
    pub fn set_switchless(&mut self, switchless: bool) {
        self.switchless = switchless;
    }

    /// Whether matching runs over the switchless plane.
    #[must_use]
    pub fn is_switchless(&self) -> bool {
        self.switchless
    }

    /// Runs `body` inside the enclave on whichever call plane is selected.
    fn enter<R>(
        enclave: &mut Enclave,
        switchless: bool,
        body: impl FnOnce(&mut securecloud_sgx::mem::MemorySim) -> R,
    ) -> Result<R, securecloud_sgx::SgxError> {
        if switchless {
            enclave.switchless_call(body)
        } else {
            enclave.ecall(body)
        }
    }

    /// Attaches shared telemetry: traced sealed batches (see
    /// [`RouterClient::seal_publication_batch_traced`]) get an in-enclave
    /// matching span joined to the sender's trace.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// The router's key-exchange public key (distributed via attestation).
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// The enclave hosting the router.
    #[must_use]
    pub fn enclave(&self) -> &Enclave {
        &self.enclave
    }

    /// Mutable enclave access (benchmarks read the simulated clock).
    pub fn enclave_mut(&mut self) -> &mut Enclave {
        &mut self.enclave
    }

    /// Match-engine statistics.
    #[must_use]
    pub fn stats(&self) -> crate::engine::EngineStats {
        self.engine.stats()
    }

    /// Completes the key exchange for a client and registers it.
    pub fn register(&mut self, client_public: &PublicKey) -> ClientId {
        let shared = x25519::diffie_hellman(&self.secret, client_public);
        let id = ClientId(self.next_client);
        self.next_client += 1;
        // X25519 inside the enclave.
        self.enclave.memory().charge_cycles(150_000);
        let link = Link::new(&shared, client_public, DOMAIN_TO_CLIENT, DOMAIN_TO_ROUTER);
        self.clients.insert(id, link);
        id
    }

    /// Processes a sealed subscription from `client`.
    ///
    /// # Errors
    ///
    /// [`ScbrError::UnknownClient`], [`ScbrError::Crypto`] (tampering or
    /// replay — the expected sequence number is part of the nonce).
    pub fn subscribe_sealed(
        &mut self,
        client: ClientId,
        sealed: &[u8],
    ) -> Result<SubId, ScbrError> {
        let state = self
            .clients
            .get_mut(&client)
            .ok_or(ScbrError::UnknownClient(client))?;
        let plain = state.open(sealed, b"scbr-sub")?;
        let sub = Subscription::from_wire(&plain).map_err(ScbrError::Crypto)?;
        let mem = self.enclave.memory();
        mem.charge_cycles(sealed.len() as u64 * AEAD_CYCLES_PER_BYTE);
        let id = self.engine.subscribe(mem, sub);
        assert_eq!(
            id.0,
            self.owners.len() as u64,
            "the engine hands out dense subscription ids"
        );
        self.owners.push(client);
        Ok(id)
    }

    /// The owner of a subscription the engine matched.
    fn owner_of(owners: &[ClientId], sub_id: SubId) -> Result<ClientId, ScbrError> {
        usize::try_from(sub_id.0)
            .ok()
            .and_then(|index| owners.get(index))
            .copied()
            .ok_or(ScbrError::UnknownSubscription(sub_id))
    }

    /// Processes a sealed publication from `client`: decrypts, matches, and
    /// returns one sealed notification per matching subscription, encrypted
    /// for the owning subscriber.
    ///
    /// Decryption and matching run inside one enclave transition, so every
    /// single-message publish pays a full ECALL/OCALL pair (compare
    /// [`Self::publish_sealed_batch`], which amortizes that over a batch).
    ///
    /// # Errors
    ///
    /// [`ScbrError::UnknownClient`], [`ScbrError::Crypto`],
    /// [`ScbrError::Enclave`], [`ScbrError::UnknownSubscription`].
    pub fn publish_sealed(
        &mut self,
        client: ClientId,
        sealed: &[u8],
    ) -> Result<Vec<(SubId, Vec<u8>)>, ScbrError> {
        let state = self
            .clients
            .get_mut(&client)
            .ok_or(ScbrError::UnknownClient(client))?;
        let plain = state.open(sealed, b"scbr-pub")?;
        let publication = Publication::from_wire(&plain).map_err(ScbrError::Crypto)?;

        let aead_cost = sealed.len() as u64 * AEAD_CYCLES_PER_BYTE;
        let engine = &mut self.engine;
        let matches = Self::enter(&mut self.enclave, self.switchless, |mem| {
            mem.charge_cycles(aead_cost);
            engine.publish(mem, &publication)
        })?;

        let mut notifications = Vec::with_capacity(matches.len());
        for sub_id in matches {
            let owner = Self::owner_of(&self.owners, sub_id)?;
            let owner_state = self
                .clients
                .get_mut(&owner)
                .ok_or(ScbrError::UnknownClient(owner))?;
            let framed = owner_state.seal_frame(plain.len(), b"scbr-notify", |framed| {
                framed.extend_from_slice(&plain);
            });
            self.enclave
                .memory()
                .charge_cycles(plain.len() as u64 * AEAD_CYCLES_PER_BYTE);
            notifications.push((sub_id, framed));
        }
        Ok(notifications)
    }

    /// Processes a sealed *batch* of publications from `client`.
    ///
    /// The whole batch arrives as one AEAD frame (one nonce, one tag — see
    /// [`RouterClient::seal_publication_batch`]), is opened and matched
    /// inside a *single* enclave transition, and the matched publications
    /// are fanned out as one sealed notification frame per subscriber:
    /// the returned pairs are `(owner, frame)` where each frame carries
    /// every publication that matched one of that owner's subscriptions,
    /// in batch order. Compared to N calls to [`Self::publish_sealed`],
    /// this charges one ECALL/OCALL pair instead of N and one GHASH
    /// setup per frame instead of per message.
    ///
    /// # Errors
    ///
    /// [`ScbrError::UnknownClient`], [`ScbrError::Crypto`],
    /// [`ScbrError::Enclave`], [`ScbrError::UnknownSubscription`].
    pub fn publish_sealed_batch(
        &mut self,
        client: ClientId,
        sealed: &[u8],
    ) -> Result<Vec<(ClientId, Vec<u8>)>, ScbrError> {
        let state = self
            .clients
            .get_mut(&client)
            .ok_or(ScbrError::UnknownClient(client))?;
        let plain = state.open(sealed, b"scbr-pub-batch")?;
        // Batch frames lead with a fixed-width causal context (all-zero =
        // untraced) — inside the AEAD envelope, so trace linkage cannot be
        // forged or stripped in transit.
        if plain.len() < CONTEXT_WIRE_LEN {
            return Err(ScbrError::Crypto(
                securecloud_crypto::CryptoError::AuthenticationFailed,
            ));
        }
        let ctx = TraceContext::decode(&plain[..CONTEXT_WIRE_LEN]).unwrap_or_default();
        let publications =
            Vec::<Publication>::from_wire(&plain[CONTEXT_WIRE_LEN..]).map_err(ScbrError::Crypto)?;

        // One enclave transition for the whole batch: the AEAD open charge
        // and every match run inside a single ECALL/OCALL pair.
        let _span = match &self.telemetry {
            Some(t) if !ctx.is_none() => Some(t.span_ctx(
                "scbr",
                "match_batch",
                vec![("publications", publications.len().to_string())],
                t.mint_child(ctx),
            )),
            None | Some(_) => None,
        };
        let aead_cost = sealed.len() as u64 * AEAD_CYCLES_PER_BYTE;
        let engine = &mut self.engine;
        let mut scratch = MatchScratch::default();
        // Where each publication's matches end in `scratch.matched`.
        let mut match_ends = Vec::with_capacity(publications.len());
        Self::enter(&mut self.enclave, self.switchless, |mem| {
            mem.charge_cycles(aead_cost);
            for publication in &publications {
                engine.publish_with(mem, publication, &mut scratch);
                match_ends.push(scratch.matched.len());
            }
        })?;

        // Encode every matched publication once — re-encoded, not sliced out
        // of `plain`: decoding sorts attributes and drops duplicates, and the
        // frames carry that canonical form (never longer than what it was
        // decoded from). Then group per owning subscriber,
        // preserving batch order within each owner; BTreeMap keeps the
        // fan-out order deterministic. A publication matching two
        // subscriptions of the same owner is delivered twice, exactly like
        // the single path.
        let mut encoded = Vec::with_capacity(plain.len());
        let mut per_owner: BTreeMap<u64, Vec<Range<usize>>> = BTreeMap::new();
        let mut match_start = 0;
        for (publication, match_end) in publications.iter().zip(match_ends) {
            let matches = &scratch.matched[match_start..match_end];
            match_start = match_end;
            if matches.is_empty() {
                continue;
            }
            let encoded_start = encoded.len();
            publication.encode(&mut encoded);
            for sub_id in matches {
                per_owner
                    .entry(Self::owner_of(&self.owners, *sub_id)?.0)
                    .or_default()
                    .push(encoded_start..encoded.len());
            }
        }

        let mut notifications = Vec::with_capacity(per_owner.len());
        for (owner_raw, matched) in per_owner {
            let owner = ClientId(owner_raw);
            let owner_state = self
                .clients
                .get_mut(&owner)
                .ok_or(ScbrError::UnknownClient(owner))?;
            // One frame per owner: the count, then the publications.
            let body_len = 4 + matched.iter().map(Range::len).sum::<usize>();
            let framed = owner_state.seal_frame(body_len, b"scbr-notify-batch", |framed| {
                (matched.len() as u32).encode(framed);
                for publication in matched {
                    framed.extend_from_slice(&encoded[publication]);
                }
            });
            self.enclave
                .memory()
                .charge_cycles(body_len as u64 * AEAD_CYCLES_PER_BYTE);
            notifications.push((owner, framed));
        }
        Ok(notifications)
    }
}

/// Client-side companion: key exchange and sealing helpers.
#[derive(Clone)]
pub struct RouterClient {
    secret: SecretKey,
    public: PublicKey,
    link: Option<Link>,
}

impl std::fmt::Debug for RouterClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterClient")
            .field("public", &securecloud_crypto::hex(&self.public))
            .finish_non_exhaustive()
    }
}

impl Default for RouterClient {
    fn default() -> Self {
        Self::new()
    }
}

impl RouterClient {
    /// Generates a fresh client keypair.
    #[must_use]
    pub fn new() -> Self {
        let (secret, public) = x25519::keypair();
        RouterClient {
            secret,
            public,
            link: None,
        }
    }

    /// The client's public key, to be sent to the router.
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// Completes the exchange with the router's public key.
    pub fn complete_exchange(&mut self, router_public: &PublicKey) {
        let shared = x25519::diffie_hellman(&self.secret, router_public);
        let link = Link::new(&shared, &self.public, DOMAIN_TO_ROUTER, DOMAIN_TO_CLIENT);
        self.link = Some(link);
    }

    fn link(&mut self) -> Result<&mut Link, ScbrError> {
        self.link.as_mut().ok_or(ScbrError::ExchangeIncomplete)
    }

    /// Seals a subscription for the router.
    ///
    /// # Errors
    ///
    /// [`ScbrError::ExchangeIncomplete`] before [`Self::complete_exchange`].
    pub fn seal_subscription(&mut self, sub: &Subscription) -> Result<Vec<u8>, ScbrError> {
        // Seal the wire encoding in place rather than copying it.
        let mut sealed = sub.to_wire();
        self.link()?.send.seal_in_place(&mut sealed, b"scbr-sub");
        Ok(sealed)
    }

    /// Seals a publication for the router.
    ///
    /// # Errors
    ///
    /// [`ScbrError::ExchangeIncomplete`] before [`Self::complete_exchange`].
    pub fn seal_publication(&mut self, publication: &Publication) -> Result<Vec<u8>, ScbrError> {
        // Seal the wire encoding in place rather than copying it.
        let mut sealed = publication.to_wire();
        self.link()?.send.seal_in_place(&mut sealed, b"scbr-pub");
        Ok(sealed)
    }

    /// Seals a batch of publications into a single AEAD frame for the
    /// router: one nonce, one sequence number, and one tag for the whole
    /// batch, so a batch of N costs one seal instead of N.
    ///
    /// # Errors
    ///
    /// [`ScbrError::ExchangeIncomplete`] before [`Self::complete_exchange`].
    pub fn seal_publication_batch(
        &mut self,
        publications: &[Publication],
    ) -> Result<Vec<u8>, ScbrError> {
        self.seal_publication_batch_traced(publications, TraceContext::none())
    }

    /// [`RouterClient::seal_publication_batch`] carrying a causal trace
    /// context inside the sealed frame. The context travels under the AEAD
    /// tag (an all-zero header encodes "untraced"), so the router can join
    /// its in-enclave matching span to the sender's trace without the
    /// linkage being forgeable or strippable outside the enclaves.
    ///
    /// # Errors
    ///
    /// [`ScbrError::ExchangeIncomplete`] before [`Self::complete_exchange`].
    pub fn seal_publication_batch_traced(
        &mut self,
        publications: &[Publication],
        ctx: TraceContext,
    ) -> Result<Vec<u8>, ScbrError> {
        let link = self.link()?;
        // Fixed-width context header, then the `Vec<Publication>` wire
        // encoding: count, then each item.
        let mut sealed = ctx.encode().to_vec();
        (publications.len() as u32).encode(&mut sealed);
        for publication in publications {
            publication.encode(&mut sealed);
        }
        link.send.seal_in_place(&mut sealed, b"scbr-pub-batch");
        Ok(sealed)
    }

    /// Opens a batched notification frame from the router, returning the
    /// matched publications in batch order.
    ///
    /// # Errors
    ///
    /// [`ScbrError::Crypto`] on tampering or replay.
    pub fn open_notification_batch(
        &mut self,
        framed: &[u8],
    ) -> Result<Vec<Publication>, ScbrError> {
        let plain = self.link()?.open_frame(framed, b"scbr-notify-batch")?;
        Vec::<Publication>::from_wire(&plain).map_err(ScbrError::Crypto)
    }

    /// Opens a notification from the router.
    ///
    /// # Errors
    ///
    /// [`ScbrError::Crypto`] on tampering or replay.
    pub fn open_notification(&mut self, framed: &[u8]) -> Result<Publication, ScbrError> {
        let plain = self.link()?.open_frame(framed, b"scbr-notify")?;
        Publication::from_wire(&plain).map_err(ScbrError::Crypto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Op, Predicate, Value};
    use securecloud_sgx::enclave::{EnclaveConfig, Platform};

    fn router() -> SecureRouter {
        let platform = Platform::new();
        let enclave = platform
            .launch(EnclaveConfig::new("scbr", b"router code"))
            .unwrap();
        SecureRouter::new(enclave, Some("topic"))
    }

    fn sub(topic: i64, lo: i64) -> Subscription {
        Subscription::new(vec![
            Predicate::new("topic", Op::Eq, Value::Int(topic)),
            Predicate::new("v", Op::Ge, Value::Int(lo)),
        ])
    }

    fn publication(topic: i64, v: i64) -> Publication {
        Publication::new()
            .with("topic", Value::Int(topic))
            .with("v", Value::Int(v))
    }

    #[test]
    fn end_to_end_encrypted_pubsub() {
        let mut router = router();
        let mut subscriber = RouterClient::new();
        let mut publisher = RouterClient::new();
        let sub_id = router.register(&subscriber.public_key());
        let pub_id = router.register(&publisher.public_key());
        subscriber.complete_exchange(&router.public_key());
        publisher.complete_exchange(&router.public_key());

        let sealed_sub = subscriber.seal_subscription(&sub(1, 10)).unwrap();
        let sid = router.subscribe_sealed(sub_id, &sealed_sub).unwrap();

        let p = publication(1, 42);
        let sealed_pub = publisher.seal_publication(&p).unwrap();
        let notifications = router.publish_sealed(pub_id, &sealed_pub).unwrap();
        assert_eq!(notifications.len(), 1);
        assert_eq!(notifications[0].0, sid);
        let received = subscriber.open_notification(&notifications[0].1).unwrap();
        assert_eq!(received, p);
        assert!(router.enclave_mut().memory().cycles() > 0);
    }

    #[test]
    fn non_matching_publication_produces_no_notifications() {
        let mut router = router();
        let mut subscriber = RouterClient::new();
        let sub_client = router.register(&subscriber.public_key());
        subscriber.complete_exchange(&router.public_key());
        let sealed = subscriber.seal_subscription(&sub(1, 100)).unwrap();
        router.subscribe_sealed(sub_client, &sealed).unwrap();
        let sealed_pub = subscriber.seal_publication(&publication(1, 5)).unwrap();
        let notifications = router.publish_sealed(sub_client, &sealed_pub).unwrap();
        assert!(notifications.is_empty());
    }

    #[test]
    fn tampered_submission_rejected() {
        let mut router = router();
        let mut client = RouterClient::new();
        let id = router.register(&client.public_key());
        client.complete_exchange(&router.public_key());
        let mut sealed = client.seal_subscription(&sub(1, 0)).unwrap();
        sealed[0] ^= 1;
        assert!(matches!(
            router.subscribe_sealed(id, &sealed),
            Err(ScbrError::Crypto(_))
        ));
    }

    #[test]
    fn replayed_submission_rejected() {
        let mut router = router();
        let mut client = RouterClient::new();
        let id = router.register(&client.public_key());
        client.complete_exchange(&router.public_key());
        let sealed = client.seal_subscription(&sub(1, 0)).unwrap();
        router.subscribe_sealed(id, &sealed).unwrap();
        // The router's expected sequence has advanced; replay fails.
        assert!(matches!(
            router.subscribe_sealed(id, &sealed),
            Err(ScbrError::Crypto(_))
        ));
    }

    #[test]
    fn unknown_client_and_incomplete_exchange() {
        let mut router = router();
        assert!(matches!(
            router.subscribe_sealed(ClientId(99), b"x"),
            Err(ScbrError::UnknownClient(_))
        ));
        let mut client = RouterClient::new();
        assert!(matches!(
            client.seal_subscription(&sub(1, 0)),
            Err(ScbrError::ExchangeIncomplete)
        ));
    }

    #[test]
    fn cross_client_confidentiality() {
        // A notification for subscriber A cannot be opened by subscriber B.
        let mut router = router();
        let mut alice = RouterClient::new();
        let mut bob = RouterClient::new();
        let alice_id = router.register(&alice.public_key());
        let _bob_id = router.register(&bob.public_key());
        alice.complete_exchange(&router.public_key());
        bob.complete_exchange(&router.public_key());
        let sealed = alice.seal_subscription(&sub(1, 0)).unwrap();
        router.subscribe_sealed(alice_id, &sealed).unwrap();
        let sealed_pub = alice.seal_publication(&publication(1, 7)).unwrap();
        let notifications = router.publish_sealed(alice_id, &sealed_pub).unwrap();
        assert!(bob.open_notification(&notifications[0].1).is_err());
        assert!(alice.open_notification(&notifications[0].1).is_ok());
    }

    #[test]
    fn traced_batch_carries_context_inside_sealed_frame() {
        use securecloud_telemetry::Phase;
        let mut router = router();
        let telemetry = Arc::new(Telemetry::new());
        telemetry.set_trace_seed(9);
        router.set_telemetry(Arc::clone(&telemetry));
        let mut subscriber = RouterClient::new();
        let mut publisher = RouterClient::new();
        let sub_client = router.register(&subscriber.public_key());
        let pub_client = router.register(&publisher.public_key());
        subscriber.complete_exchange(&router.public_key());
        publisher.complete_exchange(&router.public_key());
        let sealed_sub = subscriber.seal_subscription(&sub(1, 0)).unwrap();
        router.subscribe_sealed(sub_client, &sealed_sub).unwrap();

        let root = telemetry.mint_root();
        let batch = vec![publication(1, 7), publication(1, 9)];
        let sealed = publisher
            .seal_publication_batch_traced(&batch, root)
            .unwrap();
        let notifications = router.publish_sealed_batch(pub_client, &sealed).unwrap();
        assert_eq!(notifications.len(), 1);
        assert_eq!(
            subscriber
                .open_notification_batch(&notifications[0].1)
                .unwrap(),
            batch
        );
        // The router's in-enclave matching span joined the sender's trace —
        // the linkage travelled inside the AEAD frame.
        let events = telemetry.trace_events();
        let begin = events
            .iter()
            .find(|e| e.phase == Phase::Begin && e.name == "match_batch")
            .expect("match span emitted");
        assert_eq!(begin.trace_id, root.trace_id);
        assert_eq!(begin.parent_span_id, root.span_id);

        // An untraced batch (all-zero header) emits no causal span.
        let sealed = publisher.seal_publication_batch(&batch).unwrap();
        router.publish_sealed_batch(pub_client, &sealed).unwrap();
        let spans = telemetry
            .trace_events()
            .iter()
            .filter(|e| e.phase == Phase::Begin && e.name == "match_batch")
            .count();
        assert_eq!(spans, 1, "untraced batches stay untraced");
    }

    #[test]
    fn batch_publish_fans_out_per_owner() {
        let mut router = router();
        let mut alice = RouterClient::new();
        let mut bob = RouterClient::new();
        let mut publisher = RouterClient::new();
        let alice_id = router.register(&alice.public_key());
        let bob_id = router.register(&bob.public_key());
        let pub_id = router.register(&publisher.public_key());
        alice.complete_exchange(&router.public_key());
        bob.complete_exchange(&router.public_key());
        publisher.complete_exchange(&router.public_key());

        // Alice wants v >= 10 on topic 1; Bob wants v >= 100 on topic 1.
        let sealed = alice.seal_subscription(&sub(1, 10)).unwrap();
        router.subscribe_sealed(alice_id, &sealed).unwrap();
        let sealed = bob.seal_subscription(&sub(1, 100)).unwrap();
        router.subscribe_sealed(bob_id, &sealed).unwrap();

        let batch = vec![
            publication(1, 50),  // alice only
            publication(1, 500), // alice and bob
            publication(2, 999), // nobody (wrong topic)
        ];
        let sealed = publisher.seal_publication_batch(&batch).unwrap();
        let notifications = router.publish_sealed_batch(pub_id, &sealed).unwrap();

        // One frame per subscriber with matches, owners in id order.
        assert_eq!(notifications.len(), 2);
        assert_eq!(notifications[0].0, alice_id);
        assert_eq!(notifications[1].0, bob_id);
        let for_alice = alice.open_notification_batch(&notifications[0].1).unwrap();
        assert_eq!(for_alice, vec![publication(1, 50), publication(1, 500)]);
        let for_bob = bob.open_notification_batch(&notifications[1].1).unwrap();
        assert_eq!(for_bob, vec![publication(1, 500)]);
    }

    /// Frames re-encode the decoded publications; they do not slice the
    /// sender's bytes. A hand-written batch body with unsorted and duplicated
    /// attribute keys is delivered in canonical form (sorted keys, last
    /// duplicate wins), once per matching subscription, in batch order, in
    /// exactly-sized frames.
    #[test]
    fn batch_frames_carry_the_canonical_encoding() {
        let mut router = router();
        let mut alice = RouterClient::new();
        let mut bob = RouterClient::new();
        let mut publisher = RouterClient::new();
        let alice_id = router.register(&alice.public_key());
        let bob_id = router.register(&bob.public_key());
        let pub_id = router.register(&publisher.public_key());
        for client in [&mut alice, &mut bob, &mut publisher] {
            client.complete_exchange(&router.public_key());
        }
        for (alices, id, lo) in [
            (true, alice_id, 10),
            (false, bob_id, 100),
            (true, alice_id, 60),
        ] {
            let client = if alices { &mut alice } else { &mut bob };
            let sealed = client.seal_subscription(&sub(1, lo)).unwrap();
            router.subscribe_sealed(id, &sealed).unwrap();
        }

        let attr = |out: &mut Vec<u8>, name: &str, v: i64| {
            name.to_string().encode(out);
            Value::Int(v).encode(out);
        };
        let mut body = Vec::new();
        3u32.encode(&mut body);
        3u32.encode(&mut body); // unsorted, "v" twice: the later 500 wins
        attr(&mut body, "v", 50);
        attr(&mut body, "topic", 1);
        attr(&mut body, "v", 500);
        publication(2, 999).encode(&mut body); // nobody
        2u32.encode(&mut body); // unsorted
        attr(&mut body, "v", 20);
        attr(&mut body, "topic", 1);
        let mut sealed = TraceContext::none().encode().to_vec();
        sealed.extend_from_slice(&body);
        let link = publisher.link().unwrap();
        link.send.seal_in_place(&mut sealed, b"scbr-pub-batch");

        let frames = router.publish_sealed_batch(pub_id, &sealed).unwrap();
        let (first, last) = (publication(1, 500), publication(1, 20));
        let want = [
            (alice_id, &alice, vec![first.clone(), first.clone(), last]),
            (bob_id, &bob, vec![first]),
        ];
        assert_eq!(frames.len(), want.len());
        for ((owner, frame), (want_owner, client, publications)) in frames.iter().zip(&want) {
            assert_eq!(owner, want_owner);
            assert_eq!(frame.capacity(), frame.len(), "exactly-sized frame");
            let mut link = client.link.clone().unwrap();
            let plain = link.open_frame(frame, b"scbr-notify-batch").unwrap();
            assert_eq!(plain, publications.to_wire());
        }
    }

    #[test]
    fn a_subscription_without_an_owner_is_an_error_not_a_panic() {
        let owners = [ClientId(7)];
        assert_eq!(SecureRouter::owner_of(&owners, SubId(0)), Ok(ClientId(7)));
        for stray in [1, u64::MAX] {
            assert_eq!(
                SecureRouter::owner_of(&owners, SubId(stray)),
                Err(ScbrError::UnknownSubscription(SubId(stray)))
            );
        }
    }

    #[test]
    fn batch_matching_equals_single_matching() {
        // The same publications produce the same per-owner deliveries
        // whether published one at a time or as a batch.
        let mut batch_router = router();
        let mut single_router = router();
        let publications: Vec<Publication> = (0..16).map(|v| publication(1, v * 20)).collect();

        let mut deliveries_single: Vec<Publication> = Vec::new();
        let mut deliveries_batch: Vec<Publication> = Vec::new();

        for (router, deliveries, batched) in [
            (&mut batch_router, &mut deliveries_batch, true),
            (&mut single_router, &mut deliveries_single, false),
        ] {
            let mut subscriber = RouterClient::new();
            let mut publisher = RouterClient::new();
            let sub_id = router.register(&subscriber.public_key());
            let pub_id = router.register(&publisher.public_key());
            subscriber.complete_exchange(&router.public_key());
            publisher.complete_exchange(&router.public_key());
            let sealed = subscriber.seal_subscription(&sub(1, 100)).unwrap();
            router.subscribe_sealed(sub_id, &sealed).unwrap();

            if batched {
                let sealed = publisher.seal_publication_batch(&publications).unwrap();
                for (_, framed) in router.publish_sealed_batch(pub_id, &sealed).unwrap() {
                    deliveries.extend(subscriber.open_notification_batch(&framed).unwrap());
                }
            } else {
                for p in &publications {
                    let sealed = publisher.seal_publication(p).unwrap();
                    for (_, framed) in router.publish_sealed(pub_id, &sealed).unwrap() {
                        deliveries.push(subscriber.open_notification(&framed).unwrap());
                    }
                }
            }
        }
        assert!(!deliveries_single.is_empty());
        assert_eq!(deliveries_batch, deliveries_single);
    }

    #[test]
    fn batch_amortizes_enclave_transitions() {
        // A 16-publication batch pays one ECALL/OCALL pair; 16 singles pay
        // 16. The simulated transition cycles must reflect that.
        let mut batch_router = router();
        let mut single_router = router();
        let publications: Vec<Publication> = (0..16).map(|v| publication(1, v)).collect();
        let mut costs = Vec::new();

        for (router, batched) in [(&mut batch_router, true), (&mut single_router, false)] {
            let mut publisher = RouterClient::new();
            let pub_id = router.register(&publisher.public_key());
            publisher.complete_exchange(&router.public_key());
            let before = router.enclave_mut().memory().cycles();
            if batched {
                let sealed = publisher.seal_publication_batch(&publications).unwrap();
                router.publish_sealed_batch(pub_id, &sealed).unwrap();
            } else {
                for p in &publications {
                    let sealed = publisher.seal_publication(p).unwrap();
                    router.publish_sealed(pub_id, &sealed).unwrap();
                }
            }
            costs.push(router.enclave_mut().memory().cycles() - before);
        }
        let (batch_cost, single_cost) = (costs[0], costs[1]);
        assert!(
            batch_cost * 2 < single_cost,
            "batch {batch_cost} vs singles {single_cost}"
        );
    }

    #[test]
    fn tampered_or_replayed_batch_rejected() {
        let mut router = router();
        let batch = vec![publication(1, 1), publication(1, 2)];

        // Tampering: a failed open does not advance the router's expected
        // sequence, so each negative case gets its own (now desynced) client.
        let mut mallory = RouterClient::new();
        let mallory_id = router.register(&mallory.public_key());
        mallory.complete_exchange(&router.public_key());
        let mut sealed = mallory.seal_publication_batch(&batch).unwrap();
        sealed[0] ^= 1;
        assert!(matches!(
            router.publish_sealed_batch(mallory_id, &sealed),
            Err(ScbrError::Crypto(_))
        ));

        // Cross-format confusion: a single-message frame is not accepted
        // by the batch path (the AADs differ).
        let mut trudy = RouterClient::new();
        let trudy_id = router.register(&trudy.public_key());
        trudy.complete_exchange(&router.public_key());
        let single = trudy.seal_publication(&publication(1, 3)).unwrap();
        assert!(matches!(
            router.publish_sealed_batch(trudy_id, &single),
            Err(ScbrError::Crypto(_))
        ));

        // Replay: an accepted batch cannot be accepted twice.
        let mut publisher = RouterClient::new();
        let pub_id = router.register(&publisher.public_key());
        publisher.complete_exchange(&router.public_key());
        let sealed = publisher.seal_publication_batch(&batch).unwrap();
        router.publish_sealed_batch(pub_id, &sealed).unwrap();
        assert!(matches!(
            router.publish_sealed_batch(pub_id, &sealed),
            Err(ScbrError::Crypto(_))
        ));
    }

    #[test]
    fn switchless_matching_is_identical_and_cheaper() {
        // The switchless plane must change only the call cost, never the
        // routing outcome: same notifications byte-for-byte given the same
        // key material, and strictly fewer cycles (ring slots vs ECALLs).
        let mut costs = Vec::new();
        let mut frames: Vec<Vec<Vec<u8>>> = Vec::new();
        for switchless in [false, true] {
            let mut router = router();
            router.set_switchless(switchless);
            assert_eq!(router.is_switchless(), switchless);
            let mut subscriber = RouterClient::new();
            let mut publisher = RouterClient::new();
            let sub_id = router.register(&subscriber.public_key());
            let pub_id = router.register(&publisher.public_key());
            subscriber.complete_exchange(&router.public_key());
            publisher.complete_exchange(&router.public_key());
            let sealed = subscriber.seal_subscription(&sub(1, 10)).unwrap();
            router.subscribe_sealed(sub_id, &sealed).unwrap();

            let before = router.enclave_mut().memory().cycles();
            let mut opened = Vec::new();
            for v in 0..16 {
                let sealed = publisher.seal_publication(&publication(1, v * 5)).unwrap();
                for (_, framed) in router.publish_sealed(pub_id, &sealed).unwrap() {
                    opened.push(subscriber.open_notification(&framed).unwrap().to_wire());
                }
            }
            costs.push(router.enclave_mut().memory().cycles() - before);
            frames.push(opened);
        }
        assert_eq!(frames[0], frames[1], "routing outcome must not change");
        assert!(
            costs[1] < costs[0],
            "switchless {} vs transitions {}",
            costs[1],
            costs[0]
        );
    }

    #[test]
    fn destroyed_enclave_surfaces_enclave_error() {
        let mut router = router();
        let mut publisher = RouterClient::new();
        let pub_id = router.register(&publisher.public_key());
        publisher.complete_exchange(&router.public_key());
        router.enclave_mut().destroy();
        let sealed = publisher.seal_publication(&publication(1, 1)).unwrap();
        assert!(matches!(
            router.publish_sealed(pub_id, &sealed),
            Err(ScbrError::Enclave(_))
        ));
    }
}
