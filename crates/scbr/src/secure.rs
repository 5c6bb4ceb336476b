//! The secure router: SCBR's matching engine inside an enclave.
//!
//! "Outside of secure enclaves, both publications and subscriptions are
//! encrypted and signed ... SCBR combines a key exchange protocol and a
//! state-of-the-art routing engine" (§V-B). Clients run an X25519 exchange
//! with the router enclave and then submit sealed subscriptions and
//! publications; the router decrypts them only inside the enclave, matches,
//! and re-encrypts notifications per subscriber.

use crate::engine::{Layout, MatchEngine};
use crate::index::{MatchScratch, PosetIndex};
use crate::notify::Notifications;
use crate::types::{Publication, SubId, Subscription};
use crate::ScbrError;
use securecloud_crypto::gcm::{AesGcm, SealCtx, TAG_LEN};
use securecloud_crypto::hmac::hkdf;
use securecloud_crypto::wire::{encode_seq, Wire};
use securecloud_crypto::x25519::{self, PublicKey, SecretKey};
use securecloud_sgx::enclave::Enclave;
use securecloud_telemetry::{Telemetry, TraceContext, CONTEXT_WIRE_LEN};
use std::collections::{BTreeMap, HashMap};
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
    /// `partition_attr` if given. Its engine keeps subscription payloads
    /// apart from the match records ([`Layout::Split`]): fan-out reads
    /// `owners`, never a payload.
    #[must_use]
    pub fn new(enclave: Enclave, partition_attr: Option<&str>) -> Self {
        let (secret, public) = x25519::keypair();
        let index = match partition_attr {
            Some(attr) => PosetIndex::with_partition_attr(attr),
            None => PosetIndex::new(),
        };
        SecureRouter {
            enclave,
            engine: MatchEngine::with_layout(index, Layout::Split),
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

    /// Processes a sealed batch of publications from `client`; a single
    /// publication is a batch of one.
    ///
    /// The whole batch arrives as one AEAD frame (one nonce, one tag — see
    /// [`RouterClient::seal_publication_batch`]), is opened and matched
    /// inside a *single* enclave transition, and the matched publications
    /// are fanned out as one sealed notification frame per subscriber:
    /// the returned pairs are `(owner, frame)` where each frame carries
    /// every publication that matched one of that owner's subscriptions
    /// once, in batch order, as the bytes the batch's [`Notifications`] view
    /// validated, and how many of the owner's subscriptions matched it when
    /// that is more than one for some publication. Compared to N batches of
    /// one, a batch of N charges one ECALL/OCALL pair instead of N and one
    /// GHASH setup per frame instead of per message.
    ///
    /// # Errors
    ///
    /// [`ScbrError::UnknownClient`], [`ScbrError::Crypto`] (also on a
    /// non-canonical publication, and on a batch that carries a
    /// multiplicity list), [`ScbrError::Enclave`],
    /// [`ScbrError::UnknownSubscription`].
    pub fn publish_sealed_batch(
        &mut self,
        client: ClientId,
        sealed: &[u8],
    ) -> Result<Vec<(ClientId, Vec<u8>)>, ScbrError> {
        let state = self
            .clients
            .get_mut(&client)
            .ok_or(ScbrError::UnknownClient(client))?;
        let mut plain = state.open(sealed, b"scbr-pub-batch")?;
        // Batch frames lead with a fixed-width causal context (all-zero =
        // untraced) — inside the AEAD envelope, so trace linkage cannot be
        // forged or stripped in transit.
        let Some(header) = plain.get(..CONTEXT_WIRE_LEN) else {
            let len = plain.len();
            let error = format!("{len}-byte batch is shorter than its trace-context header");
            return Err(securecloud_crypto::CryptoError::Malformed(error).into());
        };
        let ctx = TraceContext::decode(header).unwrap_or_default();
        plain.drain(..CONTEXT_WIRE_LEN);
        let publications = Notifications::parse(plain)?;
        // Multiplicities are the router's to write: a publisher's list would
        // buy up to 2^32 - 1 deliveries for four bytes.
        if publications.len() != publications.distinct() {
            let error = "a publisher batch carries a multiplicity list".to_owned();
            return Err(securecloud_crypto::CryptoError::Malformed(error).into());
        }

        // One enclave transition for the whole batch: the AEAD open charge
        // and every match run inside a single ECALL/OCALL pair.
        let telemetry = self.telemetry.clone();
        let _span = match &telemetry {
            Some(t) if !ctx.is_none() => Some(t.span(
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
        let mut match_ends = Vec::with_capacity(publications.distinct());
        Self::enter(&mut self.enclave, self.switchless, |mem| {
            mem.charge_cycles(aead_cost);
            for (publication, _) in publications.iter() {
                engine.publish_with(mem, publication, &mut scratch);
                match_ends.push(scratch.matched.len());
            }
        })?;

        // Group the matched publications' validated bytes per owning
        // subscriber, preserving batch order within each owner; BTreeMap
        // keeps the fan-out order deterministic. A publication matching k
        // subscriptions of one owner is one entry with multiplicity k: the
        // frame carries its bytes once. Distinct publications are disjoint,
        // non-empty ranges of one buffer, so the slice identifies one.
        let mut per_owner: BTreeMap<u64, Vec<(&[u8], u32)>> = BTreeMap::new();
        let mut match_start = 0;
        for ((publication, _), match_end) in publications.iter().zip(match_ends) {
            let bytes = publication.as_bytes();
            for sub_id in &scratch.matched[match_start..match_end] {
                let matched = per_owner
                    .entry(Self::owner_of(&self.owners, *sub_id)?.0)
                    .or_default();
                match matched.last_mut() {
                    Some((last, copies)) if std::ptr::eq(*last, bytes) => *copies += 1,
                    _ => matched.push((bytes, 1)),
                }
            }
            match_start = match_end;
        }

        let mut notifications = Vec::with_capacity(per_owner.len());
        for (owner, matched) in per_owner {
            // One frame per owner, sealed as `ct || tag` in one exactly-sized
            // buffer under the link's next sequence number: the count, the
            // distinct publications, then their multiplicities only if one
            // of them repeats.
            let owner = ClientId(owner);
            let link = self
                .clients
                .get_mut(&owner)
                .ok_or(ScbrError::UnknownClient(owner))?;
            let repeats = matched.iter().any(|&(_, copies)| copies > 1);
            let bytes: usize = matched.iter().map(|(bytes, _)| bytes.len()).sum();
            let body_len = 4 + bytes + if repeats { 4 * matched.len() } else { 0 };
            let mut framed = Vec::with_capacity(body_len + TAG_LEN);
            (matched.len() as u32).encode(&mut framed);
            for (publication, _) in &matched {
                framed.extend_from_slice(publication);
            }
            if repeats {
                for (_, copies) in &matched {
                    copies.encode(&mut framed);
                }
            }
            link.send.seal_in_place(&mut framed, b"scbr-notify-batch");
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
        // Fixed-width context header, then the `Vec<Publication>` encoding.
        let mut sealed = ctx.encode().to_vec();
        encode_seq(publications, &mut sealed);
        link.send.seal_in_place(&mut sealed, b"scbr-pub-batch");
        Ok(sealed)
    }

    /// Opens a batched notification frame from the router into a validated
    /// view of the matched publications, in batch order. The frame carries
    /// each publication once, with the number of this subscriber's
    /// subscriptions it matched: the view's `len()` counts deliveries, and
    /// consuming it yields a publication once per delivery. Every byte is
    /// checked here; owned publications are built only as the view is
    /// consumed.
    ///
    /// # Errors
    ///
    /// [`ScbrError::Crypto`] on tampering or replay, and on a plaintext
    /// that is not a canonical publication list
    /// ([`Notifications::parse`]).
    pub fn open_notification_batch(&mut self, framed: &[u8]) -> Result<Notifications, ScbrError> {
        let plain = self.link()?.open(framed, b"scbr-notify-batch")?;
        Ok(Notifications::parse(plain)?)
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
        router.subscribe_sealed(sub_id, &sealed_sub).unwrap();

        let p = publication(1, 42);
        let sealed_pub = publisher
            .seal_publication_batch(std::slice::from_ref(&p))
            .unwrap();
        let notifications = router.publish_sealed_batch(pub_id, &sealed_pub).unwrap();
        assert_eq!(notifications.len(), 1);
        assert_eq!(notifications[0].0, sub_id);
        let received = subscriber
            .open_notification_batch(&notifications[0].1)
            .unwrap();
        assert_eq!(received.into_iter().collect::<Vec<_>>(), vec![p]);
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
        let sealed_pub = subscriber
            .seal_publication_batch(&[publication(1, 5)])
            .unwrap();
        let notifications = router
            .publish_sealed_batch(sub_client, &sealed_pub)
            .unwrap();
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
        let sealed_pub = alice.seal_publication_batch(&[publication(1, 7)]).unwrap();
        let notifications = router.publish_sealed_batch(alice_id, &sealed_pub).unwrap();
        assert!(bob.open_notification_batch(&notifications[0].1).is_err());
        assert!(alice.open_notification_batch(&notifications[0].1).is_ok());
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
        let opened = subscriber
            .open_notification_batch(&notifications[0].1)
            .unwrap();
        assert_eq!(opened.into_iter().collect::<Vec<_>>(), batch);
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

        // One exactly-sized frame per subscriber with matches, owners in id
        // order.
        assert_eq!(notifications.len(), 2);
        assert_eq!(notifications[0].0, alice_id);
        assert_eq!(notifications[1].0, bob_id);
        for (_, frame) in &notifications {
            assert_eq!(frame.capacity(), frame.len());
        }
        let for_alice = alice.open_notification_batch(&notifications[0].1).unwrap();
        assert_eq!(
            for_alice.into_iter().collect::<Vec<_>>(),
            vec![publication(1, 50), publication(1, 500)]
        );
        let for_bob = bob.open_notification_batch(&notifications[1].1).unwrap();
        assert_eq!(
            for_bob.into_iter().collect::<Vec<_>>(),
            vec![publication(1, 500)]
        );
    }

    /// The router parses publications as the subscriber's view does. A
    /// hand-built publication whose keys are unsorted or repeated
    /// authenticates but is malformed: it is rejected before the enclave is
    /// entered, so nothing is charged or counted, and the link still routes
    /// the next honest batch.
    #[test]
    fn a_non_canonical_publication_is_malformed() {
        let mut router = router();
        let mut subscriber = RouterClient::new();
        let mut publisher = RouterClient::new();
        let sub_id = router.register(&subscriber.public_key());
        let pub_id = router.register(&publisher.public_key());
        subscriber.complete_exchange(&router.public_key());
        publisher.complete_exchange(&router.public_key());
        let sealed = subscriber.seal_subscription(&sub(1, 10)).unwrap();
        router.subscribe_sealed(sub_id, &sealed).unwrap();

        let attrs = |pairs: &[(&str, i64)]| {
            let mut out = Vec::new();
            (pairs.len() as u32).encode(&mut out);
            for (key, v) in pairs {
                key.to_string().encode(&mut out);
                Value::Int(*v).encode(&mut out);
            }
            // The owned decoder would fold it into a matching publication.
            assert!(Publication::from_wire(&out).is_ok());
            out
        };
        let unsorted = attrs(&[("v", 50), ("topic", 1)]);
        let repeated = attrs(&[("topic", 1), ("v", 50), ("v", 60)]);
        let batch = |publication: &[u8]| {
            let mut plain = TraceContext::none().encode().to_vec();
            1u32.encode(&mut plain);
            plain.extend_from_slice(publication);
            plain
        };
        for publication_bytes in [unsorted, repeated] {
            let mut sealed = batch(&publication_bytes);
            publisher
                .link()
                .unwrap()
                .send
                .seal_in_place(&mut sealed, b"scbr-pub-batch");
            let cycles = router.enclave().memory_view().cycles();
            let stats = router.stats();
            let result = router.publish_sealed_batch(pub_id, &sealed);
            assert!(
                matches!(
                    result,
                    Err(ScbrError::Crypto(
                        securecloud_crypto::CryptoError::Malformed(_)
                    ))
                ),
                "{result:?}"
            );
            assert_eq!(router.enclave().memory_view().cycles(), cycles);
            assert_eq!(router.stats(), stats);

            let honest = publisher
                .seal_publication_batch(&[publication(1, 50)])
                .unwrap();
            let frames = router.publish_sealed_batch(pub_id, &honest).unwrap();
            assert_eq!(frames.len(), 1);
            let opened = subscriber.open_notification_batch(&frames[0].1).unwrap();
            assert_eq!(
                opened.into_iter().collect::<Vec<_>>(),
                vec![publication(1, 50)]
            );
        }
    }

    /// Multiplicities are the router's to write. A publisher batch that
    /// carries a canonical list authenticates and parses, but is refused
    /// before the enclave is entered: nothing is charged or counted, no
    /// notification sequence number is spent, and the next honest batch
    /// routes.
    #[test]
    fn a_publisher_batch_with_multiplicities_is_refused() {
        let mut router = router();
        let mut subscriber = RouterClient::new();
        let mut publisher = RouterClient::new();
        let sub_id = router.register(&subscriber.public_key());
        let pub_id = router.register(&publisher.public_key());
        subscriber.complete_exchange(&router.public_key());
        publisher.complete_exchange(&router.public_key());
        let sealed = subscriber.seal_subscription(&sub(1, 10)).unwrap();
        router.subscribe_sealed(sub_id, &sealed).unwrap();

        let mut sealed = TraceContext::none().encode().to_vec();
        encode_seq(&[publication(1, 50)], &mut sealed);
        u32::MAX.encode(&mut sealed);
        assert_eq!(
            Notifications::parse(sealed[CONTEXT_WIRE_LEN..].to_vec())
                .unwrap()
                .len(),
            u32::MAX as usize
        );
        publisher
            .link()
            .unwrap()
            .send
            .seal_in_place(&mut sealed, b"scbr-pub-batch");
        let cycles = router.enclave().memory_view().cycles();
        let stats = router.stats();
        let notify_seq = router.clients[&sub_id].send.seq();
        assert!(matches!(
            router.publish_sealed_batch(pub_id, &sealed),
            Err(ScbrError::Crypto(
                securecloud_crypto::CryptoError::Malformed(_)
            ))
        ));
        assert_eq!(router.enclave().memory_view().cycles(), cycles);
        assert_eq!(router.stats(), stats);
        assert_eq!(router.clients[&sub_id].send.seq(), notify_seq);

        let honest = publisher
            .seal_publication_batch(&[publication(1, 60)])
            .unwrap();
        let frames = router.publish_sealed_batch(pub_id, &honest).unwrap();
        let opened = subscriber.open_notification_batch(&frames[0].1).unwrap();
        assert_eq!(
            opened.into_iter().collect::<Vec<_>>(),
            vec![publication(1, 60)]
        );
    }

    /// A publication that matches two subscriptions of one owner is sealed
    /// into that owner's frame once, with multiplicity 2, and still counts
    /// and materialises as two deliveries.
    #[test]
    fn a_publication_matching_two_subscriptions_of_one_owner_is_sealed_once() {
        let mut router = router();
        let mut subscriber = RouterClient::new();
        let mut publisher = RouterClient::new();
        let sub_id = router.register(&subscriber.public_key());
        let pub_id = router.register(&publisher.public_key());
        subscriber.complete_exchange(&router.public_key());
        publisher.complete_exchange(&router.public_key());
        for lo in [10, 20] {
            let sealed = subscriber.seal_subscription(&sub(1, lo)).unwrap();
            router.subscribe_sealed(sub_id, &sealed).unwrap();
        }

        let p = publication(1, 50);
        let sealed = publisher
            .seal_publication_batch(std::slice::from_ref(&p))
            .unwrap();
        let frames = router.publish_sealed_batch(pub_id, &sealed).unwrap();
        assert_eq!(frames.len(), 1);
        // The plaintext: the count, the publication once, its multiplicity.
        let mut want = vec![p.clone()].to_wire();
        2u32.encode(&mut want);
        let mut link = subscriber.link.clone().unwrap();
        let plain = link.open(&frames[0].1, b"scbr-notify-batch").unwrap();
        assert_eq!(plain, want);

        let opened = subscriber.open_notification_batch(&frames[0].1).unwrap();
        assert_eq!(opened.len(), 2);
        assert_eq!(opened.into_iter().collect::<Vec<_>>(), vec![p.clone(), p]);
    }

    /// A batch too short to hold its trace-context header authenticated
    /// fine: it is malformed, not forged.
    #[test]
    fn a_batch_shorter_than_its_context_header_is_malformed() {
        let mut router = router();
        let mut publisher = RouterClient::new();
        let pub_id = router.register(&publisher.public_key());
        publisher.complete_exchange(&router.public_key());
        let mut sealed = vec![0u8; 3];
        let link = publisher.link().unwrap();
        link.send.seal_in_place(&mut sealed, b"scbr-pub-batch");
        assert!(matches!(
            router.publish_sealed_batch(pub_id, &sealed),
            Err(ScbrError::Crypto(
                securecloud_crypto::CryptoError::Malformed(_)
            ))
        ));
    }

    /// The subscriber's view rejects a frame whose publication is not in
    /// the canonical form the router writes, although its tag verifies.
    #[test]
    fn a_non_canonical_notification_frame_is_malformed() {
        let mut router = router();
        let mut subscriber = RouterClient::new();
        router.register(&subscriber.public_key());
        subscriber.complete_exchange(&router.public_key());
        let mut body = Vec::new();
        1u32.encode(&mut body);
        2u32.encode(&mut body);
        for key in ["v", "topic"] {
            key.to_string().encode(&mut body);
            Value::Int(1).encode(&mut body);
        }
        assert!(Vec::<Publication>::from_wire(&body).is_ok());
        // The subscriber's link with its directions swapped is the router's.
        let mut link = subscriber.link.clone().unwrap();
        std::mem::swap(&mut link.send, &mut link.recv);
        link.send.seal_in_place(&mut body, b"scbr-notify-batch");
        assert!(matches!(
            subscriber.open_notification_batch(&body),
            Err(ScbrError::Crypto(
                securecloud_crypto::CryptoError::Malformed(_)
            ))
        ));
    }

    /// A frame's nonce is the link's next sequence number, known to both
    /// sides: a frame opened early or replayed fails its tag, and a failed
    /// open spends nothing, so the in-order frames still open afterwards.
    #[test]
    fn notification_frames_open_only_in_order() {
        let mut router = router();
        let mut subscriber = RouterClient::new();
        let mut publisher = RouterClient::new();
        let sub_id = router.register(&subscriber.public_key());
        let pub_id = router.register(&publisher.public_key());
        subscriber.complete_exchange(&router.public_key());
        publisher.complete_exchange(&router.public_key());
        let sealed = subscriber.seal_subscription(&sub(1, 0)).unwrap();
        router.subscribe_sealed(sub_id, &sealed).unwrap();
        let sent: Vec<Publication> = (1..=3).map(|v| publication(1, v)).collect();
        let mut frames = Vec::new();
        for p in &sent {
            let sealed = publisher
                .seal_publication_batch(std::slice::from_ref(p))
                .unwrap();
            let routed = router.publish_sealed_batch(pub_id, &sealed).unwrap();
            frames.extend(routed.into_iter().map(|(_, frame)| frame));
        }
        assert_eq!(frames.len(), 3);
        let refused = Err(ScbrError::Crypto(
            securecloud_crypto::CryptoError::AuthenticationFailed,
        ));
        let mut open = |i: usize| {
            let opened = subscriber.open_notification_batch(&frames[i]);
            opened.map(|view| view.into_iter().collect::<Vec<_>>())
        };
        let delivered = |i: usize| Ok(vec![sent[i].clone()]);
        // Frame 2 before frame 1, then frame 1 replayed once it has opened.
        assert_eq!(open(1), refused);
        assert_eq!(open(0), delivered(0));
        assert_eq!(open(0), refused);
        assert_eq!(open(1), delivered(1));
        assert_eq!(open(2), delivered(2));
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
    fn batch_amortizes_enclave_transitions() {
        // A 16-publication batch pays one ECALL/OCALL pair; 16 batches of
        // one pay 16. The simulated transition cycles must reflect that.
        let mut batch_router = router();
        let mut single_router = router();
        let publications: Vec<Publication> = (0..16).map(|v| publication(1, v)).collect();
        let mut costs = Vec::new();

        for (router, batched) in [(&mut batch_router, true), (&mut single_router, false)] {
            let mut publisher = RouterClient::new();
            let pub_id = router.register(&publisher.public_key());
            publisher.complete_exchange(&router.public_key());
            let before = router.enclave_mut().memory().cycles();
            let batch_len = if batched { publications.len() } else { 1 };
            for batch in publications.chunks(batch_len) {
                let sealed = publisher.seal_publication_batch(batch).unwrap();
                router.publish_sealed_batch(pub_id, &sealed).unwrap();
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

    /// Three frame kinds remain, each under its own AAD: a subscription
    /// and a publication batch to the router, a notification batch back. A
    /// frame of one kind is refused as another, and the refusal spends no
    /// sequence number, so the link's next honest frame still routes.
    #[test]
    fn a_frame_is_refused_as_another_kind() {
        let mut router = router();
        let mut client = RouterClient::new();
        let id = router.register(&client.public_key());
        client.complete_exchange(&router.public_key());
        let refused = |result: Result<(), ScbrError>| {
            assert_eq!(
                result,
                Err(ScbrError::Crypto(
                    securecloud_crypto::CryptoError::AuthenticationFailed
                ))
            );
        };

        // Each confused frame is sealed under the link's next sequence
        // number, as the honest frames after it are.
        let expected = router.clients[&id].recv.seq();
        let sub_frame = client.clone().seal_subscription(&sub(1, 0)).unwrap();
        refused(router.publish_sealed_batch(id, &sub_frame).map(drop));
        let batch_frame = client
            .clone()
            .seal_publication_batch(&[publication(1, 5)])
            .unwrap();
        refused(router.subscribe_sealed(id, &batch_frame).map(drop));
        assert_eq!(router.clients[&id].recv.seq(), expected);

        let sealed = client.seal_subscription(&sub(1, 0)).unwrap();
        router.subscribe_sealed(id, &sealed).unwrap();
        let sealed = client.seal_publication_batch(&[publication(1, 5)]).unwrap();
        let frames = router.publish_sealed_batch(id, &sealed).unwrap();
        let opened = client.open_notification_batch(&frames[0].1).unwrap();
        assert_eq!(
            opened.into_iter().collect::<Vec<_>>(),
            vec![publication(1, 5)]
        );
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
                let sealed = publisher
                    .seal_publication_batch(&[publication(1, v * 5)])
                    .unwrap();
                for (_, framed) in router.publish_sealed_batch(pub_id, &sealed).unwrap() {
                    let view = subscriber.open_notification_batch(&framed).unwrap();
                    opened.extend(view.into_iter().map(|p| p.to_wire()));
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
        let sealed = publisher
            .seal_publication_batch(&[publication(1, 1)])
            .unwrap();
        assert!(matches!(
            router.publish_sealed_batch(pub_id, &sealed),
            Err(ScbrError::Enclave(_))
        ));
    }
}
