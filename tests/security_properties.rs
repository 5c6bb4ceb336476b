//! Cross-crate adversarial tests: every layer of the stack is attacked the
//! way the paper's threat model allows (compromised cloud provider —
//! registry, host OS, storage, network), and every attack must be detected
//! or yield only ciphertext.

use securecloud::containers::build::{SecureImageBuilder, PROTECTION_PATH};
use securecloud::containers::image::Layer;
use securecloud::crypto::channel::{memory_pair, ChannelConfig, Identity, SecureChannel};
use securecloud::crypto::CryptoError;
use securecloud::eventbus::{fetch_topic_key, KeyServiceError, TopicKeyService};
use securecloud::replica::{ProvisioningService, ReplicaError, ShardId};
use securecloud::scbr::secure::{RouterClient, SecureRouter};
use securecloud::scbr::types::{Op, Predicate, Publication, Subscription, Value};
use securecloud::scone::scf::{fetch_scf, ConfigService, Scf};
use securecloud::scone::SconeError;
use securecloud::sgx::attest::{request_secret, Purpose};
use securecloud::sgx::enclave::{EnclaveConfig, Measurement, Platform};
use securecloud::sgx::SgxError;
use securecloud::SecureCloud;
use std::thread;

#[test]
fn registry_cannot_swap_protected_content() {
    let mut cloud = SecureCloud::new();
    let built = SecureImageBuilder::new("svc", "v1", b"binary")
        .protect_file("/data/secret", b"original")
        .build()
        .unwrap();
    let good_image = cloud.deploy_image(built.clone());

    // Attack 1: replace the sealed protection file (breaks the SCF digest pin).
    let mut forged = built.image.clone();
    forged
        .layers
        .push(Layer::new().with_file(PROTECTION_PATH, b"attacker protection file"));
    let forged_id = cloud.registry().push(forged);
    assert!(cloud.run_container(forged_id).is_err());

    // Attack 2: swap a ciphertext chunk between two builds of the same app
    // (cross-build splicing — different file keys, MAC mismatch).
    let other_build = SecureImageBuilder::new("svc", "v1", b"binary")
        .protect_file("/data/secret", b"different")
        .build()
        .unwrap();
    let mut spliced = built.image.clone();
    let donor_chunk = other_build
        .image
        .flatten()
        .iter()
        .find(|(p, _)| p.starts_with("/data/secret.c"))
        .map(|(p, c)| (p.clone(), c.clone()))
        .unwrap();
    spliced
        .layers
        .push(Layer::new().with_file(&donor_chunk.0, &donor_chunk.1));
    let spliced_id = cloud.registry().push(spliced);
    // Bootstrap succeeds (protection file untouched) but the read of the
    // spliced chunk must fail authentication.
    let container = cloud.run_container(spliced_id).unwrap();
    let read = cloud
        .with_runtime(container, |rt| rt.read_file("/data/secret", 0, 16))
        .unwrap();
    assert!(read.is_err(), "spliced ciphertext must not decrypt");

    // The honest image still works.
    let container = cloud.run_container(good_image).unwrap();
    let read = cloud
        .with_runtime(container, |rt| rt.read_file("/data/secret", 0, 16))
        .unwrap()
        .unwrap();
    assert_eq!(read, b"original");
}

#[test]
fn host_tampering_with_shielded_files_is_detected() {
    let mut cloud = SecureCloud::new();
    let built = SecureImageBuilder::new("svc", "v1", b"binary")
        .protect_file("/db/records", &vec![5u8; 9000])
        .build()
        .unwrap();
    let image = cloud.deploy_image(built);
    let container = cloud.run_container(image).unwrap();

    // Baseline read works.
    let ok = cloud
        .with_runtime(container, |rt| rt.read_file("/db/records", 0, 9000))
        .unwrap();
    assert_eq!(ok.unwrap().len(), 9000);

    // The compromised host flips one byte of one chunk.
    let host = cloud.engine().container(container).unwrap().host().clone();
    let chunk = host
        .paths()
        .into_iter()
        .find(|p| p.starts_with("/db/records.c1"))
        .unwrap();
    host.corrupt_file(&chunk, 10);
    let read = cloud
        .with_runtime(container, |rt| rt.read_file("/db/records", 0, 9000))
        .unwrap();
    assert!(read.is_err());
    // Reads that do not cover the corrupted chunk still succeed.
    let partial = cloud
        .with_runtime(container, |rt| rt.read_file("/db/records", 0, 4096))
        .unwrap();
    assert!(partial.is_ok());
}

#[test]
fn network_adversary_cannot_impersonate_config_service() {
    let platform = Platform::new();
    let enclave_id = Identity::generate("enclave");
    // The attacker answers the enclave's provisioning connection with its
    // own identity. The enclave pinned the genuine service key.
    let (client_t, server_t) = memory_pair();
    let attacker = Identity::generate("mitm");
    let genuine_service_key = Identity::generate("real service").public_key();
    let mitm = thread::spawn(move || {
        SecureChannel::respond(server_t, &attacker, ChannelConfig::default())
    });
    let result = SecureChannel::initiate(
        client_t,
        &enclave_id,
        ChannelConfig {
            expected_peer: Some(genuine_service_key),
            ..ChannelConfig::default()
        },
    );
    assert!(result.is_err(), "pinned key must reject the MITM");
    let _ = mitm.join().unwrap();
    let _ = platform;
}

#[test]
fn router_state_is_confidential_and_replay_proof() {
    let platform = Platform::new();
    let enclave = platform
        .launch(EnclaveConfig::new("router", b"router code"))
        .unwrap();
    let mut router = SecureRouter::new(enclave, Some("topic"));
    let mut alice = RouterClient::new();
    let alice_id = router.register(&alice.public_key());
    alice.complete_exchange(&router.public_key());

    let sealed = alice
        .seal_subscription(&Subscription::new(vec![Predicate::new(
            "topic",
            Op::Eq,
            Value::Int(1),
        )]))
        .unwrap();
    router.subscribe_sealed(alice_id, &sealed).unwrap();
    // Replay of the captured sealed subscription is rejected.
    assert!(router.subscribe_sealed(alice_id, &sealed).is_err());

    // A publication from an unregistered "client id" is rejected.
    let sealed_pub = alice
        .seal_publication_batch(&[Publication::new().with("topic", Value::Int(1))])
        .unwrap();
    assert!(router
        .publish_sealed_batch(securecloud::scbr::secure::ClientId(424242), &sealed_pub)
        .is_err());
}

#[test]
fn sealing_isolates_enclaves_and_platforms() {
    let platform_a = Platform::new();
    let platform_b = Platform::new();
    let enclave_a1 = platform_a
        .launch(EnclaveConfig::new("a1", b"app code"))
        .unwrap();
    let enclave_a2 = platform_a
        .launch(EnclaveConfig::new("a2", b"app code"))
        .unwrap();
    let enclave_b = platform_b
        .launch(EnclaveConfig::new("b", b"app code"))
        .unwrap();
    let enclave_other = platform_a
        .launch(EnclaveConfig::new("other", b"different code"))
        .unwrap();

    let sealed = enclave_a1.seal(b"database key", b"context");
    // Same code, same platform: unseals.
    assert!(enclave_a2.unseal(&sealed, b"context").is_ok());
    // Same code, different platform: fails (hardware-bound).
    assert!(enclave_b.unseal(&sealed, b"context").is_err());
    // Different code, same platform: fails (measurement-bound).
    assert!(enclave_other.unseal(&sealed, b"context").is_err());
}

/// An attestation policy that trusts `platform` and allows `allowed`.
fn attestation_allowing(
    platform: &Platform,
    allowed: Measurement,
) -> securecloud::sgx::attest::AttestationService {
    let mut attestation = securecloud::sgx::attest::AttestationService::new();
    attestation.register_platform(platform);
    attestation.allow_measurement(allowed);
    attestation
}

#[test]
fn quotes_do_not_transfer_between_purposes() {
    // An enclave on every list presents a quote bound, for SCF
    // provisioning, to its own channel key. Topic-key release and replica
    // admission both refuse it.
    let platform = Platform::new();
    let enclave = platform
        .launch(EnclaveConfig::new("svc", b"svc code"))
        .unwrap();
    let mut topics = TopicKeyService::new(attestation_allowing(&platform, enclave.measurement()));
    topics.grant("meters", enclave.measurement());
    let mut provisioning = ProvisioningService::new(&platform, enclave.measurement());

    let (client_t, server_t) = memory_pair();
    let (asked, served) = thread::scope(|scope| {
        let served = scope.spawn(|| topics.serve_one("meters", server_t));
        let asked = request_secret(&enclave, Purpose::Scf, client_t, topics.public_key());
        (asked, served.join().unwrap())
    });
    assert!(matches!(asked, Err(SgxError::Refused(_))));
    assert!(matches!(
        served,
        Err(KeyServiceError::Attestation(SgxError::AttestationFailed(_)))
    ));

    let (client_t, server_t) = memory_pair();
    let service_key = provisioning.public_key();
    let (asked, served) = thread::scope(|scope| {
        let served = scope.spawn(|| provisioning.serve_one(ShardId(0), 1, server_t));
        let asked = request_secret(&enclave, Purpose::Scf, client_t, service_key);
        (asked, served.join().unwrap())
    });
    assert!(matches!(asked, Err(SgxError::Refused(_))));
    assert!(matches!(served, Err(ReplicaError::AdmissionDenied { .. })));
    assert_eq!((provisioning.admitted(), provisioning.rejected()), (0, 1));

    // The same enclave, asking for its topic key with a quote bound for
    // that purpose, receives it.
    let (client_t, server_t) = memory_pair();
    let key = thread::scope(|scope| {
        let served = scope.spawn(|| topics.serve_one("meters", server_t));
        let key = fetch_topic_key(&enclave, "meters", client_t, topics.public_key());
        served.join().unwrap().unwrap();
        key
    });
    assert!(key.is_ok());
}

#[test]
fn pinned_initiator_refuses_an_impostor_before_any_secret_moves() {
    // The impostor holds an SCF for the enclave's measurement and would
    // release it, but not the genuine config service's channel key.
    let platform = Platform::new();
    let mut enclave = platform
        .launch(EnclaveConfig::new("app", b"app code"))
        .unwrap();
    let genuine = ConfigService::new(attestation_allowing(&platform, enclave.measurement()));
    let mut impostor = ConfigService::new(attestation_allowing(&platform, enclave.measurement()));
    impostor.register(
        enclave.measurement(),
        Scf {
            args: vec!["--attacker-chosen".into()],
            env: Default::default(),
            fs_protection_key: [0; 16],
            fs_protection_digest: [0; 32],
        },
    );
    let (client_t, server_t) = memory_pair();
    let (fetched, served) = thread::scope(|scope| {
        let served = scope.spawn(|| impostor.serve_one(server_t));
        let fetched = fetch_scf(&mut enclave, client_t, genuine.public_key());
        (fetched, served.join().unwrap())
    });
    assert!(matches!(
        fetched,
        Err(SconeError::Crypto(CryptoError::Handshake(_)))
    ));
    // The enclave hung up on the impostor's hello: the impostor never
    // finished the handshake, so it neither saw a verified quote nor sent
    // its SCF.
    assert!(matches!(
        served,
        Err(SconeError::Crypto(CryptoError::TransportClosed))
    ));
}

#[test]
fn a_refused_request_changes_no_state_but_the_rejected_counter() {
    // Each service's whole state, as its `Debug` prints it (group keys,
    // topic keys, ACLs, SCFs, counters), before and after refused requests.
    let platform = Platform::new();
    let shard_code: &[u8] = b"shard code";
    let member = platform
        .launch(EnclaveConfig::new("r0", shard_code))
        .unwrap();
    let rogue = platform
        .launch(EnclaveConfig::new("rogue", b"rogue code"))
        .unwrap();
    let debug = platform
        .launch(EnclaveConfig {
            debug: true,
            ..EnclaveConfig::new("dbg", shard_code)
        })
        .unwrap();

    let mut provisioning = ProvisioningService::new(&platform, member.measurement());
    provisioning.admit(ShardId(0), &member, 1).unwrap();
    let before = format!("{provisioning:?}");
    for (shard, candidate) in [(0, &rogue), (1, &rogue), (1, &debug)] {
        assert!(provisioning.admit(ShardId(shard), candidate, 2).is_err());
    }
    assert_eq!((provisioning.admitted(), provisioning.rejected()), (1, 3));
    let after = format!("{provisioning:?}").replace(
        "rejected: Counter { value: 3 }",
        "rejected: Counter { value: 0 }",
    );
    assert_eq!(after, before);

    let mut topics = TopicKeyService::new(attestation_allowing(&platform, rogue.measurement()));
    topics.grant("meters", member.measurement());
    let before = format!("{topics:?}");
    for candidate in [&rogue, &debug] {
        let (client_t, server_t) = memory_pair();
        thread::scope(|scope| {
            let served = scope.spawn(|| topics.serve_one("meters", server_t));
            assert!(fetch_topic_key(candidate, "meters", client_t, topics.public_key()).is_err());
            assert!(served.join().unwrap().is_err());
        });
    }
    assert_eq!(format!("{topics:?}"), before);
}
