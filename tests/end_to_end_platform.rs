//! End-to-end integration of the full SecureCloud stack: images →
//! containers → enclaves → bus-connected micro-services → big-data jobs.

use securecloud::containers::build::SecureImageBuilder;
use securecloud::eventbus::bus::Message;
use securecloud::eventbus::service::{MicroService, ServiceCtx};
use securecloud::faults::{FaultInjector, FaultKind, FaultPlan};
use securecloud::kvstore::{CounterService, SecureKv};
use securecloud::mapreduce::MapReduceRunner;
use securecloud::scbr::types::{Op, Predicate, Publication, Subscription, Value};
use securecloud::sgx::enclave::Platform;
use securecloud::smartgrid::meters::GridSpec;
use securecloud::smartgrid::orchestration::{
    telemetry, Orchestrator, ACTIONS_TOPIC, TELEMETRY_TOPIC,
};
use securecloud::smartgrid::theft::detect_theft;
use securecloud::SecureCloud;
use std::sync::Arc;

#[test]
fn secure_microservice_lifecycle() {
    let mut cloud = SecureCloud::new();
    let built = SecureImageBuilder::new("analytics", "v2", b"analytics binary")
        .protect_file("/model/weights.bin", &vec![7u8; 20_000])
        .protect_file("/model/labels.txt", b"theft,ok")
        .plain_file("/LICENSE", b"MIT")
        .arg("--batch=64")
        .env("FEEDER", "north")
        .build()
        .unwrap();
    let measurement = built.measurement;
    let image = cloud.deploy_image(built);

    // Two replicas of the same image run independently.
    let c1 = cloud.run_container(image).unwrap();
    let c2 = cloud.run_container(image).unwrap();
    assert_ne!(c1, c2);
    for c in [c1, c2] {
        let (args, feeder, weights_len, measured) = cloud
            .with_runtime(c, |rt| {
                (
                    rt.args().to_vec(),
                    rt.env("FEEDER").map(str::to_string),
                    rt.read_file("/model/weights.bin", 0, 30_000).unwrap().len(),
                    rt.enclave().measurement(),
                )
            })
            .unwrap();
        assert_eq!(args, ["--batch=64"]);
        assert_eq!(feeder.as_deref(), Some("north"));
        assert_eq!(weights_len, 20_000);
        assert_eq!(measured, measurement);
    }

    // Writes from one replica are invisible to the other (separate hosts).
    cloud
        .with_runtime(c1, |rt| {
            rt.create_file("/state/progress").unwrap();
            rt.write_file("/state/progress", 0, b"epoch=3").unwrap();
        })
        .unwrap();
    let c2_sees = cloud
        .with_runtime(c2, |rt| rt.read_file("/state/progress", 0, 7).is_ok())
        .unwrap();
    assert!(!c2_sees);

    // Resource accounting is live.
    let usage = cloud.engine_mut().container_mut(c1).unwrap().usage();
    assert!(usage.cpu_cycles > 0);
    assert!(usage.host_calls > 0);

    cloud.stop_container(c1).unwrap();
    cloud.stop_container(c2).unwrap();
}

/// A meter-ingest service: filters high readings and stores them in a
/// secure KV store, forwarding alerts on the bus.
struct IngestService {
    kv: SecureKv,
    mem: securecloud::sgx::mem::MemorySim,
    stored: usize,
}

impl IngestService {
    fn new() -> Self {
        IngestService {
            kv: SecureKv::new(),
            mem: securecloud::sgx::mem::MemorySim::enclave(
                securecloud::sgx::costs::MemoryGeometry::sgx_v1(),
                securecloud::sgx::costs::CostModel::sgx_v1(),
            ),
            stored: 0,
        }
    }
}

impl MicroService for IngestService {
    fn name(&self) -> &str {
        "ingest"
    }
    fn subscriptions(&self) -> Vec<(String, Option<Subscription>)> {
        vec![(
            "readings".into(),
            Some(Subscription::new(vec![Predicate::new(
                "watts",
                Op::Ge,
                Value::Int(1000),
            )])),
        )]
    }
    fn handle(&mut self, message: &Message, ctx: &mut ServiceCtx) {
        let Some(Value::Int(meter)) = message.attributes.attrs.get("meter") else {
            return;
        };
        self.kv
            .try_put(&mut self.mem, &meter.to_be_bytes(), &message.payload)
            .unwrap();
        self.stored += 1;
        ctx.emit(
            "alerts",
            format!("high load on meter {meter}").into_bytes(),
            Publication::new().with("meter", Value::Int(*meter)),
        );
    }
}

#[test]
fn bus_wired_services_with_filters_and_kv() {
    let mut cloud = SecureCloud::new();
    cloud.register_service(Box::new(IngestService::new()));
    cloud.register_service(Box::new(Orchestrator::new()));
    let alerts = cloud.services_mut().bus_mut().subscribe("alerts", None);

    for (meter, watts) in [(1i64, 200i64), (2, 1500), (3, 4000), (4, 999)] {
        cloud.services_mut().bus_mut().publish(
            "readings",
            watts.to_le_bytes().to_vec(),
            Publication::new()
                .with("meter", Value::Int(meter))
                .with("watts", Value::Int(watts)),
        );
    }
    cloud.run_services(32);
    // Only meters 2 and 3 pass the >= 1000 W filter.
    assert_eq!(cloud.services_mut().bus_mut().backlog(alerts), 2);

    // Telemetry-driven orchestration reacts on the same bus.
    let actions = cloud
        .services_mut()
        .bus_mut()
        .subscribe(ACTIONS_TOPIC, None);
    for i in 0..30 {
        cloud.services_mut().bus_mut().publish(
            TELEMETRY_TOPIC,
            Vec::new(),
            telemetry("ingest", 3.0 + f64::from(i % 3) * 0.01),
        );
    }
    cloud.run_services(64);
    assert_eq!(cloud.services_mut().bus_mut().backlog(actions), 0);
    cloud
        .services_mut()
        .bus_mut()
        .publish(TELEMETRY_TOPIC, Vec::new(), telemetry("ingest", 500.0));
    cloud.run_services(8);
    assert_eq!(cloud.services_mut().bus_mut().backlog(actions), 1);
}

#[test]
fn theft_pipeline_over_generated_grid() {
    let spec = GridSpec {
        households: 30,
        duration_secs: 8 * 3600,
        interval_secs: 60,
        theft_fraction: 0.1,
        theft_scale: 0.3,
        seed: 99,
    };
    let traces = spec.generate();
    let feeder = GridSpec::feeder_totals(&traces);
    // Plan a worker failure mid-pipeline: results must be unaffected.
    let plan = FaultPlan::new().at(0, FaultKind::MapTaskFail { task: 1, times: 1 });
    let injector = Arc::new(FaultInjector::with_plan(0, plan));
    injector.advance_to(0);
    let mut runner = MapReduceRunner::new(Platform::new());
    runner.set_fault_injector(injector);
    let report = detect_theft(&runner, &traces, &feeder).unwrap();
    assert_eq!(report.retries, 1, "the planned failure fired once");
    let thieves: Vec<u64> = traces
        .iter()
        .filter(|t| t.is_theft)
        .map(|t| t.meter)
        .collect();
    assert!(!thieves.is_empty());
    let top: Vec<u64> = report
        .ranked
        .iter()
        .take(thieves.len() * 2)
        .map(|s| s.meter)
        .collect();
    // The strongest suspicion must be a real thief, and the majority of
    // thieves must surface in the top suspicions. (A household stealing a
    // few dozen watts can legitimately hide below the noise floor; the
    // larger fixture in `securecloud-smartgrid` asserts full recall.)
    assert!(
        thieves.contains(&report.ranked[0].meter),
        "top suspicion {} is not a thief ({thieves:?})",
        report.ranked[0].meter
    );
    let caught = thieves.iter().filter(|t| top.contains(t)).count();
    assert!(
        caught * 2 >= thieves.len(),
        "only {caught}/{} thieves in top suspicions {top:?}",
        thieves.len()
    );
}

#[test]
fn kv_snapshot_travels_between_enclave_instances() {
    // A service persists its KV state, "restarts" (new enclave instance),
    // and restores — with rollback protection intact.
    let mut mem = securecloud::sgx::mem::MemorySim::enclave(
        securecloud::sgx::costs::MemoryGeometry::sgx_v1(),
        securecloud::sgx::costs::CostModel::sgx_v1(),
    );
    let counters = CounterService::new();
    let key = securecloud::crypto::random_array();
    let mut kv = SecureKv::new();
    for i in 0..50u32 {
        kv.try_put(&mut mem, &i.to_be_bytes(), &i.to_le_bytes())
            .unwrap();
    }
    let snap1 = kv.snapshot(&key, &counters, "svc");
    kv.try_put(&mut mem, b"extra", b"new").unwrap();
    let snap2 = kv.snapshot(&key, &counters, "svc");

    // Restore the newest snapshot: fine.
    let mut restored = SecureKv::restore(&mut mem, &key, &snap2.sealed, &counters, "svc").unwrap();
    assert_eq!(
        restored.try_get_ref(&mut mem, b"extra").unwrap(),
        Some(&b"new"[..])
    );
    assert_eq!(restored.len(), 51);
    // The host serving the older snapshot is caught.
    assert!(SecureKv::restore(&mut mem, &key, &snap1.sealed, &counters, "svc").is_err());
}

#[test]
fn end_to_end_sealed_payloads_between_attested_services() {
    use securecloud::crypto::channel::memory_pair;
    use securecloud::eventbus::{
        fetch_topic_key, open_payload, seal_payload, KeyServiceError, TopicKeyService,
    };
    use securecloud::sgx::attest::AttestationService;
    use securecloud::sgx::enclave::{Enclave, EnclaveConfig};

    // An enclave fetches a topic key over its own attested channel to the
    // pinned key service.
    fn fetch(
        keys: &TopicKeyService,
        enclave: &Enclave,
        topic: &str,
    ) -> Result<[u8; 16], KeyServiceError> {
        let (client, server) = memory_pair();
        std::thread::scope(|scope| {
            let served = scope.spawn(|| keys.serve_one(topic, server));
            let key = fetch_topic_key(enclave, topic, client, keys.public_key());
            served.join().unwrap()?;
            key
        })
    }

    // Two services (producer, consumer) run as enclaves on the platform;
    // the bus itself is untrusted and must see only ciphertext.
    let platform = Platform::new();
    let producer = platform
        .launch(EnclaveConfig::new("producer", b"producer code"))
        .unwrap();
    let consumer = platform
        .launch(EnclaveConfig::new("consumer", b"consumer code"))
        .unwrap();
    let mut attestation = AttestationService::new();
    attestation.register_platform(&platform);
    attestation.allow_measurement(producer.measurement());
    attestation.allow_measurement(consumer.measurement());
    let mut keys = TopicKeyService::new(attestation);
    keys.grant("meters/raw", producer.measurement());
    keys.grant("meters/raw", consumer.measurement());

    // Both sides obtain the topic key by attesting to the key service.
    let k_producer = fetch(&keys, &producer, "meters/raw").unwrap();
    let k_consumer = fetch(&keys, &consumer, "meters/raw").unwrap();
    assert_eq!(k_producer, k_consumer);

    // Producer publishes sealed readings; routable attributes stay in the
    // clear (they are what the bus filters on), the payload does not.
    let mut bus = securecloud::eventbus::EventBus::new(1_000);
    let subscription = bus.subscribe(
        "meters/raw",
        Some(Subscription::new(vec![Predicate::new(
            "region",
            Op::Eq,
            Value::Str("north".into()),
        )])),
    );
    let secret_reading = b"meter 7: 4.2 kW (occupants home)";
    bus.publish(
        "meters/raw",
        seal_payload(&k_producer, secret_reading),
        Publication::new().with("region", Value::Str("north".into())),
    );

    // The bus operator (adversary) inspects the in-flight message.
    let message = bus.fetch(subscription).unwrap();
    assert!(
        !message
            .payload
            .windows(8)
            .any(|w| w == &secret_reading[..8]),
        "plaintext visible to the bus"
    );
    // The attested consumer decrypts it.
    let plain = open_payload(&k_consumer, &message.payload).unwrap();
    assert_eq!(plain, secret_reading);
    bus.ack(subscription, message.id);

    // A rogue enclave (not on the ACL) cannot obtain the key.
    let rogue = platform
        .launch(EnclaveConfig::new("rogue", b"rogue code"))
        .unwrap();
    assert!(fetch(&keys, &rogue, "meters/raw").is_err());
}
