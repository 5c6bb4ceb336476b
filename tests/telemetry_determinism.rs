//! Telemetry determinism: the platform-wide trace is stamped with the
//! simulation's virtual clock only, so two runs with the same seed must
//! produce **byte-identical** JSONL traces — and a seeded chaos run must
//! leave metrics from every instrumented layer in the shared registry.

use securecloud::containers::build::SecureImageBuilder;
use securecloud::containers::engine::{RestartPolicy, SupervisionConfig};
use securecloud::eventbus::bus::Message;
use securecloud::eventbus::service::{MicroService, ServiceCtx};
use securecloud::faults::{FaultInjector, FaultKind, FaultPlan, FaultRates};
use securecloud::scbr::broker::{BrokerId, Overlay};
use securecloud::scbr::types::{Publication, Subscription};
use securecloud::SecureCloud;
use std::sync::Arc;

/// Counts deliveries; drives bus + service-host instrumentation.
struct Sink;

impl MicroService for Sink {
    fn name(&self) -> &str {
        "sink"
    }

    fn subscriptions(&self) -> Vec<(String, Option<Subscription>)> {
        vec![("grid/readings".into(), None)]
    }

    fn handle(&mut self, _message: &Message, _ctx: &mut ServiceCtx) {}
}

/// A handler that can never process its message (exercises panic paths).
struct Poison;

impl MicroService for Poison {
    fn name(&self) -> &str {
        "poison"
    }

    fn subscriptions(&self) -> Vec<(String, Option<Subscription>)> {
        vec![("grid/poison".into(), None)]
    }

    fn handle(&mut self, _message: &Message, _ctx: &mut ServiceCtx) {
        panic!("cannot parse reading");
    }
}

/// One seeded chaos-style run; returns the JSONL trace, the Prometheus
/// snapshot, and the chrome trace document.
fn run_scenario(seed: u64) -> (String, String, String) {
    let mut cloud = SecureCloud::new();
    cloud.engine_mut().set_supervision_seed(seed);

    // A supervised secure container: bootstrap + abort + restart exercise
    // the containers, sgx, and scone layers.
    let built = SecureImageBuilder::new("meter-gw", "v1", b"meter gateway code")
        .protect_file("/data/keys", b"meter-fleet-master-key")
        .build()
        .unwrap();
    let image = cloud.deploy_image(built);
    let container = cloud
        .engine_mut()
        .run_supervised(
            image,
            SupervisionConfig {
                policy: RestartPolicy::OnFailure,
                backoff_base_ms: 100,
                backoff_cap_ms: 2_000,
                jitter_ms: 25,
                max_restarts: 5,
            },
        )
        .unwrap();

    // An SCBR overlay reporting into the same registry as the platform.
    let mut overlay = Overlay::try_new(&[None, Some(0), Some(1), Some(1)]).unwrap();
    overlay.set_telemetry(Arc::clone(cloud.telemetry()));
    let _ = overlay.subscribe(BrokerId(3), Subscription::new(vec![]));

    let plan = FaultPlan::new()
        .at(
            500,
            FaultKind::EnclaveAbort {
                container: container.0,
            },
        )
        .at(
            900,
            FaultKind::ServicePanic {
                service: "sink".into(),
            },
        )
        .at(1_300, FaultKind::BrokerFail { broker: 1 });
    let injector = Arc::new(FaultInjector::with_plan(seed, plan));
    injector.set_rates(FaultRates {
        message_loss_permille: 120,
        message_duplication_permille: 80,
        syscall_failure_permille: 0,
    });
    cloud.set_fault_injector(Arc::clone(&injector));

    cloud.services_mut().bus_mut().set_max_attempts(Some(4));
    cloud.register_service(Box::new(Sink));
    cloud.register_service(Box::new(Poison));

    for index in 0..20u64 {
        cloud.services_mut().bus_mut().publish(
            "grid/readings",
            index.to_le_bytes().to_vec(),
            Publication::new(),
        );
    }
    cloud.services_mut().bus_mut().publish(
        "grid/poison",
        b"malformed".to_vec(),
        Publication::new(),
    );

    for _ in 0..24 {
        cloud.run_services(512);
        for event in cloud.advance(250) {
            if let FaultKind::BrokerFail { broker } = event.kind {
                overlay.fail_broker(BrokerId(broker));
            }
        }
        let _ = overlay.publish(BrokerId(2), &Publication::new());
    }

    // An enclave file read after the restart drives the scone shield and
    // sgx memory paths through the re-attested runtime.
    let keys = cloud
        .with_runtime(container, |rt| rt.read_file("/data/keys", 0, 64))
        .unwrap()
        .unwrap();
    assert_eq!(keys, b"meter-fleet-master-key");

    let telemetry = cloud.telemetry();
    (
        telemetry.trace_jsonl(),
        telemetry.prometheus(),
        telemetry.chrome_trace_json(),
    )
}

/// Runs `f` with the global panic hook silenced (the poison service panics
/// on purpose); restored afterwards so real failures still print.
fn with_silent_panics<T>(f: impl FnOnce() -> T) -> T {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = f();
    std::panic::set_hook(previous);
    result
}

#[test]
fn equal_seeds_give_byte_identical_traces() {
    let ((jsonl_a, _, chrome_a), (jsonl_b, _, chrome_b)) =
        with_silent_panics(|| (run_scenario(0x5EED), run_scenario(0x5EED)));
    assert!(!jsonl_a.is_empty(), "scenario produced no trace events");
    assert_eq!(jsonl_a.as_bytes(), jsonl_b.as_bytes());
    assert_eq!(chrome_a.as_bytes(), chrome_b.as_bytes());

    let (jsonl_other, _, _) = with_silent_panics(|| run_scenario(0xD15EA5E));
    assert_ne!(
        jsonl_a, jsonl_other,
        "different seeds should explore different schedules"
    );
}

/// One seeded run with a fixed per-step delivery batch size; the fault
/// plan is deterministic (no probabilistic loss/duplication, whose RNG
/// draw order would legitimately depend on delivery interleaving).
fn run_batched_scenario(seed: u64, batch: usize) -> (String, String, String) {
    let mut cloud = SecureCloud::new();
    cloud.engine_mut().set_supervision_seed(seed);
    cloud.services_mut().set_delivery_batch(batch);

    let built = SecureImageBuilder::new("meter-gw", "v1", b"meter gateway code")
        .protect_file("/data/keys", b"meter-fleet-master-key")
        .build()
        .unwrap();
    let image = cloud.deploy_image(built);
    let container = cloud
        .engine_mut()
        .run_supervised(
            image,
            SupervisionConfig {
                policy: RestartPolicy::OnFailure,
                backoff_base_ms: 100,
                backoff_cap_ms: 2_000,
                jitter_ms: 25,
                max_restarts: 5,
            },
        )
        .unwrap();

    let plan = FaultPlan::new()
        .at(
            500,
            FaultKind::EnclaveAbort {
                container: container.0,
            },
        )
        .at(
            900,
            FaultKind::ServicePanic {
                service: "sink".into(),
            },
        );
    cloud.set_fault_injector(Arc::new(FaultInjector::with_plan(seed, plan)));
    cloud.register_service(Box::new(Sink));

    let mut next_reading = 0u64;
    for _ in 0..12 {
        for _ in 0..5 {
            cloud.services_mut().bus_mut().publish(
                "grid/readings",
                next_reading.to_le_bytes().to_vec(),
                Publication::new(),
            );
            next_reading += 1;
        }
        cloud.run_services(512);
        cloud.advance(250);
    }

    let telemetry = cloud.telemetry();
    (
        telemetry.trace_jsonl(),
        telemetry.prometheus(),
        telemetry.chrome_trace_json(),
    )
}

#[test]
fn delivery_batch_size_does_not_change_telemetry() {
    // Batch delivery is an optimization, not a semantic change: the same
    // seeded run with per-step batches of 1, 8, and 64 must leave every
    // telemetry artifact byte-identical.
    let (jsonl_1, prom_1, chrome_1) = with_silent_panics(|| run_batched_scenario(0x0B47C, 1));
    assert!(!jsonl_1.is_empty(), "scenario produced no trace events");
    for batch in [8, 64] {
        let (jsonl, prom, chrome) = with_silent_panics(|| run_batched_scenario(0x0B47C, batch));
        assert_eq!(jsonl_1.as_bytes(), jsonl.as_bytes(), "jsonl, batch {batch}");
        assert_eq!(
            prom_1.as_bytes(),
            prom.as_bytes(),
            "prometheus, batch {batch}"
        );
        assert_eq!(
            chrome_1.as_bytes(),
            chrome.as_bytes(),
            "chrome, batch {batch}"
        );
    }
}

/// FNV-1a of an export; pinned beside its length below.
fn fnv1a(text: &str) -> u64 {
    securecloud::telemetry::fnv1a(securecloud::telemetry::FNV_OFFSET, text.as_bytes())
}

/// The seeded run's Prometheus text, JSONL trace and chrome trace, pinned
/// as `(length, FNV-1a)`: bus, containers, scbr overlay, scone, the sgx
/// mirrors and enclave transitions all export into them, so a refactor of
/// any metric set that moves one series, label or value fails here; the
/// chrome trace also pins how spans pair their `Begin`/`End` events and
/// flow edges.
#[test]
fn seeded_run_exports_are_pinned() {
    let (jsonl, prometheus, chrome) = with_silent_panics(|| run_scenario(0x5EED));
    assert_eq!(
        (prometheus.len(), fnv1a(&prometheus)),
        (4843, 0xb78b_12b0_4430_9910)
    );
    assert_eq!((jsonl.len(), fnv1a(&jsonl)), (24080, 0xd277_5116_730c_66f9));
    assert_eq!(
        (chrome.len(), fnv1a(&chrome)),
        (24871, 0xbc0b_56b6_e7df_b493)
    );
}

#[test]
fn chaos_run_records_metrics_from_every_layer() {
    let (jsonl, snapshot, _) = with_silent_panics(|| run_scenario(0xC0FFEE));
    for prefix in [
        "securecloud_bus_",
        "securecloud_containers_",
        "securecloud_scbr_",
        "securecloud_scone_",
        "securecloud_sgx_",
    ] {
        assert!(
            snapshot.contains(prefix),
            "no {prefix} metrics in snapshot:\n{snapshot}"
        );
    }
    // Every trace line is stamped with virtual time, never wall-clock.
    for line in jsonl.lines() {
        assert!(line.contains("\"ts_ms\":"), "unstamped event: {line}");
    }
}

#[test]
fn write_report_emits_all_three_artifacts() {
    let dir = std::env::temp_dir().join(format!(
        "securecloud-telemetry-report-{}",
        std::process::id()
    ));
    let report = with_silent_panics(|| {
        let mut cloud = SecureCloud::new();
        // A secure bootstrap records a span, so the trace files are
        // guaranteed non-empty.
        let built = SecureImageBuilder::new("svc", "v1", b"code")
            .build()
            .unwrap();
        let image = cloud.deploy_image(built);
        cloud.run_container(image).unwrap();
        cloud.register_service(Box::new(Sink));
        cloud
            .services_mut()
            .bus_mut()
            .publish("grid/readings", vec![1], Publication::new());
        cloud.run_services(64);
        cloud.advance(100);
        cloud.telemetry().write_report(&dir).unwrap()
    });
    for path in [&report.snapshot, &report.trace_jsonl, &report.trace_chrome] {
        assert!(path.is_file(), "missing artifact {}", path.display());
        assert!(std::fs::metadata(path).unwrap().len() > 0);
    }
    std::fs::remove_dir_all(&dir).ok();
}
