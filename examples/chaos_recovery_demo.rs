//! Chaos-recovery demo: run the platform under a seeded fault schedule and
//! watch it heal itself.
//!
//!     cargo run --example chaos_recovery_demo -- [seed]
//!
//! The same seed always prints the same trace (deterministic virtual time,
//! no OS entropy); different seeds explore different fault interleavings.

use securecloud::containers::build::SecureImageBuilder;
use securecloud::containers::engine::{RestartPolicy, SupervisionConfig};
use securecloud::eventbus::bus::Message;
use securecloud::eventbus::service::{MicroService, ServiceCtx};
use securecloud::faults::{FaultInjector, FaultKind, FaultPlan, FaultRates};
use securecloud::scbr::types::{Publication, Subscription};
use securecloud::SecureCloud;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// Counts each distinct reading once, however often the bus delivers it.
struct MeterSink {
    seen: Arc<Mutex<HashSet<u64>>>,
    duplicates: Arc<Mutex<u64>>,
}

impl MicroService for MeterSink {
    fn name(&self) -> &str {
        "meter-sink"
    }

    fn subscriptions(&self) -> Vec<(String, Option<Subscription>)> {
        vec![("grid/readings".into(), None)]
    }

    fn handle(&mut self, message: &Message, _ctx: &mut ServiceCtx) {
        if !self.seen.lock().unwrap().insert(message.id.0) {
            *self.duplicates.lock().unwrap() += 1;
        }
    }
}

/// A handler that can never process its message.
struct PoisonService;

impl MicroService for PoisonService {
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

fn main() {
    let seed: u64 = match std::env::args().nth(1) {
        Some(raw) => match raw.parse() {
            Ok(seed) => seed,
            Err(_) => {
                eprintln!("error: seed must be an unsigned integer, got {raw:?}");
                std::process::exit(2);
            }
        },
        None => 0xC0FFEE,
    };
    // The poison service panics on purpose; keep its backtraces quiet.
    std::panic::set_hook(Box::new(|_| {}));

    let mut cloud = SecureCloud::new();
    cloud.engine_mut().set_supervision_seed(seed);

    // One supervised secure container (the meter gateway).
    let built = SecureImageBuilder::new("meter-gw", "v1", b"meter gateway code")
        .protect_file("/data/keys", b"meter-fleet-master-key")
        .build()
        .expect("image build");
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
        .expect("container start");
    let first_enclave = cloud
        .with_runtime(container, |rt| rt.enclave().id())
        .expect("secure runtime");

    // The fault schedule, in virtual milliseconds.
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
                service: "meter-sink".into(),
            },
        );
    let injector = Arc::new(FaultInjector::with_plan(seed, plan));
    injector.set_rates(FaultRates {
        message_loss_permille: 120,
        message_duplication_permille: 80,
        syscall_failure_permille: 0,
    });
    cloud.set_fault_injector(Arc::clone(&injector));

    // The pipeline: a dedup'ing sink plus a poison message with a budget.
    cloud.services_mut().set_quarantine_after(10);
    cloud.services_mut().bus_mut().set_max_attempts(Some(6));
    let seen = Arc::new(Mutex::new(HashSet::new()));
    let duplicates = Arc::new(Mutex::new(0u64));
    cloud.register_service(Box::new(MeterSink {
        seen: Arc::clone(&seen),
        duplicates: Arc::clone(&duplicates),
    }));
    cloud.register_service(Box::new(PoisonService));

    const READINGS: u64 = 30;
    for index in 0..READINGS {
        cloud.services_mut().bus_mut().publish(
            "grid/readings",
            index.to_le_bytes().to_vec(),
            Publication::new(),
        );
    }
    cloud.services_mut().bus_mut().publish(
        "grid/poison",
        b"malformed reading".to_vec(),
        Publication::new(),
    );

    // Drive: pump deliveries, advance virtual time in 250 ms ticks.
    for _ in 0..24 {
        cloud.run_services(512);
        cloud.advance(250);
    }

    println!("=== fault/recovery trace (seed {seed}) ===");
    for line in injector.trace() {
        println!("{line}");
    }

    let current_enclave = cloud
        .with_runtime(container, |rt| rt.enclave().id())
        .expect("secure runtime");
    let state = cloud.engine().container(container).expect("container");
    println!("=== outcome ===");
    println!(
        "readings delivered: {}/{READINGS} (duplicate deliveries absorbed: {})",
        seen.lock().unwrap().len(),
        duplicates.lock().unwrap()
    );
    println!(
        "container: health {:?}, {} restart(s), enclave {:?} -> {:?}",
        state.health(),
        state.restarts(),
        first_enclave,
        current_enclave
    );
    for dead in cloud.services_mut().bus_mut().dead_letters() {
        println!(
            "dead letter: {:?} after {} attempts ({})",
            String::from_utf8_lossy(&dead.message.payload),
            dead.message.attempt,
            dead.reason
        );
    }

    // Leave the run's full telemetry (metrics snapshot + traces) on disk.
    let report_dir = std::path::Path::new("target/telemetry/chaos");
    match cloud.telemetry().write_report(report_dir) {
        Ok(report) => println!(
            "telemetry report: {}, {}, {}",
            report.snapshot.display(),
            report.trace_jsonl.display(),
            report.trace_chrome.display()
        ),
        Err(err) => eprintln!("warning: telemetry report not written: {err}"),
    }
}
