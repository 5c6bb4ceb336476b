//! E7: "orchestration services detect anomalies within milliseconds"
//! (§VI) — power-quality detection latency and orchestrator reaction.

use securecloud_eventbus::service::ServiceHost;
use securecloud_smartgrid::orchestration::{
    telemetry, Orchestrator, ACTIONS_TOPIC, TELEMETRY_TOPIC,
};
use securecloud_smartgrid::quality::{run_detector, QualityDetector, QualitySpec};

use crate::report::Cell::Fixed;
use crate::report::{Column, Ctx, Report};

/// Result of the orchestration-latency experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct OrchestrationResult {
    /// Injected power-quality faults.
    pub faults_injected: usize,
    /// Faults detected.
    pub faults_detected: usize,
    /// Mean detection latency, milliseconds.
    pub mean_latency_ms: f64,
    /// Maximum detection latency, milliseconds.
    pub max_latency_ms: f64,
    /// Ground-truth faults missed.
    pub missed: usize,
    /// Detections without a matching fault.
    pub false_positives: usize,
    /// Bus steps between anomaly telemetry and the scaling action.
    pub orchestrator_reaction_steps: usize,
}

/// Runs the power-quality detector over a trace with `faults` injected
/// sags/swells, then measures the bus-level orchestrator reaction.
#[must_use]
pub fn run(samples: usize, faults: usize, seed: u64) -> OrchestrationResult {
    let trace = QualitySpec {
        samples,
        faults,
        seed,
        ..QualitySpec::default()
    }
    .generate();
    let report = run_detector(&trace, &mut QualityDetector::new());

    // Orchestrator reaction: warm it up on the bus, inject a latency spike,
    // count delivery steps until the scale-up action appears.
    let mut host = ServiceHost::new(1_000);
    host.register(Box::new(Orchestrator::new()));
    let actions = host.bus_mut().subscribe(ACTIONS_TOPIC, None);
    for i in 0..30 {
        host.bus_mut().publish(
            TELEMETRY_TOPIC,
            Vec::new(),
            telemetry("grid-analytics", 4.0 + f64::from(i % 3) * 0.02),
        );
    }
    host.pump_switchless(64);
    host.bus_mut().publish(
        TELEMETRY_TOPIC,
        Vec::new(),
        telemetry("grid-analytics", 400.0),
    );
    let mut steps = 0;
    while host.bus().backlog(actions) == 0 && steps < 10 {
        host.pump_switchless(1);
        steps += 1;
    }

    OrchestrationResult {
        faults_injected: trace.faults.len(),
        faults_detected: report.latencies_ms.len(),
        mean_latency_ms: report.mean_latency_ms(),
        max_latency_ms: report.max_latency_ms(),
        missed: report.missed,
        false_positives: report.false_positives,
        orchestrator_reaction_steps: steps,
    }
}

/// The E7 result: three sentences on the console, one JSON row.
pub fn report(ctx: &Ctx) -> Vec<Report> {
    let result = run(ctx.pick(10_000, 60_000), 10, 3);
    let report = Report::new(
        "orchestration",
        "== E7: anomaly detection within milliseconds (§VI) ==",
        std::slice::from_ref(&result),
        [
            Column::json("faults_injected", |r| r.faults_injected.into()),
            Column::json("faults_detected", |r| r.faults_detected.into()),
            Column::json("missed", |r| r.missed.into()),
            Column::json("false_positives", |r| r.false_positives.into()),
            Column::json("mean_latency_ms", |r| Fixed(r.mean_latency_ms, 1)),
            Column::json("max_latency_ms", |r| Fixed(r.max_latency_ms, 1)),
            Column::json("reaction_steps", |r| r.orchestrator_reaction_steps.into()),
        ],
    );
    vec![Report {
        footer: format!(
            "power-quality faults: {} injected, {} detected, {} missed, {} false positives
detection latency: mean {:.1} ms, max {:.1} ms (1 kHz sampling)
orchestrator reaction: scaling action emitted after {} bus step(s)",
            result.faults_injected,
            result.faults_detected,
            result.missed,
            result.false_positives,
            result.mean_latency_ms,
            result.max_latency_ms,
            result.orchestrator_reaction_steps
        ),
        ..report
    }]
}
