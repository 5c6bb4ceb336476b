//! Monitoring and orchestration (§VI, second use case): applications are
//! "supervised using monitoring services. Orchestration services detect
//! anomalies within milliseconds, which requires adaptations to the
//! virtual infrastructure".
//!
//! Micro-services publish telemetry (request latencies) to the bus; the
//! [`Orchestrator`] maintains per-service statistics and, when a sample
//! deviates beyond `threshold_sigma` standard deviations, emits a scaling
//! action — in the same bus step, i.e. within one delivery latency.

use securecloud_eventbus::bus::Message;
use securecloud_eventbus::service::{MicroService, ServiceCtx};
use securecloud_scbr::types::{Publication, Subscription, Value};
use securecloud_telemetry::stats::Welford;
use std::collections::HashMap;

/// Telemetry topic consumed by the orchestrator.
pub const TELEMETRY_TOPIC: &str = "telemetry/latency";
/// Topic on which scaling actions are emitted.
pub const ACTIONS_TOPIC: &str = "orchestration/actions";

/// Online mean/variance with a minimum sample count — a thin wrapper over
/// the workspace-shared [`Welford`] accumulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyStats(Welford);

impl LatencyStats {
    /// Observes one sample.
    pub fn observe(&mut self, value: f64) {
        self.0.observe(value);
    }

    /// Samples observed.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// Current mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.0.mean()
    }

    /// Current standard deviation (0 before two samples).
    #[must_use]
    pub fn stddev(&self) -> f64 {
        self.0.stddev()
    }
}

/// An anomaly verdict for one telemetry sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// Service whose latency is anomalous.
    pub service: String,
    /// The offending sample, milliseconds.
    pub latency_ms: f64,
    /// Standard deviations from the learned mean.
    pub sigma: f64,
}

/// The orchestration micro-service.
#[derive(Debug)]
pub struct Orchestrator {
    /// Samples to learn per service before judging anomalies.
    pub warmup: u64,
    /// Anomaly threshold in standard deviations.
    pub threshold_sigma: f64,
    stats: HashMap<String, LatencyStats>,
    anomalies: Vec<Anomaly>,
}

impl Default for Orchestrator {
    fn default() -> Self {
        Orchestrator {
            warmup: 20,
            threshold_sigma: 4.0,
            stats: HashMap::new(),
            anomalies: Vec::new(),
        }
    }
}

impl Orchestrator {
    /// Creates an orchestrator with default thresholds.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Anomalies detected so far.
    #[must_use]
    pub fn anomalies(&self) -> &[Anomaly] {
        &self.anomalies
    }

    /// Judges one sample, updating the model. Anomalous samples are *not*
    /// absorbed into the model (they would inflate the variance).
    pub fn judge(&mut self, service: &str, latency_ms: f64) -> Option<Anomaly> {
        let stats = self.stats.entry(service.to_string()).or_default();
        if stats.count() >= self.warmup && stats.stddev() > 0.0 {
            let sigma = (latency_ms - stats.mean()).abs() / stats.stddev();
            if sigma >= self.threshold_sigma {
                let anomaly = Anomaly {
                    service: service.to_string(),
                    latency_ms,
                    sigma,
                };
                self.anomalies.push(anomaly.clone());
                return Some(anomaly);
            }
        }
        stats.observe(latency_ms);
        None
    }
}

/// Builds a telemetry publication for `service` with `latency_ms`.
#[must_use]
pub fn telemetry(service: &str, latency_ms: f64) -> Publication {
    Publication::new()
        .with("service", Value::Str(service.to_string()))
        .with("latency_ms", Value::Float(latency_ms))
}

impl MicroService for Orchestrator {
    fn name(&self) -> &str {
        "orchestrator"
    }

    fn subscriptions(&self) -> Vec<(String, Option<Subscription>)> {
        vec![(TELEMETRY_TOPIC.to_string(), None)]
    }

    fn handle(&mut self, message: &Message, ctx: &mut ServiceCtx) {
        let Some(Value::Str(service)) = message.attributes.attrs.get("service") else {
            return;
        };
        let Some(Value::Float(latency)) = message.attributes.attrs.get("latency_ms") else {
            return;
        };
        let service = service.clone();
        if let Some(anomaly) = self.judge(&service, *latency) {
            ctx.emit(
                ACTIONS_TOPIC,
                format!("scale-up {service}").into_bytes(),
                Publication::new()
                    .with("action", Value::Str("scale-up".into()))
                    .with("service", Value::Str(service))
                    .with("sigma", Value::Float(anomaly.sigma)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use securecloud_eventbus::service::ServiceHost;

    #[test]
    fn stats_welford() {
        let mut s = LatencyStats::default();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.observe(v);
        }
        assert!((s.mean() - 5.0).abs() < 1e-9);
        assert!((s.stddev() - 2.138_089_935).abs() < 1e-6);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn judge_learns_then_detects() {
        let mut orchestrator = Orchestrator::new();
        for i in 0..30 {
            // ~10 ms with small jitter.
            let latency = 10.0 + f64::from(i % 5) * 0.1;
            assert!(orchestrator.judge("api", latency).is_none());
        }
        let anomaly = orchestrator.judge("api", 100.0).expect("spike detected");
        assert!(anomaly.sigma > 4.0);
        assert_eq!(anomaly.service, "api");
        // The spike did not poison the model: a normal sample is fine and a
        // second spike still fires.
        assert!(orchestrator.judge("api", 10.2).is_none());
        assert!(orchestrator.judge("api", 90.0).is_some());
        assert_eq!(orchestrator.anomalies().len(), 2);
    }

    #[test]
    fn services_learned_independently() {
        let mut orchestrator = Orchestrator::new();
        for i in 0..25 {
            orchestrator.judge("fast", 1.0 + f64::from(i % 3) * 0.01);
            orchestrator.judge("slow", 100.0 + f64::from(i % 3));
        }
        // 50 ms is an anomaly for "fast" but normal-ish for "slow".
        assert!(orchestrator.judge("fast", 50.0).is_some());
        assert!(orchestrator.judge("slow", 103.0).is_none());
    }

    #[test]
    fn orchestrator_reacts_within_one_bus_step() {
        let mut host = ServiceHost::new(1000);
        host.register(Box::new(Orchestrator::new()));
        let actions = host.bus_mut().subscribe(ACTIONS_TOPIC, None);
        // Warm-up telemetry.
        for i in 0..30 {
            host.bus_mut().publish(
                TELEMETRY_TOPIC,
                Vec::new(),
                telemetry("billing", 5.0 + f64::from(i % 4) * 0.05),
            );
        }
        host.pump_switchless(64);
        assert_eq!(host.bus().backlog(actions), 0, "no anomaly yet");
        // Inject the anomaly and count steps until the action appears.
        host.bus_mut()
            .publish(TELEMETRY_TOPIC, Vec::new(), telemetry("billing", 80.0));
        let mut steps = 0;
        while host.bus().backlog(actions) == 0 {
            assert!(
                host.pump_switchless(1) > 0,
                "bus went quiet without an action"
            );
            steps += 1;
            assert!(steps < 5);
        }
        assert_eq!(steps, 1, "action emitted in the same delivery step");
        let bus = host.bus_mut();
        let action = bus.fetch(actions).unwrap();
        assert_eq!(action.payload, b"scale-up billing");
        let id = action.id;
        bus.ack(actions, id);
    }
}
