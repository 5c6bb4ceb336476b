//! The SLO engine: declarative objectives evaluated as multi-window burn
//! rates over the live metric handles.
//!
//! An [`SloSpec`] declares an objective ("publish-to-ack p99 ≤ 250 ms with
//! a 5% error budget") against a live [`Histogram`] or a pair of
//! [`Counter`]s. Each engine tick samples the cumulative (total, bad)
//! counts and evaluates the burn rate — the fraction of the error budget
//! consumed per unit of traffic — over a **fast** and a **slow** trailing
//! window, the standard multi-window construction that makes alerts both
//! quick to fire under a real regression and immune to single-tick noise.
//! An alert fires when *both* windows burn at ≥ the configured multiple of
//! the budget.
//!
//! Everything is integer arithmetic over deterministic counters sampled on
//! the virtual clock, so the alert stream is byte-identical across
//! equal-seed runs at any `--jobs` value.

use crate::metrics::{Counter, Histogram};
use crate::{Telemetry, TraceContext};
use std::collections::VecDeque;
use std::sync::Arc;

/// What an SLO measures.
#[derive(Debug, Clone)]
pub enum SloObjective {
    /// Observations above `max_ms` in `histogram` are "bad" (latency SLO:
    /// e.g. publish-to-ack p99 ≤ `max_ms`).
    LatencyAbove {
        /// The latency histogram to watch.
        histogram: Histogram,
        /// Inclusive threshold: observations above this are budget burns.
        max_ms: u64,
    },
    /// `bad` counts out of `total` are budget burns (durability/error SLO:
    /// e.g. quorum-refused writes out of attempted writes).
    ErrorRatio {
        /// All attempts.
        total: Counter,
        /// Failed attempts.
        bad: Counter,
    },
}

/// One declarative objective plus its burn-rate alerting shape.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Objective name, e.g. `"publish_to_ack_p99"`. Appears in alerts.
    pub name: String,
    /// What is measured.
    pub objective: SloObjective,
    /// Error budget in parts-per-million of observations (e.g. 50_000 =
    /// 5% of observations may be bad before the budget is spent).
    pub budget_ppm: u64,
    /// Fast trailing window, in engine ticks.
    pub fast_window_ticks: usize,
    /// Slow trailing window, in engine ticks. Must be ≥ the fast window.
    pub slow_window_ticks: usize,
    /// Alert when both windows burn at ≥ this multiple of the budget,
    /// scaled ×100 (e.g. 200 = 2.0× budget).
    pub burn_threshold_x100: u64,
}

impl SloSpec {
    /// A latency objective with the standard 2× multi-window shape.
    #[must_use]
    pub fn latency(name: &str, histogram: Histogram, max_ms: u64, budget_ppm: u64) -> Self {
        SloSpec {
            name: name.to_string(),
            objective: SloObjective::LatencyAbove { histogram, max_ms },
            budget_ppm,
            fast_window_ticks: 3,
            slow_window_ticks: 12,
            burn_threshold_x100: 200,
        }
    }

    /// An error-ratio objective with the standard 2× multi-window shape.
    #[must_use]
    pub fn error_ratio(name: &str, total: Counter, bad: Counter, budget_ppm: u64) -> Self {
        SloSpec {
            name: name.to_string(),
            objective: SloObjective::ErrorRatio { total, bad },
            budget_ppm,
            fast_window_ticks: 3,
            slow_window_ticks: 12,
            burn_threshold_x100: 200,
        }
    }
}

/// One fired burn-rate alert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BurnAlert {
    /// The objective that fired.
    pub slo: String,
    /// Virtual time of the firing tick.
    pub at_ms: u64,
    /// Fast-window burn rate, ×100 (100 = exactly at budget).
    pub fast_burn_x100: u64,
    /// Slow-window burn rate, ×100.
    pub slow_burn_x100: u64,
}

impl BurnAlert {
    /// Deterministic one-line rendering for alert-stream digests.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "t={} slo={} fast_burn={}.{:02}x slow_burn={}.{:02}x",
            self.at_ms,
            self.slo,
            self.fast_burn_x100 / 100,
            self.fast_burn_x100 % 100,
            self.slow_burn_x100 / 100,
            self.slow_burn_x100 % 100,
        )
    }
}

/// Cumulative (total, bad) sample at one tick.
#[derive(Debug, Clone, Copy)]
struct Sample {
    total: u64,
    bad: u64,
}

#[derive(Debug)]
struct SloState {
    spec: SloSpec,
    /// Trailing cumulative samples, newest last; sized to the slow window.
    samples: VecDeque<Sample>,
    /// Whether the objective burned above threshold at the last tick.
    burning: bool,
}

impl SloState {
    fn sample(&self) -> Sample {
        match &self.spec.objective {
            SloObjective::LatencyAbove { histogram, max_ms } => {
                let mut bad = 0u64;
                for (index, count) in histogram.bucket_counts().iter().enumerate() {
                    // A bucket is bad iff even its *lower* bound exceeds the
                    // threshold: bucket index i covers
                    // (upper_bound(i-1), upper_bound(i)], so compare the
                    // previous bucket's upper bound.
                    let lower = if index == 0 {
                        0
                    } else {
                        Histogram::bucket_upper_bound(index - 1)
                    };
                    if lower >= *max_ms {
                        bad += count;
                    }
                }
                Sample {
                    total: histogram.count(),
                    bad,
                }
            }
            SloObjective::ErrorRatio { total, bad } => Sample {
                total: total.value(),
                bad: bad.value(),
            },
        }
    }

    /// Burn rate ×100 over the trailing `window` ticks; `None` without
    /// traffic in the window (no data never alerts).
    fn burn_x100(&self, window: usize) -> Option<u64> {
        let newest = *self.samples.back()?;
        let base_index = self.samples.len().saturating_sub(window + 1);
        let oldest = *self.samples.get(base_index)?;
        let total_delta = newest.total.saturating_sub(oldest.total);
        let bad_delta = newest.bad.saturating_sub(oldest.bad);
        if total_delta == 0 || self.spec.budget_ppm == 0 {
            return None;
        }
        // burn = (bad/total) / (budget_ppm/1e6), reported ×100.
        Some((bad_delta * 1_000_000 * 100) / (total_delta * self.spec.budget_ppm))
    }
}

/// Evaluates a set of [`SloSpec`]s tick by tick, emitting deterministic
/// alert events into the telemetry trace and an append-only alert log.
#[derive(Debug)]
pub struct SloEngine {
    telemetry: Arc<Telemetry>,
    slos: Vec<SloState>,
    alerts: Vec<BurnAlert>,
}

impl SloEngine {
    /// An engine recording alerts through `telemetry`.
    #[must_use]
    pub fn new(telemetry: Arc<Telemetry>) -> Self {
        SloEngine {
            telemetry,
            slos: Vec::new(),
            alerts: Vec::new(),
        }
    }

    /// Registers one objective.
    pub fn add(&mut self, spec: SloSpec) {
        let capacity = spec.slow_window_ticks + 1;
        self.slos.push(SloState {
            spec,
            samples: VecDeque::with_capacity(capacity),
            burning: false,
        });
    }

    /// Number of registered objectives.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slos.len()
    }

    /// Whether no objectives are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slos.is_empty()
    }

    /// Samples every objective at virtual time `now_ms` and evaluates the
    /// burn windows. Returns whether any objective is currently burning
    /// above threshold (the controller's extra scaling signal). Each
    /// crossing into the burning state appends a [`BurnAlert`] and emits a
    /// deterministic `("slo", "burn_alert")` trace event.
    pub fn tick(&mut self, now_ms: u64) -> bool {
        let mut any_burning = false;
        for state in &mut self.slos {
            let sample = state.sample();
            if state.samples.len() > state.spec.slow_window_ticks {
                state.samples.pop_front();
            }
            state.samples.push_back(sample);

            let fast = state.burn_x100(state.spec.fast_window_ticks);
            let slow = state.burn_x100(state.spec.slow_window_ticks);
            let burning = match (fast, slow) {
                (Some(fast), Some(slow)) => {
                    fast >= state.spec.burn_threshold_x100 && slow >= state.spec.burn_threshold_x100
                }
                _ => false,
            };
            if burning && !state.burning {
                let alert = BurnAlert {
                    slo: state.spec.name.clone(),
                    at_ms: now_ms,
                    fast_burn_x100: fast.unwrap_or(0),
                    slow_burn_x100: slow.unwrap_or(0),
                };
                self.telemetry.event(
                    "slo",
                    "burn_alert",
                    vec![
                        ("slo", alert.slo.clone()),
                        ("fast_burn_x100", alert.fast_burn_x100.to_string()),
                        ("slow_burn_x100", alert.slow_burn_x100.to_string()),
                    ],
                    TraceContext::none(),
                );
                self.alerts.push(alert);
            }
            state.burning = burning;
            any_burning |= burning;
        }
        any_burning
    }

    /// Whether any objective burned above threshold at the last tick.
    #[must_use]
    pub fn breaching(&self) -> bool {
        self.slos.iter().any(|s| s.burning)
    }

    /// Every alert fired so far, in firing order.
    #[must_use]
    pub fn alerts(&self) -> &[BurnAlert] {
        &self.alerts
    }

    /// The alert stream as deterministic text, one alert per line.
    #[must_use]
    pub fn alert_stream(&self) -> String {
        let mut out = String::new();
        for alert in &self.alerts {
            out.push_str(&alert.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_burn_fires_once_per_crossing_and_clears() {
        let telemetry = Arc::new(Telemetry::new());
        let h = telemetry
            .registry()
            .histogram("securecloud_test_lat_ms", &[]);
        let mut engine = SloEngine::new(telemetry.clone());
        engine.add(SloSpec {
            fast_window_ticks: 2,
            slow_window_ticks: 4,
            ..SloSpec::latency("lat_p99", h.clone(), 100, 100_000)
        });

        // Healthy traffic: all observations under threshold, no alerts.
        for tick in 0..5u64 {
            for _ in 0..10 {
                h.observe(10);
            }
            assert!(!engine.tick(tick * 100));
        }
        assert!(engine.alerts().is_empty());

        // Regression: every observation lands above 100ms → burn 10x.
        let mut fired = false;
        for tick in 5..9u64 {
            for _ in 0..10 {
                h.observe(500);
            }
            fired |= engine.tick(tick * 100);
        }
        assert!(fired, "sustained regression must alert");
        assert_eq!(engine.alerts().len(), 1, "one alert per crossing");
        assert!(engine.breaching());
        let stream = engine.alert_stream();
        assert!(stream.contains("slo=lat_p99"), "{stream}");

        // Recovery: fast window drains below threshold, alert state clears.
        for tick in 9..20u64 {
            for _ in 0..100 {
                h.observe(10);
            }
            engine.tick(tick * 100);
        }
        assert!(!engine.breaching());
        assert_eq!(engine.alerts().len(), 1, "no refire without a crossing");
        // The crossing left exactly one deterministic trace event.
        let events = telemetry.trace_events();
        let alerts: Vec<_> = events.iter().filter(|e| e.name == "burn_alert").collect();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].category, "slo");
    }

    #[test]
    fn error_ratio_burns_on_failures_and_empty_windows_never_alert() {
        let telemetry = Arc::new(Telemetry::new());
        let total = telemetry
            .registry()
            .counter("securecloud_writes_total", &[]);
        let bad = telemetry
            .registry()
            .counter("securecloud_writes_refused_total", &[]);
        let mut engine = SloEngine::new(telemetry);
        engine.add(SloSpec {
            fast_window_ticks: 1,
            slow_window_ticks: 2,
            ..SloSpec::error_ratio("durability", total.clone(), bad.clone(), 10_000)
        });

        // No traffic at all: windows are empty, never alerting.
        for tick in 0..4u64 {
            assert!(!engine.tick(tick));
        }

        // 50% failures against a 1% budget: 50x burn, alert fires.
        for tick in 4..8u64 {
            total.add(10);
            bad.add(5);
            engine.tick(tick);
        }
        assert_eq!(engine.alerts().len(), 1);
        assert!(engine.alerts()[0].fast_burn_x100 >= 200);
    }
}
