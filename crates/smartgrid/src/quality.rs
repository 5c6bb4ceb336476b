//! Power-quality monitoring: the paper's second use case (§VI), where
//! "orchestration services detect anomalies within milliseconds".
//!
//! A feeder's voltage is sampled at high rate; faults are injected as sags
//! (voltage dips, e.g. a short circuit downstream) and swells. A streaming
//! detector classifies samples against the EN 50160-style ±10 % band and
//! reports detection latency — the basis of benchmark E7.

use securecloud_telemetry::rng::SeededRng;

/// Nominal European line voltage.
pub const NOMINAL_VOLTS: f64 = 230.0;

/// A power-quality disturbance type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Voltage dip below 0.9 pu.
    Sag,
    /// Voltage rise above 1.1 pu.
    Swell,
}

/// An injected disturbance (ground truth).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectedFault {
    /// Kind of disturbance.
    pub kind: FaultKind,
    /// First affected sample.
    pub start: usize,
    /// Number of affected samples.
    pub len: usize,
    /// Magnitude in per-unit (e.g. 0.7 for a 30 % sag).
    pub per_unit: f64,
}

/// A generated voltage trace with ground-truth faults.
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageTrace {
    /// Volts per sample.
    pub samples: Vec<f64>,
    /// Sampling interval in milliseconds.
    pub interval_ms: u64,
    /// Injected faults.
    pub faults: Vec<InjectedFault>,
}

/// Voltage trace generator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct QualitySpec {
    /// Number of samples.
    pub samples: usize,
    /// Sampling interval in milliseconds.
    pub interval_ms: u64,
    /// Expected number of faults over the trace.
    pub faults: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QualitySpec {
    fn default() -> Self {
        QualitySpec {
            samples: 60_000, // one minute at 1 kHz
            interval_ms: 1,
            faults: 10,
            seed: 3,
        }
    }
}

impl QualitySpec {
    /// Generates a voltage trace with injected sags/swells.
    #[must_use]
    pub fn generate(&self) -> VoltageTrace {
        let mut rng = SeededRng::new(self.seed);
        let mut samples: Vec<f64> = (0..self.samples)
            .map(|_| NOMINAL_VOLTS + rng.gen_range(-2.0..2.0))
            .collect();
        let mut faults = Vec::new();
        for _ in 0..self.faults {
            let kind = if rng.gen_bool(0.7) {
                FaultKind::Sag
            } else {
                FaultKind::Swell
            };
            let len = rng.gen_range(20..2000); // 20 ms .. 2 s at 1 kHz
            if self.samples <= len + 1 {
                continue;
            }
            let start = rng.gen_range(0..self.samples - len);
            let per_unit = match kind {
                FaultKind::Sag => rng.gen_range(0.4..0.85),
                FaultKind::Swell => rng.gen_range(1.15..1.4),
            };
            for s in &mut samples[start..start + len] {
                *s = NOMINAL_VOLTS * per_unit + rng.gen_range(-1.0..1.0);
            }
            faults.push(InjectedFault {
                kind,
                start,
                len,
                per_unit,
            });
        }
        faults.sort_by_key(|f| f.start);
        VoltageTrace {
            samples,
            interval_ms: self.interval_ms,
            faults,
        }
    }
}

/// A detected power-quality event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectedEvent {
    /// Kind of disturbance.
    pub kind: FaultKind,
    /// Sample at which the detector fired.
    pub detected_at: usize,
}

/// Streaming sag/swell detector: fires after `confirm_samples` consecutive
/// out-of-band samples (debouncing measurement noise).
#[derive(Debug)]
pub struct QualityDetector {
    /// Lower bound of the healthy band, per-unit.
    pub low_pu: f64,
    /// Upper bound of the healthy band, per-unit.
    pub high_pu: f64,
    /// Consecutive out-of-band samples before firing.
    pub confirm_samples: usize,
    run: usize,
    current: Option<FaultKind>,
}

impl Default for QualityDetector {
    fn default() -> Self {
        QualityDetector {
            low_pu: 0.9,
            high_pu: 1.1,
            confirm_samples: 3,
            run: 0,
            current: None,
        }
    }
}

impl QualityDetector {
    /// Creates a detector with the EN 50160-style defaults.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one sample; returns an event when a disturbance is confirmed.
    pub fn observe(&mut self, index: usize, volts: f64) -> Option<DetectedEvent> {
        let pu = volts / NOMINAL_VOLTS;
        let kind = if pu < self.low_pu {
            Some(FaultKind::Sag)
        } else if pu > self.high_pu {
            Some(FaultKind::Swell)
        } else {
            None
        };
        match kind {
            None => {
                self.run = 0;
                self.current = None;
                None
            }
            Some(k) => {
                if self.current == Some(k) {
                    // Already reported this ongoing event.
                    return None;
                }
                self.run += 1;
                if self.run >= self.confirm_samples {
                    self.run = 0;
                    self.current = Some(k);
                    Some(DetectedEvent {
                        kind: k,
                        detected_at: index,
                    })
                } else {
                    None
                }
            }
        }
    }
}

/// Outcome of running the detector over a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionReport {
    /// Events detected.
    pub events: Vec<DetectedEvent>,
    /// Latency in milliseconds for each matched ground-truth fault.
    pub latencies_ms: Vec<f64>,
    /// Ground-truth faults that were never detected.
    pub missed: usize,
    /// Detections with no matching ground-truth fault.
    pub false_positives: usize,
}

impl DetectionReport {
    /// Mean detection latency in milliseconds.
    #[must_use]
    pub fn mean_latency_ms(&self) -> f64 {
        if self.latencies_ms.is_empty() {
            return f64::NAN;
        }
        self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len() as f64
    }

    /// p99-ish latency (max over this sample size).
    #[must_use]
    pub fn max_latency_ms(&self) -> f64 {
        self.latencies_ms.iter().cloned().fold(f64::NAN, f64::max)
    }
}

/// Runs the detector over a trace and scores it against ground truth.
#[must_use]
pub fn run_detector(trace: &VoltageTrace, detector: &mut QualityDetector) -> DetectionReport {
    let mut events = Vec::new();
    for (i, &v) in trace.samples.iter().enumerate() {
        if let Some(event) = detector.observe(i, v) {
            events.push(event);
        }
    }
    let mut latencies = Vec::new();
    let mut matched = vec![false; events.len()];
    let mut missed = 0;
    for fault in &trace.faults {
        let window = fault.start..fault.start + fault.len;
        match events
            .iter()
            .enumerate()
            .find(|(i, e)| !matched[*i] && window.contains(&e.detected_at) && e.kind == fault.kind)
        {
            Some((i, event)) => {
                matched[i] = true;
                latencies.push((event.detected_at - fault.start) as f64 * trace.interval_ms as f64);
            }
            None => missed += 1,
        }
    }
    let false_positives = matched.iter().filter(|&&m| !m).count();
    DetectionReport {
        events,
        latencies_ms: latencies,
        missed,
        false_positives,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_injects_requested_faults() {
        let trace = QualitySpec::default().generate();
        assert_eq!(trace.samples.len(), 60_000);
        assert!(!trace.faults.is_empty());
        for fault in &trace.faults {
            let mid = trace.samples[fault.start + fault.len / 2];
            match fault.kind {
                FaultKind::Sag => assert!(mid < 0.9 * NOMINAL_VOLTS * 1.02),
                FaultKind::Swell => assert!(mid > 1.1 * NOMINAL_VOLTS * 0.98),
            }
        }
    }

    #[test]
    fn detector_fires_within_milliseconds() {
        let trace = QualitySpec::default().generate();
        let report = run_detector(&trace, &mut QualityDetector::new());
        assert!(!report.latencies_ms.is_empty(), "no faults detected at all");
        // "within milliseconds": confirm_samples=3 at 1 kHz → ~2-3 ms.
        assert!(
            report.mean_latency_ms() < 10.0,
            "mean latency {} ms",
            report.mean_latency_ms()
        );
        assert!(report.missed <= trace.faults.len() / 4);
    }

    #[test]
    fn healthy_trace_has_no_events() {
        let trace = QualitySpec {
            faults: 0,
            samples: 5_000,
            ..QualitySpec::default()
        }
        .generate();
        let report = run_detector(&trace, &mut QualityDetector::new());
        assert!(report.events.is_empty());
        assert_eq!(report.false_positives, 0);
        assert!(report.mean_latency_ms().is_nan());
    }

    #[test]
    fn detector_debounces_single_spikes() {
        let mut detector = QualityDetector::new();
        // One noisy out-of-band sample: no event.
        assert!(detector.observe(0, 100.0).is_none());
        assert!(detector.observe(1, 230.0).is_none());
        // Three consecutive: event on the third.
        assert!(detector.observe(2, 100.0).is_none());
        assert!(detector.observe(3, 100.0).is_none());
        let event = detector.observe(4, 100.0).unwrap();
        assert_eq!(event.kind, FaultKind::Sag);
        assert_eq!(event.detected_at, 4);
        // Ongoing event is not re-reported.
        assert!(detector.observe(5, 100.0).is_none());
        // Recovery then a swell: new event.
        assert!(detector.observe(6, 230.0).is_none());
        for i in 7..9 {
            assert!(detector.observe(i, 280.0).is_none());
        }
        assert_eq!(detector.observe(9, 280.0).unwrap().kind, FaultKind::Swell);
    }

    #[test]
    fn deterministic_generation() {
        let spec = QualitySpec::default();
        assert_eq!(spec.generate(), spec.generate());
    }
}
