//! Runtime usage monitoring.
//!
//! GenPack "combines runtime monitoring of system containers to learn
//! their requirements and properties, and a scheduler that manages
//! different generations of servers" (§IV). This module is the monitoring
//! half: per-container exponential moving averages of observed CPU use,
//! with a stability test the scheduler consults before promoting a
//! container out of the nursery — an unstable container's requirements are
//! not yet "learned".

use crate::cluster::JobId;
use securecloud_telemetry::stats::Ema;
use std::collections::BTreeMap;

/// Exponential-moving-average usage monitor.
///
/// ```
/// use securecloud_genpack::cluster::JobId;
/// use securecloud_genpack::monitor::UsageMonitor;
///
/// let mut monitor = UsageMonitor::new(0.2);
/// for _ in 0..50 {
///     monitor.observe(JobId(1), 4.0);
/// }
/// assert!((monitor.estimate(JobId(1)).unwrap() - 4.0).abs() < 0.1);
/// assert!(monitor.is_stable(JobId(1)));
/// ```
#[derive(Debug, Clone)]
pub struct UsageMonitor {
    alpha: f64,
    min_samples: u64,
    stability_cv: f64,
    estimates: BTreeMap<JobId, Ema>,
}

impl UsageMonitor {
    /// Creates a monitor with smoothing factor `alpha` (0 < alpha <= 1);
    /// defaults: 8 samples minimum, 25 % coefficient of variation for
    /// stability.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        UsageMonitor {
            alpha,
            min_samples: 8,
            stability_cv: 0.25,
            estimates: BTreeMap::new(),
        }
    }

    /// Records one CPU-usage sample (cores) for `job`.
    pub fn observe(&mut self, job: JobId, cpu_used: f64) {
        let alpha = self.alpha;
        self.estimates
            .entry(job)
            .or_insert_with(|| Ema::new(alpha))
            .observe(cpu_used);
    }

    /// The learned mean usage, if any samples exist.
    #[must_use]
    pub fn estimate(&self, job: JobId) -> Option<f64> {
        self.estimates.get(&job).map(Ema::mean)
    }

    /// Whether the job's usage has been *learned*: enough samples and a
    /// coefficient of variation below the stability threshold.
    #[must_use]
    pub fn is_stable(&self, job: JobId) -> bool {
        self.estimates.get(&job).is_some_and(|e| {
            e.samples() >= self.min_samples
                && (e.mean().abs() < 1e-9 || e.stddev() / e.mean().abs() <= self.stability_cv)
        })
    }

    /// Drops a departed job's state.
    pub fn forget(&mut self, job: JobId) {
        self.estimates.remove(&job);
    }

    /// Number of jobs currently tracked.
    #[must_use]
    pub fn tracked(&self) -> usize {
        self.estimates.len()
    }
}

impl Default for UsageMonitor {
    fn default() -> Self {
        Self::new(0.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use securecloud_telemetry::rng::SeededRng;

    #[test]
    fn converges_on_noisy_signal() {
        let mut monitor = UsageMonitor::new(0.1);
        let mut rng = SeededRng::new(4);
        for _ in 0..200 {
            monitor.observe(JobId(1), 3.0 + rng.gen_range(-0.3..0.3));
        }
        let estimate = monitor.estimate(JobId(1)).unwrap();
        assert!((estimate - 3.0).abs() < 0.2, "estimate {estimate}");
        assert!(monitor.is_stable(JobId(1)));
    }

    #[test]
    fn unstable_until_enough_samples() {
        let mut monitor = UsageMonitor::new(0.2);
        for _ in 0..3 {
            monitor.observe(JobId(1), 2.0);
        }
        assert!(!monitor.is_stable(JobId(1)), "too few samples");
        for _ in 0..10 {
            monitor.observe(JobId(1), 2.0);
        }
        assert!(monitor.is_stable(JobId(1)));
    }

    #[test]
    fn erratic_job_never_stabilises() {
        let mut monitor = UsageMonitor::new(0.3);
        for i in 0..100 {
            // Oscillates 1..9 cores: CV stays far above 25 %.
            monitor.observe(JobId(1), if i % 2 == 0 { 1.0 } else { 9.0 });
        }
        assert!(!monitor.is_stable(JobId(1)));
        // Two standard deviations of headroom exceed one core.
        assert!(monitor.estimates[&JobId(1)].stddev() > 0.5);
    }

    #[test]
    fn tracks_jobs_independently_and_forgets() {
        let mut monitor = UsageMonitor::default();
        monitor.observe(JobId(1), 1.0);
        monitor.observe(JobId(2), 8.0);
        assert_eq!(monitor.tracked(), 2);
        assert!(monitor.estimate(JobId(1)).unwrap() < monitor.estimate(JobId(2)).unwrap());
        monitor.forget(JobId(1));
        assert_eq!(monitor.tracked(), 1);
        assert!(monitor.estimate(JobId(1)).is_none());
        assert!(!monitor.is_stable(JobId(99)));
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn invalid_alpha_panics() {
        let _ = UsageMonitor::new(0.0);
    }

    #[test]
    fn adapts_to_level_shift() {
        let mut monitor = UsageMonitor::new(0.2);
        for _ in 0..50 {
            monitor.observe(JobId(1), 2.0);
        }
        for _ in 0..50 {
            monitor.observe(JobId(1), 6.0);
        }
        let estimate = monitor.estimate(JobId(1)).unwrap();
        assert!(estimate > 5.5, "EMA should track the new level: {estimate}");
    }
}
