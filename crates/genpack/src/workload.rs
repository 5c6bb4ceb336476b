//! Synthetic data-center container workloads.
//!
//! GenPack's evaluation uses "typical data-center workloads": a mix of
//! long-running system services, user-facing long-running services, and a
//! large churn of short batch jobs — with *declared* resource requests that
//! overestimate *actual* usage (the gap monitoring exploits).

use crate::cluster::Demand;
use securecloud_telemetry::rng::SeededRng;

/// Class of a container, in the sense of the GenPack generations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// Infrastructure services running for the whole trace.
    System,
    /// Long-running application services (hours).
    LongRunning,
    /// Batch jobs (tens of minutes).
    Batch,
    /// Short tasks (minutes).
    Short,
}

/// One container arrival in the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct JobArrival {
    /// Arrival time, seconds from trace start.
    pub arrival: u64,
    /// Lifetime in seconds (unknown to the scheduler until departure).
    pub duration: u64,
    /// Resource demand (requested vs actual).
    pub demand: Demand,
    /// Job class (used by analysis, not revealed to schedulers).
    pub class: JobClass,
}

/// Workload generator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Trace duration in seconds.
    pub duration: u64,
    /// Mean arrivals per hour for short/batch jobs.
    pub churn_per_hour: f64,
    /// Number of system services started at t=0.
    pub system_services: usize,
    /// Number of long-running services started in the first hour.
    pub long_running: usize,
    /// Ratio of actual to requested CPU (overestimation gap), 0..1.
    pub actual_to_requested: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            duration: 24 * 3600,
            churn_per_hour: 120.0,
            system_services: 20,
            long_running: 60,
            actual_to_requested: 0.6,
            seed: 1,
        }
    }
}

impl WorkloadConfig {
    /// Generates the arrival trace, sorted by arrival time.
    #[must_use]
    pub fn generate(&self) -> Vec<JobArrival> {
        let mut rng = SeededRng::new(self.seed);
        let mut jobs = Vec::new();

        for _ in 0..self.system_services {
            let requested = rng.gen_range(0.5..2.0);
            jobs.push(JobArrival {
                arrival: 0,
                duration: self.duration,
                demand: self.demand(requested, rng.gen_range(512..4096)),
                class: JobClass::System,
            });
        }
        for _ in 0..self.long_running {
            let requested = rng.gen_range(1.0..4.0);
            let arrival = rng.gen_range(0..3600);
            let duration = rng.gen_range(6 * 3600..24 * 3600);
            jobs.push(JobArrival {
                arrival,
                duration: duration.min(self.duration.saturating_sub(arrival)).max(1),
                demand: self.demand(requested, rng.gen_range(1024..8192)),
                class: JobClass::LongRunning,
            });
        }
        // Short/batch churn: exponential inter-arrival times with a mild
        // diurnal modulation (busier in the middle of the trace).
        let mut t = 0f64;
        while (t as u64) < self.duration {
            let phase = (t / self.duration as f64) * std::f64::consts::PI;
            let rate = (self.churn_per_hour / 3600.0) * (0.6 + 0.8 * phase.sin());
            let gap = -rng.gen_range(1e-9f64..1.0).ln() / rate.max(1e-9);
            t += gap;
            let arrival = t as u64;
            if arrival >= self.duration {
                break;
            }
            let is_batch = rng.gen_bool(0.4);
            let (duration, requested, class) = if is_batch {
                (
                    rng.gen_range(10 * 60..60 * 60),
                    rng.gen_range(1.0..6.0),
                    JobClass::Batch,
                )
            } else {
                (
                    rng.gen_range(60..10 * 60),
                    rng.gen_range(0.25..2.0),
                    JobClass::Short,
                )
            };
            jobs.push(JobArrival {
                arrival,
                duration: duration.min(self.duration - arrival).max(1),
                demand: self.demand(requested, rng.gen_range(256..4096)),
                class,
            });
        }
        jobs.sort_by_key(|j| j.arrival);
        jobs
    }

    fn demand(&self, requested: f64, mem: u64) -> Demand {
        Demand {
            cpu_requested: requested,
            cpu_actual: requested * self.actual_to_requested,
            mem,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let config = WorkloadConfig::default();
        assert_eq!(config.generate(), config.generate());
        let other = WorkloadConfig {
            seed: 2,
            ..WorkloadConfig::default()
        };
        assert_ne!(config.generate(), other.generate());
    }

    #[test]
    fn sorted_and_bounded() {
        let config = WorkloadConfig::default();
        let jobs = config.generate();
        assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        for job in &jobs {
            assert!(job.arrival < config.duration);
            assert!(job.duration >= 1);
            assert!(job.arrival + job.duration <= config.duration + 1);
            assert!(job.demand.cpu_actual <= job.demand.cpu_requested);
        }
    }

    #[test]
    fn class_mix_present() {
        let jobs = WorkloadConfig::default().generate();
        let count = |c: JobClass| jobs.iter().filter(|j| j.class == c).count();
        assert_eq!(count(JobClass::System), 20);
        assert_eq!(count(JobClass::LongRunning), 60);
        assert!(count(JobClass::Short) > 100);
        assert!(count(JobClass::Batch) > 100);
    }

    #[test]
    fn churn_scales_with_rate() {
        let low = WorkloadConfig {
            churn_per_hour: 30.0,
            ..WorkloadConfig::default()
        };
        let high = WorkloadConfig {
            churn_per_hour: 300.0,
            ..WorkloadConfig::default()
        };
        assert!(high.generate().len() > 2 * low.generate().len());
    }
}
