//! The discrete-event cluster simulation driving benchmark E3.

use crate::cluster::{Cluster, JobId, ServerSpec};
use crate::schedulers::Scheduler;
use crate::workload::JobArrival;
use securecloud_telemetry::rng::SeededRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of servers.
    pub servers: usize,
    /// Hardware profile of every server.
    pub spec: ServerSpec,
    /// Housekeeping/accounting tick, in seconds.
    pub tick_secs: u64,
    /// Record a time-series sample every this many ticks (0 = no series).
    pub sample_every: u64,
    /// Relative noise on per-tick usage observations fed to schedulers
    /// (0.1 = ±10 %; monitoring must smooth this out).
    pub observation_noise: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            servers: 100,
            spec: ServerSpec::typical(),
            tick_secs: 60,
            sample_every: 10,
            observation_noise: 0.1,
        }
    }
}

/// One point of the recorded time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Simulation time, seconds.
    pub t: u64,
    /// Instantaneous cluster power, watts.
    pub watts: f64,
    /// Servers powered on.
    pub servers_on: usize,
    /// Jobs currently placed.
    pub jobs: usize,
}

/// Results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Scheduler name.
    pub scheduler: String,
    /// Total energy consumed, joules.
    pub energy_joules: f64,
    /// Mean number of powered-on servers.
    pub avg_servers_on: f64,
    /// Peak number of powered-on servers.
    pub peak_servers_on: usize,
    /// Total container migrations.
    pub migrations: u64,
    /// Jobs that could not be placed.
    pub rejections: u64,
    /// Ticks during which at least one server was overcommitted on actual
    /// CPU (SLO risk from monitored packing).
    pub overload_ticks: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Sampled time series.
    pub series: Vec<Sample>,
}

impl SimResult {
    /// Energy in kWh, for human-readable reports.
    #[must_use]
    pub fn energy_kwh(&self) -> f64 {
        self.energy_joules / 3.6e6
    }

    /// Relative saving of `self` versus `baseline` in percent (positive
    /// means `self` used less energy).
    #[must_use]
    pub fn savings_vs(&self, baseline: &SimResult) -> f64 {
        (1.0 - self.energy_joules / baseline.energy_joules) * 100.0
    }
}

/// A draw from the closed interval `[low, high]`: the top 53 bits of one
/// draw over 2⁵³ − 1, so both ends are reachable. Every seeded GenPack run
/// depends on this exact arithmetic.
fn closed_draw(rng: &mut SeededRng, low: f64, high: f64) -> f64 {
    let unit = (rng.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64;
    low + unit * (high - low)
}

/// Runs `scheduler` over the arrival trace.
pub fn simulate(
    scheduler: &mut dyn Scheduler,
    jobs: &[JobArrival],
    config: SimConfig,
) -> SimResult {
    let mut cluster = Cluster::new(config.servers, config.spec);
    let mut departures: BinaryHeap<Reverse<(u64, JobId)>> = BinaryHeap::new();
    let duration = jobs
        .iter()
        .map(|j| j.arrival + j.duration)
        .max()
        .unwrap_or(0);

    let mut result = SimResult {
        scheduler: scheduler.name().to_string(),
        energy_joules: 0.0,
        avg_servers_on: 0.0,
        peak_servers_on: 0,
        migrations: 0,
        rejections: 0,
        overload_ticks: 0,
        completed: 0,
        series: Vec::new(),
    };

    let mut observation_rng = SeededRng::new(0x0b5e);
    let mut next_arrival = 0usize;
    let mut t = 0u64;
    let mut ticks = 0u64;
    let mut servers_on_sum = 0u64;
    // Run past the nominal end until every arrival is processed and every
    // departure has drained (departures are scheduled from tick-aligned
    // times and can land after `duration`).
    while t <= duration + config.tick_secs || next_arrival < jobs.len() || !departures.is_empty() {
        // Departures due by now.
        while let Some(&Reverse((when, job))) = departures.peek() {
            if when > t {
                break;
            }
            departures.pop();
            if cluster.remove(job).is_some() {
                result.completed += 1;
            }
            scheduler.on_departure(job);
        }
        // Arrivals due by now.
        while next_arrival < jobs.len() && jobs[next_arrival].arrival <= t {
            let arrival = &jobs[next_arrival];
            let job = JobId(next_arrival as u64);
            match scheduler.place(&mut cluster, job, arrival.demand, t) {
                Some(server) => {
                    cluster.place(job, server, arrival.demand);
                    departures.push(Reverse((t + arrival.duration, job)));
                }
                None => result.rejections += 1,
            }
            next_arrival += 1;
        }
        // Monitoring: noisy per-job usage samples, as a metrics agent on
        // each server would report them.
        for server in cluster.server_ids().collect::<Vec<_>>() {
            for job in cluster.jobs_on(server) {
                if let Some(demand) = cluster.demand(job) {
                    let noise = 1.0
                        + closed_draw(
                            &mut observation_rng,
                            -config.observation_noise,
                            config.observation_noise.max(1e-12),
                        );
                    scheduler.observe(job, demand.cpu_actual * noise);
                }
            }
        }
        // Housekeeping.
        let report = scheduler.tick(&mut cluster, t);
        result.migrations += report.migrations;

        // Accounting.
        let watts = cluster.total_power();
        result.energy_joules += watts * config.tick_secs as f64;
        let on = cluster.servers_on();
        servers_on_sum += on as u64;
        result.peak_servers_on = result.peak_servers_on.max(on);
        if !cluster.overloaded_servers().is_empty() {
            result.overload_ticks += 1;
        }
        if config.sample_every > 0 && ticks.is_multiple_of(config.sample_every) {
            result.series.push(Sample {
                t,
                watts,
                servers_on: on,
                jobs: cluster.jobs_placed(),
            });
        }
        ticks += 1;
        t += config.tick_secs;
    }
    result.avg_servers_on = servers_on_sum as f64 / ticks.max(1) as f64;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedulers::{
        FirstFitScheduler, GenPackScheduler, RandomScheduler, SpreadScheduler,
    };
    use crate::workload::WorkloadConfig;

    fn small_trace() -> Vec<JobArrival> {
        WorkloadConfig {
            duration: 4 * 3600,
            churn_per_hour: 60.0,
            system_services: 5,
            long_running: 10,
            ..WorkloadConfig::default()
        }
        .generate()
    }

    fn config() -> SimConfig {
        SimConfig {
            servers: 30,
            ..SimConfig::default()
        }
    }

    #[test]
    fn simulation_conserves_jobs() {
        let trace = small_trace();
        let mut scheduler = FirstFitScheduler;
        let result = simulate(&mut scheduler, &trace, config());
        assert_eq!(
            result.completed + result.rejections,
            trace.len() as u64,
            "every job either completes or is rejected"
        );
        assert!(result.energy_joules > 0.0);
        assert!(result.avg_servers_on > 0.0);
        assert!(!result.series.is_empty());
    }

    #[test]
    fn genpack_saves_energy_vs_baselines() {
        let trace = small_trace();
        let genpack = simulate(&mut GenPackScheduler::new(), &trace, config());
        let spread = simulate(&mut SpreadScheduler, &trace, config());
        let random = simulate(&mut RandomScheduler::new(1), &trace, config());
        assert!(
            genpack.energy_joules < spread.energy_joules,
            "genpack {} vs spread {}",
            genpack.energy_kwh(),
            spread.energy_kwh()
        );
        assert!(genpack.energy_joules < random.energy_joules);
        assert!(genpack.savings_vs(&spread) > 5.0);
        assert!(genpack.migrations > 0);
    }

    #[test]
    fn genpack_rejects_no_more_than_first_fit() {
        let trace = small_trace();
        let genpack = simulate(&mut GenPackScheduler::new(), &trace, config());
        let first_fit = simulate(&mut FirstFitScheduler, &trace, config());
        // Consolidation must not come at the cost of dropping load.
        assert!(genpack.rejections <= first_fit.rejections + trace.len() as u64 / 100);
    }

    #[test]
    fn deterministic_runs() {
        let trace = small_trace();
        let a = simulate(&mut GenPackScheduler::new(), &trace, config());
        let b = simulate(&mut GenPackScheduler::new(), &trace, config());
        assert_eq!(a.energy_joules, b.energy_joules);
        assert_eq!(a.migrations, b.migrations);
    }

    #[test]
    fn savings_math() {
        let base = SimResult {
            scheduler: "a".into(),
            energy_joules: 100.0,
            avg_servers_on: 0.0,
            peak_servers_on: 0,
            migrations: 0,
            rejections: 0,
            overload_ticks: 0,
            completed: 0,
            series: vec![],
        };
        let better = SimResult {
            energy_joules: 77.0,
            scheduler: "b".into(),
            ..base.clone()
        };
        assert!((better.savings_vs(&base) - 23.0).abs() < 1e-9);
    }
}
