//! Container schedulers: GenPack and the non-generational baselines.

use crate::cluster::{Cluster, Demand, JobId, PowerState, ServerId};
use crate::monitor::UsageMonitor;
use securecloud_telemetry::rng::SeededRng;
use std::collections::BTreeMap;

/// Actions a scheduler reports for one housekeeping tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Containers migrated this tick.
    pub migrations: u64,
    /// Servers parked this tick.
    pub parked: u64,
}

/// A container scheduler.
pub trait Scheduler {
    /// Human-readable name used in benchmark output.
    fn name(&self) -> &'static str;

    /// Chooses a server for an arriving job (waking parked servers is the
    /// scheduler's prerogative). `None` rejects the job.
    fn place(
        &mut self,
        cluster: &mut Cluster,
        job: JobId,
        demand: Demand,
        now: u64,
    ) -> Option<ServerId>;

    /// Periodic housekeeping: migrations, consolidation, parking.
    fn tick(&mut self, _cluster: &mut Cluster, _now: u64) -> TickReport {
        TickReport::default()
    }

    /// Notification that a job departed.
    fn on_departure(&mut self, _job: JobId) {}

    /// A monitoring sample: `job` was observed using `cpu_used` cores.
    /// Schedulers that learn requirements (GenPack) override this.
    fn observe(&mut self, _job: JobId, _cpu_used: f64) {}
}

fn wake_any_parked(cluster: &mut Cluster) -> Option<ServerId> {
    let parked = cluster
        .server_ids()
        .find(|&id| cluster.power_state(id) == PowerState::Parked)?;
    cluster.wake(parked);
    Some(parked)
}

/// Spread scheduler (Docker-Swarm style): place on the powered-on server
/// with the most free capacity. Keeps load — and power draw — spread across
/// the whole cluster.
#[derive(Debug, Default)]
pub struct SpreadScheduler;

impl Scheduler for SpreadScheduler {
    fn name(&self) -> &'static str {
        "spread"
    }

    fn place(
        &mut self,
        cluster: &mut Cluster,
        _job: JobId,
        demand: Demand,
        _now: u64,
    ) -> Option<ServerId> {
        cluster
            .server_ids()
            .filter(|&id| cluster.fits(id, demand))
            .max_by(|&a, &b| {
                cluster
                    .cpu_free_requested(a)
                    .total_cmp(&cluster.cpu_free_requested(b))
            })
    }
}

/// First-fit bin packing on declared requests; parks servers that drain
/// empty, wakes them on demand — but never migrates, so fragmentation
/// accumulates as jobs churn.
#[derive(Debug, Default)]
pub struct FirstFitScheduler;

impl Scheduler for FirstFitScheduler {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    fn place(
        &mut self,
        cluster: &mut Cluster,
        _job: JobId,
        demand: Demand,
        _now: u64,
    ) -> Option<ServerId> {
        if let Some(id) = cluster.server_ids().find(|&id| cluster.fits(id, demand)) {
            return Some(id);
        }
        let woken = wake_any_parked(cluster)?;
        cluster.fits(woken, demand).then_some(woken)
    }

    fn tick(&mut self, cluster: &mut Cluster, _now: u64) -> TickReport {
        let mut report = TickReport::default();
        for id in cluster.server_ids().collect::<Vec<_>>() {
            if cluster.power_state(id) == PowerState::On && cluster.jobs_on(id).is_empty() {
                cluster.park(id);
                report.parked += 1;
            }
        }
        report
    }
}

/// Uniform-random placement among fitting servers; never parks anything.
#[derive(Debug)]
pub struct RandomScheduler {
    rng: SeededRng,
}

impl RandomScheduler {
    /// Creates the scheduler with a deterministic seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: SeededRng::new(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn name(&self) -> &'static str {
        "random"
    }

    fn place(
        &mut self,
        cluster: &mut Cluster,
        _job: JobId,
        demand: Demand,
        _now: u64,
    ) -> Option<ServerId> {
        let candidates: Vec<ServerId> = cluster
            .server_ids()
            .filter(|&id| cluster.fits(id, demand))
            .collect();
        if candidates.is_empty() {
            None
        } else {
            Some(candidates[self.rng.gen_range(0..candidates.len())])
        }
    }
}

/// Generations a server or container can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Generation {
    /// Newly arrived containers under monitoring.
    Nursery,
    /// Containers that survived the nursery.
    Young,
    /// Long-running, stable containers.
    Old,
}

/// GenPack: partitions servers into generations, promotes containers as
/// they age, packs promoted containers by *monitored actual* usage, and
/// consolidates + parks under-utilised servers (paper §IV, §VI).
#[derive(Debug)]
pub struct GenPackScheduler {
    /// Seconds before a container leaves the nursery.
    pub nursery_secs: u64,
    /// Seconds before a container is considered old.
    pub old_secs: u64,
    /// Utilisation below which a server becomes a consolidation source.
    pub consolidation_threshold: f64,
    job_arrivals: BTreeMap<JobId, u64>,
    job_gen: BTreeMap<JobId, Generation>,
    server_gen: BTreeMap<ServerId, Generation>,
    monitor: UsageMonitor,
}

impl Default for GenPackScheduler {
    fn default() -> Self {
        GenPackScheduler {
            nursery_secs: 300,
            old_secs: 3600,
            consolidation_threshold: 0.55,
            job_arrivals: BTreeMap::new(),
            job_gen: BTreeMap::new(),
            server_gen: BTreeMap::new(),
            monitor: UsageMonitor::default(),
        }
    }
}

impl GenPackScheduler {
    /// Creates a GenPack scheduler with default thresholds.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a copy with different promotion thresholds.
    #[must_use]
    pub fn with_promotion_secs(mut self, nursery_secs: u64, old_secs: u64) -> Self {
        self.nursery_secs = nursery_secs;
        self.old_secs = old_secs;
        self
    }

    /// Returns a copy with a different consolidation threshold (a server
    /// below this utilisation becomes a drain candidate; 0 disables
    /// consolidation entirely).
    #[must_use]
    pub fn with_consolidation_threshold(mut self, threshold: f64) -> Self {
        self.consolidation_threshold = threshold;
        self
    }

    /// Servers currently assigned to `generation`.
    fn servers_of(&self, cluster: &Cluster, generation: Generation) -> Vec<ServerId> {
        cluster
            .server_ids()
            .filter(|id| self.server_gen.get(id) == Some(&generation))
            .collect()
    }

    /// Finds or recruits a server of `generation` where `fits` holds.
    fn find_or_recruit(
        &mut self,
        cluster: &mut Cluster,
        generation: Generation,
        fits: impl Fn(&Cluster, ServerId) -> bool,
    ) -> Option<ServerId> {
        // Pack: prefer the most utilised server of the generation that fits.
        let mut members = self.servers_of(cluster, generation);
        members.sort_by(|&a, &b| cluster.utilisation(b).total_cmp(&cluster.utilisation(a)));
        if let Some(&id) = members.iter().find(|&&id| fits(cluster, id)) {
            return Some(id);
        }
        // Recruit: an unassigned ON server, else wake a parked one.
        let unassigned = cluster.server_ids().find(|id| {
            !self.server_gen.contains_key(id) && cluster.power_state(*id) == PowerState::On
        });
        let recruit = match unassigned {
            Some(id) => Some(id),
            None => wake_any_parked(cluster).inspect(|id| {
                self.server_gen.remove(id);
            }),
        }?;
        self.server_gen.insert(recruit, generation);
        fits(cluster, recruit).then_some(recruit)
    }

    fn promote_due_jobs(&mut self, cluster: &mut Cluster, now: u64) -> u64 {
        let mut migrations = 0;
        let due: Vec<(JobId, Generation)> = self
            .job_arrivals
            .iter()
            .filter_map(|(&job, &arrival)| {
                let age = now.saturating_sub(arrival);
                let current = self.job_gen.get(&job).copied()?;
                let target = if age >= self.old_secs {
                    Generation::Old
                } else if age >= self.nursery_secs {
                    Generation::Young
                } else {
                    Generation::Nursery
                };
                if target == current {
                    return None;
                }
                // Requirements must be *learned* before a container leaves
                // the nursery (monitored packing depends on the estimate);
                // grossly overdue containers are promoted anyway so an
                // erratic one cannot squat in the nursery forever.
                let overdue = age >= self.nursery_secs.saturating_mul(4);
                if current == Generation::Nursery && !self.monitor.is_stable(job) && !overdue {
                    return None;
                }
                Some((job, target))
            })
            .collect();
        for (job, target) in due {
            let Some(demand) = cluster.demand(job) else {
                continue;
            };
            // Promoted containers are monitored: pack on actual usage.
            let server = self.find_or_recruit(cluster, target, |c, id| c.fits_actual(id, demand));
            if let Some(server) = server {
                if cluster.migrate_actual(job, server) {
                    migrations += 1;
                }
                // Even if migration failed (race with fits check), record
                // the logical generation so we do not retry every tick.
                self.job_gen.insert(job, target);
            }
        }
        migrations
    }

    fn consolidate(&mut self, cluster: &mut Cluster) -> (u64, u64) {
        let mut migrations = 0;
        let mut parked = 0;
        for generation in [Generation::Old, Generation::Young, Generation::Nursery] {
            let mut members = self.servers_of(cluster, generation);
            // Least utilised first: drain candidates.
            members.sort_by(|&a, &b| cluster.utilisation(a).total_cmp(&cluster.utilisation(b)));
            for &source in &members {
                if cluster.utilisation(source) >= self.consolidation_threshold {
                    continue;
                }
                let jobs = cluster.jobs_on(source);
                // Try to move every job to a *different* same-generation
                // server, packing tightest-first.
                for job in jobs {
                    let Some(demand) = cluster.demand(job) else {
                        continue;
                    };
                    let mut targets = self.servers_of(cluster, generation);
                    targets.retain(|&t| t != source);
                    targets.sort_by(|&a, &b| {
                        cluster.utilisation(b).total_cmp(&cluster.utilisation(a))
                    });
                    for target in targets {
                        if cluster.fits_actual(target, demand)
                            && cluster.migrate_actual(job, target)
                        {
                            migrations += 1;
                            break;
                        }
                    }
                }
                if cluster.jobs_on(source).is_empty() {
                    cluster.park(source);
                    self.server_gen.remove(&source);
                    parked += 1;
                }
            }
        }
        // Park any empty unassigned servers too.
        for id in cluster.server_ids().collect::<Vec<_>>() {
            if cluster.power_state(id) == PowerState::On
                && cluster.jobs_on(id).is_empty()
                && !self.server_gen.contains_key(&id)
            {
                cluster.park(id);
                parked += 1;
            }
        }
        (migrations, parked)
    }
}

impl Scheduler for GenPackScheduler {
    fn name(&self) -> &'static str {
        "genpack"
    }

    fn place(
        &mut self,
        cluster: &mut Cluster,
        job: JobId,
        demand: Demand,
        now: u64,
    ) -> Option<ServerId> {
        // New, unmonitored containers are admitted by declared request.
        let server = self.find_or_recruit(cluster, Generation::Nursery, |c, id| c.fits(id, demand));
        let server = match server {
            Some(s) => Some(s),
            // Nursery full: fall back to any fitting server to avoid
            // rejecting load (availability beats purity).
            None => cluster.server_ids().find(|&id| cluster.fits(id, demand)),
        }?;
        self.job_arrivals.insert(job, now);
        self.job_gen.insert(job, Generation::Nursery);
        Some(server)
    }

    fn tick(&mut self, cluster: &mut Cluster, now: u64) -> TickReport {
        let promoted = self.promote_due_jobs(cluster, now);
        let (consolidated, parked) = self.consolidate(cluster);
        TickReport {
            migrations: promoted + consolidated,
            parked,
        }
    }

    fn on_departure(&mut self, job: JobId) {
        self.job_arrivals.remove(&job);
        self.job_gen.remove(&job);
        self.monitor.forget(job);
    }

    fn observe(&mut self, job: JobId, cpu_used: f64) {
        self.monitor.observe(job, cpu_used);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ServerSpec;

    fn demand(cpu: f64) -> Demand {
        Demand {
            cpu_requested: cpu,
            cpu_actual: cpu * 0.6,
            mem: 1024,
        }
    }

    #[test]
    fn spread_picks_emptiest() {
        let mut cluster = Cluster::new(3, ServerSpec::typical());
        cluster.place(JobId(100), ServerId(0), demand(8.0));
        cluster.place(JobId(101), ServerId(1), demand(4.0));
        let mut scheduler = SpreadScheduler;
        let chosen = scheduler
            .place(&mut cluster, JobId(1), demand(1.0), 0)
            .unwrap();
        assert_eq!(chosen, ServerId(2));
    }

    #[test]
    fn first_fit_packs_low_indices_and_parks_empties() {
        let mut cluster = Cluster::new(3, ServerSpec::typical());
        let mut scheduler = FirstFitScheduler;
        for i in 0..4 {
            let s = scheduler
                .place(&mut cluster, JobId(i), demand(4.0), 0)
                .unwrap();
            cluster.place(JobId(i), s, demand(4.0));
        }
        assert_eq!(cluster.jobs_on(ServerId(0)).len(), 4);
        let report = scheduler.tick(&mut cluster, 0);
        assert_eq!(report.parked, 2);
        assert_eq!(cluster.servers_on(), 1);
        // Overflow wakes a parked server.
        let s = scheduler
            .place(&mut cluster, JobId(9), demand(4.0), 0)
            .unwrap();
        assert_ne!(s, ServerId(0));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut c1 = Cluster::new(8, ServerSpec::typical());
        let mut c2 = Cluster::new(8, ServerSpec::typical());
        let mut s1 = RandomScheduler::new(5);
        let mut s2 = RandomScheduler::new(5);
        for i in 0..20 {
            let a = s1.place(&mut c1, JobId(i), demand(1.0), 0).unwrap();
            let b = s2.place(&mut c2, JobId(i), demand(1.0), 0).unwrap();
            assert_eq!(a, b);
            c1.place(JobId(i), a, demand(1.0));
            c2.place(JobId(i), b, demand(1.0));
        }
    }

    #[test]
    fn genpack_promotes_and_consolidates() {
        let mut cluster = Cluster::new(6, ServerSpec::typical());
        let mut scheduler = GenPackScheduler::new();
        // Two long-running jobs arrive.
        for i in 0..2 {
            let s = scheduler
                .place(&mut cluster, JobId(i), demand(3.0), 0)
                .unwrap();
            cluster.place(JobId(i), s, demand(3.0));
        }
        // Monitoring learns their (steady) usage.
        for _ in 0..10 {
            for i in 0..2 {
                scheduler.observe(JobId(i), demand(3.0).cpu_actual);
            }
        }
        // After the nursery period they are promoted (migrated) to Young.
        let report = scheduler.tick(&mut cluster, 600);
        assert!(report.migrations >= 1, "expected promotion migrations");
        // After the old threshold they move to Old and empties get parked.
        let report = scheduler.tick(&mut cluster, 4000);
        let _ = report;
        scheduler.tick(&mut cluster, 4060);
        assert!(
            cluster.servers_on() <= 2,
            "GenPack should have parked idle servers, {} still on",
            cluster.servers_on()
        );
        // Jobs are still placed and unharmed.
        assert_eq!(cluster.jobs_placed(), 2);
    }

    #[test]
    fn genpack_packs_on_actual_usage() {
        let mut cluster = Cluster::new(4, ServerSpec::typical());
        let mut scheduler = GenPackScheduler::new();
        // Jobs request 8 cores but use 4.8: two fit by request per server,
        // three fit by actual usage.
        for i in 0..3 {
            let s = scheduler
                .place(&mut cluster, JobId(i), demand(8.0), 0)
                .unwrap();
            cluster.place(JobId(i), s, demand(8.0));
        }
        for _ in 0..10 {
            for i in 0..3 {
                scheduler.observe(JobId(i), demand(8.0).cpu_actual);
            }
        }
        scheduler.tick(&mut cluster, 4000); // everyone old → packed by actual
        scheduler.tick(&mut cluster, 4060);
        assert_eq!(
            cluster.servers_on(),
            1,
            "three 4.8-core-actual jobs pack onto one 16-core server"
        );
    }

    #[test]
    fn unstable_jobs_wait_in_nursery_until_overdue() {
        let mut cluster = Cluster::new(4, ServerSpec::typical());
        let mut scheduler = GenPackScheduler::new();
        let s = scheduler
            .place(&mut cluster, JobId(1), demand(3.0), 0)
            .unwrap();
        cluster.place(JobId(1), s, demand(3.0));
        // Erratic usage: never stabilises.
        for i in 0..50 {
            scheduler.observe(JobId(1), if i % 2 == 0 { 0.5 } else { 5.0 });
        }
        // Past the nursery threshold but not overdue: no promotion.
        let report = scheduler.tick(&mut cluster, 600);
        assert_eq!(report.migrations, 0, "unstable job must not be promoted");
        // Grossly overdue (4x nursery): promoted anyway.
        let report = scheduler.tick(&mut cluster, 1_300);
        assert!(report.migrations >= 1 || cluster.jobs_placed() == 1);
    }

    #[test]
    fn genpack_departure_cleanup() {
        let mut cluster = Cluster::new(2, ServerSpec::typical());
        let mut scheduler = GenPackScheduler::new();
        let s = scheduler
            .place(&mut cluster, JobId(1), demand(1.0), 0)
            .unwrap();
        cluster.place(JobId(1), s, demand(1.0));
        let _ = cluster.remove(JobId(1));
        scheduler.on_departure(JobId(1));
        let report = scheduler.tick(&mut cluster, 100);
        let _ = report;
        assert_eq!(cluster.servers_on(), 0, "all empty servers parked");
    }
}
