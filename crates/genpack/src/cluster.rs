//! The simulated data-center cluster: servers, placement state, and the
//! power model.
//!
//! Servers follow the common linear power model: a parked (powered-off)
//! server draws nothing; an active server draws `idle_watts` plus
//! `(peak_watts - idle_watts) * cpu_utilisation`. The large idle share is
//! what makes consolidation (GenPack's generational packing) save energy.

use std::collections::BTreeMap;

/// Identifier of a server in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub usize);

/// Identifier of a running container instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Hardware profile of a server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSpec {
    /// Normalised CPU capacity (number of cores).
    pub cpu_capacity: f64,
    /// Memory capacity in MiB.
    pub mem_capacity: u64,
    /// Power draw at 0 % utilisation, in watts.
    pub idle_watts: f64,
    /// Power draw at 100 % utilisation, in watts.
    pub peak_watts: f64,
}

impl ServerSpec {
    /// A typical dual-socket 16-core node (SPECpower-style numbers).
    #[must_use]
    pub fn typical() -> Self {
        ServerSpec {
            cpu_capacity: 16.0,
            mem_capacity: 64 * 1024,
            idle_watts: 95.0,
            peak_watts: 230.0,
        }
    }
}

/// Resource demand of one placed container.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// Declared CPU request (cores).
    pub cpu_requested: f64,
    /// Observed/actual CPU use (cores) — what monitoring discovers.
    pub cpu_actual: f64,
    /// Memory in MiB (requested == actual for memory).
    pub mem: u64,
}

/// Power state of a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerState {
    /// Running and drawing power.
    On,
    /// Powered off (consolidation target state).
    Parked,
}

#[derive(Debug, Clone)]
struct Server {
    spec: ServerSpec,
    state: PowerState,
    jobs: BTreeMap<JobId, Demand>,
}

impl Server {
    fn cpu_requested(&self) -> f64 {
        self.jobs.values().map(|d| d.cpu_requested).sum()
    }
    fn cpu_actual(&self) -> f64 {
        self.jobs.values().map(|d| d.cpu_actual).sum()
    }
    fn mem_used(&self) -> u64 {
        self.jobs.values().map(|d| d.mem).sum()
    }
}

/// The cluster: a fixed set of servers and the current placement.
#[derive(Debug, Clone)]
pub struct Cluster {
    servers: Vec<Server>,
    placements: BTreeMap<JobId, ServerId>,
}

impl Cluster {
    /// Looks up a server, panicking with the offending [`ServerId`] instead
    /// of a bare index-out-of-bounds — scheduler bugs surface with context.
    fn server(&self, id: ServerId) -> &Server {
        let servers = self.servers.len();
        self.servers
            .get(id.0)
            .unwrap_or_else(|| panic!("server {id:?} out of range ({servers} servers)"))
    }

    fn server_mut(&mut self, id: ServerId) -> &mut Server {
        let servers = self.servers.len();
        self.servers
            .get_mut(id.0)
            .unwrap_or_else(|| panic!("server {id:?} out of range ({servers} servers)"))
    }

    /// Creates a cluster of `n` identical servers, all powered on.
    #[must_use]
    pub fn new(n: usize, spec: ServerSpec) -> Self {
        Cluster {
            servers: vec![
                Server {
                    spec,
                    state: PowerState::On,
                    jobs: BTreeMap::new(),
                };
                n
            ],
            placements: BTreeMap::new(),
        }
    }

    /// Number of servers (any state).
    #[must_use]
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the cluster has no servers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Ids of all servers.
    pub fn server_ids(&self) -> impl Iterator<Item = ServerId> + '_ {
        (0..self.servers.len()).map(ServerId)
    }

    /// The server's hardware profile.
    #[must_use]
    pub fn spec(&self, id: ServerId) -> ServerSpec {
        self.server(id).spec
    }

    /// The server's power state.
    #[must_use]
    pub fn power_state(&self, id: ServerId) -> PowerState {
        self.server(id).state
    }

    /// Jobs currently on `id`.
    #[must_use]
    pub fn jobs_on(&self, id: ServerId) -> Vec<JobId> {
        self.server(id).jobs.keys().copied().collect()
    }

    /// Where `job` runs, if placed.
    #[must_use]
    pub fn placement(&self, job: JobId) -> Option<ServerId> {
        self.placements.get(&job).copied()
    }

    /// The demand recorded for `job`, if placed.
    #[must_use]
    pub fn demand(&self, job: JobId) -> Option<Demand> {
        let server = self.placements.get(&job)?;
        self.server(*server).jobs.get(&job).copied()
    }

    /// Remaining CPU (by declared requests) on `id`; 0 for parked servers.
    #[must_use]
    pub fn cpu_free_requested(&self, id: ServerId) -> f64 {
        let s = self.server(id);
        if s.state == PowerState::Parked {
            return 0.0;
        }
        (s.spec.cpu_capacity - s.cpu_requested()).max(0.0)
    }

    /// Remaining CPU by *actual* observed usage (what GenPack packs on).
    #[must_use]
    fn cpu_free_actual(&self, id: ServerId) -> f64 {
        let s = self.server(id);
        if s.state == PowerState::Parked {
            return 0.0;
        }
        (s.spec.cpu_capacity - s.cpu_actual()).max(0.0)
    }

    /// Remaining memory on `id`; 0 for parked servers.
    #[must_use]
    pub fn mem_free(&self, id: ServerId) -> u64 {
        let s = self.server(id);
        if s.state == PowerState::Parked {
            return 0;
        }
        s.spec.mem_capacity.saturating_sub(s.mem_used())
    }

    /// CPU utilisation of `id` by actual usage, clamped to [0, 1+].
    #[must_use]
    pub fn utilisation(&self, id: ServerId) -> f64 {
        let s = self.server(id);
        if s.state == PowerState::Parked {
            return 0.0;
        }
        s.cpu_actual() / s.spec.cpu_capacity
    }

    /// Whether a demand fits on `id` (by declared request and memory),
    /// waking the server is the scheduler's job — parked servers do not fit.
    #[must_use]
    pub fn fits(&self, id: ServerId, demand: Demand) -> bool {
        self.power_state(id) == PowerState::On
            && self.cpu_free_requested(id) >= demand.cpu_requested
            && self.mem_free(id) >= demand.mem
    }

    /// Like [`Cluster::fits`] but against observed actual CPU (monitored
    /// packing; memory is always by request).
    #[must_use]
    pub fn fits_actual(&self, id: ServerId, demand: Demand) -> bool {
        self.power_state(id) == PowerState::On
            && self.cpu_free_actual(id) >= demand.cpu_actual
            && self.mem_free(id) >= demand.mem
    }

    /// Places `job` on `server`.
    ///
    /// # Panics
    ///
    /// Panics if the job is already placed or the server is parked —
    /// schedulers must check first; these are programming errors.
    pub fn place(&mut self, job: JobId, server: ServerId, demand: Demand) {
        assert!(
            !self.placements.contains_key(&job),
            "job {job:?} already placed"
        );
        assert_eq!(
            self.server(server).state,
            PowerState::On,
            "cannot place job {job:?} on parked server {server:?}"
        );
        self.server_mut(server).jobs.insert(job, demand);
        self.placements.insert(job, server);
    }

    /// Removes `job`; returns the server it ran on.
    #[must_use]
    pub fn remove(&mut self, job: JobId) -> Option<ServerId> {
        let server = self.placements.remove(&job)?;
        self.server_mut(server).jobs.remove(&job);
        Some(server)
    }

    /// Migrates `job` to `target`, admitting by *observed actual* CPU
    /// (monitored packing) rather than declared requests. Returns `false`
    /// if it does not fit.
    pub fn migrate_actual(&mut self, job: JobId, target: ServerId) -> bool {
        let Some(&source) = self.placements.get(&job) else {
            return false;
        };
        if source == target {
            return false;
        }
        let Some(demand) = self.server(source).jobs.get(&job).copied() else {
            return false;
        };
        if !self.fits_actual(target, demand) {
            return false;
        }
        self.server_mut(source).jobs.remove(&job);
        self.server_mut(target).jobs.insert(job, demand);
        self.placements.insert(job, target);
        true
    }

    /// Powers a server off. Only legal when it hosts no jobs.
    ///
    /// # Panics
    ///
    /// Panics if jobs are still placed on it.
    pub fn park(&mut self, id: ServerId) {
        assert!(
            self.server(id).jobs.is_empty(),
            "cannot park busy server {id:?}"
        );
        self.server_mut(id).state = PowerState::Parked;
    }

    /// Powers a parked server back on.
    pub fn wake(&mut self, id: ServerId) {
        self.server_mut(id).state = PowerState::On;
    }

    /// Instantaneous power draw of `id`, in watts.
    #[must_use]
    fn server_power(&self, id: ServerId) -> f64 {
        let s = self.server(id);
        match s.state {
            PowerState::Parked => 0.0,
            PowerState::On => {
                let util = (s.cpu_actual() / s.spec.cpu_capacity).min(1.0);
                s.spec.idle_watts + (s.spec.peak_watts - s.spec.idle_watts) * util
            }
        }
    }

    /// Total cluster power, in watts.
    #[must_use]
    pub fn total_power(&self) -> f64 {
        (0..self.servers.len())
            .map(|i| self.server_power(ServerId(i)))
            .sum()
    }

    /// Servers currently powered on.
    #[must_use]
    pub fn servers_on(&self) -> usize {
        self.servers
            .iter()
            .filter(|s| s.state == PowerState::On)
            .count()
    }

    /// Number of placed jobs.
    #[must_use]
    pub fn jobs_placed(&self) -> usize {
        self.placements.len()
    }

    /// Servers whose *actual* CPU demand exceeds capacity right now
    /// (overcommit → SLO risk).
    #[must_use]
    pub fn overloaded_servers(&self) -> Vec<ServerId> {
        (0..self.servers.len())
            .map(ServerId)
            .filter(|&id| self.utilisation(id) > 1.0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(cpu: f64, mem: u64) -> Demand {
        Demand {
            cpu_requested: cpu,
            cpu_actual: cpu * 0.6,
            mem,
        }
    }

    #[test]
    fn place_remove_roundtrip() {
        let mut cluster = Cluster::new(2, ServerSpec::typical());
        let job = JobId(1);
        cluster.place(job, ServerId(0), demand(4.0, 1024));
        assert_eq!(cluster.placement(job), Some(ServerId(0)));
        assert_eq!(cluster.jobs_placed(), 1);
        assert_eq!(cluster.jobs_on(ServerId(0)), vec![job]);
        assert_eq!(cluster.remove(job), Some(ServerId(0)));
        assert_eq!(cluster.placement(job), None);
        assert_eq!(cluster.remove(job), None);
    }

    #[test]
    fn capacity_accounting() {
        let mut cluster = Cluster::new(1, ServerSpec::typical());
        assert_eq!(cluster.cpu_free_requested(ServerId(0)), 16.0);
        cluster.place(JobId(1), ServerId(0), demand(10.0, 1000));
        assert_eq!(cluster.cpu_free_requested(ServerId(0)), 6.0);
        assert!(cluster.fits(ServerId(0), demand(6.0, 1000)));
        assert!(!cluster.fits(ServerId(0), demand(6.5, 1000)));
        assert!(!cluster.fits(ServerId(0), demand(1.0, 64 * 1024)));
    }

    #[test]
    fn actual_vs_requested_packing() {
        let mut cluster = Cluster::new(1, ServerSpec::typical());
        // Requested 16 cores, actually using 9.6.
        cluster.place(JobId(1), ServerId(0), demand(16.0, 1024));
        assert!(!cluster.fits(ServerId(0), demand(1.0, 1024)));
        assert!(cluster.fits_actual(
            ServerId(0),
            Demand {
                cpu_requested: 4.0,
                cpu_actual: 4.0,
                mem: 1024
            }
        ));
    }

    #[test]
    fn power_model_linear() {
        let mut cluster = Cluster::new(1, ServerSpec::typical());
        assert_eq!(cluster.server_power(ServerId(0)), 95.0);
        cluster.place(
            JobId(1),
            ServerId(0),
            Demand {
                cpu_requested: 8.0,
                cpu_actual: 8.0,
                mem: 0,
            },
        );
        // 50% utilisation → halfway between idle and peak.
        assert!((cluster.server_power(ServerId(0)) - 162.5).abs() < 1e-9);
    }

    #[test]
    fn park_and_wake() {
        let mut cluster = Cluster::new(2, ServerSpec::typical());
        cluster.park(ServerId(1));
        assert_eq!(cluster.servers_on(), 1);
        assert_eq!(cluster.server_power(ServerId(1)), 0.0);
        assert!(!cluster.fits(ServerId(1), demand(1.0, 10)));
        assert_eq!(cluster.cpu_free_requested(ServerId(1)), 0.0);
        cluster.wake(ServerId(1));
        assert!(cluster.fits(ServerId(1), demand(1.0, 10)));
    }

    #[test]
    #[should_panic(expected = "cannot park busy server ServerId(0)")]
    fn parking_busy_server_panics() {
        let mut cluster = Cluster::new(1, ServerSpec::typical());
        cluster.place(JobId(1), ServerId(0), demand(1.0, 10));
        cluster.park(ServerId(0));
    }

    #[test]
    fn migration_moves_load() {
        let mut cluster = Cluster::new(2, ServerSpec::typical());
        cluster.place(JobId(1), ServerId(0), demand(4.0, 100));
        assert!(cluster.migrate_actual(JobId(1), ServerId(1)));
        assert_eq!(cluster.placement(JobId(1)), Some(ServerId(1)));
        assert_eq!(cluster.jobs_on(ServerId(0)), vec![]);
        // Migration to the same server is a no-op failure.
        assert!(!cluster.migrate_actual(JobId(1), ServerId(1)));
        // Migration that does not fit fails and leaves placement intact.
        cluster.place(JobId(2), ServerId(0), demand(25.0, 100));
        assert!(
            !cluster.migrate_actual(JobId(2), ServerId(1)),
            "15 actual cores cannot join the 2.4 already on server 1"
        );
        let big = JobId(3);
        cluster.place(big, ServerId(1), demand(10.0, 100));
        assert!(!cluster.migrate_actual(big, ServerId(0)));
        assert_eq!(cluster.placement(big), Some(ServerId(1)));
    }

    #[test]
    fn overload_detection() {
        let mut cluster = Cluster::new(1, ServerSpec::typical());
        cluster.place(
            JobId(1),
            ServerId(0),
            Demand {
                cpu_requested: 8.0,
                cpu_actual: 17.0,
                mem: 0,
            },
        );
        assert_eq!(cluster.overloaded_servers(), vec![ServerId(0)]);
    }
}
