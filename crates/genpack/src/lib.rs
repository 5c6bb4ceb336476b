//! GenPack: a generational container scheduler for cloud data centers
//! (paper §IV and §VI; Havet et al., IC2E'17).
//!
//! GenPack borrows the structure of generational garbage collectors:
//! servers are partitioned into *generations* — a nursery for newly started
//! containers whose behaviour is still being monitored, a young generation
//! for containers that survived the nursery, and an old generation for
//! long-running services. Monitoring data lets promoted containers be
//! packed by their *actual* (not declared) resource usage; consolidation
//! drains under-utilised servers and parks them, saving the idle power that
//! dominates data-center energy. The paper reports **up to 23 % energy
//! savings** for typical data-center workloads — regenerated by benchmark
//! E3 (`genpack_energy`).
//!
//! * [`cluster`] — servers, placement, and the linear power model,
//! * [`workload`] — synthetic container traces (system / long-running /
//!   batch / short classes with request-vs-usage gaps),
//! * [`schedulers`] — GenPack plus spread, first-fit, and random baselines,
//! * [`sim`] — the discrete-event simulation loop and energy accounting.
//!
//! # Example
//!
//! ```
//! use securecloud_genpack::schedulers::{GenPackScheduler, SpreadScheduler};
//! use securecloud_genpack::sim::{simulate, SimConfig};
//! use securecloud_genpack::workload::WorkloadConfig;
//!
//! let trace = WorkloadConfig { duration: 3600, ..WorkloadConfig::default() }.generate();
//! let config = SimConfig { servers: 20, ..SimConfig::default() };
//! let genpack = simulate(&mut GenPackScheduler::new(), &trace, config);
//! let spread = simulate(&mut SpreadScheduler, &trace, config);
//! assert!(genpack.energy_joules <= spread.energy_joules);
//! ```

#![forbid(unsafe_code)]

pub mod cluster;
pub mod monitor;
pub mod schedulers;
pub mod sim;
pub mod workload;
