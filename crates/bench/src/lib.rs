//! The SecureCloud benchmark harness.
//!
//! One module per experiment in DESIGN.md's index (E1–E16), the ordered
//! worker [`pool`] the sweeps fan out on, and the [`report`] spine every
//! experiment prints and persists through. Each module exposes one sweep
//! returning structured results and a `report` function declaring its
//! table; [`EXPERIMENTS`] lists them all, and the `repro` binary is a loop
//! over that registry printing the tables recorded in EXPERIMENTS.md.
//!
//! Experiment results are *simulated* durations from the SGX cost model
//! (deterministic, hardware-independent) except where noted (E4b measures
//! real wall-clock across the syscall rings, E5 of the cryptographic build
//! pipeline, E10 of the crypto kernels).

pub mod cluster_exp;
pub mod container;
mod cryptobench;
pub mod fig3;
mod genpack_exp;
mod indexcmp;
pub mod messaging;
mod orchestration_exp;
pub mod pool;
pub mod replication;
pub mod report;
pub mod rings;
pub mod slo;
pub mod storage;
mod streaming_exp;
pub mod syscalls;

use report::{Ctx, Report};
use securecloud_sgx::costs::MemoryGeometry;

/// SGX1 line/page sizes with a scaled-down EPC (and an LLC a quarter of it,
/// keeping the cache-vs-EPC proportions of the full-size model), so E9, E14
/// and E16 page exactly like the full-size model at harness-sized working
/// sets.
#[must_use]
pub fn small_epc(total: usize, reserved: usize) -> MemoryGeometry {
    MemoryGeometry {
        epc_total_bytes: total,
        epc_reserved_bytes: reserved,
        llc_bytes: total / 4,
        ..MemoryGeometry::sgx_v1()
    }
}

/// One `repro` sub-command: its name (also the stem of `BENCH_<name>.json`)
/// and the function that runs the experiment at the context's size and
/// declares its report(s).
pub type Experiment = (&'static str, fn(&Ctx) -> Vec<Report>);

/// Every experiment, in the order `repro -- all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig3", fig3::report),
    ("cache", fig3::cache_report),
    ("fig3opt", fig3::optimisations_report),
    ("genpack", genpack_exp::report),
    ("ablation", genpack_exp::ablation_report),
    ("genpack_sweep", genpack_exp::churn_report),
    ("syscall_window", syscalls::window_report),
    ("syscall", syscalls::report),
    ("container", container::report),
    ("index", indexcmp::report),
    ("orchestration", orchestration_exp::report),
    ("replication", replication::report),
    ("crypto", cryptobench::report),
    ("messaging", |ctx| vec![messaging::report(ctx, false)]),
    ("cluster", cluster_exp::report),
    ("slo", slo::report),
    ("storage", storage::report),
    ("rings", rings::report),
    ("streaming", streaming_exp::report),
];

/// The experiments a sub-command selects: all of them for `all`, the one
/// of that name otherwise, `None` for a name the registry does not have.
#[must_use]
pub fn select(which: &str) -> Option<&'static [Experiment]> {
    if which == "all" {
        return Some(EXPERIMENTS);
    }
    let index = EXPERIMENTS.iter().position(|(name, _)| *name == which)?;
    Some(&EXPERIMENTS[index..=index])
}

/// The `repro --help` text, sub-commands straight from the registry.
#[must_use]
pub fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: repro [<exp>] [--smoke] [--jobs N]\n\
         \n  <exp>      one of: {}, or all (default)\
         \n  --smoke    reduced, CI-sized workloads through the same code paths\
         \n  --jobs N   worker threads for the sweeps (default: available parallelism);\
         \n             results and reports are byte-identical for any N\
         \n\nEvery experiment prints its table and writes target/telemetry/BENCH_<exp>.json;\
         \nthe run's telemetry (snapshot.prom, trace.jsonl, trace.chrome.json) lands beside it.",
        names.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_finds_one_all_or_nothing() {
        let one = select("rings").expect("registered");
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].0, "rings");
        assert_eq!(select("all").expect("all").len(), EXPERIMENTS.len());
        assert!(select("nosuch").is_none());
        assert!(select("").is_none());
        assert!(select("--smoke").is_none());
    }

    #[test]
    fn names_are_unique_and_all_in_usage() {
        let usage = usage();
        for (i, (name, _)) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|(earlier, _)| earlier != name),
                "duplicate sub-command {name}"
            );
            assert_ne!(*name, "all", "`all` is reserved");
            // Whole-word match: `syscall` must not pass on `syscall_window`.
            let listed = usage.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
            assert!(
                listed.clone().any(|word| word == *name),
                "{name} not in usage"
            );
        }
    }
}
