//! E15: the switchless enclave runtime — shared-memory syscall rings and
//! the in-enclave cooperative executor versus the transition-per-call
//! synchronous shield (DESIGN.md §14).
//!
//! Each point runs `workers` cooperative tasks inside one executor; every
//! task opens its own shielded file, issues a run of pwrites, and closes
//! it. The synchronous baseline performs the identical syscall sequence
//! through [`Shield::sync`], paying a full ECALL/OCALL pair per call. The
//! ring plane pays only slot copies ([`CostModel::ring_slot_cycles`]) and
//! never transitions, so `ring_cycles_per_op` stays below
//! [`CostModel::transition_pair`] regardless of payload — that inequality
//! is the experiment's "~0 transitions per op" witness.
//!
//! Determinism contract: results and telemetry are byte-identical for any
//! `--jobs N` — each point runs on a private telemetry bundle, absorbed
//! into the shared one in point order.

use securecloud_scone::executor::Executor;
use securecloud_scone::hostos::{MemHost, Syscall, SyscallRet};
use securecloud_scone::syscall::Shield;
use securecloud_sgx::costs::{CostModel, MemoryGeometry};
use securecloud_sgx::mem::MemorySim;
use securecloud_telemetry::Telemetry;
use std::sync::Arc;

use crate::report::Cell::{Fixed, Unit};
use crate::report::{Column, Ctx, Report};
use crate::{messaging, pool};

/// Sweep configuration: the cross product of depths × payloads × workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingsConfig {
    /// Submission/completion ring depths (slots).
    pub depths: Vec<usize>,
    /// Pwrite payload sizes in bytes.
    pub payload_bytes: Vec<usize>,
    /// Cooperative tasks sharing the executor.
    pub workers: Vec<usize>,
    /// Total pwrites per point, split evenly across workers.
    pub ops: usize,
}

impl RingsConfig {
    /// The full sweep recorded in EXPERIMENTS.md.
    #[must_use]
    pub fn full() -> Self {
        RingsConfig {
            depths: vec![1, 8, 64],
            payload_bytes: vec![64, 512, 4096],
            workers: vec![1, 4, 16],
            ops: 384,
        }
    }

    /// A reduced sweep for CI smoke runs.
    #[must_use]
    pub fn smoke() -> Self {
        RingsConfig {
            depths: vec![1, 8, 64],
            payload_bytes: vec![64, 512],
            workers: vec![1, 4],
            ops: 96,
        }
    }
}

/// Result of one (depth, payload, workers) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingsPoint {
    /// Ring depth in slots.
    pub depth: usize,
    /// Pwrite payload in bytes.
    pub payload_bytes: usize,
    /// Cooperative tasks in the executor.
    pub workers: usize,
    /// Syscalls issued per plane (opens + pwrites + closes).
    pub syscalls: u64,
    /// Enclave cycles per syscall, synchronous shield.
    pub sync_cycles_per_op: f64,
    /// Enclave cycles per syscall, ring plane.
    pub ring_cycles_per_op: f64,
    /// sync / ring speedup.
    pub speedup: f64,
    /// Ring-plane throughput in kilo-ops/s of simulated time.
    pub ring_kops_per_s: f64,
    /// Enclave transitions per syscall on the sync plane (always 1: the
    /// shield charges one ECALL/OCALL pair per call by construction).
    pub sync_transitions_per_op: f64,
    /// Enclave transitions per syscall on the ring plane (always 0: the
    /// servicer drains submissions without an enclave exit).
    pub ring_transitions_per_op: f64,
    /// Executor parks on the completion signal.
    pub parks: u64,
    /// Wakes that found no completion (deterministic servicer: ~0).
    pub spurious_wakes: u64,
}

fn enclave_mem() -> MemorySim {
    MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::sgx_v1())
}

/// Deterministic per-worker payload so host file contents are a pure
/// function of the workload (the property tests compare them bytewise).
fn payload(bytes: usize, worker: usize) -> Vec<u8> {
    (0..bytes)
        .map(|i| (i.wrapping_mul(31).wrapping_add(worker * 17) % 251) as u8)
        .collect()
}

fn expect_fd(ret: &SyscallRet) -> u64 {
    match ret {
        SyscallRet::Fd(fd) => *fd,
        other => panic!("unexpected open result {other:?}"),
    }
}

/// Runs the identical workload through the synchronous shield; returns
/// (total cycles, syscall count, host) for comparison.
fn run_sync_plane(
    payload_bytes: usize,
    workers: usize,
    ops_per_worker: usize,
) -> (u64, u64, Arc<MemHost>) {
    let host = Arc::new(MemHost::new());
    let mut shield = Shield::sync(host.clone());
    let mut mem = enclave_mem();
    let before = mem.cycles();
    for worker in 0..workers {
        let ret = shield
            .call(
                &mut mem,
                Syscall::Open {
                    path: format!("/bench/w{worker}"),
                    create: true,
                },
            )
            .expect("open");
        let fd = expect_fd(&ret);
        let data = payload(payload_bytes, worker);
        for i in 0..ops_per_worker {
            shield
                .call(
                    &mut mem,
                    Syscall::Pwrite {
                        fd,
                        offset: (i * payload_bytes) as u64,
                        data: data.clone(),
                    },
                )
                .expect("pwrite");
        }
        shield.call(&mut mem, Syscall::Close { fd }).expect("close");
    }
    (mem.cycles() - before, host.call_count(), host)
}

/// Runs the workload as `workers` cooperative tasks over the ring plane;
/// returns (cycles, stats, spurious wakes, host).
fn run_ring_plane(
    depth: usize,
    payload_bytes: usize,
    workers: usize,
    ops_per_worker: usize,
    telemetry: Option<&Telemetry>,
) -> (
    u64,
    securecloud_scone::executor::ExecStats,
    u64,
    Arc<MemHost>,
) {
    let host = Arc::new(MemHost::new());
    let shield = Shield::switchless(host.clone(), depth);
    let mut exec = Executor::new(shield);
    let local = Arc::new(Telemetry::new());
    exec.set_telemetry(local.clone());
    for worker in 0..workers {
        let handle = exec.handle();
        let data = payload(payload_bytes, worker);
        exec.spawn(async move {
            let ret = handle
                .syscall(Syscall::Open {
                    path: format!("/bench/w{worker}"),
                    create: true,
                })
                .await
                .expect("open");
            let fd = expect_fd(&ret);
            for i in 0..ops_per_worker {
                handle
                    .syscall(Syscall::Pwrite {
                        fd,
                        offset: (i * data.len()) as u64,
                        data: data.clone(),
                    })
                    .await
                    .expect("pwrite");
            }
            handle.syscall(Syscall::Close { fd }).await.expect("close");
        });
    }
    let mut mem = enclave_mem();
    let before = mem.cycles();
    let stats = exec.run(&mut mem).expect("executor run");
    let cycles = mem.cycles() - before;
    let spurious = local
        .counter_with("securecloud_scone_ring_spurious_wakes_total", &[])
        .value();
    if let Some(shared) = telemetry {
        shared.absorb(&local);
    }
    (cycles, stats, spurious, host)
}

/// Measures one cell on both planes.
#[must_use]
pub fn run_point(
    depth: usize,
    payload_bytes: usize,
    workers: usize,
    ops: usize,
    telemetry: Option<&Telemetry>,
) -> RingsPoint {
    let ops_per_worker = (ops / workers).max(1);
    let ghz = CostModel::sgx_v1().cpu_ghz;

    let (sync_cycles, sync_calls, sync_host) =
        run_sync_plane(payload_bytes, workers, ops_per_worker);
    let (ring_cycles, stats, spurious, ring_host) =
        run_ring_plane(depth, payload_bytes, workers, ops_per_worker, telemetry);
    assert_eq!(
        sync_calls, stats.syscalls,
        "planes must issue identical syscall sequences"
    );
    for worker in 0..workers {
        let path = format!("/bench/w{worker}");
        assert_eq!(
            sync_host.raw_file(&path),
            ring_host.raw_file(&path),
            "planes must leave identical host bytes"
        );
    }

    let ops_f = sync_calls as f64;
    let sync_per = sync_cycles as f64 / ops_f;
    let ring_per = ring_cycles as f64 / ops_f;
    RingsPoint {
        depth,
        payload_bytes,
        workers,
        syscalls: sync_calls,
        sync_cycles_per_op: sync_per,
        ring_cycles_per_op: ring_per,
        speedup: sync_per / ring_per,
        ring_kops_per_s: ghz * 1e6 / ring_per,
        sync_transitions_per_op: 1.0,
        ring_transitions_per_op: 0.0,
        parks: stats.parks,
        spurious_wakes: spurious,
    }
}

/// Runs the sweep with `jobs` worker threads, one point per (depth,
/// payload, workers) cell, depth-major. Results and telemetry are
/// byte-identical for any job count ([`pool::run_ordered`]).
#[must_use]
pub fn sweep(config: &RingsConfig, jobs: usize, telemetry: Option<&Telemetry>) -> Vec<RingsPoint> {
    let cells = pool::grid(
        &pool::grid(&config.depths, &config.payload_bytes),
        &config.workers,
    );
    let ops = config.ops;
    pool::run_ordered(
        cells,
        jobs,
        telemetry,
        |((depth, payload), workers), local| run_point(depth, payload, workers, ops, local),
    )
}

/// The E15 table, followed by the E11 rerun over the switchless plane.
pub fn report(ctx: &Ctx) -> Vec<Report> {
    let config = ctx.pick(RingsConfig::smoke(), RingsConfig::full());
    let points = sweep(&config, ctx.jobs, Some(ctx.telemetry));
    let report = Report::new(
        "rings",
        "== E15: switchless syscall rings + in-enclave executor (§IV) ==
(submission/completion rings replace the per-call ECALL/OCALL
 pair with slot copies; the cooperative executor overlaps tasks
 while the host servicer drains the ring without a transition)",
        &points,
        [
            Column::new("depth", 6, |p| p.depth.into()),
            Column::keyed("payload B", 10, "payload_bytes", |p| p.payload_bytes.into()),
            Column::new("workers", 8, |p| p.workers.into()),
            Column::json("syscalls", |p| p.syscalls.into()),
            Column::keyed("sync c/op", 10, "sync_cycles_per_op", |p| {
                Fixed(p.sync_cycles_per_op, 0)
            }),
            Column::keyed("ring c/op", 10, "ring_cycles_per_op", |p| {
                Fixed(p.ring_cycles_per_op, 0)
            }),
            Column::table("speedup", 9, |p| Unit(p.speedup, 1, "x")),
            Column::json("speedup", |p| Fixed(p.speedup, 2)),
            Column::keyed("ring kop/s", 11, "ring_kops_per_s", |p| {
                Fixed(p.ring_kops_per_s, 1)
            }),
            Column::json("sync_transitions_per_op", |p| {
                Fixed(p.sync_transitions_per_op, 1)
            }),
            Column::keyed("trans/op", 9, "ring_transitions_per_op", |p| {
                Fixed(p.ring_transitions_per_op, 1)
            }),
            Column::new("parks", 7, |p| p.parks.into()),
            Column::keyed("spurious", 9, "spurious_wakes", |p| p.spurious_wakes.into()),
        ],
    );
    let rings = Report {
        summary: format!("pwrites per point: {}", config.ops),
        meta: vec![("ops", config.ops.into())],
        announce: true,
        ..report
    };
    vec![rings, messaging::report(ctx, true)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RingsConfig {
        RingsConfig {
            depths: vec![1, 8, 64],
            payload_bytes: vec![64, 4096],
            workers: vec![1, 4],
            ops: 64,
        }
    }

    #[test]
    fn ring_plane_never_pays_a_transition() {
        let pair = CostModel::sgx_v1().transition_pair() as f64;
        let points = sweep(&tiny(), 1, None);
        for p in &points {
            // The sync plane pays at least one full ECALL/OCALL pair per
            // op; the ring plane's whole per-op budget stays under one
            // pair — the "~0 transitions" witness.
            assert!(p.sync_cycles_per_op > pair, "{p:?}");
            assert!(p.ring_cycles_per_op < pair, "{p:?}");
            assert!(p.speedup > 1.0, "{p:?}");
            assert_eq!(p.ring_transitions_per_op, 0.0);
        }
    }

    #[test]
    fn ring_p99_stays_flat_as_payload_grows() {
        // On the sync plane the per-op cost is transition-dominated but
        // still grows with payload copies; on the ring plane the slot
        // copy dominates, so the 64 B → 4 KiB cost ratio must stay far
        // below the sync plane's absolute transition overhead.
        let points = sweep(&tiny(), 1, None);
        let per_op = |depth: usize, payload: usize| {
            points
                .iter()
                .find(|p| p.depth == depth && p.payload_bytes == payload && p.workers == 4)
                .map(|p| p.ring_cycles_per_op)
                .expect("point present")
        };
        let small = per_op(64, 64);
        let large = per_op(64, 4096);
        let pair = CostModel::sgx_v1().transition_pair() as f64;
        assert!(large - small < pair, "growth {small} -> {large}");
    }

    #[test]
    fn deterministic_servicer_reports_zero_spurious_wakes() {
        let points = sweep(&tiny(), 1, None);
        for p in &points {
            assert_eq!(p.spurious_wakes, 0, "{p:?}");
        }
    }

    #[test]
    fn sweep_is_deterministic_across_job_counts() {
        let t1 = Telemetry::new();
        let t8 = Telemetry::new();
        let serial = sweep(&tiny(), 1, Some(&t1));
        let parallel = sweep(&tiny(), 8, Some(&t8));
        assert_eq!(serial, parallel);
        assert_eq!(
            securecloud_telemetry::export::prometheus_text(t1.registry()),
            securecloud_telemetry::export::prometheus_text(t8.registry())
        );
    }
}
