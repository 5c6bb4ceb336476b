//! Property tests for the switchless ring runtime: a seeded workload
//! driven through the in-enclave executor over the shared-memory rings
//! produces byte-identical host state and read results to the synchronous
//! transition-per-call transport, at every ring depth — the sync transport
//! being the degenerate case of the same shield, so the executor runs over
//! it unchanged — and repeat runs at a fixed depth are cycle- and
//! telemetry-identical (the determinism contract behind `repro --jobs N`).

use proptest::prelude::*;
use securecloud_scone::executor::{ExecStats, Executor, USER_SWITCH_CYCLES};
use securecloud_scone::hostos::{MemHost, Syscall, SyscallRet};
use securecloud_scone::syscall::Shield;
use securecloud_sgx::costs::{CostModel, MemoryGeometry};
use securecloud_sgx::mem::MemorySim;
use securecloud_telemetry::export::prometheus_text;
use securecloud_telemetry::Telemetry;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// One file operation; each worker replays its own list against its own
/// host file, so the final host bytes are interleaving-independent.
#[derive(Debug, Clone)]
enum Op {
    Write(u16, Vec<u8>),
    Read(u16, u16),
    Truncate(u16),
    Stat,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..2_000, prop::collection::vec(any::<u8>(), 1..200))
            .prop_map(|(off, data)| Op::Write(off, data)),
        (0u16..3_000, 0u16..500).prop_map(|(off, len)| Op::Read(off, len)),
        (0u16..2_500).prop_map(Op::Truncate),
        Just(Op::Stat),
    ]
}

fn arb_workload() -> impl Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(prop::collection::vec(arb_op(), 1..12), 1..4)
}

fn path(worker: usize) -> String {
    format!("/prop/w{worker}")
}

fn mem() -> MemorySim {
    MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::sgx_v1())
}

fn op_syscall(fd: u64, op: &Op) -> Syscall {
    match op {
        Op::Write(off, data) => Syscall::Pwrite {
            fd,
            offset: u64::from(*off),
            data: data.clone(),
        },
        Op::Read(off, len) => Syscall::Pread {
            fd,
            offset: u64::from(*off),
            len: *len as usize,
        },
        Op::Truncate(len) => Syscall::Ftruncate {
            fd,
            len: u64::from(*len),
        },
        Op::Stat => Syscall::Fstat { fd },
    }
}

/// Runs the workload through the synchronous transport, worker by worker,
/// one blocking `call` at a time. Returns (per-worker syscall results,
/// host, cycles).
fn run_sync(workload: &[Vec<Op>]) -> (Vec<Vec<SyscallRet>>, Arc<MemHost>, u64) {
    let host = Arc::new(MemHost::new());
    let mut shield = Shield::sync(host.clone());
    let mut mem = mem();
    let mut results = Vec::new();
    for (worker, ops) in workload.iter().enumerate() {
        let ret = shield
            .call(
                &mut mem,
                Syscall::Open {
                    path: path(worker),
                    create: true,
                },
            )
            .expect("open");
        let SyscallRet::Fd(fd) = ret else {
            panic!("open returned {ret:?}")
        };
        let mut worker_results = Vec::new();
        for op in ops {
            worker_results.push(shield.call(&mut mem, op_syscall(fd, op)).expect("op"));
        }
        shield.call(&mut mem, Syscall::Close { fd }).expect("close");
        results.push(worker_results);
    }
    (results, host, mem.cycles())
}

/// Runs the workload as one cooperative task per worker in the executor,
/// over whichever transport `shield` builds on the fresh host. Returns
/// (per-worker results, host, cycles, stats, telemetry).
fn run_executor(
    workload: &[Vec<Op>],
    shield: impl FnOnce(Arc<MemHost>) -> Shield,
) -> (
    Vec<Vec<SyscallRet>>,
    Arc<MemHost>,
    u64,
    ExecStats,
    Arc<Telemetry>,
) {
    let host = Arc::new(MemHost::new());
    let mut exec = Executor::new(shield(host.clone()));
    let telemetry = Arc::new(Telemetry::new());
    exec.set_telemetry(telemetry.clone());
    let results: Rc<RefCell<Vec<Vec<SyscallRet>>>> =
        Rc::new(RefCell::new(vec![Vec::new(); workload.len()]));
    for (worker, ops) in workload.iter().enumerate() {
        let handle = exec.handle();
        let ops = ops.clone();
        let results = Rc::clone(&results);
        exec.spawn(async move {
            let ret = handle
                .syscall(Syscall::Open {
                    path: path(worker),
                    create: true,
                })
                .await
                .expect("open");
            let SyscallRet::Fd(fd) = ret else {
                panic!("open returned {ret:?}")
            };
            for op in &ops {
                let ret = handle.syscall(op_syscall(fd, op)).await.expect("op");
                results.borrow_mut()[worker].push(ret);
            }
            handle.syscall(Syscall::Close { fd }).await.expect("close");
        });
    }
    let mut mem = mem();
    let stats = exec.run(&mut mem).expect("executor run");
    let cycles = mem.cycles();
    let results = Rc::try_unwrap(results)
        .expect("tasks completed")
        .into_inner();
    (results, host, cycles, stats, telemetry)
}

/// The executor over the deterministic ring transport at `depth`.
fn rings(depth: usize) -> impl FnOnce(Arc<MemHost>) -> Shield {
    move |host| Shield::switchless(host, depth)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The ring runtime is observably identical to the sync shield: same
    /// per-op results and same final host bytes, at every ring depth.
    #[test]
    fn ring_runtime_matches_sync_shield_at_every_depth(workload in arb_workload()) {
        let (sync_results, sync_host, _) = run_sync(&workload);
        for depth in [1usize, 8, 64] {
            let (ring_results, ring_host, _, stats, _) = run_executor(&workload, rings(depth));
            prop_assert_eq!(&ring_results, &sync_results, "depth {}", depth);
            let issued: usize = workload.iter().map(|ops| ops.len() + 2).sum();
            prop_assert_eq!(stats.syscalls, issued as u64);
            for worker in 0..workload.len() {
                prop_assert_eq!(
                    sync_host.raw_file(&path(worker)),
                    ring_host.raw_file(&path(worker)),
                    "depth {}, worker {}", depth, worker
                );
            }
        }
    }

    /// The degenerate case: the executor over the sync transport is the
    /// direct `call` loop — same per-op results, same host bytes, and (one
    /// transition pair per call either way) the same syscall cycles once
    /// the executor's own user-level switches are taken out.
    #[test]
    fn executor_over_sync_transport_matches_the_call_loop(workload in arb_workload()) {
        let (call_results, call_host, call_cycles) = run_sync(&workload);
        let (exec_results, exec_host, exec_cycles, stats, _) =
            run_executor(&workload, |host| Shield::sync(host));
        prop_assert_eq!(&exec_results, &call_results);
        prop_assert_eq!(stats.syscalls, call_host.call_count());
        prop_assert_eq!(exec_host.call_count(), call_host.call_count());
        for worker in 0..workload.len() {
            prop_assert_eq!(
                call_host.raw_file(&path(worker)),
                exec_host.raw_file(&path(worker)),
                "worker {}", worker
            );
        }
        prop_assert_eq!(exec_cycles - stats.polls * USER_SWITCH_CYCLES, call_cycles);
    }

    /// At a fixed depth, repeat runs are bit-identical in every observable:
    /// results, cycles, executor stats, and the telemetry registry.
    #[test]
    fn ring_runtime_replays_are_cycle_and_telemetry_identical(workload in arb_workload()) {
        let (r1, _, cycles1, stats1, t1) = run_executor(&workload, rings(8));
        let (r2, _, cycles2, stats2, t2) = run_executor(&workload, rings(8));
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(cycles1, cycles2);
        prop_assert_eq!(stats1, stats2);
        prop_assert_eq!(
            prometheus_text(t1.registry()),
            prometheus_text(t2.registry())
        );
    }
}
