//! The in-enclave scheduler: a cooperative futures executor over the
//! shielded syscall interface.
//!
//! This is SCONE's "tailored threading". Kernel threads cannot be
//! scheduled inside an enclave without paying transitions, so M
//! application coroutines are multiplexed onto one enclave thread at user
//! level, with Rust's native `Future`/`Waker` machinery: a coroutine that
//! `await`s a shielded syscall parks and another one runs (a user-level
//! switch costs [`USER_SWITCH_CYCLES`], not a ~8 000-cycle enclave exit),
//! and when every coroutine is blocked the executor parks on the shield's
//! completion signal — no busy-polling and, over the switchless
//! transport, no enclave transitions.
//!
//! Futures never touch the shield or the memory simulation directly (a
//! future's `poll` has no way to carry `&mut MemorySim` soundly across
//! `await` points). Instead [`EnclaveHandle::syscall`] parks the request
//! in a shared staging cell; the executor drains staged requests after
//! each poll — where it *does* hold `&mut MemorySim` — submits them on the
//! [`Shield`], and routes each completion back to its cell before waking
//! the owning task.

use crate::hostos::{Syscall, SyscallRet};
use crate::syscall::Shield;
use crate::SconeError;
use securecloud_sgx::mem::MemorySim;
use securecloud_telemetry::Telemetry;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

/// Cycles charged per user-level context switch (register save/restore —
/// the whole point is that this is ~100x cheaper than an enclave exit).
pub const USER_SWITCH_CYCLES: u64 = 60;

/// The per-syscall mailbox shared between a [`SyscallFuture`] and the
/// executor: the request travels out through `call`, the validated result
/// comes back through `ret`.
#[derive(Debug, Default)]
struct SyscallCell {
    call: Option<Syscall>,
    ret: Option<Result<SyscallRet, SconeError>>,
}

/// State shared between the executor and every [`EnclaveHandle`].
#[derive(Default)]
struct Staging {
    /// Syscalls staged during polls, waiting for the executor to submit.
    submissions: Vec<(Rc<RefCell<SyscallCell>>, Waker)>,
    /// Compute ops requested by futures, charged after the poll returns.
    ops: u64,
}

/// A cloneable handle futures use to reach the enclave services.
#[derive(Clone)]
pub struct EnclaveHandle {
    staging: Rc<RefCell<Staging>>,
}

impl EnclaveHandle {
    /// Issues a shielded syscall; `await` the returned future for the
    /// validated result.
    #[must_use]
    pub fn syscall(&self, call: Syscall) -> SyscallFuture {
        SyscallFuture {
            staging: Rc::clone(&self.staging),
            cell: Rc::new(RefCell::new(SyscallCell {
                call: Some(call),
                ret: None,
            })),
            staged: false,
        }
    }

    /// Records `n` application compute operations, charged to the enclave
    /// memory simulation after the current poll.
    pub fn charge_ops(&self, n: u64) {
        self.staging.borrow_mut().ops += n;
    }

    /// Cooperatively yields to the other tasks once.
    #[must_use]
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }
}

/// Future for one shielded syscall; resolves to the validated result.
pub struct SyscallFuture {
    staging: Rc<RefCell<Staging>>,
    cell: Rc<RefCell<SyscallCell>>,
    staged: bool,
}

impl Future for SyscallFuture {
    type Output = Result<SyscallRet, SconeError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if let Some(ret) = this.cell.borrow_mut().ret.take() {
            return Poll::Ready(ret);
        }
        if !this.staged {
            this.staged = true;
            this.staging
                .borrow_mut()
                .submissions
                .push((Rc::clone(&this.cell), cx.waker().clone()));
        }
        Poll::Pending
    }
}

/// Future for [`EnclaveHandle::yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.get_mut().yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// Pushes the woken task's id onto the executor's ready queue. `Wake`
/// requires `Send + Sync`, so the queue sits behind a mutex even though
/// the executor itself is single-threaded.
struct TaskWaker {
    task_id: usize,
    ready: Arc<Mutex<VecDeque<usize>>>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready
            .lock()
            .expect("ready queue poisoned")
            .push_back(self.task_id);
    }
}

/// Executor run statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Future polls (each charged one user-level switch).
    pub polls: u64,
    /// Tasks driven to completion.
    pub tasks_completed: u64,
    /// Syscalls submitted on the shield.
    pub syscalls: u64,
    /// Times the executor parked on the completion signal.
    pub parks: u64,
}

/// The in-enclave executor: a ready queue of spawned futures over one
/// [`Shield`].
pub struct Executor {
    shield: Shield,
    staging: Rc<RefCell<Staging>>,
    tasks: HashMap<usize, Pin<Box<dyn Future<Output = ()>>>>,
    wakers: HashMap<usize, Waker>,
    ready: Arc<Mutex<VecDeque<usize>>>,
    in_flight: HashMap<u64, (Rc<RefCell<SyscallCell>>, Waker)>,
    next_task: usize,
    stats: ExecStats,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("tasks", &self.tasks.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Executor {
    /// Creates an executor issuing syscalls through `shield`.
    #[must_use]
    pub fn new(shield: Shield) -> Self {
        Executor {
            shield,
            staging: Rc::new(RefCell::new(Staging::default())),
            tasks: HashMap::new(),
            wakers: HashMap::new(),
            ready: Arc::new(Mutex::new(VecDeque::new())),
            in_flight: HashMap::new(),
            next_task: 0,
            stats: ExecStats::default(),
        }
    }

    /// Routes the underlying shield's telemetry into `telemetry`'s
    /// registry.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.shield.set_telemetry(telemetry);
    }

    /// The handle futures use to issue syscalls and charge compute.
    #[must_use]
    pub fn handle(&self) -> EnclaveHandle {
        EnclaveHandle {
            staging: Rc::clone(&self.staging),
        }
    }

    /// Spawns a future; it becomes runnable immediately.
    pub fn spawn(&mut self, fut: impl Future<Output = ()> + 'static) {
        let id = self.next_task;
        self.next_task += 1;
        self.tasks.insert(id, Box::pin(fut));
        self.wakers.insert(
            id,
            Waker::from(Arc::new(TaskWaker {
                task_id: id,
                ready: Arc::clone(&self.ready),
            })),
        );
        self.ready
            .lock()
            .expect("ready queue poisoned")
            .push_back(id);
    }

    /// Number of unfinished tasks.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.tasks.len()
    }

    /// Run statistics so far.
    #[must_use]
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    fn pop_ready(&self) -> Option<usize> {
        self.ready.lock().expect("ready queue poisoned").pop_front()
    }

    /// Submits everything futures staged during the last poll, now that
    /// the executor holds the memory simulation.
    fn flush_staging(&mut self, mem: &mut MemorySim) -> Result<(), SconeError> {
        let (submissions, ops) = {
            let mut staging = self.staging.borrow_mut();
            (
                std::mem::take(&mut staging.submissions),
                std::mem::take(&mut staging.ops),
            )
        };
        if ops > 0 {
            mem.charge_ops(ops);
        }
        for (cell, waker) in submissions {
            let call = cell
                .borrow_mut()
                .call
                .take()
                .expect("staged syscall has a call");
            let id = self.shield.submit(mem, call)?;
            self.stats.syscalls += 1;
            self.in_flight.insert(id, (cell, waker));
        }
        Ok(())
    }

    /// Drives every spawned future to completion.
    ///
    /// # Errors
    ///
    /// Propagates [`SconeError`] from the shield (host violations abort
    /// the run), and reports [`SconeError::ShieldStopped`] if tasks are
    /// pending but nothing is in flight or runnable (a deadlocked await).
    pub fn run(&mut self, mem: &mut MemorySim) -> Result<ExecStats, SconeError> {
        while !self.tasks.is_empty() {
            while let Some(task_id) = self.pop_ready() {
                let Some(task) = self.tasks.get_mut(&task_id) else {
                    continue; // stale wake for a finished task
                };
                mem.charge_cycles(USER_SWITCH_CYCLES);
                self.stats.polls += 1;
                let waker = self.wakers[&task_id].clone();
                let mut cx = Context::from_waker(&waker);
                if task.as_mut().poll(&mut cx).is_ready() {
                    self.tasks.remove(&task_id);
                    self.wakers.remove(&task_id);
                    self.stats.tasks_completed += 1;
                }
                self.flush_staging(mem)?;
            }
            if self.tasks.is_empty() {
                break;
            }
            if self.shield.in_flight() == 0 {
                // Pending tasks, empty ready queue, nothing in flight:
                // the program awaits something that can never resolve.
                return Err(SconeError::ShieldStopped);
            }
            // Park on the ring's completion signal; each wake resolves
            // exactly one future.
            let completion = self.shield.complete(mem)?;
            self.stats.parks += 1;
            if let Some((cell, waker)) = self.in_flight.remove(&completion.id) {
                cell.borrow_mut().ret = Some(Ok(completion.ret));
                waker.wake();
            }
        }
        Ok(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostos::{HostOs, MemHost};
    use crate::rings::DEFAULT_RING_DEPTH;
    use securecloud_sgx::costs::{CostModel, MemoryGeometry};

    fn mem() -> MemorySim {
        MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::sgx_v1())
    }

    async fn write_file(handle: EnclaveHandle, path: String, records: u64) {
        let ret = handle
            .syscall(Syscall::Open {
                path: path.clone(),
                create: true,
            })
            .await
            .unwrap();
        let SyscallRet::Fd(fd) = ret else {
            panic!("expected fd for {path}, got {ret:?}")
        };
        for i in 0..records {
            handle.charge_ops(10);
            let ack = handle
                .syscall(Syscall::Pwrite {
                    fd,
                    offset: i * 8,
                    data: i.to_le_bytes().to_vec(),
                })
                .await
                .unwrap();
            assert!(matches!(ack, SyscallRet::Done(8)));
        }
        handle.syscall(Syscall::Close { fd }).await.unwrap();
    }

    #[test]
    fn futures_interleave_over_the_rings() {
        let host = Arc::new(MemHost::new());
        let mut exec = Executor::new(Shield::switchless(host.clone(), 8));
        let handle = exec.handle();
        for i in 0..6u64 {
            exec.spawn(write_file(handle.clone(), format!("/fut{i}"), 12));
        }
        let mut m = mem();
        let stats = exec.run(&mut m).unwrap();
        assert_eq!(stats.tasks_completed, 6);
        assert_eq!(stats.syscalls, 6 * 14); // open + 12 writes + close
        assert_eq!(exec.pending(), 0);
        for i in 0..6 {
            let raw = host.raw_file(&format!("/fut{i}")).unwrap();
            assert_eq!(raw.len(), 12 * 8);
        }
        // Switchless end to end: the whole run costs less than issuing the
        // same syscalls synchronously (one transition pair each).
        let transition_total = 6 * 14 * CostModel::sgx_v1().transition_pair();
        assert!(m.cycles() < transition_total);
    }

    #[test]
    fn yield_now_round_robins() {
        let host = Arc::new(MemHost::new());
        let mut exec = Executor::new(Shield::switchless(host, 4));
        let handle = exec.handle();
        let order: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for id in 0..3u32 {
            let handle = handle.clone();
            let order = Rc::clone(&order);
            exec.spawn(async move {
                for _ in 0..2 {
                    order.borrow_mut().push(id);
                    handle.yield_now().await;
                }
            });
        }
        let mut m = mem();
        let stats = exec.run(&mut m).unwrap();
        assert_eq!(stats.tasks_completed, 3);
        assert_eq!(stats.syscalls, 0);
        assert_eq!(*order.borrow(), vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn executor_runs_are_deterministic() {
        let run = |shield: fn(Arc<dyn HostOs>) -> Shield| {
            let host = Arc::new(MemHost::new());
            let mut exec = Executor::new(shield(host.clone()));
            let handle = exec.handle();
            for i in 0..4u64 {
                exec.spawn(write_file(handle.clone(), format!("/d{i}"), 9));
            }
            let mut m = mem();
            let stats = exec.run(&mut m).unwrap();
            (stats, m.cycles(), host.raw_file("/d3").unwrap())
        };
        let deterministic = |host| Shield::switchless(host, DEFAULT_RING_DEPTH);
        let a = run(deterministic);
        let b = run(deterministic);
        assert_eq!(a, b);
        // The threaded servicer produces the same final state and the same
        // deterministic cycle count — only wall-clock overlap differs.
        let c = run(Shield::threaded);
        assert_eq!(a.1, c.1);
        assert_eq!(a.2, c.2);
    }

    #[test]
    fn pure_compute_tasks_never_reach_the_host() {
        let host = Arc::new(MemHost::new());
        let mut exec = Executor::new(Shield::threaded(host.clone()));
        for _ in 0..4 {
            let handle = exec.handle();
            exec.spawn(async move {
                for _ in 0..5 {
                    handle.charge_ops(100);
                    handle.yield_now().await;
                }
            });
        }
        let mut m = mem();
        let stats = exec.run(&mut m).unwrap();
        assert_eq!(stats.tasks_completed, 4);
        assert_eq!(stats.syscalls, 0);
        assert_eq!(host.call_count(), 0);
        // Cost is compute + cheap user switches only: far below one
        // enclave transition per switch.
        assert!(m.cycles() < stats.polls * CostModel::sgx_v1().transition_pair());
    }

    #[test]
    fn one_poll_charges_exactly_one_user_switch() {
        // The M:N claim in one number: scheduling overhead per switch is
        // USER_SWITCH_CYCLES, not the ~8k of an enclave exit+entry.
        let mut exec = Executor::new(Shield::sync(Arc::new(MemHost::new())));
        exec.spawn(async {});
        let mut m = mem();
        let before = m.cycles();
        let stats = exec.run(&mut m).unwrap();
        assert_eq!(stats.polls, 1);
        assert_eq!(m.cycles() - before, USER_SWITCH_CYCLES);
    }

    #[test]
    fn yielding_and_syscalling_tasks_all_complete() {
        // A mixed workload of syscall-heavy and compute-only tasks: every
        // park delivers a completion, so nothing is left behind.
        let host = Arc::new(MemHost::new());
        let mut exec = Executor::new(Shield::switchless(host.clone(), 8));
        let handle = exec.handle();
        for i in 0..6u64 {
            exec.spawn(write_file(handle.clone(), format!("/mix{i}"), 7));
        }
        exec.spawn(async move {
            for _ in 0..50 {
                handle.yield_now().await;
            }
        });
        let mut m = mem();
        let stats = exec.run(&mut m).unwrap();
        assert_eq!(stats.tasks_completed, 7);
        assert_eq!(stats.syscalls, 6 * 9); // open + 7 writes + close
        assert_eq!(stats.parks, stats.syscalls);
        assert_eq!(exec.pending(), 0);
        for i in 0..6 {
            assert_eq!(host.raw_file(&format!("/mix{i}")).unwrap().len(), 7 * 8);
        }
    }

    #[test]
    fn deadlocked_await_is_reported() {
        let host = Arc::new(MemHost::new());
        let mut exec = Executor::new(Shield::switchless(host, 4));
        exec.spawn(async {
            std::future::pending::<()>().await;
        });
        let mut m = mem();
        assert!(matches!(exec.run(&mut m), Err(SconeError::ShieldStopped)));
    }
}
