//! Deterministic fault injection for the SecureCloud stack.
//!
//! SecureCloud is pitched as a platform for *dependable* big-data
//! micro-services, so the reproduction needs a way to exercise the
//! recovery machinery — enclave aborts, crashing service handlers, lossy
//! delivery, killed replicas — without giving up the deterministic
//! virtual clock the benchmarks depend on. This crate provides:
//!
//! * [`FaultPlan`] — a schedule of [`FaultEvent`]s pinned to virtual-time
//!   points (milliseconds on the same clock the event bus and container
//!   engine advance),
//! * [`FaultInjector`] — a shareable injector that releases due events as
//!   the clock advances and answers probabilistic queries (message loss /
//!   duplication, syscall failure) from a seeded
//!   `securecloud_telemetry::rng::SplitMix64`, the generator the container
//!   engine also draws restart-backoff jitter from.
//!
//! Everything is reproducible from a single `u64` seed: no wall-clock, no
//! OS entropy. Two runs with the same seed and the same sequence of calls
//! produce byte-identical [`FaultInjector::trace`] output — the chaos
//! harness asserts exactly that.

#![forbid(unsafe_code)]

use securecloud_telemetry::rng::SplitMix64;
use std::sync::Mutex;

/// Returns `true` with probability `permille`/1000.
fn chance_permille(rng: &mut SplitMix64, permille: u16) -> bool {
    rng.below(1000) < u64::from(permille)
}

/// What the injector can break.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Abort the enclave backing a container (by engine container id).
    EnclaveAbort {
        /// Engine container id to abort.
        container: u64,
    },
    /// Make a registered micro-service panic on its next delivery.
    ServicePanic {
        /// Service name, as reported by `MicroService::name`.
        service: String,
    },
    /// Fail the next `count` host syscalls served to shielded runtimes.
    SyscallFail {
        /// Number of consecutive syscalls to fail.
        count: u32,
    },
    /// Kill one replica of a sharded KV deployment (the group re-attests
    /// a replacement during failover).
    ReplicaKill {
        /// Shard group index.
        shard: u32,
        /// Replica slot within the group.
        slot: u32,
    },
    /// Stall one replica: it stays resident but stops applying writes and
    /// serving reads, so its version lags the group until a controller
    /// replaces it. A degraded-mode (grey) failure, unlike the crash of
    /// [`FaultKind::ReplicaKill`].
    ReplicaStall {
        /// Shard group index.
        shard: u32,
        /// Replica slot within the group.
        slot: u32,
    },
    /// Flip one bit in a sealed storage block on a replica's untrusted
    /// host disk (which block, and which bit, is drawn from the seeded
    /// generator). The replica's integrity tree detects the corruption,
    /// quarantines the segment, and the group fails the replica over.
    StorageCorruptBlock {
        /// Shard group index.
        shard: u32,
        /// Replica slot within the group.
        slot: u32,
    },
    /// Partition an entire shard group from its clients: quorum operations
    /// are refused (writes fail *unacknowledged*, so nothing can be lost)
    /// until the partition heals `heal_after_ms` later on the virtual
    /// clock.
    NetworkPartition {
        /// Shard group index to isolate.
        group: u32,
        /// Virtual milliseconds after the fire time at which the
        /// partition heals.
        heal_after_ms: u64,
    },
    /// Make one map task of a map/reduce job fail its next `times`
    /// attempts; the runner re-executes it within its retry budget.
    MapTaskFail {
        /// Map task index within the job.
        task: usize,
        /// Number of consecutive attempts to fail.
        times: u32,
    },
    /// Make one replica's sealed storage tier refuse the host write after
    /// the next `after_writes`: the write fails, and the group retires the
    /// replica as it would a killed one.
    StoreRefusesWrite {
        /// Shard group index.
        shard: u32,
        /// Replica slot within the group.
        slot: u32,
        /// Host writes that still succeed before the refusal.
        after_writes: u64,
    },
}

impl FaultKind {
    /// A stable, id-free label for the fault family (telemetry label
    /// values; the [`std::fmt::Display`] form carries target ids).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::EnclaveAbort { .. } => "enclave-abort",
            FaultKind::ServicePanic { .. } => "service-panic",
            FaultKind::SyscallFail { .. } => "syscall-fail",
            FaultKind::ReplicaKill { .. } => "replica-kill",
            FaultKind::ReplicaStall { .. } => "replica-stall",
            FaultKind::StorageCorruptBlock { .. } => "storage-corrupt-block",
            FaultKind::NetworkPartition { .. } => "network-partition",
            FaultKind::MapTaskFail { .. } => "map-task-fail",
            FaultKind::StoreRefusesWrite { .. } => "store-refuses-write",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::EnclaveAbort { container } => write!(f, "enclave-abort c{container}"),
            FaultKind::ServicePanic { service } => write!(f, "service-panic {service}"),
            FaultKind::SyscallFail { count } => write!(f, "syscall-fail x{count}"),
            FaultKind::ReplicaKill { shard, slot } => {
                write!(f, "replica-kill s{shard}/r{slot}")
            }
            FaultKind::ReplicaStall { shard, slot } => {
                write!(f, "replica-stall s{shard}/r{slot}")
            }
            FaultKind::StorageCorruptBlock { shard, slot } => {
                write!(f, "storage-corrupt-block s{shard}/r{slot}")
            }
            FaultKind::NetworkPartition {
                group,
                heal_after_ms,
            } => {
                write!(f, "network-partition s{group} heal+{heal_after_ms}ms")
            }
            FaultKind::MapTaskFail { task, times } => write!(f, "map-task-fail t{task} x{times}"),
            FaultKind::StoreRefusesWrite {
                shard,
                slot,
                after_writes,
            } => {
                write!(
                    f,
                    "store-refuses-write s{shard}/r{slot} after {after_writes}"
                )
            }
        }
    }
}

/// A fault pinned to a virtual-time point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time (ms) at which the fault fires.
    pub at_ms: u64,
    /// What breaks.
    pub kind: FaultKind,
}

/// A reproducible schedule of faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault at `at_ms` (builder style).
    #[must_use]
    pub fn at(mut self, at_ms: u64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at_ms, kind });
        self
    }

    /// The scheduled events, sorted by time (stable for equal times).
    #[must_use]
    pub fn events(&self) -> Vec<FaultEvent> {
        let mut events = self.events.clone();
        events.sort_by_key(|e| e.at_ms);
        events
    }
}

/// The fate the injector assigns to one bus delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFate {
    /// Deliver normally.
    Deliver,
    /// Lose this delivery attempt (the lease still starts, so the bus's
    /// redelivery machinery recovers the message).
    Lose,
    /// Deliver, and enqueue a duplicate delivery.
    Duplicate,
}

/// Probabilistic fault rates, in permille (0–1000).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultRates {
    /// Chance a fetched delivery is lost in transit.
    pub message_loss_permille: u16,
    /// Chance a fetched delivery is duplicated.
    pub message_duplication_permille: u16,
    /// Chance a host syscall fails.
    pub syscall_failure_permille: u16,
}

#[derive(Debug)]
struct InjectorState {
    rng: SplitMix64,
    pending: Vec<FaultEvent>, // sorted descending by time; popped from the back
    rates: FaultRates,
    forced_syscall_failures: u32,
    /// Armed `(map task index, failures left)` pairs, in arming order.
    forced_map_task_failures: Vec<(usize, u32)>,
    trace: Vec<String>,
    now_ms: u64,
}

/// A shareable, internally-synchronised fault injector.
///
/// Subsystems hold an `Arc<FaultInjector>`; the simulation harness drives
/// the clock with [`FaultInjector::advance_to`] and applies the returned
/// events to the owning subsystem (abort the container, kill the replica,
/// …). All probabilistic answers come from the seeded generator, so a
/// given seed yields one reproducible fault history.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    state: Mutex<InjectorState>,
}

impl FaultInjector {
    /// An injector with no scheduled events.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_plan(seed, FaultPlan::new())
    }

    /// An injector executing `plan`.
    #[must_use]
    pub fn with_plan(seed: u64, plan: FaultPlan) -> Self {
        let mut pending = plan.events();
        pending.reverse();
        FaultInjector {
            seed,
            state: Mutex::new(InjectorState {
                rng: SplitMix64::new(seed),
                pending,
                rates: FaultRates::default(),
                forced_syscall_failures: 0,
                forced_map_task_failures: Vec::new(),
                trace: Vec::new(),
                now_ms: 0,
            }),
        }
    }

    /// The seed this injector was built from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the probabilistic fault rates.
    pub fn set_rates(&self, rates: FaultRates) {
        self.lock().rates = rates;
    }

    /// Advances the injector clock to `now_ms` and returns the events that
    /// became due, in schedule order. `SyscallFail` and `MapTaskFail`
    /// events are consumed internally (arming
    /// [`FaultInjector::syscall_should_fail`] and
    /// [`FaultInjector::map_task_should_fail`]) but are still returned for
    /// visibility.
    pub fn advance_to(&self, now_ms: u64) -> Vec<FaultEvent> {
        let mut state = self.lock();
        state.now_ms = state.now_ms.max(now_ms);
        let mut due = Vec::new();
        while state
            .pending
            .last()
            .is_some_and(|event| event.at_ms <= now_ms)
        {
            let event = state.pending.pop().expect("checked non-empty");
            match event.kind {
                FaultKind::SyscallFail { count } => state.forced_syscall_failures += count,
                FaultKind::MapTaskFail { task, times } => {
                    state.forced_map_task_failures.push((task, times));
                }
                _ => {}
            }
            let line = format!("t={} fire {}", event.at_ms, event.kind);
            state.trace.push(line);
            due.push(event);
        }
        due
    }

    /// Decides the fate of one delivery attempt of `message_id`.
    pub fn message_fate(&self, message_id: u64) -> MessageFate {
        let mut state = self.lock();
        let loss = state.rates.message_loss_permille;
        let dup = state.rates.message_duplication_permille;
        let fate = if chance_permille(&mut state.rng, loss) {
            MessageFate::Lose
        } else if chance_permille(&mut state.rng, dup) {
            MessageFate::Duplicate
        } else {
            MessageFate::Deliver
        };
        match fate {
            MessageFate::Deliver => {}
            MessageFate::Lose => {
                let line = format!("t={} msg m{message_id} lost", state.now_ms);
                state.trace.push(line);
            }
            MessageFate::Duplicate => {
                let line = format!("t={} msg m{message_id} duplicated", state.now_ms);
                state.trace.push(line);
            }
        }
        fate
    }

    /// Whether the next host syscall should fail, consuming one armed
    /// failure or sampling the configured rate.
    pub fn syscall_should_fail(&self) -> bool {
        let mut state = self.lock();
        if state.forced_syscall_failures > 0 {
            state.forced_syscall_failures -= 1;
            let line = format!("t={} syscall forced-fail", state.now_ms);
            state.trace.push(line);
            return true;
        }
        let rate = state.rates.syscall_failure_permille;
        let fail = chance_permille(&mut state.rng, rate);
        if fail {
            let line = format!("t={} syscall fail", state.now_ms);
            state.trace.push(line);
        }
        fail
    }

    /// Whether this attempt of map task `task` should fail, consuming one
    /// failure armed by a [`FaultKind::MapTaskFail`]. Draws no random
    /// number: a task with nothing armed simply runs.
    pub fn map_task_should_fail(&self, task: usize) -> bool {
        let state = &mut *self.lock();
        let armed = state
            .forced_map_task_failures
            .iter_mut()
            .find(|(armed_task, left)| *armed_task == task && *left > 0);
        match armed {
            Some((_, left)) => {
                *left -= 1;
                let line = format!("t={} map-task t{task} forced-fail", state.now_ms);
                state.trace.push(line);
                true
            }
            None => false,
        }
    }

    /// Appends a free-form line to the trace (subsystems record recovery
    /// actions here so the harness can diff two runs byte-for-byte).
    pub fn record(&self, line: impl Into<String>) {
        let mut state = self.lock();
        let stamped = format!("t={} {}", state.now_ms, line.into());
        state.trace.push(stamped);
    }

    /// The event trace so far.
    #[must_use]
    pub fn trace(&self) -> Vec<String> {
        self.lock().trace.clone()
    }

    /// Draws from the injector's deterministic generator (e.g. for jitter).
    pub fn draw_below(&self, bound: u64) -> u64 {
        self.lock().rng.below(bound)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, InjectorState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_rng_reproducible() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(SplitMix64::new(2).next_u64(), SplitMix64::new(3).next_u64());
    }

    #[test]
    fn plan_fires_in_time_order() {
        let plan = FaultPlan::new()
            .at(500, FaultKind::SyscallFail { count: 1 })
            .at(100, FaultKind::EnclaveAbort { container: 7 });
        let injector = FaultInjector::with_plan(42, plan);
        assert!(injector.advance_to(50).is_empty());
        let first = injector.advance_to(100);
        assert_eq!(
            first,
            vec![FaultEvent {
                at_ms: 100,
                kind: FaultKind::EnclaveAbort { container: 7 }
            }]
        );
        let rest = injector.advance_to(1_000);
        assert_eq!(rest.len(), 1);
        assert!(injector.advance_to(2_000).is_empty());
    }

    #[test]
    fn syscall_fail_events_arm_the_injector() {
        let plan = FaultPlan::new().at(10, FaultKind::SyscallFail { count: 2 });
        let injector = FaultInjector::with_plan(0, plan);
        assert!(!injector.syscall_should_fail(), "not armed before t=10");
        injector.advance_to(10);
        assert!(injector.syscall_should_fail());
        assert!(injector.syscall_should_fail());
        assert!(!injector.syscall_should_fail());
    }

    #[test]
    fn map_task_fail_events_arm_per_task_counts() {
        let kind = FaultKind::MapTaskFail { task: 2, times: 2 };
        assert_eq!(kind.name(), "map-task-fail");
        let injector = FaultInjector::with_plan(0, FaultPlan::new().at(10, kind));
        assert!(!injector.map_task_should_fail(2), "not armed before t=10");
        injector.advance_to(10);
        assert!(!injector.map_task_should_fail(1), "other tasks run");
        assert!(injector.map_task_should_fail(2));
        assert!(injector.map_task_should_fail(2));
        assert!(!injector.map_task_should_fail(2));
        assert_eq!(
            injector.trace(),
            vec![
                "t=10 fire map-task-fail t2 x2",
                "t=10 map-task t2 forced-fail",
                "t=10 map-task t2 forced-fail",
            ]
        );
    }

    #[test]
    fn planning_only_the_new_kinds_leaves_sampled_answers_unchanged() {
        let answers = |plan: FaultPlan| {
            let injector = FaultInjector::with_plan(21, plan);
            injector.set_rates(FaultRates {
                message_loss_permille: 150,
                message_duplication_permille: 150,
                syscall_failure_permille: 150,
            });
            (0..40u64)
                .map(|step| {
                    injector.advance_to(step * 10);
                    (injector.message_fate(step), injector.syscall_should_fail())
                })
                .collect::<Vec<_>>()
        };
        let refusal = FaultKind::StoreRefusesWrite {
            shard: 1,
            slot: 2,
            after_writes: 4,
        };
        assert_eq!(refusal.name(), "store-refuses-write");
        assert_eq!(refusal.to_string(), "store-refuses-write s1/r2 after 4");
        let planned = FaultPlan::new()
            .at(0, FaultKind::MapTaskFail { task: 0, times: 3 })
            .at(50, refusal);
        assert_eq!(answers(FaultPlan::new()), answers(planned));
    }

    #[test]
    fn degraded_mode_faults_display_and_schedule() {
        let plan = FaultPlan::new()
            .at(700, FaultKind::ReplicaStall { shard: 1, slot: 2 })
            .at(
                300,
                FaultKind::NetworkPartition {
                    group: 0,
                    heal_after_ms: 400,
                },
            );
        let injector = FaultInjector::with_plan(3, plan);
        let due = injector.advance_to(1_000);
        assert_eq!(due.len(), 2, "both degraded-mode faults fire");
        let trace = injector.trace();
        assert!(trace[0].contains("t=300 fire network-partition s0 heal+400ms"));
        assert!(trace[1].contains("t=700 fire replica-stall s1/r2"));
        assert_eq!(
            FaultKind::ReplicaStall { shard: 1, slot: 2 }.name(),
            "replica-stall"
        );
        assert_eq!(
            FaultKind::NetworkPartition {
                group: 0,
                heal_after_ms: 1
            }
            .name(),
            "network-partition"
        );
        assert_eq!(FaultKind::SyscallFail { count: 1 }.name(), "syscall-fail");
    }

    #[test]
    fn storage_corruption_fault_display_and_schedule() {
        let kind = FaultKind::StorageCorruptBlock { shard: 2, slot: 1 };
        assert_eq!(kind.name(), "storage-corrupt-block");
        assert_eq!(kind.to_string(), "storage-corrupt-block s2/r1");
        let injector = FaultInjector::with_plan(7, FaultPlan::new().at(50, kind.clone()));
        let due = injector.advance_to(100);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].kind, kind);
        assert!(injector.trace()[0].contains("t=50 fire storage-corrupt-block s2/r1"));
    }

    #[test]
    fn message_fates_deterministic_per_seed() {
        let fates = |seed| {
            let injector = FaultInjector::new(seed);
            injector.set_rates(FaultRates {
                message_loss_permille: 200,
                message_duplication_permille: 200,
                syscall_failure_permille: 0,
            });
            (0..200)
                .map(|id| injector.message_fate(id))
                .collect::<Vec<_>>()
        };
        assert_eq!(fates(9), fates(9));
        assert!(fates(9).contains(&MessageFate::Lose));
        assert!(fates(9).contains(&MessageFate::Duplicate));
        assert_ne!(fates(9), fates(10));
    }

    #[test]
    fn trace_is_reproducible() {
        let run = || {
            let plan = FaultPlan::new().at(
                5,
                FaultKind::ServicePanic {
                    service: "billing".into(),
                },
            );
            let injector = FaultInjector::with_plan(77, plan);
            injector.set_rates(FaultRates {
                message_loss_permille: 300,
                ..FaultRates::default()
            });
            injector.advance_to(5);
            for id in 0..50 {
                injector.message_fate(id);
            }
            injector.record("restart c1 attempt 1");
            injector.trace()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a[0].contains("service-panic billing"));
        assert!(a.last().unwrap().contains("restart c1"));
    }
}
