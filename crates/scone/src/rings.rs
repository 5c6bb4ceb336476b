//! Shared-memory submission/completion rings: the switchless transport
//! between the enclave and the host OS.
//!
//! This is the io_uring shape applied to shielded syscalls: two
//! fixed-capacity single-producer/single-consumer rings live in *untrusted*
//! shared memory. The enclave pushes `SubmissionEntry`s and pops
//! [`CompletionEntry`]s; a host-side servicer drains submissions and pushes
//! completions. Neither side ever performs an enclave transition — each
//! ring operation costs one cross-core cache-line transfer
//! (`CostModel::ring_slot_cycles`), not the ~8k-cycle ECALL/OCALL pair.
//!
//! # Memory-safety argument (untrusted slots)
//!
//! The rings are *outside* the enclave, so everything in them is
//! attacker-controlled the moment it leaves enclave registers:
//!
//! * The **submission** side is write-only from the enclave's point of
//!   view: the host may corrupt, reorder, or drop entries, which degrades
//!   into a wrong/missing completion — handled below.
//! * A **completion** entry carries only `(id, ret)`. The enclave never
//!   trusts a call echoed through untrusted memory; instead the shield
//!   keeps an *in-enclave pending table* (the trusted copy of every
//!   submitted call, keyed by id) and validates `ret` against **its own**
//!   record. A completion whose id is unknown (forged, replayed, or
//!   duplicated by the host) is a `HostViolation` before any byte of it
//!   reaches the application.
//!
//! # Wake protocol
//!
//! Both directions park on a permit-counting `WaitSignal` (an
//! eventcount): the producer posts one permit per pushed entry, the
//! consumer loops `wait → try_pop`, so a wake without an entry — a
//! *spurious* wake — is structurally impossible unless the consumer
//! already drained the entry on a fast path. The shield counts both parks
//! and spurious wakes so the "~0 spurious" claim is measurable.
//!
//! Two servicer modes exist:
//!
//! * [`ServicerMode::Deterministic`] — the host services pending
//!   submissions inline, exactly when the enclave parks. Every park/wake
//!   count is a pure function of the workload, so these counters live in
//!   the shared registry without breaking the byte-identical-telemetry
//!   contract.
//! * [`ServicerMode::Threaded`] — a real host thread drains the ring for
//!   genuine wall-clock overlap (benchmark E4b). Its wake timing is
//!   wall-clock-dependent, so park/wake observations stay out of the
//!   registry in this mode (the same rule that keeps the host worker
//!   uninstrumented elsewhere).

use crate::hostos::{HostOs, Syscall, SyscallRet};
use crate::SconeError;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;

/// Default capacity of each ring (submission and completion alike).
pub const DEFAULT_RING_DEPTH: usize = 64;

/// One slot on the submission ring: the id and the (untrusted copy of the)
/// call. The trusted copy stays in the shield's in-enclave pending table.
#[derive(Debug, Clone)]
struct SubmissionEntry {
    /// Shield-assigned syscall id.
    pub id: u64,
    /// The call as the host will see it.
    pub call: Syscall,
}

/// One slot on the completion ring. Deliberately *without* a call echo:
/// the enclave validates `ret` against its own pending table.
#[derive(Debug, Clone)]
pub struct CompletionEntry {
    /// The id the host claims to have serviced.
    pub id: u64,
    /// The host's (unvalidated) result.
    pub ret: SyscallRet,
}

/// A fixed-capacity single-producer/single-consumer ring. Head and tail
/// are monotone counters; `Release`/`Acquire` pairs order the slot write
/// against the index publication, the classic SPSC protocol.
struct SpscRing<T> {
    slots: Box<[UnsafeCell<Option<T>>]>,
    head: AtomicUsize, // next slot to pop (consumer-owned)
    tail: AtomicUsize, // next slot to push (producer-owned)
}

// Safety: only one producer touches `tail`/the slot being pushed and only
// one consumer touches `head`/the slot being popped (enforced by the
// non-clonable Producer/Consumer handles); the Acquire/Release pair on the
// indices publishes each slot before the other side reads it.
unsafe impl<T: Send> Sync for SpscRing<T> {}
unsafe impl<T: Send> Send for SpscRing<T> {}

impl<T> SpscRing<T> {
    fn new(capacity: usize) -> Arc<Self> {
        let capacity = capacity.max(1);
        let slots = (0..capacity)
            .map(|_| UnsafeCell::new(None))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Arc::new(SpscRing {
            slots,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        })
    }

    fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    /// Producer side only.
    fn try_push(&self, value: T) -> Result<(), T> {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == self.slots.len() {
            return Err(value);
        }
        // Safety: between head and tail checks above, this slot is free and
        // owned by the single producer.
        unsafe {
            *self.slots[tail % self.slots.len()].get() = Some(value);
        }
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consumer side only.
    fn try_pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // Safety: the slot at head was published by the Release store above
        // and is owned by the single consumer until head advances.
        let value = unsafe { (*self.slots[head % self.slots.len()].get()).take() };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        value
    }
}

/// A permit-counting eventcount: one permit per pushed entry, so waiters
/// wake exactly as often as entries arrive.
#[derive(Default)]
struct WaitSignal {
    permits: Mutex<usize>,
    cond: Condvar,
}

impl WaitSignal {
    fn notify(&self) {
        let mut permits = self.permits.lock().expect("signal lock poisoned");
        *permits += 1;
        self.cond.notify_one();
    }

    fn wait(&self) {
        let mut permits = self.permits.lock().expect("signal lock poisoned");
        while *permits == 0 {
            permits = self.cond.wait(permits).expect("signal lock poisoned");
        }
        *permits -= 1;
    }
}

/// How the host side of the rings is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServicerMode {
    /// Submissions are serviced inline at enclave park points: fully
    /// deterministic, park/wake counters are registry-safe.
    Deterministic,
    /// A real host thread drains the ring (wall-clock overlap; wake
    /// observations are timing-dependent and stay out of the registry).
    Threaded,
}

/// What happened while popping a completion — fed into the shield's
/// park/wake accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParkReport {
    /// The completion ring was empty on first look: the enclave parked
    /// (deterministic mode: the inline servicer ran at this point).
    pub parked: bool,
    /// Wakes that found the ring still empty (possible only when a fast
    /// path consumed the entry a permit referred to).
    pub spurious_wakes: u64,
}

enum Servicer {
    Deterministic {
        host: Arc<dyn HostOs>,
        submissions: Arc<SpscRing<SubmissionEntry>>,
        completions: Arc<SpscRing<CompletionEntry>>,
    },
    Threaded {
        submit_signal: Arc<WaitSignal>,
        complete_signal: Arc<WaitSignal>,
        stop: Arc<AtomicBool>,
        worker: Option<JoinHandle<()>>,
    },
}

/// The enclave-side handle to one submission ring + one completion ring
/// over a host, with the servicer for the far side.
pub struct SyscallRings {
    sub_prod: Arc<SpscRing<SubmissionEntry>>,
    comp_cons: Arc<SpscRing<CompletionEntry>>,
    servicer: Servicer,
    depth: usize,
}

impl std::fmt::Debug for SyscallRings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyscallRings")
            .field("depth", &self.depth)
            .field("occupancy", &self.sub_prod.len())
            .finish_non_exhaustive()
    }
}

impl SyscallRings {
    /// Builds a ring pair of `depth` slots each over `host`.
    #[must_use]
    pub fn new(host: Arc<dyn HostOs>, depth: usize, mode: ServicerMode) -> Self {
        let depth = depth.max(1);
        let submissions = SpscRing::<SubmissionEntry>::new(depth);
        let completions = SpscRing::<CompletionEntry>::new(depth);
        let servicer = match mode {
            ServicerMode::Deterministic => Servicer::Deterministic {
                host,
                submissions: Arc::clone(&submissions),
                completions: Arc::clone(&completions),
            },
            ServicerMode::Threaded => {
                let submit_signal = Arc::new(WaitSignal::default());
                let complete_signal = Arc::new(WaitSignal::default());
                let stop = Arc::new(AtomicBool::new(false));
                let worker = {
                    let submissions = Arc::clone(&submissions);
                    let completions = Arc::clone(&completions);
                    let submit_signal = Arc::clone(&submit_signal);
                    let complete_signal = Arc::clone(&complete_signal);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || loop {
                        match submissions.try_pop() {
                            Some(entry) => {
                                let ret = host.execute(&entry.call);
                                // Capacity == depth and the shield never
                                // exceeds `depth` in flight, so this push
                                // cannot fail.
                                let pushed = completions
                                    .try_push(CompletionEntry { id: entry.id, ret })
                                    .is_ok();
                                debug_assert!(pushed, "completion ring overflow");
                                complete_signal.notify();
                            }
                            None => {
                                if stop.load(Ordering::Acquire) {
                                    break;
                                }
                                submit_signal.wait();
                            }
                        }
                    })
                };
                Servicer::Threaded {
                    submit_signal,
                    complete_signal,
                    stop,
                    worker: Some(worker),
                }
            }
        };
        SyscallRings {
            sub_prod: submissions,
            comp_cons: completions,
            servicer,
            depth,
        }
    }

    /// Ring capacity (slots per direction).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Whether park/wake observations are workload-deterministic.
    #[must_use]
    pub fn is_deterministic(&self) -> bool {
        matches!(self.servicer, Servicer::Deterministic { .. })
    }

    /// Pushes one submission. The shield bounds in-flight calls by `depth`,
    /// so a full ring here is a protocol bug, reported as `ShieldStopped`.
    ///
    /// # Errors
    ///
    /// [`SconeError::ShieldStopped`] if the ring is unexpectedly full.
    pub fn push_submission(&mut self, id: u64, call: Syscall) -> Result<(), SconeError> {
        self.sub_prod
            .try_push(SubmissionEntry { id, call })
            .map_err(|_| SconeError::ShieldStopped)?;
        if let Servicer::Threaded { submit_signal, .. } = &self.servicer {
            submit_signal.notify();
        }
        Ok(())
    }

    /// Pops one completion, parking until the host produces one. The caller
    /// must have at least one submission outstanding.
    pub fn pop_completion(&mut self) -> (CompletionEntry, ParkReport) {
        let mut report = ParkReport::default();
        if let Some(entry) = self.comp_cons.try_pop() {
            return (entry, report);
        }
        report.parked = true;
        match &self.servicer {
            Servicer::Deterministic {
                host,
                submissions,
                completions,
            } => {
                // The inline servicer runs exactly at this park point:
                // drain every queued submission in order.
                while let Some(entry) = submissions.try_pop() {
                    let ret = host.execute(&entry.call);
                    let pushed = completions
                        .try_push(CompletionEntry { id: entry.id, ret })
                        .is_ok();
                    debug_assert!(pushed, "completion ring overflow");
                }
                let entry = self
                    .comp_cons
                    .try_pop()
                    .expect("caller had a submission outstanding");
                (entry, report)
            }
            Servicer::Threaded {
                complete_signal, ..
            } => loop {
                complete_signal.wait();
                match self.comp_cons.try_pop() {
                    Some(entry) => return (entry, report),
                    None => report.spurious_wakes += 1,
                }
            },
        }
    }
}

impl Drop for SyscallRings {
    fn drop(&mut self) {
        if let Servicer::Threaded {
            stop,
            submit_signal,
            worker,
            ..
        } = &mut self.servicer
        {
            stop.store(true, Ordering::Release);
            submit_signal.notify();
            if let Some(worker) = worker.take() {
                let _ = worker.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostos::MemHost;

    #[test]
    fn spsc_ring_push_pop_wraps() {
        let ring = SpscRing::<u32>::new(4);
        assert_eq!(ring.slots.len(), 4);
        for round in 0..10u32 {
            for i in 0..4 {
                ring.try_push(round * 4 + i).unwrap();
            }
            assert!(ring.try_push(99).is_err(), "full ring refuses");
            assert_eq!(ring.len(), 4);
            for i in 0..4 {
                assert_eq!(ring.try_pop(), Some(round * 4 + i));
            }
            assert_eq!(ring.try_pop(), None);
        }
    }

    #[test]
    fn deterministic_mode_services_at_park_points() {
        let host = Arc::new(MemHost::new());
        let mut rings = SyscallRings::new(host.clone(), 8, ServicerMode::Deterministic);
        assert!(rings.is_deterministic());
        rings
            .push_submission(
                0,
                Syscall::Open {
                    path: "/r".into(),
                    create: true,
                },
            )
            .unwrap();
        // Nothing serviced yet: the host runs only when the enclave parks.
        assert_eq!(host.call_count(), 0);
        assert!(rings.comp_cons.try_pop().is_none());
        let (entry, report) = rings.pop_completion();
        assert_eq!(entry.id, 0);
        assert!(matches!(entry.ret, SyscallRet::Fd(_)));
        assert!(report.parked);
        assert_eq!(report.spurious_wakes, 0);
        assert_eq!(host.call_count(), 1);
    }

    #[test]
    fn deterministic_park_drains_all_queued_submissions() {
        let host = Arc::new(MemHost::new());
        let mut rings = SyscallRings::new(host.clone(), 8, ServicerMode::Deterministic);
        for i in 0..5u64 {
            rings
                .push_submission(
                    i,
                    Syscall::Open {
                        path: format!("/f{i}"),
                        create: true,
                    },
                )
                .unwrap();
        }
        let (first, report) = rings.pop_completion();
        assert!(report.parked, "first pop parks and services the batch");
        assert_eq!(first.id, 0);
        for expect in 1..5u64 {
            let (entry, report) = rings.pop_completion();
            assert_eq!(entry.id, expect);
            assert!(!report.parked, "batch already serviced: no further park");
        }
        assert_eq!(host.call_count(), 5);
    }

    #[test]
    fn threaded_mode_services_without_enclave_involvement() {
        let host = Arc::new(MemHost::new());
        let mut rings = SyscallRings::new(host.clone(), 16, ServicerMode::Threaded);
        assert!(!rings.is_deterministic());
        for i in 0..16u64 {
            rings
                .push_submission(
                    i,
                    Syscall::Open {
                        path: format!("/t{i}"),
                        create: true,
                    },
                )
                .unwrap();
        }
        let mut seen = Vec::new();
        for _ in 0..16 {
            let (entry, _report) = rings.pop_completion();
            assert!(matches!(entry.ret, SyscallRet::Fd(_)));
            seen.push(entry.id);
        }
        // SPSC rings preserve order end to end.
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
        assert_eq!(host.call_count(), 16);
    }

    #[test]
    fn ring_overflow_is_reported_not_corrupted() {
        let host = Arc::new(MemHost::new());
        let mut rings = SyscallRings::new(host, 2, ServicerMode::Deterministic);
        let open = |i: u64| Syscall::Open {
            path: format!("/o{i}"),
            create: true,
        };
        rings.push_submission(0, open(0)).unwrap();
        rings.push_submission(1, open(1)).unwrap();
        assert!(matches!(
            rings.push_submission(2, open(2)),
            Err(SconeError::ShieldStopped)
        ));
    }
}
