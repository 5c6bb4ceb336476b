//! The shielded system-call interface.
//!
//! SCONE exposes an *external* system-call interface to the micro-service:
//! arguments are copied out of the enclave, results are sanity-checked and
//! copied back in before the application sees them (§IV of the paper).
//! That is one mechanism, so there is one type: [`Shield`] keeps the
//! trusted copy of every submitted call in an in-enclave pending table and
//! validates each host answer against it. The constructors name the only
//! thing that differs — how a call reaches the host:
//!
//! * [`Shield::sync`] — the naive transport: every call exits and
//!   re-enters the enclave, paying one transition pair (~8k cycles).
//! * [`Shield::switchless`] / [`Shield::threaded`] — SCONE's asynchronous
//!   interface: submissions are pushed onto fixed-capacity shared-memory
//!   rings ([`crate::rings::SyscallRings`]) serviced by the host without
//!   any enclave transition; the enclave pays one ring-slot cache-line
//!   transfer per hop and parks on a wake signal instead of busy-polling.
//!
//! Benchmark E4 (`syscall_async`) compares the two transports,
//! reproducing the paper's claim that the asynchronous interface is what
//! makes SCONE's performance "acceptable"; E15 (`rings`) sweeps ring
//! depth, payload, and worker count over the switchless one.

use crate::hostos::{HostOs, Syscall, SyscallRet};
use crate::rings::{ServicerMode, SyscallRings, DEFAULT_RING_DEPTH};
use crate::SconeError;
use securecloud_sgx::mem::{MemorySim, Region};
use securecloud_telemetry::{Counter, Gauge, Telemetry};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// The shield's telemetry hook: per-kind syscall counters and enclave-side
/// cycle histograms, labelled with the transport so the sync/async cost
/// gap (benchmark E4) shows up in one metric family.
#[derive(Debug, Clone)]
struct ShieldTelemetry {
    telemetry: Arc<Telemetry>,
    mode: &'static str,
}

impl ShieldTelemetry {
    fn record(&self, kind: &'static str, cycles: u64) {
        self.telemetry
            .counter_with(
                "securecloud_scone_syscalls_total",
                &[("kind", kind), ("mode", self.mode)],
            )
            .inc();
        self.telemetry
            .histogram_with(
                "securecloud_scone_syscall_cycles",
                &[("kind", kind), ("mode", self.mode)],
            )
            .observe(cycles);
    }

    fn violation(&self, kind: &'static str) {
        self.telemetry
            .counter_with(
                "securecloud_scone_host_violations_total",
                &[("kind", kind), ("mode", self.mode)],
            )
            .inc();
    }
}

/// Copy throughput: cycles charged per 8 bytes moved across the enclave
/// boundary (memcpy plus pointer/length sanitisation).
const COPY_CYCLES_PER_8_BYTES: u64 = 1;

fn copy_cost(bytes: usize) -> u64 {
    (bytes as u64).div_ceil(8) * COPY_CYCLES_PER_8_BYTES
}

fn call_payload_bytes(call: &Syscall) -> usize {
    match call {
        Syscall::Open { path, .. } | Syscall::Unlink { path } => path.len(),
        Syscall::Pwrite { data, .. } => data.len(),
        Syscall::Pread { .. }
        | Syscall::Ftruncate { .. }
        | Syscall::Close { .. }
        | Syscall::Fstat { .. } => 0,
    }
}

fn ret_payload_bytes(ret: &SyscallRet) -> usize {
    match ret {
        SyscallRet::Data(d) => d.len(),
        SyscallRet::Error(e) => e.len(),
        SyscallRet::Fd(_) | SyscallRet::Done(_) | SyscallRet::Len(_) => 0,
    }
}

/// Sanity checks applied to host return values before they enter the
/// enclave: the host is untrusted and may answer with the wrong shape or
/// oversized data (an Iago-style attack).
fn validate(call: &Syscall, ret: &SyscallRet) -> Result<(), SconeError> {
    match (call, ret) {
        (_, SyscallRet::Error(_)) => Ok(()),
        (Syscall::Open { .. }, SyscallRet::Fd(_)) => Ok(()),
        (Syscall::Pread { len, .. }, SyscallRet::Data(data)) => {
            if data.len() > *len {
                Err(SconeError::HostViolation(format!(
                    "pread returned {} bytes for a {len}-byte request",
                    data.len()
                )))
            } else {
                Ok(())
            }
        }
        (Syscall::Pwrite { data, .. }, SyscallRet::Done(n)) => {
            if *n > data.len() as u64 {
                Err(SconeError::HostViolation(format!(
                    "pwrite acknowledged {n} bytes for a {}-byte buffer",
                    data.len()
                )))
            } else {
                Ok(())
            }
        }
        (Syscall::Ftruncate { .. }, SyscallRet::Done(_))
        | (Syscall::Close { .. }, SyscallRet::Done(_))
        | (Syscall::Unlink { .. }, SyscallRet::Done(_))
        | (Syscall::Fstat { .. }, SyscallRet::Len(_)) => Ok(()),
        (call, ret) => Err(SconeError::HostViolation(format!(
            "host returned {ret:?} for {call:?}"
        ))),
    }
}

/// A completed shielded syscall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The id returned by [`Shield::submit`].
    pub id: u64,
    /// The validated host result.
    pub ret: SyscallRet,
}

/// Registry handles for the switchless transport. The depth gauge derives
/// from enclave-side state only (deterministic in every mode); park/wake
/// counts are recorded only when the servicer is deterministic, because
/// threaded wake timing is wall-clock-dependent and would break the
/// byte-identical telemetry contract.
#[derive(Debug, Clone)]
struct RingMetrics {
    depth: Gauge,
    wakes: Counter,
    spurious_wakes: Counter,
}

/// Bytes of in-enclave pending-table state per in-flight call: one cache
/// line holding the trusted copy's bookkeeping.
const PENDING_SLOT_BYTES: u64 = 64;

/// Enclave-side state of the switchless transport: the ring pair, the EPC
/// backing store of the pending table, and the registry handles.
#[derive(Debug)]
struct RingPlane {
    rings: SyscallRings,
    /// Backing store of the pending table, charged through the enclave
    /// memory simulation.
    table: Option<Region>,
    metrics: Option<RingMetrics>,
}

impl RingPlane {
    fn touch_pending_slot(&mut self, mem: &mut MemorySim, id: u64) {
        let depth = self.rings.depth() as u64;
        let table = *self
            .table
            .get_or_insert_with(|| mem.alloc(depth * PENDING_SLOT_BYTES));
        mem.touch_region(
            table,
            (id % depth) * PENDING_SLOT_BYTES,
            PENDING_SLOT_BYTES as usize,
        );
    }

    /// Pops one completion off the ring, charging the slot transfer.
    fn reap(&mut self, mem: &mut MemorySim) -> (u64, SyscallRet) {
        let (entry, report) = self.rings.pop_completion();
        mem.charge_cycles(mem.costs().ring_slot_cycles);
        // Threaded wake timing is wall-clock-dependent: keep it out of the
        // registry (deterministic mode's counts are pure workload functions).
        if let (true, Some(m)) = (self.rings.is_deterministic(), &self.metrics) {
            if report.parked {
                m.wakes.inc();
            }
            m.spurious_wakes.add(report.spurious_wakes);
        }
        (entry.id, entry.ret)
    }
}

/// How a submitted call reaches the host: the one thing the paper's two
/// measurements of the shielded interface differ in.
#[derive(Debug)]
enum Transport {
    /// Serviced inline: OCALL out, syscall, ECALL back in — one
    /// transition pair per call, nothing ever outstanding on the host.
    Sync(Arc<dyn HostOs>),
    /// Shared-memory submission/completion rings: no transition, one
    /// ring-slot transfer per hop.
    Rings(RingPlane),
}

/// The shielded syscall interface. Every call is copied out of the
/// enclave, carried to the host over the transport the constructor chose,
/// and its answer validated against the shield's own in-enclave pending
/// table before it is copied back in (see [`crate::rings`] for the
/// memory-safety argument).
#[derive(Debug)]
pub struct Shield {
    transport: Transport,
    /// The trusted, in-enclave copy of every submitted call, keyed by id.
    /// Host answers are validated against *this*, never against anything
    /// echoed through untrusted memory.
    pending: HashMap<u64, Syscall>,
    /// Host answers not yet handed to the caller: everything the sync
    /// transport executed, and completions `submit` reaped to free a ring
    /// slot.
    reaped: VecDeque<(u64, SyscallRet)>,
    next_id: u64,
    telemetry: Option<ShieldTelemetry>,
}

impl Shield {
    fn over(transport: Transport) -> Self {
        Shield {
            transport,
            pending: HashMap::new(),
            reaped: VecDeque::new(),
            next_id: 0,
            telemetry: None,
        }
    }

    fn over_rings(host: Arc<dyn HostOs>, depth: usize, mode: ServicerMode) -> Self {
        Self::over(Transport::Rings(RingPlane {
            rings: SyscallRings::new(host, depth, mode),
            table: None,
            metrics: None,
        }))
    }

    /// The naive transport: each call exits and re-enters the enclave, so
    /// it is serviced inline and charged one transition pair.
    pub fn sync(host: Arc<dyn HostOs>) -> Self {
        Self::over(Transport::Sync(host))
    }

    /// The switchless transport with `depth` ring slots, its host side
    /// serviced inline at enclave park points: fully deterministic, so
    /// ring park/wake counters are recorded in the registry.
    pub fn switchless(host: Arc<dyn HostOs>, depth: usize) -> Self {
        Self::over_rings(host, depth, ServicerMode::Deterministic)
    }

    /// The switchless transport with a real host-side servicer thread and
    /// the default ring depth: genuine wall-clock overlap between enclave
    /// and host (benchmark E4b).
    pub fn threaded(host: Arc<dyn HostOs>) -> Self {
        Self::over_rings(host, DEFAULT_RING_DEPTH, ServicerMode::Threaded)
    }

    /// Routes per-kind syscall counters and cycle histograms (labelled
    /// `mode="sync"` or `mode="async"` after the transport) into
    /// `telemetry`'s registry; the switchless transport adds its
    /// ring-depth gauge and wake counters. Only enclave-side cycles are
    /// recorded; the host servicer thread is never instrumented (it runs
    /// on wall-clock time and would break trace determinism).
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        let mode = match &mut self.transport {
            Transport::Sync(_) => "sync",
            Transport::Rings(plane) => {
                plane.metrics = Some(RingMetrics {
                    depth: telemetry.gauge_with("securecloud_scone_ring_depth", &[]),
                    wakes: telemetry.counter_with("securecloud_scone_ring_wakes_total", &[]),
                    spurious_wakes: telemetry
                        .counter_with("securecloud_scone_ring_spurious_wakes_total", &[]),
                });
                "async"
            }
        };
        self.telemetry = Some(ShieldTelemetry { telemetry, mode });
    }

    fn set_depth_gauge(&self) {
        if let Transport::Rings(RingPlane {
            metrics: Some(m), ..
        }) = &self.transport
        {
            m.depth.set(self.pending.len() as i64);
        }
    }

    fn violation(&self, kind: &'static str) {
        if let Some(t) = &self.telemetry {
            t.violation(kind);
        }
    }

    /// Submits a syscall; returns its id. On the switchless transport the
    /// enclave never leaves: if every ring slot is occupied, one
    /// completion is reaped (and buffered for [`Shield::complete`]) to
    /// make room — so depth bounds ring occupancy, not the caller's
    /// pipeline length.
    ///
    /// # Errors
    ///
    /// [`SconeError::ShieldStopped`] if the ring protocol is violated.
    pub fn submit(&mut self, mem: &mut MemorySim, call: Syscall) -> Result<u64, SconeError> {
        // Copy arguments out of the enclave.
        mem.charge_cycles(copy_cost(call_payload_bytes(&call)));
        let id = self.next_id;
        match &mut self.transport {
            Transport::Sync(host) => {
                mem.charge_cycles(mem.costs().transition_pair());
                self.reaped.push_back((id, host.execute(&call)));
            }
            Transport::Rings(plane) => {
                if self.pending.len() - self.reaped.len() == plane.rings.depth() {
                    self.reaped.push_back(plane.reap(mem));
                }
                plane.touch_pending_slot(mem, id);
                mem.charge_cycles(mem.costs().ring_slot_cycles);
                plane.rings.push_submission(id, call.clone())?;
            }
        }
        self.next_id += 1;
        self.pending.insert(id, call);
        self.set_depth_gauge();
        Ok(id)
    }

    /// Number of submitted but uncompleted calls.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Takes the next host answer — on the switchless transport parking on
    /// the ring's wake signal, never busy-polling and never transitioning
    /// — then validates it against the in-enclave pending table.
    ///
    /// # Errors
    ///
    /// [`SconeError::ShieldStopped`] if nothing is in flight;
    /// [`SconeError::HostViolation`] if the host answered with an unknown
    /// or duplicated id, or the result fails validation — the malformed
    /// answer never reaches the application.
    pub fn complete(&mut self, mem: &mut MemorySim) -> Result<Completion, SconeError> {
        if self.pending.is_empty() {
            return Err(SconeError::ShieldStopped);
        }
        let buffered = self.reaped.pop_front();
        let (id, ret, hop_cycles) = match &mut self.transport {
            // The sync transport buffered its answer at submit.
            Transport::Sync(_) => {
                let (id, ret) = buffered.ok_or(SconeError::ShieldStopped)?;
                (id, ret, mem.costs().transition_pair())
            }
            Transport::Rings(plane) => {
                let (id, ret) = buffered.unwrap_or_else(|| plane.reap(mem));
                plane.touch_pending_slot(mem, id);
                (id, ret, 2 * mem.costs().ring_slot_cycles)
            }
        };
        // The id must match a call *we* recorded: a forged, replayed, or
        // duplicated completion from the untrusted host dies here.
        let Some(call) = self.pending.remove(&id) else {
            self.violation("unknown");
            return Err(SconeError::HostViolation(format!(
                "completion for unknown id {id}"
            )));
        };
        self.set_depth_gauge();
        if let Err(e) = validate(&call, &ret) {
            self.violation(call.kind());
            return Err(e);
        }
        // Copy the (validated) result into the enclave.
        let copy_in = copy_cost(ret_payload_bytes(&ret));
        mem.charge_cycles(copy_in);
        if let Some(t) = &self.telemetry {
            // Enclave-side cycles for the whole call, deterministic from
            // the cost model: the submit-side copy, the hop (transition
            // pair, or ring push plus pop), and the result copy.
            let copy_out = copy_cost(call_payload_bytes(&call));
            t.record(call.kind(), copy_out + hop_cycles + copy_in);
        }
        Ok(Completion { id, ret })
    }

    /// Submits `call` and waits for its completion.
    ///
    /// # Errors
    ///
    /// See [`Shield::submit`] and [`Shield::complete`].
    pub fn call(&mut self, mem: &mut MemorySim, call: Syscall) -> Result<SyscallRet, SconeError> {
        let id = self.submit(mem, call)?;
        loop {
            let completion = self.complete(mem)?;
            if completion.id == id {
                return Ok(completion.ret);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostos::MemHost;
    use securecloud_sgx::costs::{CostModel, MemoryGeometry};

    fn mem() -> MemorySim {
        MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::sgx_v1())
    }

    fn open(shield: &mut Shield, mem: &mut MemorySim, path: &str) -> u64 {
        let open = Syscall::Open {
            path: path.into(),
            create: true,
        };
        let SyscallRet::Fd(fd) = shield.call(mem, open).unwrap() else {
            panic!("expected fd")
        };
        fd
    }

    /// Both transports over one (possibly hostile) host.
    fn both_transports(host: Arc<dyn HostOs>) -> [Shield; 2] {
        [Shield::sync(host.clone()), Shield::switchless(host, 4)]
    }

    fn violations(telemetry: &Telemetry, kind: &str, mode: &str) -> u64 {
        telemetry
            .counter_with(
                "securecloud_scone_host_violations_total",
                &[("kind", kind), ("mode", mode)],
            )
            .value()
    }

    #[test]
    fn sync_shield_roundtrip_and_cost() {
        let host = Arc::new(MemHost::new());
        let mut shield = Shield::sync(host.clone());
        let mut mem = mem();
        let fd = open(&mut shield, &mut mem, "/f");
        let before = mem.cycles();
        shield
            .call(
                &mut mem,
                Syscall::Pwrite {
                    fd,
                    offset: 0,
                    data: vec![0u8; 4096],
                },
            )
            .unwrap();
        let cost = mem.cycles() - before;
        // Must include the two transitions plus the 4 KiB copy.
        assert!(cost >= 8_000 + 512, "cost {cost}");
    }

    #[test]
    fn async_shield_is_cheaper_per_call() {
        let host = Arc::new(MemHost::new());
        let mut sync_shield = Shield::sync(host.clone());
        let mut async_shield = Shield::threaded(host.clone());
        let mut mem_sync = mem();
        let mut mem_async = mem();
        let fd = open(&mut sync_shield, &mut mem_sync, "/f");
        let write = |fd| Syscall::Pwrite {
            fd,
            offset: 0,
            data: vec![1u8; 64],
        };
        let s0 = mem_sync.cycles();
        for _ in 0..100 {
            sync_shield.call(&mut mem_sync, write(fd)).unwrap();
        }
        let sync_cost = mem_sync.cycles() - s0;

        let fd2 = open(&mut async_shield, &mut mem_async, "/f");
        let a0 = mem_async.cycles();
        for _ in 0..100 {
            async_shield.call(&mut mem_async, write(fd2)).unwrap();
        }
        let async_cost = mem_async.cycles() - a0;
        assert!(
            async_cost * 5 < sync_cost,
            "async {async_cost} should be >5x cheaper than sync {sync_cost}"
        );
    }

    #[test]
    fn async_pipelining_overlaps() {
        let host = Arc::new(MemHost::new());
        let mut shield = Shield::threaded(host);
        let mut mem = mem();
        let fd = open(&mut shield, &mut mem, "/f");
        let mut ids = Vec::new();
        for i in 0..32u64 {
            ids.push(
                shield
                    .submit(
                        &mut mem,
                        Syscall::Pwrite {
                            fd,
                            offset: i * 8,
                            data: vec![i as u8; 8],
                        },
                    )
                    .unwrap(),
            );
        }
        assert_eq!(shield.in_flight(), 32);
        let mut seen = Vec::new();
        while shield.in_flight() > 0 {
            seen.push(shield.complete(&mut mem).unwrap().id);
        }
        seen.sort_unstable();
        assert_eq!(seen, ids);
    }

    #[test]
    fn complete_without_submit_errors() {
        let host = Arc::new(MemHost::new());
        let mut mem = mem();
        for mut shield in [Shield::sync(host.clone()), Shield::threaded(host)] {
            assert!(matches!(
                shield.complete(&mut mem),
                Err(SconeError::ShieldStopped)
            ));
        }
    }

    #[test]
    fn validation_rejects_oversized_read() {
        // A malicious host answering more data than requested.
        struct EvilHost;
        impl HostOs for EvilHost {
            fn execute(&self, _call: &Syscall) -> SyscallRet {
                SyscallRet::Data(vec![0u8; 1 << 20])
            }
        }
        let telemetry = Arc::new(Telemetry::new());
        let mut mem = mem();
        for mut shield in both_transports(Arc::new(EvilHost)) {
            shield.set_telemetry(telemetry.clone());
            let err = shield.call(
                &mut mem,
                Syscall::Pread {
                    fd: 1,
                    offset: 0,
                    len: 16,
                },
            );
            assert!(matches!(err, Err(SconeError::HostViolation(_))));
            assert_eq!(shield.in_flight(), 0);
        }
        // One validate path, one counter family: each transport counted its
        // own rejection.
        assert_eq!(violations(&telemetry, "pread", "sync"), 1);
        assert_eq!(violations(&telemetry, "pread", "async"), 1);
    }

    #[test]
    fn validation_rejects_wrong_shape() {
        struct ShapeShifter;
        impl HostOs for ShapeShifter {
            fn execute(&self, _call: &Syscall) -> SyscallRet {
                SyscallRet::Len(42)
            }
        }
        let mut mem = mem();
        for mut shield in both_transports(Arc::new(ShapeShifter)) {
            let err = shield.call(
                &mut mem,
                Syscall::Open {
                    path: "/f".into(),
                    create: true,
                },
            );
            assert!(matches!(err, Err(SconeError::HostViolation(_))));
        }
        // Over-acknowledged write is also rejected.
        struct OverAck;
        impl HostOs for OverAck {
            fn execute(&self, _call: &Syscall) -> SyscallRet {
                SyscallRet::Done(u64::MAX)
            }
        }
        for mut shield in both_transports(Arc::new(OverAck)) {
            let err = shield.call(
                &mut mem,
                Syscall::Pwrite {
                    fd: 1,
                    offset: 0,
                    data: vec![1],
                },
            );
            assert!(matches!(err, Err(SconeError::HostViolation(_))));
        }
    }

    /// The zero-drift pin: total enclave cycles of one fixed script (open,
    /// 98 × 64 B pwrite pipelined, close) on every transport, as literals
    /// captured at the commit before the sync and ring shields became one
    /// type.
    #[test]
    fn fixed_script_cycles_are_pinned_per_transport() {
        let run = |mut shield: Shield| {
            let mut mem = mem();
            let fd = open(&mut shield, &mut mem, "/pin");
            for i in 0..98u64 {
                shield
                    .submit(
                        &mut mem,
                        Syscall::Pwrite {
                            fd,
                            offset: i * 64,
                            data: vec![i as u8; 64],
                        },
                    )
                    .unwrap();
            }
            while shield.in_flight() > 0 {
                shield.complete(&mut mem).unwrap();
            }
            shield.call(&mut mem, Syscall::Close { fd }).unwrap();
            mem.cycles()
        };
        let host = || Arc::new(MemHost::new());
        assert_eq!(run(Shield::sync(host())), 800_785);
        assert_eq!(run(Shield::switchless(host(), 1)), 46_377);
        assert_eq!(run(Shield::switchless(host(), 8)), 49_821);
        assert_eq!(run(Shield::switchless(host(), 64)), 77_373);
    }

    #[test]
    fn switchless_shield_is_deterministic_across_runs() {
        let run = |depth: usize| {
            let host = Arc::new(MemHost::new());
            let mut shield = Shield::switchless(host, depth);
            let mut mem = mem();
            let fd = open(&mut shield, &mut mem, "/d");
            for i in 0..40u64 {
                shield
                    .submit(
                        &mut mem,
                        Syscall::Pwrite {
                            fd,
                            offset: i * 16,
                            data: vec![i as u8; 16],
                        },
                    )
                    .unwrap();
            }
            while shield.in_flight() > 0 {
                shield.complete(&mut mem).unwrap();
            }
            mem.cycles()
        };
        for depth in [1usize, 8, 64] {
            assert_eq!(run(depth), run(depth), "depth {depth} must be reproducible");
        }
    }

    #[test]
    fn submit_beyond_depth_reaps_to_free_a_slot() {
        let host = Arc::new(MemHost::new());
        let mut shield = Shield::switchless(host.clone(), 4);
        let mut mem = mem();
        let fd = open(&mut shield, &mut mem, "/r");
        // 12 submissions through a 4-deep ring: submit transparently reaps.
        let ids: Vec<u64> = (0..12u64)
            .map(|i| {
                shield
                    .submit(
                        &mut mem,
                        Syscall::Pwrite {
                            fd,
                            offset: i * 4,
                            data: vec![i as u8; 4],
                        },
                    )
                    .unwrap()
            })
            .collect();
        assert_eq!(shield.in_flight(), 12);
        let mut seen = Vec::new();
        while shield.in_flight() > 0 {
            seen.push(shield.complete(&mut mem).unwrap().id);
        }
        seen.sort_unstable();
        assert_eq!(seen, ids);
        assert_eq!(host.call_count(), 13);
    }

    #[test]
    fn deterministic_mode_records_parks_without_spurious_wakes() {
        let host = Arc::new(MemHost::new());
        let telemetry = Arc::new(Telemetry::new());
        let mut shield = Shield::switchless(host, 8);
        shield.set_telemetry(telemetry.clone());
        let mut mem = mem();
        let fd = open(&mut shield, &mut mem, "/p");
        for i in 0..8u64 {
            shield
                .submit(
                    &mut mem,
                    Syscall::Pwrite {
                        fd,
                        offset: i,
                        data: vec![1],
                    },
                )
                .unwrap();
        }
        while shield.in_flight() > 0 {
            shield.complete(&mut mem).unwrap();
        }
        // Open parks once, then the 8-write batch parks once and the
        // remaining completions are already serviced.
        let wakes = telemetry
            .counter_with("securecloud_scone_ring_wakes_total", &[])
            .value();
        assert_eq!(wakes, 2);
        assert_eq!(
            telemetry
                .counter_with("securecloud_scone_ring_spurious_wakes_total", &[])
                .value(),
            0,
            "parking wakes exactly when a completion exists"
        );
        assert_eq!(
            telemetry
                .gauge_with("securecloud_scone_ring_depth", &[])
                .value(),
            0
        );
    }

    #[test]
    fn completion_with_unknown_id_is_a_host_violation() {
        // A host that answers with a forged completion id: the in-enclave
        // pending table must reject it before the payload is believed.
        struct ForgingHost;
        impl HostOs for ForgingHost {
            fn execute(&self, _call: &Syscall) -> SyscallRet {
                SyscallRet::Fd(7)
            }
        }
        let telemetry = Arc::new(Telemetry::new());
        let mut mem = mem();
        for mut shield in both_transports(Arc::new(ForgingHost)) {
            shield.set_telemetry(telemetry.clone());
            shield
                .submit(
                    &mut mem,
                    Syscall::Open {
                        path: "/f".into(),
                        create: true,
                    },
                )
                .unwrap();
            // Corrupt the pending table's view by pretending the id was
            // never issued: steal the entry and re-key it.
            let call = shield.pending.remove(&0).unwrap();
            shield.pending.insert(99, call);
            let err = shield.complete(&mut mem);
            assert!(matches!(err, Err(SconeError::HostViolation(_))));
        }
        assert_eq!(violations(&telemetry, "unknown", "sync"), 1);
        assert_eq!(violations(&telemetry, "unknown", "async"), 1);
    }

    #[test]
    fn one_shield_type_serves_both_transports() {
        let host = Arc::new(MemHost::new());
        let telemetry = Arc::new(Telemetry::new());
        let mut sync_shield = Shield::sync(host.clone());
        let mut ring_shield = Shield::switchless(host.clone(), 8);
        sync_shield.set_telemetry(telemetry.clone());
        ring_shield.set_telemetry(telemetry.clone());
        let mut mem_sync = mem();
        let mut mem_ring = mem();
        let fd_sync = open(&mut sync_shield, &mut mem_sync, "/d");
        let fd_ring = open(&mut ring_shield, &mut mem_ring, "/d");
        // Past the one-time pending-table warm-up, the switchless
        // transport never pays the transition pair.
        let write = |fd| Syscall::Pwrite {
            fd,
            offset: 0,
            data: vec![7u8; 32],
        };
        let s0 = mem_sync.cycles();
        sync_shield.call(&mut mem_sync, write(fd_sync)).unwrap();
        let r0 = mem_ring.cycles();
        ring_shield.call(&mut mem_ring, write(fd_ring)).unwrap();
        assert!(mem_ring.cycles() - r0 < mem_sync.cycles() - s0);
        // The sync hop is exactly copy-out plus one transition pair.
        assert_eq!(
            mem_sync.cycles() - s0,
            4 + CostModel::sgx_v1().transition_pair()
        );
        // The transport is the telemetry label; nothing else tells the
        // two shields apart.
        for mode in ["sync", "async"] {
            let calls = telemetry
                .counter_with(
                    "securecloud_scone_syscalls_total",
                    &[("kind", "pwrite"), ("mode", mode)],
                )
                .value();
            assert_eq!(calls, 1, "mode {mode}");
        }
    }

    #[test]
    fn host_error_passes_through() {
        let host = Arc::new(MemHost::new());
        let mut shield = Shield::sync(host);
        let mut mem = mem();
        let ret = shield
            .call(
                &mut mem,
                Syscall::Open {
                    path: "/missing".into(),
                    create: false,
                },
            )
            .unwrap();
        assert!(matches!(ret, SyscallRet::Error(_)));
    }
}
