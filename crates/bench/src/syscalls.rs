//! E4: SCONE's asynchronous system-call interface versus the naive
//! synchronous (transition-per-call) interface (§IV).

use securecloud_scone::hostos::{MemHost, Syscall, SyscallRet};
use securecloud_scone::syscall::Shield;
use securecloud_sgx::costs::{CostModel, MemoryGeometry};
use securecloud_sgx::mem::MemorySim;
use std::sync::Arc;

use crate::report::Cell::{Fixed, Unit};
use crate::report::{Column, Ctx, Report};

/// Result of one payload-size point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyscallPoint {
    /// Write payload in bytes.
    pub payload: usize,
    /// Enclave cycles per call, synchronous interface.
    pub sync_cycles: f64,
    /// Enclave cycles per call, asynchronous interface.
    pub async_cycles: f64,
    /// sync / async speedup.
    pub speedup: f64,
    /// Synchronous throughput in Mcalls/s of simulated time.
    pub sync_mcalls_per_s: f64,
    /// Asynchronous throughput in Mcalls/s of simulated time.
    pub async_mcalls_per_s: f64,
}

fn enclave_mem() -> MemorySim {
    MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::sgx_v1())
}

fn open(shield: &mut Shield, mem: &mut MemorySim, path: &str) -> u64 {
    match shield
        .call(
            mem,
            Syscall::Open {
                path: path.to_string(),
                create: true,
            },
        )
        .expect("open")
    {
        SyscallRet::Fd(fd) => fd,
        other => panic!("unexpected open result {other:?}"),
    }
}

/// Issues `calls` pwrites of `payload` bytes through the asynchronous
/// interface, `window` calls in flight at a time; returns the enclave
/// cycles spent per call.
fn pwrite_windowed(
    shield: &mut Shield,
    mem: &mut MemorySim,
    fd: u64,
    calls: usize,
    payload: usize,
    window: usize,
) -> f64 {
    let before = mem.cycles();
    let mut issued = 0usize;
    while issued < calls {
        let batch = window.min(calls - issued);
        for i in 0..batch {
            let write = Syscall::Pwrite {
                fd,
                offset: ((issued + i) * payload) as u64,
                data: vec![0xab; payload],
            };
            shield.submit(mem, write).expect("submit");
        }
        for _ in 0..batch {
            shield.complete(mem).expect("complete");
        }
        issued += batch;
    }
    (mem.cycles() - before) as f64 / calls as f64
}

/// Measures `calls` pwrites of `payload` bytes through both interfaces.
#[must_use]
pub fn run_point(payload: usize, calls: usize) -> SyscallPoint {
    let host = Arc::new(MemHost::new());
    let ghz = CostModel::sgx_v1().cpu_ghz;

    // --- Synchronous: each call transitions out and back.
    let mut sync_shield = Shield::sync(host.clone());
    let mut mem = enclave_mem();
    let fd = open(&mut sync_shield, &mut mem, "/sync");
    let before = mem.cycles();
    for i in 0..calls {
        let write = Syscall::Pwrite {
            fd,
            offset: (i * payload) as u64,
            data: vec![0xab; payload],
        };
        sync_shield.call(&mut mem, write).expect("pwrite");
    }
    let sync_cycles = (mem.cycles() - before) as f64 / calls as f64;

    // --- Asynchronous: the rings and a real host servicer thread, 32
    // calls in flight.
    let mut async_shield = Shield::threaded(host);
    let mut mem = enclave_mem();
    let fd = open(&mut async_shield, &mut mem, "/async");
    let async_cycles = pwrite_windowed(&mut async_shield, &mut mem, fd, calls, payload, 32);

    SyscallPoint {
        payload,
        sync_cycles,
        async_cycles,
        speedup: sync_cycles / async_cycles,
        sync_mcalls_per_s: ghz * 1000.0 / sync_cycles,
        async_mcalls_per_s: ghz * 1000.0 / async_cycles,
    }
}

/// The payload sweep used in EXPERIMENTS.md.
#[must_use]
pub fn sweep(payloads: &[usize], calls: usize) -> Vec<SyscallPoint> {
    payloads.iter().map(|&p| run_point(p, calls)).collect()
}

/// E4b: effect of the asynchronous in-flight window. The enclave-side
/// *simulated* cost per call is window-independent (the submissions are
/// identical); what the window buys is overlap with the host thread, so
/// this sweep reports **wall-clock** time per call across the real rings
/// and host servicer thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowPoint {
    /// In-flight window depth.
    pub window: usize,
    /// Enclave cycles per call (simulated; window-independent by design).
    pub cycles_per_call: f64,
    /// Wall-clock nanoseconds per call across the real rings.
    pub wall_ns_per_call: f64,
}

/// Sweeps the async in-flight window for 64-byte writes.
#[must_use]
pub fn window_sweep(windows: &[usize], calls: usize) -> Vec<WindowPoint> {
    let point = |&window: &usize| {
        let mut shield = Shield::threaded(Arc::new(MemHost::new()));
        let mut mem = enclave_mem();
        let fd = open(&mut shield, &mut mem, "/w");
        let wall_start = std::time::Instant::now();
        let cycles_per_call = pwrite_windowed(&mut shield, &mut mem, fd, calls, 64, window);
        WindowPoint {
            window,
            cycles_per_call,
            wall_ns_per_call: wall_start.elapsed().as_nanos() as f64 / calls as f64,
        }
    };
    windows.iter().map(point).collect()
}

/// Default payload sizes (64 B – 64 KiB).
pub const PAYLOADS: &[usize] = &[64, 256, 1024, 4096, 16_384, 65_536];

/// The E4 table.
pub fn report(ctx: &Ctx) -> Vec<Report> {
    let points = sweep(PAYLOADS, ctx.pick(500, 2_000));
    vec![Report::new(
        "syscall",
        "== E4: synchronous vs asynchronous shielded syscalls (§IV) ==
(paper: SCONE's async interface makes enclave performance acceptable)",
        &points,
        [
            Column::new("payload B", 9, |p| p.payload.into()),
            Column::new("sync cyc", 12, |p| Fixed(p.sync_cycles, 0)),
            Column::new("async cyc", 13, |p| Fixed(p.async_cycles, 0)),
            Column::new("speedup", 9, |p| Unit(p.speedup, 1, "x")),
            Column::new("sync Mc/s", 13, |p| Fixed(p.sync_mcalls_per_s, 2)),
            Column::new("async Mc/s", 14, |p| Fixed(p.async_mcalls_per_s, 2)),
        ],
    )]
}

/// The E4b table.
pub fn window_report(ctx: &Ctx) -> Vec<Report> {
    let points = window_sweep(&[1, 2, 4, 8, 16, 32, 64], ctx.pick(2_000, 20_000));
    vec![Report::new(
        "syscall_window",
        "== E4b: async syscall in-flight window (batching ablation) ==
(enclave-side cycles are window-independent; the window buys
 wall-clock overlap with the host syscall thread)",
        &points,
        [
            Column::new("window", 8, |p| p.window.into()),
            Column::new("cycles per call", 16, |p| Fixed(p.cycles_per_call, 0)),
            Column::new("wall ns per call", 18, |p| Fixed(p.wall_ns_per_call, 0)),
        ],
    )]
}
