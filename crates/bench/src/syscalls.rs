//! E4: SCONE's asynchronous system-call interface versus the naive
//! synchronous (transition-per-call) interface (§IV).

use securecloud_scone::hostos::{MemHost, Syscall, SyscallRet};
use securecloud_scone::syscall::Shield;
use securecloud_sgx::costs::{CostModel, MemoryGeometry};
use securecloud_sgx::mem::MemorySim;
use std::sync::Arc;

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
        sync_shield
            .call(
                &mut mem,
                Syscall::Pwrite {
                    fd,
                    offset: (i * payload) as u64,
                    data: vec![0xab; payload],
                },
            )
            .expect("pwrite");
    }
    let sync_cycles = (mem.cycles() - before) as f64 / calls as f64;

    // --- Asynchronous: the rings and a real host servicer thread, 32
    // calls in flight.
    let mut async_shield = Shield::threaded(host);
    let mut mem = enclave_mem();
    let fd = open(&mut async_shield, &mut mem, "/async");
    let before = mem.cycles();
    const WINDOW: usize = 32;
    let mut issued = 0usize;
    while issued < calls {
        let batch = WINDOW.min(calls - issued);
        for i in 0..batch {
            async_shield
                .submit(
                    &mut mem,
                    Syscall::Pwrite {
                        fd,
                        offset: ((issued + i) * payload) as u64,
                        data: vec![0xab; payload],
                    },
                )
                .expect("submit");
        }
        for _ in 0..batch {
            async_shield.complete(&mut mem).expect("complete");
        }
        issued += batch;
    }
    let async_cycles = (mem.cycles() - before) as f64 / calls as f64;

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
    windows
        .iter()
        .map(|&window| {
            let host = Arc::new(MemHost::new());
            let mut shield = Shield::threaded(host);
            let mut mem = enclave_mem();
            let fd = open(&mut shield, &mut mem, "/w");
            let before = mem.cycles();
            let wall_start = std::time::Instant::now();
            let mut issued = 0usize;
            while issued < calls {
                let batch = window.min(calls - issued);
                for i in 0..batch {
                    shield
                        .submit(
                            &mut mem,
                            Syscall::Pwrite {
                                fd,
                                offset: ((issued + i) * 64) as u64,
                                data: vec![0u8; 64],
                            },
                        )
                        .expect("submit");
                }
                for _ in 0..batch {
                    shield.complete(&mut mem).expect("complete");
                }
                issued += batch;
            }
            WindowPoint {
                window,
                cycles_per_call: (mem.cycles() - before) as f64 / calls as f64,
                wall_ns_per_call: wall_start.elapsed().as_nanos() as f64 / calls as f64,
            }
        })
        .collect()
}

/// Default payload sizes (64 B – 64 KiB).
pub const PAYLOADS: &[usize] = &[64, 256, 1024, 4096, 16_384, 65_536];
