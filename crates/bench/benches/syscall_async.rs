//! E4 regression bench: 256 shielded pwrites through the synchronous vs
//! the asynchronous interface (real rings and host servicer thread).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use securecloud_scone::hostos::{MemHost, Syscall, SyscallRet};
use securecloud_scone::syscall::Shield;
use securecloud_sgx::costs::{CostModel, MemoryGeometry};
use securecloud_sgx::mem::MemorySim;
use std::sync::Arc;

const CALLS: usize = 256;

fn bench_syscalls(c: &mut Criterion) {
    let mut group = c.benchmark_group("shielded_syscalls");
    group.throughput(Throughput::Elements(CALLS as u64));
    for payload in [64usize, 4096] {
        group.bench_with_input(
            BenchmarkId::new("sync", payload),
            &payload,
            |b, &payload| {
                let host = Arc::new(MemHost::new());
                let mut shield = Shield::sync(host);
                let mut mem = MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::sgx_v1());
                let SyscallRet::Fd(fd) = shield
                    .call(
                        &mut mem,
                        Syscall::Open {
                            path: "/f".into(),
                            create: true,
                        },
                    )
                    .unwrap()
                else {
                    panic!("open failed")
                };
                b.iter(|| {
                    for i in 0..CALLS {
                        shield
                            .call(
                                &mut mem,
                                Syscall::Pwrite {
                                    fd,
                                    offset: (i * payload) as u64,
                                    data: vec![1u8; payload],
                                },
                            )
                            .unwrap();
                    }
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("async", payload),
            &payload,
            |b, &payload| {
                let host = Arc::new(MemHost::new());
                let mut shield = Shield::threaded(host);
                let mut mem = MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::sgx_v1());
                let SyscallRet::Fd(fd) = shield
                    .call(
                        &mut mem,
                        Syscall::Open {
                            path: "/f".into(),
                            create: true,
                        },
                    )
                    .unwrap()
                else {
                    panic!("open failed")
                };
                b.iter(|| {
                    for i in 0..CALLS {
                        shield
                            .submit(
                                &mut mem,
                                Syscall::Pwrite {
                                    fd,
                                    offset: (i * payload) as u64,
                                    data: vec![1u8; payload],
                                },
                            )
                            .unwrap();
                    }
                    while shield.in_flight() > 0 {
                        shield.complete(&mut mem).unwrap();
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_syscalls);
criterion_main!(benches);
