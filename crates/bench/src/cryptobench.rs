//! E10: crypto kernel throughput — the one experiment measured in real
//! wall-clock time.
//!
//! Times AES-GCM three ways over a fixed deterministic payload: the scalar
//! reference oracle (`securecloud_crypto::reference`), the portable kernel
//! (T-table AES, windowed GHASH) and the hardware kernel (AES-NI +
//! PCLMULQDQ), which all produce the same bytes. The report also names the
//! kernel `AesGcm::new` selects on this host — the one every caller in the
//! workspace runs on — and the CPU features that selection looked at.
//! Reported throughput is decimal MB/s of payload processed; SHA-256 has a
//! single, portable implementation.
//!
//! Wall-clock numbers vary with the host, so unlike the simulated
//! experiments this one asserts nothing — EXPERIMENTS.md records the
//! observed numbers instead.

use std::time::Instant;

use securecloud_crypto::gcm::{AesGcm, Kernel, NONCE_LEN};
use securecloud_crypto::reference;
use securecloud_crypto::sha256::Sha256;

use crate::report::Cell::{Absent, Fixed, List};
use crate::report::{Cell, Column, Ctx, Report};

/// Sizing knobs for the microbenchmark.
#[derive(Debug, Clone, Copy)]
pub struct CryptoBenchConfig {
    /// Payload size per pass, bytes.
    pub payload_bytes: usize,
    /// Timed passes per operation (one extra warm-up pass runs first).
    pub iterations: usize,
}

impl CryptoBenchConfig {
    /// Full-size run: 4 MiB payload, enough passes to smooth timer jitter.
    #[must_use]
    pub fn full() -> Self {
        CryptoBenchConfig {
            payload_bytes: 4 << 20,
            iterations: 4,
        }
    }

    /// CI-sized run: 256 KiB payload, same shape.
    #[must_use]
    pub fn smoke() -> Self {
        CryptoBenchConfig {
            payload_bytes: 256 << 10,
            iterations: 2,
        }
    }
}

/// Throughput of one operation on each implementation, decimal MB/s of
/// payload.
#[derive(Debug, Clone, PartialEq)]
pub struct CryptoBenchPoint {
    /// Operation label (`ghash`, `seal`, `open`, `sha256`).
    pub op: &'static str,
    /// Scalar reference oracle, where one exists.
    pub reference_mb_per_s: Option<f64>,
    /// Portable kernel (for `sha256`, the only implementation).
    pub portable_mb_per_s: f64,
    /// Hardware kernel, where one exists and this host can run it.
    pub hardware_mb_per_s: Option<f64>,
}

/// The whole microbenchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct CryptoBenchReport {
    /// The sizing used.
    pub payload_bytes: usize,
    /// Timed passes per operation.
    pub iterations: usize,
    /// The kernel `AesGcm::new` selects on this host.
    pub kernel: Kernel,
    /// Which of the CPU features the selection looks at were detected.
    pub cpu_features: Vec<&'static str>,
    /// One point per operation.
    pub points: Vec<CryptoBenchPoint>,
}

const KEY: [u8; 16] = *b"securecloud-key!";
const NONCE: [u8; NONCE_LEN] = *b"bench-nonce!";
const AAD: &[u8] = b"securecloud crypto bench";

/// Payload bytes: fixed, patterned, incompressible enough to defeat any
/// accidental special-casing of all-zero input.
fn payload(bytes: usize) -> Vec<u8> {
    (0..bytes)
        .map(|i| (i.wrapping_mul(31) % 251) as u8)
        .collect()
}

/// Times `pass` (one warm-up, then `iterations` timed passes) and returns
/// decimal MB/s of `bytes_per_pass`.
fn throughput(bytes_per_pass: usize, iterations: usize, mut pass: impl FnMut()) -> f64 {
    pass();
    let start = Instant::now();
    for _ in 0..iterations {
        pass();
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (bytes_per_pass * iterations) as f64 / secs / 1e6
}

/// `ghash`, `seal` and `open` throughput of one cipher.
fn time_cipher(cipher: &AesGcm, data: &[u8], iterations: usize) -> [f64; 3] {
    let ghash = throughput(data.len(), iterations, || {
        std::hint::black_box(cipher.ghash(AAD, data));
    });
    let seal = throughput(data.len(), iterations, || {
        std::hint::black_box(cipher.seal(&NONCE, data, AAD));
    });
    let sealed = cipher.seal(&NONCE, data, AAD);
    let open = throughput(data.len(), iterations, || {
        let opened = cipher.open(&NONCE, &sealed, AAD);
        std::hint::black_box(opened.expect("bench ciphertext authenticates"));
    });
    [ghash, seal, open]
}

/// Runs every operation at the configured size.
#[must_use]
pub fn run(config: CryptoBenchConfig) -> CryptoBenchReport {
    let data = payload(config.payload_bytes);
    let iterations = config.iterations;
    let bytes = config.payload_bytes;

    let sealed = reference::seal(&KEY, &NONCE, &data, AAD);
    let reference = [
        throughput(bytes, iterations, || {
            std::hint::black_box(reference::ghash(&KEY, AAD, &data));
        }),
        throughput(bytes, iterations, || {
            std::hint::black_box(reference::seal(&KEY, &NONCE, &data, AAD));
        }),
        throughput(bytes, iterations, || {
            let opened = reference::open(&KEY, &NONCE, &sealed, AAD);
            std::hint::black_box(opened.expect("bench ciphertext authenticates"));
        }),
    ];
    let portable = AesGcm::with_kernel(&KEY, Kernel::Portable).expect("portable kernel");
    let portable = time_cipher(&portable, &data, iterations);
    let hardware = AesGcm::with_kernel(&KEY, Kernel::Hardware)
        .map(|cipher| time_cipher(&cipher, &data, iterations));

    let sha = throughput(bytes, iterations, || {
        std::hint::black_box(Sha256::digest(&data));
    });

    let mut points: Vec<CryptoBenchPoint> = ["ghash", "seal", "open"]
        .into_iter()
        .enumerate()
        .map(|(i, op)| CryptoBenchPoint {
            op,
            reference_mb_per_s: Some(reference[i]),
            portable_mb_per_s: portable[i],
            hardware_mb_per_s: hardware.map(|h| h[i]),
        })
        .collect();
    points.push(CryptoBenchPoint {
        op: "sha256",
        reference_mb_per_s: None,
        portable_mb_per_s: sha,
        hardware_mb_per_s: None,
    });

    CryptoBenchReport {
        payload_bytes: config.payload_bytes,
        iterations,
        kernel: AesGcm::new(&KEY).kernel(),
        cpu_features: AesGcm::hardware_features()
            .into_iter()
            .filter_map(|(name, detected)| detected.then_some(name))
            .collect(),
        points,
    }
}

/// Declares the E10 table over a finished run.
fn declare(measured: &CryptoBenchReport) -> Report {
    fn mb_per_s(v: Option<f64>) -> Cell {
        v.map_or(Absent, |v| Fixed(v, 1))
    }
    let report = Report::new(
        "crypto",
        "== E10: crypto kernel throughput (wall-clock) ==
(AES-GCM three ways: scalar reference oracle, portable T-table /
 windowed kernel, hardware AES-NI + PCLMULQDQ kernel; same bytes)",
        &measured.points,
        [
            Column::new("op", 8, |p| p.op.into()),
            Column::keyed("reference MB/s", 15, "reference_mb_per_s", |p| {
                mb_per_s(p.reference_mb_per_s)
            }),
            Column::keyed("portable MB/s", 14, "portable_mb_per_s", |p| {
                Fixed(p.portable_mb_per_s, 1)
            }),
            Column::keyed("hardware MB/s", 14, "hardware_mb_per_s", |p| {
                mb_per_s(p.hardware_mb_per_s)
            }),
        ],
    );
    Report {
        // CI greps the kernel line: benchmarking the fallback unnoticed is
        // a failure.
        summary: format!(
            "kernel={} cpu_features={}\npayload: {} KiB x {} iterations",
            measured.kernel.name(),
            measured.cpu_features.join(","),
            measured.payload_bytes >> 10,
            measured.iterations
        ),
        meta: vec![
            ("payload_bytes", measured.payload_bytes.into()),
            ("iterations", measured.iterations.into()),
            ("kernel", measured.kernel.name().into()),
            (
                "cpu_features",
                List(measured.cpu_features.iter().map(|&f| f.into()).collect()),
            ),
        ],
        announce: true,
        ..report
    }
}

/// Runs E10 at the context's size.
pub fn report(ctx: &Ctx) -> Vec<Report> {
    let config = ctx.pick(CryptoBenchConfig::smoke(), CryptoBenchConfig::full());
    vec![declare(&run(config))]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_every_op_and_serialises() {
        let report = run(CryptoBenchConfig {
            payload_bytes: 4 << 10,
            iterations: 1,
        });
        let ops: Vec<&str> = report.points.iter().map(|p| p.op).collect();
        assert_eq!(ops, ["ghash", "seal", "open", "sha256"]);
        let has_hardware = report.kernel == Kernel::Hardware;
        for p in &report.points {
            assert!(
                p.portable_mb_per_s > 0.0,
                "{}: non-positive throughput",
                p.op
            );
            assert_eq!(
                p.hardware_mb_per_s.is_some(),
                has_hardware && p.op != "sha256",
                "{}: hardware column",
                p.op
            );
        }
        let json = declare(&report).to_json();
        assert!(json.contains("\"op\": \"ghash\""));
        assert!(json.contains("\"reference_mb_per_s\""));
        assert!(json.contains(&format!("\"kernel\": \"{}\"", report.kernel.name())));
        assert!(json.ends_with("}\n"));
    }
}
