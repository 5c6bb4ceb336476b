//! E5: secure-container overhead — image build (FS encryption + protection
//! file) and startup (attestation + SCF provisioning + shielded mount)
//! versus a plain container (§V-A workflow).
//!
//! Build and startup are crypto-bound real work, so this experiment
//! reports **wall-clock** time alongside the startup's simulated enclave
//! cycles.

use securecloud::containers::build::SecureImageBuilder;
use securecloud::SecureCloud;
use std::time::Instant;

use crate::report::Cell::Fixed;
use crate::report::{Column, Ctx, Report};

/// Result of one image-size point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContainerPoint {
    /// Protected file-system size in MiB.
    pub fs_mb: usize,
    /// Secure image build wall-clock, milliseconds.
    pub build_ms: f64,
    /// Published image size, bytes.
    pub image_bytes: u64,
    /// Secure container start wall-clock, milliseconds (attestation + SCF
    /// + mount).
    pub secure_start_ms: f64,
    /// Plain container start wall-clock, milliseconds.
    pub plain_start_ms: f64,
    /// Simulated enclave cycles consumed by the secure bootstrap.
    pub bootstrap_sim_cycles: u64,
}

/// Builds, deploys, and starts one secure image of `fs_mb` MiB of
/// protected data (plus a plain twin for comparison).
#[must_use]
pub fn run_point(fs_mb: usize) -> ContainerPoint {
    let mut cloud = SecureCloud::new();
    let payload: Vec<u8> = (0..fs_mb * 1024 * 1024).map(|i| (i % 251) as u8).collect();

    let t0 = Instant::now();
    let built = SecureImageBuilder::new("bench", "v1", b"bench binary")
        .protect_file("/data/blob", &payload)
        .build()
        .expect("build");
    let build_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let image_bytes = built.image.size();
    let image = cloud.deploy_image(built);

    let t1 = Instant::now();
    let container = cloud.run_container(image).expect("secure start");
    let secure_start_ms = t1.elapsed().as_secs_f64() * 1000.0;
    let bootstrap_sim_cycles = cloud
        .with_runtime(container, |rt| rt.enclave_mut().memory().cycles())
        .expect("secure container");

    // Plain twin: byte-identical image content (same chunk files), but not
    // marked secure — no enclave, no attestation, no SCF, no mount. The
    // start-time delta is therefore exactly the secure-bootstrap protocol.
    let mut plain = cloud.registry().pull(image).expect("image just deployed");
    plain.name = "bench-plain".to_string();
    plain.secure = false;
    let plain_id = cloud.registry().push(plain);
    let t2 = Instant::now();
    cloud.run_container(plain_id).expect("plain start");
    let plain_start_ms = t2.elapsed().as_secs_f64() * 1000.0;

    ContainerPoint {
        fs_mb,
        build_ms,
        image_bytes,
        secure_start_ms,
        plain_start_ms,
        bootstrap_sim_cycles,
    }
}

/// Sweep over protected-FS sizes.
#[must_use]
pub fn sweep(fs_sizes_mb: &[usize]) -> Vec<ContainerPoint> {
    fs_sizes_mb.iter().map(|&mb| run_point(mb)).collect()
}

/// The E5 table.
pub fn report(ctx: &Ctx) -> Vec<Report> {
    let points = sweep(ctx.pick(&[8, 32], &[8, 32, 128]));
    vec![Report::new(
        "container",
        "== E5: secure container build & startup overhead (§V-A) ==",
        &points,
        [
            Column::new("FS MiB", 6, |p| p.fs_mb.into()),
            Column::new("build ms", 11, |p| Fixed(p.build_ms, 1)),
            Column::new("image MiB", 12, |p| {
                Fixed(p.image_bytes as f64 / (1024.0 * 1024.0), 1)
            }),
            Column::new("secure start ms", 16, |p| Fixed(p.secure_start_ms, 1)),
            Column::new("plain start ms", 15, |p| Fixed(p.plain_start_ms, 1)),
            Column::new("bootstrap Mcyc", 14, |p| {
                Fixed(p.bootstrap_sim_cycles as f64 / 1e6, 1)
            }),
        ],
    )]
}
