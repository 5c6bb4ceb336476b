//! The parallel sweep contract: fanning sweep points across worker threads
//! changes wall-clock time and nothing else. Equal-seed runs must produce
//! byte-identical point vectors *and* byte-identical telemetry exports for
//! any `--jobs` value.

use securecloud_bench::report::{Ctx, Report};
use securecloud_bench::{cluster_exp, fig3, messaging, replication, slo, syscalls};
use securecloud_telemetry::Telemetry;

/// Tiny Figure 3 sweep (debug-build sized): serial and 4-way parallel runs
/// must agree on every point and on both telemetry exports.
#[test]
fn fig3_sweep_is_identical_across_job_counts() {
    let sizes: &[u64] = &[1, 2, 3];
    let pubs = 2;

    let run = |jobs: usize| {
        let telemetry = Telemetry::new();
        let points = fig3::sweep(sizes, pubs, jobs, Some(&telemetry));
        (points, telemetry.prometheus(), telemetry.trace_jsonl())
    };

    let (serial_points, serial_prom, serial_trace) = run(1);
    let (parallel_points, parallel_prom, parallel_trace) = run(4);

    assert_eq!(serial_points, parallel_points, "point vectors diverge");
    assert_eq!(serial_prom, parallel_prom, "metrics snapshots diverge");
    assert_eq!(serial_trace, parallel_trace, "trace exports diverge");
    assert_eq!(serial_points.len(), sizes.len());
    assert!(
        !serial_trace.is_empty(),
        "instrumented sweep must leave trace events"
    );
}

/// The uninstrumented fig3 path takes the same pool code; points must still
/// match across job counts.
#[test]
fn fig3_sweep_without_telemetry_is_identical_across_job_counts() {
    let serial = fig3::sweep(&[1, 2], 2, 1, None);
    let parallel = fig3::sweep(&[1, 2], 2, 3, None);
    assert_eq!(serial, parallel);
}

/// Messaging sweep (E11): serial and parallel runs must agree point-for-
/// point and leave byte-identical telemetry (the latency histograms are
/// absorbed into the shared bundle in point order, not completion order).
#[test]
fn messaging_sweep_is_identical_across_job_counts() {
    let config = messaging::MessagingConfig {
        batch_sizes: vec![1, 8],
        payload_bytes: vec![64, 256],
        messages: 32,
    };

    let run = |jobs: usize| {
        let telemetry = Telemetry::new();
        let report = messaging::sweep(&config, jobs, Some(&telemetry), false);
        (report, telemetry.prometheus(), telemetry.trace_jsonl())
    };

    let (serial_report, serial_prom, serial_trace) = run(1);
    let (parallel_report, parallel_prom, parallel_trace) = run(4);

    assert_eq!(serial_report, parallel_report, "reports diverge");
    assert_eq!(serial_prom, parallel_prom, "metrics snapshots diverge");
    assert_eq!(serial_trace, parallel_trace, "trace exports diverge");
    assert_eq!(serial_report.points.len(), 4);
    assert!(
        serial_prom.contains("securecloud_bench_messaging_publish_us"),
        "latency histogram missing from snapshot"
    );
}

/// E12 chaos cells: the controller's decision trace is a pure function of
/// (seed, policy, virtual clock), so serial and parallel runs must agree
/// on every point — the full decision trace bytes included, not just the
/// scalar outcomes.
#[test]
fn cluster_decision_traces_are_identical_across_job_counts() {
    let config = cluster_exp::ClusterConfig {
        seeds: vec![0xE1A5_0001, 0x5EED_0002],
        writes_per_tick: vec![4],
        ticks: 30,
        tick_ms: 250,
        overload_ticks: 9,
    };

    let serial = cluster_exp::sweep(&config, 1);
    let parallel = cluster_exp::sweep(&config, 4);

    assert_eq!(serial, parallel, "cluster chaos cells diverge across jobs");
    assert_eq!(serial.points.len(), 2);
    for (first, second) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(
            first.decision_trace, second.decision_trace,
            "seed {:#x}: decision trace bytes diverge",
            first.seed
        );
        assert!(!first.decision_trace.is_empty());
    }
    // Different seeds jitter the schedule differently, so their traces
    // must differ — equal traces would mean the seed is ignored.
    assert_ne!(
        serial.points[0].decision_trace,
        serial.points[1].decision_trace
    );
}

/// E13 traced cells: causal ids are minted from (seed, minting order)
/// alone, so the critical-path report and alert-stream *bytes* must be
/// identical at any job count — and differ across seeds (equal reports
/// would mean the seed never reached the minter or the schedule).
#[test]
fn slo_traces_and_reports_are_identical_across_job_counts() {
    let config = slo::SloConfig {
        seeds: vec![0x510_0001, 0x510_0002],
        ..slo::SloConfig::full()
    };

    let serial = slo::sweep(&config, 1);
    let two_way = slo::sweep(&config, 2);
    let eight_way = slo::sweep(&config, 8);

    assert_eq!(serial, two_way, "slo cells diverge between 1 and 2 jobs");
    assert_eq!(serial, eight_way, "slo cells diverge between 1 and 8 jobs");
    assert_eq!(serial.points.len(), 2);
    for point in &serial.points {
        assert!(!point.critical_path_text.is_empty());
        assert!(!point.alert_stream.is_empty());
        assert!(point.subsystems >= 4);
    }
    // Different seeds jitter the schedule and reseed the id minter, so
    // both determinism artifacts must differ across seeds.
    assert_ne!(
        serial.points[0].critical_path_text,
        serial.points[1].critical_path_text
    );
    assert_ne!(
        serial.points[0].decision_trace,
        serial.points[1].decision_trace
    );
    // The raw trace-event digest covers every minted causal id, so it is
    // seed-distinct even when the aggregate renders happen to coincide.
    assert_ne!(
        serial.points[0].trace_events_fnv,
        serial.points[1].trace_events_fnv
    );
}

/// Replication grid: serial and parallel runs must agree cell-for-cell, in
/// the serial sweep's row-major order.
#[test]
fn replication_grid_is_identical_across_job_counts() {
    let mut workload = replication::ReplicationWorkload::smoke();
    workload.keys = 128;
    workload.value_bytes = 256;

    let serial = replication::sweep(&[1, 2], &[1, 3], &workload, 1);
    let parallel = replication::sweep(&[1, 2], &[1, 3], &workload, 4);

    assert_eq!(serial, parallel);
    assert_eq!(serial.len(), 4);
    let expected_order: Vec<(u32, u32)> = vec![(1, 1), (1, 3), (2, 1), (2, 3)];
    let order: Vec<(u32, u32)> = serial
        .iter()
        .map(|p| (p.shards, p.replication_factor))
        .collect();
    assert_eq!(order, expected_order, "row-major order must be preserved");
}

/// E4 smoke report (`repro -- syscall --smoke`): both columns charge
/// enclave cycles from the cost model alone, the async one over
/// `Shield::switchless` with its host side serviced at park points. So the
/// report is byte-identical across runs and job counts, which is what lets
/// CI `cmp` the committed `BENCH_syscall.json`.
#[test]
fn syscall_smoke_report_is_identical_across_runs_and_job_counts() {
    let render = |jobs: usize| {
        let telemetry = Telemetry::new();
        let ctx = Ctx {
            smoke: true,
            jobs,
            telemetry: &telemetry,
        };
        let reports = syscalls::report(&ctx);
        let json: Vec<String> = reports.iter().map(Report::to_json).collect();
        (json, telemetry.prometheus(), telemetry.trace_jsonl())
    };
    let first = render(1);
    assert_eq!(first, render(1), "two runs at --jobs 1 diverge");
    assert_eq!(first, render(4), "--jobs 1 and --jobs 4 diverge");
    assert_eq!(first.0.len(), 1);
    assert_eq!(
        first.0[0].matches("\"payload_b\"").count(),
        6,
        "one row per payload"
    );
}
