//! Regenerates every figure and quantitative claim of the SecureCloud
//! paper (see DESIGN.md's experiment index and EXPERIMENTS.md for the
//! recorded outputs).
//!
//! Usage: `cargo run --release -p securecloud-bench --bin repro -- [exp] [--smoke] [--jobs N]`;
//! `repro --help` lists the sub-commands (the registry in
//! `securecloud_bench::EXPERIMENTS`). Every experiment prints its table
//! and writes `target/telemetry/BENCH_<exp>.json`; the run's telemetry
//! report (Prometheus snapshot, JSONL trace, chrome trace) lands beside it.

#![forbid(unsafe_code)]

use securecloud_bench::report::Ctx;
use securecloud_bench::{pool, select, usage};
use securecloud_telemetry::Telemetry;
use std::path::Path;

/// Prints `message` and the usage text to stderr and exits 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n\n{}", usage());
    std::process::exit(2);
}

fn main() {
    let mut which = "all".to_string();
    let mut smoke = false;
    let mut jobs = pool::default_jobs();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" => {
                println!("{}", usage());
                return;
            }
            "--smoke" => smoke = true,
            "--jobs" => {
                let Some(value) = args.next() else {
                    usage_error("--jobs requires a worker count");
                };
                jobs = value.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--jobs: invalid worker count {value:?}"))
                });
            }
            _ => which = arg,
        }
    }
    let Some(experiments) = select(&which) else {
        usage_error(&format!("unknown sub-command {which:?}"));
    };
    let telemetry = Telemetry::new();
    let ctx = Ctx {
        smoke,
        jobs: jobs.max(1),
        telemetry: &telemetry,
    };
    let dir = Path::new("target/telemetry");
    for (_, run) in experiments {
        for report in run(&ctx) {
            report.emit(dir);
        }
    }
    match telemetry.write_report(dir) {
        Ok(report) => println!(
            "telemetry report: {}, {}, {}",
            report.snapshot.display(),
            report.trace_jsonl.display(),
            report.trace_chrome.display()
        ),
        Err(err) => eprintln!("warning: telemetry report not written: {err}"),
    }
}
