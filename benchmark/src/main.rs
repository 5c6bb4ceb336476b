//! The repository benchmark: four fixed-work workloads on two clocks.
//!
//! ```text
//! benchmark --workload <name|all> [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! A run is one discarded warm-up pass (which checks the results against an
//! oracle) and then measured passes of identical, deterministic work. Host
//! wall-clock metrics report the best pass; simulated-clock metrics must be
//! identical in every pass. `--trace 1` runs traced passes beside untraced
//! ones and reports the per-layer breakdown instead. The last line of
//! standard output is one JSON object with the metrics. See `README.md`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

mod host;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use stats::{best, median, op_floor, pass_times, Better, PassTimes};
use workloads::city_stream::HANDLE_SPANS;
use workloads::{Mode, Pass};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// A pass is sized to take about this long on the reference host, so
/// `--seconds` fixes the number of measured passes ahead of the run: pass
/// counts never depend on how fast the run happens to go.
const NOMINAL_PASS_SECONDS: u64 = 2;
const DEFAULT_SEED: u64 = 11;
const DEFAULT_SECONDS: u64 = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or \"all\", not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: benchmark --workload <name|all> [--seed N] [--seconds N] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let ok = if args.workload == "all" {
        run_all(&args)
    } else if args.trace {
        traced_run(&args)
    } else {
        untraced_run(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child process per workload, so each reports its own peak memory.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    WORKLOADS.iter().fold(true, |ok, workload| {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("child benchmark process starts");
        ok && status.success()
    })
}

fn measured_passes(seconds: u64) -> usize {
    (seconds / NOMINAL_PASS_SECONDS).clamp(3, 20) as usize
}

/// What every pass of a run must agree on: the simulated clock and the
/// results are functions of the seed alone.
fn exact(pass: &Pass) -> (u64, workloads::Sim, u64) {
    (pass.digest, pass.sim, pass.units)
}

struct Run {
    passes: Vec<Pass>,
    times: Vec<PassTimes>,
    failed: u64,
    attempted: u64,
    /// Every pass agreed on digest, work units and simulated counters.
    exact: bool,
    report: String,
}

impl Run {
    fn begin(args: &Args, what: &str) -> Self {
        let mut report = String::new();
        let _ = writeln!(
            report,
            "# securecloud benchmark: workload {} seed {} ({what})",
            args.workload, args.seed
        );
        let _ = writeln!(
            report,
            "# host: {} loadavg {}",
            host::fingerprint(),
            host::load_average()
        );
        Run {
            passes: Vec::new(),
            times: Vec::new(),
            failed: 0,
            attempted: 0,
            exact: true,
            report,
        }
    }

    /// Runs one pass; measured passes are kept, the warm-up only checked.
    fn pass(&mut self, args: &Args, mode: Mode) -> Pass {
        if mode == Mode::Traced {
            trace::start();
        }
        let pass = workloads::pass(&args.workload, args.seed, mode);
        self.attempted += pass.op_ns.len() as u64;
        self.failed += pass.failed;
        for note in &pass.notes {
            let _ = writeln!(self.report, "# {note}");
        }
        if let Some(first) = self.passes.first() {
            if exact(first) != exact(&pass) {
                self.exact = false;
                let _ = writeln!(
                    self.report,
                    "# FAILED: a pass differs from the first: {:?} != {:?}",
                    exact(&pass),
                    exact(first)
                );
            }
        }
        pass
    }

    fn keep(&mut self, pass: Pass) {
        self.times.push(pass_times(pass.units, &pass.op_ns));
        self.passes.push(pass);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.exact
    }

    /// Wall-clock figures over the per-op floor of the measured passes.
    fn floor(&self) -> PassTimes {
        let ops: Vec<&[u64]> = self.passes.iter().map(|p| &p.op_ns[..]).collect();
        pass_times(self.passes[0].units, &op_floor(&ops))
    }

    /// Prints the report, then the result object as the last line.
    fn finish(mut self, metrics: &[(&'static str, &'static str, f64)]) -> bool {
        let _ = writeln!(
            self.report,
            "# timed ops attempted {} failed {} | loadavg {}",
            self.attempted,
            self.failed,
            host::load_average()
        );
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit, value)) in metrics.iter().enumerate() {
            let _ = write!(
                json,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i > 0 { ", " } else { "" }
            );
        }
        json.push_str("}}");
        print!("{}", self.report);
        println!("{json}");
        self.correct()
    }
}

/// Columns: metric, unit, value, then free text.
fn row(report: &mut String, name: &str, unit: &str, value: f64, rest: &str) {
    let _ = writeln!(report, "{name:<42} {unit:<12} {value:>16.4} {rest}");
}

fn untraced_run(args: &Args) -> bool {
    let n = measured_passes(args.seconds);
    let mut run = Run::begin(args, "untraced run: end-to-end metrics");
    run.pass(args, Mode::WarmUp);
    for _ in 0..n {
        let pass = run.pass(args, Mode::Timed);
        run.keep(pass);
    }
    let first = &run.passes[0];
    let _ = writeln!(
        run.report,
        "# 1 warm-up pass (oracle) + {n} measured passes of {} timed ops, {} work units each; digest {:016x}",
        first.op_ns.len(),
        first.units,
        first.digest
    );

    let floor = run.floor();
    let column = |pick: fn(&PassTimes) -> f64| run.times.iter().map(pick).collect::<Vec<f64>>();
    let setup: Vec<f64> = run.passes.iter().map(|p| p.setup_ns as f64 / 1e9).collect();
    let sim = first.sim;
    let units = first.units as f64;
    // (metric, value over the per-op floor, the same figure pass by pass)
    let wall: [(&str, f64, Vec<f64>); 5] = [
        ("ops_per_s", floor.ops_per_s, column(|t| t.ops_per_s)),
        ("op_p50_us", floor.op_p50_us, column(|t| t.op_p50_us)),
        ("op_p95_us", floor.op_p95_us, column(|t| t.op_p95_us)),
        ("stall_ms", floor.stall_ms, column(|t| t.stall_ms)),
        ("setup_s", best(&setup, Better::Lower), setup.clone()),
    ];
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "{:<42} {:<12} {:>16} of the {n} passes: best whole pass; median pass",
        "metric", "unit", "value"
    );
    for (name, value, per_pass) in &wall {
        let spec = END_TO_END
            .iter()
            .find(|m| m.name == *name)
            .expect("declared");
        values.insert(name, *value);
        row(
            &mut report,
            name,
            spec.unit,
            *value,
            &format!(
                "best pass {:.4} median pass {:.4} ({} is better, bound {})",
                best(per_pass, spec.better),
                median(per_pass),
                spec.better.as_str(),
                spec.bound
            ),
        );
    }
    values.insert(
        "peak_rss_mib",
        host::peak_rss_mib().expect("/proc/self/status has VmHWM"),
    );
    row(
        &mut report,
        "peak_rss_mib",
        "MiB",
        values["peak_rss_mib"],
        "VmHWM of this process",
    );
    values.insert("sim_cycles_per_op", sim.cycles as f64 / units);
    let exact = if run.exact {
        "identical in every pass"
    } else {
        "PASSES DISAGREE"
    };
    row(
        &mut report,
        "sim_cycles_per_op",
        "cycles/unit",
        values["sim_cycles_per_op"],
        exact,
    );
    row(
        &mut report,
        "info.sim_epc_faults_per_kop",
        "1/kunit",
        sim.epc_faults as f64 / units * 1e3,
        exact,
    );
    row(
        &mut report,
        "info.sim_host_bytes_per_op",
        "B/unit",
        sim.host_bytes as f64 / units,
        exact,
    );
    row(
        &mut report,
        "info.p95_samples_beyond",
        "count",
        stats::samples_beyond(first.op_ns.len(), 95.0) as f64,
        "ops slower than op_p95_us",
    );
    let same_stall = run
        .times
        .iter()
        .filter(|t| t.stall_op == floor.stall_op)
        .count();
    row(
        &mut report,
        "info.stall_op_index",
        "index",
        floor.stall_op as f64,
        &format!("also the longest op of {same_stall} of the {n} passes"),
    );
    let busy_s = column(|t| t.busy_s);
    row(
        &mut report,
        "info.pass_spread",
        "ratio",
        median(&busy_s) / best(&busy_s, Better::Lower),
        "median pass time / best pass time",
    );
    let allocs_equal = run.passes.iter().all(|p| p.allocs == first.allocs);
    row(
        &mut report,
        "info.allocs_per_op",
        "1/unit",
        first.allocs.0 as f64 / units,
        if allocs_equal {
            "identical in every pass"
        } else {
            "passes disagree"
        },
    );
    run.report.push_str(&report);

    let metrics: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, values[m.name]))
        .collect();
    run.finish(&metrics)
}

/// Fills the metrics that come from the spans of the timed ops: time per op
/// by layer boundary, self-time share by layer, and how much of the op time
/// the spans account for. Returns the summed op time, nanoseconds.
fn span_metrics(
    values: &mut BTreeMap<&'static str, f64>,
    totals: &BTreeMap<&'static str, trace::NameTotal>,
    ops: f64,
) -> f64 {
    let op_ns = totals.get("harness.op").map_or(1, |t| t.total_ns.max(1)) as f64;
    let us_per_op = |ns: u64| ns as f64 / 1e3 / ops;
    let total = |name: &str| trace::sum_prefix(totals, name, |t| t.total_ns);
    let self_time = |name: &str| trace::sum_prefix(totals, name, |t| t.self_ns);
    for (metric, span) in [
        ("scbr.seal_us_per_op", "scbr.seal"),
        ("scbr.route_us_per_op", "scbr.route"),
        ("scbr.open_us_per_op", "scbr.open"),
        ("eventbus.publish_us_per_op", "eventbus.publish"),
        ("eventbus.collect_us_per_op", "eventbus.collect"),
        ("streaming.handle_us_per_op", "streaming.handle."),
        ("streaming.handle_us_per_op.meter-usage", HANDLE_SPANS[0]),
        (
            "streaming.handle_us_per_op.feeder-reported",
            HANDLE_SPANS[1],
        ),
        ("streaming.handle_us_per_op.feeder-actual", HANDLE_SPANS[2]),
        ("streaming.handle_us_per_op.loss-join", HANDLE_SPANS[3]),
        ("streaming.handle_us_per_op.quality-rollup", HANDLE_SPANS[4]),
    ] {
        values.insert(metric, us_per_op(total(span)));
    }
    // The pump's own time: its span minus the handlers it called.
    values.insert(
        "eventbus.deliver_self_us_per_op",
        us_per_op(self_time("eventbus.deliver")),
    );
    for (metric, layer) in [
        ("scbr.self_time_pct", "scbr."),
        ("eventbus.self_time_pct", "eventbus."),
        ("streaming.self_time_pct", "streaming."),
        ("kvstore.self_time_pct", "kvstore."),
        ("harness.self_time_pct", "harness."),
    ] {
        values.insert(metric, 100.0 * self_time(layer) as f64 / op_ns);
    }
    values.insert(
        "harness.span_coverage",
        1.0 - self_time("harness.op") as f64 / op_ns,
    );
    op_ns
}

fn traced_run(args: &Args) -> bool {
    let n = (measured_passes(args.seconds) / 3).max(2);
    let mut run = Run::begin(args, "traced run: per-layer metrics");
    run.pass(args, Mode::WarmUp);
    // Untraced and traced passes alternate, so drift of the host hits both.
    let mut traced: Vec<(Pass, Vec<trace::Span>)> = Vec::new();
    for _ in 0..n {
        let pass = run.pass(args, Mode::Timed);
        run.keep(pass);
        let pass = run.pass(args, Mode::Traced);
        traced.push((pass, trace::finish()));
    }
    let traced_floor = {
        let ops: Vec<&[u64]> = traced.iter().map(|(p, _)| &p.op_ns[..]).collect();
        pass_times(traced[0].0.units, &op_floor(&ops))
    };
    let busy = |p: &Pass| p.op_ns.iter().sum::<u64>();
    let (pass, spans) = traced
        .into_iter()
        .min_by_key(|(p, _)| busy(p))
        .expect("at least two traced passes");
    let ops = pass.op_ns.len() as f64;
    let units = pass.units as f64;
    let _ = writeln!(
        run.report,
        "# 1 warm-up pass (oracle) + {n} untraced and {n} traced passes of {} timed ops, {} work units each; {} spans in the best traced pass",
        pass.op_ns.len(),
        pass.units,
        spans.len()
    );

    let mut values: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    values.extend(pass.counts.iter().map(|(k, v)| (*k, *v)));

    // Host time by span: totals over the timed ops and over set-up apart.
    let (in_ops, set_up): (Vec<trace::Span>, Vec<trace::Span>) =
        spans.iter().partition(|s| s.op != trace::NO_OP);
    let totals = trace::totals(&in_ops);
    let op_ns = span_metrics(&mut values, &totals, ops);
    let generate: u64 = set_up
        .iter()
        .filter(|s| s.name == "smartgrid.generate")
        .map(trace::Span::dur_ns)
        .sum();
    values.insert(
        "smartgrid.generate_us_per_event",
        generate as f64 / 1e3 / units,
    );

    // The same passes, traced and not: the difference is what tracing costs.
    let untraced = run.floor().ops_per_s;
    values.insert("harness.untraced_ops_per_s", untraced);
    values.insert("harness.traced_ops_per_s", traced_floor.ops_per_s);
    values.insert(
        "harness.trace_overhead_pct",
        100.0 * (untraced / traced_floor.ops_per_s - 1.0),
    );
    let busy_s: Vec<f64> = run.times.iter().map(|t| t.busy_s).collect();
    values.insert(
        "harness.pass_spread",
        median(&busy_s) / best(&busy_s, Better::Lower),
    );
    let untraced = &run.passes[0];
    values.insert("harness.allocs_per_op", untraced.allocs.0 as f64 / units);
    values.insert(
        "harness.alloc_bytes_per_op",
        untraced.allocs.1 as f64 / units,
    );
    values.insert("harness.ops_per_pass", ops);
    values.insert("harness.units_per_pass", units);
    values.insert("harness.spans_per_pass", spans.len() as f64);
    values.insert(
        "sgx.setup_cycles_pct",
        100.0 * pass.setup_cycles as f64 / pass.sim.cycles as f64,
    );

    // Layers the harness cannot reach from outside: replay probes.
    probes::crypto(&mut values);
    probes::sgx(&mut values);
    match args.workload.as_str() {
        "city_stream" => {
            probes::streaming(&mut values);
            probes::storage(&mut values, &workloads::city_stream::storage_shape());
        }
        "kv_mixed" => {
            for (metric, span) in [
                ("kvstore.get_us", "kvstore.get"),
                ("kvstore.put_us", "kvstore.put"),
                ("kvstore.scan_us", "kvstore.scan"),
            ] {
                let t = totals.get(span).copied().unwrap_or_default();
                values.insert(metric, t.total_ns as f64 / 1e3 / t.count.max(1) as f64);
            }
            probes::storage(&mut values, &workloads::kv_mixed::storage_shape());
        }
        _ => {}
    }

    if let Err(e) = write_trace(&args.workload, &spans) {
        run.failed += 1;
        let _ = writeln!(run.report, "# FAILED: trace file not written: {e}");
    }

    let mut report = String::new();
    let _ = writeln!(report, "{:<42} {:<12} {:>16}", "metric", "unit", "value");
    for m in &PER_LAYER {
        row(
            &mut report,
            m.name,
            m.unit,
            values[m.name],
            m.better.as_str(),
        );
    }
    let _ = writeln!(
        report,
        "# host time by span, timed ops of the best traced pass:"
    );
    for (name, t) in &totals {
        let _ = writeln!(
            report,
            "#   {name:<40} calls {:>8} total {:>10.3} ms self {:>10.3} ms ({:>5.1} % of op time)",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / op_ns
        );
    }
    run.report.push_str(&report);
    assert_eq!(values.len(), PER_LAYER.len(), "only declared metrics");

    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, values[m.name]))
        .collect();
    run.finish(&metrics)
}

/// Timed ops whose spans go into the trace file: enough to see the shape of
/// an op, few enough that a viewer opens the file (a whole `msg_relay` pass
/// is 400 000 spans). The totals over every op are in the report.
const TRACE_FILE_OPS: u32 = 64;

/// Writes the set-up and the first [`TRACE_FILE_OPS`] ops of the best
/// traced pass as `out/trace_<workload>.json` beside this crate's manifest.
fn write_trace(workload: &str, spans: &[trace::Span]) -> std::io::Result<()> {
    let spans: Vec<trace::Span> = spans
        .iter()
        .filter(|s| s.op == trace::NO_OP || s.op < TRACE_FILE_OPS)
        .copied()
        .collect();
    let dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    let dir = std::path::Path::new(&dir).join("out");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("trace_{workload}.json")),
        trace::chrome_trace(&spans),
    )
}
