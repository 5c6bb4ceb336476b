//! Regenerates every figure and quantitative claim of the SecureCloud
//! paper (see DESIGN.md's experiment index and EXPERIMENTS.md for the
//! recorded outputs).
//!
//! Usage: `cargo run --release -p securecloud-bench --bin repro -- [exp] [--smoke] [--jobs N]`
//! where `exp` is one of `fig3`, `cache`, `fig3opt`, `genpack`, `ablation`,
//! `genpack_sweep`, `syscall`, `syscall_window`, `container`, `index`,
//! `orchestration`, `replication`, `crypto`, `messaging`, `cluster`,
//! `slo`, `storage`, `rings`, `streaming`, or `all` (default). `--smoke`
//! runs reduced workloads (CI-sized) with the same code paths. `--jobs N`
//! fans the fig3, replication, messaging, cluster, slo, storage, rings,
//! and streaming sweeps across N worker threads (default: available
//! parallelism; `--jobs 1` forces serial) — results and telemetry are
//! byte-identical for any job count.
//!
//! Every run leaves a telemetry report (Prometheus snapshot, JSONL trace,
//! chrome trace) under `target/telemetry/`; `crypto` additionally writes
//! `target/telemetry/BENCH_crypto.json`, `messaging` writes
//! `target/telemetry/BENCH_messaging.json`, `cluster` writes
//! `target/telemetry/BENCH_cluster.json`, `slo` writes
//! `target/telemetry/BENCH_slo.json` plus the folded critical-path
//! report `target/telemetry/critical_path.txt`, `storage` writes
//! `target/telemetry/BENCH_storage.json`, and `rings` writes
//! `target/telemetry/BENCH_rings.json` plus a switchless-plane rerun of
//! E11 into `target/telemetry/BENCH_messaging.json`, and `streaming`
//! writes `target/telemetry/BENCH_streaming.json`.

use securecloud_bench::{
    cluster_exp, container, cryptobench, fig3, genpack_exp, indexcmp, messaging, orchestration_exp,
    pool, replication, rings, slo, storage, streaming_exp, syscalls,
};
use securecloud_telemetry::Telemetry;
use std::path::Path;

fn main() {
    let mut which = "all".to_string();
    let mut smoke = false;
    let mut jobs = pool::default_jobs();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            smoke = true;
        } else if arg == "--jobs" {
            let value = args.next().unwrap_or_else(|| {
                eprintln!("--jobs requires a worker count");
                std::process::exit(2);
            });
            jobs = value.parse().unwrap_or_else(|_| {
                eprintln!("--jobs: invalid worker count {value:?}");
                std::process::exit(2);
            });
        } else {
            which = arg;
        }
    }
    let jobs = jobs.max(1);
    let all = which == "all";
    let telemetry = Telemetry::new();
    if all || which == "fig3" {
        run_fig3(smoke, jobs, &telemetry);
    }
    if all || which == "cache" {
        run_cache(smoke);
    }
    if all || which == "fig3opt" {
        run_fig3opt(smoke);
    }
    if all || which == "genpack" {
        run_genpack();
    }
    if all || which == "ablation" {
        run_ablation();
    }
    if all || which == "genpack_sweep" {
        run_genpack_sweep();
    }
    if all || which == "syscall_window" {
        run_syscall_window(smoke);
    }
    if all || which == "syscall" {
        run_syscall(smoke);
    }
    if all || which == "container" {
        run_container(smoke);
    }
    if all || which == "index" {
        run_index(smoke);
    }
    if all || which == "orchestration" {
        run_orchestration(smoke);
    }
    if all || which == "replication" {
        run_replication(smoke, jobs);
    }
    if all || which == "crypto" {
        run_crypto(smoke);
    }
    if all || which == "messaging" {
        run_messaging(smoke, jobs, &telemetry);
    }
    if all || which == "cluster" {
        run_cluster(smoke, jobs);
    }
    if all || which == "slo" {
        run_slo(smoke, jobs);
    }
    if all || which == "storage" {
        run_storage(smoke, jobs);
    }
    if all || which == "rings" {
        run_rings(smoke, jobs, &telemetry);
    }
    if all || which == "streaming" {
        run_streaming(smoke, jobs);
    }
    match telemetry.write_report(Path::new("target/telemetry")) {
        Ok(report) => println!(
            "telemetry report: {}, {}, {}",
            report.snapshot.display(),
            report.trace_jsonl.display(),
            report.trace_chrome.display()
        ),
        Err(err) => eprintln!("warning: telemetry report not written: {err}"),
    }
}

fn run_fig3(smoke: bool, jobs: usize, telemetry: &Telemetry) {
    println!("== E1 / Figure 3: effect of memory swapping ==");
    println!("(paper: ratio ~1 below EPC, degradation before the 128 MiB line,");
    println!(" ~18x at a 200 MiB subscription database)\n");
    println!(
        "{:>6} {:>12} {:>13} {:>7} {:>11} {:>11}",
        "DB MiB", "native us/p", "enclave us/p", "ratio", "faults/pub", "visits/pub"
    );
    let (sizes, pubs): (&[u64], usize) = if smoke {
        // Few sizes, but enough publications that the 160 MiB point still
        // pages (too few and the touched set fits the EPC after warm-up).
        (&[8, 64, 128, 160], 20)
    } else {
        (fig3::PAPER_DB_SIZES_MB, 30)
    };
    for point in fig3::sweep_jobs(sizes, pubs, jobs, Some(telemetry)) {
        let marker = if point.db_mb == 128 {
            "  <-- EPC size"
        } else {
            ""
        };
        println!(
            "{:>6} {:>12.1} {:>13.1} {:>6.1}x {:>11} {:>11}{marker}",
            point.db_mb,
            point.native_us,
            point.enclave_us,
            point.ratio,
            point.faults_per_pub,
            point.visits_per_pub
        );
    }
    println!();
}

fn run_cache(smoke: bool) {
    println!("== E2: cache misses vs memory swapping (§V-B) ==");
    println!("(paper: cache misses impose limited overhead; swapping is worse)\n");
    println!(
        "{:<24} {:>6} {:>12} {:>13} {:>7} {:>11} {:>11}",
        "regime", "DB MiB", "native us/p", "enclave us/p", "ratio", "misses/pub", "faults/pub"
    );
    for regime in fig3::cache_vs_swap(if smoke { 30 } else { 200 }) {
        println!(
            "{:<24} {:>6} {:>12.1} {:>13.1} {:>6.1}x {:>11} {:>11}",
            regime.regime,
            regime.db_mb,
            regime.point.native_us,
            regime.point.enclave_us,
            regime.point.ratio,
            regime.point.llc_misses_per_pub,
            regime.point.faults_per_pub
        );
    }
    println!();
}

fn run_fig3opt(smoke: bool) {
    println!("== E8: paging optimisations (paper's future work, quantified) ==");
    println!("(\"we intend to optimise our data structures to avoid paging and");
    println!(" cache misses ... to further decrease the overhead\", 160 MiB DB)\n");
    println!(
        "{:<32} {:>13} {:>7} {:>11}",
        "variant", "enclave us/p", "ratio", "faults/pub"
    );
    for point in fig3::optimisations(160, if smoke { 6 } else { 30 }) {
        println!(
            "{:<32} {:>13.1} {:>6.1}x {:>11}",
            point.variant, point.enclave_us, point.ratio, point.faults_per_pub
        );
    }
    println!();
}

fn run_genpack() {
    println!("== E3: GenPack energy savings (§VI) ==");
    println!("(paper: up to 23% energy savings for typical data-center workloads)\n");
    let comparison = genpack_exp::run(genpack_exp::EnergyExperiment::default());
    println!(
        "{:<10} {:>11} {:>11} {:>11} {:>11} {:>10}",
        "scheduler", "energy kWh", "avg srv on", "migrations", "rejections", "overloads"
    );
    for result in &comparison.results {
        println!(
            "{:<10} {:>11.1} {:>11.1} {:>11} {:>11} {:>10}",
            result.scheduler,
            result.energy_kwh(),
            result.avg_servers_on,
            result.migrations,
            result.rejections,
            result.overload_ticks
        );
    }
    println!(
        "\ngenpack savings: {:.1}% vs first-fit (best baseline), {:.1}% vs spread\n",
        comparison.savings_vs_best_baseline, comparison.savings_vs_spread
    );
}

fn run_ablation() {
    println!("== E3b: GenPack ablation (design-choice isolation) ==\n");
    println!(
        "{:<30} {:>11} {:>11} {:>11}",
        "variant", "energy kWh", "avg srv on", "migrations"
    );
    for entry in genpack_exp::ablation(genpack_exp::EnergyExperiment::default()) {
        println!(
            "{:<30} {:>11.1} {:>11.1} {:>11}",
            entry.variant,
            entry.result.energy_kwh(),
            entry.result.avg_servers_on,
            entry.result.migrations
        );
    }
    println!();
}

fn run_genpack_sweep() {
    println!("== E3c: GenPack savings vs workload churn (\"up to 23%\") ==\n");
    println!(
        "{:>10} {:>12} {:>13} {:>9}",
        "churn/h", "genpack kWh", "first-fit kWh", "savings"
    );
    for point in genpack_exp::churn_sweep(&[40.0, 80.0, 150.0, 250.0, 400.0], 60, 24) {
        println!(
            "{:>10.0} {:>12.1} {:>13.1} {:>8.1}%",
            point.churn_per_hour, point.genpack_kwh, point.baseline_kwh, point.savings_percent
        );
    }
    println!();
}

fn run_syscall_window(smoke: bool) {
    println!("== E4b: async syscall in-flight window (batching ablation) ==");
    println!("(enclave-side cycles are window-independent; the window buys");
    println!(" wall-clock overlap with the host syscall thread)\n");
    println!(
        "{:>8} {:>16} {:>18}",
        "window", "cycles per call", "wall ns per call"
    );
    for point in syscalls::window_sweep(
        &[1, 2, 4, 8, 16, 32, 64],
        if smoke { 2_000 } else { 20_000 },
    ) {
        println!(
            "{:>8} {:>16.0} {:>18.0}",
            point.window, point.cycles_per_call, point.wall_ns_per_call
        );
    }
    println!();
}

fn run_syscall(smoke: bool) {
    println!("== E4: synchronous vs asynchronous shielded syscalls (§IV) ==");
    println!("(paper: SCONE's async interface makes enclave performance acceptable)\n");
    println!(
        "{:>9} {:>12} {:>13} {:>9} {:>13} {:>14}",
        "payload B", "sync cyc", "async cyc", "speedup", "sync Mc/s", "async Mc/s"
    );
    for point in syscalls::sweep(syscalls::PAYLOADS, if smoke { 500 } else { 2_000 }) {
        println!(
            "{:>9} {:>12.0} {:>13.0} {:>8.1}x {:>13.2} {:>14.2}",
            point.payload,
            point.sync_cycles,
            point.async_cycles,
            point.speedup,
            point.sync_mcalls_per_s,
            point.async_mcalls_per_s
        );
    }
    println!();
}

fn run_container(smoke: bool) {
    println!("== E5: secure container build & startup overhead (§V-A) ==\n");
    println!(
        "{:>6} {:>11} {:>12} {:>16} {:>15} {:>14}",
        "FS MiB", "build ms", "image MiB", "secure start ms", "plain start ms", "bootstrap Mcyc"
    );
    let sizes: &[usize] = if smoke { &[8, 32] } else { &[8, 32, 128] };
    for point in container::sweep(sizes) {
        println!(
            "{:>6} {:>11.1} {:>12.1} {:>16.1} {:>15.1} {:>14.1}",
            point.fs_mb,
            point.build_ms,
            point.image_bytes as f64 / (1024.0 * 1024.0),
            point.secure_start_ms,
            point.plain_start_ms,
            point.bootstrap_sim_cycles as f64 / 1e6
        );
    }
    println!();
}

fn run_index(smoke: bool) {
    println!("== E6: containment index vs naive matching (§V-B) ==\n");
    println!(
        "{:>8} {:>12} {:>12} {:>11} {:>11} {:>10} {:>10}",
        "subs", "naive visit", "poset visit", "naive pred", "poset pred", "naive us", "poset us"
    );
    let (sub_counts, pubs): (&[usize], usize) = if smoke {
        (&[1_000, 10_000], 10)
    } else {
        (&[1_000, 10_000, 50_000, 100_000], 30)
    };
    for point in indexcmp::sweep(sub_counts, pubs) {
        println!(
            "{:>8} {:>12} {:>12} {:>11} {:>11} {:>10.1} {:>10.1}",
            point.subs,
            point.naive_visits,
            point.poset_visits,
            point.naive_predicates,
            point.poset_predicates,
            point.naive_us,
            point.poset_us
        );
    }
    let (naive, poset) = indexcmp::containment_heavy_point(50, 50, 10);
    println!("\ncontainment-heavy workload (50 chains x 50 nested ranges, non-matching pubs):");
    println!(
        "  naive visits/pub: {naive}, poset visits/pub: {poset} ({}x fewer)\n",
        naive / poset.max(1)
    );
}

fn run_replication(smoke: bool, jobs: usize) {
    println!("== E9: replicated KV — shards x replication factor ==");
    println!("(sharding splits the working set below the EPC knee; replication");
    println!(" multiplies write work and buys attested failover)\n");
    println!(
        "{:>7} {:>4} {:>3} {:>10} {:>10} {:>11} {:>11} {:>12}",
        "shards", "rf", "w", "put us", "get us", "put kops/s", "faults/get", "failover ms"
    );
    let (shards, replication, workload) = if smoke {
        (
            &[1u32, 4][..],
            &[1u32, 3][..],
            replication::ReplicationWorkload::smoke(),
        )
    } else {
        (
            &[1u32, 2, 4, 8][..],
            &[1u32, 3, 5][..],
            replication::ReplicationWorkload::full(),
        )
    };
    for point in replication::sweep_jobs(shards, replication, &workload, jobs) {
        println!(
            "{:>7} {:>4} {:>3} {:>10.1} {:>10.1} {:>11.1} {:>11.2} {:>12.2}",
            point.shards,
            point.replication_factor,
            point.write_quorum,
            point.put_us,
            point.get_us,
            point.put_kops_s,
            point.faults_per_get,
            point.failover_ms
        );
    }
    let comparison = replication::failover_stream_comparison(&workload);
    println!(
        "\nfailover catch-up stream ({} keys x {} B): whole snapshot {} B,",
        comparison.keys, comparison.value_bytes, comparison.whole_bytes
    );
    println!(
        "incremental manifest {} B ({:.1}x smaller)\n",
        comparison.incremental_bytes,
        comparison.shrink_factor()
    );
}

fn run_storage(smoke: bool, jobs: usize) {
    println!("== E14: tiered encrypted storage — sealed segments beyond EPC ==");
    println!("(in-EPC memtable over sealed log-structured host segments: reads");
    println!(" beyond the EPC pay explicit amortised host I/O instead of paging,");
    println!(" and restart replays only the WAL tail)\n");
    let workload = if smoke {
        storage::StorageWorkload::smoke()
    } else {
        storage::StorageWorkload::full()
    };
    let report = storage::report_jobs(&workload, jobs);
    println!(
        "usable EPC: {} KiB, block {} B, memtable budget {} KiB\n",
        report.usable_epc_bytes >> 10,
        report.config.block_bytes,
        report.config.flush_bytes >> 10
    );
    println!(
        "{:>6} {:>7} {:>7} {:>8} {:>10} {:>8} {:>10} {:>9} {:>5} {:>10} {:>12}",
        "ws/EPC",
        "val B",
        "keys",
        "put us",
        "wr KiB/put",
        "get us",
        "rd KiB/get",
        "flt/get",
        "segs",
        "restart ms",
        "replay/total"
    );
    for point in &report.points {
        println!(
            "{:>5.1}x {:>7} {:>7} {:>8.1} {:>10.3} {:>8.1} {:>10.3} {:>9.3} {:>5} {:>10.3} {:>6}/{}",
            point.epc_ratio,
            point.value_bytes,
            point.keys,
            point.put_us,
            point.host_write_kib_per_put,
            point.get_us,
            point.host_read_kib_per_get,
            point.faults_per_get,
            point.segments,
            point.restart_ms,
            point.wal_replayed,
            point.wal_total
        );
    }
    let path = Path::new("target/telemetry/BENCH_storage.json");
    match report.write_json(path) {
        Ok(()) => println!("\nstorage bench report: {}\n", path.display()),
        Err(err) => eprintln!("\nwarning: storage bench report not written: {err}\n"),
    }
}

fn run_crypto(smoke: bool) {
    println!("== E10: crypto kernel throughput (wall-clock) ==");
    println!("(AES-GCM three ways: scalar reference oracle, portable T-table /");
    println!(" windowed kernel, hardware AES-NI + PCLMULQDQ kernel; same bytes)\n");
    let config = if smoke {
        cryptobench::CryptoBenchConfig::smoke()
    } else {
        cryptobench::CryptoBenchConfig::full()
    };
    let report = cryptobench::run(config);
    // CI greps this line: benchmarking the fallback unnoticed is a failure.
    println!(
        "kernel={} cpu_features={}",
        report.kernel.name(),
        report.cpu_features.join(",")
    );
    println!(
        "payload: {} KiB x {} iterations\n",
        report.payload_bytes >> 10,
        report.iterations
    );
    println!(
        "{:<8} {:>15} {:>14} {:>14}",
        "op", "reference MB/s", "portable MB/s", "hardware MB/s"
    );
    let cell = |mb_per_s: Option<f64>| mb_per_s.map_or("-".to_string(), |v| format!("{v:.1}"));
    for point in &report.points {
        println!(
            "{:<8} {:>15} {:>14.1} {:>14}",
            point.op,
            cell(point.reference_mb_per_s),
            point.portable_mb_per_s,
            cell(point.hardware_mb_per_s)
        );
    }
    let path = Path::new("target/telemetry/BENCH_crypto.json");
    match report.write_json(path) {
        Ok(()) => println!("\ncrypto bench report: {}\n", path.display()),
        Err(err) => eprintln!("\nwarning: crypto bench report not written: {err}\n"),
    }
}

fn run_messaging(smoke: bool, jobs: usize, telemetry: &Telemetry) {
    println!("== E11: batched messaging on the SCBR sealed path ==");
    println!("(one AEAD frame + one ECALL/OCALL pair per batch amortizes the");
    println!(" enclave transition and nonce/GHASH setup across N publications)\n");
    let config = if smoke {
        messaging::MessagingConfig::smoke()
    } else {
        messaging::MessagingConfig::full()
    };
    let report = messaging::sweep_jobs(&config, jobs, Some(telemetry));
    println!("messages per point: {}\n", report.messages);
    println!(
        "{:>6} {:>10} {:>12} {:>9} {:>9}",
        "batch", "payload B", "msgs/s", "p99 us", "speedup"
    );
    for point in &report.points {
        let speedup = report
            .speedup(point.payload_bytes, point.batch)
            .unwrap_or(1.0);
        println!(
            "{:>6} {:>10} {:>12.0} {:>9} {:>8.1}x",
            point.batch, point.payload_bytes, point.msgs_per_s, point.p99_us, speedup
        );
    }
    let path = Path::new("target/telemetry/BENCH_messaging.json");
    match report.write_json(path) {
        Ok(()) => println!("\nmessaging bench report: {}\n", path.display()),
        Err(err) => eprintln!("\nwarning: messaging bench report not written: {err}\n"),
    }
}

fn run_cluster(smoke: bool, jobs: usize) {
    println!("== E12: elastic cluster controller under a seeded fault schedule ==");
    println!("(load ramp forces scale-ups; the schedule kills the replicas they");
    println!(" admit, stalls one, partitions a group — zero acked writes lost,");
    println!(" no epoch rollback, byte-identical decisions at any --jobs)\n");
    let config = if smoke {
        cluster_exp::ClusterConfig::smoke()
    } else {
        cluster_exp::ClusterConfig::full()
    };
    println!(
        "{} tick(s) x {} ms virtual per cell\n",
        config.ticks, config.tick_ms
    );
    println!(
        "{:>10} {:>7} {:>6} {:>6} {:>5} {:>7} {:>6} {:>6} {:>5} {:>9} {:>18}",
        "seed",
        "wr/tick",
        "acked",
        "reject",
        "ups",
        "downs",
        "kills",
        "repl",
        "live",
        "decisions",
        "trace fnv"
    );
    let report = cluster_exp::sweep_jobs(&config, jobs);
    for point in &report.points {
        println!(
            "{:>10x} {:>7} {:>6} {:>6} {:>5} {:>7} {:>6} {:>6} {:>5} {:>9} {:>18x}",
            point.seed,
            point.writes_per_tick,
            point.acked,
            point.rejected,
            point.scale_ups,
            point.scale_downs,
            point.replicas_killed,
            point.replicas_replaced,
            point.final_live,
            point.decisions,
            cluster_exp::trace_fnv(&point.decision_trace)
        );
    }
    let path = Path::new("target/telemetry/BENCH_cluster.json");
    match report.write_json(path) {
        Ok(()) => println!("\ncluster bench report: {}\n", path.display()),
        Err(err) => eprintln!("\nwarning: cluster bench report not written: {err}\n"),
    }
}

fn run_slo(smoke: bool, jobs: usize) {
    println!("== E13: causal tracing, critical path, and SLO burn rates ==");
    println!("(every publish mints a root trace; aborts, a consumer stall, and");
    println!(" a partition draw burn-rate alerts; the critical path attributes");
    println!(" self time per subsystem — byte-identical at any --jobs)\n");
    let config = if smoke {
        slo::SloConfig::smoke()
    } else {
        slo::SloConfig::full()
    };
    println!(
        "{} tick(s) x {} ms virtual per cell\n",
        config.ticks, config.tick_ms
    );
    println!(
        "{:>10} {:>6} {:>6} {:>7} {:>7} {:>9} {:>11} {:>7} {:>9} {:>18}",
        "seed",
        "acked",
        "reject",
        "alerts",
        "restart",
        "subsystem",
        "self ms",
        "traces",
        "decisions",
        "trace fnv"
    );
    // The schedule panics the aggregator on purpose; keep the injected
    // backtraces quiet for the sweep, then restore normal reporting.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = slo::sweep_jobs(&config, jobs);
    std::panic::set_hook(hook);
    for point in &report.points {
        println!(
            "{:>10x} {:>6} {:>6} {:>7} {:>7} {:>9} {:>11} {:>7} {:>9} {:>18x}",
            point.seed,
            point.acked,
            point.rejected,
            point.alerts,
            point.restarts,
            point.subsystems,
            point.total_self_ms,
            point.traces,
            point.decisions,
            point.trace_events_fnv
        );
    }
    if let Some(point) = report.points.first() {
        println!("\ncritical path, seed {:#x}:", point.seed);
        for line in point.critical_path_text.lines() {
            println!("  {line}");
        }
    }
    let json_path = Path::new("target/telemetry/BENCH_slo.json");
    match report.write_json(json_path) {
        Ok(()) => println!("\nslo bench report: {}", json_path.display()),
        Err(err) => eprintln!("\nwarning: slo bench report not written: {err}"),
    }
    let cp_path = Path::new("target/telemetry/critical_path.txt");
    match report.write_critical_path(cp_path) {
        Ok(()) => println!("critical-path report: {}\n", cp_path.display()),
        Err(err) => eprintln!("warning: critical-path report not written: {err}\n"),
    }
}

fn run_rings(smoke: bool, jobs: usize, telemetry: &Telemetry) {
    println!("== E15: switchless syscall rings + in-enclave executor (§IV) ==");
    println!("(submission/completion rings replace the per-call ECALL/OCALL");
    println!(" pair with slot copies; the cooperative executor overlaps tasks");
    println!(" while the host servicer drains the ring without a transition)\n");
    let config = if smoke {
        rings::RingsConfig::smoke()
    } else {
        rings::RingsConfig::full()
    };
    let report = rings::sweep_jobs(&config, jobs, Some(telemetry));
    println!("pwrites per point: {}\n", report.ops);
    println!(
        "{:>6} {:>10} {:>8} {:>10} {:>10} {:>9} {:>11} {:>9} {:>7} {:>9}",
        "depth",
        "payload B",
        "workers",
        "sync c/op",
        "ring c/op",
        "speedup",
        "ring kop/s",
        "trans/op",
        "parks",
        "spurious"
    );
    for point in &report.points {
        println!(
            "{:>6} {:>10} {:>8} {:>10.0} {:>10.0} {:>8.1}x {:>11.1} {:>9.1} {:>7} {:>9}",
            point.depth,
            point.payload_bytes,
            point.workers,
            point.sync_cycles_per_op,
            point.ring_cycles_per_op,
            point.speedup,
            point.ring_kops_per_s,
            point.ring_transitions_per_op,
            point.parks,
            point.spurious_wakes
        );
    }
    let path = Path::new("target/telemetry/BENCH_rings.json");
    match report.write_json(path) {
        Ok(()) => println!("\nrings bench report: {}\n", path.display()),
        Err(err) => eprintln!("\nwarning: rings bench report not written: {err}\n"),
    }

    println!("-- E11 rerun over the switchless plane --");
    println!("(the same messaging sweep with every router match riding the");
    println!(" ring plane: ~0 transitions/msg, no batch-size knee)\n");
    let mconfig = if smoke {
        messaging::MessagingConfig::smoke()
    } else {
        messaging::MessagingConfig::full()
    };
    let mreport = messaging::sweep_jobs_on(&mconfig, jobs, Some(telemetry), true);
    println!(
        "plane: {}, messages per point: {}\n",
        mreport.plane, mreport.messages
    );
    println!(
        "{:>6} {:>10} {:>12} {:>9} {:>9} {:>10}",
        "batch", "payload B", "msgs/s", "p99 us", "speedup", "trans/msg"
    );
    for point in &mreport.points {
        let speedup = mreport
            .speedup(point.payload_bytes, point.batch)
            .unwrap_or(1.0);
        println!(
            "{:>6} {:>10} {:>12.0} {:>9} {:>8.1}x {:>10.3}",
            point.batch,
            point.payload_bytes,
            point.msgs_per_s,
            point.p99_us,
            speedup,
            point.transitions_per_msg
        );
    }
    let mpath = Path::new("target/telemetry/BENCH_messaging.json");
    match mreport.write_json(mpath) {
        Ok(()) => println!(
            "\nmessaging (switchless) bench report: {}\n",
            mpath.display()
        ),
        Err(err) => eprintln!("\nwarning: messaging bench report not written: {err}\n"),
    }
}

fn run_streaming(smoke: bool, jobs: usize) {
    println!("== E16: streaming analytics — window x cardinality x EPC pressure ==");
    println!("(city pipelines over the sealed plane; operator state in the tiered");
    println!(" KV, charged to shrunken enclave geometries — flat cycles/event while");
    println!(" peak state fits the EPC, a knee past it, host I/O past the memtable)\n");
    let workload = if smoke {
        streaming_exp::StreamingWorkload::smoke()
    } else {
        streaming_exp::StreamingWorkload::full()
    };
    let report = streaming_exp::report_jobs(&workload, jobs);
    println!(
        "city: {} meters/feeder, {} s interval, {} s trace\n",
        report.households_per_feeder, report.interval_secs, report.duration_secs
    );
    println!(
        "{:>9} {:>7} {:>8} {:>7} {:>8} {:>9} {:>9} {:>9} {:>8} {:>7} {:>5} {:>18}",
        "window s",
        "meters",
        "EPC KiB",
        "events",
        "kev/s",
        "cyc/ev",
        "flt/kev",
        "KiB/kev",
        "state/E",
        "flag",
        "theft",
        "digest"
    );
    for point in &report.points {
        println!(
            "{:>9} {:>7} {:>8} {:>7} {:>8.1} {:>9.0} {:>9.2} {:>9.3} {:>8.2} {:>7} {:>5} {:>18x}",
            point.window_ms / 1_000,
            point.meters,
            point.usable_epc_kib,
            point.events,
            point.kevents_per_s,
            point.cycles_per_event,
            point.faults_per_kevent,
            point.host_kib_per_kevent,
            point.state_to_epc,
            point.flagged_feeders,
            point.theft_feeders,
            point.results_digest
        );
    }
    let path = Path::new("target/telemetry/BENCH_streaming.json");
    match report.write_json(path) {
        Ok(()) => println!("\nstreaming bench report: {}\n", path.display()),
        Err(err) => eprintln!("\nwarning: streaming bench report not written: {err}\n"),
    }
}

fn run_orchestration(smoke: bool) {
    println!("== E7: anomaly detection within milliseconds (§VI) ==\n");
    let result = orchestration_exp::run(if smoke { 10_000 } else { 60_000 }, 10, 3);
    println!(
        "power-quality faults: {} injected, {} detected, {} missed, {} false positives",
        result.faults_injected, result.faults_detected, result.missed, result.false_positives
    );
    println!(
        "detection latency: mean {:.1} ms, max {:.1} ms (1 kHz sampling)",
        result.mean_latency_ms, result.max_latency_ms
    );
    println!(
        "orchestrator reaction: scaling action emitted after {} bus step(s)\n",
        result.orchestrator_reaction_steps
    );
}
