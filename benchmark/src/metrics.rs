//! The metric and workload names this benchmark emits. `BENCHMARK.json` at
//! the repository root declares the same names; a test keeps the two equal.

use crate::stats::Better::{self, Higher, Lower};

/// The four workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["city_stream", "msg_relay", "kv_mixed", "scbr_match"];

/// One end-to-end metric: name, unit, better direction, allowed worsening.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the system would see. The four op-time metrics are taken
/// over the per-op floor of the run, `setup_s` from its fastest set-up;
/// `sim_cycles_per_op` is exact (identical in every pass of a run and in
/// every run of a seed). Each bound is about three times the widest
/// run-to-run spread the noise study saw for the metric on any workload, or more.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("ops_per_s", "unit/s", Higher, 0.15),
    e2e("op_p50_us", "us", Lower, 0.15),
    e2e("op_p95_us", "us", Lower, 0.20),
    e2e("stall_ms", "ms", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.05),
    e2e("sim_cycles_per_op", "cycles/unit", Lower, 0.05),
];

/// One per-layer metric: name (`<crate>.<what>`), unit, better direction.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics of the traced run. `us/op` is per timed op (these sum
/// towards the mean op latency); `1/unit`, `cycles/unit` and `B/unit` are
/// per work unit; `1/kunit` per thousand work units. A metric reads 0 on a
/// workload that never calls the layer.
pub const PER_LAYER: [PerLayer; 78] = [
    layer("crypto.seal_mb_per_s_4k", "MB/s", Higher),
    layer("crypto.open_mb_per_s_4k", "MB/s", Higher),
    layer("crypto.seal_mb_per_s_25k", "MB/s", Higher),
    layer("crypto.open_mb_per_s_25k", "MB/s", Higher),
    layer("crypto.small_seal_ns", "ns", Lower),
    layer("scbr.seal_us_per_op", "us/op", Lower),
    layer("scbr.route_us_per_op", "us/op", Lower),
    layer("scbr.open_us_per_op", "us/op", Lower),
    layer("scbr.self_time_pct", "%", Lower),
    layer("scbr.nodes_visited_per_pub", "1/pub", Lower),
    layer("scbr.predicates_per_pub", "1/pub", Lower),
    layer("scbr.matches_per_pub", "1/pub", Higher),
    layer("scbr.frames_per_op", "1/op", Lower),
    layer("scbr.router_cycles_per_op", "cycles/unit", Lower),
    layer("eventbus.publish_us_per_op", "us/op", Lower),
    layer("eventbus.deliver_self_us_per_op", "us/op", Lower),
    layer("eventbus.collect_us_per_op", "us/op", Lower),
    layer("eventbus.self_time_pct", "%", Lower),
    layer("eventbus.published_per_op", "1/unit", Lower),
    layer("eventbus.delivered_per_op", "1/unit", Lower),
    layer("eventbus.redelivered", "count", Lower),
    layer("eventbus.wasted_fetches", "count", Lower),
    layer("eventbus.backpressured", "count", Lower),
    layer("eventbus.dead_lettered", "count", Lower),
    layer("streaming.handle_us_per_op", "us/op", Lower),
    layer("streaming.handle_us_per_op.meter-usage", "us/op", Lower),
    layer("streaming.handle_us_per_op.feeder-reported", "us/op", Lower),
    layer("streaming.handle_us_per_op.feeder-actual", "us/op", Lower),
    layer("streaming.handle_us_per_op.loss-join", "us/op", Lower),
    layer("streaming.handle_us_per_op.quality-rollup", "us/op", Lower),
    layer("streaming.self_time_pct", "%", Lower),
    layer("streaming.observe_us", "us", Lower),
    layer("streaming.drain_us_per_result", "us", Lower),
    layer("streaming.events_per_op", "1/unit", Lower),
    layer("streaming.results_per_op", "1/unit", Lower),
    layer("streaming.late_dropped", "count", Lower),
    layer("streaming.malformed", "count", Lower),
    layer("streaming.peak_state_kib", "KiB", Lower),
    layer("streaming.operator_cycles_per_op", "cycles/unit", Lower),
    layer("kvstore.get_us", "us", Lower),
    layer("kvstore.put_us", "us", Lower),
    layer("kvstore.scan_us", "us", Lower),
    layer("kvstore.self_time_pct", "%", Lower),
    layer("kvstore.gets_per_op", "1/unit", Lower),
    layer("kvstore.puts_per_op", "1/unit", Lower),
    layer("kvstore.deletes_per_op", "1/unit", Lower),
    layer("kvstore.scanned_per_op", "1/unit", Lower),
    layer("storage.append_us", "us", Lower),
    layer("storage.flush_us_per_kib", "us/KiB", Lower),
    layer("storage.lookup_us", "us", Lower),
    layer("storage.wal_appends_per_op", "1/unit", Lower),
    layer("storage.flushes", "count", Lower),
    layer("storage.compactions", "count", Lower),
    layer("storage.blocks_read_per_kop", "1/kunit", Lower),
    layer("storage.blocks_written_per_kop", "1/kunit", Lower),
    layer("storage.block_cache_hit_ratio", "ratio", Higher),
    layer("storage.write_amp", "ratio", Lower),
    layer("storage.space_amp", "ratio", Lower),
    layer("sgx.touch_ns", "ns", Lower),
    layer("sgx.line_accesses_per_op", "1/unit", Lower),
    layer("sgx.llc_misses_per_op", "1/unit", Lower),
    layer("sgx.epc_faults_per_kop", "1/kunit", Lower),
    layer("sgx.epc_evictions_per_kop", "1/kunit", Lower),
    layer("sgx.compute_ops_per_op", "1/unit", Lower),
    layer("sgx.host_bytes_per_op", "B/unit", Lower),
    layer("sgx.setup_cycles_pct", "%", Lower),
    layer("smartgrid.generate_us_per_event", "us", Lower),
    layer("harness.self_time_pct", "%", Lower),
    layer("harness.span_coverage", "ratio", Higher),
    layer("harness.trace_overhead_pct", "%", Lower),
    layer("harness.allocs_per_op", "1/unit", Lower),
    layer("harness.alloc_bytes_per_op", "B/unit", Lower),
    layer("harness.pass_spread", "ratio", Lower),
    layer("harness.ops_per_pass", "count", Higher),
    layer("harness.units_per_pass", "count", Higher),
    layer("harness.traced_ops_per_s", "unit/s", Higher),
    layer("harness.untraced_ops_per_s", "unit/s", Higher),
    layer("harness.spans_per_pass", "count", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Whether `name` fits the benchmark contract: starts with a letter or a
    /// digit, then letters, digits, `_`, `.` and `-`, at most 64 in all.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The `"name"` values inside the array that follows `"key":` in `json`
    /// (enough JSON for a file this crate's own README documents).
    fn names_under(json: &str, key: &str) -> Vec<String> {
        let at = json.find(&format!("\"{key}\"")).expect("key present");
        let open = at + json[at..].find('[').expect("array opens");
        let mut depth = 0usize;
        let mut close = open;
        for (i, c) in json[open..].char_indices() {
            match c {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        close = open + i;
                        break;
                    }
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        let mut rest = &json[open..close];
        while let Some(i) = rest.find("\"name\"") {
            rest = &rest[i + 6..];
            let q1 = rest.find('"').expect("value opens");
            let q2 = q1 + 1 + rest[q1 + 1..].find('"').expect("value closes");
            out.push(rest[q1 + 1..q2].to_string());
            rest = &rest[q2..];
        }
        out
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn names_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in all {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn emitted_names_equal_benchmark_json() {
        let json = benchmark_json();
        assert_eq!(names_under(&json, "workloads"), WORKLOADS);
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names_under(&json, "end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names_under(&json, "per_layer"), layers);
        assert!(e2e.contains(&"setup_s"), "the contract requires setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
