//! The four workloads. Each `pass` function does one full pass of fixed,
//! deterministic work: it makes its inputs from the seed, sets the system
//! up, then runs the timed ops. Nothing is shared between passes.

use std::collections::BTreeMap;
use std::time::Instant;

use securecloud_sgx::costs::MemoryGeometry;
use securecloud_sgx::mem::MemStats;

use crate::{host, trace};

pub mod city_stream;
pub mod kv_mixed;
pub mod msg_relay;
pub mod plane;
pub mod scbr_match;

/// How a pass is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced, with the full oracle; its timings are discarded.
    WarmUp,
    /// Untraced, digest check only: the end-to-end numbers come from here.
    Timed,
    /// Spans recorded around every call into a layer.
    Traced,
}

/// Simulated-clock totals of one pass: the router enclave plus every
/// operator's or store's `MemorySim`, set-up included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sim {
    pub cycles: u64,
    pub epc_faults: u64,
    pub host_bytes: u64,
}

/// What one pass produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Work units done by the timed ops.
    pub units: u64,
    /// Latency of every timed op, in op order.
    pub op_ns: Vec<u64>,
    /// Everything before the first timed op.
    pub setup_ns: u64,
    /// Simulated cycles charged before the first timed op.
    pub setup_cycles: u64,
    /// Timed ops that returned an error, plus oracle mismatches and
    /// dropped, dead-lettered or refused messages.
    pub failed: u64,
    /// Digest over the results, in delivery order.
    pub digest: u64,
    pub sim: Sim,
    /// (calls, bytes) allocated during the timed ops.
    pub allocs: (u64, u64),
    /// Per-layer counts read from public stats snapshots, keyed by metric.
    pub counts: BTreeMap<&'static str, f64>,
    /// What the oracle found (warm-up pass only).
    pub notes: Vec<String>,
}

/// Runs one pass of `workload`.
pub fn pass(workload: &str, seed: u64, mode: Mode) -> Pass {
    match workload {
        "city_stream" => city_stream::pass(seed, mode),
        "msg_relay" => msg_relay::pass(seed, mode),
        "kv_mixed" => kv_mixed::pass(seed, mode),
        "scbr_match" => scbr_match::pass(seed, mode),
        other => unreachable!("workload {other} was validated by the command line"),
    }
}

/// Times the ops of a pass and counts the ones that fail.
pub struct OpTimer {
    set_up: Instant,
    allocs_before: (u64, u64),
    pass: Pass,
}

impl OpTimer {
    /// Starts the clock for set-up.
    pub fn begin() -> Self {
        OpTimer {
            set_up: Instant::now(),
            allocs_before: (0, 0),
            pass: Pass::default(),
        }
    }

    /// Ends set-up: everything until now was `setup_s`.
    pub fn setup_done(&mut self, setup_cycles: u64) {
        self.pass.setup_ns = self.set_up.elapsed().as_nanos() as u64;
        self.pass.setup_cycles = setup_cycles;
        self.allocs_before = host::alloc_counts();
    }

    /// Runs and times one op doing `units` work units.
    pub fn op<E: std::fmt::Display>(&mut self, units: u64, body: impl FnOnce() -> Result<(), E>) {
        trace::set_op(self.pass.op_ns.len() as u32);
        let start = Instant::now();
        let outcome = {
            let _span = trace::span("harness.op");
            body()
        };
        self.pass.op_ns.push(start.elapsed().as_nanos() as u64);
        self.pass.units += units;
        if let Err(e) = outcome {
            self.fail(format!("op {} failed: {e}", self.pass.op_ns.len() - 1));
        }
    }

    /// Records a failed op (an `Err`, an oracle mismatch, a lost message).
    pub fn fail(&mut self, why: String) {
        self.pass.failed += 1;
        if self.pass.failed <= 5 {
            self.pass.notes.push(format!("FAILED: {why}"));
        }
    }

    /// Records an oracle finding.
    pub fn note(&mut self, what: String) {
        self.pass.notes.push(what);
    }

    /// Closes the pass.
    pub fn finish(mut self, digest: u64, sim: Sim, counts: BTreeMap<&'static str, f64>) -> Pass {
        let after = host::alloc_counts();
        self.pass.allocs = (
            after.0 - self.allocs_before.0,
            after.1 - self.allocs_before.1,
        );
        self.pass.digest = digest;
        self.pass.sim = sim;
        self.pass.counts = counts;
        self.pass
    }
}

/// SplitMix64: the harness's own generator, so the seed never reaches the
/// system under test — it receives only the generated inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        finalise(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

fn finalise(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The SplitMix64 finaliser over a `(seed, lane)` pair. Mirrors the private
/// `mix_seed` of `securecloud_streaming::pipeline`, which derives the city's
/// per-feeder voltage seeds: the `city_stream` oracle needs the same traces.
pub fn mix_seed(seed: u64, lane: u64) -> u64 {
    finalise(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// FNV-1a, folded over whatever a workload's results are.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }
}

/// SGX1 line and page sizes with a scaled-down EPC (LLC a quarter of it):
/// the shrinking the repository's storage and streaming experiments use, so
/// paging behaves like the full-size model at benchmark-sized working sets.
pub fn small_epc(total: usize, reserved: usize) -> MemoryGeometry {
    MemoryGeometry {
        epc_total_bytes: total,
        epc_reserved_bytes: reserved,
        llc_bytes: total / 4,
        ..MemoryGeometry::sgx_v1()
    }
}

/// The `sgx.*` counts of a pass, per work unit, summed over every simulated
/// memory the pass charged.
pub fn sgx_counts(counts: &mut BTreeMap<&'static str, f64>, mems: &[MemStats], units: u64) {
    let per_unit =
        |pick: fn(&MemStats) -> u64| mems.iter().map(pick).sum::<u64>() as f64 / units as f64;
    counts.insert("sgx.line_accesses_per_op", per_unit(|m| m.line_accesses));
    counts.insert("sgx.llc_misses_per_op", per_unit(|m| m.llc_misses));
    counts.insert("sgx.epc_faults_per_kop", per_unit(|m| m.epc_faults) * 1e3);
    counts.insert(
        "sgx.epc_evictions_per_kop",
        per_unit(|m| m.epc_evictions) * 1e3,
    );
    counts.insert("sgx.compute_ops_per_op", per_unit(|m| m.compute_ops));
    counts.insert(
        "sgx.host_bytes_per_op",
        per_unit(|m| m.host_read_bytes + m.host_write_bytes),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_in_range() {
        let mut a = SplitMix64(11);
        let mut b = SplitMix64(11);
        for _ in 0..1000 {
            let v = a.below(10);
            assert_eq!(v, b.below(10));
            assert!(v < 10);
        }
        assert_ne!(SplitMix64(11).next_u64(), SplitMix64(12).next_u64());
        assert_ne!(mix_seed(11, 0x0700), mix_seed(11, 0x0701));
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::default();
        h.eat(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
