//! Percentile and best-pass arithmetic.

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `pct` percent of the samples at or below it.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `pct` percentile.
pub fn samples_beyond(len: usize, pct: f64) -> usize {
    let rank = ((pct / 100.0) * len as f64).ceil() as usize;
    len - rank.clamp(1, len)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The best value over the passes of a run.
pub fn best(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "best of no values");
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    values.iter().copied().reduce(pick).expect("non-empty")
}

/// The per-op floor of a run: every pass does the same ops in the same
/// order, so op `i` is the same work in each; its latency is taken as the
/// fastest of its repetitions. Host noise only ever adds time, and a stall
/// of the host rarely hits the same op in every pass.
pub fn op_floor(passes: &[&[u64]]) -> Vec<u64> {
    let ops = passes.first().map_or(0, |p| p.len());
    assert!(
        passes.iter().all(|p| p.len() == ops),
        "passes do the same ops"
    );
    (0..ops)
        .map(|i| passes.iter().map(|p| p[i]).min().expect("a pass"))
        .collect()
}

/// Wall-clock figures of one pass (or of a run's per-op floor), from its
/// per-op latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassTimes {
    pub ops_per_s: f64,
    pub op_p50_us: f64,
    pub op_p95_us: f64,
    pub stall_ms: f64,
    /// Index of the longest op (the work is deterministic, so this is the
    /// same op in every pass unless noise outweighs it).
    pub stall_op: usize,
    /// Sum of the timed ops, seconds.
    pub busy_s: f64,
}

/// Summarises one pass: `units` work units done by timed ops of `op_ns`.
pub fn pass_times(units: u64, op_ns: &[u64]) -> PassTimes {
    assert!(!op_ns.is_empty(), "a pass has timed ops");
    let busy_ns: u64 = op_ns.iter().sum();
    let (stall_op, stall_ns) = op_ns
        .iter()
        .copied()
        .enumerate()
        .max_by_key(|&(i, ns)| (ns, std::cmp::Reverse(i)))
        .expect("non-empty");
    let mut sorted = op_ns.to_vec();
    sorted.sort_unstable();
    PassTimes {
        ops_per_s: units as f64 / (busy_ns as f64 / 1e9),
        op_p50_us: percentile(&sorted, 50.0) as f64 / 1e3,
        op_p95_us: percentile(&sorted, 95.0) as f64 / 1e3,
        stall_ms: stall_ns as f64 / 1e6,
        stall_op,
        busy_s: busy_ns as f64 / 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&v, 50.0), 100);
        assert_eq!(percentile(&v, 95.0), 190);
        assert_eq!(percentile(&v, 100.0), 200);
        assert_eq!(percentile(&[7], 95.0), 7);
        // The contract behind `op_p95_us`: 200 ops leave 10 samples beyond.
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(250, 95.0), 12);
        assert!(samples_beyond(199, 95.0) < 10);
    }

    #[test]
    fn median_and_best() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(best(&[3.0, 1.5, 2.0], Better::Lower), 1.5);
        assert_eq!(best(&[3.0, 1.5, 2.0], Better::Higher), 3.0);
    }

    #[test]
    fn op_floor_takes_each_op_at_its_fastest() {
        let a = [10, 50, 30];
        let b = [12, 20, 31];
        let c = [11, 25, 29];
        assert_eq!(op_floor(&[&a, &b, &c]), vec![10, 20, 29]);
        assert_eq!(op_floor(&[&a]), a);
        // A stall that hits one pass does not reach the floor.
        let t = pass_times(3, &op_floor(&[&a, &b, &c]));
        assert_eq!(t.stall_ms, 29.0 / 1e6);
        assert_eq!(t.stall_op, 2);
    }

    #[test]
    fn pass_times_from_op_latencies() {
        // 4 ops, 1+2+3+4 = 10 ms busy, 1000 units.
        let t = pass_times(1000, &[1_000_000, 4_000_000, 2_000_000, 3_000_000]);
        assert!((t.ops_per_s - 100_000.0).abs() < 1e-6);
        assert_eq!(t.op_p50_us, 2_000.0);
        assert_eq!(t.op_p95_us, 4_000.0);
        assert_eq!(t.stall_ms, 4.0);
        assert_eq!(t.stall_op, 1);
        assert!((t.busy_s - 0.010).abs() < 1e-12);
        // Ties go to the earliest op.
        assert_eq!(pass_times(2, &[5, 5]).stall_op, 0);
    }
}
