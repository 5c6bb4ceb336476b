//! The city's two windowed stream queries as secure map/reduce jobs, the
//! streaming operators' oracle: [`meter_usage`] is the twin of
//! `meter-usage`, [`feeder_loss`] of `feeder-reported ⋈ feeder-actual`.
//! A window is a whole number `k` of samples (`smartgrid` does not depend
//! on `streaming`): window `w` holds samples `w * k .. (w + 1) * k`.

#![deny(clippy::unwrap_used, clippy::indexing_slicing)]

use crate::error::{decode_fields, SmartgridError};
use securecloud_mapreduce::{JobConfig, MapReduceRunner, Record};
use std::collections::BTreeMap;
use std::num::NonZeroUsize;

/// One key's rollup over one window, as the streaming rollup emits it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Usage {
    /// Sum of the samples, folded in time order.
    pub sum: f64,
    /// Number of samples.
    pub count: u64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Usage {
    fn of(sample: f64) -> Self {
        Usage {
            sum: sample,
            count: 1,
            min: sample,
            max: sample,
        }
    }

    /// Folds `later` in after `self`, in the streaming operator's order.
    fn merge(self, later: Usage) -> Self {
        Usage {
            sum: self.sum + later.sum,
            count: self.count + later.count,
            min: self.min.min(later.min),
            max: self.max.max(later.max),
        }
    }

    fn encode(self) -> Vec<u8> {
        let bits = f64::to_bits;
        let fields = [bits(self.sum), self.count, bits(self.min), bits(self.max)];
        fields.iter().flat_map(|f| f.to_le_bytes()).collect()
    }

    fn decode(bytes: &[u8]) -> Result<Self, SmartgridError> {
        let [sum, count, min, max] = decode_fields("usage value", bytes)?;
        Ok(Usage {
            sum: f64::from_bits(sum),
            count,
            min: f64::from_bits(min),
            max: f64::from_bits(max),
        })
    }
}

/// A job's output per (key, window index).
pub type Windows<T> = BTreeMap<(u64, usize), T>;

/// Each key's window sums, in window order.
pub(crate) fn sums(windows: &Windows<Usage>) -> BTreeMap<u64, Vec<f64>> {
    let mut sums: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (&(key, _), usage) in windows {
        sums.entry(key).or_default().push(usage.sum);
    }
    sums
}

/// Sum, count, min and max per (key, window) of keyed series, and the
/// map-task re-executions the job took: the twin of the `meter-usage`
/// rollup. A mapper folds each window in time order, as the operator does;
/// the reducer merges series that share a key in input order.
///
/// # Errors
///
/// [`SmartgridError`] when the job fails or its output does not decode.
pub fn meter_usage<'a>(
    runner: &MapReduceRunner,
    series: impl IntoIterator<Item = (u64, &'a [f64])>,
    samples_per_window: NonZeroUsize,
) -> Result<(Windows<Usage>, u64), SmartgridError> {
    let k = samples_per_window.get();
    let bytes = |s: &[f64]| s.iter().flat_map(|v| v.to_le_bytes()).collect();
    let input: Vec<Record> = series
        .into_iter()
        .map(|(key, s)| (key.to_le_bytes().into(), bytes(s)))
        .collect();
    let map = |key: &[u8], value: &[u8], emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)| {
        for (window, samples) in value.as_chunks().0.chunks(k).enumerate() {
            let fold = samples.iter().map(|&s| Usage::of(f64::from_le_bytes(s)));
            if let Some(usage) = fold.reduce(Usage::merge) {
                let window = (window as u64).to_le_bytes();
                emit([key, &window].concat(), usage.encode());
            }
        }
    };
    // A value that does not decode empties the output, which
    // `decode_output` reports.
    let reduce = |_: &[u8], values: &[Vec<u8>]| {
        let usages = values.iter().map(|v| Usage::decode(v));
        let merged = usages.reduce(|a, b| Ok(a?.merge(b?))).and_then(Result::ok);
        merged.map_or_else(Vec::new, Usage::encode)
    };
    let result = runner.run(&JobConfig::default(), &input, &map, &reduce)?;
    let samples = input.iter().map(|(_, v)| v.len() / 8).max().unwrap_or(0);
    let windows = decode_output(&result.output, samples.div_ceil(k))?;
    Ok((windows, result.stats.retries))
}

/// The (reported, actual) rollups per (feeder, window) that both sides
/// hold, and the jobs' map-task re-executions: the twin of the
/// `feeder-reported ⋈ feeder-actual` join. Their sums' difference is the
/// window's unbilled loss.
///
/// # Errors
///
/// As [`meter_usage`].
pub fn feeder_loss<'a>(
    runner: &MapReduceRunner,
    reported: impl IntoIterator<Item = (u64, &'a [f64])>,
    actual: impl IntoIterator<Item = (u64, &'a [f64])>,
    samples_per_window: NonZeroUsize,
) -> Result<(Windows<(Usage, Usage)>, u64), SmartgridError> {
    let (reported, reported_retries) = meter_usage(runner, reported, samples_per_window)?;
    let (actual, actual_retries) = meter_usage(runner, actual, samples_per_window)?;
    let joined = reported
        .into_iter()
        .filter_map(|(window, left)| Some((window, (left, *actual.get(&window)?))));
    Ok((joined.collect(), reported_retries + actual_retries))
}

/// Decodes reducer output, a `u64`-LE key and window index per record,
/// checking every window index against the job's `windows`.
fn decode_output(
    output: &BTreeMap<Vec<u8>, Vec<u8>>,
    windows: usize,
) -> Result<Windows<Usage>, SmartgridError> {
    let record = |(k, v): (&Vec<u8>, &Vec<u8>)| {
        let [key, window] = decode_fields("window key", k)?;
        let window = usize::try_from(window).unwrap_or(usize::MAX);
        if window >= windows {
            return Err(SmartgridError::WindowOutOfRange { window, windows });
        }
        Ok(((key, window), Usage::decode(v)?))
    };
    output.iter().map(record).collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::indexing_slicing)]
    use super::*;
    use crate::meters::GridSpec;
    use securecloud_sgx::enclave::Platform;

    #[test]
    fn windows_fold_in_time_order() {
        let runner = MapReduceRunner::new(Platform::new());
        let a = [1.0, 5.0, 2.0, 0.5, 7.0];
        let b = [3.0, 3.0];
        let three = NonZeroUsize::new(3).unwrap();
        let (usage, retries) = meter_usage(&runner, [(7, &a[..]), (9, &b[..])], three).unwrap();
        let window = |sum, count, min, max| Usage {
            sum,
            count,
            min,
            max,
        };
        let expected = [
            ((7, 0), window(8.0, 3, 1.0, 5.0)),
            ((7, 1), window(7.5, 2, 0.5, 7.0)),
            ((9, 0), window(6.0, 2, 3.0, 3.0)),
        ];
        assert_eq!(usage, expected.into_iter().collect());
        assert_eq!(retries, 0);
        assert_eq!(sums(&usage)[&7], vec![8.0, 7.5]);
    }

    #[test]
    fn feeders_sum_reported_and_actual_apart() {
        let spec = GridSpec {
            households: 4,
            duration_secs: 3_600,
            interval_secs: 600,
            theft_fraction: 0.5,
            ..GridSpec::default()
        };
        let traces = spec.generate();
        let actual = GridSpec::feeder_totals(&traces);
        let runner = MapReduceRunner::new(Platform::new());
        let two = NonZeroUsize::new(2).unwrap();
        // Feeder 3 has every meter, feeder 5 only the first; both share the
        // substation series, and feeder 6 has no meters.
        let reported = traces
            .iter()
            .map(|t| (3, &t.reported[..]))
            .chain([(5, &traces[0].reported[..])]);
        let substation = [3, 5, 6].map(|feeder| (feeder, &actual[..]));
        let (loss, _) = feeder_loss(&runner, reported, substation, two).unwrap();
        // Six samples make three windows per feeder; feeder 6 joins none.
        assert_eq!(loss.len(), 6);
        for window in 0..3 {
            let at = |s: &[f64]| s[2 * window] + s[2 * window + 1];
            let reported: f64 = traces.iter().map(|t| at(&t.reported)).sum();
            let (three, three_actual) = loss[&(3, window)];
            assert!((three.sum - reported).abs() < 1e-9);
            assert_eq!((three.count, three_actual.count), (8, 2));
            assert_eq!(three_actual.sum, at(&actual));
            let (five, five_actual) = loss[&(5, window)];
            assert_eq!(five.sum, at(&traces[0].reported));
            assert_eq!(five_actual, three_actual);
        }
    }

    #[test]
    fn malformed_reducer_output_surfaces_typed_errors() {
        // Regression: reducer output used to be decoded with `expect()` and
        // `v[..8]` slices, and a window index from reducer bytes indexed a
        // series unchecked.
        let key = |k: u64, w: u64| [k.to_le_bytes(), w.to_le_bytes()].concat();
        let usage = Usage::of(2.5).encode();
        let decode_one = |k: Vec<u8>, v: Vec<u8>| decode_output(&[(k, v)].into(), 4);
        // Out-of-range window index:
        assert_eq!(
            decode_one(key(1, 9), usage.clone()).unwrap_err(),
            SmartgridError::WindowOutOfRange {
                window: 9,
                windows: 4
            }
        );
        // Truncated key:
        assert_eq!(
            decode_one(vec![0, 1], usage.clone()).unwrap_err(),
            SmartgridError::MalformedRecord {
                field: "window key",
                expected: 16,
                actual: 2
            }
        );
        // Truncated value:
        assert_eq!(
            decode_one(key(1, 0), usage[..20].to_vec()).unwrap_err(),
            SmartgridError::MalformedRecord {
                field: "usage value",
                expected: 32,
                actual: 20
            }
        );
        // Well-formed output decodes.
        let good = decode_one(key(7, 3), usage).unwrap();
        assert_eq!(good[&(7, 3)], Usage::of(2.5));
    }
}
