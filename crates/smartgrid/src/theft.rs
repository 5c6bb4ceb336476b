//! Power-theft detection (non-technical-loss analysis) as a secure
//! map/reduce pipeline — the paper's first use case (§VI): "sophisticated
//! applications, such as power theft prevention".
//!
//! Two phases over encrypted data inside enclaves:
//!
//! 1. **Loss series**: a map/reduce job aggregates the *reported* readings
//!    per time window; subtracting the sum from the feeder-level
//!    measurement yields the non-technical-loss series.
//! 2. **Suspicion scores**: a second job correlates each meter's reported
//!    series with the loss series — a thief's stolen energy is proportional
//!    to their consumption, so their reported profile co-moves with the
//!    loss.

use crate::error::{decode_f64, decode_u64, decode_window, SmartgridError};
use crate::meters::MeterTrace;
use securecloud_mapreduce::{JobConfig, MapReduceRunner};

/// A meter with its theft-suspicion score.
#[derive(Debug, Clone, PartialEq)]
pub struct Suspicion {
    /// Meter identifier.
    pub meter: u64,
    /// Pearson correlation of the meter's reported profile with the loss
    /// series (higher = more suspicious), NaN-free.
    pub score: f64,
}

/// Result of the detection pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TheftReport {
    /// Total reported energy (kWh-equivalent sample sum).
    pub total_reported: f64,
    /// Total feeder energy.
    pub total_feeder: f64,
    /// Loss fraction (0..1).
    pub loss_fraction: f64,
    /// Meters ranked most-suspicious first.
    pub ranked: Vec<Suspicion>,
    /// Map-task re-executions across both jobs.
    pub retries: u64,
}

/// Normalises a series to zero mean, unit variance (z-scores).
fn zscore(series: &[f64]) -> Vec<f64> {
    let n = series.len();
    if n < 2 {
        return vec![0.0; n];
    }
    let mean = series.iter().sum::<f64>() / n as f64;
    let var = series.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    let sd = var.sqrt();
    if sd == 0.0 {
        return vec![0.0; n];
    }
    series.iter().map(|v| (v - mean) / sd).collect()
}

fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    if n < 2 {
        return 0.0;
    }
    let mean = |s: &[f64]| s[..n].iter().sum::<f64>() / n as f64;
    let (ma, mb) = (mean(a), mean(b));
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for i in 0..n {
        let da = a[i] - ma;
        let db = b[i] - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va * vb).sqrt()
}

/// Folds phase-1 reducer output (`be32` window key, `le f64` sum) into a
/// dense per-window series. The window index is decoded from reducer
/// bytes, so it is validated against the job's sample range — corrupted
/// or truncated shuffle output becomes a typed error, not an
/// out-of-bounds panic.
fn fold_window_sums<'a>(
    output: impl IntoIterator<Item = (&'a Vec<u8>, &'a Vec<u8>)>,
    samples: usize,
) -> Result<Vec<f64>, SmartgridError> {
    let mut totals = vec![0f64; samples];
    for (k, v) in output {
        let window = decode_window("window key", k)?;
        let slot = totals
            .get_mut(window)
            .ok_or(SmartgridError::WindowOutOfRange {
                window,
                windows: samples,
            })?;
        *slot = decode_f64("window sum", v)?;
    }
    Ok(totals)
}

/// Runs the two-phase detection pipeline.
///
/// `feeder_totals` is the substation measurement series (ground truth of
/// actual consumption); `traces` carry only the *reported* values into the
/// computation.
///
/// # Errors
///
/// [`SmartgridError::MapReduce`] from the underlying jobs, and
/// [`SmartgridError::MalformedRecord`] / [`SmartgridError::WindowOutOfRange`]
/// when reducer output does not decode as this pipeline's wire format —
/// truncated bytes or an out-of-range window index surface as typed errors
/// instead of panicking mid-aggregation.
pub fn detect_theft(
    runner: &MapReduceRunner,
    traces: &[MeterTrace],
    feeder_totals: &[f64],
) -> Result<TheftReport, SmartgridError> {
    let samples = traces.first().map_or(0, |t| t.reported.len());
    let config = JobConfig {
        mappers: 4,
        reducers: 4,
        max_retries: 1,
    };

    // ---- Phase 1: reported total per window.
    // Input record: (meter id, reported series as f64-LE bytes).
    let input: Vec<(Vec<u8>, Vec<u8>)> = traces
        .iter()
        .map(|t| {
            let mut bytes = Vec::with_capacity(t.reported.len() * 8);
            for w in &t.reported {
                bytes.extend_from_slice(&w.to_le_bytes());
            }
            (t.meter.to_le_bytes().to_vec(), bytes)
        })
        .collect();

    let sums = runner.run(
        &config,
        &input,
        &|_k, v, emit| {
            for (window, chunk) in v.chunks_exact(8).enumerate() {
                let watts = f64::from_le_bytes(chunk.try_into().expect("chunked"));
                emit(
                    (window as u32).to_be_bytes().to_vec(),
                    watts.to_le_bytes().to_vec(),
                );
            }
        },
        &|_k, values| {
            let sum: f64 = values
                .iter()
                .map(|v| f64::from_le_bytes(v.as_slice().try_into().expect("f64")))
                .sum();
            sum.to_le_bytes().to_vec()
        },
    )?;

    let reported_totals = fold_window_sums(&sums.output, samples)?;
    let loss: Vec<f64> = feeder_totals
        .iter()
        .zip(&reported_totals)
        .map(|(f, r)| f - r)
        .collect();
    let total_feeder: f64 = feeder_totals.iter().sum();
    let total_reported: f64 = reported_totals.iter().sum();

    // ---- Phase 2: per-meter correlation with the loss series.
    //
    // All households share a diurnal shape (heating), which also shapes the
    // loss series; correlating raw profiles would therefore flag everyone.
    // Both the loss and each meter are first residualised against the
    // common-mode profile (the z-scored feeder total), leaving only each
    // household's idiosyncratic pattern — which for a thief is exactly what
    // the stolen energy follows.
    let common = zscore(feeder_totals);
    let orthogonalise = |series: &[f64], base: &[f64]| -> Vec<f64> {
        let dot: f64 = series.iter().zip(base).map(|(a, b)| a * b).sum();
        let norm: f64 = base.iter().map(|b| b * b).sum();
        let coefficient = if norm > 0.0 { dot / norm } else { 0.0 };
        series
            .iter()
            .zip(base)
            .map(|(a, b)| a - coefficient * b)
            .collect()
    };
    let loss_residual = orthogonalise(&zscore(&loss), &common);
    let scores = runner.run(
        &config,
        &input,
        &|k, v, emit| {
            let series: Vec<f64> = v
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("chunked")))
                .collect();
            let residual = orthogonalise(&zscore(&series), &common);
            let score = pearson(&residual, &loss_residual);
            emit(k.to_vec(), score.to_le_bytes().to_vec());
        },
        &|_k, values| values[0].clone(),
    )?;

    let mut ranked = Vec::with_capacity(scores.output.len());
    for (k, v) in &scores.output {
        ranked.push(Suspicion {
            meter: decode_u64("meter key", k)?,
            score: decode_f64("suspicion score", v)?,
        });
    }
    ranked.sort_by(|a, b| b.score.total_cmp(&a.score));

    Ok(TheftReport {
        total_reported,
        total_feeder,
        loss_fraction: if total_feeder > 0.0 {
            (total_feeder - total_reported) / total_feeder
        } else {
            0.0
        },
        ranked,
        retries: sums.stats.retries + scores.stats.retries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meters::GridSpec;
    use securecloud_faults::{FaultInjector, FaultKind, FaultPlan};
    use securecloud_sgx::enclave::Platform;
    use std::sync::Arc;

    fn spec() -> GridSpec {
        GridSpec {
            households: 40,
            duration_secs: 12 * 3600,
            interval_secs: 60,
            theft_fraction: 0.1,
            theft_scale: 0.35,
            seed: 11,
        }
    }

    #[test]
    fn detects_injected_thieves() {
        let spec = spec();
        let traces = spec.generate();
        let feeder = GridSpec::feeder_totals(&traces);
        let thieves: Vec<u64> = traces
            .iter()
            .filter(|t| t.is_theft)
            .map(|t| t.meter)
            .collect();
        assert!(!thieves.is_empty(), "fixture must contain thieves");

        let runner = MapReduceRunner::new(Platform::new());
        let report = detect_theft(&runner, &traces, &feeder).unwrap();

        assert!(report.loss_fraction > 0.01, "theft causes visible loss");
        assert!(report.total_feeder > report.total_reported);
        // Every thief must rank within the top 2x thief count.
        let top: Vec<u64> = report
            .ranked
            .iter()
            .take(thieves.len() * 2)
            .map(|s| s.meter)
            .collect();
        for thief in &thieves {
            assert!(
                top.contains(thief),
                "thief {thief} not in top suspicions: {top:?}"
            );
        }
    }

    #[test]
    fn clean_grid_reports_no_loss() {
        let spec = GridSpec {
            theft_fraction: 0.0,
            households: 20,
            duration_secs: 4 * 3600,
            ..spec()
        };
        let traces = spec.generate();
        let feeder = GridSpec::feeder_totals(&traces);
        let runner = MapReduceRunner::new(Platform::new());
        let report = detect_theft(&runner, &traces, &feeder).unwrap();
        assert!(report.loss_fraction.abs() < 1e-9);
    }

    #[test]
    fn pearson_properties() {
        let up: Vec<f64> = (0..50).map(f64::from).collect();
        let down: Vec<f64> = (0..50).map(|i| f64::from(50 - i)).collect();
        assert!((pearson(&up, &up) - 1.0).abs() < 1e-9);
        assert!((pearson(&up, &down) + 1.0).abs() < 1e-9);
        let flat = vec![3.0; 50];
        assert_eq!(pearson(&up, &flat), 0.0);
        assert_eq!(pearson(&[], &[]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn malformed_reducer_output_surfaces_typed_errors() {
        // Regression: `reported_totals[window]` indexed with a reducer-
        // decoded window and `expect()` decodes panicked on short bytes.
        use std::collections::BTreeMap;
        let map = |pairs: Vec<(Vec<u8>, Vec<u8>)>| pairs.into_iter().collect::<BTreeMap<_, _>>();
        // Out-of-range window index:
        let out_of_range = map(vec![(
            9u32.to_be_bytes().to_vec(),
            1.0f64.to_le_bytes().to_vec(),
        )]);
        assert_eq!(
            fold_window_sums(&out_of_range, 4).unwrap_err(),
            SmartgridError::WindowOutOfRange {
                window: 9,
                windows: 4
            }
        );
        // Truncated window key:
        let short_key = map(vec![(vec![0u8, 1], 1.0f64.to_le_bytes().to_vec())]);
        assert!(matches!(
            fold_window_sums(&short_key, 4).unwrap_err(),
            SmartgridError::MalformedRecord {
                field: "window key",
                expected: 4,
                actual: 2
            }
        ));
        // Truncated value:
        let short_value = map(vec![(0u32.to_be_bytes().to_vec(), vec![1, 2, 3])]);
        assert!(matches!(
            fold_window_sums(&short_value, 4).unwrap_err(),
            SmartgridError::MalformedRecord {
                field: "window sum",
                actual: 3,
                ..
            }
        ));
        // Well-formed output still folds densely.
        let good = map(vec![
            (1u32.to_be_bytes().to_vec(), 2.5f64.to_le_bytes().to_vec()),
            (3u32.to_be_bytes().to_vec(), 4.0f64.to_le_bytes().to_vec()),
        ]);
        assert_eq!(
            fold_window_sums(&good, 4).unwrap(),
            vec![0.0, 2.5, 0.0, 4.0]
        );
    }

    #[test]
    fn survives_worker_failures() {
        let spec = GridSpec {
            households: 10,
            duration_secs: 2 * 3600,
            ..spec()
        };
        let traces = spec.generate();
        let feeder = GridSpec::feeder_totals(&traces);
        let plan = FaultPlan::new().at(0, FaultKind::MapTaskFail { task: 0, times: 1 });
        let injector = Arc::new(FaultInjector::with_plan(0, plan));
        injector.advance_to(0);
        let mut runner = MapReduceRunner::new(Platform::new());
        runner.set_fault_injector(injector);
        let report = detect_theft(&runner, &traces, &feeder).unwrap();
        assert_eq!(report.retries, 1, "the planned failure fired once");
        let clean_runner = MapReduceRunner::new(Platform::new());
        let clean = detect_theft(&clean_runner, &traces, &feeder).unwrap();
        assert_eq!(clean.retries, 0);
        assert_eq!(report.ranked, clean.ranked, "retry must not change results");
    }
}
