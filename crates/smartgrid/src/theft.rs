//! Power-theft detection (non-technical-loss analysis) — the paper's first
//! use case (§VI): "sophisticated applications, such as power theft
//! prevention". It reads the city's two secure map/reduce jobs
//! ([`crate::batch`]) at one sample per window:
//!
//! 1. **Loss series**: [`feeder_loss`]'s actual minus reported sums.
//! 2. **Suspicion scores**: each meter's [`meter_usage`] series is
//!    correlated with the loss series — a thief's stolen energy is
//!    proportional to their consumption, so their reported profile
//!    co-moves with the loss.

use crate::batch::{feeder_loss, meter_usage, sums};
use crate::error::SmartgridError;
use crate::meters::MeterTrace;
use securecloud_mapreduce::MapReduceRunner;
use std::num::NonZeroUsize;

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
    /// Map-task re-executions across its jobs.
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

/// `series` less its projection on `base`.
fn orthogonalise(series: &[f64], base: &[f64]) -> Vec<f64> {
    let dot: f64 = series.iter().zip(base).map(|(a, b)| a * b).sum();
    let norm: f64 = base.iter().map(|b| b * b).sum();
    let coefficient = if norm > 0.0 { dot / norm } else { 0.0 };
    series
        .iter()
        .zip(base)
        .map(|(a, b)| a - coefficient * b)
        .collect()
}

/// Runs the two-phase detection pipeline.
///
/// `feeder_totals` is the substation measurement series (ground truth of
/// actual consumption); `traces` carry only the *reported* values into the
/// computation.
///
/// # Errors
///
/// As [`meter_usage`].
pub fn detect_theft(
    runner: &MapReduceRunner,
    traces: &[MeterTrace],
    feeder_totals: &[f64],
) -> Result<TheftReport, SmartgridError> {
    let reported = || traces.iter().map(|t| (t.meter, t.reported.as_slice()));
    let one = NonZeroUsize::MIN;
    let feeder = reported().map(|(_, series)| (0, series));
    let (windows, loss_retries) = feeder_loss(runner, feeder, [(0, feeder_totals)], one)?;
    let (usage, usage_retries) = meter_usage(runner, reported(), one)?;

    // ---- Phase 1: the loss series.
    let (actual, loss): (Vec<f64>, Vec<f64>) = windows
        .values()
        .map(|(reported, actual)| (actual.sum, actual.sum - reported.sum))
        .unzip();
    let total_feeder: f64 = actual.iter().sum();
    let total_reported: f64 = windows.values().map(|w| w.0.sum).sum();

    // ---- Phase 2: per-meter correlation with the loss series.
    //
    // All households share a diurnal shape (heating), which also shapes the
    // loss series; correlating raw profiles would therefore flag everyone.
    // Both the loss and each meter are first residualised against the
    // common-mode profile (the z-scored feeder total), leaving only each
    // household's idiosyncratic pattern — which for a thief is exactly what
    // the stolen energy follows.
    let common = zscore(&actual);
    let loss_residual = orthogonalise(&zscore(&loss), &common);
    let mut ranked: Vec<Suspicion> = sums(&usage)
        .into_iter()
        .map(|(meter, series)| Suspicion {
            meter,
            score: pearson(&orthogonalise(&zscore(&series), &common), &loss_residual),
        })
        .collect();
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
        retries: loss_retries + usage_retries,
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
