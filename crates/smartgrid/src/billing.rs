//! Consumption aggregation and billing — the mundane half of §VI's first
//! use case: utilities moved these batch analytics to the cloud precisely
//! because they need "a large data storage and processing infrastructure",
//! and the readings are exactly the data that must stay confidential.
//!
//! Bills price the secure [`meter_usage`] job's per-sample sums with a
//! time-of-use tariff (peak/off-peak rates).

use crate::batch::{meter_usage, sums};
use crate::error::SmartgridError;
use crate::meters::MeterTrace;
use securecloud_mapreduce::MapReduceRunner;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;

/// A time-of-use tariff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tariff {
    /// Price per kWh during peak hours, in cents.
    pub peak_cents_per_kwh: f64,
    /// Price per kWh off peak, in cents.
    pub offpeak_cents_per_kwh: f64,
    /// First peak hour (inclusive), 0-23.
    pub peak_start_hour: u64,
    /// Last peak hour (exclusive), 0-23.
    pub peak_end_hour: u64,
}

impl Default for Tariff {
    fn default() -> Self {
        Tariff {
            peak_cents_per_kwh: 34.0,
            offpeak_cents_per_kwh: 22.0,
            peak_start_hour: 7,
            peak_end_hour: 22,
        }
    }
}

impl Tariff {
    /// Whether second-of-day `t` falls in the peak window.
    #[must_use]
    fn is_peak(&self, t_secs: u64) -> bool {
        let hour = (t_secs / 3600) % 24;
        hour >= self.peak_start_hour && hour < self.peak_end_hour
    }
}

/// One household's bill.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bill {
    /// Meter identifier.
    pub meter: u64,
    /// Peak-window energy, kWh.
    pub peak_kwh: f64,
    /// Off-peak energy, kWh.
    pub offpeak_kwh: f64,
    /// Total charge, cents.
    pub total_cents: f64,
}

/// Prices one meter's readings, one per `interval_secs` from second 0.
fn bill(meter: u64, watts: &[f64], interval_secs: u64, tariff: Tariff) -> Bill {
    let hours = interval_secs as f64 / 3600.0;
    let (mut peak_kwh, mut offpeak_kwh) = (0.0, 0.0);
    for (i, watts) in watts.iter().enumerate() {
        let kwh = watts / 1000.0 * hours;
        if tariff.is_peak(i as u64 * interval_secs) {
            peak_kwh += kwh;
        } else {
            offpeak_kwh += kwh;
        }
    }
    Bill {
        meter,
        peak_kwh,
        offpeak_kwh,
        total_cents: peak_kwh * tariff.peak_cents_per_kwh
            + offpeak_kwh * tariff.offpeak_cents_per_kwh,
    }
}

/// Computes every household's bill from the secure [`meter_usage`] job at
/// one sample per window.
///
/// # Errors
///
/// As [`meter_usage`].
pub fn compute_bills(
    runner: &MapReduceRunner,
    traces: &[MeterTrace],
    interval_secs: u64,
    tariff: Tariff,
) -> Result<BTreeMap<u64, Bill>, SmartgridError> {
    let series = traces.iter().map(|t| (t.meter, t.reported.as_slice()));
    let (usage, _) = meter_usage(runner, series, NonZeroUsize::MIN)?;
    Ok(sums(&usage)
        .into_iter()
        .map(|(meter, watts)| (meter, bill(meter, &watts, interval_secs, tariff)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meters::GridSpec;
    use securecloud_sgx::enclave::Platform;

    fn spec() -> GridSpec {
        GridSpec {
            households: 15,
            duration_secs: 24 * 3600,
            interval_secs: 60,
            theft_fraction: 0.0,
            ..GridSpec::default()
        }
    }

    #[test]
    fn mapreduce_matches_reference() {
        let spec = spec();
        let traces = spec.generate();
        let runner = MapReduceRunner::new(Platform::new());
        let bills = compute_bills(&runner, &traces, spec.interval_secs, Tariff::default()).unwrap();
        assert_eq!(bills.len(), traces.len());
        for trace in &traces {
            // The sequential reference prices the readings themselves.
            let want = bill(
                trace.meter,
                &trace.reported,
                spec.interval_secs,
                Tariff::default(),
            );
            let got = &bills[&trace.meter];
            assert!((got.peak_kwh - want.peak_kwh).abs() < 1e-9);
            assert!((got.offpeak_kwh - want.offpeak_kwh).abs() < 1e-9);
            assert!((got.total_cents - want.total_cents).abs() < 1e-6);
        }
    }

    #[test]
    fn bills_are_plausible() {
        let spec = spec();
        let traces = spec.generate();
        let runner = MapReduceRunner::new(Platform::new());
        let bills = compute_bills(&runner, &traces, spec.interval_secs, Tariff::default()).unwrap();
        for bill in bills.values() {
            let total_kwh = bill.peak_kwh + bill.offpeak_kwh;
            // Daily household consumption: somewhere between 1 and 60 kWh.
            assert!(total_kwh > 1.0 && total_kwh < 60.0, "{total_kwh} kWh");
            assert!(bill.total_cents > 0.0);
            // Peak window is 15 of 24 hours and includes the evening ramp.
            assert!(bill.peak_kwh > bill.offpeak_kwh * 0.3);
        }
    }

    #[test]
    fn tariff_window() {
        let tariff = Tariff::default();
        assert!(!tariff.is_peak(6 * 3600));
        assert!(tariff.is_peak(7 * 3600));
        assert!(tariff.is_peak(21 * 3600 + 3599));
        assert!(!tariff.is_peak(22 * 3600));
        // Second day wraps.
        assert!(tariff.is_peak(24 * 3600 + 12 * 3600));
    }

    #[test]
    fn theft_lowers_the_bill() {
        // The same household billed on reported vs actual: the thief pays
        // less — the revenue gap NTL detection exists to close.
        let spec = GridSpec {
            households: 10,
            theft_fraction: 0.5,
            theft_scale: 0.4,
            duration_secs: 12 * 3600,
            ..GridSpec::default()
        };
        let traces = spec.generate();
        let runner = MapReduceRunner::new(Platform::new());
        let bills = compute_bills(&runner, &traces, spec.interval_secs, Tariff::default()).unwrap();
        for trace in traces.iter().filter(|t| t.is_theft) {
            let honest = bill(
                trace.meter,
                &trace.actual,
                spec.interval_secs,
                Tariff::default(),
            );
            assert!(
                bills[&trace.meter].total_cents < honest.total_cents * 0.5,
                "thief should pay much less than the honest twin"
            );
        }
    }
}
