//! Batch equals stream, window by window: `pinned_city.rs`'s seed-21 city
//! runs through the streaming pipelines and, over the same readings,
//! through their batch twins in `securecloud_smartgrid::batch`, which share
//! no code with the bus or the operators.
//!
//! The meter rollups agree exactly: both fold each window in time order.
//! The loss join's sums agree to a relative 1e-9: `feeder-reported` sums a
//! window's readings time-major, while the batch reducer adds them up
//! meter by meter.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;

use securecloud_mapreduce::MapReduceRunner;
use securecloud_scbr::types::Value;
use securecloud_sgx::enclave::Platform;
use securecloud_smartgrid::batch::{feeder_loss, meter_usage, Usage, Windows};
use securecloud_smartgrid::meters::GridSpec;
use securecloud_streaming::operator::{
    ATTR_COUNT, ATTR_KEY, ATTR_LEFT, ATTR_MAX, ATTR_MIN, ATTR_RIGHT, ATTR_STREAM, ATTR_TIME,
    ATTR_VALUE,
};
use securecloud_streaming::pipeline::{
    CityConfig, CityPipelines, CitySpec, STREAM_FEEDER_LOSS, STREAM_METER_USAGE,
};
use securecloud_streaming::WindowSpec;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// Feeders whose summed loss exceeds `threshold` of their summed actual
/// energy, the rule `CityRunReport::flagged_feeders` applies.
fn flagged(loss: &Windows<(Usage, Usage)>, threshold: f64) -> Vec<u64> {
    let mut by_feeder: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for (&(feeder, _), (reported, actual)) in loss {
        let entry = by_feeder.entry(feeder).or_default();
        entry.0 += actual.sum - reported.sum;
        entry.1 += actual.sum;
    }
    by_feeder
        .into_iter()
        .filter(|(_, (delta, actual))| *actual > 0.0 && delta / actual > threshold)
        .map(|(feeder, _)| feeder)
        .collect()
}

fn check(window_s: u64) {
    let spec = CitySpec {
        feeders: 6,
        households_per_feeder: 5,
        interval_secs: 300,
        duration_secs: 3_600,
        theft_fraction: 0.5,
        seed: 21,
        ..CitySpec::default()
    };
    let size_ms = window_s * 1_000;
    let config = CityConfig {
        spec: spec.clone(),
        windows: WindowSpec::tumbling(size_ms).unwrap(),
        ..CityConfig::default()
    };
    let mut city = CityPipelines::deploy(config.clone()).unwrap();
    let report = city.run().unwrap();

    // The stream's drained windows, keyed as the batch jobs key theirs.
    let mut stream_usage = BTreeMap::new();
    let mut stream_loss = BTreeMap::new();
    for result in city.plane().results() {
        let int = |attr: &str| match result.attrs.get(attr) {
            Some(Value::Int(v)) => *v as u64,
            other => panic!("{attr}: {other:?}"),
        };
        let float = |attr: &str| match result.attrs.get(attr) {
            Some(Value::Float(v)) => *v,
            other => panic!("{attr}: {other:?}"),
        };
        let key = (int(ATTR_KEY), (int(ATTR_TIME) / size_ms) as usize);
        let duplicate = match int(ATTR_STREAM) as i64 {
            STREAM_METER_USAGE => stream_usage
                .insert(
                    key,
                    Usage {
                        sum: float(ATTR_VALUE),
                        count: int(ATTR_COUNT),
                        min: float(ATTR_MIN),
                        max: float(ATTR_MAX),
                    },
                )
                .is_some(),
            STREAM_FEEDER_LOSS => stream_loss
                .insert(key, (float(ATTR_LEFT), float(ATTR_RIGHT)))
                .is_some(),
            _ => false,
        };
        assert!(!duplicate, "{window_s} s: window {key:?} emitted twice");
    }

    // The same readings through the batch jobs. The pipelines key a meter
    // by `feeder * households_per_feeder + meter`.
    let traces: Vec<_> = (0..spec.feeders)
        .map(|feeder| spec.feeder_spec(feeder).generate())
        .collect();
    let actual: Vec<_> = traces.iter().map(|t| GridSpec::feeder_totals(t)).collect();
    let households = spec.households_per_feeder as u64;
    let meters = traces.iter().zip(0u64..).flat_map(|(traces, feeder)| {
        traces
            .iter()
            .map(move |t| (feeder * households + t.meter, t.reported.as_slice()))
    });
    let reported = traces
        .iter()
        .zip(0u64..)
        .flat_map(|(traces, feeder)| traces.iter().map(move |t| (feeder, t.reported.as_slice())));
    let substations = (0u64..).zip(actual.iter().map(Vec::as_slice));
    let k = NonZeroUsize::new((window_s / spec.interval_secs) as usize).unwrap();
    let runner = MapReduceRunner::new(Platform::new());
    let (batch_usage, _) = meter_usage(&runner, meters, k).unwrap();
    let (batch_loss, _) = feeder_loss(&runner, reported, substations, k).unwrap();

    assert_eq!(
        stream_usage.len(),
        spec.meters() * spec.samples() / k.get(),
        "{window_s} s: every meter window drained"
    );
    assert_eq!(batch_usage, stream_usage, "{window_s} s: meter usage");
    assert_eq!(
        batch_loss.keys().collect::<Vec<_>>(),
        stream_loss.keys().collect::<Vec<_>>(),
        "{window_s} s: loss windows"
    );
    for (key, (reported, actual)) in &batch_loss {
        let (left, right) = stream_loss[key];
        assert!(
            close(reported.sum, left) && close(actual.sum, right),
            "{window_s} s: loss window {key:?}: batch {reported:?} {actual:?}, stream {left} {right}"
        );
    }
    assert!(
        !report.flagged_feeders.is_empty(),
        "{window_s} s: thieves flag"
    );
    assert_eq!(
        flagged(&batch_loss, config.theft_threshold),
        report.flagged_feeders,
        "{window_s} s: flagged feeders"
    );
}

#[test]
fn batch_equals_stream_window_by_window() {
    for window_s in [900, 1_800, 3_600] {
        check(window_s);
    }
}
