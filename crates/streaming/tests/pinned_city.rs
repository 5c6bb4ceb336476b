//! Pins what the city pipelines produce on one small seeded city, at five
//! bus delivery batches and three window sizes.
//!
//! Within one window size every value but the operators' summed cycles is
//! the same at every delivery batch: results are a function of the sealed
//! input, not of how the bus interleaves deliveries. The operators' cycles
//! are pinned per batch. Each operator commits its state writes once per
//! delivery batch, in one host write, so the cycles fall as the batch
//! grows. They also move by a few dozen beyond that, because the join's
//! memtable holds a different number of entries at each lookup depending
//! on how its two lanes interleave.

use securecloud_streaming::pipeline::{CityConfig, CityPipelines, CitySpec, PlaneConfig};
use securecloud_streaming::state::StateMetrics;
use securecloud_streaming::WindowSpec;

/// Messages delivered per subscription per pump round.
const BATCHES: [usize; 5] = [1, 2, 3, 4, 64];

/// Everything a run yields that does not depend on the delivery batch.
#[derive(Debug, PartialEq)]
struct Outcome {
    results_digest: u64,
    results: usize,
    loss_windows: u64,
    flagged_feeders: Vec<u64>,
    router_cycles: u64,
    metrics: StateMetrics,
    paging: (u64, u64, u64),
    peak_state_bytes: u64,
}

/// Runs the seed-21 city (6 feeders x 5 households, 5-minute samples over
/// one hour, half the households stealing); returns the outcome and the
/// operators' summed cycles.
fn run(window_s: u64, delivery_batch: usize) -> (Outcome, u64) {
    let config = CityConfig {
        spec: CitySpec {
            feeders: 6,
            households_per_feeder: 5,
            interval_secs: 300,
            duration_secs: 3_600,
            theft_fraction: 0.5,
            seed: 21,
            ..CitySpec::default()
        },
        windows: WindowSpec::tumbling(window_s * 1_000).unwrap(),
        plane: PlaneConfig {
            delivery_batch,
            ..PlaneConfig::default()
        },
        ..CityConfig::default()
    };
    let mut city = CityPipelines::deploy(config).unwrap();
    let report = city.run().unwrap();
    let outcome = Outcome {
        results_digest: report.results_digest,
        results: city.plane().results().len(),
        loss_windows: report.loss_windows,
        flagged_feeders: report.flagged_feeders,
        router_cycles: city.plane().router_cycles(),
        metrics: city.operator_metrics(),
        paging: city.operator_paging(),
        peak_state_bytes: city.peak_state_bytes(),
    };
    (outcome, city.operator_cycles())
}

/// Runs every delivery batch at `window_s`: each must yield `expected`, and
/// the operators' cycles of `BATCHES[i]` must be `operator_cycles[i]`.
fn check(window_s: u64, expected: &Outcome, operator_cycles: [u64; 5]) {
    for (batch, cycles) in BATCHES.into_iter().zip(operator_cycles) {
        let (outcome, got) = run(window_s, batch);
        assert_eq!(&outcome, expected, "{window_s} s windows, batch {batch}");
        assert_eq!(got, cycles, "{window_s} s windows, batch {batch}");
    }
}

#[test]
fn quarter_hour_windows_are_pinned_at_every_delivery_batch() {
    let expected = Outcome {
        results_digest: 12_003_816_680_004_323_442,
        results: 168,
        loss_windows: 24,
        flagged_feeders: vec![0, 1, 2, 3, 4, 5],
        router_cycles: 924_456,
        metrics: StateMetrics {
            events: 912,
            results: 240,
            late_dropped: 0,
            malformed: 0,
        },
        paging: (36, 0, 122_208),
        peak_state_bytes: 13_320,
    };
    check(
        900,
        &expected,
        [41_139_992, 21_994_000, 15_693_976, 12_545_960, 3_953_960],
    );
}

#[test]
fn half_hour_windows_are_pinned_at_every_delivery_batch() {
    let expected = Outcome {
        results_digest: 1_994_177_735_903_585_846,
        results: 84,
        loss_windows: 12,
        flagged_feeders: vec![0, 1, 2, 3, 4, 5],
        router_cycles: 882_552,
        metrics: StateMetrics {
            events: 888,
            results: 120,
            late_dropped: 0,
            malformed: 0,
        },
        paging: (33, 0, 110_388),
        peak_state_bytes: 7_620,
    };
    check(
        1_800,
        &expected,
        [39_818_448, 21_172_448, 15_040_928, 11_892_928, 3_504_928],
    );
}

#[test]
fn hour_windows_are_pinned_at_every_delivery_batch() {
    let expected = Outcome {
        results_digest: 2_471_247_525_633_250_969,
        results: 42,
        loss_windows: 6,
        flagged_feeders: vec![0, 1, 2, 3, 4, 5],
        router_cycles: 860_928,
        metrics: StateMetrics {
            events: 876,
            results: 60,
            late_dropped: 0,
            malformed: 0,
        },
        paging: (31, 0, 104_478),
        peak_state_bytes: 4_770,
    };
    check(
        3_600,
        &expected,
        [39_146_324, 20_750_324, 14_702_324, 11_554_324, 3_250_324],
    );
}
