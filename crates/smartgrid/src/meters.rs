//! Synthetic smart-meter traces.
//!
//! The paper's first use case collects "detailed power consumption data
//! from residential and industrial consumers ... at sub-minute
//! granularities" (§VI). No real traces ship with this reproduction (they
//! are exactly the privacy-sensitive data the project is about), so this
//! module synthesises households from appliance models: a stochastic
//! baseline, a duty-cycling fridge, diurnal heating, and short high-power
//! events (kettle) plus long medium-power events (washing machine). The
//! appliance structure is what both the analytics and the privacy attack
//! (§VI, reference 15 of the paper) exercise.

use securecloud_telemetry::rng::SeededRng;

/// A full per-household trace.
#[derive(Debug, Clone, PartialEq)]
pub struct MeterTrace {
    /// Meter identifier.
    pub meter: u64,
    /// True consumption per sample, watts.
    pub actual: Vec<f64>,
    /// Reported consumption per sample (differs under theft), watts.
    pub reported: Vec<f64>,
    /// Whether this household under-reports (energy theft).
    pub is_theft: bool,
    /// Sample times of kettle events (for privacy-attack ground truth).
    pub kettle_events: Vec<usize>,
}

/// Grid / trace generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Number of households on the feeder.
    pub households: usize,
    /// Sampling interval, seconds (sub-minute per the paper).
    pub interval_secs: u64,
    /// Trace duration, seconds.
    pub duration_secs: u64,
    /// Fraction of households committing theft.
    pub theft_fraction: f64,
    /// Thieves report `theft_scale` of their true consumption.
    pub theft_scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GridSpec {
    fn default() -> Self {
        GridSpec {
            households: 100,
            interval_secs: 30,
            duration_secs: 24 * 3600,
            theft_fraction: 0.05,
            theft_scale: 0.4,
            seed: 7,
        }
    }
}

impl GridSpec {
    /// Samples per trace. A zero sampling interval is clamped to one
    /// second, the same guard the appliance models apply below — sweep
    /// configs with a degenerate interval degrade instead of panicking.
    #[must_use]
    pub fn samples(&self) -> usize {
        (self.duration_secs / self.interval_secs.max(1)) as usize
    }

    /// Generates every household trace, deterministically.
    #[must_use]
    pub fn generate(&self) -> Vec<MeterTrace> {
        let mut rng = SeededRng::new(self.seed);
        let samples = self.samples();
        (0..self.households)
            .map(|meter| {
                let is_theft = rng.gen_bool(self.theft_fraction);
                let household = Household::sample(&mut rng);
                let mut actual = Vec::with_capacity(samples);
                let mut kettle_events = Vec::new();
                let mut kettle_left = 0usize;
                let mut wash_left = 0usize;
                for i in 0..samples {
                    let t = i as u64 * self.interval_secs;
                    let mut watts = household.baseline + rng.gen_range(-10.0..10.0);
                    // Fridge duty cycle: on for a third of its period.
                    let phase = (t + household.fridge_phase) % household.fridge_period;
                    if phase < household.fridge_period / 3 {
                        watts += 140.0;
                    }
                    // Diurnal heating: peaks in the evening.
                    let hour = (t / 3600) % 24;
                    let diurnal = (std::f64::consts::PI * (hour as f64 - 6.0) / 12.0)
                        .sin()
                        .max(0.0);
                    watts += household.heating_watts * diurnal;
                    // Kettle: rare, short, 2 kW.
                    if kettle_left > 0 {
                        kettle_left -= 1;
                        watts += 2000.0;
                    } else if rng.gen_bool(household.kettle_rate) {
                        kettle_left = (180 / self.interval_secs.max(1)) as usize;
                        kettle_events.push(i);
                        watts += 2000.0;
                    }
                    // Washing machine: rarer, long, 500 W.
                    if wash_left > 0 {
                        wash_left -= 1;
                        watts += 500.0;
                    } else if rng.gen_bool(0.0005) {
                        wash_left = (3600 / self.interval_secs.max(1)) as usize;
                        watts += 500.0;
                    }
                    actual.push(watts.max(0.0));
                }
                let reported = if is_theft {
                    actual.iter().map(|w| w * self.theft_scale).collect()
                } else {
                    actual.clone()
                };
                MeterTrace {
                    meter: meter as u64,
                    actual,
                    reported,
                    is_theft,
                    kettle_events,
                }
            })
            .collect()
    }

    /// The feeder-level totals: what the distribution operator measures at
    /// the substation (always the *actual* consumption).
    #[must_use]
    pub fn feeder_totals(traces: &[MeterTrace]) -> Vec<f64> {
        let samples = traces.first().map_or(0, |t| t.actual.len());
        (0..samples)
            .map(|i| traces.iter().map(|t| t.actual[i]).sum())
            .collect()
    }
}

#[derive(Debug)]
struct Household {
    baseline: f64,
    fridge_period: u64,
    fridge_phase: u64,
    heating_watts: f64,
    kettle_rate: f64,
}

impl Household {
    fn sample(rng: &mut SeededRng) -> Self {
        Household {
            baseline: rng.gen_range(40.0..160.0),
            fridge_period: rng.gen_range(1800..3600),
            fridge_phase: rng.gen_range(0..3600),
            heating_watts: rng.gen_range(200.0..1200.0),
            kettle_rate: rng.gen_range(0.001..0.004),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GridSpec {
        GridSpec {
            households: 20,
            duration_secs: 6 * 3600,
            ..GridSpec::default()
        }
    }

    #[test]
    fn deterministic_and_sized() {
        let spec = small();
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        for trace in &a {
            assert_eq!(trace.actual.len(), spec.samples());
            assert_eq!(trace.reported.len(), spec.samples());
        }
    }

    #[test]
    fn consumption_is_plausible() {
        let traces = small().generate();
        for trace in &traces {
            let mean = trace.actual.iter().sum::<f64>() / trace.actual.len() as f64;
            assert!(mean > 30.0 && mean < 3000.0, "household mean {mean} W");
            assert!(trace.actual.iter().all(|&w| w >= 0.0));
            let peak = trace.actual.iter().cloned().fold(0.0, f64::max);
            assert!(peak < 6000.0, "household peak {peak} W");
        }
    }

    #[test]
    fn theft_under_reports() {
        let spec = GridSpec {
            theft_fraction: 0.5,
            ..small()
        };
        let traces = spec.generate();
        let thieves: Vec<_> = traces.iter().filter(|t| t.is_theft).collect();
        assert!(!thieves.is_empty());
        for thief in thieves {
            for (a, r) in thief.actual.iter().zip(&thief.reported) {
                assert!((r - a * spec.theft_scale).abs() < 1e-9);
            }
        }
        for honest in traces.iter().filter(|t| !t.is_theft) {
            assert_eq!(honest.actual, honest.reported);
        }
    }

    #[test]
    fn feeder_totals_are_sums_of_actuals() {
        let traces = small().generate();
        let totals = GridSpec::feeder_totals(&traces);
        assert_eq!(totals.len(), small().samples());
        let expected: f64 = traces.iter().map(|t| t.actual[0]).sum();
        assert!((totals[0] - expected).abs() < 1e-9);
    }

    #[test]
    fn kettle_events_recorded_with_spikes() {
        let traces = GridSpec {
            households: 50,
            ..small()
        }
        .generate();
        let with_kettle = traces.iter().find(|t| !t.kettle_events.is_empty());
        let trace = with_kettle.expect("some household used a kettle");
        for &i in &trace.kettle_events {
            assert!(
                trace.actual[i] > 1800.0,
                "kettle event sample {i} should spike"
            );
        }
    }

    #[test]
    fn zero_interval_spec_does_not_panic() {
        // Regression: `samples()` divided by `interval_secs` unguarded, so
        // a sweep config with a zero interval panicked before generating a
        // single trace. It now clamps to one-second sampling.
        let spec = GridSpec {
            interval_secs: 0,
            duration_secs: 120,
            households: 2,
            ..GridSpec::default()
        };
        assert_eq!(spec.samples(), 120);
        let traces = spec.generate();
        assert_eq!(traces.len(), 2);
        for trace in &traces {
            assert_eq!(trace.actual.len(), 120);
        }
    }
}
