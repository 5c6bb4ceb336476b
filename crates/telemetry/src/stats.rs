//! Shared streaming-statistics helpers.
//!
//! One [`Welford`] (exact running mean/variance) and one [`Ema`]
//! (exponentially weighted mean/variance) implementation for the whole
//! workspace, replacing the hand-rolled copies that used to live in
//! `smartgrid`, `genpack`, and `mapreduce`.

/// Welford's online algorithm: numerically stable running mean and
/// (sample) variance over a stream of observations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observation into the running statistics.
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0 before any observation).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (n−1 denominator; 0 before two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation (0 before two observations).
    #[must_use]
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Exponentially weighted moving mean and variance.
///
/// The first observation seeds the mean; afterwards
/// `mean += alpha * delta` and
/// `variance = (1 - alpha) * (variance + alpha * delta^2)` — the standard
/// EWMA/EWMV recurrence, weighting recent samples by `alpha`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ema {
    alpha: f64,
    mean: f64,
    variance: f64,
    samples: u64,
}

impl Ema {
    /// A smoother giving weight `alpha` in `(0, 1]` to each new sample.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        Self {
            alpha,
            mean: 0.0,
            variance: 0.0,
            samples: 0,
        }
    }

    /// Folds one observation in.
    pub fn observe(&mut self, value: f64) {
        if self.samples == 0 {
            self.mean = value;
            self.variance = 0.0;
        } else {
            let delta = value - self.mean;
            self.mean += self.alpha * delta;
            self.variance = (1.0 - self.alpha) * (self.variance + self.alpha * delta * delta);
        }
        self.samples += 1;
    }

    /// Number of observations so far.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Smoothed mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smoothed variance.
    #[must_use]
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Smoothed standard deviation.
    #[must_use]
    pub fn stddev(&self) -> f64 {
        self.variance.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_textbook_values() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.stddev(), 0.0);
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.observe(v);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Sample variance of that classic set is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_single_sample_has_zero_variance() {
        let mut w = Welford::new();
        w.observe(42.0);
        assert_eq!(w.mean(), 42.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.stddev(), 0.0);
    }

    #[test]
    fn ema_first_sample_seeds_mean() {
        let mut e = Ema::new(0.2);
        e.observe(10.0);
        assert_eq!(e.mean(), 10.0);
        assert_eq!(e.variance(), 0.0);
        assert_eq!(e.samples(), 1);
    }

    #[test]
    fn ema_recurrence() {
        let mut e = Ema::new(0.5);
        e.observe(0.0);
        e.observe(8.0);
        // delta = 8, mean = 0 + 0.5*8 = 4, var = 0.5 * (0 + 0.5*64) = 16.
        assert!((e.mean() - 4.0).abs() < 1e-12);
        assert!((e.variance() - 16.0).abs() < 1e-12);
        assert!((e.stddev() - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn ema_rejects_bad_alpha() {
        let _ = Ema::new(0.0);
    }
}
