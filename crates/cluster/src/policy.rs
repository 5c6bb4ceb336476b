//! The scaling policy: thresholds, hysteresis, and cooldowns.
//!
//! A policy turns raw telemetry into a breach/calm verdict per tick. The
//! asymmetry is deliberate and is what keeps the controller from
//! flapping:
//!
//! * a signal **breaches** when it crosses its high threshold; a shard
//!   only scales up after [`ScalingPolicy::up_streak`] consecutive
//!   breaching ticks and an [`ScalingPolicy::up_cooldown_ms`] since the
//!   last scale-up;
//! * a shard is **calm** only when *every* signal sits below *half* its
//!   high threshold — the band between half and high is dead zone where
//!   neither streak advances — and only scales down after the longer
//!   [`ScalingPolicy::down_streak`] and [`ScalingPolicy::down_cooldown_ms`].
//!
//! Scale-down is slower than scale-up on every axis (streak, cooldown)
//! because adding a replica under load is cheap insurance while draining
//! one is only worth doing when the calm is sustained.

use std::error::Error as StdError;
use std::fmt;

/// An invalid [`ScalingPolicy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyError(String);

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scaling policy: {}", self.0)
    }
}

impl StdError for PolicyError {}

/// Thresholds and damping for the elastic controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalingPolicy {
    /// Floor on replicas per shard group (never drained below this).
    pub min_replicas: usize,
    /// Ceiling on replicas per shard group.
    pub max_replicas: usize,
    /// Replication-lag gauge value (versions behind) that breaches.
    pub lag_high: u64,
    /// Publish-to-ack p99 upper bound (ms) that breaches.
    pub p99_high_ms: u64,
    /// Backpressure *per tick* (counter delta; load drivers feed it) that breaches.
    pub backpressure_high: u64,
    /// Dead-letter-queue depth that breaches.
    pub dlq_high: i64,
    /// Consecutive breaching ticks required before a scale-up.
    pub up_streak: u32,
    /// Consecutive calm ticks required before a scale-down.
    pub down_streak: u32,
    /// Minimum virtual ms between scale-ups of the same target.
    pub up_cooldown_ms: u64,
    /// Minimum virtual ms between scale-downs of the same target.
    pub down_cooldown_ms: u64,
    /// Floor on bus-facing service replicas.
    pub min_service_replicas: u32,
    /// Ceiling on bus-facing service replicas.
    pub max_service_replicas: u32,
}

impl Default for ScalingPolicy {
    fn default() -> Self {
        ScalingPolicy {
            min_replicas: 3,
            max_replicas: 5,
            lag_high: 8,
            p99_high_ms: 250,
            backpressure_high: 8,
            dlq_high: 4,
            up_streak: 2,
            down_streak: 4,
            up_cooldown_ms: 2_000,
            down_cooldown_ms: 5_000,
            min_service_replicas: 1,
            max_service_replicas: 4,
        }
    }
}

impl ScalingPolicy {
    /// Checks the policy's internal consistency.
    ///
    /// # Errors
    ///
    /// [`PolicyError`] when a bound is inverted, a streak is zero (the
    /// controller would react to single-tick noise), or a threshold is
    /// zero (every tick would breach).
    pub fn validate(&self) -> Result<(), PolicyError> {
        if self.min_replicas == 0 {
            return Err(PolicyError("min_replicas must be >= 1".into()));
        }
        if self.max_replicas < self.min_replicas {
            return Err(PolicyError(format!(
                "max_replicas {} < min_replicas {}",
                self.max_replicas, self.min_replicas
            )));
        }
        if self.up_streak == 0 || self.down_streak == 0 {
            return Err(PolicyError(
                "streaks must be >= 1 (zero reacts to single-tick noise)".into(),
            ));
        }
        if self.lag_high == 0
            || self.p99_high_ms == 0
            || self.backpressure_high == 0
            || self.dlq_high <= 0
        {
            return Err(PolicyError(
                "high thresholds must be positive (zero breaches every tick)".into(),
            ));
        }
        if self.min_service_replicas == 0 {
            return Err(PolicyError("min_service_replicas must be >= 1".into()));
        }
        if self.max_service_replicas < self.min_service_replicas {
            return Err(PolicyError(format!(
                "max_service_replicas {} < min_service_replicas {}",
                self.max_service_replicas, self.min_service_replicas
            )));
        }
        Ok(())
    }
}

/// One tick's observed signals, evaluated against a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signals {
    /// Per-shard replication lag (gauge value, clamped at zero).
    pub lag: u64,
    /// Bus publish-to-ack p99 upper bound, ms. `None` before the first
    /// acked publish — during warmup there is *no measurement*, which must
    /// neither read as a breach (the old `0` sentinel could never breach,
    /// but a future low threshold would have made it one) nor block calm
    /// (a deployment that never publishes must still be able to drain).
    pub p99_ms: Option<u64>,
    /// Backpressure reported since the previous tick.
    pub backpressure_delta: u64,
    /// Bus dead-letter-queue depth.
    pub dlq_depth: i64,
    /// Whether the SLO engine reports an objective burning above its
    /// multi-window threshold this tick (an immediate breach that also
    /// vetoes calm).
    pub slo_breach: bool,
}

impl Signals {
    /// Whether any signal crosses its high threshold. An absent p99 can
    /// never breach: no data is not slow data.
    #[must_use]
    pub fn breaches(&self, policy: &ScalingPolicy) -> bool {
        self.lag >= policy.lag_high
            || self.p99_ms.is_some_and(|p99| p99 >= policy.p99_high_ms)
            || self.backpressure_delta >= policy.backpressure_high
            || self.dlq_depth >= policy.dlq_high
            || self.slo_breach
    }

    /// Whether *every* signal sits below half its high threshold — the
    /// hysteresis band between half and high advances neither streak. An
    /// absent p99 does not block calm (absence of traffic is calm), but a
    /// burning SLO always does.
    #[must_use]
    pub fn is_calm(&self, policy: &ScalingPolicy) -> bool {
        self.lag < policy.lag_high / 2
            && self.p99_ms.is_none_or(|p99| p99 < policy.p99_high_ms / 2)
            && self.backpressure_delta < policy.backpressure_high / 2
            && self.dlq_depth < policy.dlq_high / 2
            && !self.slo_breach
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_valid() {
        ScalingPolicy::default().validate().unwrap();
    }

    #[test]
    fn validation_rejects_inverted_and_zero_shapes() {
        let reject = |policy: ScalingPolicy| {
            assert!(policy.validate().is_err(), "{policy:?} should be invalid");
        };
        reject(ScalingPolicy {
            min_replicas: 0,
            ..ScalingPolicy::default()
        });
        reject(ScalingPolicy {
            max_replicas: 2,
            min_replicas: 3,
            ..ScalingPolicy::default()
        });
        reject(ScalingPolicy {
            up_streak: 0,
            ..ScalingPolicy::default()
        });
        reject(ScalingPolicy {
            lag_high: 0,
            ..ScalingPolicy::default()
        });
        reject(ScalingPolicy {
            dlq_high: 0,
            ..ScalingPolicy::default()
        });
        reject(ScalingPolicy {
            max_service_replicas: 0,
            ..ScalingPolicy::default()
        });
    }

    #[test]
    fn hysteresis_band_is_neither_breach_nor_calm() {
        let policy = ScalingPolicy::default();
        let quiet = Signals {
            lag: 0,
            p99_ms: Some(10),
            backpressure_delta: 0,
            dlq_depth: 0,
            slo_breach: false,
        };
        assert!(!quiet.breaches(&policy));
        assert!(quiet.is_calm(&policy));

        let hot = Signals {
            lag: policy.lag_high,
            ..quiet
        };
        assert!(hot.breaches(&policy));
        assert!(!hot.is_calm(&policy));

        // Between half and high: dead zone.
        let warm = Signals {
            p99_ms: Some(policy.p99_high_ms / 2 + 1),
            ..quiet
        };
        assert!(!warm.breaches(&policy));
        assert!(!warm.is_calm(&policy));
    }

    #[test]
    fn absent_p99_neither_breaches_nor_blocks_calm() {
        let policy = ScalingPolicy::default();
        let warmup = Signals {
            lag: 0,
            p99_ms: None,
            backpressure_delta: 0,
            dlq_depth: 0,
            slo_breach: false,
        };
        assert!(!warmup.breaches(&policy), "no data is not slow data");
        assert!(warmup.is_calm(&policy), "no traffic must still drain");
    }

    #[test]
    fn slo_breach_breaches_and_vetoes_calm() {
        let policy = ScalingPolicy::default();
        let burning = Signals {
            lag: 0,
            p99_ms: None,
            backpressure_delta: 0,
            dlq_depth: 0,
            slo_breach: true,
        };
        assert!(burning.breaches(&policy));
        assert!(!burning.is_calm(&policy));
    }
}
