//! Lock-cheap metrics: counters, gauges, log-bucketed histograms, and the
//! registry that names them.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`-backed
//! clones around atomics; the hot path never takes a lock. The [`Registry`]
//! is only locked to *create or look up* a handle — subsystems hold their
//! handles in their own structs and update them directly.
//!
//! A subsystem declares its handles once, in a [`metric_set!`](crate::metric_set):
//! its `Default` holds standalone handles, so it works with no registry
//! attached, and it registers in one of two ways:
//!
//! * **`shared`** gets or creates every handle ([`Registry::counter`],
//!   …): two sets asking for the same name+labels aggregate together.
//! * **`adopt_into`** hands the set's own handles to the registry for
//!   export ([`Registry::adopt`]): the subsystem's view and the exported
//!   view are the same atomics; the last adopter of a name+labels wins.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log₂ histogram buckets: bucket `i` holds values whose bit
/// length is `i`, i.e. values in `[2^(i-1), 2^i - 1]` (bucket 0 holds only
/// zero). 64-bit values need 65 buckets.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Adds `delta` to `target` with saturating semantics: the stored value
/// never wraps, not even transiently. A compare-exchange loop recomputes
/// `saturating_add` against the freshest value, so a concurrent reader can
/// only ever observe monotonically increasing values capped at `u64::MAX`
/// (a plain `fetch_add` + clamp briefly exposes the wrapped value).
fn saturating_fetch_add(target: &AtomicU64, delta: u64) {
    let mut current = target.load(Ordering::Relaxed);
    loop {
        let next = current.saturating_add(delta);
        match target.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}

/// A monotonically increasing counter. Increments saturate at `u64::MAX`
/// instead of wrapping, so a runaway counter reads as "pegged", never as a
/// small number again.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments by one (saturating).
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `delta`, saturating at `u64::MAX`. Readers never see a
    /// wrapped value, even mid-race.
    pub fn add(&self, delta: u64) {
        saturating_fetch_add(&self.value, delta);
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depths, residency counts).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to an absolute value.
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Subtracts `delta`.
    pub fn sub(&self, delta: i64) {
        self.value.fetch_sub(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A histogram over `u64` observations with log₂ buckets.
///
/// Bucket `i` counts observations whose bit length is `i`; its inclusive
/// upper bound is `2^i - 1` (`u64::MAX` for the last bucket). The scheme is
/// branch-free — the bucket index is `64 - leading_zeros` — and spans the
/// full `u64` range, which suits cycle and latency measurements that cover
/// many orders of magnitude.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// A fresh, empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value lands in: the value's bit length.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The inclusive upper bound of bucket `index`.
    #[must_use]
    pub fn bucket_upper_bound(index: usize) -> u64 {
        if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one observation. The running sum saturates at `u64::MAX`
    /// without ever exposing a wrapped intermediate to concurrent readers.
    pub fn observe(&self, value: u64) {
        self.inner.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        saturating_fetch_add(&self.inner.sum, value);
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts, non-cumulative.
    #[must_use]
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(self.inner.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }

    /// An upper bound on the `percentile`-th percentile observation: the
    /// inclusive upper bound of the first bucket whose cumulative count
    /// reaches that rank. Exact to within the log₂ bucket width, which is
    /// all the scaling policies and benchmark tables need. Returns `None`
    /// for an empty histogram — "no data yet" is not a measured 0 ms, and
    /// warmup call sites must treat the two differently; `percentile` is
    /// clamped to `1..=100`.
    #[must_use]
    pub fn percentile_upper_bound(&self, percentile: u8) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let pct = u128::from(percentile.clamp(1, 100));
        let rank = u64::try_from((u128::from(total) * pct).div_ceil(100)).unwrap_or(total);
        let rank = rank.max(1);
        let mut cumulative = 0u64;
        for (index, count) in self.bucket_counts().iter().enumerate() {
            cumulative = cumulative.saturating_add(*count);
            if cumulative >= rank {
                return Some(Self::bucket_upper_bound(index));
            }
        }
        Some(Self::bucket_upper_bound(HISTOGRAM_BUCKETS - 1))
    }

    /// Folds another histogram's observations into this one: bucket-wise
    /// addition, exactly as if every observation had been recorded on a
    /// shared handle. Used by [`Registry::merge_from`].
    pub fn merge_from(&self, other: &Histogram) {
        for (bucket, count) in self.inner.buckets.iter().zip(other.bucket_counts()) {
            bucket.fetch_add(count, Ordering::Relaxed);
        }
        self.inner.count.fetch_add(other.count(), Ordering::Relaxed);
        saturating_fetch_add(&self.inner.sum, other.sum());
    }
}

/// A metric's identity in the registry: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name, e.g. `securecloud_bus_published_total`.
    pub name: String,
    /// Label pairs, kept sorted for deterministic export order.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A [`Counter`].
    Counter(Counter),
    /// A [`Gauge`].
    Gauge(Gauge),
    /// A [`Histogram`].
    Histogram(Histogram),
}

/// The metric registry: a named, labeled view over live metric handles.
///
/// Iteration order (and therefore exporter output order) is the `BTreeMap`
/// order of [`MetricKey`] — deterministic regardless of registration order.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<MetricKey, Metric>>,
    /// Keys registered via [`Registry::adopt`]. [`Registry::merge_from`]
    /// replays their last-adopter-wins semantics instead of aggregating.
    adopted: Mutex<std::collections::BTreeSet<MetricKey>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_create(&self, name: &str, labels: &[(&str, &str)], make: fn() -> Metric) -> Metric {
        let key = MetricKey::new(name, labels);
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        metrics.entry(key).or_insert_with(make).clone()
    }

    /// Gets or creates a counter (`&[]` for no labels). Same name+labels →
    /// same handle.
    ///
    /// # Panics
    /// Panics if the name is already registered as a different metric type.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_create(name, labels, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name} already registered as {other:?}"),
        }
    }

    /// Gets or creates a gauge (`&[]` for no labels).
    ///
    /// # Panics
    /// Panics if the name is already registered as a different metric type.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_create(name, labels, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name} already registered as {other:?}"),
        }
    }

    /// Gets or creates a histogram (`&[]` for no labels).
    ///
    /// # Panics
    /// Panics if the name is already registered as a different metric type.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.get_or_create(name, labels, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name} already registered as {other:?}"),
        }
    }

    /// Registers an existing handle under `name` for export: the registry
    /// and the caller share its atomics, and the last adopter of a
    /// name+labels wins the slot (get-or-create handles aggregate instead).
    pub fn adopt(&self, name: &str, labels: &[(&str, &str)], metric: Metric) {
        let key = MetricKey::new(name, labels);
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        self.adopted
            .lock()
            .expect("registry poisoned")
            .insert(key.clone());
        metrics.insert(key, metric);
    }

    /// A deterministic snapshot of every registered metric, in export order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(MetricKey, Metric)> {
        let metrics = self.metrics.lock().expect("registry poisoned");
        metrics
            .iter()
            .map(|(k, m)| (k.clone(), m.clone()))
            .collect()
    }

    /// Folds another registry's metrics into this one, preserving each
    /// registration style's semantics:
    ///
    /// - keys the other registry **adopted** replace the slot here (and stay
    ///   marked adopted), mirroring the live last-adopter-wins behaviour;
    /// - get-or-create keys aggregate: counters add, gauges take the other's
    ///   value (set-style, last writer wins), histograms merge bucket-wise;
    /// - keys absent here share the other's handle directly.
    ///
    /// Merging registries in a fixed order therefore produces the same
    /// snapshot as if every metric had been recorded on one shared registry
    /// in that order.
    ///
    /// # Panics
    /// Panics if a key is registered with different metric types in the two
    /// registries, matching the get-or-create constructors.
    pub fn merge_from(&self, other: &Registry) {
        let other_metrics = other.metrics.lock().expect("registry poisoned");
        let other_adopted = other.adopted.lock().expect("registry poisoned");
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        let mut adopted = self.adopted.lock().expect("registry poisoned");
        for (key, theirs) in other_metrics.iter() {
            if other_adopted.contains(key) {
                adopted.insert(key.clone());
                metrics.insert(key.clone(), theirs.clone());
                continue;
            }
            match metrics.entry(key.clone()) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(theirs.clone());
                }
                std::collections::btree_map::Entry::Occupied(slot) => match (slot.get(), theirs) {
                    (Metric::Counter(ours), Metric::Counter(theirs)) => {
                        ours.add(theirs.value());
                    }
                    (Metric::Gauge(ours), Metric::Gauge(theirs)) => {
                        ours.set(theirs.value());
                    }
                    (Metric::Histogram(ours), Metric::Histogram(theirs)) => {
                        ours.merge_from(theirs);
                    }
                    (ours, theirs) => {
                        panic!(
                            "metric {} merged as mismatched types {ours:?} vs {theirs:?}",
                            key.name
                        )
                    }
                },
            }
        }
    }
}

/// Declares a set of metric handles once, one line per metric: doc, field,
/// kind (`Counter`, `Gauge` or `Histogram`) and registry name. It generates
/// the handle struct, whose `Default` holds standalone handles, with
/// `adopt_into` and `shared` (see the [module docs](crate::metrics)). A
/// trailing `struct Name;` adds a `Copy` snapshot of the counters, in
/// declaration order, read by `snapshot()`.
///
/// ```
/// securecloud_telemetry::metric_set! {
///     struct QueueMetrics {
///         /// Messages enqueued.
///         enqueued: Counter = "queue_enqueued_total",
///         depth: Gauge = "queue_depth",
///     }
///     /// A queue's counters (the gauge is exported, not snapshotted).
///     pub struct QueueStats;
/// }
///
/// let registry = securecloud_telemetry::Registry::new();
/// let metrics = QueueMetrics::default();
/// metrics.adopt_into(&registry, &[]);
/// metrics.enqueued.add(3);
/// assert_eq!(metrics.snapshot(), QueueStats { enqueued: 3 });
/// assert_eq!(registry.counter("queue_enqueued_total", &[]).value(), 3);
/// ```
#[macro_export]
macro_rules! metric_set {
    (@shared Counter) => { $crate::Registry::counter };
    (@shared Gauge) => { $crate::Registry::gauge };
    (@shared Histogram) => { $crate::Registry::histogram };
    // The snapshot keeps the counters and skips every other kind.
    (@snapshot $head:tt [$($acc:tt)*] $(#[$doc:meta])* $field:ident: Counter = $name:expr, $($rest:tt)*) => {
        $crate::metric_set!(@snapshot $head [$($acc)* $(#[$doc])* $field,] $($rest)*);
    };
    (@snapshot $head:tt $acc:tt $(#[$doc:meta])* $field:ident: $kind:ident = $name:expr, $($rest:tt)*) => {
        $crate::metric_set!(@snapshot $head $acc $($rest)*);
    };
    (@snapshot [$(#[$meta:meta])* $vis:vis struct $snap:ident for $set:ident] [$($(#[$doc:meta])* $field:ident,)*]) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $snap { $($(#[$doc])* pub $field: u64,)* }

        impl $set {
            /// Reads every counter of the set.
            pub fn snapshot(&self) -> $snap {
                $snap { $($field: self.$field.value(),)* }
            }
        }
    };
    (
        $(#[$meta:meta])* $vis:vis struct $set:ident { $($body:tt)* }
        $(#[$snap_meta:meta])* $snap_vis:vis struct $snap:ident;
    ) => {
        $crate::metric_set!($(#[$meta])* $vis struct $set { $($body)* });
        $crate::metric_set!(@snapshot [$(#[$snap_meta])* $snap_vis struct $snap for $set] [] $($body)*);
    };
    ($(#[$meta:meta])* $vis:vis struct $set:ident { $($(#[$doc:meta])* $field:ident: $kind:ident = $name:expr,)* }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default)]
        $vis struct $set { $($(#[$doc])* $field: $crate::$kind,)* }

        // A set registers one way or the other, so one of these is unused.
        #[allow(dead_code)]
        impl $set {
            /// Exports these very handles under `labels`; the last adopter
            /// of a name and label set wins.
            pub fn adopt_into(&self, registry: &$crate::Registry, labels: &[(&str, &str)]) {
                $(registry.adopt($name, labels, $crate::Metric::$kind(self.$field.clone()));)*
            }

            /// Gets or creates every handle under `labels`: sets registered
            /// under one name and label set share their atomics.
            pub fn shared(registry: &$crate::Registry, labels: &[(&str, &str)]) -> Self {
                $set { $($field: $crate::metric_set!(@shared $kind)(registry, $name, labels),)* }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.value(), u64::MAX);
        c.inc();
        assert_eq!(c.value(), u64::MAX);
    }

    #[test]
    fn counter_saturation_never_exposes_wrapped_value() {
        // Hammer a near-ceiling counter from several threads; every
        // intermediate read must be >= the starting value (the old
        // fetch_add + clamp pattern could transiently expose a tiny
        // wrapped value to a concurrent reader).
        let c = Counter::new();
        let start = u64::MAX - 16;
        c.add(start);
        let done = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                let done = Arc::clone(&done);
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        c.add(7);
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
            while done.load(Ordering::Relaxed) < 4 {
                assert!(c.value() >= start, "reader observed a wrapped counter");
            }
        });
        assert_eq!(c.value(), u64::MAX);
    }

    #[test]
    fn histogram_sum_saturates_without_wrapping() {
        let h = Histogram::new();
        h.observe(u64::MAX - 1);
        h.observe(5);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
        h.observe(1);
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn merge_from_saturates_sum() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.observe(u64::MAX - 1);
        b.observe(u64::MAX - 1);
        a.merge_from(&b);
        assert_eq!(a.sum(), u64::MAX);
        assert_eq!(a.count(), 2);
        // Bucket counts still add exactly.
        assert_eq!(a.bucket_counts()[64], 2);
    }

    #[test]
    fn gauge_tracks_depth() {
        let g = Gauge::new();
        g.add(3);
        g.sub(1);
        assert_eq!(g.value(), 2);
        g.set(-7);
        assert_eq!(g.value(), -7);
    }

    #[test]
    fn histogram_bucket_edge_cases_pinned() {
        // The two extremes of the u64 range are load-bearing for exporters:
        // zero must land in bucket 0 (upper bound "0") and u64::MAX in the
        // final bucket 64 (upper bound u64::MAX), with merge_from keeping
        // both in place.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
        // Out-of-range indices clamp to the final bound rather than shifting.
        assert_eq!(Histogram::bucket_upper_bound(65), u64::MAX);
        let h = Histogram::new();
        h.observe(0);
        h.observe(u64::MAX);
        let merged = Histogram::new();
        merged.merge_from(&h);
        let buckets = merged.bucket_counts();
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[64], 1);
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.sum(), u64::MAX);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket i holds values with bit length i: [2^(i-1), 2^i - 1].
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(255), 8);
        assert_eq!(Histogram::bucket_index(256), 9);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(1), 1);
        assert_eq!(Histogram::bucket_upper_bound(8), 255);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
        // Every boundary value lands in the bucket whose upper bound it is.
        for i in 1..64 {
            let ub = Histogram::bucket_upper_bound(i);
            assert_eq!(Histogram::bucket_index(ub), i);
            assert_eq!(Histogram::bucket_index(ub + 1), i + 1);
        }
    }

    #[test]
    fn percentile_upper_bound_walks_cumulative_buckets() {
        let h = Histogram::new();
        assert_eq!(h.percentile_upper_bound(99), None, "empty histogram");
        for _ in 0..99 {
            h.observe(3); // bucket 2, upper bound 3
        }
        h.observe(1_000); // bucket 10, upper bound 1023
        assert_eq!(h.percentile_upper_bound(50), Some(3));
        assert_eq!(h.percentile_upper_bound(99), Some(3));
        assert_eq!(h.percentile_upper_bound(100), Some(1023));
        // A single observation is every percentile.
        let single = Histogram::new();
        single.observe(7);
        assert_eq!(single.percentile_upper_bound(1), Some(7));
        assert_eq!(single.percentile_upper_bound(99), Some(7));
    }

    #[test]
    fn histogram_observes_into_buckets() {
        let h = Histogram::new();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 1);
        assert_eq!(buckets[2], 2);
        assert_eq!(buckets[11], 1);
    }

    #[test]
    fn registry_shares_handles_by_name_and_labels() {
        let r = Registry::new();
        let a = r.counter("hits", &[("kind", "read")]);
        let b = r.counter("hits", &[("kind", "read")]);
        let other = r.counter("hits", &[("kind", "write")]);
        a.add(2);
        b.add(3);
        other.inc();
        assert_eq!(a.value(), 5);
        assert_eq!(other.value(), 1);
    }

    #[test]
    fn adopt_exports_live_handle() {
        let r = Registry::new();
        let c = Counter::new();
        c.add(7);
        r.adopt("adopted_total", &[], Metric::Counter(c.clone()));
        c.add(1);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        match &snap[0].1 {
            Metric::Counter(exported) => assert_eq!(exported.value(), 8),
            other => panic!("unexpected metric {other:?}"),
        }
    }

    metric_set! {
        /// A set with a gauge and a histogram between its counters.
        struct TestMetrics {
            /// First counter.
            first: Counter = "test_first_total",
            /// A gauge.
            depth: Gauge = "test_depth",
            /// Second counter.
            second: Counter = "test_second_total",
            /// A histogram.
            latency: Histogram = "test_latency",
        }
        /// The counters of [`TestMetrics`].
        pub struct TestStats;
    }

    fn exported_names(registry: &Registry) -> Vec<String> {
        registry
            .snapshot()
            .into_iter()
            .map(|(k, _)| k.name)
            .collect()
    }

    #[test]
    fn metric_set_works_without_a_registry() {
        let set = TestMetrics::default();
        set.first.inc();
        set.depth.set(4);
        set.latency.observe(9);
        assert_eq!(
            set.snapshot(),
            TestStats {
                first: 1,
                second: 0
            }
        );
        assert_eq!((set.depth.value(), set.latency.count()), (4, 1));
    }

    #[test]
    fn metric_set_adopt_exports_its_atomics_and_the_last_adopter_wins() {
        let registry = Registry::new();
        let (old, new) = (TestMetrics::default(), TestMetrics::default());
        old.adopt_into(&registry, &[("shard", "0")]);
        new.adopt_into(&registry, &[("shard", "0")]);
        old.first.add(5);
        new.first.add(2);
        new.depth.set(-3);
        new.latency.observe(1);
        assert_eq!(
            exported_names(&registry),
            [
                "test_depth",
                "test_first_total",
                "test_latency",
                "test_second_total"
            ]
        );
        for (key, metric) in registry.snapshot() {
            assert_eq!(key.labels, [("shard".to_string(), "0".to_string())]);
            match (key.name.as_str(), metric) {
                ("test_first_total", Metric::Counter(c)) => assert_eq!(c.value(), 2),
                ("test_second_total", Metric::Counter(c)) => assert_eq!(c.value(), 0),
                ("test_depth", Metric::Gauge(g)) => assert_eq!(g.value(), -3),
                ("test_latency", Metric::Histogram(h)) => assert_eq!(h.count(), 1),
                other => panic!("unexpected export {other:?}"),
            }
        }
    }

    #[test]
    fn metric_set_shared_aggregates_under_one_name_and_label_set() {
        let registry = Registry::new();
        let a = TestMetrics::shared(&registry, &[("domain", "enclave")]);
        let b = TestMetrics::shared(&registry, &[("domain", "enclave")]);
        let other = TestMetrics::shared(&registry, &[("domain", "native")]);
        a.second.add(3);
        b.second.add(4);
        b.latency.observe(7);
        assert_eq!(
            a.snapshot(),
            TestStats {
                first: 0,
                second: 7
            }
        );
        assert_eq!(a.latency.count(), 1);
        assert_eq!(other.snapshot(), TestStats::default());
        assert_eq!(exported_names(&registry).len(), 8);
    }

    #[test]
    fn metric_set_snapshot_reads_counters_in_declaration_order() {
        let set = TestMetrics::default();
        set.first.add(u64::MAX);
        set.first.inc();
        set.second.add(2);
        set.depth.set(11);
        set.latency.observe(12);
        // The gauge and the histogram are registered (see the adopt test)
        // but are no snapshot fields.
        assert_eq!(
            format!("{:?}", set.snapshot()),
            "TestStats { first: 18446744073709551615, second: 2 }"
        );
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let r = Registry::new();
        r.counter("zzz_total", &[]);
        r.counter("aaa_total", &[]);
        r.counter("mid_total", &[("b", "2")]);
        r.counter("mid_total", &[("a", "1")]);
        let names: Vec<String> = r
            .snapshot()
            .into_iter()
            .map(|(k, _)| format!("{}{:?}", k.name, k.labels))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
