//! # securecloud-telemetry
//!
//! The unified observability layer for the SecureCloud reproduction:
//!
//! * a lock-cheap **metrics registry** ([`metrics`]) — saturating counters,
//!   gauges, and log₂-bucketed histograms behind cheap `Arc` handles, with
//!   labeled families and deterministic export order;
//! * **structured tracing** ([`trace`]) — spans and instant events stamped
//!   with the *simulation virtual clock* ([`clock`]), the same deterministic
//!   time base `securecloud-faults` and the container engine use, so traces
//!   from equal-seed runs are byte-identical;
//! * **causal contexts** ([`context`]) — deterministic trace/span ids minted
//!   from `(seed, birth tick, sequence)` and propagated hop to hop, plus the
//!   fixed 24-byte header format they ride in inside sealed frames;
//! * a **critical-path analyzer** ([`critical_path`]) — folds finished
//!   traces into per-subsystem self-time attribution and a flame-style
//!   report;
//! * an **SLO engine** ([`slo`]) — declarative objectives evaluated as
//!   multi-window burn rates over the live metric handles, emitting
//!   deterministic alert events;
//! * **exporters** ([`export`]) — a Prometheus-style text snapshot, a JSONL
//!   trace writer, and a chrome://tracing `trace_event` JSON emitter with
//!   flow events linking spans across subsystems;
//! * shared **streaming statistics** ([`stats`]) — the one Welford and EMA
//!   implementation the rest of the workspace builds on.
//!
//! The [`Telemetry`] facade bundles a clock, a registry, the trace events,
//! and a context minter; subsystems receive an `Arc<Telemetry>` (or stay
//! un-instrumented at zero cost — every integration point is optional).
//!
//! ## Recording surface
//!
//! One verb per job; the special cases are arguments (`&[]` for no labels,
//! `vec![]` for no args, [`TraceContext::none()`] for no causal context):
//!
//! * [`Registry::counter`], [`Registry::gauge`], [`Registry::histogram`]
//!   `(name, labels)` get or create a handle (reach them through
//!   [`Telemetry::registry`]; a [`metric_set!`] declares a subsystem's
//!   handles once);
//! * [`Telemetry::span`]`(category, name, args, ctx)` returns a [`Span`]
//!   guard that emits `Begin` now and `End` when dropped;
//! * [`Telemetry::event`]`(category, name, args, ctx)` emits an instant.
//!
//! A `&mut self` method that keeps its `Arc<Telemetry>` in `self` clones
//! the `Arc` into a local first and opens the span on the local, so the
//! guard borrows the local rather than `self`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod context;
pub mod critical_path;
pub mod export;
pub mod metrics;
pub mod slo;
pub mod stats;
pub mod trace;

pub use clock::VirtualClock;
pub use context::{ContextMinter, TraceContext, CONTEXT_WIRE_LEN};
pub use critical_path::{CategoryAttribution, CriticalPathReport};
pub use metrics::{Counter, Gauge, Histogram, Metric, MetricKey, Registry};
pub use slo::{BurnAlert, SloEngine, SloSpec};
pub use stats::{Ema, Welford};
pub use trace::{Phase, TraceEvent};

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// How many exemplar trace ids each key retains (largest-weight first).
const EXEMPLARS_PER_KEY: usize = 4;

/// The 64-bit FNV-1a offset basis: the state [`fnv1a`] starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over `bytes`, continuing from `state`: the one unseeded
/// digest behind shard routing and every pinned run digest.
#[inline]
#[must_use]
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Clock + registry + trace events + context minter, bundled for handing
/// around the stack.
#[derive(Debug, Default)]
pub struct Telemetry {
    clock: VirtualClock,
    registry: Registry,
    /// Every trace event, in emission order.
    events: Mutex<Vec<TraceEvent>>,
    minter: ContextMinter,
    /// Largest-weight exemplar trace ids per key (e.g. slow publish-to-ack
    /// traces), so scaling decisions can cite the traces behind a signal.
    exemplars: Mutex<BTreeMap<&'static str, Vec<(u64, u64)>>>,
}

/// Where [`Telemetry::write_report`] put each artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Prometheus-style metrics snapshot.
    pub snapshot: PathBuf,
    /// JSONL span/event trace.
    pub trace_jsonl: PathBuf,
    /// chrome://tracing JSON document.
    pub trace_chrome: PathBuf,
}

impl Telemetry {
    /// A fresh telemetry bundle at virtual time 0 with no metrics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared virtual clock.
    #[must_use]
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The metric registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// (Re)keys the context minter; equal seeds mint equal id sequences.
    pub fn set_trace_seed(&self, seed: u64) {
        self.minter.set_seed(seed);
    }

    /// Mints a root context for a request born *now* (virtual time).
    #[must_use]
    pub fn mint_root(&self) -> TraceContext {
        self.minter.mint_root(self.clock.now_ms())
    }

    /// Mints a child context under `parent` (same trace, fresh span).
    #[must_use]
    pub fn mint_child(&self, parent: TraceContext) -> TraceContext {
        self.minter.mint_child(parent)
    }

    fn push(
        &self,
        phase: Phase,
        category: &'static str,
        name: &str,
        args: Vec<(&'static str, String)>,
        ctx: TraceContext,
    ) {
        let event = TraceEvent {
            ts_ms: self.clock.now_ms(),
            phase,
            category,
            name: name.to_string(),
            args,
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_span_id: ctx.parent_span_id,
        };
        self.events.lock().expect("trace poisoned").push(event);
    }

    /// Emits an instant event stamped with the current virtual time; pass
    /// [`TraceContext::none()`] for an untraced one. An event whose args
    /// include a `dur_ms` key is treated as a retroactive leaf span by the
    /// critical-path analyzer (covering `[ts - dur, ts]`).
    pub fn event(
        &self,
        category: &'static str,
        name: &str,
        args: Vec<(&'static str, String)>,
        ctx: TraceContext,
    ) {
        self.push(Phase::Instant, category, name, args, ctx);
    }

    /// Emits the producer half of a cross-subsystem flow edge.
    pub fn flow_start(&self, category: &'static str, name: &str, ctx: TraceContext) {
        self.push(Phase::FlowStart, category, name, vec![], ctx);
    }

    /// Emits the consumer half of a cross-subsystem flow edge.
    pub fn flow_finish(&self, category: &'static str, name: &str, ctx: TraceContext) {
        self.push(Phase::FlowFinish, category, name, vec![], ctx);
    }

    /// Opens a span: emits a `Begin` event carrying `args` now and an `End`
    /// event when the guard drops. Both repeat `ctx`'s ids, so begin/end
    /// pairs match by `span_id`; pass [`TraceContext::none()`] for an
    /// untraced span.
    #[must_use]
    pub fn span(
        &self,
        category: &'static str,
        name: &str,
        args: Vec<(&'static str, String)>,
        ctx: TraceContext,
    ) -> Span<'_> {
        self.push(Phase::Begin, category, name, args, ctx);
        Span {
            telemetry: self,
            category,
            name: name.to_string(),
            ctx,
        }
    }

    /// Records a weighted exemplar trace id under `key`, retaining the
    /// `EXEMPLARS_PER_KEY` heaviest (ties broken oldest-first). Used to
    /// point a scaling decision's cause chain at the traces behind it.
    pub fn note_exemplar(&self, key: &'static str, trace_id: u64, weight: u64) {
        if trace_id == 0 {
            return;
        }
        let mut map = self.exemplars.lock().expect("exemplar map poisoned");
        retain_heaviest(map.entry(key).or_default(), [(weight, trace_id)]);
    }

    /// The exemplar trace ids recorded under `key`, heaviest first.
    #[must_use]
    pub fn exemplars(&self, key: &'static str) -> Vec<u64> {
        self.exemplars
            .lock()
            .expect("exemplar map poisoned")
            .get(key)
            .map(|entries| entries.iter().map(|&(_, id)| id).collect())
            .unwrap_or_default()
    }

    /// A copy of all trace events in emission order.
    #[must_use]
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace poisoned").clone()
    }

    /// The trace as JSON Lines.
    #[must_use]
    pub fn trace_jsonl(&self) -> String {
        export::trace_jsonl(&self.trace_events())
    }

    /// The trace as a chrome://tracing JSON document.
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        export::chrome_trace_json(&self.trace_events())
    }

    /// The metrics as a Prometheus-style text snapshot.
    #[must_use]
    pub fn prometheus(&self) -> String {
        export::prometheus_text(&self.registry)
    }

    /// Folds finished traces into a per-subsystem critical-path report.
    #[must_use]
    pub fn critical_path(&self) -> CriticalPathReport {
        critical_path::analyze(&self.trace_events())
    }

    /// Folds another telemetry bundle into this one.
    ///
    /// Designed for fan-out/fan-in runs: each worker records into a private
    /// bundle, and the coordinator absorbs the bundles **in a fixed order**
    /// (e.g. sweep-point index). Events are appended in the other bundle's
    /// emission order with their timestamps offset by this bundle's current
    /// virtual time; metrics merge per [`Registry::merge_from`]; exemplars
    /// merge under [`Telemetry::note_exemplar`]'s rule, the other bundle's
    /// counting as the newer; the clock advances past the other bundle's
    /// end. Absorbing the same bundles in the same order therefore yields
    /// byte-identical exports regardless of how many workers produced them.
    pub fn absorb(&self, other: &Telemetry) {
        let base = self.clock.now_ms();
        let mut absorbed = other.trace_events();
        for event in &mut absorbed {
            event.ts_ms += base;
        }
        self.events.lock().expect("trace poisoned").extend(absorbed);
        self.registry.merge_from(other.registry());
        let theirs = other
            .exemplars
            .lock()
            .expect("exemplar map poisoned")
            .clone();
        let mut ours = self.exemplars.lock().expect("exemplar map poisoned");
        for (key, entries) in theirs {
            retain_heaviest(ours.entry(key).or_default(), entries);
        }
        self.clock.set_at_least_ms(base + other.clock.now_ms());
    }

    /// Writes the full per-run report (`snapshot.prom`, `trace.jsonl`,
    /// `trace.chrome.json`) into `dir`, creating it if needed.
    ///
    /// # Errors
    /// Propagates any filesystem error.
    pub fn write_report(&self, dir: &Path) -> io::Result<Report> {
        std::fs::create_dir_all(dir)?;
        let report = Report {
            snapshot: dir.join("snapshot.prom"),
            trace_jsonl: dir.join("trace.jsonl"),
            trace_chrome: dir.join("trace.chrome.json"),
        };
        std::fs::write(&report.snapshot, self.prometheus())?;
        std::fs::write(&report.trace_jsonl, self.trace_jsonl())?;
        std::fs::write(&report.trace_chrome, self.chrome_trace_json())?;
        Ok(report)
    }
}

/// A RAII span guard: emits the matching `End` event when dropped.
#[derive(Debug)]
pub struct Span<'t> {
    telemetry: &'t Telemetry,
    category: &'static str,
    name: String,
    ctx: TraceContext,
}

impl Span<'_> {
    /// The span's causal context (absent for uninstrumented spans).
    #[must_use]
    pub fn ctx(&self) -> TraceContext {
        self.ctx
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.telemetry
            .push(Phase::End, self.category, &self.name, vec![], self.ctx);
    }
}

/// Appends `entries` (oldest first) and keeps the `EXEMPLARS_PER_KEY`
/// heaviest. The sort is stable, so equal weights keep insertion order and
/// the retained set is a pure function of the (deterministic) emission
/// sequence.
fn retain_heaviest(kept: &mut Vec<(u64, u64)>, entries: impl IntoIterator<Item = (u64, u64)>) {
    kept.extend(entries);
    kept.sort_by_key(|&(weight, _)| std::cmp::Reverse(weight));
    kept.truncate(EXEMPLARS_PER_KEY);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // A continued state is one pass over the concatenation.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn span_emits_begin_and_end_with_virtual_timestamps() {
        let t = Telemetry::new();
        t.clock().set_at_least_ms(10);
        {
            let _span = t.span(
                "test",
                "work",
                vec![("job", "j1".to_string())],
                TraceContext::none(),
            );
            t.clock().set_at_least_ms(25);
            t.event("test", "milestone", vec![], TraceContext::none());
        }
        let events = t.trace_events();
        assert_eq!(events.len(), 3);
        assert_eq!((events[0].phase, events[0].ts_ms), (Phase::Begin, 10));
        assert_eq!((events[1].phase, events[1].ts_ms), (Phase::Instant, 25));
        assert_eq!((events[2].phase, events[2].ts_ms), (Phase::End, 25));
        assert_eq!(events[2].name, "work");
    }

    #[test]
    fn ctx_spans_repeat_ids_on_both_ends_and_flows_carry_them() {
        let t = Telemetry::new();
        t.set_trace_seed(0xBEEF);
        let root = t.mint_root();
        let child = t.mint_child(root);
        t.flow_start("bus", "publish", root);
        {
            let span = t.span("service", "deliver", vec![], child);
            assert_eq!(span.ctx(), child);
        }
        t.flow_finish("bus", "ack", root);
        let events = t.trace_events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].phase, Phase::FlowStart);
        assert_eq!(events[0].trace_id, root.trace_id);
        assert_eq!(events[1].span_id, child.span_id);
        assert_eq!(events[2].span_id, child.span_id, "End repeats span id");
        assert_eq!(events[2].parent_span_id, root.span_id);
        assert_eq!(events[3].phase, Phase::FlowFinish);
    }

    #[test]
    fn exemplars_keep_heaviest_trace_ids() {
        let t = Telemetry::new();
        t.note_exemplar("acks", 0, 999); // absent ids are dropped
        for (id, weight) in [(1, 10), (2, 50), (3, 20), (4, 5), (5, 40), (6, 30)] {
            t.note_exemplar("acks", id, weight);
        }
        assert_eq!(t.exemplars("acks"), vec![2, 5, 6, 3]);
        assert!(t.exemplars("other").is_empty());
    }

    #[test]
    fn absorb_merges_exemplars_heaviest_first_oldest_on_ties() {
        let main = Telemetry::new();
        for (id, weight) in [(1, 10), (2, 50), (3, 30)] {
            main.note_exemplar("acks", id, weight);
        }
        let worker = Telemetry::new();
        for (id, weight) in [(4, 30), (5, 60), (6, 5)] {
            worker.note_exemplar("acks", id, weight);
        }
        worker.note_exemplar("stalls", 7, 1);
        main.absorb(&worker);
        // The absorbed bundle counts as newer: its weight-30 id follows ours.
        assert_eq!(main.exemplars("acks"), vec![5, 2, 3, 4]);
        assert_eq!(main.exemplars("stalls"), vec![7]);
    }

    #[test]
    fn absorb_merges_metrics_events_and_clock() {
        let main = Telemetry::new();
        main.registry().counter("securecloud_ops_total", &[]).add(3);
        main.clock().set_at_least_ms(5);
        main.event("test", "before", vec![], TraceContext::none());

        let worker = Telemetry::new();
        worker
            .registry()
            .counter("securecloud_ops_total", &[])
            .add(4);
        worker.registry().gauge("securecloud_depth", &[]).set(7);
        worker
            .registry()
            .histogram("securecloud_lat_ms", &[])
            .observe(100);
        worker.clock().set_at_least_ms(2);
        worker.event("test", "inner", vec![], TraceContext::none());

        main.absorb(&worker);

        assert_eq!(
            main.registry()
                .counter("securecloud_ops_total", &[])
                .value(),
            7
        );
        assert_eq!(main.registry().gauge("securecloud_depth", &[]).value(), 7);
        assert_eq!(
            main.registry().histogram("securecloud_lat_ms", &[]).count(),
            1
        );
        let events = main.trace_events();
        assert_eq!(events.len(), 2);
        assert_eq!((events[1].name.as_str(), events[1].ts_ms), ("inner", 7));
        assert_eq!(main.clock().now_ms(), 7);
    }

    #[test]
    fn absorb_replays_adoption_with_last_adopter_wins() {
        let main = Telemetry::new();
        let stale = Counter::new();
        stale.add(1);
        main.registry()
            .adopt("securecloud_engine_total", &[], Metric::Counter(stale));

        let worker = Telemetry::new();
        let fresh = Counter::new();
        fresh.add(9);
        worker
            .registry()
            .adopt("securecloud_engine_total", &[], Metric::Counter(fresh));

        main.absorb(&worker);
        let snapshot = main.registry().snapshot();
        let (_, metric) = &snapshot[0];
        match metric {
            Metric::Counter(c) => assert_eq!(c.value(), 9),
            other => panic!("expected counter, got {other:?}"),
        }
    }

    #[test]
    fn absorb_order_determines_output_identically_across_runs() {
        let build_worker = |n: u64| {
            let t = Telemetry::new();
            t.registry().counter("securecloud_ops_total", &[]).add(n);
            t.event("test", &format!("point-{n}"), vec![], TraceContext::none());
            t
        };
        let render = |workers: &[Telemetry]| {
            let main = Telemetry::new();
            for w in workers {
                main.absorb(w);
            }
            (main.prometheus(), main.trace_jsonl())
        };
        let a = render(&[build_worker(1), build_worker(2), build_worker(3)]);
        let b = render(&[build_worker(1), build_worker(2), build_worker(3)]);
        assert_eq!(a, b);
    }

    #[test]
    fn write_report_produces_all_three_files() {
        let t = Telemetry::new();
        t.registry().counter("securecloud_demo_total", &[]).inc();
        t.event("test", "tick", vec![], TraceContext::none());
        let dir = std::env::temp_dir().join("securecloud-telemetry-report-test");
        let report = t.write_report(&dir).expect("report");
        for path in [&report.snapshot, &report.trace_jsonl, &report.trace_chrome] {
            let data = std::fs::read_to_string(path).expect("artifact readable");
            assert!(!data.is_empty());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
