//! The stream plane: SCBR ingress/egress around a service host — plus the
//! city-scale smart-grid pipelines built on it.
//!
//! ```text
//! producers ──seal batch──▶ SecureRouter ──frames──▶ consumer client
//!                              (enclave)                  │ open
//!                                                         ▼
//!                                              EventBus topics (by stream)
//!                                                         │ pump_switchless
//!                                                         ▼
//!                                    WindowedAggregator (1 or 2 lanes)
//!                                                         │ results
//!                                                         ▼
//!            sink ◀──frames── SecureRouter ◀──seal batch── egress client
//! ```
//!
//! Ingress publications are sealed in batches (AEAD frames carrying a
//! trace-context header and the events' timestamps), routed by the
//! enclave-resident [`SecureRouter`] over its switchless plane, opened by
//! the plane's consumer client, and republished onto bus topics by stream
//! id. Operator results are collected from the bus, sealed back through
//! the router, and delivered to the sink client — so both edges of every
//! pipeline cross the secure messaging plane.

use std::collections::BTreeMap;

use securecloud_eventbus::bus::{EventBus, SubscriberId};
use securecloud_eventbus::service::{MicroService, ServiceHost};
use securecloud_scbr::secure::{ClientId, RouterClient, SecureRouter};
use securecloud_scbr::types::{Op, Predicate, Publication, Subscription, Value};
use securecloud_sgx::costs::MemoryGeometry;
use securecloud_sgx::enclave::{EnclaveConfig, Platform};
use securecloud_smartgrid::meters::GridSpec;
use securecloud_smartgrid::quality::{QualitySpec, NOMINAL_VOLTS};
use securecloud_telemetry::context::ContextMinter;
use securecloud_telemetry::rng::{mix64, GOLDEN_GAMMA};

use crate::operator::{
    AggregatorConfig, JoinConfig, StreamEvent, TwoStreamJoin, WindowedAggregator, ATTR_KEY,
    ATTR_MAX, ATTR_MIN, ATTR_RIGHT, ATTR_STREAM, ATTR_VALUE,
};
use crate::state::{OperatorState, SharedState, StateMetrics};
use crate::window::WindowSpec;
use crate::StreamError;

/// Flush control topic for first-stage operators.
pub const FLUSH_STAGE0: &str = "streaming/flush/0";
/// Manual-override flush topic for second-stage operators. In normal
/// operation the second stage closes on the first stage's *in-band*
/// end-of-stream markers instead (see `crate::operator`): a marker on the
/// data topic stays behind the flushed results, a token on this topic
/// could overtake them under batched delivery.
pub const FLUSH_STAGE1: &str = "streaming/flush/1";

/// Plane construction knobs.
#[derive(Debug, Clone)]
pub struct PlaneConfig {
    /// Bus lease duration, milliseconds.
    pub lease_ms: u64,
    /// Messages delivered per subscription per pump round.
    pub delivery_batch: usize,
    /// Whether the router matches over the switchless plane.
    pub switchless: bool,
}

impl Default for PlaneConfig {
    fn default() -> Self {
        PlaneConfig {
            lease_ms: 60_000,
            delivery_batch: 64,
            switchless: true,
        }
    }
}

/// The secure stream plane: one router enclave, one service host, and the
/// four router clients gluing them together.
pub struct StreamPlane {
    router: SecureRouter,
    host: ServiceHost,
    ingress: RouterClient,
    ingress_id: ClientId,
    consumer: RouterClient,
    consumer_id: ClientId,
    egress: RouterClient,
    egress_id: ClientId,
    sink: RouterClient,
    sink_id: ClientId,
    routes: BTreeMap<i64, String>,
    collectors: Vec<SubscriberId>,
    minter: ContextMinter,
    batch_seq: u64,
    results: Vec<Publication>,
    events_ingested: u64,
    frames_routed: u64,
}

impl StreamPlane {
    /// Builds the plane: launches the router enclave, registers the four
    /// clients, completes their key exchanges.
    ///
    /// # Errors
    ///
    /// [`StreamError::Router`] if the enclave fails to launch.
    pub fn new(config: &PlaneConfig) -> Result<Self, StreamError> {
        let platform = Platform::new();
        let enclave = platform
            .launch(EnclaveConfig::new(
                "streaming-router",
                b"streaming router code",
            ))
            .map_err(|_| StreamError::Router(securecloud_scbr::ScbrError::ExchangeIncomplete))?;
        let mut router = SecureRouter::new(enclave, Some(ATTR_STREAM));
        router.set_switchless(config.switchless);
        let mut ingress = RouterClient::new();
        let mut consumer = RouterClient::new();
        let mut egress = RouterClient::new();
        let mut sink = RouterClient::new();
        let ingress_id = router.register(&ingress.public_key());
        let consumer_id = router.register(&consumer.public_key());
        let egress_id = router.register(&egress.public_key());
        let sink_id = router.register(&sink.public_key());
        for client in [&mut ingress, &mut consumer, &mut egress, &mut sink] {
            client.complete_exchange(&router.public_key());
        }
        let mut host = ServiceHost::new(config.lease_ms);
        host.set_delivery_batch(config.delivery_batch);
        Ok(StreamPlane {
            router,
            host,
            ingress,
            ingress_id,
            consumer,
            consumer_id,
            egress,
            egress_id,
            sink,
            sink_id,
            routes: BTreeMap::new(),
            collectors: Vec::new(),
            minter: ContextMinter::new(0x5eed_57ea),
            batch_seq: 0,
            results: Vec::new(),
            events_ingested: 0,
            frames_routed: 0,
        })
    }

    /// Routes input stream `stream` to bus topic `topic`: the consumer
    /// client subscribes (sealed) on the router, and opened events with
    /// that stream id are republished onto the topic.
    ///
    /// # Errors
    ///
    /// [`StreamError::Router`] on a sealed-subscription failure.
    pub fn map_input(&mut self, stream: i64, topic: &str) -> Result<(), StreamError> {
        let sub = Subscription::new(vec![Predicate::new(
            ATTR_STREAM,
            Op::Eq,
            Value::Int(stream),
        )]);
        let sealed = self.consumer.seal_subscription(&sub)?;
        self.router.subscribe_sealed(self.consumer_id, &sealed)?;
        self.routes.insert(stream, topic.to_string());
        Ok(())
    }

    /// Collects operator results published to `topic` under stream id
    /// `stream`: a bus collector drains them, the egress client seals them
    /// back through the router, and the sink client receives the frames.
    ///
    /// # Errors
    ///
    /// [`StreamError::Router`] on a sealed-subscription failure.
    pub fn collect_output(&mut self, stream: i64, topic: &str) -> Result<(), StreamError> {
        let sub = Subscription::new(vec![Predicate::new(
            ATTR_STREAM,
            Op::Eq,
            Value::Int(stream),
        )]);
        let sealed = self.sink.seal_subscription(&sub)?;
        self.router.subscribe_sealed(self.sink_id, &sealed)?;
        let collector = self.host.bus_mut().subscribe(topic, None);
        self.collectors.push(collector);
        Ok(())
    }

    /// Registers an operator micro-service on the host.
    pub fn register_operator(&mut self, operator: Box<dyn MicroService>) {
        self.host.register(operator);
    }

    /// Seals `events` into one batch frame, routes it through the enclave,
    /// and republishes the delivered events onto their stream topics.
    ///
    /// # Errors
    ///
    /// [`StreamError::Router`] on sealing/routing failures,
    /// [`StreamError::UnknownStream`] for an unmapped stream id.
    pub fn ingest(&mut self, events: &[Publication]) -> Result<(), StreamError> {
        if events.is_empty() {
            return Ok(());
        }
        self.batch_seq += 1;
        let ctx = self.minter.mint_root(self.batch_seq);
        let sealed = self.ingress.seal_publication_batch_traced(events, ctx)?;
        let frames = self.router.publish_sealed_batch(self.ingress_id, &sealed)?;
        self.events_ingested += events.len() as u64;
        self.route_frames(frames)
    }

    fn route_frames(&mut self, frames: Vec<(ClientId, Vec<u8>)>) -> Result<(), StreamError> {
        for (owner, frame) in frames {
            self.frames_routed += 1;
            if owner == self.consumer_id {
                let ctx = self.minter.mint_root(self.batch_seq);
                for publication in self.consumer.open_notification_batch(&frame)? {
                    let stream = match publication.attrs.get(ATTR_STREAM) {
                        Some(Value::Int(stream)) => *stream,
                        _ => return Err(StreamError::MalformedEvent("missing stream id")),
                    };
                    let topic = self
                        .routes
                        .get(&stream)
                        .ok_or(StreamError::UnknownStream(stream))?;
                    self.host
                        .bus_mut()
                        .publish_with_ctx(topic, Vec::new(), publication, ctx);
                }
            } else if owner == self.sink_id {
                self.results
                    .extend(self.sink.open_notification_batch(&frame)?);
            }
        }
        Ok(())
    }

    fn drain_collectors(&mut self) -> Result<usize, StreamError> {
        let mut pending = Vec::new();
        let collectors = self.collectors.clone();
        for collector in collectors {
            loop {
                let batch = self.host.bus_mut().fetch_batch(collector, 256);
                if batch.is_empty() {
                    break;
                }
                for message in batch {
                    self.host.bus_mut().ack(collector, message.id);
                    pending.push(message.attributes);
                }
            }
        }
        if pending.is_empty() {
            return Ok(0);
        }
        self.batch_seq += 1;
        let ctx = self.minter.mint_root(self.batch_seq);
        let sealed = self.egress.seal_publication_batch_traced(&pending, ctx)?;
        let frames = self.router.publish_sealed_batch(self.egress_id, &sealed)?;
        self.route_frames(frames)?;
        Ok(pending.len())
    }

    /// Pumps operators until the bus quiesces, sealing results out through
    /// the router as they appear. Returns messages processed.
    ///
    /// # Errors
    ///
    /// [`StreamError::Router`] on an egress sealing failure.
    pub fn run_to_quiet(&mut self) -> Result<usize, StreamError> {
        let mut total = 0;
        loop {
            let pumped = self.host.pump_switchless(100_000);
            let drained = self.drain_collectors()?;
            total += pumped + drained;
            if pumped == 0 && drained == 0 {
                return Ok(total);
            }
        }
    }

    /// Publishes the end-of-stream token to `flush_topic` and runs to
    /// quiescence, closing every window still open downstream.
    ///
    /// # Errors
    ///
    /// As [`StreamPlane::run_to_quiet`].
    pub fn flush(&mut self, flush_topic: &str) -> Result<usize, StreamError> {
        self.host
            .bus_mut()
            .publish(flush_topic, Vec::new(), Publication::new());
        self.run_to_quiet()
    }

    /// Results delivered to the sink so far, in delivery order.
    #[must_use]
    pub fn results(&self) -> &[Publication] {
        &self.results
    }

    /// Simulated cycles charged to the router enclave.
    #[must_use]
    pub fn router_cycles(&self) -> u64 {
        self.router.enclave().memory_view().cycles()
    }

    /// Events sealed into the plane so far.
    #[must_use]
    pub fn events_ingested(&self) -> u64 {
        self.events_ingested
    }

    /// Frames the router fanned out (both edges).
    #[must_use]
    pub fn frames_routed(&self) -> u64 {
        self.frames_routed
    }

    /// The bus, read-only (stats).
    #[must_use]
    pub fn bus(&self) -> &EventBus {
        self.host.bus()
    }
}

// ---------------------------------------------------------------------------
// City-scale smart-grid pipelines.
// ---------------------------------------------------------------------------

/// Input stream: per-meter reported readings.
pub const STREAM_READINGS: i64 = 1;
/// Input stream: per-feeder substation totals (actual consumption).
pub const STREAM_FEEDER_TOTALS: i64 = 2;
/// Input stream: per-feeder voltage samples.
pub const STREAM_VOLTAGE: i64 = 3;
/// Result stream: per-meter windowed usage.
pub const STREAM_METER_USAGE: i64 = 10;
/// Result stream: per-feeder windowed loss (actual minus reported).
pub const STREAM_FEEDER_LOSS: i64 = 11;
/// Result stream: per-feeder power-quality rollups.
pub const STREAM_QUALITY: i64 = 12;

/// Attribute carrying the feeder id on meter readings.
pub const ATTR_FEEDER: &str = "feeder";

/// A city of feeders: each feeder is one [`GridSpec`] neighbourhood.
#[derive(Debug, Clone)]
pub struct CitySpec {
    /// Number of distribution feeders.
    pub feeders: usize,
    /// Households (meters) per feeder.
    pub households_per_feeder: usize,
    /// Meter sampling interval, seconds.
    pub interval_secs: u64,
    /// Trace duration, seconds.
    pub duration_secs: u64,
    /// Fraction of households committing theft.
    pub theft_fraction: f64,
    /// Thieves report this fraction of true consumption.
    pub theft_scale: f64,
    /// Base RNG seed (per-feeder seeds derive from it).
    pub seed: u64,
}

impl Default for CitySpec {
    fn default() -> Self {
        CitySpec {
            feeders: 4,
            households_per_feeder: 10,
            interval_secs: 300,
            duration_secs: 3_600,
            theft_fraction: 0.2,
            theft_scale: 0.4,
            seed: 11,
        }
    }
}

/// The SplitMix64 finaliser over the (seed, lane) pair.
fn mix_seed(seed: u64, lane: u64) -> u64 {
    mix64(seed ^ lane.wrapping_mul(GOLDEN_GAMMA))
}

impl CitySpec {
    /// A city-scale grid: 400 feeders x 250 households = 100k meters.
    #[must_use]
    pub fn city() -> Self {
        CitySpec {
            feeders: 400,
            households_per_feeder: 250,
            interval_secs: 900,
            duration_secs: 2 * 3_600,
            ..CitySpec::default()
        }
    }

    /// Total meter count.
    #[must_use]
    pub fn meters(&self) -> usize {
        self.feeders * self.households_per_feeder
    }

    /// Samples per trace.
    #[must_use]
    pub fn samples(&self) -> usize {
        (self.duration_secs / self.interval_secs.max(1)) as usize
    }

    /// The [`GridSpec`] for feeder `feeder`, with a derived seed so
    /// neighbourhoods differ but the whole city is reproducible.
    #[must_use]
    pub fn feeder_spec(&self, feeder: usize) -> GridSpec {
        GridSpec {
            households: self.households_per_feeder,
            interval_secs: self.interval_secs,
            duration_secs: self.duration_secs,
            theft_fraction: self.theft_fraction,
            theft_scale: self.theft_scale,
            seed: mix_seed(self.seed, feeder as u64),
        }
    }
}

/// Deployment knobs for the city pipelines.
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// The city being simulated.
    pub spec: CitySpec,
    /// Window shape for all aggregators.
    pub windows: WindowSpec,
    /// Enclave memory geometry for operator state (shrink the EPC to put
    /// the meter-keyed state under pressure).
    pub geometry: MemoryGeometry,
    /// Events sealed per ingress batch frame.
    pub ingest_batch: usize,
    /// Plane construction knobs.
    pub plane: PlaneConfig,
    /// Flag a feeder when its windowed loss fraction exceeds this.
    pub theft_threshold: f64,
    /// Injected power-quality faults per feeder trace.
    pub faults_per_feeder: usize,
}

impl Default for CityConfig {
    fn default() -> Self {
        CityConfig {
            spec: CitySpec::default(),
            windows: WindowSpec::tumbling(900_000).expect("non-zero"),
            geometry: MemoryGeometry::sgx_v1(),
            ingest_batch: 256,
            plane: PlaneConfig::default(),
            theft_threshold: 0.02,
            faults_per_feeder: 1,
        }
    }
}

/// What one city run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CityRunReport {
    /// Events sealed into the plane.
    pub events_ingested: u64,
    /// Per-(meter, window) usage results (key-cardinality witness).
    pub meter_results: u64,
    /// Per-(feeder, window) loss results from the join.
    pub loss_windows: u64,
    /// Feeders whose mean loss fraction exceeded the threshold, ascending.
    pub flagged_feeders: Vec<u64>,
    /// Feeders hosting meters that actually under-report, ascending
    /// (ground truth for the detector).
    pub theft_feeders: Vec<u64>,
    /// Quality rollup windows whose minimum dipped below 0.9 pu.
    pub sag_windows: u64,
    /// Quality rollup windows whose maximum exceeded 1.1 pu.
    pub swell_windows: u64,
    /// FNV-1a digest over every sink result, in delivery order — the
    /// byte-identity witness for `--jobs N` determinism checks.
    pub results_digest: u64,
}

/// The two live city pipelines over one [`StreamPlane`]:
///
/// 1. **Theft detection** — per-meter usage rollups (the key-cardinality
///    driver) plus a per-feeder join of customer-reported sums against
///    substation-metered totals; the delta is non-technical loss.
/// 2. **Power quality** — per-feeder voltage min/max/mean rollups with
///    sag/swell classification against the ±10 % band.
pub struct CityPipelines {
    plane: StreamPlane,
    config: CityConfig,
    states: Vec<SharedState>,
}

impl CityPipelines {
    /// Deploys both pipelines on a fresh plane.
    ///
    /// # Errors
    ///
    /// [`StreamError::Router`] on plane construction failures.
    pub fn deploy(config: CityConfig) -> Result<Self, StreamError> {
        let mut plane = StreamPlane::new(&config.plane)?;
        plane.map_input(STREAM_READINGS, "grid/readings")?;
        plane.map_input(STREAM_FEEDER_TOTALS, "grid/totals")?;
        plane.map_input(STREAM_VOLTAGE, "grid/voltage")?;

        let storage = OperatorState::default_storage();
        let state =
            |name: &'static str| OperatorState::shared(name, config.geometry, storage.clone());

        // Meter-keyed usage: the operator whose key cardinality scales
        // with the city (10^5..10^6 accumulators per window).
        let meter_state = state("meter-usage");
        plane.register_operator(Box::new(WindowedAggregator::new(
            AggregatorConfig {
                name: "meter-usage".into(),
                input: "grid/readings".into(),
                output: "grid/meter_usage".into(),
                output_stream: STREAM_METER_USAGE,
                key_attr: ATTR_KEY.into(),
                windows: config.windows,
                flush_in: FLUSH_STAGE0.into(),
                flush_out: None,
            },
            meter_state.clone(),
        )));

        // The same readings re-keyed by feeder: customer-reported sums.
        // End-of-stream forwards *in-band* on the output topic, so the
        // marker can never overtake the flushed results under batched
        // delivery (see `crate::operator` docs).
        let reported_state = state("feeder-reported");
        plane.register_operator(Box::new(WindowedAggregator::new(
            AggregatorConfig {
                name: "feeder-reported".into(),
                input: "grid/readings".into(),
                output: "grid/feeder_reported".into(),
                output_stream: 20,
                key_attr: ATTR_FEEDER.into(),
                windows: config.windows,
                flush_in: FLUSH_STAGE0.into(),
                flush_out: Some("grid/feeder_reported".into()),
            },
            reported_state.clone(),
        )));

        // Substation totals: what the feeder actually delivered.
        let actual_state = state("feeder-actual");
        plane.register_operator(Box::new(WindowedAggregator::new(
            AggregatorConfig {
                name: "feeder-actual".into(),
                input: "grid/totals".into(),
                output: "grid/feeder_actual".into(),
                output_stream: 21,
                key_attr: ATTR_KEY.into(),
                windows: config.windows,
                flush_in: FLUSH_STAGE0.into(),
                flush_out: Some("grid/feeder_actual".into()),
            },
            actual_state.clone(),
        )));

        // reported ⋈ actual per (feeder, window): delta = unbilled loss.
        // A tumbling window of the upstream stride pairs upstream windows
        // one-to-one. The join closes on the upstreams' in-band markers;
        // FLUSH_STAGE1 remains wired as a manual override.
        let join_state = state("loss-join");
        plane.register_operator(Box::new(TwoStreamJoin::new(
            JoinConfig {
                name: "loss-join".into(),
                left: "grid/feeder_reported".into(),
                right: "grid/feeder_actual".into(),
                output: "grid/loss".into(),
                output_stream: STREAM_FEEDER_LOSS,
                windows: WindowSpec::tumbling(config.windows.stride_ms())?,
                flush_in: FLUSH_STAGE1.into(),
                flush_fan_in: 2,
                flush_out: None,
            },
            join_state.clone(),
        )));

        // Per-feeder voltage rollups for power quality.
        let quality_state = state("quality-rollup");
        plane.register_operator(Box::new(WindowedAggregator::new(
            AggregatorConfig {
                name: "quality-rollup".into(),
                input: "grid/voltage".into(),
                output: "grid/quality_rollup".into(),
                output_stream: STREAM_QUALITY,
                key_attr: ATTR_KEY.into(),
                windows: config.windows,
                flush_in: FLUSH_STAGE0.into(),
                flush_out: None,
            },
            quality_state.clone(),
        )));

        plane.collect_output(STREAM_METER_USAGE, "grid/meter_usage")?;
        plane.collect_output(STREAM_FEEDER_LOSS, "grid/loss")?;
        plane.collect_output(STREAM_QUALITY, "grid/quality_rollup")?;

        Ok(CityPipelines {
            plane,
            config,
            states: vec![
                meter_state,
                reported_state,
                actual_state,
                join_state,
                quality_state,
            ],
        })
    }

    /// Generates the city's traces, streams them through both pipelines in
    /// time-major order, flushes, and summarises the sink results.
    ///
    /// # Errors
    ///
    /// [`StreamError::Router`] on sealing/routing failures.
    pub fn run(&mut self) -> Result<CityRunReport, StreamError> {
        let spec = self.config.spec.clone();
        let samples = spec.samples();
        let interval_ms = spec.interval_secs.max(1) * 1_000;
        let mut theft_feeders = Vec::new();
        let mut feeders = Vec::with_capacity(spec.feeders);
        for feeder in 0..spec.feeders {
            let traces = spec.feeder_spec(feeder).generate();
            if traces.iter().any(|t| t.is_theft) {
                theft_feeders.push(feeder as u64);
            }
            let voltage = QualitySpec {
                samples,
                interval_ms,
                faults: self.config.faults_per_feeder,
                seed: mix_seed(spec.seed, 0x0700 + feeder as u64),
            }
            .generate();
            feeders.push((traces, voltage));
        }

        let mut batch: Vec<Publication> = Vec::with_capacity(self.config.ingest_batch);
        for sample in 0..samples {
            let t_ms = sample as u64 * interval_ms;
            for (feeder, (traces, voltage)) in feeders.iter().enumerate() {
                let feeder_id = feeder as u64;
                let mut actual_total = 0.0;
                for trace in traces {
                    let meter = feeder_id * spec.households_per_feeder as u64 + trace.meter;
                    actual_total += trace.actual[sample];
                    batch.push(
                        StreamEvent {
                            key: meter,
                            t_ms,
                            value: trace.reported[sample],
                        }
                        .publication(STREAM_READINGS)
                        .with(ATTR_FEEDER, Value::Int(feeder_id as i64)),
                    );
                    self.flush_batch_if_full(&mut batch)?;
                }
                batch.push(
                    StreamEvent {
                        key: feeder_id,
                        t_ms,
                        value: actual_total,
                    }
                    .publication(STREAM_FEEDER_TOTALS),
                );
                self.flush_batch_if_full(&mut batch)?;
                batch.push(
                    StreamEvent {
                        key: feeder_id,
                        t_ms,
                        value: voltage.samples[sample],
                    }
                    .publication(STREAM_VOLTAGE),
                );
                self.flush_batch_if_full(&mut batch)?;
            }
        }
        self.plane.ingest(&batch)?;
        batch.clear();
        self.plane.run_to_quiet()?;
        self.plane.flush(FLUSH_STAGE0)?;
        Ok(self.report(theft_feeders))
    }

    fn flush_batch_if_full(&mut self, batch: &mut Vec<Publication>) -> Result<(), StreamError> {
        if batch.len() >= self.config.ingest_batch {
            self.plane.ingest(batch)?;
            batch.clear();
            self.plane.run_to_quiet()?;
        }
        Ok(())
    }

    fn report(&self, theft_feeders: Vec<u64>) -> CityRunReport {
        let mut meter_results = 0;
        let mut loss_windows = 0;
        let mut sag_windows = 0;
        let mut swell_windows = 0;
        // feeder -> (sum of deltas, sum of actuals) over its windows.
        let mut loss_by_feeder: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for result in self.plane.results() {
            let int = |attr: &str| match result.attrs.get(attr) {
                Some(Value::Int(v)) => *v,
                _ => -1,
            };
            let float = |attr: &str| match result.attrs.get(attr) {
                Some(Value::Float(v)) => *v,
                _ => f64::NAN,
            };
            match int(ATTR_STREAM) {
                STREAM_METER_USAGE => meter_results += 1,
                STREAM_FEEDER_LOSS => {
                    loss_windows += 1;
                    let entry = loss_by_feeder
                        .entry(int(ATTR_KEY) as u64)
                        .or_insert((0.0, 0.0));
                    entry.0 += float(ATTR_VALUE);
                    entry.1 += float(ATTR_RIGHT);
                }
                STREAM_QUALITY => {
                    if float(ATTR_MIN) < 0.9 * NOMINAL_VOLTS {
                        sag_windows += 1;
                    }
                    if float(ATTR_MAX) > 1.1 * NOMINAL_VOLTS {
                        swell_windows += 1;
                    }
                }
                _ => {}
            }
        }
        let flagged_feeders = loss_by_feeder
            .iter()
            .filter(|(_, (delta, actual))| {
                *actual > 0.0 && delta / actual > self.config.theft_threshold
            })
            .map(|(feeder, _)| *feeder)
            .collect();
        CityRunReport {
            events_ingested: self.plane.events_ingested(),
            meter_results,
            loss_windows,
            flagged_feeders,
            theft_feeders,
            sag_windows,
            swell_windows,
            results_digest: results_digest(self.plane.results()),
        }
    }

    /// The underlying plane (results, router cycles).
    #[must_use]
    pub fn plane(&self) -> &StreamPlane {
        &self.plane
    }

    /// Summed stream counters across every operator.
    #[must_use]
    pub fn operator_metrics(&self) -> StateMetrics {
        let mut total = StateMetrics::default();
        for state in &self.states {
            let metrics = state.lock().metrics;
            total.events += metrics.events;
            total.results += metrics.results;
            total.late_dropped += metrics.late_dropped;
            total.malformed += metrics.malformed;
        }
        total
    }

    /// Summed simulated cycles across every operator's memory.
    #[must_use]
    pub fn operator_cycles(&self) -> u64 {
        self.states.iter().map(|s| s.lock().cycles()).sum()
    }

    /// Summed (EPC faults, host bytes read, host bytes written) across
    /// every operator's memory.
    #[must_use]
    pub fn operator_paging(&self) -> (u64, u64, u64) {
        let mut faults = 0;
        let mut reads = 0;
        let mut writes = 0;
        for state in &self.states {
            let stats = state.lock().mem_stats();
            faults += stats.epc_faults;
            reads += stats.host_read_bytes;
            writes += stats.host_write_bytes;
        }
        (faults, reads, writes)
    }

    /// Summed high-water state bytes across every operator (closed windows
    /// drain, so this — not the final residue — is what pressed the EPC).
    #[must_use]
    pub fn peak_state_bytes(&self) -> u64 {
        self.states
            .iter()
            .map(|s| s.lock().peak_state_bytes())
            .sum()
    }
}

/// FNV-1a over every result's attributes in delivery order: equal digests
/// mean byte-identical streaming output.
#[must_use]
pub fn results_digest(results: &[Publication]) -> u64 {
    let mut hash = securecloud_telemetry::FNV_OFFSET;
    let mut eat = |bytes: &[u8]| hash = securecloud_telemetry::fnv1a(hash, bytes);
    for result in results {
        for (attr, value) in &result.attrs {
            eat(attr.as_bytes());
            match value {
                Value::Int(v) => eat(&v.to_le_bytes()),
                Value::Float(v) => eat(&v.to_bits().to_le_bytes()),
                Value::Str(v) => eat(v.as_bytes()),
            }
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_seed_is_pinned() {
        assert_eq!(mix_seed(11, 0x0703), 0x3129_d906_0e16_77d9);
    }

    #[test]
    fn plane_round_trips_events_through_router_and_operators() {
        let mut plane = StreamPlane::new(&PlaneConfig::default()).unwrap();
        plane.map_input(1, "in").unwrap();
        let state = OperatorState::shared(
            "sum",
            MemoryGeometry::sgx_v1(),
            OperatorState::default_storage(),
        );
        plane.register_operator(Box::new(WindowedAggregator::new(
            AggregatorConfig {
                name: "sum".into(),
                input: "in".into(),
                output: "out".into(),
                output_stream: 10,
                key_attr: ATTR_KEY.into(),
                windows: WindowSpec::tumbling(60_000).unwrap(),
                flush_in: FLUSH_STAGE0.into(),
                flush_out: None,
            },
            state,
        )));
        plane.collect_output(10, "out").unwrap();
        let events: Vec<Publication> = [(1u64, 1_000u64, 2.0), (1, 2_000, 3.0), (2, 2_500, 7.0)]
            .iter()
            .map(|&(key, t_ms, value)| StreamEvent { key, t_ms, value }.publication(1))
            .collect();
        plane.ingest(&events).unwrap();
        plane.run_to_quiet().unwrap();
        assert!(plane.results().is_empty(), "windows still open");
        plane.flush(FLUSH_STAGE0).unwrap();
        let results = plane.results();
        assert_eq!(results.len(), 2, "one result per key");
        assert!(plane.router_cycles() > 0, "router work is charged");
        let sums: Vec<f64> = results
            .iter()
            .map(|r| match r.attrs[ATTR_VALUE] {
                Value::Float(v) => v,
                _ => panic!("float"),
            })
            .collect();
        assert_eq!(sums, vec![5.0, 7.0]);
        // Results crossed the sealed egress: digest is stable.
        assert_eq!(results_digest(results), results_digest(results));
    }

    #[test]
    fn unknown_stream_is_a_typed_error() {
        let mut plane = StreamPlane::new(&PlaneConfig::default()).unwrap();
        plane.map_input(1, "in").unwrap();
        // Subscribe the consumer to stream 2 as well, but add no route for
        // it: delivery must fail loudly, not drop silently.
        let sub = Subscription::new(vec![Predicate::new(ATTR_STREAM, Op::Eq, Value::Int(2))]);
        let sealed = plane.consumer.seal_subscription(&sub).unwrap();
        plane
            .router
            .subscribe_sealed(plane.consumer_id, &sealed)
            .unwrap();
        let event = StreamEvent {
            key: 1,
            t_ms: 0,
            value: 1.0,
        }
        .publication(2);
        let err = plane.ingest(&[event]).unwrap_err();
        assert!(matches!(err, StreamError::UnknownStream(2)));
    }

    #[test]
    fn city_pipelines_detect_theft_and_quality_deterministically() {
        let config = CityConfig {
            spec: CitySpec {
                feeders: 3,
                households_per_feeder: 6,
                interval_secs: 300,
                duration_secs: 3_600,
                theft_fraction: 0.5,
                theft_scale: 0.3,
                seed: 21,
            },
            windows: WindowSpec::tumbling(900_000).unwrap(),
            ..CityConfig::default()
        };
        let mut first = CityPipelines::deploy(config.clone()).unwrap();
        let report = first.run().unwrap();
        assert_eq!(report.events_ingested as usize, (18 + 3 + 3) * 12);
        assert!(report.meter_results > 0, "per-meter rollups flowed");
        assert!(report.loss_windows > 0, "join produced loss windows");
        assert_eq!(
            report.flagged_feeders, report.theft_feeders,
            "loss fractions flag exactly the feeders with thieves"
        );
        assert!(first.operator_cycles() > 0);
        // Same seed, second deployment: byte-identical results.
        let mut second = CityPipelines::deploy(config).unwrap();
        let again = second.run().unwrap();
        assert_eq!(again, report, "equal-seed runs are identical");
    }

    #[test]
    fn final_window_survives_batched_delivery() {
        // Regression: one trace-spanning window, more feeders than the
        // delivery batch — every loss window closes via the end-of-stream
        // cascade, which must not overtake upstream results still queued.
        let config = CityConfig {
            spec: CitySpec {
                feeders: 6,
                households_per_feeder: 4,
                interval_secs: 600,
                duration_secs: 3_600,
                theft_fraction: 0.5,
                theft_scale: 0.3,
                seed: 33,
            },
            windows: WindowSpec::tumbling(3_600_000).unwrap(),
            plane: PlaneConfig {
                delivery_batch: 4,
                ..PlaneConfig::default()
            },
            ..CityConfig::default()
        };
        let mut pipelines = CityPipelines::deploy(config).unwrap();
        let report = pipelines.run().unwrap();
        assert_eq!(report.loss_windows, 6, "one loss window per feeder");
        assert_eq!(report.flagged_feeders, report.theft_feeders);
        assert_eq!(pipelines.operator_metrics().late_dropped, 0);
    }
}
