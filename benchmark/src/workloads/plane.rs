//! The sealed stream plane, two ways.
//!
//! Untraced passes drive the product's own [`StreamPlane`]. Traced passes
//! drive [`OpenPlane`]: the same plane re-assembled from the public pieces
//! `StreamPlane` is made of, with a span around each call into a layer and
//! a timing decorator around every operator. Both do the same computation —
//! the traced run asserts the same result digest and the same simulated
//! cycles — so the breakdown is of the work the end-to-end numbers measure.

use std::collections::BTreeMap;

use securecloud_eventbus::bus::{BusStats, Message, SubscriberId};
use securecloud_eventbus::service::{MicroService, ServiceCtx, ServiceHost};
use securecloud_scbr::engine::EngineStats;
use securecloud_scbr::secure::{ClientId, RouterClient, SecureRouter};
use securecloud_scbr::types::{Op, Predicate, Publication, Subscription, Value};
use securecloud_sgx::enclave::{EnclaveConfig, Platform};
use securecloud_sgx::mem::MemStats;
use securecloud_streaming::operator::ATTR_STREAM;
use securecloud_streaming::pipeline::{PlaneConfig, StreamPlane};
use securecloud_telemetry::context::ContextMinter;

use crate::trace;

/// Errors are reported, never matched on: a failed op is a failed op.
pub type PlaneResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Wraps an operator so every `handle` call is one span.
struct Timed {
    inner: Box<dyn MicroService>,
    span: &'static str,
}

impl MicroService for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn subscriptions(&self) -> Vec<(String, Option<Subscription>)> {
        self.inner.subscriptions()
    }

    fn handle(&mut self, message: &Message, ctx: &mut ServiceCtx) {
        let _span = trace::span(self.span);
        self.inner.handle(message, ctx);
    }
}

/// [`StreamPlane`], opened into its public pieces. Every method mirrors the
/// private one of the same name in `securecloud_streaming::pipeline`, call
/// for call, so frames, sequence numbers and trace contexts come out equal.
pub struct OpenPlane {
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
    frames_routed: u64,
}

impl OpenPlane {
    fn new(config: &PlaneConfig) -> PlaneResult<Self> {
        let enclave = Platform::new().launch(EnclaveConfig::new(
            "streaming-router",
            b"streaming router code",
        ))?;
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
        Ok(OpenPlane {
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
            frames_routed: 0,
        })
    }

    fn stream_filter(stream: i64) -> Subscription {
        Subscription::new(vec![Predicate::new(
            ATTR_STREAM,
            Op::Eq,
            Value::Int(stream),
        )])
    }

    fn map_input(&mut self, stream: i64, topic: &str) -> PlaneResult<()> {
        let sealed = self
            .consumer
            .seal_subscription(&Self::stream_filter(stream))?;
        self.router.subscribe_sealed(self.consumer_id, &sealed)?;
        self.routes.insert(stream, topic.to_string());
        Ok(())
    }

    fn collect_output(&mut self, stream: i64, topic: &str) -> PlaneResult<()> {
        let sealed = self.sink.seal_subscription(&Self::stream_filter(stream))?;
        self.router.subscribe_sealed(self.sink_id, &sealed)?;
        let collector = self.host.bus_mut().subscribe(topic, None);
        self.collectors.push(collector);
        Ok(())
    }

    fn seal_and_route(
        &mut self,
        from_ingress: bool,
        events: &[Publication],
    ) -> PlaneResult<Vec<(ClientId, Vec<u8>)>> {
        self.batch_seq += 1;
        let ctx = self.minter.mint_root(self.batch_seq);
        let (client, id) = if from_ingress {
            (&mut self.ingress, self.ingress_id)
        } else {
            (&mut self.egress, self.egress_id)
        };
        let sealed = {
            let _span = trace::span("scbr.seal");
            client.seal_publication_batch_traced(events, ctx)?
        };
        let _span = trace::span("scbr.route");
        Ok(self.router.publish_sealed_batch(id, &sealed)?)
    }

    fn ingest(&mut self, events: &[Publication]) -> PlaneResult<()> {
        if events.is_empty() {
            return Ok(());
        }
        let frames = self.seal_and_route(true, events)?;
        self.route_frames(frames)
    }

    fn route_frames(&mut self, frames: Vec<(ClientId, Vec<u8>)>) -> PlaneResult<()> {
        for (owner, frame) in frames {
            self.frames_routed += 1;
            if owner == self.consumer_id {
                let ctx = self.minter.mint_root(self.batch_seq);
                let opened = {
                    let _span = trace::span("scbr.open");
                    self.consumer.open_notification_batch(&frame)?
                };
                let _span = trace::span("eventbus.publish");
                for publication in opened {
                    let stream = match publication.attrs.get(ATTR_STREAM) {
                        Some(Value::Int(stream)) => *stream,
                        _ => return Err("opened event has no stream id".into()),
                    };
                    let topic = self
                        .routes
                        .get(&stream)
                        .ok_or_else(|| format!("no route for stream {stream}"))?;
                    self.host
                        .bus_mut()
                        .publish_with_ctx(topic, Vec::new(), publication, ctx);
                }
            } else if owner == self.sink_id {
                let _span = trace::span("scbr.open");
                self.results
                    .extend(self.sink.open_notification_batch(&frame)?);
            }
        }
        Ok(())
    }

    fn drain_collectors(&mut self) -> PlaneResult<usize> {
        let mut pending = Vec::new();
        {
            let _span = trace::span("eventbus.collect");
            for collector in self.collectors.clone() {
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
        }
        if pending.is_empty() {
            return Ok(0);
        }
        let frames = self.seal_and_route(false, &pending)?;
        self.route_frames(frames)?;
        Ok(pending.len())
    }

    fn run_to_quiet(&mut self) -> PlaneResult<usize> {
        let mut total = 0;
        loop {
            let pumped = {
                let _span = trace::span("eventbus.deliver");
                self.host.pump_switchless(100_000)
            };
            let drained = self.drain_collectors()?;
            total += pumped + drained;
            if pumped == 0 && drained == 0 {
                return Ok(total);
            }
        }
    }
}

/// What the harness can read of the router from outside the plane. The
/// product plane exposes only the enclave's cycle count; the open plane
/// owns its router, so the traced run sees everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouterView {
    pub cycles: u64,
    pub mem: Option<MemStats>,
    pub engine: Option<EngineStats>,
}

/// The plane a stream workload runs on.
pub enum Plane {
    Product(Box<StreamPlane>),
    Open(Box<OpenPlane>),
}

impl Plane {
    /// The product plane, or its opened twin for a traced pass.
    pub fn new(traced: bool) -> PlaneResult<Self> {
        let config = PlaneConfig::default();
        Ok(if traced {
            Plane::Open(Box::new(OpenPlane::new(&config)?))
        } else {
            Plane::Product(Box::new(StreamPlane::new(&config)?))
        })
    }

    pub fn map_input(&mut self, stream: i64, topic: &str) -> PlaneResult<()> {
        match self {
            Plane::Product(p) => Ok(p.map_input(stream, topic)?),
            Plane::Open(p) => p.map_input(stream, topic),
        }
    }

    pub fn collect_output(&mut self, stream: i64, topic: &str) -> PlaneResult<()> {
        match self {
            Plane::Product(p) => Ok(p.collect_output(stream, topic)?),
            Plane::Open(p) => p.collect_output(stream, topic),
        }
    }

    /// Registers an operator; on the open plane every `handle` call becomes
    /// a span named `span`.
    pub fn register_operator(&mut self, operator: Box<dyn MicroService>, span: &'static str) {
        match self {
            Plane::Product(p) => p.register_operator(operator),
            Plane::Open(p) => p.host.register(Box::new(Timed {
                inner: operator,
                span,
            })),
        }
    }

    /// The timed op of the stream workloads: seal and route one batch, then
    /// pump until the bus is quiet.
    pub fn ingest_and_run(&mut self, events: &[Publication]) -> PlaneResult<()> {
        match self {
            Plane::Product(p) => {
                p.ingest(events)?;
                p.run_to_quiet()?;
            }
            Plane::Open(p) => {
                p.ingest(events)?;
                p.run_to_quiet()?;
            }
        }
        Ok(())
    }

    /// End of stream: closes every window still open.
    pub fn flush(&mut self, topic: &str) -> PlaneResult<()> {
        match self {
            Plane::Product(p) => {
                p.flush(topic)?;
            }
            Plane::Open(p) => {
                p.host
                    .bus_mut()
                    .publish(topic, Vec::new(), Publication::new());
                p.run_to_quiet()?;
            }
        }
        Ok(())
    }

    pub fn results(&self) -> &[Publication] {
        match self {
            Plane::Product(p) => p.results(),
            Plane::Open(p) => &p.results,
        }
    }

    pub fn frames_routed(&self) -> u64 {
        match self {
            Plane::Product(p) => p.frames_routed(),
            Plane::Open(p) => p.frames_routed,
        }
    }

    pub fn bus_stats(&self) -> BusStats {
        match self {
            Plane::Product(p) => p.bus().stats(),
            Plane::Open(p) => p.host.bus().stats(),
        }
    }

    pub fn router(&self) -> RouterView {
        match self {
            Plane::Product(p) => RouterView {
                cycles: p.router_cycles(),
                ..RouterView::default()
            },
            Plane::Open(p) => {
                let mem = p.router.enclave().memory_view();
                RouterView {
                    cycles: mem.cycles(),
                    mem: Some(mem.stats()),
                    engine: Some(p.router.stats()),
                }
            }
        }
    }
}

/// The `eventbus.*` and `scbr.*` counts of a stream pass. Lost, refused or
/// dead-lettered messages are returned as the number of failures.
pub fn plane_counts(
    counts: &mut BTreeMap<&'static str, f64>,
    plane: &Plane,
    units: u64,
    ops: usize,
) -> u64 {
    let bus = plane.bus_stats();
    let router = plane.router();
    counts.insert(
        "eventbus.published_per_op",
        bus.published as f64 / units as f64,
    );
    counts.insert(
        "eventbus.delivered_per_op",
        bus.delivered as f64 / units as f64,
    );
    counts.insert("eventbus.redelivered", bus.redelivered as f64);
    counts.insert("eventbus.wasted_fetches", bus.wasted_fetches as f64);
    counts.insert("eventbus.backpressured", bus.backpressured as f64);
    counts.insert("eventbus.dead_lettered", bus.dead_lettered as f64);
    counts.insert(
        "scbr.frames_per_op",
        plane.frames_routed() as f64 / ops as f64,
    );
    counts.insert(
        "scbr.router_cycles_per_op",
        router.cycles as f64 / units as f64,
    );
    if let Some(engine) = router.engine {
        let pubs = engine.publications.max(1) as f64;
        counts.insert(
            "scbr.nodes_visited_per_pub",
            engine.nodes_visited as f64 / pubs,
        );
        counts.insert(
            "scbr.predicates_per_pub",
            engine.predicates_evaluated as f64 / pubs,
        );
        counts.insert("scbr.matches_per_pub", engine.matches as f64 / pubs);
    }
    bus.dead_lettered + bus.backpressured + bus.dropped + bus.nacked
}
