//! `msg_relay` — the sealed messaging plane on its own: one stateless alert
//! filter, no operator state, so the kvstore and storage crates make no
//! call at all. Four AEAD passes per frame, the router's frame handling
//! and bus delivery do all of the work.

use std::collections::BTreeMap;

use securecloud_eventbus::bus::Message;
use securecloud_eventbus::service::{MicroService, ServiceCtx};
use securecloud_scbr::types::{Publication, Subscription, Value};
use securecloud_smartgrid::quality::{QualitySpec, NOMINAL_VOLTS};
use securecloud_streaming::operator::{ATTR_KEY, ATTR_TIME, ATTR_VALUE};
use securecloud_streaming::pipeline::{results_digest, STREAM_VOLTAGE};
use securecloud_streaming::StreamEvent;

use super::plane::{plane_counts, Plane};
use super::{mix_seed, sgx_counts, Mode, OpTimer, Pass, Sim};
use crate::trace;

const FEEDERS: usize = 160;
/// One sample of every feeder fills 160 events; 256 samples make the block
/// a whole number of batches, so it can be cycled without copying it.
const SAMPLES_PER_FEEDER: usize = 256;
/// The 40 960-event block is streamed this many times per pass.
const CYCLES: usize = 10;
const BATCH: usize = 256;
const STREAM_ALERTS: i64 = 30;
const ALERT_ABOVE: f64 = 0.95;

/// Re-emits the voltage events whose value exceeds [`ALERT_ABOVE`].
struct AlertFilter;

impl MicroService for AlertFilter {
    fn name(&self) -> &str {
        "alert-filter"
    }

    fn subscriptions(&self) -> Vec<(String, Option<Subscription>)> {
        vec![("grid/voltage".into(), None)]
    }

    fn handle(&mut self, message: &Message, ctx: &mut ServiceCtx) {
        if let Ok(event) = StreamEvent::from_publication(&message.attributes, ATTR_KEY) {
            if event.value > ALERT_ABOVE {
                ctx.emit("grid/alerts", Vec::new(), event.publication(STREAM_ALERTS));
            }
        }
    }
}

/// One block of voltage events: 160 feeders x 256 one-second samples. The
/// value is the sample's position in the +-2 V noise band around nominal
/// (0 at -2 V, 1 at +2 V), so about one normal sample in twenty, and every
/// swell, lies above the alert threshold.
fn block(seed: u64) -> Vec<Publication> {
    let traces: Vec<_> = {
        let _span = trace::span("smartgrid.generate");
        (0..FEEDERS)
            .map(|feeder| {
                QualitySpec {
                    samples: SAMPLES_PER_FEEDER,
                    interval_ms: 1_000,
                    faults: 0,
                    seed: mix_seed(seed, 0x0700 + feeder as u64),
                }
                .generate()
            })
            .collect()
    };
    let mut out = Vec::with_capacity(FEEDERS * SAMPLES_PER_FEEDER);
    for sample in 0..SAMPLES_PER_FEEDER {
        for (feeder, trace) in traces.iter().enumerate() {
            out.push(
                StreamEvent {
                    key: feeder as u64,
                    t_ms: sample as u64 * trace.interval_ms,
                    value: (trace.samples[sample] - (NOMINAL_VOLTS - 2.0)) / 4.0,
                }
                .publication(STREAM_VOLTAGE),
            );
        }
    }
    out
}

fn event_fields(p: &Publication) -> (Option<&Value>, Option<&Value>, Option<&Value>) {
    (
        p.attrs.get(ATTR_KEY),
        p.attrs.get(ATTR_TIME),
        p.attrs.get(ATTR_VALUE),
    )
}

pub fn pass(seed: u64, mode: Mode) -> Pass {
    let mut timer = OpTimer::begin();
    let (block, mut plane) = {
        let _span = trace::span("harness.setup");
        let block = block(seed);
        let mut plane = Plane::new(mode == Mode::Traced).expect("router enclave launches");
        plane
            .map_input(STREAM_VOLTAGE, "grid/voltage")
            .expect("sealed subscription");
        plane.register_operator(Box::new(AlertFilter), "harness.handle.alert-filter");
        plane
            .collect_output(STREAM_ALERTS, "grid/alerts")
            .expect("sealed subscription");
        (block, plane)
    };
    timer.setup_done(plane.router().cycles);

    for _ in 0..CYCLES {
        for batch in block.chunks(BATCH) {
            timer.op(batch.len() as u64, || plane.ingest_and_run(batch));
        }
    }

    let units = (block.len() * CYCLES) as u64;
    let ops = block.len() / BATCH * CYCLES;
    let digest = results_digest(plane.results());
    let mut counts = BTreeMap::new();
    let lost = plane_counts(&mut counts, &plane, units, ops);
    if lost > 0 {
        timer.fail(format!("{lost} messages dropped, refused or dead-lettered"));
    }
    let router = plane.router();
    sgx_counts(&mut counts, &Vec::from_iter(router.mem), units);
    // The router is the only simulated memory here, and the product plane
    // shows nothing of it but its cycle count: the other two end-to-end
    // counters stay 0 (the traced run reports the router's in `sgx.*`).
    let sim = Sim {
        cycles: router.cycles,
        ..Sim::default()
    };

    if mode == Mode::WarmUp {
        // A direct filter over the inputs: same alerts, same order.
        let alerts: Vec<&Publication> = block
            .iter()
            .filter(
                |p| matches!(p.attrs.get(ATTR_VALUE), Some(Value::Float(v)) if *v > ALERT_ABOVE),
            )
            .collect();
        let expected: Vec<&Publication> =
            (0..CYCLES).flat_map(|_| alerts.iter().copied()).collect();
        let got = plane.results();
        let same = got.len() == expected.len()
            && got
                .iter()
                .zip(&expected)
                .all(|(g, e)| event_fields(g) == event_fields(e));
        if !same {
            timer.fail(format!(
                "{} alerts delivered, a direct filter over the inputs gives {}",
                got.len(),
                expected.len()
            ));
        }
        timer.note(format!(
            "oracle: {} alerts ({:.2} % of events), count and order equal a direct filter over the inputs",
            expected.len(),
            100.0 * expected.len() as f64 / units as f64
        ));
    }
    timer.finish(digest, sim, counts)
}
