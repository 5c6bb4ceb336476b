//! `city_stream` — the product path: sealed ingress, router, bus, five
//! windowed operators over tiered KV state, sealed egress.
//!
//! The topology is exactly that of `CityPipelines::deploy(CityConfig::
//! default())`, re-assembled from the public operator API so that batches
//! can be timed one by one. The oracle is `CityPipelines::run()` itself.

use std::collections::BTreeMap;

use securecloud_scbr::types::{Publication, Value};
use securecloud_sgx::mem::MemStats;
use securecloud_smartgrid::quality::QualitySpec;
use securecloud_streaming::operator::ATTR_KEY;
use securecloud_streaming::pipeline::{
    results_digest, CityConfig, CityPipelines, CitySpec, ATTR_FEEDER, FLUSH_STAGE0, FLUSH_STAGE1,
    STREAM_FEEDER_LOSS, STREAM_FEEDER_TOTALS, STREAM_METER_USAGE, STREAM_QUALITY, STREAM_READINGS,
    STREAM_VOLTAGE,
};
use securecloud_streaming::state::{OperatorState, SharedState};
use securecloud_streaming::{
    AggregatorConfig, JoinConfig, StreamEvent, TwoStreamJoin, WindowSpec, WindowedAggregator,
};

use super::plane::{plane_counts, Plane, PlaneResult};
use super::{mix_seed, sgx_counts, Mode, OpTimer, Pass, Sim};
use crate::probes::StorageShape;
use crate::trace;

/// 160 feeders x 40 households: 6 400 meters, the largest city of the
/// repository's streaming experiment (E16), so the simulated cost per event
/// can be held against that experiment's table.
fn city(seed: u64) -> CityConfig {
    CityConfig {
        spec: CitySpec {
            feeders: 160,
            households_per_feeder: 40,
            seed,
            ..CitySpec::default()
        },
        ..CityConfig::default()
    }
}

/// The city's events in time-major order — the order and the values
/// `CityPipelines::run` streams, built ahead so ingestion can be timed.
fn events(config: &CityConfig) -> Vec<Publication> {
    let spec = &config.spec;
    let samples = spec.samples();
    let interval_ms = spec.interval_secs.max(1) * 1_000;
    let feeders: Vec<_> = {
        let _span = trace::span("smartgrid.generate");
        (0..spec.feeders)
            .map(|feeder| {
                let traces = spec.feeder_spec(feeder).generate();
                let voltage = QualitySpec {
                    samples,
                    interval_ms,
                    faults: config.faults_per_feeder,
                    seed: mix_seed(spec.seed, 0x0700 + feeder as u64),
                }
                .generate();
                (traces, voltage)
            })
            .collect()
    };
    let mut out = Vec::with_capacity(samples * spec.feeders * (spec.households_per_feeder + 2));
    for sample in 0..samples {
        let t_ms = sample as u64 * interval_ms;
        for (feeder, (traces, voltage)) in feeders.iter().enumerate() {
            let feeder_id = feeder as u64;
            let mut actual_total = 0.0;
            for trace in traces {
                actual_total += trace.actual[sample];
                out.push(
                    StreamEvent {
                        key: feeder_id * spec.households_per_feeder as u64 + trace.meter,
                        t_ms,
                        value: trace.reported[sample],
                    }
                    .publication(STREAM_READINGS)
                    .with(ATTR_FEEDER, Value::Int(feeder_id as i64)),
                );
            }
            out.push(
                StreamEvent {
                    key: feeder_id,
                    t_ms,
                    value: actual_total,
                }
                .publication(STREAM_FEEDER_TOTALS),
            );
            out.push(
                StreamEvent {
                    key: feeder_id,
                    t_ms,
                    value: voltage.samples[sample],
                }
                .publication(STREAM_VOLTAGE),
            );
        }
    }
    out
}

/// The operator names, in registration order.
pub const OPERATORS: [&str; 5] = [
    "meter-usage",
    "feeder-reported",
    "feeder-actual",
    "loss-join",
    "quality-rollup",
];

/// The span name of each operator's `handle` calls.
pub const HANDLE_SPANS: [&str; 5] = [
    "streaming.handle.meter-usage",
    "streaming.handle.feeder-reported",
    "streaming.handle.feeder-actual",
    "streaming.handle.loss-join",
    "streaming.handle.quality-rollup",
];

/// What the operators keep in the storage engine, for the replay probe:
/// `<operator>/<lane>/<window, 16 hex>/<key, 16 hex>` keys, 32-byte
/// accumulators.
pub fn storage_shape() -> StorageShape {
    StorageShape {
        key_bytes: "meter-usage/a/".len() + 16 + 1 + 16,
        value_bytes: 32,
        config: OperatorState::default_storage(),
    }
}

/// Deploys the city topology on `plane`; returns every operator's state.
fn deploy(plane: &mut Plane, config: &CityConfig) -> PlaneResult<Vec<SharedState>> {
    plane.map_input(STREAM_READINGS, "grid/readings")?;
    plane.map_input(STREAM_FEEDER_TOTALS, "grid/totals")?;
    plane.map_input(STREAM_VOLTAGE, "grid/voltage")?;

    let storage = OperatorState::default_storage();
    let states: Vec<SharedState> = OPERATORS
        .iter()
        .map(|name| OperatorState::shared(name, config.geometry, storage.clone()))
        .collect();

    // Registration order is delivery order: keep `CityPipelines::deploy`'s.
    let aggregator = |at: usize, input: &str, output: &str, stream: i64, key: &str, eos: bool| {
        Box::new(WindowedAggregator::new(
            AggregatorConfig {
                name: OPERATORS[at].into(),
                input: input.into(),
                output: output.into(),
                output_stream: stream,
                key_attr: key.into(),
                windows: config.windows,
                flush_in: FLUSH_STAGE0.into(),
                // End-of-stream rides in-band on the output topic, so it
                // cannot overtake the results it flushed.
                flush_out: eos.then(|| output.into()),
            },
            states[at].clone(),
        ))
    };
    plane.register_operator(
        aggregator(
            0,
            "grid/readings",
            "grid/meter_usage",
            STREAM_METER_USAGE,
            ATTR_KEY,
            false,
        ),
        HANDLE_SPANS[0],
    );
    plane.register_operator(
        aggregator(
            1,
            "grid/readings",
            "grid/feeder_reported",
            20,
            ATTR_FEEDER,
            true,
        ),
        HANDLE_SPANS[1],
    );
    plane.register_operator(
        aggregator(2, "grid/totals", "grid/feeder_actual", 21, ATTR_KEY, true),
        HANDLE_SPANS[2],
    );
    plane.register_operator(
        Box::new(TwoStreamJoin::new(
            JoinConfig {
                name: OPERATORS[3].into(),
                left: "grid/feeder_reported".into(),
                right: "grid/feeder_actual".into(),
                output: "grid/loss".into(),
                output_stream: STREAM_FEEDER_LOSS,
                windows: WindowSpec::tumbling(config.windows.stride_ms())?,
                flush_in: FLUSH_STAGE1.into(),
                flush_fan_in: 2,
                flush_out: None,
            },
            states[3].clone(),
        )),
        HANDLE_SPANS[3],
    );
    plane.register_operator(
        aggregator(
            4,
            "grid/voltage",
            "grid/quality_rollup",
            STREAM_QUALITY,
            ATTR_KEY,
            false,
        ),
        HANDLE_SPANS[4],
    );

    plane.collect_output(STREAM_METER_USAGE, "grid/meter_usage")?;
    plane.collect_output(STREAM_FEEDER_LOSS, "grid/loss")?;
    plane.collect_output(STREAM_QUALITY, "grid/quality_rollup")?;
    Ok(states)
}

pub fn pass(seed: u64, mode: Mode) -> Pass {
    let mut timer = OpTimer::begin();
    let config = city(seed);
    let (events, mut plane, states) = {
        let _span = trace::span("harness.setup");
        let events = events(&config);
        let mut plane = Plane::new(mode == Mode::Traced).expect("router enclave launches");
        let states = deploy(&mut plane, &config).expect("city topology deploys");
        (events, plane, states)
    };
    let cycles = |plane: &Plane, states: &[SharedState]| {
        plane.router().cycles + states.iter().map(|s| s.lock().cycles()).sum::<u64>()
    };
    timer.setup_done(cycles(&plane, &states));

    for batch in events.chunks(config.ingest_batch) {
        timer.op(batch.len() as u64, || plane.ingest_and_run(batch));
    }
    // The end-of-stream flush closes the last window of every operator: it
    // is one op, and the heaviest of the pass.
    timer.op(0, || plane.flush(FLUSH_STAGE0));

    let units = events.len() as u64;
    let digest = results_digest(plane.results());
    let mut counts = BTreeMap::new();
    let lost = plane_counts(
        &mut counts,
        &plane,
        units,
        events.len().div_ceil(config.ingest_batch) + 1,
    );
    if lost > 0 {
        timer.fail(format!("{lost} messages dropped, refused or dead-lettered"));
    }

    // The product plane shows only its router's cycle count, so the
    // simulated end-to-end counters take faults and host bytes from the
    // operators alone; the traced run adds the router's to the `sgx.*` rows.
    let mut mems: Vec<MemStats> = Vec::new();
    let mut operator_cycles = 0;
    let (mut folded, mut emitted, mut late, mut malformed, mut peak) = (0, 0, 0, 0, 0);
    for state in &states {
        let state = state.lock();
        mems.push(state.mem_stats());
        operator_cycles += state.cycles();
        folded += state.metrics.events;
        emitted += state.metrics.results;
        late += state.metrics.late_dropped;
        malformed += state.metrics.malformed;
        peak += state.peak_state_bytes();
    }
    if late + malformed > 0 {
        timer.fail(format!("{late} late and {malformed} malformed events"));
    }
    let per_unit = |v: u64| v as f64 / units as f64;
    counts.insert("streaming.events_per_op", per_unit(folded));
    counts.insert("streaming.results_per_op", per_unit(emitted));
    counts.insert("streaming.late_dropped", late as f64);
    counts.insert("streaming.malformed", malformed as f64);
    counts.insert("streaming.peak_state_kib", peak as f64 / 1024.0);
    counts.insert(
        "streaming.operator_cycles_per_op",
        per_unit(operator_cycles),
    );
    // `OperatorState` owns its store, so the harness counts its calls by
    // what its public methods do: `observe` is one get and one put, `drain`
    // one scan and one delete per result; every put and delete is first a
    // WAL append.
    counts.insert("kvstore.gets_per_op", per_unit(folded));
    counts.insert("kvstore.puts_per_op", per_unit(folded));
    counts.insert("kvstore.deletes_per_op", per_unit(emitted));
    counts.insert("kvstore.scanned_per_op", per_unit(emitted));
    counts.insert("storage.wal_appends_per_op", per_unit(folded + emitted));
    let sim = Sim {
        cycles: cycles(&plane, &states),
        epc_faults: mems.iter().map(|m| m.epc_faults).sum(),
        host_bytes: mems
            .iter()
            .map(|m| m.host_read_bytes + m.host_write_bytes)
            .sum(),
    };
    mems.extend(plane.router().mem);
    sgx_counts(&mut counts, &mems, units);

    if mode == Mode::WarmUp {
        let mut reference = CityPipelines::deploy(config).expect("reference city deploys");
        match reference.run() {
            Ok(report) => {
                if report.results_digest != digest {
                    timer.fail(format!(
                        "results digest {digest:016x} != CityPipelines::run {:016x}",
                        report.results_digest
                    ));
                }
                // The detector may miss a feeder at some seeds (at seed 11
                // it finds all 160): that is its recall, reported below. A
                // feeder flagged without a thief is a wrong result.
                let thieves = &report.theft_feeders;
                if report.flagged_feeders.iter().any(|f| !thieves.contains(f)) {
                    timer.fail(format!(
                        "flagged feeders {:?} not among theft feeders {thieves:?}",
                        report.flagged_feeders
                    ));
                }
                let reference_cycles =
                    reference.plane().router_cycles() + reference.operator_cycles();
                if reference_cycles != sim.cycles {
                    timer.fail(format!(
                        "simulated cycles {} != CityPipelines::run {reference_cycles}",
                        sim.cycles
                    ));
                }
                timer.note(format!(
                    "oracle: digest and {reference_cycles} simulated cycles equal CityPipelines::run; {} of the {} theft feeders flagged, none else; {} results",
                    report.flagged_feeders.len(),
                    thieves.len(),
                    plane.results().len(),
                ));
            }
            Err(e) => timer.fail(format!("CityPipelines::run failed: {e}")),
        }
    }
    timer.finish(digest, sim, counts)
}
