//! E16: streaming analytics over the switchless messaging plane — window
//! size x key cardinality x EPC pressure.
//!
//! Each cell deploys the full city pipelines of `securecloud-streaming`
//! (per-meter usage rollups, the reported-vs-actual loss join, per-feeder
//! power-quality rollups) on a fresh [`StreamPlane`], streams a seeded
//! smart-grid city through the sealed SCBR ingress, and reads the cost
//! model's accounting back out of the router enclave and every operator's
//! own memory simulator. The sweep crosses:
//!
//! * **window size** — longer windows hold more live accumulators;
//! * **key cardinality** — meters drive the per-meter operator's state
//!   (the 10^5..10^6-key dimension, scaled down for the harness);
//! * **EPC pressure** — shrunken enclave geometries move the *same*
//!   operator state from resident to paging to spilled.
//!
//! The expected shape is the trade-off curve of arXiv 2104.03731: flat
//! cycles/event while peak state fits the usable EPC, a knee as it
//! crosses, and explicit host I/O past the memtable budget. Cells are
//! independent and seeded, so the report — including every cell's FNV
//! digest over its sink results — is byte-identical at any `--jobs` count.
//!
//! [`StreamPlane`]: securecloud_streaming::pipeline::StreamPlane

use securecloud_sgx::costs::{CostModel, MemoryGeometry};
use securecloud_streaming::pipeline::{CityConfig, CityPipelines, CitySpec};
use securecloud_streaming::window::WindowSpec;

use crate::pool;
use crate::report::Cell::{Fixed, Hex, Map};
use crate::report::{Column, Ctx, Report};
use crate::small_epc;

/// Workload knobs for the sweep.
#[derive(Debug, Clone)]
pub struct StreamingWorkload {
    /// Tumbling window sizes, milliseconds.
    pub window_ms: Vec<u64>,
    /// Total meter counts (key cardinality of the per-meter operator).
    pub meters: Vec<usize>,
    /// Enclave geometries operator state is charged against, roomy first.
    pub geometries: Vec<MemoryGeometry>,
    /// Meters per feeder (feeders derive from the meter count).
    pub households_per_feeder: usize,
    /// Meter sampling interval, seconds.
    pub interval_secs: u64,
    /// Trace duration, seconds.
    pub duration_secs: u64,
    /// Events sealed per ingress batch frame.
    pub ingest_batch: usize,
    /// City seed (per-feeder seeds derive from it).
    pub seed: u64,
}

impl StreamingWorkload {
    /// Full-size sweep: 2 windows x 3 cardinalities x 2 geometries.
    #[must_use]
    pub fn full() -> Self {
        StreamingWorkload {
            window_ms: vec![900_000, 3_600_000],
            meters: vec![400, 1_600, 6_400],
            geometries: vec![small_epc(4 << 20, 1 << 20), small_epc(256 << 10, 64 << 10)],
            households_per_feeder: 40,
            interval_secs: 300,
            duration_secs: 3_600,
            ingest_batch: 256,
            seed: 11,
        }
    }

    /// CI-sized sweep with the same shape.
    #[must_use]
    pub fn smoke() -> Self {
        StreamingWorkload {
            window_ms: vec![900_000],
            meters: vec![160, 640],
            geometries: vec![small_epc(1 << 20, 256 << 10), small_epc(64 << 10, 16 << 10)],
            households_per_feeder: 20,
            interval_secs: 300,
            duration_secs: 3_600,
            ingest_batch: 256,
            seed: 11,
        }
    }
}

/// One cell of the window x meters x geometry grid.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingPoint {
    /// Tumbling window size, milliseconds.
    pub window_ms: u64,
    /// Meter count (per-meter operator key cardinality).
    pub meters: usize,
    /// Usable EPC the operators ran against, KiB.
    pub usable_epc_kib: u64,
    /// Events sealed into the plane.
    pub events: u64,
    /// Results delivered to the sealed sink (all three output streams).
    pub results: u64,
    /// Simulated throughput: thousand events per simulated second.
    pub kevents_per_s: f64,
    /// Simulated cycles (router enclave + every operator) per event.
    pub cycles_per_event: f64,
    /// Operator EPC faults per thousand events.
    pub faults_per_kevent: f64,
    /// Operator host I/O (reads + writes) per thousand events, KiB.
    pub host_kib_per_kevent: f64,
    /// High-water live operator state, KiB.
    pub peak_state_kib: f64,
    /// Peak state over usable EPC — the knee sits where this crosses 1.
    pub state_to_epc: f64,
    /// Feeders the loss join flagged...
    pub flagged_feeders: u64,
    /// ...and feeders actually hosting thieves (ground truth).
    pub theft_feeders: u64,
    /// Power-quality windows classified sag / swell.
    pub sag_windows: u64,
    /// See `sag_windows`.
    pub swell_windows: u64,
    /// FNV-1a digest over the cell's sink results, in delivery order.
    pub results_digest: u64,
}

fn run_cell(
    window_ms: u64,
    meters: usize,
    geometry: MemoryGeometry,
    workload: &StreamingWorkload,
) -> StreamingPoint {
    let costs = CostModel::sgx_v1();
    let feeders = (meters / workload.households_per_feeder).max(1);
    let config = CityConfig {
        spec: CitySpec {
            feeders,
            households_per_feeder: workload.households_per_feeder,
            interval_secs: workload.interval_secs,
            duration_secs: workload.duration_secs,
            seed: workload.seed,
            ..CitySpec::default()
        },
        windows: WindowSpec::tumbling(window_ms).expect("non-zero window"),
        geometry,
        ingest_batch: workload.ingest_batch,
        ..CityConfig::default()
    };
    let mut pipelines = CityPipelines::deploy(config).expect("plane deploys");
    let report = pipelines.run().expect("city run completes");

    let events = report.events_ingested;
    let cycles = pipelines.plane().router_cycles() + pipelines.operator_cycles();
    let (faults, host_read, host_write) = pipelines.operator_paging();
    let peak_state = pipelines.peak_state_bytes();
    let usable_epc = (geometry.epc_total_bytes - geometry.epc_reserved_bytes) as u64;
    let sim_secs = costs.cycles_to_duration(cycles).as_secs_f64();
    let per_kevent = events as f64 / 1_000.0;

    StreamingPoint {
        window_ms,
        meters,
        usable_epc_kib: usable_epc >> 10,
        events,
        results: pipelines.plane().results().len() as u64,
        kevents_per_s: if sim_secs > 0.0 {
            events as f64 / sim_secs / 1_000.0
        } else {
            0.0
        },
        cycles_per_event: cycles as f64 / events as f64,
        faults_per_kevent: faults as f64 / per_kevent,
        host_kib_per_kevent: (host_read + host_write) as f64 / 1024.0 / per_kevent,
        peak_state_kib: peak_state as f64 / 1024.0,
        state_to_epc: peak_state as f64 / usable_epc as f64,
        flagged_feeders: report.flagged_feeders.len() as u64,
        theft_feeders: report.theft_feeders.len() as u64,
        sag_windows: report.sag_windows,
        swell_windows: report.swell_windows,
        results_digest: report.results_digest,
    }
}

/// Runs the grid fanned across up to `jobs` worker threads. Every cell
/// deploys its own plane, enclaves, and simulators, so results come back
/// byte-identical in row-major order regardless of the worker count.
#[must_use]
pub fn sweep(workload: &StreamingWorkload, jobs: usize) -> Vec<StreamingPoint> {
    let cells = pool::grid(&workload.window_ms, &workload.meters);
    let cells = pool::grid(&cells, &workload.geometries);
    pool::run_ordered(cells, jobs, None, |((window_ms, meters), geometry), _| {
        run_cell(window_ms, meters, geometry, workload)
    })
}

/// The E16 table, with enough workload echo to interpret the numbers.
pub fn report(ctx: &Ctx) -> Vec<Report> {
    let workload = ctx.pick(StreamingWorkload::smoke(), StreamingWorkload::full());
    let points = sweep(&workload, ctx.jobs);
    let report = Report::new(
        "streaming",
        "== E16: streaming analytics — window x cardinality x EPC pressure ==
(city pipelines over the sealed plane; operator state in the tiered
 KV, charged to shrunken enclave geometries — flat cycles/event while
 peak state fits the EPC, a knee past it, host I/O past the memtable)",
        &points,
        [
            Column::table("window s", 9, |p| (p.window_ms / 1_000).into()),
            Column::json("window_ms", |p| p.window_ms.into()),
            Column::new("meters", 7, |p| p.meters.into()),
            Column::keyed("EPC KiB", 8, "usable_epc_kib", |p| p.usable_epc_kib.into()),
            Column::new("events", 7, |p| p.events.into()),
            Column::json("results", |p| p.results.into()),
            Column::table("kev/s", 8, |p| Fixed(p.kevents_per_s, 1)),
            Column::json("kevents_per_s", |p| Fixed(p.kevents_per_s, 2)),
            Column::table("cyc/ev", 9, |p| Fixed(p.cycles_per_event, 0)),
            Column::json("cycles_per_event", |p| Fixed(p.cycles_per_event, 1)),
            Column::keyed("flt/kev", 9, "faults_per_kevent", |p| {
                Fixed(p.faults_per_kevent, 2)
            }),
            Column::keyed("KiB/kev", 9, "host_kib_per_kevent", |p| {
                Fixed(p.host_kib_per_kevent, 3)
            }),
            Column::json("peak_state_kib", |p| Fixed(p.peak_state_kib, 1)),
            Column::table("state/E", 8, |p| Fixed(p.state_to_epc, 2)),
            Column::json("state_to_epc", |p| Fixed(p.state_to_epc, 3)),
            Column::keyed("flag", 7, "flagged_feeders", |p| p.flagged_feeders.into()),
            Column::keyed("theft", 5, "theft_feeders", |p| p.theft_feeders.into()),
            Column::json("sag_windows", |p| p.sag_windows.into()),
            Column::json("swell_windows", |p| p.swell_windows.into()),
            Column::keyed("digest", 18, "results_digest", |p| Hex(p.results_digest)),
        ],
    );
    vec![Report {
        summary: format!(
            "city: {} meters/feeder, {} s interval, {} s trace",
            workload.households_per_feeder, workload.interval_secs, workload.duration_secs
        ),
        meta: vec![(
            "city",
            Map(vec![
                (
                    "households_per_feeder",
                    workload.households_per_feeder.into(),
                ),
                ("interval_secs", workload.interval_secs.into()),
                ("duration_secs", workload.duration_secs.into()),
            ]),
        )],
        announce: true,
        ..report
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug-build-sized workload with the smoke sweep's shape.
    fn tiny_workload() -> StreamingWorkload {
        StreamingWorkload {
            window_ms: vec![900_000],
            meters: vec![200],
            geometries: vec![small_epc(1 << 20, 256 << 10), small_epc(16 << 10, 4 << 10)],
            households_per_feeder: 10,
            interval_secs: 300,
            duration_secs: 1_800,
            ingest_batch: 64,
            seed: 11,
        }
    }

    #[test]
    fn epc_pressure_shows_the_knee() {
        let points = sweep(&tiny_workload(), 1);
        assert_eq!(points.len(), 2);
        let roomy = &points[0];
        let tight = &points[1];
        assert_eq!(roomy.meters, tight.meters);
        assert!(roomy.events > 0 && roomy.results > 0);
        // Identical city, identical windows: the streaming *output* does
        // not depend on the enclave geometry...
        assert_eq!(roomy.results_digest, tight.results_digest);
        assert_eq!(roomy.events, tight.events);
        // ...but the tight EPC pays for it in faults and cycles.
        assert!(tight.state_to_epc > roomy.state_to_epc);
        assert!(
            tight.faults_per_kevent > roomy.faults_per_kevent,
            "shrinking the EPC under the same state must fault more \
             ({} vs {})",
            tight.faults_per_kevent,
            roomy.faults_per_kevent
        );
        // The knee is a margin, not a tie-break: the tight EPC costs at
        // least 10 % more cycles per event (1.29x on this city; 1.03x when
        // a host write per state record hid it).
        assert!(
            tight.cycles_per_event >= 1.10 * roomy.cycles_per_event,
            "no knee: {:.0} vs {:.0} cycles/event",
            tight.cycles_per_event,
            roomy.cycles_per_event
        );
    }

    #[test]
    fn sweep_is_byte_identical_across_job_counts() {
        let workload = tiny_workload();
        assert_eq!(sweep(&workload, 1), sweep(&workload, 4));
    }
}
