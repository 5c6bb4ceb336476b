//! E14: tiered encrypted storage — sealed log-structured segments beyond
//! the EPC.
//!
//! Sweeps a tiered [`SecureKv`] (in-EPC memtable over the
//! `securecloud-storage` engine's sealed on-host segments) across working
//! sets of 0.5x, 2x, and 8x the usable EPC, crossed with value sizes. The
//! sweep shows the design's central trade: once the working set outgrows
//! the EPC, the plain in-enclave store of Figure 3 pages on *every*
//! access, while the tiered store keeps a bounded memtable resident and
//! pays explicit, amortised host I/O (sealed 4 KiB-class blocks through
//! the cost model's host read/write domain) only on lookups that miss the
//! memtable and block cache.
//!
//! Each cell also restarts the store from a clone of its untrusted disk
//! and reports how much WAL had to be replayed — the incremental-recovery
//! claim: restart cost is proportional to the WAL tail, not the store.
//!
//! All durations are simulated cost-model cycles; cells are independent
//! and seeded, so the report is byte-identical at any `--jobs` count.

use securecloud_kvstore::{CounterService, SecureKv, StorageConfig, StoreKeys};
use securecloud_sgx::costs::{CostModel, MemoryGeometry};
use securecloud_sgx::mem::MemorySim;

use crate::pool;
use crate::report::Cell::{Fixed, Map, Str, Unit};
use crate::report::{Column, Ctx, Report};
use crate::small_epc;

/// Workload knobs for the sweep.
#[derive(Debug, Clone)]
pub struct StorageWorkload {
    /// Working-set sizes as multiples of the usable EPC.
    pub epc_ratios: Vec<f64>,
    /// Value sizes, bytes.
    pub value_bytes: Vec<usize>,
    /// Per-cell enclave memory geometry (scaled down so the 8x point
    /// stays fast while paging exactly like the full-size model).
    pub geometry: MemoryGeometry,
    /// Storage-tier tuning used by every cell.
    pub config: StorageConfig,
    /// Fraction of keys overwritten after the load (exercises shadowing
    /// across segments and the deterministic compactor), as 1/n.
    pub overwrite_every: usize,
}

impl StorageWorkload {
    /// Full-size sweep: 3 MiB usable EPC, the paper-shaped ratio grid.
    #[must_use]
    pub fn full() -> Self {
        StorageWorkload {
            epc_ratios: vec![0.5, 2.0, 8.0],
            value_bytes: vec![256, 1024],
            geometry: small_epc(4 << 20, 1 << 20),
            // Memtable budget: two thirds of the usable EPC, so the 0.5x
            // working set never flushes (pure in-EPC service) while the
            // 2x and 8x sets spill to sealed segments.
            config: StorageConfig {
                block_bytes: 4096,
                flush_bytes: 2 << 20,
                cache_blocks: 8,
                compact_at_segments: 8,
            },
            overwrite_every: 4,
        }
    }

    /// CI-sized sweep with the same shape: 192 KiB usable EPC.
    #[must_use]
    pub fn smoke() -> Self {
        StorageWorkload {
            epc_ratios: vec![0.5, 8.0],
            value_bytes: vec![256],
            geometry: small_epc(256 << 10, 64 << 10),
            config: StorageConfig {
                block_bytes: 1024,
                flush_bytes: 128 << 10,
                cache_blocks: 4,
                compact_at_segments: 6,
            },
            overwrite_every: 4,
        }
    }
}

/// One cell of the ratio x value-size grid.
#[derive(Debug, Clone, PartialEq)]
pub struct StoragePoint {
    /// Working set as a multiple of the usable EPC.
    pub epc_ratio: f64,
    /// Value size, bytes.
    pub value_bytes: usize,
    /// Distinct keys loaded.
    pub keys: usize,
    /// Simulated microseconds per put during the load.
    pub put_us: f64,
    /// Host KiB written per put (WAL append plus amortised flush).
    pub host_write_kib_per_put: f64,
    /// Simulated microseconds per get in the cold re-read pass.
    pub get_us: f64,
    /// Host KiB read per get (sealed blocks paged in past the cache).
    pub host_read_kib_per_get: f64,
    /// EPC faults per get — stays bounded however large the store grows,
    /// because only the memtable and block cache live in the EPC.
    pub faults_per_get: f64,
    /// Live sealed segments after the workload (post-compaction).
    pub segments: u64,
    /// Compactions the workload triggered.
    pub compactions: u64,
    /// Total sealed bytes on the untrusted host, MiB.
    pub sealed_mib: f64,
    /// Simulated milliseconds to reopen the store from the host disk.
    pub restart_ms: f64,
    /// WAL records replayed at restart (the tail only)...
    pub wal_replayed: u64,
    /// ...out of this many mutations applied over the store's life.
    pub wal_total: u64,
}

/// Runs the grid fanned across up to `jobs` worker threads. Cells build
/// independent stores and simulators, so results come back byte-identical
/// in row-major order regardless of the worker count.
#[must_use]
pub fn sweep(workload: &StorageWorkload, jobs: usize) -> Vec<StoragePoint> {
    let cells = pool::grid(&workload.epc_ratios, &workload.value_bytes);
    pool::run_ordered(cells, jobs, None, |(ratio, value_bytes), _| {
        run_cell(ratio, value_bytes, workload)
    })
}

/// Deterministic patterned value: distinct per key and pass, incompressible
/// enough to defeat accidental special-casing, no RNG required.
fn value_for(key_index: usize, pass: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| {
            (key_index
                .wrapping_mul(31)
                .wrapping_add(i.wrapping_mul(7))
                .wrapping_add(pass as usize * 131)
                % 251) as u8
        })
        .collect()
}

fn run_cell(ratio: f64, value_bytes: usize, workload: &StorageWorkload) -> StoragePoint {
    let costs = CostModel::sgx_v1();
    let geometry = workload.geometry;
    let usable_epc = geometry.epc_total_bytes - geometry.epc_reserved_bytes;
    // Size the key count so keys * (key + value) hits the requested ratio.
    let key_len = "tier/meter/00000000".len();
    let keys = ((usable_epc as f64 * ratio) / (key_len + value_bytes) as f64).ceil() as usize;

    let mut mem = MemorySim::enclave(geometry, costs.clone());
    let mut kv = SecureKv::tiered(
        workload.config.clone(),
        StoreKeys::new([0xE1; 16]),
        CounterService::new(),
        "bench/storage",
    );

    let key_of = |i: usize| format!("tier/meter/{i:08}").into_bytes();

    // Load phase: every key once.
    let load_start_cycles = mem.cycles();
    let writes_before = mem.stats().host_write_bytes;
    for i in 0..keys {
        kv.try_put(&mut mem, &key_of(i), &value_for(i, 0, value_bytes))
            .unwrap();
    }
    // Overwrite phase: a deterministic subset gets fresh values, leaving
    // shadowed records behind in older segments for the compactor.
    for i in (0..keys).step_by(workload.overwrite_every.max(1)) {
        kv.try_put(&mut mem, &key_of(i), &value_for(i, 1, value_bytes))
            .unwrap();
    }
    let put_cycles = mem.cycles() - load_start_cycles;
    let put_host_kib = (mem.stats().host_write_bytes - writes_before) as f64 / 1024.0;
    let puts = keys + keys.div_ceil(workload.overwrite_every.max(1));

    // Cold re-read pass: metrics reset so first-touch load faults don't
    // pollute the steady-state read numbers.
    mem.reset_metrics();
    for i in 0..keys {
        let got = kv.try_get_ref(&mut mem, &key_of(i)).expect("sealed tier");
        let got = got.expect("loaded key present");
        let pass = if i.is_multiple_of(workload.overwrite_every.max(1)) {
            1
        } else {
            0
        };
        assert_eq!(
            got,
            value_for(i, pass, value_bytes),
            "tier returned stale data"
        );
    }
    let get_cycles = mem.cycles();
    let get_stats = mem.stats();

    let engine = kv.storage().expect("tiered store");
    let stats = engine.stats();
    let segments = engine.segment_count() as u64;
    let compactions = stats.compactions;
    let wal_total = stats.wal_appends;
    let sealed_mib = engine.disk().bytes() as f64 / (1024.0 * 1024.0);

    // Restart: only the untrusted disk survives; reopen replays the WAL
    // tail against the trusted counter floor.
    let disk = engine.disk().clone();
    let config = workload.config.clone();
    let counters = kv.storage().expect("tiered store").counters().clone();
    drop(kv);
    let mut restart_mem = MemorySim::enclave(geometry, costs.clone());
    let (mut reopened, report) = SecureKv::reopen(
        &mut restart_mem,
        config,
        StoreKeys::new([0xE1; 16]),
        counters,
        "bench/storage",
        disk,
    )
    .expect("restart from own disk");
    let restart_cycles = restart_mem.cycles();
    // Spot-check the recovered store before trusting the numbers.
    let probe = keys / 2;
    let pass = if probe.is_multiple_of(workload.overwrite_every.max(1)) {
        1
    } else {
        0
    };
    assert_eq!(
        reopened
            .try_get_ref(&mut restart_mem, &key_of(probe))
            .unwrap(),
        Some(&value_for(probe, pass, value_bytes)[..]),
        "restarted store lost a key"
    );

    let ops = keys as f64;
    StoragePoint {
        epc_ratio: ratio,
        value_bytes,
        keys,
        put_us: costs.cycles_to_duration(put_cycles).as_secs_f64() * 1e6 / puts as f64,
        host_write_kib_per_put: put_host_kib / puts as f64,
        get_us: costs.cycles_to_duration(get_cycles).as_secs_f64() * 1e6 / ops,
        host_read_kib_per_get: get_stats.host_read_bytes as f64 / 1024.0 / ops,
        faults_per_get: get_stats.epc_faults as f64 / ops,
        segments,
        compactions,
        sealed_mib,
        restart_ms: costs.cycles_to_duration(restart_cycles).as_secs_f64() * 1e3,
        wal_replayed: report.wal_replayed,
        wal_total,
    }
}

/// The E14 table, with enough workload echo to interpret the numbers.
pub fn report(ctx: &Ctx) -> Vec<Report> {
    let workload = ctx.pick(StorageWorkload::smoke(), StorageWorkload::full());
    let points = sweep(&workload, ctx.jobs);
    let report = Report::new(
        "storage",
        "== E14: tiered encrypted storage — sealed segments beyond EPC ==
(in-EPC memtable over sealed log-structured host segments: reads
 beyond the EPC pay explicit amortised host I/O instead of paging,
 and restart replays only the WAL tail)",
        &points,
        [
            Column::keyed("ws/EPC", 6, "epc_ratio", |p| Unit(p.epc_ratio, 1, "x")),
            Column::keyed("val B", 7, "value_bytes", |p| p.value_bytes.into()),
            Column::new("keys", 7, |p| p.keys.into()),
            Column::table("put us", 8, |p| Fixed(p.put_us, 1)),
            Column::json("put_us", |p| Fixed(p.put_us, 2)),
            Column::keyed("wr KiB/put", 10, "host_write_kib_per_put", |p| {
                Fixed(p.host_write_kib_per_put, 3)
            }),
            Column::table("get us", 8, |p| Fixed(p.get_us, 1)),
            Column::json("get_us", |p| Fixed(p.get_us, 2)),
            Column::keyed("rd KiB/get", 10, "host_read_kib_per_get", |p| {
                Fixed(p.host_read_kib_per_get, 3)
            }),
            Column::keyed("flt/get", 9, "faults_per_get", |p| {
                Fixed(p.faults_per_get, 3)
            }),
            Column::keyed("segs", 5, "segments", |p| p.segments.into()),
            Column::json("compactions", |p| p.compactions.into()),
            Column::json("sealed_mib", |p| Fixed(p.sealed_mib, 2)),
            Column::new("restart ms", 10, |p| Fixed(p.restart_ms, 3)),
            Column::table("replay/total", 12, |p| {
                Str(format!("{:>6}/{}", p.wal_replayed, p.wal_total))
            }),
            Column::json("wal_replayed", |p| p.wal_replayed.into()),
            Column::json("wal_total", |p| p.wal_total.into()),
        ],
    );
    let usable_epc = workload.geometry.epc_total_bytes - workload.geometry.epc_reserved_bytes;
    let config = &workload.config;
    vec![Report {
        summary: format!(
            "usable EPC: {} KiB, block {} B, memtable budget {} KiB",
            usable_epc >> 10,
            config.block_bytes,
            config.flush_bytes >> 10
        ),
        meta: vec![
            ("usable_epc_bytes", usable_epc.into()),
            (
                "config",
                Map(vec![
                    ("block_bytes", config.block_bytes.into()),
                    ("flush_bytes", config.flush_bytes.into()),
                    ("cache_blocks", config.cache_blocks.into()),
                    ("compact_at_segments", config.compact_at_segments.into()),
                ]),
            ),
        ],
        announce: true,
        ..report
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug-build-sized workload with the smoke sweep's shape.
    fn tiny_workload() -> StorageWorkload {
        StorageWorkload {
            epc_ratios: vec![0.5, 8.0],
            value_bytes: vec![64],
            geometry: small_epc(64 << 10, 16 << 10),
            config: StorageConfig {
                block_bytes: 512,
                flush_bytes: 32 << 10,
                cache_blocks: 2,
                compact_at_segments: 4,
            },
            overwrite_every: 4,
        }
    }

    #[test]
    fn beyond_epc_cell_pays_host_io_and_restarts_from_the_tail() {
        let workload = tiny_workload();
        let points = sweep(&workload, 1);
        assert_eq!(points.len(), 2);
        let small = &points[0];
        let large = &points[1];
        assert_eq!(small.epc_ratio, 0.5);
        assert_eq!(large.epc_ratio, 8.0);
        // The 8x working set cannot live in the memtable: its reads page
        // sealed blocks in from the host; flushes wrote sealed bytes.
        assert!(
            large.host_read_kib_per_get > 0.0,
            "8x EPC cell must read sealed blocks from the host"
        );
        assert!(large.sealed_mib > 0.0);
        assert!(large.segments >= 1);
        // Restart replays only the WAL tail, not the store's history.
        assert!(
            large.wal_replayed < large.wal_total,
            "restart must replay a tail ({} records), not the full history ({})",
            large.wal_replayed,
            large.wal_total
        );
        // The below-EPC working set fits the memtable budget: it is
        // served entirely from enclave memory, no sealed tier involved.
        assert_eq!(
            small.host_read_kib_per_get, 0.0,
            "0.5x EPC cell must stay resident"
        );
        assert_eq!(small.segments, 0);
        // Restart of the resident store replays its whole (small) WAL.
        assert_eq!(small.wal_replayed, small.wal_total);
    }

    #[test]
    fn sweep_is_byte_identical_across_job_counts() {
        let workload = tiny_workload();
        assert_eq!(sweep(&workload, 1), sweep(&workload, 4));
    }
}
