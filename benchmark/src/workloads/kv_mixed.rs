//! `kv_mixed` — the secure key-value store beyond the EPC, used the way a
//! serving application uses it (and unlike `city_stream`, whose operators do
//! memtable-resident read-modify-write): point reads, writes and short
//! scans side by side over 15 MiB of data behind a 2 MiB memtable, so reads
//! open sealed 4 KiB blocks and writes trigger flushes and a compaction.

use std::collections::BTreeMap;

use securecloud_kvstore::{CounterService, KvError, SecureKv, StorageConfig, StoreKeys};
use securecloud_sgx::costs::CostModel;
use securecloud_sgx::mem::MemorySim;

use super::{sgx_counts, small_epc, Fnv, Mode, OpTimer, Pass, Sim, SplitMix64};
use crate::probes::StorageShape;
use crate::trace;

const KEYS: u64 = 60_000;
const VALUE_BYTES: usize = 256;
/// KV calls per timed op.
const CALLS_PER_OP: usize = 64;
const OPS: usize = 938;
const SCAN_KEYS: u64 = 32;
/// 80 % of the accesses go to the first 10 % of the keys.
const HOT_KEYS: u64 = KEYS / 10;
const VALUE_POOL: usize = 64;

#[derive(Debug, Clone, Copy)]
enum Call {
    Get(u32),
    /// Key and the pool index of the value written.
    Put(u32, u8),
    /// First key of a [`SCAN_KEYS`]-key range.
    Scan(u32),
}

fn key(i: u64) -> Vec<u8> {
    format!("kv/{i:08}").into_bytes()
}

/// 60 % gets, 35 % puts, 5 % scans, over a hot tenth of the key space.
fn calls(rng: &mut SplitMix64) -> Vec<Call> {
    (0..OPS * CALLS_PER_OP)
        .map(|_| {
            let k = if rng.below(100) < 80 {
                rng.below(HOT_KEYS)
            } else {
                HOT_KEYS + rng.below(KEYS - HOT_KEYS)
            } as u32;
            match rng.below(100) {
                0..=59 => Call::Get(k),
                60..=94 => Call::Put(k, rng.below(VALUE_POOL as u64) as u8),
                _ => Call::Scan(k.min((KEYS - SCAN_KEYS - 1) as u32)),
            }
        })
        .collect()
}

/// What this workload keeps in the storage engine, for the replay probe.
pub fn storage_shape() -> StorageShape {
    StorageShape {
        key_bytes: key(0).len(),
        value_bytes: VALUE_BYTES,
        config: StorageConfig {
            block_bytes: 4096,
            flush_bytes: 2 << 20,
            cache_blocks: 8,
            compact_at_segments: 8,
        },
    }
}

/// The store and the enclave memory its accesses are charged to: EPC scaled
/// to 4 MiB (3 MiB usable) around a 2 MiB memtable and an 8-block cache.
fn store() -> (SecureKv, MemorySim) {
    let kv = SecureKv::tiered(
        storage_shape().config,
        StoreKeys::new([0xB7; 16]),
        CounterService::new(),
        "benchmark/kv_mixed",
    );
    let mem = MemorySim::enclave(small_epc(4 << 20, 1 << 20), CostModel::sgx_v1());
    (kv, mem)
}

/// The shadow map the warm-up pass checks every read against.
type Shadow = BTreeMap<Vec<u8>, usize>;

struct Run {
    kv: SecureKv,
    mem: MemorySim,
    keys: Vec<Vec<u8>>,
    values: Vec<Vec<u8>>,
    shadow: Option<Shadow>,
    digest: Fnv,
    mismatches: u64,
}

impl Run {
    fn call(&mut self, call: Call) -> Result<(), KvError> {
        match call {
            Call::Get(k) => {
                let _span = trace::span("kvstore.get");
                let got = self.kv.try_get_ref(&mut self.mem, &self.keys[k as usize])?;
                self.digest.eat(got.map_or(&[][..], |v| &v[..8]));
                if let Some(shadow) = &self.shadow {
                    let want = shadow
                        .get(&self.keys[k as usize])
                        .map(|&v| &self.values[v][..]);
                    self.mismatches += u64::from(got != want);
                }
            }
            Call::Put(k, v) => {
                let _span = trace::span("kvstore.put");
                self.kv.try_put(
                    &mut self.mem,
                    &self.keys[k as usize],
                    &self.values[v as usize],
                )?;
                if let Some(shadow) = &mut self.shadow {
                    shadow.insert(self.keys[k as usize].clone(), v as usize);
                }
            }
            Call::Scan(k) => {
                let _span = trace::span("kvstore.scan");
                let from = &self.keys[k as usize];
                let to = &self.keys[k as usize + SCAN_KEYS as usize];
                let got = self.kv.try_scan(&mut self.mem, from, to)?;
                self.digest.eat_u64(got.len() as u64);
                for (_, value) in &got {
                    self.digest.eat(&value[..8]);
                }
                if let Some(shadow) = &self.shadow {
                    let want = shadow
                        .range(from.clone()..to.clone())
                        .map(|(k, &v)| (k, &self.values[v]));
                    let same = got.iter().map(|(k, v)| (k, v)).eq(want);
                    self.mismatches += u64::from(!same);
                }
            }
        }
        Ok(())
    }
}

pub fn pass(seed: u64, mode: Mode) -> Pass {
    let mut timer = OpTimer::begin();
    let (mut run, calls) = {
        let _span = trace::span("harness.setup");
        let mut rng = SplitMix64(seed);
        let values: Vec<Vec<u8>> = (0..VALUE_POOL)
            .map(|_| {
                (0..VALUE_BYTES / 8)
                    .flat_map(|_| rng.next_u64().to_le_bytes())
                    .collect()
            })
            .collect();
        let keys: Vec<Vec<u8>> = (0..KEYS).map(key).collect();
        let calls = calls(&mut rng);
        let (mut kv, mut mem) = store();
        let mut shadow = (mode == Mode::WarmUp).then(Shadow::new);
        for (i, key) in keys.iter().enumerate() {
            let v = rng.below(VALUE_POOL as u64) as usize;
            kv.try_put(&mut mem, key, &values[v])
                .unwrap_or_else(|e| panic!("preload put {i} failed: {e}"));
            if let Some(shadow) = &mut shadow {
                shadow.insert(key.clone(), v);
            }
        }
        let run = Run {
            kv,
            mem,
            keys,
            values,
            shadow,
            digest: Fnv::default(),
            mismatches: 0,
        };
        (run, calls)
    };
    let puts_before = run.kv.stats().puts;
    let storage_before = run.kv.storage().expect("tiered").stats();
    let mem_before = run.mem.stats();
    timer.setup_done(run.mem.cycles());

    for op in calls.chunks(CALLS_PER_OP) {
        timer.op(op.len() as u64, || {
            op.iter().try_for_each(|&call| run.call(call))
        });
    }

    let units = calls.len() as u64;
    if run.mismatches > 0 {
        timer.fail(format!(
            "{} reads differ from the shadow map",
            run.mismatches
        ));
    }
    if mode == Mode::WarmUp {
        timer.note(format!(
            "oracle: every get and scan of {units} calls equals a shadow BTreeMap ({} mismatches)",
            run.mismatches
        ));
    }

    // Counts of the timed ops only: the preload is set-up.
    let kv_stats = run.kv.stats();
    let engine = run.kv.storage().expect("tiered");
    let storage = engine.stats();
    let mem = run.mem.stats();
    let per_unit = |v: u64| v as f64 / units as f64;
    let timed_puts = kv_stats.puts - puts_before;
    let mut counts = BTreeMap::new();
    counts.insert("kvstore.gets_per_op", per_unit(kv_stats.gets));
    counts.insert("kvstore.puts_per_op", per_unit(timed_puts));
    counts.insert("kvstore.deletes_per_op", per_unit(kv_stats.deletes));
    counts.insert("kvstore.scanned_per_op", per_unit(kv_stats.scanned));
    counts.insert(
        "storage.wal_appends_per_op",
        per_unit(storage.wal_appends - storage_before.wal_appends),
    );
    counts.insert(
        "storage.flushes",
        (storage.flushes - storage_before.flushes) as f64,
    );
    counts.insert(
        "storage.compactions",
        (storage.compactions - storage_before.compactions) as f64,
    );
    let blocks_read = storage.blocks_read - storage_before.blocks_read;
    let cache_hits = storage.cache_hits - storage_before.cache_hits;
    counts.insert("storage.blocks_read_per_kop", per_unit(blocks_read) * 1e3);
    counts.insert(
        "storage.blocks_written_per_kop",
        per_unit(storage.blocks_written - storage_before.blocks_written) * 1e3,
    );
    counts.insert(
        "storage.block_cache_hit_ratio",
        cache_hits as f64 / (cache_hits + blocks_read).max(1) as f64,
    );
    let user_bytes = timed_puts * (key(0).len() + VALUE_BYTES) as u64;
    counts.insert(
        "storage.write_amp",
        (mem.host_write_bytes - mem_before.host_write_bytes) as f64 / user_bytes.max(1) as f64,
    );
    counts.insert(
        "storage.space_amp",
        engine.disk().bytes() as f64 / (KEYS * (key(0).len() + VALUE_BYTES) as u64) as f64,
    );
    sgx_counts(&mut counts, &[mem], units);

    let sim = Sim {
        cycles: run.mem.cycles(),
        epc_faults: mem.epc_faults,
        host_bytes: mem.host_read_bytes + mem.host_write_bytes,
    };
    timer.finish(run.digest.0, sim, counts)
}
