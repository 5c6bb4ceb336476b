//! Replay probes: host time of the layers the harness cannot put a span
//! around, because the layer above owns them (`OperatorState` owns its
//! `SecureKv`, `SecureKv` owns its `StorageEngine`). Each probe calls the
//! layer's public API directly, at the shapes the workload uses, after the
//! passes; each reports the best of [`REPS`] repetitions.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use securecloud_crypto::gcm::{nonce_from_seq, AesGcm};
use securecloud_kvstore::{CounterService, SecureKv, StorageConfig, StoreKeys};
use securecloud_sgx::costs::{CostModel, MemoryGeometry};
use securecloud_sgx::mem::MemorySim;
use securecloud_storage::{Record, StorageEngine};
use securecloud_streaming::state::OperatorState;

const REPS: usize = 5;
/// Each repetition runs at least this long.
const MIN_REP_NS: u64 = 40_000_000;

/// Nanoseconds per call of `body`, best of [`REPS`]; every repetition
/// repeats rounds of `calls_per_round` calls until [`MIN_REP_NS`] passed.
fn best_ns_per_call(calls_per_round: u64, mut body: impl FnMut()) -> f64 {
    (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0;
            loop {
                body();
                calls += calls_per_round;
                let ns = start.elapsed().as_nanos() as u64;
                if ns >= MIN_REP_NS {
                    return ns as f64 / calls as f64;
                }
            }
        })
        .fold(f64::INFINITY, f64::min)
}

/// `crypto.*`: AES-GCM at the sizes the workloads seal — a 4 KiB storage
/// block, a ~25 KiB frame of 256 events, a 64 B WAL-record-sized message.
pub fn crypto(out: &mut BTreeMap<&'static str, f64>) {
    let cipher = AesGcm::new(&[0x42; 16]);
    let nonce = nonce_from_seq(7, 1);
    let aad = b"benchmark probe";
    for (bytes, seal_metric, open_metric) in [
        (4096, "crypto.seal_mb_per_s_4k", "crypto.open_mb_per_s_4k"),
        (
            25 * 1024,
            "crypto.seal_mb_per_s_25k",
            "crypto.open_mb_per_s_25k",
        ),
    ] {
        let mut buf = vec![0xA5u8; bytes];
        let seal_ns = best_ns_per_call(1, || {
            black_box(cipher.seal_in_place_detached(&nonce, black_box(&mut buf), aad));
        });
        let sealed = cipher.seal(&nonce, &vec![0xA5u8; bytes], aad);
        let open_ns = best_ns_per_call(1, || {
            black_box(cipher.open(&nonce, black_box(&sealed), aad)).expect("probe frame opens");
        });
        // bytes per nanosecond x 1000 = MB/s.
        out.insert(seal_metric, bytes as f64 / seal_ns * 1e3);
        out.insert(open_metric, bytes as f64 / open_ns * 1e3);
    }
    let mut small = [0x5Au8; 64];
    out.insert(
        "crypto.small_seal_ns",
        best_ns_per_call(1, || {
            black_box(cipher.seal_in_place_detached(&nonce, black_box(&mut small), aad));
        }),
    );
}

/// `sgx.touch_ns`: host cost of the memory simulator itself, per cache-line
/// access, sweeping a region larger than the simulated LLC.
pub fn sgx(out: &mut BTreeMap<&'static str, f64>) {
    let mut mem = MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::sgx_v1());
    let bytes: u64 = 16 << 20;
    let region = mem.alloc(bytes);
    let lines = bytes / 64;
    out.insert(
        "sgx.touch_ns",
        best_ns_per_call(lines, || mem.touch_region(region, 0, bytes as usize)),
    );
    black_box(mem.cycles());
}

/// `streaming.observe_us`, `streaming.drain_us_per_result` and the
/// `kvstore.*_us` of the aggregators: one window of the meter-keyed
/// operator (6 400 keys, three readings each) per repetition, first through
/// `OperatorState`, then the same keys and values straight on a `SecureKv`.
pub fn streaming(out: &mut BTreeMap<&'static str, f64>) {
    const KEYS: u64 = 6_400;
    const READINGS: u64 = 3;
    let mut state = OperatorState::new(
        "meter-usage",
        MemoryGeometry::sgx_v1(),
        OperatorState::default_storage(),
    );
    let (mut observe, mut drain) = (f64::INFINITY, f64::INFINITY);
    for window in 0..REPS as u64 {
        let start = Instant::now();
        for reading in 0..READINGS {
            for key in 0..KEYS {
                state
                    .observe("a", window * 900_000, key, reading as f64 + 0.5)
                    .expect("probe state decodes");
            }
        }
        observe = observe.min(start.elapsed().as_nanos() as f64 / (KEYS * READINGS) as f64);
        let start = Instant::now();
        let results = state
            .drain("a", window * 900_000)
            .expect("probe state drains");
        drain = drain.min(start.elapsed().as_nanos() as f64 / results.len() as f64);
        assert_eq!(results.len() as u64, KEYS, "one result per key");
    }
    out.insert("streaming.observe_us", observe / 1e3);
    out.insert("streaming.drain_us_per_result", drain / 1e3);

    let mut mem = MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::sgx_v1());
    let mut kv = SecureKv::tiered(
        OperatorState::default_storage(),
        StoreKeys::new([0x51; 16]),
        CounterService::new(),
        "benchmark/probe",
    );
    let (mut get, mut put, mut scan) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let value = [0x33u8; 32];
    for window in 0..REPS as u64 {
        let keys: Vec<Vec<u8>> = (0..KEYS)
            .map(|k| format!("meter-usage/a/{:016x}/{k:016x}", window * 900_000).into_bytes())
            .collect();
        let (mut get_ns, mut put_ns) = (0, 0);
        for _ in 0..READINGS {
            let start = Instant::now();
            for key in &keys {
                black_box(kv.get_ref(&mut mem, key));
            }
            get_ns += start.elapsed().as_nanos();
            let start = Instant::now();
            for key in &keys {
                kv.put(&mut mem, key, &value);
            }
            put_ns += start.elapsed().as_nanos();
        }
        get = get.min(get_ns as f64 / (KEYS * READINGS) as f64);
        put = put.min(put_ns as f64 / (KEYS * READINGS) as f64);
        let mut to = keys[0][..keys[0].len() - 17].to_vec();
        to.push(b'0');
        let start = Instant::now();
        let pairs = kv.scan(&mut mem, &keys[0][..keys[0].len() - 16], &to);
        scan = scan.min(start.elapsed().as_nanos() as f64);
        assert_eq!(pairs.len() as u64, KEYS, "the scan covers the window");
        for (key, _) in &pairs {
            kv.delete(&mut mem, key);
        }
    }
    out.insert("kvstore.get_us", get / 1e3);
    out.insert("kvstore.put_us", put / 1e3);
    out.insert("kvstore.scan_us", scan / 1e3);
}

/// The shape of the records a workload keeps in the storage engine.
pub struct StorageShape {
    pub key_bytes: usize,
    pub value_bytes: usize,
    pub config: StorageConfig,
}

/// `storage.*_us`: WAL append, memtable-sized flush, and block-opening
/// lookup on a `StorageEngine`, at the record shape of the workload.
pub fn storage(out: &mut BTreeMap<&'static str, f64>, shape: &StorageShape) {
    let record_bytes = (shape.key_bytes + shape.value_bytes) as u64;
    let records: Vec<Record> = (0..shape.config.flush_bytes / record_bytes)
        .map(|i| Record::Put {
            key: format!("{i:0width$}", width = shape.key_bytes).into_bytes(),
            value: vec![(i % 251) as u8; shape.value_bytes],
        })
        .collect();
    let (mut append, mut flush, mut lookup) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for rep in 0..REPS {
        let mut mem = MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::sgx_v1());
        let mut engine = StorageEngine::create(
            shape.config.clone(),
            StoreKeys::new([0x77; 16]),
            CounterService::new(),
            format!("benchmark/probe/{rep}"),
        );
        let start = Instant::now();
        for record in &records {
            engine.append(&mut mem, record).expect("probe WAL append");
        }
        append = append.min(start.elapsed().as_nanos() as f64 / records.len() as f64);
        let start = Instant::now();
        engine.flush(&mut mem, &records).expect("probe flush");
        let kib = (records.len() as u64 * record_bytes) as f64 / 1024.0;
        flush = flush.min(start.elapsed().as_nanos() as f64 / kib);
        // A stride coprime to the record count visits every block before
        // any repeats: the 8-block cache never helps, as in `kv_mixed`.
        let stride = records.len() / 2 + 1;
        let lookups = records.len().min(2_000);
        let start = Instant::now();
        for i in 0..lookups {
            let key = records[(i * stride) % records.len()].key();
            let found = engine.lookup_ref(&mut mem, key).expect("probe lookup");
            assert!(black_box(found).is_some(), "flushed key is found");
        }
        lookup = lookup.min(start.elapsed().as_nanos() as f64 / lookups as f64);
    }
    out.insert("storage.append_us", append / 1e3);
    out.insert("storage.flush_us_per_kib", flush / 1e3);
    out.insert("storage.lookup_us", lookup / 1e3);
}
