//! Model-based property tests: `SecureKv` — flat or tiered — behaves
//! exactly like a `BTreeMap`, and snapshots are faithful and fresh.

use proptest::prelude::*;
use securecloud_kvstore::{CounterService, SecureKv, StorageConfig, StoreKeys};
use securecloud_sgx::costs::{CostModel, MemoryGeometry};
use securecloud_sgx::mem::MemorySim;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum KvOp {
    Put(Vec<u8>, Vec<u8>),
    Get(Vec<u8>),
    Delete(Vec<u8>),
    Scan(Vec<u8>, Vec<u8>),
}

fn arb_key() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..8, 1..3)
}

fn arb_kv_op() -> impl Strategy<Value = KvOp> {
    // Puts outnumber deletes two to one, so the tiered store's memtable
    // keeps outgrowing its budget and most keys end up in sealed segments.
    prop_oneof![
        (arb_key(), prop::collection::vec(any::<u8>(), 0..64)).prop_map(|(k, v)| KvOp::Put(k, v)),
        (arb_key(), prop::collection::vec(any::<u8>(), 0..64)).prop_map(|(k, v)| KvOp::Put(k, v)),
        arb_key().prop_map(KvOp::Get),
        arb_key().prop_map(KvOp::Delete),
        (arb_key(), arb_key()).prop_map(|(a, b)| KvOp::Scan(a, b)),
    ]
}

fn mem() -> MemorySim {
    MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::zero())
}

proptest! {
    #[test]
    fn kv_matches_btreemap(ops in prop::collection::vec(arb_kv_op(), 0..600)) {
        let mut mem = mem();
        let mut kv = SecureKv::new();
        // The same ops through sealed segments: blocks of a few records, a
        // memtable that flushes every ~50 mutations (two or three segments,
        // one compaction in half the long cases), a cache that scans overflow.
        let mut tiered = SecureKv::tiered(
            StorageConfig {
                block_bytes: 256,
                flush_bytes: 1 << 10,
                cache_blocks: 2,
                compact_at_segments: 3,
            },
            StoreKeys::new([4u8; 16]),
            CounterService::new(),
            "prop/tiered",
        );
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            match op {
                KvOp::Put(k, v) => {
                    // A tiered put reports the previous value only from the
                    // memtable (no host IO on the write path): not compared.
                    tiered.try_put(&mut mem, k, v).unwrap();
                    prop_assert_eq!(kv.try_put(&mut mem, k, v).unwrap(), model.insert(k.clone(), v.clone()));
                }
                KvOp::Get(k) => {
                    let want = model.get(k).map(Vec::as_slice);
                    prop_assert_eq!(tiered.try_get_ref(&mut mem, k).unwrap(), want);
                    prop_assert_eq!(kv.try_get_ref(&mut mem, k).unwrap(), want);
                }
                KvOp::Delete(k) => {
                    prop_assert_eq!(tiered.try_delete(&mut mem, k).unwrap(), model.get(k).cloned());
                    prop_assert_eq!(kv.try_delete(&mut mem, k).unwrap(), model.remove(k));
                }
                KvOp::Scan(a, b) => {
                    let got = kv.try_scan(&mut mem, a, b).unwrap();
                    prop_assert_eq!(&tiered.try_scan(&mut mem, a, b).unwrap(), &got);
                    let want: Vec<(Vec<u8>, Vec<u8>)> = if a <= b {
                        model
                            .range(a.clone()..b.clone())
                            .map(|(k, v)| (k.clone(), v.clone()))
                            .collect()
                    } else {
                        Vec::new()
                    };
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(kv.len(), model.len());
        }
        let expected_bytes: u64 = model
            .iter()
            .map(|(k, v)| (k.len() + v.len()) as u64)
            .sum();
        prop_assert_eq!(kv.data_bytes(), expected_bytes);
        if ops.len() >= 400 {
            let stats = tiered.storage().expect("tiered").stats();
            prop_assert!(stats.flushes >= 2 && stats.blocks_read > 0, "{stats:?}");
        }
    }

    /// Snapshot → restore is the identity on contents, and any *older*
    /// snapshot is rejected by the freshness counter.
    #[test]
    fn snapshot_faithful_and_fresh(
        first in prop::collection::btree_map(arb_key(), prop::collection::vec(any::<u8>(), 0..32), 1..10),
        second_key in arb_key(),
    ) {
        let mut mem = mem();
        let counters = CounterService::new();
        let key = [9u8; 16];
        let mut kv = SecureKv::new();
        for (k, v) in &first {
            kv.try_put(&mut mem, k, v).unwrap();
        }
        let old = kv.snapshot(&key, &counters, "s");
        kv.try_put(&mut mem, &second_key, b"newer").unwrap();
        let new = kv.snapshot(&key, &counters, "s");

        let mut restored = SecureKv::restore(&mut mem, &key, &new.sealed, &counters, "s").unwrap();
        for (k, v) in &first {
            if k != &second_key {
                prop_assert_eq!(restored.try_get_ref(&mut mem, k).unwrap(), Some(&v[..]));
            }
        }
        prop_assert_eq!(restored.try_get_ref(&mut mem, &second_key).unwrap(), Some(&b"newer"[..]));
        // Rollback to the old snapshot is detected.
        prop_assert!(SecureKv::restore(&mut mem, &key, &old.sealed, &counters, "s").is_err());
    }
}
