//! Crash-recovery property tests for the tiered store.
//!
//! A tiered [`SecureKv`] is killed at a random host write — mid-WAL-append,
//! mid-flush, or mid-compaction — then restarted from a clone of the
//! untrusted disk. Whatever the kill point, WAL-tail replay plus the op
//! replay must reconstruct the exact state an uninterrupted run reaches:
//! same version, byte-identical scan. A second property pins the rollback
//! fence: restarting from *any* stale copy of the disk is rejected once
//! the trusted version floor has moved past it. Two more cover write
//! groups: a crash at a group's commit loses that group whole and nothing
//! before it, and grouped writes leave the host the bytes one-by-one
//! writes leave.

use proptest::prelude::*;
use securecloud_kvstore::{
    CounterService, KvError, SecureKv, StorageConfig, StorageError, StoreKeys,
};
use securecloud_sgx::costs::{CostModel, MemoryGeometry};
use securecloud_sgx::mem::MemorySim;

fn mem() -> MemorySim {
    MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::sgx_v1())
}

/// Aggressive thresholds so short op sequences still cross flush and
/// compaction boundaries (the interesting kill points).
fn tiny_config() -> StorageConfig {
    StorageConfig {
        block_bytes: 128,
        flush_bytes: 384,
        cache_blocks: 2,
        compact_at_segments: 2,
    }
}

fn key(k: u8) -> Vec<u8> {
    format!("key/{k:02}").into_bytes()
}

#[derive(Debug, Clone)]
enum Op {
    Put(u8, Vec<u8>),
    Delete(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Puts outnumber deletes three to one so state accumulates enough to
    // cross flush/compaction thresholds.
    prop_oneof![
        (0u8..12, proptest::collection::vec(any::<u8>(), 0..40)).prop_map(|(k, v)| Op::Put(k, v)),
        (12u8..24, proptest::collection::vec(any::<u8>(), 0..40)).prop_map(|(k, v)| Op::Put(k, v)),
        (0u8..24, proptest::collection::vec(any::<u8>(), 0..40)).prop_map(|(k, v)| Op::Put(k, v)),
        (0u8..24).prop_map(Op::Delete),
    ]
}

fn apply(kv: &mut SecureKv, m: &mut MemorySim, op: &Op) -> Result<(), KvError> {
    match op {
        Op::Put(k, v) => kv.try_put(m, &key(*k), v).map(|_| ()),
        Op::Delete(k) => kv.try_delete(m, &key(*k)),
    }
}

/// Applies `group` inside one write group and commits it.
fn apply_group(kv: &mut SecureKv, m: &mut MemorySim, group: &[Op]) -> Result<(), KvError> {
    kv.open_group();
    for op in group {
        apply(kv, m, op)?;
    }
    kv.commit_group(m)
}

fn groups_strategy() -> impl Strategy<Value = Vec<Vec<Op>>> {
    proptest::collection::vec(proptest::collection::vec(op_strategy(), 1..8), 1..10)
}

/// A memtable budget no test sequence reaches: the group commits are the
/// only host writes.
fn roomy_config() -> StorageConfig {
    StorageConfig {
        flush_bytes: 1 << 20,
        ..tiny_config()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn crash_at_any_host_write_recovers_exactly(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        kill_after in 0u64..120,
    ) {
        // Reference: the same ops, uninterrupted.
        let mut rm = mem();
        let mut reference = SecureKv::tiered(
            tiny_config(),
            StoreKeys::new([9u8; 16]),
            CounterService::new(),
            "prop/tier",
        );
        for op in &ops {
            apply(&mut reference, &mut rm, op).expect("uninterrupted run");
        }
        let want_version = reference.version();
        let want_state = reference.try_scan(&mut rm, b"", b"~").expect("reference scan");

        // Victim: killed before its `kill_after + 1`-th host write.
        let mut cm = mem();
        let counters = CounterService::new();
        let store_keys = StoreKeys::new([9u8; 16]);
        let mut kv = SecureKv::tiered(
            tiny_config(),
            store_keys.clone(),
            counters.clone(),
            "prop/tier",
        );
        kv.storage_mut().expect("tiered").fail_after_host_writes(Some(kill_after));
        let mut crash: Option<(usize, u64)> = None;
        for (i, op) in ops.iter().enumerate() {
            let version_before = kv.version();
            match apply(&mut kv, &mut cm, op) {
                Ok(()) => {}
                Err(KvError::Storage(StorageError::CrashInjected)) => {
                    crash = Some((i, version_before));
                    break;
                }
                Err(e) => prop_assert!(false, "unexpected error: {e}"),
            }
        }

        let mut kv = if let Some((i, version_before)) = crash {
            // Simulated restart: only the untrusted disk survives; the
            // enclave reopens it and replays the WAL tail along its MAC
            // chain against the trusted counter floor.
            let disk = kv.storage().expect("tiered").disk().clone();
            drop(kv);
            let (mut kv, report) = SecureKv::reopen(
                &mut cm,
                tiny_config(),
                store_keys,
                counters,
                "prop/tier",
                disk,
            )
            .expect("post-crash reopen");
            prop_assert_eq!(kv.version(), report.recovered_version);
            // The interrupted op is durable iff its WAL record landed
            // before the kill (a crash later in the same call — during a
            // flush or compaction it triggered — loses no mutation).
            let resume = if report.recovered_version > version_before { i + 1 } else { i };
            for op in &ops[resume..] {
                apply(&mut kv, &mut cm, op).expect("replay after recovery");
            }
            kv
        } else {
            kv // the budget outlasted the workload: nothing to recover
        };

        prop_assert_eq!(kv.version(), want_version);
        let got_state = kv.try_scan(&mut cm, b"", b"~").expect("recovered scan");
        prop_assert_eq!(got_state, want_state);
    }

    /// Groups are all or nothing: killed at the commit of group `n`, the
    /// store reopens to exactly the state after groups `0..n`, and replaying
    /// group `n` onward reaches the uninterrupted state.
    #[test]
    fn a_crash_at_a_group_commit_recovers_the_committed_prefix(
        groups in groups_strategy(),
        kill_at in 0u64..12,
    ) {
        let store = |counters: &CounterService| {
            SecureKv::tiered(roomy_config(), StoreKeys::new([7u8; 16]), counters.clone(), "prop/group")
        };
        // Reference states after each prefix of groups.
        let mut rm = mem();
        let mut reference = store(&CounterService::new());
        let mut prefix_states = vec![(0, Vec::new())];
        for group in &groups {
            apply_group(&mut reference, &mut rm, group).expect("uninterrupted run");
            let scan = reference.try_scan(&mut rm, b"", b"~").expect("reference scan");
            prefix_states.push((reference.version(), scan));
        }

        let mut cm = mem();
        let counters = CounterService::new();
        let mut kv = store(&counters);
        kv.storage_mut().expect("tiered").fail_after_host_writes(Some(kill_at));
        let mut crashed_at = None;
        for (n, group) in groups.iter().enumerate() {
            match apply_group(&mut kv, &mut cm, group) {
                Ok(()) => {}
                Err(KvError::Storage(StorageError::CrashInjected)) => {
                    crashed_at = Some(n);
                    break;
                }
                Err(e) => prop_assert!(false, "unexpected error: {e}"),
            }
        }
        // The memtable never flushes, so only a commit can have crashed.
        let Some(n) = crashed_at else {
            return Ok(()); // the budget outlasted the workload
        };
        let disk = kv.storage().expect("tiered").disk().clone();
        drop(kv);
        let (mut kv, _) = SecureKv::reopen(
            &mut cm,
            roomy_config(),
            StoreKeys::new([7u8; 16]),
            counters,
            "prop/group",
            disk,
        )
        .expect("post-crash reopen");
        let (want_version, want_state) = &prefix_states[n];
        prop_assert_eq!(kv.version(), *want_version);
        prop_assert_eq!(&kv.try_scan(&mut cm, b"", b"~").expect("recovered scan"), want_state);
        for group in &groups[n..] {
            apply_group(&mut kv, &mut cm, group).expect("replay after recovery");
        }
        let (final_version, final_state) = prefix_states.last().expect("the empty prefix");
        prop_assert_eq!(kv.version(), *final_version);
        prop_assert_eq!(&kv.try_scan(&mut cm, b"", b"~").expect("final scan"), final_state);
    }

    /// Grouping changes how many host writes carry the WAL, not what it
    /// holds: through flushes and compactions, grouped and one-by-one
    /// writes leave the same sealed bytes on the host, byte for byte.
    #[test]
    fn grouped_and_one_by_one_writes_leave_the_same_disk(groups in groups_strategy()) {
        let store = || {
            SecureKv::tiered(tiny_config(), StoreKeys::new([5u8; 16]), CounterService::new(), "prop/same")
        };
        let (mut m1, mut m2) = (mem(), mem());
        let (mut one_by_one, mut grouped) = (store(), store());
        for group in &groups {
            for op in group {
                apply(&mut one_by_one, &mut m1, op).expect("one-by-one run");
            }
            apply_group(&mut grouped, &mut m2, group).expect("grouped run");
        }
        let (e1, e2) = (one_by_one.storage().expect("tiered"), grouped.storage().expect("tiered"));
        prop_assert_eq!(&e2.disk().wal, &e1.disk().wal);
        prop_assert_eq!(e2.disk(), e1.disk());
        prop_assert_eq!(e2.version(), e1.version());
        let (s1, s2) = (m1.stats(), m2.stats());
        prop_assert_eq!(s2.host_write_bytes, s1.host_write_bytes);
        prop_assert!(s2.host_writes <= s1.host_writes);
    }

    /// However much history separates the copy from the present, a
    /// rolled-back disk is rejected at reopen: every WAL append advanced
    /// the trusted version floor past what the stale manifest + WAL can
    /// replay to.
    #[test]
    fn rolled_back_disk_is_always_rejected(n1 in 1usize..12, n2 in 1usize..12) {
        let mut m = mem();
        let counters = CounterService::new();
        let store_keys = StoreKeys::new([3u8; 16]);
        let mut kv = SecureKv::tiered(
            tiny_config(),
            store_keys.clone(),
            counters.clone(),
            "prop/tier",
        );
        for i in 0..n1 {
            kv.try_put(&mut m, &key(i as u8), b"before the copy").unwrap();
        }
        let stale = kv.storage().expect("tiered").disk().clone();
        for i in 0..n2 {
            kv.try_put(&mut m, &key(i as u8), b"after the copy").unwrap();
        }
        let err = SecureKv::reopen(&mut m, tiny_config(), store_keys, counters, "prop/tier", stale)
            .expect_err("stale disk must be fenced");
        prop_assert!(
            matches!(err, KvError::Storage(StorageError::Rollback { .. })),
            "expected rollback detection, got {err}"
        );
    }
}
