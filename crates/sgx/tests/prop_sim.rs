//! Property-based tests for the SGX simulator's invariants.

use proptest::prelude::*;
use securecloud_sgx::costs::{CostModel, MemoryGeometry};
use securecloud_sgx::lru::{LruSet, Touch};
use securecloud_sgx::mem::MemorySim;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
enum Op {
    Touch,
    Remove,
    Contains,
    Clear,
}

/// Drives an `LruSet` and a naive deque (front = MRU) through the same
/// steps, comparing every outcome.
fn check_against_model(capacity: usize, ops: impl IntoIterator<Item = (Op, u64)>) {
    let mut lru = LruSet::new(capacity);
    let mut model: VecDeque<u64> = VecDeque::new();
    for (op, key) in ops {
        let resident = model.iter().position(|&k| k == key);
        match op {
            Op::Clear => {
                lru.clear();
                model.clear();
            }
            Op::Remove => {
                assert_eq!(lru.remove(key), resident.is_some());
                if let Some(pos) = resident {
                    model.remove(pos);
                }
            }
            Op::Contains => assert_eq!(lru.contains(key), resident.is_some()),
            Op::Touch => {
                let mut evicted = None;
                if let Some(pos) = resident {
                    model.remove(pos);
                } else if model.len() == capacity {
                    evicted = model.pop_back();
                }
                model.push_front(key);
                let hit = resident.is_some();
                assert_eq!(lru.touch(key), Touch { hit, evicted });
            }
        }
        assert_eq!(lru.len(), model.len());
        assert_eq!(lru.is_empty(), model.is_empty());
        assert_eq!(lru.contains(key), model.contains(&key));
    }
}

proptest! {
    /// The slab-based LRU behaves exactly like a naive deque model.
    #[test]
    fn lru_matches_reference_model(
        capacity in 1usize..16,
        keys in prop::collection::vec(0u64..32, 0..500),
    ) {
        check_against_model(capacity, keys.into_iter().map(|key| (Op::Touch, key)));
    }

    /// LRU removal keeps the set consistent with the model.
    #[test]
    fn lru_with_removals(
        capacity in 1usize..8,
        ops in prop::collection::vec((any::<bool>(), 0u64..16), 0..300),
    ) {
        let op = |is_remove| if is_remove { Op::Remove } else { Op::Touch };
        check_against_model(capacity, ops.into_iter().map(|(is_remove, key)| (op(is_remove), key)));
    }

    /// The same equivalence at scale: capacities around powers of two up to
    /// 2049, keys sparse and strided (multiples of the line size, the page
    /// size and every power of two from 16 to 32 Ki, and odd strides), twice
    /// as many keys as fit, removals of absent keys and reuse after `clear`.
    /// Keys stay below 2^24, so one case's index stays within 64 MiB: a
    /// power-of-two stride that would carry the universe past that is halved
    /// until it fits.
    #[test]
    fn lru_matches_reference_model_on_strided_keys(
        log2 in 0u32..12,
        around in 0usize..3,
        stride in prop_oneof![
            Just(1u64),
            Just(64u64),
            Just(4096u64),
            (4u32..16).prop_map(|s| 1u64 << s),
            (0u64..1 << 10).prop_map(|m| 2 * m + 1),
        ],
        base in 0u64..1 << 22,
        seed in any::<u64>(),
    ) {
        let capacity = ((1usize << log2) + around).saturating_sub(1).max(1);
        let universe = 2 * capacity as u64 + 3;
        let mut stride = stride;
        while base + stride * universe >= 1 << 24 {
            stride >>= 1;
        }
        let mut state = seed;
        let ops = (0..6 * capacity + 200).map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let op = match (state >> 20) % 4096 {
                0 => Op::Clear,
                1..=800 => Op::Remove,
                801..=1200 => Op::Contains,
                _ => Op::Touch,
            };
            (op, base + (state >> 40) % universe * stride)
        });
        check_against_model(capacity, ops);
    }

    /// Simulated cycles are monotone in the amount of memory touched, and
    /// enclave execution never costs less than native for the same trace.
    #[test]
    fn enclave_never_cheaper_than_native(
        touches in prop::collection::vec((0u64..512, 1usize..256), 1..100),
    ) {
        let geometry = MemoryGeometry {
            line_bytes: 64,
            llc_bytes: 64 * 16,
            page_bytes: 4096,
            epc_total_bytes: 4096 * 8,
            epc_reserved_bytes: 4096 * 2,
        };
        let costs = CostModel::sgx_v1();
        let mut native = MemorySim::native(geometry, costs.clone());
        let mut enclave = MemorySim::enclave(geometry, costs);
        let rn = native.alloc(512 * 64 + 4096);
        let re = enclave.alloc(512 * 64 + 4096);
        for (line, len) in touches {
            let offset = line * 64;
            let len = len.min((rn.len() - offset) as usize).max(1);
            native.touch_region(rn, offset, len);
            enclave.touch_region(re, offset, len);
        }
        prop_assert!(enclave.cycles() >= native.cycles());
        prop_assert_eq!(
            native.stats().line_accesses,
            enclave.stats().line_accesses
        );
    }

    /// Stats identities: hits + misses == accesses; faults <= misses.
    #[test]
    fn stats_identities(
        touches in prop::collection::vec((0u64..2048, 1usize..64), 1..200),
    ) {
        let mut sim = MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::sgx_v1());
        let region = sim.alloc(2048 * 64 + 64);
        for (line, len) in touches {
            let offset = line * 64;
            let len = len.min((region.len() - offset) as usize).max(1);
            sim.touch_region(region, offset, len);
        }
        let s = sim.stats();
        prop_assert_eq!(s.cache_hits + s.llc_misses, s.line_accesses);
        prop_assert!(s.epc_faults <= s.llc_misses);
        prop_assert!(s.epc_evictions <= s.epc_faults);
    }
}
