//! Consistent-hash key routing.
//!
//! Keys are routed to shard groups through a consistent-hash ring with a
//! configurable number of virtual nodes per shard. The hash is a fixed
//! FNV-1a (no per-process seed), so routing is deterministic across runs —
//! the property the equal-seed trace tests and the repro benchmarks rely
//! on. FNV-1a alone has weak avalanche on the short inputs used here
//! (sequential keys and ring-point indices land in clusters), so every
//! position also passes through the SplitMix64 finaliser. Consistent
//! hashing keeps resharding cheap: growing from `n` to `n + 1` shards
//! remaps roughly `1/(n+1)` of the keyspace instead of reshuffling
//! everything.

use crate::ShardId;
use securecloud_telemetry::rng::mix64;
use securecloud_telemetry::{fnv1a, FNV_OFFSET};

/// A consistent-hash ring mapping keys to shard groups.
///
/// ```
/// use securecloud_replica::shard::ShardMap;
///
/// let map = ShardMap::new(4, 16);
/// let shard = map.shard_for(b"meter/0042/total_kwh");
/// assert!(shard.0 < 4);
/// // Routing is a pure function of the key.
/// assert_eq!(shard, map.shard_for(b"meter/0042/total_kwh"));
/// ```
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// Ring points sorted by position: `(position, shard)`.
    points: Vec<(u64, ShardId)>,
    shards: u32,
    virtual_nodes: u32,
}

impl ShardMap {
    /// Builds a ring with `virtual_nodes` points per shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `virtual_nodes` is zero.
    #[must_use]
    pub fn new(shards: u32, virtual_nodes: u32) -> Self {
        assert!(shards > 0, "ShardMap needs at least one shard");
        assert!(
            virtual_nodes > 0,
            "ShardMap needs at least one virtual node"
        );
        let mut points = Vec::with_capacity((shards * virtual_nodes) as usize);
        for shard in 0..shards {
            for vnode in 0..virtual_nodes {
                let mut state = fnv1a(FNV_OFFSET, b"securecloud-shard-ring-v1");
                state = fnv1a(state, &shard.to_le_bytes());
                state = fnv1a(state, &vnode.to_le_bytes());
                points.push((mix64(state), ShardId(shard)));
            }
        }
        points.sort_unstable();
        ShardMap {
            points,
            shards,
            virtual_nodes,
        }
    }

    /// Number of shards in the ring.
    #[must_use]
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Virtual nodes per shard.
    #[must_use]
    pub fn virtual_nodes(&self) -> u32 {
        self.virtual_nodes
    }

    /// The shard responsible for `key`: the first ring point at or after
    /// the key's hash, wrapping around at the top of the ring.
    #[must_use]
    pub fn shard_for(&self, key: &[u8]) -> ShardId {
        let hash = mix64(fnv1a(FNV_OFFSET, key));
        let idx = self.points.partition_point(|&(pos, _)| pos < hash);
        let (_, shard) = self.points[idx % self.points.len()];
        shard
    }

    /// Counts how many of `keys` land on each shard (balance diagnostics).
    #[must_use]
    pub fn distribution<'a>(&self, keys: impl IntoIterator<Item = &'a [u8]>) -> Vec<u64> {
        let mut counts = vec![0u64; self.shards as usize];
        for key in keys {
            counts[self.shard_for(key).0 as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u32) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("meter/{i:06}").into_bytes())
            .collect()
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let a = ShardMap::new(4, 16);
        let b = ShardMap::new(4, 16);
        for key in keys(500) {
            let shard = a.shard_for(&key);
            assert_eq!(shard, b.shard_for(&key));
            assert!(shard.0 < 4);
        }
    }

    #[test]
    fn every_shard_gets_a_fair_slice() {
        let map = ShardMap::new(8, 32);
        let keys = keys(8_000);
        let counts = map.distribution(keys.iter().map(Vec::as_slice));
        assert_eq!(counts.iter().sum::<u64>(), 8_000);
        for (shard, &count) in counts.iter().enumerate() {
            // Perfect balance would be 1000/shard; virtual nodes keep the
            // skew well under 3x.
            assert!(count > 300, "shard {shard} starved: {counts:?}");
            assert!(count < 3_000, "shard {shard} overloaded: {counts:?}");
        }
    }

    #[test]
    fn growing_the_ring_moves_only_a_fraction_of_keys() {
        let before = ShardMap::new(4, 32);
        let after = ShardMap::new(5, 32);
        let keys = keys(4_000);
        let moved = keys
            .iter()
            .filter(|k| before.shard_for(k) != after.shard_for(k))
            .count();
        // Ideal is 1/5 = 800; allow generous slack but far from a reshuffle
        // (a modulo-hash scheme would move ~80% here).
        assert!(moved > 0, "adding a shard must take over some keys");
        assert!(
            moved < 1_800,
            "consistent hashing should move ~1/5 of keys, moved {moved}/4000"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardMap::new(0, 16);
    }
}
