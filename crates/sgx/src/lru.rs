//! A fixed-capacity LRU set over `u64` keys.
//!
//! Used by the memory simulator to track which cache lines are resident in
//! the LLC and which pages are resident in the EPC: [`LruSet::touch`] runs
//! once per simulated cache-line access. Implemented as a slab of
//! doubly-linked 16-byte nodes plus an open-addressed table of slab slots
//! (multiplicative hash, linear probing, backward-shift deletion, at most a
//! quarter full so that a probe rarely has to compare a second node, doubled
//! on demand), so `touch` is O(1). The sequence of hits and evictions is the
//! contract: every simulated cycle derives from it.

const NIL: u32 = u32::MAX;
const MIN_TABLE: usize = 16;

#[derive(Debug, Clone, Copy, Default)]
struct Node {
    key: u64,
    prev: u32,
    next: u32,
}

/// Outcome of touching a key in an [`LruSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Touch {
    /// Whether the key was already resident.
    pub hit: bool,
    /// The key evicted to make room, if any.
    pub evicted: Option<u64>,
}

const HIT: Touch = Touch {
    hit: true,
    evicted: None,
};

/// Fixed-capacity LRU set.
///
/// ```
/// use securecloud_sgx::lru::LruSet;
///
/// let mut lru = LruSet::new(2);
/// assert!(!lru.touch(1).hit);
/// assert!(!lru.touch(2).hit);
/// assert!(lru.touch(1).hit);          // 1 is now most recent
/// let t = lru.touch(3);               // evicts 2 (least recent)
/// assert_eq!(t.evicted, Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct LruSet {
    /// Slab slot per position, `NIL` when empty; a key sits at or after its
    /// home position with no empty position in between. Power-of-two length.
    table: Vec<u32>,
    shift: u32, // 64 - log2(table.len()): the hash is the product's top bits
    /// `slab[0]` holds no key: it anchors the recency ring (`next` is the
    /// most recently used node, `prev` the least) and ends the free list.
    slab: Vec<Node>,
    free: u32, // released slab slots, chained through `next`
    len: usize,
    capacity: usize,
}

impl LruSet {
    /// Creates an LRU set holding at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit the 32-bit slab links.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LruSet capacity must be positive");
        assert!(capacity < NIL as usize, "LruSet capacity must fit u32");
        LruSet {
            table: vec![NIL; MIN_TABLE],
            shift: 64 - MIN_TABLE.trailing_zeros(),
            slab: vec![Node::default()],
            free: 0,
            len: 0,
            capacity,
        }
    }

    /// Number of resident keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `key` is resident (does not affect recency).
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.find(key).1 != NIL
    }

    /// Touches `key`: marks it most-recently-used, inserting (and possibly
    /// evicting the LRU key) if absent.
    pub fn touch(&mut self, key: u64) -> Touch {
        let head = self.slab[0].next;
        if head != 0 && self.slab[head as usize].key == key {
            return HIT;
        }
        let (mut pos, slot) = self.find(key);
        if slot != NIL {
            self.unlink(slot);
            self.push_front(slot);
            return HIT;
        }
        let mut evicted = None;
        if self.len == self.capacity {
            let tail = self.slab[0].prev;
            let victim = self.slab[tail as usize].key;
            evicted = Some((victim, self.find(victim).0));
            self.release(tail);
        } else if (self.len + 1) * 4 > self.table.len() {
            self.grow();
            pos = self.find(key).0;
        }
        let slot = match self.free {
            0 => {
                self.slab.push(Node::default());
                (self.slab.len() - 1) as u32
            }
            slot => {
                self.free = self.slab[slot as usize].next;
                slot
            }
        };
        self.slab[slot as usize].key = key;
        self.len += 1;
        // Indexed at `pos` before the gap the victim leaves is closed, so
        // one probe serves the lookup and the insertion.
        self.table[pos] = slot;
        self.push_front(slot);
        let evicted = evicted.map(|(victim, gap)| {
            self.erase(gap);
            victim
        });
        Touch {
            hit: false,
            evicted,
        }
    }

    /// Removes `key` if resident; returns whether it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        let (pos, slot) = self.find(key);
        if slot != NIL {
            self.erase(pos);
            self.release(slot);
        }
        slot != NIL
    }

    /// Removes every key, keeping the allocation.
    pub fn clear(&mut self) {
        self.table.fill(NIL);
        self.slab.clear();
        self.slab.push(Node::default());
        (self.free, self.len) = (0, 0);
    }

    /// Home position of `key`. Line and page numbers are dense, so a
    /// multiplicative (Fibonacci) hash spreads them without a keyed hasher.
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The position and slab slot of `key`, or the empty position that ends
    /// its probe chain (where it would be inserted) and `NIL`.
    fn find(&self, key: u64) -> (usize, u32) {
        let mask = self.table.len() - 1;
        let mut pos = self.home(key);
        loop {
            let slot = self.table[pos];
            if slot == NIL || self.slab[slot as usize].key == key {
                return (pos, slot);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Empties position `gap` by backward shift: each later entry of the
    /// chain moves into the gap unless that would put it before its home.
    fn erase(&mut self, mut gap: usize) {
        let mask = self.table.len() - 1;
        let mut pos = (gap + 1) & mask;
        while self.table[pos] != NIL {
            let home = self.home(self.slab[self.table[pos] as usize].key);
            if (pos.wrapping_sub(home) & mask) >= (pos.wrapping_sub(gap) & mask) {
                self.table[gap] = self.table[pos];
                gap = pos;
            }
            pos = (pos + 1) & mask;
        }
        self.table[gap] = NIL;
    }

    /// Doubles the table and re-indexes every resident key.
    fn grow(&mut self) {
        self.table = vec![NIL; self.table.len() * 2];
        self.shift -= 1;
        let mut slot = self.slab[0].next;
        while slot != 0 {
            let node = self.slab[slot as usize];
            let pos = self.find(node.key).0;
            self.table[pos] = slot;
            slot = node.next;
        }
    }

    /// Unlinks `slot` and chains its node into the free list.
    fn release(&mut self, slot: u32) {
        self.unlink(slot);
        self.slab[slot as usize].next = self.free;
        self.free = slot;
        self.len -= 1;
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.slab[slot as usize];
        self.slab[prev as usize].next = next;
        self.slab[next as usize].prev = prev;
    }

    fn push_front(&mut self, slot: u32) {
        let head = self.slab[0].next;
        self.slab[slot as usize].prev = 0;
        self.slab[slot as usize].next = head;
        self.slab[head as usize].prev = slot;
        self.slab[0].next = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_hit_miss_evict() {
        let mut lru = LruSet::new(3);
        assert_eq!(
            lru.touch(10),
            Touch {
                hit: false,
                evicted: None
            }
        );
        lru.touch(20);
        lru.touch(30);
        assert!(lru.touch(10).hit);
        // LRU order is now 20 < 30 < 10; inserting evicts 20.
        assert_eq!(lru.touch(40).evicted, Some(20));
        assert!(!lru.contains(20));
        assert_eq!(lru.len(), 3);
    }

    #[test]
    fn capacity_one() {
        let mut lru = LruSet::new(1);
        lru.touch(1);
        assert_eq!(lru.touch(2).evicted, Some(1));
        assert_eq!(lru.touch(3).evicted, Some(2));
        assert!(lru.touch(3).hit);
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn remove_and_reuse() {
        let mut lru = LruSet::new(2);
        lru.touch(1);
        lru.touch(2);
        assert!(lru.remove(1));
        assert!(!lru.remove(1));
        assert_eq!(lru.len(), 1);
        // Removed slot is reused without eviction.
        assert_eq!(lru.touch(3).evicted, None);
        assert_eq!(lru.touch(4).evicted, Some(2));
    }

    #[test]
    fn clear_resets() {
        let mut lru = LruSet::new(4);
        for k in 0..4 {
            lru.touch(k);
        }
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.touch(9).evicted, None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = LruSet::new(0);
    }

    #[test]
    fn eviction_order_is_lru_not_fifo() {
        let mut lru = LruSet::new(3);
        lru.touch(1);
        lru.touch(2);
        lru.touch(3);
        lru.touch(1); // refresh 1
        assert_eq!(lru.touch(4).evicted, Some(2));
        assert_eq!(lru.touch(5).evicted, Some(3));
        assert_eq!(lru.touch(6).evicted, Some(1));
    }

    /// Every table entry is found at its own position, the table holds
    /// exactly the resident keys, and the recency list links all of them.
    fn assert_consistent(lru: &LruSet) {
        let mut indexed = 0;
        for (pos, &slot) in lru.table.iter().enumerate() {
            if slot != NIL {
                indexed += 1;
                assert_eq!(lru.find(lru.slab[slot as usize].key), (pos, slot));
            }
        }
        assert_eq!(indexed, lru.len());
        assert!(lru.len() * 4 <= lru.table.len());
        let (mut linked, mut slot, mut prev) = (0, lru.slab[0].next, 0);
        while slot != 0 {
            assert_eq!(lru.slab[slot as usize].prev, prev);
            linked += 1;
            prev = slot;
            slot = lru.slab[slot as usize].next;
        }
        assert_eq!(lru.slab[0].prev, prev);
        assert_eq!(linked, lru.len());
    }

    /// The first `n` keys (counting up from 0) whose home position is `home`.
    fn keys_homed_at(lru: &LruSet, home: usize, n: usize) -> Vec<u64> {
        (0u64..).filter(|&k| lru.home(k) == home).take(n).collect()
    }

    #[test]
    fn probe_chain_wraps_the_table_end_and_survives_deletion() {
        // Eight keys grow the table to its final 32 positions; it stays
        // there once they are removed.
        let mut lru = LruSet::new(8);
        for k in 0..8 {
            lru.touch(k);
        }
        for k in 0..8 {
            assert!(lru.remove(k));
        }
        let last = lru.table.len() - 1;
        assert_eq!(last, 31);
        let colliding = keys_homed_at(&lru, last, 4);
        let early = keys_homed_at(&lru, 0, 2);
        let at_home = keys_homed_at(&lru, 5, 1);
        // `colliding` fills positions 31, 0, 1, 2; `early` is pushed to 3, 4;
        // `at_home` sits at 5, directly behind the chain.
        for &k in colliding.iter().chain(&early).chain(&at_home) {
            assert!(!lru.touch(k).hit);
            assert_consistent(&lru);
        }
        assert_eq!(lru.find(colliding[3]).0, 2);
        assert_eq!(lru.find(early[1]).0, 4);
        // Deleting the head of the chain shifts the rest back across the
        // wrap, but never moves a key before its home.
        assert!(lru.remove(colliding[0]));
        assert_consistent(&lru);
        assert_eq!(lru.find(colliding[1]).0, last);
        assert_eq!(lru.find(early[0]).0, 2);
        assert_eq!(lru.find(at_home[0]).0, 5);
        assert!(!lru.contains(colliding[0]));
        assert!(!lru.remove(colliding[0]));
        // Evicting misses reuse the victim's node and keep the index whole.
        for k in keys_homed_at(&lru, last, 16).into_iter().skip(4) {
            lru.touch(k);
            assert_consistent(&lru);
        }
        assert_eq!(lru.len(), 8);
        assert_eq!(lru.slab.len(), 1 + 8, "evictions reuse the victim's node");
    }

    #[test]
    fn table_grows_on_demand_and_survives_clear() {
        let mut lru = LruSet::new(1000);
        assert_eq!(lru.table.len(), MIN_TABLE);
        for k in 0..3000u64 {
            let t = lru.touch(k * 4096);
            assert_eq!(t.evicted, k.checked_sub(1000).map(|v| v * 4096));
            if k % 97 == 0 {
                assert_consistent(&lru);
            }
        }
        assert_eq!(lru.table.len(), 4096);
        assert_eq!(lru.slab.len(), 1 + 1000);
        lru.clear();
        assert_consistent(&lru);
        assert!(!lru.contains(2999 * 4096));
        assert_eq!(lru.table.len(), 4096, "clear keeps the allocation");
        assert_eq!(lru.touch(7).evicted, None);
        assert!(lru.touch(7).hit);
        assert_consistent(&lru);
    }

    /// Reference model comparison over a pseudorandom workload.
    #[test]
    fn matches_naive_model() {
        use std::collections::VecDeque;
        let mut lru = LruSet::new(8);
        let mut model: VecDeque<u64> = VecDeque::new(); // front = MRU
        let mut state = 0x12345678u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 33) % 24;
            let expect_hit = model.contains(&key);
            let mut expect_evicted = None;
            if expect_hit {
                let pos = model.iter().position(|&k| k == key).unwrap();
                model.remove(pos);
            } else if model.len() == 8 {
                expect_evicted = model.pop_back();
            }
            model.push_front(key);
            let t = lru.touch(key);
            assert_eq!(t.hit, expect_hit);
            assert_eq!(t.evicted, expect_evicted);
        }
    }
}
