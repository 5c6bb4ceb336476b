//! A fixed-capacity LRU set over small, dense `u64` keys.
//!
//! Used by the memory simulator to track which cache lines are resident in
//! the LLC and which pages are resident in the EPC: [`LruSet::touch`] runs
//! once per simulated cache-line access. Implemented as a dense slab of
//! doubly-linked 16-byte nodes plus an index of slab slots addressed by the
//! key itself, so `touch` is O(1) with one load and no hashing. The index
//! grows to the largest key touched (4 bytes per key), which suits the line
//! and page numbers of a bump-allocated address space and nothing sparser.
//! The sequence of hits and evictions is the contract: every simulated cycle
//! derives from it.

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
/// Keys index a vector directly, so its memory is 4 bytes per key up to the
/// largest key ever touched: use keys drawn from a small, dense range.
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
    /// Slab slot of each key, indexed by the key; 0 means absent, since
    /// `slab[0]` is never a key's slot.
    index: Vec<u32>,
    /// `slab[0]` holds no key: it anchors the recency ring (`next` is the
    /// most recently used node, `prev` the least). The resident keys fill
    /// `slab[1..]` without holes.
    slab: Vec<Node>,
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
        assert!(capacity < u32::MAX as usize, "LruSet capacity must fit u32");
        LruSet {
            index: Vec::new(),
            slab: vec![Node::default()],
            capacity,
        }
    }

    /// Number of resident keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slab.len() - 1
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `key` is resident (does not affect recency).
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.slot(key) != 0
    }

    /// Touches `key`: marks it most-recently-used, inserting (and possibly
    /// evicting the LRU key) if absent.
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit `usize`; aborts if the index cannot grow
    /// to `key + 1` entries.
    pub fn touch(&mut self, key: u64) -> Touch {
        let head = self.slab[0].next;
        if head != 0 && self.slab[head as usize].key == key {
            return HIT;
        }
        let k = usize::try_from(key).expect("LruSet key must fit usize");
        if k >= self.index.len() {
            self.index.resize(k + 1, 0);
        }
        let slot = self.index[k];
        if slot != 0 {
            self.unlink(slot);
            self.push_front(slot);
            return HIT;
        }
        let (slot, evicted) = if self.len() == self.capacity {
            // The victim's node takes the new key.
            let tail = self.slab[0].prev;
            let victim = self.slab[tail as usize].key;
            self.index[victim as usize] = 0;
            self.unlink(tail);
            (tail, Some(victim))
        } else {
            self.slab.push(Node::default());
            ((self.slab.len() - 1) as u32, None)
        };
        self.slab[slot as usize].key = key;
        self.index[k] = slot;
        self.push_front(slot);
        Touch {
            hit: false,
            evicted,
        }
    }

    /// Removes `key` if resident; returns whether it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        let slot = self.slot(key);
        if slot == 0 {
            return false;
        }
        self.index[key as usize] = 0;
        self.unlink(slot);
        // The last node moves into the hole, keeping the slab dense.
        let last = self.slab.pop().expect("a resident key has a node");
        if slot as usize != self.slab.len() {
            self.slab[slot as usize] = last;
            self.slab[last.prev as usize].next = slot;
            self.slab[last.next as usize].prev = slot;
            self.index[last.key as usize] = slot;
        }
        true
    }

    /// Removes every key, keeping the allocation.
    pub fn clear(&mut self) {
        for node in &self.slab[1..] {
            self.index[node.key as usize] = 0;
        }
        self.slab.truncate(1);
        self.slab[0] = Node::default();
    }

    /// The slab slot of `key`, or 0 if it is absent.
    fn slot(&self, key: u64) -> u32 {
        let k = usize::try_from(key).unwrap_or(usize::MAX);
        self.index.get(k).copied().unwrap_or(0)
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

    /// The index holds exactly the resident keys at their slots, the slab has
    /// no holes, and the recency ring links every node.
    fn assert_consistent(lru: &LruSet) {
        let indexed = lru.index.iter().filter(|&&slot| slot != 0).count();
        assert_eq!(indexed, lru.len());
        for (slot, node) in lru.slab.iter().enumerate().skip(1) {
            assert_eq!(lru.index[node.key as usize] as usize, slot);
        }
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

    #[test]
    fn index_grows_to_the_largest_key_and_survives_clear() {
        let mut lru = LruSet::new(1000);
        assert!(lru.index.is_empty());
        for k in 0..3000u64 {
            let t = lru.touch(k * 64);
            assert_eq!(t.evicted, k.checked_sub(1000).map(|v| v * 64));
            if k % 97 == 0 {
                assert_consistent(&lru);
            }
        }
        assert_eq!(lru.index.len(), 2999 * 64 + 1);
        assert_eq!(
            lru.slab.len(),
            1 + 1000,
            "evictions reuse the victim's node"
        );
        // Keys past the index are absent without growing it.
        assert!(!lru.contains(u64::MAX));
        assert!(!lru.remove(3000 * 64));
        assert_eq!(lru.index.len(), 2999 * 64 + 1);
        // Removing from the middle moves the last node into the hole.
        assert!(lru.remove(2500 * 64));
        assert!(lru.remove(2999 * 64));
        assert_consistent(&lru);
        assert_eq!(lru.slab.len(), 1 + 998);
        assert_eq!(lru.touch(1).evicted, None);
        assert_eq!(lru.touch(2).evicted, None);
        assert_eq!(lru.touch(3).evicted, Some(2000 * 64));
        assert_consistent(&lru);
        lru.clear();
        assert_consistent(&lru);
        assert!(!lru.contains(2998 * 64));
        assert_eq!(lru.index.len(), 2999 * 64 + 1, "clear keeps the allocation");
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
