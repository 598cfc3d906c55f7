//! A small LRU buffer pool modelling the `M/B` block frames of main memory.
//!
//! Keys are `(array_id, block_idx)` pairs; the pool answers "was this block
//! already resident?" and maintains recency with an intrusive doubly-linked
//! list over a slab, so every operation is O(1).

use std::collections::HashMap;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Frame {
    key: (u64, u64),
    prev: usize,
    next: usize,
}

/// An LRU set of block identifiers with fixed capacity.
#[derive(Debug)]
pub struct LruPool {
    capacity: usize,
    map: HashMap<(u64, u64), usize>,
    frames: Vec<Frame>,
    head: usize, // most recently used
    tail: usize, // least recently used
    free: Vec<usize>,
    hits: u64,
    misses: u64,
}

impl LruPool {
    /// A pool with room for `capacity` blocks. Capacity 0 caches nothing.
    pub fn new(capacity: usize) -> Self {
        LruPool {
            capacity,
            map: HashMap::with_capacity(capacity),
            frames: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Record an access to `(array_id, block_idx)`.
    ///
    /// Returns `true` on a hit (block was resident), `false` on a miss; on a
    /// miss the block is brought in, evicting the LRU block if full.
    pub fn access(&mut self, array_id: u64, block_idx: u64) -> bool {
        if self.probe(array_id, block_idx) {
            return true;
        }
        self.admit(array_id, block_idx);
        false
    }

    /// Hit-only half of [`LruPool::access`]: if the block is resident,
    /// promote it and count a hit; otherwise change *nothing* (no miss is
    /// counted). Pair with [`LruPool::admit`] or [`LruPool::record_miss`]
    /// once the outcome of the disk read is known — the fallible read path
    /// uses this so a failed read never caches the block it failed to read.
    pub fn probe(&mut self, array_id: u64, block_idx: u64) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(&slot) = self.map.get(&(array_id, block_idx)) {
            self.unlink(slot);
            self.push_front(slot);
            self.hits += 1;
            return true;
        }
        false
    }

    /// Count a miss without caching anything (a disk read that failed).
    pub fn record_miss(&mut self) {
        self.misses += 1;
    }

    /// Count a miss and bring the block in, evicting the LRU block if full.
    /// (With zero capacity only the miss is counted.)
    pub fn admit(&mut self, array_id: u64, block_idx: u64) {
        self.misses += 1;
        if self.capacity > 0 {
            self.insert((array_id, block_idx));
        }
    }

    /// Make blocks `0..blocks` of `array_id` the most recently used,
    /// admitting the absent ones (each evicts the LRU block if the pool is
    /// full) and promoting the resident ones, without counting a hit or a
    /// miss. This is memory held as working space rather than a block
    /// read, so it displaces residents but stays out of the statistics.
    pub fn hold(&mut self, array_id: u64, blocks: u64) {
        if self.capacity == 0 {
            return;
        }
        for block_idx in 0..blocks {
            match self.map.get(&(array_id, block_idx)) {
                Some(&slot) => {
                    self.unlink(slot);
                    self.push_front(slot);
                }
                None => self.insert((array_id, block_idx)),
            }
        }
    }

    /// Insert an absent key as the MRU frame, evicting the LRU one if full.
    fn insert(&mut self, key: (u64, u64)) {
        if self.map.len() == self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.frames[victim].key);
            self.free.push(victim);
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.frames[s].key = key;
                s
            }
            None => {
                self.frames.push(Frame {
                    key,
                    prev: NIL,
                    next: NIL,
                });
                self.frames.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
    }

    /// `(hits, misses)` observed so far. Accesses while the pool has zero
    /// capacity count as misses, matching their I/O cost.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Zero the hit/miss statistics (residency is untouched).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Fold another pool's statistics into this one (used when a scoped
    /// child meter rolls up into its parent).
    pub fn absorb_stats(&mut self, hits: u64, misses: u64) {
        self.hits += hits;
        self.misses += misses;
    }

    /// Evict everything. Hit/miss statistics are kept.
    pub fn clear(&mut self) {
        self.map.clear();
        self.frames.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.frames[slot].prev, self.frames[slot].next);
        if prev != NIL {
            self.frames[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.frames[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.frames[slot].prev = NIL;
        self.frames[slot].next = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        self.frames[slot].prev = NIL;
        self.frames[slot].next = self.head;
        if self.head != NIL {
            self.frames[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_capacity_never_hits() {
        let mut p = LruPool::new(0);
        assert!(!p.access(0, 0));
        assert!(!p.access(0, 0));
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn hit_after_miss() {
        let mut p = LruPool::new(2);
        assert!(!p.access(0, 7));
        assert!(p.access(0, 7));
    }

    #[test]
    fn lru_eviction_order() {
        let mut p = LruPool::new(2);
        p.access(0, 1);
        p.access(0, 2);
        p.access(0, 1); // 1 is now MRU; 2 is LRU
        p.access(0, 3); // evicts 2
        assert!(p.access(0, 1));
        assert!(!p.access(0, 2));
    }

    #[test]
    fn distinct_arrays_do_not_collide() {
        let mut p = LruPool::new(4);
        assert!(!p.access(0, 0));
        assert!(!p.access(1, 0));
        assert!(p.access(0, 0));
        assert!(p.access(1, 0));
    }

    #[test]
    fn clear_evicts_all() {
        let mut p = LruPool::new(4);
        p.access(0, 0);
        p.access(0, 1);
        p.clear();
        assert!(p.is_empty());
        assert!(!p.access(0, 0));
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut p = LruPool::new(2);
        p.access(0, 1); // miss
        p.access(0, 1); // hit
        p.access(0, 2); // miss
        p.access(0, 3); // miss, evicts 1
        p.access(0, 1); // miss
        assert_eq!(p.stats(), (1, 4));
        p.absorb_stats(2, 3);
        assert_eq!(p.stats(), (3, 7));
        p.clear();
        assert_eq!(p.stats(), (3, 7), "clear keeps stats");
        p.reset_stats();
        assert_eq!(p.stats(), (0, 0));
    }

    #[test]
    fn zero_capacity_counts_misses() {
        let mut p = LruPool::new(0);
        p.access(0, 0);
        p.access(0, 0);
        assert_eq!(p.stats(), (0, 2));
    }

    #[test]
    fn probe_never_admits_and_record_miss_never_caches() {
        let mut p = LruPool::new(2);
        assert!(!p.probe(0, 0), "cold probe misses");
        assert_eq!(p.stats(), (0, 0), "probe alone counts nothing");
        p.record_miss(); // a failed disk read: cost observed, nothing cached
        assert_eq!(p.stats(), (0, 1));
        assert!(!p.probe(0, 0), "failed read did not cache the block");
        p.admit(0, 0);
        assert!(p.probe(0, 0), "admit caches");
        assert_eq!(p.stats(), (1, 2));
    }

    #[test]
    fn hold_admits_and_promotes_without_counting() {
        let mut p = LruPool::new(3);
        p.access(0, 1);
        p.access(0, 2);
        p.access(0, 3); // LRU order (oldest first): 1, 2, 3
        p.hold(9, 2); // admits (9, 0), (9, 1): evicts 1 then 2
        assert_eq!(p.stats(), (0, 3), "hold counts neither hits nor misses");
        assert_eq!(p.len(), 3);
        p.hold(9, 1); // promotes (9, 0): LRU order is now 3, (9, 1), (9, 0)
        assert_eq!(p.stats(), (0, 3));
        assert!(p.probe(0, 3), "3 survived both holds");
        assert!(!p.probe(0, 1) && !p.probe(0, 2), "1 and 2 were the victims");
        p.access(0, 4); // evicts (9, 1), the LRU block
        assert!(p.probe(9, 0) && !p.probe(9, 1));
        let mut empty = LruPool::new(0);
        empty.hold(9, 4);
        assert!(empty.is_empty());
        assert_eq!(empty.stats(), (0, 0));
    }

    #[test]
    fn zero_capacity_admit_counts_but_never_caches() {
        let mut p = LruPool::new(0);
        p.admit(0, 0);
        assert_eq!(p.stats(), (0, 1));
        assert!(p.is_empty());
    }

    #[test]
    fn stress_against_reference_model() {
        // Compare with a simple Vec-based LRU model, over the combined
        // `access` and the fallible read path's split protocol: `probe`,
        // then `admit` when the disk read succeeds or `record_miss` when
        // it fails.
        let mut p = LruPool::new(3);
        let mut model: Vec<(u64, u64)> = Vec::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        let mut x: u64 = 12345;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let key = (x >> 61, (x >> 33) % 6);
            let model_hit = if let Some(pos) = model.iter().position(|&k| k == key) {
                model.remove(pos);
                model.insert(0, key);
                hits += 1;
                true
            } else {
                misses += 1;
                false
            };
            let read_fails = (x >> 20) % 3 == 2;
            if !model_hit && !read_fails {
                model.insert(0, key);
                model.truncate(3);
            }
            let hit = if !read_fails && x & (1 << 24) == 0 {
                p.access(key.0, key.1)
            } else {
                let hit = p.probe(key.0, key.1);
                if !hit && read_fails {
                    p.record_miss();
                } else if !hit {
                    p.admit(key.0, key.1);
                }
                hit
            };
            assert_eq!(hit, model_hit);
            assert_eq!(p.stats(), (hits, misses));
            assert_eq!(p.len(), model.len());
        }
    }
}
