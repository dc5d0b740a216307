//! A sharded LRU cache: the store's block cache of decompressed chunk
//! payloads, and the service's memo of finished fold bodies.
//!
//! The block cache holds **bytes**, not decoded events: only
//! LZ-compressed chunks earn a slot (their decompressed payload),
//! because uncompressed chunks already decode zero-copy straight out of
//! the reader's file mapping — caching them would just duplicate the
//! page cache. Bytes are also ~5–10x smaller than materialized
//! `TraceEvent`s, so the same memory budget keeps far more of a
//! gigabyte-scale trace warm. The cache is sharded — each shard is its
//! own mutex + map — so the parallel scan path contends only when two
//! workers touch chunks of the same shard, not on one global lock.
//! Eviction is LRU per shard via monotone access stamps. Keys are
//! `u64`, so a 64-bit request digest is a key as it stands.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct Shard<V> {
    /// key → (last-access stamp, value).
    map: HashMap<u64, (u64, V)>,
    tick: u64,
}

/// Hit/miss/eviction counters, for reporting and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Entries displaced by LRU pressure (reinsertions don't count).
    pub evictions: u64,
    /// Distinct insertions, so occupancy churn is derivable.
    pub insertions: u64,
}

impl CacheStats {
    /// Element-wise sum, for aggregating the shards of a store or
    /// every store in a repository.
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            insertions: self.insertions + other.insertions,
        }
    }
}

/// The sharded LRU cache. Values are handed out by clone, so they are
/// meant to be cheap handles (`Arc`s).
pub struct ShardedCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    cap_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
}

impl<V: Clone> ShardedCache<V> {
    /// `shards` independent lock domains of at most `per_shard` entries
    /// each (both at least 1).
    pub fn new(shards: usize, per_shard: usize) -> ShardedCache<V> {
        ShardedCache {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Shard { map: HashMap::new(), tick: 0 }))
                .collect(),
            cap_per_shard: per_shard.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard<V>> {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    /// Look an entry up, refreshing its recency on hit.
    pub fn get(&self, key: u64) -> Option<V> {
        let mut s = self.shard(key).lock().expect("cache shard poisoned");
        s.tick += 1;
        let tick = s.tick;
        match s.map.get_mut(&key) {
            Some((stamp, v)) => {
                *stamp = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert an entry, evicting the shard's least-recently used entry
    /// when full.
    pub fn insert(&self, key: u64, value: V) {
        let mut s = self.shard(key).lock().expect("cache shard poisoned");
        s.tick += 1;
        let tick = s.tick;
        if !s.map.contains_key(&key) {
            if s.map.len() >= self.cap_per_shard {
                if let Some((&victim, _)) = s.map.iter().min_by_key(|(_, (stamp, _))| *stamp) {
                    s.map.remove(&victim);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
        s.map.insert(key, (tick, value));
    }

    /// Entries currently resident (all shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(tag: u64) -> Arc<Vec<u8>> {
        Arc::new(tag.to_le_bytes().to_vec())
    }

    #[test]
    fn hit_miss_accounting() {
        let c = ShardedCache::new(2, 2);
        assert!(c.get(0).is_none());
        c.insert(0, ev(0));
        assert!(c.get(0).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        // One shard so every key collides into the same LRU domain.
        let c = ShardedCache::new(1, 2);
        c.insert(1, ev(1));
        c.insert(2, ev(2));
        assert!(c.get(1).is_some(), "refresh 1 so 2 becomes LRU");
        c.insert(3, ev(3));
        assert!(c.get(2).is_none(), "2 was evicted");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.len(), 2);
        let s = c.stats();
        assert_eq!(s.evictions, 1, "exactly one entry was displaced");
        assert_eq!(s.insertions, 3);
    }

    #[test]
    fn merged_sums_every_counter() {
        let a = CacheStats { hits: 1, misses: 2, evictions: 3, insertions: 4 };
        let b = CacheStats { hits: 10, misses: 20, evictions: 30, insertions: 40 };
        assert_eq!(
            a.merged(b),
            CacheStats { hits: 11, misses: 22, evictions: 33, insertions: 44 }
        );
    }

    #[test]
    fn reinsert_does_not_evict() {
        let c = ShardedCache::new(1, 2);
        c.insert(1, ev(1));
        c.insert(2, ev(2));
        c.insert(2, ev(22));
        assert_eq!(c.len(), 2);
        assert!(c.get(1).is_some());
        assert_eq!(c.get(2).unwrap()[0], 22);
        assert_eq!(c.stats().evictions, 0, "overwrite is not an eviction");
    }

    #[test]
    fn shards_are_independent() {
        let c = ShardedCache::new(4, 1);
        for k in 0..4 {
            c.insert(k, ev(k));
        }
        assert_eq!(c.len(), 4, "one entry per shard, no cross-shard eviction");
    }

    // The fold memo's uses: one shard of shared response bodies keyed
    // by a 64-bit request digest.

    #[test]
    fn hit_returns_the_same_body() {
        let memo = ShardedCache::new(1, 4);
        assert!(memo.get(1).is_none());
        memo.insert(1, Arc::new("body".to_string()));
        let got = memo.get(1).unwrap();
        assert_eq!(*got, "body");
        assert_eq!(memo.stats(), CacheStats { hits: 1, misses: 1, evictions: 0, insertions: 1 });
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn memo_evicts_least_recently_used_at_capacity() {
        let memo = ShardedCache::new(1, 2);
        memo.insert(1, Arc::new("a".to_string()));
        memo.insert(2, Arc::new("b".to_string()));
        memo.get(1); // 2 is now the LRU
        memo.insert(3, Arc::new("c".to_string()));
        assert!(memo.get(1).is_some());
        assert!(memo.get(2).is_none(), "LRU entry should have been evicted");
        assert!(memo.get(3).is_some());
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn memo_reinsert_replaces_the_body() {
        let memo = ShardedCache::new(1, 2);
        memo.insert(1, Arc::new("a".to_string()));
        memo.insert(2, Arc::new("b".to_string()));
        memo.insert(2, Arc::new("b2".to_string()));
        assert_eq!(*memo.get(2).unwrap(), "b2");
        assert!(memo.get(1).is_some());
    }

    #[test]
    fn keys_differing_above_bit_32_are_distinct() {
        let memo = ShardedCache::new(1, 4);
        memo.insert(1, Arc::new("low".to_string()));
        memo.insert(1 + (1 << 32), Arc::new("high".to_string()));
        assert_eq!(memo.len(), 2);
        assert_eq!(*memo.get(1).unwrap(), "low");
        assert_eq!(*memo.get(1 + (1 << 32)).unwrap(), "high");
    }
}
