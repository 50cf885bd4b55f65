//! A plain O(1) LRU cache with hit/miss/eviction counters.
//!
//! The service keeps one instance: finished answers keyed by
//! [`crate::oracle::AnswerKey`], the exact wire bytes of a request's
//! network and query (see `docs/SERVICE.md`).  The implementation is a
//! `HashMap` into a slab-allocated doubly-linked recency list — no
//! external crates, every operation O(1) amortised.  The map and the slab
//! each clone every key; `AnswerKey`'s clones share its bytes.

use std::collections::HashMap;
use std::hash::Hash;
use std::time::{Duration, Instant};

/// Cumulative counters of one cache instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by capacity pressure (not overwrites).
    pub evictions: u64,
    /// Entries dropped because their TTL elapsed — counted separately
    /// from capacity evictions, on both the lookup path (a stale hit is
    /// a miss plus an expiration) and the insert path (displacing a
    /// stale tail is an expiration, not an eviction).
    pub expirations: u64,
}

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    inserted: Instant,
    prev: usize,
    next: usize,
}

/// An LRU map of bounded capacity, with optional entry TTL.
///
/// `get` refreshes recency; `insert` evicts the least-recently-used
/// entry when full.  A capacity of zero caches nothing (every lookup
/// is a miss, every insert an immediate no-op) — the configuration
/// spelling for "cache off".  With a TTL ([`Lru::with_ttl`]) an entry
/// older than the TTL is never served: the lookup removes it, counts an
/// expiration, and reports a miss, so stale answers cannot outlive
/// their window no matter how hot they are.
pub struct Lru<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Entry<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
    ttl: Option<Duration>,
    counters: CacheCounters,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty cache holding at most `capacity` entries, no TTL.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_ttl(capacity, None)
    }

    /// An empty cache holding at most `capacity` entries whose entries
    /// expire `ttl` after insertion (overwrites restart the clock).
    #[must_use]
    pub fn with_ttl(capacity: usize, ttl: Option<Duration>) -> Self {
        Self {
            map: HashMap::with_capacity(capacity.min(1024)),
            slab: Vec::with_capacity(capacity.min(1024)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            ttl,
            counters: CacheCounters::default(),
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no entry is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The counters accumulated so far.
    #[must_use]
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    fn is_expired(&self, idx: usize) -> bool {
        self.ttl
            .is_some_and(|ttl| self.slab[idx].inserted.elapsed() >= ttl)
    }

    /// Looks `key` up, refreshing its recency and counting the outcome.
    /// An entry past its TTL is removed, counted as an expiration, and
    /// reported as a miss — never served.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                if self.is_expired(idx) {
                    self.unlink(idx);
                    self.map.remove(key);
                    self.free.push(idx);
                    self.counters.expirations += 1;
                    self.counters.misses += 1;
                    return None;
                }
                self.counters.hits += 1;
                self.unlink(idx);
                self.push_front(idx);
                Some(&self.slab[idx].value)
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Inserts (or overwrites) `key`, evicting the least-recently-used
    /// entry if the cache is full.  Overwrites restart the TTL clock.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].value = value;
            self.slab[idx].inserted = Instant::now();
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "a full cache has a tail");
            if self.is_expired(victim) {
                self.counters.expirations += 1;
            } else {
                self.counters.evictions += 1;
            }
            self.unlink(victim);
            self.map.remove(&self.slab[victim].key);
            self.free.push(victim);
        }
        let entry = Entry {
            key: key.clone(),
            value,
            inserted: Instant::now(),
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = entry;
                i
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev == NIL {
            if self.head == idx {
                self.head = next;
            }
        } else {
            self.slab[prev].next = next;
        }
        if next == NIL {
            if self.tail == idx {
                self.tail = prev;
            }
        } else {
            self.slab[next].prev = prev;
        }
        self.slab[idx].prev = NIL;
        self.slab[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let mut lru: Lru<u32, &str> = Lru::new(2);
        lru.insert(1, "one");
        lru.insert(2, "two");
        assert_eq!(lru.get(&1), Some(&"one")); // 1 is now most recent
        lru.insert(3, "three"); // evicts 2
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(&"one"));
        assert_eq!(lru.get(&3), Some(&"three"));
        let c = lru.counters();
        assert_eq!(c.evictions, 1);
        assert_eq!(c.hits, 3);
        assert_eq!(c.misses, 1);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn overwrite_refreshes_without_evicting() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        lru.insert(1, 11); // overwrite, no eviction
        assert_eq!(lru.counters().evictions, 0);
        lru.insert(3, 30); // 2 is now LRU (1 was refreshed by overwrite)
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(&11));
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut lru: Lru<u32, u32> = Lru::new(0);
        lru.insert(1, 10);
        assert_eq!(lru.get(&1), None);
        assert!(lru.is_empty());
        assert_eq!(lru.counters().evictions, 0);
    }

    #[test]
    fn single_slot_cache_cycles_through_evictions() {
        let mut lru: Lru<u32, u32> = Lru::new(1);
        for i in 0..5 {
            lru.insert(i, i);
            assert_eq!(lru.get(&i), Some(&i));
        }
        assert_eq!(lru.counters().evictions, 4);
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn expired_entries_are_never_served_and_counted_separately() {
        // A zero TTL expires an entry the instant it lands.
        let mut lru: Lru<u32, &str> = Lru::with_ttl(4, Some(Duration::ZERO));
        lru.insert(1, "one");
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&1), None, "an expired entry is never served");
        assert!(lru.is_empty(), "the stale lookup removed it");
        let c = lru.counters();
        assert_eq!(c.expirations, 1);
        assert_eq!(c.evictions, 0, "TTL drops are not capacity evictions");
        assert_eq!(c.hits, 0);
        assert_eq!(c.misses, 1, "a stale hit reads as a miss to callers");
        // Reinsert after expiry: a fresh entry, fresh clock.
        lru.insert(1, "again");
        assert_eq!(lru.get(&1), None);
        assert_eq!(lru.counters().expirations, 2);
    }

    #[test]
    fn generous_ttl_serves_normally_and_overwrite_restarts_the_clock() {
        let mut lru: Lru<u32, u32> = Lru::with_ttl(2, Some(Duration::from_secs(3600)));
        lru.insert(1, 10);
        assert_eq!(lru.get(&1), Some(&10));
        lru.insert(1, 11);
        assert_eq!(lru.get(&1), Some(&11));
        let c = lru.counters();
        assert_eq!(c.expirations, 0);
        assert_eq!(c.hits, 2);
    }

    #[test]
    fn displacing_a_stale_tail_counts_as_expiration_not_eviction() {
        let mut lru: Lru<u32, u32> = Lru::with_ttl(1, Some(Duration::ZERO));
        lru.insert(1, 10);
        lru.insert(2, 20); // the stale tail (1) is displaced
        let c = lru.counters();
        assert_eq!(c.expirations, 1);
        assert_eq!(c.evictions, 0);
    }
}
