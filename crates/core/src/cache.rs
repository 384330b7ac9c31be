//! Generation-keyed LRU cache for facade query results (DESIGN.md §11).
//!
//! Repeated `similar`/MLQL queries against an unchanged lake are common —
//! interactive exploration, audit sweeps, MLQL sub-queries — and each one
//! re-runs fingerprinting plus an index search. [`QueryCache`] memoises the
//! final result, keyed by `(query, index generation)`.
//!
//! **Invalidation is by key, not by flush**: the generation component is the
//! event-log head, which advances on *every* lake mutation (ingest, card
//! update, registration, graph rebuild). A mutation therefore never has to
//! touch the cache — post-mutation lookups simply miss because their key
//! carries the new generation, and the stale entries age out of the LRU (or
//! are pruned when a newer-generation value is inserted). Over-invalidation
//! (e.g. a card update invalidating `similar` results) is deliberate: the
//! cache must never serve a result the current lake would not produce.

use crate::registry::ModelId;
use mlake_fingerprint::FingerprintKind;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Cache key: the query as asked, plus the lake generation. A lake's
/// caches are its own, so nothing about its layout (index parameters)
/// belongs in the key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    pub query: CachedQuery,
    /// Event-log head at lookup time.
    pub generation: u64,
}

/// The parameters that determine a facade query's result on a fixed
/// lake generation; `k` is the clamped result size.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum CachedQuery {
    Similar { id: ModelId, kind: FingerprintKind, k: usize },
    Text { query: String, k: usize },
    Hybrid { id: ModelId, kind: FingerprintKind, query: String, k: usize },
    Mlql { text: String },
}

struct Entry<V> {
    /// Logical clock of the last touch (monotone per cache).
    stamp: u64,
    value: V,
}

struct Inner<V> {
    map: HashMap<CacheKey, Entry<V>>,
    tick: u64,
}

/// A small LRU map from [`CacheKey`] to a cloneable query result.
///
/// Eviction scans for the least-recently-used entry — O(n) on insert,
/// which at the facade's capacity (`QUERY_CACHE_ENTRIES`, 128) is noise
/// next to the query it spares.
pub(crate) struct QueryCache<V> {
    capacity: usize,
    inner: Mutex<Inner<V>>,
}

impl<V: Clone> QueryCache<V> {
    pub(crate) fn new(capacity: usize) -> QueryCache<V> {
        QueryCache {
            capacity,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
        }
    }

    /// Looks up `key`, refreshing its LRU stamp; counts `cache.hit` /
    /// `cache.miss`.
    pub(crate) fn get(&self, key: &CacheKey) -> Option<V> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let obs = mlake_obs::enabled();
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.stamp = tick;
                if obs {
                    mlake_obs::counter!("cache.hit").inc();
                }
                Some(entry.value.clone())
            }
            None => {
                if obs {
                    mlake_obs::counter!("cache.miss").inc();
                }
                None
            }
        }
    }

    /// Inserts a value, pruning dead generations and evicting the LRU
    /// entry when full.
    pub(crate) fn put(&self, key: CacheKey, value: V) {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        // Entries from older generations can never hit again (the head
        // only advances); drop them rather than letting them squat in the
        // LRU.
        let generation = key.generation;
        inner.map.retain(|k, _| k.generation >= generation);
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
            }
        }
        inner.map.insert(key, Entry { stamp: tick, value });
    }

    /// Number of live entries (test/introspection hook).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(text: &str, k: usize, generation: u64) -> CacheKey {
        CacheKey {
            query: CachedQuery::Text { query: text.into(), k },
            generation,
        }
    }

    #[test]
    fn hit_after_put_miss_after_generation_bump() {
        let cache: QueryCache<Vec<u32>> = QueryCache::new(8);
        let k0 = key("q", 5, 1);
        assert_eq!(cache.get(&k0), None);
        cache.put(k0.clone(), vec![1, 2, 3]);
        assert_eq!(cache.get(&k0), Some(vec![1, 2, 3]));
        // Same query, newer generation: structurally a different key.
        assert_eq!(cache.get(&key("q", 5, 2)), None);
        // Different k: different key.
        assert_eq!(cache.get(&key("q", 6, 1)), None);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache: QueryCache<u32> = QueryCache::new(2);
        cache.put(key("a", 1, 1), 1);
        cache.put(key("b", 1, 1), 2);
        // Touch "a" so "b" is the LRU victim.
        assert_eq!(cache.get(&key("a", 1, 1)), Some(1));
        cache.put(key("c", 1, 1), 3);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key("a", 1, 1)), Some(1));
        assert_eq!(cache.get(&key("b", 1, 1)), None);
        assert_eq!(cache.get(&key("c", 1, 1)), Some(3));
    }

    #[test]
    fn newer_generation_prunes_older_entries() {
        let cache: QueryCache<u32> = QueryCache::new(8);
        cache.put(key("a", 1, 1), 1);
        cache.put(key("b", 1, 1), 2);
        cache.put(key("c", 1, 2), 3);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key("c", 1, 2)), Some(3));
    }
}
