//! Response caching: a small LRU plus its single-flight composition.
//!
//! `canonical_curve` is a pure function of `(artifact, T-grid)`, so the
//! `/v1/thermo` endpoint memoizes whole response bodies. The cache is a
//! hash map plus a recency index kept in a `BTreeMap<u64, K>` keyed by a
//! monotonically increasing use-stamp: both lookup-bump and eviction are
//! `O(log n)`, and there is no unsafe linked-list juggling.
//!
//! [`ResponseCache`] layers [`crate::singleflight::SingleFlight`] over
//! the LRU: a cold key computed by one leader while concurrent
//! requesters park and share the result, so a popular new artifact
//! costs one evaluation, not one per waiting client.
//!
//! ## The key
//!
//! A [`CacheKey`] is the exact request in binary, built once per
//! request by [`ResponseCache::key`]:
//!
//! ```text
//! id.len() as u64, little-endian | id bytes | t[0].to_bits() LE | t[1].to_bits() LE | ...
//! ```
//!
//! The length prefix makes `(id, grid)` → bytes injective (no id can
//! run into the temperatures), and bit patterns keep it exact: grids
//! one ulp apart are different keys, a generated grid and the same
//! numbers sent explicitly are one key. It is an `Arc<[u8]>` because
//! three tables hold it — the LRU map, the LRU recency index and the
//! single-flight table — and they share the one allocation: cloning a
//! key is a reference count, never a copy. The LRU bound is still a
//! number of entries, not bytes.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use crate::http::Response;
use crate::singleflight::SingleFlight;

/// A least-recently-used cache with a fixed capacity.
#[derive(Debug, Clone)]
pub struct LruCache<K: Eq + Hash + Clone, V> {
    capacity: usize,
    next_stamp: u64,
    map: HashMap<K, (V, u64)>,
    recency: BTreeMap<u64, K>,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache holding at most `capacity` entries. A zero capacity is a
    /// legal "cache disabled" configuration: every `get` misses and
    /// every `put` is dropped.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            next_stamp: 0,
            map: HashMap::new(),
            recency: BTreeMap::new(),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let entry = self.map.get_mut(key)?;
        // Re-stamp the index's own copy of the key rather than cloning
        // the caller's: a shared key stays the one the map holds.
        if let Some(indexed) = self.recency.remove(&entry.1) {
            entry.1 = self.next_stamp;
            self.recency.insert(self.next_stamp, indexed);
            self.next_stamp += 1;
        }
        Some(&entry.0)
    }

    /// Insert `key → value`, evicting the least recently used entry if
    /// the cache is full. Replacing an existing key refreshes its
    /// recency.
    pub fn put(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some((_, old_stamp)) = self.map.remove(&key) {
            self.recency.remove(&old_stamp);
        } else if self.map.len() >= self.capacity {
            if let Some((&oldest, _)) = self.recency.iter().next() {
                if let Some(victim) = self.recency.remove(&oldest) {
                    self.map.remove(&victim);
                }
            }
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.map.insert(key.clone(), (value, stamp));
        self.recency.insert(stamp, key);
    }
}

/// What [`ResponseCache`] is keyed by: see the module docs for the
/// layout and why it is shared.
pub type CacheKey = Arc<[u8]>;

/// The `/v1/thermo` response cache: an LRU of rendered bodies with
/// single-flight fills. Fill errors (e.g. a `422` for an out-of-range
/// grid) are shared with concurrent waiters but never cached.
pub struct ResponseCache {
    lru: Mutex<LruCache<CacheKey, String>>,
    flight: SingleFlight<CacheKey, Result<String, Response>>,
}

impl ResponseCache {
    /// A cache holding at most `capacity` bodies (0 disables the LRU;
    /// concurrent fills still coalesce).
    pub fn new(capacity: usize) -> ResponseCache {
        ResponseCache {
            lru: Mutex::new(LruCache::new(capacity)),
            flight: SingleFlight::new(),
        }
    }

    /// The key of `artifact_id`'s curve on exactly these temperatures.
    pub fn key(artifact_id: &str, temperatures: &[f64]) -> CacheKey {
        let mut key = Vec::with_capacity(8 + artifact_id.len() + 8 * temperatures.len());
        key.extend_from_slice(&(artifact_id.len() as u64).to_le_bytes());
        key.extend_from_slice(artifact_id.as_bytes());
        for t in temperatures {
            key.extend_from_slice(&t.to_bits().to_le_bytes());
        }
        key.into()
    }

    /// The body cached for `key`, now the most recently used.
    pub fn get(&self, key: &CacheKey) -> Option<String> {
        self.lru.lock().expect("cache lock").get(key).cloned()
    }

    /// Compute `key`'s body with `fill` after [`Self::get`] missed, and
    /// whether this caller led the fill (ran `fill`). At most one fill
    /// per key runs at a time: late arrivals park and share the leader's
    /// result. The leader publishes into the LRU *before* the flight
    /// closes, so a racer sees either the flight or the cached body,
    /// never neither.
    pub fn fill<F>(&self, key: &CacheKey, fill: F) -> (Result<String, Response>, bool)
    where
        F: FnOnce() -> Result<String, Response>,
    {
        self.flight.run(key, fill, |result| {
            if let Ok(body) = result {
                self.lru
                    .lock()
                    .expect("cache lock")
                    .put(Arc::clone(key), body.clone());
            }
        })
    }

    /// Number of cached bodies.
    pub fn len(&self) -> usize {
        self.lru.lock().expect("cache lock").len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(id: &str) -> CacheKey {
        ResponseCache::key(id, &[])
    }

    /// What `/v1/thermo` does with the cache, and its `x-cache` word.
    fn get_or_fill(
        cache: &ResponseCache,
        key: &CacheKey,
        fill: impl FnOnce() -> Result<String, Response>,
    ) -> (Result<String, Response>, &'static str) {
        match cache.get(key) {
            Some(body) => (Ok(body), "hit"),
            None => match cache.fill(key, fill) {
                (result, true) => (result, "miss"),
                (result, false) => (result, "coalesced"),
            },
        }
    }

    #[test]
    fn hit_returns_the_stored_value() {
        let mut c = LruCache::new(4);
        c.put("a", 1);
        c.put("b", 2);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"b"), Some(&2));
        assert_eq!(c.get(&"missing"), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn eviction_removes_the_least_recently_used() {
        let mut c = LruCache::new(2);
        c.put("a", 1);
        c.put("b", 2);
        // Touch "a" so "b" is the LRU victim.
        assert_eq!(c.get(&"a"), Some(&1));
        c.put("c", 3);
        assert_eq!(c.get(&"b"), None, "LRU entry must be evicted");
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn replacing_a_key_refreshes_it() {
        let mut c = LruCache::new(2);
        c.put("a", 1);
        c.put("b", 2);
        c.put("a", 10); // refresh, not insert
        c.put("c", 3); // evicts "b", the true LRU
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"c"), Some(&3));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        c.put("a", 1);
        assert_eq!(c.get(&"a"), None);
        assert!(c.is_empty());
    }

    #[test]
    fn heavy_churn_keeps_len_bounded() {
        let mut c = LruCache::new(8);
        for i in 0..1000u32 {
            c.put(i, i * 2);
            assert!(c.len() <= 8);
        }
        // The 8 most recent keys survive.
        for i in 992..1000 {
            assert_eq!(c.get(&i), Some(&(i * 2)));
        }
        assert_eq!(c.get(&0), None);
    }

    #[test]
    fn keys_are_exact_and_cannot_collide_across_the_id_boundary() {
        // Without the length prefix these two would be the same bytes:
        // "a" followed by a temperature whose bits spell the rest of
        // the longer id.
        let tail = f64::from_bits(u64::from_le_bytes(*b"\0bcdefgh"));
        let short_id = ResponseCache::key("a", &[tail, 1.0]);
        let long_id = ResponseCache::key("a\0bcdefgh", &[1.0]);
        assert_eq!(short_id.len(), long_id.len());
        assert_ne!(short_id, long_id);
        // Exact: one ulp is another key, equal bits are the same key.
        let next_up = f64::from_bits(1000f64.to_bits() + 1);
        assert_ne!(
            ResponseCache::key("a", &[500.0, 1000.0]),
            ResponseCache::key("a", &[500.0, next_up])
        );
        assert_eq!(
            ResponseCache::key("a", &[500.0, 1000.0]),
            ResponseCache::key("a", &[500.0, 1e3])
        );
    }

    #[test]
    fn every_table_shares_the_one_key_allocation() {
        let cache = ResponseCache::new(4);
        let key = ResponseCache::key("a", &[300.0]);
        let (_, outcome) = get_or_fill(&cache, &key, || Ok("body".to_string()));
        assert_eq!(outcome, "miss");
        // Ours, the LRU map's and the recency index's; the flight's
        // two are gone with the flight.
        assert_eq!(Arc::strong_count(&key), 3);
        // A hit through a freshly built equal key moves the entry's own
        // key to the front of the index; the caller's is not retained.
        let again = ResponseCache::key("a", &[300.0]);
        let (_, outcome) = get_or_fill(&cache, &again, || panic!("must not refill"));
        assert_eq!(outcome, "hit");
        assert_eq!((Arc::strong_count(&key), Arc::strong_count(&again)), (3, 1));
    }

    #[test]
    fn response_cache_hits_after_one_fill() {
        let cache = ResponseCache::new(4);
        let (r, o) = get_or_fill(&cache, &key("k"), || Ok("body".to_string()));
        assert_eq!((r.unwrap().as_str(), o), ("body", "miss"));
        let (r, o) = get_or_fill(&cache, &key("k"), || panic!("must not refill"));
        assert_eq!((r.unwrap().as_str(), o), ("body", "hit"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn fill_errors_are_not_cached() {
        let cache = ResponseCache::new(4);
        let (r, o) = get_or_fill(&cache, &key("bad"), || Err(Response::error(422, "nope")));
        assert_eq!(o, "miss");
        assert_eq!(r.unwrap_err().status, 422);
        assert!(cache.is_empty());
        // The next caller recomputes (and may succeed).
        let (r, o) = get_or_fill(&cache, &key("bad"), || Ok("fine".to_string()));
        assert_eq!((r.unwrap().as_str(), o), ("fine", "miss"));
    }

    #[test]
    fn concurrent_cold_fills_coalesce_to_one_evaluation() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Arc, Barrier};
        const CALLERS: usize = 64;
        let cache = Arc::new(ResponseCache::new(4));
        let fills = Arc::new(AtomicUsize::new(0));
        let start = Arc::new(Barrier::new(CALLERS));
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let fills = Arc::clone(&fills);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    get_or_fill(&cache, &key("cold"), || {
                        fills.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        Ok("v".to_string())
                    })
                })
            })
            .collect();
        for h in handles {
            let (r, _) = h.join().unwrap();
            assert_eq!(r.unwrap(), "v");
        }
        // The leader published before its flight closed, so every
        // caller either joined that flight or hit the LRU — the fill
        // ran exactly once.
        assert_eq!(fills.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn zero_capacity_response_cache_still_coalesces() {
        let cache = ResponseCache::new(0);
        let (r, o) = get_or_fill(&cache, &key("k"), || Ok("x".to_string()));
        assert_eq!((r.unwrap().as_str(), o), ("x", "miss"));
        // Nothing persisted...
        assert!(cache.is_empty());
        // ...so the next sequential caller refills.
        let (_, o) = get_or_fill(&cache, &key("k"), || Ok("x".to_string()));
        assert_eq!(o, "miss");
    }
}
