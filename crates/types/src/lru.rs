//! A bounded least-recently-used cache with single-flight computation.
//!
//! Built for the `lacnet-serve` response cache: endpoint responses are
//! keyed on `(endpoint, query, archive fingerprint)` so that a re-dump —
//! which rewrites `mlab/manifest.tsv` and therefore changes the
//! fingerprint — invalidates every stale entry naturally: the new
//! generation misses, and the dead one ages out by recency.
//!
//! Concurrency contract: [`LruCache::get_or_compute`] is *single-flight*.
//! When N threads ask for the same absent key at once, exactly one runs
//! the compute closure (outside the lock); the rest block on a condvar
//! and are served the finished value as cache hits. If the computing
//! thread panics, or [`LruCache::try_get_or_compute`]'s closure returns
//! an `Err`, its pending reservation is rolled back and the waiters
//! retry, so a failed computation never wedges the cache.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};

/// One cache slot: either a finished value or a reservation held by the
/// thread currently computing it.
enum Slot<V> {
    /// A computation is in flight; waiters sleep on the condvar.
    Pending,
    /// A finished value.
    Ready(V),
}

struct Entry<V> {
    slot: Slot<V>,
    /// Logical timestamp of the last touch (insert or hit); the ready
    /// entry with the smallest `used` is the eviction victim.
    used: u64,
}

struct Inner<K, V> {
    entries: BTreeMap<K, Entry<V>>,
    tick: u64,
}

impl<K: Ord, V> Inner<K, V> {
    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn ready_len(&self) -> usize {
        self.entries
            .values()
            .filter(|e| matches!(e.slot, Slot::Ready(_)))
            .count()
    }

    /// Drop least-recently-used *ready* entries until at most `capacity`
    /// remain. Pending reservations are never evicted — they complete
    /// first and then compete for space like any other entry.
    fn evict_to(&mut self, capacity: usize)
    where
        K: Clone,
    {
        while self.ready_len() > capacity {
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| matches!(e.slot, Slot::Ready(_)))
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    self.entries.remove(&k);
                }
                None => break,
            }
        }
    }
}

/// A thread-safe LRU cache of `capacity` ready values.
pub struct LruCache<K, V> {
    shared: Mutex<Inner<K, V>>,
    ready: Condvar,
    capacity: usize,
}

impl<K: Ord + Clone, V: Clone> LruCache<K, V> {
    /// An empty cache holding at most `capacity` values (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LruCache capacity must be at least 1");
        LruCache {
            shared: Mutex::new(Inner {
                entries: BTreeMap::new(),
                tick: 0,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of ready values currently held.
    pub fn len(&self) -> usize {
        self.shared.lock().expect("lru lock").ready_len()
    }

    /// Whether the cache holds no ready values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value for `key`, computing it with `compute` on a miss.
    ///
    /// Returns `(value, served_from_cache)`: `true` both for plain hits
    /// and for threads that waited on another thread's in-flight
    /// computation of the same key — exactly one closure runs per
    /// residency of a key, no matter how many threads race for it.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> (V, bool) {
        match self.try_get_or_compute(key, || Ok::<V, std::convert::Infallible>(compute())) {
            Ok(found) => found,
            Err(never) => match never {},
        }
    }

    /// [`LruCache::get_or_compute`] for a fallible `compute`. An `Err` is
    /// returned to this caller only and never cached: the reservation is
    /// rolled back, as after a panic, and threads waiting on it retry.
    pub fn try_get_or_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        {
            let mut inner = self.shared.lock().expect("lru lock");
            loop {
                let tick = inner.bump();
                match inner.entries.get_mut(&key) {
                    Some(entry) => match &entry.slot {
                        Slot::Ready(v) => {
                            let v = v.clone();
                            entry.used = tick;
                            return Ok((v, true));
                        }
                        Slot::Pending => {
                            inner = self.ready.wait(inner).expect("lru lock");
                        }
                    },
                    None => {
                        inner.entries.insert(
                            key.clone(),
                            Entry {
                                slot: Slot::Pending,
                                used: tick,
                            },
                        );
                        break;
                    }
                }
            }
        }

        // Compute outside the lock. The guard rolls the reservation back
        // if `compute` fails or panics, so waiters retry instead of
        // hanging.
        let mut guard = PendingGuard {
            cache: self,
            key: &key,
            armed: true,
        };
        let value = compute()?;
        guard.armed = false;
        let mut inner = self.shared.lock().expect("lru lock");
        let tick = inner.bump();
        inner.entries.insert(
            key.clone(),
            Entry {
                slot: Slot::Ready(value.clone()),
                used: tick,
            },
        );
        inner.evict_to(self.capacity);
        drop(inner);
        self.ready.notify_all();
        Ok((value, false))
    }

    /// Ready keys ordered least- to most-recently used — the eviction
    /// order, exposed for tests and diagnostics.
    pub fn keys_by_recency(&self) -> Vec<K> {
        let inner = self.shared.lock().expect("lru lock");
        let mut keys: Vec<(u64, K)> = inner
            .entries
            .iter()
            .filter(|(_, e)| matches!(e.slot, Slot::Ready(_)))
            .map(|(k, e)| (e.used, k.clone()))
            .collect();
        keys.sort_by_key(|(used, _)| *used);
        keys.into_iter().map(|(_, k)| k).collect()
    }
}

/// Rollback handle for an in-flight reservation; disarmed once the value
/// lands.
struct PendingGuard<'c, K: Ord + Clone, V: Clone> {
    cache: &'c LruCache<K, V>,
    key: &'c K,
    armed: bool,
}

impl<K: Ord + Clone, V: Clone> Drop for PendingGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        if let Ok(mut inner) = self.cache.shared.lock() {
            if let Some(entry) = inner.entries.get(self.key) {
                if matches!(entry.slot, Slot::Pending) {
                    inner.entries.remove(self.key);
                }
            }
        }
        self.cache.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn capacity_bound_holds() {
        let cache = LruCache::new(3);
        for i in 0..10 {
            assert_eq!(cache.get_or_compute(i, || i * 10), (i * 10, false));
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.keys_by_recency(), vec![7, 8, 9]);
        assert_eq!(cache.get_or_compute(9, || unreachable!()), (90, true));
        assert_eq!(
            cache.get_or_compute(0, || 0),
            (0, false),
            "oldest entries were evicted"
        );
    }

    #[test]
    fn hits_refresh_recency() {
        let cache = LruCache::new(2);
        cache.get_or_compute("a", || 1);
        cache.get_or_compute("b", || 2);
        // Touch "a" so "b" becomes the LRU victim.
        assert_eq!(cache.get_or_compute("a", || unreachable!()), (1, true));
        cache.get_or_compute("c", || 3);
        assert_eq!(
            cache.keys_by_recency(),
            vec!["a", "c"],
            "b was least recently used"
        );
        assert_eq!(cache.get_or_compute("b", || 2), (2, false));
    }

    #[test]
    fn eviction_order_is_lru_to_mru() {
        let cache = LruCache::new(4);
        for k in ["w", "x", "y", "z"] {
            cache.get_or_compute(k, || ());
        }
        cache.get_or_compute("w", || ());
        cache.get_or_compute("y", || ());
        assert_eq!(cache.keys_by_recency(), vec!["x", "z", "w", "y"]);
    }

    #[test]
    fn get_or_compute_hits_and_misses() {
        let cache = LruCache::new(8);
        let calls = AtomicUsize::new(0);
        let compute = || {
            calls.fetch_add(1, Ordering::SeqCst);
            42
        };
        assert_eq!(cache.get_or_compute("k", compute), (42, false));
        assert_eq!(cache.get_or_compute("k", compute), (42, true));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn fingerprint_change_invalidates() {
        // The serve cache keys on (endpoint, fingerprint); after a
        // re-dump the new generation misses and recomputes, and the old
        // one ages out as new entries arrive.
        let cache = LruCache::new(2);
        cache.get_or_compute(("fig11", "fp-old"), || 1);
        cache.get_or_compute(("tab01", "fp-old"), || 2);
        assert_eq!(cache.get_or_compute(("fig11", "fp-new"), || 3), (3, false));
        assert_eq!(cache.get_or_compute(("tab01", "fp-new"), || 4), (4, false));
        assert_eq!(
            cache.keys_by_recency(),
            vec![("fig11", "fp-new"), ("tab01", "fp-new")]
        );
    }

    #[test]
    fn single_flight_under_contention() {
        let cache = Arc::new(LruCache::new(4));
        let calls = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let calls = Arc::clone(&calls);
            handles.push(std::thread::spawn(move || {
                cache.get_or_compute("hot", || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    // Give the other threads time to pile onto the
                    // pending reservation.
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    7
                })
            }));
        }
        let results: Vec<(i32, bool)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(calls.load(Ordering::SeqCst), 1, "exactly one compute");
        assert!(results.iter().all(|&(v, _)| v == 7));
        assert_eq!(
            results.iter().filter(|&&(_, hit)| !hit).count(),
            1,
            "exactly one caller reports a miss"
        );
    }

    #[test]
    fn panicking_compute_rolls_back_the_reservation() {
        let cache = Arc::new(LruCache::new(4));
        let c2 = Arc::clone(&cache);
        let panicker = std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c2.get_or_compute("k", || -> i32 { panic!("compute failed") })
            }));
            assert!(result.is_err());
        });
        panicker.join().unwrap();
        // The cache is not wedged: the next caller computes fresh.
        assert_eq!(cache.get_or_compute("k", || 5), (5, false));
    }

    #[test]
    fn failing_compute_rolls_back_the_reservation() {
        let cache = Arc::new(LruCache::new(4));
        let calls = Arc::new(AtomicUsize::new(0));
        // A second caller arrives while the failing compute holds the
        // reservation. It must not hang or be served the error: it
        // computes the value itself. The sleep lets it block on the
        // pending slot; one that arrives after the rollback computes
        // fresh too, so the assertions hold in either order.
        let mut waiter = None;
        let failed = cache.try_get_or_compute("k", || {
            calls.fetch_add(1, Ordering::SeqCst);
            let (cache, calls) = (Arc::clone(&cache), Arc::clone(&calls));
            waiter = Some(std::thread::spawn(move || {
                cache.try_get_or_compute("k", || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Ok::<_, &str>(5)
                })
            }));
            std::thread::sleep(std::time::Duration::from_millis(50));
            Err::<i32, _>("backend down")
        });
        let waiter = waiter.expect("compute ran");
        assert_eq!(failed, Err("backend down"));
        assert_eq!(waiter.join().unwrap(), Ok((5, false)));
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        // The error was never cached; the recomputed value was.
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.try_get_or_compute("k", || Err("unused")),
            Ok((5, true))
        );
    }

    proptest! {
        #[test]
        fn matches_a_reference_model(ops in proptest::collection::vec((0u8..3, 0u64..12), 1..120),
                                     capacity in 1usize..6) {
            // Replay lookups against a naive model that tracks the same
            // recency rule; the cache must agree on membership and
            // eviction order at every step. A failing compute is a probe:
            // a hit bumps recency, a miss leaves the cache untouched.
            let cache = LruCache::new(capacity);
            let mut model: Vec<(u64, u64)> = Vec::new(); // (key, value) LRU→MRU
            for (op, key) in ops {
                match op {
                    0 => {
                        let expected = model.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v);
                        if expected.is_some() {
                            let entry = model.iter().position(|&(k, _)| k == key).unwrap();
                            let moved = model.remove(entry);
                            model.push(moved);
                        }
                        let probed = cache.try_get_or_compute(key, || Err("absent"));
                        prop_assert_eq!(probed, expected.map(|v| (v, true)).ok_or("absent"));
                    }
                    _ => {
                        let in_model = model.iter().any(|&(k, _)| k == key);
                        let (v, hit) = cache.get_or_compute(key, || key * 3);
                        prop_assert_eq!(hit, in_model);
                        prop_assert_eq!(v, key * 3);
                        model.retain(|&(k, _)| k != key);
                        model.push((key, key * 3));
                        if model.len() > capacity {
                            model.remove(0);
                        }
                    }
                }
                prop_assert_eq!(
                    cache.keys_by_recency(),
                    model.iter().map(|&(k, _)| k).collect::<Vec<_>>()
                );
            }
        }
    }
}
