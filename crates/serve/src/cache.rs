//! The content-addressed, single-flight result cache.
//!
//! Keys are canonical job strings
//! ([`JobSpec::canonical`](crate::JobSpec::canonical)); values are
//! finished [`Artifact`]s.
//! Because every driver is a pure function of its canonical inputs, a
//! stored artifact can never go stale — the only cache policy needed is
//! a size bound (least-recently-used eviction over completed entries).
//!
//! **Single flight:** when a request misses, it installs a `Building`
//! slot and computes; concurrent requests for the same key find the
//! slot, park on its condvar, and receive the one result when it lands
//! (counted as `coalesced`, answered as cache hits). Failed builds are
//! never cached: the error propagates to every coalesced waiter and the
//! slot is removed, so the next request retries from scratch.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use triarch_simcore::SimError;

use crate::{lock, Artifact};

/// A pending computation other requests can park on.
struct Build {
    /// `None` while the owning request computes; the shared result
    /// afterwards.
    done: Mutex<Option<Result<Arc<Artifact>, SimError>>>,
    cv: Condvar,
}

/// One cache slot: either a computation in flight or a finished result.
enum Slot {
    Building(Arc<Build>),
    Ready(Arc<Artifact>),
}

/// Map plus LRU order (the deque holds only `Ready` keys, least
/// recently used at the front).
struct CacheInner {
    slots: HashMap<String, Slot>,
    order: VecDeque<String>,
}

/// Monotonic cache counters, exported as `serve.cache.*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from a stored artifact.
    pub hits: u64,
    /// Requests that computed (and, on success, stored) their artifact.
    pub misses: u64,
    /// Requests that parked on a concurrent identical computation.
    pub coalesced: u64,
    /// Completed entries discarded by the LRU bound.
    pub evictions: u64,
    /// Completed entries currently stored.
    pub entries: usize,
    /// The entry bound.
    pub capacity: usize,
}

/// How a lookup was satisfied — the distinction the access log records
/// (a coalesced wait is answered as a hit on the wire, but its latency
/// profile is a build wait, so observability keeps them apart).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Answered from a stored artifact.
    Hit,
    /// This call computed (and stored) the artifact.
    Miss,
    /// Parked on a concurrent identical computation.
    Coalesced,
}

impl Lookup {
    /// Whether the artifact came from the cache (stored or coalesced)
    /// rather than being computed by this call — the wire-level
    /// hit/miss bit.
    #[must_use]
    pub fn is_hit(self) -> bool {
        !matches!(self, Lookup::Miss)
    }
}

/// The bounded single-flight result cache.
pub struct ResultCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// A cache bounded to `capacity` completed entries (at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner { slots: HashMap::new(), order: VecDeque::new() }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns the artifact for `key`, computing it with `build` on a
    /// miss, with how the lookup was satisfied ([`Lookup`]: the access
    /// log keeps hits, misses and coalesced waits apart) and the keys the
    /// LRU bound evicted while publishing this entry (the persistence
    /// layer drops their segment files so a restart cannot resurrect
    /// more than `capacity` entries).
    ///
    /// # Errors
    ///
    /// Propagates `build`'s error to this caller and every coalesced
    /// waiter; errors are never stored.
    pub fn get_or_build(
        &self,
        key: &str,
        build: impl FnOnce() -> Result<Artifact, SimError>,
    ) -> Result<(Arc<Artifact>, Lookup, Vec<String>), SimError> {
        let pending = {
            let mut inner = lock(&self.inner);
            match inner.slots.get(key) {
                Some(Slot::Ready(artifact)) => {
                    let artifact = Arc::clone(artifact);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    touch(&mut inner.order, key);
                    return Ok((artifact, Lookup::Hit, Vec::new()));
                }
                Some(Slot::Building(build)) => {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    Some(Arc::clone(build))
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    inner.slots.insert(
                        key.to_string(),
                        Slot::Building(Arc::new(Build {
                            done: Mutex::new(None),
                            cv: Condvar::new(),
                        })),
                    );
                    None
                }
            }
        };

        if let Some(pending) = pending {
            // Coalesce: park until the owning request publishes.
            let mut done = lock(&pending.done);
            while done.is_none() {
                done = self.wait(&pending.cv, done);
            }
            #[allow(clippy::unwrap_used)] // loop above guarantees Some
            return done.clone().unwrap().map(|artifact| (artifact, Lookup::Coalesced, Vec::new()));
        }

        // This call owns the build. Never cache errors; always publish.
        let result = build().map(Arc::new);
        let mut evicted_keys = Vec::new();
        let publish = {
            let mut inner = lock(&self.inner);
            let slot = inner.slots.remove(key);
            if let Ok(artifact) = &result {
                inner.slots.insert(key.to_string(), Slot::Ready(Arc::clone(artifact)));
                inner.order.push_back(key.to_string());
                while inner.order.len() > self.capacity {
                    if let Some(evicted) = inner.order.pop_front() {
                        inner.slots.remove(&evicted);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                        evicted_keys.push(evicted);
                    }
                }
            }
            match slot {
                Some(Slot::Building(build)) => Some(build),
                _ => None,
            }
        };
        if let Some(build_slot) = publish {
            *lock(&build_slot.done) = Some(result.clone());
            build_slot.cv.notify_all();
        }
        result.map(|artifact| (artifact, Lookup::Miss, evicted_keys))
    }

    /// Installs recovered `(key, artifact)` pairs as `Ready` entries, in
    /// order, stopping at the capacity bound. Returns the keys that did
    /// **not** fit, so the caller can drop their on-disk records — a
    /// restart never resurrects more than `capacity` entries. Intended
    /// for startup only (keys already present are skipped, not
    /// replaced).
    pub fn preload(&self, entries: Vec<(String, Artifact)>) -> (usize, Vec<String>) {
        let mut inner = lock(&self.inner);
        let mut installed = 0;
        let mut overflow = Vec::new();
        for (key, artifact) in entries {
            if inner.slots.contains_key(&key) {
                continue;
            }
            if inner.order.len() >= self.capacity {
                overflow.push(key);
                continue;
            }
            inner.slots.insert(key.clone(), Slot::Ready(Arc::new(artifact)));
            inner.order.push_back(key);
            installed += 1;
        }
        (installed, overflow)
    }

    /// A snapshot of every completed entry in LRU order (the
    /// shutdown-flush path).
    #[must_use]
    pub fn entries(&self) -> Vec<(String, Arc<Artifact>)> {
        let inner = lock(&self.inner);
        inner
            .order
            .iter()
            .filter_map(|key| match inner.slots.get(key) {
                Some(Slot::Ready(artifact)) => Some((key.clone(), Arc::clone(artifact))),
                _ => None,
            })
            .collect()
    }

    /// Condvar wait that recovers from poisoning like [`lock`].
    fn wait<'a, T>(
        &self,
        cv: &Condvar,
        guard: std::sync::MutexGuard<'a, T>,
    ) -> std::sync::MutexGuard<'a, T> {
        cv.wait(guard).unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A consistent snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: lock(&self.inner).order.len(),
            capacity: self.capacity,
        }
    }
}

/// Moves `key` to the most-recently-used end.
fn touch(order: &mut VecDeque<String>, key: &str) {
    if let Some(i) = order.iter().position(|k| k == key) {
        if let Some(k) = order.remove(i) {
            order.push_back(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    use super::*;

    fn artifact(body: &str) -> Artifact {
        Artifact { content_type: String::from("text/plain"), body: String::from(body) }
    }

    #[test]
    fn miss_then_hit_returns_identical_bytes() {
        let cache = ResultCache::new(4);
        let builds = AtomicUsize::new(0);
        let build = || {
            builds.fetch_add(1, Ordering::Relaxed);
            Ok(artifact("table"))
        };
        let (cold, lookup, _) = cache.get_or_build("k", build).unwrap();
        assert_eq!(lookup, Lookup::Miss);
        let (warm, lookup, _) = cache.get_or_build("k", || panic!("must not rebuild")).unwrap();
        assert_eq!(lookup, Lookup::Hit);
        assert_eq!(cold.body, warm.body);
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = ResultCache::new(4);
        let err = cache.get_or_build("k", || Err(SimError::unsupported("boom"))).unwrap_err();
        assert_eq!(err, SimError::unsupported("boom"));
        assert_eq!(cache.stats().entries, 0);
        // The next request retries from scratch and can succeed.
        let (a, lookup, _) = cache.get_or_build("k", || Ok(artifact("ok"))).unwrap();
        assert_eq!(lookup, Lookup::Miss);
        assert_eq!(a.body, "ok");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let cache = ResultCache::new(2);
        cache.get_or_build("a", || Ok(artifact("a"))).unwrap();
        cache.get_or_build("b", || Ok(artifact("b"))).unwrap();
        // Touch "a" so "b" is the LRU victim.
        cache.get_or_build("a", || panic!("cached")).unwrap();
        cache.get_or_build("c", || Ok(artifact("c"))).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1));
        // "b" was evicted: rebuilding it is a miss (which in turn evicts
        // "a", now the least recently used).
        let (_, lookup, evicted) = cache.get_or_build("b", || Ok(artifact("b"))).unwrap();
        assert_eq!(lookup, Lookup::Miss);
        assert_eq!(evicted, vec![String::from("a")]);
        // "c" survived both evictions.
        let (_, lookup, _) = cache.get_or_build("c", || panic!("cached")).unwrap();
        assert_eq!(lookup, Lookup::Hit);
    }

    #[test]
    fn preload_installs_at_most_capacity_and_reports_overflow() {
        let cache = ResultCache::new(2);
        let entries = vec![
            (String::from("a"), artifact("a")),
            (String::from("b"), artifact("b")),
            (String::from("c"), artifact("c")),
        ];
        let (installed, overflow) = cache.preload(entries);
        assert_eq!(installed, 2);
        assert_eq!(overflow, vec![String::from("c")]);
        assert_eq!(cache.stats().entries, 2);
        // Preloaded entries are real hits.
        let (a, lookup, _) = cache.get_or_build("a", || panic!("preloaded")).unwrap();
        assert_eq!(lookup, Lookup::Hit);
        assert_eq!(a.body, "a");
        // A duplicate key in a later preload is skipped, not replaced.
        let (installed, overflow) = cache.preload(vec![(String::from("a"), artifact("other"))]);
        assert_eq!((installed, overflow.len()), (0, 0));
        let (a, _, _) = cache.get_or_build("a", || panic!("preloaded")).unwrap();
        assert_eq!(a.body, "a");
    }

    #[test]
    fn the_full_lookup_distinguishes_hit_miss_and_collapses_correctly() {
        let cache = ResultCache::new(4);
        let (_, lookup, _) = cache.get_or_build("k", || Ok(artifact("x"))).unwrap();
        assert_eq!(lookup, Lookup::Miss);
        assert!(!lookup.is_hit());
        let (_, lookup, _) = cache.get_or_build("k", || panic!("cached")).unwrap();
        assert_eq!(lookup, Lookup::Hit);
        assert!(lookup.is_hit());
        assert!(Lookup::Coalesced.is_hit(), "coalesced answers as a hit on the wire");
    }

    #[test]
    fn traced_builds_report_the_keys_the_lru_bound_evicted() {
        let cache = ResultCache::new(1);
        let (_, _, evicted) = cache.get_or_build("a", || Ok(artifact("a"))).unwrap();
        assert!(evicted.is_empty());
        let (_, _, evicted) = cache.get_or_build("b", || Ok(artifact("b"))).unwrap();
        assert_eq!(evicted, vec![String::from("a")]);
        // The snapshot sees exactly the surviving entry.
        let entries = cache.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, "b");
    }

    #[test]
    fn concurrent_identical_requests_coalesce_onto_one_build() {
        let cache = Arc::new(ResultCache::new(4));
        let builds = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));

        let owner = {
            let cache = Arc::clone(&cache);
            let builds = Arc::clone(&builds);
            let gate = Arc::clone(&gate);
            thread::spawn(move || {
                cache
                    .get_or_build("k", move || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        let (held, cv) = &*gate;
                        let mut held = held.lock().unwrap();
                        while !*held {
                            held = cv.wait(held).unwrap();
                        }
                        Ok(artifact("one"))
                    })
                    .unwrap()
            })
        };
        // Wait until the owner's build slot is installed.
        while cache.stats().misses == 0 {
            thread::yield_now();
        }
        let waiter = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || cache.get_or_build("k", || panic!("coalesced")).unwrap())
        };
        while cache.stats().coalesced == 0 {
            thread::yield_now();
        }
        {
            let (held, cv) = &*gate;
            *held.lock().unwrap() = true;
            cv.notify_all();
        }
        let (a, owner_lookup, _) = owner.join().unwrap();
        let (b, waiter_lookup, _) = waiter.join().unwrap();
        assert_eq!(owner_lookup, Lookup::Miss);
        assert_eq!(waiter_lookup, Lookup::Coalesced, "the waiter parked on the owner's build");
        assert_eq!(a.body, b.body);
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.coalesced, stats.hits), (1, 1, 0));
    }
}
