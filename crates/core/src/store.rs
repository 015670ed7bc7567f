//! The single-flight memo store behind every content-keyed artifact cache
//! in the workspace: the server's `assemble`/`analyze`/`peer_replica`
//! stages, the in-process sweep store and the CRPD pairwise-cell cache
//! ([`crate::CrpdCellCache`]).
//!
//! Each [`StageStore`] is *single-flight*: concurrent requests for one
//! key elect a leader under the map lock, the leader computes outside the
//! lock, and everyone else blocks on a condvar until the value is ready.
//! Values are stored inline and cloned out, so a small value (a CRPD
//! cell's `usize`) costs no allocation and a large artifact is stored as
//! an [`Arc`](std::sync::Arc), whose clone is a reference-count bump.
//! Results are immutable once computed (the analysis is deterministic;
//! see `crate::intra`'s ordered sweeps), so no invalidation is ever
//! needed: changed content simply hashes to a new key.
//!
//! Failed stages are *not* cached: the in-flight slot is cleared so a
//! later request retries — errors are cheap to recompute and callers may
//! fix the environment (e.g. a missing include path) between requests.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Hit/miss/entry counters of one stage, for `metrics`/`metrics_prom`.
#[derive(Debug, Clone, Copy)]
pub struct StageStats {
    /// Stage name (`"assemble"`, `"analyze"`, `"crpd_cell"`).
    pub stage: &'static str,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that ran the stage (single-flight leaders only).
    pub misses: u64,
    /// Distinct artifacts currently held.
    pub entries: u64,
    /// Lookups that blocked on another thread's in-flight computation.
    pub single_flight_waits: u64,
}

enum Slot<V> {
    /// A leader is computing this key; waiters block on the condvar.
    InFlight,
    /// The computed value.
    Ready(V),
}

/// One memoized pipeline stage: a content-keyed map with single-flight
/// deduplication and hit/miss counters.
///
/// `get_or_compute` elects exactly one *leader* per missing key (under
/// the map lock), so concurrent requests for the same key run the stage
/// once; the others wait and then clone the leader's value. A leader
/// that fails (or panics) clears its slot, so errors are never cached
/// and waiters retry — possibly becoming the next leader.
pub struct StageStore<K, V> {
    stage: &'static str,
    entries: Mutex<HashMap<K, Slot<V>>>,
    ready: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    waits: AtomicU64,
    /// Ready-entry cap; inserting past it evicts an arbitrary other
    /// ready entry. `None` (every pipeline stage) never evicts — only
    /// the cluster replica store is bounded, since replicas are a pure
    /// cache over artifacts some other node owns.
    capacity: Option<usize>,
}

impl<K: Eq + Hash + Clone, V: Clone> StageStore<K, V> {
    /// An unbounded store whose lookups are recorded under `stage`.
    pub fn new(stage: &'static str) -> Self {
        StageStore {
            stage,
            entries: Mutex::new(HashMap::new()),
            ready: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            capacity: None,
        }
    }

    /// A store that holds at most `capacity` ready artifacts, evicting
    /// an arbitrary resident entry on overflow. Eviction only affects
    /// cache residency (an evicted key recomputes or refetches), never
    /// results.
    pub fn with_capacity(stage: &'static str, capacity: usize) -> Self {
        let mut store = StageStore::new(stage);
        store.capacity = Some(capacity.max(1));
        store
    }

    /// Returns the memoized artifact for `key`, running `compute` (as the
    /// single-flight leader, outside the map lock) on first use.
    ///
    /// Exactly one concurrent caller per key counts a miss and computes;
    /// the rest count a hit (plus a single-flight wait if they had to
    /// block). Every lookup is also recorded with
    /// [`rtobs::record_stage_lookup`] under this store's stage name.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error to the leader; the slot is cleared so
    /// the key stays uncached and waiters retry.
    pub fn get_or_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let mut waited = false;
        {
            let mut entries = self.entries.lock().expect("stage store lock");
            loop {
                match entries.get(&key) {
                    Some(Slot::Ready(artifact)) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        rtobs::record_stage_lookup(self.stage, true);
                        return Ok(artifact.clone());
                    }
                    Some(Slot::InFlight) => {
                        if !waited {
                            waited = true;
                            self.waits.fetch_add(1, Ordering::Relaxed);
                        }
                        entries = self.ready.wait(entries).expect("stage store lock");
                    }
                    None => {
                        entries.insert(key.clone(), Slot::InFlight);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        rtobs::record_stage_lookup(self.stage, false);
                        break;
                    }
                }
            }
        }
        // Leader path: compute outside the lock so distinct keys proceed
        // in parallel. The guard clears the in-flight slot on error *or*
        // panic, so waiters never deadlock on an abandoned slot.
        let mut guard = InFlightGuard { store: self, key: Some(key) };
        let artifact = compute()?;
        let key = guard.key.take().expect("leader key");
        let mut entries = self.entries.lock().expect("stage store lock");
        entries.insert(key.clone(), Slot::Ready(artifact.clone()));
        Self::enforce_capacity(&mut entries, self.capacity, &key);
        drop(entries);
        self.ready.notify_all();
        Ok(artifact)
    }

    /// Inserts an externally produced artifact if the key is vacant
    /// (never overwriting a ready value or racing a leader), without
    /// touching the hit/miss counters. Returns whether it was stored.
    ///
    /// This is the landing half of the cluster's `peer_put`: the value
    /// was computed (and counted) on another node, so recording a miss
    /// here would double-count the cluster-wide recompute total.
    pub fn offer(&self, key: K, value: V) -> bool {
        let mut entries = self.entries.lock().expect("stage store lock");
        if entries.contains_key(&key) {
            return false;
        }
        entries.insert(key.clone(), Slot::Ready(value));
        Self::enforce_capacity(&mut entries, self.capacity, &key);
        true
    }

    /// The keys of every ready artifact (order unspecified).
    pub fn keys(&self) -> Vec<K> {
        let entries = self.entries.lock().expect("stage store lock");
        entries
            .iter()
            .filter(|(_, slot)| matches!(slot, Slot::Ready(_)))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Evicts arbitrary ready entries (sparing `keep`) until the ready
    /// count fits `capacity`. Called with the map lock held.
    fn enforce_capacity(entries: &mut HashMap<K, Slot<V>>, capacity: Option<usize>, keep: &K) {
        let Some(capacity) = capacity else { return };
        loop {
            let ready = entries.values().filter(|s| matches!(s, Slot::Ready(_))).count();
            if ready <= capacity {
                return;
            }
            let victim = entries
                .iter()
                .find(|(k, slot)| matches!(slot, Slot::Ready(_)) && *k != keep)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    entries.remove(&k);
                }
                None => return,
            }
        }
    }

    /// Number of lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that ran the stage (single-flight leaders).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of lookups that blocked on another thread's computation.
    pub fn single_flight_waits(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }

    /// Number of ready artifacts currently held.
    pub fn len(&self) -> usize {
        let entries = self.entries.lock().expect("stage store lock");
        entries.values().filter(|slot| matches!(slot, Slot::Ready(_))).count()
    }

    /// `true` if no artifact is ready yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// This stage's counters as one [`StageStats`] row.
    pub fn stats(&self) -> StageStats {
        StageStats {
            stage: self.stage,
            hits: self.hits(),
            misses: self.misses(),
            entries: self.len() as u64,
            single_flight_waits: self.single_flight_waits(),
        }
    }
}

impl<K, V> std::fmt::Debug for StageStore<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageStore")
            .field("stage", &self.stage)
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

struct InFlightGuard<'a, K: Eq + Hash + Clone, V> {
    store: &'a StageStore<K, V>,
    key: Option<K>,
}

impl<K: Eq + Hash + Clone, V> Drop for InFlightGuard<'_, K, V> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            let mut entries = self.store.entries.lock().expect("stage store lock");
            entries.remove(&key);
            drop(entries);
            self.store.ready.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn concurrent_same_key_requests_are_single_flight() {
        const THREADS: usize = 8;
        let store: StageStore<u32, u64> = StageStore::new("analyze");
        let barrier = Barrier::new(THREADS);
        let runs = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        store.get_or_compute(7, || {
                            runs.fetch_add(1, Ordering::Relaxed);
                            // Hold the in-flight slot long enough that the
                            // other threads demonstrably arrive meanwhile.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            Ok::<u64, String>(42)
                        })
                    })
                })
                .collect();
            for handle in handles {
                assert_eq!(handle.join().expect("worker").expect("compute"), 42);
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1, "exactly one leader runs the stage");
        assert_eq!(store.misses(), 1, "single-flight: one miss per key, however many racers");
        assert_eq!(store.hits(), THREADS as u64 - 1);
        assert!(store.single_flight_waits() > 0, "the non-leaders blocked on the in-flight slot");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn failed_leader_lets_waiters_retry() {
        const THREADS: usize = 4;
        let store: StageStore<u32, u64> = StageStore::new("analyze");
        let barrier = Barrier::new(THREADS);
        let attempts = AtomicU64::new(0);
        let successes = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    barrier.wait();
                    let result = store.get_or_compute(7, || {
                        // The first leader fails; whoever retries succeeds.
                        if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Err("transient".to_string())
                        } else {
                            Ok(99)
                        }
                    });
                    if let Ok(v) = result {
                        assert_eq!(v, 99);
                        successes.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(successes.load(Ordering::SeqCst), THREADS as u64 - 1);
        assert_eq!(store.len(), 1, "the retried computation is cached");
    }
}
