//! Content-addressed memoization for batch mapping.
//!
//! A [`crate::MappingSession`] services many mapping requests against one
//! platform; most of the expensive work (CME miss estimation, MAI/CAI
//! construction, assignment and balancing) is identical across repeated
//! kernels. This module provides the memo layer: an FxHash-style content
//! fingerprint over everything a mapping depends on — nest shape, data
//! layout, options, platform, and the session's fault epoch — in front of
//! an `RwLock`-shared table with hit/miss counters.
//!
//! Keys are 128 bits (two independently seeded 64-bit passes over the same
//! content), so an accidental collision returning a wrong cached mapping is
//! vanishingly unlikely (~2⁻¹²⁸ per pair); determinism of the batch engine
//! never rests on the cache anyway, because a cached value is bit-identical
//! to what recomputation would produce (see `DESIGN.md` §8).

use crate::compiler::MappingOptions;
use crate::platform::Platform;
use locmap_loopir::{fx_digest, DataEnv, NestId, Program};
pub use locmap_loopir::FxHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// A 128-bit content fingerprint: the same content hashed by two
/// independently seeded [`FxHasher`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// First hash pass (seed 0).
    pub lo: u64,
    /// Second hash pass (golden-ratio seed).
    pub hi: u64,
}

/// Runs `content` through both hash passes and returns the fingerprint.
pub fn fingerprint(content: impl Fn(&mut FxHasher)) -> CacheKey {
    let [lo, hi] = fx_digest(content);
    CacheKey { lo, hi }
}

/// Hashes an `f64` by bit pattern (content addressing wants exact-value
/// identity, not numeric equivalence classes).
pub fn hash_f64<H: Hasher>(h: &mut H, x: f64) {
    h.write_u64(x.to_bits());
}

/// Hashes everything in [`MappingOptions`] that influences a mapping.
pub fn hash_options<H: Hasher>(h: &mut H, o: &MappingOptions) {
    hash_f64(h, o.iteration_set_fraction);
    h.write_u8(o.use_cme as u8);
    hash_cme_config(h, &o.cme);
    match o.alpha {
        crate::AlphaPolicy::FromHits => h.write_u8(0),
        crate::AlphaPolicy::Fixed(a) => {
            h.write_u8(1);
            hash_f64(h, a);
        }
    }
    o.eta.hash(h);
    o.placement.hash(h);
    h.write_usize(o.analysis_sample_stride);
    h.write_u8(o.balance as u8);
    o.shared_objective.hash(h);
}

/// Hashes the part of the options the CME estimate depends on (a subset of
/// [`hash_options`]): the cache-model configuration and the iteration-set
/// split. Fault state is deliberately absent — estimates survive epochs.
pub fn hash_cme_options<H: Hasher>(h: &mut H, o: &MappingOptions) {
    h.write_u8(o.use_cme as u8);
    hash_cme_config(h, &o.cme);
    hash_f64(h, o.iteration_set_fraction);
}

fn hash_cme_config<H: Hasher>(h: &mut H, c: &locmap_cme::CmeConfig) {
    c.l1.hash(h);
    c.llc.hash(h);
    hash_f64(h, c.sample_rate);
    hash_f64(h, c.noise);
    h.write_u64(c.seed);
}

/// Hashes the platform geometry a mapping depends on.
pub fn hash_platform<H: Hasher>(h: &mut H, p: &Platform) {
    p.mesh.hash(h);
    p.regions.hash(h);
    h.write_usize(p.mc_coords.len());
    for c in &p.mc_coords {
        c.hash(h);
    }
    p.addr_map.hash(h);
    p.llc.hash(h);
}

/// Hashes one mapping request's content: the nest (bounds, references,
/// work), the program's parameter bindings and complete array layout
/// (re-layout moves every later array, so the whole table matters), and
/// the installed index-array data through its [`DataEnv::digest`], which
/// the env computes once rather than once per lookup.
pub fn hash_request<H: Hasher>(h: &mut H, program: &Program, nest: NestId, data: &DataEnv) {
    program.nest(nest).hash(h);
    let params = program.params().entries();
    h.write_usize(params.len());
    for (p, v) in params {
        p.hash(h);
        h.write_i64(v);
    }
    h.write_usize(program.arrays().len());
    for a in program.arrays() {
        a.hash(h);
    }
    h.write_u64(program.page_bytes());
    for word in data.digest() {
        h.write_u64(word);
    }
}

/// Aggregate counters of one memo table.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that missed (the value was then computed and inserted).
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over total lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What a claimed computation announced to its waiters: a finished value,
/// or an abort (cancellation, budget blow, typed failure) after which the
/// key is free to claim again.
#[derive(Debug)]
enum Outcome<V> {
    Done(V),
    Aborted,
}

/// A pending computation another worker can wait on: the outcome slot
/// plus the condvar that announces it.
type InFlight<V> = Arc<(Mutex<Option<Outcome<V>>>, Condvar)>;

/// One cache slot: either a finished value or a computation in flight.
#[derive(Debug)]
enum Slot<V> {
    Ready(V),
    Pending(InFlight<V>),
}

/// A shared memo table: `RwLock`-protected map plus atomic hit/miss
/// counters, safe to query from many worker threads at once. A hit on a
/// finished value takes only the shared lock.
///
/// [`MemoCache::get_or_try_insert_with`] deduplicates computations in flight:
/// when several workers reach the same missing key, exactly one computes
/// the value and the others block until it lands. Without this, a batch of
/// repeated kernels degenerates under parallelism — every worker that
/// overtakes the first one's long compute re-derives the same mapping.
///
/// A waiter counts as a hit (the table answered; the worker did no mapping
/// work), so `misses` equals the number of values actually computed.
#[derive(Debug, Default)]
pub struct MemoCache<V> {
    map: RwLock<HashMap<CacheKey, Slot<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V: Clone> MemoCache<V> {
    /// An empty cache.
    pub fn new() -> Self {
        MemoCache { map: RwLock::new(HashMap::new()), hits: AtomicU64::new(0), misses: AtomicU64::new(0) }
    }

    /// Looks up `key`, counting a hit or miss. A computation in flight is
    /// not waited for here — it counts as a miss and returns `None`.
    pub fn get(&self, key: &CacheKey) -> Option<V> {
        let map = self.map.read().expect("memo cache poisoned");
        let found = match map.get(key) {
            Some(Slot::Ready(v)) => Some(v.clone()),
            _ => None,
        };
        drop(map);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts `value` under `key`, finishing any computation in flight.
    pub fn insert(&self, key: CacheKey, value: V) {
        let prev =
            self.map.write().expect("memo cache poisoned").insert(key, Slot::Ready(value.clone()));
        if let Some(Slot::Pending(cell)) = prev {
            Self::publish(&cell, Outcome::Done(value));
        }
    }

    /// Returns the value for `key`, running `compute` to fill it on a miss.
    ///
    /// The second component is `true` when the table answered without
    /// running `compute` — either the value was resident, or another worker
    /// was already computing it and this call waited for that result.
    /// `compute` runs outside every cache lock, so unrelated keys proceed
    /// in parallel; it must not panic, or waiters on this key would block
    /// forever.
    ///
    /// A `compute` that returns `Err` (cancelled, over budget, failed) never
    /// poisons the table. The pending slot is removed, the error is
    /// propagated to the claiming caller, and any workers waiting on the
    /// key wake up and re-claim it — an aborted computation is never
    /// served as a result, and no waiter deadlocks on it.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: CacheKey,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        // A ready value is served under the shared lock, so hits never
        // queue behind each other; only a missing or pending key goes on
        // to take the exclusive lock below.
        if let Some(Slot::Ready(v)) = self.map.read().expect("memo cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((v.clone(), true));
        }
        let mut compute = Some(compute);
        loop {
            let cell: InFlight<V> = {
                let mut map = self.map.write().expect("memo cache poisoned");
                match map.get(&key) {
                    Some(Slot::Ready(v)) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok((v.clone(), true));
                    }
                    Some(Slot::Pending(cell)) => {
                        // Someone else is computing this key: wait below.
                        let cell = cell.clone();
                        drop(map);
                        let (slot, ready) = &*cell;
                        let mut outcome = slot.lock().expect("in-flight slot poisoned");
                        while outcome.is_none() {
                            outcome = ready.wait(outcome).expect("in-flight slot poisoned");
                        }
                        match outcome.as_ref().expect("checked above") {
                            Outcome::Done(v) => {
                                self.hits.fetch_add(1, Ordering::Relaxed);
                                return Ok((v.clone(), true));
                            }
                            // The claimant aborted; the key is claimable
                            // again. Loop back and try to claim it.
                            Outcome::Aborted => continue,
                        }
                    }
                    None => {
                        let cell: InFlight<V> = Arc::new((Mutex::new(None), Condvar::new()));
                        map.insert(key, Slot::Pending(cell.clone()));
                        cell
                    }
                }
            };

            // This worker claimed the key; compute with no cache lock held.
            // (`compute` is present: only the claiming path consumes it,
            // and claiming returns unconditionally below.)
            self.misses.fetch_add(1, Ordering::Relaxed);
            match (compute.take().expect("claimed twice"))() {
                Ok(value) => {
                    // Publish through the claimed cell (waiters hold their
                    // own Arc to it).
                    Self::publish(&cell, Outcome::Done(value.clone()));
                    self.map
                        .write()
                        .expect("memo cache poisoned")
                        .insert(key, Slot::Ready(value.clone()));
                    return Ok((value, false));
                }
                Err(e) => {
                    // Free the key (only if the slot is still ours — a
                    // racing `insert` may have replaced it) and wake every
                    // waiter so they can re-claim.
                    let mut map = self.map.write().expect("memo cache poisoned");
                    if matches!(map.get(&key), Some(Slot::Pending(c)) if Arc::ptr_eq(c, &cell)) {
                        map.remove(&key);
                    }
                    drop(map);
                    Self::publish(&cell, Outcome::Aborted);
                    return Err(e);
                }
            }
        }
    }

    fn publish(cell: &InFlight<V>, outcome: Outcome<V>) {
        let (slot, ready) = &**cell;
        *slot.lock().expect("in-flight slot poisoned") = Some(outcome);
        ready.notify_all();
    }

    /// Current counters and occupancy (finished entries only).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .map
                .read()
                .expect("memo cache poisoned")
                .values()
                .filter(|s| matches!(s, Slot::Ready(_)))
                .count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmap_loopir::{Access, AffineExpr, LoopNest};
    use std::convert::Infallible;

    fn sample_program() -> (Program, NestId) {
        let mut p = Program::new("s");
        let a = p.add_array("A", 8, 1024);
        let mut nest = LoopNest::rectangular("n", &[1024]);
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        (p, id)
    }

    #[test]
    fn fingerprints_are_stable_and_content_addressed() {
        let (p, id) = sample_program();
        let d = DataEnv::new();
        let k1 = fingerprint(|h| hash_request(h, &p, id, &d));
        let k2 = fingerprint(|h| hash_request(h, &p, id, &d));
        assert_eq!(k1, k2, "same content must fingerprint identically");

        // An equal program built independently hashes the same.
        let (p2, id2) = sample_program();
        let k3 = fingerprint(|h| hash_request(h, &p2, id2, &d));
        assert_eq!(k1, k3);
    }

    #[test]
    fn layout_change_changes_the_key() {
        let (mut p, id) = sample_program();
        let d = DataEnv::new();
        let before = fingerprint(|h| hash_request(h, &p, id, &d));
        p.relayout(&[3]);
        let after = fingerprint(|h| hash_request(h, &p, id, &d));
        assert_ne!(before, after, "padding moved the array; the key must move too");
    }

    #[test]
    fn data_env_contents_change_the_key() {
        let (mut p, _) = sample_program();
        let idx = p.add_array("idx", 4, 16);
        let a0 = p.add_array("B", 8, 64);
        let mut nest = LoopNest::rectangular("irr", &[16]);
        nest.add_indirect_ref(a0, idx, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);

        let mut d1 = DataEnv::new();
        d1.set_index_array(idx, (0..16).collect());
        let mut d2 = DataEnv::new();
        d2.set_index_array(idx, (0..16).rev().collect());
        let k1 = fingerprint(|h| hash_request(h, &p, id, &d1));
        let k2 = fingerprint(|h| hash_request(h, &p, id, &d2));
        assert_ne!(k1, k2);
    }

    #[test]
    fn racing_workers_compute_a_key_once() {
        use std::sync::atomic::AtomicU32;

        let cache: MemoCache<u32> = MemoCache::new();
        let k = fingerprint(|h| h.write_u64(9));
        let computed = AtomicU32::new(0);
        let values: Vec<u32> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let (v, _) = cache
                            .get_or_try_insert_with(k, || {
                                computed.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(std::time::Duration::from_millis(30));
                                Ok::<_, Infallible>(77)
                            })
                            .unwrap();
                        v
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(values.iter().all(|&v| v == 77));
        assert_eq!(computed.load(Ordering::Relaxed), 1, "in-flight dedup must hold");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (3, 1, 1));
    }

    #[test]
    fn aborted_compute_frees_the_key() {
        let cache: MemoCache<u32> = MemoCache::new();
        let k = fingerprint(|h| h.write_u64(5));
        let r: Result<(u32, bool), &str> = cache.get_or_try_insert_with(k, || Err("cancelled"));
        assert_eq!(r, Err("cancelled"));
        assert_eq!(cache.stats().entries, 0, "aborted compute must not leave a slot");
        // The key is immediately claimable again and serves the retry.
        let (v, cached) = cache.get_or_try_insert_with(k, || Ok::<_, Infallible>(11)).unwrap();
        assert_eq!((v, cached), (11, false));
        assert_eq!(cache.get(&k), Some(11));
    }

    #[test]
    fn waiters_on_an_aborted_compute_wake_and_reclaim() {
        use std::sync::atomic::AtomicU32;
        use std::time::Duration;

        let cache: MemoCache<u32> = MemoCache::new();
        let k = fingerprint(|h| h.write_u64(13));
        let recomputed = AtomicU32::new(0);
        let values: Vec<u32> = std::thread::scope(|s| {
            let claimant = s.spawn(|| {
                let r: Result<(u32, bool), &str> = cache.get_or_try_insert_with(k, || {
                    // Give the waiters time to pile onto the pending slot.
                    std::thread::sleep(Duration::from_millis(40));
                    Err("budget blown")
                });
                assert!(r.is_err());
            });
            std::thread::sleep(Duration::from_millis(10));
            let waiters: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        let (v, _) = cache
                            .get_or_try_insert_with(k, || {
                                recomputed.fetch_add(1, Ordering::Relaxed);
                                Ok::<_, Infallible>(33)
                            })
                            .unwrap();
                        v
                    })
                })
                .collect();
            claimant.join().unwrap();
            waiters.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(values.iter().all(|&v| v == 33), "no waiter may observe the aborted value");
        assert_eq!(recomputed.load(Ordering::Relaxed), 1, "exactly one waiter re-claims");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn a_hit_is_served_while_a_reader_holds_the_map() {
        use std::sync::mpsc;
        use std::time::Duration;

        let cache: MemoCache<u32> = MemoCache::new();
        let k = fingerprint(|h| h.write_u64(21));
        cache.insert(k, 5);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            let reader = cache.map.read().unwrap();
            s.spawn(|| {
                tx.send(cache.get_or_try_insert_with(k, || Ok::<_, Infallible>(6))).unwrap()
            });
            // A hit that needed the exclusive lock would block until the
            // guard drops; release it either way so the thread can finish.
            let served = rx.recv_timeout(Duration::from_secs(10));
            drop(reader);
            assert_eq!(served, Ok(Ok((5, true))), "a hit must not wait for the exclusive lock");
        });
    }

    #[test]
    fn memo_cache_counts_hits_and_misses() {
        let cache: MemoCache<u32> = MemoCache::new();
        let k = fingerprint(|h| h.write_u64(7));
        assert_eq!(cache.get(&k), None);
        cache.insert(k, 42);
        assert_eq!(cache.get(&k), Some(42));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }
}
