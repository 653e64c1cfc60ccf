//! Batch mapping sessions: a thread pool plus a memo cache in front of the
//! [`Compiler`].
//!
//! The paper evaluates the mapper one nest at a time; a mapping *service*
//! sees streams of requests, most of them repeats (the same kernels,
//! resubmitted per job). A [`MappingSession`] amortizes that: requests fan
//! out over `std::thread::scope` workers, and results are memoized by
//! content fingerprint (see [`crate::cache`]) so repeated kernels are
//! answered without recomputation.
//!
//! Determinism: each request is mapped independently by the pure, already
//! deterministic [`Compiler::map_nest`] pipeline and written back to its
//! own index in the response vector, so `map_batch` returns bit-identical
//! results for 1 worker, N workers, or a plain serial `map_nest` loop —
//! a property the workspace proptests enforce.

use crate::admission::{
    quality_for, BreakerState, CircuitBreaker, Priority, QualityLevel, TryMapError, QUEUE_CAPACITY,
};
use crate::cache::{
    fingerprint, hash_cme_options, hash_options, hash_platform, hash_request, CacheKey, CacheStats,
    MemoCache,
};
use crate::compiler::{Compiler, MappingOptions, NestMapping};
use crate::platform::Platform;
use locmap_cme::CmeEstimate;
use locmap_loopir::{DataEnv, NestId, Program};
use locmap_noc::{FaultState, LocmapError, RunControl};
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One unit of batch work: map `nest` of `program` given `data`.
///
/// Mirrors the argument list of [`Compiler::map_nest`] (and the simulator's
/// co-run `Slot`), borrowing the inputs so a batch over many nests of one
/// program costs nothing to assemble.
#[derive(Debug, Clone, Copy)]
pub struct MapRequest<'a> {
    /// The application owning the nest.
    pub program: &'a Program,
    /// Which nest to map.
    pub nest: NestId,
    /// Index-array contents, if irregular.
    pub data: &'a DataEnv,
}

/// The answer to one [`MapRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct MapResponse {
    /// The mapping — bit-identical to what a serial
    /// [`Compiler::map_nest`] call would produce.
    pub mapping: NestMapping,
    /// True when the mapping was answered from the memo cache. Within a
    /// batch the flags do not depend on which worker computed a shared
    /// key: every later duplicate of a request is a hit, and its first
    /// occurrence is a miss if any request with that key computed the
    /// mapping.
    pub cache_hit: bool,
}

/// A response plus the rung of the quality ladder that actually produced
/// it (which may be lower than the rung chosen at admission, if the
/// expensive path blew its budget or the circuit breaker was open).
#[derive(Debug, Clone, PartialEq)]
pub struct ServedMapping {
    /// The mapping answer.
    pub response: MapResponse,
    /// The quality rung that produced [`ServedMapping::response`].
    pub quality: QualityLevel,
}

/// Cache counters of a session, split by table.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SessionStats {
    /// The full-mapping table (keyed by platform + options + request +
    /// fault epoch).
    pub mappings: CacheStats,
    /// The CME-estimate table (keyed by request + cache-model options
    /// only; survives fault-epoch bumps).
    pub cme: CacheStats,
}

/// Step-by-step construction of a [`MappingSession`].
#[derive(Debug, Clone)]
pub struct MappingSessionBuilder {
    platform: Platform,
    options: MappingOptions,
    threads: usize,
    faults: Option<FaultState>,
}

impl MappingSessionBuilder {
    /// Replaces the mapping options (default: the same as
    /// [`crate::CompilerBuilder::options`]).
    pub fn options(mut self, options: MappingOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the worker count for [`MappingSession::map_batch`] (default 1;
    /// 0 is treated as 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Starts the session in degraded mode, mapping around the faults in
    /// `state`.
    pub fn faults(mut self, state: &FaultState) -> Self {
        self.faults = Some(state.clone());
        self
    }

    /// Builds the session; fails like [`crate::CompilerBuilder::build`]
    /// when the fault state leaves nothing to map onto.
    pub fn build(self) -> Result<MappingSession, LocmapError> {
        let mut builder = Compiler::builder(self.platform.clone()).options(self.options);
        if let Some(state) = &self.faults {
            builder = builder.faults(state);
        }
        Ok(MappingSession {
            compiler: builder.build()?,
            platform: self.platform,
            options: self.options,
            threads: self.threads,
            epoch: 0,
            mappings: MemoCache::new(),
            cme: MemoCache::new(),
            gate: Mutex::new(Gate { depth: 0, breaker: CircuitBreaker::new() }),
        })
    }
}

/// Shared admission state: the in-flight count (the "queue depth" the
/// quality ladder keys off) and the circuit breaker around the expensive
/// path.
#[derive(Debug)]
struct Gate {
    depth: usize,
    breaker: CircuitBreaker,
}

/// A long-lived batch-mapping engine: owns a [`Platform`] (via its
/// [`Compiler`]), a scoped-thread worker pool, and the memo caches.
///
/// ```
/// use locmap_core::prelude::*;
/// use locmap_loopir::{Access, AffineExpr, LoopNest};
///
/// let mut p = Program::new("app");
/// let a = p.add_array("A", 8, 4096);
/// let mut nest = LoopNest::rectangular("n", &[4096]);
/// nest.add_ref(a, AffineExpr::var(0, 1), Access::Read);
/// let id = p.add_nest(nest);
/// let data = DataEnv::new();
///
/// let session = MappingSession::builder(Platform::paper_default())
///     .threads(4)
///     .build()
///     .unwrap();
/// let reqs = vec![MapRequest { program: &p, nest: id, data: &data }; 3];
/// let out = session.map_batch(&reqs);
/// assert_eq!(out.len(), 3);
/// assert_eq!(out[0].mapping, out[2].mapping);
/// assert!(!out[0].cache_hit);
/// assert!(out[1].cache_hit && out[2].cache_hit);
/// let stats = session.cache_stats().mappings;
/// assert_eq!((stats.misses, stats.hits), (1, 2));
/// ```
#[derive(Debug)]
pub struct MappingSession {
    compiler: Compiler,
    platform: Platform,
    options: MappingOptions,
    threads: usize,
    /// Bumped on every fault-state change; part of the mapping cache key,
    /// so stale entries become unreachable rather than being scrubbed.
    epoch: u64,
    mappings: MemoCache<NestMapping>,
    cme: MemoCache<Option<CmeEstimate>>,
    gate: Mutex<Gate>,
}

impl MappingSession {
    /// Starts building a session for `platform`.
    pub fn builder(platform: Platform) -> MappingSessionBuilder {
        MappingSessionBuilder {
            options: MappingOptions::scaled(&platform),
            platform,
            threads: 1,
            faults: None,
        }
    }

    /// The compiler currently answering requests.
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    /// The worker count used by [`MappingSession::map_batch`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The current fault epoch (0 until the first fault-state change).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Lifetime cache counters.
    pub fn cache_stats(&self) -> SessionStats {
        SessionStats { mappings: self.mappings.stats(), cme: self.cme.stats() }
    }

    /// Switches the session to map around the faults in `state`;
    /// [`FaultState::none`] returns it to fault-free mapping.
    ///
    /// Bumps the fault epoch: cached mappings from other epochs stop
    /// matching (their key embeds the epoch), while cached CME estimates —
    /// which do not depend on the machine's health — remain valid and keep
    /// hitting.
    pub fn set_faults(&mut self, state: &FaultState) -> Result<(), LocmapError> {
        self.compiler = Compiler::builder(self.platform.clone())
            .options(self.options)
            .faults(state)
            .build()?;
        self.epoch += 1;
        Ok(())
    }

    /// Maps every request, fanning out across the session's workers.
    ///
    /// `out[i]` answers `requests[i]`; mappings are bit-identical to calling
    /// [`Compiler::map_nest`] serially per request, and whole responses
    /// are the same for any worker count.
    pub fn map_batch(&self, requests: &[MapRequest<'_>]) -> Vec<MapResponse> {
        self.map_batch_ctl(requests, &RunControl::unlimited())
            .expect("an unlimited RunControl never aborts")
    }

    /// [`MappingSession::map_batch`] under a shared deadline/cancellation
    /// [`RunControl`].
    ///
    /// All workers draw down the same budget and observe the same token.
    /// On abort the batch returns the typed error of the lowest-indexed
    /// failing request; requests that finished before the abort have
    /// their results cached normally (the memo tables are never poisoned
    /// by an abort), so a retried batch resumes from what was completed.
    pub fn map_batch_ctl(
        &self,
        requests: &[MapRequest<'_>],
        ctl: &RunControl,
    ) -> Result<Vec<MapResponse>, LocmapError> {
        let workers = self.threads.min(requests.len()).max(1);
        let mut keyed: Vec<(CacheKey, MapResponse)> = if workers == 1 {
            requests.iter().map(|r| self.map_keyed(r, ctl)).collect::<Result<_, _>>()?
        } else {
            // Dynamic dispatch: workers pull the next unclaimed request
            // index, so imbalanced kernels don't idle a statically
            // partitioned pool.
            let next = AtomicUsize::new(0);
            let mut collected: Vec<Vec<_>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut local = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= requests.len() {
                                    break;
                                }
                                local.push((i, self.map_keyed(&requests[i], ctl)));
                            }
                            local
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("mapping worker panicked")).collect()
            });

            let mut out: Vec<Option<_>> = vec![None; requests.len()];
            for (i, resp) in collected.drain(..).flatten() {
                out[i] = Some(resp);
            }
            out.into_iter()
                .map(|slot| slot.expect("every request index was claimed exactly once"))
                .collect::<Result<_, _>>()?
        };

        // Which worker computes a shared key is a race; the flags are not:
        // every later duplicate is a hit, and the first occurrence is a hit
        // only if nobody in its group computed the mapping.
        let mut first: HashMap<CacheKey, usize> = HashMap::new();
        for i in 0..keyed.len() {
            let f = *first.entry(keyed[i].0).or_insert(i);
            if f != i {
                keyed[f].1.cache_hit &= keyed[i].1.cache_hit;
                keyed[i].1.cache_hit = true;
            }
        }
        Ok(keyed.into_iter().map(|(_, resp)| resp).collect())
    }

    /// Maps a single request through the caches.
    pub fn map_one(&self, r: &MapRequest<'_>) -> MapResponse {
        self.map_one_ctl(r, &RunControl::unlimited())
            .expect("an unlimited RunControl never aborts")
    }

    /// [`MappingSession::map_one`] under a deadline/cancellation
    /// [`RunControl`].
    ///
    /// An abort mid-computation removes the in-flight cache slot rather
    /// than poisoning it: concurrent waiters on the same key wake and
    /// re-claim, and a later retry of the same request computes fresh.
    pub fn map_one_ctl(
        &self,
        r: &MapRequest<'_>,
        ctl: &RunControl,
    ) -> Result<MapResponse, LocmapError> {
        self.map_keyed(r, ctl).map(|(_, resp)| resp)
    }

    /// [`MappingSession::map_one_ctl`], also returning the request's
    /// mapping-cache key.
    fn map_keyed(
        &self,
        r: &MapRequest<'_>,
        ctl: &RunControl,
    ) -> Result<(CacheKey, MapResponse), LocmapError> {
        let key = self.mapping_key(r);
        let (mapping, cache_hit) = self.mappings.get_or_try_insert_with(key, || {
            self.compiler.map_nest_via(r.program, r.nest, r.data, ctl, |estimate| {
                self.cme.get_or_try_insert_with(self.cme_key(r), estimate).map(|(e, _)| e)
            })
        })?;
        Ok((key, MapResponse { mapping, cache_hit }))
    }

    /// Answers a request from the memo cache alone (the
    /// [`QualityLevel::Cached`] rung): no estimation, no mapping — `None`
    /// on a miss.
    fn cached_one(&self, r: &MapRequest<'_>) -> Option<MapResponse> {
        self.mappings
            .get(&self.mapping_key(r))
            .map(|mapping| MapResponse { mapping, cache_hit: true })
    }

    /// Answers a request with the round-robin-with-locality heuristic
    /// (the [`QualityLevel::Heuristic`] rung): O(sets), no CME, no
    /// affinity analysis, never blocks and never fails.
    fn heuristic_one(&self, r: &MapRequest<'_>) -> MapResponse {
        MapResponse { mapping: self.compiler.heuristic_mapping(r.program, r.nest), cache_hit: false }
    }

    /// Requests currently holding an admission slot.
    pub fn in_flight(&self) -> usize {
        self.gate.lock().expect("admission gate poisoned").depth
    }

    /// The circuit breaker's current position.
    pub fn breaker_state(&self) -> BreakerState {
        self.gate.lock().expect("admission gate poisoned").breaker.state()
    }

    /// Claims a slot in the bounded admission queue, or sheds the request
    /// with [`TryMapError::QueueFull`] when the session is at capacity.
    ///
    /// The returned ticket pins the [`QualityLevel`] chosen from the
    /// depth at admission and the request's [`Priority`]; dropping it
    /// releases the slot. Open-loop drivers admit at arrival time and
    /// serve later, so backpressure reflects true queue occupancy.
    pub fn try_admit(&self, priority: Priority) -> Result<AdmitTicket<'_>, TryMapError> {
        let mut gate = self.gate.lock().expect("admission gate poisoned");
        if gate.depth >= QUEUE_CAPACITY {
            return Err(TryMapError::QueueFull { depth: gate.depth, capacity: QUEUE_CAPACITY });
        }
        gate.depth += 1;
        let depth = gate.depth;
        drop(gate);
        let quality = quality_for(depth, priority);
        Ok(AdmitTicket { session: self, priority, quality, depth })
    }

    /// Serves an admitted request, walking down the quality ladder:
    ///
    /// 1. At [`QualityLevel::Full`] (and breaker willing), the complete
    ///    CME + η-minimization pipeline under `ctl`'s budget. A budget
    ///    blow strikes the breaker and falls through; a cancellation
    ///    propagates (the client is gone — nothing cheaper helps).
    /// 2. At [`QualityLevel::Cached`], a memo-table lookup.
    /// 3. At [`QualityLevel::Heuristic`] (or on a cache miss), the
    ///    locality heuristic, which always succeeds.
    pub fn serve(
        &self,
        ticket: &AdmitTicket<'_>,
        r: &MapRequest<'_>,
        ctl: &RunControl,
    ) -> Result<ServedMapping, TryMapError> {
        let mut level = ticket.quality();
        if level == QualityLevel::Full {
            let admitted =
                self.gate.lock().expect("admission gate poisoned").breaker.admit_expensive();
            if admitted {
                match self.map_one_ctl(r, ctl) {
                    Ok(response) => {
                        self.gate
                            .lock()
                            .expect("admission gate poisoned")
                            .breaker
                            .record_success();
                        return Ok(ServedMapping { response, quality: QualityLevel::Full });
                    }
                    Err(e @ LocmapError::Cancelled { .. }) => return Err(TryMapError::Mapping(e)),
                    Err(LocmapError::DeadlineExceeded { .. }) => {
                        self.gate
                            .lock()
                            .expect("admission gate poisoned")
                            .breaker
                            .record_failure();
                        level = QualityLevel::Cached;
                    }
                    Err(e) => return Err(TryMapError::Mapping(e)),
                }
            } else {
                level = QualityLevel::Cached;
            }
        }
        if level == QualityLevel::Cached {
            if let Some(response) = self.cached_one(r) {
                return Ok(ServedMapping { response, quality: QualityLevel::Cached });
            }
        }
        Ok(ServedMapping { response: self.heuristic_one(r), quality: QualityLevel::Heuristic })
    }

    fn mapping_key(&self, r: &MapRequest<'_>) -> CacheKey {
        fingerprint(|h| {
            hash_platform(h, &self.platform);
            hash_options(h, &self.options);
            h.write_u64(self.epoch);
            hash_request(h, r.program, r.nest, r.data);
        })
    }

    fn cme_key(&self, r: &MapRequest<'_>) -> CacheKey {
        fingerprint(|h| {
            hash_cme_options(h, &self.options);
            hash_request(h, r.program, r.nest, r.data);
        })
    }
}

/// A held slot in a session's bounded admission queue.
///
/// Created by [`MappingSession::try_admit`]; dropping it releases the
/// slot, so shed-or-serve accounting stays balanced on every path
/// (including panics and early returns).
#[derive(Debug)]
pub struct AdmitTicket<'s> {
    session: &'s MappingSession,
    priority: Priority,
    quality: QualityLevel,
    depth: usize,
}

impl AdmitTicket<'_> {
    /// The class the request was admitted under.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The quality rung chosen at admission (the ladder may still fall
    /// lower while serving; it never climbs higher).
    pub fn quality(&self) -> QualityLevel {
        self.quality
    }

    /// Queue depth at admission, this request included.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

impl Drop for AdmitTicket<'_> {
    fn drop(&mut self) {
        self.session.gate.lock().expect("admission gate poisoned").depth -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmap_loopir::{Access, AffineExpr, LoopNest};
    use locmap_noc::{FaultPlan, NodeId};

    fn stream(name: &str, elems: u64) -> (Program, NestId) {
        let mut p = Program::new(name);
        let a = p.add_array("A", 8, elems);
        let b = p.add_array("B", 8, elems);
        let mut nest = LoopNest::rectangular("n", &[elems as i64]);
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
        nest.add_ref(b, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        (p, id)
    }

    #[test]
    fn batch_matches_serial_map_nest() {
        let platform = Platform::paper_default();
        let session = MappingSession::builder(platform.clone()).threads(4).build().unwrap();
        let compiler = Compiler::builder(platform).build().unwrap();

        let apps: Vec<(Program, NestId)> =
            (0..5).map(|i| stream(&format!("app{i}"), 2048 + 512 * i)).collect();
        let data = DataEnv::new();
        let reqs: Vec<MapRequest<'_>> = apps
            .iter()
            .map(|(p, id)| MapRequest { program: p, nest: *id, data: &data })
            .collect();

        let out = session.map_batch(&reqs);
        for (resp, (p, id)) in out.iter().zip(&apps) {
            assert_eq!(resp.mapping, compiler.map_nest(p, *id, &data));
        }
    }

    #[test]
    fn repeats_hit_the_cache() {
        let (p, id) = stream("rep", 4096);
        let data = DataEnv::new();
        let session = MappingSession::builder(Platform::paper_default()).build().unwrap();
        let reqs = vec![MapRequest { program: &p, nest: id, data: &data }; 4];
        let out = session.map_batch(&reqs);
        assert!(!out[0].cache_hit);
        assert!(out[1..].iter().all(|r| r.cache_hit));
        let stats = session.cache_stats();
        assert_eq!(stats.mappings.hits, 3);
        assert_eq!(stats.mappings.misses, 1);
        assert_eq!(stats.mappings.entries, 1);
    }

    #[test]
    fn hits_share_the_cached_affinity_vectors() {
        let (p, id) = stream("share", 4096);
        let data = DataEnv::new();
        let platform = Platform::paper_default_with(crate::LlcOrg::SharedSNuca);
        let session = MappingSession::builder(platform).build().unwrap();
        let r = MapRequest { program: &p, nest: id, data: &data };
        let miss = session.map_one(&r);
        let hit = session.map_one(&r);
        assert!(!miss.cache_hit && hit.cache_hit);

        // The hit is the miss's answer, field for field.
        let NestMapping {
            nest, sets, regions, assignment, balance, needs_inspector, mai, cai, alphas,
        } = &hit.mapping;
        let m = &miss.mapping;
        assert_eq!(*nest, m.nest);
        assert_eq!(*sets, m.sets);
        assert_eq!(*regions, m.regions);
        assert_eq!(*assignment, m.assignment);
        assert_eq!(*balance, m.balance);
        assert_eq!(*needs_inspector, m.needs_inspector);
        assert_eq!(*mai, m.mai);
        assert_eq!(*cai, m.cai);
        assert_eq!(*alphas, m.alphas);

        // Both answers are clones of the cached entry, and their affinity
        // vectors share its weights rather than copying them.
        assert!(!mai.is_empty() && !cai.is_empty());
        let shared = |a: &[crate::AffinityVec], b: &[crate::AffinityVec]| {
            a.iter().zip(b).all(|(x, y)| std::sync::Arc::ptr_eq(&x.0, &y.0))
        };
        assert!(shared(mai, &m.mai), "a hit copied the cached MAI");
        assert!(shared(cai, &m.cai), "a hit copied the cached CAI");
    }

    #[test]
    fn fault_epoch_invalidates_mappings_but_not_cme() {
        let (p, id) = stream("epoch", 4096);
        let data = DataEnv::new();
        let platform = Platform::paper_default();
        let mut session = MappingSession::builder(platform.clone()).build().unwrap();
        let req = [MapRequest { program: &p, nest: id, data: &data }];

        assert!(!session.map_batch(&req)[0].cache_hit);
        assert!(session.map_batch(&req)[0].cache_hit);

        let state = FaultPlan::new(platform.mesh, platform.mc_coords.len())
            .dead_router(NodeId(7))
            .final_state();
        session.set_faults(&state).unwrap();
        assert_eq!(session.epoch(), 1);

        // The old mapping no longer matches (new epoch in the key)...
        let degraded = session.map_batch(&req);
        assert!(!degraded[0].cache_hit, "fault change must invalidate mappings");
        assert!(degraded[0].mapping.assignment.iter().all(|&n| n != NodeId(7)));
        // ...but the CME estimate was reused rather than recomputed.
        let stats = session.cache_stats();
        assert_eq!(stats.cme.hits, 1, "estimate survives the epoch bump");

        // And the degraded mapping matches a degraded compiler exactly.
        let dc = Compiler::builder(platform).faults(&state).build().unwrap();
        assert_eq!(degraded[0].mapping, dc.map_nest(&p, id, &data));
    }

    #[test]
    fn clear_faults_restores_clean_mapping() {
        let (p, id) = stream("clear", 2048);
        let data = DataEnv::new();
        let platform = Platform::paper_default();
        let mut session = MappingSession::builder(platform.clone()).build().unwrap();
        let req = [MapRequest { program: &p, nest: id, data: &data }];
        let clean = session.map_batch(&req)[0].mapping.clone();

        let state = FaultPlan::new(platform.mesh, platform.mc_coords.len())
            .dead_router(NodeId(3))
            .final_state();
        session.set_faults(&state).unwrap();
        let _ = session.map_batch(&req);
        session.set_faults(&FaultState::none(platform.mesh, platform.mc_coords.len())).unwrap();
        assert_eq!(session.epoch(), 2);

        let back = session.map_batch(&req);
        assert!(!back[0].cache_hit, "epoch 2 key differs from epoch 0");
        assert_eq!(back[0].mapping, clean, "fault-free mapping is restored bit for bit");
    }

    #[test]
    fn ctl_paths_are_bit_identical_to_plain_paths() {
        let (p, id) = stream("ctl", 4096);
        let data = DataEnv::new();
        let session = MappingSession::builder(Platform::paper_default()).threads(3).build().unwrap();
        let r = MapRequest { program: &p, nest: id, data: &data };
        let plain = session.map_one(&r);
        let fresh = MappingSession::builder(Platform::paper_default()).threads(3).build().unwrap();
        let ctl = RunControl::unlimited();
        let under_ctl = fresh.map_one_ctl(&r, &ctl).unwrap();
        assert_eq!(plain, under_ctl);
        assert_eq!(
            fresh.map_batch_ctl(&[r, r], &RunControl::unlimited()).unwrap(),
            fresh.map_batch(&[r, r])
        );
    }

    #[test]
    fn aborted_request_never_poisons_the_caches() {
        use locmap_cme::CmeEstimator;
        use locmap_loopir::IterationSpace;
        use locmap_noc::{Budget, CancelToken};
        let (p, id) = stream("abort", 4096);
        let data = DataEnv::new();
        let r = MapRequest { program: &p, nest: id, data: &data };

        // Measure the work of the CME stage alone and of the full pipeline.
        let probe = MappingSession::builder(Platform::paper_default()).build().unwrap();
        let est_ctl = RunControl::unlimited();
        let (nest, opts) = (p.nest(id), probe.compiler().options());
        let space = IterationSpace::enumerate(nest, &p.params());
        let sets = space.split_by_fraction(opts.iteration_set_fraction);
        CmeEstimator::new(opts.cme).estimate_ctl(&p, nest, &space, &sets, &data, &est_ctl).unwrap();
        let cme_units = est_ctl.spent_units();
        let full_ctl = RunControl::unlimited();
        let baseline = probe.map_one_ctl(&r, &full_ctl).unwrap();
        drop(probe);
        let total_units = full_ctl.spent_units();
        assert!(total_units > cme_units, "the mapping stage does measurable work");

        // A budget that covers the estimate but not the mapping cancels the
        // request *between* the two cache stages.
        let session = MappingSession::builder(Platform::paper_default()).build().unwrap();
        let budget = Budget::unlimited().with_work_units((cme_units + total_units) / 2);
        let ctl = RunControl::new(CancelToken::new(), budget);
        let err = session.map_one_ctl(&r, &ctl).unwrap_err();
        assert!(matches!(err, LocmapError::DeadlineExceeded { .. }), "got {err:?}");
        let stats = session.cache_stats();
        assert_eq!(stats.cme.entries, 1, "the completed CME stage stays cached");
        assert_eq!(stats.mappings.entries, 0, "the aborted mapping leaves no slot behind");

        // The same request retried with no limits computes fresh — no
        // poisoned slot, bit-identical to an uncancelled run — and only
        // then becomes a hit.
        let retry = session.map_one(&r);
        assert!(!retry.cache_hit);
        assert_eq!(retry.mapping, baseline.mapping);
        assert!(session.map_one(&r).cache_hit);

        // A token cancelled before any work leaves both caches untouched.
        let cold = MappingSession::builder(Platform::paper_default()).build().unwrap();
        let ctl = RunControl::new(CancelToken::cancel_after_polls(0), Budget::unlimited());
        assert!(matches!(
            cold.map_one_ctl(&r, &ctl),
            Err(LocmapError::Cancelled { .. })
        ));
        assert_eq!(cold.cache_stats().cme.entries, 0);
        assert_eq!(cold.cache_stats().mappings.entries, 0);
    }

    #[test]
    fn a_miss_charges_the_cme_and_each_affinity_table_per_sampled_iteration() {
        use crate::platform::LlcOrg;
        use locmap_cme::CmeEstimator;
        use locmap_loopir::IterationSpace;
        let (p, id) = stream("units", 4096);
        let data = DataEnv::new();
        let r = MapRequest { program: &p, nest: id, data: &data };
        let options = MappingOptions {
            analysis_sample_stride: 3,
            ..MappingOptions::scaled(&Platform::paper_default())
        };
        // A shared LLC builds MAI and CAI, a private one MAI alone.
        for (llc, tables) in [(LlcOrg::SharedSNuca, 2), (LlcOrg::Private, 1)] {
            let session = MappingSession::builder(Platform::paper_default_with(llc))
                .options(options)
                .build()
                .unwrap();
            let nest = p.nest(id);
            let space = IterationSpace::enumerate(nest, &p.params());
            let sets = space.split_by_fraction(options.iteration_set_fraction);
            let est_ctl = RunControl::unlimited();
            CmeEstimator::new(options.cme)
                .estimate_ctl(&p, nest, &space, &sets, &data, &est_ctl)
                .unwrap();
            let sampled: u64 = sets.iter().map(|s| s.indices().step_by(3).count() as u64).sum();
            assert!(sampled < space.len() as u64, "the stride samples");

            let ctl = RunControl::unlimited();
            assert!(!session.map_one_ctl(&r, &ctl).unwrap().cache_hit);
            assert_eq!(ctl.spent_units(), est_ctl.spent_units() + tables * sampled, "{llc:?}");
        }
    }

    #[test]
    fn cancellation_latency_is_bounded_by_one_checkpoint() {
        use locmap_noc::{Budget, CancelToken};
        let (p, id) = stream("latency", 4096);
        let data = DataEnv::new();
        let session = MappingSession::builder(Platform::paper_default()).build().unwrap();
        let r = MapRequest { program: &p, nest: id, data: &data };
        // The token trips on the very first observation: the pipeline may
        // finish at most the one checkpoint interval of work already in
        // flight before returning the typed error.
        let ctl = RunControl::new(CancelToken::cancel_after_polls(1), Budget::unlimited());
        let err = session.map_one_ctl(&r, &ctl).unwrap_err();
        assert!(matches!(err, LocmapError::Cancelled { .. }));
        assert!(
            ctl.spent_units() <= locmap_cme::CHECKPOINT_INTERVAL,
            "cancellation latency exceeded one checkpoint interval: {} units",
            ctl.spent_units()
        );
    }

    /// Admits `r` at `priority` and serves it under `ctl`, releasing the
    /// slot afterwards.
    fn admit_and_serve(
        session: &MappingSession,
        r: &MapRequest<'_>,
        priority: Priority,
        ctl: &RunControl,
    ) -> ServedMapping {
        let ticket = session.try_admit(priority).unwrap();
        session.serve(&ticket, r, ctl).unwrap()
    }

    #[test]
    fn admission_queue_bounds_in_flight_requests() {
        let session = MappingSession::builder(Platform::paper_default()).build().unwrap();
        let mut held: Vec<_> =
            (0..QUEUE_CAPACITY).map(|_| session.try_admit(Priority::Normal).unwrap()).collect();
        assert_eq!(session.in_flight(), QUEUE_CAPACITY);
        let err = session.try_admit(Priority::High).unwrap_err();
        assert_eq!(err, TryMapError::QueueFull { depth: QUEUE_CAPACITY, capacity: QUEUE_CAPACITY });
        drop(held.pop());
        assert_eq!(session.in_flight(), QUEUE_CAPACITY - 1);
        let c = session.try_admit(Priority::Low).unwrap();
        assert_eq!(c.depth(), QUEUE_CAPACITY);
        drop((held, c));
        assert_eq!(session.in_flight(), 0);
    }

    #[test]
    fn quality_ladder_degrades_with_depth_and_priority() {
        use crate::admission::{DEGRADE_DEPTH, HEURISTIC_DEPTH};
        let (p, id) = stream("ladder", 4096);
        let data = DataEnv::new();
        let session = MappingSession::builder(Platform::paper_default()).build().unwrap();
        let r = MapRequest { program: &p, nest: id, data: &data };

        // Alone in the queue: full quality, same answer as map_one.
        let served = admit_and_serve(&session, &r, Priority::Normal, &RunControl::unlimited());
        assert_eq!(served.quality, QualityLevel::Full);
        assert_eq!(served.response.mapping, session.map_one(&r).mapping);

        // Past DEGRADE_DEPTH: served from cache (it was just warmed).
        fn hold(s: &MappingSession, n: usize) -> Vec<AdmitTicket<'_>> {
            (0..n).map(|_| s.try_admit(Priority::Low).unwrap()).collect()
        }
        let _hold = hold(&session, DEGRADE_DEPTH);
        let served = admit_and_serve(&session, &r, Priority::Normal, &RunControl::unlimited());
        assert_eq!(served.quality, QualityLevel::Cached);
        assert!(served.response.cache_hit);
        // High priority tolerates the same depth at full quality.
        let served = admit_and_serve(&session, &r, Priority::High, &RunControl::unlimited());
        assert_eq!(served.quality, QualityLevel::Full);

        // Past HEURISTIC_DEPTH: the locality heuristic answers.
        let _more = hold(&session, HEURISTIC_DEPTH - DEGRADE_DEPTH);
        let served = admit_and_serve(&session, &r, Priority::Normal, &RunControl::unlimited());
        assert_eq!(served.quality, QualityLevel::Heuristic);
        assert_eq!(served.response, session.heuristic_one(&r));

        // A cold cache at the Cached rung also falls to the heuristic.
        let cold = MappingSession::builder(Platform::paper_default()).build().unwrap();
        let _hold = hold(&cold, DEGRADE_DEPTH);
        let served = admit_and_serve(&cold, &r, Priority::Normal, &RunControl::unlimited());
        assert_eq!(served.quality, QualityLevel::Heuristic);
    }

    #[test]
    fn breaker_trips_to_heuristic_and_recovers_via_probes() {
        use locmap_noc::{Budget, CancelToken};
        let (p, id) = stream("breaker", 4096);
        let data = DataEnv::new();
        let session = MappingSession::builder(Platform::paper_default()).build().unwrap();
        let r = MapRequest { program: &p, nest: id, data: &data };
        let starved = || RunControl::new(CancelToken::new(), Budget::unlimited().with_work_units(1));

        // Three budget blows in a row strike the breaker open; each falls
        // back down the ladder instead of failing the request.
        for _ in 0..3 {
            let served = admit_and_serve(&session, &r, Priority::Normal, &starved());
            assert_eq!(served.quality, QualityLevel::Heuristic);
        }
        assert_eq!(session.breaker_state(), BreakerState::Open);

        // While open, even unlimited requests bypass the expensive path.
        for _ in 0..7 {
            let served = admit_and_serve(&session, &r, Priority::Normal, &RunControl::unlimited());
            assert_eq!(served.quality, QualityLevel::Heuristic);
        }
        assert_eq!(session.breaker_state(), BreakerState::Open);

        // The cool-down elapses (in observations): a probe runs the full
        // pipeline again, and enough successes close the breaker.
        let served = admit_and_serve(&session, &r, Priority::Normal, &RunControl::unlimited());
        assert_eq!(served.quality, QualityLevel::Full);
        assert_eq!(session.breaker_state(), BreakerState::HalfOpen);
        let served = admit_and_serve(&session, &r, Priority::Normal, &RunControl::unlimited());
        assert_eq!(served.quality, QualityLevel::Full);
        assert_eq!(session.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn empty_batch_is_empty() {
        let session =
            MappingSession::builder(Platform::paper_default()).threads(8).build().unwrap();
        assert!(session.map_batch(&[]).is_empty());
    }

    #[test]
    fn index_arrays_key_the_cache_by_content() {
        let n = 4096i64;
        let mut p = Program::new("irr");
        let a = p.add_array("A", 8, n as u64);
        let (idx, rev) = (p.add_array("idx", 4, n as u64), p.add_array("rev", 4, n as u64));
        let mut nest = LoopNest::rectangular("n", &[n]);
        nest.add_indirect_ref(a, idx, AffineExpr::var(0, 1), Access::Read);
        nest.add_indirect_ref(a, rev, AffineExpr::var(0, 1), Access::Write);
        let id = p.add_nest(nest);
        let scatter: Vec<i64> = (0..n).map(|i| (i * 7 + 3) % n).collect();
        let mut data = DataEnv::new();
        data.set_index_array(idx, scatter.clone());
        data.set_index_array(rev, (0..n).rev().collect());

        let platform = Platform::paper_default();
        let session = MappingSession::builder(platform.clone()).build().unwrap();
        let req = |data| MapRequest { program: &p, nest: id, data };
        let first = session.map_one(&req(&data));
        assert!(!first.cache_hit);

        // A copy made after the lookup digested `data`, then changed in
        // one element, must miss and map its own contents.
        let mut changed = data.clone();
        let mut one_off = scatter.clone();
        one_off[5] = (one_off[5] + n / 2) % n;
        changed.set_index_array(idx, one_off);
        let diff = session.map_one(&req(&changed));
        assert!(!diff.cache_hit, "a changed index-array element must miss");
        let compiler = Compiler::builder(platform).build().unwrap();
        assert_eq!(diff.mapping, compiler.map_nest(&p, id, &changed));

        // Equal contents installed in the other order hit.
        let mut reordered = DataEnv::new();
        reordered.set_index_array(rev, (0..n).rev().collect());
        reordered.set_index_array(idx, scatter);
        let same = session.map_one(&req(&reordered));
        assert!(same.cache_hit, "equal index arrays must hit however they were installed");
        assert_eq!(same.mapping, first.mapping);
    }

    #[test]
    fn irregular_requests_flow_through() {
        let mut p = Program::new("irr");
        let a = p.add_array("A", 8, 1000);
        let idx = p.add_array("idx", 4, 1000);
        let mut nest = LoopNest::rectangular("n", &[1000]);
        nest.add_indirect_ref(a, idx, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        let no_data = DataEnv::new();
        let mut with_data = DataEnv::new();
        with_data.set_index_array(idx, (0..1000).rev().collect());

        let session = MappingSession::builder(Platform::paper_default()).threads(2).build().unwrap();
        let out = session.map_batch(&[
            MapRequest { program: &p, nest: id, data: &no_data },
            MapRequest { program: &p, nest: id, data: &with_data },
        ]);
        assert!(out[0].mapping.needs_inspector, "unresolvable nest defers");
        assert!(!out[1].mapping.needs_inspector, "installed index array resolves");
        assert_ne!(out[0].mapping, out[1].mapping);
    }
}
