//! Cache-miss-equations-style hit/miss estimation.
//!
//! The paper's compiler needs to know, *at compile time*, which of an
//! iteration set's accesses will hit in the last-level cache (to build CAI
//! and to weight α) and which will miss and travel to a memory controller
//! (to build MAI). The original CME framework [Ghosh, Martonosi, Malik,
//! TOPLAS'99] solves Diophantine equations per reference; the paper
//! replaces exact solution counting with *statistical methods* — which is
//! exactly what this crate implements: a seeded, sampled symbolic execution
//! of the nest through a compiler-side cache model.
//!
//! The model is two true-LRU tag arrays, L1 and LLC, each set ordered
//! most recently used first; they keep tags only, since the estimate
//! reads nothing but whether an access hits. Each
//! [`CHECKPOINT_INTERVAL`] of a set's iterations first draws its sampling
//! decisions into a buffer of kept indices, without a branch per draw,
//! then replays the kept iterations; tallies live in per-set counters.
//!
//! The estimate is deliberately imperfect (the paper measured 76–93 %
//! accuracy): the compiler-side model is single-threaded and ignores
//! coherence, bank partitioning and interleaving with other nests. An
//! optional noise knob degrades accuracy further for sensitivity studies,
//! and the `perfect` constructor is used for the paper's optimality study
//! (Figure 15).
//!
//! # Example
//!
//! ```
//! use locmap_loopir::{Program, LoopNest, AffineExpr, Access, IterationSpace, DataEnv};
//! use locmap_cme::{CmeConfig, CmeEstimator};
//!
//! let mut p = Program::new("ex");
//! let a = p.add_array("A", 8, 4096);
//! let mut nest = LoopNest::rectangular("n", &[4096]);
//! nest.add_ref(a, AffineExpr::var(0, 1), Access::Read);
//! let id = p.add_nest(nest);
//!
//! let space = IterationSpace::enumerate(p.nest(id), &p.params());
//! let sets = space.split_by_fraction(0.01);
//! let est = CmeEstimator::new(CmeConfig::default())
//!     .estimate(&p, p.nest(id), &space, &sets, &DataEnv::new());
//! // Unit-stride 8-byte elements on 64-byte lines: ~7/8 of accesses hit.
//! assert!(est.hit_probability(10, 0) > 0.5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use locmap_loopir::{CompiledRef, DataEnv, IterationSet, IterationSpace, LoopNest, Program};
use locmap_mem::CacheConfig;
use locmap_noc::{LocmapError, RunControl};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Iterations scanned between [`RunControl`] checkpoints inside
/// [`CmeEstimator::estimate_ctl`]. Bounds the estimator's cancellation
/// latency: a set token is observed within this many iterations.
pub const CHECKPOINT_INTERVAL: u64 = 1024;

/// Configuration of the compile-time cache model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CmeConfig {
    /// Geometry of the modeled L1 (accesses that hit here never reach the
    /// LLC and are excluded from affinity computations).
    pub l1: CacheConfig,
    /// Geometry of the modeled (aggregate) LLC.
    pub llc: CacheConfig,
    /// Fraction of iterations symbolically executed (statistical solution
    /// counting). 1.0 = every iteration.
    pub sample_rate: f64,
    /// Additive uniform noise on per-set hit probabilities, modeling the
    /// residual inaccuracy of static estimation. 0.0 = best effort.
    pub noise: f64,
    /// RNG seed for sampling and noise (estimates are deterministic).
    pub seed: u64,
}

impl Default for CmeConfig {
    fn default() -> Self {
        CmeConfig {
            l1: CacheConfig::paper_l1(),
            // Compile-time proxy for the LLC a thread effectively owns:
            // one 512 KB bank (private-LLC view). The shared-LLC compiler
            // view scales this by the bank count via `with_llc_bytes`.
            llc: CacheConfig::paper_l2_bank(),
            sample_rate: 1.0,
            noise: 0.06,
            seed: 0x10c_a11,
        }
    }
}

impl CmeConfig {
    /// A perfect-estimation configuration (Figure 15's oracle): full
    /// sampling and zero noise.
    pub fn perfect() -> Self {
        CmeConfig { sample_rate: 1.0, noise: 0.0, ..CmeConfig::default() }
    }

    /// Replaces the modeled LLC capacity, keeping 16-way 64 B geometry.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a power-of-two multiple of one set's worth
    /// of data (the underlying cache model requires power-of-two sets).
    pub fn with_llc_bytes(mut self, bytes: u64) -> Self {
        self.llc = CacheConfig { size_bytes: bytes, ways: 16, line_bytes: 64 };
        self
    }
}

/// Per-iteration-set, per-reference hit-probability estimates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CmeEstimate {
    /// `hit[set][ref]` = estimated probability that an access by this
    /// reference in this set hits in the LLC (given it missed L1).
    hit: Vec<Vec<f64>>,
    /// `l1_hit[set][ref]` = estimated probability that the access is
    /// satisfied by the private L1 and never enters the network.
    l1_hit: Vec<Vec<f64>>,
}

impl CmeEstimate {
    /// Estimated LLC hit probability for reference `r` in set `set`
    /// (conditional on reaching the LLC).
    ///
    /// # Panics
    ///
    /// Panics if `set` or `r` are out of range.
    pub fn hit_probability(&self, set: usize, r: usize) -> f64 {
        self.hit[set][r]
    }

    /// Estimated probability the access never leaves the core's L1.
    pub fn l1_hit_probability(&self, set: usize, r: usize) -> f64 {
        self.l1_hit[set][r]
    }

    /// The paper's α for a set: the fraction of the set's *network-visible*
    /// accesses that are LLC hits (α weights cache affinity against memory
    /// affinity; §4 sets α = hits / (hits + misses)).
    pub fn alpha(&self, set: usize) -> f64 {
        let refs = &self.hit[set];
        if refs.is_empty() {
            return 0.5;
        }
        let l1 = &self.l1_hit[set];
        let mut weight = 0.0;
        let mut hits = 0.0;
        for (h, l1h) in refs.iter().zip(l1) {
            let reach_llc = 1.0 - l1h;
            weight += reach_llc;
            hits += reach_llc * h;
        }
        if weight == 0.0 {
            0.5
        } else {
            hits / weight
        }
    }

    /// Mean LLC hit probability over all sets and references.
    pub fn mean_hit_probability(&self) -> f64 {
        let mut n = 0usize;
        let mut s = 0.0;
        for set in &self.hit {
            for &h in set {
                s += h;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            s / n as f64
        }
    }
}

/// The estimator: a seeded, sampled symbolic execution of a nest through
/// L1 + LLC cache models.
#[derive(Debug, Clone)]
pub struct CmeEstimator {
    cfg: CmeConfig,
}

impl CmeEstimator {
    /// Creates an estimator with configuration `cfg`.
    pub fn new(cfg: CmeConfig) -> Self {
        assert!(cfg.sample_rate > 0.0 && cfg.sample_rate <= 1.0, "sample_rate must be in (0,1]");
        assert!((0.0..=1.0).contains(&cfg.noise), "noise must be in [0,1]");
        CmeEstimator { cfg }
    }

    /// Estimates hit probabilities for every `(set, ref)` of `nest`.
    ///
    /// Irregular references require `data` to contain the index arrays;
    /// at compile time the paper cannot run this for irregular codes (the
    /// inspector does it at runtime instead), but the estimator itself is
    /// agnostic — it just replays whatever addresses resolve.
    pub fn estimate(
        &self,
        program: &Program,
        nest: &LoopNest,
        space: &IterationSpace,
        sets: &[IterationSet],
        data: &DataEnv,
    ) -> CmeEstimate {
        self.estimate_ctl(program, nest, space, sets, data, &RunControl::unlimited())
            .expect("an unlimited RunControl never aborts")
    }

    /// [`estimate`](CmeEstimator::estimate) under cooperative control:
    /// the symbolic execution checkpoints `ctl` every
    /// [`CHECKPOINT_INTERVAL`] iterations (one budget unit per iteration
    /// scanned), so a cancellation or exhausted budget surfaces as a
    /// typed error within that many iterations. `completed`/`total` in
    /// the error count iteration *sets*. An uncancelled run returns the
    /// bit-identical estimate of [`estimate`](CmeEstimator::estimate).
    pub fn estimate_ctl(
        &self,
        program: &Program,
        nest: &LoopNest,
        space: &IterationSpace,
        sets: &[IterationSet],
        data: &DataEnv,
        ctl: &RunControl,
    ) -> Result<CmeEstimate, LocmapError> {
        const CHUNK: usize = CHECKPOINT_INTERVAL as usize;
        let rate = self.cfg.sample_rate;
        let mut rng = SmallRng::seed_from_u64(self.cfg.seed);
        let mut replay = Replay::new(&self.cfg, space, program.compile_refs(nest, data));
        let nrefs = nest.refs.len();
        let mut hit = vec![vec![0.0f64; nrefs]; sets.len()];
        let mut l1_hit = vec![vec![0.0f64; nrefs]; sets.len()];
        let mut kept = [0usize; CHUNK];

        for (si, set) in sets.iter().enumerate() {
            for start in set.indices().step_by(CHUNK) {
                let end = set.end.min(start + CHUNK);
                if end - start == CHUNK {
                    ctl.checkpoint(CHECKPOINT_INTERVAL, si, sets.len())?;
                }
                if rate < 1.0 {
                    // Every index is written; only a kept one advances
                    // the cursor past it, so the draw is not a branch.
                    let mut n = 0;
                    for k in start..end {
                        kept[n] = k;
                        n += (rng.gen::<f64>() < rate) as usize;
                    }
                    kept[..n].iter().for_each(|&k| replay.iteration(k));
                } else {
                    (start..end).for_each(|k| replay.iteration(k));
                }
            }
            ctl.checkpoint(set.len() as u64 % CHECKPOINT_INTERVAL, si + 1, sets.len())?;
            replay.flush(&mut hit[set.id], &mut l1_hit[set.id]);
        }

        // The noise knob draws after every sample, set by set.
        if self.cfg.noise > 0.0 {
            for h in hit.iter_mut().flatten() {
                let eps = rng.gen_range(-self.cfg.noise..=self.cfg.noise);
                *h = (*h + eps).clamp(0.0, 1.0);
            }
        }

        Ok(CmeEstimate { hit, l1_hit })
    }
}

/// A true-LRU tag array: the compiler-side model of one cache level.
///
/// The estimate reads only whether an access hits, so the model keeps
/// line tags and nothing else: no coherence state, statistics or
/// eviction records, which the simulator's `locmap_mem::Cache` keeps.
/// Set `s` is the `ways` keys from `s * ways`, most recently used first.
/// A key is a line index plus one, so the zeroed array starts empty (a
/// line index is below `u64::MAX` for lines of two bytes or more).
#[derive(Debug)]
struct LruTags {
    ways: usize,
    /// `sets - 1`: line `l` lives in set `l & set_mask`.
    set_mask: u64,
    /// `log2(line_bytes)`: byte address `a` lies in line `a >> line_shift`.
    line_shift: u32,
    keys: Vec<u64>,
}

impl LruTags {
    /// An empty model of geometry `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on the geometries `locmap_mem::Cache::new` rejects.
    fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.ways > 0, "cache must have at least one way");
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        let sets = cfg.sets();
        assert!(sets > 0, "cache smaller than one set");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        LruTags {
            ways: cfg.ways as usize,
            set_mask: sets - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            keys: vec![0; sets as usize * cfg.ways as usize],
        }
    }

    /// Touches the line of byte address `addr`, filling it on a miss;
    /// true if it was resident.
    #[inline]
    fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let key = line + 1;
        let base = (line & self.set_mask) as usize * self.ways;
        let set = &mut self.keys[base..base + self.ways];
        if set[0] == key {
            return true;
        }
        // Move each way one place back, the key to the front, until the
        // line's own way is overwritten (a hit) or the LRU way falls off
        // the end (a miss).
        let mut moved = std::mem::replace(&mut set[0], key);
        for way in &mut set[1..] {
            let held = std::mem::replace(way, moved);
            if held == key {
                return true;
            }
            moved = held;
        }
        false
    }
}

/// One reference's tallies within the current iteration set.
#[derive(Debug, Clone, Copy, Default)]
struct RefCounts {
    l1_hits: u32,
    llc_probes: u32,
    llc_hits: u32,
}

/// The symbolic execution: replays iterations through the L1 and LLC
/// models and tallies the current set's outcomes per reference.
#[derive(Debug)]
struct Replay<'a> {
    space: &'a IterationSpace,
    refs: Vec<CompiledRef<'a>>,
    l1: LruTags,
    llc: LruTags,
    /// Iterations replayed in the current set; every reference of a
    /// replayed iteration is counted, so one counter serves them all.
    sampled: u32,
    counts: Vec<RefCounts>,
}

impl<'a> Replay<'a> {
    fn new(cfg: &CmeConfig, space: &'a IterationSpace, refs: Vec<CompiledRef<'a>>) -> Self {
        let counts = vec![RefCounts::default(); refs.len()];
        Replay {
            space,
            refs,
            l1: LruTags::new(cfg.l1),
            llc: LruTags::new(cfg.llc),
            sampled: 0,
            counts,
        }
    }

    /// Replays iteration `k`: an access that misses L1 probes the LLC.
    #[inline]
    fn iteration(&mut self, k: usize) {
        let iv = self.space.get(k);
        self.sampled += 1;
        for (r, c) in self.refs.iter().zip(&mut self.counts) {
            let addr = r.addr(iv);
            if self.l1.access(addr) {
                c.l1_hits += 1;
            } else {
                c.llc_probes += 1;
                c.llc_hits += u32::from(self.llc.access(addr));
            }
        }
    }

    /// Writes the current set's hit probabilities per reference (0 where
    /// nothing was observed) and starts the next set.
    fn flush(&mut self, hit: &mut [f64], l1_hit: &mut [f64]) {
        let ratio = |n: u32, d: u32| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        for ((c, h), l1) in self.counts.iter_mut().zip(hit).zip(l1_hit) {
            *h = ratio(c.llc_hits, c.llc_probes);
            *l1 = ratio(c.l1_hits, self.sampled);
            *c = RefCounts::default();
        }
        self.sampled = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmap_loopir::{Access, AffineExpr};

    fn streaming_program(elems: u64) -> (Program, IterationSpace, Vec<IterationSet>) {
        let mut p = Program::new("stream");
        let a = p.add_array("A", 8, elems);
        let mut nest = LoopNest::rectangular("n", &[elems as i64]);
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        let space = IterationSpace::enumerate(p.nest(id), &p.params());
        let sets = space.split_by_fraction(0.01);
        (p, space, sets)
    }

    #[test]
    fn streaming_read_mostly_hits_l1_spatially() {
        let (p, space, sets) = streaming_program(8192);
        let est = CmeEstimator::new(CmeConfig { noise: 0.0, ..CmeConfig::default() })
            .estimate(&p, &p.nests()[0], &space, &sets, &DataEnv::new());
        // 8-byte elements, 32-byte L1 lines: 3 of 4 accesses hit L1.
        let mean_l1: f64 = (0..sets.len()).map(|s| est.l1_hit_probability(s, 0)).sum::<f64>()
            / sets.len() as f64;
        assert!((mean_l1 - 0.75).abs() < 0.05, "mean L1 hit {mean_l1}");
    }

    #[test]
    fn cold_streaming_half_hits_llc_from_line_size_difference() {
        // Array (8 MB) far larger than LLC: each 64 B LLC line is fetched
        // once from memory but probed twice (two 32 B L1 lines), so the
        // LLC hit probability settles at ~0.5 — not lower, not higher.
        let (p, space, sets) = streaming_program(1 << 20);
        let est = CmeEstimator::new(CmeConfig { noise: 0.0, ..CmeConfig::default() })
            .estimate(&p, &p.nests()[0], &space, &sets, &DataEnv::new());
        let m = est.mean_hit_probability();
        assert!((m - 0.5).abs() < 0.05, "mean LLC hit {m}");
    }

    #[test]
    fn resident_second_pass_hits_llc() {
        // Two passes over a small array (fits in LLC, exceeds L1): the
        // second pass hits LLC.
        let mut p = Program::new("two-pass");
        let elems = 8192u64; // 64 KB: > 16 KB L1, < 512 KB LLC
        let a = p.add_array("A", 8, elems);
        let mut nest = LoopNest::rectangular("n", &[2, elems as i64]);
        nest.add_ref(a, AffineExpr::var(1, 1), Access::Read);
        let id = p.add_nest(nest);
        let space = IterationSpace::enumerate(p.nest(id), &p.params());
        let sets = space.split(elems as usize); // set 0 = pass 1, set 1 = pass 2
        let est = CmeEstimator::new(CmeConfig { noise: 0.0, ..CmeConfig::default() })
            .estimate(&p, p.nest(id), &space, &sets, &DataEnv::new());
        // First pass: only the line-size-difference hits (~0.5); second
        // pass: the whole array is resident (~1.0).
        let first = est.hit_probability(0, 0);
        let second = est.hit_probability(1, 0);
        assert!(first < 0.6, "first pass hit {first}");
        assert!(second > 0.9, "second pass hit {second}");
    }

    #[test]
    fn alpha_reflects_hit_fraction() {
        let mut p = Program::new("mix");
        let elems = 8192u64;
        let a = p.add_array("A", 8, elems);
        let mut nest = LoopNest::rectangular("n", &[2, elems as i64]);
        nest.add_ref(a, AffineExpr::var(1, 1), Access::Read);
        let id = p.add_nest(nest);
        let space = IterationSpace::enumerate(p.nest(id), &p.params());
        let sets = space.split(elems as usize);
        let est = CmeEstimator::new(CmeConfig { noise: 0.0, ..CmeConfig::default() })
            .estimate(&p, p.nest(id), &space, &sets, &DataEnv::new());
        assert!(est.alpha(0) < 0.65);
        assert!(est.alpha(1) > 0.9);
        assert!(est.alpha(1) > est.alpha(0) + 0.3);
    }

    #[test]
    fn estimates_are_deterministic() {
        let (p, space, sets) = streaming_program(4096);
        let cfg = CmeConfig { noise: 0.1, sample_rate: 0.5, ..CmeConfig::default() };
        let e1 = CmeEstimator::new(cfg).estimate(&p, &p.nests()[0], &space, &sets, &DataEnv::new());
        let e2 = CmeEstimator::new(cfg).estimate(&p, &p.nests()[0], &space, &sets, &DataEnv::new());
        for s in 0..sets.len() {
            assert_eq!(e1.hit_probability(s, 0), e2.hit_probability(s, 0));
        }
    }

    #[test]
    fn noise_perturbs_but_stays_in_range() {
        let (p, space, sets) = streaming_program(4096);
        let noisy = CmeEstimator::new(CmeConfig { noise: 0.3, ..CmeConfig::default() })
            .estimate(&p, &p.nests()[0], &space, &sets, &DataEnv::new());
        for s in 0..sets.len() {
            let h = noisy.hit_probability(s, 0);
            assert!((0.0..=1.0).contains(&h));
        }
    }

    #[test]
    fn perfect_config_has_no_noise() {
        let c = CmeConfig::perfect();
        assert_eq!(c.noise, 0.0);
        assert_eq!(c.sample_rate, 1.0);
    }

    #[test]
    fn sampling_still_covers_all_sets() {
        let (p, space, sets) = streaming_program(8192);
        let est = CmeEstimator::new(CmeConfig { sample_rate: 0.3, noise: 0.0, ..CmeConfig::default() })
            .estimate(&p, &p.nests()[0], &space, &sets, &DataEnv::new());
        // Every set replays some of its ~80 iterations.
        assert!((0..sets.len()).all(|s| est.l1_hit_probability(s, 0) > 0.0));
    }

    #[test]
    #[should_panic]
    fn zero_sample_rate_rejected() {
        CmeEstimator::new(CmeConfig { sample_rate: 0.0, ..CmeConfig::default() });
    }

    #[test]
    fn ctl_path_matches_plain_estimate_bit_for_bit() {
        use locmap_noc::RunControl;
        let (p, space, sets) = streaming_program(8192);
        let cfg = CmeConfig { noise: 0.1, sample_rate: 0.5, ..CmeConfig::default() };
        let plain =
            CmeEstimator::new(cfg).estimate(&p, &p.nests()[0], &space, &sets, &DataEnv::new());
        let ctl = CmeEstimator::new(cfg)
            .estimate_ctl(&p, &p.nests()[0], &space, &sets, &DataEnv::new(), &RunControl::unlimited())
            .unwrap();
        for s in 0..sets.len() {
            assert_eq!(plain.hit_probability(s, 0), ctl.hit_probability(s, 0));
            assert_eq!(plain.l1_hit_probability(s, 0), ctl.l1_hit_probability(s, 0));
        }
    }

    #[test]
    fn cancelled_estimate_returns_typed_error_with_progress() {
        use locmap_noc::{Budget, CancelToken, LocmapError, RunControl};
        let (p, space, sets) = streaming_program(8192);
        let ctl = RunControl::new(CancelToken::cancel_after_polls(0), Budget::unlimited());
        let err = CmeEstimator::new(CmeConfig::default())
            .estimate_ctl(&p, &p.nests()[0], &space, &sets, &DataEnv::new(), &ctl)
            .unwrap_err();
        assert!(matches!(err, LocmapError::Cancelled { total, .. } if total == sets.len()));
    }

    #[test]
    fn budget_bounds_estimator_work() {
        use locmap_noc::{Budget, CancelToken, LocmapError, RunControl};
        let (p, space, sets) = streaming_program(8192);
        let cap = 2 * CHECKPOINT_INTERVAL;
        let ctl = RunControl::new(CancelToken::new(), Budget::unlimited().with_work_units(cap));
        let err = CmeEstimator::new(CmeConfig::default())
            .estimate_ctl(&p, &p.nests()[0], &space, &sets, &DataEnv::new(), &ctl)
            .unwrap_err();
        match err {
            LocmapError::DeadlineExceeded { spent_units, .. } => {
                // Abort latency is bounded: at most one checkpoint interval
                // past the configured budget.
                assert!(spent_units <= cap + CHECKPOINT_INTERVAL, "spent {spent_units}");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use locmap_loopir::{Access, AffineExpr};

    #[test]
    fn write_streams_behave_like_reads_for_hit_estimation() {
        let mut p = Program::new("w");
        let a = p.add_array("A", 8, 4096);
        let mut nest = LoopNest::rectangular("n", &[4096]);
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
        let id = p.add_nest(nest);
        let space = IterationSpace::enumerate(p.nest(id), &p.params());
        let sets = space.split_by_fraction(0.01);
        let est = CmeEstimator::new(CmeConfig { noise: 0.0, ..CmeConfig::default() })
            .estimate(&p, p.nest(id), &space, &sets, &DataEnv::new());
        // Write-allocate: same spatial pattern as reads.
        let l1: f64 = (0..sets.len()).map(|s| est.l1_hit_probability(s, 0)).sum::<f64>()
            / sets.len() as f64;
        assert!((l1 - 0.75).abs() < 0.1, "write L1 hit {l1}");
    }

    #[test]
    fn bigger_modeled_llc_raises_hit_estimates() {
        let mut p = Program::new("two-pass");
        let elems = 16_384u64; // 128 KB
        let a = p.add_array("A", 8, elems);
        let mut nest = LoopNest::rectangular("n", &[2, elems as i64]);
        nest.add_ref(a, AffineExpr::var(1, 1), Access::Read);
        let id = p.add_nest(nest);
        let space = IterationSpace::enumerate(p.nest(id), &p.params());
        let sets = space.split(elems as usize);
        let small = CmeEstimator::new(
            CmeConfig { noise: 0.0, ..CmeConfig::default() }.with_llc_bytes(32 * 1024),
        )
        .estimate(&p, p.nest(id), &space, &sets, &DataEnv::new());
        let big = CmeEstimator::new(
            CmeConfig { noise: 0.0, ..CmeConfig::default() }.with_llc_bytes(1 << 20),
        )
        .estimate(&p, p.nest(id), &space, &sets, &DataEnv::new());
        // Second pass hits only if the array fits the modeled LLC.
        assert!(big.hit_probability(1, 0) > small.hit_probability(1, 0) + 0.3);
    }

    #[test]
    fn irregular_estimation_with_data_env() {
        let mut p = Program::new("irr");
        let a = p.add_array("A", 8, 2048);
        let idx = p.add_array("idx", 8, 4096);
        let mut nest = LoopNest::rectangular("n", &[4096]);
        nest.add_indirect_ref(a, idx, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        let mut data = DataEnv::new();
        // All gathers hit the same element: perfect temporal locality.
        data.set_index_array(idx, vec![7; 4096]);
        let space = IterationSpace::enumerate(p.nest(id), &p.params());
        let sets = space.split_by_fraction(0.01);
        let est = CmeEstimator::new(CmeConfig { noise: 0.0, ..CmeConfig::default() })
            .estimate(&p, p.nest(id), &space, &sets, &data);
        let mean_l1: f64 = (0..sets.len()).map(|s| est.l1_hit_probability(s, 0)).sum::<f64>()
            / sets.len() as f64;
        assert!(mean_l1 > 0.99, "hot single element must live in L1 ({mean_l1})");
    }
}

#[cfg(test)]
mod kernel_tests {
    use super::*;
    use locmap_loopir::{Access, AffineExpr};
    use locmap_mem::{Access as MemAccess, Cache};
    use locmap_noc::{Budget, CancelToken};
    use proptest::prelude::*;

    /// The estimator as it was before the tag-only kernel: both levels on
    /// the simulator's `Cache`, one sampling branch per iteration and a
    /// `[set][ref]` table per count. The kernel must match it bit for bit.
    fn reference_estimate_ctl(
        cfg: &CmeConfig,
        program: &Program,
        nest: &LoopNest,
        space: &IterationSpace,
        sets: &[IterationSet],
        data: &DataEnv,
        ctl: &RunControl,
    ) -> Result<CmeEstimate, LocmapError> {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut l1 = Cache::new(cfg.l1);
        let mut llc = Cache::new(cfg.llc);
        let nrefs = nest.refs.len();
        let refs: Vec<(CompiledRef<'_>, MemAccess)> = nest
            .refs
            .iter()
            .zip(program.compile_refs(nest, data))
            .map(|(r, c)| {
                let acc = match r.access {
                    Access::Read => MemAccess::Read,
                    Access::Write => MemAccess::Write,
                };
                (c, acc)
            })
            .collect();

        let mut hit = vec![vec![0.0f64; nrefs]; sets.len()];
        let mut l1hit = vec![vec![0.0f64; nrefs]; sets.len()];
        let mut llc_seen = vec![vec![0u32; nrefs]; sets.len()];
        let mut sampled = vec![vec![0u32; nrefs]; sets.len()];

        for (si, set) in sets.iter().enumerate() {
            let mut pending = 0u64;
            for k in set.indices() {
                pending += 1;
                if pending == CHECKPOINT_INTERVAL {
                    ctl.checkpoint(pending, si, sets.len())?;
                    pending = 0;
                }
                if cfg.sample_rate < 1.0 && rng.gen::<f64>() >= cfg.sample_rate {
                    continue;
                }
                let iv = space.get(k);
                for (ri, &(r, acc)) in refs.iter().enumerate() {
                    let addr = r.addr(iv);
                    sampled[set.id][ri] += 1;
                    let l1_line = l1.line_of(addr);
                    if l1.access(l1_line, acc).is_hit() {
                        l1hit[set.id][ri] += 1.0;
                        continue;
                    }
                    let llc_line = llc.line_of(addr);
                    llc_seen[set.id][ri] += 1;
                    if llc.access(llc_line, acc).is_hit() {
                        hit[set.id][ri] += 1.0;
                    }
                }
            }
            ctl.checkpoint(pending, si + 1, sets.len())?;
        }

        for (si, set_hits) in hit.iter_mut().enumerate() {
            for ri in 0..nrefs {
                let n_llc = llc_seen[si][ri];
                set_hits[ri] = if n_llc == 0 { 0.0 } else { set_hits[ri] / n_llc as f64 };
                let n_all = sampled[si][ri];
                l1hit[si][ri] = if n_all == 0 { 0.0 } else { l1hit[si][ri] / n_all as f64 };
                if cfg.noise > 0.0 {
                    let eps = rng.gen_range(-cfg.noise..=cfg.noise);
                    set_hits[ri] = (set_hits[ri] + eps).clamp(0.0, 1.0);
                }
            }
        }

        Ok(CmeEstimate { hit, l1_hit: l1hit })
    }

    /// A nest of `n` iterations that reads and writes two arrays, and
    /// with `indirect` gathers a third through a seeded index array.
    fn nest(n: u64, indirect: bool, seed: u64) -> (Program, DataEnv) {
        let mut p = Program::new("kernel");
        let a = p.add_array("A", 8, 2 * n);
        let b = p.add_array("B", 4, n);
        let mut nest = LoopNest::rectangular("n", &[2, n as i64]);
        nest.add_ref(a, AffineExpr::var(1, 2), Access::Read);
        nest.add_ref(b, AffineExpr::var(1, 1), Access::Write);
        let mut data = DataEnv::new();
        if indirect {
            let x = p.add_array("X", 8, 4096);
            let idx = p.add_array("idx", 8, n);
            let mut rng = SmallRng::seed_from_u64(seed);
            data.set_index_array(idx, (0..n).map(|_| rng.gen_range(0..4096i32)).collect());
            nest.add_indirect_ref(x, idx, AffineExpr::var(1, 1), Access::Read);
        }
        p.add_nest(nest);
        (p, data)
    }

    /// Bit patterns of every hit and L1-hit probability.
    fn bits(est: &CmeEstimate) -> Vec<u64> {
        est.hit.iter().chain(&est.l1_hit).flatten().map(|p| p.to_bits()).collect()
    }

    proptest! {
        #[test]
        fn kernel_matches_reference_bit_for_bit(
            shape in (1u64..3_000, 0u8..2, 0usize..7),
            knobs in (0usize..3, 0u8..2, 0u8..2),
            seed in 0u64..1 << 32,
        ) {
            let ((n, indirect, set_size), (rate, noise, llc)) = (shape, knobs);
            let (p, data) = nest(n, indirect == 1, seed);
            let nest = &p.nests()[0];
            let space = IterationSpace::enumerate(nest, &p.params());
            // Sets below, at and above multiples of the checkpoint interval.
            let set_size = [100, 1023, 1024, 1025, 2048, 2049, 6000][set_size];
            let sets = space.split(set_size);
            let base = CmeConfig {
                sample_rate: [1.0, 0.5, 0.3][rate],
                noise: if noise == 1 { 0.06 } else { 0.0 },
                seed,
                ..CmeConfig::default()
            };
            // A 16 KB LLC is crowded by the larger nests; 512 KB is not.
            let cfg = if llc == 1 { base.with_llc_bytes(16 * 1024) } else { base };
            let est = CmeEstimator::new(cfg);
            let run = |ctl: &RunControl| est.estimate_ctl(&p, nest, &space, &sets, &data, ctl);
            let reference =
                |ctl: &RunControl| reference_estimate_ctl(&cfg, &p, nest, &space, &sets, &data, ctl);

            let (ctl, ref_ctl) = (RunControl::unlimited(), RunControl::unlimited());
            let (got, want) = (run(&ctl).unwrap(), reference(&ref_ctl).unwrap());
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(ctl.spent_units(), ref_ctl.spent_units());

            // Cancelled or out of budget at several points, or not at all:
            // the same error, or the same estimate, after the same spend.
            let cancel = |polls| RunControl::new(CancelToken::cancel_after_polls(polls), Budget::unlimited());
            let budget = |units| RunControl::new(CancelToken::new(), Budget::unlimited().with_work_units(units));
            let controls = [0, 1, 2, 3, 7]
                .map(|polls| (cancel(polls), cancel(polls)))
                .into_iter()
                .chain([0, 1_000, 5_000].map(|units| (budget(units), budget(units))));
            for (c, rc) in controls {
                prop_assert_eq!(run(&c).map(|e| bits(&e)), reference(&rc).map(|e| bits(&e)));
                prop_assert_eq!(c.spent_units(), rc.spent_units());
            }
        }

        #[test]
        fn lru_tags_match_the_simulator_cache(
            geometry in 0u8..5,
            ops in collection::vec((0u64..1 << 16, 0u64..3, 0u8..2), 1..3_000),
        ) {
            let cfg = match geometry {
                0 => CacheConfig { size_bytes: 8 * 1024, ways: 8, line_bytes: 32 },
                1 => CmeConfig::default().with_llc_bytes(2 << 20).llc,
                2 => CacheConfig::paper_l1(),
                3 => CacheConfig::paper_l2_bank(),
                _ => CacheConfig { size_bytes: 512, ways: 2, line_bytes: 64 },
            };
            let (sets, ways) = (cfg.sets(), cfg.ways as u64);
            let (mut tags, mut cache) = (LruTags::new(cfg), Cache::new(cfg));
            for (x, hot, write) in ops {
                // A third of the stream re-touches eight hot lines, a third
                // crowds four sets with four times their ways, and a third
                // spans twice the capacity.
                let line = match hot {
                    0 => x % 8,
                    1 => (x / 4 % (4 * ways)) * sets + x % 4,
                    _ => x % (2 * sets * ways),
                };
                let addr = line * cfg.line_bytes + x % cfg.line_bytes;
                let acc = if write == 1 { MemAccess::Write } else { MemAccess::Read };
                prop_assert_eq!(tags.access(addr), cache.access(cache.line_of(addr), acc).is_hit());
            }
        }
    }
}
