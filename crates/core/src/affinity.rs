//! MAI and CAI: affinity of iteration sets to memory controllers and to
//! LLC-bank regions.
//!
//! For each iteration set, every (sampled) access is resolved to a physical
//! address; the address determines the owning MC and, for shared LLCs, the
//! home bank. The hit model splits the access's unit weight into
//! L1-resident (invisible), LLC-hit (→ CAI) and LLC-miss (→ MAI) portions.
//! Weights are normalized by the set's total access count, matching the
//! paper's Table 1 worked example where 2 hits + 2 misses out of 4 accesses
//! give MAI mass 0.5 and CAI mass 0.5.

use crate::hits::HitModel;
use crate::platform::Platform;
use crate::vectors::AffinityVec;
use locmap_loopir::{CompiledRef, DataEnv, IterationSet, IterationSpace, LoopNest, Program};
use locmap_mem::PhysAddr;
use locmap_noc::{LocmapError, RunControl};

/// Everything needed to resolve an iteration set's accesses.
#[derive(Debug, Clone, Copy)]
pub struct AffinityInputs<'a> {
    /// The program owning arrays and parameters.
    pub program: &'a Program,
    /// The nest being mapped.
    pub nest: &'a LoopNest,
    /// Its enumerated iteration space.
    pub space: &'a IterationSpace,
    /// The iteration sets to characterize.
    pub sets: &'a [IterationSet],
    /// Index-array contents for irregular references.
    pub data: &'a DataEnv,
    /// Analyze every `sample_stride`-th iteration of a set (1 = all).
    /// Consecutive iterations share affinities (the premise of iteration
    /// sets), so striding trades negligible accuracy for compile time.
    pub sample_stride: usize,
}

impl<'a> AffinityInputs<'a> {
    /// Inputs analyzing every iteration.
    pub fn full(
        program: &'a Program,
        nest: &'a LoopNest,
        space: &'a IterationSpace,
        sets: &'a [IterationSet],
        data: &'a DataEnv,
    ) -> Self {
        AffinityInputs { program, nest, space, sets, data, sample_stride: 1 }
    }

    fn compile_refs(&self) -> Vec<CompiledRef<'a>> {
        self.program.compile_refs(self.nest, self.data)
    }

    fn sampled_indices(&self, set: &IterationSet) -> impl Iterator<Item = usize> + '_ {
        set.indices().step_by(self.sample_stride.max(1))
    }
}

/// Computes MAI for every iteration set: entry `k` is the fraction of the
/// set's accesses expected to be served by memory controller `k`.
pub fn compute_mai(
    inputs: &AffinityInputs<'_>,
    platform: &Platform,
    model: &dyn HitModel,
) -> Vec<AffinityVec> {
    compute_mai_ctl(inputs, platform, model, &RunControl::unlimited())
        .expect("an unlimited RunControl never aborts")
}

/// [`compute_mai`] under cooperative control: checkpoints after every
/// iteration set (one budget unit per sampled iteration scanned), so a
/// cancellation surfaces within one set's worth of work. An uncancelled
/// run returns the bit-identical table of [`compute_mai`].
pub fn compute_mai_ctl(
    inputs: &AffinityInputs<'_>,
    platform: &Platform,
    model: &dyn HitModel,
    ctl: &RunControl,
) -> Result<Vec<AffinityVec>, LocmapError> {
    let m = platform.mc_count();
    let refs = inputs.compile_refs();
    let mut out = Vec::with_capacity(inputs.sets.len());
    for (si, set) in inputs.sets.iter().enumerate() {
        let mut w = vec![0.0f64; m];
        let mut total = 0.0f64;
        let mut scanned = 0u64;
        for k in inputs.sampled_indices(set) {
            scanned += 1;
            let iv = inputs.space.get(k);
            for (ri, r) in refs.iter().enumerate() {
                let addr = PhysAddr(r.addr(iv));
                total += 1.0;
                let reach_llc = 1.0 - model.l1_hit(set.id, ri);
                let p_miss = reach_llc * (1.0 - model.llc_hit(set.id, ri));
                if p_miss > 0.0 {
                    w[platform.addr_map.mc_of(addr).index()] += p_miss;
                }
            }
        }
        if total > 0.0 {
            w.iter_mut().for_each(|x| *x /= total);
        }
        out.push(AffinityVec(w));
        ctl.checkpoint(scanned, si + 1, inputs.sets.len())?;
    }
    Ok(out)
}

/// Computes CAI for every iteration set: entry `j` is the fraction of the
/// set's accesses expected to be served by LLC banks in region `j`.
///
/// Only meaningful for shared (S-NUCA) LLCs; for private LLCs every hit is
/// local and CAI carries no information.
pub fn compute_cai(
    inputs: &AffinityInputs<'_>,
    platform: &Platform,
    model: &dyn HitModel,
) -> Vec<AffinityVec> {
    compute_cai_ctl(inputs, platform, model, &RunControl::unlimited())
        .expect("an unlimited RunControl never aborts")
}

/// [`compute_cai`] under cooperative control (see [`compute_mai_ctl`] for
/// the checkpointing contract).
pub fn compute_cai_ctl(
    inputs: &AffinityInputs<'_>,
    platform: &Platform,
    model: &dyn HitModel,
    ctl: &RunControl,
) -> Result<Vec<AffinityVec>, LocmapError> {
    let nregions = platform.region_count();
    let bank_regions = platform.bank_regions();
    let refs = inputs.compile_refs();
    let mut out = Vec::with_capacity(inputs.sets.len());
    for (si, set) in inputs.sets.iter().enumerate() {
        let mut w = vec![0.0f64; nregions];
        let mut total = 0.0f64;
        let mut scanned = 0u64;
        for k in inputs.sampled_indices(set) {
            scanned += 1;
            let iv = inputs.space.get(k);
            for (ri, r) in refs.iter().enumerate() {
                let addr = PhysAddr(r.addr(iv));
                total += 1.0;
                let reach_llc = 1.0 - model.l1_hit(set.id, ri);
                let p_hit = reach_llc * model.llc_hit(set.id, ri);
                if p_hit > 0.0 {
                    let bank = platform.addr_map.llc_bank_of(addr);
                    w[bank_regions[bank as usize].index()] += p_hit;
                }
            }
        }
        if total > 0.0 {
            w.iter_mut().for_each(|x| *x /= total);
        }
        out.push(AffinityVec(w));
        ctl.checkpoint(scanned, si + 1, inputs.sets.len())?;
    }
    Ok(out)
}

/// Computes the *reaching* CAI for every iteration set: entry `j` is the
/// fraction of the set's accesses that reach the LLC level (hits **and**
/// misses) whose home bank lies in region `j`.
///
/// Rationale (§3.8 of the paper): in S-NUCA an LLC miss is forwarded to
/// the memory controller *by the home bank*, and the fill returns through
/// it — so the only mapping-controllable distance for a miss is the same
/// core→bank leg a hit uses. The paper expresses this by redefining MAI
/// to use "the locations of the LLC caches instead of cores"; this
/// function is the direct form of that idea: all LLC-level traffic is
/// attributed to the home bank's region.
pub fn compute_cai_reaching(
    inputs: &AffinityInputs<'_>,
    platform: &Platform,
    model: &dyn HitModel,
) -> Vec<AffinityVec> {
    compute_cai_reaching_ctl(inputs, platform, model, &RunControl::unlimited())
        .expect("an unlimited RunControl never aborts")
}

/// [`compute_cai_reaching`] under cooperative control (see
/// [`compute_mai_ctl`] for the checkpointing contract).
pub fn compute_cai_reaching_ctl(
    inputs: &AffinityInputs<'_>,
    platform: &Platform,
    model: &dyn HitModel,
    ctl: &RunControl,
) -> Result<Vec<AffinityVec>, LocmapError> {
    let nregions = platform.region_count();
    let bank_regions = platform.bank_regions();
    let refs = inputs.compile_refs();
    let mut out = Vec::with_capacity(inputs.sets.len());
    for (si, set) in inputs.sets.iter().enumerate() {
        let mut w = vec![0.0f64; nregions];
        let mut total = 0.0f64;
        let mut scanned = 0u64;
        for k in inputs.sampled_indices(set) {
            scanned += 1;
            let iv = inputs.space.get(k);
            for (ri, r) in refs.iter().enumerate() {
                let addr = PhysAddr(r.addr(iv));
                total += 1.0;
                let reach_llc = 1.0 - model.l1_hit(set.id, ri);
                if reach_llc > 0.0 {
                    let bank = platform.addr_map.llc_bank_of(addr);
                    w[bank_regions[bank as usize].index()] += reach_llc;
                }
            }
        }
        if total > 0.0 {
            w.iter_mut().for_each(|x| *x /= total);
        }
        out.push(AffinityVec(w));
        ctl.checkpoint(scanned, si + 1, inputs.sets.len())?;
    }
    Ok(out)
}

/// Mean η between two per-set affinity vector tables — the paper's
/// "MAI error" / "CAI error" metric (Figures 7a, 8a).
///
/// # Panics
///
/// Panics if the tables have different lengths.
pub fn mean_eta(a: &[AffinityVec], b: &[AffinityVec]) -> f64 {
    assert_eq!(a.len(), b.len(), "tables must cover the same sets");
    if a.is_empty() {
        return 0.0;
    }
    let s: f64 = a.iter().zip(b).map(|(x, y)| x.eta(y)).sum();
    s / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hits::{AllMissModel, MeasuredRates};
    use locmap_loopir::{Access, AffineExpr, LoopNest, Program};

    /// Builds the Figure 5 / Table 1 example: one loop, four unit-stride
    /// arrays. With page-granularity MC interleaving, each array's pages
    /// rotate over MCs, so a small iteration range that stays within one
    /// page per array gives deterministic MC targets.
    fn fig5() -> (Program, IterationSpace, Vec<IterationSet>) {
        let mut p = Program::new("fig5");
        let n = 256u64; // 2048 bytes = exactly one page per array
        let a = p.add_array("A", 8, n);
        let b = p.add_array("B", 8, n);
        let c = p.add_array("C", 8, n);
        let d = p.add_array("D", 8, n);
        let mut nest = LoopNest::rectangular("main", &[n as i64]);
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
        nest.add_ref(b, AffineExpr::var(0, 1), Access::Read);
        nest.add_ref(c, AffineExpr::var(0, 1), Access::Read);
        nest.add_ref(d, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        let space = IterationSpace::enumerate(p.nest(id), &p.params());
        let sets = space.split(space.len()); // single set
        (p, space, sets)
    }

    #[test]
    fn unrefined_mai_counts_all_accesses() {
        let (p, space, sets) = fig5();
        let platform = Platform::paper_default();
        let data = DataEnv::new();
        let inputs = AffinityInputs::full(&p, &p.nests()[0], &space, &sets, &data);
        let mai = compute_mai(&inputs, &platform, &AllMissModel);
        assert_eq!(mai.len(), 1);
        // Arrays at pages 1..=4: A→MC2, B→MC3, C→MC4, D→MC1 (page k → MC
        // k%4). Each contributes 0.25 of the mass.
        let v = &mai[0].0;
        assert_eq!(v.len(), 4);
        for &x in v {
            assert!((x - 0.25).abs() < 1e-9, "{v:?}");
        }
        assert!((mai[0].mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn refined_mai_drops_hitting_refs() {
        // Paper §4: B and C hit, A and D miss ⇒ MAI keeps only A and D
        // with weight 1/4 each.
        let (p, space, sets) = fig5();
        let platform = Platform::paper_default();
        let data = DataEnv::new();
        let inputs = AffinityInputs::full(&p, &p.nests()[0], &space, &sets, &data);
        let mut rates = MeasuredRates::zeroed(1, 4);
        rates.llc[0][1] = 1.0; // B hits
        rates.llc[0][2] = 1.0; // C hits
        let mai = compute_mai(&inputs, &platform, &rates);
        let v = &mai[0].0;
        // A (page 1 → MC2) and D (page 4 → MC1) miss.
        assert!((v[1] - 0.25).abs() < 1e-9, "{v:?}"); // MC2 ← A
        assert!((v[0] - 0.25).abs() < 1e-9, "{v:?}"); // MC1 ← D
        assert!((v[2]).abs() < 1e-9 && (v[3]).abs() < 1e-9, "{v:?}");
        assert!((mai[0].mass() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cai_attributes_hits_to_bank_regions() {
        let (p, space, sets) = fig5();
        let platform = Platform::paper_default();
        let data = DataEnv::new();
        let inputs = AffinityInputs::full(&p, &p.nests()[0], &space, &sets, &data);
        let mut rates = MeasuredRates::zeroed(1, 4);
        rates.llc[0][1] = 1.0;
        rates.llc[0][2] = 1.0;
        let cai = compute_cai(&inputs, &platform, &rates);
        // Hits carry total mass 0.5 spread over bank regions.
        assert!((cai[0].mass() - 0.5).abs() < 1e-9);
        assert_eq!(cai[0].len(), 9);
    }

    #[test]
    fn l1_resident_accesses_are_invisible() {
        let (p, space, sets) = fig5();
        let platform = Platform::paper_default();
        let data = DataEnv::new();
        let inputs = AffinityInputs::full(&p, &p.nests()[0], &space, &sets, &data);
        let mut rates = MeasuredRates::zeroed(1, 4);
        for r in 0..4 {
            rates.l1[0][r] = 1.0;
        }
        let mai = compute_mai(&inputs, &platform, &rates);
        let cai = compute_cai(&inputs, &platform, &rates);
        assert!(mai[0].mass() < 1e-9);
        assert!(cai[0].mass() < 1e-9);
    }

    #[test]
    fn sampling_approximates_full_analysis() {
        let (p, space, sets) = fig5();
        let platform = Platform::paper_default();
        let data = DataEnv::new();
        let full = AffinityInputs::full(&p, &p.nests()[0], &space, &sets, &data);
        let sampled = AffinityInputs { sample_stride: 8, ..full };
        let m_full = compute_mai(&full, &platform, &AllMissModel);
        let m_samp = compute_mai(&sampled, &platform, &AllMissModel);
        assert!(m_full[0].eta(&m_samp[0]) < 0.02);
    }

    #[test]
    fn mean_eta_of_identical_tables_is_zero() {
        let t = vec![AffinityVec(vec![0.5, 0.5]), AffinityVec(vec![1.0, 0.0])];
        assert_eq!(mean_eta(&t, &t), 0.0);
    }

    #[test]
    fn mean_eta_symmetric() {
        let a = vec![AffinityVec(vec![1.0, 0.0])];
        let b = vec![AffinityVec(vec![0.0, 1.0])];
        assert_eq!(mean_eta(&a, &b), mean_eta(&b, &a));
        assert!((mean_eta(&a, &b) - 1.0).abs() < 1e-12);
    }
}
