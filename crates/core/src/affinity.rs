//! MAI and CAI: affinity of iteration sets to memory controllers and to
//! LLC-bank regions.
//!
//! For each iteration set, every (sampled) access is resolved to a physical
//! address once; the address determines the owning MC and, for shared LLCs,
//! the home bank, so one scan builds both tables. Each reference decodes
//! its MC and bank once per interleave unit it enters. The hit model splits the
//! access's unit weight into L1-resident (invisible), LLC-hit (→ CAI) and
//! LLC-miss (→ MAI) portions. Weights are normalized by the set's total
//! access count, matching the paper's Table 1 worked example where 2 hits +
//! 2 misses out of 4 accesses give MAI mass 0.5 and CAI mass 0.5.

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

/// The CAI table a scan builds next to MAI on a shared LLC.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cai {
    /// LLC hits by home-bank region, as [`compute_cai`].
    Hits,
    /// Every LLC-reaching access by home-bank region, as
    /// [`compute_cai_reaching`].
    Reaching,
}

/// The one affinity scan: resolves each sampled address of every set once,
/// adding its weight to MAI when `mai` is set and to the CAI that `cai`
/// selects. A table not asked for comes back empty.
///
/// Each (set, reference) weight is read from `model` once per set. Every
/// vector receives its additions in access order, so the tables are
/// bit-identical to those of one scan per table. Checkpoints `ctl` after
/// every set, charging one budget unit per sampled iteration for each table
/// built, so a cancellation surfaces within one set's worth of work and an
/// uncancelled run returns the tables of an unlimited one.
pub(crate) fn scan(
    inputs: &AffinityInputs<'_>,
    platform: &Platform,
    model: &dyn HitModel,
    mai: bool,
    cai: Option<Cai>,
    ctl: &RunControl,
) -> Result<(Vec<AffinityVec>, Vec<AffinityVec>), LocmapError> {
    let addr_map = &platform.addr_map;
    let bank_regions = platform.bank_regions();
    let mcs = if mai { platform.mc_count() } else { 0 };
    let regions = if cai.is_some() { platform.region_count() } else { 0 };
    let tables = u64::from(mai) + u64::from(cai.is_some());
    let refs = inputs.compile_refs();
    // Per reference, the last MC and bank region it decoded, kept across
    // sets: consecutive sampled accesses rarely leave their unit.
    let mc_of = |a| addr_map.mc_of(a).index();
    let region_of = |a| bank_regions[addr_map.llc_bank_of(a) as usize].index();
    let mut last_mc = vec![LastDecode::new(addr_map.mc_unit_shift(), mc_of); refs.len()];
    let mut last_region =
        vec![LastDecode::new(addr_map.llc_bank_unit_shift(), region_of); refs.len()];
    let mut weights = Vec::with_capacity(refs.len());
    let (mut mai_out, mut cai_out) = (Vec::new(), Vec::new());
    let (mut mc_w, mut bank_w) = (vec![0.0f64; mcs], vec![0.0f64; regions]);
    for (si, set) in inputs.sets.iter().enumerate() {
        // Per reference: what an access adds to its MC's MAI entry (an LLC
        // miss) and to its home bank region's CAI entry.
        weights.clear();
        weights.extend((0..refs.len()).map(|ri| {
            let reach_llc = 1.0 - model.l1_hit(set.id, ri);
            let llc_hit = model.llc_hit(set.id, ri);
            let to_mc = if mai { reach_llc * (1.0 - llc_hit) } else { 0.0 };
            let to_bank = match cai {
                Some(Cai::Hits) => reach_llc * llc_hit,
                Some(Cai::Reaching) => reach_llc,
                None => 0.0,
            };
            (to_mc, to_bank)
        }));
        mc_w.fill(0.0);
        bank_w.fill(0.0);
        let mut scanned = 0u64;
        for k in inputs.sampled_indices(set) {
            scanned += 1;
            let iv = inputs.space.get(k);
            let last = last_mc.iter_mut().zip(&mut last_region);
            for ((r, &(to_mc, to_bank)), (mc, region)) in refs.iter().zip(&weights).zip(last) {
                let addr = r.addr(iv);
                if to_mc > 0.0 {
                    mc_w[mc.get(addr, mc_of)] += to_mc;
                }
                if to_bank > 0.0 {
                    bank_w[region.get(addr, region_of)] += to_bank;
                }
            }
        }
        // Every access counts, wherever it is served; a set with no
        // access keeps its zeros.
        let total = (scanned * refs.len() as u64).max(1) as f64;
        let finish = |w: &[f64]| AffinityVec(w.iter().map(|x| x / total).collect());
        if mai {
            mai_out.push(finish(&mc_w));
        }
        if cai.is_some() {
            cai_out.push(finish(&bank_w));
        }
        ctl.checkpoint(tables * scanned, si + 1, inputs.sets.len())?;
    }
    Ok((mai_out, cai_out))
}

/// One reference's last decode of an address to a table slot, keyed by
/// the address's interleave unit: the address shifted right by the bits
/// the decode ignores (`AddrMap::mc_unit_shift` or `llc_bank_unit_shift`).
#[derive(Debug, Clone, Copy)]
struct LastDecode {
    shift: u32,
    unit: u64,
    slot: usize,
}

impl LastDecode {
    /// Starts with address 0's decode, so the entry is always a true one.
    fn new(shift: u32, decode: impl Fn(PhysAddr) -> usize) -> Self {
        LastDecode { shift, unit: 0, slot: decode(PhysAddr(0)) }
    }

    /// The slot of `addr`, decoded only when it left the last one's unit.
    #[inline]
    fn get(&mut self, addr: u64, decode: impl Fn(PhysAddr) -> usize) -> usize {
        let unit = addr >> self.shift;
        if unit != self.unit {
            self.unit = unit;
            self.slot = decode(PhysAddr(addr));
        }
        self.slot
    }
}

/// [`scan`] under a control that never aborts.
fn scan_unlimited(
    inputs: &AffinityInputs<'_>,
    platform: &Platform,
    model: &dyn HitModel,
    mai: bool,
    cai: Option<Cai>,
) -> (Vec<AffinityVec>, Vec<AffinityVec>) {
    scan(inputs, platform, model, mai, cai, &RunControl::unlimited())
        .expect("an unlimited RunControl never aborts")
}

/// Computes MAI for every iteration set: entry `k` is the fraction of the
/// set's accesses expected to be served by memory controller `k`.
pub fn compute_mai(
    inputs: &AffinityInputs<'_>,
    platform: &Platform,
    model: &dyn HitModel,
) -> Vec<AffinityVec> {
    scan_unlimited(inputs, platform, model, true, None).0
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
    scan_unlimited(inputs, platform, model, false, Some(Cai::Hits)).1
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
    scan_unlimited(inputs, platform, model, false, Some(Cai::Reaching)).1
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
    use crate::platform::LlcOrg;
    use locmap_loopir::{Access, AffineExpr, ArrayRef, LoopNest, Program, RefKind};
    use locmap_mem::{AddrMap, AddrMapConfig, ClusterMode, Interleave};
    use proptest::prelude::*;

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
        let sets = space.split_by_fraction(1.0); // single set
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
        for &x in v.iter() {
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

    /// The per-table loop the scan replaced: every access asks `entry` for
    /// its (slot, weight), consulting the model afresh, and `total` counts
    /// the accesses one by one.
    fn reference(
        inputs: &AffinityInputs<'_>,
        width: usize,
        entry: impl Fn(usize, usize, PhysAddr) -> Option<(usize, f64)>,
    ) -> Vec<AffinityVec> {
        let refs = inputs.compile_refs();
        let table = inputs.sets.iter().map(|set| {
            let mut w = vec![0.0f64; width];
            let mut total = 0.0f64;
            for k in inputs.sampled_indices(set) {
                let iv = inputs.space.get(k);
                for (ri, r) in refs.iter().enumerate() {
                    let addr = PhysAddr(r.addr(iv));
                    total += 1.0;
                    if let Some((slot, x)) = entry(set.id, ri, addr) {
                        w[slot] += x;
                    }
                }
            }
            if total > 0.0 {
                w.iter_mut().for_each(|x| *x /= total);
            }
            AffinityVec::from(w)
        });
        table.collect()
    }

    fn reference_mai(
        inputs: &AffinityInputs<'_>,
        platform: &Platform,
        model: &dyn HitModel,
    ) -> Vec<AffinityVec> {
        reference(inputs, platform.mc_count(), |s, ri, addr| {
            let reach_llc = 1.0 - model.l1_hit(s, ri);
            let p_miss = reach_llc * (1.0 - model.llc_hit(s, ri));
            (p_miss > 0.0).then(|| (platform.addr_map.mc_of(addr).index(), p_miss))
        })
    }

    fn reference_cai(
        inputs: &AffinityInputs<'_>,
        platform: &Platform,
        model: &dyn HitModel,
        kind: Cai,
    ) -> Vec<AffinityVec> {
        let bank_regions = platform.bank_regions();
        reference(inputs, platform.region_count(), |s, ri, addr| {
            let reach_llc = 1.0 - model.l1_hit(s, ri);
            let p = match kind {
                Cai::Hits => reach_llc * model.llc_hit(s, ri),
                Cai::Reaching => reach_llc,
            };
            let bank = platform.addr_map.llc_bank_of(addr);
            (p > 0.0).then(|| (bank_regions[bank as usize].index(), p))
        })
    }

    fn bits(table: &[AffinityVec]) -> Vec<Vec<u64>> {
        table.iter().map(|v| v.0.iter().map(|x| x.to_bits()).collect()).collect()
    }

    /// Rates for `sets` × `refs` from `seed`: exact 0s and 1s, which the
    /// scans skip or keep whole, mixed with fractions.
    fn rates(sets: usize, refs: usize, mut seed: u64) -> MeasuredRates {
        let mut next = || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let h = (seed ^ (seed >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            match h % 4 {
                0 => 0.0,
                1 => 1.0,
                _ => (h >> 11) as f64 / (1u64 << 53) as f64,
            }
        };
        let mut out = MeasuredRates::zeroed(sets, refs);
        for s in 0..sets {
            for r in 0..refs {
                out.l1[s][r] = next();
                out.llc[s][r] = next();
            }
        }
        out
    }

    proptest! {
        /// The scan, which decodes each reference's MC and bank once per
        /// interleave unit, against a decode of every access: over page and
        /// line sizes, bank counts, both interleaves of each target and
        /// every cluster mode. No golden interleaves MCs by line, so a unit
        /// keyed too coarsely there (a page) fails only here.
        #[test]
        fn scan_is_bit_identical_to_one_loop_per_table(
            shape in (collection::vec(1i64..=12, 1..=2), 1usize..=3, 0.05f64..=0.5),
            refs in collection::vec((collection::vec(0i64..=300, 2), 0i64..=64, 0usize..4), 1..=4),
            indirect in (0u8..=1, collection::vec(0i32..7000, 144), 0u64..u64::MAX),
            sizes in (4u32..=7, 0u32..=5, 1u16..=9),
        ) {
            let (bounds, stride, fraction) = shape;
            let (with_indirect, index, seed) = indirect;
            let (line_shift, page_over_line, quarter_banks) = sizes;
            let mut p = Program::new("scan");
            let arrays: Vec<_> =
                (0..4).map(|a| p.add_array(format!("A{a}"), 8, 8192)).collect();
            let idx = p.add_array("idx", 4, 144);
            let mut nest = LoopNest::rectangular("n", &bounds);
            for (coeffs, constant, a) in &refs {
                let e = AffineExpr::linear(&coeffs[..bounds.len()], *constant);
                nest.add_ref(arrays[*a], e, Access::Read);
            }
            if with_indirect == 1 {
                let position = AffineExpr::linear(&[12, 1][..bounds.len()], 0);
                nest.refs.push(ArrayRef {
                    array: arrays[0],
                    kind: RefKind::Indirect { index_array: idx, position, offset: 3 },
                    access: Access::Write,
                });
            }
            let id = p.add_nest(nest);
            let mut data = DataEnv::new();
            data.set_index_array(idx, index);
            let nest = p.nest(id);
            let space = IterationSpace::enumerate(nest, &p.params());
            let sets = space.split_by_fraction(fraction);
            let inputs = AffinityInputs { sample_stride: stride, ..AffinityInputs::full(&p, nest, &space, &sets, &data) };
            let model = rates(sets.len(), nest.refs.len(), seed);
            let sampled: u64 = sets.iter().map(|s| inputs.sampled_indices(s).count() as u64).sum();

            let interleaves = [Interleave::Page, Interleave::Line];
            let modes = [
                None,
                Some(ClusterMode::AllToAll),
                Some(ClusterMode::Quadrant),
                Some(ClusterMode::Snc4),
            ];
            let arms = [
                (LlcOrg::Private, None),
                (LlcOrg::SharedSNuca, Some(Cai::Hits)),
                (LlcOrg::SharedSNuca, Some(Cai::Reaching)),
            ];
            for (mem_interleave, llc_interleave, cluster) in interleaves
                .iter()
                .flat_map(|&m| interleaves.iter().map(move |&l| (m, l)))
                .flat_map(|(m, l)| modes.iter().map(move |&c| (m, l, c)))
            {
                for (llc, kind) in arms {
                    let mut platform = Platform::paper_default_with(llc);
                    platform.addr_map = AddrMap::new(AddrMapConfig {
                        page_bytes: 1 << (line_shift + page_over_line),
                        line_bytes: 1 << line_shift,
                        // Up to the mesh's 36 banks, in whole quadrants.
                        llc_banks: 4 * quarter_banks,
                        mem_interleave,
                        llc_interleave,
                        cluster,
                        ..platform.addr_map.config()
                    });
                    let ctl = RunControl::unlimited();
                    let (mai, cai) = scan(&inputs, &platform, &model, true, kind, &ctl).unwrap();
                    let want_mai = reference_mai(&inputs, &platform, &model);
                    let arm = format!("{:?} {kind:?} {:?}", platform.addr_map.config(), llc);
                    prop_assert_eq!(bits(&mai), bits(&want_mai), "MAI, {}", arm);
                    prop_assert_eq!(
                        bits(&compute_mai(&inputs, &platform, &model)),
                        bits(&want_mai),
                        "{}",
                        arm
                    );
                    match kind {
                        None => prop_assert!(cai.is_empty(), "{}", arm),
                        Some(kind) => {
                            let want_cai = reference_cai(&inputs, &platform, &model, kind);
                            prop_assert_eq!(bits(&cai), bits(&want_cai), "CAI, {}", arm);
                            let plain = match kind {
                                Cai::Hits => compute_cai(&inputs, &platform, &model),
                                Cai::Reaching => compute_cai_reaching(&inputs, &platform, &model),
                            };
                            prop_assert_eq!(bits(&plain), bits(&want_cai), "{}", arm);
                        }
                    }
                    let tables = 1 + u64::from(kind.is_some());
                    prop_assert_eq!(ctl.spent_units(), tables * sampled, "{}", arm);
                }
            }
        }
    }

    #[test]
    fn mean_eta_of_identical_tables_is_zero() {
        let t = vec![AffinityVec::from(vec![0.5, 0.5]), AffinityVec::from(vec![1.0, 0.0])];
        assert_eq!(mean_eta(&t, &t), 0.0);
    }

    #[test]
    fn mean_eta_symmetric() {
        let a = vec![AffinityVec::from(vec![1.0, 0.0])];
        let b = vec![AffinityVec::from(vec![0.0, 1.0])];
        assert_eq!(mean_eta(&a, &b), mean_eta(&b, &a));
        assert!((mean_eta(&a, &b) - 1.0).abs() < 1e-12);
    }
}
