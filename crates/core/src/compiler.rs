//! The end-to-end compiler driver (Figure 4).
//!
//! `input code → analysis → MAI/CAI/MAC/CAC + α → iteration-set-to-core
//! mapping → load balancing → placed output schedule`.
//!
//! Regular nests are mapped fully at compile time using CME estimates.
//! Irregular nests (index-array subscripts) cannot be resolved statically:
//! the driver emits the default round-robin schedule flagged
//! `needs_inspector`, and the [`crate::Inspector`] recomputes the mapping at
//! runtime from observed behavior.

use crate::affinity::{self, AffinityInputs, Cai};
use crate::assign::{assign_private, assign_shared, AlphaPolicy};
use crate::balance::{balance_regions_masked, BalanceReport};
use crate::hits::{AllMissModel, CmeModel, HitModel};
use crate::placement::{place_in_regions_masked, PlacementPolicy};
use crate::platform::{LlcOrg, Platform};
use crate::vectors::{region_redirects, AffinityVec, Cac, EtaMetric, Mac};
use locmap_cme::{CmeConfig, CmeEstimate, CmeEstimator};
use locmap_loopir::{DataEnv, IterationSet, IterationSpace, NestId, Program};
use locmap_mem::CacheConfig;
use locmap_noc::{FaultState, LocmapError, NodeId, RegionGrid, RegionId, RunControl};
use serde::{Deserialize, Serialize};

/// How the shared-LLC (S-NUCA) assignment objective treats LLC misses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SharedObjective {
    /// CAI counts all LLC-reaching accesses (hits *and* misses) at their
    /// home-bank regions — the engineering form of the paper's §3.8
    /// adjustment ("consider the locations of the LLC caches instead of
    /// cores" for misses), since in S-NUCA every controllable leg is
    /// core→home-bank. This is the default.
    #[default]
    BankDistance,
    /// The paper's literal Algorithm 2: CAI from hits only, blended with
    /// the MC-affinity term by α. Kept for ablation.
    PaperAlphaBlend,
}

/// Tunables of the mapping pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MappingOptions {
    /// Iteration-set size as a fraction of the nest (Table 4: 0.25 %).
    pub iteration_set_fraction: f64,
    /// Use CME to refine MAI/CAI and derive α (true = the paper's scheme;
    /// false = unrefined all-miss MAI).
    pub use_cme: bool,
    /// CME configuration (noise models estimation inaccuracy).
    pub cme: CmeConfig,
    /// α selection for shared LLCs.
    pub alpha: AlphaPolicy,
    /// Vector-difference metric inside η.
    pub eta: EtaMetric,
    /// Within-region core selection.
    pub placement: PlacementPolicy,
    /// Analyze every k-th iteration when building MAI/CAI (1 = all).
    pub analysis_sample_stride: usize,
    /// Run the location-aware load balancer (Algorithm 1 lines 15–24).
    pub balance: bool,
    /// Shared-LLC objective variant.
    pub shared_objective: SharedObjective,
}

impl MappingOptions {
    /// The paper's mapping options for `platform` with an `l1` per core
    /// and an `l2_bank` per node, the one place the CME's cache model is
    /// sized from a machine.
    ///
    /// For private LLCs a thread's misses are filtered by one local bank;
    /// for shared S-NUCA the whole distributed LLC caches its data, so the
    /// CME models the aggregate capacity, rounded up to a power of two for
    /// the model's set count. Affinity analysis samples every 2nd
    /// iteration and CME symbolically executes half of them — the
    /// statistical mode of the paper's CME variant.
    pub fn for_machine(platform: &Platform, l1: CacheConfig, l2_bank: CacheConfig) -> Self {
        let llc_bytes = match platform.llc {
            LlcOrg::Private => l2_bank.size_bytes,
            LlcOrg::SharedSNuca => l2_bank.size_bytes * platform.mesh.node_count() as u64,
        };
        MappingOptions {
            iteration_set_fraction: 0.0025,
            use_cme: true,
            cme: CmeConfig { l1, sample_rate: 0.5, ..CmeConfig::default() }
                .with_llc_bytes(llc_bytes.next_power_of_two()),
            alpha: AlphaPolicy::FromHits,
            eta: EtaMetric::L1,
            placement: PlacementPolicy::default(),
            analysis_sample_stride: 2,
            balance: true,
            shared_objective: SharedObjective::default(),
        }
    }

    /// The builders' default: [`MappingOptions::for_machine`] with the
    /// simulator's scaled caches, so a compiler or session built without
    /// explicit options maps for the machine `SimConfig::default` runs.
    pub(crate) fn scaled(platform: &Platform) -> Self {
        Self::for_machine(platform, CacheConfig::scaled_l1(), CacheConfig::scaled_l2_bank())
    }
}

/// The mapping produced for one loop nest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NestMapping {
    /// Which nest this schedules.
    pub nest: NestId,
    /// The iteration sets, in nest order.
    pub sets: Vec<IterationSet>,
    /// Region of each set after balancing.
    pub regions: Vec<RegionId>,
    /// Concrete core of each set.
    pub assignment: Vec<NodeId>,
    /// What the balancer did.
    pub balance: BalanceReport,
    /// True when this is a placeholder schedule for an irregular nest that
    /// the runtime inspector must replace.
    pub needs_inspector: bool,
    /// The MAI vectors used (for accuracy studies, Figures 7a/8a).
    pub mai: Vec<AffinityVec>,
    /// The CAI vectors used (empty for private LLCs).
    pub cai: Vec<AffinityVec>,
    /// Per-set α (empty for private LLCs).
    pub alphas: Vec<f64>,
}

impl NestMapping {
    /// A mapping that no affinity vector scored: set `s` runs on
    /// `cores[s]`, in the region of `grid` holding that core, with no
    /// balancer move and empty MAI, CAI and α. The round-robin, locality
    /// and hardware-placement schedules are built this way.
    pub fn from_cores(
        nest: NestId,
        sets: &[IterationSet],
        cores: Vec<NodeId>,
        grid: &RegionGrid,
    ) -> Self {
        NestMapping {
            nest,
            sets: sets.to_vec(),
            regions: cores.iter().map(|&n| grid.region_of(n)).collect(),
            assignment: cores,
            balance: BalanceReport { moved: 0, total: sets.len() },
            needs_inspector: false,
            mai: Vec::new(),
            cai: Vec::new(),
            alphas: Vec::new(),
        }
    }

    /// The core executing iteration set `k`.
    pub fn core_of(&self, set: usize) -> NodeId {
        self.assignment[set]
    }
}

/// Fault-derived redirect tables the mapper consults.
///
/// Built once per fault state from the same [`FaultState`] redirect
/// functions the simulator uses, so mapper and machine agree on where
/// displaced traffic lands. On a healthy machine ([`FaultState::none`])
/// every redirect is the identity and every mask is all-alive.
#[derive(Debug, Clone)]
struct DegradedInfo {
    /// `mc_redirect[k]` = the alive MC absorbing MC `k`'s traffic
    /// (identity for alive MCs).
    mc_redirect: Vec<usize>,
    /// `bank_region_redirect[j]` = the nearest region with a surviving
    /// LLC bank (identity when region `j` still has one) — folds CAI
    /// weight homed in bank-dead regions.
    bank_region_redirect: Vec<usize>,
    /// Per-node router/core liveness.
    alive_cores: Vec<bool>,
    /// Per-region: at least one core survives.
    alive_regions: Vec<bool>,
    /// `core_region_redirect[j]` = nearest region with a surviving core
    /// (identity when region `j` has one) — evacuates assignments out of
    /// fully dead regions before balancing.
    core_region_redirect: Vec<RegionId>,
    /// The *effective* fault state (router deaths folded onto co-located
    /// banks and MCs) every table above was derived from, kept so external
    /// tooling can audit the compiler against the exact machine picture it
    /// mapped for.
    state: FaultState,
}

impl DegradedInfo {
    /// Moves each dead component's affinity weight onto the component that
    /// absorbs its traffic. An identity redirect (a healthy machine) keeps
    /// `v`'s shared weights; any other builds a new vector.
    fn fold(v: &mut AffinityVec, redirect: &[usize]) {
        if redirect.iter().enumerate().all(|(k, &to)| to == k) {
            return;
        }
        let mut w = v.0.to_vec();
        for (k, &to) in redirect.iter().enumerate() {
            if to != k {
                let moved = std::mem::replace(&mut w[k], 0.0);
                w[to] += moved;
            }
        }
        *v = w.into();
    }
}

/// The computation of a nest's CME estimate that
/// [`Compiler::map_nest_via`] hands to its `estimate` argument.
type EstimateFn<'a> = dyn Fn() -> Result<Option<CmeEstimate>, LocmapError> + 'a;

/// The location-aware mapping compiler.
#[derive(Debug, Clone)]
pub struct Compiler {
    platform: Platform,
    options: MappingOptions,
    mac: Mac,
    cac: Cac,
    degraded: DegradedInfo,
}

/// Step-by-step construction of a [`Compiler`].
///
/// Obtained from [`Compiler::builder`]; every knob is optional and
/// [`CompilerBuilder::build`] returns a typed error instead of panicking,
/// so a service can surface bad configurations to its callers.
///
/// ```
/// use locmap_core::prelude::*;
/// use locmap_mem::CacheConfig;
///
/// // Map for Table 4's full-size caches rather than the scaled default.
/// let platform = Platform::paper_default();
/// let (l1, l2_bank) = (CacheConfig::paper_l1(), CacheConfig::paper_l2_bank());
/// let compiler = Compiler::builder(platform.clone())
///     .options(MappingOptions::for_machine(&platform, l1, l2_bank))
///     .build()
///     .unwrap();
/// assert!(!compiler.is_degraded());
/// ```
#[derive(Debug, Clone)]
pub struct CompilerBuilder {
    platform: Platform,
    options: MappingOptions,
    faults: Option<FaultState>,
}

impl CompilerBuilder {
    /// Replaces the mapping options (default: [`MappingOptions::for_machine`]
    /// of the platform with [`CacheConfig::scaled_l1`] and
    /// [`CacheConfig::scaled_l2_bank`], the simulator's default caches).
    pub fn options(mut self, options: MappingOptions) -> Self {
        self.options = options;
        self
    }

    /// Builds a degraded-mode compiler that maps around the faults in
    /// `state` (see [`Compiler::builder`] docs for the semantics).
    pub fn faults(mut self, state: &FaultState) -> Self {
        self.faults = Some(state.clone());
        self
    }

    /// Builds the compiler.
    ///
    /// Returns [`LocmapError::FaultConflict`] when a fault state leaves
    /// nothing to map onto.
    pub fn build(self) -> Result<Compiler, LocmapError> {
        let state = self
            .faults
            .unwrap_or_else(|| FaultState::none(self.platform.mesh, self.platform.mc_coords.len()));
        Compiler::construct(self.platform, self.options, &state)
    }
}

impl Compiler {
    /// Starts building a compiler for `platform`.
    ///
    /// With [`CompilerBuilder::faults`], the result maps around the faults
    /// in the given state: MAC/CAC are recomputed over surviving MCs and
    /// banks, MAI/CAI weight aimed at dead components is folded onto their
    /// redirect targets, regions with no surviving core are evacuated, and
    /// placement only uses alive cores. The state is folded through
    /// [`FaultState::effective`] first, so dead routers imply their bank/MC
    /// deaths exactly as the simulator sees them.
    pub fn builder(platform: Platform) -> CompilerBuilder {
        CompilerBuilder { options: MappingOptions::scaled(&platform), platform, faults: None }
    }

    fn construct(
        platform: Platform,
        options: MappingOptions,
        state: &FaultState,
    ) -> Result<Self, LocmapError> {
        let eff = state.effective(&platform.mc_coords);

        let mac = Mac::compute(&platform, &eff)?;
        let cac = match platform.llc {
            // Private LLCs never consult CAC; keep the fault-free one.
            LlcOrg::Private => {
                Cac::compute(&platform, &FaultState::none(platform.mesh, platform.mc_count()))?
            }
            LlcOrg::SharedSNuca => Cac::compute(&platform, &eff)?,
        };

        let mc_redirect = eff.mc_redirects(&platform.mc_coords)?;

        let regions = &platform.regions;
        let alive_cores: Vec<bool> =
            platform.mesh.nodes().map(|n| eff.router_alive(n)).collect();
        let region_has = |pred: &dyn Fn(NodeId) -> bool| -> Vec<bool> {
            regions.regions().map(|r| regions.nodes_in(r).iter().any(|&n| pred(n))).collect()
        };
        let alive_regions = region_has(&|n| eff.router_alive(n));
        let core_region_redirect = region_redirects(regions, &alive_regions)
            .ok_or_else(|| LocmapError::FaultConflict("no surviving cores to map onto".into()))?;
        let bank_region_redirect: Vec<usize> =
            match region_redirects(regions, &region_has(&|n| eff.bank_alive(n))) {
                Some(to) => to.iter().map(|r| r.index()).collect(),
                // All banks dead: only reachable for private LLCs (everything
                // bypasses to memory); CAI is unused, keep the identity map.
                None => (0..regions.region_count()).collect(),
            };

        Ok(Compiler {
            platform,
            options,
            mac,
            cac,
            degraded: DegradedInfo {
                mc_redirect,
                bank_region_redirect,
                alive_cores,
                alive_regions,
                core_region_redirect,
                state: eff,
            },
        })
    }

    /// True when this compiler maps for a degraded (faulted) machine.
    pub fn is_degraded(&self) -> bool {
        !self.fault_state().is_clean()
    }

    /// The effective [`FaultState`] this compiler maps around — the state
    /// passed to the builder with router deaths folded onto co-located
    /// banks and MCs (see [`FaultState::effective`]), or
    /// [`FaultState::none`] for a healthy machine. External verifiers
    /// recompute redirect tables and masks from this to audit the mapper.
    pub fn fault_state(&self) -> &FaultState {
        &self.degraded.state
    }

    /// The platform description.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The options in use.
    pub fn options(&self) -> MappingOptions {
        self.options
    }

    /// The per-region MAC vectors.
    pub fn mac(&self) -> &Mac {
        &self.mac
    }

    /// The per-region CAC vectors.
    pub fn cac(&self) -> &Cac {
        &self.cac
    }

    /// Maps one nest at compile time.
    ///
    /// Regular nests get the full affinity-driven schedule. Irregular nests
    /// (when `data` lacks their index arrays) get a default round-robin
    /// schedule with `needs_inspector = true`.
    pub fn map_nest(&self, program: &Program, nest_id: NestId, data: &DataEnv) -> NestMapping {
        self.map_nest_via(program, nest_id, data, &RunControl::unlimited(), |estimate| estimate())
            .expect("an unlimited RunControl never aborts")
    }

    /// The one path behind [`Compiler::map_nest`] and a
    /// [`crate::MappingSession`] miss: enumerates a resolvable nest once,
    /// obtains the CME estimate through `estimate`, and maps over the same
    /// space.
    ///
    /// `estimate` receives the computation of the estimate and returns its
    /// result, or an equal one from a cache: the estimate depends on the
    /// nest, its data layout and the CME/sampling options — not on the
    /// platform's fault state — so a session reuses it across fault
    /// epochs. The computation yields `None` when CME is disabled or the
    /// nest has index arrays missing from `data`. The CME symbolic
    /// execution and the affinity phases checkpoint `ctl`, so a
    /// cancellation or exhausted budget aborts within a bounded number of
    /// iterations and surfaces as [`LocmapError::Cancelled`] /
    /// [`LocmapError::DeadlineExceeded`]. An uncancelled run returns the
    /// bit-identical mapping.
    pub(crate) fn map_nest_via(
        &self,
        program: &Program,
        nest_id: NestId,
        data: &DataEnv,
        ctl: &RunControl,
        estimate: impl FnOnce(&EstimateFn<'_>) -> Result<Option<CmeEstimate>, LocmapError>,
    ) -> Result<NestMapping, LocmapError> {
        let nest = program.nest(nest_id);
        // Compile time cannot see through missing index arrays: such a
        // nest gets the default schedule, split from its count, and the
        // inspector redoes it at runtime.
        let space = Self::resolvable(nest, data)
            .then(|| IterationSpace::enumerate(nest, &program.params()));
        let sets = match &space {
            Some(space) => space.split_by_fraction(self.options.iteration_set_fraction),
            None => self.split_nest(program, nest_id),
        };
        let estimate = estimate(&|| match &space {
            Some(space) if self.options.use_cme => CmeEstimator::new(self.options.cme)
                .estimate_ctl(program, nest, space, &sets, data, ctl)
                .map(Some),
            _ => Ok(None),
        })?;
        let Some(space) = space else {
            let mapping = self.round_robin_schedule(nest_id, &sets);
            return Ok(NestMapping { needs_inspector: true, ..mapping });
        };
        let cme = estimate.map(CmeModel::new);
        let model: &dyn HitModel = match &cme {
            Some(m) => m,
            None => &AllMissModel,
        };
        self.map_with_model(program, nest_id, data, &space, sets, model, ctl)
    }

    /// The iteration sets of a nest, split from its iteration count
    /// without enumerating it.
    fn split_nest(&self, program: &Program, nest_id: NestId) -> Vec<IterationSet> {
        let count = program.nest(nest_id).iteration_count(&program.params());
        IterationSet::split_count(count as usize, self.options.iteration_set_fraction)
    }

    /// Whether every reference of `nest` can be resolved at compile time
    /// given `data` (affine, or indirect with its index array installed).
    fn resolvable(nest: &locmap_loopir::LoopNest, data: &DataEnv) -> bool {
        !nest.is_irregular()
            || nest.refs.iter().all(|r| match &r.kind {
                locmap_loopir::RefKind::Affine(_) => true,
                locmap_loopir::RefKind::Indirect { index_array, .. } => data.has(*index_array),
            })
    }

    /// Maps a nest using an explicit hit model — the entry point for the
    /// inspector (measured rates) and the Figure 15 oracle. Its affinity
    /// phases checkpoint `ctl`, so it aborts like
    /// [`crate::MappingSession::map_one_ctl`].
    pub fn map_nest_with_model(
        &self,
        program: &Program,
        nest_id: NestId,
        data: &DataEnv,
        model: &dyn HitModel,
        ctl: &RunControl,
    ) -> Result<NestMapping, LocmapError> {
        let nest = program.nest(nest_id);
        let space = IterationSpace::enumerate(nest, &program.params());
        let sets = space.split_by_fraction(self.options.iteration_set_fraction);
        self.map_with_model(program, nest_id, data, &space, sets, model, ctl)
    }

    #[allow(clippy::too_many_arguments)]
    fn map_with_model(
        &self,
        program: &Program,
        nest_id: NestId,
        data: &DataEnv,
        space: &IterationSpace,
        sets: Vec<IterationSet>,
        model: &dyn HitModel,
        ctl: &RunControl,
    ) -> Result<NestMapping, LocmapError> {
        let nest = program.nest(nest_id);
        let inputs = AffinityInputs {
            program,
            nest,
            space,
            sets: &sets,
            data,
            sample_stride: self.options.analysis_sample_stride,
        };

        // MAI/CAI carry raw access-fraction weights (mass ≤ 1 once the hit
        // model removes L1-resident and wrong-level accesses). For the η
        // comparison against MAC/CAC — which are unit-mass preference
        // vectors — only the *direction* matters, so compare normalized
        // copies; the hit/miss magnitude split is what α carries.
        let d = &self.degraded;
        let cai_kind = match (self.platform.llc, self.options.shared_objective) {
            (LlcOrg::Private, _) => None,
            (LlcOrg::SharedSNuca, SharedObjective::BankDistance) => Some(Cai::Reaching),
            (LlcOrg::SharedSNuca, SharedObjective::PaperAlphaBlend) => Some(Cai::Hits),
        };
        let (mut mai, mut cai) =
            affinity::scan(&inputs, &self.platform, model, true, cai_kind, ctl)?;
        // Traffic aimed at a dead MC is served by its redirect target; give
        // the affinity weight to where the requests actually go.
        for v in &mut mai {
            DegradedInfo::fold(v, &d.mc_redirect);
        }
        let mai_n: Vec<AffinityVec> = mai.iter().map(|v| v.clone().normalized()).collect();
        let (cai, cai_n, alphas, mut regions) = match self.platform.llc {
            LlcOrg::Private => {
                let regions = assign_private(&mai_n, &self.mac, self.options.eta);
                (cai, Vec::new(), Vec::new(), regions)
            }
            LlcOrg::SharedSNuca => {
                for v in &mut cai {
                    DegradedInfo::fold(v, &d.bank_region_redirect);
                }
                let cai_n: Vec<AffinityVec> =
                    cai.iter().map(|v| v.clone().normalized()).collect();
                let nrefs = nest.refs.len();
                let alphas: Vec<f64> = sets
                    .iter()
                    .map(|s| match (self.options.shared_objective, self.options.alpha) {
                        // Bank-distance objective: every LLC-reaching leg
                        // is core→bank, so cache affinity carries all the
                        // controllable weight.
                        (SharedObjective::BankDistance, AlphaPolicy::FromHits) => 1.0,
                        (_, AlphaPolicy::FromHits) => model.alpha(s.id, nrefs),
                        (_, AlphaPolicy::Fixed(a)) => a,
                    })
                    .collect();
                let regions =
                    assign_shared(&mai_n, &cai_n, &self.mac, &self.cac, &alphas, self.options.eta);
                (cai, cai_n, alphas, regions)
            }
        };

        // Evacuate assignments out of regions with no surviving core before
        // balancing, so the masked balancer only shuffles load among
        // schedulable regions.
        for r in &mut regions {
            *r = d.core_region_redirect[r.index()];
        }

        let balance = if self.options.balance {
            let cost = |s: usize, r: RegionId| -> f64 {
                let eta_m = mai_n[s].eta_with(self.mac.of(r), self.options.eta);
                match self.platform.llc {
                    LlcOrg::Private => eta_m,
                    LlcOrg::SharedSNuca => {
                        let eta_c = cai_n[s].eta_with(self.cac.of(r), self.options.eta);
                        alphas[s] * eta_c + (1.0 - alphas[s]) * eta_m
                    }
                }
            };
            balance_regions_masked(&mut regions, &self.platform.regions, &cost, &d.alive_regions)
        } else {
            BalanceReport { moved: 0, total: sets.len() }
        };

        let assignment = place_in_regions_masked(
            &regions,
            &self.platform.regions,
            self.options.placement,
            &d.alive_cores,
        )
        // construct guarantees an alive region exists and every set was
        // redirected into one above.
        .expect("mapping keeps sets out of dead regions");

        Ok(NestMapping {
            nest: nest_id,
            sets,
            regions,
            assignment,
            balance,
            needs_inspector: false,
            mai,
            cai,
            alphas,
        })
    }

    /// The evaluation's *default mapping* baseline: iteration sets dealt to
    /// cores round-robin, location-blind.
    ///
    /// The deal cycles over *surviving* cores only — still blind to
    /// location, but schedulable (the OS would never dispatch a thread to a
    /// dead core).
    pub fn round_robin_schedule(&self, nest_id: NestId, sets: &[IterationSet]) -> NestMapping {
        let alive = &self.degraded.alive_cores;
        let cores: Vec<NodeId> = self.platform.mesh.nodes().filter(|n| alive[n.index()]).collect();
        let assignment: Vec<NodeId> = sets.iter().map(|s| cores[s.id % cores.len()]).collect();
        NestMapping::from_cores(nest_id, sets, assignment, &self.platform.regions)
    }

    /// Convenience: the default mapping for a whole nest (used as the
    /// baseline in every experiment), split from the nest's iteration
    /// count.
    pub fn default_mapping(&self, program: &Program, nest_id: NestId) -> NestMapping {
        self.round_robin_schedule(nest_id, &self.split_nest(program, nest_id))
    }

    /// The overload-shedding heuristic: round-robin *with locality*.
    ///
    /// Unlike [`Compiler::round_robin_schedule`] — which deals sets to
    /// cores individually and scatters neighboring sets across the chip —
    /// this keeps *contiguous blocks* of iteration sets together in one
    /// region (neighboring sets touch neighboring data, the premise of
    /// iteration sets), dealing the blocks over alive regions in order.
    /// No CME, no affinity scan, no balancing: cost is O(sets), which is
    /// what lets an overloaded service shed to it. Region loads stay
    /// within ±1 set, and cores are picked by the configured placement
    /// policy, so the result passes the verifier's coverage, shape and
    /// region-membership passes.
    pub fn locality_schedule(&self, nest_id: NestId, sets: &[IterationSet]) -> NestMapping {
        let regions = &self.platform.regions;
        let d = &self.degraded;
        let alive: Vec<RegionId> =
            regions.regions().filter(|r| d.alive_regions[r.index()]).collect();
        let n = sets.len();
        // Block deal: set s lands in alive region floor(s * |alive| / n),
        // giving contiguous blocks whose sizes differ by at most one.
        let assignment_regions: Vec<RegionId> =
            (0..n).map(|s| alive[s * alive.len() / n.max(1)]).collect();
        let assignment = place_in_regions_masked(
            &assignment_regions,
            regions,
            self.options.placement,
            &d.alive_cores,
        )
        .expect("locality schedule only targets alive regions");
        NestMapping::from_cores(nest_id, sets, assignment, regions)
    }

    /// Convenience: the [`Compiler::locality_schedule`] heuristic for a
    /// whole nest — the quality-ladder floor a shedding session serves
    /// when the full pipeline is over budget. The sets come from the
    /// nest's iteration count; the nest is never enumerated.
    pub fn heuristic_mapping(&self, program: &Program, nest_id: NestId) -> NestMapping {
        self.locality_schedule(nest_id, &self.split_nest(program, nest_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmap_loopir::{Access, AffineExpr, LoopNest};

    /// The builders' default options on the paper's shared-LLC platform.
    pub(super) fn shared_options() -> MappingOptions {
        MappingOptions::scaled(&Platform::paper_default())
    }

    fn streaming_program() -> (Program, NestId) {
        let mut p = Program::new("stream");
        let n = 8192u64;
        let a = p.add_array("A", 8, n);
        let b = p.add_array("B", 8, n);
        let mut nest = LoopNest::rectangular("n", &[n as i64]);
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
        nest.add_ref(b, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        (p, id)
    }

    #[test]
    fn regular_nest_maps_statically() {
        let (p, id) = streaming_program();
        let c = Compiler::builder(Platform::paper_default()).build().unwrap();
        let m = c.map_nest(&p, id, &DataEnv::new());
        assert!(!m.needs_inspector);
        assert_eq!(m.assignment.len(), m.sets.len());
        assert_eq!(m.regions.len(), m.sets.len());
        // Cores belong to their regions.
        for (s, &core) in m.assignment.iter().enumerate() {
            assert_eq!(c.platform().regions.region_of(core), m.regions[s]);
        }
    }

    #[test]
    fn irregular_nest_defers_to_inspector() {
        let mut p = Program::new("irr");
        let a = p.add_array("A", 8, 1000);
        let idx = p.add_array("idx", 4, 1000);
        let mut nest = LoopNest::rectangular("n", &[1000]);
        nest.add_indirect_ref(a, idx, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        let c = Compiler::builder(Platform::paper_default()).build().unwrap();
        let m = c.map_nest(&p, id, &DataEnv::new());
        assert!(m.needs_inspector);
    }

    #[test]
    fn irregular_nest_with_data_maps_statically() {
        let mut p = Program::new("irr");
        let a = p.add_array("A", 8, 1000);
        let idx = p.add_array("idx", 4, 1000);
        let mut nest = LoopNest::rectangular("n", &[1000]);
        nest.add_indirect_ref(a, idx, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        let mut data = DataEnv::new();
        data.set_index_array(idx, (0..1000).collect());
        let c = Compiler::builder(Platform::paper_default()).build().unwrap();
        let m = c.map_nest(&p, id, &data);
        assert!(!m.needs_inspector);
    }

    #[test]
    fn balanced_loads_across_regions() {
        let (p, id) = streaming_program();
        let c = Compiler::builder(Platform::paper_default()).build().unwrap();
        let m = c.map_nest(&p, id, &DataEnv::new());
        let loads = crate::balance::region_loads(&m.regions, 9);
        let max = loads.iter().max().unwrap();
        let min = loads.iter().min().unwrap();
        assert!(max - min <= 1, "unbalanced: {loads:?}");
    }

    #[test]
    fn default_mapping_is_round_robin() {
        let (p, id) = streaming_program();
        let c = Compiler::builder(Platform::paper_default()).build().unwrap();
        let m = c.default_mapping(&p, id);
        for (s, &core) in m.assignment.iter().enumerate() {
            assert_eq!(core.index(), s % 36);
        }
    }

    #[test]
    fn private_llc_skips_cai() {
        let (p, id) = streaming_program();
        let platform = Platform::paper_default_with(LlcOrg::Private);
        let c = Compiler::builder(platform).build().unwrap();
        let m = c.map_nest(&p, id, &DataEnv::new());
        assert!(m.cai.is_empty());
        assert!(m.alphas.is_empty());
        assert!(!m.mai.is_empty());
    }

    #[test]
    fn shared_llc_computes_cai_and_alpha() {
        let (p, id) = streaming_program();
        let c = Compiler::builder(Platform::paper_default()).build().unwrap();
        let m = c.map_nest(&p, id, &DataEnv::new());
        assert_eq!(m.cai.len(), m.sets.len());
        assert_eq!(m.alphas.len(), m.sets.len());
        assert!(m.alphas.iter().all(|a| (0.0..=1.0).contains(a)));
    }

    #[test]
    fn mapping_is_deterministic() {
        let (p, id) = streaming_program();
        let c = Compiler::builder(Platform::paper_default()).build().unwrap();
        let m1 = c.map_nest(&p, id, &DataEnv::new());
        let m2 = c.map_nest(&p, id, &DataEnv::new());
        assert_eq!(m1.assignment, m2.assignment);
    }

    #[test]
    fn count_split_schedules_keep_the_enumerated_sets() {
        use locmap_loopir::LoopBound;
        let tri =
            |lower: AffineExpr, upper: i64| LoopBound { lower, upper: AffineExpr::constant(upper) };
        let shapes = [
            // Triangular.
            vec![LoopBound::range(40), tri(AffineExpr::var(0, 1), 40)],
            // Zero-trip outer loop.
            vec![LoopBound::range(0), LoopBound::range(8)],
            // Inner range empty for half the outer indices.
            vec![LoopBound::range(12), tri(AffineExpr::var(0, 1), 6)],
            // Inner range empty everywhere.
            vec![LoopBound::range(12), LoopBound::range(0)],
        ];
        let mut p = Program::new("shapes");
        let a = p.add_array("A", 8, 64);
        let idx = p.add_array("idx", 4, 64);
        for bounds in shapes {
            let mut nest = LoopNest::with_bounds("n", bounds);
            nest.add_indirect_ref(a, idx, AffineExpr::var(1, 1), Access::Read);
            p.add_nest(nest);
        }
        let opts = MappingOptions { iteration_set_fraction: 0.05, ..shared_options() };
        let c = Compiler::builder(Platform::paper_default()).options(opts).build().unwrap();
        for id in p.nest_ids() {
            let want = IterationSpace::enumerate(p.nest(id), &p.params()).split_by_fraction(0.05);
            assert_eq!(c.heuristic_mapping(&p, id).sets, want, "{:?}", p.nest(id).bounds);
            assert_eq!(c.default_mapping(&p, id).sets, want);
            // An irregular nest with no index data is split the same way.
            let deferred = c.map_nest(&p, id, &DataEnv::new());
            assert!(deferred.needs_inspector);
            assert_eq!(deferred.sets, want);
        }
    }

    #[test]
    fn no_balance_option_respected() {
        let (p, id) = streaming_program();
        let opts = MappingOptions { balance: false, ..shared_options() };
        let c = Compiler::builder(Platform::paper_default()).options(opts).build().unwrap();
        let m = c.map_nest(&p, id, &DataEnv::new());
        assert_eq!(m.balance.moved, 0);
    }
}

#[cfg(test)]
mod degraded_tests {
    use super::*;
    use locmap_loopir::{Access, AffineExpr, LoopNest};
    use locmap_noc::{FaultPlan, NodeId};

    fn streaming_program() -> (Program, NestId) {
        let mut p = Program::new("stream");
        let n = 8192u64;
        let a = p.add_array("A", 8, n);
        let b = p.add_array("B", 8, n);
        let mut nest = LoopNest::rectangular("n", &[n as i64]);
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
        nest.add_ref(b, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        (p, id)
    }

    #[test]
    fn fault_free_state_reproduces_baseline_mapping() {
        let (p, id) = streaming_program();
        let platform = Platform::paper_default();
        let clean = FaultPlan::new(platform.mesh, platform.mc_coords.len()).final_state();
        let c0 = Compiler::builder(platform.clone()).build().unwrap();
        let c1 = Compiler::builder(platform).faults(&clean).build().unwrap();
        assert!(!c1.is_degraded());
        assert_eq!(c0.fault_state(), c1.fault_state());
        assert_eq!(c0.map_nest(&p, id, &DataEnv::new()), c1.map_nest(&p, id, &DataEnv::new()));
        assert_eq!(c0.default_mapping(&p, id), c1.default_mapping(&p, id));
        assert_eq!(c0.heuristic_mapping(&p, id), c1.heuristic_mapping(&p, id));
    }

    #[test]
    fn degraded_mapping_avoids_dead_cores() {
        let (p, id) = streaming_program();
        let platform = Platform::paper_default();
        let dead = [NodeId(7), NodeId(8), NodeId(21)];
        let mut plan = FaultPlan::new(platform.mesh, platform.mc_coords.len());
        for &n in &dead {
            plan = plan.dead_router(n);
        }
        let state = plan.final_state();
        let c =
            Compiler::builder(platform).faults(&state).build().unwrap();
        assert!(c.is_degraded());
        let m = c.map_nest(&p, id, &DataEnv::new());
        for &core in &m.assignment {
            assert!(!dead.contains(&core), "mapped a set to dead core {core:?}");
        }
    }

    #[test]
    fn degraded_round_robin_cycles_over_survivors() {
        let (p, id) = streaming_program();
        let platform = Platform::paper_default();
        let state = FaultPlan::new(platform.mesh, platform.mc_coords.len())
            .dead_router(NodeId(0))
            .final_state();
        let c =
            Compiler::builder(platform).faults(&state).build().unwrap();
        let m = c.default_mapping(&p, id);
        assert!(m.assignment.iter().all(|&n| n != NodeId(0)));
        // 35 survivors: set 0 lands on node 1 (the first alive core).
        assert_eq!(m.assignment[0], NodeId(1));
        assert_eq!(m.assignment[35], NodeId(1));
    }

    #[test]
    fn degraded_mapping_with_dead_mc_remains_balanced() {
        let (p, id) = streaming_program();
        let platform = Platform::paper_default();
        let state =
            FaultPlan::new(platform.mesh, platform.mc_coords.len()).dead_mc(0).final_state();
        let c =
            Compiler::builder(platform).faults(&state).build().unwrap();
        let m = c.map_nest(&p, id, &DataEnv::new());
        let loads = crate::balance::region_loads(&m.regions, 9);
        let max = loads.iter().max().unwrap();
        let min = loads.iter().min().unwrap();
        assert!(max - min <= 1, "unbalanced: {loads:?}");
    }

    #[test]
    fn dead_region_is_fully_evacuated() {
        let (p, id) = streaming_program();
        let platform = Platform::paper_default();
        // Region R1 (top-left 2x2 on the 6x6 paper grid) is nodes 0, 1, 6, 7.
        let mut plan = FaultPlan::new(platform.mesh, platform.mc_coords.len());
        for n in [0u16, 1, 6, 7] {
            plan = plan.dead_router(NodeId(n));
        }
        let state = plan.final_state();
        let c =
            Compiler::builder(platform).faults(&state).build().unwrap();
        let m = c.map_nest(&p, id, &DataEnv::new());
        assert!(
            m.regions.iter().all(|r| r.index() != 0),
            "sets remain in the dead region"
        );
    }

    #[test]
    fn all_routers_dead_is_a_typed_error() {
        let platform = Platform::paper_default();
        let mut plan = FaultPlan::new(platform.mesh, platform.mc_coords.len());
        for n in platform.mesh.nodes() {
            plan = plan.dead_router(n);
        }
        let state = plan.final_state();
        let err = Compiler::builder(platform).faults(&state).build();
        assert!(err.is_err());
    }

    #[test]
    fn degraded_private_llc_maps_cleanly() {
        let (p, id) = streaming_program();
        let platform = Platform::paper_default_with(LlcOrg::Private);
        let state = FaultPlan::new(platform.mesh, platform.mc_coords.len())
            .dead_mc(1)
            .dead_bank(NodeId(14))
            .final_state();
        let c =
            Compiler::builder(platform).faults(&state).build().unwrap();
        let m = c.map_nest(&p, id, &DataEnv::new());
        assert_eq!(m.assignment.len(), m.sets.len());
        assert!(m.cai.is_empty());
    }
}

#[cfg(test)]
mod objective_tests {
    use super::tests::shared_options;
    use super::*;
    use locmap_loopir::{Access, AffineExpr, LoopNest};

    fn stream(n: u64) -> (Program, NestId) {
        let mut p = Program::new("s");
        let a = p.add_array("A", 8, n);
        let mut nest = LoopNest::rectangular("n", &[(n / 8) as i64]);
        nest.add_ref(a, AffineExpr::var(0, 8), Access::Read);
        let id = p.add_nest(nest);
        (p, id)
    }

    #[test]
    fn bank_distance_objective_sets_alpha_to_one() {
        let (p, id) = stream(1 << 16);
        let opts = MappingOptions {
            shared_objective: SharedObjective::BankDistance,
            ..shared_options()
        };
        let c = Compiler::builder(Platform::paper_default()).options(opts).build().unwrap();
        let m = c.map_nest(&p, id, &DataEnv::new());
        assert!(m.alphas.iter().all(|&a| (a - 1.0).abs() < 1e-12));
    }

    #[test]
    fn paper_alpha_blend_uses_hit_fraction() {
        let (p, id) = stream(1 << 16);
        let opts = MappingOptions {
            shared_objective: SharedObjective::PaperAlphaBlend,
            ..shared_options()
        };
        let c = Compiler::builder(Platform::paper_default()).options(opts).build().unwrap();
        let m = c.map_nest(&p, id, &DataEnv::new());
        // A cold 64 B-stride stream misses everywhere: alpha well below 1.
        assert!(m.alphas.iter().all(|&a| a < 0.9), "alphas {:?}", &m.alphas[..3]);
    }

    #[test]
    fn fixed_alpha_overrides_model_in_blend_mode() {
        let (p, id) = stream(1 << 15);
        let opts = MappingOptions {
            shared_objective: SharedObjective::PaperAlphaBlend,
            alpha: AlphaPolicy::Fixed(0.7),
            ..shared_options()
        };
        let c = Compiler::builder(Platform::paper_default()).options(opts).build().unwrap();
        let m = c.map_nest(&p, id, &DataEnv::new());
        assert!(m.alphas.iter().all(|&a| (a - 0.7).abs() < 1e-12));
    }

    #[test]
    fn eta_metric_variants_produce_valid_mappings() {
        let (p, id) = stream(1 << 15);
        for eta in [EtaMetric::L1, EtaMetric::L2, EtaMetric::Cosine] {
            let opts = MappingOptions { eta, ..shared_options() };
            let c = Compiler::builder(Platform::paper_default()).options(opts).build().unwrap();
            let m = c.map_nest(&p, id, &DataEnv::new());
            for (s, &core) in m.assignment.iter().enumerate() {
                assert_eq!(c.platform().regions.region_of(core), m.regions[s], "{eta:?}");
            }
        }
    }

    #[test]
    fn iteration_set_fraction_controls_set_count() {
        let (p, id) = stream(1 << 16);
        for (frac, expect) in [(0.01, 100), (0.0025, 410)] {
            let opts = MappingOptions { iteration_set_fraction: frac, ..shared_options() };
            let c = Compiler::builder(Platform::paper_default()).options(opts).build().unwrap();
            let m = c.map_nest(&p, id, &DataEnv::new());
            assert_eq!(m.sets.len(), expect);
        }
    }
}
