//! `Compiler::map_nest` replayed phase by phase through the crates' public
//! functions, so each phase gets its own span.
//!
//! The replay follows the fault-free path of `Compiler::map_nest` call for
//! call; the traced runs compare its result with a direct `map_nest`, so a
//! change to the compiler that the replay does not mirror fails the run
//! instead of skewing the per-phase times.

use crate::trace::Tracer;
use crate::LayerMetrics;
use locmap_cme::CmeEstimator;
use locmap_core::{
    assign_private, assign_shared, balance_regions, compute_cai, compute_cai_reaching, compute_mai,
    place_in_regions, AffinityInputs, AffinityVec, AllMissModel, AlphaPolicy, BalanceReport,
    CmeModel, Compiler, HitModel, LlcOrg, NestMapping, SharedObjective,
};
use locmap_loopir::{DataEnv, IterationSpace, LoopNest, NestId, Program, RefKind};
use locmap_noc::RegionId;

/// The per-phase span names, in pipeline order.
pub const PHASES: [&str; 6] = [
    "loopir.enumerate",
    "cme.estimate",
    "core.affinity",
    "core.assign",
    "core.balance",
    "core.place",
];

/// Whether compile time can resolve every reference of `nest` given `data`.
fn resolvable(nest: &LoopNest, data: &DataEnv) -> bool {
    !nest.is_irregular()
        || nest.refs.iter().all(|r| match &r.kind {
            RefKind::Affine(_) => true,
            RefKind::Indirect { index_array, .. } => data.has(*index_array),
        })
}

/// Maps `nest_id` like `compiler.map_nest(program, nest_id, data)`, one
/// span per phase.
///
/// # Panics
///
/// Panics on a degraded compiler: the benchmark maps fault-free only.
pub fn map_nest_phased(
    compiler: &Compiler,
    program: &Program,
    nest_id: NestId,
    data: &DataEnv,
    t: &mut Tracer,
) -> NestMapping {
    assert!(
        !compiler.is_degraded(),
        "the phase replay covers fault-free mapping only"
    );
    let opts = compiler.options();
    let platform = compiler.platform();
    let nest = program.nest(nest_id);
    let (space, sets) = t.span("loopir.enumerate", |_| {
        let space = IterationSpace::enumerate(nest, &program.params());
        let sets = space.split_by_fraction(opts.iteration_set_fraction);
        (space, sets)
    });
    if !resolvable(nest, data) {
        let mapping = compiler.round_robin_schedule(nest_id, &sets);
        return NestMapping {
            needs_inspector: true,
            ..mapping
        };
    }

    let model: Box<dyn HitModel> = if opts.use_cme {
        let estimate = t.span("cme.estimate", |_| {
            CmeEstimator::new(opts.cme).estimate(program, nest, &space, &sets, data)
        });
        Box::new(CmeModel::new(estimate))
    } else {
        Box::new(AllMissModel)
    };
    let model = model.as_ref();
    let inputs = AffinityInputs {
        program,
        nest,
        space: &space,
        sets: &sets,
        data,
        sample_stride: opts.analysis_sample_stride,
    };
    let normalized = |v: &[AffinityVec]| -> Vec<AffinityVec> {
        v.iter().map(|x| x.clone().normalized()).collect()
    };

    let mai = t.span("core.affinity", |_| compute_mai(&inputs, platform, model));
    let mai_n = normalized(&mai);
    let (cai, cai_n, alphas, mut regions) = match platform.llc {
        LlcOrg::Private => {
            let regions = t.span("core.assign", |_| {
                assign_private(&mai_n, compiler.mac(), opts.eta)
            });
            (Vec::new(), Vec::new(), Vec::new(), regions)
        }
        LlcOrg::SharedSNuca => {
            let cai = t.span("core.affinity", |_| match opts.shared_objective {
                SharedObjective::BankDistance => compute_cai_reaching(&inputs, platform, model),
                SharedObjective::PaperAlphaBlend => compute_cai(&inputs, platform, model),
            });
            let cai_n = normalized(&cai);
            let nrefs = nest.refs.len();
            let alphas: Vec<f64> = sets
                .iter()
                .map(|s| match (opts.shared_objective, opts.alpha) {
                    (SharedObjective::BankDistance, AlphaPolicy::FromHits) => 1.0,
                    (_, AlphaPolicy::FromHits) => model.alpha(s.id, nrefs),
                    (_, AlphaPolicy::Fixed(a)) => a,
                })
                .collect();
            let regions = t.span("core.assign", |_| {
                assign_shared(
                    &mai_n,
                    &cai_n,
                    compiler.mac(),
                    compiler.cac(),
                    &alphas,
                    opts.eta,
                )
            });
            (cai, cai_n, alphas, regions)
        }
    };

    let balance = if opts.balance {
        let cost = |s: usize, r: RegionId| -> f64 {
            let eta_m = mai_n[s].eta_with(compiler.mac().of(r), opts.eta);
            match platform.llc {
                LlcOrg::Private => eta_m,
                LlcOrg::SharedSNuca => {
                    let eta_c = cai_n[s].eta_with(compiler.cac().of(r), opts.eta);
                    alphas[s] * eta_c + (1.0 - alphas[s]) * eta_m
                }
            }
        };
        t.span("core.balance", |_| {
            balance_regions(&mut regions, &platform.regions, &cost)
        })
    } else {
        BalanceReport {
            moved: 0,
            total: sets.len(),
        }
    };
    let assignment = t.span("core.place", |_| {
        place_in_regions(&regions, &platform.regions, opts.placement)
    });

    NestMapping {
        nest: nest_id,
        sets,
        regions,
        assignment,
        balance,
        needs_inspector: false,
        mai,
        cai,
        alphas,
    }
}

/// Seconds the phases of [`map_nest_phased`] took, summed over `t`.
pub fn phase_seconds(t: &Tracer) -> f64 {
    PHASES.iter().map(|p| t.seconds(p)).sum()
}

/// Records each phase's seconds as `<phase>_s`, and `core.map_other_s`:
/// the time of the direct `Compiler::map_nest` calls (spans named
/// `core.map_nest`) minus the phases.
pub fn record_phases(t: &Tracer, m: &mut LayerMetrics) {
    for p in PHASES {
        m.set(&format!("{p}_s"), t.seconds(p));
    }
    m.set(
        "core.map_other_s",
        t.seconds("core.map_nest") - phase_seconds(t),
    );
}
