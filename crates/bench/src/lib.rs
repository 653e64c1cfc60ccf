//! Experiment harness for the PLDI'18 reproduction.
//!
//! [`evaluate`] runs one benchmark under one [`Scheme`] on one platform and
//! returns the metrics every figure is built from: on-chip network latency,
//! execution time, runtime overhead, MAI/CAI estimation error, and the
//! fraction of iteration sets moved by load balancing. The `figures`
//! binary in `src/bin` prints the paper's rows and series from loops over
//! this function; [`corun`] is the co-run study's counterpart.
//!
//! Execution-time accounting mirrors the paper's methodology: applications
//! run an outer timing loop (`Workload::timing_iters`); pass 1 runs cold
//! (and, for irregular codes, under the default mapping while the
//! *inspector* profiles it), the remaining passes run warm under the final
//! mapping; inspector overhead cycles are charged in full.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod heal;
pub mod overload;
pub mod resilience;

use locmap_baselines::{hardware_placement, optimize_layout};
use locmap_core::{
    mean_eta, Compiler, Inspector, InspectorCostModel, MappingOptions, NestMapping, OracleModel,
    Platform,
};
use locmap_loopir::{DataEnv, NestId, Program};
use locmap_noc::{LocmapError, RunControl};
use locmap_sim::{run_multiprogram, MultiprogramResult, RunResult, SimConfig, Simulator, Slot};
use locmap_workloads::Workload;
use serde::{Deserialize, Serialize};
use std::panic;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread;

/// Which mapping scheme to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scheme {
    /// The paper's baseline: round-robin iteration sets, location-blind.
    Default,
    /// The paper's contribution ("LA"): compile-time mapping for regular
    /// nests, inspector–executor for irregular ones.
    LocationAware,
    /// Figure 2 / ideal network: default mapping on a zero-latency NoC.
    IdealNetwork,
    /// Figure 15: perfect MAI/CAI/hit knowledge (measured rates, zero
    /// estimation noise, no inspector overhead).
    Oracle,
    /// Figure 14: Das et al. HPCA'13 hardware placement (memory-intensive
    /// sets near MCs, destination-blind).
    Hardware,
    /// Figure 13 "DO": Ding et al. PLDI'15 data-layout optimization with
    /// the default computation mapping.
    LayoutOnly,
    /// Figure 13 "LA+DO": layout optimization first, then location-aware
    /// mapping.
    LayoutPlusLa,
}

/// The metrics of one (benchmark, scheme) evaluation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AppOutcome {
    /// Benchmark name.
    pub name: String,
    /// Baseline (default mapping) execution cycles over the timing loop.
    pub base_cycles: u64,
    /// Scheme execution cycles (including any runtime overhead).
    pub opt_cycles: u64,
    /// Baseline average on-chip network latency (warm pass).
    pub base_latency: f64,
    /// Scheme average on-chip network latency (warm pass).
    pub opt_latency: f64,
    /// Inspector overhead in cycles (0 for compile-time schemes).
    pub overhead_cycles: u64,
    /// Mean η between predicted and observed (normalized) MAI.
    pub mai_error: f64,
    /// Mean η between predicted and observed (normalized) CAI.
    pub cai_error: f64,
    /// Fraction of iteration sets moved by load balancing.
    pub frac_moved: f64,
}

impl AppOutcome {
    /// % reduction in on-chip network latency (positive = better).
    pub fn net_reduction_pct(&self) -> f64 {
        if self.base_latency == 0.0 {
            0.0
        } else {
            100.0 * (self.base_latency - self.opt_latency) / self.base_latency
        }
    }

    /// % reduction in execution time (positive = better).
    pub fn exec_improvement_pct(&self) -> f64 {
        if self.base_cycles == 0 {
            0.0
        } else {
            100.0 * (self.base_cycles as f64 - self.opt_cycles as f64) / self.base_cycles as f64
        }
    }

    /// Runtime overhead as % of the scheme's execution time (Figures
    /// 7c/8c).
    pub fn overhead_pct(&self) -> f64 {
        if self.opt_cycles == 0 {
            0.0
        } else {
            100.0 * self.overhead_cycles as f64 / self.opt_cycles as f64
        }
    }
}

/// One experiment configuration: platform + simulator timing + mapping
/// options.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Platform description handed to both the compiler and the simulator.
    pub platform: Platform,
    /// Simulator timing.
    pub sim: SimConfig,
    /// Mapping-pass options.
    pub opts: MappingOptions,
}

impl Experiment {
    /// The paper's default platform/simulator/options with the given LLC
    /// organization: the compiler and session builders' defaults, which
    /// map for the simulator's default (scaled) hierarchy.
    pub fn paper_default(llc: locmap_core::LlcOrg) -> Self {
        let sim = SimConfig::default();
        let platform = Platform::paper_default_with(llc);
        let opts = MappingOptions::for_machine(&platform, sim.l1, sim.l2_bank);
        Experiment { platform, sim, opts }
    }

    /// Replaces the simulator config, keeping CME consistent.
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self.opts = MappingOptions::for_machine(&self.platform, sim.l1, sim.l2_bank);
        self
    }
}

fn all_nests(program: &Program) -> Vec<NestId> {
    program.nest_ids().collect()
}

/// Runs every nest of `program` once (one timing-loop pass); returns total
/// barrier cycles and the merged run results per nest.
fn run_pass(
    sim: &mut Simulator,
    program: &Program,
    mappings: &[NestMapping],
    data: &DataEnv,
) -> (u64, Vec<RunResult>) {
    let mut cycles = 0;
    let mut results = Vec::with_capacity(mappings.len());
    for m in mappings {
        let r = sim.run_nest(program, m, data);
        cycles += r.cycles;
        results.push(r);
    }
    (cycles, results)
}

fn warm_latency(results: &[RunResult]) -> f64 {
    let (lat, msgs) = results.iter().fold((0u64, 0u64), |(l, m), r| {
        (l + r.network.total_latency, m + r.network.messages)
    });
    if msgs == 0 {
        0.0
    } else {
        lat as f64 / msgs as f64
    }
}

/// True for the schemes that map irregular nests with the inspector.
fn inspects(scheme: Scheme) -> bool {
    matches!(scheme, Scheme::LocationAware | Scheme::LayoutPlusLa)
}

/// The scheme's per-nest mappings for `program` as far as they can be
/// built without running anything; `profile` is consulted only by Oracle
/// and Hardware, which map every nest from the default-mapping pass. The
/// inspector schemes' irregular nests keep the compile-time default
/// schedule with `needs_inspector` set until [`inspect`] replaces it.
fn plan(
    scheme: Scheme,
    compiler: &Compiler,
    program: &Program,
    data: &DataEnv,
    defaults: &[NestMapping],
    profile: impl FnOnce() -> Vec<RunResult>,
) -> Vec<NestMapping> {
    let nests = all_nests(program);
    match scheme {
        Scheme::Default | Scheme::IdealNetwork | Scheme::LayoutOnly => defaults.to_vec(),
        Scheme::LocationAware | Scheme::LayoutPlusLa => {
            // The compile-time pass must not see runtime index-array
            // contents — that is exactly the knowledge gap the
            // inspector–executor exists to close.
            let compile_time_view = DataEnv::new();
            nests.iter().map(|&nid| compiler.map_nest(program, nid, &compile_time_view)).collect()
        }
        Scheme::Oracle => {
            let profile = profile();
            nests
                .iter()
                .map(|&nid| {
                    let oracle = OracleModel(profile[nid.0 as usize].measured.clone());
                    compiler
                        .map_nest_with_model(program, nid, data, &oracle, &RunControl::unlimited())
                        .expect("an unlimited RunControl never aborts")
                })
                .collect()
        }
        Scheme::Hardware => {
            let profile = profile();
            nests
                .iter()
                .map(|&nid| {
                    let d = &defaults[nid.0 as usize];
                    let prof = &profile[nid.0 as usize];
                    // Intensity = observed per-set miss (MAI) mass.
                    let intensity: Vec<f64> =
                        prof.observed_mai.iter().map(|v| v.mass()).collect();
                    hardware_placement(compiler.platform(), nid, &d.sets, &intensity)
                })
                .collect()
        }
    }
}

/// Replaces every mapping that needs the inspector with the inspector's,
/// profiled with `profile` (the default-mapping pass), and returns the
/// inspector's overhead cycles.
fn inspect(
    mappings: &mut [NestMapping],
    compiler: &Compiler,
    program: &Program,
    data: &DataEnv,
    profile: &[RunResult],
) -> u64 {
    let inspector = Inspector::new(compiler, InspectorCostModel::default());
    let mut overhead = 0;
    for (i, m) in mappings.iter_mut().enumerate() {
        if m.needs_inspector {
            let rep = inspector.run(program, NestId(i as u32), data, &profile[i].measured);
            overhead += rep.overhead_cycles;
            *m = rep.mapping;
        }
    }
    overhead
}

/// The baseline arm of [`evaluate`]: a cold pass and a warm pass under the
/// default mapping. The cold pass's results go to `profile` as soon as it
/// ends, for the scheme arm to plan from. Returns the baseline's cycles
/// over the timing loop and its warm-pass network latency.
fn baseline_arm(
    exp: &Experiment,
    program: &Program,
    defaults: &[NestMapping],
    data: &DataEnv,
    timing: u64,
    profile: Sender<Vec<RunResult>>,
) -> (u64, f64) {
    let mut sim = build_sim(exp, exp.sim);
    let (cold, cold_res) = run_pass(&mut sim, program, defaults, data);
    // A send fails only when the scheme arm has panicked; its panic is
    // the one `evaluate` reports.
    if timing == 1 {
        let latency = warm_latency(&cold_res);
        let _ = profile.send(cold_res);
        return (cold, latency);
    }
    let _ = profile.send(cold_res);
    let (warm, warm_res) = run_pass(&mut sim, program, defaults, data);
    (cold + (timing - 1) * warm, warm_latency(&warm_res))
}

/// What the scheme arm of [`evaluate`] ran and measured.
struct SchemeRun {
    /// The final per-nest mappings.
    mappings: Vec<NestMapping>,
    /// Inspector overhead cycles.
    overhead: u64,
    /// Cycles over the timing loop, overhead included.
    cycles: u64,
    /// The steady-state pass.
    warm: Vec<RunResult>,
}

/// The scheme arm of [`evaluate`]: plans `program`, runs pass 1, lets the
/// inspector remap, then runs the rewarm and warm passes. `cold_rx`
/// yields the baseline's cold pass; only the profile-driven planners wait
/// for it.
#[allow(clippy::too_many_arguments)]
fn scheme_arm(
    scheme: Scheme,
    exp: &Experiment,
    compiler: &Compiler,
    program: &Program,
    data: &DataEnv,
    defaults: &[NestMapping],
    timing: u64,
    cold_rx: &Receiver<Vec<RunResult>>,
) -> SchemeRun {
    let base_cold = || cold_rx.recv().expect("the baseline arm panicked before its cold pass");
    let nests = all_nests(program);
    let sim_cfg = if scheme == Scheme::IdealNetwork {
        SimConfig { noc: locmap_noc::NocConfig::ideal(), ..exp.sim }
    } else {
        exp.sim
    };
    let new_sim = || build_sim(exp, sim_cfg);
    let mut mappings = plan(scheme, compiler, program, data, defaults, base_cold);

    // Pass 1: irregular nests execute the default mapping while the
    // inspector observes; regular nests already run optimized. With a
    // single timing iteration nothing reads it: the measurement runs on a
    // fresh machine below.
    let mut opt_sim = new_sim();
    let mut opt_cold = 0;
    if timing > 1 {
        for &nid in &nests {
            let i = nid.0 as usize;
            let m = if inspects(scheme) && program.nest(nid).is_irregular() {
                &defaults[i]
            } else {
                &mappings[i]
            };
            opt_cold += opt_sim.run_nest(program, m, data).cycles;
        }
    }

    // Profiling (what the inspector observes during timing iteration 1)
    // must see the layout the executor will run on: for LA+DO that is the
    // re-laid program, so profile it on a machine of its own.
    let uses_inspector = inspects(scheme) && mappings.iter().any(|m| m.needs_inspector);
    let overhead = if uses_inspector {
        let profile = if scheme == Scheme::LayoutPlusLa {
            run_pass(&mut new_sim(), program, defaults, data).1
        } else {
            base_cold()
        };
        inspect(&mut mappings, compiler, program, data, &profile)
    } else {
        0
    };

    // When the mapping switches after pass 1 (inspector schemes), the
    // caches hold data placed for the *default* mapping: run one rewarm
    // pass, then measure steady state. Execution accounting charges the
    // rewarm as a real timing iteration (its cost is genuinely paid);
    // latency metrics come from the steady-state pass of both schemes so
    // the comparison is symmetric.
    let rewarm = if uses_inspector && timing > 1 {
        Some(run_pass(&mut opt_sim, program, &mappings, data).0)
    } else {
        None
    };
    let (opt_warm, warm) = if timing > 1 {
        run_pass(&mut opt_sim, program, &mappings, data)
    } else {
        // Single-pass programs: the scheme pass *is* the measurement; run
        // on a fresh machine for metric collection.
        run_pass(&mut new_sim(), program, &mappings, data)
    };
    let cycles = match (timing > 1, rewarm) {
        // pass1 (default, profiled) + rewarm pass + steady passes.
        (true, Some(rewarm)) => opt_cold + rewarm + timing.saturating_sub(2) * opt_warm,
        (true, None) => opt_cold + (timing - 1) * opt_warm,
        (false, _) => opt_warm,
    } + overhead;
    SchemeRun { mappings, overhead, cycles, warm }
}

/// A fresh machine of `exp`'s platform with timing `cfg`.
fn build_sim(exp: &Experiment, cfg: SimConfig) -> Simulator {
    Simulator::builder(exp.platform.clone()).config(cfg).build().unwrap()
}

/// Evaluates `workload` under `scheme` in `exp`, returning both baseline
/// and scheme metrics.
///
/// The baseline and scheme arms simulate separate machines, so they run
/// on two threads: the baseline on a scoped thread, the scheme on the
/// caller's. The only thing they share is the baseline's cold pass, which
/// the inspector, the oracle and hardware placement profile; it crosses
/// over a channel as soon as it ends. Each arm is single-threaded, so the
/// outcome is the same as running the passes one after another.
pub fn evaluate(workload: &Workload, exp: &Experiment, scheme: Scheme) -> AppOutcome {
    let data = &workload.data;
    let timing = workload.timing_iters.max(1) as u64;

    // The baseline always runs the *original* program under the default
    // mapping; layout schemes additionally build a re-laid copy that only
    // the scheme side executes (DO changes data placement, not the
    // baseline the paper compares against).
    let relaid;
    let program = if matches!(scheme, Scheme::LayoutOnly | Scheme::LayoutPlusLa) {
        let mut p = workload.program.clone();
        optimize_layout(&mut p, &exp.platform, data, 8);
        relaid = p;
        &relaid
    } else {
        &workload.program
    };

    let compiler = Compiler::builder(exp.platform.clone()).options(exp.opts).build().unwrap();
    let defaults: Vec<NestMapping> =
        all_nests(program).iter().map(|&n| compiler.default_mapping(program, n)).collect();

    let (cold_tx, cold_rx) = mpsc::channel();
    let ((base_cycles, base_latency), run) = thread::scope(|s| {
        let base =
            s.spawn(|| baseline_arm(exp, &workload.program, &defaults, data, timing, cold_tx));
        let run = scheme_arm(scheme, exp, &compiler, program, data, &defaults, timing, &cold_rx);
        (base.join().unwrap_or_else(|p| panic::resume_unwind(p)), run)
    });

    // ---- Estimation-error metrics (predicted vs observed affinity).
    let mut mai_err_sum = 0.0;
    let mut cai_err_sum = 0.0;
    let mut err_nests = 0usize;
    let mut moved = 0usize;
    let mut total_sets = 0usize;
    for (i, m) in run.mappings.iter().enumerate() {
        moved += m.balance.moved;
        total_sets += m.balance.total;
        if m.mai.is_empty() {
            continue;
        }
        let obs = &run.warm[i];
        let pred_mai: Vec<_> = m.mai.iter().map(|v| v.clone().normalized()).collect();
        let obs_mai: Vec<_> = obs.observed_mai.iter().map(|v| v.clone().normalized()).collect();
        if pred_mai.len() == obs_mai.len() {
            mai_err_sum += mean_eta(&pred_mai, &obs_mai);
            if !m.cai.is_empty() {
                let pred_cai: Vec<_> = m.cai.iter().map(|v| v.clone().normalized()).collect();
                let obs_cai: Vec<_> =
                    obs.observed_cai.iter().map(|v| v.clone().normalized()).collect();
                cai_err_sum += mean_eta(&pred_cai, &obs_cai);
            }
            err_nests += 1;
        }
    }

    AppOutcome {
        name: workload.name.to_string(),
        base_cycles,
        opt_cycles: run.cycles,
        base_latency,
        opt_latency: warm_latency(&run.warm),
        overhead_cycles: run.overhead,
        mai_error: if err_nests == 0 { 0.0 } else { mai_err_sum / err_nests as f64 },
        cai_error: if err_nests == 0 { 0.0 } else { cai_err_sum / err_nests as f64 },
        frac_moved: if total_sets == 0 { 0.0 } else { moved as f64 / total_sets as f64 },
    }
}

/// Co-runs nest 0 of every app in `apps` together on one machine, once
/// under the default mapping and once under the location-aware one, and
/// returns `(baseline, optimized)`. Like [`evaluate`], it maps with
/// `exp.opts` and simulates `exp.sim` on `exp.platform`. The optimized
/// arm maps irregular apps with their own index data: the knowledge the
/// inspector would have gathered. The two arms share nothing, so the
/// baseline runs on a scoped thread while the caller's runs the optimized
/// arm.
pub fn corun(
    apps: &[Workload],
    exp: &Experiment,
) -> Result<(MultiprogramResult, MultiprogramResult), LocmapError> {
    let compiler = Compiler::builder(exp.platform.clone()).options(exp.opts).build()?;
    let run = |optimized: bool| -> Result<MultiprogramResult, LocmapError> {
        let mappings: Vec<NestMapping> = apps
            .iter()
            .map(|w| {
                if optimized {
                    compiler.map_nest(&w.program, NestId(0), &w.data)
                } else {
                    compiler.default_mapping(&w.program, NestId(0))
                }
            })
            .collect();
        let mut sim = Simulator::builder(exp.platform.clone()).config(exp.sim).build()?;
        let slots: Vec<Slot<'_>> = apps
            .iter()
            .zip(&mappings)
            .map(|(w, m)| Slot { program: &w.program, mapping: m, data: &w.data })
            .collect();
        Ok(run_multiprogram(&mut sim, &slots))
    };
    let (base, opt) = thread::scope(|s| {
        let base = s.spawn(|| run(false));
        let opt = run(true);
        (base.join().unwrap_or_else(|p| panic::resume_unwind(p)), opt)
    });
    Ok((base?, opt?))
}

/// Builds the benchmark set a harness binary should run: all 21 by
/// default, or the comma-separated subset named in `LOCMAP_APPS` (useful
/// for the parameter sweeps, which multiply every benchmark by many
/// configurations).
pub fn selected_apps(scale: locmap_workloads::Scale) -> Vec<Workload> {
    match std::env::var("LOCMAP_APPS") {
        Ok(list) if !list.trim().is_empty() => list
            .split(',')
            .map(|n| locmap_workloads::build(n.trim(), scale))
            .collect(),
        _ => locmap_workloads::build_all(scale),
    }
}

/// The aggregate of percentage reductions `p = 100·(1 − opt/base)`: the
/// reduction that the geometric mean of the `opt/base` ratios gives,
/// `100·(1 − geomean(1 − p/100))`. A loss (`p < 0`) is a ratio above 1,
/// so it counts as a loss, whatever its size. Every value must be below
/// 100 (a ratio above 0); the empty slice gives 0.
pub fn geomean_pct(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s: f64 = values.iter().map(|&p| (1.0 - p / 100.0).ln()).sum();
    100.0 * (1.0 - (s / values.len() as f64).exp())
}

/// Formats a header + row table to stdout (shared by the harness bins).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    println!("{}", header.join("\t"));
    for r in rows {
        println!("{}", r.join("\t"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmap_core::LlcOrg;
    use locmap_sim::{knl_platform, KnlMode};
    use locmap_workloads::{build, Scale};

    /// Every path that maps for the default machine gets one set of
    /// options: the builders' defaults, `paper_default`'s, and the KNL
    /// platform's, all sized for the caches `SimConfig::default` simulates.
    #[test]
    fn the_default_machine_has_one_set_of_mapping_options() {
        let sim = SimConfig::default();
        assert_eq!(sim.l1, locmap_mem::CacheConfig::scaled_l1());
        assert_eq!(sim.l2_bank, locmap_mem::CacheConfig::scaled_l2_bank());
        for llc in [LlcOrg::SharedSNuca, LlcOrg::Private] {
            let exp = Experiment::paper_default(llc);
            let compiler = Compiler::builder(exp.platform.clone()).build().unwrap();
            assert_eq!(compiler.options(), exp.opts, "{llc:?} compiler");
            let session = locmap_core::MappingSession::builder(exp.platform).build().unwrap();
            assert_eq!(session.compiler().options(), exp.opts, "{llc:?} session");
        }
        let shared = Experiment::paper_default(LlcOrg::SharedSNuca).opts;
        for mode in [KnlMode::AllToAll, KnlMode::Quadrant, KnlMode::Snc4] {
            let knl = MappingOptions::for_machine(&knl_platform(mode), sim.l1, sim.l2_bank);
            assert_eq!(knl, shared, "{mode:?}");
        }
    }

    #[test]
    fn geomean_basics() {
        let close = |got: f64, want: f64| assert!((got - want).abs() < 1e-9, "{got} != {want}");
        close(geomean_pct(&[4.0, 4.0]), 4.0);
        // Ratios 0.5 and 0.98: geomean 0.7, a 30% reduction.
        close(geomean_pct(&[50.0, 2.0]), 30.0);
        // A loss stays a loss, and a gain below 0.1 stays that small.
        close(geomean_pct(&[-8.7]), -8.7);
        close(geomean_pct(&[0.05]), 0.05);
        // Halving one app's time and doubling another's cancel out.
        close(geomean_pct(&[50.0, -100.0]), 0.0);
        assert_eq!(geomean_pct(&[]), 0.0);
    }

    /// A workload hand-built so that location-awareness must pay off even
    /// at test scale: each iteration block streams one page-aligned chunk
    /// (every access a fresh cache line), so every set has a single-MC MAI
    /// and the default round-robin mapping scatters them maximally.
    fn structured_stream() -> Workload {
        use locmap_loopir::{Access, AffineExpr, LoopNest, Program};
        let mut p = Program::new("structured");
        let elems = 1u64 << 18; // 2 MiB, 1024 pages
        let a = p.add_array("A", 8, elems);
        // Stride-8 (64 B): one access per line, maximal traffic.
        let n = (elems / 8) as i64;
        let mut nest = LoopNest::rectangular("scan", &[n]).work(24);
        nest.add_ref(a, AffineExpr::var(0, 8), Access::Read);
        p.add_nest(nest);
        Workload {
            name: "structured",
            program: p,
            data: locmap_loopir::DataEnv::new(),
            irregular: false,
            timing_iters: 1,
            table3: locmap_workloads::Table3Info::default(),
        }
    }

    #[test]
    fn evaluate_structured_location_aware_beats_default_private() {
        let w = structured_stream();
        let exp = Experiment::paper_default(LlcOrg::Private);
        let out = evaluate(&w, &exp, Scheme::LocationAware);
        assert!(out.base_cycles > 0 && out.opt_cycles > 0);
        assert!(
            out.net_reduction_pct() > 10.0,
            "expected >10% latency reduction, got {:.2}% (base {:.1}, opt {:.1})",
            out.net_reduction_pct(),
            out.base_latency,
            out.opt_latency
        );
        assert!(out.exec_improvement_pct() > 0.0);
    }

    #[test]
    fn evaluate_mxm_pipeline_mechanics() {
        let w = build("mxm", Scale::new(0.3));
        let exp = Experiment::paper_default(LlcOrg::Private);
        let out = evaluate(&w, &exp, Scheme::LocationAware);
        assert!(out.base_cycles > 0 && out.opt_cycles > 0);
        assert!(out.base_latency > 0.0 && out.opt_latency > 0.0);
        assert_eq!(out.overhead_cycles, 0, "regular app needs no inspector");
        assert!(out.frac_moved <= 1.0);
    }

    #[test]
    fn evaluate_irregular_charges_overhead() {
        let w = build("moldyn", Scale::new(0.3));
        let exp = Experiment::paper_default(LlcOrg::SharedSNuca);
        let out = evaluate(&w, &exp, Scheme::LocationAware);
        assert!(out.overhead_cycles > 0, "inspector must cost something");
        assert!(out.overhead_pct() < 50.0, "overhead {}% absurd", out.overhead_pct());
    }

    #[test]
    fn a_panic_in_either_arm_reaches_the_caller() {
        // Without its index arrays, moldyn's irregular references cannot
        // resolve, so the baseline's cold pass panics. Oracle and Hardware
        // wait for that pass: they must see the panic, not hang.
        let mut w = build("moldyn", Scale::new(0.1));
        w.data = DataEnv::new();
        let exp = Experiment::paper_default(LlcOrg::Private);
        for scheme in [Scheme::Oracle, Scheme::Hardware, Scheme::LocationAware, Scheme::Default] {
            let out = std::panic::catch_unwind(|| evaluate(&w, &exp, scheme));
            assert!(out.is_err(), "{scheme:?} returned despite a panicking arm");
        }
    }

    #[test]
    fn ideal_network_is_upper_bound() {
        let w = build("mxm", Scale::new(0.3));
        let exp = Experiment::paper_default(LlcOrg::Private);
        let la = evaluate(&w, &exp, Scheme::LocationAware);
        let ideal = evaluate(&w, &exp, Scheme::IdealNetwork);
        assert!(
            ideal.exec_improvement_pct() >= la.exec_improvement_pct() - 1.0,
            "ideal {:.2}% vs LA {:.2}%",
            ideal.exec_improvement_pct(),
            la.exec_improvement_pct()
        );
    }
}
