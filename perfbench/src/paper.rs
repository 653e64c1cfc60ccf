//! The `paper-private-irregular` workload: the paper's location-aware
//! evaluation of three apps on private LLCs.
//!
//! The untraced run times `locmap_bench::evaluate`. The traced run replays
//! the same sequence through the crates' public calls, one span per call,
//! and must reproduce `evaluate`'s `AppOutcome` field for field.

use crate::kernels::{self, KernelSizes};
use crate::mapper::{map_nest_phased, phase_seconds, record_phases};
use crate::report::{mean, ratio, Outcome};
use crate::trace::Tracer;
use crate::{Args, LayerMetrics, SetupTimer};
use locmap_bench::{evaluate, AppOutcome, Experiment, Scheme};
use locmap_core::{mean_eta, Compiler, Inspector, InspectorCostModel, LlcOrg, NestMapping};
use locmap_loopir::{DataEnv, NestId, Program};
use locmap_sim::{RunResult, Simulator};
use locmap_verify::{VerifyConfig, VerifyMapping};
use locmap_workloads::{Scale, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Three apps evaluated on one LLC organization.
#[derive(Debug, Clone, Copy)]
pub struct PaperSet {
    /// Benchmark names.
    pub apps: [&'static str; 3],
    /// LLC organization of the simulated machine.
    pub llc: LlcOrg,
}

/// `paper-private-irregular`: private LLCs halve the traffic and send
/// half of it to DRAM; the irregular nests run the inspector, and radix's
/// scattered writes drive the directory.
pub const PRIVATE_IRREGULAR: PaperSet = PaperSet {
    apps: ["moldyn", "radix", "barnes"],
    llc: LlcOrg::Private,
};

/// The workloads and the experiment they run in.
#[derive(Debug)]
pub struct PaperInputs {
    /// The apps, in the order of [`PaperSet::apps`].
    pub apps: Vec<Workload>,
    /// Platform, simulator timing and mapping options.
    pub exp: Experiment,
}

/// Builds `set` at `scale`. The apps are the paper's fixed instances, so
/// no seed enters: even their order is fixed, because the order in which
/// the allocator sees them moves `peak_rss_mb` by a tenth.
pub fn build_inputs(set: &PaperSet, scale: f64, t: &mut Tracer) -> PaperInputs {
    let apps = set
        .apps
        .iter()
        .map(|&n| {
            t.span("workloads.build", |_| {
                locmap_workloads::build(n, Scale::new(scale))
            })
        })
        .collect();
    PaperInputs {
        apps,
        exp: Experiment::paper_default(set.llc),
    }
}

/// Simulated totals of one side (baseline or location-aware) over every
/// pass it ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Side {
    /// Simulated cycles, summed over passes.
    pub cycles: u64,
    /// Memory references issued (every one looks up an L1).
    pub accesses: u64,
    /// NoC messages.
    pub messages: u64,
    /// Links traversed by those messages.
    pub hops: u64,
    /// Cycles messages waited for a busy link.
    pub queue_cycles: u64,
    /// Injection-to-delivery cycles of those messages.
    pub net_latency: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// LLC lookups and hits.
    pub llc_lookups: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// DRAM requests.
    pub dram_requests: u64,
    /// DRAM requests that hit an open row.
    pub dram_row_hits: u64,
    /// DRAM service cycles.
    pub dram_latency: u64,
    /// Coherence invalidations.
    pub invalidations: u64,
    /// Mean busy cycles per used link, summed over the side's simulators.
    pub link_busy: f64,
}

impl Side {
    fn add(&mut self, r: &RunResult) {
        self.cycles += r.cycles;
        self.accesses += r.l1.hits + r.l1.misses;
        self.messages += r.network.messages;
        self.hops += r.network.total_hops;
        self.queue_cycles += r.network.total_queue_cycles;
        self.net_latency += r.network.total_latency;
        self.l1_hits += r.l1.hits;
        self.llc_lookups += r.l2.hits + r.l2.misses;
        self.llc_hits += r.l2.hits;
        self.dram_requests += r.dram.requests;
        self.dram_row_hits += r.dram.row_hits;
        self.dram_latency += r.dram.total_latency;
        self.invalidations += r.invalidations;
    }

    fn add_links(&mut self, sim: &Simulator) {
        self.link_busy += sim.net_util().1;
    }

    /// Writes this side's simulated metrics with suffix `.base` or `.la`.
    pub fn record(&self, m: &mut LayerMetrics, suffix: &str) {
        let msgs = self.messages as f64;
        let mut set = |name: &str, v: f64| m.set(&format!("{name}.{suffix}"), v);
        set("sim.accesses", self.accesses as f64);
        set("noc.messages", msgs);
        set("noc.hops_per_msg", ratio(self.hops as f64, msgs));
        set(
            "noc.queue_cycles_per_msg",
            ratio(self.queue_cycles as f64, msgs),
        );
        set("noc.latency_cycles", ratio(self.net_latency as f64, msgs));
        set("noc.link_util", ratio(self.link_busy, self.cycles as f64));
        set(
            "mem.l1.hit_rate",
            ratio(self.l1_hits as f64, self.accesses as f64),
        );
        set(
            "mem.llc.hit_rate",
            ratio(self.llc_hits as f64, self.llc_lookups as f64),
        );
        set("mem.dram.requests", self.dram_requests as f64);
        set(
            "mem.dram.row_hit_frac",
            ratio(self.dram_row_hits as f64, self.dram_requests as f64),
        );
        set(
            "mem.dram.latency_cycles",
            ratio(self.dram_latency as f64, self.dram_requests as f64),
        );
        set("mem.dir.invalidations", self.invalidations as f64);
    }
}

/// What the replay of one `evaluate` call produced.
#[derive(Debug)]
pub struct Replay {
    /// Must equal `evaluate`'s result field for field.
    pub outcome: AppOutcome,
    /// The compile-time mapping of every nest, as the phase replay built it.
    pub compile_time: Vec<NestMapping>,
    /// The mapping each nest finally ran under (the inspector's for
    /// irregular nests).
    pub executed: Vec<NestMapping>,
}

/// Runs every mapping once on `sim`: one timing-loop pass.
fn run_pass<'a>(
    t: &mut Tracer,
    sim: &mut Simulator,
    program: &Program,
    mappings: impl IntoIterator<Item = &'a NestMapping>,
    data: &DataEnv,
    side: &mut Side,
) -> (u64, Vec<RunResult>) {
    let mut cycles = 0;
    let mut results = Vec::new();
    for m in mappings {
        let r = t.span("sim.run_nest", |_| sim.run_nest(program, m, data));
        side.add(&r);
        cycles += r.cycles;
        results.push(r);
    }
    (cycles, results)
}

fn warm_latency(results: &[RunResult]) -> f64 {
    let (lat, msgs) = results.iter().fold((0u64, 0u64), |(l, m), r| {
        (l + r.network.total_latency, m + r.network.messages)
    });
    ratio(lat as f64, msgs as f64)
}

/// `evaluate(w, exp, Scheme::LocationAware)` replayed call for call, with
/// a span around every public call and the simulated totals of both sides
/// added to `base` and `la`.
pub fn replay_evaluate(
    w: &Workload,
    exp: &Experiment,
    t: &mut Tracer,
    base: &mut Side,
    la: &mut Side,
) -> Replay {
    let program = &w.program;
    let data = &w.data;
    let timing = w.timing_iters.max(1) as u64;
    let compiler = Compiler::builder(exp.platform.clone())
        .options(exp.opts)
        .build()
        .expect("the paper platform builds");
    let new_sim = || {
        Simulator::builder(exp.platform.clone())
            .config(exp.sim)
            .build()
            .expect("the paper machine builds")
    };
    let nests: Vec<NestId> = program.nest_ids().collect();
    let defaults: Vec<NestMapping> = nests
        .iter()
        .map(|&n| {
            t.span("core.default_mapping", |_| {
                compiler.default_mapping(program, n)
            })
        })
        .collect();

    // Baseline: cold pass, then warm passes, under the default mapping.
    let mut base_sim = new_sim();
    let (base_cold, base_cold_res) = run_pass(t, &mut base_sim, program, &defaults, data, base);
    let (base_warm, base_warm_res) = if timing > 1 {
        run_pass(t, &mut base_sim, program, &defaults, data, base)
    } else {
        (base_cold, base_cold_res.clone())
    };
    base.add_links(&base_sim);
    let base_cycles = base_cold + (timing - 1) * base_warm;

    // Compile time maps regular nests; the inspector maps irregular ones
    // from what the baseline's cold pass observed.
    let inspector = Inspector::new(&compiler, InspectorCostModel::default());
    let compile_view = DataEnv::new();
    let mut overhead = 0;
    let mut compile_time = Vec::with_capacity(nests.len());
    let mut executed = Vec::with_capacity(nests.len());
    for (i, &nid) in nests.iter().enumerate() {
        let m = map_nest_phased(&compiler, program, nid, &compile_view, t);
        let run = if m.needs_inspector {
            let measured = &base_cold_res[i].measured;
            let rep = t.span("core.inspector", |_| {
                inspector.run(program, nid, data, measured)
            });
            overhead += rep.overhead_cycles;
            rep.mapping
        } else {
            m.clone()
        };
        compile_time.push(m);
        executed.push(run);
    }

    // Location-aware side: pass 1 runs irregular nests under the default
    // mapping while the inspector observes, then a rewarm pass when the
    // mapping switched, then the measured steady state.
    let mut opt_sim = new_sim();
    let uses_inspector = nests.iter().any(|&n| program.nest(n).is_irregular());
    let pass1 = nests.iter().enumerate().map(|(i, &n)| {
        if program.nest(n).is_irregular() {
            &defaults[i]
        } else {
            &executed[i]
        }
    });
    let (opt_cold, _) = run_pass(t, &mut opt_sim, program, pass1, data, la);
    let rewarm = (uses_inspector && timing > 1)
        .then(|| run_pass(t, &mut opt_sim, program, &executed, data, la).0);
    let (opt_warm, opt_warm_res) = if timing > 1 {
        run_pass(t, &mut opt_sim, program, &executed, data, la)
    } else {
        let mut sim = new_sim();
        let r = run_pass(t, &mut sim, program, &executed, data, la);
        la.add_links(&sim);
        r
    };
    la.add_links(&opt_sim);
    let opt_cycles = if timing > 1 {
        match rewarm {
            Some(rewarm_cycles) => {
                opt_cold + rewarm_cycles + timing.saturating_sub(2) * opt_warm + overhead
            }
            None => opt_cold + (timing - 1) * opt_warm + overhead,
        }
    } else {
        opt_warm + overhead
    };

    // Estimation error: predicted against observed affinity.
    let (mut mai_err, mut cai_err, mut err_nests, mut moved, mut total_sets) = (0.0, 0.0, 0, 0, 0);
    for (m, obs) in executed.iter().zip(&opt_warm_res) {
        moved += m.balance.moved;
        total_sets += m.balance.total;
        if m.mai.is_empty() {
            continue;
        }
        let norm = |v: &[locmap_core::AffinityVec]| -> Vec<_> {
            v.iter().map(|x| x.clone().normalized()).collect()
        };
        let (pred_mai, obs_mai) = (norm(&m.mai), norm(&obs.observed_mai));
        if pred_mai.len() == obs_mai.len() {
            mai_err += mean_eta(&pred_mai, &obs_mai);
            if !m.cai.is_empty() {
                cai_err += mean_eta(&norm(&m.cai), &norm(&obs.observed_cai));
            }
            err_nests += 1;
        }
    }

    let outcome = AppOutcome {
        name: w.name.to_string(),
        base_cycles,
        opt_cycles,
        base_latency: warm_latency(&base_warm_res),
        opt_latency: warm_latency(&opt_warm_res),
        overhead_cycles: overhead,
        mai_error: ratio(mai_err, err_nests as f64),
        cai_error: ratio(cai_err, err_nests as f64),
        frac_moved: ratio(moved as f64, total_sets as f64),
    };
    Replay {
        outcome,
        compile_time,
        executed,
    }
}

/// Field-for-field, bit-for-bit equality of two outcomes.
pub fn same_outcome(a: &AppOutcome, b: &AppOutcome) -> bool {
    let bits = |o: &AppOutcome| {
        [
            o.base_latency,
            o.opt_latency,
            o.mai_error,
            o.cai_error,
            o.frac_moved,
        ]
        .map(f64::to_bits)
    };
    a.name == b.name
        && a.base_cycles == b.base_cycles
        && a.opt_cycles == b.opt_cycles
        && a.overhead_cycles == b.overhead_cycles
        && bits(a) == bits(b)
}

fn evaluate_guarded(w: &Workload, exp: &Experiment) -> Option<AppOutcome> {
    catch_unwind(|| evaluate(w, exp, Scheme::LocationAware)).ok()
}

/// The untraced run: time `evaluate` on every app, repeatedly for
/// `args.seconds`, then gate every result on the replay.
pub fn run_untraced(set: &PaperSet, args: &Args) -> Outcome {
    // `evaluate` builds its own compiler and simulators; one of each is
    // built here too, so `setup_s` moves when their construction does.
    let mut setup = SetupTimer::new(|| {
        let inputs = build_inputs(set, args.scale, &mut Tracer::disabled());
        let exp = &inputs.exp;
        let compiler = Compiler::builder(exp.platform.clone())
            .options(exp.opts)
            .build();
        let sim = Simulator::builder(exp.platform.clone())
            .config(exp.sim)
            .build();
        drop((
            compiler.expect("the paper platform builds"),
            sim.expect("the paper machine builds"),
        ));
        inputs
    });
    let inputs = setup.batch(0.5);
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut reps: Vec<Vec<Option<AppOutcome>>> = Vec::new();
    // Read after the first pass, so the figure does not depend on how many
    // passes fit in the run.
    let mut peak_rss_mb = 0.0;
    loop {
        let t0 = Instant::now();
        let outs = inputs
            .apps
            .iter()
            .map(|w| evaluate_guarded(w, &inputs.exp))
            .collect();
        walls.push(t0.elapsed().as_secs_f64());
        eprintln!("pass {}: {:.4} s", walls.len(), walls[walls.len() - 1]);
        reps.push(outs);
        if walls.len() == 1 {
            peak_rss_mb = crate::report::peak_rss_mb();
        }
        drop(setup.batch(0.1));
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let (mut base, mut la) = (Side::default(), Side::default());
    let mut t = Tracer::disabled();
    let mut expected: Vec<Option<AppOutcome>> = inputs
        .apps
        .iter()
        .map(|w| {
            catch_unwind(AssertUnwindSafe(|| {
                replay_evaluate(w, &inputs.exp, &mut t, &mut base, &mut la).outcome
            }))
            .ok()
        })
        .collect();
    if args.sabotage {
        if let Some(Some(o)) = expected.first_mut() {
            o.opt_cycles += 1;
        }
    }
    let mut out = Outcome::default();
    for rep in &reps {
        for (got, want) in rep.iter().zip(&expected) {
            out.attempted += 1;
            let ok = matches!((got, want), (Some(g), Some(w)) if same_outcome(g, w));
            out.failed += u64::from(!ok);
        }
    }

    let wall_s = mean(&walls);
    out.push("setup_s", setup.seconds(), "s");
    out.push("wall_s", wall_s, "s");
    out.push("peak_rss_mb", peak_rss_mb, "MB");
    let first: Vec<&AppOutcome> = reps[0].iter().flatten().collect();
    let (sum_base, sum_opt) = first.iter().fold((0.0, 0.0), |(b, o), a| {
        (b + a.base_cycles as f64, o + a.opt_cycles as f64)
    });
    let accesses = (base.accesses + la.accesses) as f64;
    out.push_extra("sim_maccesses_per_s", accesses / wall_s / 1e6, "M/s");
    out.push_extra(
        "exec_improvement_pct",
        100.0 * (1.0 - ratio(sum_opt, sum_base)),
        "%",
    );
    out.push_extra(
        "net_latency_reduction_pct",
        ratio(
            first.iter().map(|a| a.net_reduction_pct()).sum(),
            first.len() as f64,
        ),
        "%",
    );
    out.push_extra("timed_passes", walls.len() as f64, "count");
    out
}

/// Replays `evaluate` on every app under `t`, adding the simulated totals
/// to `base` and `la`. Returns the host seconds it took and each replay,
/// `None` where it panicked.
fn replay_all(
    inputs: &PaperInputs,
    t: &mut Tracer,
    base: &mut Side,
    la: &mut Side,
) -> (f64, Vec<Option<Replay>>) {
    let t0 = Instant::now();
    let mut replays = Vec::new();
    for w in &inputs.apps {
        t.set_owner(w.name);
        let r = catch_unwind(AssertUnwindSafe(|| {
            t.span("bench.evaluate", |t| {
                replay_evaluate(w, &inputs.exp, t, base, la)
            })
        }));
        replays.push(r.ok());
    }
    (t0.elapsed().as_secs_f64(), replays)
}

/// The traced run: one untraced `evaluate` per app for reference, the
/// replay once with spans off and once traced, the `map_nest` and verifier
/// checks, and the host kernels.
pub fn run_traced(set: &PaperSet, args: &Args, t: &mut Tracer) -> (Outcome, LayerMetrics) {
    let inputs = build_inputs(set, args.scale, t);
    let exp = &inputs.exp;
    let mut out = Outcome::default();

    let reference: Vec<Option<AppOutcome>> = inputs
        .apps
        .iter()
        .map(|w| evaluate_guarded(w, exp))
        .collect();

    // The same replay with spans off, before and after the traced one, for
    // `trace.overhead_pct`: their mean cancels a steady drift of host speed.
    let untraced = || {
        let (mut b, mut l) = (Side::default(), Side::default());
        replay_all(&inputs, &mut Tracer::disabled(), &mut b, &mut l).0
    };
    let before_s = untraced();
    let (mut base, mut la) = (Side::default(), Side::default());
    let (traced_s, mut replays) = replay_all(&inputs, t, &mut base, &mut la);
    let untraced_s = (before_s + untraced()) / 2.0;

    if args.sabotage {
        if let Some(Some(r)) = replays.first_mut() {
            r.outcome.opt_cycles += 1;
        }
    }
    for (r, want) in replays.iter().zip(&reference) {
        out.attempted += 1;
        let ok = matches!((r, want), (Some(r), Some(w)) if same_outcome(&r.outcome, w));
        out.failed += u64::from(!ok);
    }

    // The phase replay must compose to exactly what `map_nest` returns.
    let compiler = Compiler::builder(exp.platform.clone())
        .options(exp.opts)
        .build()
        .expect("the paper platform builds");
    let compile_view = DataEnv::new();
    let (mut verified, mut denies) = (0usize, 0usize);
    for (w, r) in inputs.apps.iter().zip(replays.iter().flatten()) {
        t.set_owner(w.name);
        for (i, nid) in w.program.nest_ids().enumerate() {
            let m = t.span("core.map_nest", |_| {
                compiler.map_nest(&w.program, nid, &compile_view)
            });
            out.attempted += 1;
            out.failed += u64::from(m != r.compile_time[i]);
            let sink = t.span("verify.mapping", |_| {
                compiler.verify_mapping(
                    &w.program,
                    nid,
                    &w.data,
                    &r.executed[i],
                    &VerifyConfig::default(),
                )
            });
            verified += 1;
            denies += sink.deny_count();
        }
    }

    let mut m = LayerMetrics::default();
    m.set("workloads.build_s", t.seconds("workloads.build"));
    record_phases(t, &mut m);
    m.set("core.default_mapping_s", t.seconds("core.default_mapping"));
    m.set("core.inspector_s", t.seconds("core.inspector"));
    m.set(
        "verify.ms_per_mapping",
        1e3 * ratio(t.seconds("verify.mapping"), verified as f64),
    );
    m.set("verify.denies", denies as f64);
    let run_nest_s = t.seconds("sim.run_nest");
    let accesses = (base.accesses + la.accesses) as f64;
    m.set("sim.run_nest_s", run_nest_s);
    m.set("sim.ns_per_access", 1e9 * ratio(run_nest_s, accesses));
    m.set(
        "bench.evaluate_other_s",
        t.seconds("bench.evaluate")
            - phase_seconds(t)
            - t.seconds("core.default_mapping")
            - t.seconds("core.inspector")
            - run_nest_s,
    );
    base.record(&mut m, "base");
    la.record(&mut m, "la");
    m.set(
        "trace.overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );

    let sizes = KernelSizes {
        sends: base.messages + la.messages,
        cache_accesses: base.accesses + la.accesses,
        dram_accesses: base.dram_requests + la.dram_requests,
    };
    kernels::record(&mut m, &sizes, exp);
    (out, m)
}
