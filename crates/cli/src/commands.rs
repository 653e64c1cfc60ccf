//! Subcommand implementations.

use crate::args::Args;
use locmap_bench::batch::{run_throughput, BatchConfig, STENCIL_SUITE};
use locmap_bench::heal::heal_run;
use locmap_bench::resilience::evaluate_resilience;
use locmap_bench::{evaluate, Experiment};
use locmap_core::{region_loads, Compiler, Platform};
use locmap_noc::{FaultCounts, FaultPlan, FaultState, Mesh, RegionGrid};
use locmap_sim::{MultiprogramResult, SimConfig};
use locmap_workloads::{build, names};
use std::process::ExitCode;

/// Top-level usage text.
pub const USAGE: &str = "\
locmap — location-aware computation-to-core mapping (PLDI'18 reproduction)

USAGE:
  locmap list                             benchmark inventory
  locmap platform [--llc private|shared]  platform + affinity vectors
  locmap run --app NAME [--llc L] [--scheme S] [--scale F]
                                          evaluate scheme vs the default mapping
  locmap map --app NAME [--llc L] [--scale F]
                                          mapping summary (no simulation)
  locmap corun --apps a,b[,c...] [--llc L] [--scale F]
                                          multiprogrammed co-run
  locmap heat --app NAME [--llc L] [--scale F]
                                          router-pressure heatmaps
  locmap faults --app NAME [--llc L] [--scale F] [--seed N]
                [--dead-mcs N] [--dead-links N] [--dead-routers N] [--dead-banks N]
                                          degraded-mode resilience comparison
  locmap heal --app NAME [--llc L] [--scale F] [--seed N]
              [--timeline transient|persistent] [--horizon N]
              [--dead-mcs N] [--dead-links N] [--dead-routers N] [--dead-banks N]
                                          replay a timed fault timeline online
                                          and print the recovery trace (default:
                                          1 link + 1 router; horizon sized to
                                          the fault-free run)
  locmap batch [--threads N] [--repeats N] [--apps a,b,...] [--llc L] [--scale F]
                                          batch-mapping throughput (defaults: 4
                                          threads, 4 repeats, stencil suite);
                                          exits nonzero on a verifier Deny
  locmap verify [--apps a,b,...] [--llc L] [--scale F] [--seed N]
                [--dead-mcs N] [--dead-links N] [--dead-routers N] [--dead-banks N]
                                          static verifier over workload mappings
                                          (default: every benchmark); exits
                                          nonzero on any Deny-level diagnostic
  locmap overload [--apps a,b,...] [--llc L] [--scale F] [--arrivals N]
                  [--load 1,3,10] [--require-shed 1]
                                          open-loop overload harness: goodput,
                                          shed rate, p50/p99 latency and the
                                          quality-level mix at each multiple of
                                          the measured saturation rate

SCHEMES: default | la | ideal | oracle | hardware | do | la+do

`locmap platform` also accepts --mesh WxH and --regions CxR to validate a
custom partition (errors are reported, not panicked).
";

/// `locmap list`.
pub fn list() -> ExitCode {
    println!("{:<12} {:>6} {:>7} {:>9}  class", "benchmark", "nests", "arrays", "accesses");
    for name in names() {
        let w = build(name, locmap_workloads::Scale::default());
        let accesses: u64 = w
            .program
            .nests()
            .iter()
            .map(|n| n.iteration_count(&w.program.params()) * n.refs.len() as u64)
            .sum();
        println!(
            "{:<12} {:>6} {:>7} {:>9}  {}",
            w.name,
            w.program.nests().len(),
            w.program.arrays().len(),
            accesses,
            if w.irregular { "irregular (inspector-executor)" } else { "regular (compile-time)" }
        );
    }
    ExitCode::SUCCESS
}

/// `locmap platform`.
pub fn platform(args: &Args) -> Result<(), String> {
    let llc = args.llc()?;
    if let Some((w, h)) = args.dims("mesh")? {
        // Custom-geometry validation path: typed constructor errors become
        // friendly messages and a nonzero exit, never a panic.
        let mesh = Mesh::try_new(w, h).map_err(String::from)?;
        let (cols, rows) = args.dims("regions")?.unwrap_or((3, 3));
        let grid = RegionGrid::try_new(mesh, cols, rows).map_err(String::from)?;
        println!("mesh      : {mesh}");
        println!("regions   : {} ({cols} cols x {rows} rows)", grid.region_count());
        for r in grid.regions() {
            println!("  {r}: {} cores", grid.nodes_in(r).len());
        }
        return Ok(());
    }
    let p = Platform::paper_default_with(llc);
    println!("mesh      : {}", p.mesh);
    println!("regions   : {} ({} cols x {} rows)", p.region_count(), p.regions.cols(), p.regions.rows());
    println!("llc       : {llc:?}");
    println!("mcs       : {:?}", p.mc_coords);
    println!("page      : {} B, line: {} B", p.addr_map.config().page_bytes, p.addr_map.config().line_bytes);
    let compiler = Compiler::builder(p.clone()).build().map_err(String::from)?;
    println!("\nMAC vectors (region -> MC affinities):");
    for r in p.regions.regions() {
        println!("  {r}: {}", compiler.mac().of(r));
    }
    println!("\nsimulator defaults:\n{}", SimConfig::default());
    Ok(())
}

/// `locmap run`.
pub fn run(args: &Args) -> Result<(), String> {
    let name = args.app()?;
    let w = build(name, args.scale()?);
    let exp = Experiment::paper_default(args.llc()?);
    let scheme = args.scheme()?;
    let out = evaluate(&w, &exp, scheme);
    println!("benchmark        : {}", out.name);
    println!("scheme           : {scheme:?} (vs default mapping)");
    println!("execution cycles : {} -> {} ({:+.1}%)", out.base_cycles, out.opt_cycles, -out.exec_improvement_pct());
    println!("net latency      : {:.1} -> {:.1} ({:+.1}%)", out.base_latency, out.opt_latency, -out.net_reduction_pct());
    if out.overhead_cycles > 0 {
        println!("inspector cost   : {} cycles ({:.1}% of run)", out.overhead_cycles, out.overhead_pct());
    }
    if out.mai_error > 0.0 {
        println!("MAI error        : {:.3}", out.mai_error);
    }
    if out.cai_error > 0.0 {
        println!("CAI error        : {:.3}", out.cai_error);
    }
    println!("sets rebalanced  : {:.1}%", out.frac_moved * 100.0);
    Ok(())
}

/// `locmap map`.
pub fn map(args: &Args) -> Result<(), String> {
    let name = args.app()?;
    let w = build(name, args.scale()?);
    let platform = Platform::paper_default_with(args.llc()?);
    let compiler = Compiler::builder(platform.clone()).build().map_err(String::from)?;
    for nid in w.program.nest_ids().collect::<Vec<_>>() {
        let nest = w.program.nest(nid);
        let m = compiler.map_nest(&w.program, nid, &w.data);
        println!("nest {} ({}):", nid.0, nest.name);
        if m.needs_inspector {
            println!("  irregular — deferred to the runtime inspector");
            continue;
        }
        println!("  iteration sets : {}", m.sets.len());
        println!("  region loads   : {:?}", region_loads(&m.regions, platform.region_count()));
        println!(
            "  balance        : moved {} sets ({:.1}%)",
            m.balance.moved,
            m.balance.fraction_moved() * 100.0
        );
        if let Some(v) = m.mai.first() {
            println!("  MAI(set 0)     : {v}");
        }
        if let Some(v) = m.cai.first() {
            println!("  CAI(set 0)     : {v}");
        }
        if let Some(a) = m.alphas.first() {
            println!("  alpha(set 0)   : {a:.2}");
        }
    }
    Ok(())
}

/// `locmap heat`: run a benchmark under default and location-aware
/// mappings and print router-pressure heatmaps side by side.
pub fn heat(args: &Args) -> Result<(), String> {
    let name = args.app()?;
    let w = build(name, args.scale()?);
    let platform = Platform::paper_default_with(args.llc()?);
    let compiler = Compiler::builder(platform.clone()).build().map_err(String::from)?;
    let nid = w
        .program
        .nest_ids()
        .next()
        .ok_or_else(|| format!("benchmark {name:?} has no loop nests to map"))?;

    for (label, optimized) in [("default mapping", false), ("location-aware mapping", true)] {
        let mapping = if optimized {
            compiler.map_nest(&w.program, nid, &w.data)
        } else {
            compiler.default_mapping(&w.program, nid)
        };
        let mut sim =
            locmap_sim::Simulator::builder(platform.clone()).build().map_err(String::from)?;
        sim.run_nest(&w.program, &mapping, &w.data);
        let pressure = locmap_sim::router_pressure(&sim);
        println!(
            "{}",
            locmap_sim::ascii_heatmap(platform.mesh, &pressure, &format!("{name}: {label}"))
        );
    }
    Ok(())
}

/// `locmap faults`: inject a seed-deterministic fault scenario and compare
/// fault-free, degraded-aware, and fault-oblivious (surviving-core
/// round-robin) mappings.
pub fn faults(args: &Args) -> Result<(), String> {
    let name = args.app()?;
    let w = build(name, args.scale()?);
    let exp = Experiment::paper_default(args.llc()?);
    let counts = args.fault_counts()?;
    let seed = args.seed()?;
    let plan =
        FaultPlan::random(seed, exp.platform.mesh, exp.platform.mc_coords.len(), counts);
    plan.validate().map_err(String::from)?;
    let state = plan.final_state();
    let out = evaluate_resilience(&w, &exp, &state).map_err(String::from)?;

    println!("benchmark        : {}", out.name);
    println!("fault plan       : seed {seed}; {}", plan.summary());
    let (l, r, m, b) = out.dead;
    println!("effective dead   : {l} links, {r} routers, {m} MCs, {b} banks");
    println!("degraded mapping : {:.1}% of sets rebalanced, {} re-inspections, {} overhead cycles",
        out.aware.frac_moved * 100.0, out.aware.retries, out.aware.overhead_cycles);
    println!(
        "execution cycles : {} fault-free -> {} degraded-aware ({:+.1}%)",
        out.fault_free.cycles,
        out.aware.cycles,
        out.degradation_pct()
    );
    println!("                   {} fault-oblivious (aware is {:+.1}% faster)",
        out.oblivious.cycles, out.aware_exec_gain_pct());
    println!(
        "net latency      : {:.1} fault-free; {:.1} oblivious -> {:.1} aware ({:+.1}%)",
        out.fault_free.latency,
        out.oblivious.latency,
        out.aware.latency,
        -out.aware_net_gain_pct()
    );
    Ok(())
}

/// `locmap heal`: replay a timed fault timeline against one benchmark with
/// the online resilience controller and print the full recovery trace.
pub fn heal(args: &Args) -> Result<(), String> {
    let name = args.app()?;
    let w = build(name, args.scale()?);
    let exp = Experiment::paper_default(args.llc()?);
    let mesh = exp.platform.mesh;
    let mc_count = exp.platform.mc_coords.len();
    let mut counts = args.fault_counts()?;
    if counts.is_empty() {
        counts = FaultCounts { links: 1, routers: 1, mcs: 0, banks: 0 };
    }
    let seed = args.seed()?;
    let transient = args.timeline()?;

    // Without an explicit --horizon, size the timeline to the fault-free
    // run so injections land mid-execution instead of after the finish.
    let horizon = match args.count("horizon")? as u64 {
        0 => {
            let clean = heal_run(&w, &exp, &FaultPlan::new(mesh, mc_count))
                .map_err(|e| e.to_string())?;
            clean.result.cycles
        }
        h => h,
    };

    let plan = FaultPlan::random_timed(seed, mesh, mc_count, counts, horizon, transient);
    plan.validate().map_err(String::from)?;

    println!("benchmark      : {}", w.name);
    println!(
        "fault timeline : seed {seed}, {} mode, horizon {horizon} cycles",
        if transient { "transient" } else { "persistent" }
    );
    for ev in plan.events() {
        match ev.repair_at {
            Some(r) => println!("  {} dies at {}, repairs at {r}", ev.component, ev.inject_at),
            None => println!("  {} dies at {} (permanent)", ev.component, ev.inject_at),
        }
    }

    let out = heal_run(&w, &exp, &plan).map_err(|e| e.to_string())?;
    println!("\nrecovery trace:");
    if out.trace.is_empty() {
        println!("  (no faults surfaced — run finished before any injection)");
    }
    for ev in &out.trace {
        println!("  {ev}");
    }
    let s = &out.summary;
    println!("\nsummary:");
    println!("  faults seen        : {}", s.faults_seen);
    println!("  transient retries  : {}", s.transient_retries);
    println!("  remaps             : {}", s.remaps);
    println!("  quarantined/healed : {}/{}", s.quarantined, s.healed);
    println!("  MTTR               : {:.0} cycles", s.mttr_cycles);
    println!("  migration cost     : {} cycles", s.migration_cost_cycles);
    println!("  recovery overhead  : {} cycles", s.recovery_overhead_cycles);
    println!("  degradation        : {}", s.degradation);
    println!("  finish             : {} cycles", out.result.cycles);
    Ok(())
}

/// `locmap corun`.
pub fn corun(args: &Args) -> Result<(), String> {
    let app_names = args.apps()?;
    if app_names.len() < 2 {
        return Err("corun needs at least two apps".into());
    }
    let scale = args.scale()?;
    let exp = Experiment::paper_default(args.llc()?);
    let apps: Vec<_> = app_names.iter().map(|n| build(n, scale)).collect();
    let (base, opt) = locmap_bench::corun(&apps, &exp).map_err(String::from)?;

    println!("apps        : {app_names:?}");
    println!("makespan    : {} -> {} cycles", base.total_cycles, opt.total_cycles);
    println!("improvement : {:+.1}%", MultiprogramResult::improvement_pct(&base, &opt));
    println!("net latency : {:.1} -> {:.1}", base.avg_net_latency, opt.avg_net_latency);
    for (i, n) in app_names.iter().enumerate() {
        println!("  {n}: {} -> {} cycles", base.app_cycles[i], opt.app_cycles[i]);
    }
    Ok(())
}

/// `locmap verify`: run the static verifier over workload mappings (and,
/// when fault flags are given, a seed-deterministic fault plan's arms).
/// Exits nonzero on any Deny-level diagnostic.
pub fn verify(args: &Args) -> Result<(), String> {
    use locmap_core::MapRequest;
    use locmap_verify::{check_platform, check_request, DiagnosticSink, VerifyConfig};

    let app_names = args.apps_or(names())?;
    let scale = args.scale()?;
    let platform = Platform::paper_default_with(args.llc()?);
    let counts = args.fault_counts()?;
    let plan = if !counts.is_empty() {
        let seed = args.seed()?;
        let plan = FaultPlan::random(seed, platform.mesh, platform.mc_coords.len(), counts);
        println!("fault plan : seed {seed}; {}", plan.summary());
        Some(plan)
    } else {
        None
    };
    let state = match &plan {
        Some(plan) => plan.final_state(),
        None => FaultState::none(platform.mesh, platform.mc_coords.len()),
    };
    let compiler = Compiler::builder(platform).faults(&state).build().map_err(String::from)?;

    let cfg = VerifyConfig::default();
    let mut sink = DiagnosticSink::with_overrides(&cfg.overrides);
    // The platform half runs once: the MAC/CAC tables, X-Y deadlock-freedom
    // and, under a fault plan, reachability across every arm of the plan.
    check_platform(&compiler, plan.as_ref(), &cfg, &mut sink);

    let mut nests_checked = 0usize;
    for name in &app_names {
        let w = build(name, scale);
        for nest in w.program.nest_ids() {
            let before = sink.diagnostics().len();
            let m = compiler.map_nest(&w.program, nest, &w.data);
            let request = MapRequest { program: &w.program, nest, data: &w.data };
            check_request(&compiler, &request, &m, &cfg, &mut sink);
            nests_checked += 1;
            let found = sink.diagnostics().len() - before;
            if found > 0 {
                println!("{name} nest {}: {found} finding(s)", nest.0);
            }
        }
    }

    println!(
        "verified   : {nests_checked} nests across {} workloads ({} deny, {} warn)",
        app_names.len(),
        sink.deny_count(),
        sink.warn_count()
    );
    if !sink.diagnostics().is_empty() {
        print!("{}", sink.report());
    }
    if sink.is_clean() {
        Ok(())
    } else {
        Err(format!("{} Deny-level diagnostic(s)", sink.deny_count()))
    }
}

/// `locmap overload`: measure the session's saturation service rate, then
/// drive open-loop arrival at each requested load multiple and report
/// goodput, shed rate, latency percentiles, and the quality-level mix.
/// Exits nonzero if any served mapping draws a Deny-level diagnostic, if
/// an admitted request finished past its deadline, or — under
/// `--require-shed 1` — if no overload arm (load > 1) shed anything.
pub fn overload(args: &Args) -> Result<(), String> {
    use locmap_bench::overload::{run_overload, OverloadConfig, OverloadReport};

    let app_names = args.apps_or(&["mxm", "swim"])?;
    let scale = args.scale()?;
    let exp = Experiment::paper_default(args.llc()?);
    let apps: Vec<_> = app_names.iter().map(|n| build(n, scale)).collect();
    let cfg = OverloadConfig {
        arrivals: args.count_or("arrivals", 120)?,
        multipliers: args.floats_or("load", &[1.0, 3.0, 10.0])?,
    };
    let report = run_overload(&exp, &apps, &cfg).map_err(String::from)?;

    println!("apps       : {app_names:?}");
    println!("saturation : {} work units per full-quality mapping", report.saturation_units);
    locmap_bench::print_table(
        "open-loop overload (F/C/H = full/cached/heuristic quality)",
        OverloadReport::header(),
        &report.rows(),
    );

    // CI gating: shedding may drop requests, never correctness or
    // deadlines — and under overload it must actually drop some.
    let denies: usize = report.arms.iter().map(|a| a.verify_denies).sum();
    if denies > 0 {
        return Err(format!("{denies} Deny-level diagnostic(s) on served mappings"));
    }
    if let Some(late) = report.arms.iter().find(|a| a.max_latency > a.relative_deadline) {
        return Err(format!(
            "{}x arm served a request {} units past its deadline",
            late.multiplier,
            late.max_latency - late.relative_deadline
        ));
    }
    if args.count("require-shed")? > 0 {
        let overloaded: Vec<_> = report.arms.iter().filter(|a| a.multiplier > 1.0).collect();
        if overloaded.is_empty() {
            return Err("--require-shed needs at least one arm with load > 1".into());
        }
        if overloaded.iter().all(|a| a.shed_rate() == 0.0) {
            return Err("no overload arm shed any request; admission control is not engaging".into());
        }
    }
    Ok(())
}

/// `locmap batch`: map the kernels through a session, then verify the
/// responses. Exits nonzero on any Deny-level diagnostic.
pub fn batch(args: &Args) -> Result<(), String> {
    let cfg = BatchConfig {
        apps: args.apps_or(STENCIL_SUITE)?.iter().map(|s| s.to_string()).collect(),
        scale: args.scale()?,
        llc: args.llc()?,
        threads: args.count_or("threads", 4)?,
        repeats: args.count_or("repeats", 4)?,
    };
    let report = run_throughput(&cfg).map_err(|e| e.to_string())?;
    report.print();
    if report.verify_denies > 0 {
        return Err(format!("{} Deny-level diagnostic(s) on batch responses", report.verify_denies));
    }
    Ok(())
}
