//! Every table and figure of the PLDI'18 evaluation, one harness per name:
//!
//! ```sh
//! cargo run --release -p locmap-bench --bin figures -- <name>
//! ```
//!
//! `<name>` is a key of `FIGURES`. Most figures share one of four shapes,
//! each printed by one helper: per-app exec-time columns (`exec_columns`),
//! an LLC × variant geomean sweep (`llc_sweep`), the KNL cluster-mode
//! comparison (`knl_rows`) and the headline table (`headline`).
//! `LOCMAP_APPS=a,b` limits the harnesses that run every benchmark
//! (table3 included) to the named ones; `LOCMAP_FIG17_FULL` adds fig17's
//! ~4× inputs, and `LOCMAP_FAULT_SEED` reseeds resilience (default 7).

use std::fmt::Display;
use std::process::ExitCode;

use locmap_bench::heal::{heal_run, HealError};
use locmap_bench::resilience::{evaluate_online, evaluate_resilience};
use locmap_bench::{
    corun, evaluate, geomean_pct, print_table, selected_apps, AppOutcome, Experiment, Scheme,
};
use locmap_core::{
    AlphaPolicy, Compiler, EtaMetric, LlcOrg, MappingOptions, PlacementPolicy, Platform,
};
use locmap_mem::{AddrMap, AddrMapConfig, Interleave};
use locmap_noc::{FaultCounts, FaultPlan, LocmapError, McPlacement, Mesh, RegionGrid};
use locmap_sim::{knl_platform, KnlMode, MultiprogramResult, SimConfig};
use locmap_workloads::{build, Scale, Workload};

/// Harness name → the function that prints it.
const FIGURES: &[(&str, fn())] = &[
    ("table3", table3),
    ("table4", table4),
    ("fig02", fig02),
    ("fig07", fig07),
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("multiprog", multiprog),
    ("resilience", resilience),
    ("ablations", ablations),
];

const LLCS: [LlcOrg; 2] = [LlcOrg::Private, LlcOrg::SharedSNuca];

fn main() -> ExitCode {
    match figure(&std::env::args().nth(1).unwrap_or_default()) {
        Ok(run) => {
            run();
            ExitCode::SUCCESS
        }
        Err(usage) => {
            eprintln!("{usage}");
            ExitCode::FAILURE
        }
    }
}

/// The harness called `name`, or a usage message listing every name.
fn figure(name: &str) -> Result<fn(), String> {
    match FIGURES.iter().find(|(n, _)| *n == name) {
        Some(&(_, run)) => Ok(run),
        None => {
            let names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
            Err(format!(
                "error: unknown figure {name:?}\nusage: figures <name>\nnames: {}",
                names.join(" ")
            ))
        }
    }
}

/// A column's aggregate over the apps: the label of the summary row that
/// prints it, the function, and the decimals the column prints.
type Agg = (&'static str, fn(&[f64]) -> f64, usize);

/// Percentage reductions, aggregated by [`geomean_pct`].
const GEOMEAN: Agg = ("GEOMEAN", geomean_pct, 1);

/// Values aggregated by their arithmetic mean, printed to `digits`.
fn mean(digits: usize) -> Agg {
    ("MEAN", |v| v.iter().sum::<f64>() / v.len() as f64, digits)
}

/// One row per app, labelled `{prefix}{name}`, of `values(app)` printed to
/// each column's decimals, then one summary row per aggregate label, in
/// the order the columns first use them: row `{prefix}{label}` prints the
/// aggregate of each column with that label, and `-` in the others.
fn app_rows(
    prefix: &str,
    apps: impl IntoIterator<Item = Workload>,
    columns: &[Agg],
    values: impl Fn(&Workload) -> Vec<f64>,
) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut series = vec![Vec::new(); columns.len()];
    for w in apps {
        let mut row = vec![format!("{prefix}{}", w.name)];
        for ((v, (_, _, digits)), s) in values(&w).into_iter().zip(columns).zip(&mut series) {
            s.push(v);
            row.push(format!("{v:.digits$}"));
        }
        rows.push(row);
    }
    let mut labels: Vec<&str> = Vec::new();
    for &(label, ..) in columns {
        if !labels.contains(&label) {
            labels.push(label);
        }
    }
    for label in labels {
        let cells = columns.iter().zip(&series).map(|(&(l, agg, digits), s)| {
            if l == label {
                format!("{:.digits$}", agg(s))
            } else {
                "-".to_string()
            }
        });
        rows.push(std::iter::once(format!("{prefix}{label}")).chain(cells).collect());
    }
    rows
}

/// `first` followed by `rest`.
fn header<'a>(first: &'a str, rest: impl IntoIterator<Item = &'a str>) -> Vec<&'a str> {
    std::iter::once(first).chain(rest).collect()
}

/// Per-app execution-time improvement (%) of each `(header, experiment,
/// scheme)` column over the selected benchmarks, plus a GEOMEAN row.
fn exec_columns(title: &str, columns: &[(&str, Experiment, Scheme)], note: &str) {
    let rows = app_rows("", selected_apps(Scale::default()), &vec![GEOMEAN; columns.len()], |w| {
        columns.iter().map(|(_, exp, s)| evaluate(w, exp, *s).exec_improvement_pct()).collect()
    });
    print_table(title, &header("benchmark", columns.iter().map(|c| c.0)), &rows);
    println!("\n{note}");
}

/// Geomean network-latency and exec-time reduction (%) of the
/// location-aware scheme over `apps`: one row per LLC organization and
/// `(label, experiment)` that `variants` returns for it.
fn llc_sweep<V: IntoIterator<Item = (String, Experiment)>>(
    title: &str,
    column: &str,
    apps: &[Workload],
    variants: impl Fn(LlcOrg) -> V,
) {
    let mut rows = Vec::new();
    for llc in LLCS {
        for (label, exp) in variants(llc) {
            let outs: Vec<_> =
                apps.iter().map(|w| evaluate(w, &exp, Scheme::LocationAware)).collect();
            let gm = |metric: fn(&AppOutcome) -> f64| {
                format!("{:.1}", geomean_pct(&outs.iter().map(metric).collect::<Vec<_>>()))
            };
            let net = gm(AppOutcome::net_reduction_pct);
            rows.push(vec![format!("{llc:?}"), label, net, gm(AppOutcome::exec_improvement_pct)]);
        }
    }
    print_table(title, &["llc", column, "net-red%", "exec-red%"], &rows);
}

/// The KNL arms of Figures 16–17, each compared against the original
/// (default-mapped) all-to-all mode.
const KNL_ARMS: [(&str, KnlMode, Scheme); 5] = [
    ("orig-quadrant", KnlMode::Quadrant, Scheme::Default),
    ("orig-snc4", KnlMode::Snc4, Scheme::Default),
    ("opt-all2all", KnlMode::AllToAll, Scheme::LocationAware),
    ("opt-quadrant", KnlMode::Quadrant, Scheme::LocationAware),
    ("opt-snc4", KnlMode::Snc4, Scheme::LocationAware),
];

/// A KNL experiment: the default simulator, and options that map for it
/// on the 6×6 shared-LLC KNL platform.
fn knl_experiment(mode: KnlMode) -> Experiment {
    let (platform, sim) = (knl_platform(mode), SimConfig::default());
    Experiment { opts: MappingOptions::for_machine(&platform, sim.l1, sim.l2_bank), platform, sim }
}

/// Each KNL arm's exec-time improvement (%) over original all-to-all, as
/// [`app_rows`] labelled with `prefix`.
fn knl_rows(prefix: &str, apps: impl IntoIterator<Item = Workload>) -> Vec<Vec<String>> {
    app_rows(prefix, apps, &[GEOMEAN; KNL_ARMS.len()], |w| {
        let reference = evaluate(w, &knl_experiment(KnlMode::AllToAll), Scheme::Default);
        let ref_cycles = reference.base_cycles as f64;
        let arm = |&(_, mode, scheme): &(&str, KnlMode, Scheme)| {
            let out = evaluate(w, &knl_experiment(mode), scheme);
            let cycles = if scheme == Scheme::Default { out.base_cycles } else { out.opt_cycles };
            100.0 * (ref_cycles - cycles as f64) / ref_cycles
        };
        KNL_ARMS.iter().map(arm).collect()
    })
}

/// Figures 7 and 8: the location-aware scheme's estimation error,
/// network-latency and exec-time reduction and runtime overhead per app.
/// The CAI-error column appears only for shared LLCs.
fn headline(llc: LlcOrg, title: &str, note: &str) {
    type Column = (&'static str, fn(&AppOutcome) -> f64, Agg);
    let all: [Column; 5] = [
        ("mai-err", |o| o.mai_error, mean(3)),
        ("cai-err", |o| o.cai_error, mean(3)),
        ("net-red%", AppOutcome::net_reduction_pct, GEOMEAN),
        ("exec-red%", AppOutcome::exec_improvement_pct, GEOMEAN),
        ("overhead%", AppOutcome::overhead_pct, mean(1)),
    ];
    let shared = llc == LlcOrg::SharedSNuca;
    let columns: Vec<Column> = all.into_iter().filter(|c| shared || c.0 != "cai-err").collect();
    let aggs: Vec<Agg> = columns.iter().map(|c| c.2).collect();
    let exp = Experiment::paper_default(llc);
    let rows = app_rows("", selected_apps(Scale::default()), &aggs, |w| {
        let out = evaluate(w, &exp, Scheme::LocationAware);
        columns.iter().map(|(_, metric, _)| metric(&out)).collect()
    });
    print_table(title, &header("benchmark", columns.iter().map(|c| c.0)), &rows);
    println!("\n{note}");
}

/// Table 3: benchmark properties — paper-reported loop-nest/array/group
/// counts next to this reproduction's modeled nests, arrays, iteration
/// sets, and the measured fraction of sets moved by load balancing.
fn table3() {
    let exp = Experiment::paper_default(LlcOrg::SharedSNuca);
    let compiler = Compiler::builder(exp.platform.clone())
        .options(exp.opts)
        .build()
        .expect("the paper's default platform builds");
    let mut rows = Vec::new();
    for w in &selected_apps(Scale::default()) {
        let out = evaluate(w, &exp, Scheme::LocationAware);
        let modeled_sets: usize =
            w.program.nest_ids().map(|n| compiler.default_mapping(&w.program, n).sets.len()).sum();
        rows.push(vec![
            w.name.to_string(),
            format!("{}", w.table3.loop_nests),
            format!("{}", w.table3.arrays),
            format!("{}", w.table3.iteration_groups),
            format!("{:.1}", w.table3.frac_moved_pct),
            format!("{}", w.program.nests().len()),
            format!("{}", w.program.arrays().len()),
            format!("{modeled_sets}"),
            format!("{:.1}", out.frac_moved * 100.0),
        ]);
    }
    print_table(
        "Table 3: benchmark properties (paper-reported | modeled/measured)",
        &[
            "benchmark",
            "nests(paper)",
            "arrays(paper)",
            "groups(paper)",
            "frac%(paper)",
            "nests(model)",
            "arrays(model)",
            "sets(model)",
            "frac%(measured)",
        ],
        &rows,
    );
}

/// Table 4: the simulated system setup — the paper's parameters and the
/// scaled configuration this reproduction simulates by default.
fn table4() {
    println!("== Table 4: system setup ==\n");
    let p = Platform::paper_default();
    println!("Manycore size / frequency : 36 cores (6x6), 1 GHz, 2-issue");
    println!("# of regions, region size : {} ({}x{} cores each)", p.region_count(), 2, 2);
    println!("Coherence protocol        : Modified/Exclusive lines, directory invalidation");
    println!("Page size                 : {} B", p.addr_map.config().page_bytes);
    println!("Routing policy            : X-Y routing, wormhole");
    println!("MCs                       : {} (chip corners)", p.mc_count());
    println!(
        "Data distribution         : pages round-robin over MCs, lines round-robin over LLC banks"
    );
    println!("Iteration set size        : 0.25% of iterations");

    println!("\n-- paper-literal cache/DRAM parameters (SimConfig::table4) --");
    println!("{}", SimConfig::table4());

    println!("\n-- scaled defaults used by this reproduction (SimConfig::default) --");
    println!("{}", SimConfig::default());
    println!(
        "\n(capacities are scaled with the workload footprints so steady-state\n\
         LLC miss rates fall in the paper's 13-37% band; all latencies and\n\
         geometry ratios match Table 4)"
    );
}

/// Figure 2: potential execution-time improvement with an ideal
/// (zero-latency) on-chip network, for private and shared LLCs.
fn fig02() {
    let [p, s] = LLCS.map(Experiment::paper_default);
    exec_columns(
        "Figure 2: ideal-network execution-time improvement (%)",
        &[("private-LLC", p, Scheme::IdealNetwork), ("shared-LLC", s, Scheme::IdealNetwork)],
        "paper reports: 14% (private), 17.1% (shared) on average",
    );
}

/// Figure 7 (private LLCs): (a) MAI estimation error, (b) reduction in
/// on-chip network latency and execution time, (c) runtime overheads.
fn fig07() {
    headline(
        LlcOrg::Private,
        "Figure 7 (private LLC): MAI error / network-latency reduction % / exec-time reduction % / overhead %",
        "paper reports: MAI error avg 0.079; latency -38.4%; exec -10.9%; overhead avg 2.9%",
    );
}

/// Figure 8 (shared S-NUCA LLC): (a) MAI and CAI errors, (b) reduction in
/// on-chip network latency and execution time, (c) runtime overheads.
fn fig08() {
    headline(
        LlcOrg::SharedSNuca,
        "Figure 8 (shared LLC): MAI/CAI error / network-latency reduction % / exec-time reduction % / overhead %",
        "paper reports: MAI err 0.11, CAI err 0.14; latency -43.8%; exec -12.7%",
    );
}

/// Figure 9: sensitivity to hardware parameters — larger (8×8) network,
/// doubled per-core LLC, larger pages, alternate MC placement.
fn fig09() {
    llc_sweep(
        "Figure 9: sensitivity (geomean network-latency / exec-time reduction %)",
        "variant",
        &selected_apps(Scale::default()),
        |llc| {
            let base = Experiment::paper_default(llc);
            let mesh = Mesh::try_new(8, 8).expect("8x8 is a valid mesh");
            // The 8x8 arm keeps the 6x6 mapping options.
            let mesh8 = Platform {
                mesh,
                regions: RegionGrid::paper_default(mesh),
                mc_coords: McPlacement::Corners.coords(mesh),
                addr_map: AddrMap::new(AddrMapConfig::paper_default(mesh.node_count() as u16)),
                llc,
            };
            let llc2x = SimConfig::default()
                .with_l2_bank_bytes(SimConfig::default().l2_bank.size_bytes * 2);
            // The paper quadruples the 2 KB page; we quadruple ours.
            let mut page8k = Platform::paper_default_with(llc);
            page8k.addr_map = AddrMap::new(AddrMapConfig {
                page_bytes: 8192,
                ..AddrMapConfig::paper_default(36)
            });
            let mut midpoints = Platform::paper_default_with(llc);
            midpoints.mc_coords = McPlacement::EdgeMidpoints.coords(midpoints.mesh);
            vec![
                ("default".into(), base.clone()),
                ("8x8".into(), Experiment { platform: mesh8, ..base.clone() }),
                ("2x-llc".into(), base.clone().with_sim(llc2x)),
                ("8kb-page".into(), Experiment { platform: page8k, ..base.clone() }),
                ("mc-midpoints".into(), Experiment { platform: midpoints, ..base }),
            ]
        },
    );
    println!("\npaper trends: 8x8 > default; 2x LLC < default; 8KB page < default; MC placement ~= default");
}

/// Figure 10: sensitivity to the number of regions (a: private, b: shared)
/// and to the iteration-set size (c: private, d: shared).
fn fig10() {
    let apps = selected_apps(Scale::default());
    // Label = (count, per-region core block); then the region grid.
    let grids: &[(&str, u16, u16)] = &[
        ("4 (3x3)", 2, 2),
        ("6 (2x3)", 3, 2),
        ("9 (2x2)", 3, 3),
        ("18 (2x1)", 3, 6),
        ("36 (1x1)", 6, 6),
    ];
    llc_sweep("Figure 10a/b: region-count sweep (geomean reductions %)", "regions", &apps, |llc| {
        grids.iter().map(move |&(label, cols, rows)| {
            let mut exp = Experiment::paper_default(llc);
            exp.platform.regions = RegionGrid::try_new(exp.platform.mesh, cols, rows)
                .expect("every swept grid fits the 6x6 mesh");
            (label.to_string(), exp)
        })
    });
    let fractions = [0.001, 0.0025, 0.005, 0.0075, 0.01, 0.02];
    llc_sweep(
        "Figure 10c/d: iteration-set-size sweep (geomean reductions %)",
        "set-size",
        &apps,
        |llc| {
            fractions.iter().map(move |&f| {
                let mut exp = Experiment::paper_default(llc);
                exp.opts.iteration_set_fraction = f;
                (format!("{:.2}%", f * 100.0), exp)
            })
        },
    );
    println!("\npaper trends: benefits flatten beyond 9 regions; small sets best, very large sets smooth away affinity");
}

/// Figure 11: page- vs cache-line-granularity round robin for each of
/// (memory banks, cache banks).
fn fig11() {
    // (memory interleave, LLC interleave); (Page, Line) is the default.
    let combos = [
        ("(page, line) [default]", Interleave::Page, Interleave::Line),
        ("(line, line)", Interleave::Line, Interleave::Line),
        ("(page, page)", Interleave::Page, Interleave::Page),
        ("(line, page)", Interleave::Line, Interleave::Page),
    ];
    llc_sweep(
        "Figure 11: (memory, cache) interleaving combinations (geomean reductions %)",
        "combo",
        &selected_apps(Scale::default()),
        |llc| {
            combos.iter().map(move |&(label, mem_interleave, llc_interleave)| {
                let mut exp = Experiment::paper_default(llc);
                exp.platform.addr_map = AddrMap::new(AddrMapConfig {
                    mem_interleave,
                    llc_interleave,
                    ..AddrMapConfig::paper_default(36)
                });
                (label.to_string(), exp)
            })
        },
    );
    println!("\npaper: the approach performs well under all combinations");
}

/// Figure 12: execution-time improvements when the memory is DDR4-2400
/// instead of DDR3-1333.
fn fig12() {
    let [p, s] = LLCS.map(|llc| Experiment::paper_default(llc).with_sim(SimConfig::ddr4()));
    exec_columns(
        "Figure 12: exec-time improvement with DDR4 (%)",
        &[("private-LLC", p, Scheme::LocationAware), ("shared-LLC", s, Scheme::LocationAware)],
        "paper reports: 9.5% (private) and 11.4% (shared) — slightly lower than DDR3",
    );
}

/// Figure 13: comparison against data-layout reorganization (DO, Ding et
/// al. PLDI'15) on the six benchmarks the paper could run with it: LA
/// alone, DO alone, and LA+DO.
fn fig13() {
    let names = ["jacobi-3d", "lulesh", "minighost", "swim", "mxm", "art"];
    let mut rows = Vec::new();
    for llc in LLCS {
        let exp = Experiment::paper_default(llc);
        for name in names {
            let w = build(name, Scale::default());
            let mut row = vec![format!("{llc:?}"), name.to_string()];
            for scheme in [Scheme::LocationAware, Scheme::LayoutOnly, Scheme::LayoutPlusLa] {
                row.push(format!("{:.1}", evaluate(&w, &exp, scheme).exec_improvement_pct()));
            }
            rows.push(row);
        }
    }
    print_table(
        "Figure 13: LA vs DO vs LA+DO exec-time improvement (%)",
        &["llc", "benchmark", "LA", "DO", "LA+DO"],
        &rows,
    );
    println!("\npaper: LA beats DO on 4 of 6; DO wins swim and mxm; LA+DO best or tied nearly everywhere");
}

/// Figure 14: compiler-based (ours) vs the hardware/OS-based computation
/// placement of Das et al. (HPCA'13).
fn fig14() {
    let [p, s] = LLCS.map(Experiment::paper_default);
    exec_columns(
        "Figure 14: compiler-based vs hardware-based placement, exec-time improvement (%)",
        &[
            ("compiler-priv", p.clone(), Scheme::LocationAware),
            ("compiler-shared", s.clone(), Scheme::LocationAware),
            ("hw-priv", p, Scheme::Hardware),
            ("hw-shared", s, Scheme::Hardware),
        ],
        "paper: hardware scheme helps private LLCs somewhat, does poorly on shared LLCs; compiler wins both",
    );
}

/// Figure 15: optimality study — perfect MAI/CAI and cache-miss
/// estimation (oracle knowledge) vs the practical scheme.
fn fig15() {
    let [p, s] = LLCS.map(Experiment::paper_default);
    exec_columns(
        "Figure 15: perfect-estimation (oracle) vs practical exec-time improvement (%)",
        &[
            ("oracle-priv", p.clone(), Scheme::Oracle),
            ("oracle-shared", s.clone(), Scheme::Oracle),
            ("LA-priv", p, Scheme::LocationAware),
            ("LA-shared", s, Scheme::LocationAware),
        ],
        "paper: oracle results are 'not much better' than the practical scheme",
    );
}

/// Figure 16: KNL-style results — each (cluster mode × original/optimized)
/// combination relative to the original all-to-all mode.
fn fig16() {
    print_table(
        "Figure 16: KNL cluster modes, exec-time improvement vs original all-to-all (%)",
        &header("benchmark", KNL_ARMS.map(|a| a.0)),
        &knl_rows("", selected_apps(Scale::default())),
    );
    println!("\npaper: optimized all-to-all beats original quadrant and original SNC-4 (by 8.8%); best = optimized SNC-4 (+22.2% over SNC-4)");
}

/// Figure 17: KNL results with ~2× and ~4× inputs for the nine benchmarks
/// whose inputs could be scaled, relative to original all-to-all at the
/// same input size.
fn fig17() {
    let names = ["fmm", "cholesky", "fft", "lu", "radix", "mxm", "hpccg", "moldyn", "diff"];
    // The ~4x inputs quadruple simulation cost; include them only when
    // LOCMAP_FIG17_FULL is set.
    let mut scales = vec![("~2x", Scale::x2())];
    if std::env::var("LOCMAP_FIG17_FULL").is_ok() {
        scales.push(("~4x", Scale::x4()));
    }
    let mut rows = Vec::new();
    for (label, scale) in scales {
        rows.extend(knl_rows(&format!("{label} "), names.iter().map(|n| build(n, scale))));
    }
    print_table(
        "Figure 17: KNL with scaled inputs, exec-time improvement vs original all-to-all (%)",
        &header("input benchmark", KNL_ARMS.map(|a| a.0)),
        &rows,
    );
    println!("\npaper: improvements grow with input size");
}

/// §5 co-run study: multiple multi-threaded applications executing at the
/// same time, each optimized independently.
fn multiprog() {
    println!("== Multiprogrammed co-run (paper §5 prose) ==");
    let mixes: [&[&str]; 3] =
        [&["mxm", "jacobi-3d"], &["moldyn", "fft"], &["mxm", "jacobi-3d", "moldyn", "fft"]];
    for llc in LLCS {
        for mix in &mixes {
            let apps: Vec<_> = mix.iter().map(|n| build(n, Scale::new(0.5))).collect();
            let (base, opt) = corun(&apps, &Experiment::paper_default(llc))
                .expect("the paper's default platform builds");
            println!(
                "{llc:?} {mix:?}: makespan {} -> {} ({:+.1}%), avg net latency {:.1} -> {:.1}",
                base.total_cycles,
                opt.total_cycles,
                MultiprogramResult::improvement_pct(&base, &opt),
                base.avg_net_latency,
                opt.avg_net_latency,
            );
        }
    }
    println!("\npaper reports: ~18.1% (private), ~26.7% (shared) co-run improvement");
}

/// Resilience sweep: degraded-aware vs fault-oblivious mapping under
/// escalating seed-deterministic fault scenarios (seed 7, or
/// `LOCMAP_FAULT_SEED`), then the first three scenarios replayed as
/// online timelines against an oracle that knew the final fault state.
fn resilience() {
    let seed: u64 =
        std::env::var("LOCMAP_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(7);
    let scenarios: &[(&str, FaultCounts)] = &[
        ("1 dead MC", FaultCounts { mcs: 1, ..FaultCounts::default() }),
        ("2 dead links", FaultCounts { links: 2, ..FaultCounts::default() }),
        ("1 dead router", FaultCounts { routers: 1, ..FaultCounts::default() }),
        (
            "mixed (1 MC + 2 links + 2 banks)",
            FaultCounts { mcs: 1, links: 2, banks: 2, ..FaultCounts::default() },
        ),
    ];
    let apps = selected_apps(Scale::new(0.3));

    for llc in LLCS {
        let exp = Experiment::paper_default(llc);
        let mcs = exp.platform.mc_coords.len();
        for (label, counts) in scenarios {
            let state = FaultPlan::random(seed, exp.platform.mesh, mcs, *counts).final_state();
            let rows = fault_rows::<LocmapError>(&apps, |w| {
                let out = evaluate_resilience(w, &exp, &state)?;
                Ok(vec![
                    out.name.clone(),
                    format!("{:+.1}%", out.degradation_pct()),
                    format!("{:.1}", out.oblivious.latency),
                    format!("{:.1}", out.aware.latency),
                    format!("{:+.1}%", out.aware_net_gain_pct()),
                    format!("{:+.1}%", out.aware_exec_gain_pct()),
                    format!("{}", out.aware.retries),
                ])
            });
            print_table(
                &format!("{llc:?} LLC, {label}, seed {seed}"),
                &[
                    "benchmark",
                    "exec vs fault-free",
                    "oblivious lat",
                    "aware lat",
                    "net gain",
                    "exec gain",
                    "retries",
                ],
                &rows,
            );
        }
    }

    // Online arm: the faults *arrive mid-run* and the healing driver has
    // to recover while an oracle arm knew the final state from cycle 0.
    let exp = Experiment::paper_default(LlcOrg::Private);
    let mcs = exp.platform.mc_coords.len();
    let fault_free = FaultPlan::new(exp.platform.mesh, mcs);
    for (label, counts) in &scenarios[..3] {
        let rows = fault_rows::<HealError>(&apps, |w| {
            let clean = heal_run(w, &exp, &fault_free)?.result.cycles;
            let plan = FaultPlan::random_timed(seed, exp.platform.mesh, mcs, *counts, clean, false);
            let out = evaluate_online(w, &exp, &plan)?;
            let s = &out.resilience;
            Ok(vec![
                out.name.clone(),
                format!("{}", s.faults_seen),
                format!("{}", s.transient_retries),
                format!("{}", s.remaps),
                format!("{:.0}", s.mttr_cycles),
                format!("{}", s.migration_cost_cycles),
                format!("{}", s.recovery_overhead_cycles),
                format!("{:.2}x", out.overhead_ratio()),
            ])
        });
        print_table(
            &format!("online healing vs oracle — Private LLC, {label}, seed {seed}"),
            &[
                "benchmark",
                "faults",
                "retries",
                "remaps",
                "MTTR",
                "migration",
                "overhead",
                "vs oracle",
            ],
            &rows,
        );
    }
}

/// Ablations of the design choices DESIGN.md calls out, on moldyn at
/// scale 0.4 with a shared LLC: η metric (L1 is the paper's), α policy
/// (estimated from hits is the paper's), load balancing and within-region
/// placement (balanced + random is the paper's).
fn ablations() {
    let exp = Experiment::paper_default(LlcOrg::SharedSNuca);
    let paper = exp.opts;
    let random = PlacementPolicy::Random { seed: 0x5eed };
    let variants = [
        ("eta=l1", MappingOptions { eta: EtaMetric::L1, ..paper }),
        ("eta=l2", MappingOptions { eta: EtaMetric::L2, ..paper }),
        ("eta=cosine", MappingOptions { eta: EtaMetric::Cosine, ..paper }),
        ("alpha=from-hits", MappingOptions { alpha: AlphaPolicy::FromHits, ..paper }),
        ("alpha=fixed-0", MappingOptions { alpha: AlphaPolicy::Fixed(0.0), ..paper }),
        ("alpha=fixed-0.5", MappingOptions { alpha: AlphaPolicy::Fixed(0.5), ..paper }),
        ("alpha=fixed-1", MappingOptions { alpha: AlphaPolicy::Fixed(1.0), ..paper }),
        ("balanced+random", MappingOptions { balance: true, placement: random, ..paper }),
        ("unbalanced", MappingOptions { balance: false, placement: random, ..paper }),
        (
            "balanced+roundrobin",
            MappingOptions { balance: true, placement: PlacementPolicy::RoundRobin, ..paper },
        ),
        (
            "balanced+leastloaded",
            MappingOptions { balance: true, placement: PlacementPolicy::LeastLoaded, ..paper },
        ),
    ];
    let w = build("moldyn", Scale::new(0.4));
    let rows: Vec<Vec<String>> = variants
        .into_iter()
        .map(|(name, opts)| {
            let out = evaluate(&w, &Experiment { opts, ..exp.clone() }, Scheme::LocationAware);
            vec![
                name.to_string(),
                format!("{:.1}", out.net_reduction_pct()),
                format!("{:.1}", out.exec_improvement_pct()),
                format!("{:.0}", out.frac_moved * 100.0),
            ]
        })
        .collect();
    print_table(
        "Ablations: location-aware variants on moldyn, scale 0.4, shared LLC (%)",
        &["variant", "net-latency-reduction", "exec-improvement", "sets-moved"],
        &rows,
    );
}

/// One row per app from `row`, or the app's name and the error.
fn fault_rows<E: Display>(
    apps: &[Workload],
    row: impl Fn(&Workload) -> Result<Vec<String>, E>,
) -> Vec<Vec<String>> {
    apps.iter()
        .map(|w| row(w).unwrap_or_else(|e| vec![w.name.to_string(), format!("error: {e}")]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_script_name_is_a_figure() {
        let names: Vec<&str> = include_str!("../../../../run_experiments.sh")
            .lines()
            .filter_map(|l| l.strip_prefix("FIGURES_FULL=").or(l.strip_prefix("FIGURES_SWEEP=")))
            .flat_map(|v| v.trim_matches('"').split_whitespace())
            .collect();
        assert!(names.len() >= 15, "parsed only {names:?} from run_experiments.sh");
        for n in names {
            assert!(figure(n).is_ok(), "run_experiments.sh names unknown figure {n:?}");
        }
    }

    #[test]
    fn unknown_name_is_an_error_listing_every_name() {
        for bad in ["", "fig99", "all"] {
            let usage = figure(bad).expect_err("unknown names must not dispatch");
            for (n, _) in FIGURES {
                assert!(usage.contains(n), "usage for {bad:?} omits {n}: {usage}");
            }
        }
    }
}
