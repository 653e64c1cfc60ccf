//! A regular application end-to-end: 3-D heat diffusion.
//!
//! Shows the full compile-time pipeline of the paper's Figure 4 —
//! parallel legality (the verifier's nest pass), CME hit estimation, the
//! four affinity vectors, region assignment, balancing, placement — and
//! then validates the schedule on the simulator.
//!
//! ```sh
//! cargo run --release -p locmap-bench --example stencil_pipeline
//! ```

use locmap_cme::{CmeConfig, CmeEstimator};
use locmap_core::{
    compute_cai, compute_mai, AffinityInputs, Cac, CacPolicy, CmeModel, Mac, MacPolicy,
};
use locmap_loopir::IterationSpace;
use locmap_sim::prelude::*;
use locmap_verify::{nests::check_nest, Code, DiagnosticSink};
use locmap_workloads::{build, Scale};

fn main() {
    let w = build("jacobi-3d", Scale::default());
    let program: &Program = &w.program;
    let nest_id = program.nest_ids().next().expect("program has a nest");
    let nest = program.nest(nest_id);
    let platform = Platform::paper_default();

    // --- Front end: may the declared parallel loop be split across cores?
    let mut lints = DiagnosticSink::new();
    check_nest(program, nest_id, &w.data, &mut lints);
    println!(
        "parallel-safe: {} ({} deny, {} warn)",
        !lints.has(Code::CARRIED_DEPENDENCE),
        lints.deny_count(),
        lints.warn_count()
    );

    // --- CME: which accesses stay on chip?
    let space = IterationSpace::enumerate(nest, &program.params());
    let sets = space.split_by_fraction(0.0025);
    let est = CmeEstimator::new(CmeConfig::default()).estimate(
        program,
        nest,
        &space,
        &sets,
        &DataEnv::new(),
    );
    println!(
        "CME: mean LLC hit probability {:.2}, alpha(set 0) = {:.2}",
        est.mean_hit_probability(),
        est.alpha(0)
    );

    // --- The four affinity vectors for the first iteration set.
    let model = CmeModel::new(est);
    let inputs = AffinityInputs::full(program, nest, &space, &sets, &w.data);
    let mai = compute_mai(&inputs, &platform, &model);
    let cai = compute_cai(&inputs, &platform, &model);
    let mac = Mac::compute(&platform, MacPolicy::NearestSet);
    let cac = Cac::compute(&platform, CacPolicy::default());
    println!("MAI(set 0) = {}", mai[0]);
    println!("CAI(set 0) = {}", cai[0]);
    println!("MAC(R1)    = {}", mac.of(locmap_noc::RegionId(0)));
    println!("CAC(R5)    = {}", cac.of(locmap_noc::RegionId(4)));

    // --- Full pass + simulation.
    let compiler = Compiler::builder(platform.clone()).build().unwrap();
    let optimized = compiler.map_nest(program, nest_id, &w.data);
    let default = compiler.default_mapping(program, nest_id);

    let mut sim = Simulator::builder(platform.clone()).build().unwrap();
    sim.run_nest(program, &default, &w.data); // warm
    let base = sim.run_nest(program, &default, &w.data);
    let mut sim = Simulator::builder(platform).build().unwrap();
    sim.run_nest(program, &optimized, &w.data); // warm
    let opt = sim.run_nest(program, &optimized, &w.data);

    println!(
        "steady state: network latency {:.1} -> {:.1} (-{:.1}%), cycles {} -> {} (-{:.1}%)",
        base.network.avg_latency(),
        opt.network.avg_latency(),
        RunResult::net_latency_reduction_pct(&base, &opt),
        base.cycles,
        opt.cycles,
        RunResult::exec_improvement_pct(&base, &opt)
    );
}
