//! An irregular application end-to-end: sparse matrix–vector product with
//! the inspector–executor runtime.
//!
//! The compiler cannot see through `x[col[r,k]]` at compile time, so pass 1
//! of the timing loop runs under the default mapping while the inspector
//! observes which banks/MCs serve each iteration set; the executor then
//! runs the remaining passes under the runtime-derived mapping.
//!
//! ```sh
//! cargo run --release -p locmap-bench --example sparse_inspector
//! ```

use locmap_core::{Inspector, InspectorCostModel};
use locmap_sim::prelude::*;
use locmap_workloads::{build, Scale};

fn main() {
    let w = build("hpccg", Scale::default());
    let platform = Platform::paper_default();
    let compiler = Compiler::builder(platform.clone()).build().unwrap();
    let nest_id = w.program.nest_ids().next().expect("workload has a nest");

    // Compile time: the index array is opaque — the pass defers.
    let compile_time = compiler.map_nest(&w.program, nest_id, &DataEnv::new());
    println!("compile-time mapping needs inspector: {}", compile_time.needs_inspector);

    // Timing iteration 1: default mapping, profiled.
    let default = compiler.default_mapping(&w.program, nest_id);
    let mut sim = Simulator::builder(platform.clone()).build().unwrap();
    let profile = sim.run_nest(&w.program, &default, &w.data);
    println!(
        "profiling pass: {} cycles, LLC hit rate {:.2}",
        profile.cycles,
        1.0 - profile.l2.miss_ratio()
    );

    // Inspector: build MAI/CAI/alpha from observations, map, account cost.
    let inspector = Inspector::new(&compiler, InspectorCostModel::default());
    let report = inspector.run(&w.program, nest_id, &w.data, &profile.measured);
    println!(
        "inspector: derived mapping for {} sets, overhead {} cycles",
        report.mapping.sets.len(),
        report.overhead_cycles
    );

    // Executor passes: run the derived mapping (after a rewarm pass).
    sim.run_nest(&w.program, &report.mapping, &w.data); // rewarm
    let executor = sim.run_nest(&w.program, &report.mapping, &w.data);

    // Reference: what the remaining passes would cost without the switch.
    let mut ref_sim = Simulator::builder(platform).build().unwrap();
    ref_sim.run_nest(&w.program, &default, &w.data);
    let base = ref_sim.run_nest(&w.program, &default, &w.data);

    // Signed changes: negative means less; `0.0 -` keeps no change at +0.0.
    println!(
        "steady state: network latency {:.1} -> {:.1} ({:+.1}%), cycles {} -> {}",
        base.network.avg_latency(),
        executor.network.avg_latency(),
        0.0 - RunResult::net_latency_reduction_pct(&base, &executor),
        base.cycles,
        executor.cycles
    );
    let t = w.timing_iters as u64;
    let base_total = base.cycles * t;
    let opt_total = base.cycles + report.overhead_cycles + executor.cycles * (t - 1);
    println!(
        "over {} timing iterations: {} -> {} cycles ({:+.1}%)",
        t,
        base_total,
        opt_total,
        100.0 * (opt_total as f64 - base_total as f64) / base_total as f64
    );
    assert!(opt_total < base_total, "the inspector's mapping should repay its overhead");
}
