//! Quickstart: map a parallel loop onto a 6×6 manycore and measure the
//! effect of location-aware placement.
//!
//! ```sh
//! cargo run --release -p locmap-bench --example quickstart
//! ```

use locmap_sim::prelude::*;

fn main() {
    // 1. Describe the computation: for i { A[i] = B[i] + C[i] + D[i] }
    //    (the paper's Figure 5 example, at a size that generates traffic).
    let mut program = Program::new("quickstart");
    let n = 200_000u64;
    let a = program.add_array("A", 8, n);
    let b = program.add_array("B", 8, n);
    let c = program.add_array("C", 8, n);
    let d = program.add_array("D", 8, n);
    let mut nest = LoopNest::rectangular("main", &[n as i64]).work(24);
    nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
    nest.add_ref(b, AffineExpr::var(0, 1), Access::Read);
    nest.add_ref(c, AffineExpr::var(0, 1), Access::Read);
    nest.add_ref(d, AffineExpr::var(0, 1), Access::Read);
    let nest_id = program.add_nest(nest);

    // 2. Describe the machine (6x6 mesh, 9 regions, 4 corner MCs, S-NUCA).
    let platform = Platform::paper_default();

    // 3. Run the location-aware mapping pass.
    let compiler = Compiler::builder(platform.clone()).build().unwrap();
    let data = DataEnv::new();
    let optimized = compiler.map_nest(&program, nest_id, &data);
    let default = compiler.default_mapping(&program, nest_id);
    println!(
        "mapped {} iteration sets; load balancer moved {} ({:.1}%)",
        optimized.sets.len(),
        optimized.balance.moved,
        optimized.balance.fraction_moved() * 100.0
    );

    // 4. Simulate both schedules on the same machine model.
    let mut sim = Simulator::builder(platform.clone()).build().unwrap();
    let base = sim.run_nest(&program, &default, &data);
    let mut sim = Simulator::builder(platform).build().unwrap();
    let opt = sim.run_nest(&program, &optimized, &data);

    println!(
        "default : {} cycles, avg network latency {:.1}, avg hops {:.2}",
        base.cycles,
        base.network.avg_latency(),
        base.network.avg_hops()
    );
    println!(
        "locmap  : {} cycles, avg network latency {:.1}, avg hops {:.2}",
        opt.cycles,
        opt.network.avg_latency(),
        opt.network.avg_hops()
    );
    // The signed change from a reduction; `0.0 -` keeps no change at +0.0.
    let change = |reduction_pct: f64| 0.0 - reduction_pct;
    println!(
        "=> network latency {:+.1}%, execution time {:+.1}%",
        change(RunResult::net_latency_reduction_pct(&base, &opt)),
        change(RunResult::exec_improvement_pct(&base, &opt))
    );
    assert!(opt.cycles < base.cycles, "the location-aware schedule should run in fewer cycles");
}
