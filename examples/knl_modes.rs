//! KNL-style cluster modes: how address-hashing policies interact with
//! location-aware mapping (the paper's Figure 16 scenario, one workload).
//!
//! ```sh
//! cargo run --release -p locmap-bench --example knl_modes
//! ```

use locmap_sim::prelude::*;
use locmap_sim::{knl_platform, KnlMode};
use locmap_workloads::{build, Scale};

fn main() {
    let w = build("moldyn", Scale::default());
    let nest_id = w.program.nest_ids().next().expect("workload has a nest");

    let mut reference = None;
    for mode in [KnlMode::AllToAll, KnlMode::Quadrant, KnlMode::Snc4] {
        let platform = knl_platform(mode);
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mut original_cycles = u64::MAX;
        for optimized in [false, true] {
            let mapping = if optimized {
                compiler.map_nest(&w.program, nest_id, &w.data)
            } else {
                compiler.default_mapping(&w.program, nest_id)
            };
            let mut sim = Simulator::builder(platform.clone()).build().unwrap();
            sim.run_nest(&w.program, &mapping, &w.data); // warm
            let r = sim.run_nest(&w.program, &mapping, &w.data);
            let reference_cycles = *reference.get_or_insert(r.cycles);
            // The signed change: negative means fewer cycles.
            println!(
                "{:>9?} {}: {:>9} cycles ({:+.1}% vs original all-to-all), net latency {:.1}",
                mode,
                if optimized { "optimized" } else { "original " },
                r.cycles,
                100.0 * (r.cycles as f64 - reference_cycles as f64) / reference_cycles as f64,
                r.network.avg_latency()
            );
            assert!(r.cycles < original_cycles, "{mode:?}: the optimized run should be faster");
            original_cycles = r.cycles;
        }
    }
}
