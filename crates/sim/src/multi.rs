//! Multiprogrammed execution: several multi-threaded applications co-run
//! on one chip, sharing the NoC, LLC banks and DRAM (§5's co-run study).
//!
//! A co-run is the simulator's one event loop run over several slots. Each
//! application brings its own mapping (computed as if it owned the
//! machine). Per core, the slots' iteration sets are interleaved
//! round-robin, so applications genuinely contend for links and banks in
//! time — the effect the co-run experiment measures.

use crate::engine::Simulator;
use locmap_core::NestMapping;
use locmap_loopir::{DataEnv, Program};
use serde::{Deserialize, Serialize};

/// One co-running application.
#[derive(Debug)]
pub struct Slot<'a> {
    /// The application.
    pub program: &'a Program,
    /// Its (independently computed) mapping for the nest being co-run.
    pub mapping: &'a NestMapping,
    /// Index-array contents, if irregular.
    pub data: &'a DataEnv,
}

/// Result of a co-run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MultiprogramResult {
    /// Completion cycle of each application (its slowest core).
    pub app_cycles: Vec<u64>,
    /// Makespan: max over applications.
    pub total_cycles: u64,
    /// Average on-chip network latency over all co-run traffic.
    pub avg_net_latency: f64,
}

impl MultiprogramResult {
    /// Percentage improvement of `opt` over `base` in makespan.
    pub fn improvement_pct(base: &MultiprogramResult, opt: &MultiprogramResult) -> f64 {
        if base.total_cycles == 0 {
            return 0.0;
        }
        100.0 * (base.total_cycles as f64 - opt.total_cycles as f64) / base.total_cycles as f64
    }
}

/// Co-runs one nest from each slot on `sim`'s machine.
///
/// A co-run is [`Simulator::run`]'s event loop over several slots, so
/// co-run cores issue like solo cores, and a one-slot co-run is exactly
/// [`Simulator::run_nest`]. Address spaces are made disjoint by offsetting
/// each slot's addresses by `slot_index × 1 GiB` (page-aligned, so
/// interleaving behavior per slot is unchanged). As in [`Simulator::run`],
/// the co-run's clock starts at cycle 0, so link and bank occupancy left
/// by an earlier run is released.
///
/// # Panics
///
/// Panics if a slot's mapping does not match its program, or places work
/// on a dead core (the [`crate::SimError::InvalidMapping`] of
/// [`Simulator::run`]).
pub fn run_multiprogram(sim: &mut Simulator, slots: &[Slot<'_>]) -> MultiprogramResult {
    let (run, app_cycles) = sim.execute(slots, None, None).unwrap_or_else(|e| panic!("{e}"));
    MultiprogramResult {
        total_cycles: run.cycles,
        app_cycles,
        avg_net_latency: run.network.avg_latency(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmap_core::{Compiler, LlcOrg, Platform};
    use locmap_loopir::{Access, AffineExpr, LoopNest};
    use locmap_noc::FaultPlan;

    fn app(name: &str, elems: u64) -> (Program, locmap_loopir::NestId) {
        let mut p = Program::new(name);
        let a = p.add_array("A", 8, elems);
        let b = p.add_array("B", 8, elems);
        let mut nest = LoopNest::rectangular("n", &[elems as i64]);
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
        nest.add_ref(b, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        (p, id)
    }

    #[test]
    fn corun_two_apps() {
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let (p1, id1) = app("a", 8000);
        let (p2, id2) = app("b", 8000);
        let d = DataEnv::new();

        // Baseline: both default-mapped.
        let m1d = compiler.default_mapping(&p1, id1);
        let m2d = compiler.default_mapping(&p2, id2);
        let mut sim = Simulator::builder(platform.clone()).build().unwrap();
        let base = run_multiprogram(
            &mut sim,
            &[
                Slot { program: &p1, mapping: &m1d, data: &d },
                Slot { program: &p2, mapping: &m2d, data: &d },
            ],
        );
        assert_eq!(base.app_cycles.len(), 2);
        assert!(base.total_cycles > 0);

        // Optimized: both location-aware.
        let m1 = compiler.map_nest(&p1, id1, &d);
        let m2 = compiler.map_nest(&p2, id2, &d);
        let mut sim2 = Simulator::builder(platform).build().unwrap();
        let opt = run_multiprogram(
            &mut sim2,
            &[
                Slot { program: &p1, mapping: &m1, data: &d },
                Slot { program: &p2, mapping: &m2, data: &d },
            ],
        );
        assert!(opt.avg_net_latency < base.avg_net_latency, "co-run latency should drop");
    }

    #[test]
    fn single_slot_matches_run_nest() {
        // A one-slot co-run is a solo run: same loop, same issue model.
        let (p, id) = app("solo", 4000);
        let d = DataEnv::new();
        for llc in [LlcOrg::SharedSNuca, LlcOrg::Private] {
            let platform = Platform::paper_default_with(llc);
            let compiler = Compiler::builder(platform.clone()).build().unwrap();
            for m in [compiler.default_mapping(&p, id), compiler.map_nest(&p, id, &d)] {
                let fresh = || Simulator::builder(platform.clone()).build().unwrap();
                let solo = fresh().run_nest(&p, &m, &d);
                let corun =
                    run_multiprogram(&mut fresh(), &[Slot { program: &p, mapping: &m, data: &d }]);
                assert_eq!(corun.app_cycles, [solo.cycles], "{llc:?}");
                assert_eq!(corun.total_cycles, solo.cycles, "{llc:?}");
                assert_eq!(
                    corun.avg_net_latency.to_bits(),
                    solo.network.avg_latency().to_bits(),
                    "{llc:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "is mapped to dead core")]
    fn corun_on_a_dead_core_panics() {
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let (p, id) = app("dead", 4000);
        let d = DataEnv::new();
        let m = compiler.default_mapping(&p, id); // round-robin over all 36 cores
        let dead = platform.mesh.node_at(3, 3);
        let state = FaultPlan::new(platform.mesh, platform.mc_count()).dead_router(dead).state_at(0);
        let mut sim = Simulator::builder(platform).faults(&state).build().unwrap();
        run_multiprogram(&mut sim, &[Slot { program: &p, mapping: &m, data: &d }]);
    }

    #[test]
    fn corun_after_a_run_restarts_the_clock() {
        // The run leaves the network's floor at its last core's clock; the
        // co-run starts again at cycle 0, which a debug build's floor
        // assertion would reject unless the co-run restarts the clock.
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let (p, id) = app("again", 4000);
        let d = DataEnv::new();
        let m = compiler.default_mapping(&p, id);
        let mut sim = Simulator::builder(platform).build().unwrap();
        assert!(sim.run_nest(&p, &m, &d).cycles > 0);
        let r = run_multiprogram(&mut sim, &[Slot { program: &p, mapping: &m, data: &d }]);
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn empty_corun_is_zero() {
        let platform = Platform::paper_default();
        let mut sim = Simulator::builder(platform).build().unwrap();
        let r = run_multiprogram(&mut sim, &[]);
        assert_eq!(r.total_cycles, 0);
    }
}
