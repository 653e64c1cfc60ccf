//! Comparison baselines from the paper's §5 "Comparison against Alternate
//! Approaches".
//!
//! * [`optimize_layout`] — the **DO** scheme of Ding et al. (PLDI'15,
//!   reference \[22\]): a *data-layout* optimization that keeps the default
//!   computation mapping but pads arrays so their pages land on memory
//!   controllers near their consumers. One layout per array for the whole
//!   program — the limitation the paper highlights.
//! * [`hardware_placement`] — the **hardware/OS** scheme of Das et al.
//!   (HPCA'13, reference \[16\]): application-to-core placement that puts
//!   memory-intensive "applications" (here: iteration sets, treating each
//!   thread as an application) on cores close to memory controllers,
//!   without knowing *which* controller their data lives on.
//!
//! The paper's *default mapping* baseline (round-robin) lives in
//! [`locmap_core::Compiler::default_mapping`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use locmap_core::{BalanceReport, NestMapping, Platform};
use locmap_loopir::{DataEnv, IterationSpace, NestId, Program};
use locmap_mem::PhysAddr;
use locmap_noc::NodeId;

/// Greedily pads each array of `program` (in declaration order) so that,
/// under the *default* round-robin computation mapping, the mean Manhattan
/// distance between each access's core and its page's memory controller is
/// minimized. Returns the per-array pad (in pages) that was applied.
///
/// This reproduces the DO baseline's character: it optimizes data
/// placement once per array, program-wide, and cannot adapt per loop nest.
pub fn optimize_layout(
    program: &mut Program,
    platform: &Platform,
    data: &DataEnv,
    sample_stride: usize,
) -> Vec<u64> {
    let mc_count = platform.mc_count() as u64;
    let narrays = program.arrays().len();
    let mut pads = vec![0u64; narrays];

    // Default mapping: set s -> core s % cores; cost of an access =
    // distance(core, MC of page).
    let cores = platform.mesh.node_count();

    for target in 0..narrays {
        let mut best_pad = 0u64;
        let mut best_cost = f64::INFINITY;
        for pad in 0..mc_count {
            pads[target] = pad;
            program.relayout(&pads);
            let mut cost = 0.0;
            let mut n = 0u64;
            for nest_id in program.nest_ids().collect::<Vec<_>>() {
                let nest = program.nest(nest_id);
                if nest.is_irregular()
                    && nest.refs.iter().any(|r| match &r.kind {
                        locmap_loopir::RefKind::Indirect { index_array, .. } => !data.has(*index_array),
                        _ => false,
                    })
                {
                    continue;
                }
                let space = IterationSpace::enumerate(nest, &program.params());
                let sets = space.split_by_fraction(0.0025);
                let target_refs: Vec<_> = nest
                    .refs
                    .iter()
                    .filter(|r| r.array == locmap_loopir::ArrayId(target as u32))
                    .map(|r| program.compile(r, nest.depth(), data))
                    .collect();
                for set in &sets {
                    let core = NodeId((set.id % cores) as u16);
                    let core_coord = platform.mesh.coord_of(core);
                    for k in set.indices().step_by(sample_stride.max(1)) {
                        let iv = space.get(k);
                        for r in &target_refs {
                            let addr = PhysAddr(r.addr(iv));
                            let mc = platform.addr_map.mc_of(addr);
                            let mc_coord = platform.mc_coords[mc.index()];
                            cost += core_coord.manhattan(mc_coord) as f64;
                            n += 1;
                        }
                    }
                }
            }
            let cost = if n == 0 { 0.0 } else { cost / n as f64 };
            if cost < best_cost {
                best_cost = cost;
                best_pad = pad;
            }
        }
        pads[target] = best_pad;
        program.relayout(&pads);
    }
    pads
}

/// Das et al. HPCA'13-style placement: rank iteration sets by memory
/// intensity (LLC-miss traffic) and place the most intensive ones on the
/// cores closest to *any* memory controller. Location of the specific
/// controller owning the data is not consulted — the contrast the paper
/// draws with its location-aware scheme.
///
/// `intensity[s]` is the per-set miss-traffic estimate (e.g. observed miss
/// counts or MAI mass); cores are filled in increasing distance-to-MC
/// order, one set per core round-robin to keep loads balanced.
pub fn hardware_placement(
    platform: &Platform,
    nest: NestId,
    sets: &[locmap_loopir::IterationSet],
    intensity: &[f64],
) -> NestMapping {
    assert_eq!(sets.len(), intensity.len(), "one intensity per set");
    let mesh = platform.mesh;

    // Cores sorted by distance to the nearest MC (ties by id).
    let mut cores: Vec<(u32, NodeId)> = mesh
        .nodes()
        .map(|n| {
            let c = mesh.coord_of(n);
            let d = platform
                .mc_coords
                .iter()
                .map(|mc| c.manhattan(*mc))
                .min()
                .expect("at least one MC");
            (d, n)
        })
        .collect();
    cores.sort_by_key(|&(d, n)| (d, n.0));

    // Sets sorted by decreasing intensity (ties by id for determinism).
    let mut order: Vec<usize> = (0..sets.len()).collect();
    order.sort_by(|&a, &b| {
        intensity[b].partial_cmp(&intensity[a]).expect("finite intensity").then(a.cmp(&b))
    });

    // Deal sets to cores: most intensive set -> closest core, wrapping.
    let mut assignment = vec![NodeId(0); sets.len()];
    for (rank, &s) in order.iter().enumerate() {
        assignment[s] = cores[rank % cores.len()].1;
    }
    let regions = assignment.iter().map(|&n| platform.regions.region_of(n)).collect();

    NestMapping {
        nest,
        sets: sets.to_vec(),
        regions,
        assignment,
        balance: BalanceReport { moved: 0, total: sets.len() },
        needs_inspector: false,
        mai: Vec::new(),
        cai: Vec::new(),
        alphas: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmap_core::Compiler;
    use locmap_loopir::{Access, AffineExpr, LoopNest};

    fn two_array_program() -> Program {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 4096);
        let b = p.add_array("B", 8, 4096);
        let mut nest = LoopNest::rectangular("n", &[4096]);
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
        nest.add_ref(b, AffineExpr::var(0, 1), Access::Read);
        p.add_nest(nest);
        p
    }

    #[test]
    fn layout_padding_changes_bases_and_reduces_cost() {
        let platform = Platform::paper_default();
        let mut p = two_array_program();
        let before: Vec<u64> = p.arrays().iter().map(|a| a.base).collect();
        let pads = optimize_layout(&mut p, &platform, &DataEnv::new(), 4);
        assert_eq!(pads.len(), 2);
        assert!(pads.iter().all(|&x| x < 4));
        // Relayout is consistent: disjoint, ordered, page aligned.
        let arrays = p.arrays();
        for w in arrays.windows(2) {
            assert!(w[0].base + w[0].bytes() <= w[1].base);
        }
        for a in arrays {
            assert_eq!(a.base % 2048, 0);
        }
        let _ = before;
    }

    #[test]
    fn layout_is_deterministic() {
        let platform = Platform::paper_default();
        let mut p1 = two_array_program();
        let mut p2 = two_array_program();
        let d = DataEnv::new();
        assert_eq!(
            optimize_layout(&mut p1, &platform, &d, 4),
            optimize_layout(&mut p2, &platform, &d, 4)
        );
    }

    #[test]
    fn hardware_placement_puts_intense_sets_near_mcs() {
        let platform = Platform::paper_default();
        let p = two_array_program();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let m = compiler.default_mapping(&p, locmap_loopir::NestId(0));
        // Set 0 is the most intensive.
        let mut intensity = vec![0.0; m.sets.len()];
        intensity[0] = 100.0;
        let hw = hardware_placement(&platform, locmap_loopir::NestId(0), &m.sets, &intensity);
        // Most intensive set sits on an MC-adjacent corner core.
        let c = platform.mesh.coord_of(hw.assignment[0]);
        let dmin = platform.mc_coords.iter().map(|mc| c.manhattan(*mc)).min().unwrap();
        assert_eq!(dmin, 0, "most intensive set should sit on an MC corner");
    }

    #[test]
    fn hardware_placement_balances_loads() {
        let platform = Platform::paper_default();
        let p = two_array_program();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let m = compiler.default_mapping(&p, locmap_loopir::NestId(0));
        let intensity = vec![1.0; m.sets.len()];
        let hw = hardware_placement(&platform, locmap_loopir::NestId(0), &m.sets, &intensity);
        let mut loads = vec![0usize; 36];
        for a in &hw.assignment {
            loads[a.index()] += 1;
        }
        let (max, min) = (loads.iter().max().unwrap(), loads.iter().min().unwrap());
        assert!(max - min <= 1, "{loads:?}");
    }
}
