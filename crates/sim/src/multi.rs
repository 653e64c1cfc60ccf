//! Multiprogrammed execution: several multi-threaded applications co-run
//! on one chip, sharing the NoC, LLC banks and DRAM (§5's co-run study).
//!
//! Each application brings its own mapping (computed as if it owned the
//! machine). Per core, the slots' iteration sets are interleaved
//! round-robin, so applications genuinely contend for links and banks in
//! time — the effect the co-run experiment measures.

use crate::config::SimConfig;
use crate::engine::{Level, SetStarts, Simulator};
use locmap_core::{NestMapping, Platform};
use locmap_loopir::{Access, DataEnv, IterCursor, Program};
use locmap_mem::Access as MemAccess;
use locmap_noc::LocmapError;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::sync::atomic::{AtomicUsize, Ordering};

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
/// Address spaces are made disjoint by offsetting each slot's addresses by
/// `slot_index × 1 GiB` (page-aligned, so interleaving behavior per slot is
/// unchanged). As in [`Simulator::run`], the co-run's clock starts at
/// cycle 0, so link and bank occupancy left by an earlier run is released.
///
/// # Panics
///
/// Panics if a slot's mapping does not match its program.
pub fn run_multiprogram(sim: &mut Simulator, slots: &[Slot<'_>]) -> MultiprogramResult {
    const SLOT_OFFSET: u64 = 1 << 30;
    let nodes = sim.platform().mesh.node_count();
    let net0 = *sim.net_stats();
    sim.restart_clock();

    let params: Vec<_> = slots.iter().map(|s| s.program.params()).collect();
    let starts: Vec<SetStarts> = slots
        .iter()
        .zip(&params)
        .map(|(s, env)| SetStarts::new(s.program.nest(s.mapping.nest), env, &s.mapping.sets))
        .collect();

    // Per-core work queue: (app, set) pairs interleaved round-robin across
    // apps.
    let mut per_app_core: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); nodes]; slots.len()];
    for (ai, s) in slots.iter().enumerate() {
        for (set_idx, core) in s.mapping.assignment.iter().enumerate() {
            per_app_core[ai][core.index()].push(set_idx);
        }
    }
    let mut work: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nodes];
    for c in 0..nodes {
        let mut taken = vec![0usize; slots.len()];
        loop {
            let mut progressed = false;
            for ai in 0..slots.len() {
                if taken[ai] < per_app_core[ai][c].len() {
                    work[c].push((ai, per_app_core[ai][c][taken[ai]]));
                    taken[ai] += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    // Per core, one cursor over each slot's space.
    let slot_cursors: Vec<IterCursor<'_>> = slots
        .iter()
        .zip(&params)
        .map(|(s, env)| IterCursor::new(s.program.nest(s.mapping.nest), env))
        .collect();
    let mut cursors = vec![slot_cursors; nodes];
    let mut pos = vec![(0usize, 0usize); nodes];
    let mut clock = vec![0.0f64; nodes];
    let mut app_finish = vec![0u64; slots.len()];

    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for (c, w) in work.iter().enumerate() {
        if !w.is_empty() {
            heap.push(Reverse((0, c)));
        }
    }

    // As in `Simulator::run`: the earliest core's clock is the network's
    // floor, and the top is stepped in place.
    while let Some(mut top) = heap.peek_mut() {
        let Reverse((rt, c)) = *top;
        sim.advance(rt);
        let (wi, off) = pos[c];
        let (ai, set_idx) = work[c][wi];
        let slot = &slots[ai];
        let nest = slot.program.nest(slot.mapping.nest);
        let set = slot.mapping.sets[set_idx];
        let cursor = &mut cursors[c][ai];
        starts[ai].advance(cursor, set_idx, off);

        let mut t = clock[c] + nest.work_per_iter as f64 * sim.config().cpi_base;
        let iv = cursor.iv();
        for r in &nest.refs {
            let addr = slot.program.resolve(r, iv, slot.data) + ai as u64 * SLOT_OFFSET;
            let acc = match r.access {
                Access::Read => MemAccess::Read,
                Access::Write => MemAccess::Write,
            };
            let (done, level, _, _) = sim.access(t as u64, c, addr, acc);
            let _: Level = level;
            t = done as f64;
        }
        clock[c] = t;
        app_finish[ai] = app_finish[ai].max(t as u64);

        let (mut wi, mut off) = pos[c];
        off += 1;
        if set.start + off >= set.end {
            wi += 1;
            off = 0;
        }
        pos[c] = (wi, off);
        if wi < work[c].len() {
            *top = Reverse((clock[c] as u64, c));
        } else {
            PeekMut::pop(top);
        }
    }

    let net1 = *sim.net_stats();
    let msgs = net1.messages - net0.messages;
    let lat = net1.total_latency - net0.total_latency;

    MultiprogramResult {
        total_cycles: app_finish.iter().copied().max().unwrap_or(0),
        app_cycles: app_finish,
        avg_net_latency: if msgs == 0 { 0.0 } else { lat as f64 / msgs as f64 },
    }
}

/// Runs each slot *independently* — its own machine, no cross-slot
/// contention — fanning the simulations out over `threads` scoped worker
/// threads, and merges the per-slot results deterministically.
///
/// This models space-shared tenants (each job gets the whole chip for its
/// time slice), the complement of [`run_multiprogram`]'s time-shared
/// co-run where slots contend for links and banks. Because every slot's
/// simulation is self-contained and the merge folds results in slot order,
/// the output is bit-identical for any worker count:
///
/// * `app_cycles[i]` — completion cycles of slot `i` on its own machine;
/// * `total_cycles` — max over slots (the batch makespan);
/// * `avg_net_latency` — message-weighted mean over all slots' traffic
///   (network counters are summed before dividing, not averaged).
///
/// Returns the first slot's error (in slot order) if the machine cannot be
/// built from `cfg`.
pub fn run_multiprogram_parallel(
    platform: &Platform,
    cfg: SimConfig,
    slots: &[Slot<'_>],
    threads: usize,
) -> Result<MultiprogramResult, LocmapError> {
    struct SlotOutcome {
        cycles: u64,
        messages: u64,
        total_latency: u64,
    }

    let run_slot = |slot: &Slot<'_>| -> Result<SlotOutcome, LocmapError> {
        let mut sim = Simulator::builder(platform.clone()).config(cfg).build()?;
        let r = run_multiprogram(&mut sim, std::slice::from_ref(slot));
        let net = sim.net_stats();
        Ok(SlotOutcome {
            cycles: r.total_cycles,
            messages: net.messages,
            total_latency: net.total_latency,
        })
    };

    let workers = threads.min(slots.len()).max(1);
    let mut outcomes: Vec<Option<Result<SlotOutcome, LocmapError>>> = if workers == 1 {
        slots.iter().map(|s| Some(run_slot(s))).collect()
    } else {
        let next = AtomicUsize::new(0);
        let collected: Vec<Vec<(usize, Result<SlotOutcome, LocmapError>)>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut local = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= slots.len() {
                                    break;
                                }
                                local.push((i, run_slot(&slots[i])));
                            }
                            local
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("corun worker panicked")).collect()
            });
        let mut by_slot: Vec<Option<Result<SlotOutcome, LocmapError>>> =
            (0..slots.len()).map(|_| None).collect();
        for (i, r) in collected.into_iter().flatten() {
            by_slot[i] = Some(r);
        }
        by_slot
    };

    let mut result = MultiprogramResult::default();
    let (mut messages, mut latency) = (0u64, 0u64);
    for outcome in outcomes.iter_mut() {
        let o = outcome.take().expect("every slot index was claimed exactly once")?;
        result.app_cycles.push(o.cycles);
        result.total_cycles = result.total_cycles.max(o.cycles);
        messages += o.messages;
        latency += o.total_latency;
    }
    result.avg_net_latency =
        if messages == 0 { 0.0 } else { latency as f64 / messages as f64 };
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use locmap_core::{Compiler, Platform};
    use locmap_loopir::{AffineExpr, LoopNest};

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
    fn single_slot_matches_run_nest_shape() {
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let (p, id) = app("solo", 4000);
        let d = DataEnv::new();
        let m = compiler.default_mapping(&p, id);
        let mut sim = Simulator::builder(platform).build().unwrap();
        let r = run_multiprogram(&mut sim, &[Slot { program: &p, mapping: &m, data: &d }]);
        assert_eq!(r.app_cycles.len(), 1);
        assert_eq!(r.app_cycles[0], r.total_cycles);
    }

    #[test]
    fn parallel_corun_is_worker_count_invariant() {
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let d = DataEnv::new();
        let apps: Vec<_> = (0..3).map(|i| app(&format!("a{i}"), 4000 + 1000 * i)).collect();
        let mappings: Vec<_> = apps.iter().map(|(p, id)| compiler.map_nest(p, *id, &d)).collect();
        let slots: Vec<Slot<'_>> = apps
            .iter()
            .zip(&mappings)
            .map(|((p, _), m)| Slot { program: p, mapping: m, data: &d })
            .collect();

        let cfg = SimConfig::default();
        let r1 = run_multiprogram_parallel(&platform, cfg, &slots, 1).unwrap();
        let r4 = run_multiprogram_parallel(&platform, cfg, &slots, 4).unwrap();
        assert_eq!(r1.app_cycles, r4.app_cycles, "worker count changed the result");
        assert_eq!(r1.total_cycles, r4.total_cycles);
        assert_eq!(r1.avg_net_latency.to_bits(), r4.avg_net_latency.to_bits());
        assert_eq!(r1.total_cycles, r1.app_cycles.iter().copied().max().unwrap());
    }

    #[test]
    fn parallel_corun_single_slot_matches_isolated_run() {
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let (p, id) = app("iso", 6000);
        let d = DataEnv::new();
        let m = compiler.map_nest(&p, id, &d);
        let slots = [Slot { program: &p, mapping: &m, data: &d }];

        let par =
            run_multiprogram_parallel(&platform, SimConfig::default(), &slots, 2).unwrap();
        let mut sim = Simulator::builder(platform).build().unwrap();
        let serial = run_multiprogram(&mut sim, &slots);
        assert_eq!(par.app_cycles, serial.app_cycles);
        assert_eq!(par.total_cycles, serial.total_cycles);
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
