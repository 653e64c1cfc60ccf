//! The simulation engine: cores executing mapped iteration sets against
//! the shared NoC / LLC / DRAM state.

use crate::config::SimConfig;
use crate::multi::Slot;
use crate::result::RunResult;
use crate::timeline::{SimError, TransientFault};
use locmap_core::{AffinityVec, LlcOrg, MeasuredRates, NestMapping, Platform};
use locmap_loopir::{
    Access, CompiledRef, DataEnv, IterCursor, IterationSet, LoopNest, ParamEnv, Program,
};
use locmap_mem::{Access as MemAccess, Cache, Directory, Dram, PhysAddr};
use locmap_noc::{
    route, FaultComponent, FaultPlan, FaultState, LocmapError, McId, MessageKind, Network, NodeId,
    RunControl,
};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// How far apart the slots' address spaces lie: slot `i`'s addresses are
/// offset by `i` GiB, which is page-aligned, so a slot's pages interleave
/// across MCs and banks as they would alone.
const SLOT_OFFSET: u64 = 1 << 30;

/// Deals `queues` round-robin: the first element of each, then the second
/// of each, and so on.
fn round_robin(queues: &[Vec<usize>]) -> Vec<usize> {
    let rounds = queues.iter().map(Vec::len).max().unwrap_or(0);
    (0..rounds).flat_map(|j| queues.iter().filter_map(move |q| q.get(j).copied())).collect()
}

/// The memory-system access kind of a reference.
fn mem_access(a: Access) -> MemAccess {
    match a {
        Access::Read => MemAccess::Read,
        Access::Write => MemAccess::Write,
    }
}

/// The simulated manycore: mutable machine state plus configuration.
///
/// A `Simulator` keeps cache/DRAM/network state across `run_nest` calls so
/// multi-nest programs see warm caches; build a new simulator for an
/// independent experiment.
#[derive(Debug)]
pub struct Simulator {
    platform: Platform,
    cfg: SimConfig,
    net: Network,
    l1s: Vec<Cache>,
    l2s: Vec<Cache>,
    dram: Dram,
    dir: Directory,
    invalidations: u64,
    faults: SimFaults,
}

/// Validated fault state plus the redirect tables derived from it.
///
/// Addresses homed on a dead MC are served by the nearest surviving
/// controller; addresses homed on a dead LLC bank by the nearest surviving
/// bank. The redirects come from [`FaultState::mc_redirects`] /
/// [`FaultState::bank_redirects`], the same functions the degraded-mode
/// mapper uses, so the mapper's model of post-fault traffic matches what
/// the machine actually does. On a healthy machine both are the identity.
#[derive(Debug, Clone)]
struct SimFaults {
    state: FaultState,
    mc_redirect: Vec<usize>,
    bank_redirect: Vec<u16>,
}

impl SimFaults {
    /// Normalizes `state` ([`FaultState::effective`]: a dead router takes
    /// its bank and any attached MC down with it) and validates it: at
    /// least one MC and one LLC bank must survive and the alive routers
    /// must remain mutually reachable over surviving links.
    fn new(state: &FaultState, platform: &Platform) -> Result<Self, LocmapError> {
        if state.mesh() != platform.mesh {
            return Err(LocmapError::InvalidConfig(format!(
                "fault state describes a {} but the platform has a {}",
                state.mesh(),
                platform.mesh
            )));
        }
        let eff = state.effective(&platform.mc_coords);
        let mc_redirect = eff.mc_redirects(&platform.mc_coords)?;
        let bank_redirect = eff.bank_redirects()?;
        eff.check_connected()?;
        Ok(SimFaults { state: eff, mc_redirect, bank_redirect })
    }
}

/// Per-(set, ref) counters for measured hit rates.
#[derive(Debug, Clone, Default)]
struct RefCounters {
    total: u64,
    l1_hits: u64,
    llc_seen: u64,
    llc_hits: u64,
}

/// Live timeline state for [`Simulator::run`].
#[derive(Debug)]
struct TimelineCtx<'a> {
    plan: &'a FaultPlan,
    /// Absolute cycle the segment started at (local clock 0).
    start_cycle: u64,
    /// Fault boundaries still ahead: absolute, ascending, > `start_cycle`.
    boundaries: Vec<u64>,
    next: usize,
    /// The fault state in force in each epoch: `states[0]` from the start,
    /// `states[i]` after the `i`-th crossed boundary.
    states: Vec<FaultState>,
}

/// What the core's most recent iteration touched, for retroactive victim
/// detection when a fault boundary lands inside the iteration's interval.
#[derive(Debug, Clone, Default)]
struct LastIter {
    /// Local cycle the iteration issued at.
    start: u64,
    /// Local cycle the iteration completed at.
    end: u64,
    /// Index into [`TimelineCtx::states`] of the state it issued under.
    epoch: usize,
    /// Index into `mapping.sets`.
    set: usize,
    /// Network legs traversed (src node, dst node), in traversal order.
    legs: Vec<(NodeId, NodeId)>,
    /// MCs whose DRAM served a miss.
    mcs: Vec<usize>,
    /// LLC bank nodes that served or forwarded an access.
    banks: Vec<NodeId>,
}

/// Each iteration set's first iteration vector and the nest's iteration
/// count, from one walk of its space: `nsets × depth` words, where the
/// enumerated space would take `iterations × depth`.
#[derive(Debug)]
struct SetStarts<'a> {
    sets: &'a [IterationSet],
    rows: Vec<i64>,
    depth: usize,
    /// Iterations in the nest.
    total: usize,
}

impl<'a> SetStarts<'a> {
    fn new(nest: &LoopNest, env: &ParamEnv, sets: &'a [IterationSet]) -> Self {
        let at: Vec<usize> = sets.iter().map(|s| s.start).collect();
        let (rows, total) = IterCursor::new(nest, env).vectors_at(&at);
        SetStarts { sets, rows, depth: nest.depth(), total }
    }

    /// Moves `cursor` to iteration `off` of set `s`: a seek to the set's
    /// recorded first vector at `off == 0`, one step for each later one.
    ///
    /// # Panics
    ///
    /// Panics if the iteration lies past the end of the space.
    fn advance(&self, cursor: &mut IterCursor<'_>, s: usize, off: usize) {
        let k = self.sets[s].start + off;
        let positioned = if off == 0 {
            k < self.total && cursor.seek(&self.rows[s * self.depth..(s + 1) * self.depth])
        } else {
            cursor.step()
        };
        assert!(positioned, "iteration {k} lies outside the nest's {}-iteration space", self.total);
    }
}

/// The outcome level of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    L1,
    Llc,
    Mem,
}

/// Step-by-step construction of a [`Simulator`].
///
/// Obtained from [`Simulator::builder`]. [`SimulatorBuilder::build`]
/// validates the timing configuration and platform consistency, returning
/// a typed error instead of panicking, and can start the machine directly
/// in degraded mode.
#[derive(Debug, Clone)]
pub struct SimulatorBuilder {
    platform: Platform,
    cfg: SimConfig,
    faults: Option<FaultState>,
}

impl SimulatorBuilder {
    /// Replaces the timing configuration (default: [`SimConfig::default`]).
    pub fn config(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Starts the machine in the degraded mode described by `state`
    /// (validated exactly like [`Simulator::set_faults`]; default:
    /// [`FaultState::none`]).
    pub fn faults(mut self, state: &FaultState) -> Self {
        self.faults = Some(state.clone());
        self
    }

    /// Builds the machine.
    ///
    /// Returns [`LocmapError::InvalidConfig`] for a bad timing
    /// configuration or a platform whose address map disagrees with the
    /// mesh, and fault-validation errors for an unsurvivable fault state.
    pub fn build(self) -> Result<Simulator, LocmapError> {
        self.cfg.validate()?;
        let nodes = self.platform.mesh.node_count();
        let banks = self.platform.addr_map.config().llc_banks as usize;
        if banks != nodes {
            return Err(LocmapError::InvalidConfig(format!(
                "address map expects {banks} LLC banks but the mesh has {nodes} nodes"
            )));
        }
        let state = self
            .faults
            .unwrap_or_else(|| FaultState::none(self.platform.mesh, self.platform.mc_count()));
        let faults = SimFaults::new(&state, &self.platform)?;
        Ok(Simulator::construct(self.platform, self.cfg, faults))
    }
}

impl Simulator {
    /// Starts building the machine described by `platform`.
    pub fn builder(platform: Platform) -> SimulatorBuilder {
        SimulatorBuilder { platform, cfg: SimConfig::default(), faults: None }
    }

    fn construct(platform: Platform, cfg: SimConfig, faults: SimFaults) -> Self {
        let nodes = platform.mesh.node_count();
        let mut net = Network::new(cfg.noc, platform.mesh);
        net.set_faults(&faults.state);
        Simulator {
            net,
            l1s: (0..nodes).map(|_| Cache::new(cfg.l1)).collect(),
            l2s: (0..nodes).map(|_| Cache::new(cfg.l2_bank)).collect(),
            dram: Dram::new(cfg.dram, platform.mc_count()),
            dir: Directory::new(nodes),
            invalidations: 0,
            faults,
            platform,
            cfg,
        }
    }

    /// Puts the machine into the fault state `state`;
    /// [`FaultState::none`] returns it to fault-free operation.
    ///
    /// The state is first normalized ([`FaultState::effective`]: a dead
    /// router takes its bank and any attached MC down with it), then
    /// validated: at least one MC and one LLC bank must survive and the
    /// alive routers must remain mutually reachable over surviving links.
    /// On success all subsequent traffic routes around the faults and
    /// redirected addresses go to their nearest surviving MC/bank; on
    /// error the simulator is left unchanged.
    pub fn set_faults(&mut self, state: &FaultState) -> Result<(), LocmapError> {
        let faults = SimFaults::new(state, &self.platform)?;
        // A dead router takes its core's L1 contents with it: drop the
        // core's cache and its sharer-directory entries, so no later write
        // tries to deliver an invalidation to a node nothing can reach.
        for c in 0..self.platform.mesh.node_count() {
            if !faults.state.router_alive(NodeId(c as u16)) {
                self.l1s[c] = Cache::new(self.cfg.l1);
                self.dir.purge_core(c);
            }
        }
        self.net.set_faults(&faults.state);
        self.faults = faults;
        Ok(())
    }

    /// The active (normalized) fault state; [`FaultState::is_clean`] on a
    /// healthy machine.
    pub fn faults(&self) -> &FaultState {
        &self.faults.state
    }

    /// The platform being simulated.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The timing configuration.
    pub fn config(&self) -> SimConfig {
        self.cfg
    }

    /// Executes one mapped nest to completion and returns its metrics.
    ///
    /// Panics if the mapping places work on a core whose router is dead
    /// under the faults set by [`Simulator::set_faults`]; use
    /// [`Simulator::run`] to get that as a typed error instead.
    pub fn run_nest(&mut self, program: &Program, mapping: &NestMapping, data: &DataEnv) -> RunResult {
        self.run(program, mapping, data, None, None).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Executes one mapped nest, optionally while a fault timeline
    /// advances and under a deadline/cancellation [`RunControl`].
    ///
    /// Mappings with work on a dead core are rejected with
    /// [`SimError::InvalidMapping`] before anything runs: dead under the
    /// faults set by [`Simulator::set_faults`], or, with a `timeline`,
    /// under its plan's state at the start cycle.
    ///
    /// With `timeline = Some((plan, start_cycle))` the segment starts at
    /// absolute cycle `start_cycle` (the returned metrics are relative to
    /// it) in `plan.state_at(start_cycle)`. At every later boundary of
    /// [`FaultPlan::change_cycles`] the machine swaps in
    /// `state_at(boundary)`; in-flight work that a newly-dead
    /// link/router/MC/bank interrupts surfaces as [`SimError::Transient`]
    /// (carrying which sets completed and the partial metrics), and a
    /// state the machine cannot survive — partitioned mesh, no MC or bank
    /// left — as [`SimError::Unsurvivable`]. The caller (normally the
    /// resilience heal driver, `locmap_bench::heal`) retries transient
    /// faults, remaps the incomplete sets after persistent ones, or
    /// degrades. On success the machine is left in the state of the last
    /// crossed boundary, so a follow-on segment continues from a
    /// consistent machine.
    ///
    /// With `ctl = Some(..)` the engine checkpoints it once per simulated
    /// iteration (one work unit each), so a cancellation or exhausted
    /// budget is observed within one iteration's worth of host work and
    /// surfaces as [`SimError::Aborted`] carrying the metrics accumulated
    /// so far. With an unlimited control the result is bit-identical to
    /// [`Simulator::run_nest`]. The machine state (caches, network) is
    /// left as of the abort point — build a new simulator for an
    /// unrelated experiment.
    pub fn run(
        &mut self,
        program: &Program,
        mapping: &NestMapping,
        data: &DataEnv,
        timeline: Option<(&FaultPlan, u64)>,
        ctl: Option<&RunControl>,
    ) -> Result<RunResult, SimError> {
        let slot = Slot { program, mapping, data };
        self.execute(std::slice::from_ref(&slot), timeline, ctl).map(|(result, _)| result)
    }

    /// The event loop behind [`Simulator::run`] and
    /// [`crate::run_multiprogram`]: executes one mapped nest per slot, all
    /// together, and returns the run's metrics and each slot's finish cycle
    /// (its slowest core).
    ///
    /// Sets are numbered across the slots in slot order; that numbering
    /// indexes the result's measured rates and observed vectors and a
    /// [`TransientFault`]'s `set` and `completed`. Slot `i`'s addresses are
    /// offset by `i` × [`SLOT_OFFSET`], so the slots' address spaces are
    /// disjoint. Each core takes each slot's sets in ascending order, dealt
    /// round-robin across the slots, so co-running slots contend for links
    /// and banks in time. With one slot this is the order of the sets.
    pub(crate) fn execute(
        &mut self,
        slots: &[Slot<'_>],
        timeline: Option<(&FaultPlan, u64)>,
        ctl: Option<&RunControl>,
    ) -> Result<(RunResult, Vec<u64>), SimError> {
        let mut timeline = match timeline {
            Some((plan, start_cycle)) => {
                self.set_faults(&plan.state_at(start_cycle))
                    .map_err(|source| SimError::Unsurvivable { cycle: start_cycle, source })?;
                let boundaries: Vec<u64> =
                    plan.change_cycles().into_iter().filter(|&b| b > start_cycle).collect();
                let states = vec![self.faults.state.clone()];
                Some(TimelineCtx { plan, start_cycle, boundaries, next: 0, states })
            }
            None => None,
        };
        // Each set's (slot, index into the slot's mapping), by set number.
        let owner: Vec<(usize, usize)> = slots
            .iter()
            .enumerate()
            .flat_map(|(i, slot)| (0..slot.mapping.assignment.len()).map(move |k| (i, k)))
            .collect();
        let core_of = |(i, k): (usize, usize)| slots[i].mapping.assignment[k];
        for (s, &o) in owner.iter().enumerate() {
            let core = core_of(o);
            if !self.faults.state.router_alive(core) {
                return Err(SimError::InvalidMapping(format!(
                    "iteration set {s} is mapped to dead core {core}; remap before running"
                )));
            }
        }

        self.restart_clock();

        let nsets = owner.len();
        let nodes = self.platform.mesh.node_count();
        let tracking = timeline.is_some();
        let nests: Vec<&LoopNest> = slots.iter().map(|s| s.program.nest(s.mapping.nest)).collect();
        let params: Vec<ParamEnv> = slots.iter().map(|s| s.program.params()).collect();
        // Each slot's references, compiled once, with their access kinds.
        let refs: Vec<Vec<(CompiledRef<'_>, MemAccess)>> = slots
            .iter()
            .zip(&nests)
            .map(|(s, nest)| {
                let kinds = nest.refs.iter().map(|r| mem_access(r.access));
                s.program.compile_refs(nest, s.data).into_iter().zip(kinds).collect()
            })
            .collect();
        let bank_regions = self.platform.bank_regions();

        // Each core steps its own cursor per slot through its sets.
        let starts: Vec<SetStarts<'_>> = slots
            .iter()
            .zip(&nests)
            .zip(&params)
            .map(|((s, nest), env)| SetStarts::new(nest, env, &s.mapping.sets))
            .collect();
        let total: usize = starts.iter().map(|s| s.total).sum();
        let slot_cursors: Vec<IterCursor<'_>> =
            nests.iter().zip(&params).map(|(nest, env)| IterCursor::new(nest, env)).collect();
        let mut cursors = vec![slot_cursors; nodes];

        // Per-core ordered work list of set numbers.
        let mut queues: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); slots.len()]; nodes];
        for (s, &o) in owner.iter().enumerate() {
            queues[core_of(o).index()][o.0].push(s);
        }
        let work: Vec<Vec<usize>> = queues.iter().map(|q| round_robin(q)).collect();

        // Per-core progress: (position in work list, offset inside set).
        let mut pos = vec![(0usize, 0usize); nodes];
        let mut clock = vec![0.0f64; nodes];
        let mut finish = vec![0u64; slots.len()];
        let mut last_iter: Vec<Option<LastIter>> = vec![None; nodes];
        let mut done_iters = vec![0u64; nsets];

        // Measurement state.
        let mut counters: Vec<Vec<RefCounters>> =
            owner.iter().map(|&(i, _)| vec![RefCounters::default(); nests[i].refs.len()]).collect();
        let mc_count = self.platform.mc_count();
        let nregions = self.platform.region_count();
        let mut mai_tally = vec![vec![0u64; mc_count]; nsets];
        let mut cai_tally = vec![vec![0u64; nregions]; nsets];
        let mut access_tally = vec![0u64; nsets];

        // Advance the earliest core one iteration at a time.
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        for (c, w) in work.iter().enumerate() {
            if !w.is_empty() {
                heap.push(Reverse((0, c)));
            }
        }

        let mut issued: usize = 0;
        loop {
            // A fault boundary fires before any iteration issuing at or
            // after it (injections take effect at their cycle). When the
            // heap has drained, boundaries inside the run window still
            // fire — the tail iterations may span them.
            let ready = heap.peek().map(|&Reverse((rt, _))| rt);
            let boundary = timeline
                .as_ref()
                .and_then(|tl| tl.boundaries.get(tl.next).map(|&b| (b, b - tl.start_cycle)));
            let cross = match (boundary, ready) {
                (Some((_, bl)), Some(rt)) => bl <= rt,
                (Some((_, bl)), None) => {
                    bl <= clock.iter().cloned().fold(0.0, f64::max) as u64
                }
                (None, _) => false,
            };
            if cross {
                let (b, b_local) = boundary.expect("cross implies a boundary");
                let tl = timeline.as_mut().expect("cross implies a timeline");
                tl.next += 1;
                self.set_faults(&tl.plan.state_at(b))
                    .map_err(|source| SimError::Unsurvivable { cycle: b, source })?;
                tl.states.push(self.faults.state.clone());
                if let Some((core, set, component, in_flight)) =
                    self.find_victim(&work, &pos, &last_iter, b_local, &tl.states)
                {
                    let mut done = done_iters.clone();
                    if in_flight {
                        // The spanning iteration's packet never arrived:
                        // it must be re-executed.
                        done[set] = done[set].saturating_sub(1);
                    }
                    let completed: Vec<bool> = owner
                        .iter()
                        .zip(&done)
                        .map(|(&(i, k), &d)| {
                            let set = slots[i].mapping.sets[k];
                            d >= (set.end - set.start) as u64
                        })
                        .collect();
                    let cycles = clock.iter().cloned().fold(0.0, f64::max) as u64;
                    let partial = self.collect_result(
                        cycles.min(b_local),
                        &counters,
                        &mai_tally,
                        &cai_tally,
                        &access_tally,
                    );
                    return Err(SimError::Transient(Box::new(TransientFault {
                        component,
                        cycle: b,
                        core: NodeId(core as u16),
                        set,
                        completed,
                        partial,
                    })));
                }
                continue;
            }

            // Every later message is injected at or after the earliest
            // core's clock, and that clock never falls. The (cycle, core)
            // keys are unique, so stepping the top in place keeps the order.
            let Some(mut top) = heap.peek_mut() else { break };
            let Reverse((rt, c)) = *top;
            self.net.advance(rt);
            let (wi, off) = pos[c];
            let set_idx = work[c][wi];
            let (si, k) = owner[set_idx];
            let mapping = slots[si].mapping;
            let nest = nests[si];
            let set = mapping.sets[k];
            let cursor = &mut cursors[c][si];
            starts[si].advance(cursor, k, off);
            let offset = si as u64 * SLOT_OFFSET;

            // Compute work of the iteration, then issue all of its memory
            // references together: in-order cores still overlap misses of
            // one iteration through their MSHRs (memory-level parallelism),
            // so the iteration completes at the slowest reference, not the
            // sum.
            let t0 = clock[c] + nest.work_per_iter as f64 * self.cfg.cpi_base;
            let mut t = t0;
            let mut footprint = LastIter::default();

            let iv = cursor.iv();
            for (ri, &(r, acc)) in refs[si].iter().enumerate() {
                let addr = r.addr(iv) + offset;
                let (done, level, mc, bank) = self.access(t0 as u64, c, addr, acc);
                t = t.max(done as f64);
                if tracking {
                    self.record_footprint(&mut footprint, c, level, mc, bank);
                }

                // Measurement.
                let ctr = &mut counters[set_idx][ri];
                ctr.total += 1;
                access_tally[set_idx] += 1;
                match level {
                    Level::L1 => ctr.l1_hits += 1,
                    Level::Llc => {
                        ctr.llc_seen += 1;
                        ctr.llc_hits += 1;
                        cai_tally[set_idx][bank_regions[bank as usize].index()] += 1;
                    }
                    Level::Mem => {
                        ctr.llc_seen += 1;
                        mai_tally[set_idx][mc] += 1;
                    }
                }
            }
            clock[c] = t;
            finish[si] = finish[si].max(t as u64);
            done_iters[set_idx] += 1;
            issued += 1;
            // Cooperative overload control: one work unit per simulated
            // iteration, so an abort is observed within one iteration of
            // the token/budget tripping.
            if let Some(ctl) = ctl {
                if let Err(reason) = ctl.checkpoint(1, issued, total) {
                    let cycles = clock.iter().cloned().fold(0.0, f64::max) as u64;
                    let partial = self.collect_result(
                        cycles,
                        &counters,
                        &mai_tally,
                        &cai_tally,
                        &access_tally,
                    );
                    return Err(SimError::Aborted { reason, partial: Box::new(partial) });
                }
            }
            if let Some(tl) = &timeline {
                footprint.start = rt;
                footprint.end = t as u64;
                footprint.epoch = tl.next;
                footprint.set = set_idx;
                last_iter[c] = Some(footprint);
            }

            // Advance this core's position.
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

        let cycles = clock.iter().cloned().fold(0.0, f64::max) as u64;
        let result =
            self.collect_result(cycles, &counters, &mai_tally, &cai_tally, &access_tally);
        Ok((result, finish))
    }

    /// Records which network legs, MCs and banks one access used, for
    /// retroactive victim detection at fault boundaries. Only the legs'
    /// endpoints are kept; [`Simulator::blame`] re-routes each leg under
    /// the fault state the iteration issued under.
    fn record_footprint(
        &self,
        footprint: &mut LastIter,
        c: usize,
        level: Level,
        mc: usize,
        bank: u16,
    ) {
        let core_node = NodeId(c as u16);
        match (level, self.platform.llc) {
            (Level::L1, _) => {}
            (Level::Llc, LlcOrg::SharedSNuca) => {
                let bn = self.platform.bank_node(bank);
                footprint.legs.push((core_node, bn));
                footprint.legs.push((bn, core_node));
                footprint.banks.push(bn);
            }
            (Level::Llc, LlcOrg::Private) => {
                // Local bank probe: no network traversal.
                footprint.banks.push(core_node);
            }
            (Level::Mem, LlcOrg::SharedSNuca) => {
                let bn = self.platform.bank_node(bank);
                let mcn = self.platform.mc_node(McId(mc as u16));
                footprint.legs.push((core_node, bn));
                footprint.legs.push((bn, mcn));
                footprint.legs.push((mcn, bn));
                footprint.legs.push((bn, core_node));
                footprint.banks.push(bn);
                footprint.mcs.push(mc);
            }
            (Level::Mem, LlcOrg::Private) => {
                let mcn = self.platform.mc_node(McId(mc as u16));
                footprint.legs.push((core_node, mcn));
                footprint.legs.push((mcn, core_node));
                footprint.mcs.push(mc);
            }
        }
    }

    /// The deterministic victim of a fault boundary at local cycle
    /// `b_local`, if any: either a core with remaining work whose router
    /// just died, or the earliest-finishing in-flight iteration whose
    /// traffic crossed a newly-dead component. Returns
    /// `(core, set, component, in_flight)`; blame order when one incident
    /// touches several newly-dead components: router, link, MC, bank.
    /// `states` is [`TimelineCtx::states`] up to and including the state
    /// this boundary installed.
    fn find_victim(
        &self,
        work: &[Vec<usize>],
        pos: &[(usize, usize)],
        last_iter: &[Option<LastIter>],
        b_local: u64,
        states: &[FaultState],
    ) -> Option<(usize, usize, FaultComponent, bool)> {
        let [.., old, new] = states else { unreachable!("a boundary has a state on each side") };
        let newly_dead_router = |n: NodeId| old.router_alive(n) && !new.router_alive(n);
        let mut best: Option<(u64, usize, usize, FaultComponent, bool)> = None;
        let mut consider = |cand: (u64, usize, usize, FaultComponent, bool)| {
            let better = match &best {
                None => true,
                Some(b) => (cand.0, cand.1) < (b.0, b.1),
            };
            if better {
                best = Some(cand);
            }
        };
        for c in 0..work.len() {
            let node = NodeId(c as u16);
            let (wi, _) = pos[c];
            // (a) A core with remaining work lost its router: it cannot
            // issue another iteration. Interrupts at the boundary itself.
            if wi < work[c].len() && newly_dead_router(node) {
                consider((b_local, c, work[c][wi], FaultComponent::Router(node), false));
            }
            // (b) The core's latest iteration spans the boundary and its
            // packets crossed a component that just died: the response
            // never arrives.
            if let Some(li) = &last_iter[c] {
                if li.start <= b_local && li.end > b_local {
                    if let Some(comp) = self.blame(li, &states[li.epoch], old, new) {
                        consider((li.end, c, li.set, comp, true));
                    }
                }
            }
        }
        best.map(|(_, c, s, comp, in_flight)| (c, s, comp, in_flight))
    }

    /// The newly-dead component an in-flight iteration's traffic used, in
    /// blame order router > link > MC > bank; `None` when its traffic
    /// avoided everything that died between `old` and `new`. Each leg is
    /// routed under `sent`, the state the iteration issued under, so a
    /// detour around an earlier fault is blamed for the links it actually
    /// crossed, even when another boundary fell inside the iteration.
    fn blame(
        &self,
        li: &LastIter,
        sent: &FaultState,
        old: &FaultState,
        new: &FaultState,
    ) -> Option<FaultComponent> {
        let newly = |c: FaultComponent| old.alive(c) && !new.alive(c);
        for &(s, d) in &li.legs {
            let path = route(self.platform.mesh, sent, s, d)
                .expect("the leg was sent under `sent`, so its route exists");
            // Routers on the path (including endpoints), then its links.
            let routers = path.iter().map(|l| l.from).chain([d]).map(FaultComponent::Router);
            let links = path.iter().map(|&l| FaultComponent::Link(l));
            if let Some(c) = routers.chain(links).find(|&c| newly(c)) {
                return Some(c);
            }
        }
        let mcs = li.mcs.iter().map(|&k| FaultComponent::Mc(k));
        let banks = li.banks.iter().map(|&n| FaultComponent::Bank(n));
        mcs.chain(banks).find(|&c| newly(c))
    }

    /// Collects a [`RunResult`] for the run since the last
    /// [`restart_clock`](Self::restart_clock).
    fn collect_result(
        &self,
        cycles: u64,
        counters: &[Vec<RefCounters>],
        mai_tally: &[Vec<u64>],
        cai_tally: &[Vec<u64>],
        access_tally: &[u64],
    ) -> RunResult {
        let (l1_hits, l1_misses) = self.l1_totals();
        let (l2_hits, l2_misses, l2_writebacks) = self.l2_totals();

        // Measured rates.
        let rates = |rate: fn(&RefCounters) -> f64| -> Vec<Vec<f64>> {
            counters.iter().map(|refs| refs.iter().map(rate).collect()).collect()
        };
        let measured = MeasuredRates {
            l1: rates(|ctr| if ctr.total == 0 { 0.0 } else { ctr.l1_hits as f64 / ctr.total as f64 }),
            llc: rates(|ctr| {
                if ctr.llc_seen == 0 { 0.0 } else { ctr.llc_hits as f64 / ctr.llc_seen as f64 }
            }),
        };
        let ratios = |tallies: &[Vec<u64>]| -> Vec<AffinityVec> {
            tallies
                .iter()
                .zip(access_tally)
                .map(|(tal, &n)| {
                    AffinityVec(
                        tal.iter()
                            .map(|&x| if n == 0 { 0.0 } else { x as f64 / n as f64 })
                            .collect(),
                    )
                })
                .collect()
        };

        RunResult {
            cycles,
            network: *self.net.stats(),
            l1: locmap_mem::CacheStats { hits: l1_hits, misses: l1_misses, writebacks: 0 },
            l2: locmap_mem::CacheStats {
                hits: l2_hits,
                misses: l2_misses,
                writebacks: l2_writebacks,
            },
            dram: *self.dram.stats(),
            measured,
            observed_mai: ratios(mai_tally),
            observed_cai: ratios(cai_tally),
            invalidations: self.invalidations,
            resilience: None,
        }
    }

    /// Link-utilization diagnostic: (busiest link cycles, mean busy cycles).
    pub fn net_util(&self) -> (u64, f64) {
        self.net.link_utilization()
    }

    /// Per-directed-link cumulative busy cycles (see
    /// [`locmap_noc::Network::link_busy`]).
    pub fn net_link_busy(&self) -> &[u64] {
        self.net.link_busy()
    }

    fn l1_totals(&self) -> (u64, u64) {
        self.l1s.iter().fold((0, 0), |(h, m), c| (h + c.stats().hits, m + c.stats().misses))
    }

    fn l2_totals(&self) -> (u64, u64, u64) {
        self.l2s.iter().fold((0, 0, 0), |(h, m, w), c| {
            (h + c.stats().hits, m + c.stats().misses, w + c.stats().writebacks)
        })
    }

    /// The MC serving `pa`, after fault redirection.
    fn mc_for(&self, pa: PhysAddr) -> McId {
        let mc = self.platform.addr_map.mc_of(pa);
        McId(self.faults.mc_redirect[mc.index()] as u16)
    }

    /// The LLC bank homing `pa` (shared organization), after fault
    /// redirection.
    fn home_bank_for(&self, pa: PhysAddr) -> u16 {
        self.faults.bank_redirect[self.platform.addr_map.llc_bank_of(pa) as usize]
    }

    /// True when the private L2 bank at node `c` is offline.
    fn local_bank_dead(&self, c: usize) -> bool {
        !self.faults.state.bank_alive(NodeId(c as u16))
    }

    /// Starts a run's clock at cycle 0: releases the link and bank
    /// occupancy left over from earlier runs (cache contents and open rows
    /// stay warm) and starts every statistic afresh — network, L1, L2,
    /// DRAM and invalidations — so every counter of a run's
    /// [`RunResult`], the network's maximum latency too, covers that run
    /// alone.
    fn restart_clock(&mut self) {
        self.net.reset_contention();
        self.net.clear_stats();
        self.dram.release_timing();
        self.dram.clear_stats();
        for cache in self.l1s.iter_mut().chain(&mut self.l2s) {
            cache.clear_stats();
        }
        self.invalidations = 0;
    }

    /// Simulates one memory access by core `c` at cycle `t`.
    ///
    /// Returns `(completion_cycle, level_served, mc_index, bank_index)`.
    /// `mc_index`/`bank_index` are meaningful for `Mem`/`Llc` levels
    /// respectively (zero otherwise).
    ///
    /// Kept out of line: inlined into its one caller, the event loop,
    /// it made `run_nest` about 15% slower.
    #[inline(never)]
    fn access(&mut self, t: u64, c: usize, addr: u64, acc: MemAccess) -> (u64, Level, usize, u16) {
        let pa = PhysAddr(addr);
        let core_node = NodeId(c as u16);
        let l1_line = self.l1s[c].line_of(addr);

        // Coherence: a write must invalidate other cores' copies.
        if acc == MemAccess::Write && self.dir.is_shared_beyond(l1_line, c) {
            let sharers = self.dir.sharers_excluding(l1_line, c);
            for s in sharers {
                self.l1s[s].invalidate(l1_line);
                self.dir.remove_sharer(l1_line, s);
                // Invalidation message travels home-bank → sharer (shared
                // LLC) or writer → sharer (private); fire-and-forget, it
                // occupies links but does not stall the writer.
                let from = match self.platform.llc {
                    LlcOrg::SharedSNuca => self.platform.bank_node(self.home_bank_for(pa)),
                    LlcOrg::Private => core_node,
                };
                self.net.send(t, from, NodeId(s as u16), MessageKind::Coherence);
                self.invalidations += 1;
            }
        }

        // L1 lookup.
        match self.l1s[c].access(l1_line, acc) {
            locmap_mem::Lookup::Hit => {
                // Fills, evictions, invalidations, `purge_core` and `reset`
                // keep the directory in step with the L1s, so a hit needs
                // no directory update.
                debug_assert!(self.dir.is_sharer(l1_line, c), "L1 {c} holds line {l1_line} untracked");
                return (t + self.cfg.l1_hit_cycles, Level::L1, 0, 0);
            }
            locmap_mem::Lookup::Miss { evicted } => {
                self.dir.add_sharer(l1_line, c);
                if let Some(e) = evicted {
                    self.dir.remove_sharer(e.line, c);
                    if e.dirty {
                        // Dirty L1 line drains to its home L2 bank; the
                        // writeback is off the critical path.
                        let victim_addr = e.line * self.cfg.l1.line_bytes;
                        self.l1_writeback(t, c, victim_addr);
                    }
                }
            }
        }

        // L2 / LLC level.
        match self.platform.llc {
            LlcOrg::Private => {
                if self.local_bank_dead(c) {
                    // Degraded mode: the local bank is offline, so every L1
                    // miss goes straight to memory.
                    let mc = self.mc_for(pa);
                    let mc_node = self.platform.mc_node(mc);
                    let t3 = self.net.send(t, core_node, mc_node, MessageKind::MemRequest);
                    let t4 = self.dram.access(t3, mc, pa, &self.platform.addr_map);
                    let t5 = self.net.send(t4, mc_node, core_node, MessageKind::mem_response64());
                    return (t5 + self.cfg.l1_hit_cycles, Level::Mem, mc.index(), c as u16);
                }
                // Local bank, no network for the probe.
                let t2 = t + self.cfg.l2_hit_cycles;
                let l2_line = self.l2s[c].line_of(addr);
                match self.l2s[c].access(l2_line, acc) {
                    locmap_mem::Lookup::Hit => (t2 + self.cfg.l1_hit_cycles, Level::Llc, 0, c as u16),
                    locmap_mem::Lookup::Miss { evicted } => {
                        if let Some(e) = evicted {
                            if e.dirty {
                                self.l2_writeback(t2, c, e.line);
                            }
                        }
                        let mc = self.mc_for(pa);
                        let mc_node = self.platform.mc_node(mc);
                        let t3 = self.net.send(t2, core_node, mc_node, MessageKind::MemRequest);
                        let t4 = self.dram.access(t3, mc, pa, &self.platform.addr_map);
                        let t5 = self.net.send(t4, mc_node, core_node, MessageKind::mem_response64());
                        (t5 + self.cfg.l1_hit_cycles, Level::Mem, mc.index(), c as u16)
                    }
                }
            }
            LlcOrg::SharedSNuca => {
                let bank = self.home_bank_for(pa);
                let bank_node = self.platform.bank_node(bank);
                let t1 = self.net.send(t, core_node, bank_node, MessageKind::LlcRequest);
                let t2 = t1 + self.cfg.l2_hit_cycles;
                let l2_line = self.l2s[bank as usize].line_of(addr);
                match self.l2s[bank as usize].access(l2_line, acc) {
                    locmap_mem::Lookup::Hit => {
                        let t3 =
                            self.net.send(t2, bank_node, core_node, MessageKind::llc_response64());
                        (t3 + self.cfg.l1_hit_cycles, Level::Llc, 0, bank)
                    }
                    locmap_mem::Lookup::Miss { evicted } => {
                        if let Some(e) = evicted {
                            if e.dirty {
                                self.l2_writeback(t2, bank as usize, e.line);
                            }
                        }
                        let mc = self.mc_for(pa);
                        let mc_node = self.platform.mc_node(mc);
                        let t3 = self.net.send(t2, bank_node, mc_node, MessageKind::MemRequest);
                        let t4 = self.dram.access(t3, mc, pa, &self.platform.addr_map);
                        let t5 =
                            self.net.send(t4, mc_node, bank_node, MessageKind::mem_response64());
                        let t6 =
                            self.net.send(t5, bank_node, core_node, MessageKind::llc_response64());
                        (t6 + self.cfg.l1_hit_cycles, Level::Mem, mc.index(), bank)
                    }
                }
            }
        }
    }

    /// Drains a dirty L1 victim to its home L2 bank (fire-and-forget).
    fn l1_writeback(&mut self, t: u64, c: usize, victim_addr: u64) {
        let pa = PhysAddr(victim_addr);
        if self.platform.llc == LlcOrg::Private && self.local_bank_dead(c) {
            // No local bank to install into: drain straight to memory.
            let mc = self.mc_for(pa);
            let mc_node = self.platform.mc_node(mc);
            self.net.send(
                t,
                NodeId(c as u16),
                mc_node,
                MessageKind::Writeback { line_bytes: self.cfg.l1.line_bytes as u16 },
            );
            self.dram.access(t, mc, pa, &self.platform.addr_map);
            return;
        }
        let target_bank = match self.platform.llc {
            LlcOrg::Private => c as u16,
            LlcOrg::SharedSNuca => self.home_bank_for(pa),
        };
        let bank_node = self.platform.bank_node(target_bank);
        if bank_node != NodeId(c as u16) {
            self.net.send(
                t,
                NodeId(c as u16),
                bank_node,
                MessageKind::Writeback { line_bytes: self.cfg.l1.line_bytes as u16 },
            );
        }
        // Install in the L2 as dirty; evictions cascade to memory.
        let l2_line = self.l2s[target_bank as usize].line_of(victim_addr);
        if let locmap_mem::Lookup::Miss { evicted: Some(e) } =
            self.l2s[target_bank as usize].access(l2_line, MemAccess::Write)
        {
            if e.dirty {
                self.l2_writeback(t, target_bank as usize, e.line);
            }
        }
    }

    /// Drains a dirty L2 victim to its memory controller (fire-and-forget).
    fn l2_writeback(&mut self, t: u64, bank: usize, l2_line: u64) {
        let victim_addr = l2_line * self.cfg.l2_bank.line_bytes;
        let pa = PhysAddr(victim_addr);
        let mc = self.mc_for(pa);
        let mc_node = self.platform.mc_node(mc);
        let src = match self.platform.llc {
            LlcOrg::Private => NodeId(bank as u16),
            LlcOrg::SharedSNuca => self.platform.bank_node(bank as u16),
        };
        self.net.send(
            t,
            src,
            mc_node,
            MessageKind::Writeback { line_bytes: self.cfg.l2_bank.line_bytes as u16 },
        );
        self.dram.access(t, mc, pa, &self.platform.addr_map);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmap_core::Compiler;
    use locmap_loopir::{AffineExpr, LoopNest};

    fn demo_program(elems: u64, refs: usize) -> (Program, locmap_loopir::NestId) {
        let mut p = Program::new("demo");
        let mut nest = LoopNest::rectangular("n", &[elems as i64]);
        for i in 0..refs {
            let a = p.add_array(format!("A{i}"), 8, elems);
            let acc = if i == 0 { Access::Write } else { Access::Read };
            nest.add_ref(a, AffineExpr::var(0, 1), acc);
        }
        let id = p.add_nest(nest);
        (p, id)
    }

    fn run(platform: Platform, cfg: SimConfig, optimized: bool) -> RunResult {
        let (p, id) = demo_program(20_000, 3);
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mapping = if optimized {
            compiler.map_nest(&p, id, &DataEnv::new())
        } else {
            compiler.default_mapping(&p, id)
        };
        let mut sim = Simulator::builder(platform).config(cfg).build().unwrap();
        sim.run_nest(&p, &mapping, &DataEnv::new())
    }

    #[test]
    fn produces_nonzero_time_and_traffic() {
        let r = run(Platform::paper_default(), SimConfig::default(), false);
        assert!(r.cycles > 0);
        assert!(r.network.messages > 0);
        assert!(r.l1.hits + r.l1.misses > 0);
        assert!(r.dram.requests > 0);
    }

    #[test]
    fn ideal_network_is_faster() {
        let real = run(Platform::paper_default(), SimConfig::default(), false);
        let ideal_cfg = SimConfig { noc: locmap_noc::NocConfig::ideal(), ..SimConfig::default() };
        let ideal = run(Platform::paper_default(), ideal_cfg, false);
        assert!(ideal.cycles < real.cycles, "ideal {} !< real {}", ideal.cycles, real.cycles);
        assert_eq!(ideal.network.avg_latency(), 0.0);
    }

    #[test]
    fn optimized_mapping_reduces_network_latency_shared() {
        let base = run(Platform::paper_default(), SimConfig::default(), false);
        let opt = run(Platform::paper_default(), SimConfig::default(), true);
        let red = RunResult::net_latency_reduction_pct(&base, &opt);
        assert!(red > 0.0, "latency reduction {red}% (base {}, opt {})",
            base.network.avg_latency(), opt.network.avg_latency());
    }

    #[test]
    fn private_llc_has_less_traffic_than_shared() {
        let shared = run(Platform::paper_default(), SimConfig::default(), false);
        let private =
            run(Platform::paper_default_with(LlcOrg::Private), SimConfig::default(), false);
        // Shared LLC sends request/response for every L1 miss; private only
        // for LLC misses.
        assert!(private.network.messages < shared.network.messages);
    }

    #[test]
    fn measured_rates_are_probabilities() {
        let r = run(Platform::paper_default(), SimConfig::default(), false);
        for row in r.measured.l1.iter().chain(r.measured.llc.iter()) {
            for &x in row {
                assert!((0.0..=1.0).contains(&x));
            }
        }
    }

    #[test]
    fn observed_vectors_have_bounded_mass() {
        let r = run(Platform::paper_default(), SimConfig::default(), false);
        for v in r.observed_mai.iter().chain(r.observed_cai.iter()) {
            assert!(v.mass() <= 1.0 + 1e-9);
        }
        // Hits + misses + L1 = all accesses: MAI and CAI masses sum ≤ 1.
        for (m, c) in r.observed_mai.iter().zip(&r.observed_cai) {
            assert!(m.mass() + c.mass() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(Platform::paper_default(), SimConfig::default(), true);
        let b = run(Platform::paper_default(), SimConfig::default(), true);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.network, b.network);
    }

    #[test]
    fn writes_to_shared_lines_generate_invalidations() {
        // Two "phases" in one nest: every core reads the same small array,
        // then a write pass touches it — modeled by one nest where all
        // iterations read A[i % 64] (tiny shared footprint) and write B[i].
        let mut p = Program::new("sharing");
        let a = p.add_array("A", 8, 64);
        let b = p.add_array("B", 8, 10_000);
        let mut nest = LoopNest::rectangular("n", &[10_000]);
        // Every iteration writes the same shared line region cyclically.
        nest.add_ref(a, AffineExpr::constant(0), Access::Write);
        nest.add_ref(b, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mapping = compiler.default_mapping(&p, id);
        let mut sim = Simulator::builder(platform).build().unwrap();
        let r = sim.run_nest(&p, &mapping, &DataEnv::new());
        assert!(r.invalidations > 0, "contended scalar write must invalidate");
    }

    #[test]
    fn dead_mc_redirects_and_slows_memory() {
        use locmap_noc::FaultPlan;
        let (p, id) = demo_program(20_000, 3);
        let platform = Platform::paper_default_with(LlcOrg::Private);
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mapping = compiler.default_mapping(&p, id);

        let mut sim = Simulator::builder(platform.clone()).build().unwrap();
        let clean = sim.run_nest(&p, &mapping, &DataEnv::new());

        let mut sim = Simulator::builder(platform.clone()).build().unwrap();
        let state = FaultPlan::new(platform.mesh, platform.mc_count()).dead_mc(0).state_at(0);
        sim.set_faults(&state).unwrap();
        let degraded = sim.run_nest(&p, &mapping, &DataEnv::new());

        // Same work completes, but 3 MCs serve 4 MCs' worth of addresses
        // over longer average distances.
        assert!(degraded.dram.requests > 0);
        assert!(
            degraded.network.avg_latency() > clean.network.avg_latency(),
            "degraded {:.1} !> clean {:.1}",
            degraded.network.avg_latency(),
            clean.network.avg_latency()
        );
    }

    #[test]
    fn set_faults_rejects_disconnecting_plans() {
        use locmap_noc::{Direction, FaultPlan, Link};
        let platform = Platform::paper_default();
        let mesh = platform.mesh;
        let mut sim = Simulator::builder(platform.clone()).build().unwrap();
        // Sever the entire first column from the rest.
        let mut plan = FaultPlan::new(mesh, platform.mc_count());
        for y in 0..mesh.height() {
            plan = plan.dead_link(Link { from: mesh.node_at(0, y), dir: Direction::East });
        }
        let err = sim.set_faults(&plan.state_at(0)).unwrap_err();
        assert!(matches!(err, LocmapError::Unreachable { .. }), "{err}");
        assert!(sim.faults().is_clean(), "failed set_faults must leave the simulator clean");
    }

    #[test]
    fn set_faults_rejects_total_mc_loss() {
        use locmap_noc::FaultPlan;
        let platform = Platform::paper_default();
        let mut plan = FaultPlan::new(platform.mesh, platform.mc_count());
        for k in 0..platform.mc_count() {
            plan = plan.dead_mc(k);
        }
        let mut sim = Simulator::builder(platform).build().unwrap();
        let err = sim.set_faults(&plan.state_at(0)).unwrap_err();
        assert!(matches!(err, LocmapError::FaultConflict(_)), "{err}");
    }

    #[test]
    fn run_rejects_mappings_on_dead_cores() {
        use locmap_noc::FaultPlan;
        let (p, id) = demo_program(5_000, 2);
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mapping = compiler.default_mapping(&p, id); // round-robin over all 36 cores
        let dead = platform.mesh.node_at(3, 3);
        let mut sim = Simulator::builder(platform.clone()).build().unwrap();
        sim.set_faults(&FaultPlan::new(platform.mesh, platform.mc_count()).dead_router(dead).state_at(0))
            .unwrap();
        let err = sim.run(&p, &mapping, &DataEnv::new(), None, None).unwrap_err();
        assert!(matches!(err, SimError::InvalidMapping(_)), "{err}");
        sim.set_faults(&FaultState::none(platform.mesh, platform.mc_count())).unwrap();
        assert!(sim.run(&p, &mapping, &DataEnv::new(), None, None).is_ok());
    }

    #[test]
    #[should_panic(expected = "dead core")]
    fn run_nest_panics_on_mapping_to_dead_core() {
        use locmap_noc::FaultPlan;
        let (p, id) = demo_program(5_000, 2);
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mapping = compiler.default_mapping(&p, id);
        let dead = platform.mesh.node_at(3, 3);
        let mut sim = Simulator::builder(platform.clone()).build().unwrap();
        sim.set_faults(&FaultPlan::new(platform.mesh, platform.mc_count()).dead_router(dead).state_at(0))
            .unwrap();
        sim.run_nest(&p, &mapping, &DataEnv::new());
    }

    #[test]
    fn faulted_run_is_deterministic() {
        use locmap_noc::{FaultCounts, FaultPlan};
        let (p, id) = demo_program(10_000, 2);
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mapping = compiler.map_nest(&p, id, &DataEnv::new());
        let plan = FaultPlan::random(
            42,
            platform.mesh,
            platform.mc_count(),
            FaultCounts { links: 3, mcs: 1, ..Default::default() },
        );
        let run = |platform: &Platform| {
            let mut sim = Simulator::builder(platform.clone()).build().unwrap();
            sim.set_faults(&plan.final_state()).unwrap();
            sim.run_nest(&p, &mapping, &DataEnv::new())
        };
        let a = run(&platform);
        let b = run(&platform);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.network, b.network);
        assert_eq!(a.dram.requests, b.dram.requests);
    }

    #[test]
    fn dead_shared_bank_redirects_homes() {
        use locmap_noc::FaultPlan;
        let (p, id) = demo_program(10_000, 2);
        let platform = Platform::paper_default(); // shared S-NUCA
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mapping = compiler.default_mapping(&p, id);
        let mut sim = Simulator::builder(platform.clone()).build().unwrap();
        let dead = platform.mesh.node_at(0, 0);
        sim.set_faults(&FaultPlan::new(platform.mesh, platform.mc_count()).dead_bank(dead).state_at(0))
            .unwrap();
        let r = sim.run_nest(&p, &mapping, &DataEnv::new());
        assert!(r.cycles > 0);
        // No LLC hit may be served from the dead bank's region... the bank
        // itself, rather: its L2 must stay untouched.
        assert_eq!(sim.l2s[dead.index()].stats().hits + sim.l2s[dead.index()].stats().misses, 0);
    }

    #[test]
    fn plan_run_without_events_matches_plain_run() {
        use locmap_noc::FaultPlan;
        let (p, id) = demo_program(10_000, 2);
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mapping = compiler.map_nest(&p, id, &DataEnv::new());
        let mut sim = Simulator::builder(platform.clone()).build().unwrap();
        let plain = sim.run_nest(&p, &mapping, &DataEnv::new());
        let mut sim = Simulator::builder(platform.clone()).build().unwrap();
        let plan = FaultPlan::new(platform.mesh, platform.mc_count());
        let timed = sim.run(&p, &mapping, &DataEnv::new(), Some((&plan, 0)), None).unwrap();
        assert_eq!(plain.cycles, timed.cycles);
        assert_eq!(plain.network, timed.network);
    }

    #[test]
    fn fault_arriving_after_the_run_does_not_interrupt() {
        use locmap_noc::{FaultComponent, FaultEvent, FaultPlan};
        let (p, id) = demo_program(10_000, 2);
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mapping = compiler.map_nest(&p, id, &DataEnv::new());
        let mut sim = Simulator::builder(platform.clone()).build().unwrap();
        let clean = sim.run_nest(&p, &mapping, &DataEnv::new());
        let mut plan = FaultPlan::new(platform.mesh, platform.mc_count());
        plan.push(FaultEvent {
            component: FaultComponent::Mc(0),
            inject_at: clean.cycles * 2,
            repair_at: None,
        })
        .unwrap();
        let mut sim = Simulator::builder(platform).build().unwrap();
        let r = sim.run(&p, &mapping, &DataEnv::new(), Some((&plan, 0)), None).unwrap();
        assert_eq!(r.cycles, clean.cycles);
    }

    #[test]
    fn mid_run_router_death_surfaces_transient_fault() {
        use crate::timeline::SimError;
        use locmap_noc::{FaultComponent, FaultEvent, FaultPlan};
        let (p, id) = demo_program(20_000, 3);
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mapping = compiler.default_mapping(&p, id); // all 36 cores busy
        let mut sim = Simulator::builder(platform.clone()).build().unwrap();
        let clean = sim.run_nest(&p, &mapping, &DataEnv::new());

        let dead = platform.mesh.node_at(3, 3);
        let mid = clean.cycles / 2;
        let mut plan = FaultPlan::new(platform.mesh, platform.mc_count());
        plan.push(FaultEvent { component: FaultComponent::Router(dead), inject_at: mid, repair_at: None })
            .unwrap();
        let mut sim = Simulator::builder(platform.clone()).build().unwrap();
        let err = sim.run(&p, &mapping, &DataEnv::new(), Some((&plan, 0)), None).unwrap_err();
        match err {
            SimError::Transient(t) => {
                assert_eq!(t.cycle, mid);
                assert_eq!(t.completed.len(), mapping.sets.len());
                assert!(t.completed.iter().any(|&c| !c), "work must remain");
                assert!(t.partial.cycles <= mid);
                assert!(
                    matches!(t.component, FaultComponent::Router(n) if n == dead),
                    "blamed {}",
                    t.component
                );
            }
            other => panic!("expected transient fault, got {other}"),
        }
    }

    /// Runs every set on core (1,0) of a private-LLC chip whose channel
    /// (0,0)-(1,0) is dead from cycle 0 — repaired `repair_gap` cycles
    /// before the death, when given — while channel (0,1)-(1,1) dies at
    /// `total·i/20` for i = 1..19. With the cut, traffic between the core
    /// and the MC at (0,0) detours over (1,1)-(0,1), a channel X-Y never
    /// uses. Asserts that every blame names that channel, in either
    /// direction, and returns how many runs were interrupted.
    fn detour_blames(repair_gap: Option<u64>) -> usize {
        use crate::timeline::SimError;
        use locmap_noc::{reverse_link, Direction, FaultEvent, Link};
        let (p, id) = demo_program(5_000, 2);
        let platform = Platform::paper_default_with(LlcOrg::Private);
        let mesh = platform.mesh;
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let core = mesh.node_at(1, 0);
        let mut mapping = compiler.default_mapping(&p, id);
        mapping.assignment.iter_mut().for_each(|c| *c = core);
        mapping.regions.iter_mut().for_each(|r| *r = platform.regions.region_of(core));
        let cut = Link { from: mesh.node_at(0, 0), dir: Direction::East };
        let dying = Link { from: mesh.node_at(0, 1), dir: Direction::East };
        let base = FaultPlan::new(mesh, platform.mc_count()).dead_link(cut);
        let mut sim =
            Simulator::builder(platform.clone()).faults(&base.final_state()).build().unwrap();
        let total = sim.run_nest(&p, &mapping, &DataEnv::new()).cycles;

        let mut blamed = 0;
        for i in 1..20 {
            let death_at = total * i / 20;
            let mut plan = FaultPlan::new(mesh, platform.mc_count());
            let cut_repair = repair_gap.map(|gap| death_at - gap);
            for (link, inject_at, repair_at) in [(cut, 0, cut_repair), (dying, death_at, None)] {
                let component = FaultComponent::Link(link);
                plan.push(FaultEvent { component, inject_at, repair_at }).unwrap();
            }
            let mut sim = Simulator::builder(platform.clone()).build().unwrap();
            match sim.run(&p, &mapping, &DataEnv::new(), Some((&plan, 0)), None) {
                Ok(_) => {}
                Err(SimError::Transient(t)) => {
                    let on_detour = [dying, reverse_link(mesh, dying)]
                        .iter()
                        .any(|&l| t.component == FaultComponent::Link(l));
                    assert!(on_detour, "blamed {} at cycle {}", t.component, t.cycle);
                    blamed += 1;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        blamed
    }

    #[test]
    fn blame_follows_the_detour_a_packet_took() {
        assert!(detour_blames(None) > 0, "a detour link dying under in-flight traffic must be blamed");
    }

    #[test]
    fn blame_routes_under_the_state_an_iteration_issued_under() {
        // The cut is repaired one cycle before the detour link dies: an
        // iteration spanning both boundaries still travelled the detour.
        assert!(detour_blames(Some(1)) > 0, "the detour taken before the repair must be blamed");
    }

    #[test]
    fn mid_run_total_mc_loss_is_unsurvivable() {
        use crate::timeline::SimError;
        use locmap_noc::{FaultComponent, FaultEvent, FaultPlan};
        let (p, id) = demo_program(20_000, 3);
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mapping = compiler.default_mapping(&p, id);
        let mut sim = Simulator::builder(platform.clone()).build().unwrap();
        let clean = sim.run_nest(&p, &mapping, &DataEnv::new());
        let mid = clean.cycles / 2;
        let mut plan = FaultPlan::new(platform.mesh, platform.mc_count());
        for k in 0..platform.mc_count() {
            plan.push(FaultEvent { component: FaultComponent::Mc(k), inject_at: mid, repair_at: None })
                .unwrap();
        }
        let mut sim = Simulator::builder(platform).build().unwrap();
        let err = sim.run(&p, &mapping, &DataEnv::new(), Some((&plan, 0)), None).unwrap_err();
        assert!(matches!(err, SimError::Unsurvivable { cycle, .. } if cycle == mid), "{err}");
    }

    #[test]
    fn plan_run_rejects_mapping_on_initially_dead_core() {
        use crate::timeline::SimError;
        use locmap_noc::FaultPlan;
        let (p, id) = demo_program(5_000, 2);
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mapping = compiler.default_mapping(&p, id);
        let plan = FaultPlan::new(platform.mesh, platform.mc_count())
            .dead_router(platform.mesh.node_at(2, 2));
        let mut sim = Simulator::builder(platform).build().unwrap();
        let err = sim.run(&p, &mapping, &DataEnv::new(), Some((&plan, 0)), None).unwrap_err();
        assert!(matches!(err, SimError::InvalidMapping(_)), "{err}");
    }

    #[test]
    fn transient_window_that_heals_before_arrival_completes_clean() {
        use locmap_noc::{FaultComponent, FaultEvent, FaultPlan};
        let (p, id) = demo_program(10_000, 2);
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mapping = compiler.map_nest(&p, id, &DataEnv::new());
        // A bank dies and recovers entirely before the segment starts:
        // starting at a later absolute cycle must see the healed machine.
        let mut plan = FaultPlan::new(platform.mesh, platform.mc_count());
        plan.push(FaultEvent {
            component: FaultComponent::Bank(platform.mesh.node_at(1, 1)),
            inject_at: 100,
            repair_at: Some(5_000),
        })
        .unwrap();
        let mut sim = Simulator::builder(platform.clone()).build().unwrap();
        let r = sim.run(&p, &mapping, &DataEnv::new(), Some((&plan, 10_000)), None).unwrap();
        assert!(r.cycles > 0);
        assert!(sim.faults().is_clean(), "machine healed");
    }

    #[test]
    fn run_under_unlimited_ctl_is_bit_identical() {
        let (p, id) = demo_program(10_000, 2);
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mapping = compiler.map_nest(&p, id, &DataEnv::new());
        let mut sim = Simulator::builder(platform.clone()).build().unwrap();
        let plain = sim.run_nest(&p, &mapping, &DataEnv::new());
        let mut sim = Simulator::builder(platform).build().unwrap();
        let under_ctl =
            sim.run(&p, &mapping, &DataEnv::new(), None, Some(&RunControl::unlimited())).unwrap();
        assert_eq!(plain.cycles, under_ctl.cycles);
        assert_eq!(plain.network, under_ctl.network);
        assert_eq!(plain.dram.requests, under_ctl.dram.requests);
    }

    #[test]
    fn run_budget_aborts_with_partial_metrics() {
        use locmap_noc::{Budget, CancelToken};
        let (p, id) = demo_program(10_000, 2);
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mapping = compiler.map_nest(&p, id, &DataEnv::new());
        let mut sim = Simulator::builder(platform).build().unwrap();
        let budget = Budget::unlimited().with_work_units(500);
        let ctl = RunControl::new(CancelToken::new(), budget);
        let err = sim.run(&p, &mapping, &DataEnv::new(), None, Some(&ctl)).unwrap_err();
        match err {
            SimError::Aborted { reason, partial } => {
                assert!(
                    matches!(reason, LocmapError::DeadlineExceeded { completed: 501, .. }),
                    "{reason:?}"
                );
                assert!(partial.cycles > 0, "aborted run still accounts its spent work");
                assert!(partial.l1.hits + partial.l1.misses > 0);
            }
            other => panic!("expected Aborted, got {other}"),
        }
        // The abort latency is exactly one iteration past the budget.
        assert_eq!(ctl.spent_units(), 501);
    }

    #[test]
    fn run_cancellation_is_observed_within_one_iteration() {
        use locmap_noc::{Budget, CancelToken};
        let (p, id) = demo_program(10_000, 2);
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mapping = compiler.map_nest(&p, id, &DataEnv::new());
        let mut sim = Simulator::builder(platform).build().unwrap();
        let ctl = RunControl::new(CancelToken::cancel_after_polls(7), Budget::unlimited());
        let err = sim.run(&p, &mapping, &DataEnv::new(), None, Some(&ctl)).unwrap_err();
        match err {
            SimError::Aborted { reason, .. } => {
                assert_eq!(reason, LocmapError::Cancelled { completed: 7, total: 10_000 });
            }
            other => panic!("expected Aborted, got {other}"),
        }
        assert_eq!(ctl.spent_units(), 7, "no work after the token tripped");
    }

    #[test]
    fn multi_nest_program_accumulates_time() {
        let (p, id) = demo_program(10_000, 2);
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mapping = compiler.map_nest(&p, id, &DataEnv::new());
        let mut sim = Simulator::builder(platform).build().unwrap();
        let r1 = sim.run_nest(&p, &mapping, &DataEnv::new());
        let r2 = sim.run_nest(&p, &mapping, &DataEnv::new());
        // Stats are deltas per run, not cumulative.
        assert!(r2.network.messages <= r1.network.messages);
        assert!(r2.l1.hits > 0);
    }

    #[test]
    fn max_latency_is_the_runs_own() {
        let (p, id) = demo_program(10_000, 2);
        let mut idle = Program::new("idle");
        let idle_id = idle.add_nest(LoopNest::rectangular("n", &[1_000]));
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mut sim = Simulator::builder(platform).build().unwrap();
        let busy = sim.run_nest(&p, &compiler.default_mapping(&p, id), &DataEnv::new());
        assert!(busy.network.max_latency > 0);
        // A run that sends nothing saw no message, however slow the
        // earlier run's worst one was.
        let quiet = sim.run_nest(&idle, &compiler.default_mapping(&idle, idle_id), &DataEnv::new());
        assert_eq!(quiet.network.messages, 0);
        assert_eq!(quiet.network.max_latency, 0);
    }
}

#[cfg(test)]
mod topology_tests {
    use super::*;
    use locmap_core::Compiler;
    use locmap_loopir::{Access, AffineExpr, AffineExpr as AE, LoopNest};

    fn corner_heavy_program() -> (Program, locmap_loopir::NestId) {
        // Stride-64B scan: every access is a fresh line, maximal traffic.
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 1 << 16);
        let mut nest = LoopNest::rectangular("scan", &[(1 << 13) as i64]).work(16);
        nest.add_ref(a, AE::var(0, 8), Access::Read);
        let _ = AffineExpr::constant(0);
        let id = p.add_nest(nest);
        (p, id)
    }

    #[test]
    fn ideal_network_has_zero_latency_but_counts_messages() {
        let (p, id) = corner_heavy_program();
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mapping = compiler.default_mapping(&p, id);
        let ideal = SimConfig { noc: locmap_noc::NocConfig::ideal(), ..SimConfig::default() };
        let mut sim = Simulator::builder(platform).config(ideal).build().unwrap();
        let r = sim.run_nest(&p, &mapping, &DataEnv::new());
        assert_eq!(r.network.avg_latency(), 0.0);
        assert!(r.network.messages > 0);
        assert!(r.cycles > 0);
    }

    #[test]
    fn writebacks_travel_to_memory() {
        // Write-stream far larger than the LLC forces dirty evictions.
        let mut p = Program::new("wb");
        let a = p.add_array("A", 8, 1 << 18); // 2 MiB >> 1.15 MiB aggregate
        let mut nest = LoopNest::rectangular("fill", &[(1 << 15) as i64]).work(8);
        nest.add_ref(a, locmap_loopir::AffineExpr::var(0, 8), Access::Write);
        let id = p.add_nest(nest);
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mapping = compiler.default_mapping(&p, id);
        let mut sim = Simulator::builder(platform).build().unwrap();
        // Two passes: the second evicts dirty lines of the first.
        sim.run_nest(&p, &mapping, &DataEnv::new());
        let r = sim.run_nest(&p, &mapping, &DataEnv::new());
        assert!(r.l2.writebacks > 0, "expected dirty L2 evictions");
        // DRAM sees both fills and writeback drains.
        assert!(r.dram.requests > r.l2.misses / 2);
    }
}
