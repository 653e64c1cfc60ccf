//! The online self-healing driver: runs a workload while a
//! [`FaultPlan`] timeline unfolds, recovering from every mid-run fault.
//!
//! [`heal_run`] is the piece that ties the resilience stack together:
//!
//! * the simulator executes each nest with
//!   `Simulator::run` on a fault timeline, which surfaces mid-run component
//!   deaths as typed `SimError::Transient` faults instead of silently
//!   completing work on dead hardware;
//! * the [`ResilienceController`] classifies each incident
//!   (transient → backoff + retry of the unfinished sets; persistent →
//!   epoch bump + remap), quarantines flaky components (the run executes
//!   under the controller's quarantine-augmented plan overlay), and heals
//!   them after a clean probation;
//! * persistent faults remap the *remaining* iteration sets through the
//!   degradation ladder: a fresh location-aware mapping from the degraded
//!   [`MappingSession`] first, the nearest-region fallback second, serial
//!   single-region execution last — and **no candidate is adopted without
//!   passing `locmap-verify` with zero deny diagnostics** (the fallback
//!   rungs knowingly give up η-minimality and balance, so exactly those
//!   two codes are demoted to warnings there);
//! * every decision lands in the recovery trace, and the merged
//!   [`RunResult`] carries the [`ResilienceSummary`] (faults, retries,
//!   remaps, MTTR, migration cost, degradation level) the `locmap heal`
//!   subcommand and the online-vs-oracle benchmark report.

use crate::Experiment;
use locmap_core::resilience::{
    adopt_assignment, fallback_region_mapping, restrict_mapping, serial_region_mapping,
};
use locmap_core::{
    DegradationLevel, FaultClass, MapRequest, MappingSession, NestMapping, RecoveryEvent,
    ResilienceController, ResilienceSummary,
};
use locmap_loopir::{DataEnv, NestId, Program};
use locmap_noc::{FaultPlan, FaultState, LocmapError};
use locmap_sim::{RunResult, SimError, Simulator};
use locmap_verify::{VerifyConfig, VerifyMapping};
use locmap_workloads::Workload;
use std::fmt;

/// Hard cap on fault incidents before a run gives up with
/// [`HealError::IncidentCap`] — a runaway-timeline backstop.
pub const MAX_INCIDENTS: u32 = 64;

/// Why a healing run could not be driven to completion. Every variant is a
/// typed, recoverable verdict — the driver never panics on a fault
/// timeline.
#[derive(Debug)]
pub enum HealError {
    /// The machine state at `cycle` is unsurvivable even after releasing
    /// every quarantine entry (partitioned mesh, no MC, no core).
    Unsurvivable {
        /// Cycle at which the state became unsurvivable.
        cycle: u64,
        /// The underlying validation error.
        source: LocmapError,
    },
    /// More than [`MAX_INCIDENTS`] faults arrived, each failed probe of a
    /// still-dead component counting as one; the timeline is treated as
    /// hostile rather than flaky.
    IncidentCap {
        /// Incidents counted when the cap tripped.
        incidents: u32,
        /// Cycle of the incident that tripped the cap.
        cycle: u64,
    },
    /// Every rung of the degradation ladder was rejected by the verifier.
    LadderExhausted {
        /// Cycle of the remap attempt.
        cycle: u64,
        /// What the last rung was rejected for.
        detail: String,
    },
    /// Mapping infrastructure failed outside a fault incident.
    Mapping(LocmapError),
}

impl fmt::Display for HealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealError::Unsurvivable { cycle, source } => {
                write!(f, "machine unsurvivable at cycle {cycle}: {source}")
            }
            HealError::IncidentCap { incidents, cycle } => {
                write!(f, "gave up after {incidents} fault incidents (cycle {cycle})")
            }
            HealError::LadderExhausted { cycle, detail } => {
                write!(f, "degradation ladder exhausted at cycle {cycle}: {detail}")
            }
            HealError::Mapping(e) => write!(f, "mapping failed: {e}"),
        }
    }
}

impl std::error::Error for HealError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HealError::Unsurvivable { source, .. } => Some(source),
            HealError::Mapping(e) => Some(e),
            _ => None,
        }
    }
}

/// What a completed healing run reports.
#[derive(Debug, Clone)]
pub struct HealOutcome {
    /// Merged metrics of every executed segment; `cycles` is the absolute
    /// finish time (recovery overheads included) and `resilience` is
    /// `Some(summary)`.
    pub result: RunResult,
    /// The full recovery trace, in event order.
    pub trace: Vec<RecoveryEvent>,
    /// The controller's final tally (also attached to `result`).
    pub summary: ResilienceSummary,
}

/// Folds one executed segment into the running tally. Traffic and event
/// counters accumulate; rate-style observations (measured hit rates,
/// observed MAI/CAI) are replaced, so the final complete segment wins.
fn merge(total: &mut RunResult, seg: &RunResult) {
    total.network.merge(&seg.network);
    total.l1.merge(&seg.l1);
    total.l2.merge(&seg.l2);
    total.dram.merge(&seg.dram);
    total.invalidations += seg.invalidations;
    total.measured = seg.measured.clone();
    total.observed_mai = seg.observed_mai.clone();
    total.observed_cai = seg.observed_cai.clone();
}

/// Counts one more fault incident at `cycle`, failing with
/// [`HealError::IncidentCap`] once the count passes [`MAX_INCIDENTS`].
fn count_incident(incidents: &mut u32, cycle: u64) -> Result<(), HealError> {
    *incidents += 1;
    if *incidents > MAX_INCIDENTS {
        return Err(HealError::IncidentCap { incidents: *incidents, cycle });
    }
    Ok(())
}

/// Points the session at the machine state the controller currently
/// believes and maps `nid` under it. When the state (usually quarantine)
/// strands the machine, the escape hatch releases probation once before
/// declaring the run unsurvivable.
fn map_at(
    session: &mut MappingSession,
    ctrl: &mut ResilienceController,
    program: &Program,
    nid: NestId,
    data: &DataEnv,
    plan: &FaultPlan,
    now: u64,
) -> Result<NestMapping, HealError> {
    let state = ctrl.overlay(plan).state_at(now);
    if let Err(e) = session.set_faults(&state) {
        if ctrl.quarantined().is_empty() {
            return Err(HealError::Unsurvivable { cycle: now, source: e });
        }
        ctrl.release_quarantine(now);
        let state = ctrl.overlay(plan).state_at(now);
        session
            .set_faults(&state)
            .map_err(|e| HealError::Unsurvivable { cycle: now, source: e })?;
    }
    Ok(session.map_one(&MapRequest { program, nest: nid, data }).mapping)
}

/// The degradation ladder: produces a replacement full-nest mapping for
/// `nid` under `state`, descending until a candidate passes verification.
///
/// * **Rung 1 (remap)** — a fresh location-aware mapping from the degraded
///   session (epoch bumped by `set_faults`), adopted only when it
///   partitions the nest identically and passes the mapping-verification
///   pass with zero deny diagnostics.
/// * **Rung 2 (region fallback)** — every set moves to the nearest region
///   with surviving cores. η-minimality and balance are knowingly
///   sacrificed, so `LM0206`/`LM0207` are demoted to warnings; every other
///   code still denies.
/// * **Rung 3 (serial region)** — all sets serialize onto the healthiest
///   region; same relaxed verification.
#[allow(clippy::too_many_arguments)]
fn remap_ladder(
    session: &mut MappingSession,
    exp: &Experiment,
    program: &Program,
    nid: NestId,
    data: &DataEnv,
    full: &NestMapping,
    state: &FaultState,
    ctrl: &mut ResilienceController,
    cycle: u64,
) -> Result<NestMapping, HealError> {
    let strict = VerifyConfig::mapping_only();
    match session.set_faults(state) {
        Ok(()) => {
            let fresh = session.map_one(&MapRequest { program, nest: nid, data }).mapping;
            let sink = session.compiler().verify_mapping(program, nid, data, &fresh, &strict);
            if sink.deny_count() > 0 {
                ctrl.note_verify_rejected(cycle, format!("degraded remap: {}", sink.report()));
            } else if let Some(adopted) = adopt_assignment(full, &fresh) {
                ctrl.note_degraded(
                    cycle,
                    DegradationLevel::Remap,
                    "location-aware degraded remap adopted (verify clean)",
                );
                return Ok(adopted);
            } else {
                ctrl.note_verify_rejected(
                    cycle,
                    "degraded remap partitions the nest differently; falling back",
                );
            }
        }
        Err(e) => {
            ctrl.note_verify_rejected(cycle, format!("degraded compiler unavailable: {e}"));
        }
    }

    let relaxed = VerifyConfig::fallback_mapping();
    let rungs = [
        (
            DegradationLevel::RegionFallback,
            fallback_region_mapping(full, state, &exp.platform),
            "nearest-region fallback",
        ),
        (
            DegradationLevel::SerialRegion,
            serial_region_mapping(full, state, &exp.platform),
            "serial single-region placement",
        ),
    ];
    let mut last_reject = String::from("no surviving core for any fallback placement");
    for (level, candidate, label) in rungs {
        let Some(candidate) = candidate else { continue };
        let sink = session.compiler().verify_mapping(program, nid, data, &candidate, &relaxed);
        if sink.deny_count() == 0 {
            ctrl.note_degraded(cycle, level, format!("{label} adopted (verify clean)"));
            return Ok(candidate);
        }
        last_reject = format!("{label}: {}", sink.report());
        ctrl.note_verify_rejected(cycle, last_reject.clone());
    }
    Err(HealError::LadderExhausted { cycle, detail: last_reject })
}

/// Runs `workload` start to finish while `plan`'s timeline unfolds,
/// recovering online from every fault the simulator surfaces.
///
/// Nests execute sequentially on one warm simulator. Each fault incident
/// is classified by the [`ResilienceController`]: transient verdicts
/// charge a backoff and retry the unfinished sets (escalating — another
/// strike — while the component is observably still dead at the resume
/// cycle); persistent verdicts bump the session's fault epoch and send the
/// nest through the verification-gated degradation ladder, paying the
/// migration cost of every moved, unfinished set. Completed sets are never
/// re-executed: the retry runs `restrict_mapping(full, keep)`.
///
/// On success the returned [`HealOutcome::result`] has `cycles` equal to
/// the absolute finish time — execution plus every backoff, remap and
/// migration charge — and `resilience` filled with the summary.
pub fn heal_run(
    workload: &Workload,
    exp: &Experiment,
    plan: &FaultPlan,
) -> Result<HealOutcome, HealError> {
    let program = &workload.program;
    let data = &workload.data;
    let mut ctrl = ResilienceController::new(exp.platform.mesh);
    let mut session = MappingSession::builder(exp.platform.clone())
        .options(exp.opts)
        .build()
        .map_err(HealError::Mapping)?;
    let mut sim = Simulator::builder(exp.platform.clone()).config(exp.sim).build().unwrap();

    let mut total = RunResult::default();
    let mut now: u64 = 0;
    let mut incidents: u32 = 0;
    let mut released = false;

    for nid in program.nest_ids() {
        let mut full = map_at(&mut session, &mut ctrl, program, nid, data, plan, now)?;
        let mut keep = vec![true; full.sets.len()];
        loop {
            ctrl.probe_heal(now);
            let overlay = ctrl.overlay(plan);
            let mapping = if keep.iter().all(|&k| k) {
                full.clone()
            } else {
                restrict_mapping(&full, &keep)
            };
            if mapping.sets.is_empty() {
                break;
            }
            match sim.run(program, &mapping, data, Some((&overlay, now)), None) {
                Ok(r) => {
                    now = now.saturating_add(r.cycles);
                    merge(&mut total, &r);
                    break;
                }
                Err(SimError::Transient(t)) => {
                    count_incident(&mut incidents, t.cycle)?;
                    merge(&mut total, &t.partial);
                    // Fold the segment's completion flags back into the
                    // full-partition mask (the segment may itself have been
                    // a restriction).
                    let kept: Vec<usize> =
                        keep.iter().enumerate().filter(|&(_, &k)| k).map(|(i, _)| i).collect();
                    for (j, &done) in t.completed.iter().enumerate() {
                        if done {
                            keep[kept[j]] = false;
                        }
                    }
                    now = t.cycle;
                    let mut class = ctrl.record_fault(t.component, t.cycle);
                    if class == FaultClass::Transient {
                        // Backoff and probe: while the component is
                        // observably still dead at the resume cycle, each
                        // failed probe is another strike — a fault that
                        // outlives the whole backoff schedule is promoted
                        // to persistent — and another incident, so the
                        // incident cap bounds the loop.
                        loop {
                            let attempt = ctrl.strike_count(t.component).saturating_sub(1);
                            now = ctrl.charge_retry(t.component, now, attempt);
                            if plan.state_at(now).alive(t.component) {
                                break;
                            }
                            count_incident(&mut incidents, now)?;
                            class = ctrl.record_fault(t.component, now);
                            if class == FaultClass::Persistent {
                                break;
                            }
                        }
                    }
                    if class == FaultClass::Persistent {
                        let state = ctrl.overlay(plan).state_at(now);
                        let fresh = remap_ladder(
                            &mut session,
                            exp,
                            program,
                            nid,
                            data,
                            &full,
                            &state,
                            &mut ctrl,
                            now,
                        )?;
                        now = ctrl.charge_remap(&full, &fresh, &keep, now);
                        full = fresh;
                    }
                }
                Err(SimError::Unsurvivable { cycle, source }) => {
                    // The stranded-machine escape hatch: when quarantine
                    // itself partitions the mesh (the LM0302 shape),
                    // releasing probation beats giving up. Once.
                    if !released && !ctrl.quarantined().is_empty() {
                        ctrl.release_quarantine(cycle.max(now));
                        released = true;
                        continue;
                    }
                    return Err(HealError::Unsurvivable { cycle, source });
                }
                Err(SimError::Aborted { reason, .. }) => {
                    // Healing runs are not driven under a RunControl, so a
                    // cooperative abort can only mean infrastructure misuse.
                    return Err(HealError::Mapping(reason));
                }
                Err(SimError::InvalidMapping(_)) => {
                    // Unfinished work sits on a core that is dead at this
                    // epoch (typically after retrying a router death in
                    // place): the mapping itself must change.
                    count_incident(&mut incidents, now)?;
                    let state = ctrl.overlay(plan).state_at(now);
                    let fresh = remap_ladder(
                        &mut session,
                        exp,
                        program,
                        nid,
                        data,
                        &full,
                        &state,
                        &mut ctrl,
                        now,
                    )?;
                    now = ctrl.charge_remap(&full, &fresh, &keep, now);
                    full = fresh;
                }
            }
        }
    }

    total.cycles = now;
    let summary = ctrl.summary();
    total.resilience = Some(summary.clone());
    Ok(HealOutcome { result: total, trace: ctrl.trace().to_vec(), summary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmap_core::LlcOrg;
    use locmap_loopir::{Access, AffineExpr, LoopNest};
    use locmap_noc::{FaultComponent, FaultEvent};
    use locmap_workloads::{build, Scale, Table3Info};

    /// A workload whose every access misses to memory: constant MC/NoC
    /// traffic, so a mid-run component death deterministically interrupts
    /// in-flight work.
    fn streaming() -> Workload {
        let mut p = Program::new("stream");
        let elems = 1u64 << 17;
        let a = p.add_array("A", 8, elems);
        let n = (elems / 8) as i64;
        let mut nest = LoopNest::rectangular("scan", &[n]).work(24);
        nest.add_ref(a, AffineExpr::var(0, 8), Access::Read);
        p.add_nest(nest);
        Workload {
            name: "stream",
            program: p,
            data: DataEnv::new(),
            irregular: false,
            timing_iters: 1,
            table3: Table3Info::default(),
        }
    }

    fn clean_cycles(w: &Workload, exp: &Experiment) -> u64 {
        let empty = FaultPlan::new(exp.platform.mesh, exp.platform.mc_coords.len());
        heal_run(w, exp, &empty).unwrap().result.cycles
    }

    #[test]
    fn empty_plan_run_is_fault_free() {
        let w = streaming();
        let exp = Experiment::paper_default(LlcOrg::Private);
        let empty = FaultPlan::new(exp.platform.mesh, exp.platform.mc_coords.len());
        let out = heal_run(&w, &exp, &empty).unwrap();
        assert!(out.result.cycles > 0);
        assert_eq!(out.summary.faults_seen, 0);
        assert_eq!(out.summary.degradation, DegradationLevel::None);
        assert!(out.trace.is_empty());
        assert_eq!(out.result.resilience, Some(out.summary.clone()));
    }

    #[test]
    fn permanent_mid_run_mc_death_escalates_to_remap() {
        let w = streaming();
        let exp = Experiment::paper_default(LlcOrg::Private);
        let mid = clean_cycles(&w, &exp) / 2;
        let mut plan = FaultPlan::new(exp.platform.mesh, exp.platform.mc_coords.len());
        plan.push(FaultEvent {
            component: FaultComponent::Mc(1),
            inject_at: mid,
            repair_at: None,
        })
        .unwrap();
        let out = heal_run(&w, &exp, &plan).unwrap();
        assert!(out.summary.faults_seen >= 1, "the death must interrupt work");
        assert_eq!(out.summary.remaps, 1, "a permanent fault ends in exactly one remap");
        assert!(out.summary.transient_retries >= 1, "retries precede the promotion");
        assert!(out.summary.mttr_cycles > 0.0);
        assert!(out.summary.recovery_overhead_cycles > 0);
        assert_eq!(out.summary.degradation, DegradationLevel::Remap);
        assert!(out.result.cycles > mid, "the run finishes after the fault");
        assert!(out.trace.iter().any(|e| e.detail.contains("verify clean")));
    }

    #[test]
    fn short_transient_window_retries_without_remap() {
        let w = streaming();
        let exp = Experiment::paper_default(LlcOrg::Private);
        let mid = clean_cycles(&w, &exp) / 2;
        let mut plan = FaultPlan::new(exp.platform.mesh, exp.platform.mc_coords.len());
        // Heals well inside the first backoff (10k cycles).
        plan.push(FaultEvent {
            component: FaultComponent::Mc(2),
            inject_at: mid,
            repair_at: Some(mid + 2_000),
        })
        .unwrap();
        let out = heal_run(&w, &exp, &plan).unwrap();
        assert_eq!(out.summary.faults_seen, 1);
        assert_eq!(out.summary.transient_retries, 1, "one backoff outlives the glitch");
        assert_eq!(out.summary.remaps, 0);
        assert_eq!(out.summary.degradation, DegradationLevel::None);
        assert_eq!(out.summary.quarantined, 1);
        assert!(out.summary.mttr_cycles > 0.0);
    }

    #[test]
    fn permanent_router_death_moves_work_off_the_dead_core() {
        let w = streaming();
        let exp = Experiment::paper_default(LlcOrg::Private);
        let mid = clean_cycles(&w, &exp) / 2;
        let dead = exp.platform.mesh.node_at(3, 3);
        let mut plan = FaultPlan::new(exp.platform.mesh, exp.platform.mc_coords.len());
        plan.push(FaultEvent {
            component: FaultComponent::Router(dead),
            inject_at: mid,
            repair_at: None,
        })
        .unwrap();
        let out = heal_run(&w, &exp, &plan).unwrap();
        assert!(out.summary.faults_seen >= 1);
        assert!(out.summary.remaps >= 1, "work must leave the dead core");
        assert!(out.summary.migration_cost_cycles > 0, "moved sets pay migration");
        assert!(out.summary.degradation >= DegradationLevel::Remap);
        assert!(out.result.cycles > mid);
    }

    #[test]
    fn real_workload_survives_a_random_transient_timeline() {
        let w = build("mxm", Scale::new(0.3));
        let exp = Experiment::paper_default(LlcOrg::Private);
        let horizon = clean_cycles(&w, &exp);
        let plan = FaultPlan::random_timed(
            11,
            exp.platform.mesh,
            exp.platform.mc_coords.len(),
            locmap_noc::FaultCounts { mcs: 1, banks: 1, ..Default::default() },
            horizon,
            true,
        );
        let out = heal_run(&w, &exp, &plan).unwrap();
        assert!(out.result.cycles > 0);
        // Whatever the timeline did, the tally must be internally
        // consistent: every incident traced, overhead covered by MTTR sum.
        assert_eq!(out.result.resilience, Some(out.summary.clone()));
        assert!(out.summary.transient_retries + out.summary.remaps <= out.summary.faults_seen + 6);
    }

    #[test]
    fn incident_cap_is_a_typed_error() {
        let mut incidents = 0;
        for i in 0..u64::from(MAX_INCIDENTS) {
            assert!(count_incident(&mut incidents, i).is_ok(), "incident {} is in the cap", i + 1);
        }
        match count_incident(&mut incidents, 7) {
            Err(HealError::IncidentCap { incidents: 65, cycle: 7 }) => {}
            other => panic!("expected the incident cap on incident 65, got {other:?}"),
        }
    }
}
