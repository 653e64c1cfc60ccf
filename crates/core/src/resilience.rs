//! Online resilience: fault classification, retry/backoff, quarantine,
//! and remap support for mid-run component failures.
//!
//! The mapping pipeline (PR 1) handles faults known *before* `map_nest`;
//! this module supplies the policy layer for faults that arrive while a
//! workload is running. The [`ResilienceController`] consumes the typed
//! fault notifications the simulator surfaces (see
//! `locmap_sim::Simulator::run` on a fault timeline) and decides, per incident:
//!
//! * **transient** — retry the same mapping after an exponential backoff
//!   ([`backoff_cycles`]), quarantining the flaky component so traffic
//!   routes around it while it is on probation;
//! * **persistent** — `STRIKE_THRESHOLD` (3) strikes inside
//!   `STRIKE_WINDOW_CYCLES` (200,000) promote the component to permanently
//!   dead: the caller bumps its [`crate::MappingSession`] fault epoch and
//!   remaps the *remaining* iteration sets (see [`restrict_mapping`] /
//!   [`adopt_assignment`]), paying a Manhattan-hops × state-bytes
//!   migration cost plus a fixed remap charge.
//!
//! Quarantined components heal: a probe ([`ResilienceController::probe_heal`])
//! un-quarantines any non-persistent entry that stayed clean for
//! `HEAL_INTERVAL_CYCLES` (60,000).
//!
//! The degradation ladder ([`DegradationLevel`]) and the fallback
//! placements ([`fallback_region_mapping`], [`serial_region_mapping`]) are
//! the last resorts when a fresh location-aware remap is rejected by the
//! verifier or impossible; every rung is recorded in the recovery trace.
//!
//! The retry constants ([`MAX_RETRIES`], [`DIVERGENCE_THRESHOLD`],
//! [`backoff_cycles`]) live here because the inspector's re-inspection
//! loop ([`crate::Inspector::run_with_retry`]) and the online controller
//! share them.

use crate::compiler::NestMapping;
use crate::platform::Platform;
use locmap_noc::{
    reverse_link, FaultComponent, FaultEvent, FaultPlan, FaultState, Mesh, NodeId, RegionId,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Maximum retry/re-inspection rounds before accepting the outcome.
pub const MAX_RETRIES: u32 = 3;

/// Mean absolute hit-rate drift (over every set × reference entry) that
/// triggers an inspector remap: under faults (or phase changes) the hit
/// rates observed while *executing* a mapping can drift from the rates
/// the mapping was derived from.
pub const DIVERGENCE_THRESHOLD: f64 = 0.08;

/// Cycles charged for the first retry.
const BACKOFF_BASE_CYCLES: u64 = 10_000;

/// Geometric backoff growth per round (the inspector's historical
/// doubling).
const BACKOFF_FACTOR: f64 = 2.0;

/// Upper bound on a single backoff, whatever the round.
const MAX_BACKOFF_CYCLES: u64 = 1_000_000;

/// The backoff charged for retry round `attempt` (0-based):
/// `BACKOFF_BASE_CYCLES · BACKOFF_FACTOR^attempt`, capped at
/// `MAX_BACKOFF_CYCLES`. The inspector's re-inspection loop and the
/// online controller's transient retries share it.
pub fn backoff_cycles(attempt: u32) -> u64 {
    let base = BACKOFF_BASE_CYCLES as f64 * BACKOFF_FACTOR.powi(attempt as i32);
    (base as u64).min(MAX_BACKOFF_CYCLES)
}

/// The controller's verdict on one fault incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultClass {
    /// Retry the interrupted work after a backoff; component quarantined.
    Transient,
    /// `STRIKE_THRESHOLD` strikes inside `STRIKE_WINDOW_CYCLES`: treat
    /// the component as permanently dead and remap the remaining work.
    Persistent,
}

/// Strikes within [`STRIKE_WINDOW_CYCLES`] that promote a component from
/// transient to persistent.
const STRIKE_THRESHOLD: usize = 3;

/// Sliding window (cycles) over which quarantine strikes are counted.
const STRIKE_WINDOW_CYCLES: u64 = 200_000;

/// Clean cycles after the last strike before a quarantined component is
/// un-quarantined by the healing probe.
const HEAL_INTERVAL_CYCLES: u64 = 60_000;

/// Bytes of live state migrated per iteration of a moved set.
const STATE_BYTES_PER_ITER: u64 = 64;

/// Cap on the live state of one set: whatever its iteration count, a
/// set's migratable state cannot exceed its private-cache footprint
/// (clean lines re-fetch from the shared levels for free).
const MAX_BYTES_PER_SET: u64 = 4096;

/// Link payload bandwidth used to convert bytes × hops into cycles.
const LINK_BYTES_PER_CYCLE: u64 = 16;

/// Fixed cycles charged per remap incident (epoch bump + re-verify).
const FIXED_REMAP_CYCLES: u64 = 20_000;

/// Cycles to migrate the not-yet-completed sets from `old` cores to `new`
/// cores (`keep[i]` marks the sets still to run):
/// `Manhattan hops × state bytes / link bytes-per-cycle` per moved set.
/// Sets that stay put cost nothing.
fn migration_cost_cycles(old: &NestMapping, new: &NestMapping, keep: &[bool], mesh: Mesh) -> u64 {
    let mut cost = 0u64;
    for (i, set) in old.sets.iter().enumerate() {
        if !keep.get(i).copied().unwrap_or(true) {
            continue;
        }
        let (from, to) = (old.assignment[i], new.assignment[i]);
        if from == to {
            continue;
        }
        let hops = mesh.coord_of(from).manhattan(mesh.coord_of(to)) as u64;
        let bytes = ((set.end - set.start) as u64 * STATE_BYTES_PER_ITER).min(MAX_BYTES_PER_SET);
        cost += hops * bytes / LINK_BYTES_PER_CYCLE;
    }
    cost
}

/// The rung of the degradation ladder a run ended on (worst adopted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub enum DegradationLevel {
    /// No persistent fault: the original mapping (plus transient retries).
    #[default]
    None,
    /// Remaining sets remapped by the location-aware degraded compiler.
    Remap,
    /// Location-aware remap rejected: nearest-region fallback placement.
    RegionFallback,
    /// Last resort: every remaining set serialized onto one region.
    SerialRegion,
}

impl fmt::Display for DegradationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationLevel::None => write!(f, "none"),
            DegradationLevel::Remap => write!(f, "remap"),
            DegradationLevel::RegionFallback => write!(f, "region-fallback"),
            DegradationLevel::SerialRegion => write!(f, "serial-region"),
        }
    }
}

/// What happened at one point of the recovery timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryAction {
    /// A fault surfaced as a typed simulator error.
    FaultArrived,
    /// Transient verdict: backoff charged, same mapping retried.
    Retried,
    /// Component placed under quarantine.
    Quarantined,
    /// Healing probe un-quarantined a component.
    Healed,
    /// Persistent verdict: epoch bumped, remaining sets remapped.
    Remapped,
    /// A candidate mapping was rejected by the verifier.
    VerifyRejected,
    /// The run dropped a rung on the degradation ladder.
    Degraded,
    /// Execution resumed (closes an MTTR incident).
    Resumed,
}

/// One entry of the recovery trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryEvent {
    /// Absolute cycle of the event.
    pub cycle: u64,
    /// What happened.
    pub action: RecoveryAction,
    /// Human-readable context (component, costs, verdicts).
    pub detail: String,
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.action {
            RecoveryAction::FaultArrived => "fault",
            RecoveryAction::Retried => "retry",
            RecoveryAction::Quarantined => "quarantine",
            RecoveryAction::Healed => "heal",
            RecoveryAction::Remapped => "remap",
            RecoveryAction::VerifyRejected => "verify-reject",
            RecoveryAction::Degraded => "degrade",
            RecoveryAction::Resumed => "resume",
        };
        write!(f, "[{:>10}] {:<13} {}", self.cycle, tag, self.detail)
    }
}

/// The resilience section a healed run reports (attached to
/// `locmap_sim::RunResult::resilience`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResilienceSummary {
    /// Typed fault incidents the run observed.
    pub faults_seen: u32,
    /// Transient retries (backoff + same mapping).
    pub transient_retries: u32,
    /// Persistent remaps (epoch bump + migration).
    pub remaps: u32,
    /// Components placed under quarantine.
    pub quarantined: u32,
    /// Components un-quarantined by the healing probe.
    pub healed: u32,
    /// Mean time to repair: mean cycles from a fault surfacing to
    /// execution resuming on an adopted mapping. 0 when no faults.
    pub mttr_cycles: f64,
    /// Total migration cost charged (cycles).
    pub migration_cost_cycles: u64,
    /// Total recovery overhead (backoffs + remap charges + migration).
    pub recovery_overhead_cycles: u64,
    /// Worst degradation-ladder rung adopted.
    pub degradation: DegradationLevel,
}

#[derive(Debug, Clone)]
struct QuarantineEntry {
    component: FaultComponent,
    since: u64,
    last_strike: u64,
    persistent: bool,
}

/// Classifies mid-run faults, paces retries, and tracks quarantine state.
///
/// The controller is policy only: it never touches the simulator or the
/// compiler. A driver (e.g. `locmap_bench::heal`) feeds it fault incidents
/// and asks it for backoffs, the quarantine-augmented [`FaultPlan`], and
/// the final [`ResilienceSummary`].
#[derive(Debug, Clone)]
pub struct ResilienceController {
    mesh: Mesh,
    strikes: Vec<(FaultComponent, VecDeque<u64>)>,
    quarantined: Vec<QuarantineEntry>,
    trace: Vec<RecoveryEvent>,
    faults_seen: u32,
    transient_retries: u32,
    remaps: u32,
    quarantines: u32,
    heals: u32,
    migration_cost: u64,
    recovery_overhead: u64,
    mttr_sum: u64,
    mttr_incidents: u32,
    degradation: DegradationLevel,
}

impl ResilienceController {
    /// A controller for a machine on `mesh`.
    pub fn new(mesh: Mesh) -> Self {
        ResilienceController {
            mesh,
            strikes: Vec::new(),
            quarantined: Vec::new(),
            trace: Vec::new(),
            faults_seen: 0,
            transient_retries: 0,
            remaps: 0,
            quarantines: 0,
            heals: 0,
            migration_cost: 0,
            recovery_overhead: 0,
            mttr_sum: 0,
            mttr_incidents: 0,
            degradation: DegradationLevel::None,
        }
    }

    /// The two directions of a channel are one wire: canonicalize links to
    /// the direction with the lower slot index so strike counting and
    /// quarantine agree with [`FaultPlan`]'s component identity.
    fn canonical(&self, component: FaultComponent) -> FaultComponent {
        match component {
            FaultComponent::Link(l) => {
                let r = reverse_link(self.mesh, l);
                FaultComponent::Link(if r.index() < l.index() { r } else { l })
            }
            other => other,
        }
    }

    /// Records a fault on `component` at `cycle` and classifies it.
    ///
    /// Strikes older than `STRIKE_WINDOW_CYCLES` fall out of the count;
    /// reaching `STRIKE_THRESHOLD` strikes inside the window returns
    /// [`FaultClass::Persistent`] (and pins the quarantine entry so the
    /// healing probe never releases it). Either way the component enters
    /// quarantine and the incident is traced.
    pub fn record_fault(&mut self, component: FaultComponent, cycle: u64) -> FaultClass {
        let component = self.canonical(component);
        self.faults_seen += 1;
        self.trace.push(RecoveryEvent {
            cycle,
            action: RecoveryAction::FaultArrived,
            detail: format!("{component}"),
        });

        let strikes = match self.strikes.iter_mut().find(|(c, _)| *c == component) {
            Some((_, s)) => s,
            None => {
                self.strikes.push((component, VecDeque::new()));
                &mut self.strikes.last_mut().expect("just pushed").1
            }
        };
        strikes.push_back(cycle);
        let cutoff = cycle.saturating_sub(STRIKE_WINDOW_CYCLES);
        while strikes.front().is_some_and(|&s| s < cutoff) {
            strikes.pop_front();
        }
        let persistent = strikes.len() >= STRIKE_THRESHOLD;

        match self.quarantined.iter_mut().find(|e| e.component == component) {
            Some(entry) => {
                entry.last_strike = cycle;
                entry.persistent |= persistent;
            }
            None => {
                self.quarantined.push(QuarantineEntry {
                    component,
                    since: cycle,
                    last_strike: cycle,
                    persistent,
                });
                self.quarantines += 1;
                self.trace.push(RecoveryEvent {
                    cycle,
                    action: RecoveryAction::Quarantined,
                    detail: format!(
                        "{component} ({} strike(s) in window)",
                        strikes.len()
                    ),
                });
            }
        }
        if persistent {
            FaultClass::Persistent
        } else {
            FaultClass::Transient
        }
    }

    /// How many strikes `component` has inside the current window.
    pub fn strike_count(&self, component: FaultComponent) -> u32 {
        let component = self.canonical(component);
        self.strikes
            .iter()
            .find(|(c, _)| *c == component)
            .map_or(0, |(_, s)| s.len() as u32)
    }

    /// The components currently under quarantine.
    pub fn quarantined(&self) -> Vec<FaultComponent> {
        self.quarantined.iter().map(|e| e.component).collect()
    }

    /// Healing probe: un-quarantines every non-persistent component whose
    /// last strike is at least `HEAL_INTERVAL_CYCLES` in the past, and
    /// returns them. Persistent entries never heal.
    pub fn probe_heal(&mut self, now: u64) -> Vec<FaultComponent> {
        let interval = HEAL_INTERVAL_CYCLES;
        let mut healed = Vec::new();
        self.quarantined.retain(|e| {
            let heal = !e.persistent && now >= e.last_strike.saturating_add(interval);
            if heal {
                healed.push(e.component);
            }
            !heal
        });
        for &c in &healed {
            self.heals += 1;
            self.trace.push(RecoveryEvent {
                cycle: now,
                action: RecoveryAction::Healed,
                detail: format!("{c} clean for {interval} cycles"),
            });
        }
        healed
    }

    /// Drops every quarantine entry (the stranded-machine escape hatch:
    /// when quarantine itself partitions the mesh, releasing probation is
    /// preferable to declaring the run unsurvivable). Traced per entry.
    pub fn release_quarantine(&mut self, now: u64) -> Vec<FaultComponent> {
        let released: Vec<FaultComponent> =
            self.quarantined.drain(..).map(|e| e.component).collect();
        for &c in &released {
            self.heals += 1;
            self.trace.push(RecoveryEvent {
                cycle: now,
                action: RecoveryAction::Healed,
                detail: format!("{c} force-released (quarantine strands the machine)"),
            });
        }
        released
    }

    /// The plan the machine actually follows: `plan` plus one window per
    /// quarantined component (`[since, last_strike + HEAL_INTERVAL_CYCLES)`, or
    /// permanent for persistent entries). Windows may overlap events the
    /// plan already schedules for the same component; `state_at` unions
    /// activity, so the overlay needs no validation.
    pub fn overlay(&self, plan: &FaultPlan) -> FaultPlan {
        let mut out = plan.clone();
        for e in &self.quarantined {
            let repair_at =
                if e.persistent { None } else { Some(e.last_strike.saturating_add(HEAL_INTERVAL_CYCLES)) };
            out.push(FaultEvent { component: e.component, inject_at: e.since, repair_at })
                .expect("quarantined components came from the live machine");
        }
        out
    }

    /// Charges a transient retry: backoff for `attempt`, trace + counters,
    /// and the MTTR incident
    /// `fault_cycle → fault_cycle + backoff`. Returns the resume cycle.
    pub fn charge_retry(
        &mut self,
        component: FaultComponent,
        fault_cycle: u64,
        attempt: u32,
    ) -> u64 {
        let component = self.canonical(component);
        let backoff = backoff_cycles(attempt);
        self.transient_retries += 1;
        self.recovery_overhead += backoff;
        let resume = fault_cycle.saturating_add(backoff);
        self.trace.push(RecoveryEvent {
            cycle: fault_cycle,
            action: RecoveryAction::Retried,
            detail: format!("{component}: attempt {attempt}, backoff {backoff} cycles"),
        });
        self.close_incident(fault_cycle, resume);
        resume
    }

    /// Charges a persistent remap: fixed remap cycles plus the migration
    /// cost of moving the kept sets from `old` to `new`. Returns the
    /// resume cycle and records the MTTR incident.
    pub fn charge_remap(
        &mut self,
        old: &NestMapping,
        new: &NestMapping,
        keep: &[bool],
        fault_cycle: u64,
    ) -> u64 {
        let cost = migration_cost_cycles(old, new, keep, self.mesh);
        let charge = cost + FIXED_REMAP_CYCLES;
        self.remaps += 1;
        self.migration_cost += cost;
        self.recovery_overhead += charge;
        let resume = fault_cycle.saturating_add(charge);
        self.trace.push(RecoveryEvent {
            cycle: fault_cycle,
            action: RecoveryAction::Remapped,
            detail: format!(
                "remaining sets remapped; migration {cost} + fixed {FIXED_REMAP_CYCLES} cycles"
            ),
        });
        self.close_incident(fault_cycle, resume);
        resume
    }

    /// Records a verifier rejection of a candidate mapping.
    pub fn note_verify_rejected(&mut self, cycle: u64, detail: impl Into<String>) {
        self.trace.push(RecoveryEvent {
            cycle,
            action: RecoveryAction::VerifyRejected,
            detail: detail.into(),
        });
    }

    /// Records dropping to `level` on the degradation ladder (the summary
    /// keeps the worst rung adopted).
    pub fn note_degraded(&mut self, cycle: u64, level: DegradationLevel, detail: impl Into<String>) {
        self.degradation = self.degradation.max(level);
        self.trace.push(RecoveryEvent { cycle, action: RecoveryAction::Degraded, detail: detail.into() });
    }

    fn close_incident(&mut self, fault_cycle: u64, resume_cycle: u64) {
        self.mttr_sum += resume_cycle.saturating_sub(fault_cycle);
        self.mttr_incidents += 1;
        self.trace.push(RecoveryEvent {
            cycle: resume_cycle,
            action: RecoveryAction::Resumed,
            detail: format!("execution resumes ({} cycles after the fault)", resume_cycle - fault_cycle),
        });
    }

    /// The recovery trace so far, in event order.
    pub fn trace(&self) -> &[RecoveryEvent] {
        &self.trace
    }

    /// The resilience summary of everything recorded so far.
    pub fn summary(&self) -> ResilienceSummary {
        ResilienceSummary {
            faults_seen: self.faults_seen,
            transient_retries: self.transient_retries,
            remaps: self.remaps,
            quarantined: self.quarantines,
            healed: self.heals,
            mttr_cycles: if self.mttr_incidents == 0 {
                0.0
            } else {
                self.mttr_sum as f64 / self.mttr_incidents as f64
            },
            migration_cost_cycles: self.migration_cost,
            recovery_overhead_cycles: self.recovery_overhead,
            degradation: self.degradation,
        }
    }
}

/// The sub-mapping of the sets `keep[i] == true` — used to resume a nest
/// from an interruption point without re-executing completed sets. Set
/// ids, bounds and per-set metadata are preserved; the balance report is
/// rewritten to cover only the kept sets.
pub fn restrict_mapping(mapping: &NestMapping, keep: &[bool]) -> NestMapping {
    let pick = |i: usize| keep.get(i).copied().unwrap_or(true);
    let filter_sets = mapping.sets.iter().enumerate().filter(|&(i, _)| pick(i));
    let mut out = NestMapping {
        nest: mapping.nest,
        sets: filter_sets.clone().map(|(_, s)| *s).collect(),
        regions: Vec::new(),
        assignment: Vec::new(),
        balance: crate::balance::BalanceReport { moved: 0, total: 0 },
        needs_inspector: mapping.needs_inspector,
        mai: Vec::new(),
        cai: Vec::new(),
        alphas: Vec::new(),
    };
    for (i, _) in filter_sets {
        out.regions.push(mapping.regions[i]);
        out.assignment.push(mapping.assignment[i]);
        if mapping.mai.len() == mapping.sets.len() {
            out.mai.push(mapping.mai[i].clone());
        }
        if mapping.cai.len() == mapping.sets.len() {
            out.cai.push(mapping.cai[i].clone());
        }
        if mapping.alphas.len() == mapping.sets.len() {
            out.alphas.push(mapping.alphas[i]);
        }
    }
    out.balance.total = out.sets.len();
    out
}

/// Adopts the assignments of `fresh` (a full remap of the same nest) for
/// the sets of `old`, returning the old mapping with new cores/regions.
/// Returns `None` when the two mappings do not partition the nest the same
/// way (different options or nest shape) — the caller should fall back to
/// the degradation ladder.
pub fn adopt_assignment(old: &NestMapping, fresh: &NestMapping) -> Option<NestMapping> {
    if old.nest != fresh.nest || old.sets != fresh.sets {
        return None;
    }
    let mut out = fresh.clone();
    out.needs_inspector = false;
    Some(out)
}

/// Alive cores per region, lowest node index first.
fn alive_cores_by_region(state: &FaultState, platform: &Platform) -> Vec<Vec<NodeId>> {
    let regions = &platform.regions;
    regions
        .regions()
        .map(|r| regions.nodes_in(r).into_iter().filter(|&n| state.router_alive(n)).collect())
        .collect()
}

/// Nearest-region fallback placement (degradation rung 2): every set moves
/// to an alive core of the region nearest to its current core, round-robin
/// inside each region. Returns `None` when no router survives.
pub fn fallback_region_mapping(
    mapping: &NestMapping,
    state: &FaultState,
    platform: &Platform,
) -> Option<NestMapping> {
    let mesh = platform.mesh;
    let alive = alive_cores_by_region(state, platform);
    if alive.iter().all(Vec::is_empty) {
        return None;
    }
    let mut out = mapping.clone();
    let mut cursor = vec![0usize; alive.len()];
    for i in 0..out.sets.len() {
        let from = mesh.coord_of(mapping.assignment[i]);
        // Nearest region with a surviving core (distance to its closest
        // alive core; ties to the lowest region index).
        let (mut best, mut best_dist) = (usize::MAX, u32::MAX);
        for (ri, cores) in alive.iter().enumerate() {
            for &c in cores {
                let d = from.manhattan(mesh.coord_of(c));
                if d < best_dist {
                    best_dist = d;
                    best = ri;
                }
            }
        }
        let cores = &alive[best];
        let core = cores[cursor[best] % cores.len()];
        cursor[best] += 1;
        out.assignment[i] = core;
        out.regions[i] = RegionId(best as u16);
    }
    out.balance = crate::balance::BalanceReport { moved: out.sets.len(), total: out.sets.len() };
    Some(out)
}

/// Serial single-region execution (degradation rung 3): every set goes to
/// the region with the most surviving cores (ties to the lowest index),
/// round-robin over its alive cores. Returns `None` when no router
/// survives.
pub fn serial_region_mapping(
    mapping: &NestMapping,
    state: &FaultState,
    platform: &Platform,
) -> Option<NestMapping> {
    let alive = alive_cores_by_region(state, platform);
    let best = (0..alive.len()).max_by_key(|&r| (alive[r].len(), usize::MAX - r))?;
    if alive[best].is_empty() {
        return None;
    }
    let mut out = mapping.clone();
    let cores = &alive[best];
    for i in 0..out.sets.len() {
        out.assignment[i] = cores[i % cores.len()];
        out.regions[i] = RegionId(best as u16);
    }
    out.balance = crate::balance::BalanceReport { moved: out.sets.len(), total: out.sets.len() };
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Compiler;
    use locmap_loopir::{Access, AffineExpr, DataEnv, LoopNest, Program};
    use locmap_noc::{Direction, Link};

    fn mesh() -> Mesh {
        Mesh::try_new(6, 6).unwrap()
    }

    fn controller() -> ResilienceController {
        ResilienceController::new(mesh())
    }

    #[test]
    fn default_policy_matches_historical_inspector_policy() {
        assert_eq!(MAX_RETRIES, 3);
        assert!((DIVERGENCE_THRESHOLD - 0.08).abs() < 1e-12);
        // The historical doubling, bit for bit, up to the cap.
        assert_eq!(backoff_cycles(0), 10_000);
        assert_eq!(backoff_cycles(1), 20_000);
        assert_eq!(backoff_cycles(2), 40_000);
        assert_eq!(backoff_cycles(6), 640_000);
        assert_eq!(backoff_cycles(7), MAX_BACKOFF_CYCLES);
        assert_eq!(backoff_cycles(40), MAX_BACKOFF_CYCLES);
    }

    #[test]
    fn strikes_inside_window_promote_to_persistent() {
        let mut c = controller();
        let mc = FaultComponent::Mc(1);
        assert_eq!(c.record_fault(mc, 1_000), FaultClass::Transient);
        assert_eq!(c.record_fault(mc, 2_000), FaultClass::Transient);
        assert_eq!(c.strike_count(mc), 2);
        assert_eq!(c.record_fault(mc, 3_000), FaultClass::Persistent, "third strike");
        // Persistent entries never heal.
        assert!(c.probe_heal(u64::MAX).is_empty());
        assert_eq!(c.quarantined(), vec![mc]);
    }

    /// The backoff-and-probe loop of a healing run: a component that stays
    /// dead is struck once per failed probe, and the backoff schedule must
    /// fit `STRIKE_THRESHOLD` strikes inside the strike window, or the
    /// component is never promoted and the loop never ends.
    #[test]
    fn a_component_that_stays_dead_is_promoted_within_the_threshold() {
        let mut c = controller();
        let mc = FaultComponent::Mc(2);
        let mut now = 5_000;
        let mut class = c.record_fault(mc, now);
        for _ in 0..STRIKE_THRESHOLD {
            if class == FaultClass::Persistent {
                break;
            }
            let attempt = c.strike_count(mc).saturating_sub(1);
            now = c.charge_retry(mc, now, attempt);
            class = c.record_fault(mc, now);
        }
        assert_eq!(class, FaultClass::Persistent, "still transient at cycle {now}");
    }

    #[test]
    fn window_expiry_forgets_old_strikes() {
        let mut c = controller();
        let window = STRIKE_WINDOW_CYCLES;
        let link = FaultComponent::Link(Link { from: NodeId(0), dir: Direction::East });
        assert_eq!(c.record_fault(link, 0), FaultClass::Transient);
        assert_eq!(c.record_fault(link, 10), FaultClass::Transient);
        // Far outside the window: the first two strikes have aged out.
        assert_eq!(c.record_fault(link, window + 1_000), FaultClass::Transient);
        assert_eq!(c.strike_count(link), 1);
    }

    #[test]
    fn reverse_link_strikes_count_as_one_wire() {
        let mut c = controller();
        let m = mesh();
        let l = Link { from: m.node_at(2, 2), dir: Direction::East };
        let r = reverse_link(m, l);
        c.record_fault(FaultComponent::Link(l), 100);
        c.record_fault(FaultComponent::Link(r), 200);
        assert_eq!(c.strike_count(FaultComponent::Link(l)), 2);
        assert_eq!(c.quarantined().len(), 1, "one wire, one quarantine entry");
    }

    #[test]
    fn heal_probe_unquarantines_after_clean_interval() {
        let mut c = controller();
        let heal = HEAL_INTERVAL_CYCLES;
        let bank = FaultComponent::Bank(NodeId(9));
        c.record_fault(bank, 5_000);
        assert_eq!(c.quarantined(), vec![bank]);
        assert!(c.probe_heal(5_000 + heal - 1).is_empty(), "still on probation");
        assert_eq!(c.probe_heal(5_000 + heal), vec![bank]);
        assert!(c.quarantined().is_empty());
        let s = c.summary();
        assert_eq!((s.quarantined, s.healed), (1, 1));
    }

    #[test]
    fn overlay_folds_quarantine_into_the_plan() {
        let mut c = controller();
        let m = mesh();
        let plan = FaultPlan::new(m, 4).dead_mc(3);
        c.record_fault(FaultComponent::Bank(NodeId(7)), 1_000);
        let aug = c.overlay(&plan);
        let heal = HEAL_INTERVAL_CYCLES;
        assert!(!aug.state_at(1_000).bank_alive(NodeId(7)), "quarantined while on probation");
        assert!(!aug.state_at(1_000).mc_alive(3), "plan events survive the overlay");
        assert!(aug.state_at(1_000 + heal).bank_alive(NodeId(7)), "probation window closes");
        // Promote to persistent: the overlay window becomes permanent.
        c.record_fault(FaultComponent::Bank(NodeId(7)), 2_000);
        c.record_fault(FaultComponent::Bank(NodeId(7)), 3_000);
        let aug = c.overlay(&plan);
        assert!(!aug.final_state().bank_alive(NodeId(7)));
    }

    #[test]
    fn all_links_dead_quarantine_strands_core_and_releases() {
        // The LM0302-diagnosed edge case: quarantining every channel of a
        // node strands its (alive) core, so the quarantined state fails
        // connectivity — the driver's escape hatch force-releases.
        let mut c = controller();
        let m = mesh();
        let node = m.node_at(2, 2);
        for dir in Direction::ALL {
            c.record_fault(FaultComponent::Link(Link { from: node, dir }), 500);
        }
        let aug = c.overlay(&FaultPlan::new(m, 4));
        let state = aug.state_at(500);
        assert!(state.router_alive(node), "the core itself is alive");
        assert!(state.check_connected().is_err(), "but unreachable: stranded");
        let released = c.release_quarantine(600);
        assert_eq!(released.len(), 4);
        let clean = c.overlay(&FaultPlan::new(m, 4)).state_at(600);
        assert!(clean.check_connected().is_ok());
        assert!(c.summary().healed >= 4);
    }

    fn demo_mapping() -> (Program, locmap_loopir::NestId, NestMapping, Platform) {
        let mut p = Program::new("demo");
        let a = p.add_array("A", 8, 8192);
        let mut nest = LoopNest::rectangular("n", &[8192]);
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
        let id = p.add_nest(nest);
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let m = compiler.map_nest(&p, id, &DataEnv::new());
        (p, id, m, platform)
    }

    #[test]
    fn restrict_mapping_keeps_only_unfinished_sets() {
        let (_, _, m, _) = demo_mapping();
        let mut keep = vec![true; m.sets.len()];
        keep[0] = false;
        keep[1] = false;
        let rest = restrict_mapping(&m, &keep);
        assert_eq!(rest.sets.len(), m.sets.len() - 2);
        assert_eq!(rest.sets[0], m.sets[2], "set ids and bounds survive");
        assert_eq!(rest.assignment[0], m.assignment[2]);
        assert_eq!(rest.balance.total, rest.sets.len());
    }

    #[test]
    fn adopt_assignment_requires_identical_partition() {
        let (_, _, m, _) = demo_mapping();
        let adopted = adopt_assignment(&m, &m).unwrap();
        assert_eq!(adopted, { let mut x = m.clone(); x.needs_inspector = false; x });
        let mut other = m.clone();
        other.sets.pop();
        other.assignment.pop();
        assert!(adopt_assignment(&m, &other).is_none());
    }

    #[test]
    fn migration_cost_charges_hops_times_bytes() {
        let (_, _, m, platform) = demo_mapping();
        let zero = migration_cost_cycles(&m, &m, &vec![true; m.sets.len()], platform.mesh);
        assert_eq!(zero, 0, "staying put is free");
        let mut moved = m.clone();
        // Move set 0 one hop east.
        let from = platform.mesh.coord_of(m.assignment[0]);
        let to = platform.mesh.node_at(if from.x + 1 < 6 { from.x + 1 } else { from.x - 1 }, from.y);
        moved.assignment[0] = to;
        let cost = migration_cost_cycles(&m, &moved, &vec![true; m.sets.len()], platform.mesh);
        let iters = (m.sets[0].end - m.sets[0].start) as u64;
        let bytes = (iters * STATE_BYTES_PER_ITER).min(MAX_BYTES_PER_SET);
        assert_eq!(cost, bytes / LINK_BYTES_PER_CYCLE);
        // Completed sets do not migrate.
        let mut keep = vec![true; m.sets.len()];
        keep[0] = false;
        assert_eq!(migration_cost_cycles(&m, &moved, &keep, platform.mesh), 0);
    }

    #[test]
    fn fallback_and_serial_mappings_avoid_dead_cores() {
        let (_, _, m, platform) = demo_mapping();
        let mut plan = FaultPlan::new(platform.mesh, platform.mc_count());
        // Kill an entire region's worth of routers (region 0: 2x2 corner).
        for n in platform.regions.nodes_in(RegionId(0)) {
            plan = plan.dead_router(n);
        }
        let state = plan.state_at(0);
        let fb = fallback_region_mapping(&m, &state, &platform).unwrap();
        assert!(fb.assignment.iter().all(|&n| state.router_alive(n)));
        assert_eq!(fb.sets, m.sets);
        let serial = serial_region_mapping(&m, &state, &platform).unwrap();
        assert!(serial.assignment.iter().all(|&n| state.router_alive(n)));
        let region = serial.regions[0];
        assert!(serial.regions.iter().all(|&r| r == region), "single region");
    }

    #[test]
    fn degradation_ladder_orders_rungs() {
        assert!(DegradationLevel::None < DegradationLevel::Remap);
        assert!(DegradationLevel::Remap < DegradationLevel::RegionFallback);
        assert!(DegradationLevel::RegionFallback < DegradationLevel::SerialRegion);
        let mut c = controller();
        c.note_degraded(10, DegradationLevel::SerialRegion, "x");
        c.note_degraded(20, DegradationLevel::Remap, "y");
        assert_eq!(c.summary().degradation, DegradationLevel::SerialRegion, "worst rung sticks");
    }

    #[test]
    fn summary_reports_mttr_and_overheads() {
        let (_, _, m, platform) = demo_mapping();
        let mut c = ResilienceController::new(platform.mesh);
        let mc = FaultComponent::Mc(0);
        c.record_fault(mc, 1_000);
        let resume = c.charge_retry(mc, 1_000, 0);
        assert_eq!(resume, 11_000, "base backoff");
        c.record_fault(mc, 50_000);
        let resume2 = c.charge_remap(&m, &m, &vec![true; m.sets.len()], 50_000);
        assert_eq!(resume2, 50_000 + FIXED_REMAP_CYCLES);
        let s = c.summary();
        assert_eq!(s.faults_seen, 2);
        assert_eq!(s.transient_retries, 1);
        assert_eq!(s.remaps, 1);
        assert!((s.mttr_cycles - (10_000.0 + 20_000.0) / 2.0).abs() < 1e-9);
        assert_eq!(s.recovery_overhead_cycles, 30_000);
        assert!(!c.trace().is_empty());
        assert!(c.trace().iter().any(|e| e.action == RecoveryAction::Resumed));
    }
}
