//! Fault injection: dead links, dead routers, offline memory controllers
//! and LLC banks, with deterministic seed-driven injection schedules.
//!
//! A [`FaultPlan`] is a declarative list of [`FaultEvent`]s — *component X
//! dies at cycle N, optionally repaired at cycle M*. Evaluating the plan
//! at a cycle yields a [`FaultState`]: dense alive/dead bitmaps that the
//! router ([`crate::route`]), the network ([`crate::Network`]) and
//! the higher layers (simulator, degraded-mode mapper) all consume, so
//! every layer sees the *same* picture of the machine.
//!
//! Link faults take out both directions of the physical channel (a dead
//! wire, not a dead buffer). A dead router additionally kills every
//! component attached to its node — the local LLC bank and any memory
//! controller on that node — which [`FaultState::effective`] folds in.
//!
//! Everything here is deterministic: [`FaultPlan::random`] derives its
//! choices from a caller-supplied seed, and redirect/nearest-survivor
//! computations break ties by lowest index.

use crate::error::LocmapError;
use crate::routing::{link_target, Direction, Link};
use crate::topology::{Coord, Mesh, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A hardware component that can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultComponent {
    /// A physical mesh channel (both directions die together).
    Link(Link),
    /// A router, together with the core, LLC bank and any MC at its node.
    Router(NodeId),
    /// A memory controller, by MC index.
    Mc(usize),
    /// The LLC bank at a node (the node's core and router survive).
    Bank(NodeId),
}

impl fmt::Display for FaultComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultComponent::Link(l) => write!(f, "link {}:{:?}", l.from, l.dir),
            FaultComponent::Router(n) => write!(f, "router {n}"),
            FaultComponent::Mc(k) => write!(f, "MC{k}"),
            FaultComponent::Bank(n) => write!(f, "bank {n}"),
        }
    }
}

/// One scheduled failure: `component` dies at `inject_at` and, if
/// `repair_at` is set, comes back at that cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// The component that fails.
    pub component: FaultComponent,
    /// Cycle at which the component goes offline.
    pub inject_at: u64,
    /// Cycle at which the component comes back, or `None` for permanent.
    pub repair_at: Option<u64>,
}

/// Requested component counts for [`FaultPlan::random`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounts {
    /// Number of physical channels to kill.
    pub links: usize,
    /// Number of routers to kill.
    pub routers: usize,
    /// Number of memory controllers to kill (clamped to leave one alive).
    pub mcs: usize,
    /// Number of LLC banks to kill (clamped to leave one alive).
    pub banks: usize,
}

impl FaultCounts {
    /// True when no faults are requested.
    pub fn is_empty(&self) -> bool {
        self.links == 0 && self.routers == 0 && self.mcs == 0 && self.banks == 0
    }
}

/// A deterministic, seed-reproducible schedule of component failures on
/// one mesh.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    mesh: Mesh,
    mc_count: usize,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan for a machine with `mesh` and `mc_count` controllers.
    pub fn new(mesh: Mesh, mc_count: usize) -> Self {
        FaultPlan { mesh, mc_count, events: Vec::new() }
    }

    /// The mesh this plan applies to.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// Number of memory controllers on the machine.
    pub fn mc_count(&self) -> usize {
        self.mc_count
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when `a` and `b` name the same physical component. The two
    /// directions of one mesh channel are a single wire, so a link and its
    /// [`reverse_link`] count as the same component.
    fn same_component(&self, a: FaultComponent, b: FaultComponent) -> bool {
        if a == b {
            return true;
        }
        match (a, b) {
            (FaultComponent::Link(l), FaultComponent::Link(r)) => {
                link_exists(self.mesh, l) && reverse_link(self.mesh, l) == r
            }
            _ => false,
        }
    }

    /// Adds an arbitrary event, enforcing construction-time sanity:
    ///
    /// * a link that is not a mesh channel ([`link_exists`]) — its source
    ///   lies outside the mesh, or it leaves the mesh edge — is rejected
    ///   with a typed [`LocmapError::FaultConflict`];
    /// * an event duplicating an already scheduled one — same physical
    ///   component (a channel and its reverse are one wire) and the same
    ///   injection/repair cycles — is silently dropped.
    ///
    /// Range and schedule checks for the remaining component kinds stay in
    /// [`FaultPlan::validate`].
    pub fn push(&mut self, event: FaultEvent) -> Result<&mut Self, LocmapError> {
        if let FaultComponent::Link(l) = event.component {
            if !link_exists(self.mesh, l) {
                return Err(LocmapError::FaultConflict(format!(
                    "link {}:{:?} is not a channel of {}",
                    l.from, l.dir, self.mesh
                )));
            }
        }
        let duplicate = self.events.iter().any(|e| {
            self.same_component(e.component, event.component)
                && e.inject_at == event.inject_at
                && e.repair_at == event.repair_at
        });
        if !duplicate {
            self.events.push(event);
        }
        Ok(self)
    }

    fn push_permanent(&mut self, component: FaultComponent) -> Result<(), LocmapError> {
        self.push(FaultEvent { component, inject_at: 0, repair_at: None }).map(|_| ())
    }

    /// Schedules a permanent link failure from cycle 0. Duplicate entries
    /// (including the reverse direction of an already dead channel) are
    /// deduplicated.
    ///
    /// # Panics
    ///
    /// Panics on a link that is not a mesh channel; use
    /// [`FaultPlan::push`] for fallible construction.
    pub fn dead_link(mut self, link: Link) -> Self {
        self.push_permanent(FaultComponent::Link(link)).unwrap_or_else(|e| panic!("{e}"));
        self
    }

    /// Schedules a permanent router failure from cycle 0 (duplicates are
    /// deduplicated).
    pub fn dead_router(mut self, node: NodeId) -> Self {
        self.push_permanent(FaultComponent::Router(node)).expect("router events cannot fail");
        self
    }

    /// Schedules a permanent memory-controller failure from cycle 0
    /// (duplicates are deduplicated).
    pub fn dead_mc(mut self, mc: usize) -> Self {
        self.push_permanent(FaultComponent::Mc(mc)).expect("MC events cannot fail");
        self
    }

    /// Schedules a permanent LLC-bank failure from cycle 0 (duplicates are
    /// deduplicated).
    pub fn dead_bank(mut self, node: NodeId) -> Self {
        self.push_permanent(FaultComponent::Bank(node)).expect("bank events cannot fail");
        self
    }

    /// Draws a random plan with the requested component counts, fully
    /// determined by `seed`. Links are drawn from interior channels only
    /// (channels that exist on a mesh); MC and bank counts are clamped so
    /// at least one of each survives. All faults inject at cycle 0 and
    /// are permanent — schedule repairs by editing [`Self::push`].
    pub fn random(seed: u64, mesh: Mesh, mc_count: usize, counts: FaultCounts) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new(mesh, mc_count);
        let n = mesh.node_count();

        let mut links: Vec<Link> = Vec::new();
        while links.len() < counts.links.min(n * 2) {
            let from = NodeId(rng.gen_range(0..n as u16));
            let dir = Direction::ALL[rng.gen_range(0..4u8) as usize];
            let link = Link { from, dir };
            if !link_exists(mesh, link) {
                continue;
            }
            // A channel and its reverse are the same physical wire.
            let rev = reverse_link(mesh, link);
            if links.iter().any(|&l| l == link || l == rev) {
                continue;
            }
            links.push(link);
        }
        for link in links {
            plan = plan.dead_link(link);
        }

        let mut routers: Vec<NodeId> = Vec::new();
        while routers.len() < counts.routers.min(n.saturating_sub(1)) {
            let node = NodeId(rng.gen_range(0..n as u16));
            if !routers.contains(&node) {
                routers.push(node);
            }
        }
        for node in routers {
            plan = plan.dead_router(node);
        }

        let mut mcs: Vec<usize> = Vec::new();
        while mcs.len() < counts.mcs.min(mc_count.saturating_sub(1)) {
            let mc = rng.gen_range(0..mc_count);
            if !mcs.contains(&mc) {
                mcs.push(mc);
            }
        }
        for mc in mcs {
            plan = plan.dead_mc(mc);
        }

        let mut banks: Vec<NodeId> = Vec::new();
        while banks.len() < counts.banks.min(n.saturating_sub(1)) {
            let node = NodeId(rng.gen_range(0..n as u16));
            if !banks.contains(&node) {
                banks.push(node);
            }
        }
        for node in banks {
            plan = plan.dead_bank(node);
        }
        plan
    }

    /// Like [`FaultPlan::random`], but spreads the failures over a
    /// `[0, horizon)` cycle timeline instead of injecting everything
    /// permanently at cycle 0 — the shape of plan the online resilience
    /// controller consumes.
    ///
    /// Components are chosen exactly as [`FaultPlan::random`] chooses them
    /// (same seed ⇒ same components). Each then gets timed windows:
    ///
    /// * `transient == false`: one permanent failure injected somewhere in
    ///   the middle half of the horizon (`[horizon/4, 3·horizon/4)`);
    /// * `transient == true`: one to three disjoint failure windows, each
    ///   lasting 2–10 % of the horizon — a flaky component that strikes
    ///   repeatedly, the input the strike-counting classifier needs.
    ///
    /// The result always passes [`FaultPlan::validate`]: windows of one
    /// component never overlap, and repairs follow injections.
    pub fn random_timed(
        seed: u64,
        mesh: Mesh,
        mc_count: usize,
        counts: FaultCounts,
        horizon: u64,
        transient: bool,
    ) -> Self {
        let base = Self::random(seed, mesh, mc_count, counts);
        let horizon = horizon.max(16);
        // A second, independently seeded stream draws the times so the
        // component choice stays bit-identical to `random(seed, ..)`.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x74696d6564); // "timed"
        let mut plan = FaultPlan::new(mesh, mc_count);
        for ev in base.events() {
            if !transient {
                let inject_at = horizon / 4 + rng.gen_range(0..horizon / 2);
                plan.push(FaultEvent { component: ev.component, inject_at, repair_at: None })
                    .expect("components re-validated from the base plan");
                continue;
            }
            let windows = rng.gen_range(1..=3u8);
            let mut cursor = rng.gen_range(0..horizon / 4);
            for _ in 0..windows {
                let duration = (horizon / 50 + rng.gen_range(0..horizon / 12)).max(1);
                let inject_at = cursor;
                let repair_at = inject_at.saturating_add(duration);
                plan.push(FaultEvent { component: ev.component, inject_at, repair_at: Some(repair_at) })
                    .expect("components re-validated from the base plan");
                // Next window starts strictly after this one repairs.
                cursor = repair_at + 1 + rng.gen_range(0..horizon / 8 + 1);
            }
        }
        plan
    }

    /// Checks the plan for internal consistency: components in range,
    /// links on mesh channels, repairs after injections, no component
    /// scheduled in *overlapping* windows (a channel and its reverse
    /// direction count as one component), and at least one memory
    /// controller alive in the permanent state.
    ///
    /// The same component may appear in several **disjoint** windows —
    /// that is how transient/recurring faults are expressed. Touching
    /// windows (one repairs at the exact cycle the next injects) are
    /// allowed and unambiguous under the [`FaultPlan::state_at`]
    /// tie-break: the injection wins, so the component stays dead across
    /// the shared boundary. Two windows with the same injection cycle, or
    /// a window opening before the previous one closed, are rejected.
    ///
    /// [`FaultPlan::push`] and the `dead_*` constructors already enforce
    /// the link-sanity and duplicate rules, so this mainly guards plans
    /// that arrive through deserialization.
    pub fn validate(&self) -> Result<(), LocmapError> {
        let n = self.mesh.node_count();
        for (i, ev) in self.events.iter().enumerate() {
            match ev.component {
                FaultComponent::Link(l) => {
                    if !link_exists(self.mesh, l) {
                        return Err(LocmapError::FaultConflict(format!(
                            "event {i}: link {}:{:?} is not a channel of {}",
                            l.from, l.dir, self.mesh
                        )));
                    }
                }
                FaultComponent::Router(node) | FaultComponent::Bank(node) => {
                    if node.index() >= n {
                        return Err(LocmapError::FaultConflict(format!(
                            "event {i}: node {node} outside {}",
                            self.mesh
                        )));
                    }
                }
                FaultComponent::Mc(k) => {
                    if k >= self.mc_count {
                        return Err(LocmapError::FaultConflict(format!(
                            "event {i}: MC{k} out of range (machine has {} MCs)",
                            self.mc_count
                        )));
                    }
                }
            }
            if let Some(r) = ev.repair_at {
                if r <= ev.inject_at {
                    return Err(LocmapError::FaultConflict(format!(
                        "event {i} ({}): repair at {r} not after injection at {}",
                        ev.component, ev.inject_at
                    )));
                }
            }
            for (j, other) in self.events.iter().enumerate().skip(i + 1) {
                if !self.same_component(ev.component, other.component) {
                    continue;
                }
                // Two windows on one component are fine as long as they are
                // disjoint ([a,b) then [b,c) is allowed — "touching").
                // Overlap, including two windows opening at the same cycle,
                // is ambiguous scheduling and rejected.
                let a_end = ev.repair_at.unwrap_or(u64::MAX);
                let b_end = other.repair_at.unwrap_or(u64::MAX);
                if ev.inject_at < b_end && other.inject_at < a_end {
                    return Err(LocmapError::FaultConflict(format!(
                        "events {i} and {j} schedule {} in overlapping windows",
                        ev.component
                    )));
                }
            }
        }
        let permanent_dead_mcs = self
            .events
            .iter()
            .filter(|e| e.repair_at.is_none() && matches!(e.component, FaultComponent::Mc(_)))
            .count();
        if self.mc_count > 0 && permanent_dead_mcs >= self.mc_count {
            return Err(LocmapError::FaultConflict(
                "all memory controllers permanently dead".into(),
            ));
        }
        Ok(())
    }

    /// The fault state in effect at `cycle`: every event with
    /// `inject_at <= cycle` and no repair at or before `cycle` is active.
    ///
    /// # Equal-cycle tie-break (deterministic)
    ///
    /// When a repair and an injection land on the same cycle — one window
    /// of a component closing exactly as another opens, or two different
    /// components trading places — the rule is: **injections take effect
    /// at their cycle, repairs take effect at theirs, and an injection
    /// beats a simultaneous repair of the same component.** Formally, an
    /// event is active on `[inject_at, repair_at)`, a half-open interval,
    /// and the state is the union over active events. The union is
    /// commutative, so the result is independent of the order events were
    /// pushed; a component scheduled as `[a,b)` then `[b,c)` is dead for
    /// the whole of `[a,c)` with no one-cycle flicker at `b`.
    pub fn state_at(&self, cycle: u64) -> FaultState {
        let mut state = FaultState::none(self.mesh, self.mc_count);
        for ev in &self.events {
            let active = ev.inject_at <= cycle && ev.repair_at.is_none_or(|r| r > cycle);
            if !active {
                continue;
            }
            match ev.component {
                FaultComponent::Link(l) => {
                    state.dead_link[l.index()] = true;
                    state.dead_link[reverse_link(self.mesh, l).index()] = true;
                }
                FaultComponent::Router(node) => state.dead_router[node.index()] = true,
                FaultComponent::Mc(k) => state.dead_mc[k] = true,
                FaultComponent::Bank(node) => state.dead_bank[node.index()] = true,
            }
        }
        state
    }

    /// The state once every scheduled repair has happened (the permanent
    /// faults only).
    pub fn final_state(&self) -> FaultState {
        self.state_at(u64::MAX)
    }

    /// All cycles at which the fault state changes (injections and
    /// repairs), sorted and deduplicated. Harnesses re-evaluate the plan
    /// at these boundaries.
    pub fn change_cycles(&self) -> Vec<u64> {
        let mut cycles: Vec<u64> = self
            .events
            .iter()
            .flat_map(|e| [Some(e.inject_at), e.repair_at])
            .flatten()
            .collect();
        cycles.sort_unstable();
        cycles.dedup();
        cycles
    }

    /// One-line human-readable description of the plan.
    pub fn summary(&self) -> String {
        let mut links = 0;
        let mut routers = 0;
        let mut mcs = Vec::new();
        let mut banks = 0;
        for ev in &self.events {
            match ev.component {
                FaultComponent::Link(_) => links += 1,
                FaultComponent::Router(_) => routers += 1,
                FaultComponent::Mc(k) => mcs.push(k),
                FaultComponent::Bank(_) => banks += 1,
            }
        }
        let mc_list = if mcs.is_empty() {
            "none".to_string()
        } else {
            mcs.iter().map(|k| format!("MC{k}")).collect::<Vec<_>>().join(",")
        };
        format!("{links} link(s), {routers} router(s), {banks} bank(s), dead MCs: {mc_list}")
    }
}

/// True when `link` is a physical mesh channel: its source lies on the
/// mesh and its target stays in bounds.
pub fn link_exists(mesh: Mesh, link: Link) -> bool {
    if link.from.index() >= mesh.node_count() {
        return false;
    }
    let c = mesh.coord_of(link.from);
    match link.dir {
        Direction::East => c.x + 1 < mesh.width(),
        Direction::West => c.x > 0,
        Direction::North => c.y > 0,
        Direction::South => c.y + 1 < mesh.height(),
    }
}

/// The opposite direction of travel.
fn opposite(dir: Direction) -> Direction {
    match dir {
        Direction::East => Direction::West,
        Direction::West => Direction::East,
        Direction::North => Direction::South,
        Direction::South => Direction::North,
    }
}

/// The reverse direction of the mesh channel `link`: the link from its
/// target back to its source.
///
/// # Panics
///
/// Panics if `link` leaves the mesh (see [`link_exists`]).
pub fn reverse_link(mesh: Mesh, link: Link) -> Link {
    let target = link_target(mesh, link);
    Link { from: mesh.node_at(target.x, target.y), dir: opposite(link.dir) }
}

/// The nearest-survivor rule behind every degraded-mode redirect: `from`
/// itself when `alive(from)`, otherwise the alive index in `0..count` at
/// the smallest `dist`, the lowest index winning ties. `None` when nothing
/// in `0..count` is alive.
pub fn nearest_survivor<D: PartialOrd>(
    count: usize,
    from: usize,
    alive: impl Fn(usize) -> bool,
    dist: impl Fn(usize) -> D,
) -> Option<usize> {
    if alive(from) {
        return Some(from);
    }
    let mut best: Option<(D, usize)> = None;
    for k in (0..count).filter(|&k| alive(k)) {
        let d = dist(k);
        if best.as_ref().is_none_or(|(bd, _)| d < *bd) {
            best = Some((d, k));
        }
    }
    best.map(|(_, k)| k)
}

/// Dense alive/dead bitmaps for every component at one instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultState {
    mesh: Mesh,
    dead_link: Vec<bool>,
    dead_router: Vec<bool>,
    dead_mc: Vec<bool>,
    dead_bank: Vec<bool>,
}

impl FaultState {
    /// The all-alive state for a machine with `mesh` and `mc_count` MCs.
    pub fn none(mesh: Mesh, mc_count: usize) -> Self {
        let n = mesh.node_count();
        FaultState {
            mesh,
            dead_link: vec![false; Link::slot_count(mesh)],
            dead_router: vec![false; n],
            dead_mc: vec![false; mc_count],
            dead_bank: vec![false; n],
        }
    }

    /// The mesh this state describes.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// True when no component is dead.
    pub fn is_clean(&self) -> bool {
        !self.dead_link.iter().any(|&d| d)
            && !self.dead_router.iter().any(|&d| d)
            && !self.dead_mc.iter().any(|&d| d)
            && !self.dead_bank.iter().any(|&d| d)
    }

    /// True when the directed link carries traffic.
    pub fn link_alive(&self, link: Link) -> bool {
        !self.dead_link[link.index()]
    }

    /// True when the router (and hence the core) at `node` is alive.
    pub fn router_alive(&self, node: NodeId) -> bool {
        !self.dead_router[node.index()]
    }

    /// True when memory controller `mc` is serving requests.
    pub fn mc_alive(&self, mc: usize) -> bool {
        !self.dead_mc[mc]
    }

    /// True when the LLC bank at `node` holds data.
    pub fn bank_alive(&self, node: NodeId) -> bool {
        !self.dead_bank[node.index()]
    }

    /// True when `component` is alive — the per-kind query above, picked
    /// by the component's kind.
    pub fn alive(&self, component: FaultComponent) -> bool {
        match component {
            FaultComponent::Link(l) => self.link_alive(l),
            FaultComponent::Router(n) => self.router_alive(n),
            FaultComponent::Mc(k) => self.mc_alive(k),
            FaultComponent::Bank(n) => self.bank_alive(n),
        }
    }

    /// Counts of dead (links, routers, mcs, banks). Link faults count
    /// physical channels, not directed slots.
    pub fn dead_counts(&self) -> (usize, usize, usize, usize) {
        let links = self.dead_link.iter().filter(|&&d| d).count() / 2;
        let routers = self.dead_router.iter().filter(|&&d| d).count();
        let mcs = self.dead_mc.iter().filter(|&&d| d).count();
        let banks = self.dead_bank.iter().filter(|&&d| d).count();
        (links, routers, mcs, banks)
    }

    /// Folds in the faults a dead router *implies*: the LLC bank at that
    /// node is unreachable forever, and any MC attached there (per
    /// `mc_coords`) cannot serve requests. Every consumer — router,
    /// simulator, degraded-mode mapper — should work from the effective
    /// state so they agree on what survives.
    pub fn effective(&self, mc_coords: &[Coord]) -> FaultState {
        let mut eff = self.clone();
        for node in self.mesh.nodes() {
            if self.dead_router[node.index()] {
                eff.dead_bank[node.index()] = true;
                let c = self.mesh.coord_of(node);
                for (k, &mc) in mc_coords.iter().enumerate() {
                    if mc == c {
                        eff.dead_mc[k] = true;
                    }
                }
            }
        }
        eff
    }

    /// For each MC index, the alive MC that absorbs its traffic: itself
    /// when alive, otherwise the nearest surviving controller by
    /// Manhattan distance (ties to the lowest index). Errors when no
    /// controller survives.
    pub fn mc_redirects(&self, mc_coords: &[Coord]) -> Result<Vec<usize>, LocmapError> {
        if self.dead_mc.iter().all(|&d| d) {
            return Err(LocmapError::FaultConflict("all memory controllers dead".into()));
        }
        let n = mc_coords.len();
        Ok((0..n)
            .map(|k| {
                let dist = |j: usize| mc_coords[k].manhattan(mc_coords[j]);
                nearest_survivor(n, k, |j| self.mc_alive(j), dist).expect("a controller survives")
            })
            .collect())
    }

    /// For each node index, the alive LLC bank that homes its addresses:
    /// the node's own bank when alive, otherwise the nearest surviving
    /// bank (ties to the lowest node index). Errors when no bank survives.
    pub fn bank_redirects(&self) -> Result<Vec<u16>, LocmapError> {
        if self.dead_bank.iter().all(|&d| d) {
            return Err(LocmapError::FaultConflict("all LLC banks dead".into()));
        }
        let mesh = self.mesh;
        let n = mesh.node_count();
        Ok((0..n)
            .map(|i| {
                let c = mesh.coord_of(NodeId(i as u16));
                let dist = |j: usize| c.manhattan(mesh.coord_of(NodeId(j as u16)));
                nearest_survivor(n, i, |j| !self.dead_bank[j], dist).expect("a bank survives")
                    as u16
            })
            .collect())
    }

    /// Verifies that every alive router can exchange messages with every
    /// other alive router over surviving links (strong connectivity of the
    /// alive subgraph). One search suffices: a link fault kills both
    /// directions of its channel, so whatever the first alive router
    /// reaches can also reach it back.
    pub fn check_connected(&self) -> Result<(), LocmapError> {
        let n = self.mesh.node_count();
        let root = match (0..n).find(|&i| !self.dead_router[i]) {
            Some(i) => NodeId(i as u16),
            None => return Err(LocmapError::FaultConflict("all routers dead".into())),
        };
        let (reached, _) = self.search(root, None);
        match (0..n).find(|&i| !self.dead_router[i] && !reached[i]) {
            Some(i) => Err(LocmapError::Unreachable { from: root, to: NodeId(i as u16) }),
            None => Ok(()),
        }
    }

    /// The nodes `src` reaches over the surviving channels, `src` included;
    /// all `false` when its router is dead. Link faults are symmetric, so
    /// the result is `src`'s connected component: every node in it
    /// reaches exactly the same set.
    pub fn reachable_from(&self, src: NodeId) -> Vec<bool> {
        if !self.router_alive(src) {
            return vec![false; self.mesh.node_count()];
        }
        self.search(src, None).0
    }

    /// The one breadth-first search over the surviving mesh channels,
    /// shared by [`crate::route`]'s detour, [`Self::check_connected`] and
    /// [`Self::reachable_from`]. From `src`, it follows alive links into
    /// alive routers, exploring each node's neighbours in
    /// [`Direction::ALL`] order, and stops as soon as it reaches `stop`.
    /// Returns which nodes it reached and, for each, the link by which it
    /// first reached it (`None` for `src` and for unreached nodes).
    /// Stopping early never changes a reached node's predecessor chain.
    pub(crate) fn search(
        &self,
        src: NodeId,
        stop: Option<NodeId>,
    ) -> (Vec<bool>, Vec<Option<Link>>) {
        let mesh = self.mesh;
        let n = mesh.node_count();
        let mut reached = vec![false; n];
        let mut prev = vec![None; n];
        reached[src.index()] = true;
        // Every node enters the queue once, so a vector and a read cursor
        // serve as the FIFO.
        let mut queue = vec![src];
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            for dir in Direction::ALL {
                let link = Link { from: u, dir };
                if !link_exists(mesh, link) || !self.link_alive(link) {
                    continue;
                }
                let tc = link_target(mesh, link);
                let v = mesh.node_at(tc.x, tc.y);
                if reached[v.index()] || !self.router_alive(v) {
                    continue;
                }
                reached[v.index()] = true;
                prev[v.index()] = Some(link);
                if stop == Some(v) {
                    return (reached, prev);
                }
                queue.push(v);
            }
        }
        (reached, prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::try_new(6, 6).unwrap()
    }

    #[test]
    fn empty_plan_is_clean_everywhere() {
        let plan = FaultPlan::new(mesh(), 4);
        assert!(plan.validate().is_ok());
        assert!(plan.state_at(0).is_clean());
        assert!(plan.final_state().is_clean());
        assert!(plan.change_cycles().is_empty());
    }

    #[test]
    fn link_fault_kills_both_directions() {
        let m = mesh();
        let link = Link { from: m.node_at(2, 2), dir: Direction::East };
        let state = FaultPlan::new(m, 4).dead_link(link).state_at(0);
        assert!(!state.link_alive(link));
        assert!(!state.link_alive(Link { from: m.node_at(3, 2), dir: Direction::West }));
        assert_eq!(state.dead_counts(), (1, 0, 0, 0));
    }

    #[test]
    fn injection_and_repair_windows() {
        let m = mesh();
        let mut plan = FaultPlan::new(m, 4);
        plan.push(FaultEvent {
            component: FaultComponent::Mc(1),
            inject_at: 100,
            repair_at: Some(500),
        })
        .unwrap();
        assert!(plan.validate().is_ok());
        assert!(plan.state_at(99).mc_alive(1));
        assert!(!plan.state_at(100).mc_alive(1));
        assert!(!plan.state_at(499).mc_alive(1));
        assert!(plan.state_at(500).mc_alive(1));
        assert!(plan.final_state().mc_alive(1));
        assert_eq!(plan.change_cycles(), vec![100, 500]);
    }

    #[test]
    fn validate_rejects_conflicts() {
        let m = mesh();
        // Repair before injection.
        let mut plan = FaultPlan::new(m, 4);
        plan.push(FaultEvent { component: FaultComponent::Mc(0), inject_at: 10, repair_at: Some(5) })
            .unwrap();
        assert!(matches!(plan.validate(), Err(LocmapError::FaultConflict(_))));
        // Same component scheduled twice with *different* windows is not a
        // duplicate for push (so both are stored) but is still a conflict.
        let mut plan = FaultPlan::new(m, 4);
        plan.push(FaultEvent { component: FaultComponent::Mc(1), inject_at: 0, repair_at: None })
            .unwrap()
            .push(FaultEvent { component: FaultComponent::Mc(1), inject_at: 5, repair_at: None })
            .unwrap();
        assert!(matches!(plan.validate(), Err(LocmapError::FaultConflict(_))));
        // All MCs dead.
        let plan = FaultPlan::new(m, 2).dead_mc(0).dead_mc(1);
        assert!(matches!(plan.validate(), Err(LocmapError::FaultConflict(_))));
        // Out-of-range MC.
        let plan = FaultPlan::new(m, 4).dead_mc(9);
        assert!(matches!(plan.validate(), Err(LocmapError::FaultConflict(_))));
    }

    #[test]
    fn disjoint_windows_on_one_component_are_valid() {
        let m = mesh();
        let mut plan = FaultPlan::new(m, 4);
        plan.push(FaultEvent {
            component: FaultComponent::Mc(1),
            inject_at: 10,
            repair_at: Some(20),
        })
        .unwrap()
        .push(FaultEvent {
            component: FaultComponent::Mc(1),
            inject_at: 20, // touching: repairs and re-injects at cycle 20
            repair_at: Some(30),
        })
        .unwrap()
        .push(FaultEvent { component: FaultComponent::Mc(1), inject_at: 50, repair_at: None })
        .unwrap();
        assert!(plan.validate().is_ok(), "{:?}", plan.validate());
        // Overlapping windows are still rejected.
        let mut bad = FaultPlan::new(m, 4);
        bad.push(FaultEvent { component: FaultComponent::Mc(1), inject_at: 10, repair_at: Some(30) })
            .unwrap()
            .push(FaultEvent { component: FaultComponent::Mc(1), inject_at: 20, repair_at: Some(40) })
            .unwrap();
        assert!(matches!(bad.validate(), Err(LocmapError::FaultConflict(_))));
        // Two windows opening at the same cycle are ambiguous: rejected.
        let mut dup = FaultPlan::new(m, 4);
        dup.push(FaultEvent { component: FaultComponent::Mc(1), inject_at: 5, repair_at: Some(9) })
            .unwrap()
            .push(FaultEvent { component: FaultComponent::Mc(1), inject_at: 5, repair_at: Some(7) })
            .unwrap();
        assert!(matches!(dup.validate(), Err(LocmapError::FaultConflict(_))));
    }

    #[test]
    fn state_at_tie_break_is_deterministic_and_order_independent() {
        // Regression: death and recovery of one component at equal cycles.
        // The rule is half-open activity windows [inject, repair): at the
        // shared boundary the injection wins, so [10,20) + [20,30) reads as
        // dead throughout [10,30) with no flicker at 20 — regardless of the
        // order the events were pushed.
        let m = mesh();
        let evs = [
            FaultEvent { component: FaultComponent::Mc(2), inject_at: 10, repair_at: Some(20) },
            FaultEvent { component: FaultComponent::Mc(2), inject_at: 20, repair_at: Some(30) },
            // A *different* component recovering exactly when MC2 re-dies.
            FaultEvent { component: FaultComponent::Bank(m.node_at(1, 1)), inject_at: 5, repair_at: Some(20) },
        ];
        let mut fwd = FaultPlan::new(m, 4);
        let mut rev = FaultPlan::new(m, 4);
        for e in &evs {
            fwd.push(*e).unwrap();
        }
        for e in evs.iter().rev() {
            rev.push(*e).unwrap();
        }
        assert!(fwd.validate().is_ok());
        for plan in [&fwd, &rev] {
            assert!(plan.state_at(9).mc_alive(2));
            assert!(!plan.state_at(10).mc_alive(2), "injection is inclusive");
            assert!(!plan.state_at(19).mc_alive(2));
            assert!(!plan.state_at(20).mc_alive(2), "injection beats simultaneous repair");
            assert!(!plan.state_at(29).mc_alive(2));
            assert!(plan.state_at(30).mc_alive(2), "repair boundary is exclusive");
            assert!(!plan.state_at(19).bank_alive(m.node_at(1, 1)));
            assert!(plan.state_at(20).bank_alive(m.node_at(1, 1)), "other components repair on time");
        }
        // Insertion order never changes the evaluated state.
        for c in fwd.change_cycles() {
            assert_eq!(fwd.state_at(c), rev.state_at(c), "divergence at cycle {c}");
            assert_eq!(fwd.state_at(c + 1), rev.state_at(c + 1));
        }
        assert_eq!(fwd.final_state(), rev.final_state());
    }

    #[test]
    fn random_timed_is_deterministic_and_valid() {
        let counts = FaultCounts { links: 2, mcs: 1, banks: 1, ..Default::default() };
        for transient in [false, true] {
            let a = FaultPlan::random_timed(11, mesh(), 4, counts, 100_000, transient);
            let b = FaultPlan::random_timed(11, mesh(), 4, counts, 100_000, transient);
            assert_eq!(a, b);
            assert!(a.validate().is_ok(), "{:?}", a.validate());
            assert!(!a.change_cycles().is_empty());
            assert!(a.events().iter().all(|e| e.inject_at > 0), "mid-run arrivals only");
            if transient {
                assert!(a.events().iter().all(|e| e.repair_at.is_some()));
                assert!(a.final_state().is_clean(), "transient plans fully heal");
            } else {
                assert_eq!(a.final_state().dead_counts(), (2, 0, 1, 1));
            }
        }
        let c = FaultPlan::random_timed(12, mesh(), 4, counts, 100_000, true);
        assert_ne!(FaultPlan::random_timed(11, mesh(), 4, counts, 100_000, true), c);
    }

    #[test]
    fn push_dedupes_exact_and_reverse_duplicates() {
        let m = mesh();
        // Exact duplicate of a non-link component: silently dropped.
        let plan = FaultPlan::new(m, 4).dead_mc(1).dead_mc(1);
        assert_eq!(plan.events().len(), 1);
        assert!(plan.validate().is_ok());
        // A channel and its reverse direction are one wire: the second
        // entry is dropped and the plan stays valid.
        let link = Link { from: m.node_at(2, 2), dir: Direction::East };
        let rev = reverse_link(m, link);
        let plan = FaultPlan::new(m, 4).dead_link(link).dead_link(rev).dead_link(link);
        assert_eq!(plan.events().len(), 1);
        assert!(plan.validate().is_ok());
        assert_eq!(plan.final_state().dead_counts(), (1, 0, 0, 0));
    }

    #[test]
    fn validate_rejects_reverse_link_duplicate_schedules() {
        // Both directions of one wire with different windows slip past the
        // push dedupe (they are not duplicates) but name one component.
        let m = mesh();
        let link = Link { from: m.node_at(1, 1), dir: Direction::South };
        let mut plan = FaultPlan::new(m, 4);
        plan.push(FaultEvent { component: FaultComponent::Link(link), inject_at: 0, repair_at: None })
            .unwrap()
            .push(FaultEvent {
                component: FaultComponent::Link(reverse_link(m, link)),
                inject_at: 7,
                repair_at: None,
            })
            .unwrap();
        assert!(matches!(plan.validate(), Err(LocmapError::FaultConflict(_))));
    }

    #[test]
    fn push_rejects_self_referential_links() {
        // On a 1-wide mesh an East link could only wrap back to its own
        // source: it is not a mesh channel.
        let skinny = Mesh::try_new(1, 4).unwrap();
        let loop_link = Link { from: skinny.node_at(0, 2), dir: Direction::East };
        let mut plan = FaultPlan::new(skinny, 1);
        let err = plan
            .push(FaultEvent { component: FaultComponent::Link(loop_link), inject_at: 0, repair_at: None })
            .unwrap_err();
        assert!(matches!(err, LocmapError::FaultConflict(_)));
        assert!(plan.events().is_empty());
        // Out-of-mesh link sources are also rejected at construction.
        let bad = Link { from: NodeId(99), dir: Direction::East };
        let err = plan
            .push(FaultEvent { component: FaultComponent::Link(bad), inject_at: 0, repair_at: None })
            .unwrap_err();
        assert!(matches!(err, LocmapError::FaultConflict(_)));
    }

    #[test]
    fn push_and_validate_reject_every_link_leaving_an_edge() {
        let m = mesh();
        let edges = (0..6u16).flat_map(|i| {
            [
                Link { from: m.node_at(5, i), dir: Direction::East },
                Link { from: m.node_at(0, i), dir: Direction::West },
                Link { from: m.node_at(i, 0), dir: Direction::North },
                Link { from: m.node_at(i, 5), dir: Direction::South },
            ]
        });
        for link in edges {
            assert!(!link_exists(m, link));
            let event = FaultEvent { component: FaultComponent::Link(link), inject_at: 0, repair_at: None };
            let mut plan = FaultPlan::new(m, 4);
            assert!(matches!(plan.push(event), Err(LocmapError::FaultConflict(_))), "{link:?}");
            assert!(plan.events().is_empty());
            // A plan that bypasses `push` (as deserialization would) fails
            // validation instead.
            let plan = FaultPlan { mesh: m, mc_count: 4, events: vec![event] };
            assert!(matches!(plan.validate(), Err(LocmapError::FaultConflict(_))), "{link:?}");
        }
    }

    #[test]
    #[should_panic(expected = "is not a channel")]
    fn dead_link_panics_on_self_loop() {
        let skinny = Mesh::try_new(4, 1).unwrap();
        let loop_link = Link { from: skinny.node_at(1, 0), dir: Direction::North };
        let _ = FaultPlan::new(skinny, 1).dead_link(loop_link);
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let counts = FaultCounts { links: 3, routers: 1, mcs: 2, banks: 2 };
        let a = FaultPlan::random(7, mesh(), 4, counts);
        let b = FaultPlan::random(7, mesh(), 4, counts);
        assert_eq!(a, b);
        let c = FaultPlan::random(8, mesh(), 4, counts);
        assert_ne!(a, c);
        assert!(a.validate().is_ok());
        assert_eq!(a.final_state().dead_counts(), (3, 1, 2, 2));
    }

    #[test]
    fn random_clamps_to_leave_survivors() {
        let plan = FaultPlan::random(1, mesh(), 4, FaultCounts { mcs: 99, ..Default::default() });
        assert!(plan.validate().is_ok());
        assert_eq!(plan.final_state().dead_counts().2, 3, "one of four MCs survives");
    }

    #[test]
    fn effective_state_folds_router_deaths() {
        let m = mesh();
        let node = m.node_at(0, 0);
        let mc_coords = vec![Coord::new(0, 0), Coord::new(5, 5)];
        let state = FaultPlan::new(m, 2).dead_router(node).state_at(0);
        assert!(state.mc_alive(0), "raw state leaves the MC nominally alive");
        let eff = state.effective(&mc_coords);
        assert!(!eff.mc_alive(0), "MC at the dead router must be dead");
        assert!(!eff.bank_alive(node), "bank at the dead router must be dead");
        assert!(eff.mc_alive(1));
    }

    #[test]
    fn mc_redirects_pick_nearest_survivor() {
        let m = mesh();
        let mc_coords =
            vec![Coord::new(0, 0), Coord::new(5, 0), Coord::new(0, 5), Coord::new(5, 5)];
        let state = FaultPlan::new(m, 4).dead_mc(0).state_at(0);
        let r = state.mc_redirects(&mc_coords).unwrap();
        // MC0 at (0,0): MC1 and MC2 are both 5 hops away; tie goes low.
        assert_eq!(r, vec![1, 1, 2, 3]);
    }

    #[test]
    fn bank_redirects_pick_nearest_survivor() {
        let m = mesh();
        let node = m.node_at(0, 0);
        let state = FaultPlan::new(m, 4).dead_bank(node).state_at(0);
        let r = state.bank_redirects().unwrap();
        // Nearest alive banks to (0,0) are n1 (east) and n6 (south); tie low.
        assert_eq!(r[0], 1);
        assert_eq!(r[1], 1);
    }

    #[test]
    fn reachable_from_is_the_connected_component() {
        let m = Mesh::try_new(3, 1).unwrap();
        let cut = Link { from: m.node_at(0, 0), dir: Direction::East };
        let state = FaultPlan::new(m, 1).dead_link(cut).dead_router(m.node_at(2, 0)).state_at(0);
        assert_eq!(state.reachable_from(m.node_at(0, 0)), vec![true, false, false]);
        assert_eq!(state.reachable_from(m.node_at(1, 0)), vec![false, true, false]);
        // A dead router reaches nothing, not even itself.
        assert_eq!(state.reachable_from(m.node_at(2, 0)), vec![false; 3]);
    }

    #[test]
    fn connectivity_detects_partitions() {
        let m = Mesh::try_new(2, 1).unwrap();
        let cut = Link { from: m.node_at(0, 0), dir: Direction::East };
        let state = FaultPlan::new(m, 1).dead_link(cut).state_at(0);
        assert!(matches!(state.check_connected(), Err(LocmapError::Unreachable { .. })));
        assert!(FaultState::none(m, 1).check_connected().is_ok());
        assert!(FaultState::none(mesh(), 4).check_connected().is_ok());
    }

    #[test]
    fn connectivity_ignores_dead_routers() {
        // Killing a corner router disconnects nothing else.
        let m = mesh();
        let state = FaultPlan::new(m, 4).dead_router(m.node_at(0, 0)).state_at(0);
        assert!(state.check_connected().is_ok());
    }
}
