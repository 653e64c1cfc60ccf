//! Pass 4: routing and topology verification.
//!
//! [`check_topology`] enumerates the X-Y route between every ordered node
//! pair and proves the dimension-ordered invariant that makes the mesh
//! deadlock-free: all east/west hops precede all north/south hops, the
//! route is contiguous from source to destination, and its length equals
//! the Manhattan distance (no cycles, no detours).
//!
//! [`check_fault_plan`] replays every arm of a [`FaultPlan`] — each state
//! the plan passes through plus its final state — and, per arm, floods the
//! surviving subgraph once per connected component of live routers
//! ([`FaultState::reachable_from`]). A core that can no longer
//! reach any live memory controller or any live LLC bank is stranded:
//! scheduling work there would hang on the first miss, so the verifier
//! names it in a structured diagnostic rather than letting a mapping
//! quietly include it.

use crate::diag::{Code, Diagnostic, DiagnosticSink, Entity};
use locmap_core::Platform;
use locmap_noc::{link_exists, link_target, route_xy, Direction, FaultPlan, FaultState, NodeId};

/// Proves X-Y deadlock-freedom by exhaustive route enumeration.
pub fn check_topology(platform: &Platform, sink: &mut DiagnosticSink) {
    let mesh = platform.mesh;
    for src in mesh.nodes() {
        for dst in mesh.nodes() {
            let route = route_xy(mesh, src, dst);
            let want_len = mesh.coord_of(src).manhattan(mesh.coord_of(dst)) as usize;
            if route.len() != want_len {
                sink.emit(
                    Diagnostic::new(
                        Code::XY_ROUTE_INVALID,
                        format!(
                            "route {src}→{dst} has {} hops, Manhattan distance is {want_len}",
                            route.len()
                        ),
                    )
                    .entity(Entity::Core(src)),
                );
                continue;
            }
            let mut at = src;
            let mut seen_y = false;
            let mut ok = true;
            for link in &route {
                if link.from != at || !link_exists(mesh, *link) {
                    sink.emit(
                        Diagnostic::new(
                            Code::XY_ROUTE_INVALID,
                            format!("route {src}→{dst} is not contiguous at {}", link.from),
                        )
                        .entity(Entity::Link(*link)),
                    );
                    ok = false;
                    break;
                }
                match link.dir {
                    Direction::East | Direction::West if seen_y => {
                        sink.emit(
                            Diagnostic::new(
                                Code::XY_ROUTE_INVALID,
                                format!(
                                    "route {src}→{dst} turns back to the X dimension after a \
                                     Y hop — the turn X-Y routing forbids to stay deadlock-free"
                                ),
                            )
                            .entity(Entity::Link(*link)),
                        );
                        ok = false;
                    }
                    Direction::North | Direction::South => seen_y = true,
                    _ => {}
                }
                if !ok {
                    break;
                }
                let c = link_target(mesh, *link);
                at = mesh.node_at(c.x, c.y);
            }
            if ok && at != dst {
                sink.emit(
                    Diagnostic::new(
                        Code::XY_ROUTE_INVALID,
                        format!("route {src}→{dst} ends at {at}"),
                    )
                    .entity(Entity::Core(src)),
                );
            }
        }
    }
}

/// Replays every arm of `plan` and reports stranded cores and isolated
/// regions. Invalid plans (caught by [`FaultPlan::validate`]) are reported
/// as [`Code::FAULT_PLAN_INVALID`] and not replayed.
pub fn check_fault_plan(platform: &Platform, plan: &FaultPlan, sink: &mut DiagnosticSink) {
    if let Err(e) = plan.validate() {
        sink.emit(Diagnostic::new(
            Code::FAULT_PLAN_INVALID,
            format!("fault plan fails validation: {e}"),
        ));
        return;
    }
    let mut cycles = plan.change_cycles();
    cycles.push(u64::MAX); // final state, after every repair/injection
    cycles.dedup();
    for cycle in cycles {
        let state = if cycle == u64::MAX { plan.final_state() } else { plan.state_at(cycle) };
        check_fault_arm(platform, &state, cycle, sink);
    }
}

/// Checks one fault state: every live core must reach a live MC and a
/// live bank over the surviving subgraph. Link faults are symmetric, so
/// every core of a connected component reaches the same nodes: one flood
/// per component decides all of its cores.
fn check_fault_arm(
    platform: &Platform,
    state: &FaultState,
    cycle: u64,
    sink: &mut DiagnosticSink,
) {
    let mesh = platform.mesh;
    let eff = state.effective(&platform.mc_coords);
    let mc_nodes: Vec<NodeId> = platform
        .mc_coords
        .iter()
        .enumerate()
        .filter(|&(k, _)| eff.mc_alive(k))
        .map(|(_, c)| mesh.node_at(c.x, c.y))
        .collect();
    let when = if cycle == u64::MAX {
        "in the final state".to_string()
    } else {
        format!("at cycle {cycle}")
    };

    // Per node, whether its component sees (an MC, a bank); `None` until
    // the component's flood has run.
    let mut sees: Vec<Option<(bool, bool)>> = vec![None; mesh.node_count()];
    let mut region_ok = vec![false; platform.region_count()];
    for core in mesh.nodes() {
        if !eff.router_alive(core) {
            continue;
        }
        let (sees_mc, sees_bank) = match sees[core.index()] {
            Some(verdict) => verdict,
            None => {
                let reach = eff.reachable_from(core);
                let verdict = (
                    mc_nodes.iter().any(|&n| reach[n.index()]),
                    mesh.nodes().any(|n| reach[n.index()] && eff.bank_alive(n)),
                );
                for n in mesh.nodes().filter(|n| reach[n.index()]) {
                    sees[n.index()] = Some(verdict);
                }
                verdict
            }
        };
        if sees_mc && sees_bank {
            region_ok[platform.regions.region_of(core).index()] = true;
            continue;
        }
        let missing = match (sees_mc, sees_bank) {
            (false, false) => "any memory controller or LLC bank",
            (false, true) => "any memory controller",
            (true, false) => "any LLC bank",
            (true, true) => unreachable!(),
        };
        sink.emit(
            Diagnostic::new(
                Code::STRANDED_CORE,
                format!("core {core} cannot reach {missing} {when}"),
            )
            .entity(Entity::Core(core))
            .suggest("exclude the core from scheduling or repair the partitioning faults"),
        );
    }
    for r in platform.regions.regions() {
        if !region_ok[r.index()] {
            sink.emit(
                Diagnostic::new(
                    Code::REGION_ISOLATED,
                    format!(
                        "region R{} has no core that can reach memory {when}; the degraded \
                         mapper will evacuate it entirely",
                        r.index() + 1
                    ),
                )
                .entity(Entity::Region(r)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VerifyConfig;
    use locmap_noc::Mesh;

    fn clean_sink() -> DiagnosticSink {
        DiagnosticSink::with_overrides(&VerifyConfig::default().overrides)
    }

    #[test]
    fn paper_topology_routes_are_deadlock_free() {
        let mut sink = clean_sink();
        check_topology(&Platform::paper_default(), &mut sink);
        assert!(sink.diagnostics().is_empty(), "{}", sink.report());
    }

    #[test]
    fn small_meshes_route_deadlock_free() {
        use locmap_mem::{AddrMap, AddrMapConfig};
        use locmap_noc::{McPlacement, RegionGrid};
        for (w, h) in [(1u16, 4u16), (4, 1), (2, 2), (3, 6)] {
            let mesh = Mesh::try_new(w, h).unwrap();
            let p = Platform {
                mesh,
                regions: RegionGrid::try_new(mesh, 1, 1).unwrap(),
                mc_coords: McPlacement::Corners.coords(mesh),
                addr_map: AddrMap::new(AddrMapConfig::paper_default(mesh.node_count() as u16)),
                llc: locmap_core::LlcOrg::SharedSNuca,
            };
            let mut sink = clean_sink();
            check_topology(&p, &mut sink);
            assert!(sink.diagnostics().is_empty(), "{w}x{h}: {}", sink.report());
        }
    }

    #[test]
    fn clean_plan_has_no_stranded_cores() {
        let p = Platform::paper_default();
        let plan = FaultPlan::new(p.mesh, p.mc_count());
        let mut sink = clean_sink();
        check_fault_plan(&p, &plan, &mut sink);
        assert!(sink.diagnostics().is_empty(), "{}", sink.report());
    }

    #[test]
    fn cut_off_core_is_stranded() {
        // Node (2, 0) hosts no MC; cutting its three links leaves its core
        // alive with a local bank but no path to any memory controller.
        let p = Platform::paper_default();
        let node = p.mesh.node_at(2, 0);
        let plan = FaultPlan::new(p.mesh, p.mc_count())
            .dead_link(locmap_noc::Link { from: node, dir: Direction::East })
            .dead_link(locmap_noc::Link { from: node, dir: Direction::West })
            .dead_link(locmap_noc::Link { from: node, dir: Direction::South });
        let mut sink = clean_sink();
        check_fault_plan(&p, &plan, &mut sink);
        assert!(sink.has(Code::STRANDED_CORE), "{}", sink.report());
        let named = sink
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::STRANDED_CORE && d.message.contains(&format!("{node}")));
        assert!(named, "{}", sink.report());
    }

    #[test]
    fn fault_arm_diagnostics_are_pinned() {
        // Three separate stranded components — a core with a bank but no
        // MC, a two-core island with neither, a corner core with its MC
        // but no bank — plus region R3 with every router dead. The first
        // island is repaired at cycle 100, so the arms differ.
        let p = Platform::paper_default();
        let m = p.mesh;
        let link = |x, y, dir| locmap_noc::Link { from: m.node_at(x, y), dir };
        let mut plan = FaultPlan::new(m, p.mc_count());
        for dir in [Direction::East, Direction::West, Direction::South] {
            plan.push(locmap_noc::FaultEvent {
                component: locmap_noc::FaultComponent::Link(link(2, 0, dir)),
                inject_at: 0,
                repair_at: Some(100),
            })
            .unwrap();
        }
        let mut plan = plan
            .dead_link(link(2, 3, Direction::West))
            .dead_link(link(2, 3, Direction::North))
            .dead_link(link(2, 3, Direction::South))
            .dead_link(link(3, 3, Direction::East))
            .dead_link(link(3, 3, Direction::North))
            .dead_link(link(3, 3, Direction::South))
            .dead_bank(m.node_at(2, 3))
            .dead_bank(m.node_at(3, 3))
            .dead_link(link(0, 5, Direction::North))
            .dead_link(link(0, 5, Direction::East))
            .dead_bank(m.node_at(0, 5));
        for n in p.regions.nodes_in(locmap_noc::RegionId(2)) {
            plan = plan.dead_router(n);
        }
        let mut sink = clean_sink();
        check_fault_plan(&p, &plan, &mut sink);
        let got: Vec<(Code, String)> =
            sink.diagnostics().iter().map(|d| (d.code, d.message.clone())).collect();
        // Per arm: cores in node order, then regions.
        let mut want = Vec::new();
        for when in ["at cycle 0", "at cycle 100", "in the final state"] {
            let stranded = |core, missing| {
                (Code::STRANDED_CORE, format!("core {core} cannot reach {missing} {when}"))
            };
            if when == "at cycle 0" {
                want.push(stranded("n2", "any memory controller"));
            }
            want.push(stranded("n20", "any memory controller or LLC bank"));
            want.push(stranded("n21", "any memory controller or LLC bank"));
            want.push(stranded("n30", "any LLC bank"));
            want.push((
                Code::REGION_ISOLATED,
                format!(
                    "region R3 has no core that can reach memory {when}; the degraded mapper \
                     will evacuate it entirely"
                ),
            ));
        }
        assert_eq!(got, want, "{}", sink.report());
    }

    #[test]
    fn invalid_plan_is_reported_not_replayed() {
        let p = Platform::paper_default();
        // All MCs dead fails validation.
        let mut plan = FaultPlan::new(p.mesh, p.mc_count());
        for k in 0..p.mc_count() {
            plan = plan.dead_mc(k);
        }
        let mut sink = clean_sink();
        check_fault_plan(&p, &plan, &mut sink);
        assert!(sink.has(Code::FAULT_PLAN_INVALID), "{}", sink.report());
    }

    #[test]
    fn isolating_a_region_warns_without_denying() {
        // Kill every router in region 0: no live core remains there, so the
        // region is isolated — a warning, because the degraded mapper
        // evacuates it — and nothing is stranded (dead cores don't count).
        let p = Platform::paper_default();
        let r0 = p.regions.regions().next().unwrap();
        let mut plan = FaultPlan::new(p.mesh, p.mc_count());
        for n in p.regions.nodes_in(r0) {
            plan = plan.dead_router(n);
        }
        let mut sink = clean_sink();
        check_fault_plan(&p, &plan, &mut sink);
        assert!(sink.has(Code::REGION_ISOLATED), "{}", sink.report());
        assert_eq!(sink.deny_count(), 0, "{}", sink.report());
    }
}
