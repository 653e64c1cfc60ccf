//! Pass 3: mapping verification.
//!
//! Checks that a [`NestMapping`] is a *valid* answer for its nest — every
//! iteration assigned to exactly one live region, load within the
//! balancer's tolerance — and that it is the answer *this* compiler would
//! produce: the stored raw MAI/CAI vectors are normalized and re-run
//! through the assignment, evacuation, balancing and placement stages,
//! independently re-implemented here where cheap and re-invoked where the
//! stage is stochastic-but-seeded, and compared against what the mapping
//! actually holds. A memoized mapping served across a fault-epoch bump,
//! or a hand-edited schedule, diverges and is reported as stale.

use crate::config::EPSILON;
use crate::diag::{Code, Diagnostic, DiagnosticSink, Entity};
use locmap_core::{
    assign_private, assign_shared, balance_regions_masked, place_in_regions_masked, region_loads,
    AffinityVec, Compiler, LlcOrg, NestMapping,
};
use locmap_loopir::{IterationSet, NestId, Program};
use locmap_noc::RegionId;

/// Verifies `mapping` against the nest it claims to schedule and the
/// compiler that claims to have produced it.
pub fn check_mapping(
    compiler: &Compiler,
    program: &Program,
    nest_id: NestId,
    mapping: &NestMapping,
    sink: &mut DiagnosticSink,
) {
    let p = compiler.platform();
    let options = compiler.options();
    let nsets = mapping.sets.len();

    // (a) Shape: the three per-set tables must agree in length; nothing
    // downstream is meaningful otherwise.
    if mapping.regions.len() != nsets || mapping.assignment.len() != nsets {
        sink.emit(Diagnostic::new(
            Code::SHAPE_MISMATCH,
            format!(
                "mapping tables disagree: {nsets} sets, {} regions, {} cores",
                mapping.regions.len(),
                mapping.assignment.len()
            ),
        ));
        return;
    }

    // (b) The sets must partition the iteration space: dense ids,
    // contiguous [start, end) runs, covering [0, len) exactly once.
    let count = program.nest(nest_id).iteration_count(&program.params()) as usize;
    let mut prev_end = 0usize;
    let mut partition_ok = true;
    for (i, s) in mapping.sets.iter().enumerate() {
        if s.id != i {
            sink.emit(
                Diagnostic::new(
                    Code::SHAPE_MISMATCH,
                    format!("set at position {i} carries id {}", s.id),
                )
                .entity(Entity::Set(i)),
            );
            partition_ok = false;
        }
        if s.start > prev_end {
            sink.emit(
                Diagnostic::new(
                    Code::COVERAGE_GAP,
                    format!(
                        "iterations [{prev_end}, {}) are assigned to no set before set {i}",
                        s.start
                    ),
                )
                .entity(Entity::Set(i)),
            );
            partition_ok = false;
        } else if s.start < prev_end {
            sink.emit(
                Diagnostic::new(
                    Code::SET_OVERLAP,
                    format!(
                        "set {i} starts at iteration {} but iterations up to {prev_end} are \
                         already covered",
                        s.start
                    ),
                )
                .entity(Entity::Set(i)),
            );
            partition_ok = false;
        }
        if s.end < s.start {
            sink.emit(
                Diagnostic::new(
                    Code::SHAPE_MISMATCH,
                    format!("set {i} is inverted: [{}, {})", s.start, s.end),
                )
                .entity(Entity::Set(i)),
            );
            partition_ok = false;
        }
        prev_end = prev_end.max(s.end);
    }
    match prev_end.cmp(&count) {
        std::cmp::Ordering::Less => {
            sink.emit(Diagnostic::new(
                Code::COVERAGE_GAP,
                format!(
                    "iterations [{prev_end}, {count}) at the tail of the space are assigned to no \
                     set"
                ),
            ));
            partition_ok = false;
        }
        std::cmp::Ordering::Greater => {
            sink.emit(Diagnostic::new(
                Code::SHAPE_MISMATCH,
                format!("sets cover {prev_end} iterations but the space has {count}"),
            ));
            partition_ok = false;
        }
        std::cmp::Ordering::Equal => {}
    }

    // (c) The tiling must be the one this compiler's options produce —
    // a structurally fine partition with the wrong grain means the
    // mapping was computed under different options (stale memo entry).
    if partition_ok
        && mapping.sets != IterationSet::split_count(count, options.iteration_set_fraction)
    {
        sink.emit(
            Diagnostic::new(
                Code::STALE_MAPPING,
                "iteration sets do not match this compiler's tiling options".to_string(),
            )
            .suggest("the mapping was produced under different options; remap the nest"),
        );
    }

    // Liveness tables recomputed from the compiler's fault state.
    let nregions = p.region_count();
    let (alive_cores, alive_regions) = liveness(compiler);

    // (d) Every set lands in a live region on a live core of that region.
    for (i, (&r, &core)) in mapping.regions.iter().zip(&mapping.assignment).enumerate() {
        if r.index() >= nregions {
            sink.emit(
                Diagnostic::new(
                    Code::SHAPE_MISMATCH,
                    format!("set {i} is assigned to nonexistent region {}", r.index()),
                )
                .entity(Entity::Set(i)),
            );
            continue;
        }
        if !alive_regions[r.index()] {
            sink.emit(
                Diagnostic::new(
                    Code::DEAD_REGION,
                    format!("set {i} is assigned to region R{} which has no live core", r.index() + 1),
                )
                .entity(Entity::Set(i))
                .suggest("remap against the current fault state"),
            );
        }
        if core.index() >= p.mesh.node_count() {
            sink.emit(
                Diagnostic::new(
                    Code::SHAPE_MISMATCH,
                    format!("set {i} is assigned to nonexistent core {core}"),
                )
                .entity(Entity::Set(i)),
            );
            continue;
        }
        if p.regions.region_of(core) != r {
            sink.emit(
                Diagnostic::new(
                    Code::CORE_REGION_MISMATCH,
                    format!(
                        "set {i} is assigned to core {core} which lies outside its region R{}",
                        r.index() + 1
                    ),
                )
                .entity(Entity::Set(i)),
            );
        } else if !alive_cores[core.index()] {
            sink.emit(
                Diagnostic::new(
                    Code::DEAD_REGION,
                    format!("set {i} is assigned to dead core {core}"),
                )
                .entity(Entity::Core(core))
                .suggest("remap against the current fault state"),
            );
        }
    }
    if !partition_ok {
        return;
    }

    // (e) Inspector-deferred, default (round-robin) and load-shed
    // (locality-heuristic) mappings carry no affinity vectors; the
    // reference schedule is one of the two vector-free deals over
    // surviving cores, reproduced exactly.
    if mapping.needs_inspector || mapping.mai.is_empty() {
        let rr = compiler.round_robin_schedule(nest_id, &mapping.sets);
        let rr_matches = rr.regions == mapping.regions && rr.assignment == mapping.assignment;
        let loc = compiler.locality_schedule(nest_id, &mapping.sets);
        let loc_matches = loc.regions == mapping.regions && loc.assignment == mapping.assignment;
        if !rr_matches && !loc_matches {
            sink.emit(
                Diagnostic::new(
                    Code::STALE_MAPPING,
                    "vector-free mapping diverges from both the round-robin and the \
                     locality-heuristic deals over surviving cores"
                        .to_string(),
                )
                .suggest("remap against the current fault state"),
            );
        }
        return;
    }

    // (f) Per-region load within the balancer's tolerance. The balancer
    // caps every live region at ceil(total / live): donors shed surplus
    // above that ceiling, but a region can legitimately end below the
    // floor when no donor exceeds the ceiling. Any load above the ceiling
    // means balancing did not run (or ran against different liveness).
    if options.balance {
        let live_count = alive_regions.iter().filter(|&&a| a).count().max(1);
        let ceiling = nsets.div_ceil(live_count);
        let loads = region_loads(&mapping.regions, nregions);
        for (r, (&load, &alive)) in loads.iter().zip(&alive_regions).enumerate() {
            if alive && load > ceiling {
                sink.emit(
                    Diagnostic::new(
                        Code::LOAD_IMBALANCE,
                        format!(
                            "region R{} holds {load} sets, above the balancer's ceiling of \
                             {ceiling} ({nsets} sets over {live_count} live regions)",
                            r + 1
                        ),
                    )
                    .entity(Entity::Region(RegionId(r as u16)))
                    .suggest("re-run the balancer or remap the nest"),
                );
            }
        }
    }

    // (g) Independent η reconstruction. Normalize the stored raw vectors,
    // re-run assignment / evacuation / balancing / placement, and demand
    // bit-identical results — placement is seeded, so a clean pipeline
    // reproduces exactly. An argmin audit on the pre-balance assignment
    // separately certifies each set went to a region minimizing its η.
    if mapping.mai.len() != nsets
        || (p.llc == LlcOrg::SharedSNuca
            && (mapping.cai.len() != nsets || mapping.alphas.len() != nsets))
    {
        sink.emit(Diagnostic::new(
            Code::SHAPE_MISMATCH,
            "stored affinity vectors do not cover every iteration set".to_string(),
        ));
        return;
    }
    let mai_n: Vec<AffinityVec> = mapping.mai.iter().map(|v| v.clone().normalized()).collect();
    let cai_n: Vec<AffinityVec> = mapping.cai.iter().map(|v| v.clone().normalized()).collect();
    if mai_n.iter().any(|v| v.len() != p.mc_count())
        || cai_n.iter().any(|v| v.len() != nregions)
    {
        // Already reported by the vector pass; η cannot be recomputed.
        sink.emit(Diagnostic::new(
            Code::VECTOR_SHAPE,
            "stored affinity vectors have the wrong dimension; skipping η audit".to_string(),
        ));
        return;
    }

    let cost = |s: usize, r: RegionId| -> f64 {
        let eta_m = mai_n[s].eta_with(compiler.mac().of(r), options.eta);
        match p.llc {
            LlcOrg::Private => eta_m,
            LlcOrg::SharedSNuca => {
                let eta_c = cai_n[s].eta_with(compiler.cac().of(r), options.eta);
                mapping.alphas[s] * eta_c + (1.0 - mapping.alphas[s]) * eta_m
            }
        }
    };

    let pre = match p.llc {
        LlcOrg::Private => assign_private(&mai_n, compiler.mac(), options.eta),
        LlcOrg::SharedSNuca => assign_shared(
            &mai_n,
            &cai_n,
            compiler.mac(),
            compiler.cac(),
            &mapping.alphas,
            options.eta,
        ),
    };
    // Argmin audit: each pre-balance choice must be no worse than any
    // alternative region under the set's own cost.
    for (s, &r) in pre.iter().enumerate() {
        let c = cost(s, r);
        for q in p.regions.regions() {
            if cost(s, q) < c - EPSILON {
                sink.emit(
                    Diagnostic::new(
                        Code::ETA_NOT_MINIMAL,
                        format!(
                            "set {s} prefers R{} (η = {:.6}) over its assigned R{} (η = {:.6})",
                            q.index() + 1,
                            cost(s, q),
                            r.index() + 1,
                            c
                        ),
                    )
                    .entity(Entity::Set(s)),
                );
                break;
            }
        }
    }

    // Evacuation: dead regions redirect to the nearest live one (ties to
    // the lowest region index), mirroring the degraded compiler.
    let redirect: Vec<RegionId> = p
        .regions
        .regions()
        .map(|r| {
            if alive_regions[r.index()] {
                return r;
            }
            let mut best = r;
            let mut best_dist = f64::INFINITY;
            for q in p.regions.regions() {
                if !alive_regions[q.index()] {
                    continue;
                }
                let d = p.regions.region_distance(r, q);
                if d < best_dist {
                    best_dist = d;
                    best = q;
                }
            }
            best
        })
        .collect();
    let mut rec: Vec<RegionId> = pre.iter().map(|r| redirect[r.index()]).collect();
    if options.balance {
        balance_regions_masked(&mut rec, &p.regions, &cost, &alive_regions);
    }
    let placed = place_in_regions_masked(&rec, &p.regions, options.placement, &alive_cores);

    let diverged = match &placed {
        Ok(placed) => rec != mapping.regions || *placed != mapping.assignment,
        Err(_) => true,
    };
    if diverged {
        // Blame sets whose actual region costs strictly more than the
        // reconstruction's choice — those are genuine η regressions, not
        // balancer tie-reshuffles.
        for (s, &rec_region) in rec.iter().enumerate().take(nsets) {
            if rec_region != mapping.regions[s]
                && cost(s, mapping.regions[s]) > cost(s, rec_region) + EPSILON
            {
                sink.emit(
                    Diagnostic::new(
                        Code::ETA_NOT_MINIMAL,
                        format!(
                            "set {s} sits in R{} (η = {:.6}) where remapping places it in R{} \
                             (η = {:.6})",
                            mapping.regions[s].index() + 1,
                            cost(s, mapping.regions[s]),
                            rec[s].index() + 1,
                            cost(s, rec[s])
                        ),
                    )
                    .entity(Entity::Set(s)),
                );
            }
        }
        sink.emit(
            Diagnostic::new(
                Code::STALE_MAPPING,
                "mapping diverges from an independent recomputation under the current compiler"
                    .to_string(),
            )
            .suggest(
                "clear memoized mappings (or bump the session fault epoch) and remap the nest",
            ),
        );
    }
}

/// Per-core and per-region liveness under the compiler's fault state
/// (all-alive when the compiler is clean).
fn liveness(compiler: &Compiler) -> (Vec<bool>, Vec<bool>) {
    let p = compiler.platform();
    let state = compiler.fault_state();
    let alive_cores: Vec<bool> = p.mesh.nodes().map(|n| state.router_alive(n)).collect();
    let alive_regions: Vec<bool> = p
        .regions
        .regions()
        .map(|r| p.regions.nodes_in(r).iter().any(|&n| alive_cores[n.index()]))
        .collect();
    (alive_cores, alive_regions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmap_core::Platform;
    use locmap_loopir::{Access, AffineExpr, DataEnv, LoopNest};
    use locmap_noc::FaultPlan;

    fn workload() -> (Program, NestId) {
        let mut p = Program::new("w");
        let n = 4096u64;
        let a = p.add_array("A", 8, n);
        let b = p.add_array("B", 8, n);
        let mut nest = LoopNest::rectangular("n", &[n as i64]);
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
        nest.add_ref(b, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        (p, id)
    }

    fn verify(c: &Compiler, p: &Program, id: NestId, m: &NestMapping) -> DiagnosticSink {
        let mut sink = DiagnosticSink::new();
        check_mapping(c, p, id, m, &mut sink);
        sink
    }

    #[test]
    fn compiler_mappings_verify_clean() {
        let (p, id) = workload();
        for llc in [LlcOrg::Private, LlcOrg::SharedSNuca] {
            let c = Compiler::builder(Platform::paper_default_with(llc)).build().unwrap();
            let m = c.map_nest(&p, id, &DataEnv::new());
            let sink = verify(&c, &p, id, &m);
            assert!(sink.is_clean(), "{llc:?}: {}", sink.report());
            assert!(sink.diagnostics().is_empty(), "{llc:?}: {}", sink.report());
        }
    }

    #[test]
    fn degraded_compiler_mappings_verify_clean() {
        let (p, id) = workload();
        let plat = Platform::paper_default();
        let plan = FaultPlan::new(plat.mesh, plat.mc_count())
            .dead_mc(0)
            .dead_router(plat.mesh.node_at(2, 3));
        let c = Compiler::builder(plat).faults(&plan.final_state()).build().unwrap();
        let m = c.map_nest(&p, id, &DataEnv::new());
        let sink = verify(&c, &p, id, &m);
        assert!(sink.diagnostics().is_empty(), "{}", sink.report());
    }

    #[test]
    fn default_mapping_verifies_clean() {
        let (p, id) = workload();
        let c = Compiler::builder(Platform::paper_default()).build().unwrap();
        let m = c.default_mapping(&p, id);
        let sink = verify(&c, &p, id, &m);
        assert!(sink.diagnostics().is_empty(), "{}", sink.report());
    }

    #[test]
    fn dropped_set_is_a_coverage_gap() {
        let (p, id) = workload();
        let c = Compiler::builder(Platform::paper_default()).build().unwrap();
        let mut m = c.map_nest(&p, id, &DataEnv::new());
        let k = m.sets.len() / 2;
        m.sets.remove(k);
        m.regions.remove(k);
        m.assignment.remove(k);
        let sink = verify(&c, &p, id, &m);
        assert!(sink.has(Code::COVERAGE_GAP), "{}", sink.report());
    }

    #[test]
    fn duplicated_set_is_an_overlap() {
        let (p, id) = workload();
        let c = Compiler::builder(Platform::paper_default()).build().unwrap();
        let mut m = c.map_nest(&p, id, &DataEnv::new());
        let dup = m.sets[3];
        m.sets.insert(4, dup);
        m.regions.insert(4, m.regions[3]);
        m.assignment.insert(4, m.assignment[3]);
        let sink = verify(&c, &p, id, &m);
        assert!(sink.has(Code::SET_OVERLAP), "{}", sink.report());
    }

    #[test]
    fn perturbed_assignment_fails_eta_audit() {
        let (p, id) = workload();
        let c = Compiler::builder(Platform::paper_default()).build().unwrap();
        let mut m = c.map_nest(&p, id, &DataEnv::new());
        // Move one set to the region its cost function likes least.
        let worst = c
            .platform()
            .regions
            .regions()
            .max_by(|&a, &b| {
                let ca = m.mai[0].clone().normalized().eta_with(c.mac().of(a), c.options().eta);
                let cb = m.mai[0].clone().normalized().eta_with(c.mac().of(b), c.options().eta);
                ca.partial_cmp(&cb).unwrap()
            })
            .unwrap();
        if m.regions[0] != worst {
            m.regions[0] = worst;
            m.assignment[0] = c.platform().regions.nodes_in(worst)[0];
            let sink = verify(&c, &p, id, &m);
            assert!(
                sink.has(Code::ETA_NOT_MINIMAL) || sink.has(Code::STALE_MAPPING),
                "{}",
                sink.report()
            );
            assert!(!sink.is_clean(), "{}", sink.report());
        }
    }

    #[test]
    fn overloaded_region_is_an_imbalance() {
        let (p, id) = workload();
        let c = Compiler::builder(Platform::paper_default()).build().unwrap();
        let mut m = c.map_nest(&p, id, &DataEnv::new());
        // Pile every set into region 0 — far above the balancer's ceiling.
        let r0 = c.platform().regions.regions().next().unwrap();
        let core = c.platform().regions.nodes_in(r0)[0];
        for s in 0..m.sets.len() {
            m.regions[s] = r0;
            m.assignment[s] = core;
        }
        let sink = verify(&c, &p, id, &m);
        assert!(sink.has(Code::LOAD_IMBALANCE), "{}", sink.report());
    }

    #[test]
    fn mapping_into_dead_region_is_denied() {
        let (p, id) = workload();
        let plat = Platform::paper_default();
        // Kill every router in region 0 so it has no live core.
        let mut plan = FaultPlan::new(plat.mesh, plat.mc_count());
        let region0 = plat.regions.regions().next().unwrap();
        for node in plat.regions.nodes_in(region0) {
            plan = plan.dead_router(node);
        }
        let c = Compiler::builder(plat).faults(&plan.final_state()).build().unwrap();
        // A clean compiler's mapping may land sets in region 0 — verify it
        // against the degraded compiler.
        let clean = Compiler::builder(Platform::paper_default()).build().unwrap();
        let m = clean.map_nest(&p, id, &DataEnv::new());
        if m.regions.contains(&region0) {
            let sink = verify(&c, &p, id, &m);
            assert!(sink.has(Code::DEAD_REGION), "{}", sink.report());
        }
    }

    #[test]
    fn core_outside_region_is_flagged() {
        let (p, id) = workload();
        let c = Compiler::builder(Platform::paper_default()).build().unwrap();
        let mut m = c.map_nest(&p, id, &DataEnv::new());
        // Pick a core from a different region than set 0's.
        let other = c
            .platform()
            .regions
            .regions()
            .find(|&r| r != m.regions[0])
            .unwrap();
        m.assignment[0] = c.platform().regions.nodes_in(other)[0];
        let sink = verify(&c, &p, id, &m);
        assert!(sink.has(Code::CORE_REGION_MISMATCH), "{}", sink.report());
    }

    #[test]
    fn truncated_vectors_are_a_shape_mismatch() {
        let (p, id) = workload();
        let c = Compiler::builder(Platform::paper_default()).build().unwrap();
        let mut m = c.map_nest(&p, id, &DataEnv::new());
        m.mai.pop();
        let sink = verify(&c, &p, id, &m);
        assert!(sink.has(Code::SHAPE_MISMATCH), "{}", sink.report());
    }
}
