//! Property-based invariants across crates, driven by proptest.

use locmap_core::prelude::*;
use locmap_core::{
    assign_private, balance_regions, place_in_regions, AffinityVec, Cac, EtaMetric, Mac,
    PlacementPolicy,
};
use locmap_noc::{
    link_exists, link_target, reverse_link, route, route_xy, Direction, FaultCounts, Link,
    MessageKind, Network, NocConfig, RouteError,
};
use proptest::prelude::*;

fn arb_mesh() -> impl Strategy<Value = Mesh> {
    (2u16..=9, 2u16..=9).prop_map(|(w, h)| Mesh::try_new(w, h).unwrap())
}

fn arb_affinity(m: usize) -> impl Strategy<Value = AffinityVec> {
    proptest::collection::vec(0.0f64..1.0, m).prop_map(|v| AffinityVec::from(v).normalized())
}

proptest! {
    #[test]
    fn route_length_is_manhattan(mesh in arb_mesh(), a in 0u16..81, b in 0u16..81) {
        let n = mesh.node_count() as u16;
        let (a, b) = (NodeId(a % n), NodeId(b % n));
        prop_assert_eq!(route_xy(mesh, a, b).len() as u32, mesh.distance(a, b));
    }

    #[test]
    fn network_send_at_least_zero_load(
        mesh in arb_mesh(),
        pairs in proptest::collection::vec((0u16..81, 0u16..81, 0u64..5000), 1..40)
    ) {
        let mut net = Network::new(NocConfig::default(), mesh);
        let n = mesh.node_count() as u16;
        for (a, b, t) in pairs {
            let (a, b) = (NodeId(a % n), NodeId(b % n));
            let kind = MessageKind::llc_response64();
            let zl = net.zero_load_latency(a, b, kind);
            let arrival = net.send(t, a, b, kind);
            prop_assert!(arrival - t >= zl, "latency below zero-load");
        }
    }

    #[test]
    fn eta_is_a_bounded_metric(a in arb_affinity(9), b in arb_affinity(9)) {
        let d = a.eta(&b);
        prop_assert!(d >= 0.0);
        // Normalized 9-vectors differ by at most 2 in L1 → eta ≤ 2/9.
        prop_assert!(d <= 2.0 / 9.0 + 1e-12);
        prop_assert!((a.eta(&b) - b.eta(&a)).abs() < 1e-12, "symmetry");
        prop_assert!(a.eta(&a) < 1e-12, "identity");
    }

    #[test]
    fn eta_triangle_inequality(
        a in arb_affinity(4),
        b in arb_affinity(4),
        c in arb_affinity(4)
    ) {
        prop_assert!(a.eta(&c) <= a.eta(&b) + b.eta(&c) + 1e-12);
    }

    #[test]
    fn assignment_always_picks_a_minimum(mai in proptest::collection::vec(arb_affinity(4), 1..20)) {
        let platform = Platform::paper_default();
        let mac = Mac::compute(&platform, &FaultState::none(platform.mesh, platform.mc_count())).unwrap();
        let picks = assign_private(&mai, &mac, EtaMetric::L1);
        for (v, r) in mai.iter().zip(&picks) {
            let chosen = v.eta(mac.of(*r));
            for alt in 0..9u16 {
                prop_assert!(chosen <= v.eta(mac.of(RegionId(alt))) + 1e-12);
            }
        }
    }

    #[test]
    fn balancing_preserves_sets_and_bounds_loads(
        seed_regions in proptest::collection::vec(0u16..9, 1..200)
    ) {
        let grid = RegionGrid::paper_default(Mesh::try_new(6, 6).unwrap());
        let mut assignment: Vec<RegionId> = seed_regions.iter().map(|&r| RegionId(r)).collect();
        let before = assignment.len();
        balance_regions(&mut assignment, &grid, &|_, _| 0.0);
        prop_assert_eq!(assignment.len(), before);
        let mut loads = vec![0usize; 9];
        for r in &assignment {
            loads[r.index()] += 1;
        }
        let lo = before / 9;
        let hi = lo + usize::from(!before.is_multiple_of(9));
        prop_assert!(loads.iter().all(|&c| c <= hi.max(1)), "loads {:?} exceed {}", loads, hi);
    }

    #[test]
    fn placement_respects_regions_and_balance(
        seed_regions in proptest::collection::vec(0u16..9, 1..150),
        seed in 0u64..1000
    ) {
        let grid = RegionGrid::paper_default(Mesh::try_new(6, 6).unwrap());
        let assignment: Vec<RegionId> = seed_regions.iter().map(|&r| RegionId(r)).collect();
        let placement = place_in_regions(&assignment, &grid, PlacementPolicy::Random { seed });
        for (s, core) in placement.iter().enumerate() {
            prop_assert_eq!(grid.region_of(*core), assignment[s]);
        }
        // Within every region, per-core loads differ by at most 1.
        for r in grid.regions() {
            let cores = grid.nodes_in(r);
            let loads: Vec<usize> = cores
                .iter()
                .map(|&c| placement.iter().filter(|&&p| p == c).count())
                .collect();
            let max = loads.iter().max().copied().unwrap_or(0);
            let min = loads.iter().min().copied().unwrap_or(0);
            prop_assert!(max - min <= 1, "region {} loads {:?}", r, loads);
        }
    }

    #[test]
    fn mac_cac_masses_are_unit(cols in 1u16..=6, rows in 1u16..=6) {
        let mesh = Mesh::try_new(6, 6).unwrap();
        let mut platform = Platform::paper_default();
        platform.regions = RegionGrid::try_new(mesh, cols, rows).unwrap();
        let healthy = FaultState::none(platform.mesh, platform.mc_count());
        let mac = Mac::compute(&platform, &healthy).unwrap();
        let cac = Cac::compute(&platform, &healthy).unwrap();
        for v in mac.vectors() {
            prop_assert!((v.mass() - 1.0).abs() < 1e-9);
        }
        for v in cac.vectors() {
            prop_assert!((v.mass() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn faulty_routing_delivers_or_says_unreachable(
        mesh in arb_mesh(),
        seed in 0u64..10_000,
        links in 0usize..6,
        routers in 0usize..4,
        a in 0u16..81,
        b in 0u16..81,
    ) {
        let n = mesh.node_count() as u16;
        let (src, dst) = (NodeId(a % n), NodeId(b % n));
        let counts = FaultCounts { links, routers, ..FaultCounts::default() };
        let state = FaultPlan::random(seed, mesh, 4, counts).final_state();
        match route(mesh, &state, src, dst) {
            Ok(path) => {
                // The route is contiguous from src over mesh channels, ends
                // exactly at dst (never a wrong node), and every traversed
                // link and entered router is alive.
                let mut cur = src;
                for l in &path {
                    prop_assert_eq!(l.from, cur, "route not contiguous");
                    prop_assert!(link_exists(mesh, *l), "route leaves the mesh at {:?}", l);
                    prop_assert!(state.link_alive(*l), "route uses dead link");
                    let t = link_target(mesh, *l);
                    cur = mesh.node_at(t.x, t.y);
                    prop_assert!(state.router_alive(cur), "route enters dead router");
                }
                prop_assert_eq!(cur, dst, "route delivered to the wrong node");
            }
            Err(RouteError::Unreachable { from, to }) => {
                prop_assert_eq!(from, src);
                prop_assert_eq!(to, dst);
            }
        }
    }

    #[test]
    fn reverse_link_is_an_involution_on_mesh_channels(mesh in arb_mesh()) {
        for from in mesh.nodes() {
            for dir in [Direction::East, Direction::West, Direction::North, Direction::South] {
                let link = Link { from, dir };
                if !link_exists(mesh, link) {
                    continue;
                }
                let rev = reverse_link(mesh, link);
                prop_assert!(link_exists(mesh, rev), "{:?} reverses off the mesh", link);
                let t = link_target(mesh, link);
                prop_assert_eq!(rev.from, mesh.node_at(t.x, t.y));
                prop_assert_eq!(reverse_link(mesh, rev), link);
            }
        }
    }

    // One flood proves strong connectivity only because a link fault kills
    // both directions of its channel; this pins that invariant for every
    // state a random or timed plan passes through, and checks the flood's
    // verdict against routing between every pair of alive routers.
    #[test]
    fn link_faults_are_symmetric_and_connectivity_matches_routing(
        w in 2u16..=6,
        h in 2u16..=6,
        seed in 0u64..10_000,
        links in 0usize..=4,
        routers in 0usize..3,
        transient in 0u8..2,
    ) {
        let mesh = Mesh::try_new(w, h).unwrap();
        let counts = FaultCounts { links, routers, ..FaultCounts::default() };
        let timed = FaultPlan::random_timed(seed, mesh, 4, counts, 100_000, transient == 1);
        let mut states = vec![FaultPlan::random(seed, mesh, 4, counts).final_state()];
        states.extend(timed.change_cycles().into_iter().map(|c| timed.state_at(c)));
        for state in &states {
            for from in mesh.nodes() {
                for dir in [Direction::East, Direction::West, Direction::North, Direction::South] {
                    let link = Link { from, dir };
                    if link_exists(mesh, link) {
                        let rev = reverse_link(mesh, link);
                        prop_assert_eq!(state.link_alive(link), state.link_alive(rev), "{:?}", link);
                    }
                }
            }
            let alive: Vec<NodeId> = mesh.nodes().filter(|&n| state.router_alive(n)).collect();
            let all_route = alive
                .iter()
                .all(|&a| alive.iter().all(|&b| route(mesh, state, a, b).is_ok()));
            prop_assert_eq!(state.check_connected().is_ok(), all_route, "{:?}", state);
        }
    }

    #[test]
    fn faulted_simulation_is_bit_for_bit_deterministic(seed in 0u64..2_000) {
        use locmap_loopir::{Access, AffineExpr, DataEnv, LoopNest, Program};
        use locmap_sim::Simulator;

        let platform = Platform::paper_default();
        let counts = FaultCounts { links: 2, banks: 1, ..FaultCounts::default() };
        let state = FaultPlan::random(seed, platform.mesh, platform.mc_coords.len(), counts)
            .final_state();

        let mut p = Program::new("det");
        let elems = 4096u64;
        let arr = p.add_array("A", 8, elems);
        let mut nest = LoopNest::rectangular("n", &[(elems / 8) as i64]);
        nest.add_ref(arr, AffineExpr::var(0, 8), Access::Read);
        let id = p.add_nest(nest);
        let data = DataEnv::new();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mapping = compiler.default_mapping(&p, id);

        // Two identical constructions must agree completely: both reject
        // the fault state with the same error, or produce identical runs.
        let run = || -> Result<(u64, u64, u64), String> {
            let mut sim = Simulator::builder(platform.clone()).build().unwrap();
            sim.set_faults(&state).map_err(|e| e.to_string())?;
            let r = sim.run(&p, &mapping, &data, None, None).map_err(|e| e.to_string())?;
            Ok((r.cycles, r.network.total_latency, r.network.messages))
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn cache_total_accesses_conserved(lines in proptest::collection::vec(0u64..4096, 1..500)) {
        use locmap_mem::{Access, Cache, CacheConfig};
        let mut c = Cache::new(CacheConfig { size_bytes: 4096, ways: 4, line_bytes: 64 });
        for &l in &lines {
            c.access(l, Access::Read);
        }
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, lines.len() as u64);
        prop_assert!(c.resident_lines() <= 64);
    }
}

proptest! {
    /// The contract the batch engine is allowed to parallelize under: any
    /// worker count produces exactly the mappings a serial
    /// `Compiler::map_nest` loop would and the same responses, `cache_hit`
    /// flags included, and in-flight dedup means every distinct key is
    /// computed exactly once regardless of racing.
    #[test]
    fn batch_mapping_is_worker_count_invariant(
        sizes in proptest::collection::vec(512u64..4096, 1..5),
        repeats in 1usize..4,
        threads in 2usize..6,
    ) {
        let platform = Platform::paper_default();
        let apps: Vec<(Program, NestId)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let mut p = Program::new(format!("app{i}"));
                let a = p.add_array("A", 8, n);
                let b = p.add_array("B", 8, n);
                let mut nest = LoopNest::rectangular("n", &[n as i64]);
                nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
                nest.add_ref(b, AffineExpr::var(0, 1), Access::Read);
                let id = p.add_nest(nest);
                (p, id)
            })
            .collect();
        let data = DataEnv::new();
        let reqs: Vec<MapRequest<'_>> = (0..repeats)
            .flat_map(|_| {
                apps.iter().map(|(p, id)| MapRequest { program: p, nest: *id, data: &data })
            })
            .collect();

        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let serial: Vec<NestMapping> =
            reqs.iter().map(|r| compiler.map_nest(r.program, r.nest, r.data)).collect();

        let one = MappingSession::builder(platform.clone()).threads(1).build().unwrap();
        let many = MappingSession::builder(platform).threads(threads).build().unwrap();
        let out1 = one.map_batch(&reqs);
        let outn = many.map_batch(&reqs);

        for ((s, a), b) in serial.iter().zip(&out1).zip(&outn) {
            prop_assert_eq!(s, &a.mapping, "1-worker session != serial map_nest");
            prop_assert_eq!(a, b, "worker count changed a response");
        }
        for stats in [one.cache_stats().mappings, many.cache_stats().mappings] {
            prop_assert_eq!(stats.hits + stats.misses, reqs.len() as u64);
            prop_assert_eq!(
                stats.misses as usize, stats.entries,
                "each distinct key must be computed exactly once"
            );
        }
    }

    /// Changing the fault state bumps the epoch: cached mappings become
    /// unreachable (the new mapping matches a degraded compiler exactly),
    /// CME estimates survive, and clearing faults restores the fault-free
    /// mapping bit for bit.
    #[test]
    fn fault_epoch_invalidates_mappings_and_spares_estimates(
        elems in 1024u64..4096,
        router in 0u16..36,
    ) {
        let platform = Platform::paper_default();
        let mut p = Program::new("epoch-prop");
        let a = p.add_array("A", 8, elems);
        let b = p.add_array("B", 8, elems);
        let mut nest = LoopNest::rectangular("n", &[elems as i64]);
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
        nest.add_ref(b, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        let data = DataEnv::new();
        let req = [MapRequest { program: &p, nest: id, data: &data }];

        let mut session = MappingSession::builder(platform.clone()).build().unwrap();
        let clean = session.map_batch(&req)[0].mapping.clone();

        let state = FaultPlan::new(platform.mesh, platform.mc_coords.len())
            .dead_router(NodeId(router))
            .final_state();
        // Some routers cannot die without invalidating the platform; the
        // builder refusing them is its own (tested) contract — only live
        // degraded configurations exercise the epoch machinery.
        if session.set_faults(&state).is_ok() {
            prop_assert_eq!(session.epoch(), 1);

            let degraded = session.map_batch(&req);
            prop_assert!(!degraded[0].cache_hit, "epoch bump must invalidate the mapping");
            let dc = Compiler::builder(platform.clone()).faults(&state).build().unwrap();
            prop_assert_eq!(&degraded[0].mapping, &dc.map_nest(&p, id, &data));
            prop_assert_eq!(
                session.cache_stats().cme.hits, 1,
                "the CME estimate must survive the epoch bump"
            );

            session.set_faults(&FaultState::none(platform.mesh, platform.mc_coords.len())).unwrap();
            let back = session.map_batch(&req);
            prop_assert!(!back[0].cache_hit);
            prop_assert_eq!(&back[0].mapping, &clean, "fault-free mapping restored bit for bit");
        }
    }
}

// Totality of the online resilience driver: an arbitrary timed fault
// timeline either drives the run to completion (with every adopted remap
// verifier-gated inside the degradation ladder) or surfaces a typed
// `HealError` — never a panic, never a silently wrong tally.
proptest! {
    #[test]
    fn heal_run_is_total_over_random_timelines(
        seed in 0u64..5_000,
        links in 0usize..=2,
        routers in 0usize..=2,
        mcs in 0usize..=1,
        transient in 0u8..2,
        horizon_pct in 10u64..=150,
    ) {
        use locmap_bench::heal::heal_run;
        use locmap_bench::Experiment;
        use locmap_core::{DegradationLevel, RecoveryAction};
        use locmap_loopir::{Access, AffineExpr, DataEnv, LoopNest, Program};
        use locmap_workloads::{Table3Info, Workload};
        use std::sync::OnceLock;

        fn stream() -> Workload {
            let mut p = Program::new("heal-prop");
            let elems = 1u64 << 14;
            let a = p.add_array("A", 8, elems);
            let mut nest = LoopNest::rectangular("scan", &[(elems / 8) as i64]).work(24);
            nest.add_ref(a, AffineExpr::var(0, 8), Access::Read);
            p.add_nest(nest);
            Workload {
                name: "heal-prop",
                program: p,
                data: DataEnv::new(),
                irregular: false,
                timing_iters: 1,
                table3: Table3Info::default(),
            }
        }

        let w = stream();
        let exp = Experiment::paper_default(LlcOrg::Private);
        static CLEAN: OnceLock<u64> = OnceLock::new();
        let clean = *CLEAN.get_or_init(|| {
            let empty = FaultPlan::new(exp.platform.mesh, exp.platform.mc_coords.len());
            heal_run(&stream(), &exp, &empty).unwrap().result.cycles
        });

        let counts = FaultCounts { links, routers, mcs, ..FaultCounts::default() };
        let plan = locmap_noc::FaultPlan::random_timed(
            seed,
            exp.platform.mesh,
            exp.platform.mc_coords.len(),
            counts,
            clean * horizon_pct / 100,
            transient == 1,
        );
        prop_assert!(plan.validate().is_ok(), "random_timed must self-validate");

        match heal_run(&w, &exp, &plan) {
            Ok(out) => {
                let s = &out.summary;
                prop_assert!(out.result.cycles > 0);
                prop_assert_eq!(out.result.resilience.as_ref(), Some(s));
                prop_assert!(s.recovery_overhead_cycles >= s.migration_cost_cycles);
                prop_assert!(s.transient_retries <= s.faults_seen);
                prop_assert!(s.remaps <= s.faults_seen);
                let remap_events = out
                    .trace
                    .iter()
                    .filter(|e| e.action == RecoveryAction::Remapped)
                    .count();
                prop_assert_eq!(remap_events as u32, s.remaps, "trace disagrees with tally");
                if s.faults_seen == 0 {
                    prop_assert!(out.trace.is_empty());
                    prop_assert_eq!(s.degradation, DegradationLevel::None);
                    prop_assert_eq!(out.result.cycles, clean, "fault-free heal must match clean run");
                } else {
                    prop_assert!(out.result.cycles >= clean, "recovery cannot beat the clean run");
                    prop_assert!(s.mttr_cycles > 0.0);
                }
            }
            // Typed degradation verdicts are an acceptable outcome for a
            // hostile timeline; formatting them must not panic either.
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}

// Cooperative cancellation extends the PR 2 serial-equivalence contract:
// a batch under a CancelToken/Budget either returns the bit-identical
// result of the uncancelled run or a typed abort — never a divergent
// mapping, and never a poisoned memo cache.
proptest! {
    #[test]
    fn cancelled_batch_is_all_or_typed_abort(
        sizes in proptest::collection::vec(512u64..4096, 1..4),
        repeats in 1usize..3,
        threads in 1usize..4,
        cancel_after in 0u64..40,
        use_budget in 0u8..2,
        budget_units in 1u64..20_000,
    ) {
        use locmap_noc::LocmapError;

        let platform = Platform::paper_default();
        let apps: Vec<(Program, NestId)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let mut p = Program::new(format!("cx{i}"));
                let a = p.add_array("A", 8, n);
                let b = p.add_array("B", 8, n);
                let mut nest = LoopNest::rectangular("n", &[n as i64]);
                nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
                nest.add_ref(b, AffineExpr::var(0, 1), Access::Read);
                let id = p.add_nest(nest);
                (p, id)
            })
            .collect();
        let data = DataEnv::new();
        let reqs: Vec<MapRequest<'_>> = (0..repeats)
            .flat_map(|_| {
                apps.iter().map(|(p, id)| MapRequest { program: p, nest: *id, data: &data })
            })
            .collect();

        let reference = MappingSession::builder(platform.clone()).threads(1).build().unwrap();
        let expected = reference.map_batch(&reqs);

        let session =
            MappingSession::builder(platform.clone()).threads(threads).build().unwrap();
        let ctl = if use_budget == 1 {
            RunControl::new(CancelToken::new(), Budget::unlimited().with_work_units(budget_units))
        } else {
            RunControl::new(CancelToken::cancel_after_polls(cancel_after), Budget::unlimited())
        };

        match session.map_batch_ctl(&reqs, &ctl) {
            Ok(out) => {
                // An uninterrupted run must be bit-identical to the
                // uncancelled serial reference — no third outcome.
                for (e, o) in expected.iter().zip(&out) {
                    prop_assert_eq!(e, o, "abort machinery changed a response");
                }
            }
            Err(LocmapError::Cancelled { completed, total }) => {
                prop_assert_eq!(use_budget, 0, "a budget abort must not report Cancelled");
                prop_assert!(completed <= total, "progress {completed}/{total} overflows");
            }
            Err(LocmapError::DeadlineExceeded { spent_units, .. }) => {
                prop_assert_eq!(use_budget, 1, "a token abort must not report DeadlineExceeded");
                prop_assert!(
                    spent_units >= budget_units,
                    "abort before the budget was exhausted"
                );
            }
            Err(e) => prop_assert!(false, "unexpected error variant: {e}"),
        }

        // Whatever happened, the memo caches are never poisoned: an
        // unlimited retry on the same session matches the reference
        // bit for bit.
        let retry = session.map_batch(&reqs);
        for (e, o) in expected.iter().zip(&retry) {
            prop_assert_eq!(&e.mapping, &o.mapping, "abort poisoned a memo cache");
        }
    }
}

// Soundness of the static verifier (locmap-verify): the verifier accepts
// everything the compiler produces, and rejects targeted corruptions with
// the exact documented diagnostic code.
proptest! {
    #[test]
    fn verifier_accepts_every_compiler_mapping(
        elems in 512u64..4096,
        shared in 0u8..2,
        fault_seed in 0u64..500,
        faulty in 0u8..2,
    ) {
        use locmap_verify::{VerifyConfig, VerifyMapping};

        let llc = if shared == 1 { LlcOrg::SharedSNuca } else { LlcOrg::Private };
        let platform = Platform::paper_default_with(llc);
        let mut p = Program::new("verify-prop");
        let a = p.add_array("A", 8, elems);
        let b = p.add_array("B", 8, elems);
        let mut nest = LoopNest::rectangular("n", &[elems as i64]);
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
        nest.add_ref(b, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        let data = DataEnv::new();

        let builder = Compiler::builder(platform.clone());
        let compiler = if faulty == 1 {
            let counts = FaultCounts { links: 1, routers: 1, mcs: 1, ..FaultCounts::default() };
            let state = FaultPlan::random(fault_seed, platform.mesh, platform.mc_coords.len(), counts)
                .final_state();
            match Compiler::builder(platform.clone()).faults(&state).build() {
                Ok(c) => c,
                // Some random fault states invalidate the platform outright
                // (e.g. no alive region); the builder rejecting them is its
                // own tested contract.
                Err(_) => builder.build().unwrap(),
            }
        } else {
            builder.build().unwrap()
        };
        let mapping = compiler.map_nest(&p, id, &data);
        let sink = compiler.verify_mapping(&p, id, &data, &mapping, &VerifyConfig::default());
        prop_assert!(sink.diagnostics().is_empty(), "verifier rejected a compiler mapping:\n{}", sink.report());
    }

    #[test]
    fn verifier_rejects_targeted_corruptions(
        elems in 1024u64..4096,
        pick in 0usize..1000,
        kind in 0u8..3,
    ) {
        use locmap_verify::{Code, VerifyConfig, VerifyMapping};

        // Private LLC: the mapping cost is purely MAI-based, so the
        // "worst region" probe below is exact.
        let platform = Platform::paper_default_with(LlcOrg::Private);
        let mut p = Program::new("corrupt-prop");
        let a = p.add_array("A", 8, elems);
        let mut nest = LoopNest::rectangular("n", &[elems as i64]);
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
        let id = p.add_nest(nest);
        let data = DataEnv::new();
        let compiler = Compiler::builder(platform).build().unwrap();
        let mut mapping = compiler.map_nest(&p, id, &data);
        let k = pick % mapping.sets.len();
        let cfg = VerifyConfig::default();

        match kind {
            0 => {
                // Dropping a set leaves its iterations uncovered.
                mapping.sets.remove(k);
                mapping.regions.remove(k);
                mapping.assignment.remove(k);
                let sink = compiler.verify_mapping(&p, id, &data, &mapping, &cfg);
                prop_assert!(sink.has(Code::COVERAGE_GAP), "{}", sink.report());
                prop_assert!(!sink.is_clean());
            }
            1 => {
                // Duplicating a set double-assigns its iterations.
                let dup = mapping.sets[k];
                mapping.sets.insert(k + 1, dup);
                mapping.regions.insert(k + 1, mapping.regions[k]);
                mapping.assignment.insert(k + 1, mapping.assignment[k]);
                let sink = compiler.verify_mapping(&p, id, &data, &mapping, &cfg);
                prop_assert!(sink.has(Code::SET_OVERLAP), "{}", sink.report());
                prop_assert!(!sink.is_clean());
            }
            _ => {
                // Moving a set to its worst region breaks the η argmin.
                let eta = compiler.options().eta;
                let mai_n = mapping.mai[k].clone().normalized();
                let worst = compiler
                    .platform()
                    .regions
                    .regions()
                    .max_by(|&x, &y| {
                        mai_n.eta_with(compiler.mac().of(x), eta)
                            .total_cmp(&mai_n.eta_with(compiler.mac().of(y), eta))
                    })
                    .unwrap();
                let best_eta = compiler
                    .platform()
                    .regions
                    .regions()
                    .map(|r| mai_n.eta_with(compiler.mac().of(r), eta))
                    .fold(f64::INFINITY, f64::min);
                // Only a strictly worse region constitutes a corruption;
                // flat affinity vectors can tie across all regions.
                let original = mapping.clone();
                if mai_n.eta_with(compiler.mac().of(worst), eta) > best_eta + 1e-9
                    && mapping.regions[k] != worst
                {
                    mapping.regions[k] = worst;
                    mapping.assignment[k] = compiler.platform().regions.nodes_in(worst)[0];
                    prop_assert!(mapping.regions != original.regions);
                    let sink = compiler.verify_mapping(&p, id, &data, &mapping, &cfg);
                    prop_assert!(
                        sink.has(Code::ETA_NOT_MINIMAL) || sink.has(Code::STALE_MAPPING),
                        "{}", sink.report()
                    );
                    prop_assert!(!sink.is_clean());
                }
            }
        }
    }
}
