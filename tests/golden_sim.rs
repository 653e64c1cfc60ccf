//! Golden simulator digests.
//!
//! All 21 workloads at scale 0.1 are simulated on both LLC organizations.
//! Each line of `tests/golden/sim.txt` is one nest's [`RunResult`]:
//!
//! ```text
//! app llc arm mapping nest cycles digest
//! ```
//!
//! The healthy arm runs every nest under its default mapping on one
//! simulator and under the location-aware `map_nest` on another, so caches
//! stay warm across nests as in the evaluation. The faulted arm uses the
//! seed-3 fault state of `golden_mappings.rs` (a dead router, link, MC and
//! bank): its simulator first runs the workload's first nest healthy under
//! the default mapping, so the dead core's L1 holds lines, then takes the
//! fault (purging that core) and runs every nest under the faulted
//! compiler's `map_nest`, detouring around the dead link and router.
//!
//! The digest is FNV-1a over every field of the result: cycles, all
//! network, L1, L2 and DRAM counters, invalidations, the bit patterns of
//! the measured hit rates and observed MAI/CAI vectors, and the
//! simulator's cumulative link utilization, so any change in what the
//! simulator computes shows up as a changed line.

use locmap_noc::FaultCounts;
use locmap_sim::prelude::*;
use locmap_workloads::{build_all, Scale};

const GOLDEN: &str = include_str!("golden/sim.txt");

/// Seed of the faulted arm's plan (the same as `golden_mappings.rs`).
const FAULT_SEED: u64 = 3;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Hashes a length-prefixed sequence, so adjacent sequences cannot
    /// trade elements without changing the digest.
    fn seq(&mut self, xs: impl ExactSizeIterator<Item = u64>) {
        self.u64(xs.len() as u64);
        xs.for_each(|x| self.u64(x));
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.seq(xs.iter().map(|x| x.to_bits()));
    }
}

fn digest(r: &RunResult, sim: &Simulator) -> u64 {
    let mut h = Fnv::new();
    h.u64(r.cycles);
    let n = &r.network;
    for x in [
        n.messages,
        n.total_latency,
        n.total_hops,
        n.total_queue_cycles,
        n.total_flits,
        n.max_latency,
    ] {
        h.u64(x);
    }
    for c in [&r.l1, &r.l2] {
        for x in [c.hits, c.misses, c.writebacks] {
            h.u64(x);
        }
    }
    let d = &r.dram;
    for x in [d.requests, d.row_hits, d.row_empty, d.row_conflicts, d.total_latency] {
        h.u64(x);
    }
    h.u64(r.invalidations);
    for table in [&r.measured.l1, &r.measured.llc] {
        h.u64(table.len() as u64);
        table.iter().for_each(|row| h.f64s(row));
    }
    for vecs in [&r.observed_mai, &r.observed_cai] {
        h.u64(vecs.len() as u64);
        vecs.iter().for_each(|v| h.f64s(&v.0));
    }
    let (busiest, mean) = sim.net_util();
    h.u64(busiest);
    h.u64(mean.to_bits());
    h.0
}

/// Runs every nest of `program` in order on `sim`, one golden line each.
fn run_nests(
    sim: &mut Simulator,
    prefix: &str,
    program: &Program,
    data: &DataEnv,
    mapping: impl Fn(NestId) -> NestMapping,
    lines: &mut Vec<String>,
) {
    for nid in program.nest_ids() {
        let r = sim.run_nest(program, &mapping(nid), data);
        lines.push(format!("{prefix} {} {} {:016x}", nid.0, r.cycles, digest(&r, sim)));
    }
}

fn sim_lines(llc: LlcOrg, faulted: bool) -> Vec<String> {
    let llc_name = match llc {
        LlcOrg::SharedSNuca => "shared",
        LlcOrg::Private => "private",
    };
    let platform = Platform::paper_default_with(llc);
    let healthy = Compiler::builder(platform.clone()).build().unwrap();
    let counts = FaultCounts { links: 1, routers: 1, mcs: 1, banks: 1 };
    let state =
        FaultPlan::random(FAULT_SEED, platform.mesh, platform.mc_count(), counts).final_state();
    let compiler = Compiler::builder(platform.clone()).faults(&state).build().unwrap();
    let mut lines = Vec::new();
    for w in &build_all(Scale::new(0.1)) {
        let (program, data) = (&w.program, &w.data);
        let fresh = || Simulator::builder(platform.clone()).build().unwrap();
        if faulted {
            let mut sim = fresh();
            let first = program.nest_ids().next().expect("every workload has a nest");
            sim.run_nest(program, &healthy.default_mapping(program, first), data);
            sim.set_faults(&state).expect("the fixed fault state is survivable");
            let prefix = format!("{} {llc_name} faulted la", w.name);
            let la = |n| compiler.map_nest(program, n, data);
            run_nests(&mut sim, &prefix, program, data, la, &mut lines);
        } else {
            let prefix = format!("{} {llc_name} healthy default", w.name);
            let default = |n| healthy.default_mapping(program, n);
            run_nests(&mut fresh(), &prefix, program, data, default, &mut lines);
            let prefix = format!("{} {llc_name} healthy la", w.name);
            let la = |n| healthy.map_nest(program, n, data);
            run_nests(&mut fresh(), &prefix, program, data, la, &mut lines);
        }
    }
    lines
}

/// The (LLC, arm) pair of a line: its second and third fields.
fn block_of(line: &str) -> (&str, &str) {
    let mut fields = line.split(' ').skip(1);
    (fields.next().unwrap_or(""), fields.next().unwrap_or(""))
}

/// Compares one (LLC, arm) block against its lines of the golden file.
fn check(llc: LlcOrg, faulted: bool) {
    let got = sim_lines(llc, faulted);
    let block = block_of(&got[0]);
    let want: Vec<(usize, &str)> =
        GOLDEN.lines().enumerate().filter(|(_, l)| block_of(l) == block).collect();
    for (g, (i, w)) in got.iter().zip(&want) {
        assert_eq!(g, w, "first differing line is {} of tests/golden/sim.txt", i + 1);
    }
    assert_eq!(got.len(), want.len(), "{block:?}: run count differs from tests/golden/sim.txt");
}

#[test]
fn shared_healthy_matches_golden() {
    check(LlcOrg::SharedSNuca, false);
}

#[test]
fn shared_faulted_matches_golden() {
    check(LlcOrg::SharedSNuca, true);
}

#[test]
fn private_healthy_matches_golden() {
    check(LlcOrg::Private, false);
}

#[test]
fn private_faulted_matches_golden() {
    check(LlcOrg::Private, true);
}
