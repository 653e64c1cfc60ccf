//! Golden mapping digests.
//!
//! Every nest of all 21 workloads at scale 0.1 is mapped with the
//! workload's data on both LLC organizations, by a healthy compiler and by
//! one built for a fixed seeded fault state (a dead router, link, MC and
//! bank). Each mapping becomes one line of `tests/golden/mappings.txt`:
//!
//! ```text
//! app llc arm nest sets moved digest
//! ```
//!
//! The digest is FNV-1a over the mapping's regions and assignment, the bit
//! patterns of its MAI/CAI vectors and α values, and the assignments of the
//! default and heuristic baselines, so any change in what the compiler
//! decides shows up as a changed line.

use locmap_core::prelude::*;
use locmap_noc::FaultCounts;
use locmap_workloads::{build_all, Scale};

const GOLDEN: &str = include_str!("golden/mappings.txt");

/// Seed of the faulted arm's plan.
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
}

fn cores(m: &NestMapping) -> impl ExactSizeIterator<Item = u64> + '_ {
    m.assignment.iter().map(|n| n.index() as u64)
}

fn digest(m: &NestMapping, default: &NestMapping, heuristic: &NestMapping) -> u64 {
    let mut h = Fnv::new();
    h.seq(m.regions.iter().map(|r| r.index() as u64));
    h.seq(cores(m));
    for v in m.mai.iter().chain(&m.cai) {
        h.seq(v.0.iter().map(|x| x.to_bits()));
    }
    h.seq(m.alphas.iter().map(|a| a.to_bits()));
    h.seq(cores(default));
    h.seq(cores(heuristic));
    h.0
}

fn mapping_lines() -> Vec<String> {
    let workloads = build_all(Scale::new(0.1));
    let mut lines = Vec::new();
    for (llc, llc_name) in [(LlcOrg::SharedSNuca, "shared"), (LlcOrg::Private, "private")] {
        let platform = Platform::paper_default_with(llc);
        let counts = FaultCounts { links: 1, routers: 1, mcs: 1, banks: 1 };
        let plan = FaultPlan::random(FAULT_SEED, platform.mesh, platform.mc_count(), counts);
        assert_eq!(plan.final_state().dead_counts(), (1, 1, 1, 1));
        let healthy = Compiler::builder(platform.clone()).build().unwrap();
        let faulted = Compiler::builder(platform)
            .faults(&plan.final_state())
            .build()
            .expect("the fixed fault state leaves the machine mappable");
        for (compiler, arm) in [(&healthy, "healthy"), (&faulted, "faulted")] {
            for w in &workloads {
                for nid in w.program.nest_ids() {
                    let m = compiler.map_nest(&w.program, nid, &w.data);
                    let default = compiler.default_mapping(&w.program, nid);
                    let heuristic = compiler.heuristic_mapping(&w.program, nid);
                    lines.push(format!(
                        "{} {llc_name} {arm} {} {} {} {:016x}",
                        w.name,
                        nid.0,
                        m.sets.len(),
                        m.balance.moved,
                        digest(&m, &default, &heuristic)
                    ));
                }
            }
        }
    }
    lines
}

#[test]
fn mappings_match_golden() {
    let got = mapping_lines();
    let want: Vec<&str> = GOLDEN.lines().collect();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "first differing line is {} of tests/golden/mappings.txt", i + 1);
    }
    assert_eq!(got.len(), want.len(), "mapping count differs from tests/golden/mappings.txt");
}
