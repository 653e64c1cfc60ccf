//! Golden `evaluate` outcomes.
//!
//! Every [`Scheme`] is evaluated on both LLC organizations for one regular
//! app (lu, whose triangular bounds exercise affine loop limits), one
//! irregular app (moldyn), and moldyn with a single timing iteration,
//! which takes `evaluate`'s one-pass branches. Each line of
//! `tests/golden/evaluate.txt` is one [`AppOutcome`], every field in order,
//! the f64s as bit patterns:
//!
//! ```text
//! app llc scheme base_cycles opt_cycles base_latency opt_latency overhead_cycles mai_error cai_error frac_moved
//! ```
//!
//! `golden_sim.rs` pins what one simulated nest computes; this file pins
//! how `evaluate` strings the passes together: which mapping each pass
//! runs, which pass the inspector and the oracle profile, and how cycles
//! and latencies are accounted.

use locmap_bench::{evaluate, AppOutcome, Experiment, Scheme};
use locmap_core::LlcOrg;
use locmap_workloads::{build, Scale, Workload};

const GOLDEN: &str = include_str!("golden/evaluate.txt");

const SCHEMES: [Scheme; 7] = [
    Scheme::Default,
    Scheme::LocationAware,
    Scheme::IdealNetwork,
    Scheme::Oracle,
    Scheme::Hardware,
    Scheme::LayoutOnly,
    Scheme::LayoutPlusLa,
];

fn line(llc: &str, scheme: Scheme, o: &AppOutcome) -> String {
    format!(
        "{} {llc} {scheme:?} {} {} {:016x} {:016x} {} {:016x} {:016x} {:016x}",
        o.name,
        o.base_cycles,
        o.opt_cycles,
        o.base_latency.to_bits(),
        o.opt_latency.to_bits(),
        o.overhead_cycles,
        o.mai_error.to_bits(),
        o.cai_error.to_bits(),
        o.frac_moved.to_bits(),
    )
}

fn apps() -> Vec<Workload> {
    let scale = Scale::new(0.1);
    let mut one_pass = build("moldyn", scale);
    one_pass.name = "moldyn-t1";
    one_pass.timing_iters = 1;
    vec![build("lu", scale), build("moldyn", scale), one_pass]
}

fn check(llc: LlcOrg, llc_name: &str) {
    let exp = Experiment::paper_default(llc);
    let mut got = Vec::new();
    for w in &apps() {
        for scheme in SCHEMES {
            got.push(line(llc_name, scheme, &evaluate(w, &exp, scheme)));
        }
    }
    let want: Vec<(usize, &str)> =
        GOLDEN.lines().enumerate().filter(|(_, l)| l.split(' ').nth(1) == Some(llc_name)).collect();
    for (g, (i, w)) in got.iter().zip(&want) {
        assert_eq!(g, w, "first differing line is {} of tests/golden/evaluate.txt", i + 1);
    }
    assert_eq!(got.len(), want.len(), "{llc_name}: outcome count differs from the golden file");
}

#[test]
fn shared_matches_golden() {
    check(LlcOrg::SharedSNuca, "shared");
}

#[test]
fn private_matches_golden() {
    check(LlcOrg::Private, "private");
}
