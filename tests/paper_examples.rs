//! Cross-crate reproduction of the paper's worked examples: Table 1,
//! Table 2, and the Figure 6 affinity vectors, driven end-to-end through
//! the public APIs.

use locmap_core::prelude::*;
use locmap_core::{
    compute_cai, compute_mai, AffinityInputs, AffinityVec, Cac, HitModel, Mac, MeasuredRates,
};
use locmap_loopir::IterationSpace;

/// Builds the Figure 5 loop with four arrays that land on four different
/// pages (hence four different MCs under page-interleaving).
fn figure5() -> (Program, IterationSpace, Vec<locmap_loopir::IterationSet>) {
    let mut p = Program::new("fig5");
    let n = 256u64; // one 2 KB page per array
    for name in ["A", "B", "C", "D"] {
        p.add_array(name, 8, n);
    }
    let mut nest = LoopNest::rectangular("main", &[n as i64]);
    nest.add_ref(locmap_loopir::ArrayId(0), AffineExpr::var(0, 1), Access::Write);
    for k in 1..4 {
        nest.add_ref(locmap_loopir::ArrayId(k), AffineExpr::var(0, 1), Access::Read);
    }
    let id = p.add_nest(nest);
    let space = IterationSpace::enumerate(p.nest(id), &p.params());
    let sets = space.split_by_fraction(1.0);
    (p, space, sets)
}

#[test]
fn table1_mai_with_and_without_cme() {
    let (p, space, sets) = figure5();
    let platform = Platform::paper_default();
    let data = DataEnv::new();
    let inputs = AffinityInputs::full(&p, &p.nests()[0], &space, &sets, &data);

    // Unrefined: all four refs contribute 0.25 each to their page's MC.
    let mai = compute_mai(&inputs, &platform, &locmap_core::AllMissModel);
    assert!((mai[0].mass() - 1.0).abs() < 1e-9);
    assert!(mai[0].0.iter().all(|&w| (w - 0.25).abs() < 1e-9));

    // Refined (§4): B and C hit in LLC, A and D miss. MAI keeps mass 0.5
    // and CAI gets the other 0.5 — the Table 1 "Realistic Scenario".
    let mut rates = MeasuredRates::zeroed(1, 4);
    rates.llc[0][1] = 1.0;
    rates.llc[0][2] = 1.0;
    let mai = compute_mai(&inputs, &platform, &rates);
    let cai = compute_cai(&inputs, &platform, &rates);
    assert!((mai[0].mass() - 0.5).abs() < 1e-9);
    assert!((cai[0].mass() - 0.5).abs() < 1e-9);
    assert!((rates.alpha(0, 4) - 0.5).abs() < 1e-9, "alpha must be 0.5");
    // Only two MCs receive miss weight.
    assert_eq!(mai[0].0.iter().filter(|&&w| w > 1e-9).count(), 2);
}

#[test]
fn table2_error_values_recomputed() {
    let platform = Platform::paper_default();
    let mac = Mac::compute(&platform, &FaultState::none(platform.mesh, platform.mc_count())).unwrap();

    // Column 2: MAI (0,0,0.5,0.5) → R8 with error exactly 0.
    let mai = AffinityVec::from(vec![0.0, 0.0, 0.5, 0.5]);
    assert!(mai.eta(mac.of(RegionId(7))).abs() < 1e-12);

    // Column 1: MAI (0.5,0.25,0.25,0): the minimum error is 0.125 (the
    // paper's printed value for its winner R5).
    let mai = AffinityVec::from(vec![0.5, 0.25, 0.25, 0.0]);
    let min = (0..9)
        .map(|r| mai.eta(mac.of(RegionId(r))))
        .fold(f64::INFINITY, f64::min);
    assert!((min - 0.125).abs() < 1e-12);

    // Column 3 (CME-refined, normalized direction): R5 and R6 tie as the
    // paper concludes.
    let mai = AffinityVec::from(vec![0.0, 0.25, 0.25, 0.0]);
    let e5 = mai.eta(mac.of(RegionId(4)));
    let e6 = mai.eta(mac.of(RegionId(5)));
    assert!((e5 - e6).abs() < 1e-12);
    for r in 0..9 {
        if r != 4 && r != 5 {
            assert!(mai.eta(mac.of(RegionId(r))) > e5);
        }
    }
}

#[test]
fn figure6_mac_and_cac_vectors() {
    let platform = Platform::paper_default();
    let healthy = FaultState::none(platform.mesh, platform.mc_count());
    let mac = Mac::compute(&platform, &healthy).unwrap();
    let cac = Cac::compute(&platform, &healthy).unwrap();

    // Figure 6a spot checks (MC order: TL, TR, BR, BL).
    assert_eq!(*mac.of(RegionId(0)).0, [1.0, 0.0, 0.0, 0.0]);
    assert_eq!(*mac.of(RegionId(4)).0, [0.25, 0.25, 0.25, 0.25]);
    assert_eq!(*mac.of(RegionId(7)).0, [0.0, 0.0, 0.5, 0.5]);

    // Figure 6c spot checks.
    let r1 = &cac.of(RegionId(0)).0;
    assert_eq!(r1[0], 0.5);
    assert_eq!(r1[1], 0.25);
    assert_eq!(r1[3], 0.25);
    let r5 = &cac.of(RegionId(4)).0;
    assert_eq!(r5[4], 0.5);
    for k in [1, 3, 5, 7] {
        assert_eq!(r5[k], 0.125);
    }
}
