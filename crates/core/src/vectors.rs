//! Affinity vectors and the η difference metric, plus the MAC and CAC
//! tables, each derived by one constructor from the platform and the
//! [`FaultState`] it runs under (a healthy machine is
//! [`FaultState::none`]).

use crate::platform::Platform;
use locmap_noc::{nearest_survivor, FaultState, LocmapError, RegionGrid, RegionId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A non-negative affinity (weight) vector, e.g. over MCs or regions.
///
/// The paper's vectors sum to at most 1 (CME-refined MAI/CAI leave out the
/// weight of accesses that never reach the relevant level), so no
/// normalization invariant is enforced beyond non-negativity.
///
/// The weights are immutable and shared: a clone (a memo hit's copy of a
/// cached [`crate::NestMapping`]) bumps a reference count, and every change
/// of weights builds a new vector.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AffinityVec(pub Arc<[f64]>);

impl AffinityVec {
    /// The zero vector of length `m`.
    pub fn zeros(m: usize) -> Self {
        AffinityVec::from(vec![0.0; m])
    }

    /// Length of the vector.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sum of the weights.
    pub fn mass(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Scales so weights sum to 1 (no-op on the zero vector).
    pub fn normalized(self) -> Self {
        let m = self.mass();
        if m > 0.0 {
            AffinityVec(self.0.iter().map(|w| w / m).collect())
        } else {
            self
        }
    }

    /// The paper's difference (error) between two affinity vectors:
    /// `η(δ, δ') = Σ_k |δ_k − δ'_k| / m`. Lower means more similar.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn eta(&self, other: &AffinityVec) -> f64 {
        self.eta_with(other, EtaMetric::L1)
    }

    /// η under an alternative metric (ablation of the design choice).
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn eta_with(&self, other: &AffinityVec, metric: EtaMetric) -> f64 {
        assert_eq!(self.len(), other.len(), "affinity vectors must have equal length");
        let m = self.len() as f64;
        match metric {
            EtaMetric::L1 => {
                self.0.iter().zip(other.0.iter()).map(|(a, b)| (a - b).abs()).sum::<f64>() / m
            }
            EtaMetric::L2 => {
                (self.0.iter().zip(other.0.iter()).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() / m)
                    .sqrt()
            }
            EtaMetric::Cosine => {
                let dot: f64 = self.0.iter().zip(other.0.iter()).map(|(a, b)| a * b).sum();
                let na: f64 = self.0.iter().map(|a| a * a).sum::<f64>().sqrt();
                let nb: f64 = other.0.iter().map(|b| b * b).sum::<f64>().sqrt();
                if na == 0.0 || nb == 0.0 {
                    1.0
                } else {
                    1.0 - dot / (na * nb)
                }
            }
        }
    }
}

impl fmt::Display for AffinityVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, w) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{w:.3}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<f64>> for AffinityVec {
    fn from(v: Vec<f64>) -> Self {
        AffinityVec(v.into())
    }
}

/// The vector-difference metric used inside η. The paper uses [`L1`];
/// the others exist for the DESIGN.md ablation.
///
/// [`L1`]: EtaMetric::L1
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum EtaMetric {
    /// Mean absolute difference (paper §3.4).
    #[default]
    L1,
    /// Root-mean-square difference.
    L2,
    /// Cosine distance (1 − cosine similarity).
    Cosine,
}

/// The per-region memory-affinity-of-cores vectors (Figure 6a).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mac {
    vectors: Vec<AffinityVec>,
}

impl Mac {
    /// Computes MAC for every region of `platform` over the memory
    /// controllers alive in `state`: equal weight over the set of *nearest*
    /// alive MCs by Manhattan distance from the region's centroid, ties
    /// split evenly, and zero weight on dead MCs. On a healthy machine
    /// ([`FaultState::none`]) this reproduces Figure 6a exactly; on a
    /// degraded one η comparisons steer iteration sets towards regions
    /// close to controllers that can still serve them. Pass the
    /// *effective* fault state ([`FaultState::effective`]) so MCs on dead
    /// routers count as dead.
    pub fn compute(platform: &Platform, state: &FaultState) -> Result<Self, LocmapError> {
        let m = platform.mc_count();
        let alive: Vec<bool> = (0..m).map(|k| state.mc_alive(k)).collect();
        if !alive.iter().any(|&a| a) {
            return Err(LocmapError::FaultConflict("all memory controllers dead".into()));
        }
        let vectors = platform
            .regions
            .regions()
            .map(|r| {
                let (cx, cy) = platform.regions.centroid(r);
                let dists: Vec<f64> = platform
                    .mc_coords
                    .iter()
                    .map(|mc| (cx - mc.x as f64).abs() + (cy - mc.y as f64).abs())
                    .collect();
                let dmin = dists
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| alive[k])
                    .map(|(_, &d)| d)
                    .fold(f64::INFINITY, f64::min);
                let nearest: Vec<usize> = dists
                    .iter()
                    .enumerate()
                    .filter(|&(k, &d)| alive[k] && d <= dmin + 1e-6)
                    .map(|(k, _)| k)
                    .collect();
                let mut w = vec![0.0; m];
                let share = 1.0 / nearest.len() as f64;
                for k in nearest {
                    w[k] = share;
                }
                AffinityVec::from(w)
            })
            .collect();
        Ok(Mac { vectors })
    }

    /// The MAC vector of region `r`.
    pub fn of(&self, r: RegionId) -> &AffinityVec {
        &self.vectors[r.index()]
    }

    /// All MAC vectors, region order.
    pub fn vectors(&self) -> &[AffinityVec] {
        &self.vectors
    }
}

/// Weight a region's cores give their own region's banks in CAC (the
/// paper's 0.5, Figure 6c); the remainder is split evenly across immediate
/// neighbor regions.
pub const CAC_SELF_WEIGHT: f64 = 0.5;

/// The per-region cache-affinity-of-cores vectors (Figure 6c).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cac {
    vectors: Vec<AffinityVec>,
}

impl Cac {
    /// Computes CAC for every region of `platform` over the LLC banks
    /// alive in `state`.
    ///
    /// A region gives [`CAC_SELF_WEIGHT`] to its own banks and splits the
    /// rest evenly over its 4-connected neighbors (all of it to itself
    /// when it has none). Under bank faults each target region's weight is
    /// scaled by the fraction of its banks still alive (a region that lost
    /// half its banks caches half as much nearby data) and the row is
    /// renormalized; a row that empties moves all its weight to the
    /// nearest region that still has banks, by the same nearest-survivor
    /// redirect the compiler folds CAI with. Pass the *effective* fault
    /// state so banks on dead routers count as dead.
    pub fn compute(platform: &Platform, state: &FaultState) -> Result<Self, LocmapError> {
        let regions = &platform.regions;
        let n = platform.region_count();
        let base: Vec<Vec<f64>> = regions
            .regions()
            .map(|r| {
                let mut w = vec![0.0; n];
                let neighbors = regions.neighbors(r);
                if neighbors.is_empty() {
                    w[r.index()] = 1.0;
                } else {
                    w[r.index()] = CAC_SELF_WEIGHT;
                    let share = (1.0 - CAC_SELF_WEIGHT) / neighbors.len() as f64;
                    for nb in neighbors {
                        w[nb.index()] = share;
                    }
                }
                w
            })
            .collect();
        let alive_frac: Vec<f64> = regions
            .regions()
            .map(|r| {
                let nodes = regions.nodes_in(r);
                let alive = nodes.iter().filter(|&&node| state.bank_alive(node)).count();
                alive as f64 / nodes.len() as f64
            })
            .collect();
        if alive_frac.iter().all(|&f| f == 1.0) {
            // No bank faults: the base table bit-for-bit, so a clean
            // degraded compiler reproduces the fault-free mapping exactly
            // (renormalizing by a mass of ~1.0 would inject FP noise).
            return Ok(Cac { vectors: base.into_iter().map(AffinityVec::from).collect() });
        }
        let has_bank: Vec<bool> = alive_frac.iter().map(|&f| f > 0.0).collect();
        let redirect = region_redirects(regions, &has_bank)
            .ok_or_else(|| LocmapError::FaultConflict("all LLC banks dead".into()))?;
        let vectors = base
            .into_iter()
            .enumerate()
            .map(|(r, row)| {
                let mut w: Vec<f64> = row.iter().zip(&alive_frac).map(|(x, f)| x * f).collect();
                let mass: f64 = w.iter().sum();
                if mass > 0.0 {
                    w.iter_mut().for_each(|x| *x /= mass);
                } else {
                    // Everything this region would cache into is dead: its
                    // own banks too, so the redirect leaves the region.
                    w = vec![0.0; n];
                    w[redirect[r].index()] = 1.0;
                }
                AffinityVec::from(w)
            })
            .collect();
        Ok(Cac { vectors })
    }

    /// The CAC vector of region `r`.
    pub fn of(&self, r: RegionId) -> &AffinityVec {
        &self.vectors[r.index()]
    }

    /// All CAC vectors, region order.
    pub fn vectors(&self) -> &[AffinityVec] {
        &self.vectors
    }
}

/// For each region, the nearest region marked in `alive`: itself when
/// alive, otherwise the alive region at the smallest
/// [`RegionGrid::region_distance`], the lowest id winning ties — the one
/// [`nearest_survivor`] rule. `None` when no region is alive.
pub(crate) fn region_redirects(regions: &RegionGrid, alive: &[bool]) -> Option<Vec<RegionId>> {
    let n = regions.region_count();
    (0..n)
        .map(|j| {
            let dist = |k: usize| regions.region_distance(RegionId(j as u16), RegionId(k as u16));
            nearest_survivor(n, j, |k| alive[k], dist).map(|k| RegionId(k as u16))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    fn vec_close(a: &AffinityVec, b: &[f64]) -> bool {
        a.len() == b.len() && a.0.iter().zip(b).all(|(x, y)| close(*x, *y))
    }

    fn healthy(p: &Platform) -> FaultState {
        FaultState::none(p.mesh, p.mc_count())
    }

    /// The paper platform's fault-free MAC (Figure 6a).
    fn paper_mac() -> Mac {
        let p = Platform::paper_default();
        Mac::compute(&p, &healthy(&p)).unwrap()
    }

    /// The paper platform's fault-free CAC (Figure 6c).
    fn paper_cac() -> Cac {
        let p = Platform::paper_default();
        Cac::compute(&p, &healthy(&p)).unwrap()
    }

    #[test]
    fn eta_matches_paper_table2_column1() {
        // MAI = (0.5, 0.25, 0.25, 0) against the Figure 6a MACs.
        //
        // Note: the paper's printed Table 2 contains arithmetic typos (the
        // R8 row lists five terms for a four-MC system, and the R2 term
        // "0.75" is inconsistent with the Figure 6a MAC of (0.5,0.5,0,0)).
        // The values below are recomputed exactly from the Figure 6a
        // vectors: R2 and R5 tie at the minimum 0.125, and the paper's
        // chosen winner R5 attains the paper's printed minimum value.
        let mai = AffinityVec::from(vec![0.5, 0.25, 0.25, 0.0]);
        let mac = paper_mac();
        let expected = [0.25, 0.125, 0.375, 0.25, 0.125, 0.25, 0.5, 0.375, 0.375];
        let etas: Vec<f64> = (0..9).map(|r| mai.eta(mac.of(RegionId(r)))).collect();
        for (r, (&e, &x)) in etas.iter().zip(&expected).enumerate() {
            assert!(close(e, x), "R{} eta {} != {}", r + 1, e, x);
        }
        assert!(close(etas[4], 0.125), "R5 attains the paper's minimum");
    }

    #[test]
    fn eta_matches_paper_table2_column3() {
        // Refined MAI = (0, 0.25, 0.25, 0) (§4): the paper concludes "R5
        // and R6 are the most suitable regions", which exact recomputation
        // confirms (both at 0.125).
        let mai = AffinityVec::from(vec![0.0, 0.25, 0.25, 0.0]);
        let mac = paper_mac();
        let etas: Vec<f64> = (0..9).map(|r| mai.eta(mac.of(RegionId(r)))).collect();
        assert!(close(etas[4], 0.125), "R5 eta {}", etas[4]);
        assert!(close(etas[5], 0.125), "R6 eta {}", etas[5]);
        let min = etas.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(close(min, 0.125));
        for (r, &e) in etas.iter().enumerate() {
            if r != 4 && r != 5 {
                assert!(e > 0.125 + 1e-9, "R{} unexpectedly minimal", r + 1);
            }
        }
    }

    #[test]
    fn eta_matches_paper_table2_column2() {
        // MAI = (0, 0, 0.5, 0.5): paper says R8 wins with error 0.
        let mai = AffinityVec::from(vec![0.0, 0.0, 0.5, 0.5]);
        let mac = paper_mac();
        let eta8 = mai.eta(mac.of(RegionId(7)));
        assert!(close(eta8, 0.0), "R8 eta = {eta8}");
        for r in 0..9 {
            if r != 7 {
                assert!(mai.eta(mac.of(RegionId(r))) > 0.0);
            }
        }
    }

    #[test]
    fn mac_vectors_match_figure_6a() {
        let mac = paper_mac();
        // MC order: MC1=TL, MC2=TR, MC3=BR, MC4=BL.
        assert!(vec_close(mac.of(RegionId(0)), &[1.0, 0.0, 0.0, 0.0])); // R1
        assert!(vec_close(mac.of(RegionId(1)), &[0.5, 0.5, 0.0, 0.0])); // R2
        assert!(vec_close(mac.of(RegionId(2)), &[0.0, 1.0, 0.0, 0.0])); // R3
        assert!(vec_close(mac.of(RegionId(3)), &[0.5, 0.0, 0.0, 0.5])); // R4
        assert!(vec_close(mac.of(RegionId(4)), &[0.25, 0.25, 0.25, 0.25])); // R5
        assert!(vec_close(mac.of(RegionId(5)), &[0.0, 0.5, 0.5, 0.0])); // R6
        assert!(vec_close(mac.of(RegionId(6)), &[0.0, 0.0, 0.0, 1.0])); // R7
        assert!(vec_close(mac.of(RegionId(7)), &[0.0, 0.0, 0.5, 0.5])); // R8
        assert!(vec_close(mac.of(RegionId(8)), &[0.0, 0.0, 1.0, 0.0])); // R9
    }

    #[test]
    fn cac_vectors_match_figure_6c() {
        let cac = paper_cac();
        // R1: self 0.5, neighbors R2 and R4 get 0.25 each.
        assert!(vec_close(
            cac.of(RegionId(0)),
            &[0.5, 0.25, 0.0, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0]
        ));
        // R2: self 0.5, neighbors R1, R3, R5 get 1/6 each.
        let r2 = cac.of(RegionId(1));
        assert!(close(r2.0[1], 0.5));
        assert!(close(r2.0[0], 1.0 / 6.0));
        assert!(close(r2.0[2], 1.0 / 6.0));
        assert!(close(r2.0[4], 1.0 / 6.0));
        // R5: self 0.5, four neighbors get 0.125 each.
        let r5 = cac.of(RegionId(4));
        assert!(close(r5.0[4], 0.5));
        for k in [1, 3, 5, 7] {
            assert!(close(r5.0[k], 0.125));
        }
        assert!(close(r5.0[0], 0.0));
    }

    #[test]
    fn cac_mass_is_one() {
        let cac = paper_cac();
        for v in cac.vectors() {
            assert!(close(v.mass(), 1.0));
        }
    }

    #[test]
    fn eta_metrics_agree_on_identity() {
        let v = AffinityVec::from(vec![0.2, 0.3, 0.5]);
        for m in [EtaMetric::L1, EtaMetric::L2, EtaMetric::Cosine] {
            assert!(close(v.eta_with(&v, m), 0.0), "{m:?}");
        }
    }

    #[test]
    fn normalized_sums_to_one() {
        let v = AffinityVec::from(vec![1.0, 3.0]).normalized();
        assert!(vec_close(&v, &[0.25, 0.75]));
        // Zero vector stays zero.
        assert!(vec_close(&AffinityVec::zeros(3).normalized(), &[0.0, 0.0, 0.0]));
    }

    #[test]
    #[should_panic]
    fn eta_length_mismatch_panics() {
        AffinityVec::from(vec![1.0]).eta(&AffinityVec::from(vec![1.0, 0.0]));
    }

    #[test]
    fn degraded_mac_excludes_dead_mcs() {
        use locmap_noc::FaultPlan;
        let p = Platform::paper_default();
        let state = FaultPlan::new(p.mesh, p.mc_count()).dead_mc(0).state_at(0);
        let mac = Mac::compute(&p, &state).unwrap();
        for r in 0..9 {
            assert!(close(mac.of(RegionId(r)).0[0], 0.0), "R{} weights dead MC0", r + 1);
            assert!(close(mac.of(RegionId(r)).mass(), 1.0));
        }
        // R1 (top-left) now leans on the two adjacent corners MC2/MC4.
        let r1 = mac.of(RegionId(0));
        assert!(close(r1.0[1], 0.5) && close(r1.0[3], 0.5), "{r1}");
        // A clean state reproduces the nominal MAC.
        let clean = FaultPlan::new(p.mesh, p.mc_count()).state_at(0);
        assert_eq!(Mac::compute(&p, &clean).unwrap().vectors(), paper_mac().vectors());
    }

    #[test]
    fn degraded_mac_errors_when_no_mc_survives() {
        use locmap_noc::FaultPlan;
        let p = Platform::paper_default();
        let plan = p.mesh.nodes().fold(FaultPlan::new(p.mesh, p.mc_count()), FaultPlan::dead_router);
        let state = plan.state_at(0).effective(&p.mc_coords);
        assert!(Mac::compute(&p, &state).is_err());
    }

    #[test]
    fn degraded_cac_shifts_weight_off_dead_banks() {
        use locmap_noc::FaultPlan;
        let p = Platform::paper_default();
        // Kill every bank in R1 (nodes (0,0),(1,0),(0,1),(1,1)).
        let mut plan = FaultPlan::new(p.mesh, p.mc_count());
        for (x, y) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
            plan = plan.dead_bank(p.mesh.node_at(x, y));
        }
        let cac = Cac::compute(&p, &plan.state_at(0)).unwrap();
        for r in 0..9 {
            let v = cac.of(RegionId(r));
            assert!(close(v.0[0], 0.0), "R{} still caches into dead R1: {v}", r + 1);
            assert!(close(v.mass(), 1.0), "R{} mass {}", r + 1, v.mass());
        }
        // R1's own row folds entirely into surviving neighbors.
        let r1 = cac.of(RegionId(0));
        assert!(r1.0[1] > 0.0 && r1.0[3] > 0.0);
    }

    #[test]
    fn emptied_cac_row_falls_back_to_the_nearest_region_lowest_id_on_ties() {
        use locmap_noc::FaultPlan;
        let p = Platform::paper_default();
        // Kill every bank in R1, R2 and R4: R1's own and neighbor banks are
        // all gone, so its row empties. R3, R5 and R7 all sit at centroid
        // distance 4 from R1; the lowest id, R3, must win the tie.
        let mut plan = FaultPlan::new(p.mesh, p.mc_count());
        for r in [0, 1, 3] {
            for node in p.regions.nodes_in(RegionId(r)) {
                plan = plan.dead_bank(node);
            }
        }
        for q in [2, 4, 6] {
            assert_eq!(p.regions.region_distance(RegionId(0), RegionId(q)), 4.0);
        }
        let cac = Cac::compute(&p, &plan.state_at(0)).unwrap();
        assert_eq!(cac.of(RegionId(0)).0[..], [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn single_region_cac_is_self_only() {
        use locmap_noc::{Mesh, RegionGrid};
        let mesh = Mesh::try_new(4, 4).unwrap();
        let mut p = Platform::paper_default();
        p.mesh = mesh;
        p.regions = RegionGrid::try_new(mesh, 1, 1).unwrap();
        let cac = Cac::compute(&p, &healthy(&p)).unwrap();
        assert!(vec_close(cac.of(RegionId(0)), &[1.0]));
    }
}
