//! The inspector–executor runtime for irregular applications (§4).
//!
//! Irregular nests subscript arrays through index arrays whose contents are
//! only known at runtime. The paper inserts an *inspector* after the first
//! iteration of the timing loop that (1) observes, per access, the LLC
//! hits/misses and the banks/MCs involved, (2) constructs MAI and CAI,
//! (3) determines α, and (4) fills the iteration-set→core table that the
//! *executor* (the remaining timing iterations) consumes.
//!
//! In this reproduction the observation step is supplied by the caller
//! (the simulator's profiling run produces [`MeasuredRates`] and the real
//! index arrays live in a [`DataEnv`]); this module performs steps 2–4 and
//! accounts the runtime overhead that Figures 7c/8c report.

use crate::compiler::{Compiler, NestMapping};
use crate::hits::MeasuredRates;
use crate::resilience::{backoff_cycles, DIVERGENCE_THRESHOLD, MAX_RETRIES};
use locmap_loopir::{DataEnv, NestId, Program};
use locmap_noc::RunControl;
use serde::{Deserialize, Serialize};

/// Cost model for inspector execution time.
///
/// The inspector is ordinary software: it replays the first timing-loop
/// iteration's access log and runs the mapping algorithm. Costs are charged
/// per analyzed access (log scan + affinity accumulation) and per iteration
/// set (assignment + balancing), plus a fixed setup cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InspectorCostModel {
    /// Cycles to process one logged access.
    pub cycles_per_access: f64,
    /// Cycles to assign one iteration set (η evaluations over regions).
    pub cycles_per_set: f64,
    /// Fixed setup/teardown cycles (sequential).
    pub fixed_cycles: u64,
    /// The inspector is compiler-inserted *parallel* code: per-access and
    /// per-set work spreads over this many cores.
    pub parallel_cores: u32,
}

impl Default for InspectorCostModel {
    fn default() -> Self {
        InspectorCostModel {
            cycles_per_access: 2.0,
            cycles_per_set: 60.0,
            fixed_cycles: 5_000,
            parallel_cores: 36,
        }
    }
}

/// Result of running the inspector on one nest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InspectorReport {
    /// The runtime-derived mapping the executor will use.
    pub mapping: NestMapping,
    /// Estimated inspector execution time, in core cycles. The evaluation
    /// charges this against the optimized execution time (the paper's
    /// "runtime overheads are fully captured").
    pub overhead_cycles: u64,
    /// How many re-inspection rounds [`Inspector::run_with_retry`] needed
    /// (0 when the first mapping's predictions held up, or for plain
    /// [`Inspector::run`]).
    #[serde(default)]
    pub retries: u32,
}

/// Mean absolute difference between two rate tables (both levels).
fn divergence(a: &MeasuredRates, b: &MeasuredRates) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (ta, tb) in [(&a.l1, &b.l1), (&a.llc, &b.llc)] {
        assert_eq!(ta.len(), tb.len(), "rate tables cover the same sets");
        for (ra, rb) in ta.iter().zip(tb) {
            assert_eq!(ra.len(), rb.len(), "rate tables cover the same references");
            for (x, y) in ra.iter().zip(rb) {
                sum += (x - y).abs();
                n += 1;
            }
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Runs the mapping algorithm on observed runtime behavior.
#[derive(Debug, Clone)]
pub struct Inspector<'a> {
    compiler: &'a Compiler,
    cost: InspectorCostModel,
}

impl<'a> Inspector<'a> {
    /// Creates an inspector that reuses `compiler`'s platform and options.
    pub fn new(compiler: &'a Compiler, cost: InspectorCostModel) -> Self {
        Inspector { compiler, cost }
    }

    /// Computes the executor mapping from the measured first-iteration
    /// behavior, and the overhead of doing so.
    ///
    /// `data` must contain the (now known) index arrays; `measured` is the
    /// per-(set, reference) hit-rate table from the profiling run.
    pub fn run(
        &self,
        program: &Program,
        nest_id: NestId,
        data: &DataEnv,
        measured: &MeasuredRates,
    ) -> InspectorReport {
        let mapping = self
            .compiler
            .map_nest_with_model(program, nest_id, data, measured, &RunControl::unlimited())
            .expect("an unlimited RunControl never aborts");

        let nest = program.nest(nest_id);
        let iterations = nest.iteration_count(&program.params()) as usize;
        let stride = self.compiler.options().analysis_sample_stride.max(1);
        let analyzed_accesses = (iterations / stride) as f64 * nest.refs.len() as f64;
        let par = self.cost.parallel_cores.max(1) as f64;
        let overhead_cycles = self.cost.fixed_cycles
            + (analyzed_accesses * self.cost.cycles_per_access / par) as u64
            + (mapping.sets.len() as f64 * self.cost.cycles_per_set / par) as u64;

        InspectorReport { mapping, overhead_cycles, retries: 0 }
    }

    /// Inspector–executor loop with bounded re-inspection (degraded mode).
    ///
    /// Runs the inspector on `initial` rates, then asks `reprofile` for the
    /// rates actually observed while executing the produced mapping. If the
    /// observation drifts from the prediction by more than
    /// [`DIVERGENCE_THRESHOLD`] (mean absolute hit-rate difference), the
    /// inspector remaps from the observed rates and tries again — up to
    /// [`MAX_RETRIES`] rounds, with an exponentially growing backoff
    /// charged to the overhead so a degrading machine cannot trap the
    /// runtime in a remap storm.
    pub fn run_with_retry(
        &self,
        program: &Program,
        nest_id: NestId,
        data: &DataEnv,
        initial: &MeasuredRates,
        mut reprofile: impl FnMut(&NestMapping) -> MeasuredRates,
    ) -> InspectorReport {
        let mut report = self.run(program, nest_id, data, initial);
        let mut predicted = initial.clone();
        for round in 0..MAX_RETRIES {
            let observed = reprofile(&report.mapping);
            if divergence(&predicted, &observed) <= DIVERGENCE_THRESHOLD {
                break;
            }
            let redo = self.run(program, nest_id, data, &observed);
            report = InspectorReport {
                mapping: redo.mapping,
                overhead_cycles: report.overhead_cycles
                    + redo.overhead_cycles
                    + backoff_cycles(round),
                retries: report.retries + 1,
            };
            predicted = observed;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    
    use crate::platform::Platform;
    use locmap_loopir::{Access, AffineExpr, LoopNest};

    fn irregular_program(n: u64) -> (Program, NestId, DataEnv) {
        let mut p = Program::new("irr");
        let a = p.add_array("A", 8, n);
        let idx = p.add_array("idx", 4, n);
        let mut nest = LoopNest::rectangular("n", &[n as i64]);
        nest.add_indirect_ref(a, idx, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        let mut data = DataEnv::new();
        // Reversal permutation: iteration i touches A[n-1-i].
        data.set_index_array(idx, (0..n as i64).rev().collect());
        (p, id, data)
    }

    #[test]
    fn inspector_produces_executable_mapping() {
        let (p, id, data) = irregular_program(4000);
        let compiler = Compiler::builder(Platform::paper_default()).build().unwrap();
        let inspector = Inspector::new(&compiler, InspectorCostModel::default());
        let sets = compiler.default_mapping(&p, id).sets.len();
        let measured = MeasuredRates::zeroed(sets, 1);
        let rep = inspector.run(&p, id, &data, &measured);
        assert!(!rep.mapping.needs_inspector);
        assert_eq!(rep.mapping.assignment.len(), sets);
        assert!(rep.overhead_cycles > 0);
    }

    #[test]
    fn overhead_scales_with_work() {
        let compiler = Compiler::builder(Platform::paper_default()).build().unwrap();
        let inspector = Inspector::new(&compiler, InspectorCostModel::default());
        let (p1, id1, d1) = irregular_program(2000);
        let (p2, id2, d2) = irregular_program(20_000);
        let m1 = MeasuredRates::zeroed(compiler.default_mapping(&p1, id1).sets.len(), 1);
        let m2 = MeasuredRates::zeroed(compiler.default_mapping(&p2, id2).sets.len(), 1);
        let r1 = inspector.run(&p1, id1, &d1, &m1);
        let r2 = inspector.run(&p2, id2, &d2, &m2);
        assert!(r2.overhead_cycles > r1.overhead_cycles);
    }

    #[test]
    fn retry_converges_immediately_when_prediction_holds() {
        let (p, id, data) = irregular_program(4000);
        let compiler = Compiler::builder(Platform::paper_default()).build().unwrap();
        let inspector = Inspector::new(&compiler, InspectorCostModel::default());
        let sets = compiler.default_mapping(&p, id).sets.len();
        let measured = MeasuredRates::zeroed(sets, 1);
        let base = inspector.run(&p, id, &data, &measured);
        let rep = inspector.run_with_retry(
            &p,
            id,
            &data,
            &measured,
            |_| MeasuredRates::zeroed(sets, 1),
        );
        assert_eq!(rep.retries, 0);
        assert_eq!(rep.overhead_cycles, base.overhead_cycles);
        assert_eq!(rep.mapping.assignment, base.mapping.assignment);
    }

    #[test]
    fn retry_remaps_on_divergence_and_charges_backoff() {
        let (p, id, data) = irregular_program(4000);
        let compiler = Compiler::builder(Platform::paper_default()).build().unwrap();
        let inspector = Inspector::new(&compiler, InspectorCostModel::default());
        let sets = compiler.default_mapping(&p, id).sets.len();
        let initial = MeasuredRates::zeroed(sets, 1);
        let base = inspector.run(&p, id, &data, &initial);
        // Observation flips every rate to 1.0 once, then stays put: exactly
        // one retry.
        let mut calls = 0u32;
        let rep = inspector.run_with_retry(
            &p,
            id,
            &data,
            &initial,
            |_| {
                calls += 1;
                let mut m = MeasuredRates::zeroed(sets, 1);
                for s in 0..sets {
                    m.l1[s][0] = 1.0;
                    m.llc[s][0] = 1.0;
                }
                m
            },
        );
        assert_eq!(rep.retries, 1);
        assert_eq!(calls, 2, "one diverging observation, one confirming");
        assert!(
            rep.overhead_cycles >= 2 * base.overhead_cycles + 10_000,
            "retry must charge remap + backoff: {} vs base {}",
            rep.overhead_cycles,
            base.overhead_cycles
        );
    }

    #[test]
    fn retry_is_bounded_by_policy() {
        let (p, id, data) = irregular_program(2000);
        let compiler = Compiler::builder(Platform::paper_default()).build().unwrap();
        let inspector = Inspector::new(&compiler, InspectorCostModel::default());
        let sets = compiler.default_mapping(&p, id).sets.len();
        let initial = MeasuredRates::zeroed(sets, 1);
        // Observations alternate between extremes: never converges.
        let mut flip = false;
        let rep = inspector.run_with_retry(
            &p,
            id,
            &data,
            &initial,
            |_| {
                flip = !flip;
                let mut m = MeasuredRates::zeroed(sets, 1);
                if flip {
                    for s in 0..sets {
                        m.llc[s][0] = 1.0;
                    }
                }
                m
            },
        );
        assert_eq!(rep.retries, MAX_RETRIES);
    }

    #[test]
    fn cancelled_model_mapping_returns_cancelled() {
        use locmap_noc::{Budget, CancelToken, LocmapError};
        let (p, id, data) = irregular_program(4000);
        let compiler = Compiler::builder(Platform::paper_default()).build().unwrap();
        let inspector = Inspector::new(&compiler, InspectorCostModel::default());
        let sets = compiler.default_mapping(&p, id).sets.len();
        let measured = MeasuredRates::zeroed(sets, 1);

        let base = inspector.run(&p, id, &data, &measured);
        let ctl = RunControl::unlimited();
        let mapping = compiler.map_nest_with_model(&p, id, &data, &measured, &ctl).unwrap();
        assert_eq!(mapping, base.mapping);

        let cancelled = RunControl::new(CancelToken::cancel_after_polls(0), Budget::unlimited());
        let err = compiler.map_nest_with_model(&p, id, &data, &measured, &cancelled).unwrap_err();
        assert!(matches!(err, LocmapError::Cancelled { .. }));
    }

    #[test]
    fn measured_rates_drive_alpha() {
        let (p, id, data) = irregular_program(4000);
        let compiler = Compiler::builder(Platform::paper_default()).build().unwrap();
        let inspector = Inspector::new(&compiler, InspectorCostModel::default());
        let sets = compiler.default_mapping(&p, id).sets.len();
        // Everything hits LLC ⇒ α = 1 for every set.
        let mut measured = MeasuredRates::zeroed(sets, 1);
        for s in 0..sets {
            measured.llc[s][0] = 1.0;
        }
        let rep = inspector.run(&p, id, &data, &measured);
        assert!(rep.mapping.alphas.iter().all(|&a| (a - 1.0).abs() < 1e-9));
    }
}
