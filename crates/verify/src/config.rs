//! Verifier configuration.

use crate::diag::{Code, Severity};
use serde::{Deserialize, Serialize};

/// Which passes run and how strictly findings are treated.
///
/// The default runs all four passes with every code at its documented
/// severity — the configuration CI gates on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerifyConfig {
    /// Tolerance for floating-point comparisons (vector masses, η values).
    pub epsilon: f64,
    /// Run the loop-nest lint pass (bounds, degeneracy, dependence).
    pub nests: bool,
    /// Run the affinity-vector invariant pass (MAI/CAI/MAC/CAC).
    pub vectors: bool,
    /// Run the mapping-verification pass (coverage, balance, η argmin).
    pub mapping: bool,
    /// Run the routing/topology pass (X-Y deadlock-freedom, reachability).
    pub routing: bool,
    /// Per-code severity overrides, applied at emission (last wins).
    pub overrides: Vec<(Code, Severity)>,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            epsilon: 1e-9,
            nests: true,
            vectors: true,
            mapping: true,
            routing: true,
            overrides: Vec::new(),
        }
    }
}

impl VerifyConfig {
    /// Adds a severity override for `code`, returning `self` for chaining.
    pub fn with_override(mut self, code: Code, severity: Severity) -> Self {
        self.overrides.push((code, severity));
        self
    }

    /// A configuration running only the mapping-verification pass — the
    /// cheap post-batch audit for hot paths.
    pub fn mapping_only() -> Self {
        VerifyConfig { nests: false, vectors: false, routing: false, ..Self::default() }
    }

    /// [`mapping_only`](Self::mapping_only) with η-minimality and load
    /// balance demoted to warnings — the profile for fallback answers
    /// (the locality heuristic, degraded-mode placements) that knowingly
    /// give up both for latency or survival. Every other mapping code
    /// keeps its severity.
    pub fn fallback_mapping() -> Self {
        Self::mapping_only()
            .with_override(Code::ETA_NOT_MINIMAL, Severity::Warn)
            .with_override(Code::LOAD_IMBALANCE, Severity::Warn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_runs_everything() {
        let c = VerifyConfig::default();
        assert!(c.nests && c.vectors && c.mapping && c.routing);
        assert!(c.overrides.is_empty());
    }

    #[test]
    fn mapping_only_disables_other_passes() {
        let c = VerifyConfig::mapping_only();
        assert!(c.mapping);
        assert!(!c.nests && !c.vectors && !c.routing);
    }

    #[test]
    fn fallback_mapping_demotes_only_eta_and_balance() {
        let c = VerifyConfig::fallback_mapping();
        let passes = VerifyConfig { overrides: Vec::new(), ..c.clone() };
        assert_eq!(passes, VerifyConfig::mapping_only());
        assert_eq!(
            c.overrides,
            vec![(Code::ETA_NOT_MINIMAL, Severity::Warn), (Code::LOAD_IMBALANCE, Severity::Warn)]
        );
    }

    #[test]
    fn with_override_chains() {
        let c = VerifyConfig::default().with_override(Code::EMPTY_NEST, Severity::Deny);
        assert_eq!(c.overrides, vec![(Code::EMPTY_NEST, Severity::Deny)]);
    }
}
