//! Verifier configuration.

use crate::diag::{Code, Severity};
use serde::{Deserialize, Serialize};

/// Tolerance for floating-point comparisons (vector masses, η values).
pub(crate) const EPSILON: f64 = 1e-9;

/// Which passes run and how strictly findings are treated.
///
/// The default runs every pass with every code at its documented
/// severity — the configuration CI gates on.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct VerifyConfig {
    /// Run only the mapping-verification pass: no nest lints, no
    /// affinity-vector invariants, no topology.
    pub mapping_only: bool,
    /// Per-code severity overrides, applied at emission (last wins).
    pub overrides: Vec<(Code, Severity)>,
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
        VerifyConfig { mapping_only: true, overrides: Vec::new() }
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
        assert!(!c.mapping_only);
        assert!(c.overrides.is_empty());
    }

    #[test]
    fn mapping_only_disables_other_passes() {
        let c = VerifyConfig::mapping_only();
        assert!(c.mapping_only);
        assert!(c.overrides.is_empty());
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
