//! The verifier's pass sequence, in two halves, and the extension traits
//! that hang it off [`Compiler`] and [`MappingSession`]. The verifier
//! stays an optional layer, so `locmap-core` never depends on it.

use crate::config::VerifyConfig;
use crate::diag::{Code, Diagnostic, DiagnosticSink};
use crate::{mapping, nests, routing, vectors};
use locmap_core::cache::{fingerprint, hash_request};
use locmap_core::{Compiler, MapRequest, MapResponse, MappingSession, NestMapping};
use locmap_loopir::{DataEnv, NestId, Program};
use locmap_noc::FaultPlan;
use std::collections::btree_map::{BTreeMap, Entry};

/// The platform half of the pass sequence: the compiler's MAC/CAC tables
/// and the topology's X-Y routes, then — given a fault plan — every arm
/// of the plan. Nothing runs under [`VerifyConfig::mapping_only`].
pub fn check_platform(
    compiler: &Compiler,
    plan: Option<&FaultPlan>,
    cfg: &VerifyConfig,
    sink: &mut DiagnosticSink,
) {
    if cfg.mapping_only {
        return;
    }
    vectors::check_platform_vectors(compiler, sink);
    routing::check_topology(compiler.platform(), sink);
    if let Some(plan) = plan {
        routing::check_fault_plan(compiler.platform(), plan, sink);
    }
}

/// The request half of the pass sequence: the nest lints and the
/// mapping's affinity vectors (both skipped under
/// [`VerifyConfig::mapping_only`]), then the mapping itself.
pub fn check_request(
    compiler: &Compiler,
    request: &MapRequest<'_>,
    mapping: &NestMapping,
    cfg: &VerifyConfig,
    sink: &mut DiagnosticSink,
) {
    if !cfg.mapping_only {
        nests::check_nest(request.program, request.nest, request.data, sink);
        vectors::check_mapping_vectors(compiler, mapping, sink);
    }
    mapping::check_mapping(compiler, request.program, request.nest, mapping, sink);
}

/// Post-mapping verification on a [`Compiler`].
pub trait VerifyMapping {
    /// Runs the configured verifier passes over `mapping` and returns the
    /// collected diagnostics. A clean run returns an empty sink.
    fn verify_mapping(
        &self,
        program: &Program,
        nest: NestId,
        data: &DataEnv,
        mapping: &NestMapping,
        cfg: &VerifyConfig,
    ) -> DiagnosticSink;
}

impl VerifyMapping for Compiler {
    fn verify_mapping(
        &self,
        program: &Program,
        nest: NestId,
        data: &DataEnv,
        mapping: &NestMapping,
        cfg: &VerifyConfig,
    ) -> DiagnosticSink {
        let mut sink = DiagnosticSink::with_overrides(&cfg.overrides);
        check_platform(self, None, cfg, &mut sink);
        check_request(self, &MapRequest { program, nest, data }, mapping, cfg, &mut sink);
        sink
    }
}

/// Post-batch verification on a [`MappingSession`].
pub trait VerifySession {
    /// Verifies the responses of one `map_batch` call against the requests
    /// that produced them.
    ///
    /// Duplicate requests (the memo cache's bread and butter) are grouped
    /// by the content hash the memo keys on, so equal kernels at different
    /// addresses fall in one group: one representative per group is fully
    /// verified and the rest are checked for bit-identity with it — a
    /// divergent duplicate is exactly what a stale memo entry looks like,
    /// and is reported as [`Code::STALE_MAPPING`] without re-running the
    /// expensive passes. Platform-level checks (MAC/CAC tables, topology)
    /// run once per call.
    fn verify_batch(
        &self,
        requests: &[MapRequest<'_>],
        responses: &[MapResponse],
        cfg: &VerifyConfig,
    ) -> DiagnosticSink;
}

impl VerifySession for MappingSession {
    fn verify_batch(
        &self,
        requests: &[MapRequest<'_>],
        responses: &[MapResponse],
        cfg: &VerifyConfig,
    ) -> DiagnosticSink {
        let mut sink = DiagnosticSink::with_overrides(&cfg.overrides);
        if requests.len() != responses.len() {
            sink.emit(Diagnostic::new(
                Code::SHAPE_MISMATCH,
                format!("{} requests but {} responses", requests.len(), responses.len()),
            ));
            return sink;
        }
        let compiler = self.compiler();
        check_platform(compiler, None, cfg, &mut sink);
        // The first index of each group is its representative.
        let mut groups = BTreeMap::new();
        for (i, (req, resp)) in requests.iter().zip(responses).enumerate() {
            let key = fingerprint(|h| hash_request(h, req.program, req.nest, req.data));
            match groups.entry((key.lo, key.hi)) {
                Entry::Vacant(e) => {
                    e.insert(i);
                    check_request(compiler, req, &resp.mapping, cfg, &mut sink);
                }
                Entry::Occupied(e) => {
                    let rep = *e.get();
                    if responses[rep].mapping != resp.mapping {
                        sink.emit(
                            Diagnostic::new(
                                Code::STALE_MAPPING,
                                format!(
                                    "response {i} diverges from response {rep} of the identical \
                                     request — a stale or corrupted memo entry"
                                ),
                            )
                            .suggest("clear the session's memo caches and re-run the batch"),
                        );
                    }
                }
            }
        }
        sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmap_core::{MappingSession, Platform};
    use locmap_loopir::{Access, AffineExpr, LoopNest};

    fn workload() -> (Program, NestId) {
        let mut p = Program::new("w");
        let n = 4096u64;
        let a = p.add_array("A", 8, n);
        let mut nest = LoopNest::rectangular("n", &[n as i64]);
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
        let id = p.add_nest(nest);
        (p, id)
    }

    #[test]
    fn compiler_extension_verifies_clean() {
        let (p, id) = workload();
        let data = DataEnv::new();
        let c = Compiler::builder(Platform::paper_default()).build().unwrap();
        let m = c.map_nest(&p, id, &data);
        let sink = c.verify_mapping(&p, id, &data, &m, &VerifyConfig::default());
        assert!(sink.diagnostics().is_empty(), "{}", sink.report());
    }

    #[test]
    fn session_batch_verifies_clean_and_dedupes() {
        let (p, id) = workload();
        let data = DataEnv::new();
        let session = MappingSession::builder(Platform::paper_default()).build().unwrap();
        let reqs = vec![MapRequest { program: &p, nest: id, data: &data }; 4];
        let resps = session.map_batch(&reqs);
        let sink = session.verify_batch(&reqs, &resps, &VerifyConfig::default());
        assert!(sink.diagnostics().is_empty(), "{}", sink.report());
    }

    #[test]
    fn divergent_duplicate_response_is_stale() {
        let (p, id) = workload();
        let data = DataEnv::new();
        let session = MappingSession::builder(Platform::paper_default()).build().unwrap();
        let reqs = vec![MapRequest { program: &p, nest: id, data: &data }; 2];
        let mut resps = session.map_batch(&reqs);
        // Corrupt the duplicate only: same request, different answer.
        resps[1].mapping.needs_inspector = true;
        let sink = session.verify_batch(&reqs, &resps, &VerifyConfig::mapping_only());
        assert!(sink.has(Code::STALE_MAPPING), "{}", sink.report());
    }

    #[test]
    fn length_mismatch_is_reported() {
        let (p, id) = workload();
        let data = DataEnv::new();
        let session = MappingSession::builder(Platform::paper_default()).build().unwrap();
        let reqs = vec![MapRequest { program: &p, nest: id, data: &data }];
        let sink = session.verify_batch(&reqs, &[], &VerifyConfig::default());
        assert!(sink.has(Code::SHAPE_MISMATCH), "{}", sink.report());
    }
}
