//! `locmap-verify` — a diagnostics-driven static verifier and lint pass
//! for the locmap toolchain.
//!
//! The mapping pipeline (`locmap-core`) is fast precisely because it
//! trusts its inputs and memoizes its outputs; this crate is the
//! counterweight. Four independent passes re-derive what the pipeline
//! claims, from first principles where cheap and by re-running seeded
//! stages where not, and report every discrepancy as a structured
//! [`Diagnostic`] with a stable `LM####` [`Code`]:
//!
//! 1. **Loop-nest lints** ([`nests`]) — out-of-bounds accesses proven by
//!    interval arithmetic or a walk of the space against declared array
//!    extents, empty nests, and loop
//!    parallelization that splits a carried dependence.
//! 2. **Affinity-vector invariants** ([`vectors`]) — MAI/CAI
//!    non-negativity and mass bounds, and MAC/CAC tables compared against
//!    an independent recomputation from Manhattan distances (fault-masked
//!    exactly per the active [`locmap_noc::FaultState`]).
//! 3. **Mapping verification** ([`mapping`]) — every iteration set
//!    assigned to exactly one live region, per-region load within the
//!    balancer's tolerance, and an independent η recomputation confirming
//!    each set sits where its affinity says it should (the check that
//!    catches stale memo-cache entries).
//! 4. **Routing & topology** ([`routing`]) — X-Y route enumeration proving
//!    deadlock-freedom, and fault-plan replay proving every surviving
//!    core can still reach a memory controller and an LLC bank.
//!
//! # Quickstart
//!
//! ```
//! use locmap_core::prelude::*;
//! use locmap_verify::{VerifyConfig, VerifyMapping};
//!
//! let mut program = Program::new("demo");
//! let a = program.add_array("A", 8, 4096);
//! let mut nest = LoopNest::rectangular("init", &[4096]);
//! nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
//! let id = program.add_nest(nest);
//!
//! let compiler = Compiler::builder(Platform::paper_default()).build().unwrap();
//! let data = DataEnv::new();
//! let mapping = compiler.map_nest(&program, id, &data);
//!
//! let sink = compiler.verify_mapping(&program, id, &data, &mapping, &VerifyConfig::default());
//! assert!(sink.is_clean(), "{}", sink.report());
//! ```
//!
//! The passes run in one sequence, in two halves: [`check_platform`] once
//! per call, then [`check_request`] once per nest. `verify_mapping`,
//! `verify_batch` and the `locmap verify` CLI subcommand (over the shipped
//! workload suite, exiting nonzero on any Deny-level finding) all call it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod diag;
pub mod ext;
pub mod mapping;
pub mod nests;
pub mod routing;
pub mod vectors;

pub use config::VerifyConfig;
pub use diag::{Code, Diagnostic, DiagnosticSink, Entity, Severity};
pub use ext::{check_platform, check_request, VerifyMapping, VerifySession};
