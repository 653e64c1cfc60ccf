//! Affine loop-nest intermediate representation for `locmap`.
//!
//! This crate is the compiler front half of the PLDI'18 reproduction: it
//! represents parallel loop nests the way the paper's PLUTO-based
//! implementation sees them — rectangular or triangular nests over arrays
//! with affine subscripts (regular applications) or index-array subscripts
//! (irregular applications) — and provides the analyses the mapping pass
//! consumes: iteration enumeration and stepping, iteration-set formation
//! and reference compilation. Whether a nest is legal to run in parallel
//! is the verifier's question (`locmap_verify::nests::check_nest`).
//!
//! # Example
//!
//! ```
//! use locmap_loopir::{Program, LoopNest, AffineExpr, Access};
//!
//! // for i in 0..N { A[i] = B[i] + C[i] + D[i] }  (Figure 5)
//! let mut p = Program::new("fig5");
//! let n = 1024;
//! let a = p.add_array("A", 8, n);
//! let b = p.add_array("B", 8, n);
//! let c = p.add_array("C", 8, n);
//! let d = p.add_array("D", 8, n);
//! let mut nest = LoopNest::rectangular("main", &[n as i64]);
//! nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
//! nest.add_ref(b, AffineExpr::var(0, 1), Access::Read);
//! nest.add_ref(c, AffineExpr::var(0, 1), Access::Read);
//! nest.add_ref(d, AffineExpr::var(0, 1), Access::Read);
//! let nest_id = p.add_nest(nest);
//! assert_eq!(p.nest(nest_id).iteration_count(&p.params()), 1024);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod affine;
mod hash;
mod iter;
mod nest;
mod program;

pub use affine::{AffineExpr, ParamEnv, ParamId};
pub use hash::{fx_digest, FxHasher};
pub use iter::{IterCursor, IterationSet, IterationSpace, IterVec};
pub use nest::{Access, ArrayRef, LoopBound, LoopNest, NestId, RefId, RefKind};
pub use program::{Array, ArrayId, CompiledRef, DataEnv, Program};
