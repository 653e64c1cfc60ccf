//! Trace-driven manycore simulator for the `locmap` evaluation.
//!
//! This crate is the reproduction's stand-in for the paper's gem5
//! full-system platform: in-order 2-issue cores on a 2D-mesh NoC with
//! private L1s, private or S-NUCA shared L2 banks, write-invalidate
//! coherence with a sharer directory (lines are Modified or Exclusive),
//! and a DDR3/DDR4 DRAM model — all driven by the memory accesses of
//! mapped loop nests.
//!
//! The engine interleaves cores by always advancing the core with the
//! smallest local clock, so cross-core contention on links, banks and DRAM
//! is resolved in (approximate) global time order.
//!
//! # Example
//!
//! ```
//! use locmap_core::{Compiler, MappingOptions, Platform};
//! use locmap_loopir::{Program, LoopNest, AffineExpr, Access, DataEnv};
//! use locmap_sim::{SimConfig, Simulator};
//!
//! let mut p = Program::new("demo");
//! let a = p.add_array("A", 8, 4096);
//! let mut nest = LoopNest::rectangular("n", &[4096]);
//! nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
//! let id = p.add_nest(nest);
//!
//! let platform = Platform::paper_default();
//! let compiler = Compiler::builder(platform.clone()).build().unwrap();
//! let mapping = compiler.map_nest(&p, id, &DataEnv::new());
//!
//! let mut sim = Simulator::builder(platform).build().unwrap();
//! let result = sim.run_nest(&p, &mapping, &DataEnv::new());
//! assert!(result.cycles > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod engine;
mod knl;
mod multi;
mod result;
mod timeline;
mod viz;

pub use config::SimConfig;
pub use engine::{Simulator, SimulatorBuilder};
pub use knl::{knl_platform, KnlMode};
pub use multi::{run_multiprogram, MultiprogramResult, Slot};
pub use result::RunResult;
pub use timeline::{SimError, TransientFault};
pub use viz::{ascii_heatmap, router_pressure};

/// One-line import for mapping *and* simulating.
///
/// Extends `locmap_core::prelude` (platform, compiler, session, fault and
/// error types) with this crate's machine types; examples and integration
/// tests that drive the simulator need only this one glob.
pub mod prelude {
    pub use crate::config::SimConfig;
    pub use crate::engine::{Simulator, SimulatorBuilder};
    pub use crate::multi::{run_multiprogram, MultiprogramResult, Slot};
    pub use crate::result::RunResult;
    pub use crate::timeline::{SimError, TransientFault};
    pub use locmap_core::prelude::*;
}
