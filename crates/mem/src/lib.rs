//! Memory-system substrate for the `locmap` manycore simulator.
//!
//! Provides the pieces the PLDI'18 paper's evaluation platform needs below
//! the network: physical-address interleaving across memory controllers and
//! LLC banks (page- or cache-line-granularity round robin, plus KNL-style
//! cluster modes), set-associative caches with LRU replacement and
//! Modified/Exclusive line states, a sharer directory that invalidates
//! other copies on a write, and a DDR3/DDR4 DRAM timing model with per-bank
//! row buffers.
//!
//! # Example
//!
//! ```
//! use locmap_mem::{AddrMap, AddrMapConfig, Interleave, PhysAddr};
//!
//! // Paper default: pages round-robin over 4 MCs, lines round-robin over
//! // 36 LLC banks.
//! let map = AddrMap::new(AddrMapConfig::paper_default(36));
//! let a = PhysAddr(0x4_2000);
//! let mc = map.mc_of(a);
//! let bank = map.llc_bank_of(a);
//! assert!(mc.index() < 4 && bank < 36);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod cache;
mod directory;
mod dram;

pub use addr::{AddrMap, AddrMapConfig, ClusterMode, Interleave, PhysAddr};
pub use cache::{Access, Cache, CacheConfig, CacheStats, Evicted, LineState, Lookup};
pub use directory::Directory;
pub use dram::{Dram, DramConfig, DramKind, DramStats};
