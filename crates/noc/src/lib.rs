//! 2D-mesh network-on-chip (NoC) model for location-aware computation mapping.
//!
//! This crate provides the physical-location substrate of the `locmap`
//! system: mesh topology and coordinates, Manhattan distances, logical
//! region partitioning (the paper's R1..R9), memory-controller placement,
//! deterministic X-Y routing, fault injection, and a cycle-based
//! link-contention model that approximates wormhole switching.
//!
//! The interconnect is a 2D mesh and nothing else: the mapper scores
//! regions by Manhattan distance and the verifier proves X-Y routing
//! deadlock-free on mesh channels, so the network routes over exactly
//! those channels. [`route`]`(mesh, faults, src, dst)` is the one routing
//! entry point — the X-Y route when it is intact, otherwise a
//! deterministic breadth-first detour over the surviving channels.
//!
//! One model of the surviving machine answers every question about it.
//! A single breadth-first search over the surviving channels serves the
//! detour, [`FaultState::check_connected`] and the public
//! [`FaultState::reachable_from`] query; because a link fault kills both
//! directions of its channel, one flood from any router finds its whole
//! connected component. A single nearest-survivor rule,
//! [`nearest_survivor`], picks the stand-in for every dead memory
//! controller, LLC bank or region.
//!
//! The model intentionally exposes *relative positions* of cores, LLC banks
//! and memory controllers — exactly the information the PLDI'18 paper argues
//! a compiler should consume.
//!
//! # Example
//!
//! ```
//! use locmap_noc::{Mesh, RegionGrid, McPlacement, Network, NocConfig, MessageKind};
//!
//! let mesh = Mesh::try_new(6, 6).unwrap();
//! let regions = RegionGrid::try_new(mesh, 3, 3).unwrap(); // 9 regions of 2x2 cores
//! let mcs = McPlacement::Corners.coords(mesh);
//! assert_eq!(mcs.len(), 4);
//!
//! let mut net = Network::new(NocConfig::default(), mesh);
//! let src = mesh.node_at(0, 0);
//! let dst = mesh.node_at(5, 5);
//! let arrival = net.send(0, src, dst, MessageKind::MemRequest);
//! assert!(arrival > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod control;
mod error;
mod faults;
mod mc;
mod network;
mod packet;
mod regions;
mod routing;
mod stats;
mod topology;

pub use control::{Budget, CancelToken, RunControl};
pub use error::{LocmapError, RouteError};
pub use faults::{
    link_exists, nearest_survivor, reverse_link, FaultComponent, FaultCounts, FaultEvent,
    FaultPlan, FaultState,
};
pub use mc::{McId, McPlacement};
pub use network::{Network, NocConfig};
pub use packet::{MessageKind, FLIT_BYTES};
pub use regions::{RegionGrid, RegionId};
pub use routing::{link_target, route, route_xy, Direction, Link};
pub use stats::NetworkStats;
pub use topology::{Coord, Mesh, NodeId};
