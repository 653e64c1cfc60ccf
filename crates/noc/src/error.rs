//! Typed errors shared across the `locmap` stack.
//!
//! Construction-time mistakes (bad mesh dimensions, region grids that do
//! not fit, inconsistent cache geometry) and runtime degradation events
//! (a fault plan disconnecting part of the mesh) all surface as
//! [`LocmapError`] values rather than panics, so callers — the CLI in
//! particular — can print a diagnostic and exit cleanly.

use crate::topology::NodeId;
use std::fmt;

/// Why a route could not be computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// No alive path exists between the two nodes under the active fault
    /// state (or one endpoint's router is itself dead).
    Unreachable {
        /// Source node of the failed route.
        from: NodeId,
        /// Destination node of the failed route.
        to: NodeId,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Unreachable { from, to } => {
                write!(f, "no surviving route from {from} to {to}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Errors produced anywhere in the locmap stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocmapError {
    /// A configuration value is out of range or inconsistent (zero mesh
    /// dimension, cache geometry that does not divide, a region grid
    /// larger than its mesh, ...). The string names the offending field.
    InvalidConfig(String),
    /// Two nodes that must communicate have no surviving path under the
    /// active fault state.
    Unreachable {
        /// Source node of the failed route.
        from: NodeId,
        /// Destination node of the failed route.
        to: NodeId,
    },
    /// A region that must supply cores (or LLC banks) has none alive.
    EmptyRegion(usize),
    /// A fault plan is self-contradictory or leaves no usable hardware
    /// (all memory controllers dead, repair scheduled before injection,
    /// the same component injected twice, ...).
    FaultConflict(String),
    /// A cooperative [`CancelToken`](crate::CancelToken) was observed
    /// mid-run. `completed`/`total` report the caller-defined progress
    /// (iterations, sets, requests) reached when the abort took effect.
    Cancelled {
        /// Progress units finished before the abort.
        completed: usize,
        /// Total progress units the run would have performed.
        total: usize,
    },
    /// A [`Budget`](crate::Budget)'s work units were exhausted mid-run.
    DeadlineExceeded {
        /// Progress units finished before the abort.
        completed: usize,
        /// Total progress units the run would have performed.
        total: usize,
        /// Deterministic work units spent when the budget tripped.
        spent_units: u64,
    },
}

impl fmt::Display for LocmapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocmapError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            LocmapError::Unreachable { from, to } => {
                write!(f, "no surviving route from {from} to {to}")
            }
            LocmapError::EmptyRegion(r) => {
                write!(f, "region R{} has no surviving cores to place work on", r + 1)
            }
            LocmapError::FaultConflict(msg) => write!(f, "conflicting fault plan: {msg}"),
            LocmapError::Cancelled { completed, total } => {
                write!(f, "cancelled after {completed}/{total} units of work")
            }
            LocmapError::DeadlineExceeded { completed, total, spent_units } => write!(
                f,
                "deadline exceeded after {completed}/{total} units of work ({spent_units} budget units spent)"
            ),
        }
    }
}

impl std::error::Error for LocmapError {}

impl From<RouteError> for LocmapError {
    fn from(e: RouteError) -> Self {
        match e {
            RouteError::Unreachable { from, to } => LocmapError::Unreachable { from, to },
        }
    }
}

impl From<LocmapError> for String {
    fn from(e: LocmapError) -> Self {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_problem() {
        let e = LocmapError::InvalidConfig("mesh width must be non-zero".into());
        assert!(e.to_string().contains("mesh width"));
        let e = LocmapError::Unreachable { from: NodeId(0), to: NodeId(7) };
        assert!(e.to_string().contains("n0") && e.to_string().contains("n7"));
        let e = LocmapError::EmptyRegion(3);
        assert!(e.to_string().contains("R4"));
        let e = LocmapError::Cancelled { completed: 3, total: 8 };
        assert!(e.to_string().contains("3/8"));
        let e = LocmapError::DeadlineExceeded { completed: 1, total: 2, spent_units: 99 };
        assert!(e.to_string().contains("deadline") && e.to_string().contains("99"));
    }

    #[test]
    fn route_error_converts() {
        let r = RouteError::Unreachable { from: NodeId(1), to: NodeId(2) };
        let l: LocmapError = r.into();
        assert_eq!(l, LocmapError::Unreachable { from: NodeId(1), to: NodeId(2) });
        let s: String = l.into();
        assert!(s.contains("n1"));
    }
}
