//! Typed errors for timeline-driven (online-fault) simulation.
//!
//! [`crate::Simulator::run`] with a timeline executes a nest while a
//! [`locmap_noc::FaultPlan`]'s clock advances: at every `change_cycles()`
//! boundary the machine swaps in `state_at(cycle)`. Work that a newly-dead
//! component interrupts does not silently complete — it surfaces as a
//! [`TransientFault`] carrying everything a resilience controller needs to
//! recover: the blamed component, the interruption cycle, which iteration
//! sets had already finished, and the partial metrics of the segment.

use crate::result::RunResult;
use locmap_noc::{FaultComponent, LocmapError, NodeId};
use std::fmt;

/// A mid-run component death interrupted in-flight work.
///
/// Returned by [`crate::Simulator::run`] with a timeline when, at a fault
/// boundary, a packet (or a core) was using a component that just died.
/// The run is *not* lost: `completed` says which iteration sets finished
/// before the interruption (the interrupted iteration itself counts as
/// unfinished), and `partial` holds the metrics accumulated so far so the
/// caller can charge them to the final tally.
#[derive(Debug, Clone)]
pub struct TransientFault {
    /// The component whose death interrupted the work (blame order when
    /// several died at once: router, then link, then MC, then bank).
    pub component: FaultComponent,
    /// Absolute cycle of the fault boundary.
    pub cycle: u64,
    /// The core whose work was interrupted.
    pub core: NodeId,
    /// Index (into `mapping.sets`) of the interrupted iteration set.
    pub set: usize,
    /// Per-set completion flags at the interruption point, parallel to
    /// `mapping.sets`. Resume by re-running the sets still `false`
    /// (e.g. via `locmap_core::resilience::restrict_mapping`).
    pub completed: Vec<bool>,
    /// Metrics of the interrupted segment (cycles are relative to the
    /// segment's start). Advisory: the interrupted iteration's traffic is
    /// included even though the iteration must be re-executed.
    pub partial: RunResult,
}

impl fmt::Display for TransientFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transient fault at cycle {}: {} interrupted core {} in set {} ({}/{} sets complete)",
            self.cycle,
            self.component,
            self.core,
            self.set,
            self.completed.iter().filter(|&&c| c).count(),
            self.completed.len(),
        )
    }
}

/// Why a [`crate::Simulator::run`] could not complete.
#[derive(Debug)]
pub enum SimError {
    /// A mid-run fault interrupted in-flight work; retry or remap and
    /// resume from `completed`.
    Transient(Box<TransientFault>),
    /// The fault state at `cycle` is unsurvivable (machine partitioned,
    /// every MC or bank dead): no retry can help at this epoch.
    Unsurvivable {
        /// Absolute cycle at which the machine became unsurvivable.
        cycle: u64,
        /// The validation error from applying the state.
        source: LocmapError,
    },
    /// The mapping is not runnable under the fault state the run starts
    /// in (work placed on a dead core); remap before running.
    InvalidMapping(String),
    /// The run was cooperatively aborted through its
    /// [`locmap_noc::RunControl`]: the budget ran out or the token was
    /// cancelled ([`LocmapError::Cancelled`] /
    /// [`LocmapError::DeadlineExceeded`], with iteration-level progress).
    /// `partial` holds the metrics accumulated up to the abort point, so
    /// overload harnesses can still account the work that was spent.
    Aborted {
        /// The typed cancellation/deadline error from the checkpoint.
        reason: LocmapError,
        /// Metrics of the aborted segment (cycles relative to its start).
        partial: Box<RunResult>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Transient(t) => write!(f, "{t}"),
            SimError::Unsurvivable { cycle, source } => {
                write!(f, "machine unsurvivable at cycle {cycle}: {source}")
            }
            SimError::InvalidMapping(msg) => write!(f, "invalid mapping: {msg}"),
            SimError::Aborted { reason, partial } => {
                write!(f, "simulation aborted after {} cycles: {reason}", partial.cycles)
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Unsurvivable { source, .. } => Some(source),
            SimError::Aborted { reason, .. } => Some(reason),
            _ => None,
        }
    }
}
