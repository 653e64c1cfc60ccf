//! Admission control for the mapping service: bounded queues, priority
//! classes, a quality ladder, and a circuit breaker.
//!
//! A mapping service under overload has three defenses, applied in order:
//!
//! 1. **Backpressure** — admission is bounded; requests beyond
//!    capacity are rejected with [`TryMapError::QueueFull`] instead of
//!    queueing without limit (the caller retries, redirects, or drops).
//! 2. **Load shedding down a quality ladder** — admitted requests are
//!    served at a [`QualityLevel`] chosen from the current queue depth
//!    and the request's [`Priority`]: the full CME + η-minimization
//!    pipeline when lightly loaded, a memo-cache-only lookup under
//!    pressure, and the O(sets) round-robin-with-locality heuristic when
//!    saturated — mirroring the verifier-gated degradation ladder the
//!    resilience controller uses for faults.
//! 3. **A circuit breaker** — when the expensive path repeatedly blows
//!    its budget ([`LocmapError::DeadlineExceeded`]), the breaker trips
//!    [`BreakerState::Open`] and requests bypass straight to the cheap
//!    rungs; after a cool-down it goes [`BreakerState::HalfOpen`] and
//!    probes the expensive path, closing again only after consecutive
//!    successes. All breaker clocks are *observation counts*, not wall
//!    time, so its state machine is deterministic and unit-testable.
//!
//! The types here are pure data structures (no threads); a
//! [`crate::MappingSession`] embeds them behind a mutex, and
//! `bench::overload` drives them open-loop to measure goodput, shed
//! rate and tail latency.

use locmap_noc::LocmapError;
use std::collections::VecDeque;
use std::fmt;

/// Priority class of an admitted request. Higher classes are dequeued
/// first and ride the quality ladder further before being degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Shed first: background / speculative work.
    Low,
    /// The default class.
    Normal,
    /// Shed last: latency-critical foreground work.
    High,
}

impl Priority {
    /// All classes, highest first (dequeue order).
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Priority::Low => write!(f, "low"),
            Priority::Normal => write!(f, "normal"),
            Priority::High => write!(f, "high"),
        }
    }
}

/// The rung of the quality ladder a request was served at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QualityLevel {
    /// Round-robin-with-locality heuristic: O(sets), no analysis.
    Heuristic,
    /// Memo-cache lookup only; falls to [`QualityLevel::Heuristic`] on a
    /// miss.
    Cached,
    /// The full CME + affinity + η-minimization pipeline.
    Full,
}

impl fmt::Display for QualityLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QualityLevel::Heuristic => write!(f, "heuristic"),
            QualityLevel::Cached => write!(f, "cached"),
            QualityLevel::Full => write!(f, "full"),
        }
    }
}

/// Why a request was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TryMapError {
    /// The bounded admission queue is at capacity; the request was shed
    /// *before* any mapping work was spent on it.
    QueueFull {
        /// Requests in flight when the rejection happened.
        depth: usize,
        /// The bound, [`QUEUE_CAPACITY`].
        capacity: usize,
    },
    /// Mapping itself failed with a typed error (cancellation, invalid
    /// configuration, ...).
    Mapping(LocmapError),
}

impl fmt::Display for TryMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryMapError::QueueFull { depth, capacity } => {
                write!(f, "admission queue full ({depth}/{capacity} in flight)")
            }
            TryMapError::Mapping(e) => write!(f, "mapping failed: {e}"),
        }
    }
}

impl std::error::Error for TryMapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TryMapError::Mapping(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LocmapError> for TryMapError {
    fn from(e: LocmapError) -> Self {
        TryMapError::Mapping(e)
    }
}

/// Hard bound on requests in flight; beyond it, [`TryMapError::QueueFull`].
pub const QUEUE_CAPACITY: usize = 64;

/// Depth up to which a [`Priority::Normal`] request is served
/// [`QualityLevel::Full`].
pub const DEGRADE_DEPTH: usize = 8;

/// Depth up to which a [`Priority::Normal`] request is served at least
/// [`QualityLevel::Cached`]; beyond it, straight to the heuristic.
pub const HEURISTIC_DEPTH: usize = 24;

/// The [`QualityLevel`] for a request of `priority` admitted at queue depth
/// `depth` (1 = the request is alone).
///
/// [`Priority::High`] tolerates twice [`DEGRADE_DEPTH`] and
/// [`HEURISTIC_DEPTH`] before degrading; [`Priority::Low`] only half — so
/// under one load, the classes shed quality in order.
pub fn quality_for(depth: usize, priority: Priority) -> QualityLevel {
    let (degrade, heuristic) = match priority {
        Priority::High => (DEGRADE_DEPTH * 2, HEURISTIC_DEPTH * 2),
        Priority::Normal => (DEGRADE_DEPTH, HEURISTIC_DEPTH),
        Priority::Low => (DEGRADE_DEPTH / 2, HEURISTIC_DEPTH / 2),
    };
    if depth <= degrade.max(1) {
        QualityLevel::Full
    } else if depth <= heuristic.max(1) {
        QualityLevel::Cached
    } else {
        QualityLevel::Heuristic
    }
}

// Circuit-breaker tuning. All windows count *observations* (requests that
// consulted the breaker), not wall time, so the state machine is
// deterministic.

/// Budget blows within [`BREAKER_STRIKE_WINDOW`] that trip the breaker
/// open.
pub const BREAKER_STRIKE_THRESHOLD: usize = 3;

/// Sliding window (in observations) breaker strikes are counted over.
pub const BREAKER_STRIKE_WINDOW: u64 = 16;

/// Observations the breaker stays open before probing
/// ([`BreakerState::HalfOpen`]).
pub const BREAKER_COOLDOWN: u64 = 8;

/// Consecutive half-open successes required to close the breaker again.
pub const BREAKER_HALF_OPEN_PROBES: u32 = 2;

/// The breaker's position (standard three-state circuit breaker).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Expensive path allowed; strikes are being counted.
    #[default]
    Closed,
    /// Expensive path bypassed; cooling down.
    Open,
    /// Probing: expensive path allowed, watched closely — one failure
    /// reopens, [`BREAKER_HALF_OPEN_PROBES`] successes close.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

/// A deterministic circuit breaker around the expensive mapping path.
///
/// The same strike-window idea as the resilience controller's fault
/// quarantine: repeated recent failures mean the path is *currently*
/// hopeless, so stop paying for it; periodically probe to notice recovery.
#[derive(Debug, Clone, Default)]
pub struct CircuitBreaker {
    state: BreakerState,
    /// Observation counter: the breaker's deterministic clock.
    now: u64,
    /// Observation stamps of recent failures (Closed state only).
    strikes: VecDeque<u64>,
    /// When the breaker last tripped open.
    opened_at: u64,
    /// Consecutive successful probes while half-open.
    probe_successes: u32,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// One observation: may this request take the expensive path?
    ///
    /// Advances the deterministic clock; while open, the cool-down is
    /// measured in these calls, so a breaker only un-trips under traffic
    /// (exactly when probing is meaningful).
    pub fn admit_expensive(&mut self) -> bool {
        self.now += 1;
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if self.now.saturating_sub(self.opened_at) >= BREAKER_COOLDOWN {
                    self.state = BreakerState::HalfOpen;
                    self.probe_successes = 0;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// The admitted expensive request finished within budget.
    pub fn record_success(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.probe_successes += 1;
            if self.probe_successes >= BREAKER_HALF_OPEN_PROBES {
                self.state = BreakerState::Closed;
                self.strikes.clear();
            }
        }
    }

    /// The admitted expensive request blew its budget.
    pub fn record_failure(&mut self) {
        match self.state {
            BreakerState::HalfOpen => self.trip(),
            BreakerState::Closed => {
                self.strikes.push_back(self.now);
                while let Some(&t) = self.strikes.front() {
                    if self.now.saturating_sub(t) >= BREAKER_STRIKE_WINDOW {
                        self.strikes.pop_front();
                    } else {
                        break;
                    }
                }
                if self.strikes.len() >= BREAKER_STRIKE_THRESHOLD {
                    self.trip();
                }
            }
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.opened_at = self.now;
        self.strikes.clear();
        self.probe_successes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_degrades_with_depth_and_priority() {
        assert_eq!(quality_for(1, Priority::Normal), QualityLevel::Full);
        assert_eq!(quality_for(DEGRADE_DEPTH + 1, Priority::Normal), QualityLevel::Cached);
        assert_eq!(quality_for(HEURISTIC_DEPTH + 1, Priority::Normal), QualityLevel::Heuristic);
        // At the same depth, higher priority keeps higher quality.
        let d = DEGRADE_DEPTH + 1;
        assert_eq!(quality_for(d, Priority::High), QualityLevel::Full);
        assert_eq!(quality_for(d, Priority::Low), QualityLevel::Cached);
        assert!(quality_for(3 * HEURISTIC_DEPTH, Priority::High) == QualityLevel::Heuristic);
    }

    #[test]
    fn breaker_trips_after_strikes_in_window() {
        let mut b = CircuitBreaker::new();
        for _ in 0..3 {
            assert!(b.admit_expensive());
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit_expensive(), "open breaker bypasses the expensive path");
    }

    #[test]
    fn old_strikes_age_out_of_the_window() {
        let mut b = CircuitBreaker::new();
        // Two strikes, then enough successes to age them past the window.
        for _ in 0..BREAKER_STRIKE_THRESHOLD - 1 {
            assert!(b.admit_expensive());
            b.record_failure();
        }
        for _ in 0..BREAKER_STRIKE_WINDOW {
            assert!(b.admit_expensive());
            b.record_success();
        }
        assert!(b.admit_expensive());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "stale strikes must not count");
    }

    #[test]
    fn breaker_recovers_through_half_open_probes() {
        let mut b = CircuitBreaker::new();
        for _ in 0..BREAKER_STRIKE_THRESHOLD {
            b.admit_expensive();
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Cool down under traffic.
        for _ in 0..BREAKER_COOLDOWN - 1 {
            assert!(!b.admit_expensive());
        }
        assert!(b.admit_expensive(), "cooled-down breaker probes");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert!(b.admit_expensive());
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed, "enough probes close the breaker");
    }

    #[test]
    fn half_open_failure_reopens() {
        let mut b = CircuitBreaker::new();
        for _ in 0..BREAKER_STRIKE_THRESHOLD {
            b.admit_expensive();
            b.record_failure();
        }
        for _ in 0..BREAKER_COOLDOWN {
            b.admit_expensive();
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open, "failed probe reopens");
        assert!(!b.admit_expensive());
    }

    #[test]
    fn errors_format_usefully() {
        let e = TryMapError::QueueFull { depth: 64, capacity: 64 };
        assert!(e.to_string().contains("64/64"));
        let e = TryMapError::from(LocmapError::Cancelled { completed: 1, total: 2 });
        assert!(e.to_string().contains("cancelled"));
    }
}
