//! Cooperative cancellation and budget enforcement for long-running work.
//!
//! The mapping and simulation pipelines are pure compute loops with no
//! natural preemption points, so overload control has to be cooperative:
//! hot loops call [`RunControl::checkpoint`] every bounded amount of work,
//! and the checkpoint converts an externally set [`CancelToken`] or an
//! exhausted [`Budget`] into a typed [`LocmapError`] carrying partial
//! progress. The guarantees are:
//!
//! - **Bounded abort latency.** A loop that checkpoints every `k` work
//!   units observes a cancellation within `k` units of the token being
//!   set — pinned by tests in the consuming crates.
//! - **Determinism.** Work-unit budgets and poll-trip tokens are counted
//!   on deterministic atomic counters; the wall clock is only consulted
//!   when a wall deadline was explicitly configured, so budget-free and
//!   wall-free runs behave identically across machines.
//! - **No poisoning.** Checkpoints return `Err` instead of panicking, so
//!   callers unwind cleanly through caches and queues.

use crate::error::LocmapError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often (in checkpoint calls) the wall clock is consulted when a
/// wall deadline is configured. Work-unit budgets are checked on every
/// call; `Instant::now` is ~20ns, so amortizing it keeps checkpoints
/// cheap inside per-iteration loops.
const WALL_CHECK_PERIOD: u64 = 64;

/// A cloneable, thread-safe cancellation flag.
///
/// Clones share the same underlying flag: cancelling any clone cancels
/// them all. The token is *cooperative* — it only takes effect at the
/// next [`RunControl::checkpoint`] of the loop observing it.
///
/// For deterministic tests, [`CancelToken::cancel_after_polls`] builds a
/// token that trips itself after a fixed number of observations, which
/// pins the exact cancellation point independent of timing.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug)]
struct TokenInner {
    cancelled: AtomicBool,
    /// Remaining observations before the token self-cancels;
    /// `u64::MAX` disables the trip counter.
    trip_after: AtomicU64,
}

impl Default for TokenInner {
    fn default() -> Self {
        TokenInner { cancelled: AtomicBool::new(false), trip_after: AtomicU64::new(u64::MAX) }
    }
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that cancels itself after being polled `polls` times.
    ///
    /// `polls == 0` means the token is already cancelled. This gives
    /// tests a deterministic cancellation point that does not depend on
    /// wall-clock timing or thread scheduling.
    pub fn cancel_after_polls(polls: u64) -> Self {
        let t = Self::new();
        if polls == 0 {
            t.cancel();
        } else {
            t.inner.trip_after.store(polls, Ordering::SeqCst);
        }
        t
    }

    /// Sets the flag; every holder of a clone observes it at its next
    /// poll. Idempotent.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Non-mutating read of the flag (does not advance the trip counter).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
    }

    /// One cooperative observation: returns `true` if the token is (or
    /// just became, via the trip counter) cancelled.
    pub fn poll(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if self.inner.trip_after.load(Ordering::Relaxed) != u64::MAX
            && self.inner.trip_after.fetch_sub(1, Ordering::SeqCst) <= 1
        {
            self.cancel();
            return true;
        }
        false
    }
}

/// Resource limits for one unit of admitted work.
///
/// A budget is *absent by default*: [`Budget::unlimited`] never trips.
/// Work units are whatever the instrumented loop says they are — loop
/// iterations for the CME estimator and simulator, iteration sets for
/// the affinity passes — so a budget of `n` units bounds the abort
/// latency at one checkpoint interval past `n`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum deterministic work units before the run is aborted.
    pub work_units: Option<u64>,
    /// Maximum wall-clock time before the run is aborted.
    pub wall: Option<Duration>,
}

impl Budget {
    /// A budget that never trips.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Caps deterministic work units (loop iterations / sets scanned).
    pub fn with_work_units(mut self, units: u64) -> Self {
        self.work_units = Some(units);
        self
    }

    /// Caps wall-clock time from [`RunControl::new`] onward.
    pub fn with_wall(mut self, wall: Duration) -> Self {
        self.wall = Some(wall);
        self
    }
}

/// The per-run handle hot loops checkpoint against.
///
/// Bundles a [`CancelToken`], a [`Budget`], and the running spend. Loops
/// call [`checkpoint`](RunControl::checkpoint) with the work performed
/// since the last call plus their current progress; the first checkpoint
/// past a limit returns [`LocmapError::Cancelled`] or
/// [`LocmapError::DeadlineExceeded`] with that progress embedded.
#[derive(Debug)]
pub struct RunControl {
    token: CancelToken,
    budget: Budget,
    started: Instant,
    spent: AtomicU64,
    calls: AtomicU64,
}

impl Default for RunControl {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl RunControl {
    /// A control that can only be cancelled through `token`.
    pub fn new(token: CancelToken, budget: Budget) -> Self {
        RunControl {
            token,
            budget,
            started: Instant::now(),
            spent: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    /// A control that never aborts — the identity element used by the
    /// plain (non-`_ctl`) entry points.
    pub fn unlimited() -> Self {
        Self::new(CancelToken::new(), Budget::unlimited())
    }

    /// The token this control observes (cancel it from another thread).
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// The configured budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Deterministic work units recorded by checkpoints so far.
    pub fn spent_units(&self) -> u64 {
        self.spent.load(Ordering::SeqCst)
    }

    /// Records `units` of work and aborts if a limit has been crossed.
    ///
    /// `completed`/`total` describe the caller's progress in its own
    /// terms (iterations, sets, requests) and are embedded verbatim in
    /// the error so callers can report partial progress. Cancellation is
    /// checked before budgets: a cancelled run reports `Cancelled` even
    /// if its budget is also exhausted.
    pub fn checkpoint(
        &self,
        units: u64,
        completed: usize,
        total: usize,
    ) -> Result<(), LocmapError> {
        let spent = self.spent.fetch_add(units, Ordering::SeqCst) + units;
        if self.token.poll() {
            return Err(LocmapError::Cancelled { completed, total });
        }
        if let Some(cap) = self.budget.work_units {
            if spent > cap {
                return Err(LocmapError::DeadlineExceeded { completed, total, spent_units: spent });
            }
        }
        if let Some(wall) = self.budget.wall {
            let calls = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
            if calls.is_multiple_of(WALL_CHECK_PERIOD) && self.started.elapsed() > wall {
                return Err(LocmapError::DeadlineExceeded { completed, total, spent_units: spent });
            }
        }
        Ok(())
    }

    /// True when the wall deadline (if any) has already elapsed. Unlike
    /// [`checkpoint`](RunControl::checkpoint) this reads the clock
    /// unconditionally; admission queues use it to drop stale requests
    /// before spending any work on them.
    pub fn wall_expired(&self) -> bool {
        self.budget.wall.is_some_and(|w| self.started.elapsed() > w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_control_never_trips() {
        let ctl = RunControl::unlimited();
        for i in 0..10_000 {
            assert!(ctl.checkpoint(3, i, 10_000).is_ok());
        }
        assert_eq!(ctl.spent_units(), 30_000);
    }

    #[test]
    fn cancel_is_observed_at_next_checkpoint() {
        let token = CancelToken::new();
        let ctl = RunControl::new(token.clone(), Budget::unlimited());
        assert!(ctl.checkpoint(1, 0, 4).is_ok());
        token.cancel();
        assert_eq!(ctl.checkpoint(1, 1, 4), Err(LocmapError::Cancelled { completed: 1, total: 4 }));
        // Idempotent: later checkpoints keep reporting cancellation.
        assert!(ctl.checkpoint(1, 2, 4).is_err());
    }

    #[test]
    fn poll_trip_token_cancels_deterministically() {
        let token = CancelToken::cancel_after_polls(3);
        assert!(!token.poll());
        assert!(!token.poll());
        assert!(token.poll());
        assert!(token.is_cancelled());
        assert!(CancelToken::cancel_after_polls(0).is_cancelled());
    }

    #[test]
    fn work_unit_budget_trips_exactly_past_the_cap() {
        let ctl = RunControl::new(CancelToken::new(), Budget::unlimited().with_work_units(10));
        for i in 0..10 {
            assert!(ctl.checkpoint(1, i, 20).is_ok(), "unit {i} within budget");
        }
        let err = ctl.checkpoint(1, 10, 20).unwrap_err();
        assert_eq!(
            err,
            LocmapError::DeadlineExceeded { completed: 10, total: 20, spent_units: 11 }
        );
    }

    #[test]
    fn cancellation_wins_over_budget() {
        let ctl = RunControl::new(
            CancelToken::cancel_after_polls(0),
            Budget::unlimited().with_work_units(0),
        );
        assert_eq!(ctl.checkpoint(5, 0, 1), Err(LocmapError::Cancelled { completed: 0, total: 1 }));
    }

    #[test]
    fn wall_deadline_trips_after_elapsing() {
        let ctl =
            RunControl::new(CancelToken::new(), Budget::unlimited().with_wall(Duration::ZERO));
        assert!(ctl.wall_expired());
        // The amortized check fires within one wall-check period.
        let mut tripped = false;
        for i in 0..(2 * WALL_CHECK_PERIOD as usize) {
            if ctl.checkpoint(1, i, 128).is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "wall deadline never observed");
    }

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        b.cancel();
        assert!(a.is_cancelled());
    }
}
