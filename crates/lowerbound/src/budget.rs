//! Cooperative solve budgets.
//!
//! Long-running campaigns cannot afford one adversarial instance wedging
//! a worker: the MCMF substrate under the LP relaxation is polynomial
//! but its constants grow with the time horizon, and a fuzzer (or a
//! user) will eventually feed it something slow. A [`SolveBudget`]
//! carries an optional wall-clock deadline and an optional shared cancel
//! flag; the solver polls it at phase boundaries and every few thousand
//! heap operations, so a budgeted solve returns `None` within
//! milliseconds of the deadline instead of being killed mid-write or
//! running forever.
//!
//! Budgets are *cooperative*: exceeding one abandons the solve cleanly
//! (no partial result is ever reported as a bound — a partial flow's
//! cost is not a valid LP value). Callers that need an answer anyway
//! fall back to the closed-form bounds, recording the degradation — see
//! `tf-harness`'s campaign layer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A wall-clock deadline and/or external cancel flag for one solve.
///
/// Cheap to clone (an `Instant` and an `Arc`); [`SolveBudget::unlimited`]
/// never trips and compiles down to two branch-predicted loads per poll.
#[derive(Clone, Debug, Default)]
pub struct SolveBudget {
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
}

/// The never-tripping budget behind `LbRequest::new`.
pub(crate) static UNLIMITED: SolveBudget = SolveBudget {
    deadline: None,
    cancel: None,
};

impl SolveBudget {
    /// A budget that never trips: the solve runs to completion.
    pub fn unlimited() -> Self {
        SolveBudget::default()
    }

    /// Trip once `timeout` of wall clock has elapsed from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        SolveBudget {
            deadline: Some(Instant::now() + timeout),
            cancel: None,
        }
    }

    /// [`SolveBudget::with_timeout`] when a timeout is configured,
    /// [`SolveBudget::unlimited`] otherwise — the shape campaign and
    /// server scopes hold (`Option<Duration>` from a `--task-timeout`
    /// flag that may be absent).
    pub fn with_optional_timeout(timeout: Option<Duration>) -> Self {
        match timeout {
            Some(t) => SolveBudget::with_timeout(t),
            None => SolveBudget::unlimited(),
        }
    }

    /// Also trip when `flag` becomes `true` (e.g. a supervising thread
    /// or signal handler requesting cancellation).
    pub fn cancelled_by(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Whether this budget can never trip.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none()
    }

    /// Poll the budget: `true` once the deadline has passed or the
    /// cancel flag is set. Monotone — once `true`, always `true`.
    pub fn exhausted(&self) -> bool {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return true;
            }
        }
        match self.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// Time left until the deadline (`None` if no deadline is set;
    /// zero once exhausted).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = SolveBudget::unlimited();
        assert!(b.is_unlimited());
        assert!(!b.exhausted());
        assert_eq!(b.remaining(), None);
    }

    #[test]
    fn zero_timeout_trips_immediately() {
        let b = SolveBudget::with_timeout(Duration::ZERO);
        assert!(!b.is_unlimited());
        assert!(b.exhausted());
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn optional_timeout_maps_none_to_unlimited() {
        assert!(SolveBudget::with_optional_timeout(None).is_unlimited());
        assert!(!SolveBudget::with_optional_timeout(Some(Duration::from_secs(1))).is_unlimited());
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let b = SolveBudget::with_timeout(Duration::from_secs(3600));
        assert!(!b.exhausted());
        assert!(b.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn cancel_flag_trips_independently_of_deadline() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = SolveBudget::with_timeout(Duration::from_secs(3600)).cancelled_by(flag.clone());
        assert!(!b.exhausted());
        flag.store(true, Ordering::Relaxed);
        assert!(b.exhausted());
    }
}
