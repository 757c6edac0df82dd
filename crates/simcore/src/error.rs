//! Error types for trace construction and simulation.

use std::fmt;

/// Errors raised by trace validation and the simulation engine.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A job had a non-finite or non-positive size.
    BadJobSize {
        /// Offending job id.
        job: u32,
        /// The rejected size value.
        size: f64,
    },
    /// A job had a non-finite or negative arrival time.
    BadArrival {
        /// Offending job id.
        job: u32,
        /// The rejected arrival value.
        arrival: f64,
    },
    /// A job had a non-finite or non-positive weight.
    BadWeight {
        /// Offending job id.
        job: u32,
        /// The rejected weight value.
        weight: f64,
    },
    /// Machine count must be at least one.
    NoMachines,
    /// Speed must be finite and positive.
    BadSpeed(f64),
    /// A discrete-RR time quantum must be finite and positive. Reported
    /// by the quantum RR simulator; an earlier revision reused
    /// [`SimError::BadSpeed`] here, which printed a misleading "speed
    /// ... must be finite and positive" diagnostic for a quantum error.
    BadQuantum(f64),
    /// A context-switch overhead must be finite and non-negative.
    BadCtxSwitch(f64),
    /// An allocator returned a rate above the per-job cap (one machine of
    /// speed `s`), beyond tolerance.
    RateCapViolated {
        /// Offending job id.
        job: u32,
        /// The rate the allocator returned.
        rate: f64,
        /// The per-job cap it violated.
        cap: f64,
    },
    /// An allocator returned rates summing to more than `m·s`, beyond
    /// tolerance.
    TotalRateViolated {
        /// Sum of the returned rates.
        total: f64,
        /// The aggregate cap `m·s`.
        cap: f64,
    },
    /// An allocator returned a negative or non-finite rate.
    BadRate {
        /// Offending job id.
        job: u32,
        /// The rejected rate value.
        rate: f64,
    },
    /// The engine exceeded its event budget; either the instance is far
    /// larger than expected or a policy's review hints do not converge.
    EventBudgetExhausted {
        /// Events processed when the budget tripped.
        events: u64,
    },
    /// The engine made a zero-length step twice in a row without any state
    /// change — a policy is starving all jobs while work remains.
    Stalled {
        /// Simulation time at the stall.
        time: f64,
        /// Number of alive jobs at the stall.
        alive: usize,
    },
    /// A continuously-varying policy was run on the streaming engine
    /// without an explicit [`crate::StreamOptions::max_step`]. The
    /// materialised engine derives a default step from the mean job size
    /// of the whole trace; a stream has no such aggregate, so the caller
    /// must choose the integration step.
    MissingMaxStep,
    /// A job source produced more jobs than [`crate::JobId`] can address
    /// (`u32::MAX`); the streaming engine refuses to wrap ids.
    JobLimitExceeded {
        /// The id space that was exhausted.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadJobSize { job, size } => {
                write!(f, "job {job}: size {size} must be finite and positive")
            }
            SimError::BadArrival { job, arrival } => {
                write!(
                    f,
                    "job {job}: arrival {arrival} must be finite and non-negative"
                )
            }
            SimError::BadWeight { job, weight } => {
                write!(f, "job {job}: weight {weight} must be finite and positive")
            }
            SimError::NoMachines => write!(f, "machine count must be at least 1"),
            SimError::BadSpeed(s) => write!(f, "speed {s} must be finite and positive"),
            SimError::BadQuantum(q) => {
                write!(f, "quantum {q} must be finite and positive")
            }
            SimError::BadCtxSwitch(c) => {
                write!(
                    f,
                    "context-switch overhead {c} must be finite and non-negative"
                )
            }
            SimError::RateCapViolated { job, rate, cap } => {
                write!(f, "job {job}: rate {rate} exceeds per-job cap {cap}")
            }
            SimError::TotalRateViolated { total, cap } => {
                write!(f, "total rate {total} exceeds aggregate cap {cap}")
            }
            SimError::BadRate { job, rate } => {
                write!(f, "job {job}: rate {rate} must be finite and non-negative")
            }
            SimError::EventBudgetExhausted { events } => {
                write!(f, "simulation exceeded event budget after {events} events")
            }
            SimError::Stalled { time, alive } => {
                write!(f, "simulation stalled at t={time} with {alive} alive jobs")
            }
            SimError::MissingMaxStep => {
                write!(
                    f,
                    "streaming a continuously-varying policy requires an explicit max_step"
                )
            }
            SimError::JobLimitExceeded { limit } => {
                write!(f, "job source exceeded the {limit}-job id space")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_fields() {
        let e = SimError::BadJobSize { job: 7, size: -1.0 };
        let s = e.to_string();
        assert!(s.contains('7') && s.contains("-1"));

        let e = SimError::RateCapViolated {
            job: 3,
            rate: 2.5,
            cap: 1.0,
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains("2.5"));
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(SimError::NoMachines);
        assert!(!e.to_string().is_empty());
    }
}
