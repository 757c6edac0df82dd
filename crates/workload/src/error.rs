//! Typed validation errors for workload parameters.
//!
//! Mirrors the simulator's [`tf_simcore::SimError`] style: every rejected
//! parameter gets its own variant carrying the offending value, so a bad
//! config fails loudly at construction instead of poisoning a multi-hour
//! run with `inf` arrival times (the pre-fix behaviour of
//! `Poisson { rate: 0.0 }`) or NaN sizes.

use std::fmt;

/// Errors raised by workload-parameter validation.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// An arrival rate must be finite and positive.
    BadRate(f64),
    /// An inter-arrival (or batch) interval must be finite and positive.
    BadInterval(f64),
    /// A diurnal cycle period must be finite and positive.
    BadPeriod(f64),
    /// A diurnal amplitude must lie in `[0, 1)`: at `amplitude ≥ 1` the
    /// instantaneous rate `base·(1 + a·sin)` goes negative and the
    /// thinning acceptance probability is nonsensical.
    BadAmplitude(f64),
    /// A size-distribution parameter was rejected.
    BadSizeParam {
        /// Distribution label (e.g. `"pareto"`).
        dist: &'static str,
        /// Parameter name (e.g. `"alpha"`).
        param: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A stream's job count must be positive.
    BadBound(f64),
    /// A flow set was malformed (message says which flow and how).
    BadFlow(String),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::BadRate(r) => {
                write!(f, "arrival rate {r} must be finite and positive")
            }
            WorkloadError::BadInterval(i) => {
                write!(f, "arrival interval {i} must be finite and positive")
            }
            WorkloadError::BadPeriod(p) => {
                write!(f, "diurnal period {p} must be finite and positive")
            }
            WorkloadError::BadAmplitude(a) => {
                write!(f, "diurnal amplitude {a} must lie in [0, 1)")
            }
            WorkloadError::BadSizeParam { dist, param, value } => {
                write!(
                    f,
                    "size distribution {dist}: parameter {param} = {value} is invalid"
                )
            }
            WorkloadError::BadBound(b) => write!(f, "stream job count {b} must be positive"),
            WorkloadError::BadFlow(msg) => write!(f, "bad flow set: {msg}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_offending_value() {
        assert!(WorkloadError::BadRate(0.0).to_string().contains('0'));
        assert!(WorkloadError::BadAmplitude(1.5).to_string().contains("1.5"));
        let e = WorkloadError::BadSizeParam {
            dist: "pareto",
            param: "alpha",
            value: 0.5,
        };
        let s = e.to_string();
        assert!(s.contains("pareto") && s.contains("alpha") && s.contains("0.5"));
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(WorkloadError::BadBound(0.0));
        assert!(!e.to_string().is_empty());
    }
}
