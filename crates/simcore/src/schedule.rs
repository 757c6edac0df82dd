//! Simulation output: completion times, flow times, optional profile.

use crate::alloc::MachineConfig;
use crate::profile::Profile;
use crate::stats::SimStats;
use serde::{Deserialize, Serialize};

/// The result of simulating one policy on one trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Schedule {
    /// Policy name the schedule was produced by.
    pub policy: String,
    /// Machine environment it ran in.
    pub cfg: MachineConfig,
    /// Completion time `C_j`, indexed by job id.
    pub completion: Vec<f64>,
    /// Flow time `F_j = C_j − r_j`, indexed by job id.
    pub flow: Vec<f64>,
    /// Exact piecewise-constant execution record, when requested via
    /// [`crate::SimOptions::record_profile`].
    pub profile: Option<Profile>,
    /// Number of engine events processed (arrivals, completions, reviews,
    /// adaptive steps) — a cost/diagnostic metric.
    pub events: u64,
    /// Per-run observability counters (event breakdown by step reason,
    /// policy time, peak alive set, segments recorded).
    pub stats: SimStats,
}

impl Schedule {
    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.flow.len()
    }

    /// True iff the instance had no jobs.
    pub fn is_empty(&self) -> bool {
        self.flow.is_empty()
    }

    /// Total (ℓ1) flow time `Σ_j F_j`.
    pub fn total_flow(&self) -> f64 {
        self.flow.iter().sum()
    }

    /// Maximum (ℓ∞) flow time.
    pub fn max_flow(&self) -> f64 {
        self.flow.iter().fold(0.0, |a, &f| a.max(f))
    }

    /// Sum of `k`-th powers of flow times `Σ_j F_j^k` — the quantity the
    /// paper's analysis bounds (the ℓk norm is its k-th root).
    pub fn flow_power_sum(&self, k: f64) -> f64 {
        self.flow.iter().map(|&f| f.powf(k)).sum()
    }

    /// The ℓk norm of the flow-time vector, `(Σ_j F_j^k)^{1/k}`.
    /// `k = f64::INFINITY` yields the max flow. Evaluated by
    /// [`crate::norms::lk_norm`], so it stays finite whenever the largest
    /// flow is.
    pub fn flow_norm(&self, k: f64) -> f64 {
        crate::norms::lk_norm(&self.flow, k)
    }

    /// Latest completion time (makespan); 0 for an empty instance.
    pub fn makespan(&self) -> f64 {
        self.completion.iter().fold(0.0, |a, &c| a.max(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(flows: &[f64]) -> Schedule {
        Schedule {
            policy: "test".into(),
            cfg: MachineConfig::new(1),
            completion: flows.to_vec(), // arrivals all 0 for this helper
            flow: flows.to_vec(),
            profile: None,
            events: 0,
            stats: SimStats::default(),
        }
    }

    #[test]
    fn norms() {
        let s = sched(&[3.0, 4.0]);
        assert_eq!(s.total_flow(), 7.0);
        assert_eq!(s.max_flow(), 4.0);
        assert!((s.flow_norm(2.0) - 5.0).abs() < 1e-12);
        assert_eq!(s.flow_norm(f64::INFINITY), 4.0);
        assert!((s.flow_power_sum(3.0) - (27.0 + 64.0)).abs() < 1e-12);
    }

    /// Regression: the k-th root of `flow_power_sum` overflowed to `inf`
    /// here although the norm of a single flow is that flow.
    #[test]
    fn flow_norm_of_a_huge_flow_is_finite() {
        let s = sched(&[1e60]);
        let got = s.flow_norm(6.0);
        assert!(got.is_finite(), "flow_norm(6) = {got}");
        assert!((got - 1e60).abs() / 1e60 < 1e-12);
    }

    #[test]
    fn empty_schedule() {
        let s = sched(&[]);
        assert!(s.is_empty());
        assert_eq!(s.total_flow(), 0.0);
        assert_eq!(s.max_flow(), 0.0);
        assert_eq!(s.makespan(), 0.0);
    }
}
