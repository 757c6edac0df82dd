//! Lightweight per-run observability counters.
//!
//! The engine fills a [`SimStats`] on every simulation and carries it on
//! the returned [`crate::Schedule`]. The counters answer the questions
//! that come up when a run is slow or suspicious — *what kind* of events
//! dominated, how much wall-clock went to the policy itself, how large the
//! alive set got — without re-running under a profiler.

use serde::{Deserialize, Serialize};

/// Counters collected by one `simulate()` run. All counters are exact;
/// `alloc_ns` is wall-clock and therefore machine-dependent (it is for
/// diagnostics and harness tables, never for test assertions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Steps whose earliest next event was a job arrival.
    pub arrival_steps: u64,
    /// Steps ended by a (predicted) job completion.
    pub completion_steps: u64,
    /// Steps ended by a policy review point ([`crate::RateAllocator::review_in`]).
    pub review_steps: u64,
    /// Bounded adaptive steps taken for continuously-varying policies.
    pub adaptive_steps: u64,
    /// Jobs admitted into the alive set (equals the trace size on success).
    pub jobs_admitted: u64,
    /// Total wall-clock nanoseconds spent inside the policy's `allocate`;
    /// 0 for Round Robin without a profile, whose virtual-time loop never
    /// calls it.
    pub alloc_ns: u64,
    /// Largest simultaneous alive-set size observed.
    pub peak_alive: usize,
    /// Profile segments recorded before coalescing (0 when profile
    /// recording is off).
    pub segments_recorded: u64,
}

impl SimStats {
    /// Total engine steps across all reasons (excludes admissions, which
    /// are counted separately in [`SimStats::jobs_admitted`]).
    pub fn steps(&self) -> u64 {
        self.arrival_steps + self.completion_steps + self.review_steps + self.adaptive_steps
    }

    /// Time spent in the policy's `allocate`, in seconds.
    pub fn alloc_secs(&self) -> f64 {
        self.alloc_ns as f64 * 1e-9
    }

    /// These counters as a flat [`tf_obs::ObsRegistry`] under the `sim.`
    /// namespace, ready to merge with solver and cache registries.
    /// `sim.peak_alive` is max-combining; everything else sums.
    pub fn registry(&self) -> tf_obs::ObsRegistry {
        let mut reg = tf_obs::ObsRegistry::from_counters([
            ("sim.arrival_steps", self.arrival_steps as f64),
            ("sim.completion_steps", self.completion_steps as f64),
            ("sim.review_steps", self.review_steps as f64),
            ("sim.adaptive_steps", self.adaptive_steps as f64),
            ("sim.jobs_admitted", self.jobs_admitted as f64),
            ("sim.alloc_ns", self.alloc_ns as f64),
            ("sim.segments_recorded", self.segments_recorded as f64),
        ]);
        reg.record_max("sim.peak_alive", self.peak_alive as f64);
        reg
    }

    /// Fold another run's counters into this one: counts add, peaks max.
    /// Used by harness tables that aggregate over a corpus of runs.
    pub fn absorb(&mut self, other: &SimStats) {
        self.arrival_steps += other.arrival_steps;
        self.completion_steps += other.completion_steps;
        self.review_steps += other.review_steps;
        self.adaptive_steps += other.adaptive_steps;
        self.jobs_admitted += other.jobs_admitted;
        self.alloc_ns += other.alloc_ns;
        self.peak_alive = self.peak_alive.max(other.peak_alive);
        self.segments_recorded += other.segments_recorded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_sums_reasons() {
        let s = SimStats {
            arrival_steps: 2,
            completion_steps: 3,
            review_steps: 5,
            adaptive_steps: 7,
            ..Default::default()
        };
        assert_eq!(s.steps(), 17);
    }

    #[test]
    fn alloc_secs_converts() {
        let s = SimStats {
            alloc_ns: 2_500_000_000,
            ..Default::default()
        };
        assert!((s.alloc_secs() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn absorb_adds_counts_and_maxes_peak() {
        let mut a = SimStats {
            arrival_steps: 1,
            alloc_ns: 10,
            peak_alive: 5,
            ..Default::default()
        };
        let b = SimStats {
            arrival_steps: 2,
            completion_steps: 3,
            alloc_ns: 7,
            peak_alive: 4,
            segments_recorded: 9,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.arrival_steps, 3);
        assert_eq!(a.completion_steps, 3);
        assert_eq!(a.alloc_ns, 17);
        assert_eq!(a.peak_alive, 5);
        assert_eq!(a.segments_recorded, 9);
    }

    #[test]
    fn registry_namespaces_and_combines() {
        let a = SimStats {
            arrival_steps: 2,
            completion_steps: 3,
            peak_alive: 5,
            ..Default::default()
        };
        let b = SimStats {
            completion_steps: 4,
            peak_alive: 3,
            ..Default::default()
        };
        let mut reg = a.registry();
        reg.merge(&b.registry());
        assert_eq!(reg.get("sim.arrival_steps"), Some(2.0));
        assert_eq!(reg.get("sim.completion_steps"), Some(7.0));
        assert_eq!(reg.get("sim.peak_alive"), Some(5.0)); // max, not sum
    }

    #[test]
    fn serde_roundtrip() {
        let s = SimStats {
            arrival_steps: 1,
            completion_steps: 2,
            review_steps: 3,
            adaptive_steps: 4,
            jobs_admitted: 5,
            alloc_ns: 6,
            peak_alive: 7,
            segments_recorded: 8,
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: SimStats = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
