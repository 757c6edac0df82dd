//! Online dispatch rules: which machine gets each arriving job.

use serde::{Deserialize, Serialize};

/// An online routing rule. Rules may use per-machine *backlog* (pending
/// work), which is the same for every work-conserving per-machine policy,
/// but nothing about the future.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DispatchRule {
    /// Cyclic: job `i` goes to machine `i mod m` (the classic front-end).
    Cyclic,
    /// Join the machine with the least pending work at the arrival instant
    /// (greedy load balancing — the \[2\]-style volume rule). Ties go to
    /// the lowest machine index.
    LeastWork,
    /// Pseudo-random uniform routing from a seeded hash of the job id —
    /// the "power of one random choice" baseline.
    Random {
        /// Hash seed; same seed ⇒ same assignment.
        seed: u64,
    },
}

impl DispatchRule {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            DispatchRule::Cyclic => "cyclic".into(),
            DispatchRule::LeastWork => "least-work".into(),
            DispatchRule::Random { .. } => "random".into(),
        }
    }

    /// Route one arrival. `backlogs[i]` is machine `i`'s pending work at
    /// the arrival instant; `job_index` is the arrival's position in the
    /// trace.
    pub fn route(&self, job_index: usize, backlogs: &[f64]) -> usize {
        match *self {
            DispatchRule::Cyclic => job_index % backlogs.len(),
            DispatchRule::LeastWork => {
                let mut best = 0usize;
                for (i, &b) in backlogs.iter().enumerate() {
                    if b < backlogs[best] {
                        best = i;
                    }
                }
                best
            }
            DispatchRule::Random { seed } => {
                // splitmix64 on (seed, index): deterministic, well mixed.
                let mut z = seed ^ (job_index as u64).wrapping_mul(0x9E3779B97F4A7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                (z % backlogs.len() as u64) as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cyclic_wraps() {
        let b = [0.0; 3];
        let r = DispatchRule::Cyclic;
        assert_eq!(r.route(0, &b), 0);
        assert_eq!(r.route(4, &b), 1);
        assert_eq!(r.route(5, &b), 2);
    }

    #[test]
    fn least_work_picks_minimum_with_low_index_ties() {
        let r = DispatchRule::LeastWork;
        assert_eq!(r.route(9, &[3.0, 1.0, 2.0]), 1);
        assert_eq!(r.route(9, &[1.0, 1.0, 2.0]), 0);
    }

    #[test]
    fn random_is_deterministic_and_spread() {
        let r = DispatchRule::Random { seed: 7 };
        let b = [0.0; 4];
        let a: Vec<usize> = (0..100).map(|i| r.route(i, &b)).collect();
        let again: Vec<usize> = (0..100).map(|i| r.route(i, &b)).collect();
        assert_eq!(a, again);
        // All machines used.
        for m in 0..4 {
            assert!(a.contains(&m), "machine {m} never chosen");
        }
        // Different seed, different stream.
        let other: Vec<usize> = (0..100)
            .map(|i| DispatchRule::Random { seed: 8 }.route(i, &b))
            .collect();
        assert_ne!(a, other);
    }
}
