//! Latest Arrival Processor Sharing.
//!
//! ```
//! use tf_policies::Policy;
//! use tf_simcore::{simulate, MachineConfig, SimOptions, Trace};
//!
//! // β=0.5 with two alive jobs serves only the latest arrival.
//! let trace = Trace::from_pairs([(0.0, 3.0), (1.0, 1.0)]).unwrap();
//! let mut laps = "laps:0.5".parse::<Policy>().unwrap().make();
//! let s = simulate(&trace, laps.as_mut(), MachineConfig::new(1), SimOptions::default()).unwrap();
//! assert!((s.completion[1] - 2.0).abs() < 1e-9); // runs alone on arrival
//! assert!((s.completion[0] - 4.0).abs() < 1e-9); // paused while job 1 lives
//! ```

use tf_simcore::{AliveJob, MachineConfig, RateAllocator};

/// LAPS(β): share the machines equally among the `⌈β·n_t⌉` *latest-arrived*
/// alive jobs (0 < β ≤ 1). `β = 1` is exactly Round Robin. LAPS is the
/// classic scalable non-clairvoyant policy for total flow in the arbitrary
/// speed-up curve setting \[Edmonds–Pruhs 2009\]; here it serves as an
/// RR-family ablation: how much does biasing shares toward recent arrivals
/// change ℓk behavior?
///
/// Each selected job receives `min(s, m·s/⌈βn⌉)`; capacity beyond one
/// machine per selected job is left idle, per the policy's definition.
#[derive(Debug, Clone, Copy)]
pub struct Laps {
    /// Fraction of latest arrivals to serve, in `(0, 1]`.
    pub beta: f64,
}

impl Laps {
    /// LAPS with parameter `beta` (clamped into `(0, 1]`).
    pub fn new(beta: f64) -> Self {
        Laps {
            beta: beta.clamp(f64::MIN_POSITIVE, 1.0),
        }
    }
}

impl Default for Laps {
    fn default() -> Self {
        Laps::new(0.5)
    }
}

impl RateAllocator for Laps {
    fn name(&self) -> &'static str {
        "LAPS"
    }

    fn allocate(&mut self, _now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        let n = alive.len();
        if n == 0 {
            return;
        }
        let k = ((self.beta * n as f64).ceil() as usize).clamp(1, n);
        let share = (cfg.total_cap() / k as f64).min(cfg.job_cap());
        // `alive` is sorted by (arrival, seq): the last k are the latest.
        for r in rates.iter_mut().skip(n - k) {
            *r = share;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{alive, cfg, rates_of};
    use crate::RoundRobin;

    #[test]
    fn beta_one_is_round_robin() {
        let a = alive(&[(0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (2.0, 1.0, 0.0)]);
        let c = cfg(1, 1.0);
        let l = rates_of(&mut Laps::new(1.0), 2.0, &a, &c);
        let r = rates_of(&mut RoundRobin::new(), 2.0, &a, &c);
        assert_eq!(l, r);
    }

    #[test]
    fn serves_latest_half() {
        let a = alive(&[
            (0.0, 1.0, 0.0),
            (1.0, 1.0, 0.0),
            (2.0, 1.0, 0.0),
            (3.0, 1.0, 0.0),
        ]);
        let r = rates_of(&mut Laps::new(0.5), 3.0, &a, &cfg(1, 1.0));
        assert_eq!(r, vec![0.0, 0.0, 0.5, 0.5]);
    }

    #[test]
    fn ceil_selects_at_least_one() {
        let a = alive(&[(0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (2.0, 1.0, 0.0)]);
        let r = rates_of(&mut Laps::new(0.1), 2.0, &a, &cfg(1, 1.0));
        assert_eq!(r, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn per_job_cap_limits_small_sets() {
        // 4 machines, 3 jobs, β small → one selected job can use only one
        // machine; the rest idle by definition.
        let a = alive(&[(0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (2.0, 1.0, 0.0)]);
        let r = rates_of(&mut Laps::new(0.1), 2.0, &a, &cfg(4, 2.0));
        assert_eq!(r, vec![0.0, 0.0, 2.0]);
    }

    #[test]
    fn beta_is_clamped() {
        assert_eq!(Laps::new(7.0).beta, 1.0);
        assert!(Laps::new(-1.0).beta > 0.0);
    }
}
