//! Age-weighted Round Robin (rates proportional to job age).
//!
//! ```
//! use tf_policies::Policy;
//! use tf_simcore::{simulate, MachineConfig, SimOptions, Trace};
//!
//! // Rates vary continuously with age, so the engine integrates on an
//! // adaptive grid; a lone job still runs at full speed throughout.
//! let trace = Trace::from_pairs([(0.0, 3.0)]).unwrap();
//! let mut aged = "agedrr".parse::<Policy>().unwrap().make();
//! let s = simulate(&trace, aged.as_mut(), MachineConfig::new(1), SimOptions::default()).unwrap();
//! assert!((s.completion[0] - 3.0).abs() < 1e-6);
//! ```

use crate::waterfill::water_fill;
use tf_simcore::{AliveJob, MachineConfig, RateAllocator};

/// Round Robin weighted by *age*: at time `t`, job `j` receives a machine
/// share proportional to `t − r_j`, capped at one machine, excess
/// water-filled.
///
/// This is the weighted RR variant the paper contrasts itself against
/// (Section 1.2): "the weighted variant of RR that distributes machines to
/// jobs in proportion to their ages was shown to be O(1)-speed
/// O(1)-competitive for the ℓ2-norm" \[Edmonds–Im–Moseley 2011\]. Plain RR
/// ignores ages; this policy is the natural potential-function-friendly
/// alternative, so comparing the two head-to-head (experiment E9) shows
/// what the paper's harder analysis buys.
///
/// Ages grow continuously, so rates vary *between* events:
/// [`RateAllocator::continuous`] is `true` and the engine integrates with
/// bounded adaptive steps.
#[derive(Debug, Default, Clone)]
pub struct AgedRoundRobin {
    weights: Vec<f64>, // scratch
    order: Vec<usize>, // scratch for `water_fill`
}

impl AgedRoundRobin {
    /// A fresh age-weighted RR allocator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RateAllocator for AgedRoundRobin {
    fn name(&self) -> &'static str {
        "AgedRR"
    }

    fn allocate(&mut self, now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        self.weights.clear();
        self.weights.extend(alive.iter().map(|a| a.age_at(now)));
        water_fill(
            &self.weights,
            cfg.total_cap(),
            cfg.job_cap(),
            &mut self.order,
            rates,
        );
    }

    fn continuous(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{alive, cfg, rates_of};
    use tf_simcore::{simulate, SimOptions, Trace};

    #[test]
    fn rates_proportional_to_age() {
        let a = alive(&[(0.0, 9.0, 0.0), (2.0, 9.0, 0.0)]);
        // At t=3: ages 3 and 1 → shares 0.75/0.25 on one machine.
        let r = rates_of(&mut AgedRoundRobin::new(), 3.0, &a, &cfg(1, 1.0));
        assert!((r[0] - 0.75).abs() < 1e-12);
        assert!((r[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn simultaneous_arrivals_split_equally() {
        let a = alive(&[(1.0, 9.0, 0.0), (1.0, 9.0, 0.0)]);
        // At the arrival instant all ages are 0 → equal-split fallback.
        let r = rates_of(&mut AgedRoundRobin::new(), 1.0, &a, &cfg(1, 1.0));
        assert_eq!(r, vec![0.5, 0.5]);
    }

    #[test]
    fn cap_binds_for_very_old_jobs() {
        let a = alive(&[(0.0, 9.0, 0.0), (99.0, 9.0, 0.0)]);
        // At t=100: ages 100 and 1; proportional share of job0 on 2
        // machines would be 2·100/101 > 1 → capped at 1; job1 gets the rest.
        let r = rates_of(&mut AgedRoundRobin::new(), 100.0, &a, &cfg(2, 1.0));
        assert!((r[0] - 1.0).abs() < 1e-12);
        assert!((r[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn end_to_end_completes_all_work() {
        let t = Trace::from_pairs([(0.0, 2.0), (0.5, 1.0), (1.0, 3.0)]).unwrap();
        let s = simulate(
            &t,
            &mut AgedRoundRobin::new(),
            tf_simcore::MachineConfig::new(1),
            SimOptions::with_profile(),
        )
        .unwrap();
        let p = s.profile.as_ref().unwrap();
        assert!((p.total_work() - t.total_size()).abs() < 1e-3);
        for j in t.jobs() {
            assert!(s.completion[j.id as usize].is_finite());
            // Work within integration tolerance of the adaptive stepper.
            assert!((p.work_of(j.id) - j.size).abs() < 1e-3);
        }
    }

    #[test]
    fn older_jobs_finish_sooner_than_under_rr() {
        // An old job competing with a stream of fresh arrivals should do
        // better under AgedRR than under RR.
        let mut pairs = vec![(0.0, 5.0)];
        for i in 0..10 {
            pairs.push((4.0 + 0.2 * i as f64, 0.4));
        }
        let t = Trace::from_pairs(pairs).unwrap();
        let aged = simulate(
            &t,
            &mut AgedRoundRobin::new(),
            tf_simcore::MachineConfig::new(1),
            SimOptions::default(),
        )
        .unwrap();
        let rr = simulate(
            &t,
            &mut crate::RoundRobin::new(),
            tf_simcore::MachineConfig::new(1),
            SimOptions::default(),
        )
        .unwrap();
        assert!(aged.completion[0] <= rr.completion[0] + 1e-6);
    }
}
