//! Round Robin — the algorithm the paper analyzes — and its statically
//! weighted generalization.
//!
//! ```
//! use tf_policies::Policy;
//! use tf_simcore::{simulate, MachineConfig, SimOptions, Trace};
//!
//! // Two equal jobs share the machine and finish together — temporal
//! // fairness in its purest form.
//! let trace = Trace::from_pairs([(0.0, 2.0), (0.0, 2.0)]).unwrap();
//! let mut rr = "rr".parse::<Policy>().unwrap().make();
//! let s = simulate(&trace, rr.as_mut(), MachineConfig::new(1), SimOptions::default()).unwrap();
//! assert!((s.completion[0] - 4.0).abs() < 1e-9);
//! assert!((s.completion[1] - 4.0).abs() < 1e-9);
//! ```

use crate::waterfill::water_fill;
use tf_simcore::{AliveJob, MachineConfig, RateAllocator};

/// Round Robin on `m` identical machines of speed `s`.
///
/// "At any point in time when there are more jobs than machines, allocate
/// machines to jobs equally. Otherwise, process each job on one machine
/// exclusively." (paper, Section 1.1.) Equivalently:
/// `rate_j = s · min(1, m / n_t)` for every alive job `j`, where `n_t` is
/// the number of alive jobs.
///
/// RR is non-clairvoyant: it never inspects sizes or remaining work.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundRobin;

impl RoundRobin {
    /// A fresh RR allocator.
    pub fn new() -> Self {
        RoundRobin
    }
}

impl RateAllocator for RoundRobin {
    fn name(&self) -> &'static str {
        "RR"
    }

    fn allocate(&mut self, _now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        if alive.is_empty() {
            return;
        }
        rates.fill(cfg.equal_share(alive.len()));
    }

    /// RR is processor sharing, so the engine runs it in virtual time
    /// without calling [`RateAllocator::allocate`].
    fn equal_share(&self) -> bool {
        true
    }
}

/// Weighted Round Robin: machine share proportional to each job's static
/// weight, capped at one machine per job, excess re-flowed (max-min
/// water-filling). With unit weights this is exactly [`RoundRobin`].
#[derive(Debug, Default, Clone)]
pub struct WeightedRoundRobin {
    weights: Vec<f64>, // scratch
    order: Vec<usize>, // scratch for `water_fill`
}

impl WeightedRoundRobin {
    /// A fresh weighted-RR allocator (weights come from the jobs).
    pub fn new() -> Self {
        Self::default()
    }
}

impl RateAllocator for WeightedRoundRobin {
    fn name(&self) -> &'static str {
        "WRR"
    }

    fn allocate(&mut self, _now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        // Equal weights collapse to plain RR. Take RR's exact share
        // formula in that case so the reduction is *bitwise*, not merely
        // within tolerance: the water-fill computes `(m·s)/n` where RR
        // computes `s·(m/n)`, which differ in the last ulp for general
        // m, n, s. The W-UNIT-REDUCE audit check relies on the bitwise
        // identity (and the uniform case is the common one, so this is
        // also the fast path).
        if let Some((first, rest)) = alive.split_first() {
            if first.weight > 0.0 && rest.iter().all(|a| a.weight == first.weight) {
                rates.fill(cfg.equal_share(alive.len()));
                return;
            }
        }
        self.weights.clear();
        self.weights.extend(alive.iter().map(|a| a.weight));
        water_fill(
            &self.weights,
            cfg.total_cap(),
            cfg.job_cap(),
            &mut self.order,
            rates,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{alive, cfg, rates_of};

    #[test]
    fn rr_overloaded_equal_split() {
        let a = alive(&[(0.0, 1.0, 0.0); 4]);
        let r = rates_of(&mut RoundRobin::new(), 0.0, &a, &cfg(2, 1.0));
        assert_eq!(r, vec![0.5; 4]);
    }

    #[test]
    fn rr_underloaded_dedicated_machines() {
        let a = alive(&[(0.0, 1.0, 0.0); 2]);
        let r = rates_of(&mut RoundRobin::new(), 0.0, &a, &cfg(4, 2.0));
        assert_eq!(r, vec![2.0; 2]);
    }

    #[test]
    fn rr_share_formula() {
        let c = cfg(3, 2.0);
        assert_eq!(c.equal_share(2), 2.0); // underloaded: full machine
        assert_eq!(c.equal_share(3), 2.0); // exactly loaded
        assert_eq!(c.equal_share(6), 1.0); // overloaded: m/n = 1/2
    }

    #[test]
    fn rr_ignores_sizes() {
        let mixed = alive(&[(0.0, 100.0, 0.0), (0.0, 0.01, 0.0)]);
        let r = rates_of(&mut RoundRobin::new(), 0.0, &mixed, &cfg(1, 1.0));
        assert_eq!(r[0], r[1]);
    }

    #[test]
    fn wrr_with_unit_weights_matches_rr_bitwise() {
        let a = alive(&[(0.0, 1.0, 0.0); 5]);
        let c = cfg(2, 1.5);
        let rr = rates_of(&mut RoundRobin::new(), 0.0, &a, &c);
        let wrr = rates_of(&mut WeightedRoundRobin::new(), 0.0, &a, &c);
        assert_eq!(rr, wrr); // exact, not within-tolerance
    }

    #[test]
    fn wrr_with_uniform_nonunit_weights_matches_rr_bitwise() {
        let mut a = alive(&[(0.0, 1.0, 0.0); 3]);
        for j in &mut a {
            j.weight = 2.5;
        }
        let c = cfg(2, 1.5);
        let rr = rates_of(&mut RoundRobin::new(), 0.0, &a, &c);
        let wrr = rates_of(&mut WeightedRoundRobin::new(), 0.0, &a, &c);
        assert_eq!(rr, wrr);
    }

    #[test]
    fn wrr_respects_weights_and_caps() {
        let mut a = alive(&[(0.0, 1.0, 0.0), (0.0, 1.0, 0.0)]);
        a[0].weight = 3.0;
        a[1].weight = 1.0;
        // Budget 2, cap 1: heavy capped at 1, light absorbs the rest.
        let r = rates_of(&mut WeightedRoundRobin::new(), 0.0, &a, &cfg(2, 1.0));
        assert!((r[0] - 1.0).abs() < 1e-12);
        assert!((r[1] - 1.0).abs() < 1e-12);
        // Budget 1 (one machine): proportional 3:1.
        let r = rates_of(&mut WeightedRoundRobin::new(), 0.0, &a, &cfg(1, 1.0));
        assert!((r[0] - 0.75).abs() < 1e-12);
        assert!((r[1] - 0.25).abs() < 1e-12);
    }
}
