//! Shortest Elapsed Time First (least attained service).
//!
//! ```
//! use tf_policies::Policy;
//! use tf_simcore::{simulate, MachineConfig, SimOptions, Trace};
//!
//! // The late arrival has zero attained service, so it runs alone until it
//! // completes (it never catches up to the head start of job 0).
//! let trace = Trace::from_pairs([(0.0, 5.0), (2.0, 1.0)]).unwrap();
//! let mut setf = "setf".parse::<Policy>().unwrap().make();
//! let s = simulate(&trace, setf.as_mut(), MachineConfig::new(1), SimOptions::default()).unwrap();
//! assert!((s.completion[1] - 3.0).abs() < 1e-6);
//! assert!((s.completion[0] - 6.0).abs() < 1e-6);
//! ```

use std::cell::RefCell;

use tf_simcore::{AliveJob, MachineConfig, RateAllocator};

/// SETF: strict priority to the jobs that have received the least service
/// so far. Non-clairvoyant. Scalable for ℓk-norms on one machine
/// \[Bansal–Pruhs 2010\]; on multiple machines only a fractional version is
/// known scalable \[Barcelo et al. 2012\] — this is that fractional
/// version:
///
/// * sort alive jobs by attained service into *groups* of equal attainment;
/// * serve groups in increasing order of attainment, giving each job in a
///   group an equal rate up to one machine, until capacity `m·s` runs out.
///
/// Jobs in a partially-served group gain service and eventually *catch up*
/// to the next group; that instant changes the allocation without any
/// arrival/completion, so the policy reports it via
/// [`RateAllocator::review_in`].
#[derive(Debug, Default, Clone)]
pub struct Setf {
    scratch: RefCell<Scratch>,
}

/// What `allocate` and `review_in` reuse from call to call: the indices
/// sorted by attained service, and the rates `review_in` recomputes.
#[derive(Debug, Default, Clone)]
struct Scratch {
    order: Vec<usize>,
    rates: Vec<f64>,
}

impl Setf {
    /// A fresh SETF allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tolerance under which two attained-service values count as equal
    /// (absorbs the rounding left by exact catch-up events).
    #[inline]
    fn tie_tol(a: f64, b: f64) -> f64 {
        1e-7 * (1.0 + a.abs().max(b.abs()))
    }

    /// Compute grouped rates into `rates`, leaving the attainment order
    /// in `order`; shared by `allocate` and `review_in`.
    fn compute(order: &mut Vec<usize>, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        order.clear();
        order.extend(0..alive.len());
        order.sort_by(|&a, &b| {
            alive[a]
                .attained
                .partial_cmp(&alive[b].attained)
                .unwrap()
                .then_with(|| alive[a].seq.cmp(&alive[b].seq))
        });
        let mut capacity = cfg.total_cap();
        let cap = cfg.job_cap();
        let mut g0 = 0;
        while g0 < order.len() {
            // Find the group [g0, g1) of equal attainment.
            let base = alive[order[g0]].attained;
            let mut g1 = g0 + 1;
            while g1 < order.len() {
                let nxt = alive[order[g1]].attained;
                if (nxt - base).abs() <= Self::tie_tol(base, nxt) {
                    g1 += 1;
                } else {
                    break;
                }
            }
            let g = (g1 - g0) as f64;
            let share = (capacity / g).min(cap);
            if share <= 0.0 {
                break;
            }
            for &i in &order[g0..g1] {
                rates[i] = share;
            }
            capacity -= share * g;
            g0 = g1;
        }
    }
}

impl RateAllocator for Setf {
    fn name(&self) -> &'static str {
        "SETF"
    }

    fn allocate(&mut self, _now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        Self::compute(&mut self.scratch.get_mut().order, alive, cfg, rates);
    }

    fn review_in(&self, _now: f64, alive: &[AliveJob], cfg: &MachineConfig) -> Option<f64> {
        // Recompute rates (cheap) into the scratch and find the earliest
        // catch-up between adjacent attainment groups with differing rates.
        let mut scratch = self.scratch.borrow_mut();
        let Scratch { order, rates } = &mut *scratch;
        rates.clear();
        rates.resize(alive.len(), 0.0);
        Self::compute(order, alive, cfg, rates);
        let mut best: Option<f64> = None;
        for w in order.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let gap = alive[hi].attained - alive[lo].attained;
            if gap <= Self::tie_tol(alive[lo].attained, alive[hi].attained) {
                continue; // same group
            }
            let drift = rates[lo] - rates[hi];
            if drift > 1e-12 {
                let dt = gap / drift;
                best = Some(best.map_or(dt, |b: f64| b.min(dt)));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{alive, cfg, rates_of};
    use tf_simcore::{simulate, SimOptions, Trace};

    #[test]
    fn least_attained_gets_everything() {
        let a = alive(&[(0.0, 5.0, 2.0), (0.0, 5.0, 0.0)]);
        let r = rates_of(&mut Setf::new(), 0.0, &a, &cfg(1, 1.0));
        assert_eq!(r, vec![0.0, 1.0]);
    }

    #[test]
    fn equal_attainment_shares_equally() {
        let a = alive(&[(0.0, 5.0, 1.0), (0.0, 5.0, 1.0)]);
        let r = rates_of(&mut Setf::new(), 0.0, &a, &cfg(1, 1.0));
        assert_eq!(r, vec![0.5, 0.5]);
    }

    #[test]
    fn groups_fill_machines_in_order() {
        // Group A: two jobs at 0 attained; group B: one at 1.0. m=3:
        // A-jobs get full machines (2·s), B gets the third.
        let a = alive(&[(0.0, 9.0, 0.0), (0.0, 9.0, 0.0), (0.0, 9.0, 1.0)]);
        let r = rates_of(&mut Setf::new(), 0.0, &a, &cfg(3, 1.0));
        assert_eq!(r, vec![1.0, 1.0, 1.0]);
        // m=2: A takes everything.
        let r = rates_of(&mut Setf::new(), 0.0, &a, &cfg(2, 1.0));
        assert_eq!(r, vec![1.0, 1.0, 0.0]);
        // m=1: A shares the single machine.
        let r = rates_of(&mut Setf::new(), 0.0, &a, &cfg(1, 1.0));
        assert_eq!(r, vec![0.5, 0.5, 0.0]);
    }

    #[test]
    fn review_predicts_catchup() {
        // Job 0 at attained 0 is served at rate 1; job 1 at attained 2 is
        // idle: catch-up after 2 time units.
        let a = alive(&[(0.0, 9.0, 0.0), (0.0, 9.0, 2.0)]);
        let p = Setf::new();
        let rev = p.review_in(0.0, &a, &cfg(1, 1.0)).unwrap();
        assert!((rev - 2.0).abs() < 1e-9);
    }

    #[test]
    fn no_review_when_single_group() {
        let a = alive(&[(0.0, 9.0, 1.0), (0.0, 9.0, 1.0)]);
        let p = Setf::new();
        assert!(p.review_in(0.0, &a, &cfg(1, 1.0)).is_none());
    }

    #[test]
    fn end_to_end_catchup_schedule() {
        // Jobs (0, 2) and (1, 2) on one machine. SETF:
        // [0,1): job0 alone, attained 1. Job1 arrives with attained 0 →
        // served alone until catch-up at t=2 (both attained 1). Then they
        // share at 1/2 until job0 completes: each needs 1 more → both finish
        // at t=4.
        let t = Trace::from_pairs([(0.0, 2.0), (1.0, 2.0)]).unwrap();
        let s = simulate(
            &t,
            &mut Setf::new(),
            tf_simcore::MachineConfig::new(1),
            SimOptions::default(),
        )
        .unwrap();
        assert!((s.completion[0] - 4.0).abs() < 1e-6, "{}", s.completion[0]);
        assert!((s.completion[1] - 4.0).abs() < 1e-6, "{}", s.completion[1]);
    }

    #[test]
    fn favors_short_jobs_without_clairvoyance() {
        // A long job that has run a while loses to fresh short arrivals.
        let t = Trace::from_pairs([(0.0, 10.0), (5.0, 1.0)]).unwrap();
        let s = simulate(
            &t,
            &mut Setf::new(),
            tf_simcore::MachineConfig::new(1),
            SimOptions::default(),
        )
        .unwrap();
        // Job1 runs immediately on arrival and completes at 6 (flow 1).
        assert!((s.completion[1] - 6.0).abs() < 1e-6);
        assert!((s.completion[0] - 11.0).abs() < 1e-6);
    }
}
