//! SRPT+FCFS starvation-mitigated hybrid \[Kuo, arXiv 2112.14403\].
//!
//! SRPT minimizes total (ℓ1) flow but starves large jobs, which is exactly
//! what blows up its ℓk tails for k > 1; FCFS never starves anyone but
//! collapses under heavy tails. The hybrid interpolates: a job whose *age*
//! `t − r_j` reaches a starvation threshold θ is promoted into a
//! strict-priority FCFS class, and the remaining (young) jobs are served
//! SRPT-style with whatever machines are left. θ → ∞ recovers SRPT
//! exactly; θ = 0 recovers FCFS exactly.
//!
//! ```
//! use tf_policies::Policy;
//! use tf_simcore::{simulate, MachineConfig, SimOptions, Trace};
//!
//! // A long job ahead of a stream of short ones: plain SRPT starves it.
//! let trace = Trace::from_pairs([(0.0, 6.0), (1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]).unwrap();
//! let mut hybrid = "hyb:4".parse::<Policy>().unwrap().make();
//! let s = simulate(&trace, hybrid.as_mut(), MachineConfig::new(1), SimOptions::default()).unwrap();
//! // Once the long job's age hits θ=4 it runs to completion ahead of the
//! // young short jobs, bounding its flow time.
//! assert!(s.flow[0] < 9.0 + 1e-9);
//! ```

use tf_simcore::{AliveJob, MachineConfig, RateAllocator};

/// Threshold used for [`crate::Policy::all`]'s default hybrid instance.
///
/// Chosen to sit inside the dynamic range of the adversarial corpus
/// (sizes ≲ 10): large enough that short jobs usually still preempt, small
/// enough that a blocked large job is promoted within a few multiples of
/// its own size.
pub const DEFAULT_STARVATION_THRESHOLD: f64 = 8.0;

/// The SRPT+FCFS hybrid with starvation threshold `θ ≥ 0`.
///
/// At time `t` a job `j` is *starving* iff `t − r_j ≥ θ`. Machines are
/// granted first to starving jobs in FCFS order (arrival, then trace
/// order), then to the rest in SRPT order (remaining work, then trace
/// order); each selected job runs at full speed on one machine.
///
/// Limit behavior (pinned by tests and a property suite):
/// * `θ = ∞` — no job ever starves; the selection comparator degenerates
///   to SRPT's and the schedule is **bitwise identical** to [`crate::Srpt`].
/// * `θ = 0` — every alive job is starving; the comparator degenerates to
///   FCFS order and the schedule is **bitwise identical** to
///   [`crate::Fcfs`].
///
/// Between external events the only way the allocation can change is a
/// young job crossing the threshold, so [`RateAllocator::review_in`]
/// reports the earliest such crossing and both the batch and streaming
/// engines break integration segments exactly there.
#[derive(Debug, Clone)]
pub struct SrptFcfsHybrid {
    threshold: f64,
    order: Vec<usize>, // scratch
}

impl SrptFcfsHybrid {
    /// A fresh hybrid with starvation threshold `θ` (finite `θ ≥ 0`, or
    /// `+∞` for pure SRPT).
    ///
    /// # Panics
    /// If `θ` is NaN or negative.
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold >= 0.0,
            "starvation threshold must be ≥ 0, got {threshold}"
        );
        Self {
            threshold,
            order: Vec::new(),
        }
    }

    /// The configured starvation threshold θ.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    #[inline]
    fn starving(&self, job: &AliveJob, now: f64) -> bool {
        job.age_at(now) >= self.threshold
    }
}

impl Default for SrptFcfsHybrid {
    /// The hybrid at [`DEFAULT_STARVATION_THRESHOLD`].
    fn default() -> Self {
        Self::new(DEFAULT_STARVATION_THRESHOLD)
    }
}

impl RateAllocator for SrptFcfsHybrid {
    fn name(&self) -> &'static str {
        "HYB"
    }

    fn allocate(&mut self, now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        self.order.clear();
        self.order.extend(0..alive.len());
        // Starving class first, internally FCFS (alive is (arrival, seq)-
        // sorted, so seq order *is* FCFS order); young class after,
        // internally SRPT. With no starving jobs this comparator is exactly
        // SRPT's; with only starving jobs it is exactly FCFS's identity
        // order — both limits are bitwise-pinned by tests.
        let threshold = self.threshold;
        self.order.sort_by(|&a, &b| {
            let sa = alive[a].age_at(now) >= threshold;
            let sb = alive[b].age_at(now) >= threshold;
            sb.cmp(&sa).then_with(|| {
                if sa && sb {
                    alive[a].seq.cmp(&alive[b].seq)
                } else {
                    alive[a]
                        .remaining
                        .partial_cmp(&alive[b].remaining)
                        .unwrap()
                        .then_with(|| alive[a].seq.cmp(&alive[b].seq))
                }
            })
        });
        for &i in self.order.iter().take(cfg.m) {
            rates[i] = cfg.speed;
        }
    }

    fn review_in(&self, now: f64, alive: &[AliveJob], _cfg: &MachineConfig) -> Option<f64> {
        // The allocation can silently change when a young job's age reaches
        // θ. Report the earliest crossing; the engines then re-invoke
        // `allocate` exactly at that instant, which also makes the audit
        // checks exact at segment boundaries.
        if !self.threshold.is_finite() {
            return None;
        }
        let mut soonest = f64::INFINITY;
        for j in alive {
            if !self.starving(j, now) {
                let dt = j.arrival + self.threshold - now;
                if dt > 0.0 && dt < soonest {
                    soonest = dt;
                }
            }
        }
        soonest.is_finite().then_some(soonest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{alive, cfg, rates_of};
    use crate::{Fcfs, Srpt};
    use tf_simcore::{simulate, SimOptions, Trace};

    #[test]
    fn young_jobs_run_srpt_order() {
        // θ large: pure SRPT behavior.
        let a = alive(&[(0.0, 5.0, 0.0), (0.0, 2.0, 0.0), (0.0, 3.0, 0.0)]);
        let r = rates_of(&mut SrptFcfsHybrid::new(100.0), 0.0, &a, &cfg(1, 1.0));
        assert_eq!(r, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn starving_job_preempts_shorter_young_job() {
        // Job 0 is old (age 10 ≥ θ=8) and huge; job 1 is young and tiny.
        let a = alive(&[(0.0, 50.0, 0.0), (9.0, 0.1, 0.0)]);
        let r = rates_of(&mut SrptFcfsHybrid::new(8.0), 10.0, &a, &cfg(1, 1.0));
        assert_eq!(r, vec![1.0, 0.0]);
    }

    #[test]
    fn starving_class_is_fcfs_ordered() {
        // Both starving: earlier arrival wins even with more remaining.
        let a = alive(&[(0.0, 50.0, 0.0), (1.0, 1.0, 0.0)]);
        let r = rates_of(&mut SrptFcfsHybrid::new(2.0), 20.0, &a, &cfg(1, 1.0));
        assert_eq!(r, vec![1.0, 0.0]);
    }

    #[test]
    fn threshold_boundary_is_starving() {
        // age == θ counts as starving (`≥`), which is what makes θ=0 FCFS.
        let a = alive(&[(0.0, 50.0, 0.0), (2.0, 1.0, 0.0)]);
        let r = rates_of(&mut SrptFcfsHybrid::new(4.0), 4.0, &a, &cfg(1, 1.0));
        assert_eq!(r, vec![1.0, 0.0]);
    }

    #[test]
    fn review_reports_earliest_crossing() {
        let h = SrptFcfsHybrid::new(8.0);
        let a = alive(&[(0.0, 5.0, 0.0), (3.0, 5.0, 0.0)]);
        // At t=1: job0 crosses at 8 (in 7), job1 at 11 (in 10).
        let rev = h.review_in(1.0, &a, &cfg(1, 1.0)).unwrap();
        assert!((rev - 7.0).abs() < 1e-12);
        // At t=9: job0 is already starving; only job1's crossing remains.
        let rev = h.review_in(9.0, &a, &cfg(1, 1.0)).unwrap();
        assert!((rev - 2.0).abs() < 1e-12);
    }

    #[test]
    fn review_none_when_all_starving_or_infinite_threshold() {
        let a = alive(&[(0.0, 5.0, 0.0)]);
        assert!(SrptFcfsHybrid::new(f64::INFINITY)
            .review_in(0.0, &a, &cfg(1, 1.0))
            .is_none());
        assert!(SrptFcfsHybrid::new(1.0)
            .review_in(5.0, &a, &cfg(1, 1.0))
            .is_none());
    }

    #[test]
    fn infinite_threshold_is_bitwise_srpt() {
        let t = Trace::from_pairs([(0.0, 4.0), (1.0, 1.0), (1.0, 2.5), (3.0, 0.5)]).unwrap();
        let cfg = tf_simcore::MachineConfig::new(1);
        let h = simulate(
            &t,
            &mut SrptFcfsHybrid::new(f64::INFINITY),
            cfg,
            SimOptions::default(),
        )
        .unwrap();
        let s = simulate(&t, &mut Srpt::new(), cfg, SimOptions::default()).unwrap();
        for (a, b) in h.completion.iter().zip(&s.completion) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn zero_threshold_is_bitwise_fcfs() {
        let t = Trace::from_pairs([(0.0, 4.0), (1.0, 1.0), (1.0, 2.5), (3.0, 0.5)]).unwrap();
        let cfg = tf_simcore::MachineConfig::new(2);
        let h = simulate(
            &t,
            &mut SrptFcfsHybrid::new(0.0),
            cfg,
            SimOptions::default(),
        )
        .unwrap();
        let f = simulate(&t, &mut Fcfs::new(), cfg, SimOptions::default()).unwrap();
        for (a, b) in h.completion.iter().zip(&f.completion) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bounded_starvation_on_srpt_killer() {
        // Stream of short jobs that starves a size-6 job under SRPT.
        let mut pairs = vec![(0.0, 6.0)];
        for i in 0..40 {
            pairs.push((0.5 * i as f64, 0.45));
        }
        let t = Trace::from_pairs(pairs).unwrap();
        let cfg = tf_simcore::MachineConfig::new(1);
        let s = simulate(&t, &mut Srpt::new(), cfg, SimOptions::default()).unwrap();
        let h = simulate(
            &t,
            &mut SrptFcfsHybrid::new(4.0),
            cfg,
            SimOptions::default(),
        )
        .unwrap();
        // SRPT defers the long job until the short stream dries up; the
        // hybrid promotes it at age 4 and finishes it much earlier.
        assert!(h.flow[0] < s.flow[0] - 1.0);
    }

    #[test]
    #[should_panic(expected = "starvation threshold")]
    fn rejects_negative_threshold() {
        let _ = SrptFcfsHybrid::new(-1.0);
    }
}
