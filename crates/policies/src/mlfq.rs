//! Multi-Level Feedback Queue (fractional idealization).
//!
//! The paper's motivation quotes Silberschatz–Galvin–Gagne's OS textbook;
//! the scheduler that textbook actually teaches (and that Unix variants
//! deploy) is MLFQ: jobs start at the highest priority and are demoted as
//! they accumulate service, with Round Robin inside each level. It is the
//! practical compromise between SETF (favor fresh jobs) and RR (share
//! equally), so it belongs in the comparison set.
//!
//! This is the fractional idealization: level of a job =
//! `⌊log_base(1 + attained/quantum)⌋`; the machines are given to the
//! *lowest-level* (least-demoted) jobs, shared equally within the level
//! (cascading leftover capacity to the next level, as with fractional
//! SETF). Like SETF, level crossings are internal events reported via
//! `review_in`.
//!
//! ```
//! use tf_policies::Policy;
//! use tf_simcore::{simulate, MachineConfig, SimOptions, Trace};
//!
//! // The long job is demoted as it accumulates service, so the short one
//! // finishes first even though both arrive together.
//! let trace = Trace::from_pairs([(0.0, 8.0), (0.0, 1.0)]).unwrap();
//! let mut mlfq = "mlfq".parse::<Policy>().unwrap().make();
//! let s = simulate(&trace, mlfq.as_mut(), MachineConfig::new(1), SimOptions::default()).unwrap();
//! assert!(s.completion[1] < s.completion[0]);
//! ```

use std::cell::RefCell;

use tf_simcore::{AliveJob, MachineConfig, RateAllocator};

/// Fractional MLFQ with geometric level widths.
#[derive(Debug, Clone)]
pub struct Mlfq {
    /// Attained-service width of level 0 (> 0).
    pub quantum: f64,
    /// Geometric growth of level widths (> 1); level `l` spans attained
    /// service `[quantum·(base^l − 1)/(base − 1), …)`.
    pub base: f64,
    scratch: RefCell<Scratch>,
}

/// What `allocate` and `review_in` reuse from call to call: the alive
/// jobs' levels, their indices sorted by level, and the rates `review_in`
/// recomputes.
#[derive(Debug, Default, Clone)]
struct Scratch {
    levels: Vec<u32>,
    order: Vec<usize>,
    rates: Vec<f64>,
}

impl Mlfq {
    /// MLFQ with the given level-0 quantum and geometric base.
    pub fn new(quantum: f64, base: f64) -> Self {
        assert!(quantum > 0.0 && quantum.is_finite());
        assert!(base > 1.0 && base.is_finite());
        Mlfq {
            quantum,
            base,
            scratch: RefCell::default(),
        }
    }

    /// Level of a job with the given attained service.
    pub fn level(&self, attained: f64) -> u32 {
        // Cumulative boundary of level l: q·(base^l − 1)/(base − 1).
        // Invert: l = floor(log_base(1 + attained·(base−1)/q)).
        let x = 1.0 + attained * (self.base - 1.0) / self.quantum;
        x.log(self.base).floor().max(0.0) as u32
    }

    /// Attained-service boundary where level `l` ends.
    pub fn boundary(&self, l: u32) -> f64 {
        self.quantum * (self.base.powi(l as i32 + 1) - 1.0) / (self.base - 1.0)
    }

    /// Compute the level-cascade rates into `rates`, with the levels and
    /// the level order going to `levels` and `order`; shared by `allocate`
    /// and `review_in`.
    fn compute(
        &self,
        levels: &mut Vec<u32>,
        order: &mut Vec<usize>,
        alive: &[AliveJob],
        cfg: &MachineConfig,
        rates: &mut [f64],
    ) {
        levels.clear();
        levels.extend(alive.iter().map(|a| self.level(a.attained)));
        order.clear();
        order.extend(0..alive.len());
        order.sort_by(|&a, &b| {
            levels[a]
                .cmp(&levels[b])
                .then_with(|| alive[a].seq.cmp(&alive[b].seq))
        });
        let mut capacity = cfg.total_cap();
        let cap = cfg.job_cap();
        let mut g0 = 0;
        while g0 < order.len() && capacity > 0.0 {
            let lv = levels[order[g0]];
            let mut g1 = g0 + 1;
            while g1 < order.len() && levels[order[g1]] == lv {
                g1 += 1;
            }
            let g = (g1 - g0) as f64;
            let share = (capacity / g).min(cap);
            for &i in &order[g0..g1] {
                rates[i] = share;
            }
            capacity -= share * g;
            g0 = g1;
        }
    }
}

impl Default for Mlfq {
    fn default() -> Self {
        Mlfq::new(1.0, 2.0)
    }
}

impl RateAllocator for Mlfq {
    fn name(&self) -> &'static str {
        "MLFQ"
    }

    fn allocate(&mut self, _now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        let mut scratch = self.scratch.borrow_mut();
        let Scratch { levels, order, .. } = &mut *scratch;
        self.compute(levels, order, alive, cfg, rates);
    }

    fn review_in(&self, _now: f64, alive: &[AliveJob], cfg: &MachineConfig) -> Option<f64> {
        // Next level crossing among jobs currently receiving service, at
        // the rates recomputed into the scratch.
        let mut scratch = self.scratch.borrow_mut();
        let Scratch {
            levels,
            order,
            rates,
        } = &mut *scratch;
        rates.clear();
        rates.resize(alive.len(), 0.0);
        self.compute(levels, order, alive, cfg, rates);
        let mut best: Option<f64> = None;
        for (a, &r) in alive.iter().zip(rates.iter()) {
            if r > 1e-12 {
                let l = self.level(a.attained);
                let dt = (self.boundary(l) - a.attained) / r;
                if dt > 1e-12 {
                    best = Some(best.map_or(dt, |b: f64| b.min(dt)));
                }
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
    fn levels_are_geometric() {
        let m = Mlfq::new(1.0, 2.0);
        // Level 0: [0, 1); level 1: [1, 3); level 2: [3, 7).
        assert_eq!(m.level(0.0), 0);
        assert_eq!(m.level(0.99), 0);
        assert_eq!(m.level(1.0), 1);
        assert_eq!(m.level(2.99), 1);
        assert_eq!(m.level(3.0), 2);
        assert!((m.boundary(0) - 1.0).abs() < 1e-12);
        assert!((m.boundary(1) - 3.0).abs() < 1e-12);
        assert!((m.boundary(2) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn fresh_jobs_preempt_demoted_ones() {
        // Job 0 has attained 5 (level 2); job 1 is fresh (level 0).
        let a = alive(&[(0.0, 9.0, 5.0), (1.0, 9.0, 0.0)]);
        let r = rates_of(&mut Mlfq::default(), 1.0, &a, &cfg(1, 1.0));
        assert_eq!(r, vec![0.0, 1.0]);
    }

    #[test]
    fn same_level_shares_like_rr() {
        let a = alive(&[(0.0, 9.0, 0.5), (0.0, 9.0, 0.7)]);
        let r = rates_of(&mut Mlfq::default(), 0.0, &a, &cfg(1, 1.0));
        assert_eq!(r, vec![0.5, 0.5]);
    }

    #[test]
    fn leftover_capacity_cascades() {
        // One fresh job, one demoted, two machines: fresh gets one machine
        // and the demoted job gets the other (unlike strict-priority
        // starvation).
        let a = alive(&[(0.0, 9.0, 5.0), (0.0, 9.0, 0.0)]);
        let r = rates_of(&mut Mlfq::default(), 0.0, &a, &cfg(2, 1.0));
        assert_eq!(r, vec![1.0, 1.0]);
    }

    #[test]
    fn review_predicts_level_crossing() {
        let m = Mlfq::default();
        let a = alive(&[(0.0, 9.0, 0.25)]);
        // Alone at rate 1, hits the level-0 boundary (attained 1) in 0.75.
        let rev = m.review_in(0.0, &a, &cfg(1, 1.0)).unwrap();
        assert!((rev - 0.75).abs() < 1e-9);
    }

    #[test]
    fn end_to_end_short_jobs_finish_fast() {
        // A long-running job plus a late small job: MLFQ lets the fresh
        // small job through (like SETF), then lets the long one progress.
        let t = Trace::from_pairs([(0.0, 8.0), (4.0, 1.0)]).unwrap();
        let s = simulate(
            &t,
            &mut Mlfq::default(),
            tf_simcore::MachineConfig::new(1),
            SimOptions::default(),
        )
        .unwrap();
        // Small job arrives at 4 with level 0 vs long job's level ≥ 2 →
        // served immediately: completes at 5.
        assert!((s.completion[1] - 5.0).abs() < 1e-6, "{}", s.completion[1]);
        assert!((s.completion[0] - 9.0).abs() < 1e-6, "{}", s.completion[0]);
    }

    #[test]
    fn completes_everything_with_many_levels() {
        let t = Trace::from_pairs([(0.0, 16.0), (0.0, 1.0), (2.0, 4.0), (3.0, 0.5)]).unwrap();
        let s = simulate(
            &t,
            &mut Mlfq::new(0.5, 2.0),
            tf_simcore::MachineConfig::new(1),
            SimOptions::with_profile(),
        )
        .unwrap();
        let p = s.profile.as_ref().unwrap();
        assert!((p.total_work() - t.total_size()).abs() < 1e-6);
    }
}
