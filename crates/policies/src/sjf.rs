//! (Preemptive) Shortest Job First.
//!
//! ```
//! use tf_policies::Policy;
//! use tf_simcore::{simulate, MachineConfig, SimOptions, Trace};
//!
//! // Total size (not remaining work) decides: the size-1 job preempts.
//! let trace = Trace::from_pairs([(0.0, 4.0), (1.0, 1.0)]).unwrap();
//! let mut sjf = "sjf".parse::<Policy>().unwrap().make();
//! let s = simulate(&trace, sjf.as_mut(), MachineConfig::new(1), SimOptions::default()).unwrap();
//! assert!((s.completion[1] - 2.0).abs() < 1e-9);
//! assert!((s.completion[0] - 5.0).abs() < 1e-9);
//! ```

use tf_simcore::{AliveJob, MachineConfig, RateAllocator};

/// SJF: at each instant, run the `m` alive jobs with the smallest *total*
/// size, one per machine. Clairvoyant; priorities are static per job, so
/// the selected set changes only at arrivals/completions. Scalable
/// (`(1+ε)`-speed `O(1)`-competitive) for ℓk-norms of flow time \[Bansal–
/// Pruhs 2010\], including on multiple machines.
#[derive(Debug, Default, Clone)]
pub struct Sjf {
    order: Vec<usize>, // scratch
}

impl Sjf {
    /// A fresh SJF allocator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RateAllocator for Sjf {
    fn name(&self) -> &'static str {
        "SJF"
    }

    fn allocate(&mut self, _now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        self.order.clear();
        self.order.extend(0..alive.len());
        self.order.sort_by(|&a, &b| {
            alive[a]
                .size
                .partial_cmp(&alive[b].size)
                .unwrap()
                .then_with(|| alive[a].seq.cmp(&alive[b].seq))
        });
        for &i in self.order.iter().take(cfg.m) {
            rates[i] = cfg.speed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{alive, cfg, rates_of};
    use tf_simcore::{simulate, SimOptions, Trace};

    #[test]
    fn smallest_total_size_wins() {
        let a = alive(&[(0.0, 5.0, 4.9), (0.0, 2.0, 0.0)]);
        // SJF looks at size, not remaining: job 1 (size 2) runs even though
        // job 0 has less remaining.
        let r = rates_of(&mut Sjf::new(), 0.0, &a, &cfg(1, 1.0));
        assert_eq!(r, vec![0.0, 1.0]);
    }

    #[test]
    fn differs_from_srpt_on_nearly_done_large_job() {
        // The same instance under SRPT runs job 0 — covered in srpt tests;
        // here assert SJF's whole-schedule behavior. Jobs (0,4), (1,1):
        // at t=1 job1 (size 1 < 4) preempts; completes 2; job0 at 5.
        let t = Trace::from_pairs([(0.0, 4.0), (1.0, 1.0)]).unwrap();
        let s = simulate(
            &t,
            &mut Sjf::new(),
            tf_simcore::MachineConfig::new(1),
            SimOptions::default(),
        )
        .unwrap();
        assert!((s.completion[1] - 2.0).abs() < 1e-9);
        assert!((s.completion[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn fills_machines_in_size_order() {
        let a = alive(&[
            (0.0, 4.0, 0.0),
            (0.0, 1.0, 0.0),
            (0.0, 2.0, 0.0),
            (0.0, 3.0, 0.0),
        ]);
        let r = rates_of(&mut Sjf::new(), 0.0, &a, &cfg(2, 2.0));
        assert_eq!(r, vec![0.0, 2.0, 2.0, 0.0]);
    }
}
