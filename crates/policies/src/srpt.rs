//! Shortest Remaining Processing Time.
//!
//! ```
//! use tf_policies::Policy;
//! use tf_simcore::{simulate, MachineConfig, SimOptions, Trace};
//!
//! // The classic preemption example: (0,4) then (1,1).
//! let trace = Trace::from_pairs([(0.0, 4.0), (1.0, 1.0)]).unwrap();
//! let mut srpt = "srpt".parse::<Policy>().unwrap().make();
//! let s = simulate(&trace, srpt.as_mut(), MachineConfig::new(1), SimOptions::default()).unwrap();
//! assert!((s.completion[1] - 2.0).abs() < 1e-9); // short job preempts
//! assert!((s.completion[0] - 5.0).abs() < 1e-9);
//! assert!((s.total_flow() - 6.0).abs() < 1e-9); // ℓ1-optimal on one machine
//! ```

use tf_simcore::{AliveJob, MachineConfig, RateAllocator};

/// SRPT: at each instant, run the `m` alive jobs with least remaining work,
/// one per machine. Clairvoyant. Optimal (1-competitive) for total flow
/// time on a single machine; `(1+ε)`-speed `O(1)`-competitive for ℓk-norms
/// on multiple machines \[Fox–Moseley 2011, Torng–McCullough 2008\].
///
/// Ties are broken by earlier arrival, then id, making the schedule
/// deterministic. Between events the selected set cannot change: processed
/// jobs only shrink their remaining work (they stay ahead), unprocessed
/// jobs keep theirs, so no review hints are needed.
#[derive(Debug, Default, Clone)]
pub struct Srpt {
    order: Vec<usize>, // scratch
}

impl Srpt {
    /// A fresh SRPT allocator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RateAllocator for Srpt {
    fn name(&self) -> &'static str {
        "SRPT"
    }

    fn allocate(&mut self, _now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        self.order.clear();
        self.order.extend(0..alive.len());
        self.order.sort_by(|&a, &b| {
            alive[a]
                .remaining
                .partial_cmp(&alive[b].remaining)
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
    fn runs_shortest_remaining_first() {
        let a = alive(&[(0.0, 5.0, 0.0), (0.0, 2.0, 0.0), (0.0, 3.0, 0.0)]);
        let r = rates_of(&mut Srpt::new(), 0.0, &a, &cfg(1, 1.0));
        assert_eq!(r, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn remaining_not_size_decides() {
        // Job 0 is large but nearly done.
        let a = alive(&[(0.0, 10.0, 9.5), (0.0, 2.0, 0.0)]);
        let r = rates_of(&mut Srpt::new(), 0.0, &a, &cfg(1, 1.0));
        assert_eq!(r, vec![1.0, 0.0]);
    }

    #[test]
    fn fills_all_machines() {
        let a = alive(&[(0.0, 3.0, 0.0), (0.0, 1.0, 0.0), (0.0, 2.0, 0.0)]);
        let r = rates_of(&mut Srpt::new(), 0.0, &a, &cfg(2, 1.0));
        assert_eq!(r, vec![0.0, 1.0, 1.0]);
    }

    #[test]
    fn ties_break_by_arrival() {
        let a = alive(&[(1.0, 2.0, 0.0), (0.0, 2.0, 0.0)]);
        // testutil assigns seq by index; index 0 arrived later here but has
        // smaller seq — simulate real ordering by arrival: build manually.
        let mut a = a;
        a[0].seq = 1;
        a[1].seq = 0;
        let r = rates_of(&mut Srpt::new(), 0.0, &a, &cfg(1, 1.0));
        assert_eq!(r, vec![0.0, 1.0]);
    }

    #[test]
    fn srpt_is_optimal_on_classic_example() {
        // (0,4), (1,1): SRPT preempts: total flow = (1+... ) compute:
        // t∈[0,1): job0; t=1 job1 arrives with remaining 1 < 3 → runs,
        // completes at 2 (flow 1); job0 resumes, completes at 5 (flow 5).
        let t = Trace::from_pairs([(0.0, 4.0), (1.0, 1.0)]).unwrap();
        let s = simulate(
            &t,
            &mut Srpt::new(),
            tf_simcore::MachineConfig::new(1),
            SimOptions::default(),
        )
        .unwrap();
        assert!((s.completion[0] - 5.0).abs() < 1e-9);
        assert!((s.completion[1] - 2.0).abs() < 1e-9);
        assert!((s.total_flow() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn srpt_two_machines_parallelism() {
        let t = Trace::from_pairs([(0.0, 2.0), (0.0, 2.0), (0.0, 2.0)]).unwrap();
        let s = simulate(
            &t,
            &mut Srpt::new(),
            tf_simcore::MachineConfig::new(2),
            SimOptions::default(),
        )
        .unwrap();
        // Two jobs run [0,2); the third runs [2,4).
        let mut c = s.completion.clone();
        c.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((c[0] - 2.0).abs() < 1e-9);
        assert!((c[1] - 2.0).abs() < 1e-9);
        assert!((c[2] - 4.0).abs() < 1e-9);
    }
}
