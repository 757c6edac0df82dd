//! First Come First Served.
//!
//! ```
//! use tf_policies::Policy;
//! use tf_simcore::{simulate, MachineConfig, SimOptions, Trace};
//!
//! // Head-of-line blocking: the late short job waits for the long one.
//! let trace = Trace::from_pairs([(0.0, 3.0), (1.0, 1.0)]).unwrap();
//! let mut fcfs = "fcfs".parse::<Policy>().unwrap().make();
//! let s = simulate(&trace, fcfs.as_mut(), MachineConfig::new(1), SimOptions::default()).unwrap();
//! assert!((s.completion[0] - 3.0).abs() < 1e-9);
//! assert!((s.completion[1] - 4.0).abs() < 1e-9);
//! ```

use tf_simcore::{AliveJob, MachineConfig, RateAllocator};

/// FCFS: run the `m` earliest-arrived alive jobs, one per machine, to
/// completion. Non-clairvoyant and non-preemptive in arrival order. The
/// classic baseline whose total-flow behavior collapses under heavy-tailed
/// sizes (head-of-line blocking).
#[derive(Debug, Default, Clone, Copy)]
pub struct Fcfs;

impl Fcfs {
    /// A fresh FCFS allocator.
    pub fn new() -> Self {
        Fcfs
    }
}

impl RateAllocator for Fcfs {
    fn name(&self) -> &'static str {
        "FCFS"
    }

    fn allocate(&mut self, _now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        // `alive` is sorted by (arrival, seq) already.
        for r in rates.iter_mut().take(cfg.m.min(alive.len())) {
            *r = cfg.speed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{alive, cfg, rates_of};
    use tf_simcore::{simulate, SimOptions, Trace};

    #[test]
    fn first_m_arrivals_run() {
        let a = alive(&[(0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (2.0, 1.0, 0.0)]);
        let r = rates_of(&mut Fcfs::new(), 2.0, &a, &cfg(2, 1.0));
        assert_eq!(r, vec![1.0, 1.0, 0.0]);
    }

    #[test]
    fn head_of_line_blocking() {
        // A huge job blocks a tiny one.
        let t = Trace::from_pairs([(0.0, 100.0), (1.0, 0.1)]).unwrap();
        let s = simulate(
            &t,
            &mut Fcfs::new(),
            tf_simcore::MachineConfig::new(1),
            SimOptions::default(),
        )
        .unwrap();
        assert!((s.completion[0] - 100.0).abs() < 1e-9);
        assert!((s.completion[1] - 100.1).abs() < 1e-9);
    }
}
