//! Highest Density First.
//!
//! ```
//! use tf_policies::Policy;
//! use tf_simcore::{simulate, MachineConfig, SimOptions, Trace};
//!
//! // Unit weights make density 1/p_j, so HDF degenerates to SJF.
//! let trace = Trace::from_pairs([(0.0, 4.0), (1.0, 1.0)]).unwrap();
//! let mut hdf = "hdf".parse::<Policy>().unwrap().make();
//! let s = simulate(&trace, hdf.as_mut(), MachineConfig::new(1), SimOptions::default()).unwrap();
//! assert!((s.completion[1] - 2.0).abs() < 1e-9);
//! assert!((s.completion[0] - 5.0).abs() < 1e-9);
//! ```

use tf_simcore::{AliveJob, MachineConfig, RateAllocator};

/// HDF: run the `m` alive jobs with the highest *density* `w_j / p_j`,
/// one per machine. The classical clairvoyant policy for *weighted* flow
/// time (the weighted analogue of SJF); with unit weights it coincides
/// with SJF. Serves as the baseline for the weighted experiments (E17),
/// mirroring how the paper's technique lineage \[1\] targets weighted
/// flow.
#[derive(Debug, Default, Clone)]
pub struct Hdf {
    order: Vec<usize>, // scratch
}

impl Hdf {
    /// A fresh HDF allocator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RateAllocator for Hdf {
    fn name(&self) -> &'static str {
        "HDF"
    }

    fn allocate(&mut self, _now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        self.order.clear();
        self.order.extend(0..alive.len());
        self.order.sort_by(|&a, &b| {
            let da = alive[a].weight / alive[a].size;
            let db = alive[b].weight / alive[b].size;
            db.partial_cmp(&da)
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

    #[test]
    fn highest_density_runs() {
        let mut a = alive(&[(0.0, 4.0, 0.0), (0.0, 2.0, 0.0)]);
        a[0].weight = 8.0; // density 2.0
        a[1].weight = 1.0; // density 0.5
        let r = rates_of(&mut Hdf::new(), 0.0, &a, &cfg(1, 1.0));
        assert_eq!(r, vec![1.0, 0.0]);
    }

    #[test]
    fn unit_weights_reduce_to_sjf_order() {
        let a = alive(&[(0.0, 4.0, 0.0), (0.0, 2.0, 0.0), (0.0, 3.0, 0.0)]);
        let r = rates_of(&mut Hdf::new(), 0.0, &a, &cfg(1, 1.0));
        // Density 1/p: smallest size = highest density.
        assert_eq!(r, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn fills_all_machines_by_density() {
        let mut a = alive(&[(0.0, 1.0, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, 0.0)]);
        a[0].weight = 1.0;
        a[1].weight = 3.0;
        a[2].weight = 2.0;
        let r = rates_of(&mut Hdf::new(), 0.0, &a, &cfg(2, 1.5));
        assert_eq!(r, vec![0.0, 1.5, 1.5]);
    }
}
