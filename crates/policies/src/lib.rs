#![deny(missing_docs)]

//! # tf-policies — scheduling policies as rate allocators
//!
//! Every policy discussed in *Temporal Fairness of Round Robin* (SPAA 2015)
//! or used as a baseline in its related work, implemented against the
//! [`tf_simcore::RateAllocator`] interface:
//!
//! | Policy | Clairvoyant? | Paper role |
//! |---|---|---|
//! | [`RoundRobin`] | no | the analyzed algorithm: `rate_j = s·min(1, m/n_t)` |
//! | [`Srpt`] | yes | optimal for ℓ1 on one machine; scalable for ℓk \[4, 27\] |
//! | [`Sjf`] | yes | scalable for ℓk \[4, 27\] (preemptive shortest job first) |
//! | [`Setf`] | no | scalable for ℓk on one machine \[4\] |
//! | [`Fcfs`] | no | classic non-preemptive-order baseline |
//! | [`Laps`] | no | latest-arrival processor sharing (RR generalization) |
//! | [`WeightedRoundRobin`] | no | RR with static weights (max-min water-filling) |
//! | [`AgedRoundRobin`] | no | machines ∝ job age — the \[12\] variant known scalable for ℓ2 |
//! | [`SrptFcfsHybrid`] | yes | SRPT+FCFS starvation mitigation \[Kuo, arXiv 2112.14403\] |
//! | [`MultiList`] | yes | largest-job/least-loaded multi-list dispatch \[arXiv 2001.07061\] |
//!
//! All policies respect the feasibility constraints of the paper's Section
//! 2: per-job rate at most one machine (`s`), total at most `m·s`.
//!
//! The full catalogue — definitions, citations, known ℓk-competitiveness,
//! and which audits/experiments gate each policy — lives in
//! `docs/POLICIES.md`; a registry test keeps that page in sync with
//! [`Policy::all`].
//!
//! ```
//! use tf_policies::Policy;
//! use tf_simcore::{simulate, MachineConfig, SimOptions, Trace};
//!
//! // SRPT starves the long job behind this stream of shorts; the
//! // starvation-mitigated hybrid promotes it once its age hits θ.
//! let mut pairs = vec![(0.0, 6.0)];
//! pairs.extend((0..40).map(|i| (0.5 * i as f64, 0.45)));
//! let trace = Trace::from_pairs(pairs).unwrap();
//! let run = |p: Policy| {
//!     let mut alloc = p.make();
//!     simulate(&trace, alloc.as_mut(), MachineConfig::new(1), SimOptions::default()).unwrap()
//! };
//! let (srpt, hyb) = (run(Policy::Srpt), run(Policy::Hybrid(4.0)));
//! assert!(hyb.flow[0] < srpt.flow[0] - 1.0); // tail flow is capped…
//! assert!(srpt.total_flow() < hyb.total_flow() + 1e-9); // …ℓ1 pays for it
//! ```

mod agedrr;
mod fcfs;
mod hdf;
mod hybrid;
mod laps;
mod mlfq;
mod multilist;
mod registry;
mod rr;
mod setf;
mod sjf;
mod srpt;
mod waterfill;

pub use agedrr::AgedRoundRobin;
pub use fcfs::Fcfs;
pub use hdf::Hdf;
pub use hybrid::{SrptFcfsHybrid, DEFAULT_STARVATION_THRESHOLD};
pub use laps::Laps;
pub use mlfq::Mlfq;
pub use multilist::MultiList;
pub use registry::Policy;
pub use rr::{RoundRobin, WeightedRoundRobin};
pub use setf::Setf;
pub use sjf::Sjf;
pub use srpt::Srpt;
pub use waterfill::water_fill;

#[cfg(test)]
pub(crate) mod testutil {
    use tf_simcore::{AliveJob, MachineConfig};

    /// Build alive-job views for tests: `(arrival, size, attained)` tuples.
    pub fn alive(specs: &[(f64, f64, f64)]) -> Vec<AliveJob> {
        specs
            .iter()
            .enumerate()
            .map(|(i, &(arrival, size, attained))| AliveJob {
                id: i as u32,
                arrival,
                size,
                weight: 1.0,
                remaining: size - attained,
                attained,
                seq: i as u32,
            })
            .collect()
    }

    pub fn cfg(m: usize, speed: f64) -> MachineConfig {
        MachineConfig::with_speed(m, speed)
    }

    /// Run an allocator once and return the rates.
    pub fn rates_of(
        p: &mut dyn tf_simcore::RateAllocator,
        now: f64,
        alive: &[AliveJob],
        cfg: &MachineConfig,
    ) -> Vec<f64> {
        let mut rates = vec![0.0; alive.len()];
        p.allocate(now, alive, cfg, &mut rates);
        tf_simcore::alloc::check_rates(alive, cfg, &rates, 1e-9).expect("feasible");
        rates
    }
}
