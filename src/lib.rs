#![warn(missing_docs)]

//! # temporal-fairness-rr
//!
//! A repo-scale reproduction of *Temporal Fairness of Round Robin:
//! Competitive Analysis for Lk-norms of Flow Time* (Im, Kulkarni, Moseley —
//! SPAA 2015).
//!
//! This facade crate re-exports the workspace so downstream users can
//! depend on a single crate:
//!
//! * [`simcore`] — exact event-driven multi-machine scheduling simulator;
//! * [`policies`] — RR, SRPT, SJF, SETF, FCFS, LAPS, age-weighted RR, …;
//! * [`workload`] — arrival/size generators and adversarial instances;
//! * [`metrics`] — ℓk-norms of flow time, fairness indices, statistics;
//! * [`lowerbound`] — certified lower bounds on OPT via the paper's LP
//!   relaxation (solved exactly by min-cost flow);
//! * [`core`] — the paper's dual-fitting analysis, executable: dual
//!   variable construction, Lemma 1–4 checkers, Theorem 1 certificates;
//! * [`dispatch`] — the non-migratory / immediate-dispatch regime of the
//!   related work (\[2, 3\]);
//! * [`speedup`] — the arbitrary speed-up curves model where RR provably
//!   fails for ℓ2 (\[13, 15\], the paper's Section 1.2 foil);
//! * [`broadcast`] — pull-based broadcast scheduling, the other Section
//!   1.2 setting (one transmission serves every outstanding request);
//! * [`obs`] — structured tracing and counters (spans, chrome-trace /
//!   JSONL sinks), one atomic load per probe when off;
//! * [`audit`] — differential & metamorphic correctness net: invariant
//!   catalogue, policy oracles, fuzzing and counterexample shrinking
//!   (see `docs/VALIDATION.md`);
//! * [`harness`] — the E1–E22 experiment suite.
//!
//! ## Quickstart
//!
//! ```
//! use temporal_fairness_rr::prelude::*;
//!
//! // Two jobs on one machine under Round Robin.
//! let trace = Trace::from_pairs([(0.0, 1.0), (0.0, 2.0)]).unwrap();
//! let mut rr = RoundRobin::new();
//! let sched = simulate(&trace, &mut rr, MachineConfig::new(1), SimOptions::default()).unwrap();
//! assert!((sched.completion[0] - 2.0).abs() < 1e-9);
//! assert!((sched.completion[1] - 3.0).abs() < 1e-9);
//! // The l2-norm of flow time the paper studies:
//! let l2 = sched.flow_norm(2.0);
//! assert!((l2 - (4.0f64 + 9.0).sqrt()).abs() < 1e-9);
//! ```
//!
//! [`simulate`](prelude::simulate) takes the trace, the policy, the
//! machine environment (count `m` and speed `s`) and the run options. To
//! trace a run, install a sink before it:
//!
//! ```
//! use temporal_fairness_rr::prelude::*;
//!
//! let trace = Trace::from_pairs([(0.0, 1.0), (0.0, 2.0)]).unwrap();
//! let mut rr = RoundRobin::new();
//! // Or SinkSpec::Chrome("run.trace.json".into()), written by obs::flush().
//! temporal_fairness_rr::obs::install(SinkSpec::Collect);
//! let sched = simulate(&trace, &mut rr, MachineConfig::new(1), SimOptions::default()).unwrap();
//! assert!(sched.stats.registry().get("sim.jobs_admitted").unwrap() >= 2.0);
//! assert!(!temporal_fairness_rr::obs::take_events().is_empty());
//! ```

pub use tf_audit as audit;
pub use tf_broadcast as broadcast;
pub use tf_core as core;
pub use tf_dispatch as dispatch;
pub use tf_harness as harness;
pub use tf_lowerbound as lowerbound;
pub use tf_metrics as metrics;
pub use tf_obs as obs;
pub use tf_policies as policies;
pub use tf_simcore as simcore;
pub use tf_speedup as speedup;
pub use tf_workload as workload;

/// The most common imports, bundled.
pub mod prelude {
    pub use tf_audit::{audit_schedule, audit_trace, shrink_trace, AuditConfig, AuditReport};
    pub use tf_core::{verify_theorem1, Certificate};
    pub use tf_lowerbound::lk_lower_bound;
    pub use tf_metrics::{flow_stats, jain_index, lk_norm};
    pub use tf_obs::{ObsRegistry, SinkSpec};
    pub use tf_policies::{Fcfs, Laps, Policy, RoundRobin, Setf, Sjf, Srpt, WeightedRoundRobin};
    pub use tf_simcore::{
        simulate, Job, JobId, MachineConfig, RateAllocator, Schedule, SimOptions, Trace,
    };
    pub use tf_workload::{PoissonWorkload, SizeDist};
}
