#![deny(missing_docs)]

//! # tf-audit — differential & metamorphic correctness subsystem
//!
//! The workspace has three independent ways to compute the same
//! quantities — the event-driven simulator (`tf-simcore`), the certified
//! LP lower bound (`tf-lowerbound`), and the dual-fitting certificate
//! checker (`tf-core`). This crate cross-examines them systematically:
//!
//! * an **invariant catalogue** ([`audit_schedule`], [`audit_trace`]) of
//!   schedule-feasibility checks (delegated to
//!   [`tf_simcore::validate::validate_schedule`], the single source of
//!   truth for S-checks), policy-structural oracles (RR equal share,
//!   SETF attained-order priority, LAPS support, FCFS front-running),
//!   differential optimality oracles (SRPT/FCFS optima on one machine),
//!   and cross-layer oracles (lower bound ≤ every policy's cost,
//!   solver ≡ reference, Theorem 1 certificate verifies);
//! * a **metamorphic suite** ([`metamorphic_suite`]) — time scaling, job
//!   relabeling, machine-count and speed monotonicity — each shipped
//!   only for the policies where the relation is provable;
//! * a seeded **fuzz driver** ([`run_fuzz`], also the `audit` binary)
//!   over random `tf-workload` traces and all registered policies, with
//!   a built-in **delta-debugging shrinker** ([`shrink_trace`]) that
//!   reduces every failure to a minimal reproducing trace in
//!   `results/audit/`.
//!
//! Every check's justification (theorem, cited paper, or experiment id)
//! and float tolerance is catalogued in `docs/VALIDATION.md`.
//!
//! ## Quick start
//!
//! Audit one policy run:
//!
//! ```
//! use tf_audit::{audit_schedule, AuditConfig};
//! use tf_policies::Policy;
//! use tf_simcore::{simulate, MachineConfig, SimOptions, Trace};
//!
//! let trace = Trace::from_pairs([(0.0, 2.0), (1.0, 1.0)])?;
//! let mut rr = Policy::Rr.make();
//! // The S-checks need the exact rate trajectory, so record the profile.
//! let opts = SimOptions::with_profile();
//! let sched = simulate(&trace, rr.as_mut(), MachineConfig::new(2), opts)?;
//! let report = audit_schedule(&trace, &sched, Some(Policy::Rr), &AuditConfig::default());
//! assert!(report.ok());
//! # Ok::<(), tf_simcore::SimError>(())
//! ```
//!
//! Audit a whole instance across every registered policy, plus the
//! metamorphic suite:
//!
//! ```
//! use tf_audit::{audit_trace, metamorphic_suite, AuditConfig};
//! use tf_policies::Policy;
//! use tf_simcore::Trace;
//!
//! let trace = Trace::from_pairs([(0.0, 3.0), (0.0, 1.0), (2.0, 2.0)])?;
//! let cfg = AuditConfig::default();
//! let mut report = audit_trace(&trace, 1, 1.0, &Policy::all(), &cfg);
//! report.merge(metamorphic_suite(&trace, 1, 1.0, &cfg));
//! assert!(report.ok(), "{:?}", report.violations);
//! # Ok::<(), tf_simcore::SimError>(())
//! ```

mod catalogue;
mod fuzz;
mod metamorphic;
mod shrink;

pub use catalogue::{audit_schedule, audit_trace, AuditConfig, AuditReport, Violation};
pub use fuzz::{
    audit_instance, gen_instance, run_fuzz, run_fuzz_scoped, FuzzConfig, FuzzFailure, FuzzInstance,
    FuzzSummary,
};
pub use metamorphic::{metamorphic_suite, RELABEL_POLICIES, TIME_SCALE_POLICIES};
pub use shrink::shrink_trace;

/// Re-export of the schedule-feasibility validator (the S-checks'
/// implementation). `tf_simcore::validate` remains the single source of
/// truth; the audit layer builds the policy-level and cross-layer checks
/// on top of it.
pub use tf_simcore::validate::{validate_schedule, ValidationReport};
