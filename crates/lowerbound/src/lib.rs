#![warn(missing_docs)]

//! # tf-lowerbound — certified lower bounds on `OPT`'s ℓk flow
//!
//! Competitive ratios compare an algorithm to the *optimal clairvoyant
//! offline schedule*, which is intractable to compute exactly for ℓk flow
//! on multiple machines. The paper sidesteps OPT the same way we do: its
//! analysis (Section 3.1) lower-bounds OPT by a time-indexed LP relaxation
//! and proves
//!
//! ```text
//!   LP  ≤  2 · Σ_j F_j^k(OPT)        (with the γ factor stripped)
//! ```
//!
//! because for any feasible schedule, `Σ_t x_jt (t−r_j)^k / p_j ≤ F_j^k`
//! and `Σ_t x_jt p_j^k / p_j = p_j^k ≤ F_j^k`.
//!
//! We compute that LP **exactly** for integral traces by casting it as a
//! min-cost transportation problem (jobs supply `p_j` units; unit time
//! slots have capacity `m`; the per-job per-slot rate cap of a feasible
//! schedule adds edge capacity 1) and solving it with our own min-cost-flow
//! solvers ([`mcmf`]), by delayed column generation above 80 jobs
//! ([`Method::Exact`]).
//!
//! Two cheaper bounds complement it:
//! * [`bounds::size_bound`] — `Σ_j p_j^k`, since `F_j ≥ p_j` at speed 1;
//! * [`bounds::srpt_super_machine_bound`] — for ℓ1: SRPT on a single
//!   speed-`m` machine with relaxed per-job cap is optimal for the
//!   relaxation, hence a lower bound; *exact* OPT when `m = 1, k = 1`.
//!
//! [`lower_bound`] is the one entry point: an [`LbRequest`] names the
//! machine count, the exponent, the weighting, the LP solve [`Method`]
//! and a [`SolveBudget`]; the outcome combines the three bounds and
//! reports which one won. [`lk_lower_bound`] is its unweighted, exact,
//! unlimited-budget shorthand.
//!
//! ## Audited continuously
//!
//! Two `tf-audit` checks gate this crate (see `docs/VALIDATION.md`):
//! `X1-LB-DOMINANCE` fuzzes the dominance `lk_lower_bound ≤ Σ_j F_j^k`
//! against every registered policy's measured speed-1 schedule (each one
//! is feasible, so a violation indicts the bound), and `X3-SOLVER-EQUIV`
//! pins the optimized solver to [`Method::Reference`] — the PR-1
//! unit-augmenting implementation retained as an executable oracle — on
//! both the combined bound and the raw LP value.

pub mod bounds;
pub mod budget;
pub mod exact;
pub mod lp;
pub mod mcmf;

pub use bounds::{size_bound, srpt_super_machine_bound};
pub use budget::SolveBudget;
pub use exact::{exact_slotted_opt, ExactLimits, ExactResult};
pub use lp::last_solve_stats;
pub use mcmf::{FlowResult, McmfGraph, McmfStats, MinCostFlow};

use serde::{Deserialize, Serialize};
use tf_simcore::Trace;

/// Which component produced the winning lower bound.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BoundKind {
    /// `Σ p_j^k`.
    Size,
    /// Time-indexed LP relaxation / 2.
    Lp,
    /// SRPT on the speed-`m` super machine (ℓ1 only).
    SrptSuperMachine,
}

impl BoundKind {
    /// Short provenance label for tables and bench records.
    pub fn label(self) -> &'static str {
        match self {
            BoundKind::Size => "size",
            BoundKind::Lp => "lp/2",
            BoundKind::SrptSuperMachine => "srpt-m",
        }
    }
}

/// A certified lower bound on `Σ_j F_j^k` of the optimal speed-1 schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LowerBound {
    /// The bound value (on the k-th *power sum*, not the norm).
    pub value: f64,
    /// Which component bound was largest.
    pub kind: BoundKind,
    /// The LP relaxation value before halving (0 if LP was skipped).
    pub lp_raw: f64,
}

impl LowerBound {
    /// The implied lower bound on the ℓk *norm*: `value^{1/k}`.
    pub fn norm(&self, k: f64) -> f64 {
        self.value.powf(1.0 / k)
    }
}

/// How [`lower_bound`] solves the LP relaxation. Both methods reach the
/// same exact optimum, up to the last ulps of float rounding; they
/// differ in cost.
#[derive(Debug, Clone, Copy)]
pub enum Method {
    /// The production solve. Up to 80 jobs: the unit-SSP [`MinCostFlow`]
    /// solver on the pruned network. Above: delayed column generation on
    /// the [`McmfGraph`] arena, building only each job's active slots and
    /// pricing the rest, which certifies the full LP's optimum.
    Exact,
    /// The PR-1 unit-augmenting solver on the unpruned network, kept
    /// verbatim as the oracle the optimized paths are checked against
    /// (audit check `X3-SOLVER-EQUIV` and the property tests). It never
    /// polls the budget once started.
    Reference,
}

/// One lower-bound request: everything [`lower_bound`] needs beside the
/// trace. [`LbRequest::new`] gives the common case; override fields with
/// struct-update syntax.
#[derive(Debug, Clone, Copy)]
pub struct LbRequest<'a> {
    /// Machine count of the optimal schedule being bounded.
    pub m: usize,
    /// Norm exponent, a positive integer (the LP cost uses exact integer
    /// powers).
    pub k: u32,
    /// Bound `Σ_j w_j F_j^k` with the trace's job weights instead of the
    /// unweighted sum. The size and SRPT super-machine bounds ignore
    /// weights, so a weighted bound is the LP component alone.
    pub weighted: bool,
    /// How the LP component is solved.
    pub method: Method,
    /// Cooperative deadline / cancel flag for the LP component.
    pub budget: &'a SolveBudget,
}

impl LbRequest<'_> {
    /// An unweighted [`Method::Exact`] request with an unlimited budget.
    pub fn new(m: usize, k: u32) -> Self {
        LbRequest {
            m,
            k,
            weighted: false,
            method: Method::Exact,
            budget: &budget::UNLIMITED,
        }
    }
}

/// What [`lower_bound`] returns.
#[derive(Debug, Clone)]
pub struct LbOutcome {
    /// The certified bound.
    pub bound: LowerBound,
    /// `true` if the budget tripped and the LP component was dropped:
    /// `bound` then holds only the closed-form bounds — weaker, never
    /// invalid. Degraded bounds must not be cached as if they were the
    /// full bound.
    pub degraded: bool,
}

/// Best available lower bound on `Σ_j F_j^k` for the optimal schedule on
/// `m` unit-speed machines: the largest of [`size_bound`], the LP
/// relaxation halved, and for `k = 1` [`srpt_super_machine_bound`].
///
/// The LP component needs an integral trace (integer arrivals and sizes)
/// and is skipped otherwise; call [`Trace::to_integral`] first — note the
/// rounded instance's bound certifies the rounded instance, so
/// experiments generate integral traces directly.
///
/// If `req.budget` trips, the LP solve is abandoned cleanly and the
/// outcome degrades to the closed-form bounds with `degraded = true`.
/// The campaign layer in `tf-harness` records that provenance in the
/// output row instead of failing the run.
///
/// # Panics
/// If the LP component runs with `k = 0` or `m = 0`.
pub fn lower_bound(trace: &Trace, req: &LbRequest) -> LbOutcome {
    let mut obs_span = tf_obs::span!("lb", "lk_lower_bound");
    obs_span.arg("n", trace.len() as f64);
    obs_span.arg("m", req.m as f64);
    obs_span.arg("k", f64::from(req.k));
    let mut best = LowerBound {
        value: if req.weighted {
            0.0
        } else {
            size_bound(trace, f64::from(req.k))
        },
        kind: BoundKind::Size,
        lp_raw: 0.0,
    };
    let mut degraded = false;

    if trace.is_integral(1e-9) && !trace.is_empty() {
        match lp_component(trace, req) {
            Some(lp) => {
                best.lp_raw = lp;
                let half = lp / 2.0;
                if half > best.value {
                    best.value = half;
                    best.kind = BoundKind::Lp;
                }
            }
            None => {
                degraded = true;
                tf_obs::instant!("lb", "budget_degraded");
            }
        }
    }

    if req.k == 1 && !req.weighted {
        let srpt = srpt_super_machine_bound(trace, req.m);
        if srpt > best.value {
            best.value = srpt;
            best.kind = BoundKind::SrptSuperMachine;
        }
    }
    LbOutcome {
        bound: best,
        degraded,
    }
}

/// The LP relaxation's value by `req.method`; `None` iff the budget
/// tripped.
fn lp_component(trace: &Trace, req: &LbRequest) -> Option<f64> {
    let LbRequest {
        m,
        k,
        weighted,
        method,
        budget,
    } = *req;
    assert!(k >= 1, "k must be at least 1");
    assert!(m >= 1, "m must be at least 1");
    if budget.exhausted() {
        return None; // don't even pay for the build
    }
    let lp = match method {
        Method::Exact => lp::with_solver(|s| s.colgen(trace, m, k, weighted, budget))?,
        Method::Reference => lp::lp_relaxation_value_reference(trace, m, k, weighted),
    };
    Some(lp.objective)
}

/// [`lower_bound`] for an unweighted [`Method::Exact`] request with an
/// unlimited budget: the bound every ratio bracket divides by.
pub fn lk_lower_bound(trace: &Trace, m: usize, k: u32) -> LowerBound {
    lower_bound(trace, &LbRequest::new(m, k)).bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use tf_policies::Policy;
    use tf_simcore::{simulate, MachineConfig, SimOptions};

    #[test]
    fn lower_bound_never_exceeds_any_policy() {
        let t = Trace::from_pairs([(0.0, 2.0), (1.0, 1.0), (1.0, 3.0), (4.0, 1.0)]).unwrap();
        for m in [1usize, 2] {
            for k in [1u32, 2, 3] {
                let lb = lk_lower_bound(&t, m, k);
                for p in Policy::all() {
                    let mut alloc = p.make();
                    let s = simulate(
                        &t,
                        alloc.as_mut(),
                        MachineConfig::new(m),
                        SimOptions::default(),
                    )
                    .unwrap();
                    let obj = s.flow_power_sum(f64::from(k));
                    assert!(
                        lb.value <= obj * (1.0 + 1e-9) + 1e-9,
                        "m={m} k={k} {p}: LB {} > objective {obj}",
                        lb.value
                    );
                }
            }
        }
    }

    #[test]
    fn exact_for_single_job() {
        // One job (0, 3): OPT flow = 3. k=1: Σ F = 3.
        let t = Trace::from_pairs([(0.0, 3.0)]).unwrap();
        let lb = lk_lower_bound(&t, 1, 1);
        assert!((lb.value - 3.0).abs() < 1e-9, "{lb:?}");
        // Size bound and the SRPT super-machine bound tie at 3.0 here;
        // either may be reported.
        assert!(matches!(
            lb.kind,
            BoundKind::Size | BoundKind::SrptSuperMachine
        ));
    }

    #[test]
    fn l1_single_machine_bound_is_tight_srpt() {
        // SRPT is optimal on one machine for l1: the bound must equal it.
        let t = Trace::from_pairs([(0.0, 4.0), (1.0, 1.0), (2.0, 2.0)]).unwrap();
        let mut srpt = Policy::Srpt.make();
        let opt = simulate(
            &t,
            srpt.as_mut(),
            MachineConfig::new(1),
            SimOptions::default(),
        )
        .unwrap()
        .total_flow();
        let lb = lk_lower_bound(&t, 1, 1);
        assert!(
            (lb.value - opt).abs() < 1e-9,
            "LB {} vs OPT {opt}",
            lb.value
        );
    }

    #[test]
    fn norm_takes_kth_root() {
        let lb = LowerBound {
            value: 27.0,
            kind: BoundKind::Size,
            lp_raw: 0.0,
        };
        assert!((lb.norm(3.0) - 3.0).abs() < 1e-12);
    }

    /// Every method, for one trace and one base request.
    fn all_methods(t: &Trace, base: LbRequest) -> Vec<LbOutcome> {
        [Method::Exact, Method::Reference]
            .into_iter()
            .map(|method| lower_bound(t, &LbRequest { method, ..base }))
            .collect()
    }

    #[test]
    fn empty_trace_gives_zero() {
        let t = Trace::from_pairs(std::iter::empty()).unwrap();
        for o in all_methods(&t, LbRequest::new(1, 2)) {
            assert_eq!(o.bound.value, 0.0);
            assert_eq!(o.bound.lp_raw, 0.0);
            assert!(!o.degraded);
        }
    }

    #[test]
    fn fractional_traces_skip_the_lp() {
        let t = Trace::from_pairs([(0.5, 1.0), (1.0, 2.5)]).unwrap();
        for o in all_methods(&t, LbRequest::new(1, 2)) {
            assert_eq!(o.bound.lp_raw, 0.0);
            assert_eq!(o.bound.kind, BoundKind::Size);
            assert!(o.bound.value > 0.0 && !o.degraded);
        }
    }

    #[test]
    fn every_method_reaches_the_same_lp() {
        let mut b = tf_simcore::TraceBuilder::new();
        for (arrival, size, weight) in [
            (0.0, 2.0, 1.0),
            (1.0, 1.0, 3.0),
            (1.0, 3.0, 0.5),
            (4.0, 1.0, 2.0),
        ] {
            b.push_weighted(arrival, size, weight);
        }
        let t = b.build().unwrap();
        for weighted in [false, true] {
            for (m, k) in [(1usize, 1u32), (2, 2), (1, 3)] {
                let base = LbRequest {
                    weighted,
                    ..LbRequest::new(m, k)
                };
                let outcomes = all_methods(&t, base);
                let exact = outcomes[0].bound;
                let tol = 1e-9 * (1.0 + exact.lp_raw);
                for o in &outcomes {
                    assert!(!o.degraded);
                    assert!(
                        (o.bound.lp_raw - exact.lp_raw).abs() <= tol,
                        "{base:?} {o:?}"
                    );
                    assert!((o.bound.value - exact.value).abs() <= tol, "{base:?} {o:?}");
                }
            }
        }
    }

    #[test]
    fn weighted_bound_is_lp_over_two_alone() {
        use tf_simcore::TraceBuilder;
        let mut b = TraceBuilder::new();
        b.push_weighted(0.0, 3.0, 0.01);
        b.push_weighted(1.0, 1.0, 0.01);
        let t = b.build().unwrap();
        let req = LbRequest {
            weighted: true,
            ..LbRequest::new(1, 1)
        };
        let o = lower_bound(&t, &req);
        // Tiny weights put LP/2 far below the unweighted size bound, which
        // must not leak into a weighted bound.
        assert_eq!(o.bound.kind, BoundKind::Lp);
        assert_eq!(o.bound.value, o.bound.lp_raw / 2.0);
        assert!(o.bound.value < size_bound(&t, 1.0) / 10.0);
    }

    #[test]
    fn exhausted_budget_degrades_to_closed_form_and_stays_valid() {
        let t = Trace::from_pairs([(0.0, 2.0), (1.0, 1.0), (1.0, 3.0), (4.0, 1.0)]).unwrap();
        let spent = SolveBudget::with_timeout(std::time::Duration::ZERO);
        for (m, k) in [(1usize, 1u32), (2, 2)] {
            let full = lk_lower_bound(&t, m, k);
            let base = LbRequest {
                budget: &spent,
                ..LbRequest::new(m, k)
            };
            for o in all_methods(&t, base) {
                assert!(o.degraded, "zero budget must skip the LP (m={m} k={k})");
                assert_eq!(o.bound.lp_raw, 0.0);
                assert_ne!(o.bound.kind, BoundKind::Lp);
                // Degraded is weaker, never invalid: it lower-bounds the
                // full bound, which lower-bounds every feasible schedule.
                assert!(o.bound.value <= full.value * (1.0 + 1e-12));
                assert!(o.bound.value > 0.0);
            }
        }
    }

    #[test]
    fn cancel_flag_aborts_budgeted_solve() {
        let t = Trace::from_pairs([(0.0, 2.0), (1.0, 1.0), (2.0, 3.0)]).unwrap();
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let budget =
            SolveBudget::with_timeout(std::time::Duration::from_secs(3600)).cancelled_by(flag);
        let req = LbRequest {
            budget: &budget,
            ..LbRequest::new(1, 2)
        };
        assert!(lower_bound(&t, &req).degraded);
    }
}
