//! The correctness net, end to end: audit a clean instance, then inject
//! a subtly broken Round Robin (the classic off-by-one in the share) and
//! watch the policy-structural oracle catch it where the feasibility
//! checks cannot — and the shrinker reduce the counterexample.
//!
//! ```text
//! cargo run --example audit_net
//! ```

use temporal_fairness_rr::audit::{audit_schedule, audit_trace, metamorphic_suite, shrink_trace};
use temporal_fairness_rr::prelude::*;

/// RR with its share divided by `n + 1` instead of `n`: still feasible,
/// still work-conserving on the jobs it serves — every schedule-level
/// check passes. Only the structural oracle knows the definition.
struct OffByOneRr;

impl RateAllocator for OffByOneRr {
    fn name(&self) -> &'static str {
        "RR"
    }
    fn allocate(
        &mut self,
        _now: f64,
        alive: &[temporal_fairness_rr::simcore::AliveJob],
        cfg: &MachineConfig,
        rates: &mut [f64],
    ) {
        let share = cfg.speed * (cfg.m as f64 / (alive.len() + 1) as f64).min(1.0);
        rates.fill(share);
    }
}

fn main() {
    let cfg = AuditConfig::default();
    let trace = Trace::from_pairs([
        (0.0, 3.0),
        (0.0, 1.0),
        (1.0, 4.0),
        (2.0, 2.0),
        (5.0, 1.0),
        (5.0, 2.0),
    ])
    .expect("valid trace");

    // 1. The full catalogue over every registered policy, plus the
    //    metamorphic suite — the same net the fuzz bin runs per instance.
    let mut report = audit_trace(&trace, 2, 1.0, &Policy::all(), &cfg);
    report.merge(metamorphic_suite(&trace, 2, 1.0, &cfg));
    println!(
        "clean instance: {} checks, {} violation(s)",
        report.checks_run,
        report.violations.len()
    );
    assert!(report.ok());

    // 2. Inject the bug. The schedule it produces is feasible, so the
    //    S-checks pass; P-RR-SHARE fails because the rates are not the
    //    equal share s·min(1, m/n).
    let broken = |t: &Trace| {
        simulate(
            t,
            &mut OffByOneRr,
            MachineConfig::new(1),
            SimOptions::with_profile(),
        )
        .expect("simulates fine — that is the point")
    };
    let sched = broken(&trace);
    let caught = audit_schedule(&trace, &sched, Some(Policy::Rr), &cfg);
    println!("\ninjected off-by-one RR share:");
    for v in &caught.violations {
        println!("  [{}] {}", v.check, v.detail);
    }
    assert!(caught.has("P-RR-SHARE"));

    // 3. Shrink the counterexample: minimal trace on which the same
    //    check still fails (one job suffices — n+1 is wrong even alone).
    let minimal = shrink_trace(&trace, |t| {
        audit_schedule(t, &broken(t), Some(Policy::Rr), &cfg).has("P-RR-SHARE")
    });
    println!(
        "\nshrunk from {} jobs to {}: {:?}",
        trace.len(),
        minimal.len(),
        minimal
            .jobs()
            .iter()
            .map(|j| (j.arrival, j.size))
            .collect::<Vec<_>>()
    );
    assert!(minimal.len() <= 4);
}
