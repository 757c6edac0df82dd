//! **E11 — quality of the LP relaxation (Section 3.1).**
//!
//! Claim (paper, Section 3.1): "the above LP lower bounds the optimal flow
//! time of a feasible schedule within factor 2γ" — with the γ scaling
//! stripped, `LP/2 ≤ OPTᵏ`.
//!
//! Measurement: where OPT is *exactly* computable (m = 1, k = 1 via SRPT),
//! report LP/2 as a fraction of OPT — how much of the factor-2 slack is
//! real. For k = 2, report the bracket width `(best/LB)^{1/2}` that all
//! ratio experiments inherit. Expected shape: LP/2 recovers a large
//! fraction of OPT (well above the worst-case 1/2); bracket widths are
//! small constants.

use super::RunCtx;
use crate::corpus::random_corpus;
use crate::lbcache::cached_lower_bound;
use crate::table::{fnum, Table};
use rayon::prelude::*;
use tf_lowerbound::{lk_lower_bound, LbRequest};
use tf_policies::Policy;
use tf_simcore::{simulate, MachineConfig, SimOptions, Trace};

/// Run E11.
pub fn e11(ctx: &RunCtx) -> Vec<Table> {
    let effort = ctx.effort;
    let corpus = random_corpus(effort.n(), 0.9, 1, 1100);

    let mut exact = Table::new(
        "E11a: LP/2 vs the exact l1 optimum (m=1, k=1)",
        &[
            "instance",
            "LP/2",
            "OPT (SRPT)",
            "LP/2 over OPT",
            "raw LP over OPT",
        ],
    );
    let rows: Vec<_> = corpus
        .par_iter()
        .map(|inst| {
            let lp = lk_lower_bound(&inst.trace, 1, 1).lp_raw;
            let mut srpt = Policy::Srpt.make();
            let opt = simulate(
                &inst.trace,
                srpt.as_mut(),
                MachineConfig::new(1),
                SimOptions::default(),
            )
            .unwrap()
            .total_flow();
            (inst.name.clone(), lp, opt)
        })
        .collect();
    for (name, lp, opt) in rows {
        exact.push_row(vec![
            name,
            fnum(lp / 2.0),
            fnum(opt),
            fnum(lp / 2.0 / opt),
            fnum(lp / opt),
        ]);
    }
    exact.note("'raw LP over OPT' <= 2 is the paper's Section 3.1 claim; values near 2 mean the relaxation is nearly tight before halving.");

    let mut bracket = Table::new(
        "E11b: ratio-bracket width for l2 (m in {1,4})",
        &["m", "instance", "LB^(1/2)", "best^(1/2)", "bracket width"],
    );
    // One fan-out over the full (m, instance) grid instead of a serial
    // m loop of small parallel batches; order-preserving collect keeps
    // the row order.
    let mut work: Vec<(usize, String, Trace)> = Vec::new();
    for m in [1usize, 4] {
        let corpus = random_corpus(effort.n(), 0.9, m, 1150);
        for inst in corpus {
            work.push((m, inst.name, inst.trace));
        }
    }
    let rows: Vec<_> = work
        .par_iter()
        .map(|(m, name, trace)| {
            let lb = cached_lower_bound(trace, &LbRequest::new(*m, 2)).bound;
            let best = [Policy::Srpt, Policy::Sjf, Policy::Setf, Policy::Rr]
                .iter()
                .map(|p| {
                    let mut a = p.make();
                    simulate(
                        trace,
                        a.as_mut(),
                        MachineConfig::new(*m),
                        SimOptions::default(),
                    )
                    .unwrap()
                    .flow_power_sum(2.0)
                })
                .fold(f64::INFINITY, f64::min);
            (*m, name.clone(), lb.value.sqrt(), best.sqrt())
        })
        .collect();
    for (m, name, lb, best) in rows {
        bracket.push_row(vec![
            m.to_string(),
            name,
            fnum(lb),
            fnum(best),
            fnum(best / lb),
        ]);
    }
    bracket.note("bracket width = best-baseline norm / LB norm; every reported ratio interval in E1-E6 has at most this multiplicative uncertainty.");

    // ---- E11c: closing the bracket exactly on tiny instances --------------
    let mut tiny = Table::new(
        "E11c: tiny instances — LP/2 vs exact slotted OPT vs best policy (m=1, k=2)",
        &[
            "instance",
            "LP/2",
            "exact OPT",
            "best policy",
            "LP/2 over exact",
            "RR@4.4 true ratio",
        ],
    );
    let tiny_instances: Vec<(&str, Vec<(f64, f64)>)> = vec![
        (
            "two-scales",
            vec![(0.0, 1.0), (0.0, 4.0), (1.0, 1.0), (2.0, 2.0)],
        ),
        ("batch", vec![(0.0, 2.0), (0.0, 2.0), (0.0, 2.0)]),
        (
            "staggered",
            vec![(0.0, 3.0), (1.0, 1.0), (2.0, 3.0), (4.0, 1.0), (4.0, 1.0)],
        ),
        (
            "bursty-mix",
            vec![(0.0, 4.0), (0.0, 1.0), (3.0, 1.0), (3.0, 1.0), (6.0, 2.0)],
        ),
    ];
    use tf_lowerbound::{exact_slotted_opt, ExactLimits};
    for (name, pairs) in tiny_instances {
        let t = Trace::from_pairs(pairs).unwrap();
        let lp = lk_lower_bound(&t, 1, 2).lp_raw / 2.0;
        let ex = exact_slotted_opt(&t, 1, 2, ExactLimits::default())
            .expect("tiny instance within state budget")
            .power_sum;
        let best = [Policy::Srpt, Policy::Sjf, Policy::Setf, Policy::Rr]
            .iter()
            .map(|p| {
                let mut a = p.make();
                simulate(&t, a.as_mut(), MachineConfig::new(1), SimOptions::default())
                    .unwrap()
                    .flow_power_sum(2.0)
            })
            .fold(f64::INFINITY, f64::min);
        let mut rr = Policy::Rr.make();
        let rr_fast = simulate(
            &t,
            rr.as_mut(),
            MachineConfig::with_speed(1, 4.4),
            SimOptions::default(),
        )
        .unwrap()
        .flow_power_sum(2.0);
        tiny.push_row(vec![
            name.to_string(),
            fnum(lp),
            fnum(ex),
            fnum(best),
            fnum(lp / ex),
            fnum((rr_fast / ex).sqrt()),
        ]);
    }
    tiny.note("exact OPT = exhaustive slot-structured optimum (tf-lowerbound::exact); on one machine this is the true optimum for integral instances, so the last column is RR's TRUE l2 competitive ratio at speed 4.4 — no bracket.");
    vec![exact, bracket, tiny]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_lp_is_a_valid_and_decent_bound() {
        let tables = e11(&RunCtx::quick());
        for row in &tables[0].rows {
            let frac: f64 = row[3].parse().unwrap();
            let raw: f64 = row[4].parse().unwrap();
            assert!(frac <= 1.0 + 1e-9, "LP/2 exceeded OPT: {row:?}");
            assert!(raw <= 2.0 + 1e-9, "raw LP exceeded 2*OPT: {row:?}");
            assert!(frac > 0.4, "LP surprisingly weak: {row:?}");
        }
        for row in &tables[1].rows {
            let width: f64 = row[4].parse().unwrap();
            assert!((1.0 - 1e-9..4.0).contains(&width), "{row:?}");
        }
        // E11c: LP/2 ≤ exact ≤ best policy, and the exact search certifies
        // a true sub-1 ratio for 4.4-speed RR on every tiny instance.
        for row in &tables[2].rows {
            let lp: f64 = row[1].parse().unwrap();
            let ex: f64 = row[2].parse().unwrap();
            let best: f64 = row[3].parse().unwrap();
            let true_ratio: f64 = row[5].parse().unwrap();
            assert!(lp <= ex + 1e-9, "{row:?}");
            assert!(ex <= best + 1e-9, "{row:?}");
            assert!(true_ratio < 1.0, "{row:?}");
        }
    }
}
