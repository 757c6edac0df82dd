//! Property tests: the lower bound must never exceed the objective of any
//! feasible schedule, on arbitrary integral traces.

use proptest::prelude::*;
use tf_lowerbound::{lk_lower_bound, lower_bound, LbRequest, Method};
use tf_policies::Policy;
use tf_simcore::{simulate, MachineConfig, SimOptions, Trace};

fn arb_integral_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u32..20, 1u32..8), 1..14).prop_map(|pairs| {
        Trace::from_pairs(pairs.into_iter().map(|(a, p)| (f64::from(a), f64::from(p))))
            .expect("valid jobs")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Soundness: LB(Σ F^k) ≤ Σ F^k of every policy at speed 1 (each is a
    /// feasible schedule, so each upper-bounds OPT).
    #[test]
    fn lower_bound_is_sound(t in arb_integral_trace(), m in 1usize..4, k in 1u32..4) {
        let lb = lk_lower_bound(&t, m, k);
        for p in [Policy::Rr, Policy::Srpt, Policy::Sjf, Policy::Setf, Policy::Fcfs] {
            let mut alloc = p.make();
            let s = simulate(&t, alloc.as_mut(), MachineConfig::new(m), SimOptions::default()).unwrap();
            let obj = s.flow_power_sum(f64::from(k));
            prop_assert!(lb.value <= obj * (1.0 + 1e-9) + 1e-9,
                "m={m} k={k} {p}: LB {} > {obj}", lb.value);
        }
    }

    /// The bound is positive on non-empty instances and weakly increasing
    /// in k for sizes ≥ 1 (since p^k and ages^k grow).
    #[test]
    fn bound_positive_and_monotone_in_k(t in arb_integral_trace(), m in 1usize..3) {
        let l1 = lk_lower_bound(&t, m, 1).value;
        let l2 = lk_lower_bound(&t, m, 2).value;
        let l3 = lk_lower_bound(&t, m, 3).value;
        prop_assert!(l1 > 0.0);
        // All sizes ≥ 1 ⇒ F_j ≥ 1 ⇒ power sums nondecreasing in k, and all
        // three component bounds respect that.
        prop_assert!(l2 >= l1 * 0.5 - 1e-9, "{l2} vs {l1}");
        prop_assert!(l3 >= l2 * 0.5 - 1e-9, "{l3} vs {l2}");
    }

    /// End-to-end: the combined bound through the optimized path equals
    /// the bound through the reference path (same winning component).
    #[test]
    fn lower_bound_matches_reference_pipeline(t in arb_integral_trace(), m in 1usize..4, k in 1u32..4) {
        let fast = lk_lower_bound(&t, m, k);
        let reference = LbRequest { method: Method::Reference, ..LbRequest::new(m, k) };
        let slow = lower_bound(&t, &reference).bound;
        prop_assert!((fast.value - slow.value).abs() <= 1e-6 * (1.0 + slow.value.abs()),
            "m={} k={}: {} vs {}", m, k, fast.value, slow.value);
    }

    /// More machines never increase the bound (capacity only helps OPT).
    #[test]
    fn bound_monotone_in_machines(t in arb_integral_trace(), k in 1u32..4) {
        let b1 = lk_lower_bound(&t, 1, k).value;
        let b2 = lk_lower_bound(&t, 2, k).value;
        let b4 = lk_lower_bound(&t, 4, k).value;
        prop_assert!(b2 <= b1 + 1e-9);
        prop_assert!(b4 <= b2 + 1e-9);
    }
}

/// Traces above the SSP crossover (80 jobs), where [`Method::Exact`]
/// runs column generation on the arena.
fn arb_large_integral_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u32..200, 1u32..7), 81..121).prop_map(|pairs| {
        Trace::from_pairs(pairs.into_iter().map(|(a, p)| (f64::from(a), f64::from(p))))
            .expect("valid jobs")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The production path above the crossover — column generation on
    /// the arena, with its pricing rounds — reaches the unpruned
    /// reference LP's optimum, and no unlimited request degrades. Clean pricing implies full-LP dual feasibility,
    /// so the restricted optimum IS the LP optimum, not an approximation.
    #[test]
    fn production_lp_matches_the_reference_above_the_crossover(t in arb_large_integral_trace()) {
        for m in [1usize, 2] {
            for k in [1u32, 2] {
                let exact = lower_bound(&t, &LbRequest::new(m, k));
                let reference = LbRequest { method: Method::Reference, ..LbRequest::new(m, k) };
                let reference = lower_bound(&t, &reference);
                prop_assert!(!exact.degraded && !reference.degraded, "unlimited budget never trips");
                let (got, want) = (exact.bound.lp_raw, reference.bound.lp_raw);
                prop_assert!(want > 0.0, "the LP must run on an integral trace");
                prop_assert!((got - want).abs() <= 1e-9 * want,
                    "n={} m={m} k={k}: production LP {got} vs reference {want}", t.len());
            }
        }
    }
}
