//! Capped proportional allocation (max-min water-filling).
//!
//! ```
//! use tf_policies::water_fill;
//!
//! // Weight 2 wants 2/3 of the budget but is capped at one machine (1.0);
//! // the excess is re-shared between the unit-weight jobs.
//! let (mut order, mut out) = (Vec::new(), [0.0; 3]);
//! water_fill(&[2.0, 1.0, 1.0], 2.0, 1.0, &mut order, &mut out);
//! assert!((out[0] - 1.0).abs() < 1e-12);
//! assert!((out[1] - 0.5).abs() < 1e-12);
//! assert!((out[2] - 0.5).abs() < 1e-12);
//! ```

/// Distribute a total rate budget `total` over jobs with non-negative
/// weights `w`, proportionally to weight but capping each share at `cap`,
/// re-distributing capped excess among the rest (water-filling). Writes the
/// result into `out`.
///
/// When the heaviest job's proportional share stays under `cap`, no cap
/// binds and every share is `λ·w[i]` with `λ = budget/Σw`, written in one
/// pass. Otherwise the indices are sorted by weight, heaviest first, into
/// `order`, scratch the caller keeps, and capped one at a time. A warm
/// caller allocates nothing for up to 512 jobs; past that the standard
/// library's stable sort takes a buffer of its own.
///
/// Properties:
/// * `out[i] ≤ cap`, `Σ out[i] = min(total, n·cap)` when some weight is
///   positive (zero-weight jobs receive zero unless *all* weights are zero,
///   in which case the budget is split equally — the RR fallback).
/// * If no cap binds, `out[i] ∝ w[i]`.
pub fn water_fill(w: &[f64], total: f64, cap: f64, order: &mut Vec<usize>, out: &mut [f64]) {
    debug_assert_eq!(w.len(), out.len());
    let n = w.len();
    if n == 0 || total <= 0.0 || cap <= 0.0 {
        out.fill(0.0);
        return;
    }
    let (mut wsum, mut wmax) = (0.0, 0.0);
    for &x in w {
        wsum += x;
        if x > wmax {
            wmax = x;
        }
    }
    if wsum <= 0.0 {
        // All weights zero: fall back to equal split (capped).
        let share = (total / n as f64).min(cap);
        out.fill(share);
        return;
    }
    let mut budget = total.min(n as f64 * cap);
    // The scan below starts at the heaviest job, so its share alone decides
    // whether any cap binds; when none does, the scan's first step writes
    // `λ·w` for every job, exactly as this loop does. A NaN share (from a
    // NaN or infinite weight) fails the test and goes to the scan.
    if budget * wmax / wsum < cap {
        let lambda = budget / wsum;
        for (o, &x) in out.iter_mut().zip(w) {
            *o = lambda * x;
        }
        return;
    }
    // Iterative water-filling: cap the heaviest, re-share the remainder.
    // Sort indices by weight descending; scan for the break point where
    // λ·w[i] ≤ cap for all uncapped i.
    order.clear();
    order.extend(0..n);
    order.sort_by(|&a, &b| w[b].partial_cmp(&w[a]).unwrap());
    let mut remaining_weight = wsum;
    for (k, &i) in order.iter().enumerate() {
        if remaining_weight <= 0.0 {
            out[i] = 0.0;
            continue;
        }
        if budget * w[i] / remaining_weight >= cap {
            out[i] = cap;
            budget -= cap;
            remaining_weight -= w[i];
        } else {
            // Once the heaviest uncapped job fits under the cap, all lighter
            // jobs do too: finish proportionally.
            let lambda = budget / remaining_weight;
            for &j in &order[k..] {
                out[j] = lambda * w[j];
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(v: &[f64]) -> f64 {
        v.iter().sum()
    }

    #[test]
    fn proportional_when_no_cap_binds() {
        let w = [1.0, 2.0, 3.0];
        let mut out = [0.0; 3];
        water_fill(&w, 1.2, 1.0, &mut Vec::new(), &mut out);
        assert!((out[0] - 0.2).abs() < 1e-12);
        assert!((out[1] - 0.4).abs() < 1e-12);
        assert!((out[2] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn caps_bind_and_excess_reflows() {
        // Weights 3:1, total 2, cap 1: heavy job capped at 1, light gets 1.
        let w = [3.0, 1.0];
        let mut out = [0.0; 2];
        water_fill(&w, 2.0, 1.0, &mut Vec::new(), &mut out);
        assert!((out[0] - 1.0).abs() < 1e-12);
        assert!((out[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cascade_of_caps() {
        // Weights 4:2:1, total 2.5, cap 1.
        // λ·4 ≥ 1 → cap job0 at 1; budget 1.5 over weights 2:1 → 1.0, 0.5;
        // job1 hits cap exactly; job2 gets 0.5.
        let w = [4.0, 2.0, 1.0];
        let mut out = [0.0; 3];
        water_fill(&w, 2.5, 1.0, &mut Vec::new(), &mut out);
        assert!((out[0] - 1.0).abs() < 1e-12);
        assert!((out[1] - 1.0).abs() < 1e-12);
        assert!((out[2] - 0.5).abs() < 1e-12);
        assert!((total(&out) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn zero_weights_fall_back_to_equal_split() {
        let w = [0.0, 0.0];
        let mut out = [0.0; 2];
        water_fill(&w, 1.0, 1.0, &mut Vec::new(), &mut out);
        assert_eq!(out, [0.5, 0.5]);
    }

    #[test]
    fn budget_larger_than_capacity_saturates_all() {
        let w = [1.0, 5.0];
        let mut out = [0.0; 2];
        water_fill(&w, 100.0, 1.0, &mut Vec::new(), &mut out);
        assert_eq!(out, [1.0, 1.0]);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let mut out: [f64; 0] = [];
        water_fill(&[], 1.0, 1.0, &mut Vec::new(), &mut out);
        let w = [1.0];
        let mut out = [9.9];
        water_fill(&w, 0.0, 1.0, &mut Vec::new(), &mut out);
        assert_eq!(out, [0.0]);
        let mut out = [9.9];
        water_fill(&w, 1.0, 0.0, &mut Vec::new(), &mut out);
        assert_eq!(out, [0.0]);
    }

    #[test]
    fn mixed_zero_and_positive_weights() {
        let w = [0.0, 1.0];
        let mut out = [0.0; 2];
        water_fill(&w, 1.0, 1.0, &mut Vec::new(), &mut out);
        assert_eq!(out[0], 0.0);
        assert!((out[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn conserves_budget_generically() {
        let w = [0.3, 2.7, 1.1, 0.9, 5.0];
        let mut out = [0.0; 5];
        water_fill(&w, 3.0, 1.0, &mut Vec::new(), &mut out);
        assert!((total(&out) - 3.0).abs() < 1e-9);
        for &r in &out {
            assert!((0.0..=1.0 + 1e-12).contains(&r));
        }
        // Heavier jobs never get less.
        let mut idx: Vec<usize> = (0..5).collect();
        idx.sort_by(|&a, &b| w[a].partial_cmp(&w[b]).unwrap());
        for pair in idx.windows(2) {
            assert!(out[pair[0]] <= out[pair[1]] + 1e-12);
        }
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    /// `water_fill` as it was before it skipped the sort when no cap
    /// binds: a fresh index vector, stable-sorted by weight on every call,
    /// then the capping scan. The oracle the one-pass branch and the
    /// caller's index buffer must match bit for bit.
    fn oracle(w: &[f64], total: f64, cap: f64, out: &mut [f64]) {
        let n = w.len();
        if n == 0 || total <= 0.0 || cap <= 0.0 {
            out.fill(0.0);
            return;
        }
        let wsum: f64 = w.iter().sum();
        if wsum <= 0.0 {
            let share = (total / n as f64).min(cap);
            out.fill(share);
            return;
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| w[b].partial_cmp(&w[a]).unwrap());
        let mut budget = total.min(n as f64 * cap);
        let mut remaining_weight = wsum;
        let mut k = 0;
        for &i in &order {
            if remaining_weight <= 0.0 {
                out[i] = 0.0;
                continue;
            }
            let fair = budget * w[i] / remaining_weight;
            if fair >= cap {
                out[i] = cap;
                budget -= cap;
                remaining_weight -= w[i];
                k += 1;
            } else {
                out[i] = fair;
                let lambda = budget / remaining_weight;
                for &j in order.iter().skip(k) {
                    out[j] = lambda * w[j];
                }
                return;
            }
        }
    }

    /// A weight: a small integer (so duplicates are common), a
    /// subnormal, or a positive value across twelve decades.
    fn arb_weight() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0usize..5).prop_map(|i| [0.0, 1.0, 2.0, 4.0, 8.0][i]),
            (1u64..1 << 40).prop_map(f64::from_bits),
            (-6.0f64..6.0).prop_map(|e| 10f64.powf(e)),
        ]
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// On 1–9 weights, m = 1–4 machines and several speeds, every
        /// output bit matches the oracle under the machine's own budget
        /// and cap (m·s, s), under a cap just below the heaviest job's
        /// share (so it binds), and under a cap of twice the budget (so
        /// none binds). One index buffer, never cleared by the caller,
        /// serves all three calls.
        #[test]
        fn matches_the_sort_everything_oracle(
            w in prop::collection::vec(arb_weight(), 1..10),
            m in 1usize..5,
            speed_i in 0usize..5,
            f in 0.05f64..1.0,
        ) {
            let speed = [0.5, 1.0, 1.5, 2.0, 3.7][speed_i];
            let total = m as f64 * speed;
            let wsum: f64 = w.iter().sum();
            let wmax = w.iter().copied().fold(0.0, f64::max);
            let binding = if wsum > 0.0 { total * wmax / wsum * f } else { speed };
            let mut order = vec![usize::MAX; 3];
            for (total, cap) in [(total, speed), (total, binding), (total, 2.0 * total)] {
                let mut want = vec![f64::NAN; w.len()];
                let mut got = vec![f64::NAN; w.len()];
                oracle(&w, total, cap, &mut want);
                water_fill(&w, total, cap, &mut order, &mut got);
                prop_assert_eq!(bits(&got), bits(&want), "w = {:?}, total = {}, cap = {}", w, total, cap);
            }
        }
    }
}
