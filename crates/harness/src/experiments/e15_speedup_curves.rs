//! **E15 — the setting where RR provably fails: speed-up curves.**
//!
//! Claim (paper, Section 1.2): "in other scheduling environments such as
//! the arbitrary speed-up curves and broadcast settings, RR was shown not
//! to be O(1)-speed O(1)-competitive" for the ℓ2 norm \[15\], although
//! "RR is O(1)-speed O(1)-competitive for the ℓ1-norm in both settings"
//! \[13\]. This is the paper's own foil: the same algorithm, a different
//! machine model, and the guarantee collapses — which is why Theorem 1
//! (standard identical machines) was genuinely open.
//!
//! Measurement: the sequential-swarm family — one parallel job diluted by
//! a maintained swarm of *sequential* jobs that cost the clairvoyant
//! baseline nothing (sequential phases progress at machine speed with
//! zero processors). The adversary's knob is the **dilution depth**
//! `D = par_work / seq_len`: shrinking the sequential jobs makes the
//! swarm's own contribution to the ℓ2 norm vanish while its head-count
//! (and hence EQUI's waste) persists; the ℓ2 ratio scales like `√D`,
//! unboundedly — and the overlapped arrivals keep the swarm alive under
//! speed augmentation, so no constant speed rescues EQUI. The ℓ1 ratio
//! stays near 1 throughout (the \[13\] positive result).

use super::{Effort, RunCtx};
use crate::table::{fnum, Table};
use rayon::prelude::*;
use tf_metrics::lk_norm;
use tf_speedup::families::seq_swarm_overlapped;
use tf_speedup::{simulate_speedup, Equi, GreedyPar, LapsCurves};

/// Run E15.
pub fn e15(ctx: &RunCtx) -> Vec<Table> {
    let effort = ctx.effort;
    let (swarm, par_work, dilutions): (usize, f64, Vec<f64>) = match effort {
        Effort::Quick => (4, 2.0, vec![4.0, 16.0, 64.0]),
        Effort::Full => (8, 4.0, vec![4.0, 16.0, 64.0, 256.0]),
    };
    let overlap = 4u32;
    let speeds = [1.0, 2.0, 4.0];
    let mut table = Table::new(
        "E15: EQUI (=RR) vs clairvoyant baseline under speed-up curves (seq-swarm family)",
        &[
            "dilution D",
            "n",
            "l2 s=1",
            "l2 s=2",
            "l2 s=4",
            "l1 s=1",
            "l1 s=4",
            "LAPS l2 s=1",
            "LAPS l1 s=1",
        ],
    );

    let rows: Vec<_> = dilutions
        .par_iter()
        .map(|&d| {
            let seq_len = par_work / d;
            // Horizon covers the speed-1 EQUI completion of the diluted
            // parallel job with 20% slack.
            let alive = (overlap as usize * swarm) as f64;
            let horizon = 1.2 * par_work * (alive + 1.0);
            let period = seq_len / f64::from(overlap);
            let rounds = (horizon / period).ceil() as usize;
            let t = seq_swarm_overlapped(swarm, seq_len, par_work, rounds, overlap);
            let baseline = simulate_speedup(&t, &mut GreedyPar, 1.0, 1.0);
            let b2 = lk_norm(&baseline.flow, 2.0);
            let b1 = lk_norm(&baseline.flow, 1.0);
            let mut l2 = Vec::new();
            for &s in &speeds {
                let e = simulate_speedup(&t, &mut Equi, 1.0, s);
                l2.push(lk_norm(&e.flow, 2.0) / b2);
            }
            let l1_s1 = lk_norm(&simulate_speedup(&t, &mut Equi, 1.0, 1.0).flow, 1.0) / b1;
            let l1_s4 = lk_norm(&simulate_speedup(&t, &mut Equi, 1.0, 4.0).flow, 1.0) / b1;
            let laps = simulate_speedup(&t, &mut LapsCurves::new(0.5), 1.0, 1.0);
            let laps_l2 = lk_norm(&laps.flow, 2.0) / b2;
            let laps_l1 = lk_norm(&laps.flow, 1.0) / b1;
            (d, t.len(), l2, l1_s1, l1_s4, laps_l2, laps_l1)
        })
        .collect();
    for (d, n, l2, l1_s1, l1_s4, laps_l2, laps_l1) in rows {
        table.push_row(vec![
            fnum(d),
            n.to_string(),
            fnum(l2[0]),
            fnum(l2[1]),
            fnum(l2[2]),
            fnum(l1_s1),
            fnum(l1_s4),
            fnum(laps_l2),
            fnum(laps_l1),
        ]);
    }
    table.note("Sequential phases progress at machine speed with ZERO processors, so the swarm costs the baseline nothing while EQUI hands each swarm member a full share.");
    table.note("Expected: l2 columns grow ~sqrt(D) at every speed (the [15] negative result — augmentation divides but never cancels the growth); l1 columns stay near 1 (the [13] positive result). This contrast is why Theorem 1's setting was open.");
    table.note("LAPS(0.5) columns: LAPS favors the latest arrivals — exactly the swarm — so it starves the old parallel job even harder than EQUI for l2, while its l1 also stays bounded (its [13] guarantee is for l1 with augmentation).");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_l2_grows_while_l1_stays_flat() {
        let t = &e15(&RunCtx::quick())[0];
        let val = |r: usize, c: usize| -> f64 { t.rows[r][c].parse().unwrap() };
        let last = t.rows.len() - 1;
        // l2 at speed 1 grows substantially with dilution depth.
        assert!(
            val(last, 2) > 2.0 * val(0, 2),
            "no growth: {} vs {}",
            val(last, 2),
            val(0, 2)
        );
        // Speed does not cancel the growth: still increasing at s=4.
        assert!(val(last, 4) > 1.5 * val(0, 4), "speed rescued EQUI");
        // l1 stays near 1 at every dilution.
        for r in 0..t.rows.len() {
            assert!(val(r, 5) < 1.6, "l1 blew up: {}", val(r, 5));
            assert!(val(r, 6) < 1.6);
        }
    }
}
