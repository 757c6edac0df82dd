//! **E16 — the broadcast setting: shared transmissions change the game.**
//!
//! Claim (paper, Section 1.2): "In the closely related broadcast
//! scheduling setting, jobs asking for the same data can be processed
//! simultaneously. … RR is O(1)-speed O(1)-competitive for the ℓ1-norm in
//! both settings \[12\], [but] not O(1)-competitive even with any
//! O(1)-speed for the ℓ2-norm \[15\]."
//!
//! Measurement, two tables:
//! * **E16a** — policy comparison on a hot/cold workload: the broadcast
//!   gain (requested work / transmitted work), ℓ1, ℓ2, max flow for both
//!   RR flavors, LWF, and MRF. Expected: large broadcast gains; LWF best
//!   or near-best on ℓ2 (it exists to tame tails); MRF starves singletons.
//! * **E16b** — the dilution family: one long "victim" page request vs
//!   repeated swarm batches for fresh pages. Per-*request* RR lets the
//!   swarm crowd out the victim by a factor `≈ swarm` (ℓ2 ratio grows
//!   with swarm); per-*page* RR treats the swarm as one peer and stays
//!   flat — the aggregation choice RR's broadcast analyses hinge on.

use super::{Effort, RunCtx};
use crate::table::{fnum, Table};
use rayon::prelude::*;
use tf_broadcast::{
    simulate_broadcast, BroadcastInstance, BroadcastPolicy, Lwf, Mrf, PerPageRR, PerRequestRR,
};
use tf_metrics::lk_norm;

fn run_policy(i: &BroadcastInstance, which: usize, speed: f64) -> tf_broadcast::BroadcastSchedule {
    // A tiny factory keeping trait objects local.
    let mut boxed: Box<dyn BroadcastPolicy> = match which {
        0 => Box::new(PerPageRR),
        1 => Box::new(PerRequestRR),
        2 => Box::new(Lwf),
        _ => Box::new(Mrf),
    };
    simulate_broadcast(i, boxed.as_mut(), speed)
}

/// Run E16.
pub fn e16(ctx: &RunCtx) -> Vec<Table> {
    let effort = ctx.effort;
    let scale = match effort {
        Effort::Quick => 1usize,
        Effort::Full => 4,
    };

    // ---- E16a: hot/cold policy comparison ---------------------------------
    let hot_cold = BroadcastInstance::hot_cold(10 * scale, 8, 2.0, 10 * scale);
    let mut a = Table::new(
        "E16a: broadcast policies on a hot/cold workload (speed 1)",
        &["policy", "gain", "l1", "l2", "max flow"],
    );
    let names = ["RR/page", "RR/request", "LWF", "MRF"];
    let rows: Vec<_> = (0..4usize)
        .into_par_iter()
        .map(|w| {
            let s = run_policy(&hot_cold, w, 1.0);
            (
                names[w],
                hot_cold.requested_work() / s.transmitted,
                lk_norm(&s.flow, 1.0),
                lk_norm(&s.flow, 2.0),
                lk_norm(&s.flow, f64::INFINITY),
            )
        })
        .collect();
    for (name, gain, l1, l2, max) in rows {
        a.push_row(vec![
            name.to_string(),
            fnum(gain),
            fnum(l1),
            fnum(l2),
            fnum(max),
        ]);
    }
    a.note("gain = requested work / transmitted work — broadcast's non-conservation of work (one transmission serves a whole batch).");

    // ---- E16b: dilution — per-request vs per-page RR ----------------------
    let mut b = Table::new(
        "E16b: victim dilution — RR per request vs RR per page (l2 ratio to LWF)",
        &[
            "swarm",
            "n",
            "RR/request l2",
            "RR/page l2",
            "victim flow req",
            "victim flow page",
        ],
    );
    let swarms: Vec<usize> = match effort {
        Effort::Quick => vec![2, 8, 32],
        Effort::Full => vec![2, 8, 32, 128],
    };
    let rows: Vec<_> = swarms
        .par_iter()
        .map(|&swarm| {
            let victim_len = 8.0;
            let rounds = (victim_len * (swarm as f64 + 2.0)).ceil() as usize;
            let i = BroadcastInstance::dilution(victim_len, swarm, rounds);
            let req = run_policy(&i, 1, 1.0);
            let page = run_policy(&i, 0, 1.0);
            let lwf = run_policy(&i, 2, 1.0);
            (
                swarm,
                i.n_requests(),
                lk_norm(&req.flow, 2.0) / lk_norm(&lwf.flow, 2.0),
                lk_norm(&page.flow, 2.0) / lk_norm(&lwf.flow, 2.0),
                req.flow[0],
                page.flow[0],
            )
        })
        .collect();
    for (swarm, n, r2, p2, vf_req, vf_page) in rows {
        b.push_row(vec![
            swarm.to_string(),
            n.to_string(),
            fnum(r2),
            fnum(p2),
            fnum(vf_req),
            fnum(vf_page),
        ]);
    }
    b.note("The victim (request 0, long page) is diluted by per-request RR proportionally to the swarm size; per-page RR is immune — batches pool into one page-share.");
    vec![a, b]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_gain_and_dilution_shapes() {
        let tables = e16(&RunCtx::quick());
        // E16a: every policy shows a broadcast gain > 1 (batches shared).
        for row in &tables[0].rows {
            let gain: f64 = row[1].parse().unwrap();
            assert!(gain > 1.5, "{row:?}");
        }
        // E16b: per-request victim flow grows with swarm; per-page flat.
        let b = &tables[1];
        let vf_req = |r: usize| -> f64 { b.rows[r][4].parse().unwrap() };
        let vf_page = |r: usize| -> f64 { b.rows[r][5].parse().unwrap() };
        let last = b.rows.len() - 1;
        assert!(
            vf_req(last) > 2.0 * vf_req(0),
            "no dilution: {} vs {}",
            vf_req(last),
            vf_req(0)
        );
        assert!(
            vf_page(last) < 2.0 * vf_page(0) + 1e-9,
            "per-page RR got diluted"
        );
    }
}
