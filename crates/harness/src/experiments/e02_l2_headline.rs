//! **E2 — the ℓ2 headline: RR is (4+ε)-speed O(1)-competitive.**
//!
//! Claim (paper, Section 1.1): "our analysis shows that RR is
//! (4+ε)-speed O(1)-competitive for the ℓ2-norm of flow time for any fixed
//! ε > 0."
//!
//! Measurement: RR at speed 4.4 for the ℓ2 norm across a utilization sweep
//! ρ ∈ {0.6 … 1.2} on m ∈ {1, 4} machines. Expected shape: the ratio
//! bracket stays a small constant across the whole load range, including
//! past saturation (ρ ≥ 1), where unaugmented policies degrade.

use super::{Effort, RunCtx};
use crate::corpus::random_corpus;
use crate::ratio::{default_baselines, empirical_ratios_scoped, RatioTask};
use crate::table::{fnum, mean_std, stats_cells, Table};
use tf_policies::Policy;
use tf_simcore::SimStats;

/// Run E2.
pub fn e2(ctx: &RunCtx) -> Vec<Table> {
    let effort = ctx.effort;
    let speed = 4.4;
    let k = 2u32;
    let rhos = [0.6, 0.8, 0.9, 1.0, 1.2];
    let mut table = Table::new(
        "E2: RR at speed 4.4 for the l2 norm across utilizations",
        &[
            "m",
            "rho",
            "mean ratio>= (±std)",
            "max ratio>=",
            "max ratio<=",
            "steps",
            "peak alive",
            "alloc ms",
        ],
    );
    let baselines = default_baselines();
    let seeds = match effort {
        Effort::Quick => 2u64,
        Effort::Full => 5,
    };

    // Flatten every (m, rho, seed, instance) evaluation into one ordered
    // fan-out — far more parallel slack than the old per-m rho sweep —
    // then re-aggregate sequentially along the recorded layout. Results
    // come back in task order, so rows are identical to the serial run.
    let mut tasks: Vec<RatioTask> = Vec::new();
    let mut layout: Vec<(usize, f64, Vec<usize>)> = Vec::new();
    for m in [1usize, 4] {
        for &rho in &rhos {
            let mut counts = Vec::with_capacity(seeds as usize);
            for seed in 0..seeds {
                let corpus =
                    random_corpus(effort.n(), rho, m, 200 + (rho * 100.0) as u64 + 977 * seed);
                counts.push(corpus.len());
                for inst in corpus {
                    tasks.push(RatioTask {
                        trace: inst.trace,
                        policy: Policy::Rr,
                        m,
                        speed,
                        k,
                    });
                }
            }
            layout.push((m, rho, counts));
        }
    }
    let mut results = empirical_ratios_scoped(&ctx.scope(), &tasks, &baselines).into_iter();
    for (m, rho, counts) in layout {
        // Replicate the whole corpus across seeds so the mean carries
        // sampling uncertainty, and track worst cases over every
        // replicate.
        let mut means = Vec::with_capacity(counts.len());
        let mut lo_max: f64 = 0.0;
        let mut hi_max: f64 = 0.0;
        let mut stats = SimStats::default();
        for count in counts {
            let mut lo_sum = 0.0;
            for _ in 0..count {
                let r = results.next().expect("one result per task");
                lo_sum += r.ratio_vs_best;
                lo_max = lo_max.max(r.ratio_vs_best);
                hi_max = hi_max.max(r.ratio_vs_lb);
                stats.absorb(&r.stats);
            }
            means.push(lo_sum / count as f64);
        }
        let mut row = vec![
            m.to_string(),
            fnum(rho),
            mean_std(&means),
            fnum(lo_max),
            fnum(hi_max),
        ];
        row.extend(stats_cells(&stats));
        table.push_row(row);
    }
    table.note(format!(
        "Aggregates over the 4-distribution random corpus at each utilization, replicated across {seeds} seeds (mean ± sample std of the per-corpus mean)."
    ));
    table.note("Expected: bounded constants at every load — the O(1) of Theorem 1 for k=2.");
    table.note("steps/alloc ms aggregate the evaluated RR runs in the row; peak alive is the row maximum (SimStats).");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_ratio_bounded_across_loads() {
        let t = &e2(&RunCtx::quick())[0];
        assert_eq!(t.rows.len(), 2 * 5);
        for row in &t.rows {
            let lo_max: f64 = row[3].parse().unwrap();
            // 4.4-speed RR against speed-1 baselines: never worse than a
            // small constant on these workloads.
            assert!(lo_max < 3.0, "{row:?}");
        }
    }
}
