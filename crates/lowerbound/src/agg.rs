//! Certified interval-aggregated LP lower bounds (`lp-agg(±δ)`).
//!
//! The exact time-indexed LP (see [`crate::lp`]) has one arc per
//! (job, slot) pair: at `n = 5000` Poisson-loaded jobs that is tens of
//! millions of arcs — unbuildable, let alone solvable. This module
//! solves the LP on a **coarsened interval grid** instead and certifies
//! how much was lost, sandwiching the exact LP value between two
//! rigorous bounds:
//!
//! * **Lower side `V_lo ≤ LP`** — jobs route flow to *intervals*
//!   `I = [a, b)` rather than slots. The arc for job `j` and interval
//!   `I` has capacity `min(|I ∩ [r_j, H_j)|, p_j)` (the per-slot rate
//!   cap `x_jt ≤ 1` aggregated over the overlap) and cost
//!   `c_j(max(a, r_j))` — the *cheapest* slot of the overlap, since
//!   per-job slot costs increase with `t`. Interval `I`'s capacity to
//!   the sink is `m · |I|`. Any exact optimal solution supported below
//!   the per-job horizons (one always exists — the pruning exchange
//!   argument in `docs/SOLVER.md`) maps into this network with no more
//!   cost, so the aggregated *optimum* is at most the exact LP value.
//! * **Upper side `V_hi ≥ LP`** — the aggregated optimum is
//!   *disaggregated* into an explicit feasible solution of the exact
//!   LP: every unit of interval flow is re-placed on a concrete slot by
//!   a left-to-right sweep that serves, per slot, up to `m` distinct
//!   jobs with released pending work (oldest release first). The sweep
//!   enforces every exact-LP constraint (`t ≥ r_j`, per-slot cap `m`,
//!   per-job per-slot cap 1, all `p_j` units placed), so its true cost
//!   is the value of a feasible point — an upper bound on the exact
//!   minimum. Slots may spill past the build horizon; the exact LP has
//!   no upper time limit, so that stays feasible.
//!
//! `δ = V_hi − V_lo` then bounds the aggregation error: the exact LP
//! value lies in `[V_lo, V_hi]`, and `V_lo / 2` is a certified lower
//! bound on `OPT`'s k-th power sum exactly as in the exact pipeline —
//! only weaker by at most `δ/2`, never wrong. Reported provenance is
//! `lp-agg`; results are **never** written to `tf-harness`'s lb cache,
//! which only stores the exact methods.
//!
//! Refinement: intervals whose flow spans the widest cost range (the
//! per-interval residual `Σ_j f_jI · (c_j(last slot) − c_j(first
//! slot))`, an upper bound on what splitting that interval can recover)
//! are split at their midpoint and the instance re-solved, warm-started
//! from the previous grid's duals (children inherit the parent
//! interval's potential; the solver revalidates before trusting them).
//! A grid refined all the way to unit width *is* the exact LP, so the
//! loop converges; in practice a few rounds reach `δ ≤ 1%`.

use crate::budget::SolveBudget;
use crate::lp::{ipow, job_horizon, slot_cost, tight_horizon};
use crate::mcmf::{McmfGraph, WarmStart};
use tf_simcore::Trace;

/// Poll cadence for the disaggregation sweep, matching the solver's
/// `BUDGET_POLL_POPS` discipline.
const BUDGET_POLL_SLOTS: u64 = 4096;

/// Stop refining once `(V_hi − V_lo) / V_lo` is at or below this.
const TARGET_REL_GAP: f64 = 0.01;

/// Hard cap on refinement rounds (each round re-solves the grid).
const MAX_REFINEMENTS: u32 = 24;

/// Geometric growth factor of the initial interval widths: slot-fine
/// near `t = 0` (where most cost concentrates) and coarse late.
pub(crate) const GROWTH: f64 = 1.10;

/// The aggregated LP's certified sandwich around the exact LP value.
pub(crate) struct AggLp {
    /// Aggregated optimum `V_lo` — a lower bound on the exact LP value.
    pub(crate) lo: f64,
    /// Cost of the explicit disaggregated feasible solution `V_hi` — an
    /// upper bound on the exact LP value.
    pub(crate) hi: f64,
    /// Certified relative aggregation gap `(V_hi − V_lo) / V_lo`.
    pub(crate) rel_gap: f64,
    /// Intervals in the final grid.
    pub(crate) intervals: usize,
    /// Refinement rounds performed (0 = initial grid sufficed).
    pub(crate) refinements: u32,
}

/// One job→interval arc of the aggregated network, with everything the
/// disaggregation and refinement passes need to re-read it.
struct AggArc {
    job: u32,
    interval: u32,
    /// First usable slot of the overlap: `max(a, r_j)`.
    lo: u64,
    /// One past the last usable slot: `min(b, H_j)`.
    hi: u64,
    edge_id: usize,
}

/// Per-job constants hoisted out of the build loops.
struct JobInfo {
    r: u64,
    p: i64,
    size: f64,
    pk: f64,
    w: f64,
    h_j: u64,
}

/// Exact per-unit slot cost of job `j` at slot `t ≥ r_j`.
#[inline]
fn job_slot_cost(job: &JobInfo, t: u64, k: u32) -> f64 {
    slot_cost(job.w, t - job.r, job.pk, job.size, k)
}

/// Initial geometric grid boundaries `0 = b_0 < … < b_K = horizon`.
fn initial_grid(horizon: u64, growth: f64) -> Vec<u64> {
    let mut bounds = vec![0u64];
    let mut width = 1.0f64;
    let mut cur = 0u64;
    while cur < horizon {
        let step = (width.round() as u64).max(1);
        cur = (cur + step).min(horizon);
        bounds.push(cur);
        width *= growth;
    }
    bounds
}

/// The interval-aggregated LP of an integral, non-empty trace, refined
/// from an initial grid of geometric `growth` until its certified gap
/// reaches `TARGET_REL_GAP`. Returns `None` iff `budget` tripped (a
/// partial aggregated solve certifies nothing).
///
/// # Panics
/// If `growth < 1`, or the solver's dual certificate fails (solver bug,
/// never an input property).
pub(crate) fn aggregated_lp(
    trace: &Trace,
    m: usize,
    k: u32,
    weighted: bool,
    growth: f64,
    budget: &SolveBudget,
) -> Option<AggLp> {
    assert!(growth >= 1.0 && growth.is_finite(), "growth must be ≥ 1");
    let horizon = tight_horizon(trace, m);
    let total_work: i64 = trace.jobs().iter().map(|j| j.size.round() as i64).sum();
    let jobs: Vec<JobInfo> = trace
        .jobs()
        .iter()
        .map(|j| {
            let p = j.size.round() as i64;
            let r = j.arrival.round() as u64;
            JobInfo {
                r,
                p,
                size: j.size,
                pk: ipow(j.size, k),
                w: if weighted { j.weight } else { 1.0 },
                h_j: job_horizon(horizon, r, p, total_work - p, m),
            }
        })
        .collect();

    let mut bounds = initial_grid(horizon, growth);
    let mut graph = McmfGraph::new();
    let mut warm: Option<WarmStart> = None;
    let mut refinements = 0u32;
    loop {
        let (lo, hi, arcs) = solve_grid(&mut graph, &jobs, &bounds, m, k, warm.as_ref(), budget)?;
        let rel_gap = (hi - lo) / lo.max(f64::MIN_POSITIVE);
        // An empty split list means the grid is already slot-exact
        // where it matters.
        let split = if rel_gap <= TARGET_REL_GAP || refinements >= MAX_REFINEMENTS {
            Vec::new()
        } else {
            pick_splits(&graph, &jobs, &bounds, &arcs, k)
        };
        if split.is_empty() {
            return Some(AggLp {
                lo,
                hi,
                rel_gap,
                intervals: bounds.len() - 1,
                refinements,
            });
        }
        let old_bounds = std::mem::take(&mut bounds);
        bounds = refine_grid(&old_bounds, &split);
        warm = Some(remap_interval_potentials(
            &graph,
            jobs.len(),
            &old_bounds,
            &bounds,
        ));
        refinements += 1;
        tf_obs::instant!("lb", "agg_refine");
    }
}

/// Build the aggregated network for `bounds`, solve it (warm-started
/// when a handle is given), certify the duals, and disaggregate.
/// Returns `(V_lo, V_hi, arcs)`; `None` iff the budget tripped.
fn solve_grid(
    graph: &mut McmfGraph,
    jobs: &[JobInfo],
    bounds: &[u64],
    m: usize,
    k: u32,
    warm: Option<&WarmStart>,
    budget: &SolveBudget,
) -> Option<(f64, f64, Vec<AggArc>)> {
    let n = jobs.len();
    let intervals = bounds.len() - 1;
    let source = 0usize;
    let job0 = 1usize;
    let iv0 = job0 + n;
    let sink = iv0 + intervals;

    let mut arcs: Vec<AggArc> = Vec::new();
    let mut total_supply = 0i64;
    {
        let mut s = tf_obs::span!("lb", "build");
        graph.reset(sink + 1);
        for (ji, job) in jobs.iter().enumerate() {
            total_supply += job.p;
            graph.add_edge(source, job0 + ji, job.p, 0.0);
            // Intervals overlapping [r_j, h_j): binary search the first.
            let start = bounds.partition_point(|&b| b <= job.r) - 1;
            for iv in start..intervals {
                let a = bounds[iv];
                if a >= job.h_j {
                    break;
                }
                let lo = a.max(job.r);
                let hi = bounds[iv + 1].min(job.h_j);
                if hi <= lo {
                    continue;
                }
                let cap = ((hi - lo) as i64).min(job.p);
                let cost = job_slot_cost(job, lo, k);
                let edge_id = graph.add_edge(job0 + ji, iv0 + iv, cap, cost);
                arcs.push(AggArc {
                    job: ji as u32,
                    interval: iv as u32,
                    lo,
                    hi,
                    edge_id,
                });
            }
        }
        for iv in 0..intervals {
            let width = (bounds[iv + 1] - bounds[iv]) as i64;
            graph.add_edge(iv0 + iv, sink, m as i64 * width, 0.0);
        }
        s.arg("jobs", n as f64);
        s.arg("intervals", intervals as f64);
        s.arg("arcs", arcs.len() as f64);
    }

    let (res, _warm_accepted) = {
        let _s = tf_obs::span!("lb", "solve");
        graph.solve_warm_budgeted(source, sink, total_supply, warm, budget)?
    };
    assert_eq!(
        res.flow, total_supply,
        "aggregated grid must be feasible by construction"
    );
    // O(E) dual certificate: the aggregated V_lo is only a sound bound
    // if this solve is *optimal*, so a failure here is a solver bug and
    // certification failures are hard errors, as everywhere else.
    {
        let _s = tf_obs::span!("lb", "certify");
        assert!(
            graph.certify_current_duals(),
            "aggregated LP solve left dual-infeasible potentials"
        );
    }
    let v_hi = disaggregate(graph, jobs, &arcs, m, k, total_supply, budget)?;
    assert!(
        v_hi >= res.cost - 1e-9 * (1.0 + res.cost.abs()),
        "disaggregated cost {v_hi} below aggregated optimum {} — \
         the sandwich inverted, which certifies a bug",
        res.cost
    );
    Some((res.cost, v_hi, arcs))
}

/// Disaggregate the solved interval flow into an explicit feasible
/// exact-LP solution and return its true cost (`V_hi`).
///
/// Left-to-right sweep: a unit of flow on arc `(j, I)` becomes pending
/// at `lo = max(a, r_j)`; each slot serves up to `m` distinct pending
/// jobs, oldest release first, one unit each (so `t ≥ r_j`, per-slot
/// `≤ m`, per-job per-slot `≤ 1` all hold by construction). Pending
/// work may spill past the interval — and the horizon — which only
/// raises this upper bound, never breaks feasibility.
fn disaggregate(
    graph: &McmfGraph,
    jobs: &[JobInfo],
    arcs: &[AggArc],
    m: usize,
    k: u32,
    total_supply: i64,
    budget: &SolveBudget,
) -> Option<f64> {
    // (activation, job, units) chunks, sorted by activation slot.
    let mut chunks: Vec<(u64, u32, i64)> = arcs
        .iter()
        .filter_map(|a| {
            let f = graph.flow_on(a.edge_id);
            (f > 0).then_some((a.lo, a.job, f))
        })
        .collect();
    chunks.sort_unstable();

    let mut pending = vec![0i64; jobs.len()];
    let mut active: std::collections::BTreeSet<(u64, u32)> = std::collections::BTreeSet::new();
    let mut served_jobs: Vec<(u64, u32)> = Vec::with_capacity(m);
    let mut idx = 0usize;
    let mut remaining = total_supply;
    let mut t = chunks.first().map_or(0, |c| c.0);
    let mut v_hi = 0.0f64;
    let poll_budget = !budget.is_unlimited();
    let mut slots_swept = 0u64;
    while remaining > 0 {
        slots_swept += 1;
        if poll_budget && slots_swept.is_multiple_of(BUDGET_POLL_SLOTS) && budget.exhausted() {
            return None;
        }
        while idx < chunks.len() && chunks[idx].0 <= t {
            let (_, j, units) = chunks[idx];
            if pending[j as usize] == 0 {
                active.insert((jobs[j as usize].r, j));
            }
            pending[j as usize] += units;
            idx += 1;
        }
        if active.is_empty() {
            // Jump to the next activation instead of sweeping dead air.
            t = chunks[idx].0;
            continue;
        }
        served_jobs.clear();
        for &(r, j) in active.iter().take(m) {
            pending[j as usize] -= 1;
            v_hi += job_slot_cost(&jobs[j as usize], t, k);
            if pending[j as usize] == 0 {
                served_jobs.push((r, j));
            }
            remaining -= 1;
        }
        for key in &served_jobs {
            active.remove(key);
        }
        t += 1;
    }
    Some(v_hi)
}

/// Rank intervals by the cost range their flow spans —
/// `Σ_j f_jI · (c_j(hi−1) − c_j(lo))`, an upper bound on what refining
/// interval `I` to unit width could recover — and return the indices
/// worth splitting (width ≥ 2, residual within 4× of the worst).
fn pick_splits(
    graph: &McmfGraph,
    jobs: &[JobInfo],
    bounds: &[u64],
    arcs: &[AggArc],
    k: u32,
) -> Vec<usize> {
    let intervals = bounds.len() - 1;
    let mut residual = vec![0.0f64; intervals];
    for a in arcs {
        let f = graph.flow_on(a.edge_id);
        if f > 0 && a.hi - a.lo >= 2 {
            let job = &jobs[a.job as usize];
            let span = job_slot_cost(job, a.hi - 1, k) - job_slot_cost(job, a.lo, k);
            residual[a.interval as usize] += f as f64 * span;
        }
    }
    let max_residual = residual.iter().cloned().fold(0.0f64, f64::max);
    if max_residual <= 0.0 {
        return Vec::new();
    }
    (0..intervals)
        .filter(|&iv| bounds[iv + 1] - bounds[iv] >= 2 && residual[iv] >= max_residual / 4.0)
        .collect()
}

/// New boundary list with each selected interval split at its midpoint.
fn refine_grid(bounds: &[u64], split: &[usize]) -> Vec<u64> {
    let mut is_split = vec![false; bounds.len() - 1];
    for &iv in split {
        is_split[iv] = true;
    }
    let mut out = Vec::with_capacity(bounds.len() + split.len());
    for iv in 0..bounds.len() - 1 {
        out.push(bounds[iv]);
        if is_split[iv] {
            out.push(bounds[iv] + (bounds[iv + 1] - bounds[iv]) / 2);
        }
    }
    out.push(*bounds.last().unwrap());
    out
}

/// Carry the old grid's duals onto the refined grid: source, jobs, and
/// sink keep theirs; each new interval inherits the potential of the
/// old interval containing its start. The solver's repair sweep +
/// feasibility revalidation decide whether to trust the result.
fn remap_interval_potentials(
    graph: &McmfGraph,
    n: usize,
    old_bounds: &[u64],
    new_bounds: &[u64],
) -> WarmStart {
    let pot = graph.potentials();
    let old_intervals = old_bounds.len() - 1;
    let new_intervals = new_bounds.len() - 1;
    debug_assert_eq!(pot.len(), 2 + n + old_intervals);
    let mut out = Vec::with_capacity(2 + n + new_intervals);
    out.extend_from_slice(&pot[..1 + n]); // source + jobs
    for &start in new_bounds.iter().take(new_intervals) {
        let parent = old_bounds.partition_point(|&b| b <= start) - 1;
        out.push(pot[1 + n + parent.min(old_intervals - 1)]);
    }
    out.push(pot[1 + n + old_intervals]); // sink
    WarmStart::from_potentials(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lk_lower_bound, lower_bound, LbRequest, Method};

    fn poisson_like(n: usize) -> Trace {
        // Deterministic, integral, bursty-ish arrivals with mixed sizes.
        let pairs: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i / 3) as f64, (1 + (i * 13 + 5) % 5) as f64))
            .collect();
        Trace::from_pairs(pairs).unwrap()
    }

    fn agg(t: &Trace, m: usize, k: u32, growth: f64) -> AggLp {
        aggregated_lp(t, m, k, false, growth, &SolveBudget::unlimited())
            .expect("an unlimited budget never trips")
    }

    #[test]
    fn sandwich_brackets_the_exact_lp() {
        for n in [12usize, 40, 100] {
            let t = poisson_like(n);
            for (m, k) in [(1usize, 1u32), (2, 2), (4, 2)] {
                let exact = lk_lower_bound(&t, m, k).lp_raw;
                let agg = agg(&t, m, k, GROWTH);
                let tol = 1e-9 * (1.0 + exact.abs());
                assert!(
                    agg.lo <= exact + tol,
                    "n={n} m={m} k={k}: V_lo {} above exact {exact}",
                    agg.lo
                );
                assert!(
                    agg.hi >= exact - tol,
                    "n={n} m={m} k={k}: V_hi {} below exact {exact}",
                    agg.hi
                );
                assert!(agg.rel_gap >= -1e-12);
                assert!(
                    agg.rel_gap <= TARGET_REL_GAP + 1e-12,
                    "n={n} m={m} k={k}: refinement stalled at gap {}",
                    agg.rel_gap
                );
            }
        }
    }

    #[test]
    fn aggregated_bound_is_a_valid_lower_bound() {
        // The headline property: value never exceeds the exact pipeline's
        // certified bound by more than fp noise (it lower-bounds the same
        // OPT through a weaker LP).
        let t = poisson_like(60);
        for (m, k) in [(1usize, 1u32), (2, 2)] {
            let exact = lk_lower_bound(&t, m, k);
            let req = LbRequest {
                method: Method::Agg,
                ..LbRequest::new(m, k)
            };
            let agg = lower_bound(&t, &req).bound;
            assert!(
                agg.value <= exact.value * (1.0 + 1e-9) + 1e-9,
                "m={m} k={k}: aggregated {} above exact {}",
                agg.value,
                exact.value
            );
            assert!(agg.value > 0.0);
        }
    }

    #[test]
    fn unit_width_grid_is_exact() {
        // growth = 1.0 → every interval is one slot → V_lo = V_hi = LP.
        let t = poisson_like(20);
        let exact = lk_lower_bound(&t, 2, 2).lp_raw;
        let agg = agg(&t, 2, 2, 1.0);
        let tol = 1e-9 * (1.0 + exact.abs());
        assert!((agg.lo - exact).abs() <= tol);
        assert!((agg.hi - exact).abs() <= tol);
        assert_eq!(agg.refinements, 0);
    }

    #[test]
    fn budget_trips_cleanly() {
        let t = poisson_like(80);
        let spent = SolveBudget::with_timeout(std::time::Duration::ZERO);
        assert!(aggregated_lp(&t, 2, 2, false, GROWTH, &spent).is_none());
    }
}
