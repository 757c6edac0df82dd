//! The paper's time-indexed LP relaxation (Section 3.1), solved exactly.
//!
//! Variables `x_jt` = units of work done on job `j` during unit slot
//! `[t, t+1)`, for integral traces:
//!
//! ```text
//!   min   Σ_j Σ_{t ≥ r_j} x_jt · ((t − r_j)^k + p_j^k) / p_j
//!   s.t.  Σ_t x_jt = p_j                (every job fully processed)
//!         Σ_j x_jt ≤ m                  (machine capacity per slot)
//!         x_jt ≤ 1                      (one machine per job per slot)
//!         x_jt ≥ 0
//! ```
//!
//! The cost uses the slot's *start* `t`, the smallest age in the slot, so
//! every feasible speed-1 schedule's indicator solution costs at most
//! `2 Σ_j F_j^k` — the LP optimum divided by 2 is a valid lower bound on
//! `OPT`'s k-th power sum. (We strip the paper's scaling constant γ, which
//! multiplies both sides.)
//!
//! All capacities are integers, so the LP is a transportation polytope
//! with integral vertices; the min-cost flow solver returns its exact
//! optimum.
//!
//! Two solve paths exist. The production path ([`crate::Method::Exact`])
//! is `LpSolver::colgen` on a reusable solver with **per-job horizon
//! pruning** (job `j` only gets arcs to slots below
//! `r_j + p_j + ⌈W_j/m⌉ + 1`, where `W_j` is the other jobs' total work —
//! see `docs/SOLVER.md` for the exchange argument): up to
//! `SSP_CROSSOVER_JOBS` (80) jobs it solves the whole pruned network on the
//! unit-SSP [`MinCostFlow`], above that it runs delayed column generation
//! on the [`McmfGraph`] arena. [`crate::lower_bound`] reaches it through
//! one thread-local instance per thread, so sweeps stop reallocating. The
//! reference path ([`crate::Method::Reference`]) keeps the PR-1
//! successive-shortest-paths build verbatim as the oracle the audit and
//! the property tests compare against.

use crate::budget::SolveBudget;
use crate::mcmf::{McmfGraph, McmfStats, MinCostFlow};
use std::cell::RefCell;
use tf_policies::Fcfs;
use tf_simcore::{simulate, MachineConfig, SimOptions, Trace};

/// Up to this many jobs the LP solves the whole pruned network on the
/// unit-SSP [`MinCostFlow`] solver instead of running column generation
/// on the [`McmfGraph`] arena: the arena's phase machinery (CSR rebuild,
/// level BFS, blocking-flow DFS) costs more than it saves on small
/// networks. Timed on the same pruned network, the arena was 1.3–2×
/// slower at n = 12, 40, 60 and 80 (the table in `docs/SOLVER.md` §8).
/// Both solvers return the exact transportation optimum (pinned against
/// the reference by `crossover_dispatch_agrees_across_the_boundary` and
/// the proptests), so the dispatch is a pure perf decision.
pub(crate) const SSP_CROSSOVER_JOBS: usize = 80;

/// Budget poll cadence for the column-generation pricing scan, matching
/// the solver's `BUDGET_POLL_POPS` discipline: the scan streams over
/// `Σ_j |window_j|` candidate columns, which at `n = 5000` is tens of
/// millions — a deadline must be honoured inside one pass.
const BUDGET_POLL_COLS: u64 = 4096;

/// Column-generation round cap before falling back to the full arena
/// build ([`LpSolver::solve`]). Each round either adds a priced-in column
/// or widens an unsaturated job's window, so termination is guaranteed
/// anyway; the cap just bounds the worst case to one predictable full
/// solve.
const COLGEN_MAX_ROUNDS: u32 = 64;

/// Initial active window padding beyond `p_j` slots per job (see
/// [`LpSolver::colgen`]). Chosen from the BENCH_5 probe:
/// smaller pads price in more rounds, larger pads inflate round-1
/// networks on lightly-loaded instances.
const COLGEN_INIT_PAD: u64 = 8;

/// Exact solution of the LP relaxation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LpSolution {
    /// The LP objective value.
    pub objective: f64,
    /// Time horizon (number of unit slots considered).
    pub horizon: u64,
    /// Units of work routed (= Σ p_j when feasible; always feasible for
    /// the generous horizon used).
    pub routed: i64,
}

/// Integer power helper (exact for the exponents the paper uses).
#[inline]
pub(crate) fn ipow(base: f64, k: u32) -> f64 {
    base.powi(k as i32)
}

/// Cost of one unit of job work `age` slots after its release:
/// `w · (age^k + p^k) / p`, with `pk = p^k` hoisted by the caller. The
/// pruned and column-generated networks both price their job arcs with
/// this one expression (the reference build keeps its own copy
/// verbatim).
#[inline]
pub(crate) fn slot_cost(w: f64, age: u64, pk: f64, size: f64, k: u32) -> f64 {
    w * (ipow(age as f64, k) + pk) / size
}

/// Tight LP horizon: the makespan of a concrete non-idling feasible
/// schedule (FCFS on `m` unit-speed machines), rounded up, plus one slot.
///
/// Soundness: that schedule is itself a feasible LP solution inside
/// `[0, H)`. Every per-job slot cost is nondecreasing in `t`, so by the
/// standard transportation exchange argument any optimal solution can be
/// rerouted off slots `≥ H` without increasing cost — restricting the
/// horizon to `H` preserves the optimum while shrinking the network by an
/// order of magnitude on moderately loaded instances.
pub(crate) fn tight_horizon(trace: &Trace, m: usize) -> u64 {
    fcfs_horizon(trace, m).0
}

/// [`tight_horizon`] plus the per-job FCFS window ends it is derived
/// from: `ends[j]` is one past the last slot the FCFS witness schedule
/// serves job `j` in (`⌈C_j⌉`, padded by one slot for fp slack).
///
/// The witness property is what makes these useful as *initial* column
/// windows for [`LpSolver::colgen`]: the FCFS schedule
/// routes every job's full work through slots `[r_j, ends[j])`, so the
/// restricted network seeded with those windows carries the whole
/// supply (fractional feasibility implies integral max-flow = supply by
/// max-flow/min-cut) — the colgen loop starts from a *feasible*
/// restricted LP and never needs infeasibility-driven widening rounds.
pub(crate) fn fcfs_horizon(trace: &Trace, m: usize) -> (u64, Vec<u64>) {
    let mut fcfs = Fcfs::new();
    let sched = simulate(
        trace,
        &mut fcfs,
        MachineConfig::new(m),
        SimOptions::default(),
    )
    .expect("FCFS on a valid trace cannot fail");
    // SRPT completions widen the windows where the LP optimum — itself
    // SRPT-shaped — finishes *later* than FCFS (large jobs it preempts).
    // Taking the per-job max keeps the FCFS witness inside every window
    // (feasibility) while covering most of the LP support (few or no
    // pricing rounds in practice).
    let mut srpt = tf_policies::Srpt::new();
    let srpt_sched = simulate(
        trace,
        &mut srpt,
        MachineConfig::new(m),
        SimOptions::default(),
    )
    .expect("SRPT on a valid trace cannot fail");
    let ends = sched
        .completion
        .iter()
        .zip(&srpt_sched.completion)
        .map(|(&c, &cs)| c.max(cs).ceil() as u64 + 1)
        .collect();
    ((sched.makespan()).ceil() as u64 + 1, ends)
}

/// Per-job slot horizon (exclusive): `min(H, r_j + p_j + ⌈W_j/m⌉ + 1)`
/// where `W_j` is the total work of the *other* jobs.
///
/// Soundness (exchange argument, `docs/SOLVER.md`): take an integral
/// optimal solution and reroute job `j`'s units greedily to the earliest
/// slots with spare capacity — costs are nondecreasing in `t`, so this
/// never increases the objective and never moves any other job. In the
/// window starting at `r_j`, a slot is unavailable to `j` only if `j`
/// already uses it (≤ p_j slots) or other jobs fill all `m` units
/// (≤ ⌊W_j/m⌋ slots), so all of `j`'s work fits below the bound. Arcs at
/// or beyond it can be dropped without changing the LP optimum.
pub(crate) fn job_horizon(global: u64, r: u64, p: i64, others_work: i64, m: usize) -> u64 {
    let spill = (others_work + m as i64 - 1) / m as i64;
    global.min(r + p as u64 + spill as u64 + 1)
}

/// Reusable LP-relaxation solver: one [`McmfGraph`] arena, so sweeps
/// solving many instances (e1/e11/e13, the `min_speed_for_ratio`
/// bisection) stop reallocating per call. [`crate::lower_bound`] routes
/// through a shared thread-local instance (see [`with_solver`]).
#[derive(Debug, Default)]
pub(crate) struct LpSolver {
    graph: McmfGraph,
    /// When the last solve dispatched to the unit-SSP solver (small
    /// instances, see [`SSP_CROSSOVER_JOBS`]), the solved graph lives
    /// here, so certification reads the network that was actually
    /// solved. `None` after an arena solve.
    last_ssp: Option<MinCostFlow>,
    /// Work counters of the most recent LP solve — from whichever solver
    /// the size crossover dispatched to, so the `mcmf.*` namespace never
    /// goes dark on small instances — summed over its column-generation
    /// rounds and any fallback solve.
    stats: McmfStats,
}

/// Node layout + supply of a built LP network.
struct BuiltLp {
    total_supply: i64,
    source: usize,
    sink: usize,
}

/// Add the pruned transportation network's arcs through `add_edge`, in
/// the one order both solvers see: per job its supply arc, then its slot
/// arcs below the per-job horizon ([`job_horizon`]); then every slot's
/// arc to the sink. The nodes are the source, the jobs, `horizon` slots
/// and the sink — `2 + n + horizon` in all.
fn build_network(
    trace: &Trace,
    m: usize,
    k: u32,
    weighted: bool,
    horizon: u64,
    mut add_edge: impl FnMut(usize, usize, i64, f64),
) -> BuiltLp {
    let n = trace.len();
    let slots = horizon as usize;
    let source = 0usize;
    let job0 = 1usize;
    let slot0 = job0 + n;
    let sink = slot0 + slots;
    let total_work: i64 = trace.jobs().iter().map(|j| j.size.round() as i64).sum();
    let mut total_supply: i64 = 0;
    for (ji, j) in trace.jobs().iter().enumerate() {
        let p = j.size.round() as i64;
        let r = j.arrival.round() as u64;
        total_supply += p;
        add_edge(source, job0 + ji, p, 0.0);
        let pk = ipow(j.size, k);
        let w = if weighted { j.weight } else { 1.0 };
        let h_j = job_horizon(horizon, r, p, total_work - p, m);
        for t in r..h_j {
            add_edge(
                job0 + ji,
                slot0 + t as usize,
                1,
                slot_cost(w, t - r, pk, j.size, k),
            );
        }
    }
    for t in 0..slots {
        add_edge(slot0 + t, sink, m as i64, 0.0);
    }
    BuiltLp {
        total_supply,
        source,
        sink,
    }
}

impl LpSolver {
    /// The exact LP optimum of an integral, non-empty trace over the whole
    /// pruned network of `horizon` slots (at least [`tight_horizon`], or
    /// the network cannot carry the supply); `None` once `budget` trips.
    /// Instances of up to [`SSP_CROSSOVER_JOBS`] jobs run on the unit-SSP
    /// solver — [`LpSolver::colgen`]'s small-instance path — and larger
    /// ones on the arena, which only column generation's fallback reaches.
    /// An aborted solve leaves the solver reusable — the next build resets
    /// the graph — but its partial flow is never surfaced: a partial LP
    /// cost is not a lower bound on anything.
    pub(crate) fn solve(
        &mut self,
        trace: &Trace,
        m: usize,
        k: u32,
        weighted: bool,
        horizon: u64,
        budget: &SolveBudget,
    ) -> Option<LpSolution> {
        let nodes = 2 + trace.len() + horizon as usize;
        let b = {
            let mut s = tf_obs::span!("lb", "build");
            let b = if trace.len() <= SSP_CROSSOVER_JOBS {
                let g = self.last_ssp.insert(MinCostFlow::new(nodes));
                build_network(trace, m, k, weighted, horizon, |u, v, cap, cost| {
                    g.add_edge(u, v, cap, cost);
                })
            } else {
                self.last_ssp = None;
                self.graph.reset(nodes);
                build_network(trace, m, k, weighted, horizon, |u, v, cap, cost| {
                    self.graph.add_edge(u, v, cap, cost);
                })
            };
            s.arg("jobs", trace.len() as f64);
            s.arg("horizon", horizon as f64);
            b
        };
        let r = {
            let _s = tf_obs::span!("lb", "solve");
            let (r, stats) = match &mut self.last_ssp {
                Some(g) => (
                    g.solve_budgeted(b.source, b.sink, b.total_supply, budget),
                    g.stats(),
                ),
                None => (
                    self.graph
                        .solve_budgeted(b.source, b.sink, b.total_supply, budget),
                    self.graph.stats(),
                ),
            };
            self.stats = stats;
            r
        }?;
        debug_assert_eq!(r.flow, b.total_supply, "horizon too small for feasibility");
        Some(LpSolution {
            objective: r.cost,
            horizon,
            routed: r.flow,
        })
    }

    /// Exact LP value by **delayed column generation**: build only a
    /// small *active* slot window per job, solve the restricted
    /// transportation problem, then price every omitted `(job, slot)`
    /// column against the restricted optimum's duals — an arithmetic-only
    /// scan, no graph build — and re-solve with the violated columns
    /// added, until no column prices negative.
    ///
    /// ## Why the result is the exact LP optimum
    ///
    /// The restricted problem only *removes* columns, so its optimum is
    /// `≥` the full pruned LP's. On termination the final potentials
    /// satisfy `c_j(t) + π(job_j) − π(slot_t) ≥ −tol` for **every**
    /// column of the full pruned network — the added ones via the
    /// solver's own optimality invariant, the omitted ones via the
    /// pricing scan that just returned clean. Dual feasibility over the
    /// full column set plus complementary slackness on the flow (omitted
    /// columns carry none) is exactly the optimality certificate of the
    /// full LP, so the restricted value *is* the full value (up to the
    /// scan tolerance). Certification never rests on the window guesses:
    /// a bad initial window costs pricing rounds, not correctness.
    ///
    /// The per-job windows are seeded from the FCFS witness schedule
    /// behind `fcfs_horizon` (so the first restricted network provably
    /// carries the full supply), floored at `p_j + COLGEN_INIT_PAD`
    /// slots. Should a restricted round still come back infeasible
    /// (defensive — e.g. a window clamped by `job_horizon`), the
    /// unsaturated jobs' windows are doubled and the round retried; after
    /// `COLGEN_MAX_ROUNDS` the solver falls back to the full arena
    /// build, which is always correct.
    ///
    /// Every round solves its network from zero potentials: seeding a
    /// round with the previous round's duals cost more in repair and
    /// revalidation than it saved in phases (`docs/SOLVER.md` §9).
    ///
    /// `None` iff `budget` tripped. Small instances
    /// (≤ [`SSP_CROSSOVER_JOBS`]) dispatch to [`LpSolver::solve`] on the
    /// whole pruned network — the restricted machinery cannot beat the
    /// unit-SSP solver there.
    pub(crate) fn colgen(
        &mut self,
        trace: &Trace,
        m: usize,
        k: u32,
        weighted: bool,
        budget: &SolveBudget,
    ) -> Option<LpSolution> {
        if trace.len() <= SSP_CROSSOVER_JOBS {
            return self.solve(trace, m, k, weighted, tight_horizon(trace, m), budget);
        }

        let mut obs_span = tf_obs::span!("lb", "lp_colgen");
        obs_span.arg("n", trace.len() as f64);
        obs_span.arg("m", m as f64);
        self.last_ssp = None;
        self.stats = McmfStats::default();

        let (horizon, fcfs_ends) = fcfs_horizon(trace, m);
        let n = trace.len();
        let slots = horizon as usize;
        let source = 0usize;
        let job0 = 1usize;
        let slot0 = job0 + n;
        let sink = slot0 + slots;
        let total_work: i64 = trace.jobs().iter().map(|j| j.size.round() as i64).sum();

        struct ColJob {
            r: u64,
            p: i64,
            size: f64,
            pk: f64,
            w: f64,
            h: u64,
        }
        let jobs: Vec<ColJob> = trace
            .jobs()
            .iter()
            .map(|j| {
                let p = j.size.round() as i64;
                let r = j.arrival.round() as u64;
                ColJob {
                    r,
                    p,
                    size: j.size,
                    pk: ipow(j.size, k),
                    w: if weighted { j.weight } else { 1.0 },
                    h: job_horizon(horizon, r, p, total_work - p, m),
                }
            })
            .collect();
        let total_supply: i64 = jobs.iter().map(|j| j.p).sum();
        let col_cost = |j: &ColJob, t: u64| slot_cost(j.w, t - j.r, j.pk, j.size, k);

        // Sorted active slot lists per job, seeded with the FCFS witness
        // windows (see `fcfs_horizon`): the witness schedule fits inside
        // them, so round one is feasible and the widening branch below is
        // pure defense. The `COLGEN_INIT_PAD` floor keeps tiny windows
        // from triggering pricing rounds on near-idle jobs.
        let mut active: Vec<Vec<u64>> = jobs
            .iter()
            .enumerate()
            .map(|(ji, j)| {
                let end = fcfs_ends[ji]
                    .max(j.r + j.p as u64 + COLGEN_INIT_PAD)
                    .min(j.h);
                (j.r..end).collect()
            })
            .collect();
        let mut src_ids: Vec<usize> = Vec::with_capacity(n);
        let mut pending: Vec<u64> = Vec::new();
        let mut rounds = 0u32;
        while rounds < COLGEN_MAX_ROUNDS {
            rounds += 1;
            let mut total_cols = 0u64;
            {
                let mut s = tf_obs::span!("lb", "build");
                self.graph.reset(sink + 1);
                src_ids.clear();
                for (ji, j) in jobs.iter().enumerate() {
                    src_ids.push(self.graph.add_edge(source, job0 + ji, j.p, 0.0));
                    for &t in &active[ji] {
                        self.graph
                            .add_edge(job0 + ji, slot0 + t as usize, 1, col_cost(j, t));
                    }
                    total_cols += active[ji].len() as u64;
                }
                for t in 0..slots {
                    self.graph.add_edge(slot0 + t, sink, m as i64, 0.0);
                }
                s.arg("jobs", n as f64);
                s.arg("columns", total_cols as f64);
            }
            let res = {
                let _s = tf_obs::span!("lb", "solve");
                let res = self
                    .graph
                    .solve_budgeted(source, sink, total_supply, budget);
                self.stats.absorb(&self.graph.stats());
                res?
            };

            if res.flow < total_supply {
                // The restricted network cannot carry some job's supply:
                // widen every unsaturated job's window and retry. Windows
                // only grow, and the full windows are feasible (the FCFS
                // witness behind `tight_horizon` plus the exchange
                // argument behind `job_horizon`), so this terminates.
                let mut grew = false;
                for (ji, j) in jobs.iter().enumerate() {
                    if self.graph.flow_on(src_ids[ji]) < j.p {
                        let end = active[ji].last().copied().unwrap_or(j.r);
                        let grow = (active[ji].len() as u64).max(COLGEN_INIT_PAD);
                        let before = active[ji].len();
                        active[ji].extend(end + 1..j.h.min(end + 1 + grow));
                        grew |= active[ji].len() > before;
                    }
                }
                if !grew {
                    // The deficient jobs are already at full width (their
                    // deficiency hides behind a saturated neighbour) —
                    // stop guessing and solve the full network.
                    break;
                }
                tf_obs::instant!("lb", "colgen_widen");
                continue;
            }

            // Pricing: scan every omitted column of the full pruned
            // network against the restricted optimum's duals.
            let violated = {
                let mut s = tf_obs::span!("lb", "colgen_price");
                let pot = self.graph.potentials();
                // Slots with no incoming active column are unreachable in
                // the solver's Dijkstra passes, so their raw potentials
                // accumulate arbitrary (large) values — pricing against
                // them reports spurious violations. The tightest *valid*
                // dual for such a slot is `π(sink)`: its slot→sink arc has
                // full residual capacity, forcing `π(slot) ≥ π(sink)`, and
                // clamping down to `π(sink)` keeps that arc tight-feasible
                // while only *raising* the reduced cost of arcs into the
                // slot. Pricing therefore uses `min(π(slot), π(sink))` —
                // still a dual-feasible certificate, but one that only
                // flags genuinely improving columns.
                let pi_sink = pot[sink];
                let poll_budget = !budget.is_unlimited();
                let mut scanned = 0u64;
                let mut violated = 0u64;
                pending.clear();
                for (ji, j) in jobs.iter().enumerate() {
                    let pi_j = pot[job0 + ji];
                    let mut act = active[ji].iter().copied().peekable();
                    let start_len = pending.len();
                    for t in j.r..j.h {
                        if act.peek() == Some(&t) {
                            act.next();
                            continue;
                        }
                        scanned += 1;
                        if poll_budget
                            && scanned.is_multiple_of(BUDGET_POLL_COLS)
                            && budget.exhausted()
                        {
                            return None;
                        }
                        let c = col_cost(j, t);
                        let beta = pot[slot0 + t as usize].min(pi_sink);
                        let rc = c + pi_j - beta;
                        if rc < -1e-9 * (1.0 + c.abs() + pi_j.abs() + beta.abs()) {
                            pending.push(t);
                            violated += 1;
                        }
                    }
                    if pending.len() > start_len {
                        let mut merged =
                            Vec::with_capacity(active[ji].len() + pending.len() - start_len);
                        let mut a = active[ji].iter().copied().peekable();
                        let mut b = pending[start_len..].iter().copied().peekable();
                        while let (Some(&x), Some(&y)) = (a.peek(), b.peek()) {
                            if x < y {
                                merged.push(x);
                                a.next();
                            } else {
                                merged.push(y);
                                b.next();
                            }
                        }
                        merged.extend(a);
                        merged.extend(b);
                        active[ji] = merged;
                        pending.truncate(start_len);
                    }
                }
                s.arg("violated", violated as f64);
                violated
            };
            if violated == 0 {
                obs_span.arg("rounds", f64::from(rounds));
                obs_span.arg("columns", total_cols as f64);
                return Some(LpSolution {
                    objective: res.cost,
                    horizon,
                    routed: res.flow,
                });
            }
        }
        // Defensive fallback: the full build is always correct. Its
        // counters add to the rounds'.
        tf_obs::instant!("lb", "colgen_fallback");
        let round_stats = self.stats;
        let r = self.solve(trace, m, k, weighted, horizon, budget);
        self.stats.absorb(&round_stats);
        r
    }
}

thread_local! {
    /// One arena per thread: the rayon fan-outs in the harness each get
    /// their own, so no locking on the hot path.
    static SHARED_SOLVER: RefCell<LpSolver> = RefCell::new(LpSolver::default());
}

/// Run `f` on this thread's shared [`LpSolver`].
pub(crate) fn with_solver<R>(f: impl FnOnce(&mut LpSolver) -> R) -> R {
    SHARED_SOLVER.with(|s| f(&mut s.borrow_mut()))
}

/// Work counters of this thread's most recent [`crate::Method::Exact`] LP
/// solve (it runs on one thread-local solver), summed over every
/// column-generation round. Zeroed stats if the thread has not solved
/// yet.
pub fn last_solve_stats() -> McmfStats {
    SHARED_SOLVER.with(|s| s.borrow().stats)
}

/// The PR-1 solve path, kept verbatim as a test oracle: one-unit
/// successive shortest paths on [`MinCostFlow`], global tight horizon,
/// no per-job pruning. Property tests pin the optimized path to this.
pub(crate) fn lp_relaxation_value_reference(
    trace: &Trace,
    m: usize,
    k: u32,
    weighted: bool,
) -> LpSolution {
    assert!(k >= 1, "k must be at least 1");
    assert!(
        trace.is_integral(1e-9),
        "LP relaxation needs integral traces"
    );
    assert!(m >= 1);
    if trace.is_empty() {
        return LpSolution {
            objective: 0.0,
            horizon: 0,
            routed: 0,
        };
    }

    let horizon = tight_horizon(trace, m);
    let n = trace.len();
    let slots = horizon as usize;

    // Nodes: source, jobs, slots, sink.
    let source = 0usize;
    let job0 = 1usize;
    let slot0 = job0 + n;
    let sink = slot0 + slots;
    let mut g = MinCostFlow::new(sink + 1);

    let mut total_supply: i64 = 0;
    for (ji, j) in trace.jobs().iter().enumerate() {
        let p = j.size.round() as i64;
        let r = j.arrival.round() as u64;
        total_supply += p;
        g.add_edge(source, job0 + ji, p, 0.0);
        let pk = ipow(j.size, k);
        let w = if weighted { j.weight } else { 1.0 };
        for t in r..horizon {
            let age = (t - r) as f64;
            let cost = w * (ipow(age, k) + pk) / j.size;
            g.add_edge(job0 + ji, slot0 + t as usize, 1, cost);
        }
    }
    for t in 0..slots {
        g.add_edge(slot0 + t, sink, m as i64, 0.0);
    }

    let r = g.solve(source, sink, total_supply);
    debug_assert_eq!(r.flow, total_supply, "horizon too small for feasibility");
    LpSolution {
        objective: r.cost,
        horizon,
        routed: r.flow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The exact LP optimum through the shared solver.
    fn lp_weighted(t: &Trace, m: usize, k: u32, weighted: bool) -> LpSolution {
        with_solver(|s| {
            s.solve(
                t,
                m,
                k,
                weighted,
                tight_horizon(t, m),
                &SolveBudget::unlimited(),
            )
        })
        .expect("an unlimited budget never trips")
    }

    fn lp_relaxation_value(t: &Trace, m: usize, k: u32) -> LpSolution {
        lp_weighted(t, m, k, false)
    }

    /// Solve on `solver`, then audit the flow of whichever network the
    /// crossover dispatched to with the independent negative-cycle
    /// certificate; panics if certification fails.
    fn certified_value(solver: &mut LpSolver, t: &Trace, m: usize, k: u32) -> LpSolution {
        let s = solver
            .solve(
                t,
                m,
                k,
                false,
                tight_horizon(t, m),
                &SolveBudget::unlimited(),
            )
            .expect("an unlimited budget never trips");
        let tol = 1e-9 * (1.0 + s.objective.abs());
        let ok = match &solver.last_ssp {
            Some(g) => g.verify_optimal(tol),
            None => solver.graph.verify_optimal(tol),
        };
        assert!(ok, "optimized LP solve left a negative residual cycle");
        s
    }

    #[test]
    fn single_unit_job() {
        // Job (0, 1), k=1: one slot at cost (0 + 1)/1 = 1.
        let t = Trace::from_pairs([(0.0, 1.0)]).unwrap();
        let s = lp_relaxation_value(&t, 1, 1);
        assert!((s.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_job_size_three_k1() {
        // Job (0, 3), k=1: slots 0,1,2 with costs (0+3)/3, (1+3)/3, (2+3)/3
        // = 1 + 4/3 + 5/3 = 4.
        let t = Trace::from_pairs([(0.0, 3.0)]).unwrap();
        let s = lp_relaxation_value(&t, 1, 1);
        assert!((s.objective - 4.0).abs() < 1e-9, "{}", s.objective);
    }

    #[test]
    fn single_job_k2() {
        // Job (0, 2), k=2: slots 0,1: (0+4)/2 + (1+4)/2 = 4.5.
        let t = Trace::from_pairs([(0.0, 2.0)]).unwrap();
        let s = lp_relaxation_value(&t, 1, 2);
        assert!((s.objective - 4.5).abs() < 1e-9, "{}", s.objective);
    }

    #[test]
    fn contention_pushes_into_later_slots() {
        // Two unit jobs at t=0, one machine, k=1: slots 0 and 1, costs
        // (0+1) and (1+1): total 3.
        let t = Trace::from_pairs([(0.0, 1.0), (0.0, 1.0)]).unwrap();
        let s = lp_relaxation_value(&t, 1, 1);
        assert!((s.objective - 3.0).abs() < 1e-9, "{}", s.objective);
        // Two machines: both in slot 0 → 2.
        let s = lp_relaxation_value(&t, 2, 1);
        assert!((s.objective - 2.0).abs() < 1e-9, "{}", s.objective);
    }

    #[test]
    fn per_job_slot_cap_binds() {
        // One job of size 2 on two machines still needs two slots (x_jt ≤ 1):
        // k=1 cost = (0+2)/2 + (1+2)/2 = 2.5, not 2.
        let t = Trace::from_pairs([(0.0, 2.0)]).unwrap();
        let s = lp_relaxation_value(&t, 2, 1);
        assert!((s.objective - 2.5).abs() < 1e-9, "{}", s.objective);
    }

    #[test]
    fn release_dates_respected() {
        // Job (5, 1), k=1: earliest slot 5, age 0 → cost 1 regardless of
        // earlier idle slots.
        let t = Trace::from_pairs([(5.0, 1.0)]).unwrap();
        let s = lp_relaxation_value(&t, 1, 1);
        assert!((s.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lp_halved_lower_bounds_feasible_schedules() {
        // Compare LP/2 against the k-th power sum of an actual optimal-ish
        // schedule (SRPT at speed 1).
        use tf_policies::Policy;
        use tf_simcore::{simulate, MachineConfig, SimOptions};
        let t = Trace::from_pairs([(0.0, 3.0), (1.0, 1.0), (2.0, 2.0), (2.0, 1.0)]).unwrap();
        for m in [1usize, 2] {
            for k in [1u32, 2, 3] {
                let lp = lp_relaxation_value(&t, m, k);
                let mut srpt = Policy::Srpt.make();
                let s = simulate(
                    &t,
                    srpt.as_mut(),
                    MachineConfig::new(m),
                    SimOptions::default(),
                )
                .unwrap();
                let obj = s.flow_power_sum(f64::from(k));
                assert!(
                    lp.objective / 2.0 <= obj + 1e-9,
                    "m={m} k={k}: LP/2 {} > SRPT {obj}",
                    lp.objective / 2.0
                );
            }
        }
    }

    #[test]
    fn weighted_lp_scales_costs() {
        // One weighted job: objective scales linearly with the weight.
        use tf_simcore::TraceBuilder;
        let mut b = TraceBuilder::new();
        b.push_weighted(0.0, 3.0, 5.0);
        let t = b.build().unwrap();
        let unweighted = lp_weighted(&t, 1, 1, false);
        let weighted = lp_weighted(&t, 1, 1, true);
        assert!((weighted.objective - 5.0 * unweighted.objective).abs() < 1e-9);
    }

    #[test]
    fn weighted_lp_prioritizes_heavy_jobs() {
        // Two unit jobs at t=0, one machine; the heavy one should take the
        // early slot. Weighted objective: w_heavy·1 + w_light·2 <
        // w_heavy·2 + w_light·1 iff w_heavy > w_light.
        use tf_simcore::TraceBuilder;
        let mut b = TraceBuilder::new();
        b.push_weighted(0.0, 1.0, 10.0);
        b.push_weighted(0.0, 1.0, 1.0);
        let t = b.build().unwrap();
        let s = lp_weighted(&t, 1, 1, true);
        // heavy in slot 0: 10·(0+1)/1 + 1·(1+1)/1 = 12.
        assert!((s.objective - 12.0).abs() < 1e-9, "{}", s.objective);
    }

    #[test]
    fn weighted_lp_halved_lower_bounds_weighted_flow() {
        use tf_metrics_free::weighted_power_sum_of;
        use tf_policies::Policy;
        use tf_simcore::{simulate, MachineConfig, SimOptions, TraceBuilder};
        let mut b = TraceBuilder::new();
        b.push_weighted(0.0, 3.0, 2.0);
        b.push_weighted(1.0, 1.0, 5.0);
        b.push_weighted(1.0, 2.0, 1.0);
        let t = b.build().unwrap();
        for k in [1u32, 2] {
            let lp = lp_weighted(&t, 1, k, true);
            for p in [Policy::Hdf, Policy::Srpt, Policy::Rr] {
                let mut a = p.make();
                let s =
                    simulate(&t, a.as_mut(), MachineConfig::new(1), SimOptions::default()).unwrap();
                let obj = weighted_power_sum_of(&t, &s.flow, f64::from(k));
                assert!(lp.objective / 2.0 <= obj + 1e-9, "k={k} {p}");
            }
        }
    }

    /// Tiny local helper: weighted power sum without depending on
    /// tf-metrics (which does not depend on us either way — kept local to
    /// avoid a dev-dependency cycle risk).
    mod tf_metrics_free {
        use tf_simcore::Trace;

        pub fn weighted_power_sum_of(trace: &Trace, flows: &[f64], k: f64) -> f64 {
            trace
                .jobs()
                .iter()
                .map(|j| j.weight * flows[j.id as usize].powf(k))
                .sum()
        }
    }

    #[test]
    fn optimized_matches_reference_oracle() {
        // Hand-picked shapes with contention, gaps, and late arrivals.
        for pairs in [
            vec![(0.0, 1.0)],
            vec![(0.0, 3.0), (1.0, 1.0), (2.0, 2.0), (2.0, 1.0)],
            vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (9.0, 2.0)],
            vec![(0.0, 5.0), (0.0, 5.0), (3.0, 1.0), (7.0, 2.0), (7.0, 2.0)],
        ] {
            let t = Trace::from_pairs(pairs).unwrap();
            for m in [1usize, 2, 4] {
                for k in [1u32, 2, 3] {
                    let fast = lp_relaxation_value(&t, m, k);
                    let slow = lp_relaxation_value_reference(&t, m, k, false);
                    assert_eq!(fast.routed, slow.routed, "m={m} k={k}");
                    assert!(
                        (fast.objective - slow.objective).abs()
                            <= 1e-6 * (1.0 + slow.objective.abs()),
                        "m={m} k={k}: optimized {} vs reference {}",
                        fast.objective,
                        slow.objective
                    );
                }
            }
        }
    }

    #[test]
    fn certified_value_matches_and_passes_audit() {
        let t = Trace::from_pairs([(0.0, 2.0), (1.0, 1.0), (1.0, 3.0)]).unwrap();
        let mut solver = LpSolver::default();
        for (m, k) in [(1usize, 1u32), (2, 2), (1, 3)] {
            let plain = lp_relaxation_value(&t, m, k);
            let certified = certified_value(&mut solver, &t, m, k);
            assert_eq!(plain, certified, "m={m} k={k}");
        }
    }

    #[test]
    fn per_job_pruning_is_lossless_under_skew() {
        // One huge early job stretches the global horizon far past what a
        // tiny late job needs; the pruned network must agree with the
        // unpruned reference anyway.
        let t = Trace::from_pairs([(0.0, 12.0), (20.0, 1.0), (21.0, 1.0)]).unwrap();
        for m in [1usize, 2] {
            for k in [1u32, 2] {
                let fast = lp_relaxation_value(&t, m, k);
                let slow = lp_relaxation_value_reference(&t, m, k, false);
                assert!(
                    (fast.objective - slow.objective).abs() < 1e-9 * (1.0 + slow.objective),
                    "m={m} k={k}: {} vs {}",
                    fast.objective,
                    slow.objective
                );
                assert_eq!(fast.routed, slow.routed);
            }
        }
    }

    #[test]
    fn dedicated_arena_reuse_matches_shared_path() {
        let mut solver = LpSolver::default();
        let a = Trace::from_pairs([(0.0, 2.0), (0.0, 1.0)]).unwrap();
        let b = Trace::from_pairs([(0.0, 1.0), (3.0, 4.0), (3.0, 1.0)]).unwrap();
        for t in [&a, &b, &a] {
            let h = tight_horizon(t, 2);
            let via_arena = solver.solve(t, 2, 2, false, h, &SolveBudget::unlimited());
            assert_eq!(via_arena, Some(lp_relaxation_value(t, 2, 2)));
        }
    }

    /// A deterministic integral trace big enough to cross the
    /// [`SSP_CROSSOVER_JOBS`] boundary.
    fn biggish_trace(n: usize) -> Trace {
        let pairs: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i / 2) as f64, (1 + (i * 7 + 3) % 4) as f64))
            .collect();
        Trace::from_pairs(pairs).unwrap()
    }

    #[test]
    fn crossover_dispatch_agrees_across_the_boundary() {
        // One instance just below the crossover (unit-SSP path) and one
        // just above (arena path); both must match the unpruned
        // reference oracle.
        for n in [SSP_CROSSOVER_JOBS - 1, SSP_CROSSOVER_JOBS + 5] {
            let t = biggish_trace(n);
            for (m, k) in [(1usize, 1u32), (2, 2)] {
                let fast = lp_relaxation_value(&t, m, k);
                let slow = lp_relaxation_value_reference(&t, m, k, false);
                assert_eq!(fast.routed, slow.routed, "n={n} m={m} k={k}");
                assert!(
                    (fast.objective - slow.objective).abs() <= 1e-6 * (1.0 + slow.objective.abs()),
                    "n={n} m={m} k={k}: {} vs {}",
                    fast.objective,
                    slow.objective
                );
            }
        }
    }

    #[test]
    fn certified_value_audits_the_ssp_graph_on_small_instances() {
        // Small instance → SSP dispatch; certification must audit that
        // graph (a stale arena would happily pass with zero flow).
        let t = Trace::from_pairs([(0.0, 2.0), (1.0, 1.0), (1.0, 3.0)]).unwrap();
        let mut solver = LpSolver::default();
        let plain = solver.solve(
            &t,
            2,
            2,
            false,
            tight_horizon(&t, 2),
            &SolveBudget::unlimited(),
        );
        assert!(solver.last_ssp.is_some(), "small instance should use SSP");
        let certified = certified_value(&mut solver, &t, 2, 2);
        assert_eq!(plain, Some(certified));
        // SSP solves surface their own counters — never a stale arena's.
        let st = solver.stats;
        assert!(st.heap_pops > 0 && st.phases > 0, "{st:?}");
        assert_eq!(st.units_routed, 6, "3 jobs × 2 slots each");
        assert_eq!(st.blocking_pushes, 0, "unit SSP has no blocking flow");
    }

    #[test]
    fn colgen_matches_the_full_arena_solve() {
        let mut solver = LpSolver::default();
        for n in [SSP_CROSSOVER_JOBS - 5, SSP_CROSSOVER_JOBS + 40, 200] {
            let t = biggish_trace(n);
            for (m, k) in [(1usize, 1u32), (2, 2), (3, 3)] {
                let full = lp_relaxation_value(&t, m, k);
                let cg = solver
                    .colgen(&t, m, k, false, &SolveBudget::unlimited())
                    .unwrap();
                assert_eq!(cg.routed, full.routed, "n={n} m={m} k={k}");
                assert_eq!(cg.horizon, full.horizon, "n={n} m={m} k={k}");
                assert!(
                    (cg.objective - full.objective).abs() <= 1e-7 * (1.0 + full.objective.abs()),
                    "n={n} m={m} k={k}: colgen {} vs full {}",
                    cg.objective,
                    full.objective
                );
            }
        }
    }

    #[test]
    fn solve_stats_sum_every_colgen_round() {
        // This trace prices columns in after its first restricted round,
        // and every round routes the whole supply, so counters summed
        // over the rounds route more units than the trace has work.
        let t = biggish_trace(SSP_CROSSOVER_JOBS + 40);
        let work: u64 = t.jobs().iter().map(|j| j.size as u64).sum();
        crate::lk_lower_bound(&t, 2, 2);
        let st = last_solve_stats();
        assert!(st.units_routed > work, "{work} units of work: {st:?}");
    }

    #[test]
    fn colgen_honours_the_budget_and_empty_traces() {
        let mut solver = LpSolver::default();
        let spent = SolveBudget::with_timeout(std::time::Duration::ZERO);
        let t = biggish_trace(SSP_CROSSOVER_JOBS + 30);
        assert!(solver.colgen(&t, 2, 2, false, &spent).is_none());
        let empty = Trace::from_pairs(std::iter::empty()).unwrap();
        let sol = solver
            .colgen(&empty, 2, 2, false, &SolveBudget::unlimited())
            .unwrap();
        assert_eq!(sol.objective, 0.0);
    }

    fn arb_integral_trace() -> impl Strategy<Value = Trace> {
        prop::collection::vec((0u32..20, 1u32..8), 1..14).prop_map(|pairs| {
            Trace::from_pairs(pairs.into_iter().map(|(a, p)| (f64::from(a), f64::from(p))))
                .expect("valid jobs")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The tight (FCFS-makespan) horizon is lossless: extending the LP's
        /// time horizon never changes the optimum (the exchange-argument
        /// justification of `tight_horizon`, validated empirically).
        #[test]
        fn tight_horizon_is_lossless(t in arb_integral_trace(), m in 1usize..3, k in 1u32..3) {
            let tight = lp_relaxation_value(&t, m, k);
            let loose = with_solver(|s| {
                s.solve(&t, m, k, false, tight.horizon + 37, &SolveBudget::unlimited())
            })
            .expect("an unlimited budget never trips");
            prop_assert!((tight.objective - loose.objective).abs() <= 1e-9 * tight.objective.max(1.0),
                "tight {} vs loose {}", tight.objective, loose.objective);
        }

        /// Solver equivalence: the whole pruned network — at these sizes
        /// (1–13 jobs, below the crossover) solved by the unit-SSP solver,
        /// column generation's small-instance path — matches the unpruned
        /// PR-1 oracle on random traces across k ∈ {1,2,3}, m ∈ {1,2,4},
        /// and its flow passes the independent negative-cycle certificate.
        /// The arena and column generation meet the oracle above the
        /// crossover in `production_lp_matches_the_reference_above_the_crossover`.
        #[test]
        fn optimized_lp_matches_ssp_oracle_and_certifies(t in arb_integral_trace()) {
            let mut solver = LpSolver::default();
            for m in [1usize, 2, 4] {
                for k in [1u32, 2, 3] {
                    let fast = certified_value(&mut solver, &t, m, k);
                    let slow = lp_relaxation_value_reference(&t, m, k, false);
                    prop_assert_eq!(fast.routed, slow.routed, "m={} k={}", m, k);
                    prop_assert!(
                        (fast.objective - slow.objective).abs() <= 1e-6 * (1.0 + slow.objective.abs()),
                        "m={} k={}: optimized {} vs oracle {}", m, k, fast.objective, slow.objective);
                }
            }
        }
    }
}
