//! The invariant catalogue: every check the audit layer can run, with a
//! stable id per check.
//!
//! Checks come in three tiers (see `docs/VALIDATION.md` for the full
//! catalogue with justifications and tolerances):
//!
//! * **S-checks** — schedule-level feasibility and accounting. These are
//!   implemented once, in [`tf_simcore::validate::validate_schedule`]
//!   (the single source of truth); the audit layer invokes them and maps
//!   the result onto catalogue id `S*`.
//! * **P-checks** — policy-structural oracles: does the recorded profile
//!   match the policy's *definition* (RR equal share, SETF
//!   least-attained priority, LAPS latest-β support, FCFS front-running,
//!   the SRPT+FCFS hybrid's starvation promotion and SRPT-below-threshold
//!   orders, the multi-list dispatcher's largest-first batches and
//!   least-loaded routing), do the differential optimality oracles
//!   hold (SRPT minimizes
//!   total flow on `m = 1`, FCFS minimizes max flow on `m = 1`), and does
//!   RR's virtual-time loop reproduce the general loop bit for bit
//!   (P-RR-FAST)?
//! * **W-checks** — weighted-fairness oracles: WRR grants rates
//!   proportional to weight within contended segments (W-SHARE, a
//!   water-filling invariant verified without re-running the allocator),
//!   and the weighted policies collapse *bitwise* to their unweighted
//!   counterparts at unit weights — WRR ≡ RR and HDF ≡ SJF
//!   (W-UNIT-REDUCE).
//! * **X-checks** — cross-layer oracles tying the simulator, the
//!   certified LP lower bound, and the dual-fitting certificate together:
//!   the lower bound never exceeds any policy's cost (X1), the Theorem 1
//!   certificate verifies on RR schedules at the prescribed speed (X2),
//!   and the optimized LP solver agrees with the PR-1 reference solver
//!   (X3).

use tf_lowerbound::{lk_lower_bound, lower_bound, LbRequest, Method};
use tf_policies::{Policy, RoundRobin};
use tf_simcore::validate::validate_schedule;
use tf_simcore::{
    simulate, AliveJob, MachineConfig, Profile, RateAllocator, Schedule, SimOptions, Trace,
    TraceBuilder,
};

/// Configuration shared by every audit entry point.
#[derive(Debug, Clone, Copy)]
pub struct AuditConfig {
    /// Relative tolerance for floating-point comparisons. Scaled by the
    /// natural magnitude of each quantity (makespan for times, rate cap
    /// for rates, objective value for costs).
    pub rel_tol: f64,
    /// Norm exponent `k` used by the cross-layer checks (X1–X3).
    pub k: u32,
    /// The `ε` parameter of the Theorem 1 certificate check (X2).
    pub eps: f64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            rel_tol: 1e-7,
            k: 2,
            eps: 0.05,
        }
    }
}

/// Traces with more jobs than this skip the expensive cross-layer checks
/// (X2, X3).
const MAX_EXACT_JOBS: usize = 12;

/// One violated invariant.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Catalogue id of the violated check (`"S1"`, `"P-RR-SHARE"`, …).
    pub check: &'static str,
    /// Policy the violation was observed under, if policy-specific.
    pub policy: Option<String>,
    /// Human-readable description with the offending numbers.
    pub detail: String,
}

/// Outcome of an audit: which checks ran and what they found.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Every violated invariant, in detection order.
    pub violations: Vec<Violation>,
    /// Number of catalogue checks evaluated (for coverage accounting).
    pub checks_run: usize,
}

impl AuditReport {
    /// True iff no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Record one evaluated check.
    pub(crate) fn ran(&mut self) {
        self.checks_run += 1;
    }

    /// Record a violation.
    pub(crate) fn fail(&mut self, check: &'static str, policy: Option<&str>, detail: String) {
        self.violations.push(Violation {
            check,
            policy: policy.map(str::to_owned),
            detail,
        });
    }

    /// Fold another report into this one.
    pub fn merge(&mut self, other: AuditReport) {
        self.checks_run += other.checks_run;
        self.violations.extend(other.violations);
    }

    /// True iff some violation is of the given catalogue check id.
    pub fn has(&self, check: &str) -> bool {
        self.violations.iter().any(|v| v.check == check)
    }
}

/// Audit one recorded schedule against the catalogue: the S-checks
/// (delegated to [`tf_simcore::validate::validate_schedule`]) plus the
/// structural P-checks for `policy`, when one is named and has a
/// structural oracle (RR, WRR, SETF, LAPS, FCFS).
///
/// The schedule must carry a [`Profile`] (simulate with
/// `SimOptions::with_profile()`); without one the S-checks report the
/// missing profile as a violation.
///
/// ```
/// use tf_audit::{audit_schedule, AuditConfig};
/// use tf_policies::Policy;
/// use tf_simcore::{simulate, MachineConfig, SimOptions, Trace};
///
/// let trace = Trace::from_pairs([(0.0, 2.0), (1.0, 1.0)]).unwrap();
/// let mut rr = Policy::Rr.make();
/// let cfg = MachineConfig::new(1);
/// let sched = simulate(&trace, rr.as_mut(), cfg, SimOptions::with_profile()).unwrap();
/// let report = audit_schedule(&trace, &sched, Some(Policy::Rr), &AuditConfig::default());
/// assert!(report.ok(), "{:?}", report.violations);
/// ```
pub fn audit_schedule(
    trace: &Trace,
    sched: &Schedule,
    policy: Option<Policy>,
    cfg: &AuditConfig,
) -> AuditReport {
    let mut span = tf_obs::span!("audit", "check");
    span.arg("n", trace.len() as f64);
    let mut rep = AuditReport::default();
    let pname = policy.map(|p| p.to_string());
    let pname = pname.as_deref();

    // S-checks: one source of truth in tf-simcore.
    rep.ran();
    let feas = validate_schedule(trace, sched, cfg.rel_tol);
    for issue in feas.issues {
        rep.fail("S", pname, issue);
    }

    let Some(profile) = sched.profile.as_ref() else {
        return rep; // already reported by validate_schedule
    };

    match policy {
        Some(Policy::Rr) => check_rr_structure(trace, sched, profile, cfg, &mut rep),
        // WRR degenerates to RR exactly when every weight is 1 (the
        // water-filling splits the budget equally).
        Some(Policy::Wrr) if trace.jobs().iter().all(|j| j.weight == 1.0) => {
            check_rr_structure(trace, sched, profile, cfg, &mut rep)
        }
        // Genuinely weighted instances get the water-filling invariant
        // check instead.
        Some(Policy::Wrr) => check_wrr_share(trace, profile, cfg, &mut rep),
        Some(Policy::Setf) => check_setf_structure(profile, cfg, &mut rep),
        Some(Policy::Laps(beta)) => check_laps_structure(profile, beta, cfg, &mut rep),
        Some(Policy::Fcfs) => check_fcfs_structure(profile, cfg, &mut rep),
        Some(Policy::Hybrid(theta)) => check_hybrid_structure(trace, profile, theta, cfg, &mut rep),
        Some(Policy::MultiList) => check_multilist_structure(trace, sched, profile, cfg, &mut rep),
        _ => {}
    }
    rep
}

/// P-HYB-NOSTARVE + P-HYB-SRPT-BELOW: the SRPT+FCFS hybrid \[Kuo, arXiv
/// 2112.14403\] grants strict priority, in FCFS order, to jobs whose age
/// has reached the starvation threshold θ, and serves the remaining
/// (young) jobs in SRPT order.
///
/// Both engines break integration segments exactly at threshold
/// crossings (the policy's `review_in`), so evaluating each segment at
/// its start time is exact. Jobs whose age sits within a rounding band of
/// θ are skipped — their class is legitimately ambiguous at a crossing
/// instant.
fn check_hybrid_structure(
    trace: &Trace,
    profile: &Profile,
    theta: f64,
    cfg: &AuditConfig,
    rep: &mut AuditReport,
) {
    rep.ran();
    rep.ran();
    let tol = cfg.rel_tol * profile.speed.max(1.0);
    let jobs = trace.jobs();
    // Remaining work at each segment start, reconstructed from the rates
    // (same cumulative scheme as the SETF oracle).
    let mut attained = vec![0.0f64; jobs.len()];
    for (si, seg) in profile.segments().enumerate() {
        let t0 = seg.t0;
        let band = 1e-7 * (1.0 + t0.abs()); // age-vs-θ rounding band
                                            // Classify each alive job: Some(true)=starving, Some(false)=young,
                                            // None=within the band of the threshold (skip).
        let class = |id: u32| -> Option<bool> {
            let age = t0 - jobs[id as usize].arrival;
            if (age - theta).abs() <= band {
                None
            } else {
                Some(age > theta)
            }
        };
        // P-HYB-NOSTARVE: a starving job may idle only behind other
        // starving jobs of earlier FCFS rank — never behind a young job.
        let young_served = seg
            .rates
            .iter()
            .any(|&(id, r)| r > tol && class(id) == Some(false));
        let mut last_served_starving: Option<u32> = None; // max id among served starving
        for &(id, r) in seg.rates {
            if r > tol && class(id) == Some(true) {
                last_served_starving = Some(last_served_starving.map_or(id, |m| m.max(id)));
            }
        }
        for &(id, r) in seg.rates {
            if r > tol || class(id) != Some(true) {
                continue;
            }
            // Ids are arrival ranks, so FCFS order among starving jobs is
            // id order.
            if young_served {
                rep.fail(
                    "P-HYB-NOSTARVE",
                    Some("HYB"),
                    format!(
                        "segment {si} (t={t0}): starving job {id} (age {}) idles while a young job runs (θ={theta})",
                        t0 - jobs[id as usize].arrival
                    ),
                );
                return;
            }
            if let Some(served) = last_served_starving {
                if served > id {
                    rep.fail(
                        "P-HYB-NOSTARVE",
                        Some("HYB"),
                        format!(
                            "segment {si} (t={t0}): starving job {id} idles while later-arrived starving job {served} runs"
                        ),
                    );
                    return;
                }
            }
        }
        // P-HYB-SRPT-BELOW: among young jobs, an idle one must not have
        // strictly less remaining work than a served one.
        let mut min_idle_remaining: Option<(u32, f64)> = None;
        let mut max_served_remaining: Option<(u32, f64)> = None;
        for &(id, r) in seg.rates {
            if class(id) != Some(false) {
                continue;
            }
            let remaining = jobs[id as usize].size - attained[id as usize];
            if r > tol {
                if max_served_remaining.is_none_or(|(_, m)| remaining > m) {
                    max_served_remaining = Some((id, remaining));
                }
            } else if min_idle_remaining.is_none_or(|(_, m)| remaining < m) {
                min_idle_remaining = Some((id, remaining));
            }
        }
        if let (Some((idle, ri)), Some((served, rs))) = (min_idle_remaining, max_served_remaining) {
            let rtol = 1e-6 * (1.0 + ri.abs().max(rs.abs()));
            if ri < rs - rtol {
                rep.fail(
                    "P-HYB-SRPT-BELOW",
                    Some("HYB"),
                    format!(
                        "segment {si} (t={t0}): young job {idle} (remaining {ri}) idles while young job {served} (remaining {rs}) runs — not SRPT below θ={theta}"
                    ),
                );
                return;
            }
        }
        let dt = seg.duration();
        for &(id, r) in seg.rates {
            attained[id as usize] += r * dt;
        }
    }
}

/// P-ML-LARGEST + P-ML-LEASTLOAD: the multi-list dispatcher \[arXiv
/// 2001.07061\] appends each job to a FIFO list (largest first within a
/// simultaneous-arrival batch, each onto the least-loaded list) and every
/// machine serves its own list in order at full speed.
///
/// * P-ML-LARGEST audits the shape: rates are 0-or-full-speed, each job's
///   service is one contiguous run, and within every batch a strictly
///   larger job starts service no later than a smaller one (placement
///   order sees monotonically non-decreasing least-loads, so start times
///   are monotone in batch order).
/// * P-ML-LEASTLOAD replays the routing independently — per-list drain at
///   machine speed, batch largest-first, least-loaded placement — and
///   requires the schedule's completion times to match the replay's.
fn check_multilist_structure(
    trace: &Trace,
    sched: &Schedule,
    profile: &Profile,
    cfg: &AuditConfig,
    rep: &mut AuditReport,
) {
    rep.ran();
    rep.ran();
    let tol = cfg.rel_tol * profile.speed.max(1.0);
    let jobs = trace.jobs();
    let n = jobs.len();

    // Shape + start-time extraction from the profile.
    let mut start = vec![f64::INFINITY; n];
    let mut stopped = vec![false; n]; // saw a zero-rate segment after service
    for (si, seg) in profile.segments().enumerate() {
        if seg.duration() <= 0.0 {
            continue;
        }
        for &(id, r) in seg.rates {
            let i = id as usize;
            if r > tol {
                if (r - profile.speed).abs() > tol {
                    rep.fail(
                        "P-ML-LARGEST",
                        Some("ML"),
                        format!(
                            "segment {si}: job {id} at fractional rate {r} (lists serve at full speed {})",
                            profile.speed
                        ),
                    );
                    return;
                }
                if stopped[i] {
                    rep.fail(
                        "P-ML-LARGEST",
                        Some("ML"),
                        format!("segment {si}: job {id} resumes after being paused — list service must be one contiguous run"),
                    );
                    return;
                }
                if start[i].is_infinite() {
                    start[i] = seg.t0;
                }
            } else if start[i].is_finite() {
                stopped[i] = true;
            }
        }
    }
    // Batch monotonicity: larger jobs start no later within each batch.
    let makespan_tol = 1e-7 * (1.0 + profile.segments().next_back().map_or(0.0, |s| s.t1.abs()));
    let mut lo = 0;
    while lo < n {
        let mut hi = lo + 1;
        while hi < n && jobs[hi].arrival == jobs[lo].arrival {
            hi += 1;
        }
        let mut batch: Vec<usize> = (lo..hi).collect();
        batch.sort_by(|&a, &b| {
            jobs[b]
                .size
                .partial_cmp(&jobs[a].size)
                .unwrap()
                .then_with(|| a.cmp(&b))
        });
        for w in batch.windows(2) {
            let (first, second) = (w[0], w[1]);
            if jobs[first].size > jobs[second].size && start[first] > start[second] + makespan_tol {
                rep.fail(
                    "P-ML-LARGEST",
                    Some("ML"),
                    format!(
                        "batch at t={}: job {first} (size {}) starts at {} after smaller job {second} (size {}) at {}",
                        jobs[lo].arrival, jobs[first].size, start[first], jobs[second].size, start[second]
                    ),
                );
                return;
            }
        }
        lo = hi;
    }

    // Independent replay of the routing dynamics.
    let m = profile.m;
    let speed = profile.speed;
    let mut load = vec![0.0f64; m];
    let mut last_t = 0.0f64;
    let mut predicted = vec![0.0f64; n];
    let mut lo = 0;
    while lo < n {
        let mut hi = lo + 1;
        while hi < n && jobs[hi].arrival == jobs[lo].arrival {
            hi += 1;
        }
        let t = jobs[lo].arrival;
        for l in load.iter_mut() {
            *l = (*l - (t - last_t) * speed).max(0.0);
        }
        last_t = t;
        let mut batch: Vec<usize> = (lo..hi).collect();
        batch.sort_by(|&a, &b| {
            jobs[b]
                .size
                .partial_cmp(&jobs[a].size)
                .unwrap()
                .then_with(|| a.cmp(&b))
        });
        for &j in &batch {
            let mut best = 0usize;
            for (i, &l) in load.iter().enumerate() {
                if l < load[best] {
                    best = i;
                }
            }
            load[best] += jobs[j].size;
            // The machine never idles while its list is non-empty, and
            // later placements cannot delay j, so j completes once the
            // work ahead of it plus its own size drains.
            predicted[j] = t + load[best] / speed;
        }
        lo = hi;
    }
    for (j, &want) in predicted.iter().enumerate() {
        let got = sched.completion[j];
        let ctol = 1e-6 * (1.0 + want.abs());
        if (got - want).abs() > ctol {
            rep.fail(
                "P-ML-LEASTLOAD",
                Some("ML"),
                format!(
                    "job {j}: completion {got} != {want} predicted by largest-first/least-loaded replay"
                ),
            );
            return;
        }
    }
}

/// P-RR-SHARE + P-RR-NOSTARVE: in every segment of an RR profile, every
/// alive job's rate equals `s·min(1, m/n_t)` — in particular it is
/// strictly positive, which is the zero-service-denial guarantee the
/// paper's temporal-fairness motivation rests on (E7/E8).
fn check_rr_structure(
    _trace: &Trace,
    sched: &Schedule,
    profile: &Profile,
    cfg: &AuditConfig,
    rep: &mut AuditReport,
) {
    let mcfg: MachineConfig = sched.cfg;
    let tol = cfg.rel_tol * mcfg.job_cap().max(1.0);
    rep.ran();
    rep.ran();
    for (si, seg) in profile.segments().enumerate() {
        let want = mcfg.equal_share(seg.n_alive());
        for &(id, r) in seg.rates {
            if (r - want).abs() > tol {
                rep.fail(
                    "P-RR-SHARE",
                    Some("RR"),
                    format!(
                        "segment {si}: job {id} rate {r} != equal share {want} (n={}, m={}, s={})",
                        seg.n_alive(),
                        mcfg.m,
                        mcfg.speed
                    ),
                );
                return;
            }
            if r <= 0.0 {
                rep.fail(
                    "P-RR-NOSTARVE",
                    Some("RR"),
                    format!("segment {si}: job {id} starved (rate {r}) under RR"),
                );
                return;
            }
        }
    }
}

/// W-SHARE: in every segment of a WRR profile, rates follow the
/// weight-proportional water-filling invariant the policy is *defined*
/// by — verified from the invariant itself, not by re-running the
/// allocator, so a water-fill bug cannot vouch for itself:
///
/// * every rate lies in `[0, cap]` and the segment exhausts the budget
///   `Σ r = min(m·s, n·s)` (jobs have positive weight by trace
///   validation, so nobody abstains);
/// * all *uncapped* jobs share one rate-per-weight ratio `λ = r_i/w_i`
///   (proportionality within contended segments);
/// * every *capped* job's entitlement `λ·w_i` is at least the cap —
///   otherwise it should not have been capped.
fn check_wrr_share(trace: &Trace, profile: &Profile, cfg: &AuditConfig, rep: &mut AuditReport) {
    rep.ran();
    let cap = profile.speed;
    let total = profile.m as f64 * profile.speed;
    let jobs = trace.jobs();
    let tol = cfg.rel_tol * cap.max(1.0);
    for (si, seg) in profile.segments().enumerate() {
        let n = seg.n_alive();
        if n == 0 {
            continue;
        }
        let sum: f64 = seg.rates.iter().map(|&(_, r)| r).sum();
        let want = total.min(n as f64 * cap);
        if (sum - want).abs() > tol * n as f64 {
            rep.fail(
                "W-SHARE",
                Some("WRR"),
                format!("segment {si}: rates sum to {sum} != budget {want} (n={n})"),
            );
            return;
        }
        // Ratio of the uncapped extremes; capped jobs just need a big
        // enough entitlement under the observed λ.
        let mut lo: Option<(u32, f64)> = None;
        let mut hi: Option<(u32, f64)> = None;
        for &(id, r) in seg.rates {
            if !(-tol..=cap + tol).contains(&r) {
                rep.fail(
                    "W-SHARE",
                    Some("WRR"),
                    format!("segment {si}: job {id} rate {r} outside [0, {cap}]"),
                );
                return;
            }
            if r < cap - tol {
                let lam = r / jobs[id as usize].weight;
                if lo.is_none_or(|(_, v)| lam < v) {
                    lo = Some((id, lam));
                }
                if hi.is_none_or(|(_, v)| lam > v) {
                    hi = Some((id, lam));
                }
            }
        }
        let (Some((id_lo, lam_lo)), Some((id_hi, lam_hi))) = (lo, hi) else {
            continue; // every job capped: the budget check said it all
        };
        // The profile coalesces segments within a small rate tolerance,
        // so allow a wider relative band than raw fp error needs.
        let band = 100.0 * cfg.rel_tol;
        if lam_hi - lam_lo > band * lam_hi {
            rep.fail(
                "W-SHARE",
                Some("WRR"),
                format!(
                    "segment {si}: rate/weight ratio {lam_hi} of job {id_hi} != {lam_lo} of job {id_lo} — grants not ∝ weight"
                ),
            );
            return;
        }
        for &(id, r) in seg.rates {
            let w = jobs[id as usize].weight;
            if (r - cap).abs() <= tol && w * lam_hi < cap * (1.0 - band) {
                rep.fail(
                    "W-SHARE",
                    Some("WRR"),
                    format!(
                        "segment {si}: job {id} capped at {cap} but its entitlement λ·w = {} is below the cap",
                        w * lam_hi
                    ),
                );
                return;
            }
        }
    }
}

/// W-UNIT-REDUCE: with every weight forced to 1, the weighted policies
/// collapse to their unweighted counterparts **bitwise**: WRR ≡ RR (the
/// allocator takes RR's exact share expression on uniform weights) and
/// HDF ≡ SJF (unit-weight density `1/p` orders identically to size, with
/// the same sequence tie-break). Completion vectors are compared for
/// exact equality — any ulp of drift fails.
fn check_unit_weight_reduction(trace: &Trace, m: usize, speed: f64, rep: &mut AuditReport) {
    let mut b = TraceBuilder::new();
    for j in trace.jobs() {
        b.push(j.arrival, j.size);
    }
    let unit = b.build().expect("stripping weights preserves validity");
    let mcfg = MachineConfig::with_speed(m, speed);
    for (weighted, base) in [(Policy::Wrr, Policy::Rr), (Policy::Hdf, Policy::Sjf)] {
        rep.ran();
        let got = simulate(&unit, weighted.make().as_mut(), mcfg, SimOptions::default());
        let want = simulate(&unit, base.make().as_mut(), mcfg, SimOptions::default());
        match (got, want) {
            (Ok(got), Ok(want)) => {
                if got.completion != want.completion {
                    let j = got
                        .completion
                        .iter()
                        .zip(&want.completion)
                        .position(|(a, b)| a != b)
                        .unwrap_or(0);
                    rep.fail(
                        "W-UNIT-REDUCE",
                        Some(&weighted.to_string()),
                        format!(
                            "unit-weight {weighted} completion[{j}] = {} != {base}'s {} (must be bitwise)",
                            got.completion[j], want.completion[j]
                        ),
                    );
                }
            }
            _ => rep.fail(
                "W-UNIT-REDUCE",
                Some(&weighted.to_string()),
                "simulation failed on the unit-weight copy".into(),
            ),
        }
    }
}

/// Round Robin behind a wrapper that forwards every method except
/// [`RateAllocator::equal_share`], so the engine runs it through the
/// general loop.
struct Undeclared(RoundRobin);

impl RateAllocator for Undeclared {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn allocate(&mut self, now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        self.0.allocate(now, alive, cfg, rates);
    }
    fn review_in(&self, now: f64, alive: &[AliveJob], cfg: &MachineConfig) -> Option<f64> {
        self.0.review_in(now, alive, cfg)
    }
    fn continuous(&self) -> bool {
        self.0.continuous()
    }
    fn reset(&mut self) {
        self.0.reset();
    }
}

/// P-RR-FAST: Round Robin declares [`RateAllocator::equal_share`], so the
/// engine runs it in virtual time. The general loop must compute the same
/// schedule: RR through the virtual-time loop and RR behind a wrapper
/// that does not declare must agree on the event count and on every
/// completion, bit for bit.
fn check_rr_fast_path(trace: &Trace, m: usize, speed: f64, rep: &mut AuditReport) {
    rep.ran();
    let mcfg = MachineConfig::with_speed(m, speed);
    let fast = simulate(trace, &mut RoundRobin, mcfg, SimOptions::default());
    let general = simulate(
        trace,
        &mut Undeclared(RoundRobin),
        mcfg,
        SimOptions::default(),
    );
    let (Ok(fast), Ok(general)) = (fast, general) else {
        rep.fail("P-RR-FAST", Some("RR"), "simulation failed".into());
        return;
    };
    let differs = |(a, b): (&f64, &f64)| a.to_bits() != b.to_bits();
    if let Some(j) = fast
        .completion
        .iter()
        .zip(&general.completion)
        .position(differs)
    {
        rep.fail(
            "P-RR-FAST",
            Some("RR"),
            format!(
                "virtual-time completion[{j}] = {} != general loop's {} (must be bitwise)",
                fast.completion[j], general.completion[j]
            ),
        );
    } else if fast.events != general.events {
        rep.fail(
            "P-RR-FAST",
            Some("RR"),
            format!(
                "virtual-time loop took {} events, the general loop {}",
                fast.events, general.events
            ),
        );
    }
}

/// P-SETF-ORDER: SETF serves by least attained service — sorting a
/// segment's alive jobs by their attained service at the segment start,
/// rates must be non-increasing (priority groups drain capacity in
/// attained order; a lower-attained job can never get less than a
/// higher-attained one).
fn check_setf_structure(profile: &Profile, cfg: &AuditConfig, rep: &mut AuditReport) {
    rep.ran();
    let tol = cfg.rel_tol * profile.speed.max(1.0);
    // Attained-so-far tolerance: the engine groups attained values with an
    // absolute-relative tie tolerance; mirror that scale here.
    let mut attained: Vec<f64> = Vec::new();
    for (si, seg) in profile.segments().enumerate() {
        let n = seg
            .rates
            .iter()
            .map(|&(id, _)| id as usize + 1)
            .max()
            .unwrap_or(0);
        if attained.len() < n {
            attained.resize(n, 0.0);
        }
        let mut order: Vec<usize> = (0..seg.rates.len()).collect();
        order.sort_by(|&a, &b| {
            let (ia, ib) = (seg.rates[a].0 as usize, seg.rates[b].0 as usize);
            attained[ia].partial_cmp(&attained[ib]).unwrap()
        });
        // Jobs whose attained services are within the engine's tie
        // tolerance form one group and may legitimately share unequal
        // leftovers only across *distinct* groups; between clearly
        // distinct attained values, rates must not increase.
        for w in order.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let (ilo, ihi) = (seg.rates[lo].0 as usize, seg.rates[hi].0 as usize);
            let gap = attained[ihi] - attained[ilo];
            let tie = 1e-6 * (1.0 + attained[ilo].abs().max(attained[ihi].abs()));
            if gap > tie && seg.rates[hi].1 > seg.rates[lo].1 + tol {
                rep.fail(
                    "P-SETF-ORDER",
                    Some("SETF"),
                    format!(
                        "segment {si}: job {} (attained {}) at rate {} outranks job {} (attained {}) at rate {}",
                        ihi, attained[ihi], seg.rates[hi].1, ilo, attained[ilo], seg.rates[lo].1
                    ),
                );
                return;
            }
        }
        let dt = seg.duration();
        for &(id, r) in seg.rates {
            attained[id as usize] += r * dt;
        }
    }
}

/// P-LAPS-SUPPORT: LAPS(β) serves exactly the `⌈β·n_t⌉` latest-arrived
/// alive jobs, equally. Job ids are arrival ranks, so "latest" is the
/// suffix of the segment's id-sorted rate list.
fn check_laps_structure(profile: &Profile, beta: f64, cfg: &AuditConfig, rep: &mut AuditReport) {
    rep.ran();
    let tol = cfg.rel_tol * profile.speed.max(1.0);
    for (si, seg) in profile.segments().enumerate() {
        let n = seg.n_alive();
        if n == 0 {
            continue;
        }
        let served = ((beta * n as f64).ceil() as usize).clamp(1, n);
        let share = (profile.m as f64 * profile.speed / served as f64).min(profile.speed);
        for (pos, &(id, r)) in seg.rates.iter().enumerate() {
            let want = if pos >= n - served { share } else { 0.0 };
            if (r - want).abs() > tol {
                rep.fail(
                    "P-LAPS-SUPPORT",
                    Some("LAPS"),
                    format!(
                        "segment {si}: job {id} rate {r} != {want} (n={n}, serving latest {served})"
                    ),
                );
                return;
            }
        }
    }
}

/// P-FCFS-FRONT: FCFS runs the `m` earliest-arrived alive jobs at full
/// machine speed and nothing else.
fn check_fcfs_structure(profile: &Profile, cfg: &AuditConfig, rep: &mut AuditReport) {
    rep.ran();
    let tol = cfg.rel_tol * profile.speed.max(1.0);
    for (si, seg) in profile.segments().enumerate() {
        let served = profile.m.min(seg.n_alive());
        for (pos, &(id, r)) in seg.rates.iter().enumerate() {
            let want = if pos < served { profile.speed } else { 0.0 };
            if (r - want).abs() > tol {
                rep.fail(
                    "P-FCFS-FRONT",
                    Some("FCFS"),
                    format!("segment {si}: job {id} rate {r} != {want} (front-running {served})"),
                );
                return;
            }
        }
    }
}

/// Simulate every policy in `policies` on `trace` (with profiles) and run
/// the whole catalogue: S- and structural P-checks per schedule, the
/// differential optimality oracles (P-SRPT-OPT, P-FCFS-MAXFLOW on
/// `m = 1`), the bitwise reductions (W-UNIT-REDUCE, P-RR-FAST), and the
/// cross-layer X-checks.
///
/// `speed` is the common speed every policy runs at; the lower-bound
/// dominance check X1 compares against the *speed-1* optimum and is
/// therefore only run when `speed == 1`.
///
/// ```
/// use tf_audit::{audit_trace, AuditConfig};
/// use tf_policies::Policy;
/// use tf_simcore::Trace;
///
/// let trace = Trace::from_pairs([(0.0, 2.0), (1.0, 1.0), (1.0, 3.0)]).unwrap();
/// let report = audit_trace(&trace, 1, 1.0, &Policy::all(), &AuditConfig::default());
/// assert!(report.ok(), "{:?}", report.violations);
/// assert!(report.checks_run > 20);
/// ```
pub fn audit_trace(
    trace: &Trace,
    m: usize,
    speed: f64,
    policies: &[Policy],
    cfg: &AuditConfig,
) -> AuditReport {
    let mut span = tf_obs::span!("audit", "audit_trace");
    span.arg("n", trace.len() as f64);
    span.arg("m", m as f64);
    let mut rep = AuditReport::default();
    let mcfg = MachineConfig::with_speed(m, speed);

    let mut schedules: Vec<(Policy, Schedule)> = Vec::with_capacity(policies.len());
    for &p in policies {
        let mut alloc = p.make();
        match simulate(trace, alloc.as_mut(), mcfg, SimOptions::with_profile()) {
            Ok(s) => schedules.push((p, s)),
            Err(e) => {
                rep.ran();
                rep.fail(
                    "S-SIM",
                    Some(&p.to_string()),
                    format!("simulation failed: {e:?}"),
                );
            }
        }
    }

    for (p, s) in &schedules {
        rep.merge(audit_schedule(trace, s, Some(*p), cfg));
    }

    if m == 1 && !trace.is_empty() {
        differential_oracles(trace, speed, &schedules, cfg, &mut rep);
    }

    if !trace.is_empty() {
        check_unit_weight_reduction(trace, m, speed, &mut rep);
        check_rr_fast_path(trace, m, speed, &mut rep);
    }

    cross_layer_checks(trace, m, speed, &schedules, cfg, &mut rep);
    if tf_obs::enabled() {
        tf_obs::counter!("audit", "checks_run", rep.checks_run as f64);
    }
    rep
}

/// P-SRPT-OPT and P-FCFS-MAXFLOW: on one machine, SRPT exactly minimizes
/// total flow among all (even offline) schedules at the same speed, and
/// FCFS exactly minimizes maximum flow. Every policy's objective must
/// therefore dominate the respective optimum.
fn differential_oracles(
    trace: &Trace,
    speed: f64,
    schedules: &[(Policy, Schedule)],
    cfg: &AuditConfig,
    rep: &mut AuditReport,
) {
    let mcfg = MachineConfig::with_speed(1, speed);
    let opt_total = simulate(
        trace,
        Policy::Srpt.make().as_mut(),
        mcfg,
        SimOptions::default(),
    )
    .map(|s| s.total_flow());
    let opt_max = simulate(
        trace,
        Policy::Fcfs.make().as_mut(),
        mcfg,
        SimOptions::default(),
    )
    .map(|s| s.max_flow());

    if let Ok(opt) = opt_total {
        rep.ran();
        let tol = cfg.rel_tol * opt.max(1.0);
        for (p, s) in schedules {
            let total = s.total_flow();
            if total < opt - tol {
                rep.fail(
                    "P-SRPT-OPT",
                    Some(&p.to_string()),
                    format!("total flow {total} beats the SRPT optimum {opt} on m=1"),
                );
            }
        }
    }
    if let Ok(opt) = opt_max {
        rep.ran();
        let tol = cfg.rel_tol * opt.max(1.0);
        for (p, s) in schedules {
            let mx = s.max_flow();
            if mx < opt - tol {
                rep.fail(
                    "P-FCFS-MAXFLOW",
                    Some(&p.to_string()),
                    format!("max flow {mx} beats the FCFS optimum {opt} on m=1"),
                );
            }
        }
    }
}

/// X1 (lower bound dominates no policy), X2 (Theorem 1 certificate), X3
/// (optimized LP solver ≡ reference solver).
fn cross_layer_checks(
    trace: &Trace,
    m: usize,
    speed: f64,
    schedules: &[(Policy, Schedule)],
    cfg: &AuditConfig,
    rep: &mut AuditReport,
) {
    if trace.is_empty() {
        return;
    }
    let kf = f64::from(cfg.k);
    let small = trace.len() <= MAX_EXACT_JOBS;

    if speed == 1.0 {
        rep.ran();
        let lb = lk_lower_bound(trace, m, cfg.k);
        for (p, s) in schedules {
            let obj = s.flow_power_sum(kf);
            if lb.value > obj * (1.0 + cfg.rel_tol) + cfg.rel_tol {
                rep.fail(
                    "X1-LB-DOMINANCE",
                    Some(&p.to_string()),
                    format!(
                        "certified lower bound {} exceeds {} objective {obj} (m={m}, k={})",
                        lb.value, p, cfg.k
                    ),
                );
            }
        }

        if small && trace.is_integral(1e-9) {
            rep.ran();
            let reference = LbRequest {
                method: Method::Reference,
                ..LbRequest::new(m, cfg.k)
            };
            let reference = lower_bound(trace, &reference).bound;
            let tol = cfg.rel_tol * lb.value.abs().max(1.0);
            if (lb.value - reference.value).abs() > tol
                || (lb.lp_raw - reference.lp_raw).abs() > tol
            {
                rep.fail(
                    "X3-SOLVER-EQUIV",
                    None,
                    format!(
                        "optimized solver bound {} (lp {}) != reference {} (lp {})",
                        lb.value, lb.lp_raw, reference.value, reference.lp_raw
                    ),
                );
            }
        }
    }

    if small {
        rep.ran();
        match tf_core::verify_theorem1(trace, m, cfg.k, cfg.eps) {
            Ok(cert) if cert.certified() => {}
            Ok(cert) => rep.fail(
                "X2-CERTIFICATE",
                None,
                format!(
                    "Theorem 1 certificate failed at eta={} (k={}, eps={}): {:?}",
                    cert.speed, cfg.k, cfg.eps, cert.report
                ),
            ),
            Err(e) => rep.fail(
                "X2-CERTIFICATE",
                None,
                format!("certificate pipeline failed to simulate: {e:?}"),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace() -> Trace {
        Trace::from_pairs([(0.0, 2.0), (0.0, 1.0), (1.0, 3.0), (4.0, 1.0)]).unwrap()
    }

    #[test]
    fn clean_trace_passes_all_policies() {
        for m in [1usize, 2] {
            let rep = audit_trace(
                &small_trace(),
                m,
                1.0,
                &Policy::all(),
                &AuditConfig::default(),
            );
            assert!(rep.ok(), "m={m}: {:?}", rep.violations);
            assert!(rep.checks_run > 10);
        }
    }

    #[test]
    fn clean_trace_passes_at_speed() {
        let rep = audit_trace(
            &small_trace(),
            2,
            4.4,
            &Policy::all(),
            &AuditConfig::default(),
        );
        assert!(rep.ok(), "{:?}", rep.violations);
    }

    /// An RR with an off-by-one in its share (divides by n+1) violates
    /// P-RR-SHARE but still yields a feasible schedule: the S-checks
    /// alone cannot catch it, the structural oracle must.
    struct OffByOneRr;
    impl RateAllocator for OffByOneRr {
        fn name(&self) -> &'static str {
            "RR"
        }
        fn allocate(
            &mut self,
            _now: f64,
            alive: &[AliveJob],
            cfg: &MachineConfig,
            rates: &mut [f64],
        ) {
            let share = cfg.speed * (cfg.m as f64 / (alive.len() + 1) as f64).min(1.0);
            rates.fill(share);
        }
    }

    #[test]
    fn off_by_one_rr_share_is_caught() {
        let t = small_trace();
        let s = simulate(
            &t,
            &mut OffByOneRr,
            MachineConfig::new(1),
            SimOptions::with_profile(),
        )
        .unwrap();
        let rep = audit_schedule(&t, &s, Some(Policy::Rr), &AuditConfig::default());
        assert!(rep.has("P-RR-SHARE"), "{:?}", rep.violations);
        // The genuine RR passes the same check.
        let ok = simulate(
            &t,
            &mut RoundRobin::new(),
            MachineConfig::new(1),
            SimOptions::with_profile(),
        )
        .unwrap();
        assert!(audit_schedule(&t, &ok, Some(Policy::Rr), &AuditConfig::default()).ok());
    }

    #[test]
    fn hybrid_that_never_promotes_is_caught() {
        // Plain SRPT audited as the hybrid: the long job's age blows past
        // θ=4 while young shorts keep running → P-HYB-NOSTARVE.
        let mut pairs = vec![(0.0, 6.0)];
        for i in 0..20 {
            pairs.push((0.5 * i as f64, 0.45));
        }
        let t = Trace::from_pairs(pairs).unwrap();
        let s = simulate(
            &t,
            Policy::Srpt.make().as_mut(),
            MachineConfig::new(1),
            SimOptions::with_profile(),
        )
        .unwrap();
        let rep = audit_schedule(&t, &s, Some(Policy::Hybrid(4.0)), &AuditConfig::default());
        assert!(rep.has("P-HYB-NOSTARVE"), "{:?}", rep.violations);
        // The genuine hybrid passes on the same trace.
        let ok = simulate(
            &t,
            Policy::Hybrid(4.0).make().as_mut(),
            MachineConfig::new(1),
            SimOptions::with_profile(),
        )
        .unwrap();
        let rep = audit_schedule(&t, &ok, Some(Policy::Hybrid(4.0)), &AuditConfig::default());
        assert!(rep.ok(), "{:?}", rep.violations);
    }

    #[test]
    fn hybrid_that_ignores_srpt_below_threshold_is_caught() {
        // FCFS audited as a large-θ hybrid: both jobs are young, yet the
        // shorter-remaining late arrival idles → P-HYB-SRPT-BELOW.
        let t = Trace::from_pairs([(0.0, 4.0), (1.0, 1.0)]).unwrap();
        let s = simulate(
            &t,
            Policy::Fcfs.make().as_mut(),
            MachineConfig::new(1),
            SimOptions::with_profile(),
        )
        .unwrap();
        let rep = audit_schedule(&t, &s, Some(Policy::Hybrid(100.0)), &AuditConfig::default());
        assert!(rep.has("P-HYB-SRPT-BELOW"), "{:?}", rep.violations);
    }

    /// Routes job `i` to list `i % m` (cyclic), serving each list FCFS —
    /// feasible and list-shaped, but not least-loaded routing.
    struct CyclicLists;
    impl RateAllocator for CyclicLists {
        fn name(&self) -> &'static str {
            "ML"
        }
        fn allocate(
            &mut self,
            _now: f64,
            alive: &[AliveJob],
            cfg: &MachineConfig,
            rates: &mut [f64],
        ) {
            let mut head: Vec<Option<usize>> = vec![None; cfg.m];
            for (i, j) in alive.iter().enumerate() {
                let list = j.id as usize % cfg.m;
                let better = match head[list] {
                    None => true,
                    Some(h) => alive[h].id > j.id,
                };
                if better {
                    head[list] = Some(i);
                }
            }
            for h in head.into_iter().flatten() {
                rates[h] = cfg.speed;
            }
        }
    }

    #[test]
    fn multilist_wrong_routing_is_caught_by_replay() {
        // Cyclic lists put both unit jobs behind the size-4 job's machine
        // mate; the least-loaded replay disagrees → P-ML-LEASTLOAD.
        let t = Trace::from_pairs([(0.0, 4.0), (0.0, 1.0), (0.0, 1.0), (1.0, 2.0)]).unwrap();
        let s = simulate(
            &t,
            &mut CyclicLists,
            MachineConfig::new(2),
            SimOptions::with_profile(),
        )
        .unwrap();
        let rep = audit_schedule(&t, &s, Some(Policy::MultiList), &AuditConfig::default());
        assert!(rep.has("P-ML-LEASTLOAD"), "{:?}", rep.violations);
        // The genuine dispatcher passes.
        let ok = simulate(
            &t,
            Policy::MultiList.make().as_mut(),
            MachineConfig::new(2),
            SimOptions::with_profile(),
        )
        .unwrap();
        let rep = audit_schedule(&t, &ok, Some(Policy::MultiList), &AuditConfig::default());
        assert!(rep.ok(), "{:?}", rep.violations);
    }

    #[test]
    fn multilist_smallest_first_batch_is_caught() {
        // FCFS on one machine serves the batch in trace order (small job
        // first); the dispatcher must start the size-4 job first →
        // P-ML-LARGEST.
        let t = Trace::from_pairs([(0.0, 1.0), (0.0, 4.0)]).unwrap();
        let s = simulate(
            &t,
            Policy::Fcfs.make().as_mut(),
            MachineConfig::new(1),
            SimOptions::with_profile(),
        )
        .unwrap();
        let rep = audit_schedule(&t, &s, Some(Policy::MultiList), &AuditConfig::default());
        assert!(rep.has("P-ML-LARGEST"), "{:?}", rep.violations);
    }

    #[test]
    fn multilist_fractional_rates_are_caught() {
        // RR shares the machine fractionally — not a list schedule.
        let t = Trace::from_pairs([(0.0, 2.0), (0.0, 2.0)]).unwrap();
        let s = simulate(
            &t,
            &mut RoundRobin::new(),
            MachineConfig::new(1),
            SimOptions::with_profile(),
        )
        .unwrap();
        let rep = audit_schedule(&t, &s, Some(Policy::MultiList), &AuditConfig::default());
        assert!(rep.has("P-ML-LARGEST"), "{:?}", rep.violations);
    }

    fn weighted_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.push_weighted(0.0, 4.0, 3.0);
        b.push_weighted(0.0, 4.0, 1.0);
        b.push_weighted(1.0, 2.0, 2.0);
        b.push_weighted(5.0, 1.0, 4.0);
        b.build().unwrap()
    }

    #[test]
    fn weighted_trace_passes_full_catalogue() {
        for m in [1usize, 2] {
            let rep = audit_trace(
                &weighted_trace(),
                m,
                1.0,
                &Policy::all(),
                &AuditConfig::default(),
            );
            assert!(rep.ok(), "m={m}: {:?}", rep.violations);
        }
    }

    #[test]
    fn equal_split_imposter_fails_wrr_share() {
        // Plain RR on a weighted trace audited as WRR: equal rates on
        // weights 3:1 break the proportional-share invariant. The
        // S-checks cannot see this (the schedule is feasible); W-SHARE
        // must.
        let t = weighted_trace();
        let bad = simulate(
            &t,
            &mut RoundRobin::new(),
            MachineConfig::new(1),
            SimOptions::with_profile(),
        )
        .unwrap();
        let rep = audit_schedule(&t, &bad, Some(Policy::Wrr), &AuditConfig::default());
        assert!(rep.has("W-SHARE"), "{:?}", rep.violations);
        // The genuine WRR passes the same check.
        let ok = simulate(
            &t,
            Policy::Wrr.make().as_mut(),
            MachineConfig::new(1),
            SimOptions::with_profile(),
        )
        .unwrap();
        let rep = audit_schedule(&t, &ok, Some(Policy::Wrr), &AuditConfig::default());
        assert!(rep.ok(), "{:?}", rep.violations);
    }

    #[test]
    fn unit_weight_reduction_is_checked_per_trace() {
        // The reduction check runs (and passes) regardless of which
        // policies the caller audits — it simulates its own four runs.
        let mut rep = AuditReport::default();
        check_unit_weight_reduction(&weighted_trace(), 2, 1.5, &mut rep);
        assert_eq!(rep.checks_run, 2, "one check per reduction pair");
        assert!(rep.ok(), "{:?}", rep.violations);
    }

    #[test]
    fn tampered_lower_bound_comparison_fails() {
        // Simulate RR, then quadruple the claimed completion times so the
        // objective undercuts the certified bound: X1 must fire.
        let t = Trace::from_pairs([(0.0, 4.0), (0.0, 4.0), (0.0, 4.0)]).unwrap();
        let mut s = simulate(
            &t,
            &mut RoundRobin::new(),
            MachineConfig::new(1),
            SimOptions::with_profile(),
        )
        .unwrap();
        for f in &mut s.flow {
            *f *= 0.01;
        }
        let mut rep = AuditReport::default();
        cross_layer_checks(
            &t,
            1,
            1.0,
            &[(Policy::Rr, s)],
            &AuditConfig::default(),
            &mut rep,
        );
        assert!(rep.has("X1-LB-DOMINANCE"), "{:?}", rep.violations);
    }

    /// A size within `is_integral`'s tolerance of 0 must not reach the
    /// LP, whose arc cost divides by the size: at 1e-310 the cost is
    /// infinite and the solver panics.
    #[test]
    fn near_zero_size_audits_cleanly() {
        let t = Trace::from_pairs([(0.0, 3.0), (0.0, 1e-310)]).unwrap();
        for m in [1usize, 2] {
            let rep = audit_trace(&t, m, 1.0, &Policy::all(), &AuditConfig::default());
            assert!(rep.ok(), "m={m}: {:?}", rep.violations);
        }
    }

    #[test]
    fn scale_path_checks_run_and_pass_on_clean_traces() {
        // The LP checks X1 and X3 run (and pass) at speed 1 only. At
        // speed ≠ 1 no LP is solved, so an integral trace runs exactly the
        // checks of its half-slot-shifted fractional copy.
        let t = small_trace();
        let shifted =
            Trace::from_pairs(t.jobs().iter().map(|j| (j.arrival + 0.5, j.size))).unwrap();
        let audit = |t: &Trace, speed: f64| {
            let rep = audit_trace(t, 2, speed, &[Policy::Rr], &AuditConfig::default());
            assert!(rep.ok(), "speed {speed}: {:?}", rep.violations);
            rep.checks_run
        };
        assert_eq!(
            audit(&t, 3.0),
            audit(&shifted, 3.0),
            "no LP check runs at speed 3"
        );
        assert_eq!(
            audit(&t, 1.0),
            audit(&t, 3.0) + 2,
            "X1 and X3 run at speed 1 only"
        );
    }

    #[test]
    fn missing_profile_reports_s_violation() {
        let t = small_trace();
        let s = simulate(
            &t,
            &mut RoundRobin::new(),
            MachineConfig::new(1),
            SimOptions::default(),
        )
        .unwrap();
        let rep = audit_schedule(&t, &s, Some(Policy::Rr), &AuditConfig::default());
        assert!(rep.has("S"), "{:?}", rep.violations);
    }
}
