//! Empirical competitive-ratio machinery.
//!
//! OPT is intractable, so every ratio is reported as a *bracket*:
//!
//! * `ratio_vs_lb = (algᵏ / LB)^{1/k}` — an **upper estimate** of the true
//!   ratio, using the certified lower bound from `tf-lowerbound`
//!   (`LB ≤ OPTᵏ`);
//! * `ratio_vs_best = (algᵏ / min over baseline policies at speed 1)^{1/k}`
//!   — a **lower estimate**, since the best baseline upper-bounds OPT.
//!
//! The true competitive ratio on the instance lies inside
//! `[ratio_vs_best, ratio_vs_lb]`.

use crate::campaign::{fingerprint128, CampaignScope, TaskKey};
use crate::lbcache::cached_lower_bound;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use tf_lowerbound::LbRequest;
use tf_policies::Policy;
use tf_simcore::{simulate, MachineConfig, SimOptions, SimStats, Trace};

/// A bracketed empirical competitive ratio for one (instance, policy,
/// speed, k) point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RatioEstimate {
    /// The evaluated policy's `Σ F^k` at its (possibly augmented) speed.
    pub alg_power_sum: f64,
    /// Certified lower bound on `OPTᵏ` at speed 1.
    pub lower_bound: f64,
    /// Best baseline `Σ F^k` at speed 1 (an upper bound on `OPTᵏ`).
    pub best_power_sum: f64,
    /// Which baseline achieved it.
    pub best_policy: String,
    /// Upper estimate of the norm ratio: `(alg/LB)^{1/k}`.
    pub ratio_vs_lb: f64,
    /// Lower estimate of the norm ratio: `(alg/best)^{1/k}`.
    pub ratio_vs_best: f64,
    /// Engine counters from the evaluated policy's run (not the
    /// baselines'): step breakdown, peak alive set, allocator time.
    pub stats: SimStats,
    /// Which bound produced `lower_bound` (`"lp/2"`, `"size"`,
    /// `"srpt-m"`), with ` (degraded)` appended when the LP solve was
    /// abandoned for budget reasons and the value fell back to a
    /// closed-form bound — the campaign's degradation provenance.
    pub lb_provenance: String,
}

impl RatioEstimate {
    /// The placeholder a shard worker substitutes for a leaf task it
    /// does not own (see [`crate::campaign::Campaign::run_leaf`]): every
    /// numeric field is NaN and the provenance says so. Worker-mode
    /// table output is discarded, so the placeholder never reaches a
    /// rendered table.
    pub fn skipped() -> RatioEstimate {
        RatioEstimate {
            alg_power_sum: f64::NAN,
            lower_bound: f64::NAN,
            best_power_sum: f64::NAN,
            best_policy: String::new(),
            ratio_vs_lb: f64::NAN,
            ratio_vs_best: f64::NAN,
            stats: SimStats::default(),
            lb_provenance: "skipped".to_string(),
        }
    }
}

/// The default baseline set for OPT upper bounds: the clairvoyant
/// policies, which are near-optimal at speed 1 for flow objectives.
pub fn default_baselines() -> Vec<Policy> {
    vec![Policy::Srpt, Policy::Sjf, Policy::Setf, Policy::Rr]
}

/// Evaluate `policy` at speed `speed` on `m` machines against OPT at speed
/// 1, for the ℓk norm (integer `k` — the LP bound needs it). Runs outside
/// any campaign scope (unlimited budget); see
/// [`empirical_ratio_scoped`].
///
/// # Panics
/// Propagates simulation panics only for invalid configurations; all
/// registry policies on valid traces succeed.
pub fn empirical_ratio(
    trace: &Trace,
    policy: Policy,
    m: usize,
    speed: f64,
    k: u32,
    baselines: &[Policy],
) -> RatioEstimate {
    empirical_ratio_scoped(
        &CampaignScope::none(),
        trace,
        policy,
        m,
        speed,
        k,
        baselines,
    )
}

/// [`empirical_ratio`] under a [`CampaignScope`]: the LP solve runs
/// against the scope's per-task budget, and a degraded bound is counted
/// on the scope's campaign.
///
/// The lower bound comes through the lb cache with its provenance label:
/// the winning bound's label, plus ` (degraded)` when the LP solve was
/// abandoned for budget reasons. A degraded bound stays valid, only
/// weaker.
#[allow(clippy::too_many_arguments)]
pub fn empirical_ratio_scoped(
    scope: &CampaignScope,
    trace: &Trace,
    policy: Policy,
    m: usize,
    speed: f64,
    k: u32,
    baselines: &[Policy],
) -> RatioEstimate {
    let budget = scope.task_budget();
    let req = LbRequest {
        budget: &budget,
        ..LbRequest::new(m, k)
    };
    let lb = cached_lower_bound(trace, &req);
    let mut lb_provenance = lb.bound.kind.label().to_string();
    if lb.degraded {
        lb_provenance.push_str(" (degraded)");
        scope.note_degraded();
    }
    let lb_value = lb.bound.value;

    let kf = f64::from(k);
    let mut alloc = policy.make();
    let alg = simulate(
        trace,
        alloc.as_mut(),
        MachineConfig::with_speed(m, speed),
        SimOptions::default().timed(),
    )
    .expect("simulation of a registry policy on a valid trace");
    let alg_power_sum = alg.flow_power_sum(kf);
    let (best_power_sum, best_policy) = best_baseline_power(trace, m, k, baselines);
    let root = |x: f64| x.powf(1.0 / kf);
    RatioEstimate {
        alg_power_sum,
        lower_bound: lb_value,
        best_power_sum,
        best_policy,
        ratio_vs_lb: if lb_value > 0.0 {
            root(alg_power_sum / lb_value)
        } else {
            f64::NAN
        },
        ratio_vs_best: if best_power_sum > 0.0 {
            root(alg_power_sum / best_power_sum)
        } else {
            f64::NAN
        },
        stats: alg.stats,
        lb_provenance,
    }
}

/// One (trace, policy, m, speed, k) evaluation for the batched fan-out
/// [`empirical_ratios`]. Owning the trace keeps the task `Send` without
/// lifetime gymnastics at the experiment layer.
#[derive(Debug, Clone)]
pub struct RatioTask {
    /// The instance to evaluate.
    pub trace: Trace,
    /// The policy under test.
    pub policy: Policy,
    /// Machine count.
    pub m: usize,
    /// Policy speed (OPT runs at 1).
    pub speed: f64,
    /// Norm exponent.
    pub k: u32,
}

impl RatioTask {
    /// This task's content-addressed campaign key: every input that
    /// affects the estimate (trace contents, policy, m, speed, k,
    /// baseline set, solver version) appears in the full descriptor, so
    /// two tasks share a key exactly when their results are
    /// interchangeable. The trace contents enter as a 128-bit
    /// fingerprint — strong enough that the descriptor itself is
    /// collision-free in practice, while keeping the journal line
    /// bounded for large traces.
    pub fn task_key(&self, baselines: &[Policy]) -> TaskKey {
        let mut trace_bytes: Vec<u8> = Vec::with_capacity(self.trace.len() * 24);
        for j in self.trace.jobs() {
            trace_bytes.extend_from_slice(&j.arrival.to_bits().to_le_bytes());
            trace_bytes.extend_from_slice(&j.size.to_bits().to_le_bytes());
            trace_bytes.extend_from_slice(&j.weight.to_bits().to_le_bytes());
        }
        let names: Vec<String> = baselines.iter().map(|b| b.to_string()).collect();
        let full = format!(
            "ratio v{} trace {:032x} n {} policy {} m {} speed {:016x} k {} baselines {}",
            crate::lbcache::SOLVER_VERSION,
            fingerprint128(trace_bytes),
            self.trace.len(),
            self.policy,
            self.m,
            self.speed.to_bits(),
            self.k,
            names.join(";"),
        );
        TaskKey::hashed("ratio", full)
    }
}

/// Evaluate a batch of ratio points in parallel, preserving task order.
///
/// Each task's lower-bound solve (the expensive part) runs on its own
/// worker with a thread-local LP arena; the `lbcache` writers are
/// rename-atomic, so concurrent tasks sharing a `(trace, m, k)` key are
/// safe. Output index `i` is always task `i`, whatever the thread count
/// — experiment tables stay byte-identical.
///
/// When tracing is on, task `i` records onto logical track `i + 1` (track
/// 0 is the main thread), so trace *structure* is also independent of the
/// worker-thread count — see `tf_obs`'s determinism notes.
pub fn empirical_ratios(tasks: &[RatioTask], baselines: &[Policy]) -> Vec<RatioEstimate> {
    empirical_ratios_scoped(&CampaignScope::none(), tasks, baselines)
}

/// [`empirical_ratios`] under a [`CampaignScope`]: with a campaign, each
/// task journals on completion and replays on resume (the key is
/// content-addressed, so replay is exact regardless of task order or
/// thread count); in shard-worker mode, tasks owned by other workers
/// yield [`RatioEstimate::skipped`] placeholders.
pub fn empirical_ratios_scoped(
    scope: &CampaignScope,
    tasks: &[RatioTask],
    baselines: &[Policy],
) -> Vec<RatioEstimate> {
    let indexed: Vec<(u32, &RatioTask)> = (0u32..).zip(tasks.iter()).collect();
    indexed
        .par_iter()
        .map(|&(i, t)| {
            let _track = tf_obs::set_track(i + 1);
            let mut span = tf_obs::span!("harness", "ratio_task");
            span.arg("task", f64::from(i));
            span.arg("m", t.m as f64);
            span.arg("speed", t.speed);
            span.arg("k", f64::from(t.k));
            scope.run_leaf(
                &t.task_key(baselines),
                || empirical_ratio_scoped(scope, &t.trace, t.policy, t.m, t.speed, t.k, baselines),
                RatioEstimate::skipped,
            )
        })
        .collect()
}

/// `Σ F^k` of one policy at one speed (no lower bound, no baselines) —
/// the cheap building block for sweeps that reuse a baseline.
pub fn policy_power_sum(trace: &Trace, policy: Policy, m: usize, speed: f64, k: u32) -> f64 {
    let mut alloc = policy.make();
    simulate(
        trace,
        alloc.as_mut(),
        MachineConfig::with_speed(m, speed),
        SimOptions::default(),
    )
    .expect("simulation of a registry policy on a valid trace")
    .flow_power_sum(f64::from(k))
}

/// Best `Σ F^k` over `baselines` at speed 1 (the OPT upper bound), with
/// the winning policy's name.
pub fn best_baseline_power(trace: &Trace, m: usize, k: u32, baselines: &[Policy]) -> (f64, String) {
    let mut best = f64::INFINITY;
    let mut name = String::new();
    for p in baselines {
        let v = policy_power_sum(trace, *p, m, 1.0, k);
        if v < best {
            best = v;
            name = p.to_string();
        }
    }
    (best, name)
}

/// Binary-search the minimum speed at which `policy`'s ratio (vs the best
/// baseline) drops to `target` on this instance. Returns `hi` if even `hi`
/// doesn't reach the target.
pub fn min_speed_for_ratio(
    trace: &Trace,
    policy: Policy,
    m: usize,
    k: u32,
    target: f64,
    lo: f64,
    hi: f64,
) -> f64 {
    let (best, _) = best_baseline_power(trace, m, k, &default_baselines());
    let ratio_at =
        |s: f64| (policy_power_sum(trace, policy, m, s, k) / best).powf(1.0 / f64::from(k));
    if ratio_at(hi) > target {
        return hi;
    }
    let (mut lo, mut hi) = (lo, hi);
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if ratio_at(mid) <= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Trace {
        Trace::from_pairs([(0.0, 2.0), (0.0, 1.0), (1.0, 3.0), (2.0, 1.0), (5.0, 2.0)]).unwrap()
    }

    #[test]
    fn bracket_is_ordered() {
        let r = empirical_ratio(&trace(), Policy::Rr, 1, 2.0, 2, &default_baselines());
        assert!(r.lower_bound <= r.best_power_sum + 1e-9);
        assert!(r.ratio_vs_best <= r.ratio_vs_lb + 1e-9);
        assert!(r.ratio_vs_best > 0.0);
    }

    #[test]
    fn srpt_at_speed_one_matches_best_on_one_machine_l1() {
        // SRPT is its own best baseline for l1, m=1: ratio_vs_best == 1.
        let r = empirical_ratio(&trace(), Policy::Srpt, 1, 1.0, 1, &default_baselines());
        assert!((r.ratio_vs_best - 1.0).abs() < 1e-9, "{}", r.ratio_vs_best);
        assert_eq!(r.best_policy, "SRPT");
    }

    #[test]
    fn more_speed_lowers_the_ratio() {
        let t = trace();
        let slow = empirical_ratio(&t, Policy::Rr, 1, 1.0, 2, &default_baselines());
        let fast = empirical_ratio(&t, Policy::Rr, 1, 4.0, 2, &default_baselines());
        assert!(fast.ratio_vs_best <= slow.ratio_vs_best + 1e-9);
    }

    #[test]
    fn batched_ratios_match_serial_calls_in_order() {
        let t = trace();
        let tasks: Vec<RatioTask> = [
            (1usize, 1.0f64, 1u32),
            (2, 2.0, 2),
            (1, 3.0, 2),
            (2, 1.0, 1),
        ]
        .iter()
        .map(|&(m, speed, k)| RatioTask {
            trace: t.clone(),
            policy: Policy::Rr,
            m,
            speed,
            k,
        })
        .collect();
        let batch = empirical_ratios(&tasks, &default_baselines());
        assert_eq!(batch.len(), tasks.len());
        for (task, got) in tasks.iter().zip(&batch) {
            let want = empirical_ratio(
                &task.trace,
                task.policy,
                task.m,
                task.speed,
                task.k,
                &default_baselines(),
            );
            assert_eq!(got.alg_power_sum, want.alg_power_sum);
            assert_eq!(got.lower_bound, want.lower_bound);
            assert_eq!(got.best_power_sum, want.best_power_sum);
            assert_eq!(got.best_policy, want.best_policy);
            assert_eq!(got.ratio_vs_lb, want.ratio_vs_lb);
            assert_eq!(got.ratio_vs_best, want.ratio_vs_best);
        }
    }

    #[test]
    fn scoped_batch_journals_and_replays_bit_exactly() {
        use crate::campaign::{Campaign, CampaignCfg};
        let dir = std::env::temp_dir().join(format!("tf-ratio-scope-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tasks = vec![RatioTask {
            trace: trace(),
            policy: Policy::Rr,
            m: 1,
            speed: 2.0,
            k: 2,
        }];
        let c = Campaign::open(CampaignCfg::new(&dir)).unwrap();
        let first =
            empirical_ratios_scoped(&CampaignScope::of(c.clone()), &tasks, &default_baselines());
        drop(c);
        let c2 = Campaign::open(CampaignCfg::new(&dir).resume(true)).unwrap();
        let second =
            empirical_ratios_scoped(&CampaignScope::of(c2.clone()), &tasks, &default_baselines());
        assert_eq!(
            c2.stats().replays,
            1,
            "second run must replay, not recompute"
        );
        assert_eq!(
            first[0].alg_power_sum.to_bits(),
            second[0].alg_power_sum.to_bits()
        );
        assert_eq!(
            first[0].lower_bound.to_bits(),
            second[0].lower_bound.to_bits()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn min_speed_search_brackets_the_knee() {
        let t = trace();
        // RR at high speed clearly beats ratio 1.2; at speed 1 it doesn't.
        let s = min_speed_for_ratio(&t, Policy::Rr, 1, 2, 1.2, 0.5, 8.0);
        assert!(s > 0.5 && s < 8.0);
        let at = empirical_ratio(&t, Policy::Rr, 1, s, 2, &default_baselines());
        assert!(at.ratio_vs_best <= 1.2 + 1e-6);
        let below = empirical_ratio(&t, Policy::Rr, 1, s * 0.9, 2, &default_baselines());
        assert!(below.ratio_vs_best >= 1.2 - 0.05, "{}", below.ratio_vs_best);
    }
}
