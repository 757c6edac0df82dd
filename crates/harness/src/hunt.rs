//! Automated adversary search: hill-climbing over small instances to
//! maximize a policy's **true** competitive ratio.
//!
//! The lower-bound constructions cited by the paper (\[4\], \[15\]) are
//! hand-crafted. On small integral instances we can do better than
//! hand-crafting: `tf-lowerbound::exact` computes the exact optimum, so
//! the ratio `alg / OPT` is a certified number, and a stochastic local
//! search over traces becomes a *worst-case instance miner*. Experiment
//! E19 uses it to probe how bad RR can actually get at each speed on
//! instances of bounded size — an empirical floor under the adversarial
//! families of E3/E4.
//!
//! Search moves: perturb one job's arrival or size, add a job, remove a
//! job; accept strictly improving moves (hill climbing) with seeded
//! restarts. All instances stay integral so the exact solver applies.
//!
//! The climb is **generation-based**: each step proposes a batch of
//! [`HuntConfig::batch`] independent mutations and evaluates their
//! certified ratios in parallel (the exact-OPT solve dominates, so this
//! is where the cores go), then accepts the best strict improvement.
//! Candidate RNGs are derived by index from a per-generation seed and
//! the winner is the first index attaining the maximum, so results are
//! byte-identical whatever the thread count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use tf_lowerbound::{exact_slotted_opt, ExactLimits};
use tf_policies::Policy;
use tf_simcore::{simulate, MachineConfig, SimOptions, Trace, TraceBuilder};
use tf_workload::splitmix64;

use crate::campaign::{CampaignScope, TaskKey};

/// Search configuration.
#[derive(Debug, Clone, Copy)]
pub struct HuntConfig {
    /// Number of machines.
    pub m: usize,
    /// Policy speed (OPT runs at 1).
    pub speed: f64,
    /// Norm exponent.
    pub k: u32,
    /// Maximum jobs per instance.
    pub max_jobs: usize,
    /// Maximum job size (integral).
    pub max_size: u16,
    /// Maximum arrival time (integral).
    pub max_arrival: u16,
    /// Hill-climbing generations per restart.
    pub steps: usize,
    /// Number of random restarts.
    pub restarts: usize,
    /// Candidate mutations proposed (and evaluated in parallel) per
    /// generation; total evaluations ≈ `restarts × steps × batch`.
    pub batch: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HuntConfig {
    fn default() -> Self {
        HuntConfig {
            m: 1,
            speed: 1.0,
            k: 2,
            max_jobs: 9,
            max_size: 6,
            max_arrival: 12,
            steps: 400,
            restarts: 6,
            batch: 8,
            seed: 0xBADC0DE,
        }
    }
}

/// Outcome of a hunt: the worst instance found and its certified ratio.
#[derive(Debug, Clone)]
pub struct HuntResult {
    /// The instance attaining the worst ratio.
    pub trace: Trace,
    /// Certified norm-scale ratio `(algᵏ / OPTᵏ)^{1/k}` (exact OPT).
    pub ratio: f64,
    /// Ratios at the end of each restart (to gauge search stability).
    pub restart_ratios: Vec<f64>,
    /// Candidate instances evaluated.
    pub evaluated: usize,
}

/// Certified norm-scale ratio of `policy` at `cfg.speed` on `trace`
/// (exact slotted OPT as the denominator). Returns `None` if the exact
/// search exceeds its budget or the instance is degenerate.
///
/// The state budget is deliberately modest: the hill climber evaluates
/// thousands of candidates, and a candidate too big to solve exactly is
/// simply rejected (treated as no improvement) rather than paid for.
pub fn true_ratio(trace: &Trace, policy: Policy, cfg: &HuntConfig) -> Option<f64> {
    if trace.is_empty() {
        return None;
    }
    let limits = ExactLimits {
        max_states: 150_000,
    };
    let opt = exact_slotted_opt(trace, cfg.m, cfg.k, limits)?.power_sum;
    if opt <= 0.0 {
        return None;
    }
    let mut alloc = policy.make();
    let alg = simulate(
        trace,
        alloc.as_mut(),
        MachineConfig::with_speed(cfg.m, cfg.speed),
        SimOptions::default(),
    )
    .ok()?
    .flow_power_sum(f64::from(cfg.k));
    Some((alg / opt).powf(1.0 / f64::from(cfg.k)))
}

fn random_instance(rng: &mut StdRng, cfg: &HuntConfig) -> Vec<(u16, u16)> {
    let n = rng.gen_range(2..=cfg.max_jobs);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0..=cfg.max_arrival),
                rng.gen_range(1..=cfg.max_size),
            )
        })
        .collect()
}

fn build(jobs: &[(u16, u16)]) -> Trace {
    let mut b = TraceBuilder::new();
    for &(a, p) in jobs {
        b.push(f64::from(a), f64::from(p));
    }
    b.build().expect("integral jobs are valid")
}

/// Mutate one aspect of the instance.
fn mutate(rng: &mut StdRng, jobs: &[(u16, u16)], cfg: &HuntConfig) -> Vec<(u16, u16)> {
    let mut out = jobs.to_vec();
    match rng.gen_range(0..4u8) {
        0 if !out.is_empty() => {
            // Nudge an arrival.
            let i = rng.gen_range(0..out.len());
            let delta: i32 = if rng.gen() { 1 } else { -1 };
            out[i].0 = (i32::from(out[i].0) + delta).clamp(0, i32::from(cfg.max_arrival)) as u16;
        }
        1 if !out.is_empty() => {
            // Nudge a size.
            let i = rng.gen_range(0..out.len());
            let delta: i32 = if rng.gen() { 1 } else { -1 };
            out[i].1 = (i32::from(out[i].1) + delta).clamp(1, i32::from(cfg.max_size)) as u16;
        }
        2 if out.len() < cfg.max_jobs => {
            out.push((
                rng.gen_range(0..=cfg.max_arrival),
                rng.gen_range(1..=cfg.max_size),
            ));
        }
        _ if out.len() > 2 => {
            let i = rng.gen_range(0..out.len());
            out.remove(i);
        }
        _ => {}
    }
    out
}

/// One restart's journaled outcome: the instance it converged to, its
/// certified ratio, and the evaluation count. This is the granularity
/// the campaign journal checkpoints a hunt at — a killed hunt resumes
/// at the first unfinished restart.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RestartOutcome {
    arrivals: Vec<u16>,
    sizes: Vec<u16>,
    ratio: f64,
    evaluated: u64,
}

impl RestartOutcome {
    fn jobs(&self) -> Vec<(u16, u16)> {
        self.arrivals
            .iter()
            .copied()
            .zip(self.sizes.iter().copied())
            .collect()
    }
}

/// One seeded restart of the hill climb (extracted from [`hunt`] so the
/// campaign journal can checkpoint per restart).
fn run_restart(policy: Policy, cfg: &HuntConfig, restart_seed: u64) -> RestartOutcome {
    let batch = cfg.batch.max(1);
    let mut evaluated = 0u64;
    let mut rng = StdRng::seed_from_u64(restart_seed);
    let mut cur = random_instance(&mut rng, cfg);
    let mut cur_ratio = loop {
        evaluated += 1;
        if let Some(r) = true_ratio(&build(&cur), policy, cfg) {
            break r;
        }
        cur = random_instance(&mut rng, cfg);
    };
    for _ in 0..cfg.steps {
        // One sequential draw per generation keeps the seed chain
        // identical whatever the evaluation parallelism below.
        let gen_seed: u64 = rng.gen();
        let cands: Vec<Vec<(u16, u16)>> = (0..batch)
            .map(|i| {
                let mut crng = StdRng::seed_from_u64(splitmix64(gen_seed.wrapping_add(i as u64)));
                mutate(&mut crng, &cur, cfg)
            })
            .collect();
        evaluated += batch as u64;
        // The expensive part — one exact-OPT solve per candidate —
        // fans out across cores, order-preserving. Candidate `i`
        // records onto logical track `i + 1` so trace structure is
        // independent of the worker-thread count.
        let indexed: Vec<(u32, &Vec<(u16, u16)>)> = (0u32..).zip(cands.iter()).collect();
        let ratios: Vec<Option<f64>> = indexed
            .par_iter()
            .map(|&(i, c)| {
                let _track = tf_obs::set_track(i + 1);
                true_ratio(&build(c), policy, cfg)
            })
            .collect();
        let mut winner: Option<(usize, f64)> = None;
        for (i, r) in ratios.iter().enumerate() {
            if let Some(r) = *r {
                if r > cur_ratio && winner.is_none_or(|(_, w)| r > w) {
                    winner = Some((i, r));
                }
            }
        }
        if let Some((i, r)) = winner {
            cur_ratio = r;
            cur.clone_from(&cands[i]);
        }
    }
    let (arrivals, sizes) = cur.iter().copied().unzip();
    RestartOutcome {
        arrivals,
        sizes,
        ratio: cur_ratio,
        evaluated,
    }
}

/// Campaign journal key for one restart: policy + every search knob +
/// the restart's index and seed, spelled out in the full descriptor (the
/// collision guard's verification string).
fn restart_key(policy: Policy, cfg: &HuntConfig, index: usize, seed: u64) -> TaskKey {
    let full = format!(
        "hunt policy {} m {} speed {:016x} k {} max_jobs {} max_size {} max_arrival {} \
         steps {} batch {} restart {} seed {:016x}",
        policy,
        cfg.m,
        cfg.speed.to_bits(),
        cfg.k,
        cfg.max_jobs,
        cfg.max_size,
        cfg.max_arrival,
        cfg.steps,
        cfg.batch,
        index,
        seed,
    );
    TaskKey::hashed("hunt", full)
}

/// Hill-climb for the worst certified ratio of `policy` under `cfg`.
///
/// Deterministic in `cfg.seed` regardless of how many threads evaluate
/// each generation: candidates are seeded by index and the accepted
/// winner is the first index attaining the generation's maximum ratio.
///
/// Restart seeds are pre-drawn from the master RNG (the same draw
/// sequence the restart loop used to make inline), so each restart is a
/// pure function of its seed — the unit the campaign journal
/// checkpoints and replays. Runs outside any campaign scope; see
/// [`hunt_scoped`].
pub fn hunt(policy: Policy, cfg: &HuntConfig) -> HuntResult {
    hunt_scoped(&CampaignScope::none(), policy, cfg)
}

/// [`hunt`] under a [`CampaignScope`]: each restart journals on
/// completion and replays on resume; in shard-worker mode restarts
/// leased by other workers are skipped (their placeholder has a NaN
/// ratio, which never wins the best-of aggregation — worker-mode table
/// output is discarded anyway).
pub fn hunt_scoped(scope: &CampaignScope, policy: Policy, cfg: &HuntConfig) -> HuntResult {
    let mut obs_span = tf_obs::span!("harness", "hunt");
    let mut master = StdRng::seed_from_u64(cfg.seed);
    let restart_seeds: Vec<u64> = (0..cfg.restarts).map(|_| master.gen()).collect();

    let mut best_jobs: Vec<(u16, u16)> = Vec::new();
    let mut best_ratio = 0.0f64;
    let mut restart_ratios = Vec::with_capacity(cfg.restarts);
    let mut evaluated = 0usize;

    for (index, &seed) in restart_seeds.iter().enumerate() {
        let outcome = scope.run_leaf(
            &restart_key(policy, cfg, index, seed),
            || run_restart(policy, cfg, seed),
            || RestartOutcome {
                arrivals: Vec::new(),
                sizes: Vec::new(),
                ratio: f64::NAN,
                evaluated: 0,
            },
        );
        evaluated += outcome.evaluated as usize;
        restart_ratios.push(outcome.ratio);
        if outcome.ratio > best_ratio {
            best_ratio = outcome.ratio;
            best_jobs = outcome.jobs();
        }
    }

    if tf_obs::enabled() {
        obs_span.arg("evaluated", evaluated as f64);
        obs_span.arg("ratio", best_ratio);
        tf_obs::counter!("harness", "hunt_evaluated", evaluated as f64);
    }
    HuntResult {
        trace: build(&best_jobs),
        ratio: best_ratio,
        restart_ratios,
        evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> HuntConfig {
        HuntConfig {
            steps: 60,
            restarts: 2,
            max_jobs: 6,
            max_arrival: 8,
            max_size: 4,
            ..Default::default()
        }
    }

    #[test]
    fn true_ratio_is_one_for_srpt_l1() {
        // SRPT at speed 1 on one machine IS the optimum for k=1.
        let cfg = HuntConfig {
            k: 1,
            ..quick_cfg()
        };
        let t = Trace::from_pairs([(0.0, 2.0), (1.0, 1.0), (3.0, 2.0)]).unwrap();
        let r = true_ratio(&t, Policy::Srpt, &cfg).unwrap();
        assert!((r - 1.0).abs() < 1e-9, "{r}");
    }

    #[test]
    fn hunt_finds_ratio_above_one_for_rr_at_speed_one() {
        let cfg = quick_cfg();
        let res = hunt(Policy::Rr, &cfg);
        assert!(res.ratio > 1.0, "search failed to beat 1.0: {}", res.ratio);
        assert!(!res.trace.is_empty());
        assert!(res.evaluated > 100);
        // Certified: recompute independently.
        let check = true_ratio(&res.trace, Policy::Rr, &cfg).unwrap();
        assert!((check - res.ratio).abs() < 1e-9);
    }

    #[test]
    fn hunting_faster_rr_finds_smaller_ratios() {
        let slow = hunt(Policy::Rr, &quick_cfg());
        let fast = hunt(
            Policy::Rr,
            &HuntConfig {
                speed: 3.0,
                ..quick_cfg()
            },
        );
        assert!(fast.ratio < slow.ratio, "{} vs {}", fast.ratio, slow.ratio);
    }

    #[test]
    fn ratio_none_on_empty() {
        let t = Trace::from_pairs(std::iter::empty()).unwrap();
        assert!(true_ratio(&t, Policy::Rr, &quick_cfg()).is_none());
    }
}
