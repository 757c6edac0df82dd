//! `ratio-sweep-l2`: E2's full-effort task list (RR at speed 4.4 for the
//! ℓ2 norm, m ∈ {1, 4}, five loads × five corpus seeds × the four-family
//! random corpus) through `tf_harness::ratio::empirical_ratios`, with the
//! on-disk lower-bound cache off so every rep solves every LP. Each task
//! is timed on its worker and rescaled to the reference machine speed;
//! the sweep's time is its busiest worker's total.
//!
//! The traced pass decomposes each task into the calls the harness makes
//! — `simulate` for the algorithm, `lk_lower_bound`, `simulate` for each
//! baseline — timed from outside, fanned out over the same vendored
//! rayon split as the harness, and rebuilds the estimates, which must
//! equal the untraced ones bit for bit.

use std::thread::ThreadId;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use tf_harness::corpus::random_corpus;
use tf_harness::ratio::{default_baselines, empirical_ratios, RatioEstimate, RatioTask};
use tf_lowerbound::{last_solve_stats, lk_lower_bound, McmfStats};
use tf_policies::Policy;
use tf_simcore::{simulate, MachineConfig, SimOptions, SimStats, Trace};

use crate::probe::{
    calibrate, normalize, thread_cpu_s, vm_hwm_mb, AllocProbe, ProbedAlloc, SpanLog,
};
use crate::{median, secs, Ctx, Outcome, Output, RepClock, SETUPS};

const SPEED: f64 = 4.4;
const K: u32 = 2;
const RHOS: [f64; 5] = [0.6, 0.8, 0.9, 1.0, 1.2];
const CORPUS_SEEDS: u64 = 5;
const N: u64 = 120;
/// The warm-up runs every 25th task: both machine counts, every load.
const WARMUP_STRIDE: usize = 25;
/// Gaps are shuffled within blocks of this many consecutive arrivals.
const GAP_BLOCK: usize = 8;

/// E2's task list at `n` jobs per instance, in E2's order. Seed 0 is E2
/// itself. Any other seed shuffles each instance's inter-arrival gaps
/// within blocks of [`GAP_BLOCK`]: E2's job sizes and load profile stay,
/// and which jobs overlap changes. Fresh corpus draws would not do: E2's
/// Pareto(1.8) sizes let one seed's largest LP be several times another's,
/// which moves the run's peak memory by half between seeds, and whole-trace
/// shuffles still moved the sweep's cost by ±10%.
fn tasks(n: usize, seed: u64) -> Vec<RatioTask> {
    let mut tasks = Vec::new();
    for m in [1usize, 4] {
        for rho in RHOS {
            for s in 0..CORPUS_SEEDS {
                let corpus_seed = 200 + (rho * 100.0) as u64 + 977 * s;
                for inst in random_corpus(n, rho, m, corpus_seed) {
                    let i = tasks.len() as u64;
                    let trace = match seed {
                        0 => inst.trace,
                        seed => {
                            shuffle_gaps(&inst.trace, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i)
                        }
                    };
                    tasks.push(RatioTask {
                        trace,
                        policy: Policy::Rr,
                        m,
                        speed: SPEED,
                        k: K,
                    });
                }
            }
        }
    }
    tasks
}

/// `trace` with each block of [`GAP_BLOCK`] consecutive inter-arrival gaps
/// in a seeded random order (Fisher-Yates); job sizes keep their order.
fn shuffle_gaps(trace: &Trace, seed: u64) -> Trace {
    let jobs = trace.jobs();
    let mut gaps: Vec<f64> = Vec::with_capacity(jobs.len());
    let mut prev = 0.0;
    for j in jobs {
        gaps.push(j.arrival - prev);
        prev = j.arrival;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for block in gaps.chunks_mut(GAP_BLOCK) {
        for i in (1..block.len()).rev() {
            block.swap(i, rng.gen_range(0..=i));
        }
    }
    let mut t = 0.0;
    Trace::from_pairs(jobs.iter().zip(&gaps).map(|(j, g)| {
        t += g;
        (t, j.size)
    }))
    .expect("shuffled gaps keep a valid integral trace")
}

/// Check one rep's estimates: every lower bound below the best baseline,
/// and every estimate equal to the first rep's bit for bit.
fn check(est: &[RatioEstimate], first: Option<&[RatioEstimate]>, rep: usize, out: &mut Outcome) {
    for (i, e) in est.iter().enumerate() {
        if e.lower_bound.is_nan() || e.lower_bound > e.best_power_sum * (1.0 + 1e-9) {
            out.fail(format!(
                "rep {rep} task {i}: lower bound {} above best baseline {}",
                e.lower_bound, e.best_power_sum
            ));
        } else if let Some(f) = first.and_then(|f| f.get(i)) {
            if values(e) != values(f) {
                out.fail(format!("rep {rep} task {i} differs from rep 0"));
            }
        }
    }
}

/// The estimate fields a rerun must reproduce bit for bit.
fn values(e: &RatioEstimate) -> [u64; 4] {
    [
        e.alg_power_sum,
        e.lower_bound,
        e.best_power_sum,
        e.ratio_vs_lb,
    ]
    .map(f64::to_bits)
}

fn outputs(est: &[RatioEstimate]) -> Vec<Output> {
    vec![
        Output::exact("tasks", est.len() as f64),
        Output::exact("sum_lower_bound", est.iter().map(|e| e.lower_bound).sum()),
        Output::rel(
            "sum_alg_power_sum",
            est.iter().map(|e| e.alg_power_sum).sum(),
        ),
        Output::rel(
            "sum_best_power_sum",
            est.iter().map(|e| e.best_power_sum).sum(),
        ),
    ]
}

/// The worker thread a task ran on, and the task's time on it at the
/// reference speed.
type TaskTime = (ThreadId, f64);

/// Run `tasks` through the harness one task per `empirical_ratios` call,
/// fanned out over the same vendored-rayon split `empirical_ratios` makes
/// of the whole list, so each worker runs the tasks it would run there.
/// Each task's CPU time is taken alone and normalised by a calibration
/// unit run on its worker right after it: the two cores of a shared host
/// change speed independently, so no one time over the fan-out can be
/// normalised.
fn timed_pass(tasks: &[RatioTask], baselines: &[Policy]) -> (Vec<RatioEstimate>, Vec<TaskTime>) {
    tasks
        .par_iter()
        .map(|t| {
            let start = thread_cpu_s();
            let estimate = empirical_ratios(std::slice::from_ref(t), baselines)
                .pop()
                .expect("one estimate per task");
            let s = normalize(thread_cpu_s() - start, calibrate());
            (estimate, (std::thread::current().id(), s))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .unzip()
}

/// The fan-out's wall time at the reference speed: the busiest worker's
/// total.
fn fan_out_s(times: &[TaskTime]) -> f64 {
    let mut busy: Vec<TaskTime> = Vec::new();
    for &(thread, s) in times {
        match busy.iter_mut().find(|(t, _)| *t == thread) {
            Some((_, total)) => *total += s,
            None => busy.push((thread, s)),
        }
    }
    busy.iter().map(|&(_, s)| s).fold(0.0, f64::max)
}

/// Generate the inputs and warm up on a few of E2's own tasks (whatever
/// the seed, so set-up time does not depend on it); returns the tasks,
/// the set-up time and the generation time, both at the reference speed.
fn set_up(ctx: &Ctx, baselines: &[Policy]) -> (Vec<RatioTask>, f64, f64) {
    let n = ctx.scaled(N, 8) as usize;
    let t = thread_cpu_s();
    let tasks = tasks(n, ctx.seed);
    let generate_s = normalize(thread_cpu_s() - t, calibrate());
    let warm: Vec<RatioTask> = self::tasks(n, 0)
        .into_iter()
        .step_by(WARMUP_STRIDE)
        .collect();
    let warm_s = fan_out_s(&timed_pass(&warm, baselines).1);
    (tasks, generate_s + warm_s, generate_s)
}

/// One task taken apart, from the traced pass.
#[derive(Default)]
struct TaskTrace {
    busy_s: f64,
    /// The task's CPU time at the reference speed.
    ref_s: f64,
    simulate_calls: u64,
    simulate_s: f64,
    alloc: AllocProbe,
    events: u64,
    steps: SimStats,
    lower_bound_s: f64,
    mcmf: McmfStats,
    values: [u64; 4],
    /// (span, start, seconds), all belonging to this task.
    spans: Vec<(&'static str, Instant, f64)>,
}

/// The harness's `empirical_ratio` for one task, call by call.
fn decompose(task: &RatioTask) -> TaskTrace {
    let mut tt = TaskTrace::default();
    let baselines = default_baselines();
    let kf = f64::from(task.k);
    let start = Instant::now();
    let start_cpu = thread_cpu_s();
    let sim = |tt: &mut TaskTrace, policy: Policy, cfg: MachineConfig, opts: SimOptions| {
        let mut alloc = policy.make();
        let t = Instant::now();
        let s = simulate(
            &task.trace,
            &mut ProbedAlloc {
                inner: alloc.as_mut(),
                probe: &mut tt.alloc,
            },
            cfg,
            opts,
        )
        .expect("simulation of a registry policy on a valid trace");
        let dt = secs(t);
        tt.simulate_calls += 1;
        tt.simulate_s += dt;
        tt.events += s.events;
        tt.steps.absorb(&s.stats);
        tt.spans.push(("simulate", t, dt));
        s.flow_power_sum(kf)
    };
    let alg = sim(
        &mut tt,
        task.policy,
        MachineConfig::with_speed(task.m, task.speed),
        SimOptions::default().timed(),
    );
    let t = Instant::now();
    let lb = lk_lower_bound(&task.trace, task.m, task.k);
    tt.lower_bound_s = secs(t);
    tt.mcmf = last_solve_stats();
    tt.spans.push(("lk_lower_bound", t, tt.lower_bound_s));
    let mut best = f64::INFINITY;
    for p in &baselines {
        let v = sim(
            &mut tt,
            *p,
            MachineConfig::new(task.m),
            SimOptions::default(),
        );
        best = best.min(v);
    }
    let ratio_vs_lb = if lb.value > 0.0 {
        (alg / lb.value).powf(1.0 / kf)
    } else {
        f64::NAN
    };
    tt.values = [alg, lb.value, best, ratio_vs_lb].map(f64::to_bits);
    tt.busy_s = secs(start);
    tt.spans.push(("task", start, tt.busy_s));
    tt.ref_s = normalize(thread_cpu_s() - start_cpu, calibrate());
    tt
}

fn threads() -> f64 {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.0)
}

/// Run the sweep.
pub fn run(ctx: &Ctx) -> Outcome {
    tf_harness::lbcache::set_enabled(false);
    let baselines = default_baselines();
    let mut out = Outcome::default();
    // A set-up precedes every rep, so the set-ups sample the same spells
    // of a shared machine as the reps.
    let budget = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut clock = RepClock::new(budget);
    let (mut setups, mut tasks, mut generate_s) = (Vec::new(), Vec::new(), 0.0);
    let mut first: Option<Vec<RatioEstimate>> = None;
    let mut reps: Vec<Vec<TaskTime>> = Vec::new();
    // Each rep's worker threads leave freed memory behind in the
    // allocator, so the high-water mark is read after the first rep: one
    // or two reps fit in a run depending on the machine's speed.
    let mut peak_rss_mb = None;
    while clock.more() {
        let setup_s;
        (tasks, setup_s, generate_s) = set_up(ctx, &baselines);
        setups.push(setup_s);
        let t = Instant::now();
        let (est, times) = timed_pass(&tasks, &baselines);
        clock.walls.push(secs(t));
        peak_rss_mb = peak_rss_mb.or_else(|| vm_hwm_mb("self"));
        eprintln!(
            "rep {}: {:.3} s wall, {:.3} s at reference speed",
            reps.len(),
            secs(t),
            fan_out_s(&times)
        );
        out.attempted += est.len() as u64;
        check(&est, first.as_deref(), reps.len(), &mut out);
        first.get_or_insert(est);
        reps.push(times);
    }
    let first = first.expect("at least one rep ran");
    out.outputs = outputs(&first);
    // Each task's median time over the reps, on the worker it ran on:
    // every rep runs the same tasks on the same split.
    let task_times: Vec<TaskTime> = (0..tasks.len())
        .map(|i| {
            let s: Vec<f64> = reps.iter().map(|r| r[i].1).collect();
            (reps[0][i].0, median(&s))
        })
        .collect();
    let wall = fan_out_s(&task_times);

    if !ctx.traced {
        while setups.len() < SETUPS {
            setups.push(set_up(ctx, &baselines).1);
        }
        out.set("setup_s", median(&setups));
        out.set("throughput_per_s", tasks.len() as f64 / wall);
        out.set("latency_p50_ms", wall * 1e3);
        out.set("latency_p99_ms", wall * 1e3);
        out.set("peak_rss_mb", peak_rss_mb.unwrap_or(0.0));
        return out;
    }

    let origin = Instant::now();
    let (traced, traced_times): (Vec<TaskTrace>, Vec<TaskTime>) = tasks
        .par_iter()
        .map(|t| {
            let tt = decompose(t);
            let time = (std::thread::current().id(), tt.ref_s);
            (tt, time)
        })
        .collect::<Vec<_>>()
        .into_iter()
        .unzip();
    out.attempted += traced.len() as u64;
    let mut log = SpanLog::new(origin);
    for (i, (tt, e)) in traced.iter().zip(&first).enumerate() {
        if tt.values != values(e) {
            out.fail(format!(
                "traced task {i} differs from the untraced estimate"
            ));
        }
        for &(name, start, dur) in &tt.spans {
            log.push(name, i as u64 + 1, i as u64, start, dur);
        }
    }
    let path = ctx.trace_file(".trace.json");
    match log.write_chrome(&path) {
        Ok(()) => eprintln!("chrome trace written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }

    let mut alloc = AllocProbe::default();
    let mut mcmf = McmfStats::default();
    let mut steps = SimStats::default();
    let (mut sim_calls, mut sim_s, mut lb_s, mut events) = (0u64, 0.0, 0.0, 0u64);
    for tt in &traced {
        alloc.absorb(&tt.alloc);
        mcmf.absorb(&tt.mcmf);
        steps.absorb(&tt.steps);
        sim_calls += tt.simulate_calls;
        sim_s += tt.simulate_s;
        lb_s += tt.lower_bound_s;
        events += tt.events;
    }
    let busy: Vec<f64> = traced.iter().map(|t| t.busy_s * 1e3).collect();
    let busy_total_s: f64 = busy.iter().sum::<f64>() / 1e3;
    let busy_ref_s: f64 = traced.iter().map(|t| t.ref_s).sum();
    let solves = traced.len() as f64;
    let per_solve = |x: u64| x as f64 / solves;
    out.set("workload.generate.ms", generate_s * 1e3);
    out.set("policies.allocate.calls", alloc.probe.calls as f64);
    out.set("policies.allocate.ns_per_call", alloc.probe.ns_per_call());
    out.set("policies.allocate.alive_mean", alloc.alive_mean());
    out.set("simcore.events", events as f64);
    out.set("simcore.steps.arrival", steps.arrival_steps as f64);
    out.set("simcore.steps.completion", steps.completion_steps as f64);
    out.set("simcore.steps.review", steps.review_steps as f64);
    out.set("simcore.steps.adaptive", steps.adaptive_steps as f64);
    out.set("simcore.peak_alive", steps.peak_alive as f64);
    out.set(
        "simcore.self_ns_per_event",
        ((sim_s * 1e9 - alloc.probe.total_ns()) / events as f64).max(0.0),
    );
    out.set("simcore.simulate.calls", sim_calls as f64);
    out.set(
        "simcore.simulate.ms_per_call",
        sim_s * 1e3 / sim_calls as f64,
    );
    out.set("lowerbound.lk_lower_bound.calls", solves);
    out.set("lowerbound.lk_lower_bound.ms_per_call", lb_s * 1e3 / solves);
    out.set("lowerbound.mcmf.phases", per_solve(mcmf.phases));
    out.set("lowerbound.mcmf.heap_pops", per_solve(mcmf.heap_pops));
    out.set("lowerbound.mcmf.arcs_scanned", per_solve(mcmf.arcs_scanned));
    out.set(
        "lowerbound.mcmf.blocking_pushes",
        per_solve(mcmf.blocking_pushes),
    );
    out.set("lowerbound.mcmf.units_routed", per_solve(mcmf.units_routed));
    out.set("harness.task.calls", solves);
    out.set("harness.task.ms_p50", median(&busy));
    out.set("harness.task.ms_p95", tf_metrics::percentile(&busy, 0.95));
    out.set("harness.task.ms_max", tf_metrics::percentile(&busy, 1.0));
    out.set(
        "harness.fanout.efficiency",
        busy_ref_s / (threads().min(solves) * wall),
    );
    out.set("share.simcore", sim_s / busy_total_s);
    out.set("share.lowerbound", lb_s / busy_total_s);
    out.set("trace_overhead", fan_out_s(&traced_times) / wall - 1.0);
    out
}
