//! The exact event-driven simulation engine.
//!
//! Between *events* — job arrivals, job completions, policy review points,
//! and (for continuously-varying policies) adaptive step boundaries — every
//! alive job is processed at a constant rate, so the engine advances time
//! analytically to the earliest next event. For piecewise-constant policies
//! (RR, SRPT, SJF, FCFS, LAPS) the produced schedule is exact up to
//! floating-point rounding; there is no time-quantization error.
//!
//! Both entry points share one engine. [`simulate`] replays a materialised
//! [`Trace`] into dense completion vectors and, on request, a full
//! [`Profile`]; [`crate::simulate_stream`] pulls jobs from an open
//! [`JobSource`] and retires each one to a sink as it completes. They
//! differ only in how they resolve their defaults and where completions
//! go, so a closed trace streamed through [`TraceSource`] reproduces
//! `simulate` bit for bit.
//!
//! The engine has two loops and one set of bits. The general loop asks
//! the policy for rates at every event, an O(alive) pass. A policy that
//! declares [`RateAllocator::equal_share`] (Round Robin) runs, when no
//! profile is kept, in a virtual-time loop at O(log alive) per event: one
//! shared service counter and a heap of finish points, no `allocate`
//! call. On every step where all rates are equal the general loop keeps
//! work the same way, so RR behind a wrapper that does not declare, RR
//! with a profile, and weighted RR at equal weights all reproduce the
//! virtual-time schedule bit for bit.

use crate::alloc::{AliveJob, MachineConfig, RateAllocator, RateRules};
use crate::error::SimError;
use crate::job::JobId;
use crate::profile::Profile;
use crate::schedule::Schedule;
use crate::stats::SimStats;
use crate::stream::{JobSource, TraceSource};
use crate::trace::Trace;
use crate::{ABS_EPS, REL_EPS};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Engine knobs. `SimOptions::default()` is right for almost all uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimOptions {
    /// Record the full piecewise-constant [`Profile`] (needed by the
    /// dual-fitting analysis and the validators; costs memory ∝ events·n).
    pub record_profile: bool,
    /// Maximum step length for policies with continuously-varying rates.
    /// `None` picks `mean_size / (64·speed)` automatically.
    pub max_step: Option<f64>,
    /// Hard cap on engine events as runaway protection. `None` picks a
    /// generous bound from the instance size.
    pub max_events: Option<u64>,
    /// Measure wall-clock time spent in the policy's `allocate` into
    /// [`SimStats::alloc_ns`]. Off by default: the two clock reads per
    /// event cost more than a whole event on small alive sets, so only
    /// diagnostic paths (harness tables, certificates) opt in.
    pub time_alloc: bool,
}

impl SimOptions {
    /// Options with profile recording enabled.
    pub fn with_profile() -> Self {
        SimOptions {
            record_profile: true,
            ..Default::default()
        }
    }

    /// Enable allocator wall-clock timing (see [`SimOptions::time_alloc`]).
    pub fn timed(mut self) -> Self {
        self.time_alloc = true;
        self
    }
}

/// Why the engine chose a particular step length; used to snap time exactly
/// onto arrival instants and to attribute events.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StepReason {
    Arrival(f64),
    Completion,
    Review,
    AdaptiveStep,
}

impl StepReason {
    /// The step to the pending arrival, if any; otherwise unbounded.
    fn until_arrival(pending: Option<&AliveJob>, time: f64) -> (f64, StepReason) {
        match pending {
            Some(p) => (p.arrival - time, StepReason::Arrival(p.arrival)),
            None => (f64::INFINITY, StepReason::AdaptiveStep),
        }
    }

    /// Count a step under this reason and return the time it ends at: an
    /// arrival step snaps exactly onto the arrival instant.
    fn end(self, step_end: f64, stats: &mut SimStats) -> f64 {
        match self {
            StepReason::Arrival(at) => {
                stats.arrival_steps += 1;
                return at;
            }
            StepReason::Completion => stats.completion_steps += 1,
            StepReason::Review => stats.review_steps += 1,
            StepReason::AdaptiveStep => stats.adaptive_steps += 1,
        }
        step_end
    }
}

/// Fail a step that can never end (work remains, nothing runs, and no
/// arrival is pending: the policy has stalled the system) or that is the
/// third in a row to make no progress.
fn guard_progress(
    dt: f64,
    zero_steps_in_a_row: &mut u32,
    time: f64,
    alive: usize,
) -> Result<(), SimError> {
    if dt <= 0.0 {
        *zero_steps_in_a_row += 1;
    } else {
        *zero_steps_in_a_row = 0;
    }
    if !dt.is_finite() || *zero_steps_in_a_row > 2 {
        return Err(SimError::Stalled { time, alive });
    }
    Ok(())
}

/// Simulate `policy` on `trace` under `cfg`.
///
/// # Errors
/// Propagates validation failures ([`MachineConfig::validate`]), infeasible
/// allocations from the policy, stalls (positive remaining work but no
/// progress possible), and event-budget exhaustion.
pub fn simulate(
    trace: &Trace,
    policy: &mut dyn RateAllocator,
    cfg: MachineConfig,
    opts: SimOptions,
) -> Result<Schedule, SimError> {
    cfg.validate()?;
    policy.reset();

    let mut obs_span = tf_obs::span!("sim", "simulate");

    let n = trace.len();
    let continuous = policy.continuous();
    let max_step = if continuous {
        opts.max_step.unwrap_or_else(|| {
            let mean = if n > 0 {
                trace.total_size() / n as f64
            } else {
                1.0
            };
            (mean / cfg.speed / 64.0).max(ABS_EPS)
        })
    } else {
        f64::INFINITY
    };
    let event_budget = opts.max_events.unwrap_or_else(|| {
        let n64 = n as u64;
        let base = 4096 + 64 * n64 * n64.max(1);
        if continuous {
            let steps = (trace.makespan_upper_bound(cfg.speed) / max_step).ceil();
            base + 8 * steps.min(1e15) as u64
        } else {
            base
        }
    });
    let knobs = Knobs {
        max_step,
        event_budget,
        // Tracing subsumes the opt-in allocator timing: with a sink
        // installed the run is diagnostic anyway, so fold the clock in.
        time_alloc: opts.time_alloc || tf_obs::enabled(),
    };

    // Job ids equal trace indices, so completions land in dense vectors.
    let mut completion = vec![f64::NAN; n];
    let mut flow = vec![f64::NAN; n];
    let mut profile = opts.record_profile.then(|| Profile::new(cfg.m, cfg.speed));
    let end = run(
        &mut TraceSource::new(trace),
        policy,
        cfg,
        knobs,
        profile.as_mut(),
        |a, time| {
            completion[a.id as usize] = time;
            flow[a.id as usize] = time - a.arrival;
        },
    )?;

    if let Some(p) = profile.as_mut() {
        let _coalesce_span = tf_obs::span!("sim", "coalesce");
        p.coalesce(ABS_EPS);
    }

    let stats = end.stats;
    if tf_obs::enabled() {
        obs_span.arg("n", n as f64);
        obs_span.arg("m", cfg.m as f64);
        obs_span.arg("speed", cfg.speed);
        obs_span.arg("events", end.events as f64);
        tf_obs::counter!("sim", "events", end.events as f64);
        tf_obs::counter!("sim", "steps", stats.steps() as f64);
        tf_obs::counter!("sim", "peak_alive", stats.peak_alive as f64);
        tf_obs::counter!("sim", "alloc_ns", stats.alloc_ns as f64);
        if stats.segments_recorded > 0 {
            tf_obs::counter!("sim", "segments_recorded", stats.segments_recorded as f64);
        }
    }

    Ok(Schedule {
        policy: policy.name().to_string(),
        cfg,
        completion,
        flow,
        profile,
        events: end.events,
        stats,
    })
}

/// The knobs of one [`run`], resolved by each entry point from its own
/// options: [`simulate`] derives defaults from the whole trace, a stream
/// cannot look ahead and takes them as given.
pub(crate) struct Knobs {
    /// Longest step for continuously-varying policies; `∞` for the rest.
    pub max_step: f64,
    /// Events after which the run fails with
    /// [`SimError::EventBudgetExhausted`].
    pub event_budget: u64,
    /// Clock the policy's `allocate` into [`SimStats::alloc_ns`].
    pub time_alloc: bool,
}

/// What a finished [`run`] reports besides the completions it handed to
/// its sink.
pub(crate) struct RunEnd {
    /// Engine events processed (admissions plus steps).
    pub events: u64,
    /// Simulation time when the last job completed.
    pub end_time: f64,
    /// The engine counters.
    pub stats: SimStats,
}

/// The event loop behind [`simulate`] and [`crate::simulate_stream`]:
/// admit → allocate → one pass that checks, clamps and finds the earliest
/// completion → advance → retire, until `source` is exhausted and no job
/// is alive. A policy that declares [`RateAllocator::equal_share`] runs
/// in [`run_equal_share`] instead when no profile is recorded.
///
/// Jobs are pulled one at a time, so at most one not-yet-arrived job is
/// held. Every positive-length step is recorded into `profile` when one is
/// given, and every retiring job is handed to `on_complete` with its
/// completion time, in arrival order. The sink may read only the job's
/// identity (`id`, `arrival`, `size`, `weight`): the virtual-time loop
/// keeps no per-job progress.
///
/// Work is kept as in [`run_equal_share`] while every job gets the same
/// rate: a shared service counter `v` and, per job, a finish point `fin`
/// with `remaining = fin − v`, so the two loops compute the same bits on
/// such steps. A job admitted while `v > 0` gets `fin = v + size`. A step
/// with unequal rates subtracts `rate·dt` from each job's remaining work,
/// as the loop always did, and restarts the counter at 0; so does an
/// empty alive set. At `v = 0` every job's finish point is its remaining
/// work, so `fin` is kept only while `v > 0` and is rebuilt from
/// `remaining` by the first equal-rate step after a restart.
pub(crate) fn run<S: JobSource + ?Sized>(
    source: &mut S,
    policy: &mut dyn RateAllocator,
    cfg: MachineConfig,
    knobs: Knobs,
    mut profile: Option<&mut Profile>,
    mut on_complete: impl FnMut(&AliveJob, f64),
) -> Result<RunEnd, SimError> {
    if profile.is_none() && policy.equal_share() {
        return run_equal_share(source, cfg, knobs.event_budget, on_complete);
    }
    let Knobs {
        max_step,
        event_budget,
        time_alloc,
    } = knobs;
    let mut stats = SimStats::default();
    let rules = RateRules::new(&cfg, REL_EPS);
    let cap = cfg.job_cap();

    // The alive set doubles as the policy's view: arrivals append, steps
    // update `remaining`/`attained` in place, and completions compact it
    // in order. While `v > 0`, `fin` runs beside it, one point per job.
    let mut alive: Vec<AliveJob> = Vec::new();
    let mut fin: Vec<f64> = Vec::new();
    let mut v = 0.0_f64;
    let mut next_id: u64 = 0;
    let mut last_arrival = 0.0_f64;
    let mut time = 0.0_f64;
    let mut events: u64 = 0;
    let mut zero_steps_in_a_row = 0u32;

    // The single look-ahead job: pulled, validated, not yet arrived.
    let mut pending = pull(source, &mut next_id, &mut last_arrival)?;

    // Reusable scratch, sized once per high-water mark.
    let mut rates: Vec<f64> = Vec::new();

    loop {
        // Admit all jobs that have arrived by `time`.
        while let Some(mut a) = pending.take_if(|p| p.arrival <= time) {
            if v > 0.0 {
                let f = v + a.size;
                a.remaining = f - v;
                fin.push(f);
            }
            alive.push(a);
            pending = pull(source, &mut next_id, &mut last_arrival)?;
            events += 1;
            stats.jobs_admitted += 1;
        }
        if alive.len() > stats.peak_alive {
            stats.peak_alive = alive.len(); // alive only grows on admission
        }

        if alive.is_empty() {
            match &pending {
                None => break, // source exhausted, all work done
                Some(p) => {
                    time = p.arrival;
                    continue;
                }
            }
        }

        if events > event_budget {
            return Err(SimError::EventBudgetExhausted { events });
        }

        rates.clear();
        rates.resize(alive.len(), 0.0);
        let alloc_started = time_alloc.then(Instant::now);
        policy.allocate(time, &alive, &cfg, &mut rates);
        if let Some(t0) = alloc_started {
            stats.alloc_ns += t0.elapsed().as_nanos() as u64;
        }

        // Earliest next event. One pass over the allocation checks each
        // rate, clamps tolerated overshoot so downstream stays exactly
        // feasible, finds the earliest completion and tests whether every
        // job got the same rate.
        let (mut dt, mut reason) = StepReason::until_arrival(pending.as_ref(), time);
        let shared = rates[0].clamp(0.0, cap);
        let mut uniform = true;
        let mut total = 0.0;
        for (a, r) in alive.iter().zip(rates.iter_mut()) {
            rules.rate(a.id, *r)?;
            total += *r;
            *r = r.clamp(0.0, cap);
            uniform &= *r == shared;
            if *r > ABS_EPS {
                let d = a.remaining / *r;
                if d < dt {
                    dt = d;
                    reason = StepReason::Completion;
                }
            }
        }
        rules.total(total)?;
        if let Some(rev) = policy.review_in(time, &alive, &cfg) {
            // A review in the past or at `now` would spin; insist on a
            // minimal positive advance.
            let rev = rev.max(ABS_EPS);
            if rev < dt {
                dt = rev;
                reason = StepReason::Review;
            }
        }
        if max_step < dt {
            dt = max_step;
            reason = StepReason::AdaptiveStep;
        }

        guard_progress(dt, &mut zero_steps_in_a_row, time, alive.len())?;

        // Advance: record the segment (arena append, no per-segment
        // allocation), deliver work, and detect completions in one pass.
        if dt > 0.0 {
            if let Some(p) = profile.as_deref_mut() {
                p.push(
                    time,
                    time + dt,
                    alive.iter().zip(&rates).map(|(a, &r)| (a.id, r)),
                );
                stats.segments_recorded += 1;
            }
        }
        let mut any_done = false;
        if uniform {
            // One rate for all: work moves the shared counter, exactly as
            // in the virtual-time loop. From 0, finish points are the
            // remaining work.
            if v == 0.0 {
                fin.clear();
                fin.extend(alive.iter().map(|a| a.remaining));
            }
            debug_assert_eq!(fin.len(), alive.len(), "fin runs beside alive");
            let w = shared * dt;
            v += w;
            for (a, &f) in alive.iter_mut().zip(&fin) {
                a.attained += w;
                a.remaining = f - v;
                any_done |= a.remaining <= a.size * REL_EPS + ABS_EPS;
            }
        } else {
            // Unequal rates: per-job work, and the counter restarts.
            v = 0.0;
            for (a, &r) in alive.iter_mut().zip(&rates) {
                let w = r * dt;
                a.attained += w;
                a.remaining -= w;
                any_done |= a.remaining <= a.size * REL_EPS + ABS_EPS;
            }
        }
        let step_end = time + dt;
        time = reason.end(step_end, &mut stats);
        if let Some(p) = profile.as_deref_mut() {
            // Snapping moves `time` off `t0 + dt` by at most one rounding
            // step of the arrival instant (dt was computed as `at − t0`):
            // stretching the last segment to cover it is floating-point
            // noise, never unaccounted work.
            debug_assert!(
                time - step_end <= ABS_EPS + REL_EPS * time.abs(),
                "arrival snap stretched the profile by {} at t={time}",
                time - step_end
            );
            p.stretch_last_end(time); // keep profile contiguous after snapping
        }
        events += 1;

        // Complete jobs whose remaining work has (numerically) vanished:
        // one order-preserving compaction, however many finish at once.
        if any_done {
            let mut kept = 0;
            alive.retain(|a| {
                if a.remaining <= a.size * REL_EPS + ABS_EPS {
                    on_complete(a, time);
                    if v > 0.0 {
                        fin.remove(kept);
                    }
                    false
                } else {
                    kept += 1;
                    true
                }
            });
            if alive.is_empty() {
                v = 0.0;
            }
        }
    }

    Ok(RunEnd {
        events,
        end_time: time,
        stats,
    })
}

/// One entry of [`run_equal_share`]'s heap, 16 bytes: a job's finish
/// point on the shared service counter, its arrival rank, and the slab
/// slot that holds the job. The heap is a max-heap, so the order is
/// reversed to pop the earliest finish first; equal finishes pop in
/// arrival order.
struct Finish {
    fin: f64,
    seq: u32,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Finish>() == 16);

impl Ord for Finish {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .fin
            .total_cmp(&self.fin)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Finish {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Finish {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Finish {}

/// [`run`] for a policy that declares [`RateAllocator::equal_share`]:
/// Round Robin in virtual time.
///
/// Every alive job runs at `r = cfg.equal_share(n)`, so all gain service
/// together. One counter `v` grows by `r·dt` each step and restarts at 0
/// when the alive set empties; a job admitted at counter `v` finishes when
/// it reaches `fin = v + size`. The earliest completion is
/// `(fin_min − v)/r` away, and an event costs a heap operation instead of
/// a pass over the alive set. The heap holds 16-byte [`Finish`] keys; the
/// jobs sit in a slab, and a retired job's slot goes to the next arrival.
///
/// Each step computes what [`run`] computes for that policy — the same
/// step lengths, step reasons, completion tests (`fin − v` against each
/// job's own tolerance) and completion order — so the two loops agree bit
/// for bit. Because the tolerance grows with size, a job may pass the test
/// before one with a smaller `fin`: every job with `fin − v` within the
/// largest tolerance admitted since the alive set was last empty is
/// popped, tested, and pushed back when it is not done.
fn run_equal_share<S: JobSource + ?Sized>(
    source: &mut S,
    cfg: MachineConfig,
    event_budget: u64,
    mut on_complete: impl FnMut(&AliveJob, f64),
) -> Result<RunEnd, SimError> {
    let mut stats = SimStats::default();
    let mut heap: BinaryHeap<Finish> = BinaryHeap::new();
    // The alive jobs by slot; `free` lists the slots of retired ones.
    let mut slab: Vec<AliveJob> = Vec::new();
    let mut free: Vec<u32> = Vec::new();
    let mut v = 0.0_f64;
    let mut max_size = 0.0_f64;
    let mut next_id: u64 = 0;
    let mut last_arrival = 0.0_f64;
    let mut time = 0.0_f64;
    let mut events: u64 = 0;
    let mut zero_steps_in_a_row = 0u32;
    let mut pending = pull(source, &mut next_id, &mut last_arrival)?;

    // Scratch for one step's candidates: finished, and popped but not.
    let mut done: Vec<Finish> = Vec::new();
    let mut unfinished: Vec<Finish> = Vec::new();

    loop {
        // Admit all jobs that have arrived by `time`.
        while let Some(job) = pending.take_if(|p| p.arrival <= time) {
            max_size = max_size.max(job.size);
            let (fin, seq) = (v + job.size, job.seq);
            let slot = match free.pop() {
                Some(slot) => {
                    slab[slot as usize] = job;
                    slot
                }
                None => {
                    slab.push(job);
                    (slab.len() - 1) as u32
                }
            };
            heap.push(Finish { fin, seq, slot });
            pending = pull(source, &mut next_id, &mut last_arrival)?;
            events += 1;
            stats.jobs_admitted += 1;
        }
        stats.peak_alive = stats.peak_alive.max(heap.len());

        let Some(first) = heap.peek() else {
            match &pending {
                None => break,
                Some(p) => {
                    time = p.arrival;
                    continue;
                }
            }
        };

        if events > event_budget {
            return Err(SimError::EventBudgetExhausted { events });
        }

        let r = cfg.equal_share(heap.len());
        let (mut dt, mut reason) = StepReason::until_arrival(pending.as_ref(), time);
        if r > ABS_EPS {
            let d = (first.fin - v) / r;
            if d < dt {
                dt = d;
                reason = StepReason::Completion;
            }
        }

        guard_progress(dt, &mut zero_steps_in_a_row, time, heap.len())?;

        v += r * dt;
        time = reason.end(time + dt, &mut stats);
        events += 1;

        // Retire every job whose remaining work `fin − v` has
        // (numerically) vanished, in arrival order.
        let reach = max_size * REL_EPS + ABS_EPS;
        while heap.peek().is_some_and(|e| e.fin - v <= reach) {
            let e = heap.pop().expect("peeked");
            if e.fin - v <= slab[e.slot as usize].size * REL_EPS + ABS_EPS {
                done.push(e);
            } else {
                unfinished.push(e);
            }
        }
        heap.extend(unfinished.drain(..));
        if !done.is_empty() {
            done.sort_unstable_by_key(|e| e.seq);
            for e in done.drain(..) {
                on_complete(&slab[e.slot as usize], time);
                free.push(e.slot);
            }
            if heap.is_empty() {
                v = 0.0;
                max_size = 0.0;
            }
        }
    }

    Ok(RunEnd {
        events,
        end_time: time,
        stats,
    })
}

/// Pull and validate the next job from the source, assigning the next
/// dense id. `last_arrival` enforces monotone arrivals; a [`Trace`] passes
/// every check by construction ([`crate::TraceBuilder::build`]).
fn pull<S: JobSource + ?Sized>(
    source: &mut S,
    next_id: &mut u64,
    last_arrival: &mut f64,
) -> Result<Option<AliveJob>, SimError> {
    let Some(j) = source.next_job() else {
        return Ok(None);
    };
    if *next_id > JobId::MAX as u64 {
        return Err(SimError::JobLimitExceeded {
            limit: JobId::MAX as u64,
        });
    }
    let id = *next_id as JobId;
    if !j.size.is_finite() || j.size <= 0.0 {
        return Err(SimError::BadJobSize {
            job: id,
            size: j.size,
        });
    }
    if !j.arrival.is_finite() || j.arrival < 0.0 || j.arrival < *last_arrival {
        return Err(SimError::BadArrival {
            job: id,
            arrival: j.arrival,
        });
    }
    if !j.weight.is_finite() || j.weight <= 0.0 {
        return Err(SimError::BadWeight {
            job: id,
            weight: j.weight,
        });
    }
    *next_id += 1;
    *last_arrival = j.arrival;
    Ok(Some(AliveJob {
        id,
        arrival: j.arrival,
        size: j.size,
        weight: j.weight,
        remaining: j.size,
        attained: 0.0,
        seq: id,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round Robin defined inline so engine tests do not depend on the
    /// policies crate (which depends on us).
    struct Rr;
    impl RateAllocator for Rr {
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
            let share = cfg.speed * (cfg.m as f64 / alive.len() as f64).min(1.0);
            rates.fill(share);
        }
    }

    /// Round Robin declaring processor sharing: it runs in virtual time,
    /// which never calls `allocate`.
    struct FastRr;
    impl RateAllocator for FastRr {
        fn name(&self) -> &'static str {
            "RR"
        }
        fn allocate(&mut self, _: f64, _: &[AliveJob], _: &MachineConfig, _: &mut [f64]) {
            unreachable!("the virtual-time loop never allocates")
        }
        fn equal_share(&self) -> bool {
            true
        }
    }

    /// Run-one-job-at-a-time in arrival order (FCFS), also inline.
    struct Fcfs;
    impl RateAllocator for Fcfs {
        fn name(&self) -> &'static str {
            "FCFS"
        }
        fn allocate(
            &mut self,
            _now: f64,
            _alive: &[AliveJob],
            cfg: &MachineConfig,
            rates: &mut [f64],
        ) {
            for r in rates.iter_mut().take(cfg.m) {
                *r = cfg.speed;
            }
        }
    }

    fn trace(pairs: &[(f64, f64)]) -> Trace {
        Trace::from_pairs(pairs.iter().copied()).unwrap()
    }

    #[test]
    fn single_job_single_machine() {
        let t = trace(&[(2.0, 3.0)]);
        let s = simulate(&t, &mut Rr, MachineConfig::new(1), SimOptions::default()).unwrap();
        assert!((s.completion[0] - 5.0).abs() < 1e-12);
        assert!((s.flow[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn speed_augmentation_scales_processing() {
        let t = trace(&[(0.0, 3.0)]);
        let s = simulate(
            &t,
            &mut Rr,
            MachineConfig::with_speed(1, 3.0),
            SimOptions::default(),
        )
        .unwrap();
        assert!((s.completion[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rr_two_equal_jobs_share_machine() {
        // Two unit jobs at t=0 on one machine under RR: both complete at 2.
        let t = trace(&[(0.0, 1.0), (0.0, 1.0)]);
        let s = simulate(&t, &mut Rr, MachineConfig::new(1), SimOptions::default()).unwrap();
        assert!((s.completion[0] - 2.0).abs() < 1e-12);
        assert!((s.completion[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rr_known_closed_form() {
        // Jobs (r=0, p=1) and (r=0, p=2) under RR on 1 machine:
        // both run at 1/2 until job0 finishes at t=2; job1 then has 1 left,
        // finishing at t=3.
        let t = trace(&[(0.0, 1.0), (0.0, 2.0)]);
        let s = simulate(&t, &mut Rr, MachineConfig::new(1), SimOptions::default()).unwrap();
        assert!((s.completion[0] - 2.0).abs() < 1e-12);
        assert!((s.completion[1] - 3.0).abs() < 1e-12);
        assert!((s.total_flow() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rr_mid_run_arrival() {
        // Job0 (r=0, p=2), job1 (r=1, p=1) on 1 machine.
        // t∈[0,1): job0 alone at rate 1 → remaining 1 at t=1.
        // t≥1: both at 1/2. Job1 needs 2 time → but job0 finishes first:
        // both have remaining 1 at t=1 → both complete at t=3.
        let t = trace(&[(0.0, 2.0), (1.0, 1.0)]);
        let s = simulate(&t, &mut Rr, MachineConfig::new(1), SimOptions::default()).unwrap();
        assert!((s.completion[0] - 3.0).abs() < 1e-12);
        assert!((s.completion[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rr_multiple_machines_dedicated_when_underloaded() {
        // 2 machines, 2 jobs: each gets a full machine (min(1, m/n) = 1).
        let t = trace(&[(0.0, 4.0), (0.0, 4.0)]);
        let s = simulate(&t, &mut Rr, MachineConfig::new(2), SimOptions::default()).unwrap();
        assert!((s.completion[0] - 4.0).abs() < 1e-12);
        assert!((s.completion[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rr_multiple_machines_overloaded_split() {
        // 2 machines, 4 unit jobs: each runs at 2/4 = 1/2 → all done at 2.
        let t = trace(&[(0.0, 1.0); 4]);
        let s = simulate(&t, &mut Rr, MachineConfig::new(2), SimOptions::default()).unwrap();
        for j in 0..4 {
            assert!((s.completion[j] - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn virtual_time_retires_a_large_job_behind_the_heap_top() {
        // The 10⁶ job's completion tolerance (size·REL_EPS = 10⁻³) covers
        // its last 5·10⁻⁴ of work when the third job arrives, while the
        // second job, 10⁻⁴ from its earlier finish point, is not done: the
        // large job must retire at that arrival in both loops.
        let t = trace(&[(0.0, 1e6), (1e6 - 2.0, 1.9996), (1e6 + 1.999, 1.0)]);
        let cfg = MachineConfig::new(1);
        let fast = simulate(&t, &mut FastRr, cfg, SimOptions::default()).unwrap();
        let general = simulate(&t, &mut Rr, cfg, SimOptions::default()).unwrap();
        let bits = |s: &Schedule| s.completion.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast), bits(&general));
        assert_eq!((fast.events, fast.stats), (general.events, general.stats));
        assert_eq!(fast.completion[0], t.jobs()[2].arrival);
        assert!(fast.completion[1] > fast.completion[0]);
    }

    #[test]
    fn fcfs_orders_by_arrival() {
        let t = trace(&[(0.0, 2.0), (0.5, 1.0)]);
        let s = simulate(&t, &mut Fcfs, MachineConfig::new(1), SimOptions::default()).unwrap();
        assert!((s.completion[0] - 2.0).abs() < 1e-12);
        assert!((s.completion[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn idle_gap_between_jobs() {
        let t = trace(&[(0.0, 1.0), (10.0, 1.0)]);
        let s = simulate(&t, &mut Rr, MachineConfig::new(1), SimOptions::default()).unwrap();
        assert!((s.completion[0] - 1.0).abs() < 1e-12);
        assert!((s.completion[1] - 11.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_fine() {
        let t = Trace::from_pairs(std::iter::empty()).unwrap();
        let s = simulate(&t, &mut Rr, MachineConfig::new(1), SimOptions::default()).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn profile_records_exact_segments() {
        let t = trace(&[(0.0, 1.0), (0.0, 2.0)]);
        let s = simulate(
            &t,
            &mut Rr,
            MachineConfig::new(1),
            SimOptions::with_profile(),
        )
        .unwrap();
        let p = s.profile.as_ref().unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.segment(0).rates, [(0, 0.5), (1, 0.5)]);
        assert_eq!(p.segment(1).rates, [(1, 1.0)]);
        assert!((p.total_work() - 3.0).abs() < 1e-9);
        assert!((p.work_of(0) - 1.0).abs() < 1e-9);
        assert!((p.work_of(1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stalling_policy_is_detected() {
        struct Lazy;
        impl RateAllocator for Lazy {
            fn name(&self) -> &'static str {
                "lazy"
            }
            fn allocate(&mut self, _: f64, _: &[AliveJob], _: &MachineConfig, rates: &mut [f64]) {
                rates.fill(0.0);
            }
        }
        let t = trace(&[(0.0, 1.0)]);
        let e = simulate(&t, &mut Lazy, MachineConfig::new(1), SimOptions::default());
        assert!(matches!(e, Err(SimError::Stalled { .. })));
    }

    #[test]
    fn infeasible_policy_is_rejected() {
        struct Greedy;
        impl RateAllocator for Greedy {
            fn name(&self) -> &'static str {
                "greedy"
            }
            fn allocate(&mut self, _: f64, _: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
                rates.fill(2.0 * cfg.speed);
            }
        }
        let t = trace(&[(0.0, 1.0)]);
        let e = simulate(
            &t,
            &mut Greedy,
            MachineConfig::new(1),
            SimOptions::default(),
        );
        assert!(matches!(e, Err(SimError::RateCapViolated { .. })));
    }

    #[test]
    fn review_hints_fire() {
        // A policy that serves only the oldest job but asks for review every
        // 0.25 time units; engine must not miss the hint (observable via
        // event count exceeding the 3 events of plain FCFS).
        struct Hinty;
        impl RateAllocator for Hinty {
            fn name(&self) -> &'static str {
                "hinty"
            }
            fn allocate(&mut self, _: f64, _: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
                rates[0] = cfg.speed;
            }
            fn review_in(&self, _: f64, _: &[AliveJob], _: &MachineConfig) -> Option<f64> {
                Some(0.25)
            }
        }
        let t = trace(&[(0.0, 1.0)]);
        let s = simulate(&t, &mut Hinty, MachineConfig::new(1), SimOptions::default()).unwrap();
        assert!((s.completion[0] - 1.0).abs() < 1e-9);
        assert!(s.events >= 4);
    }

    #[test]
    fn simultaneous_arrivals_and_completions() {
        // Three identical jobs arriving together complete together.
        let t = trace(&[(1.0, 2.0), (1.0, 2.0), (1.0, 2.0)]);
        let s = simulate(&t, &mut Rr, MachineConfig::new(1), SimOptions::default()).unwrap();
        for j in 0..3 {
            assert!((s.completion[j] - 7.0).abs() < 1e-9);
        }
    }

    #[test]
    fn event_budget_guard() {
        let t = trace(&[(0.0, 1.0), (5.0, 1.0), (10.0, 1.0)]);
        let opts = SimOptions {
            max_events: Some(1),
            ..Default::default()
        };
        let e = simulate(&t, &mut Rr, MachineConfig::new(1), opts);
        assert!(matches!(e, Err(SimError::EventBudgetExhausted { .. })));
    }

    #[test]
    fn work_conservation_on_random_like_instance() {
        let t = trace(&[
            (0.0, 3.0),
            (0.5, 1.0),
            (0.5, 2.0),
            (2.0, 0.25),
            (7.0, 5.0),
            (7.0, 1.0),
        ]);
        let s = simulate(
            &t,
            &mut Rr,
            MachineConfig::with_speed(2, 1.5),
            SimOptions::with_profile(),
        )
        .unwrap();
        let p = s.profile.as_ref().unwrap();
        assert!((p.total_work() - t.total_size()).abs() < 1e-6);
        for j in t.jobs() {
            assert!((p.work_of(j.id) - j.size).abs() < 1e-6, "job {}", j.id);
            assert!(s.flow[j.id as usize] >= j.size / 1.5 - 1e-9);
        }
    }
}
