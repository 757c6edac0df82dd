//! Streaming simulation: open workloads in bounded memory.
//!
//! [`crate::simulate`] materialises the whole instance up front — a
//! [`crate::Trace`] plus dense completion/flow vectors plus (optionally) a
//! full [`crate::Profile`]. That caps experiments at the memory of the
//! trace, far below the "millions of jobs" regime heavy-traffic questions
//! live in. This module provides the unbounded-`n` path:
//!
//! * [`JobSource`] — a pull-based generator of jobs in arrival order; the
//!   engine materialises at most **one** not-yet-arrived job at a time.
//! * [`simulate_stream`] — runs the same engine as [`crate::simulate`]
//!   (both entry points call it), so a closed trace streamed through
//!   [`TraceSource`] replays **bit-identically**, but completed jobs are
//!   *retired*: their completion is handed to a caller-supplied sink and
//!   their state is dropped. Memory is `O(peak alive set)`, independent
//!   of the number of jobs streamed. No profile is kept; analyses that
//!   need one (the dual-fitting certificate) run [`crate::simulate`].
//!   Round Robin therefore always streams through the engine's
//!   virtual-time loop, which the general loop reproduces bit for bit
//!   (see [`crate::engine`]).
//!
//! Flow-time statistics over the full stream are computed by feeding the
//! sink into the mergeable streaming accumulators of `tf-metrics`
//! (`StreamingFlowStats`, `StreamingNorm`), which never need the
//! completion vector either.

use crate::alloc::{AliveJob, MachineConfig, RateAllocator};
use crate::engine::{run, Knobs};
use crate::error::SimError;
use crate::job::JobId;
use crate::stats::SimStats;
use crate::trace::Trace;

/// One job emitted by a [`JobSource`]: everything a [`crate::Job`] carries
/// except the id, which the streaming engine assigns densely in emission
/// order (so ids equal arrival ranks, exactly as in a [`Trace`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourcedJob {
    /// Arrival time `r_j`; must be non-decreasing across the stream.
    pub arrival: f64,
    /// Size `p_j`; finite and positive.
    pub size: f64,
    /// Weight; finite and positive (1.0 in the unweighted setting).
    pub weight: f64,
}

impl SourcedJob {
    /// An unweighted job.
    pub fn new(arrival: f64, size: f64) -> Self {
        SourcedJob {
            arrival,
            size,
            weight: 1.0,
        }
    }
}

/// A pull-based source of jobs in non-decreasing arrival order.
///
/// The engine validates every emitted job (finite positive size/weight,
/// finite non-decreasing arrival) and fails the run with the same typed
/// [`SimError`]s the [`crate::TraceBuilder`] would raise, so a buggy
/// generator cannot silently poison a long stream.
pub trait JobSource {
    /// The next job, or `None` when the stream is exhausted. Arrivals
    /// must be non-decreasing.
    fn next_job(&mut self) -> Option<SourcedJob>;
}

/// Adapter presenting a materialised [`Trace`] as a [`JobSource`] — the
/// bridge the golden equivalence tests use to replay closed traces
/// through the streaming engine.
#[derive(Debug, Clone)]
pub struct TraceSource<'a> {
    trace: &'a Trace,
    next: usize,
}

impl<'a> TraceSource<'a> {
    /// Stream `trace`'s jobs in id (= arrival) order.
    pub fn new(trace: &'a Trace) -> Self {
        TraceSource { trace, next: 0 }
    }
}

impl JobSource for TraceSource<'_> {
    fn next_job(&mut self) -> Option<SourcedJob> {
        let j = self.trace.jobs().get(self.next)?;
        self.next += 1;
        Some(SourcedJob {
            arrival: j.arrival,
            size: j.size,
            weight: j.weight,
        })
    }
}

/// A retired job delivered to the completion sink of [`simulate_stream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedJob {
    /// Dense id in emission order (= arrival rank).
    pub id: JobId,
    /// Arrival time `r_j`.
    pub arrival: f64,
    /// Size `p_j`.
    pub size: f64,
    /// Weight.
    pub weight: f64,
    /// Completion time `C_j`.
    pub completion: f64,
    /// Flow time `F_j = C_j − r_j`.
    pub flow: f64,
}

/// Knobs for [`simulate_stream`]. Unlike [`crate::SimOptions`] there is no
/// profile switch: a stream keeps no profile.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamOptions {
    /// Maximum step length for continuously-varying policies. **Required**
    /// for policies with [`RateAllocator::continuous`] `== true` (the
    /// materialised engine defaults this from the whole-trace mean size,
    /// which a stream cannot know); ignored otherwise.
    pub max_step: Option<f64>,
    /// Hard cap on engine events. `None` = unlimited (the stream's own
    /// bound is expected to terminate the run).
    pub max_events: Option<u64>,
}

/// Summary of one [`simulate_stream`] run. There is deliberately no
/// per-job data here — that went to the completion sink as the run
/// progressed.
#[derive(Debug)]
pub struct StreamReport {
    /// Name of the policy that ran.
    pub policy: String,
    /// Machine environment of the run.
    pub cfg: MachineConfig,
    /// Jobs admitted and completed (every admitted job completes when the
    /// run returns `Ok`).
    pub completed: u64,
    /// Engine events processed.
    pub events: u64,
    /// Simulation time when the last job completed (the stream makespan).
    pub end_time: f64,
    /// The usual engine counters ([`SimStats`]); `peak_alive` is the
    /// memory high-water mark of the run.
    pub stats: SimStats,
}

/// Simulate `policy` over the jobs pulled from `source`, delivering every
/// completed job to `on_complete` and retiring it.
///
/// This runs the engine [`crate::simulate`] runs, so a closed trace
/// streamed through [`TraceSource`] reproduces the materialised
/// completions **bit for bit**. Only retention differs: per-job state
/// lives while the job is alive, and no profile is recorded.
///
/// # Errors
/// Those of [`crate::simulate`], plus [`SimError::MissingMaxStep`] for
/// continuous policies without an explicit step, and per-job validation
/// errors ([`SimError::BadJobSize`] / [`SimError::BadArrival`] /
/// [`SimError::BadWeight`]) if the source emits an invalid or
/// out-of-order job.
pub fn simulate_stream(
    source: &mut dyn JobSource,
    policy: &mut dyn RateAllocator,
    cfg: MachineConfig,
    opts: StreamOptions,
    on_complete: &mut dyn FnMut(CompletedJob),
) -> Result<StreamReport, SimError> {
    cfg.validate()?;
    policy.reset();

    let mut obs_span = tf_obs::span!("sim", "stream");

    let max_step = if policy.continuous() {
        opts.max_step.ok_or(SimError::MissingMaxStep)?
    } else {
        f64::INFINITY
    };
    let knobs = Knobs {
        max_step,
        event_budget: opts.max_events.unwrap_or(u64::MAX),
        time_alloc: tf_obs::enabled(),
    };
    let end = run(source, policy, cfg, knobs, None, |a: &AliveJob, time| {
        on_complete(CompletedJob {
            id: a.id,
            arrival: a.arrival,
            size: a.size,
            weight: a.weight,
            completion: time,
            flow: time - a.arrival,
        })
    })?;
    let completed = end.stats.jobs_admitted;

    if tf_obs::enabled() {
        obs_span.arg("n", completed as f64);
        obs_span.arg("m", cfg.m as f64);
        obs_span.arg("speed", cfg.speed);
        obs_span.arg("events", end.events as f64);
        tf_obs::counter!("sim", "stream_events", end.events as f64);
        tf_obs::counter!("sim", "stream_completed", completed as f64);
        tf_obs::counter!("sim", "peak_alive", end.stats.peak_alive as f64);
    }

    Ok(StreamReport {
        policy: policy.name().to_string(),
        cfg,
        completed,
        events: end.events,
        end_time: end.end_time,
        stats: end.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimOptions};

    /// Inline RR so these tests do not depend on the policies crate.
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

    fn trace(pairs: &[(f64, f64)]) -> Trace {
        Trace::from_pairs(pairs.iter().copied()).unwrap()
    }

    fn stream_completions(t: &Trace, opts: StreamOptions) -> (Vec<f64>, StreamReport) {
        let mut got: Vec<(JobId, f64)> = Vec::new();
        let mut src = TraceSource::new(t);
        let report = simulate_stream(&mut src, &mut Rr, MachineConfig::new(1), opts, &mut |c| {
            got.push((c.id, c.completion))
        })
        .unwrap();
        let mut completion = vec![f64::NAN; t.len()];
        for (id, c) in got {
            completion[id as usize] = c;
        }
        (completion, report)
    }

    #[test]
    fn matches_materialised_engine_bitwise() {
        let t = trace(&[
            (0.0, 3.0),
            (0.5, 1.0),
            (0.5, 2.0),
            (2.0, 0.25),
            (7.0, 5.0),
            (7.0, 1.0),
        ]);
        let direct = simulate(&t, &mut Rr, MachineConfig::new(1), SimOptions::default()).unwrap();
        let (streamed, report) = stream_completions(&t, StreamOptions::default());
        for (a, b) in direct.completion.iter().zip(&streamed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(report.completed, t.len() as u64);
        assert_eq!(report.events, direct.events);
        assert_eq!(report.stats, direct.stats);
    }

    #[test]
    fn empty_stream_is_fine() {
        let t = Trace::from_pairs(std::iter::empty()).unwrap();
        let (c, report) = stream_completions(&t, StreamOptions::default());
        assert!(c.is_empty());
        assert_eq!(report.completed, 0);
        assert_eq!(report.end_time, 0.0);
    }

    #[test]
    fn rejects_non_monotone_arrivals() {
        struct Backwards(u32);
        impl JobSource for Backwards {
            fn next_job(&mut self) -> Option<SourcedJob> {
                self.0 += 1;
                match self.0 {
                    1 => Some(SourcedJob::new(5.0, 1.0)),
                    2 => Some(SourcedJob::new(1.0, 1.0)),
                    _ => None,
                }
            }
        }
        let e = simulate_stream(
            &mut Backwards(0),
            &mut Rr,
            MachineConfig::new(1),
            StreamOptions::default(),
            &mut |_| {},
        );
        assert!(matches!(e, Err(SimError::BadArrival { job: 1, .. })));
    }

    #[test]
    fn rejects_invalid_sourced_jobs() {
        struct Bad;
        impl JobSource for Bad {
            fn next_job(&mut self) -> Option<SourcedJob> {
                Some(SourcedJob::new(0.0, f64::NAN))
            }
        }
        let e = simulate_stream(
            &mut Bad,
            &mut Rr,
            MachineConfig::new(1),
            StreamOptions::default(),
            &mut |_| {},
        );
        assert!(matches!(e, Err(SimError::BadJobSize { .. })));
    }

    #[test]
    fn continuous_policy_without_max_step_is_rejected() {
        struct Cont;
        impl RateAllocator for Cont {
            fn name(&self) -> &'static str {
                "cont"
            }
            fn allocate(&mut self, _: f64, _: &[AliveJob], cfg: &MachineConfig, r: &mut [f64]) {
                r[0] = cfg.speed;
            }
            fn continuous(&self) -> bool {
                true
            }
        }
        let t = trace(&[(0.0, 1.0)]);
        let e = simulate_stream(
            &mut TraceSource::new(&t),
            &mut Cont,
            MachineConfig::new(1),
            StreamOptions::default(),
            &mut |_| {},
        );
        assert!(matches!(e, Err(SimError::MissingMaxStep)));
    }

    #[test]
    fn event_budget_guard() {
        let t = trace(&[(0.0, 1.0), (5.0, 1.0), (10.0, 1.0)]);
        let opts = StreamOptions {
            max_events: Some(1),
            ..Default::default()
        };
        let mut src = TraceSource::new(&t);
        let e = simulate_stream(&mut src, &mut Rr, MachineConfig::new(1), opts, &mut |_| {});
        assert!(matches!(e, Err(SimError::EventBudgetExhausted { .. })));
    }

    #[test]
    fn flow_and_sink_order() {
        // Completions arrive in completion-time order with exact flows.
        let t = trace(&[(0.0, 1.0), (10.0, 1.0)]);
        let mut got = Vec::new();
        simulate_stream(
            &mut TraceSource::new(&t),
            &mut Rr,
            MachineConfig::new(1),
            StreamOptions::default(),
            &mut |c| got.push(c),
        )
        .unwrap();
        assert_eq!(got.len(), 2);
        assert!((got[0].completion - 1.0).abs() < 1e-12);
        assert!((got[0].flow - 1.0).abs() < 1e-12);
        assert!((got[1].completion - 11.0).abs() < 1e-12);
        assert!((got[1].flow - 1.0).abs() < 1e-12);
    }
}
