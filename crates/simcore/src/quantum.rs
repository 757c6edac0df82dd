//! Discrete Round Robin with a finite time quantum and context-switch
//! overhead.
//!
//! The paper analyzes the *idealized* RR — instantaneous equal sharing,
//! equivalently the quantum → 0 limit of the textbook scheduler. Real
//! operating systems run RR with a positive quantum `q` and pay a
//! context-switch cost `c` every time a machine switches jobs. This module
//! implements that practical variant so the experiment suite (E12) can
//! measure how quickly the discrete scheduler converges to the
//! processor-sharing ideal as `q → 0`, and how overhead erodes it.
//!
//! Model: a single global FIFO ready queue feeding `m` machines of speed
//! `s`. A machine takes the job at the head of the queue, pays `c` wall
//! clock (if it is switching to a different job than it just ran), runs the
//! job for `min(q, remaining/s)` wall clock, then requeues the job at the
//! tail if unfinished. Arrivals join the tail. Ties between machines are
//! broken by machine index for determinism.

use crate::alloc::MachineConfig;
use crate::error::SimError;
use crate::schedule::Schedule;
use crate::stats::SimStats;
use crate::trace::Trace;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Parameters of the discrete RR scheduler.
#[derive(Debug, Clone, Copy)]
pub struct QuantumOptions {
    /// Time quantum `q > 0` (wall clock a job runs per turn).
    pub quantum: f64,
    /// Context-switch overhead `c ≥ 0` (wall clock paid when a machine
    /// switches to a job different from the one it last ran).
    pub ctx_switch: f64,
}

impl QuantumOptions {
    /// Quantum `q` with zero switch cost.
    pub fn new(quantum: f64) -> Self {
        QuantumOptions {
            quantum,
            ctx_switch: 0.0,
        }
    }
}

#[derive(Debug, PartialEq)]
struct MachineFree {
    at: f64,
    machine: usize,
    /// Job the machine just ran and preempted (unfinished); it re-joins the
    /// ready queue only now — while running it must be invisible to other
    /// machines.
    requeue: Option<u32>,
}

impl Eq for MachineFree {}
impl Ord for MachineFree {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap: earlier time first, then lower machine index.
        other
            .at
            .partial_cmp(&self.at)
            .unwrap()
            .then_with(|| other.machine.cmp(&self.machine))
    }
}
impl PartialOrd for MachineFree {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Simulate discrete RR on `trace`.
///
/// # Errors
/// Rejects invalid configurations (`m = 0`, bad speed, non-positive
/// quantum, negative switch cost).
pub fn simulate_quantum_rr(
    trace: &Trace,
    cfg: MachineConfig,
    opts: QuantumOptions,
) -> Result<Schedule, SimError> {
    cfg.validate()?;
    if !opts.quantum.is_finite() || opts.quantum <= 0.0 {
        return Err(SimError::BadQuantum(opts.quantum));
    }
    if !opts.ctx_switch.is_finite() || opts.ctx_switch < 0.0 {
        return Err(SimError::BadCtxSwitch(opts.ctx_switch));
    }

    let n = trace.len();
    let jobs = trace.jobs();
    let mut remaining: Vec<f64> = jobs.iter().map(|j| j.size).collect();
    let mut completion = vec![f64::NAN; n];
    let mut flow = vec![f64::NAN; n];
    let mut last_ran: Vec<Option<u32>> = vec![None; cfg.m];

    let mut ready: VecDeque<u32> = VecDeque::new();
    let mut next_arrival = 0usize;
    let mut free = BinaryHeap::with_capacity(cfg.m);
    for machine in 0..cfg.m {
        free.push(MachineFree {
            at: 0.0,
            machine,
            requeue: None,
        });
    }
    let mut events: u64 = 0;
    let mut done = 0usize;

    // Each iteration dispatches one machine at its free time.
    while let Some(MachineFree {
        at,
        machine,
        requeue,
    }) = free.pop()
    {
        events += 1;
        // Admit arrivals up to `at`, then the preempted job (a job arriving
        // exactly at quantum expiry queues ahead of the preempted job — the
        // textbook convention).
        while next_arrival < n && jobs[next_arrival].arrival <= at {
            ready.push_back(next_arrival as u32);
            next_arrival += 1;
        }
        if let Some(job) = requeue {
            ready.push_back(job);
        }
        if done == n {
            break;
        }
        let Some(job) = ready.pop_front() else {
            if next_arrival < n {
                // Idle this machine until the next arrival.
                free.push(MachineFree {
                    at: jobs[next_arrival].arrival,
                    machine,
                    requeue: None,
                });
            }
            // else: machine retires; when all retire the loop drains.
            continue;
        };
        let j = job as usize;
        let switch = if last_ran[machine] == Some(job) {
            0.0
        } else {
            opts.ctx_switch
        };
        last_ran[machine] = Some(job);
        let run = (remaining[j] / cfg.speed).min(opts.quantum);
        let end = at + switch + run;
        remaining[j] -= run * cfg.speed;
        if remaining[j] <= jobs[j].size * crate::REL_EPS {
            completion[j] = end;
            flow[j] = end - jobs[j].arrival;
            done += 1;
            free.push(MachineFree {
                at: end,
                machine,
                requeue: None,
            });
        } else {
            free.push(MachineFree {
                at: end,
                machine,
                requeue: Some(job),
            });
        }
    }

    Ok(Schedule {
        policy: "QuantumRR".to_string(),
        cfg,
        completion,
        flow,
        profile: None,
        events,
        stats: SimStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(pairs: &[(f64, f64)]) -> Trace {
        Trace::from_pairs(pairs.iter().copied()).unwrap()
    }

    #[test]
    fn single_job_runs_in_quanta() {
        let t = trace(&[(0.0, 1.0)]);
        let s = simulate_quantum_rr(&t, MachineConfig::new(1), QuantumOptions::new(0.25)).unwrap();
        assert!((s.completion[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn alternation_of_two_jobs() {
        // Two unit jobs, q=0.5: A runs [0,.5), B [.5,1), A [1,1.5) done,
        // B [1.5,2) done.
        let t = trace(&[(0.0, 1.0), (0.0, 1.0)]);
        let s = simulate_quantum_rr(&t, MachineConfig::new(1), QuantumOptions::new(0.5)).unwrap();
        assert!((s.completion[0] - 1.5).abs() < 1e-12);
        assert!((s.completion[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn context_switch_overhead_delays() {
        // Same as above with c=0.1: switches at every dispatch (first
        // dispatch also pays: cold start). Sequence:
        // A: .1 switch + .5 run → 0.6; B: .1+.5 → 1.2; A: .1+.5 → 1.8;
        // B: .1+.5 → 2.4.
        let t = trace(&[(0.0, 1.0), (0.0, 1.0)]);
        let opts = QuantumOptions {
            quantum: 0.5,
            ctx_switch: 0.1,
        };
        let s = simulate_quantum_rr(&t, MachineConfig::new(1), opts).unwrap();
        assert!((s.completion[0] - 1.8).abs() < 1e-12);
        assert!((s.completion[1] - 2.4).abs() < 1e-12);
    }

    #[test]
    fn no_switch_cost_when_rerunning_same_job() {
        // One job alone: only the initial switch is paid.
        let t = trace(&[(0.0, 1.0)]);
        let opts = QuantumOptions {
            quantum: 0.25,
            ctx_switch: 0.1,
        };
        let s = simulate_quantum_rr(&t, MachineConfig::new(1), opts).unwrap();
        assert!((s.completion[0] - 1.1).abs() < 1e-12);
    }

    #[test]
    fn multiple_machines_run_in_parallel() {
        let t = trace(&[(0.0, 1.0), (0.0, 1.0)]);
        let s = simulate_quantum_rr(&t, MachineConfig::new(2), QuantumOptions::new(0.5)).unwrap();
        assert!((s.completion[0] - 1.0).abs() < 1e-12);
        assert!((s.completion[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn converges_to_processor_sharing_as_quantum_shrinks() {
        // Ideal RR on (0,1),(0,2): completions 2 and 3 (engine test proves
        // this); quantum RR must approach them.
        let t = trace(&[(0.0, 1.0), (0.0, 2.0)]);
        let fine =
            simulate_quantum_rr(&t, MachineConfig::new(1), QuantumOptions::new(1e-3)).unwrap();
        assert!((fine.completion[0] - 2.0).abs() < 5e-3);
        assert!((fine.completion[1] - 3.0).abs() < 5e-3);
        let coarse =
            simulate_quantum_rr(&t, MachineConfig::new(1), QuantumOptions::new(0.5)).unwrap();
        let err_fine = (fine.completion[0] - 2.0).abs() + (fine.completion[1] - 3.0).abs();
        let err_coarse = (coarse.completion[0] - 2.0).abs() + (coarse.completion[1] - 3.0).abs();
        assert!(err_fine <= err_coarse + 1e-12);
    }

    #[test]
    fn arrivals_join_the_tail() {
        // A (r=0,p=1), B (r=0.5,p=0.5), q=0.5:
        // A [0,.5); B arrives at .5 and was admitted before A requeues →
        // B runs [.5,1) done at 1.0; A runs [1,1.5) done.
        let t = trace(&[(0.0, 1.0), (0.5, 0.5)]);
        let s = simulate_quantum_rr(&t, MachineConfig::new(1), QuantumOptions::new(0.5)).unwrap();
        assert!((s.completion[1] - 1.0).abs() < 1e-12);
        assert!((s.completion[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn speed_scales_work_not_overheads() {
        let t = trace(&[(0.0, 2.0)]);
        let opts = QuantumOptions {
            quantum: 10.0,
            ctx_switch: 0.5,
        };
        let s = simulate_quantum_rr(&t, MachineConfig::with_speed(1, 2.0), opts).unwrap();
        // .5 switch + 1.0 run (2 work at speed 2).
        assert!((s.completion[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_options() {
        // Regression: these used to surface as BadSpeed, a misleading
        // diagnostic ("speed 0 must be finite and positive" for a bad
        // quantum). The dedicated variants name the offending field.
        let t = trace(&[(0.0, 1.0)]);
        assert!(matches!(
            simulate_quantum_rr(&t, MachineConfig::new(1), QuantumOptions::new(0.0)),
            Err(SimError::BadQuantum(q)) if q == 0.0
        ));
        assert!(matches!(
            simulate_quantum_rr(&t, MachineConfig::new(1), QuantumOptions::new(f64::NAN)),
            Err(SimError::BadQuantum(_))
        ));
        let bad = QuantumOptions {
            quantum: 1.0,
            ctx_switch: -1.0,
        };
        assert!(matches!(
            simulate_quantum_rr(&t, MachineConfig::new(1), bad),
            Err(SimError::BadCtxSwitch(c)) if c == -1.0
        ));
        let msg = SimError::BadQuantum(0.0).to_string();
        assert!(
            msg.contains("quantum"),
            "diagnostic should name the field: {msg}"
        );
    }

    #[test]
    fn empty_trace() {
        let t = Trace::from_pairs(std::iter::empty()).unwrap();
        let s = simulate_quantum_rr(&t, MachineConfig::new(2), QuantumOptions::new(1.0)).unwrap();
        assert!(s.is_empty());
    }
}
