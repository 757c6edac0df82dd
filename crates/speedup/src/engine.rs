//! Event-driven simulation for the speed-up curves model.
//!
//! Between events (arrivals, phase completions — which include job
//! completions) every phase progresses at a constant rate: `s·ρ_j` for
//! parallel phases, `s` for sequential ones. The engine advances
//! analytically to the earliest next event, so schedules are exact for
//! piecewise-constant policies (EQUI, LAPS, GreedyPar all are — their
//! decisions change only at events).

use crate::job::{PhaseKind, SpeedupTrace};
use crate::policy::{AliveCurveJob, ProcessorPolicy};

/// Output of a speed-up curves simulation.
#[derive(Debug, Clone)]
pub struct SpeedupSchedule {
    /// Policy name.
    pub policy: String,
    /// Processors `P` and speed `s` the run used.
    pub processors: f64,
    /// Machine speed.
    pub speed: f64,
    /// Completion time per job id.
    pub completion: Vec<f64>,
    /// Flow time per job id.
    pub flow: Vec<f64>,
    /// Engine events processed.
    pub events: u64,
}

struct AliveState {
    job: usize,
    phase: usize,
    remaining_phase: f64,
    remaining_total: f64,
}

const REL_EPS: f64 = 1e-9;
const ABS_EPS: f64 = 1e-12;

/// Simulate `policy` on `trace` with `processors` processors of speed
/// `speed`.
///
/// # Panics
/// If the policy over-allocates processors beyond tolerance, or the
/// configuration is degenerate (`processors ≤ 0`, `speed ≤ 0`).
pub fn simulate_speedup(
    trace: &SpeedupTrace,
    policy: &mut dyn ProcessorPolicy,
    processors: f64,
    speed: f64,
) -> SpeedupSchedule {
    assert!(processors > 0.0 && processors.is_finite());
    assert!(speed > 0.0 && speed.is_finite());
    let n = trace.len();
    let jobs = trace.jobs();
    let mut completion = vec![f64::NAN; n];
    let mut flow = vec![f64::NAN; n];

    let mut alive: Vec<AliveState> = Vec::new();
    let mut next_arrival = 0usize;
    let mut time = 0.0f64;
    let mut events = 0u64;

    let mut views: Vec<AliveCurveJob> = Vec::new();
    let mut rho: Vec<f64> = Vec::new();

    loop {
        while next_arrival < n && jobs[next_arrival].arrival <= time {
            let j = &jobs[next_arrival];
            alive.push(AliveState {
                job: next_arrival,
                phase: 0,
                remaining_phase: j.phases[0].work,
                remaining_total: j.total_work(),
            });
            next_arrival += 1;
            events += 1;
        }
        if alive.is_empty() {
            if next_arrival >= n {
                break;
            }
            time = jobs[next_arrival].arrival;
            continue;
        }

        views.clear();
        views.extend(alive.iter().map(|a| {
            let j = &jobs[a.job];
            AliveCurveJob {
                id: j.id,
                arrival: j.arrival,
                current_kind: j.phases[a.phase].kind,
                remaining_phase: a.remaining_phase,
                remaining_total: a.remaining_total,
            }
        }));
        rho.clear();
        rho.resize(alive.len(), 0.0);
        policy.allocate(&views, processors, &mut rho);
        let total: f64 = rho.iter().sum();
        assert!(
            total <= processors * (1.0 + REL_EPS) + ABS_EPS,
            "policy {} over-allocated: {total} > {processors}",
            policy.name()
        );
        assert!(
            rho.iter().all(|r| r.is_finite() && *r >= -ABS_EPS),
            "negative allocation"
        );

        // Rates per job and earliest event.
        let mut dt = f64::INFINITY;
        let mut arrival_snap = None;
        if next_arrival < n {
            let d = jobs[next_arrival].arrival - time;
            if d < dt {
                dt = d;
                arrival_snap = Some(jobs[next_arrival].arrival);
            }
        }
        let mut rates = Vec::with_capacity(alive.len());
        for (a, &r) in alive.iter().zip(&rho) {
            let kind = jobs[a.job].phases[a.phase].kind;
            let rate = match kind {
                PhaseKind::Par => speed * r.max(0.0),
                PhaseKind::Seq => speed,
                PhaseKind::Capped { cap } => speed * r.max(0.0).min(cap),
            };
            rates.push(rate);
            if rate > ABS_EPS {
                let d = a.remaining_phase / rate;
                if d < dt {
                    dt = d;
                    arrival_snap = None;
                }
            }
        }
        assert!(
            dt.is_finite(),
            "stalled: all parallel phases unallocated and no arrivals pending"
        );

        // Advance.
        for (a, &rate) in alive.iter_mut().zip(&rates) {
            let w = rate * dt;
            a.remaining_phase -= w;
            a.remaining_total -= w;
        }
        time = arrival_snap.unwrap_or(time + dt);
        events += 1;

        // Phase transitions and completions.
        let mut i = 0;
        while i < alive.len() {
            let a = &mut alive[i];
            let j = &jobs[a.job];
            if a.remaining_phase <= j.phases[a.phase].work * REL_EPS + ABS_EPS {
                if a.phase + 1 < j.phases.len() {
                    a.phase += 1;
                    a.remaining_phase = j.phases[a.phase].work;
                    i += 1;
                } else {
                    completion[a.job] = time;
                    flow[a.job] = time - j.arrival;
                    alive.remove(i);
                }
            } else {
                i += 1;
            }
        }
    }

    SpeedupSchedule {
        policy: policy.name().to_string(),
        processors,
        speed,
        completion,
        flow,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Phase;
    use crate::policy::{Equi, GreedyPar};

    #[test]
    fn single_parallel_job_uses_all_processors_under_equi() {
        let t = SpeedupTrace::new([(0.0, vec![Phase::par(8.0)])]);
        let s = simulate_speedup(&t, &mut Equi, 4.0, 1.0);
        assert!((s.completion[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sequential_phase_ignores_allocation() {
        // Seq work 3 at speed 1 takes 3, no matter how many processors.
        let t = SpeedupTrace::new([(0.0, vec![Phase::seq(3.0)])]);
        let s = simulate_speedup(&t, &mut Equi, 64.0, 1.0);
        assert!((s.completion[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn speed_scales_both_kinds() {
        let t = SpeedupTrace::new([(0.0, vec![Phase::seq(3.0), Phase::par(4.0)])]);
        let s = simulate_speedup(&t, &mut Equi, 2.0, 2.0);
        // Seq: 3/2; Par: 4/(2 procs × speed 2) = 1. Total 2.5.
        assert!((s.completion[0] - 2.5).abs() < 1e-9, "{}", s.completion[0]);
    }

    #[test]
    fn equi_dilutes_parallel_jobs_by_sequential_bystanders() {
        // One par job (work 4) + one seq job (work 100) on P=2, speed 1.
        // EQUI: par job gets 1 processor → completes at 4.
        let t = SpeedupTrace::new([(0.0, vec![Phase::par(4.0)]), (0.0, vec![Phase::seq(100.0)])]);
        let s = simulate_speedup(&t, &mut Equi, 2.0, 1.0);
        assert!((s.completion[0] - 4.0).abs() < 1e-9);
        // GreedyPar: par job gets both processors → completes at 2, and
        // the seq job is unharmed (finishes at 100 either way).
        let g = simulate_speedup(&t, &mut GreedyPar, 2.0, 1.0);
        assert!((g.completion[0] - 2.0).abs() < 1e-9);
        assert!((g.completion[1] - 100.0).abs() < 1e-9);
        assert!((s.completion[1] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn phase_transitions_are_events() {
        // Par then Seq then Par, alone on P=1.
        let t = SpeedupTrace::new([(0.0, vec![Phase::par(1.0), Phase::seq(2.0), Phase::par(1.0)])]);
        let s = simulate_speedup(&t, &mut Equi, 1.0, 1.0);
        assert!((s.completion[0] - 4.0).abs() < 1e-9);
        assert!(s.events >= 3);
    }

    #[test]
    fn greedypar_orders_by_remaining_total() {
        let t = SpeedupTrace::new([(0.0, vec![Phase::par(3.0)]), (0.0, vec![Phase::par(1.0)])]);
        let s = simulate_speedup(&t, &mut GreedyPar, 1.0, 1.0);
        assert!((s.completion[1] - 1.0).abs() < 1e-9);
        assert!((s.completion[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn capped_phase_limits_speedup() {
        // Capped at 2: with 8 processors the phase still runs at rate 2.
        let t = SpeedupTrace::new([(0.0, vec![Phase::capped(8.0, 2.0)])]);
        let s = simulate_speedup(&t, &mut Equi, 8.0, 1.0);
        assert!((s.completion[0] - 4.0).abs() < 1e-9, "{}", s.completion[0]);
        // With 1 processor it is the bottleneck instead.
        let s = simulate_speedup(&t, &mut Equi, 1.0, 1.0);
        assert!((s.completion[0] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn capped_needs_allocation_unlike_seq() {
        // GreedyPar considers capped phases schedulable work (they would
        // stall at zero allocation), so a lone capped job gets processors.
        let t = SpeedupTrace::new([(0.0, vec![Phase::capped(2.0, 1.0)])]);
        let s = simulate_speedup(&t, &mut GreedyPar, 4.0, 1.0);
        assert!((s.completion[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn arrivals_mid_run() {
        let t = SpeedupTrace::new([(0.0, vec![Phase::par(2.0)]), (1.0, vec![Phase::par(2.0)])]);
        // EQUI, P=1: [0,1): job0 at rate 1 (alone), remaining 1.
        // [1,..): both at 1/2: job0 done at 3; job1 remaining 1 at t=3,
        // then alone at rate 1 → done at 4.
        let s = simulate_speedup(&t, &mut Equi, 1.0, 1.0);
        assert!((s.completion[0] - 3.0).abs() < 1e-9);
        assert!((s.completion[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace() {
        let t = SpeedupTrace::new(std::iter::empty::<(f64, Vec<Phase>)>());
        let s = simulate_speedup(&t, &mut Equi, 1.0, 1.0);
        assert!(s.flow.is_empty());
    }
}
