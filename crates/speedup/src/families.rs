//! Instance families for the speed-up curves experiments.

use crate::job::{Phase, SpeedupTrace};

/// The **sequential swarm** — the family behind \[15\]'s negative result
/// for RR/EQUI on the ℓ2 norm (experiment E15).
///
/// One fully parallelizable job of work `par_work` arrives at `t = 0`,
/// together with a maintained *swarm* of `swarm` sequential jobs: each
/// sequential job has work `seq_len`, and a fresh batch of `swarm` of them
/// arrives every `seq_len` time units for `rounds` rounds, so about
/// `swarm` sequential jobs are alive at every moment of the horizon.
///
/// Why it kills EQUI but not the optimum:
/// * sequential jobs progress at machine speed **regardless of
///   allocation** — they cost the optimum *nothing* (GreedyPar gives them
///   zero processors and they finish exactly on time, flow `seq_len`);
/// * EQUI still hands every one of them an equal share, so the parallel
///   job receives only `P/(swarm+1)` — its flow inflates by a factor
///   `≈ swarm + 1`, and **extra speed only divides this factor, never
///   cancels it**, which is precisely why no O(1) speed rescues RR here,
///   in contrast to Theorem 1's standard setting.
///
/// Shrinking `seq_len` (with `rounds` scaled up to keep the horizon) sends
/// the swarm's own contribution to the ℓ2 norm to zero while preserving
/// the dilution, so the ℓ2 ratio grows linearly in `swarm`.
///
/// The `overlap` parameter hardens the family against resource
/// augmentation, mirroring how \[15\]'s lower bound picks a construction
/// *per speed*: batches arrive every `seq_len/overlap`, so at machine
/// speed `s ≤ overlap` roughly `overlap/s · swarm` sequential jobs are
/// alive at all times and the dilution of the parallel job never drops
/// below `≈ swarm` — extra speed divides the dilution but the instance
/// designer simply raises `overlap`. `overlap = 1` is the plain swarm
/// described above.
pub fn seq_swarm_overlapped(
    swarm: usize,
    seq_len: f64,
    par_work: f64,
    rounds: usize,
    overlap: u32,
) -> SpeedupTrace {
    assert!(overlap >= 1);
    let period = seq_len / f64::from(overlap);
    let mut jobs: Vec<(f64, Vec<Phase>)> = Vec::with_capacity(1 + swarm * rounds);
    jobs.push((0.0, vec![Phase::par(par_work)]));
    for round in 0..rounds {
        let t = round as f64 * period;
        for _ in 0..swarm {
            jobs.push((t, vec![Phase::seq(seq_len)]));
        }
    }
    SpeedupTrace::new(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate_speedup;
    use crate::policy::{Equi, GreedyPar};

    #[test]
    fn swarm_shape() {
        let t = seq_swarm_overlapped(4, 2.0, 8.0, 3, 1);
        assert_eq!(t.len(), 1 + 4 * 3);
        // First job is the parallel one.
        assert_eq!(t.jobs()[0].seq_work(), 0.0);
        assert_eq!(t.jobs()[1].seq_work(), 2.0);
    }

    #[test]
    fn swarm_dilutes_equi_by_the_predicted_factor() {
        // swarm=7, P=1, speed 1: EQUI gives the par job 1/8 of a processor
        // while the swarm persists → par flow ≈ 8·par_work. GreedyPar: par
        // flow = par_work.
        let swarm = 7;
        let par_work = 4.0;
        let t = seq_swarm_overlapped(swarm, 1.0, par_work, 64, 1);
        let e = simulate_speedup(&t, &mut Equi, 1.0, 1.0);
        let g = simulate_speedup(&t, &mut GreedyPar, 1.0, 1.0);
        let dilution = e.flow[0] / g.flow[0];
        assert!((g.flow[0] - par_work).abs() < 1e-9);
        assert!(
            (dilution - (swarm + 1) as f64).abs() < 1.0,
            "dilution {dilution}, expected ≈ {}",
            swarm + 1
        );
        // The swarm itself is indifferent: every seq job has flow seq_len
        // under both policies.
        for j in 1..t.len() {
            assert!((e.flow[j] - 1.0).abs() < 1e-9);
            assert!((g.flow[j] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn extra_speed_only_divides_the_dilution() {
        // Overlap 4 keeps ≥ 15-ish sequential jobs alive for speeds ≤ 4.
        let t = seq_swarm_overlapped(15, 1.0, 4.0, 400, 4);
        let e2 = simulate_speedup(&t, &mut Equi, 1.0, 2.0);
        let g1 = simulate_speedup(&t, &mut GreedyPar, 1.0, 1.0);
        // At speed 2 the alive swarm is ≈ 2·15; EQUI's par rate is
        // ≈ 2/(30) → the par job is still ≈ 7-8× slower than the speed-1
        // clairvoyant baseline.
        let ratio = e2.flow[0] / g1.flow[0];
        assert!(ratio > 6.0, "{ratio}");
    }
}
